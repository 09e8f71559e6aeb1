"""Byte-identity sweep of the command line: stdout, stderr and exit code of
every fixture under every command, output form and limit setting, pinned by
the sha256 of one transcript.  A change that alters any output fails here;
the transcript it produced is left in the test's tmp_path to diff against a
transcript of the parent commit."""

import hashlib
from pathlib import Path

from plinth.cli import FIXTURES, main

DIGEST = Path(__file__).parent / "golden" / "sweep.sha256"

COMMANDS = (
    [["check"], ["kernel"]]
    + [["image-ideal", "--n", str(n)] for n in range(4)]
    + [["verify", "--n", str(n)] for n in range(4)]
)
SETTINGS = [
    [],
    ["--bounds", "2,2"],
    ["--bounds", "3,3", "--cap", "100000"],
    ["--cap", "0"],
    ["--cap", "500"],
    ["--bounds=-1,2"],
]
OUTPUTS = [[], ["--json"]]


def _runs():
    for name in sorted(FIXTURES):
        for setting in SETTINGS:
            for output in OUTPUTS:
                for cmd in COMMANDS:
                    yield cmd + ["--example", name] + setting + output
                yield ["examples", "--name", name] + setting + output


def sweep_transcript(capsys):
    parts = []
    for argv in _runs():
        code = main(argv)
        captured = capsys.readouterr()
        parts.append("$ plinth %s\n%s--- stderr\n%sexit %d\n"
                     % (" ".join(argv), captured.out, captured.err, code))
    return "".join(parts)


def test_sweep_is_byte_identical(capsys, tmp_path):
    transcript = sweep_transcript(capsys)
    assert len(list(_runs())) == 1056
    digest = hashlib.sha256(transcript.encode()).hexdigest()
    if digest != DIGEST.read_text().strip():
        (tmp_path / "sweep.txt").write_text(transcript)
        raise AssertionError("sweep output changed; transcript in %s"
                             % (tmp_path / "sweep.txt"))
