"""Byte-identity of the formula branches: stdout, stderr and exit code of
check, kernel and image-ideal n = 1..3, as text and as --json, on a
fixed-seed sample of the four problem families of test_formula_oracle
(nice, pid-3var, strictly quasi-nice and nice-able), pinned by the sha256
of one transcript.  tests/test_sweep.py pins the built-in fixtures, which
hold one problem per branch; this pins many.  A change that alters any
output fails here; the transcript is left in the test's tmp_path to diff
against a transcript of the parent commit."""

import hashlib
import random
from pathlib import Path

from plinth.cli import main

from test_formula_oracle import nice_problem, niceable_problem, pid3_problem, quasi_problem

DIGEST = Path(__file__).parent / "golden" / "formula_sweep.sha256"
FAMILIES = (nice_problem, pid3_problem, quasi_problem, niceable_problem)
PER_FAMILY = 6
COMMANDS = [["check"], ["kernel"]] + [["image-ideal", "--n", str(n)] for n in (1, 2, 3)]


def problems():
    rng = random.Random("formula-sweep")
    return [family(rng)[0] for family in FAMILIES for _ in range(PER_FAMILY)]


def formula_transcript(capsys, tmp_path):
    parts = []
    for k, text in enumerate(problems()):
        path = tmp_path / "problem.txt"
        path.write_text(text)
        parts.append("# problem %d\n%s" % (k, text))
        for cmd in COMMANDS:
            for output in ([], ["--json"]):
                argv = cmd + [str(path)] + output
                code = main(argv)
                captured = capsys.readouterr()
                parts.append("$ plinth %s\n%s--- stderr\n%sexit %d\n"
                             % (" ".join(cmd + output), captured.out, captured.err, code))
    return "".join(parts)


def test_formula_sweep_is_byte_identical(capsys, tmp_path):
    transcript = formula_transcript(capsys, tmp_path)
    digest = hashlib.sha256(transcript.encode()).hexdigest()
    if digest != DIGEST.read_text().strip():
        (tmp_path / "formula_sweep.txt").write_text(transcript)
        raise AssertionError("formula output changed; transcript in %s"
                             % (tmp_path / "formula_sweep.txt"))
