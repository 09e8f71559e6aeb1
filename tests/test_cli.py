import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import plinth
from plinth.cli import (
    FIXTURES,
    ProblemFormatError,
    main,
    parse_problem,
    problem_to_string,
    run,
)


def test_parse_tparam():
    spec = parse_problem(FIXTURES["tparam"])
    assert spec.params == ("t",)
    assert spec.vars == ("X1", "X2")
    assert spec.images["X1"] == spec.ring.poly("-t^2 + t")
    assert spec.images["X2"] == spec.ring.poly("-t*X1 - t + 1")
    assert len(spec.factored_b) == 2
    assert spec.bounds == (3, 2)


def test_parse_wink1():
    spec = parse_problem(FIXTURES["wink1"])
    assert spec.vars == ("X", "Y", "Z")
    assert spec.images["Z"] == spec.ring.poly("b*X - a*Y")
    assert len(spec.expect) == 3


def test_parse_errors():
    with pytest.raises(ProblemFormatError):
        parse_problem("var X\nD X = t **\n")
    with pytest.raises(ProblemFormatError):
        parse_problem("var X\nD Y = 1\n")  # unknown variable
    with pytest.raises(ProblemFormatError):
        parse_problem("var X\n")  # missing image
    with pytest.raises(ProblemFormatError):
        parse_problem("param t\n")  # no main variables
    with pytest.raises(ProblemFormatError):
        parse_problem("var X\nD X = 1\nfrobnicate 3\n")


def test_round_trip_canonical():
    for name, text in FIXTURES.items():
        spec = parse_problem(text)
        printed = problem_to_string(spec)
        assert parse_problem(printed) == spec
        # printing is idempotent: canonical form prints to itself
        assert problem_to_string(parse_problem(printed)) == printed


def test_run_check_pass():
    spec = parse_problem(FIXTURES["slice2"])
    report = run("check", spec)
    assert report.exit_code == 0
    assert report.verdict == "PASS"


def test_run_check_not_lnd():
    spec = parse_problem(FIXTURES["notlnd"])
    report = run("check", spec)
    assert report.exit_code == 2
    assert report.certificates[0]["lnd"] is False


def test_run_image_ideal_tparam():
    spec = parse_problem(FIXTURES["tparam"])
    report = run("image-ideal", spec, n=2)
    assert report.exit_code == 0
    assert report.generators == ["-t + 1"]
    assert report.certificates[0]["theorem"] == "2varquasi_PID"
    assert report.certificates[0]["m"] == 1


def test_run_verify_wink1():
    spec = parse_problem(FIXTURES["wink1"])
    report = run("verify", spec, n=1)
    assert report.exit_code == 0
    assert report.verdict == "PASS"
    assert set(report.generators) == {"a", "b", "-a*Y + b*X"}


def test_main_exit_codes(capsys):
    assert main(["check", "--example", "slice2"]) == 0
    assert main(["check", "--example", "notlnd"]) == 2
    assert main(["check", "--example", "no-such-fixture"]) == 3
    assert main(["examples", "--name", "pid3"]) == 0
    capsys.readouterr()


def test_main_json_schema(capsys):
    code = main(["image-ideal", "--example", "tparam", "--n", "2", "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    for key in (
        "command",
        "spec-echo",
        "verdict",
        "generators",
        "certificates",
        "witnesses",
    ):
        assert key in payload
    assert payload["command"] == "image-ideal"
    assert payload["generators"] == ["-t + 1"]


def test_main_problem_file(tmp_path, capsys):
    path = tmp_path / "problem.txt"
    path.write_text(FIXTURES["inice"])
    assert main(["kernel", str(path)]) == 0
    out = capsys.readouterr().out
    assert "-a*Y + b*X" in out


def test_main_syntax_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("var X1\nD X1 = t **\n")
    assert main(["check", str(path)]) == 3
    capsys.readouterr()


def test_examples_listing(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    for name in FIXTURES:
        assert name in out


GOLDEN = Path(__file__).parent / "golden"


def _examples_output(name, capsys):
    code = main(["examples", "--name", name])
    return code, capsys.readouterr().out


def test_examples_golden(capsys):
    for name in sorted(FIXTURES):
        _, out = _examples_output(name, capsys)
        assert out == (GOLDEN / ("%s.txt" % name)).read_text(), name


def test_examples_under_optimize(capsys):
    # certificate re-checks are explicit, so python -O must not change output
    src = str(Path(plinth.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for name in sorted(FIXTURES):
        code, out = _examples_output(name, capsys)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "plinth.cli", "examples", "--name", name],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (code, out), name


def test_verify_checks_cap_before_building_slices(capsys):
    # the inice slices at bounds 80,80 hold about 11 million monomials each
    start = time.monotonic()
    code = main(["verify", "--example", "inice", "--bounds", "80,80"])
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert "oracle entry cap exceeded: solve needs" in capsys.readouterr().out


def test_image_ideal_honours_cap():
    note = "oracle run hit the entry cap"
    spec = parse_problem(FIXTURES["wink1"])
    report = run("image-ideal", spec)
    assert not any(note in line for line in report.lines)
    assert report.generators
    capped = parse_problem(FIXTURES["wink1"] + "cap 50\n")
    report = run("image-ideal", capped)
    assert any(note in line for line in report.lines)
    assert report.generators == []
    report = run("image-ideal", spec, cap=50)
    assert any(note in line for line in report.lines)
