import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import plinth
from plinth import cli, derivation, grading, imageideals, linalg, oracle, polyring
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
        # one field more or different is a different problem
        for extra in ("bounds 3,3\n", "cap 7\n"):
            changed = parse_problem(printed + extra)
            assert changed != spec and spec != changed, (name, extra)


def test_run_check_pass():
    spec = parse_problem(FIXTURES["slice2"])
    report = run("check", spec)
    assert report.exit_code == 0
    assert report.verdict == "PASS"


def test_run_check_not_lnd():
    # a D shown not locally nilpotent is a verified fail under every command,
    # the variable whose iterates recur its witness
    spec = parse_problem(FIXTURES["notlnd"])
    for command, n in (("check", None), ("kernel", None), ("image-ideal", 0),
                       ("image-ideal", 2), ("verify", 0), ("verify", 1)):
        report = run(command, spec, n=n)
        assert (report.command, report.verdict, report.exit_code) == (command, "FAIL", 1)
        assert report.witnesses == ["X"]
        assert report.certificates[0]["lnd"] is False
        assert "D is not locally nilpotent: iterates of X recur" in report.lines


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
    assert main(["check", "--example", "notlnd"]) == 1
    assert main(["check", "--example", "no-such-fixture"]) == 3
    assert main(["examples", "--name", "pid3"]) == 0
    capsys.readouterr()
    for argv in (["check"], ["kernel"], ["image-ideal", "--n", "1"], ["verify", "--n", "2"]):
        assert main(argv + ["--example", "notlnd", "--json"]) == 1, argv
        report = json.loads(capsys.readouterr().out)
        assert (report["verdict"], report["witnesses"]) == ("FAIL", ["X"]), argv
    assert main(["examples", "--name", "notlnd"]) == 1
    assert capsys.readouterr().out.endswith("verdict: FAIL\n")
    # an unknown fixture is malformed input under examples as under --example
    unknown = ("input error: unknown fixture 'no-such-fixture'; try: %s\n"
               % ", ".join(sorted(FIXTURES)))
    for argv in (["check", "--example", "no-such-fixture"],
                 ["examples", "--name", "no-such-fixture", "--json"]):
        assert main(argv) == 3
        assert capsys.readouterr() == ("", unknown)


def test_fail_without_a_witness_is_an_internal_error(capsys, monkeypatch):
    # exit 1 is a verified fail: a FAIL verdict that names no witness is a
    # fault of plinth, refused before any report is printed
    monkeypatch.setattr(oracle.VerifyReport, "overall", property(lambda self: "FAIL"))
    assert main(["verify", "--example", "inice", "--json"]) == 2
    assert capsys.readouterr() == ("", "internal error: verify ends FAIL without a witness\n")
    with pytest.raises(polyring.CertificateError, match="FAIL without a witness"):
        cli.RunReport("check", "", "FAIL")
    assert cli.RunReport("check", "", "FAIL", witnesses=["X"]).exit_code == 1


def test_failed_recheck_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # a certificate that fails its re-check leaves no certified answer: exit
    # 2 with "internal error" on stderr, never "input error" or a verdict
    solve_first = oracle._Combinations.solve_first

    def wrong(self, *target):
        answer = solve_first(self, *target)
        answer[0] = answer[0] + answer[0].ring.one()
        return answer

    monkeypatch.setattr(oracle._Combinations, "solve_first", wrong)
    path = tmp_path / "bezout.txt"  # a slice-bezout input
    path.write_text("param a\nparam b\nvar X\nvar Y\nD X = a + 1\nD Y = 1 + (a + 1)*b\n")
    for argv in (["check", str(path)], ["image-ideal", "--n", "1", str(path)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("internal error: Bezout cofactors of a + 1, a*b + b + 1 "
                       "fail their re-check\n")
    # the re-check of the preimages p1^i1 * p2^i2 by applying D j times
    iterate = imageideals.iterate
    monkeypatch.setattr(imageideals, "iterate", lambda D, f, n: iterate(D, f, n) + 1)
    assert main(["image-ideal", "--example", "inice", "--n", "2"]) == 2
    assert capsys.readouterr() == ("", "internal error: preimage identity failed for a^2\n")
    # and the kernel checks, which kernel and the 3-variable reduction used to
    # report as unsupported structure or answer by the oracle alone
    apply = imageideals.apply
    monkeypatch.setattr(imageideals, "apply", lambda D, f: apply(D, f) + 1)
    for argv in (["kernel", "--example", "tparam"], ["kernel", "--example", "pid3"],
                 ["image-ideal", "--example", "pid3", "--n", "1"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("internal error: ") and "kernel" in err
    # and the slice read off the Bezout cofactors, over Q[t] and over Q[a,b]
    monkeypatch.setattr(oracle._Combinations, "solve_first", solve_first)
    for name, text, slice_ in (("egcd", "param t\nvar X\nvar Y\nD X = t^2 + 1\nD Y = t\n",
                                "-t*Y + X"),
                               ("bezout", "param a\nparam b\nvar X\nvar Y\nD X = 1 + a\n"
                                "D Y = a\n", "X - Y")):
        path = tmp_path / (name + ".txt")
        path.write_text(text)
        assert main(["image-ideal", "--n", "1", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "internal error: Bezout slice %s fails its re-check\n" % slice_)


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    # an exception main does not name is a fault of plinth, not a verified
    # fail: exit 2 with one "internal error" line and no traceback
    def broken(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "run", broken)
    for argv in (["check", "--example", "inice"], ["image-ideal", "--example", "inice"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: ZeroDivisionError: division by zero\n"


IMPORTED_BY_PLINTH = """
import sys
before = set(sys.modules)
import plinth, plinth.cli, plinth.oracle
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_cli_only_modules():
    # the library imports no dataclasses (which pulls in inspect) and leaves
    # argparse to the command line and json to --json
    src = str(Path(plinth.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", IMPORTED_BY_PLINTH], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    added = set(proc.stdout.split())
    assert "plinth.cli" in added and "plinth.oracle" in added
    assert added & {"dataclasses", "inspect", "argparse", "json", "string"} == set()


@pytest.mark.parametrize("argv", [["examples", "--json"], ["check", "--example", "notlnd"]])
def test_closed_pipe_keeps_the_report_exit_code(argv, capsys):
    # a reader that stops early, as `| head` does: the reader's end is
    # closed before the command writes, so every write meets a broken pipe
    code = main(argv)
    capsys.readouterr()
    src = str(Path(plinth.__file__).resolve().parent.parent)
    proc = subprocess.Popen([sys.executable, "-m", "plinth.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (code, b"")


def test_degree_limit_is_an_input_error(tmp_path, capsys):
    # one step past the degree limit is malformed input, not a wrong answer
    path = tmp_path / "limit.txt"
    for exponent, code in ((polyring.DEGREE_LIMIT - 1, 0), (polyring.DEGREE_LIMIT, 3)):
        path.write_text("var X\nvar Y\nD X = 0\nD Y = X^%d\n" % exponent)
        assert main(["check", str(path)]) == code
        err = capsys.readouterr().err
        assert (err == "input error: degree limit: monomial degrees must stay below 32768 "
                       "(line 4)\n") == (code == 3)


def test_verify_n_0_checks_the_kernel(capsys):
    # I_0 = A; the expect lines of tparam and wink1 predict I_1.  1 is not
    # in wink1's three-generator ideal, but bounded membership cannot say so
    codes = {"inice": 0, "pid3": 0, "qnice": 0, "slice1": 0, "slice2": 0,
             "tparam": 1, "wink1": 2, "notlnd": 1}
    assert set(codes) == set(FIXTURES)
    for name, code in codes.items():
        assert main(["verify", "--example", name, "--n", "0"]) == code, name
    capsys.readouterr()


def test_negative_cap_is_an_input_error(tmp_path, capsys):
    assert main(["verify", "--example", "inice", "--cap", "-5"]) == 3
    assert "input error: entry cap must be a natural" in capsys.readouterr().err
    path = tmp_path / "cap.txt"
    path.write_text(FIXTURES["wink1"] + "cap -1\n")
    for command in ("image-ideal", "verify"):
        assert main([command, str(path)]) == 3
        assert "input error: entry cap must be a natural" in capsys.readouterr().err
    assert main(["verify", "--example", "inice", "--cap", "0"]) == 2
    capsys.readouterr()


def test_negative_limits_are_input_errors_without_the_oracle(tmp_path, capsys):
    # image-ideal answers inice by a formula and never runs the oracle
    cases = [(["--bounds=-1,2"], "slice bounds must be naturals"),
             (["--cap", "-5"], "entry cap must be a natural, not -5"),
             (["--bounds=2,-1", "--cap", "-5"], "slice bounds must be naturals")]
    for options, message in cases:
        for argv in (["image-ideal", "--example", "inice"], ["verify", "--example", "inice"],
                     ["examples", "--name", "inice"]):
            assert main(argv + options) == 3, argv + options
            out = capsys.readouterr()
            assert out.out == "" and out.err == "input error: %s\n" % message
    path = tmp_path / "bounds.txt"
    path.write_text(FIXTURES["inice"].replace("bounds 2,2", "bounds -1,2"))
    assert main(["image-ideal", str(path)]) == 3
    assert capsys.readouterr().err == "input error: slice bounds must be naturals\n"
    assert main(["image-ideal", str(path), "--bounds", "2,2"]) == 0
    capsys.readouterr()


def test_usage_errors_are_input_errors(capsys):
    # argparse's own exit code 2 would read as INCONCLUSIVE
    for argv in (["verify", "--example", "inice", "--bounds", "-1,2"],
                 ["verify", "--example", "inice", "--n", "x"],
                 ["check", "--example", "inice", "--frobnicate"],
                 # only the problem commands read factor lines to relax
                 ["examples", "--name", "tparam", "--assert-irreducible"],
                 ["frobnicate"], []):
        assert main(argv) == 3, argv
        out = capsys.readouterr()
        assert out.out == "" and "usage: plinth" in out.err, argv
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--help"])
    assert exit_.value.code == 0
    assert "usage: plinth verify" in capsys.readouterr().out


def test_every_generator_is_printed_once(monkeypatch, capsys):
    printed = {}  # id -> (polynomial, times); the polynomial keeps its id taken
    original = polyring.poly_to_string

    def counted(f):
        printed[id(f)] = (f, printed.get(id(f), (f, 0))[1] + 1)
        return original(f)

    monkeypatch.setattr(polyring, "poly_to_string", counted)
    monkeypatch.setattr(cli, "poly_to_string", counted)
    answers = []
    image_ideal = imageideals.Analysis.image_ideal

    def kept(self, *args):
        answers.append(image_ideal(self, *args))
        return answers[-1]

    monkeypatch.setattr(imageideals.Analysis, "image_ideal", kept)
    assert main(["image-ideal", "--example", "inice", "--n", "3"]) == 0
    assert "I_3 generators: a^3, a^2*b, a*b^2, b^3" in capsys.readouterr().out
    answer, = answers
    assert [printed[id(g)][1] for g in answer.generators] == [1, 1, 1, 1]
    # verify prints wink1's expect lines once more than the spec's echo
    # does (which may print an object twice: a parsed variable is shared)
    spec = parse_problem(FIXTURES["wink1"])
    assert "expect -a*Y + b*X" in spec.echo
    echoed = [printed[id(g)][1] for g in spec.expect]
    report = run("verify", spec, n=1)
    assert report.generators == ["a", "b", "-a*Y + b*X"]
    assert [printed[id(g)][1] - k for g, k in zip(spec.expect, echoed)] == [1, 1, 1]


def test_deep_nesting_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "nested.txt"
    for depth, code in ((200, 0), (300, 3)):
        path.write_text("param t\nvar X\nD X = %st%s\n" % ("(" * depth, ")" * depth))
        assert main(["kernel", str(path)]) == code
        err = capsys.readouterr().err
        assert ("input error: parentheses nested too deeply" in err) == (code == 3)


def test_overlong_integer_literal_is_an_input_error(tmp_path, capsys):
    # int() converts at most 4300 digits (Python >= 3.11 and patched 3.10);
    # the refusal is malformed input, not a fault of plinth
    path = tmp_path / "digits.txt"
    path.write_text("var X\nD X = 2%s\n" % ("0" * 5000))
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr() == ("", "input error: integer literal too long "
                                       "(at position 0) (line 2)\n")


def test_a_long_coefficient_prints_its_exact_digits(tmp_path, capsys):
    # 4,001 digits read; the preimage X^2/(2*10^8000) prints past str()'s limit
    path = tmp_path / "long.txt"
    path.write_text("var X\nD X = 1%s\n" % ("0" * 4000))
    assert main(["image-ideal", str(path), "--n", "2", "--json"]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and report["generators"] == ["1"]
    assert report["certificates"][0]["preimages"] == ["1/2%s*X^2" % ("0" * 8000)]
    assert parse_problem(report["spec-echo"]) == parse_problem(path.read_text())
    assert main(["check", str(path)]) == 0


@pytest.mark.parametrize("image, message", [
    ("10^5000", "a coefficient of this power may have more than 4300 digits (at position 3)"),
    ("(X+Y+Z+1)^80", "a power of 4 terms to the 80 may have more than 10000 terms "
                     "(at position 10)"),
    ("(X+Y+Z+1)^20*(X+Y+Z+1)^20", "a product of 1771 by 1771 terms may have more than "
                                  "10000 terms (at position 13)"),
])
def test_a_spec_that_would_not_round_trip_is_an_input_error(image, message, tmp_path, capsys):
    path = tmp_path / "refused.txt"
    path.write_text("var X\nvar Y\nvar Z\nD X = 0\nD Y = 0\nD Z = %s\n" % image)
    start = time.monotonic()
    assert main(["check", str(path)]) == 3
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr() == ("", "input error: %s (line 6)\n" % message)


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


def test_examples_listing_json_names_the_fixtures(capsys):
    assert main(["examples", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fixtures"] == sorted(FIXTURES)
    # the key belongs to the listing alone
    assert main(["examples", "--name", "slice1", "--json"]) == 0
    assert "fixtures" not in json.loads(capsys.readouterr().out)


GOLDEN = Path(__file__).parent / "golden"


def _examples_output(name, capsys):
    code = main(["examples", "--name", name])
    return code, capsys.readouterr().out


def test_examples_golden(capsys):
    for name in sorted(FIXTURES):
        _, out = _examples_output(name, capsys)
        assert out == (GOLDEN / ("%s.txt" % name)).read_text(), name


COMMANDS = [["check"], ["kernel"]] + [["image-ideal", "--n", str(n)] for n in range(4)]
VERIFY_COMMANDS = [["verify", "--n", str(n)] + extra for n in (1, 2)
                   for extra in ([], ["--bounds", "3,3", "--cap", "100000"])]


def _commands_output(name, capsys, commands=COMMANDS, output=("--json",)):
    """Exit code, stdout and stderr of each command, as one text."""
    parts = []
    for cmd in commands:
        argv = cmd + ["--example", name, *output]
        code = main(argv)
        captured = capsys.readouterr()
        parts.append("$ plinth %s\n%s%sexit %d\n"
                     % (" ".join(argv), captured.out, captured.err, code))
    return "".join(parts)


def test_commands_golden(capsys):
    # examples --name runs only j = 1; these pin the other commands and j
    for name in sorted(FIXTURES):
        out = _commands_output(name, capsys)
        assert out == (GOLDEN / ("%s.commands.txt" % name)).read_text(), name


def test_verify_golden(capsys):
    # the oracle's verdicts, items and cap messages at two bounds and n = 1, 2
    for name in sorted(FIXTURES):
        out = _commands_output(name, capsys, VERIFY_COMMANDS)
        assert out == (GOLDEN / ("%s.verify.txt" % name)).read_text(), name


CAP_COMMANDS = [[command, "--n", str(n), "--cap", cap] for command in ("verify", "image-ideal")
                for n in (1, 2) for cap in ("0", "500", "5000")]


def test_cap_golden(capsys):
    # which cap check fires first, with its numbers, at three caps; the
    # text output carries the cap messages that --json leaves out
    for name in sorted(FIXTURES):
        out = _commands_output(name, capsys, CAP_COMMANDS, output=())
        assert out == (GOLDEN / ("%s.caps.txt" % name)).read_text(), name


def test_check_reports_the_image_ideal_branch(capsys):
    # check prints the fixed-point-freeness the image-ideal branch decided
    compared = []
    for name in sorted(FIXTURES):
        main(["examples", "--name", name, "--json"])
        check, *rest = json.loads(capsys.readouterr().out)["certificates"]
        for cert in rest:
            fpf = cert.get("certificate", {}).get("fixed_point_free")
            if "theorem" in cert and fpf is not None:
                assert check["fixed_point_free"] is fpf, name
                compared.append(name)
    assert compared == ["inice", "pid3", "qnice", "slice1", "slice2", "tparam"]


def test_image_ideal_without_factorization(tmp_path, capsys):
    # tparam's D lines alone: DX_1 = -t^2 + t is reducible and undeclared
    path = tmp_path / "tparam.txt"
    path.write_text("param t\nvar X1\nvar X2\nD X1 = -t^2 + t\nD X2 = -t*X1 - t + 1\n")
    assert main(["image-ideal", str(path), "--n", "0"]) == 0
    assert "theorem: trivial" in capsys.readouterr().out
    assert main(["image-ideal", str(path), "--n", "1"]) == 3
    assert ("a factorization of DX_1 = -t^2 + t into irreducibles is required"
            in capsys.readouterr().err)
    # one parsed problem: the error comes again for every j >= 1, not j = 0
    spec = parse_problem(path.read_text())
    for n in (1, 2):
        with pytest.raises(plinth.PlinthError, match="factorization of DX_1"):
            run("image-ideal", spec, n=n)
    assert run("image-ideal", spec, n=0).certificates[0]["theorem"] == "trivial"


def test_unfactored_b_names_the_factor_lines(tmp_path, capsys):
    # on the command line the remedy is a factor line, not a library keyword
    path = tmp_path / "problem.txt"
    path.write_text("param t\nvar X1\nvar X2\nD X1 = t^2 - 1\nD X2 = -2*X1\n")
    remedy = "give it as factor lines, or pass factored_b"
    assert main(["image-ideal", str(path)]) == 3
    assert remedy in capsys.readouterr().err
    assert main(["check", str(path)]) == 0
    fpf, = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("fixed point free:")]
    assert remedy in fpf


REDUCIBLE_KERNELS = [
    # (a + 1)*(b*X - a*Y) is in Ker(D) too, but generates a proper subring
    pytest.param("param a\nparam b\nvar X\nvar Y\nD X = a^2 + a\nD Y = a*b + b\n",
                 "-a*Y + b*X", id="nice-Qab"),
    pytest.param("param t\nvar X1\nvar X2\nD X1 = t\nD X2 = t*X1\n", "-1/2*X1^2 + X2",
                 id="quasi-Qt"),
    # c = b*X - a*Y lies in Ker(D0): D is nice, but its images are not in R
    pytest.param("param a\nparam b\nvar X\nvar Y\nD X = a*(b*X - a*Y)\nD Y = b*(b*X - a*Y)\n",
                 "a*Y - b*X", id="nice-Qab-content-in-X"),
    # (X + 1) times the pid3 fixture
    pytest.param("param t\nvar X\nvar Y\nvar Z\nD X = 0\nD Y = t*(X + 1)\nD Z = X*(X + 1)\n",
                 "X, -t*Z + X*Y", id="nice-3var-Qt"),
]


@pytest.mark.parametrize("text, kernel", REDUCIBLE_KERNELS)
def test_kernel_of_a_reducible_derivation(text, kernel, tmp_path, capsys):
    # D = c*D0 with c the gcd of the images: Ker(D) = Ker(D0)
    path = tmp_path / "problem.txt"
    path.write_text(text)
    assert main(["kernel", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Ker(D) = R[%s]" % kernel
    # the image ideals still refuse a reducible D as input
    for command in ("image-ideal", "verify"):
        assert main([command, str(path)]) == 3
        assert "D is not irreducible" in capsys.readouterr().err


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


def test_negative_limits_are_input_errors_on_every_command(capsys):
    # check and kernel take --bounds and --cap as well, though neither runs
    # the oracle, and so does examples on a fixture that is not an LND
    cases = [(["--bounds=-1,2"], "slice bounds must be naturals"),
             (["--cap", "-5"], "entry cap must be a natural, not -5")]
    for options, message in cases:
        for argv in (["check", "--example", "inice"], ["kernel", "--example", "inice"],
                     ["examples", "--name", "notlnd"]):
            assert main(argv + options) == 3, argv + options
            out = capsys.readouterr()
            assert out.out == "" and out.err == "input error: %s\n" % message
    assert main(["check", "--example", "inice", "--bounds", "0,0", "--cap", "0"]) == 0
    capsys.readouterr()


def test_oracle_only_image_ideal_builds_images_once(monkeypatch):
    # the images of D^j are one matrix, built once
    built = []
    real = oracle.matrix_of_power

    def counted(*args, **kwargs):
        built.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "matrix_of_power", counted)
    report = run("image-ideal", parse_problem(FIXTURES["wink1"]), bounds=(2, 2))
    assert report.certificates[0]["theorem"] == "oracle-only"
    assert report.generators
    assert len(built) == 1


def test_kernel_refusal_applies_no_derivation(capsys, monkeypatch):
    # wink1's D^1 matrix is refused from the slice dimensions alone: no
    # slice basis is enumerated and D is applied to no monomial
    def applied(*args):
        raise AssertionError("D applied before the cap check")

    def enumerated(*args):
        raise AssertionError("slice basis enumerated before the cap check")

    monkeypatch.setattr(oracle, "_apply_nums", applied)
    monkeypatch.setattr(oracle, "apply", applied)
    monkeypatch.setattr(oracle, "_bounded_tuples", enumerated)
    for bounds, seconds, needs in [
            ("12,12", 2.0, "47775 x 41405 = 1978123875"),
            ("80,80", 1.0, "312671043 x 305136801 = 95407441826353443")]:
        start = time.monotonic()
        code = main(["image-ideal", "--example", "wink1", "--bounds", bounds])
        assert time.monotonic() - start < seconds, bounds
        assert code == 2, bounds
        assert ("oracle run hit the entry cap: solve needs %s entries, cap is 20000" % needs
                in capsys.readouterr().out), bounds


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


def test_cap_zero_is_honoured(capsys):
    assert main(["verify", "--example", "inice", "--cap", "0"]) == 2
    assert "cap is 0" in capsys.readouterr().out
    spec = parse_problem(FIXTURES["inice"] + "cap 0\n")
    report = run("verify", spec)
    assert report.exit_code == 2
    assert any("cap is 0" in line for line in report.lines)
    spec = parse_problem(FIXTURES["wink1"] + "cap 0\n")
    for _ in range(2):  # each result is fresh: the note is not appended twice
        report = run("image-ideal", spec)
        notes = [line for line in report.lines if "oracle run hit the entry cap" in line]
        assert len(notes) == 1 and "cap is 0" in notes[0]
        assert report.generators == []


@pytest.mark.parametrize("name, calls", [
    ("inice", 1), ("slice1", 1), ("slice2", 1), ("tparam", 1), ("wink1", 1),
    ("qnice", 1), ("pid3", 1),
])
def test_one_classify_per_derivation(name, calls, monkeypatch):
    original = derivation.classify
    seen = []

    def counted(*args, **kwargs):
        seen.append(args[0])
        return original(*args, **kwargs)

    for mod in (plinth, cli, derivation, grading, imageideals, linalg, oracle, polyring):
        if getattr(mod, "classify", None) is original:
            monkeypatch.setattr(mod, "classify", counted)
    spec = parse_problem(FIXTURES[name])
    for cmd, n in (("check", None), ("kernel", None), ("image-ideal", 1),
                   ("image-ideal", 2), ("image-ideal", 3)):
        run(cmd, spec, n=n)
    assert len(seen) == calls


@pytest.mark.parametrize("search, text, slice_", [
    ("extended_euclid", "param t\nvar X\nvar Y\nD X = t^2 + 1\nD Y = t\n", "-t*Y + X"),
    ("_bounded_bezout", "param a\nparam b\nvar X\nvar Y\nD X = 1 + a\nD Y = a\n", "X - Y"),
])
def test_one_bezout_search_per_derivation(search, text, slice_, monkeypatch):
    # check decides fixed-point-freeness by the cofactors, and image-ideal
    # reads its slice off the same cofactors, at every n
    original = getattr(derivation, search)
    seen = []

    def counted(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(derivation, search, counted)
    spec = parse_problem(text)
    assert "fixed point free: True" in run("check", spec).lines
    for n in (1, 2, 3):
        report = run("image-ideal", spec, n=n)
        assert report.certificates[0]["theorem"] == "slice"
        assert report.certificates[0]["preimages"] == [
            str(spec.ring.poly(slice_) ** n * Fraction(1, factorial(n)))]
    assert len(seen) == 1


def test_readme_library_tour(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    expected = [line.split("# ", 1)[1] for line in code.splitlines()
                if line.startswith("print(")]
    assert len(expected) == 3
    assert capsys.readouterr().out.splitlines() == expected


def test_bounds_are_read_by_one_routine(tmp_path, capsys):
    # --bounds and the bounds line take p,v alike, and refuse alike
    path = tmp_path / "bounds.txt"
    for text, option, line in (("1,x", "bounds must be integers", "bounds must be integers"),
                               ("1,2,3", "expected --bounds p,v", "expected 'bounds p,v'")):
        assert main(["check", "--example", "slice2", "--bounds", text]) == 3
        assert capsys.readouterr() == ("", "input error: %s\n" % option)
        path.write_text(FIXTURES["slice2"].replace("bounds 2,2", "bounds " + text))
        assert main(["check", str(path)]) == 3
        assert capsys.readouterr() == ("", "input error: %s (line 6)\n" % line)


def test_expect_zero_is_refused_at_parse_time(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("var X\nD X = 1\nexpect X - X\n")
    with pytest.raises(ProblemFormatError, match=r"expect needs a nonzero polynomial \(line 3\)"):
        parse_problem(path.read_text())
    assert main(["verify", str(path)]) == 3
    assert capsys.readouterr() == ("", "input error: expect needs a nonzero polynomial (line 3)\n")


def test_verify_tests_no_oracle_answer_against_the_oracle(tmp_path, capsys):
    # without expect lines an oracle-only answer is no prediction: checked
    # against the oracle it came from, every item would pass
    path = tmp_path / "wink1.txt"
    path.write_text("".join(line + "\n" for line in FIXTURES["wink1"].splitlines()
                            if not line.startswith("expect")))
    assert main(["image-ideal", str(path), "--n", "1", "--cap", "1000000"]) == 2
    assert "not a certified basis" in capsys.readouterr().out
    assert main(["verify", str(path), "--n", "1", "--cap", "1000000", "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    cert, = report["certificates"]
    assert report["generators"] == [] and cert["forward_items"] == []
    assert cert["backward_items"]
    assert all(i["status"] == "INCONCLUSIVE" and i["detail"] == "no predicted generators to test"
               for i in cert["backward_items"])


def test_classify_budgets_its_iterates(tmp_path, capsys):
    # the iterates of Y double in size every few steps: the 64th holds
    # 533,637 terms, so classify stops before the next one would pass the
    # budget and the local nilpotence of D stays unconfirmed
    path = tmp_path / "growing.txt"
    path.write_text("param a\nparam t\nvar X\nvar Y\nvar Z\nD X = t\n"
                    "D Y = 2*Z + 2*X + 1/2*a*Y^2\nD Z = a*X + 1/2*a*t + 2*t^2\n")
    start = time.monotonic()
    assert main(["check", str(path)]) == 2
    assert time.monotonic() - start < 1.0
    out = capsys.readouterr().out
    assert "lnd: None" in out and "iterates of Y outgrow the iteration budget" in out
    assert out.endswith("verdict: INCONCLUSIVE\n")
