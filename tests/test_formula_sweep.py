"""Byte-identity of the formula branches: stdout, stderr and exit code of
check, kernel and image-ideal n = 1..3, as text and as --json, on a
fixed-seed sample of the four problem families of test_formula_oracle
(nice, pid-3var, strictly quasi-nice and nice-able), pinned by the sha256
of one transcript, and on one fixed problem for each branch that neither
those families nor the built-in fixtures reach (BRANCHES).
tests/test_sweep.py pins the built-in fixtures, which hold one problem per
theorem; this pins many.  A change that alters any output fails here; the
transcript is left in the test's tmp_path to diff against a transcript of
the parent commit."""

import hashlib
import random
from pathlib import Path

from plinth.cli import main

from test_formula_oracle import nice_problem, niceable_problem, pid3_problem, quasi_problem

DIGEST = Path(__file__).parent / "golden" / "formula_sweep.sha256"
FAMILIES = (nice_problem, pid3_problem, quasi_problem, niceable_problem)
PER_FAMILY = 6
COMMANDS = [["check"], ["kernel"]] + [["image-ideal", "--n", str(n)] for n in (1, 2, 3)]
BRANCHES = [
    # strictly quasi-nice, DX_1 = t prime without factor lines: 2varquasi
    "param t\nvar X1\nvar X2\nD X1 = t\nD X2 = -2*X1\n",
    # strictly quasi-nice and fixed point free at its one prime: I_j = A
    "param t\nvar X1\nvar X2\nD X1 = t^2\nD X2 = -2*t*X1 - 1\nfactor t : 2\n",
    # quasi-nice with a unit DX_1: strictness slice
    "param t\nvar X1\nvar X2\nD X1 = 2\nD X2 = -3*X1^2\n",
    # quasi-nice over Q[a, b]: the divisibility split, strictness undetermined
    "param a\nparam b\nvar X1\nvar X2\nD X1 = a*b\nD X2 = -3*X1^2 - a\n"
    "factor a : 1\nfactor b : 1\n",
    # nice over Q, one image zero
    "var X\nvar Y\nD X = 2\nD Y = 0\n",
    # nice over Q[a, b], no common zero, no Bezout cofactors within the bound
    "param a\nparam b\nvar X\nvar Y\nD X = a\nD Y = b + 1\n",
    # nice 3-variable over Q[t] with a slice
    "param t\nvar X\nvar Y\nvar Z\nD X = 0\nD Y = 1\nD Z = X\n",
    # nice 3-variable over Q[t] whose images have no R-linear relation of
    # degree 6 or less: the reduction fails
    "param t\nvar X\nvar Y\nvar Z\nD X = 1\nD Y = t^7\nD Z = -t^7*X + Y\n",
    # iterates of Y outgrow the iteration budget: local nilpotence unconfirmed
    "param a\nparam t\nvar X\nvar Y\nvar Z\nD X = t\nD Y = 1/2*a*Y^2 + 2*X + 2*Z\n"
    "D Z = 1/2*a*t + 2*t^2 + a*X\n",
    # locally nilpotent, neither nice nor quasi-nice in these coordinates
    "var X\nvar Y\nD X = 4*X*Y + 4*Y^3 + 1\nD Y = -2*X - 2*Y^2\n",
]


def problems():
    rng = random.Random("formula-sweep")
    return [family(rng)[0] for family in FAMILIES for _ in range(PER_FAMILY)] + BRANCHES


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
