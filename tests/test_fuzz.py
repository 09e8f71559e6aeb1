"""The command line on generated problem texts (hypothesis).

Each example is a problem text and one command.  The images of D are small
polynomials: random ones, which are mostly not locally nilpotent,
triangular ones, which are, and either kind times a common factor, which
makes D reducible.  Factor, expect, bounds and cap lines come and go, and
some texts carry one malformed line.  Whatever the input, the command must
end in one of two documented ways, within the deadline:

- a report on stdout whose verdict gives the exit code (0, 1 or 2), and a
  FAIL (exit 1) names at least one witness;
- "input error: ..." on stderr, or argparse's usage message, exit 3.

No example may end in "internal error" or print a traceback.  The texts
without a malformed line also check the canonical printing: it parses back
to the same problem, and prints to itself.
"""

import contextlib
import io
import json
from datetime import timedelta

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from plinth.cli import EXIT_CODES, ProblemFormatError, main, parse_problem, problem_to_string

FUZZ = settings(max_examples=100, deadline=timedelta(seconds=5), derandomize=True,
                database=None, suppress_health_check=[HealthCheck.too_slow])

MALFORMED = ["frobnicate 3", "bounds 1,x", "bounds 2", "cap x", "cap -1", "bounds -1,2",
             "expect 0", "expect X - X", "var", "D Q = 1", "D X = (t", "D X = 1/0",
             "factor t", "factor t : x", "factor t : 1 extra", "param", "D X = t^^2"]


def _term(draw, names):
    coeff = draw(st.sampled_from(["1", "2", "3", "1/2", "2/3"]))
    powers = ["%s^%d" % (name, draw(st.integers(1, 3))) for name in names
              if draw(st.booleans())]
    return draw(st.sampled_from([" + ", " - "])) + "*".join([coeff] + powers)


def _poly(draw, names, max_terms=3, zero=True):
    """Up to max_terms terms, one most often, none (the zero polynomial)
    least, and only if zero."""
    count = draw(st.sampled_from(list(range(1, max_terms + 1)) + [0] * zero))
    terms = "".join(_term(draw, names) for _ in range(count))
    return terms[1:].lstrip("+ ") or "0"


@st.composite
def problems(draw, malformed=True):
    params = draw(st.lists(st.sampled_from(["a", "b", "t"]), max_size=2, unique=True))
    nvars = draw(st.integers(1, 3))
    names = ["X", "Y", "Z"][:nvars]
    triangular = draw(st.booleans())
    images = []
    for k in range(nvars):
        # a triangular image involves only the parameters and earlier variables
        images.append(_poly(draw, params + (names[:k] if triangular else names)))
    if draw(st.integers(0, 3)) == 3:
        factor = _poly(draw, params + names, 2)
        images = ["(%s)*(%s)" % (factor, image) for image in images]
    lines = ["param %s" % p for p in params] + ["var %s" % v for v in names]
    lines += ["D %s = %s" % pair for pair in zip(names, images)]
    for _ in range(draw(st.integers(0, 2))):
        lines.append("factor %s : %d%s" % (_poly(draw, params, 2, False), draw(st.integers(1, 2)),
                                           draw(st.sampled_from(["", " assert-irreducible"]))))
    for _ in range(draw(st.integers(0, 2))):
        lines.append("expect %s" % _poly(draw, params + names, 2, False))
    if draw(st.booleans()):
        lines.append("bounds %d,%d" % (draw(st.integers(0, 3)), draw(st.integers(0, 3))))
    if draw(st.booleans()):
        lines.append("cap %d" % draw(st.sampled_from([0, 500, 5000, 20000])))
    if malformed and draw(st.integers(0, 4)) == 4:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(MALFORMED)))
    return "".join(line + "\n" for line in lines)


commands = st.one_of(
    st.sampled_from([["check"], ["kernel"]]),
    st.tuples(st.sampled_from(["image-ideal", "verify"]), st.integers(0, 3)).map(
        lambda c: [c[0], "--n", str(c[1])]),
)


@FUZZ
@given(text=problems(), command=commands)
def test_every_input_ends_in_a_documented_way(text, command, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz-problem.txt"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command + [str(path), "--json"])
    out, err = out.getvalue(), err.getvalue()
    assert "internal error" not in err and "Traceback" not in err, (text, command, err)
    if out:
        report = json.loads(out)
        assert code == EXIT_CODES[report["verdict"]] and err == "", (text, command)
        assert code != 1 or report["witnesses"], (text, command, report)
    else:
        assert code == 3 and (err.startswith("input error: ") or "usage: plinth" in err), \
            (text, command, code, err)


@FUZZ
@given(text=problems(malformed=False))
def test_canonical_printing_round_trips(text):
    try:
        spec = parse_problem(text)
    except ProblemFormatError:  # an expect line whose terms cancel
        assume(False)
    printed = problem_to_string(spec)
    assert parse_problem(printed) == spec, (text, printed)
    assert problem_to_string(parse_problem(printed)) == printed, (text, printed)
