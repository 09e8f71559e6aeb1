"""Formula answers against the oracle on seeded random problems.

Each problem comes from a generator below, sampled with the suite's
--seed, as problem text:

- nice over Q[a, b] (theorem inice): D X = f1, D Y = f2 with (f1, f2) a
  triangular automorphism of Q[a, b] fixing the origin, so f1 and f2 are
  coprime and share the zero at the origin;
- nice 3-variable over Q[t] (theorem pid-3var): D X = 0, D Y = t*p(t),
  D Z = r*X + t*q(t);
- strictly 1-quasi-nice over Q[t] (theorem 2varquasi_PID): D X1 = b(t) with
  its factor lines, D X2 = -df/dX1 for an f of degree >= 2 in X1 whose
  coefficients have degree < deg b.

Each is answered by image_ideal at j = 1, 2 and checked both ways by the
oracle at slice bounds 2,2.  With several predicted generators a missing one
shows only as an INCONCLUSIVE backward item, so the backward side must PASS;
not failing is not enough.  The forward side must PASS too, except for the
quasi-nice family: the preimages of (prod of primes)^m often need a larger
parameter bound than 2.

Kernel answers are checked one way: every element of a basis of Ker(D)
within the slice must be a combination of products of the predicted
generators with coefficients in R (kernel_missing).

Near-miss inputs each break one hypothesis of a formula.  On the command
line each must end as oracle-only, with exit 2 or 3, or with a formula tag
whose backward check PASSes at bounds 2,2 and whose forward check does not
FAIL.
"""

import json
import random

import pytest

from plinth.cli import FIXTURES, main, parse_problem, run
from plinth.derivation import localized_fpf
from plinth.oracle import _Combinations, matrix_of_power, slice_basis, verify_image_ideal

from test_cli import REDUCIBLE_KERNELS
from test_properties import as_poly

BOUNDS = (2, 2)
CAP = 200_000
COEFFS = (-3, -2, -1, 1, 2, 3)


def _poly(terms):
    """Text of sum c * monomial over (coefficient, monomial text) pairs."""
    return " + ".join("(%d)%s" % (c, "*" + m if m else "") for c, m in terms if c) or "0"


def nice_problem(rng):
    # f1 = r*a + p(b), f2 = s*b + q(f1), p(0) = q(0) = 0
    r, s = rng.choice(COEFFS), rng.choice(COEFFS)
    p = _poly([(rng.choice(COEFFS), "b")] + [(rng.choice((0,) + COEFFS), "b^2")])
    f1 = "(%d)*a + %s" % (r, p)
    q1, q2 = rng.choice(COEFFS), rng.choice((0, 0) + COEFFS)
    f2 = "(%d)*b + (%d)*(%s) + (%d)*(%s)^2" % (s, q1, f1, q2, f1)
    return "param a\nparam b\nvar X\nvar Y\nD X = %s\nD Y = %s\n" % (f1, f2), "inice"


def pid3_problem(rng):
    def tpoly(degree):
        return _poly([(rng.choice(COEFFS), "t^%d" % (k + 1)) for k in range(degree)
                      if k == 0 or rng.random() < 0.7])

    degree = rng.choice((1, 2))
    dz = "(%d)*X + %s" % (rng.choice(COEFFS), tpoly(degree))
    return ("param t\nvar X\nvar Y\nvar Z\nD X = 0\nD Y = %s\nD Z = %s\n"
            % (tpoly(degree), dz)), "pid-3var"


def quasi_problem(rng):
    roots = rng.sample((-2, -1, 0, 1, 2), rng.choice((1, 2)))
    factors = [("t - (%d)" % x, rng.choice((1, 1, 2))) for x in roots]
    factors.append(("t^2 + %d" % rng.choice((1, 2, 3)), 1))
    rng.shuffle(factors)
    b = "(%d)*%s" % (rng.choice((-2, -1, 1, 2)),
                     "*".join("(%s)^%d" % (text, m) for text, m in factors))
    # f = c1*X1 + sum_{k >= 2} (c_k0 + c_k1*t) * X1^k; deg b >= 3 > deg c_k
    dx2 = [(-rng.choice(COEFFS), "")]
    for k in range(2, rng.choice((2, 3)) + 1):
        for tpart in ("", "t"):
            coeff = -k * rng.choice(COEFFS)
            dx2.append((coeff, "*".join(filter(None, (tpart, "X1^%d" % (k - 1))))))
    lines = ["param t", "var X1", "var X2", "D X1 = %s" % b, "D X2 = %s" % _poly(dx2)]
    lines += ["factor %s : %d" % f for f in factors]
    return "\n".join(lines) + "\n", "2varquasi_PID"


def niceable_problem(rng):
    """Quasi-nice over Q[t], nice after X2 -> X2 + v(X1): D X1 = b(t) with
    its factor lines, D X2 = -h(t) - b*v'(X1).  Irreducible exactly when b
    and h are coprime, and then fixed point free."""
    roots = rng.sample((-2, -1, 0, 1, 2), rng.choice((1, 2)))
    factors = [("t - (%d)" % x, rng.choice((1, 2))) for x in roots]
    b = "(%d)*%s" % (rng.choice((-2, 1, 3)), "*".join("(%s)^%d" % f for f in factors))
    h = rng.choice(("1", "t", "t + 1", "2*t - 3", "t^2 - 1"))
    dv = rng.choice(("4*X1", "1 - 2*t*X1", "3*X1^2"))
    lines = ["param t", "var X1", "var X2", "D X1 = %s" % b,
             "D X2 = -(%s) - (%s)*(%s)" % (h, b, dv)]
    lines += ["factor %s : %d" % f for f in factors]
    return "\n".join(lines) + "\n", None


@pytest.mark.parametrize("family", [quasi_problem, niceable_problem], ids=["quasi", "nice-able"])
def test_check_fixed_point_free_is_localized(family, seed):
    # check's answer is the branch's; on a quasi-nice D over Q[t] it must be
    # whether D stays fixed point free at every declared prime of D X1
    rng = random.Random("fpf:%s:%d" % (family.__name__, seed))
    for _ in range(8):
        text = family(rng)[0]
        spec = parse_problem(text)
        D, rep = spec.derivation(), spec.analysis.report
        expected = all(localized_fpf(D, rep, p) for p, _, _ in spec.factored_b)
        assert run("check", spec).certificates[0]["fixed_point_free"] is expected, text


@pytest.mark.parametrize("text", [
    "param a\nparam b\nvar X\nvar Y\nD X = a^2 + a\nD Y = a*b + b\n",
    "param t\nvar X1\nvar X2\nD X1 = t\nD X2 = t*X1\n",
    "param t\nvar X1\nvar X2\nD X1 = (t + 2)*(t^2 + 1)\nD X2 = -(t + 2)*(1 + 4*X1)\n",
    "param t\nvar X\nvar Y\nvar Z\nD X = 0\nD Y = t*(X + 1)\nD Z = X*(X + 1)\n",
    "var X\nD X = X\n",
])
def test_check_reducible_is_not_fixed_point_free(text):
    # the images share a non-unit c, so DB lies in cB
    cert = run("check", parse_problem(text)).certificates[0]
    assert (cert["irreducible"], cert["fixed_point_free"]) == (False, False), text


@pytest.mark.parametrize("family, forward", [(nice_problem, {"PASS"}),
                                             (pid3_problem, {"PASS"}),
                                             (quasi_problem, {"PASS", "INCONCLUSIVE"})],
                         ids=["nice", "pid3", "quasi"])
def test_formula_answers_pass_the_oracle(family, forward, seed):
    rng = random.Random("%s:%d" % (family.__name__, seed))
    for _ in range(4):
        text, theorem = family(rng)
        spec = parse_problem(text)
        D = spec.derivation()
        for j in (1, 2):
            answer = spec.analysis.image_ideal(j, BOUNDS, CAP)
            assert answer.theorem == theorem, text
            report = verify_image_ideal(D, j, answer.generators, *BOUNDS, CAP)
            assert report.forward in forward, (text, j, report.to_dict())
            assert report.backward == "PASS", (text, j, report.to_dict())


def kernel_missing(D, gens, bounds):
    """The elements of a basis of Ker(D) within the slice at bounds that are
    no sum of r_e * g1^e1 * ... * gk^ek over the gens g_i, each r_e of
    parameter degree <= the parameter bound and each product of variable
    degree <= the variable bound.  One system over the products m * g^e, m
    a parameter monomial, answers all of them; every combination it finds
    is re-checked by polynomial arithmetic."""
    ring = D.ring
    p, v = bounds
    slc = slice_basis(ring, p, v)
    basis = [as_poly(ring, k, 1) for k in matrix_of_power(D, 1, slc, None).kernel()]
    powers = [(ring.one(), 0)]  # (g^e, its variable degree)
    for g in gens:
        d = int(g.var_degree())
        assert d >= 1, g
        powers = [(q * g ** k, dq + k * d) for q, dq in powers for k in range((v - dq) // d + 1)]
    params = slice_basis(ring, p, 0).monomials
    unknowns = [(slot, m) for slot in range(len(powers)) for m in params]
    system = _Combinations.of_polynomials(
        unknowns, [m * powers[slot][0] for slot, m in unknowns])
    missing = []
    for w in basis:
        rs = system.solve(w)
        if rs is None:
            missing.append(w)
        else:
            assert sum((r * q for r, (q, _) in zip(rs, powers)), ring.zero()) == w, w
    return missing


@pytest.mark.parametrize("name", ["inice", "pid3", "qnice", "slice1", "slice2", "tparam"])
def test_fixture_kernels_pass_the_oracle(name):
    spec = parse_problem(FIXTURES[name])
    assert kernel_missing(spec.derivation(), spec.analysis.kernel, BOUNDS) == []


@pytest.mark.parametrize("family", [nice_problem, pid3_problem, quasi_problem, niceable_problem],
                         ids=["nice", "pid3", "quasi", "nice-able"])
def test_formula_kernels_pass_the_oracle(family, seed):
    rng = random.Random("kernel:%s:%d" % (family.__name__, seed))
    for _ in range(3):
        spec = parse_problem(family(rng)[0])
        assert kernel_missing(spec.derivation(), spec.analysis.kernel, BOUNDS) == [], spec


@pytest.mark.parametrize("text, kernel", REDUCIBLE_KERNELS)
def test_reducible_kernels_pass_the_oracle(text, kernel):
    spec = parse_problem(text)
    assert [str(g) for g in spec.analysis.kernel] == kernel.split(", ")
    assert kernel_missing(spec.derivation(), spec.analysis.kernel, BOUNDS) == []


@pytest.mark.parametrize("text, wrong, bounds", [
    # the kernels of D rather than of D0 = D/c: each generates a proper
    # subring of Ker(D), which misses b*X - a*Y and -1/2*X1^2 + X2
    (REDUCIBLE_KERNELS[0].values[0], "(a + 1)*(b*X - a*Y)", (1, 1)),
    (REDUCIBLE_KERNELS[1].values[0], "t*(-1/2*X1^2 + X2)", (1, 2)),
], ids=["nice-Qab", "quasi-Qt"])
def test_kernel_check_misses_a_proper_subring(text, wrong, bounds):
    spec = parse_problem(text)
    D = spec.derivation()
    missing = kernel_missing(D, [D.ring.poly(wrong)], bounds)
    assert len(missing) == 1
    assert kernel_missing(D, spec.analysis.kernel, bounds) == []


NEAR_MISSES = [
    # nice over Q[t] with coprime images: fixed point free, a slice
    ("fpf-nice-Qt", "param t\nvar X\nvar Y\nD X = t^2 + 1\nD Y = t\n", "slice"),
    ("fpf-nice-Qt-zero-image", "param t\nvar X\nvar Y\nD X = 0\nD Y = 2\n", "slice"),
    # over Q[a,b]: (1 + a) - a = 1 certifies fixed-point-freeness
    ("bezout-Qab", "param a\nparam b\nvar X\nvar Y\nD X = 1 + a\nD Y = a\n", "slice"),
    # (1 + a*b^5) - b^5*a = 1: the cofactors give the slice Y - b^5*X of
    # degree 6
    ("bezout-Qab-degree-6", "param a\nparam b\nvar X\nvar Y\nD X = a\nD Y = 1 + a*b^5\n",
     "slice"),
    # coprime, but both vanish at a = 0, b = -1: no Bezout certificate exists
    ("zero-off-origin-Qab", "param a\nparam b\nvar X\nvar Y\nD X = a\nD Y = 1 + b\n",
     "oracle-only"),
    # quasi-nice, not strict: X2 -> X2 + X1^2 makes it nice with images in R
    ("nice-able-Qt", "param t\nvar X1\nvar X2\nD X1 = t^2 + 1\n"
     "D X2 = -2*(t^2 + 1)*X1 - t\n", "slice"),
    # nice after X2 -> X2 + 1/6*X1^6 with images t and -1: the slice
    # -X2 - 1/6*X1^6 of degree 6
    ("nice-able-Qt-degree-6", "param t\nvar X1\nvar X2\nD X1 = t\nD X2 = -1 - t*X1^5\n",
     "slice"),
    ("nice-able-Qab", "param a\nparam b\nvar X1\nvar X2\nD X1 = a\nD X2 = -2*a*X1 - b\n",
     "inice"),
    ("pid-3var", "param t\nvar X\nvar Y\nvar Z\nD X = 0\nD Y = t^2\nD Z = X + t\n",
     "pid-3var"),
    # a reducible D(X1) needs factor lines, and they must multiply to it
    ("reducible-unfactored", "param t\nvar X1\nvar X2\nD X1 = t^2 - 1\nD X2 = -2*X1\n", 3),
    ("wrong-factor", "param t\nvar X1\nvar X2\nD X1 = t^2 - 1\nD X2 = -2*X1\n"
     "factor t - 1 : 1\nfactor t + 2 : 1\n", 3),
]


@pytest.mark.parametrize("text, expected", [case[1:] for case in NEAR_MISSES],
                         ids=[case[0] for case in NEAR_MISSES])
def test_near_misses_end_honestly(text, expected, tmp_path, capsys):
    path = tmp_path / "problem.txt"
    path.write_text(text)
    for j in ("1", "2"):
        code = main(["image-ideal", str(path), "--n", j, "--json"])
        out = capsys.readouterr().out
        certificates = json.loads(out)["certificates"] if out else []
        theorem = certificates[0]["theorem"] if certificates else None
        assert code in (0, 2, 3), (text, j)
        assert (theorem if code == 0 or theorem == "oracle-only" else code) == expected, \
            (text, j, code, theorem)
        if code != 0:
            continue
        # the formula's generators, checked both ways by the oracle
        code = main(["verify", str(path), "--n", j, "--bounds", "%d,%d" % BOUNDS,
                     "--cap", str(CAP), "--json"])
        report, = json.loads(capsys.readouterr().out)["certificates"]
        assert report["backward"] == "PASS", (text, j, report)
        assert report["forward"] != "FAIL", (text, j, report)
