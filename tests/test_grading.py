"""Weighted degrees, the top-degree ideal and the primality test of
plinth.grading, which is also the reference the closed-form top-degree
certificates of imageideals are held to."""

import random
import re
from fractions import Fraction

import pytest

from plinth.grading import (
    WeightedDegree,
    prime_after_elimination,
    top_degree_ideal,
    wdeg_and_tilde,
)
from plinth.cli import FIXTURES, parse_problem
from plinth.imageideals import _fresh_names, strictness_decompose
from plinth.polyring import CertificateError, MultiPoly, PlinthError, PolyRing, embed

from test_formula_oracle import (
    BOUNDS,
    CAP,
    COEFFS,
    nice_problem,
    pid3_problem,
    quasi_problem,
)


@pytest.fixture
def ext():
    # two-parameter nice instance extended by slice variables and Z
    return PolyRing(("a", "b"), ("X", "Y", "S1", "S2", "Z"))


def std_weights(ext):
    return WeightedDegree(ext, {"X": 1, "Y": 1, "S1": 1, "S2": 1, "Z": 0})


def test_weighted_degree_validation():
    ring = PolyRing(("t",), ("X",))
    with pytest.raises(PlinthError):
        WeightedDegree(ring, {"X": -1})
    with pytest.raises(PlinthError):
        WeightedDegree(ring, {})
    with pytest.raises(PlinthError):
        WeightedDegree(ring, {"X": 1, "t": 2})


def test_wdeg_and_tilde(ext):
    wd = std_weights(ext)
    p = ext.poly("Z - b*X + a*Y + 1")
    deg, top = wdeg_and_tilde(wd, p)
    assert deg == 1
    assert top == ext.poly("-b*X + a*Y")
    assert wdeg_and_tilde(wd, ext.zero())[0] == float("-inf")


def test_tilde_respects_weights():
    ring = PolyRing(("t",), ("X1", "X2"))
    wd = WeightedDegree(ring, {"X1": 1, "X2": 2})
    p = ring.poly("-t^2*X2 + 1/2*t*X1^2 + t*X1 + t*X2 - X1")
    deg, top = wdeg_and_tilde(wd, p)
    assert deg == 2
    assert top == ring.poly("-t^2*X2 + 1/2*t*X1^2 + t*X2")


SLICES = [("X", "S1"), ("Y", "S2")]


def test_top_degree_ideal_nice_instance(ext):
    wd = std_weights(ext)
    u = ext.poly("b*X - a*Y")
    gens, residual = top_degree_ideal(wd, SLICES, "Z", u)
    assert gens == [ext.poly("S1 - X"), ext.poly("S2 - Y"), -u]
    assert residual == ext.poly("a*S2 - b*S1")


def test_top_degree_ideal_vanishing_tilde(ext):
    wd = std_weights(ext)
    # tilde(Z - k) = S1 - X dies under the substitution X -> S1
    with pytest.raises(CertificateError):
        top_degree_ideal(wd, SLICES, "Z", ext.poly("Z - S1 + X"))


def test_prime_after_elimination_true(ext):
    # residual linear in S2 with unit-coprime coefficient
    assert prime_after_elimination(ext.poly("a*S2 - b*S1")) is True


def test_prime_after_elimination_false_content():
    ring = PolyRing(("t",), ("X1", "X2", "S"))
    # the residual has content t in X2
    assert prime_after_elimination(ring.poly("-t^2*X2 + t*X2 - 1/2*t*S^2")) is False


def test_prime_after_elimination_unit_ideal(ext):
    assert prime_after_elimination(ext.one()) is False


def test_prime_after_elimination_square_factor(ext):
    assert prime_after_elimination(ext.poly("X^2 + 2*X*Y + Y^2")) is False


def test_prime_after_elimination_rejects_non_unit_linear_coefficient(ext):
    # c*V with c not a unit is reducible; the linear criterion alone would
    # see r = 0 and must still ask for a constant c
    assert prime_after_elimination(ext.poly("a*X")) is False
    assert prime_after_elimination(ext.poly("a*S1 + b*S1")) is False
    assert prime_after_elimination(ext.poly("2*X")) is True


def _random_coefficient(rng, ring, skip):
    """A random polynomial of degree <= 2 in the names of ring other than
    the one at index skip, possibly zero."""
    terms = {}
    for _ in range(rng.randint(0, 3)):
        e = [0] * ring.arity
        for _ in range(rng.randint(0, 2)):
            e[rng.choice([i for i in range(ring.arity) if i != skip])] += 1
        terms[tuple(e)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 2)))
    return MultiPoly(ring, terms)


def _residuals(seed, count):
    """The residuals image_ideal certifies at j = 1 for count seeded nice
    problems over Q[a, b] and count quasi problems over Q[t], each with the
    primality verdict it recorded."""
    for family in (nice_problem, quasi_problem):
        rng = random.Random("%s:%d" % (family.__name__, seed))
        for _ in range(count):
            cert = parse_problem(family(rng)[0]).analysis.image_ideal(1, BOUNDS, CAP).certificate
            ext = cert.top_degree_generators[0].ring
            text = re.fullmatch(r"verified by substitution \(residual image (.*) != 0\)",
                                cert.top_degree_hypotheses).group(1)
            yield ext.poly(text), cert.primality


def test_prime_after_elimination_against_sympy(rng, seed):
    """True means sympy finds h irreducible: a single non-constant factor of
    multiplicity 1.  False means h is constant or sympy finds a proper or
    repeated factor.  The sample mixes generators linear in one variable
    (coprime c, r, shared factors and r = 0) with the residuals of seeded
    formula problems."""
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(("a", "b"), ("X", "Y", "Z"))
    sample = []
    for _ in range(60):
        v = rng.randrange(ring.arity)
        c, r = _random_coefficient(rng, ring, v), _random_coefficient(rng, ring, v)
        if c.is_zero():
            c = ring.one()
        if rng.random() < 0.3:
            shared = _random_coefficient(rng, ring, v)
            if not shared.is_zero():
                c, r = c * shared, r * shared
        if rng.random() < 0.2:
            r = ring.zero()
        h = c * ring.gen(ring.names[v]) + r
        sample.append((h, prime_after_elimination(h)))
    for h, recorded in _residuals(seed, 8):
        assert prime_after_elimination(h) is recorded, h
        sample.append((h, recorded))
    seen = set()
    for h, verdict in sample:
        seen.add(verdict)
        if verdict is None:
            continue
        gens = sympy.symbols(h.ring.names)
        expr = sum(sympy.Rational(q.numerator, q.denominator)
                   * sympy.prod(g ** k for g, k in zip(gens, e))
                   for e, q in h.terms.items())
        _, factors = sympy.factor_list(expr, *gens)
        irreducible = len(factors) == 1 and factors[0][1] == 1
        assert irreducible is verdict, h
    assert True in seen and False in seen


# ---------------------------------------------------------------------------
# the closed-form top-degree certificates against the definitions


def graded_problem(an):
    """(ring, weights, slice variables, kernel generator k) of the 2-variable
    problem whose top-degree certificate the formula branch of the Analysis
    an records: the nice pair (f1, f2) of inice, of a nice-able D after its
    coordinate change, or of the pid-3var reduction, sliced at weight 1 with
    k = f2*X1 - f1*X2; a strictly quasi-nice D sliced at X1 under weights
    (1, max(d, 1)) with k = b*X2 + f."""
    D, rep = an.D, an.report
    ring = D.ring
    if ring.nvars == 3:
        ring, (f1, f2) = an.reduction.new_ring, an.reduction.reduced.images
    elif rep.nice_pair is not None:
        f1, f2 = D.images
    else:
        q = rep.quasi
        dec = strictness_decompose(D, rep)
        x1, x2 = ring.vars[q.pivot], ring.vars[q.other]
        if dec.verdict == "strictly-1-quasi":
            return ring, {x1: 1, x2: max(q.d, 1)}, (x1,), q.b * ring.gen(x2) + q.f
        f1, f2 = q.b, dec.new_image
    x1, x2 = (ring.gen(v) for v in ring.vars)
    return ring, dict.fromkeys(ring.vars, 1), ring.vars, f2 * x1 - f1 * x2


def reference_certificate(ring, weights, slice_vars, k):
    """(hypotheses, generators, primality) from the definitions: a fresh
    S_i of X_i's weight per sliced X_i and a fresh Z of weight 0, the
    top-degree ideal of (S_i - X_i ..., Z - k) by top_degree_ideal, and
    prime_after_elimination of its residual."""
    if len(slice_vars) == 1:
        bases = ("S",)
    else:
        bases = tuple("S%d" % i for i in range(1, len(slice_vars) + 1))
    *snames, zn = _fresh_names(bases + ("Z",), ring.names)
    ext = ring.extend((*snames, zn))
    ext_weights = {**weights, **{s: weights[x] for x, s in zip(slice_vars, snames)}, zn: 0}
    gens, residual = top_degree_ideal(WeightedDegree(ext, ext_weights),
                                      list(zip(slice_vars, snames)), zn, embed(k, ext))
    return ("verified by substitution (residual image %s != 0)" % residual, tuple(gens),
            prime_after_elimination(residual))


def closed_form_primality(text):
    """The primality image_ideal records at j = 1 for the problem text, after
    asserting that its certificate equals the reference's at every j <= 2;
    None for an answer without a top-degree certificate."""
    an = parse_problem(text).analysis
    certs = [an.image_ideal(j, BOUNDS, CAP).certificate for j in (1, 2)]
    if certs[0].top_degree_generators is None:
        return None
    expected = reference_certificate(*graded_problem(an))
    for cert in certs:
        assert (cert.top_degree_hypotheses, cert.top_degree_generators,
                cert.primality) == expected, text
    return certs[0].primality


def niceable_ab_problem(rng):
    """Quasi-nice over Q[a, b], nice after X2 -> X2 + v(X1): D X1 = f1,
    D X2 = -f2 - f1*v'(X1) for the coprime pair f1, f2 of nice_problem.
    They share the zero at the origin, so D is not fixed point free and
    answers inice with a top-degree certificate."""
    f1, f2 = re.findall(r"D [XY] = (.*)", nice_problem(rng)[0])
    dv = rng.choice(("4*X1", "1 - 2*a*X1", "3*X1^2"))
    return ("param a\nparam b\nvar X1\nvar X2\nD X1 = %s\nD X2 = -(%s) - (%s)*(%s)\n"
            % (f1, f2, f1, dv))


def shared_quasi_problem(rng):
    """Strictly 1-quasi-nice over Q[t] whose f has the top coefficient
    c*(t - x), x a root of b = DX_1: gcd(b, c_d) is not a unit, so the top
    part is not prime."""
    x = rng.choice((-2, -1, 0, 1, 2))
    square = rng.choice((1, 2, 3))
    d, c = rng.choice((2, 3)), rng.choice(COEFFS)
    # f = c1*X1 + c*(t - x)*X1^d, and D X2 = -f'
    lines = ["param t", "var X1", "var X2",
             "D X1 = (%d)*(t - (%d))*(t^2 + %d)" % (rng.choice((-2, 1, 3)), x, square),
             "D X2 = (%d) + (%d)*(t - (%d))*X1^%d" % (rng.choice(COEFFS), -d * c, x, d - 1),
             "factor t - (%d) : 1" % x, "factor t^2 + %d : 1" % square]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("family, primality", [
    (lambda rng: nice_problem(rng)[0], {True}),
    (lambda rng: pid3_problem(rng)[0], {True}),
    (niceable_ab_problem, {True}),
    (lambda rng: quasi_problem(rng)[0], {True, False}),
    (shared_quasi_problem, {False}),
], ids=["nice", "pid3", "nice-able", "quasi", "quasi-shared"])
def test_closed_form_top_degree_matches_the_reference(family, primality, seed):
    rng = random.Random("closed-form:%d" % seed)
    seen = {closed_form_primality(family(rng)) for _ in range(8)}
    assert seen <= primality and None not in seen


def test_closed_form_top_degree_matches_the_reference_on_fixtures():
    recorded = {}
    for name, text in FIXTURES.items():
        try:
            if parse_problem(text).analysis.branch[0] is None:
                continue  # oracle-only
        except PlinthError:
            continue  # notlnd
        recorded[name] = closed_form_primality(text)
    assert recorded == {"inice": True, "tparam": False, "pid3": True,
                        "slice1": None, "slice2": None, "qnice": None}


def test_niceable_ab_problems_take_the_niceable_branch(seed):
    # niceable_problem over Q[t] is fixed point free whenever irreducible,
    # so the nice-able top-degree certificate is reached over Q[a, b] only
    rng = random.Random("closed-form:%d" % seed)
    for _ in range(4):
        text = niceable_ab_problem(rng)
        answer = parse_problem(text).analysis.image_ideal(1, BOUNDS, CAP)
        assert answer.theorem == "inice", text
        assert answer.certificate.notes[0].startswith("after the coordinate change"), text
