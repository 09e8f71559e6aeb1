from fractions import Fraction

import pytest

from plinth.grading import (
    HypothesisError,
    WeightedDegree,
    prime_after_elimination,
    top_degree_ideal,
    wdeg_and_tilde,
)
from plinth.polyring import MultiPoly, PlinthError, PolyRing


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


def test_top_degree_ideal_nice_instance(ext):
    wd = std_weights(ext)
    u = ext.poly("b*X - a*Y")
    gens = [
        ext.poly("S1 - X"),
        ext.poly("S2 - Y"),
        ext.gen("Z") - u,
    ]
    ideal, cert = top_degree_ideal(wd, gens)
    out = list(ideal.generators)
    assert out[:2] == gens[:2]
    assert out[2] == -u or out[2] == u
    assert cert.homogeneous_checked == [0, 1]
    assert "verified" in cert.nonzerodivisor


def test_top_degree_ideal_hypothesis_failure(ext):
    wd = std_weights(ext)
    # first generator not weight-homogeneous
    gens = [ext.poly("S1 - X + 1"), ext.poly("Z - X")]
    with pytest.raises(HypothesisError):
        top_degree_ideal(wd, gens)


def test_top_degree_ideal_vanishing_tilde(ext):
    wd = std_weights(ext)
    # tilde of the last generator dies under the substitution S1 -> X
    gens = [ext.poly("S1 - X"), ext.poly("S1 - X + 1")]
    with pytest.raises(HypothesisError):
        top_degree_ideal(wd, gens)


def test_top_degree_single_generator(ext):
    wd = std_weights(ext)
    ideal, cert = top_degree_ideal(wd, [ext.poly("Z - b*X + 1")])
    assert list(ideal.generators) == [ext.poly("-b*X")]
    assert "trivial" in cert.nonzerodivisor


def test_prime_after_elimination_true(ext):
    # residual generator is linear in Y with unit-coprime coefficient
    gens = [ext.poly("S1 - X"), ext.poly("S2 - Y"), ext.poly("a*Y - b*X")]
    assert prime_after_elimination(gens) is True


def test_prime_after_elimination_false_content():
    ring = PolyRing(("t",), ("X1", "X2", "S"))
    # after eliminating S the generator has content t in X2
    gens = [ring.poly("S - X1"), ring.poly("-t^2*X2 + t*X2 - 1/2*t*X1^2")]
    assert prime_after_elimination(gens) is False


def test_prime_after_elimination_unit_ideal(ext):
    assert prime_after_elimination([ext.poly("S1 - X"), ext.poly("S1 - X + 1")]) is False


def test_prime_after_elimination_zero_ideal(ext):
    assert prime_after_elimination([ext.poly("S1 - X"), ext.poly("S2 - Y")]) is True


def test_prime_after_elimination_square_factor(ext):
    assert prime_after_elimination([ext.poly("X^2 + 2*X*Y + Y^2")]) is False


def test_prime_after_elimination_rejects_non_unit_linear_coefficient(ext):
    # c*V with c not a unit is reducible; the linear criterion alone would
    # see r = 0 and must still ask for a constant c
    assert prime_after_elimination([ext.poly("a*X")]) is False
    assert prime_after_elimination([ext.poly("S1 - X"), ext.poly("a*S1 + b*S1")]) is False
    assert prime_after_elimination([ext.poly("2*X")]) is True


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


def test_prime_after_elimination_against_sympy(rng):
    """Whenever a generator linear in one variable is accepted, sympy finds
    it irreducible: a single non-constant factor of multiplicity 1.  The
    sample mixes coprime c, r with shared factors and r = 0."""
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(("a", "b"), ("X", "Y", "Z"))
    gens = sympy.symbols(ring.names)
    seen = set()
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
        verdict = prime_after_elimination([h])
        seen.add(verdict)
        if verdict is True:
            expr = sum(sympy.Rational(q.numerator, q.denominator)
                       * sympy.prod(g ** k for g, k in zip(gens, e))
                       for e, q in h.terms.items())
            _, factors = sympy.factor_list(expr, *gens)
            assert len(factors) == 1 and factors[0][1] == 1, h
    assert True in seen and False in seen
