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
from plinth.cli import parse_problem
from plinth.polyring import CertificateError, MultiPoly, PlinthError, PolyRing

from test_formula_oracle import BOUNDS, CAP, nice_problem, quasi_problem


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
