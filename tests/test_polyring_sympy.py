"""Cross-checks of the polynomial core against sympy (seeded; --seed changes
the sample).  sympy is used here only, never by the package."""

import random
import signal
import time
from fractions import Fraction

import pytest

from plinth import polyring
from plinth.polyring import (
    ExactDivisionError,
    MultiPoly,
    PolyRing,
    divide_exact,
    extended_euclid,
    irreducible_smalldeg,
    multivariate_gcd,
    normalize_unit,
    reduce_mod_prime,
)
from test_properties import poly_from_coeffs

sympy = pytest.importorskip("sympy")

CASES = 120


def _random_poly(rng, ring, max_terms, max_deg):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(ring.arity))
        terms[e] = Fraction(rng.choice((-7, -3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 1, 2, 3)))
    return MultiPoly(ring, terms)


def _to_sympy(p, gens):
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
        *gens, domain="QQ")


def _univariate(p, t):
    """p, a polynomial in the first parameter alone, as a sympy Poly in t."""
    return sympy.Poly.from_dict(
        {e[:1]: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
        t, domain="QQ")


def _from_sympy(ring, poly):
    """poly, in the first names of ring, as a MultiPoly of ring."""
    pad = (0,) * (ring.arity - len(poly.gens))
    return MultiPoly(ring, {e + pad: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()})


@pytest.fixture
def rab():
    return PolyRing(("a", "b"), ("X", "Y"))


def test_gcd_matches_sympy(rab, rng):
    gens = sympy.symbols("a b X Y")
    for _ in range(CASES):
        common = _random_poly(rng, rab, 4, 2)
        f = common * _random_poly(rng, rab, 4, 2)
        g = common * _random_poly(rng, rab, 4, 2)
        expected = _to_sympy(f, gens).gcd(_to_sympy(g, gens))
        assert multivariate_gcd([f, g]) == normalize_unit(_from_sympy(rab, expected))


def test_gcd_fallback_on_case_115_is_fast(rab, monkeypatch):
    # case 115 of test_gcd_matches_sympy at seed 5: 4 and 16 terms of total
    # degrees 9 and 10 with a 4-term common factor.  With the top-level
    # heuristic made to give up, the PRS fallback must take its contents
    # through the heuristic again: by PRS alone they swell for minutes
    rng = random.Random(5)
    for _ in range(116):
        common = _random_poly(rng, rab, 4, 2)
        f = common * _random_poly(rng, rab, 4, 2)
        g = common * _random_poly(rng, rab, 4, 2)
    assert [len(f.nums), len(g.nums), f.total_degree(), g.total_degree()] == [4, 16, 9, 10]
    expected = multivariate_gcd([f, g])
    heuristic = polyring._gcd_heu
    calls = []

    def gives_up_once(ring, p, q):
        calls.append(1)
        return None if len(calls) == 1 else heuristic(ring, p, q)

    def stop(signum, frame):
        raise TimeoutError("the gcd fallback ran past 5 s")

    monkeypatch.setattr(polyring, "_gcd_heu", gives_up_once)
    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        start = time.monotonic()
        got = multivariate_gcd([f, g])
        elapsed = time.monotonic() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(calls) > 1 and elapsed < 1.0
    assert got == expected == normalize_unit(common)


def test_products_match_sympy_expand(rab, rng):
    gens = sympy.symbols("a b X Y")
    for _ in range(CASES // 3):  # expand is slow
        f = _random_poly(rng, rab, 5, 3)
        g = _random_poly(rng, rab, 5, 3) * Fraction(rng.randint(1, 2**70), rng.randint(1, 9))
        expected = sympy.expand(_to_sympy(f, gens).as_expr() * _to_sympy(g, gens).as_expr())
        assert f * g == _from_sympy(rab, sympy.Poly(expected, *gens, domain="QQ"))


def test_divide_exact_matches_sympy(rab, rng):
    gens = sympy.symbols("a b X Y")
    for _ in range(CASES):
        f = _random_poly(rng, rab, 5, 2)
        g = _random_poly(rng, rab, 3, 2)
        assert divide_exact(f * g, g) == f
        h = f + g * g
        q, r = sympy.div(_to_sympy(h, gens), _to_sympy(g, gens))
        # one divisor is a Groebner basis, so the grlex remainder is unique
        (q_grlex,), r_grlex = sympy.reduced(_to_sympy(h, gens), [_to_sympy(g, gens)],
                                            order="grlex")
        witness = _from_sympy(rab, r_grlex)
        if r.is_zero:
            assert divide_exact(h, g) == _from_sympy(rab, q)
            assert witness.is_zero()
        else:
            with pytest.raises(ExactDivisionError) as err:
                divide_exact(h, g)
            assert err.value.remainder == witness
        assert divide_exact(h - witness, g) == _from_sympy(rab, q_grlex)


def test_reduce_mod_prime_matches_sympy(rng):
    ring = PolyRing(("t",), ("X", "Y"))
    t = sympy.Symbol("t")
    for _ in range(CASES):
        p = poly_from_coeffs(ring, 0, [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                                       for _ in range(rng.randint(1, 4))]
                             + [Fraction(rng.choice((-3, -1, 1, 2)))])
        r = _random_poly(rng, ring, 8, 5)
        coeffs = {}
        for e, c in r.terms.items():
            coeffs.setdefault(e[1:], {})[e[:1]] = sympy.Rational(c.numerator, c.denominator)
        expected = {}
        for varpart, coeff in coeffs.items():
            rem = sympy.rem(sympy.Poly.from_dict(coeff, t, domain="QQ"), _univariate(p, t))
            for (k,), c in rem.terms():
                expected[(k,) + varpart] = Fraction(int(c.p), int(c.q))
        assert reduce_mod_prime(r, p) == MultiPoly(ring, expected)


def test_extended_euclid_bezout_and_gcd(rng):
    ring = PolyRing(("t",), ("X",))
    t = sympy.Symbol("t")
    for _ in range(CASES):
        common = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))] + [Fraction(1)]
        a = poly_from_coeffs(ring, 0, [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                                       for _ in range(rng.randint(1, 8))])
        b = poly_from_coeffs(ring, 0, [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                                       for _ in range(rng.randint(1, 8))])
        if rng.random() < 0.5:
            c = poly_from_coeffs(ring, 0, common)
            a, b = a * c, b * c
        if a.is_zero() and b.is_zero():
            continue
        g, alpha, beta = extended_euclid(a, b)
        assert alpha * a + beta * b == g
        expected = _univariate(a, t).gcd(_univariate(b, t)).all_coeffs()[::-1]
        assert g == normalize_unit(
            poly_from_coeffs(ring, 0, [Fraction(int(c.p), int(c.q)) for c in expected]))
        if b.is_zero():  # sympy's gcdex divides by b
            continue
        # sympy's gcd is monic; plinth scales the Bezout pair with its gcd
        s, u, h = sympy.gcdex(_univariate(a, t), _univariate(b, t))
        scale = g.leading()[1] / Fraction(int(h.LC().p), int(h.LC().q))
        assert (alpha, beta) == (_from_sympy(ring, s) * scale, _from_sympy(ring, u) * scale)


def test_irreducible_smalldeg_matches_sympy(rng):
    ring = PolyRing(("t",), ("X",))
    t = sympy.Symbol("t")
    for _ in range(4 * CASES):
        degree = rng.randint(2, 3)
        coeffs = [Fraction(rng.randint(-30, 30), rng.choice((1, 2, 5))) for _ in range(degree)]
        coeffs.append(Fraction(rng.choice((-6, -1, 1, 2, 7))))
        p = poly_from_coeffs(ring, 0, coeffs)
        if rng.random() < 0.5:  # plant a rational root
            root = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            p = (ring.gen("t") - root) * poly_from_coeffs(ring, 0, coeffs[:degree])
        if p.degree_in("t") < 2:
            continue
        assert irreducible_smalldeg(p) == _univariate(p, t).is_irreducible
