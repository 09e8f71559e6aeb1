"""Cross-checks of the polynomial core against sympy (seeded; --seed changes
the sample).  sympy is used here only, never by the package."""

from fractions import Fraction

import pytest

from plinth.polyring import (
    ExactDivisionError,
    MultiPoly,
    PolyRing,
    divide_exact,
    extended_euclid,
    irreducible_smalldeg,
    multivariate_gcd,
    normalize_unit,
    poly_from_coeffs,
    univar_coeffs,
)

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
    return sympy.Poly.from_list(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(univar_coeffs(p, 0))],
        t, domain="QQ")


def _from_sympy(ring, poly):
    return MultiPoly(ring, {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()})


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
        q, r = sympy.div(_to_sympy(f + g * g, gens), _to_sympy(g, gens))
        if r.is_zero:
            assert divide_exact(f + g * g, g) == _from_sympy(rab, q)
        else:
            with pytest.raises(ExactDivisionError):
                divide_exact(f + g * g, g)


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
