import copy
import pickle
import random
import time
from fractions import Fraction
from operator import add

import pytest

from plinth import polyring
from plinth.derivation import Derivation, apply
from plinth.polyring import (
    ExactDivisionError,
    MultiPoly,
    PlinthError,
    PolyParseError,
    PolyRing,
    RingMismatchError,
    divide_exact,
    divides,
    embed,
    extended_euclid,
    irreducible_smalldeg,
    multivariate_gcd,
    normalize_unit,
    partial_derivative,
    poly_from_coeffs,
    poly_from_string,
    poly_to_string,
    reduce_mod_prime,
    restrict,
    substitute,
)


@pytest.fixture
def rab():
    return PolyRing(("a", "b"), ("X", "Y"))


@pytest.fixture
def rt():
    return PolyRing(("t",), ("X1", "X2"))


def test_ring_validation():
    with pytest.raises(PlinthError):
        PolyRing(("t",), ())
    with pytest.raises(PlinthError):
        PolyRing(("t",), ("t",))
    with pytest.raises(PlinthError):
        PolyRing((), ("1bad",))
    # rings are immutable, so equal ones are shared
    ring = PolyRing(["t"], ["X1", "X2"])
    assert ring is PolyRing(("t",), ("X1", "X2"))
    assert PolyRing(("t",), ("X1",)).extend(["X2"]) is ring
    assert pickle.loads(pickle.dumps(ring)) is ring
    p = ring.poly("t*X1 + 1/2")
    assert copy.deepcopy(p) == p and copy.deepcopy(p).ring is ring


def test_arithmetic_basics(rab):
    x, y = rab.gen("X"), rab.gen("Y")
    a = rab.gen("a")
    p = (x + y) * (x - y)
    assert p == x**2 - y**2
    assert (x + 1) ** 2 == x**2 + 2 * x + 1
    assert 3 * x - x - x - x == rab.zero()
    assert (a * x).total_degree() == 2
    assert (a * x).param_degree() == 1
    assert (a * x).var_degree() == 1
    assert p.degree_in("X") == 2
    assert rab.zero().total_degree() == float("-inf")


def test_coercion_and_mismatch(rab, rt):
    x = rab.gen("X")
    assert x + 0 == x
    assert 2 * x == x + x
    assert (x * Fraction(1, 2)) + (x * Fraction(1, 2)) == x
    with pytest.raises(RingMismatchError):
        x + rt.gen("X1")


def test_leading_and_order(rab):
    # graded lex on (a, b, X, Y): higher total degree wins, then lex
    p = rab.poly("a*Y + b*X + X")
    exps, coeff = p.leading()
    assert exps == (1, 0, 0, 1) and coeff == 1


def test_coefficient_of(rt):
    p = rt.poly("t*X1^2 + X1 + X2")
    assert p.coefficient_of("X1", 2) == rt.poly("t")
    assert p.coefficient_of("X1", 1) == rt.one()
    assert p.coefficient_of("X1", 0) == rt.poly("X2")


def test_partial_derivative_and_substitute(rt):
    p = rt.poly("t*X1^3 + X1*X2")
    assert partial_derivative(p, "X1") == rt.poly("3*t*X1^2 + X2")
    assert substitute(p, "X1", rt.one()) == rt.poly("t + X2")


def test_divide_exact_and_witness(rt):
    f = rt.poly("t^2 - 2*t + 1")
    g = rt.poly("-t + 1")
    assert divide_exact(f, g) == rt.poly("-t + 1")
    with pytest.raises(ExactDivisionError) as err:
        divide_exact(f, rt.poly("-t^2 + t"))
    assert not err.value.remainder.is_zero()
    assert divides(g, f)
    assert not divides(rt.poly("-t^2 + t"), f)


def test_normalize_unit(rt):
    p = rt.poly("-2*t + 2") * Fraction(1, 3)
    q = normalize_unit(p)
    assert q == rt.poly("t - 1")


def test_multivariate_gcd(rab):
    x, y = rab.gen("X"), rab.gen("Y")
    a, b = rab.gen("a"), rab.gen("b")
    common = a * x + b * y
    f = common * (x + 1)
    g = common * (y - a)
    got = multivariate_gcd([f, g])
    assert divides(got, f) and divides(got, g)
    assert normalize_unit(got) == normalize_unit(common)
    assert multivariate_gcd([a, b]).is_constant()


def _planted_pair(rab):
    x, y = rab.gen("X"), rab.gen("Y")
    a, b = rab.gen("a"), rab.gen("b")
    common = a * x - 2 * b * y + Fraction(1, 2)
    return common, common * (x**2 + a), common * (y - 3 * a * b)


def test_gcd_falls_back_to_prs(rab, monkeypatch):
    common, f, g = _planted_pair(rab)
    expected = multivariate_gcd([f, g])
    calls = []
    prs = polyring._gcd_prs

    def spy(p, q):
        calls.append(1)
        return prs(p, q)

    monkeypatch.setattr(polyring, "_gcd_heu", lambda p, q: None)
    monkeypatch.setattr(polyring, "_gcd_prs", spy)
    assert multivariate_gcd([f, g]) == expected == normalize_unit(common)
    assert calls


def test_gcd_rejects_a_wrong_candidate(rab, monkeypatch):
    # a candidate that fails the exact-division check is never returned
    common, f, g = _planted_pair(rab)
    monkeypatch.setattr(polyring, "_xi_adic", lambda h, i, xi: {(0, 0, 1, 1): 1, (0,) * 4: 1})
    assert multivariate_gcd([f, g]) == normalize_unit(common)


def _random_poly(rng, ring, nterms, degree):
    terms = {}
    while len(terms) < nterms:
        e = [0] * ring.arity
        for _ in range(degree if not terms else rng.randint(0, degree)):
            e[rng.randrange(ring.arity)] += 1
        terms[tuple(e)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 1, 2)))
    return MultiPoly(ring, terms)


def test_gcd_planted_factor_degree_18_is_fast():
    # two 19-term polynomials of total degree 18 in Q[a,b][X] with a common factor
    ring = PolyRing(("a", "b"), ("X",))
    rng = random.Random(8)
    common = _random_poly(rng, ring, 4, 6)
    f = common * _random_poly(rng, ring, 5, 12)
    g = common * _random_poly(rng, ring, 5, 12)
    assert [len(f.terms), len(g.terms), f.total_degree(), g.total_degree()] == [19, 19, 18, 18]
    start = time.monotonic()
    got = multivariate_gcd([f, g])
    assert time.monotonic() - start < 1.0
    assert got == normalize_unit(common)


def test_extended_euclid_degree_100_is_fast():
    ring = PolyRing(("t",), ("X",))
    rng = random.Random(3)
    a = poly_from_coeffs(ring, 0, [Fraction(rng.randint(-9, 9)) for _ in range(100)] + [1])
    b = poly_from_coeffs(ring, 0, [Fraction(rng.randint(-9, 9)) for _ in range(100)] + [2])
    start = time.monotonic()
    g, alpha, beta = extended_euclid(a, b)
    assert time.monotonic() - start < 2.0
    assert alpha * a + beta * b == g


def test_extended_euclid(rt):
    a = rt.poly("t")
    b = rt.poly("-t + 1")
    g, alpha, beta = extended_euclid(a, b)
    assert g.is_constant()
    assert alpha * a + beta * b == g
    # non-coprime pair
    g2, al2, be2 = extended_euclid(rt.poly("t^2 - t"), rt.poly("t"))
    assert g2 == rt.poly("t")
    assert al2 * rt.poly("t^2 - t") + be2 * rt.poly("t") == g2


def test_reduce_mod_prime(rt):
    p = rt.poly("t")
    r = rt.poly("t^2*X1 + t*X2 + X1 + 3")
    assert reduce_mod_prime(r, p) == rt.poly("X1 + 3")
    q = rt.poly("-t + 1")
    # t = 1 mod (1 - t)
    assert reduce_mod_prime(rt.poly("t^2 + t"), q) == rt.const(2)
    with pytest.raises(PlinthError):
        reduce_mod_prime(r, rt.one())


def test_irreducible_smalldeg(rt):
    assert irreducible_smalldeg(rt.poly("t - 5")) is True
    assert irreducible_smalldeg(rt.poly("t^2 + 1")) is True
    assert irreducible_smalldeg(rt.poly("t^2 - 1")) is False
    assert irreducible_smalldeg(rt.poly("t^3 - 2")) is True
    assert irreducible_smalldeg(rt.poly("t^4 + 1")) is None
    assert irreducible_smalldeg(rt.poly("6*t^3 - 5*t^2 - 2*t + 1")) is False  # root 1/3


def test_irreducible_smalldeg_large_constants_are_fast(rt):
    cases = [
        ("t^2 + 1000000000001", True),
        ("t^2 - 1000000000002000000000001", False),
        ("7*t^3 + 5*t + 123456789012345678901237", True),
        ("8*t^3 - 1881676417513891481839", False),  # root 12345679/2
    ]
    for text, expected in cases:
        start = time.monotonic()
        assert irreducible_smalldeg(rt.poly(text)) is expected
        assert time.monotonic() - start < 0.1


def test_embed_restrict(rt):
    big = rt.extend(("S",))
    p = rt.poly("t*X1 + X2")
    q = embed(p, big)
    assert q.ring == big
    assert restrict(q, rt) == p
    with pytest.raises(PlinthError):
        restrict(big.gen("S"), rt)


def test_parse_print_round_trip(rab, rt):
    for ring, text in [
        (rab, "a^2*X - 2*b*Y + 1/2"),
        (rt, "-t^2 + t"),
        (rt, "1/2*t*X1^2 + t*X2 + X1"),
        (rt, "0"),
        (rab, "X*Y"),
    ]:
        p = ring.poly(text)
        assert poly_to_string(p) == text
        assert ring.poly(poly_to_string(p)) == p


def test_parse_errors(rt):
    for bad in ("t **", "t + * X1", "unknown_var", "t^(2)", "(t"):
        with pytest.raises(PolyParseError):
            rt.poly(bad)


def test_parse_implicit_operations(rt):
    assert rt.poly("t*X1") == rt.poly("t * X1")
    assert rt.poly("(t + 1)*(t - 1)") == rt.poly("t^2 - 1")
    assert rt.poly("-X1") == -rt.gen("X1")
    assert rt.poly("X1/2") == rt.gen("X1") * Fraction(1, 2)


# -- the integer-numerator kernels against per-term Fraction loops ----------


def _ref_add(f, g):
    out = dict(f.terms)
    for e, c in g.terms.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(f, g):
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_apply(D, f):
    ring = D.ring
    out = ring.zero()
    for i, img in enumerate(D.images, ring.nparams):
        deriv = MultiPoly(ring, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                                 for e, c in f.terms.items() if e[i]})
        out = MultiPoly(ring, _ref_add(out, MultiPoly(ring, _ref_mul(img, deriv))))
    return out.terms


def _kernel_poly(rng, ring):
    """Up to 6 terms with mixed denominators, some coefficients beyond 2**64."""
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = tuple(rng.randint(0, 2) for _ in range(ring.arity))
        num = rng.choice((rng.randint(-4, 4), rng.randint(-2**70, 2**70)))
        terms[e] = Fraction(num, rng.choice((1, 1, 1, 2, 3, 6, 7 * 2**66)))
    return MultiPoly(ring, terms)


def _assert_clean(terms):
    assert all(type(c) is Fraction and c != 0 for c in terms.values())


def test_kernels_match_fraction_reference(rng):
    for params in (("a",), ("a", "b"), ("a", "b", "c")):
        ring = PolyRing(params, ("X", "Y"))
        for _ in range(150):
            f, g = _kernel_poly(rng, ring), _kernel_poly(rng, ring)
            if rng.random() < 0.2:
                g = -f + _kernel_poly(rng, ring) * rng.randint(0, 1)  # cancellation
            for got, want in ((f + g, _ref_add(f, g)), (f * g, _ref_mul(f, g)),
                              (f - g, _ref_add(f, MultiPoly(ring, {e: -c for e, c in
                                                                   g.terms.items()}))),
                              (f * ring.zero(), {}), (ring.zero() + f, f.terms)):
                assert got.terms == want
                _assert_clean(got.terms)
            assert (f + (-f)).is_zero()
            images = [_kernel_poly(rng, ring) for _ in ring.vars]
            if all(img.is_zero() for img in images):
                images[0] = ring.one()
            D = Derivation(ring, images)
            got = apply(D, f)
            assert got.terms == _ref_apply(D, f)
            _assert_clean(got.terms)


def test_kernels_share_small_integers(rab):
    x, y = rab.gen("X"), rab.gen("Y")
    p = (x + 2 * y - 3) * (x - y) + rab.const(Fraction(4, 2))
    q = -p
    assert all(c is polyring._fraction(c.numerator) for c in p.terms.values())
    assert all(c is polyring._fraction(c.numerator) for c in q.terms.values())
    big = rab.const(10**30)
    assert (big * x).terms[(0, 0, 1, 0)] == 10**30


def test_parse_large_power_is_fast(rab):
    start = time.monotonic()
    p = poly_from_string(rab, "(X+Y+1)^60")
    assert time.monotonic() - start < 1.0
    assert len(p.terms) == 1891
