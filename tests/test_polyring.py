import copy
import pickle
import random
import time
from fractions import Fraction
from math import gcd
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
    poly_from_string,
    poly_to_string,
    reduce_mod_prime,
    restrict,
    substitute,
)
from test_properties import poly_from_coeffs


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

    monkeypatch.setattr(polyring, "_gcd_heu", lambda ring, p, q: None)
    monkeypatch.setattr(polyring, "_gcd_prs", spy)
    assert multivariate_gcd([f, g]) == expected == normalize_unit(common)
    assert calls


def test_gcd_rejects_a_wrong_candidate(rab, monkeypatch):
    # a candidate that fails the exact-division check is never returned
    common, f, g = _planted_pair(rab)
    monkeypatch.setattr(polyring, "_xi_adic",
                        lambda h, unit, xi: {rab.encode((0, 0, 1, 1)): 1, 0: 1})
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


def test_divide_exact_2268_terms_is_fast(rab):
    g = rab.poly("X + 2*Y - 3*a + b + 1")
    f = rab.poly("X + Y + a + b + 1") ** 10 * rab.poly("1/2*X^2 - a*Y + 3") * g
    assert len(f.terms) == 2268
    start = time.monotonic()
    q = divide_exact(f, g)
    assert time.monotonic() - start < 0.2
    assert q * g == f


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


def poly_to_string_reference(f):
    """The printer with nothing kept between calls: every monomial key is
    formatted anew and every coefficient goes through a gcd."""
    if f.is_zero():
        return "0"
    parts = []
    nums, den, fields = f.nums, f.den, list(zip(f.ring.names, f.ring._shifts))
    for key in sorted(nums, reverse=True):
        num = nums[key]
        g = gcd(num, den)
        mag = str(abs(num) // g) if g == den else "%d/%d" % (abs(num) // g, den // g)
        factors = [name if e == 1 else "%s^%d" % (name, e)
                   for name, s in fields if (e := key >> s & polyring.FIELD_MASK)]
        if parts:
            parts.append(" + " if num > 0 else " - ")
        elif num < 0:
            parts.append("-")
        parts.append("*".join(factors if factors and mag == "1" else [mag] + factors))
    return "".join(parts)


def _printer_poly(rng, ring, names):
    """A random polynomial of ring in names only, with Fraction coefficients
    of either sign, exponents up to 12 and at times a constant term."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = [0] * ring.arity
        for name in names:
            if rng.random() < 0.6:
                e[ring.index(name)] = rng.choice((1, 2, 3, 10, 12))
        terms[tuple(e)] = Fraction(rng.choice((-7, -3, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3, 6)))
    return MultiPoly(ring, terms)


def test_printer_matches_the_reference(rng):
    # three rings of one arity, so they share packed keys: each must print a
    # key with its own names, in whatever order the rings print
    rings = [PolyRing((), ("X", "Y", "Z")), PolyRing(("a", "b"), ("U",)),
             PolyRing(("p",), ("V", "W"))]
    polys = []
    for ring in rings:
        polys += [ring.zero(), ring.one(), ring.const(Fraction(-5, 3)), -ring.gen(ring.vars[0])]
        for names in (ring.names, ring.params, ring.vars):
            polys += [_printer_poly(rng, ring, names) for _ in range(40) if names]
    rng.shuffle(polys)
    printed = [poly_to_string(f) for f in polys + polys]
    assert printed == [poly_to_string_reference(f) for f in polys + polys]
    # the sample covers what the printer distinguishes
    assert {"0", "1", "-5/3"} <= set(printed)
    assert any(s.startswith("-") and "/" in s for s in printed)
    assert any("^1" in s for s in printed) and any(" - " in s for s in printed)


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


def _assert_content_form(p):
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c != 0 for c in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    if p.is_zero():
        assert (p.nums, p.den) == ({}, 1)


def test_kernels_keep_content_form(rng):
    ring = PolyRing(("a", "b"), ("X", "Y"))
    for _ in range(150):
        f, g = _kernel_poly(rng, ring), _kernel_poly(rng, ring)
        if rng.random() < 0.2:
            g = -f + _kernel_poly(rng, ring) * rng.randint(0, 1)  # cancellation
        images = [_kernel_poly(rng, ring) for _ in ring.vars]
        if all(img.is_zero() for img in images):
            images[0] = ring.one()
        results = [f + g, f - g, f * g, -f, f - f, apply(Derivation(ring, images), f),
                   normalize_unit(f)]
        if not g.is_zero():
            results.append(divide_exact(f * g, g))
            assert results[-1] == f
        if not (f.is_zero() and g.is_zero()):
            results.append(multivariate_gcd([f, g]))
        for p in results:
            _assert_content_form(p)
    x = ring.gen("X")
    assert (ring.const(10**30) * x).terms == {(0, 0, 1, 0): 10**30}
    assert (x * Fraction(2, 3) + x * Fraction(1, 3)).nums == {ring.encode((0, 0, 1, 0)): 1}


def _fraction_terms(rng, ring):
    """Up to 5 clean terms with mixed denominators, some beyond 2**64."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        e = tuple(rng.randint(0, 2) for _ in range(ring.arity))
        num = rng.choice((rng.randint(1, 9), rng.randint(2**64, 2**70))) * rng.choice((1, -1))
        terms[e] = Fraction(num, rng.choice((1, 2, 6, 35, 3**41)))
    return terms


def test_equality_and_hash_follow_the_coefficients(rng):
    ring = PolyRing(("a",), ("X", "Y"))
    for _ in range(300):
        t = _fraction_terms(rng, ring)
        p = MultiPoly(ring, t)
        assert p.terms == t
        _assert_content_form(p)
        # the same polynomial by another route has the same form and hash
        k = Fraction(rng.choice((3, 2**65 + 1)), rng.choice((7, 3**41)))
        q = p * k * (1 / k)
        assert q == p and hash(q) == hash(p) and (q.nums, q.den) == (p.nums, p.den)
        u = dict(t)
        if u and rng.random() < 0.5:
            e = rng.choice(sorted(u))
            u[e] = rng.choice((u[e] * 2, u[e] + Fraction(1, 3**41), -u[e]))
        r = MultiPoly(ring, u)
        assert (p == r) == (t == r.terms)
        assert (p != r) == (t != r.terms)
        if p == r:
            assert hash(p) == hash(r)


def test_kernels_never_read_the_terms_view(monkeypatch, rab):
    reads = []
    view = MultiPoly.terms
    monkeypatch.setattr(MultiPoly, "terms",
                        property(lambda p: reads.append(p) or view.fget(p)))
    p = poly_from_string(rab, "(X/2 + Y/3 + a)^62")
    q = poly_from_string(rab, "X - b/5")
    small = poly_from_string(rab, "(X/2 + Y/3 + a)^6")
    assert len(p.nums) == 2016
    D = Derivation(rab, [rab.gen("b"), rab.gen("a")])
    pq = p * q
    assert divide_exact(pq, q) == p
    p + q, p - q, -p, normalize_unit(p), apply(D, p)
    assert multivariate_gcd([small * q, small]) == normalize_unit(small)
    assert reads == []
    for f in (p, pq, small):
        str(f)
        assert len(reads) <= 1
        reads.clear()


def test_generators_zero_and_one_are_shared(rab):
    # a parsed problem holds its generators, 0 and 1 once each
    p = poly_from_string(rab, "X*Y + X - 2*a*X")
    assert rab.gen("X") is rab.gen("X") is poly_from_string(rab, "X")
    assert rab.zero() is rab.zero() is rab.const(0)
    assert rab.one() is rab.one() is rab.one() ** 0
    # so no operation may write into an operand
    x, y, zero, one = rab.gen("X"), rab.gen("Y"), rab.zero(), rab.one()
    shared = [x, y, zero, one, p]
    before = [dict(q.terms) for q in shared]
    D = Derivation(rab, [one, x])
    for f in shared:
        for g in shared:
            f + g, f - g, f * g, -f
        apply(D, f)
        substitute(f, "X", y + one)
        substitute(f, "Y", zero)
        f ** 2
    assert [q.terms for q in shared] == before


def test_parse_large_power_is_fast(rab):
    start = time.monotonic()
    p = poly_from_string(rab, "(X+Y+1)^60")
    assert time.monotonic() - start < 1.0
    assert len(p.terms) == 1891


def test_power_over_the_term_budget_is_refused_before_expanding(monkeypatch):
    r = PolyRing((), ("X", "Y", "Z"))
    start = time.monotonic()
    with pytest.raises(PolyParseError, match="more than %d terms" % polyring.MAX_POWER_TERMS):
        poly_from_string(r, "(X+Y+Z+1)^80")  # C(83, 80) = 91,881 terms
    assert time.monotonic() - start < 1.0
    # the prediction C(t+k-1, k) meets the budget at k = 9 for t = 2
    monkeypatch.setattr(polyring, "MAX_POWER_TERMS", 10)
    assert len(poly_from_string(r, "(X+1)^9").nums) == 10
    with pytest.raises(PolyParseError, match="to the 10 may have more than 10 terms"):
        poly_from_string(r, "(X+1)^10")
    # a monomial or a constant predicts one term; it meets the degree limit instead
    assert poly_from_string(r, "(2*X)^12") == poly_from_string(r, "4096*X^12")
    with pytest.raises(PlinthError, match="degree limit"):
        poly_from_string(r, "X^%d" % polyring.DEGREE_LIMIT)


def test_product_over_the_term_budget_is_refused_before_multiplying(monkeypatch):
    r = PolyRing((), ("X", "Y", "Z"))
    monkeypatch.setattr(polyring, "MAX_PRODUCT_TERMS", 6)
    assert len(poly_from_string(r, "(X+1)*(X+Y+1)").nums) == 5
    with pytest.raises(PolyParseError, match=r"a product of 2 by 4 terms .* \(at position 5\)"):
        poly_from_string(r, "(X+1)(X+Y+Z+1)")
    # each product counts the terms multiplied so far: 2 * 2, then 4 * 2
    with pytest.raises(PolyParseError, match=r"a product of 4 by 2 terms .* \(at position 16\)"):
        poly_from_string(r, "(X+1)*3*(Y+1)*X*(Z+1)")


def test_integers_past_the_conversion_limit_print_exactly():
    r = PolyRing(("t",), ("X",))
    digits = "".join(random.Random(3).choice("0123456789") for _ in range(9000))
    n = sum(int(digits[i:i + 3000]) * 10**(6000 - i) for i in (0, 3000, 6000)) + 7 * 10**9000
    assert polyring._digits(n) == "7" + digits  # 9,001 digits, zeros inside kept
    p = MultiPoly._of(r, {r.encode((1, 1)): -10**6000, 0: 3}, 2 * 10**5000)
    assert poly_to_string(p) == "-5%s*t*X + 3/2%s" % ("0" * 999, "0" * 5000)
    assert str(12345678901234567890) == polyring._digits(12345678901234567890)


@pytest.mark.parametrize("text, message", [
    ("1" + "0" * 4300, "integer literal too long"),
    ("10^4300", "a coefficient of this power may have more than 4300 digits"),
    ("(X + 10)^5000", "a coefficient of this power may have more than 4300 digits"),
    ("10^3000*10^3000", "a coefficient has more than 4300 digits"),
])
def test_a_coefficient_that_would_not_read_back_is_refused(text, message):
    # int() reads at most sys.get_int_max_str_digits() digits, 4300 by default
    with pytest.raises(PolyParseError, match=message):
        poly_from_string(PolyRing((), ("X",)), text)


@pytest.mark.parametrize("text, zeros", [
    ("1" + "0" * 4299, 4299), ("10^4299", 4299), ("10^2000*10^2000", 4000)])
def test_a_readable_coefficient_round_trips(text, zeros):
    r = PolyRing((), ("X",))
    printed = poly_to_string(poly_from_string(r, text))
    assert printed == "1" + "0" * zeros
    assert poly_from_string(r, printed) == poly_from_string(r, text)


# -- the packed monomial keys, at every arity up to 6 and up to the degree limit

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from plinth.derivation import _columns
from plinth.oracle import slice_basis
from plinth.polyring import DEGREE_LIMIT

CODEC = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def _rings(draw):
    arity = draw(st.integers(1, 6))
    nparams = draw(st.integers(0, arity - 1))
    names = ("a", "b", "c", "X", "Y", "Z")[:arity]
    return PolyRing(names[:nparams], names[nparams:])


@st.composite
def _vectors(draw, arity, limit=DEGREE_LIMIT):
    """An exponent vector of the arity whose total degree is below limit."""
    total = draw(st.integers(0, limit - 1))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=arity - 1,
                                max_size=arity - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


@lru_cache(maxsize=None)
def _terms(arity, limit):
    """Up to 4 terms of total degree below limit (one strategy per pair, as
    building strategies dominates the run time)."""
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.dictionaries(_vectors(arity, limit), coeffs, max_size=4)


def _polys(draw, ring, limit):
    return MultiPoly(ring, draw(_terms(ring.arity, limit)))


@CODEC
@given(st.data())
def test_codec_round_trip_and_order(data):
    ring = data.draw(_rings())
    e, f = data.draw(_vectors(ring.arity)), data.draw(_vectors(ring.arity))
    assert ring.decode(ring.encode(e)) == e
    assert MultiPoly(ring, {e: 3}).terms == {e: 3}
    assert (ring.encode(e) < ring.encode(f)) == ((sum(e), e) < (sum(f), f))
    assert (ring.encode(e) == ring.encode(f)) == (e == f)
    # the guard bits of a difference of keys decide divisibility
    assert divides(MultiPoly(ring, {f: 1}), MultiPoly(ring, {e: 2})) \
        == all(a <= b for a, b in zip(f, e))


@settings(CODEC, max_examples=80)
@given(st.data())
def test_codec_kernels_match_fraction_reference(data):
    ring = data.draw(_rings())
    f, g = (_polys(data.draw, ring, DEGREE_LIMIT // 2) for _ in range(2))
    assert (f * g).terms == _ref_mul(f, g)
    if ring.nvars:
        # images of degree at most 2, so D raises a degree by at most 1
        images = [_polys(data.draw, ring, 3) for _ in ring.vars]
        if all(img.is_zero() for img in images):
            images[0] = ring.one()
        f = _polys(data.draw, ring, DEGREE_LIMIT - 1)
        assert apply(Derivation(ring, images), f).terms == _ref_apply(Derivation(ring, images), f)


@CODEC
@given(st.data())
def test_codec_one_step_past_the_limit_raises(data):
    ring = data.draw(_rings())
    e = data.draw(_vectors(ring.arity, DEGREE_LIMIT - 1))
    i = data.draw(st.integers(0, ring.arity - 1))
    # a vector of total degree exactly DEGREE_LIMIT with top[i] >= 2, and
    # the limit reached from one below by a product and by D
    top = list(e)
    top[i] += DEGREE_LIMIT - sum(e)
    with pytest.raises(PlinthError, match="degree limit: "):
        MultiPoly(ring, {tuple(top): 1})
    rest = list(top)
    rest[i] -= 1
    below = MultiPoly(ring, {tuple(rest): 1})
    assert below.total_degree() == DEGREE_LIMIT - 1
    x = ring.gen(ring.names[i])
    with pytest.raises(PlinthError, match="degree limit: "):
        below * (x + 1)
    if i >= ring.nparams:  # D X_i = X_i^2 multiplies X_i^k by k X_i
        images = [x * x if name == ring.names[i] else ring.zero() for name in ring.vars]
        with pytest.raises(PlinthError, match="degree limit: "):
            apply(Derivation(ring, images), below)


@CODEC
@given(st.data())
def test_codec_packed_degrees_match_the_fields(data):
    # degrees sums the variable fields of a key in one product, and a
    # slice's holds inlines it; both must equal the sum field by field
    ring = data.draw(_rings())
    e = data.draw(_vectors(ring.arity))
    key = ring.encode(e)
    p, v = sum(e[:ring.nparams]), sum(e[ring.nparams:])
    assert ring.degrees(key) == (p, v)
    pb, vb = (data.draw(st.integers(0, DEGREE_LIMIT)) for _ in range(2))
    assert slice_basis(ring, pb, vb).holds([key]) == (p <= pb and v <= vb)


def test_apply_checks_the_degree_only_past_its_bound():
    # D X = Y^(L-1): the bound on D(X + Y^10), the greatest input key plus
    # the greatest delta, passes the limit, but its one key Y^(L-1) does
    # not, so it must pass; D(X*Y + Y^10) = Y^L must not
    ring = PolyRing((), ("X", "Y"))
    D = Derivation(ring, [ring.gen("Y") ** (DEGREE_LIMIT - 1), ring.zero()])
    f = ring.poly("X + Y^10")
    assert max(f.nums) + _columns(D)[1] >= ring._cap
    assert apply(D, f) == ring.gen("Y") ** (DEGREE_LIMIT - 1)
    with pytest.raises(PlinthError, match="degree limit: "):
        apply(D, ring.poly("X*Y + Y^10"))
