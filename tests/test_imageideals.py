import random
import time
from fractions import Fraction
from math import factorial

import pytest

from plinth.cli import parse_problem
from plinth.derivation import Derivation, apply, classify, iterate
from plinth.imageideals import (
    Analysis,
    image_ideal,
    min_exponent,
    nice3var_reduce,
    strictness_decompose,
)
from plinth.polyring import (
    MultiPoly,
    PlinthError,
    PolyRing,
    divides,
    multivariate_gcd,
    normalize_unit,
)

from test_formula_oracle import NEAR_MISSES, nice_problem, pid3_problem


@pytest.fixture
def rab():
    return PolyRing(("a", "b"), ("X", "Y"))


@pytest.fixture
def rt():
    return PolyRing(("t",), ("X1", "X2"))


@pytest.fixture
def r3():
    return PolyRing(("t",), ("X", "Y", "Z"))


def nice_ab(rab):
    return Derivation(rab, [rab.poly("a"), rab.poly("b")])


def tparam(rt):
    return Derivation(rt, [rt.poly("-t^2 + t"), rt.poly("-t*X1 - t + 1")])


def tparam_factors(rt):
    return [(rt.poly("t"), 1), (rt.poly("-t + 1"), 1)]


# -- kernel generators -------------------------------------------------------


def test_kernel_generator_nice(rab):
    D = nice_ab(rab)
    assert Analysis(D, None).kernel == (rab.poly("b*X - a*Y"),)


def test_kernel_generator_quasi(rt):
    D = tparam(rt)
    expected = rt.poly("-t^2*X2 + 1/2*t*X1^2 + t*X1 + t*X2 - X1")
    assert Analysis(D, None).kernel == (expected,)


def test_kernel_generator_degenerate():
    ring = PolyRing((), ("X", "Y"))
    D = Derivation(ring, [ring.one(), ring.zero()])
    assert Analysis(D, None).kernel == (-ring.gen("Y"),)


def test_kernel_generator_unsupported(r3):
    # three variables go through the reduction, four have no kernel formula
    D = Derivation(r3, [r3.zero(), r3.poly("t"), r3.poly("X")])
    assert Analysis(D, None).kernel == (r3.gen("X"), r3.poly("-t*Z + X*Y"))
    r4 = PolyRing(("t",), ("X", "Y", "Z", "W"))
    D = Derivation(r4, [r4.zero(), r4.poly("t"), r4.poly("X"), r4.poly("Y")])
    with pytest.raises(PlinthError):
        Analysis(D, None).kernel


# -- the exponent law ---------------------------------------------------------


def test_min_exponent_examples():
    assert min_exponent(1, 2) == 1
    assert min_exponent(3, 2) == 2
    assert all(min_exponent(j, 1) == 0 for j in range(1, 20))


def test_min_exponent_validation():
    with pytest.raises(PlinthError):
        min_exponent(0, 2)
    with pytest.raises(PlinthError):
        min_exponent(2, 0)


# -- strictness ----------------------------------------------------------------


def test_strictness_strict(rt):
    D = tparam(rt)
    dec = strictness_decompose(D, classify(D))
    assert dec.verdict == "strictly-1-quasi"
    assert not dec.heuristic
    q_b = rt.poly("-t^2 + t")
    f = rt.poly("1/2*t*X1^2 + t*X1 - X1")
    assert dec.u + q_b * dec.v == f
    for e in range(int(dec.u.degree_in("X1")) + 1):
        c = dec.u.coefficient_of("X1", e)
        if not c.is_zero():
            assert not divides(q_b, c)


def test_strictness_nice_able(rt):
    D = Derivation(rt, [rt.poly("t"), rt.poly("-t*X1 - 1")])
    dec = strictness_decompose(D, classify(D))
    assert dec.verdict == "nice-able"
    assert dec.new_coordinate == rt.poly("1/2*X1^2 + X2")
    assert dec.new_image == rt.const(-1)
    assert iterate(D, dec.new_coordinate, 2).is_zero()


def test_strictness_unit_b(rt):
    D = Derivation(rt, [rt.const(2), rt.poly("-X1")])
    dec = strictness_decompose(D, classify(D))
    assert dec.verdict == "slice"
    assert dec.u.is_zero()


def test_strictness_unsupported(rab):
    D = nice_ab(rab)
    with pytest.raises(PlinthError):
        strictness_decompose(D, classify(D))


# -- slices --------------------------------------------------------------------


def test_slice_from_bezout(rt):
    D = Derivation(rt, [rt.poly("t"), rt.poly("-t + 1")])
    res = image_ideal(D, 1)
    assert res.theorem == "slice"
    assert res.preimages == [rt.poly("X1 + X2")]
    assert apply(D, res.preimages[0]) == rt.one()


def test_slice_trivial():
    ring = PolyRing((), ("X",))
    D = Derivation(ring, [ring.one()])
    res = image_ideal(D, 1)
    assert res.theorem == "slice"
    assert res.preimages == [ring.gen("X")]


def test_slice_quasi_nice_able(rt):
    # nice after X2 -> X2 + 1/2*X1^2, with images t and -1: the cofactors
    # (0, -1) give the slice -(X2 + 1/2*X1^2)
    D = Derivation(rt, [rt.poly("t"), rt.poly("-t*X1 - 1")])
    res = image_ideal(D, 1)
    assert res.theorem == "slice"
    assert res.preimages == [rt.poly("-1/2*X1^2 - X2")]
    assert apply(D, res.preimages[0]) == rt.one()


def test_slice_absent(rab):
    D = nice_ab(rab)
    assert image_ideal(D, 1).theorem == "inice"


# -- the 3-variable reduction ---------------------------------------------------


def test_nice3var_reduce_pid3(r3):
    D = Derivation(r3, [r3.zero(), r3.poly("t"), r3.poly("X")])
    red = nice3var_reduce(D, classify(D))
    U = red.coords[0]
    assert U == r3.gen("X")
    assert apply(D, U).is_zero()
    for g in red.kernel:
        assert apply(D, g).is_zero()
    assert normalize_unit(red.kernel[1]) == normalize_unit(
        r3.poly("-t*Z + X*Y")
    )
    # unit determinant
    M = red.matrix
    det = (
        M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
        - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
        + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
    )
    assert det == r3.one()
    # syzygy row kills the images
    imgs = D.images
    assert sum((M[0][j] * imgs[j] for j in range(3)), r3.zero()).is_zero()


def test_nice3var_reduce_linear_syzygy(r3):
    D = Derivation(r3, [r3.poly("t"), r3.poly("-t"), r3.poly("X + Y")])
    red = nice3var_reduce(D, classify(D))
    assert normalize_unit(red.coords[0]) == r3.poly("X + Y")
    assert apply(D, red.coords[0]).is_zero()
    for g in red.kernel:
        assert apply(D, g).is_zero()


def to_original_by_terms(red, p):
    """Reference for ThreeVarReduction.to_original: rebuild p term by term,
    each power of U, V, W replaced by the power of its coordinate."""
    ring = red.coords[0].ring
    k = ring.nparams
    out = ring.zero()
    for exps, coeff in p.terms.items():
        term = ring.const(coeff)
        for i in range(k):  # original parameters keep their positions
            term = term * ring.gen(ring.params[i]) ** exps[i]
        for coord, e in zip(red.coords, exps[k:]):
            term = term * coord**e
        out = out + term
    return out


def test_to_original_maps_the_reduced_images_back(r3, seed):
    # D V = f(U) and D W = g(U) in the new coordinates: mapped back, the
    # reduced images are the images of the coordinates V and W
    rng = random.Random("to_original:%d" % seed)
    specs = [parse_problem(pid3_problem(rng)[0]) for _ in range(6)]
    cases = [Derivation(r3, [r3.zero(), r3.poly("t"), r3.poly("X")])]
    for D in cases + [spec.derivation() for spec in specs]:
        red = nice3var_reduce(D, classify(D))
        (f, g), (_, V, W) = red.reduced.images, red.coords
        assert red.to_original(f) == apply(D, V)
        assert red.to_original(g) == apply(D, W)
        ring = red.new_ring
        for _ in range(5):
            terms = {tuple(rng.randrange(3) for _ in range(ring.arity)):
                     Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 5)))
                     for _ in range(6)}
            p = MultiPoly(ring, terms)
            assert red.to_original(p) == to_original_by_terms(red, p), p


def test_nice3var_reduce_rejects_non_nice(r3):
    D = Derivation(r3, [r3.poly("t"), r3.poly("X"), r3.poly("Y")])
    with pytest.raises(PlinthError):
        nice3var_reduce(D, classify(D))


# -- image ideals ----------------------------------------------------------------


def test_image_ideal_j0(rab):
    res = image_ideal(nice_ab(rab), 0)
    assert res.generators == [rab.one()]
    assert res.theorem == "trivial"


def test_image_ideal_nice_powers(rab):
    D = nice_ab(rab)
    for j in (1, 2, 3):
        res = image_ideal(D, j)
        assert res.theorem == "inice"
        expected = [
            rab.poly("a") ** i * rab.poly("b") ** (j - i) for i in range(j, -1, -1)
        ]
        assert res.generators == expected
        assert len(res.generators) == j + 1
        for gen, pre in zip(res.generators, res.preimages):
            assert iterate(D, pre, j) == factorial(j) * gen
        assert res.certificate.primality is True
        assert res.certificate.fixed_point_free is False


@pytest.mark.parametrize("problem", [
    lambda rng: nice_problem(rng)[0],
    lambda rng: pid3_problem(rng)[0],
    # quasi-nice, nice after X2 -> X2 + X1^2, and not fixed point free
    lambda rng: next(text for name, text, _ in NEAR_MISSES if name == "nice-able-Qab"),
], ids=["nice", "pid3", "nice-able"])
def test_nice_powers_do_not_depend_on_call_order(problem, seed):
    # one Analysis keeps the powers of f1, f2, p1, p2 across every j it is
    # asked; each answer must be what a fresh Analysis gives for that j alone
    spec = parse_problem(problem(random.Random("powers:%d" % seed)))
    D = spec.derivation()
    shared = Analysis(D, spec.factored_b)
    for j in (3, 1, 4, 2):
        got = shared.image_ideal(j, (2, 2), 1000)
        want = Analysis(D, spec.factored_b).image_ideal(j, (2, 2), 1000)
        assert got.theorem == want.theorem in ("inice", "pid-3var")
        assert got.generators == want.generators
        assert got.preimages == want.preimages
        assert got.certificate.to_dict() == want.certificate.to_dict()


def test_image_ideal_slice(rt):
    D = Derivation(rt, [rt.poly("t"), rt.poly("-t + 1")])
    for j in (1, 3):
        res = image_ideal(D, j)
        assert res.theorem == "slice"
        assert res.generators == [rt.one()]
        assert iterate(D, res.preimages[0], j) == rt.one()


def test_image_ideal_quasi_pid(rt):
    D = tparam(rt)
    res = image_ideal(D, 1, factored_b=tparam_factors(rt))
    assert res.theorem == "2varquasi_PID"
    assert res.m == 1
    assert res.generators == [rt.poly("-t + 1")]
    assert res.certificate.primality is False  # recorded, not hidden
    assert [(str(p), ok) for p, _, ok in res.certificate.localized] == [
        ("t", True),
        ("-t + 1", False),
    ]
    res2 = image_ideal(D, 2, factored_b=tparam_factors(rt))
    assert res2.m == 1
    assert res2.generators == [rt.poly("-t + 1")]
    res3 = image_ideal(D, 3, factored_b=tparam_factors(rt))
    assert res3.m == 2
    assert res3.generators == [rt.poly("-t + 1") ** 2]


def test_image_ideal_quasi_irreducible_b(rt):
    # b = t is already irreducible: no factorization needed
    D = Derivation(rt, [rt.poly("t"), rt.poly("-X1 - 1")])
    dec = strictness_decompose(D, classify(D))
    assert dec.verdict == "strictly-1-quasi"
    res = image_ideal(D, 1)
    assert res.theorem == "2varquasi"
    assert res.generators == [rt.poly("t")]


def test_image_ideal_quasi_missing_factorization(rt):
    with pytest.raises(PlinthError):
        image_ideal(tparam(rt), 1)


def test_image_ideal_nice_able(rt):
    D = Derivation(rt, [rt.poly("t"), rt.poly("-t*X1 - 1")])
    res = image_ideal(D, 2)
    assert res.theorem == "slice"
    assert res.generators == [rt.one()]


def test_image_ideal_pid3(r3):
    D = Derivation(r3, [r3.zero(), r3.poly("t"), r3.poly("X")])
    for j in (1, 2):
        res = image_ideal(D, j)
        assert res.theorem == "pid-3var"
        expected = [
            r3.poly("t") ** i * r3.gen("X") ** (j - i) for i in range(j, -1, -1)
        ]
        assert res.generators == expected
        for gen, pre in zip(res.generators, res.preimages):
            assert iterate(D, pre, j) == Fraction(factorial(j)) * gen
        assert res.certificate.primality is True


def test_image_ideal_pid3_with_slice(r3):
    D = Derivation(r3, [r3.one(), r3.zero(), r3.zero()])
    res = image_ideal(D, 2)
    assert res.theorem == "slice"
    assert res.generators == [r3.one()]


def test_image_ideal_oracle_only_wink1():
    ring = PolyRing(("a", "b"), ("X", "Y", "Z"))
    D = Derivation(ring, [ring.poly("a"), ring.poly("b"), ring.poly("b*X - a*Y")])
    res = image_ideal(D, 1, bounds=(2, 2))
    assert res.theorem == "oracle-only"
    assert ring.poly("a") in res.generators
    assert ring.poly("b") in res.generators


def test_image_ideal_rejects_reducible(rt):
    D = Derivation(rt, [rt.poly("t"), rt.poly("t*X1")])
    with pytest.raises(PlinthError):
        image_ideal(D, 1)


def test_image_ideal_monotone_containment(rab):
    # each generator of I_{j+1} is a kernel multiple of generators of I_j
    from test_oracle import ideal_membership_bounded

    D = nice_ab(rab)
    for j in (1, 2):
        now = image_ideal(D, j).generators
        nxt = image_ideal(D, j + 1).generators
        for g in nxt:
            status, _ = ideal_membership_bounded(now, g, (2, 2))
            assert status == "yes"


def test_nice_degree_5_image_ideal_is_fast(rab):
    # a seeded nice pair of degree 5 in Q[a,b], where gcd cost used to blow up
    rng = random.Random(5)
    mons = [(i, k - i, 0, 0) for k in range(2, 6) for i in range(k + 1)]
    images = []
    for lead in ((1, 0, 0, 0), (0, 1, 0, 0)):
        terms = {e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for e in rng.sample(mons, 10)}
        terms[lead] = Fraction(1)
        images.append(MultiPoly(rab, terms))
    assert max(img.total_degree() for img in images) == 5
    assert multivariate_gcd(images).is_constant()
    D = Derivation(rab, images)
    start = time.monotonic()
    res = image_ideal(D, 2)
    assert time.monotonic() - start < 5.0
    assert res.theorem == "inice"
    for g, pre in zip(res.generators, res.preimages):
        assert iterate(D, pre, 2) == factorial(2) * g
