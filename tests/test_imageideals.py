import random
import time
from fractions import Fraction
from math import factorial

import pytest

from plinth.derivation import Derivation, UnsupportedStructureError, apply, iterate
from plinth.imageideals import (
    image_ideal,
    kernel_generator,
    min_exponent,
    nice3var_reduce,
    slice_construct,
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
    pres = kernel_generator(nice_ab(rab))
    assert pres.certified
    assert pres.generators == [rab.poly("b*X - a*Y")]


def test_kernel_generator_quasi(rt):
    pres = kernel_generator(tparam(rt))
    expected = rt.poly("-t^2*X2 + 1/2*t*X1^2 + t*X1 + t*X2 - X1")
    assert pres.generators == [expected]


def test_kernel_generator_degenerate():
    ring = PolyRing((), ("X", "Y"))
    D = Derivation(ring, [ring.one(), ring.zero()])
    pres = kernel_generator(D)
    assert pres.generators == [-ring.gen("Y")]


def test_kernel_generator_unsupported(r3):
    D = Derivation(r3, [r3.zero(), r3.poly("t"), r3.poly("X")])
    with pytest.raises(UnsupportedStructureError):
        kernel_generator(D)


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
    dec = strictness_decompose(tparam(rt))
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
    dec = strictness_decompose(D)
    assert dec.verdict == "nice-able"
    assert dec.new_coordinate == rt.poly("1/2*X1^2 + X2")
    assert dec.new_image == rt.const(-1)
    assert iterate(D, dec.new_coordinate, 2).is_zero()


def test_strictness_unit_b(rt):
    D = Derivation(rt, [rt.const(2), rt.poly("-X1")])
    dec = strictness_decompose(D)
    assert dec.verdict == "slice"
    assert dec.u.is_zero()


def test_strictness_unsupported(rab):
    with pytest.raises(UnsupportedStructureError):
        strictness_decompose(nice_ab(rab))


# -- slices --------------------------------------------------------------------


def test_slice_from_bezout(rt):
    D = Derivation(rt, [rt.poly("t"), rt.poly("-t + 1")])
    s = slice_construct(D)
    assert s == rt.poly("X1 + X2")
    assert apply(D, s) == rt.one()


def test_slice_trivial():
    ring = PolyRing((), ("X",))
    D = Derivation(ring, [ring.one()])
    assert slice_construct(D) == ring.gen("X")


def test_slice_quasi_bounded(rt):
    D = Derivation(rt, [rt.poly("t"), rt.poly("-t*X1 - 1")])
    s = slice_construct(D)
    assert s is not None
    assert apply(D, s) == rt.one()


def test_slice_absent(rab):
    assert slice_construct(nice_ab(rab)) is None


# -- the 3-variable reduction ---------------------------------------------------


def test_nice3var_reduce_pid3(r3):
    D = Derivation(r3, [r3.zero(), r3.poly("t"), r3.poly("X")])
    red = nice3var_reduce(D)
    U = red.coords[0]
    assert U == r3.gen("X")
    assert apply(D, U).is_zero()
    for g in red.kernel.generators:
        assert apply(D, g).is_zero()
    assert normalize_unit(red.kernel.generators[1]) == normalize_unit(
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
    red = nice3var_reduce(D)
    assert normalize_unit(red.coords[0]) == r3.poly("X + Y")
    assert apply(D, red.coords[0]).is_zero()
    for g in red.kernel.generators:
        assert apply(D, g).is_zero()


def test_nice3var_reduce_rejects_non_nice(r3):
    D = Derivation(r3, [r3.poly("t"), r3.poly("X"), r3.poly("Y")])
    with pytest.raises(UnsupportedStructureError):
        nice3var_reduce(D)


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
        for gen, pre, factor in zip(
            res.generators, res.preimages, res.preimage_factors
        ):
            assert iterate(D, pre, j) == factor * gen
        assert res.certificate.primality is True
        assert res.certificate.fixed_point_free is False


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
    dec = strictness_decompose(D)
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
    from plinth.oracle import ideal_membership_bounded

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
