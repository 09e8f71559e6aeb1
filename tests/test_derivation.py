import pytest

from plinth.derivation import (
    OVERFLOW,
    Derivation,
    PlinthError,
    UnsupportedStructureError,
    apply,
    classify,
    is_fixed_point_free,
    iterate,
    localized_fpf,
)
from plinth.polyring import PolyRing
from test_properties import deg_d


@pytest.fixture
def rab():
    return PolyRing(("a", "b"), ("X", "Y"))


@pytest.fixture
def rt():
    return PolyRing(("t",), ("X1", "X2"))


def nice_ab(rab):
    return Derivation(rab, [rab.poly("a"), rab.poly("b")])


def tparam(rt):
    return Derivation(rt, [rt.poly("-t^2 + t"), rt.poly("-t*X1 - t + 1")])


def test_derivation_validation(rab):
    with pytest.raises(PlinthError):
        Derivation(rab, [rab.poly("a")])
    with pytest.raises(PlinthError):
        Derivation(rab, [rab.zero(), rab.zero()])


def test_apply_kills_parameters(rab):
    D = nice_ab(rab)
    assert apply(D, rab.poly("a^3*b")).is_zero()
    assert apply(D, rab.poly("X")) == rab.poly("a")
    assert apply(D, rab.poly("X*Y")) == rab.poly("a*Y + b*X")


def test_iterate_and_deg(rab):
    D = nice_ab(rab)
    assert iterate(D, rab.poly("X^2"), 2) == rab.poly("2*a^2")
    assert deg_d(D, rab.poly("X^2*Y")) == 3
    assert deg_d(D, rab.zero()) == float("-inf")
    assert deg_d(D, rab.poly("a")) == 0


def test_not_locally_nilpotent():
    ring = PolyRing((), ("X",))
    D = Derivation(ring, [ring.gen("X")])
    rep = classify(D)
    assert rep.lnd is False
    assert rep.degrees == (OVERFLOW,)


def test_classify_nice(rab):
    rep = classify(nice_ab(rab))
    assert rep.lnd is True
    assert rep.classification == "nice"
    assert rep.irreducible is True
    assert rep.nice_pair == (rab.poly("a"), rab.poly("-b"))
    assert rep.nice_set == frozenset({0, 1})


def test_classify_quasi(rt):
    D = tparam(rt)
    rep = classify(D)
    assert rep.classification == "quasi-nice"
    assert rep.quasi is not None
    q = rep.quasi
    assert q.b == rt.poly("-t^2 + t")
    assert q.f == rt.poly("1/2*t*X1^2 + t*X1 - X1")
    assert q.d == 2
    assert rep.strict_candidate is True


def test_classify_reducible(rt):
    D = Derivation(rt, [rt.poly("t"), rt.poly("t*X1")])
    assert classify(D).irreducible is False


def test_verify_kernel_element(rt):
    D = tparam(rt)
    q = classify(D).quasi
    kern = q.b * rt.gen("X2") + q.f
    assert apply(D, kern).is_zero()
    assert not apply(D, rt.gen("X1")).is_zero()


def test_fpf_nice_single_parameter(rt):
    # Bezout t + (1 - t) = 1
    D = Derivation(rt, [rt.poly("t"), rt.poly("-t + 1")])
    assert is_fixed_point_free(D, classify(D)) is True
    D2 = Derivation(rt, [rt.poly("t"), rt.poly("t - t^2")])
    assert is_fixed_point_free(D2, classify(D2)) is False


def test_fpf_nice_two_parameters(rab):
    # common zero at the origin of the parameter space
    D = nice_ab(rab)
    assert is_fixed_point_free(D, classify(D)) is False
    D = Derivation(rab, [rab.poly("a"), rab.poly("1 - a")])
    assert is_fixed_point_free(D, classify(D)) is True


def test_fpf_quasi_requires_factorization(rt):
    D = tparam(rt)
    with pytest.raises(PlinthError):
        is_fixed_point_free(D, classify(D))
    factored = [(rt.poly("t"), 1), (rt.poly("-t + 1"), 1)]
    assert is_fixed_point_free(D, classify(D), factored_b=factored) is False


def test_fpf_quasi_rejects_bad_factorization(rt):
    D = tparam(rt)
    with pytest.raises(PlinthError):
        is_fixed_point_free(D, classify(D), factored_b=[(rt.poly("t"), 2)])
    with pytest.raises(PlinthError):
        is_fixed_point_free(D, classify(D), factored_b=[(rt.poly("t^2 - 1"), 1)])


def test_localized_fpf(rt):
    D = tparam(rt)
    assert localized_fpf(D, classify(D), rt.poly("t")) is True
    assert localized_fpf(D, classify(D), rt.poly("-t + 1")) is False
    with pytest.raises(PlinthError):
        localized_fpf(D, classify(D), rt.poly("t - 2"))  # does not divide DX_1


def test_fpf_unsupported(rab):
    ring = PolyRing(("a", "b"), ("X", "Y", "Z"))
    D = Derivation(ring, [ring.poly("a"), ring.poly("b"), ring.poly("b*X - a*Y")])
    with pytest.raises(UnsupportedStructureError):
        is_fixed_point_free(D, classify(D))
