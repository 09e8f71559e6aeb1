from fractions import Fraction

import pytest

from plinth.derivation import Derivation, iterate
from plinth.oracle import (
    OracleCapError,
    canonical_basis,
    ideal_membership_bounded,
    kernel_and_image_basis,
    kernel_basis,
    matrix_of_power,
    poly_to_vec,
    slice_basis,
    vec_to_poly,
    verify_image_ideal,
)
from plinth.polyring import MultiPoly, PolyRing


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


def test_slice_basis_dimensions():
    assert slice_basis(PolyRing(("t",), ("X",)), 1, 1).dim == 4
    assert slice_basis(PolyRing(("a", "b"), ("X", "Y")), 1, 1).dim == 9
    assert slice_basis(PolyRing(("t",), ("X",)), 0, 0).dim == 1


def test_poly_vec_round_trip(rt):
    slc = slice_basis(rt, 2, 2)
    p = rt.poly("t^2*X1 + 1/2*X2 - 3")
    vec = poly_to_vec(slc, p)
    assert vec_to_poly(slc, vec) == p
    assert poly_to_vec(slc, rt.poly("t^3")) is None


def test_matrix_of_power_identity(rab):
    D = nice_ab(rab)
    src = slice_basis(rab, 1, 1)
    mat = matrix_of_power(D, 0, src)
    for e, col in zip(src.basis, mat.columns):
        assert col == MultiPoly(rab, {e: Fraction(1)})


def test_matrix_of_power_columns(rab):
    D = nice_ab(rab)
    src = slice_basis(rab, 0, 1)
    mat = matrix_of_power(D, 1, src)
    cols = dict(zip(src.basis, mat.columns))
    assert cols[(0, 0, 1, 0)] == rab.poly("a")
    assert cols[(0, 0, 0, 1)] == rab.poly("b")
    assert cols[(0, 0, 0, 0)].is_zero()
    for e, col in cols.items():
        assert col == iterate(D, MultiPoly(rab, {e: Fraction(1)}), 1)


def test_matrix_of_power_vanishes(rab):
    D = nice_ab(rab)
    src = slice_basis(rab, 0, 2)
    mat = matrix_of_power(D, 3, src)  # every monomial has deg_D <= 2
    assert all(col.is_zero() for col in mat.columns)


def test_kernel_basis_contains_wang_generator(rab):
    D = nice_ab(rab)
    slc = slice_basis(rab, 1, 1)
    basis = kernel_basis(D, slc)
    assert rab.poly("a*Y - b*X") in basis or rab.poly("-a*Y + b*X") in basis


def test_kernel_and_image_contains_plinth_elements(rab):
    D = nice_ab(rab)
    src = slice_basis(rab, 1, 1)
    kernel, inter = kernel_and_image_basis(D, 1, src)
    assert rab.poly("a") in inter
    assert rab.poly("b") in inter


def _span_contains(polys, target):
    from plinth.linalg import SpanSolver

    support = {}
    for p in list(polys) + [target]:
        for e in p.terms:
            support.setdefault(e, len(support))

    def vec(p):
        v = [Fraction(0)] * len(support)
        for e, c in p.terms.items():
            v[support[e]] = c
        return v

    return SpanSolver([vec(p) for p in polys]).contains(vec(target))


def test_slice_yields_one_in_every_image(rt):
    D = Derivation(rt, [rt.poly("t"), rt.poly("-t + 1")])
    for n in (1, 2, 3):
        src = slice_basis(rt, 1, n)
        _, inter = kernel_and_image_basis(D, n, src, entry_cap=200000)
        assert _span_contains(inter, rt.one())


def test_huge_power_empty_image(rab):
    D = nice_ab(rab)
    src = slice_basis(rab, 0, 2)
    _, inter = kernel_and_image_basis(D, 5, src)
    assert inter == []


def test_membership_principal(rt):
    one_minus_t = rt.poly("-t + 1")
    status, cof = ideal_membership_bounded([one_minus_t], one_minus_t**2, (2, 2))
    assert status == "yes"
    assert cof == [one_minus_t]
    status, witness = ideal_membership_bounded(
        [rt.poly("-t^2 + t")], one_minus_t**2, (2, 2)
    )
    assert status == "no"
    assert not witness.is_zero()


def test_membership_general(rab):
    gens = [rab.poly("a^2"), rab.poly("a*b")]
    status, cof = ideal_membership_bounded(gens, rab.poly("a^2*b"), (2, 2))
    assert status == "yes"
    total = sum((c * g for c, g in zip(cof, gens)), rab.zero())
    assert total == rab.poly("a^2*b")
    status, _ = ideal_membership_bounded(gens, rab.poly("b^2"), (2, 2))
    assert status == "unknown"


def test_cap_error(rab):
    D = nice_ab(rab)
    src = slice_basis(rab, 3, 3)
    with pytest.raises(OracleCapError):
        matrix_of_power(D, 2, src, entry_cap=100)


def test_verify_nice_instance(rab):
    D = nice_ab(rab)
    rep = verify_image_ideal(D, 1, [rab.poly("a"), rab.poly("b")], 2, 2)
    assert rep.forward == "PASS"
    assert rep.backward == "PASS"
    assert rep.overall == "PASS"
    for item in rep.forward_items:
        assert iterate(D, item.certificate, 1) == item.element


def test_verify_catches_wrong_candidate(rt):
    D = tparam(rt)
    rep = verify_image_ideal(D, 1, [rt.poly("-t^2 + t")], 3, 2)
    assert rep.overall == "FAIL"
    assert any(i.status == "FAIL" for i in rep.backward_items)


def test_verify_rejects_non_kernel_generator(rab):
    D = nice_ab(rab)
    rep = verify_image_ideal(D, 1, [rab.poly("X")], 2, 2)
    assert any(
        i.status == "FAIL" and "Ker" in i.detail for i in rep.forward_items
    )
    assert rep.overall == "FAIL"


def test_monotone_in_bounds(rt):
    from plinth.linalg import SpanSolver

    D = tparam(rt)
    small = kernel_and_image_basis(D, 1, slice_basis(rt, 1, 1))[1]
    big = kernel_and_image_basis(D, 1, slice_basis(rt, 2, 2), entry_cap=100000)[1]
    support = {}
    for p in small + big:
        for e in p.terms:
            support.setdefault(e, len(support))

    def vec(p):
        v = [Fraction(0)] * len(support)
        for e, c in p.terms.items():
            v[support[e]] = c
        return v

    solver = SpanSolver([vec(p) for p in big])
    for p in small:
        assert solver.contains(vec(p))


def test_verify_builds_power_matrix_once(rab, rt, monkeypatch):
    from plinth import oracle

    calls = []
    real = oracle.matrix_of_power

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "matrix_of_power", counting)
    cases = [
        (nice_ab(rab), 1, [rab.poly("a"), rab.poly("b")]),
        (nice_ab(rab), 2, [rab.poly("a^2"), rab.poly("a*b"), rab.poly("b^2")]),
        (tparam(rt), 1, [rt.poly("-t + 1")]),
    ]
    for D, j, gens in cases:
        calls.clear()
        verify_image_ideal(D, j, gens, 2, 2)
        assert calls == [j]


def test_canonical_basis_depends_only_on_span(rt):
    import random

    rng = random.Random(5)
    gens = [rt.poly("t*X1 - X2 + 1/2"), rt.poly("t^2 - 3*X1*X2"),
            rt.poly("X2^2 + t"), rt.poly("1/3*t*X1 - X2 + 1/2")]
    expected = canonical_basis(gens)
    assert len(expected) == 4
    assert canonical_basis(expected) == expected
    for _ in range(20):
        mixed = []
        for _ in range(6):
            p = rt.zero()
            for g in gens:
                p = p + g * Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            mixed.append(p)
        mixed += [g * Fraction(rng.choice([-5, -1, 2, 7]), rng.randint(1, 9)) for g in gens]
        rng.shuffle(mixed)
        assert canonical_basis(mixed) == expected
    # each element is normalized and leads with a monomial no other element has
    leads = [p.leading()[0] for p in expected]
    assert leads == sorted(leads, key=lambda e: (sum(e), e))
    for p in expected:
        assert p.leading()[1] > 0
        assert all(e not in p.terms for e in leads if e != p.leading()[0])
