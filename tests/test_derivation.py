from fractions import Fraction

import pytest

from plinth import linalg
from plinth.derivation import (
    DEFAULT_BEZOUT_BOUND,
    OVERFLOW,
    Derivation,
    PlinthError,
    _bounded_bezout,
    apply,
    classify,
    iterate,
    localized_fpf,
    nice_fixed_point_free,
)
from plinth.imageideals import Analysis
from plinth.oracle import _Combinations, slice_basis
from plinth.polyring import MultiPoly, PolyRing
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
    assert Analysis(D, None).fixed_point_free is True
    D2 = Derivation(rt, [rt.poly("t"), rt.poly("t - t^2")])
    assert Analysis(D2, None).fixed_point_free is False


def test_fpf_nice_two_parameters(rab):
    # common zero at the origin of the parameter space
    D = nice_ab(rab)
    assert Analysis(D, None).fixed_point_free is False
    D = Derivation(rab, [rab.poly("a"), rab.poly("1 - a")])
    assert Analysis(D, None).fixed_point_free is True


def test_nice_fixed_point_free_returns_the_cofactors(rt, rab):
    # the cofactors, as extended_euclid gives them over Q and Q[t]: the last
    # nonzero image inverted when both are units
    rq = PolyRing((), ("X", "Y"))
    for ring, pair, cofactors in [
        (rq, ("2", "-3"), ("0", "-1/3")),
        (rq, ("2", "0"), ("1/2", "0")),
        (rt, ("0", "2"), ("0", "1/2")),
        (rt, ("t^2 + 1", "t"), ("1", "-t")),
        (rab, ("1 + a", "a"), ("1", "-1")),
    ]:
        images = tuple(map(ring.poly, pair))
        assert nice_fixed_point_free(images) == tuple(map(ring.poly, cofactors))
    assert nice_fixed_point_free((rt.poly("t"), rt.poly("t - t^2"))) is False
    assert nice_fixed_point_free((rab.poly("a"), rab.poly("b"))) is False
    assert nice_fixed_point_free((rab.poly("a"), rab.poly("1 + b"))) is None


def test_fpf_quasi_requires_factorization(rt):
    D = tparam(rt)
    with pytest.raises(PlinthError):
        Analysis(D, None).fixed_point_free
    factored = [(rt.poly("t"), 1), (rt.poly("-t + 1"), 1)]
    assert Analysis(D, factored).fixed_point_free is False


def test_fpf_quasi_rejects_bad_factorization(rt):
    D = tparam(rt)
    with pytest.raises(PlinthError):
        Analysis(D, [(rt.poly("t"), 2)]).fixed_point_free
    with pytest.raises(PlinthError):
        Analysis(D, [(rt.poly("t^2 - 1"), 1)]).fixed_point_free


def test_localized_fpf(rt):
    D = tparam(rt)
    assert localized_fpf(D, classify(D), rt.poly("t")) is True
    assert localized_fpf(D, classify(D), rt.poly("-t + 1")) is False
    with pytest.raises(PlinthError):
        localized_fpf(D, classify(D), rt.poly("t - 2"))  # does not divide DX_1


def test_fpf_unsupported(rab):
    # no formula branch, so undetermined, with the branch's reason
    ring = PolyRing(("a", "b"), ("X", "Y", "Z"))
    D = Derivation(ring, [ring.poly("a"), ring.poly("b"), ring.poly("b*X - a*Y")])
    an = Analysis(D, None)
    assert an.fixed_point_free is None
    assert an.branch[1] == "no formula branch for 3 variables over 2 parameters"


def _random_ab(rng, ring, degree):
    """A random nonzero polynomial of total degree <= degree in a, b."""
    while True:
        p = MultiPoly(ring, {(i, j, 0, 0): Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                             for i in range(degree + 1) for j in range(degree + 1 - i)})
        if not p.is_zero():
            return p


def bezout_pairs(rng, ring, count=4):
    """Seeded pairs over Q[a, b] with a certificate, (f, 1 + f*g) in either
    order, then pairs of degree 2 and 4 with a common zero at (1, 1)."""
    certified, common_zero = [], []
    for k in range(count):
        f = _random_ab(rng, ring, 2)
        pair = [f, ring.one() + f * _random_ab(rng, ring, 2)]
        certified.append(pair[::-1] if k % 2 else pair)
        common_zero.append([p - ring.const(sum(p.terms.values()))  # p(1, 1) = 0
                            for p in (_random_ab(rng, ring, 2), _random_ab(rng, ring, 4))])
    return certified, common_zero


def solve_first_in_grlex(system, target):
    """Reference for _Combinations.solve_first: the same search with every
    column built up front and coordinates numbered by the system, in
    descending grlex order, instead of on first sight."""
    coords, scale = system._coordinates((target,))
    solver = linalg.SpanSolver([coords])
    for col in system.columns:
        relation = solver.add(system._vector(col))
        if relation and 0 in relation:
            return system._answer({i - 1: -x for i, x in relation.items() if i},
                                  scale * relation[0])
    return None


def test_bounded_bezout_agrees_with_the_full_solve(rng, rab):
    # the one-pass search answers as one solve of the whole degree-6 system,
    # and with the cofactors a search numbering coordinates in grlex finds
    monos = slice_basis(rab, DEFAULT_BEZOUT_BOUND, 0).monomials
    certified, common_zero = bezout_pairs(rng, rab)
    for images, expected in [(p, True) for p in certified] + [(p, None) for p in common_zero]:
        unknowns = [(i, m) for i in range(len(images)) for m in monos]
        full = _Combinations.of_polynomials(unknowns, [m * images[i] for i, m in unknowns],
                                            targets=[rab.one()])
        assert (None if full.solve(rab.one()) is None else True) == expected
        alphas = _bounded_bezout(images)
        assert alphas == solve_first_in_grlex(full, rab.one()), images
        if expected is None:
            assert alphas is None, images
        else:
            assert alphas[0] * images[0] + alphas[1] * images[1] == rab.one(), images


def test_bezout_search_inserts_each_column_once(rng, rab, monkeypatch):
    # without a certificate: one solver, the target and then every column
    # m * f_i once; with one, the search stops before the last column, and
    # it builds only the columns it inserts: one product m * f_i each
    built, added, products = [], [], []
    real_init, real_add = linalg.SpanSolver.__init__, linalg.SpanSolver.add
    real_mul = MultiPoly.__mul__

    def counting_init(self, vectors):
        built.append(self)
        real_init(self, vectors)

    def counting_add(self, v):
        added.append(frozenset(v.items()))
        return real_add(self, v)

    def counting_mul(self, other):
        products.append(other)
        return real_mul(self, other)

    monkeypatch.setattr(linalg.SpanSolver, "__init__", counting_init)
    monkeypatch.setattr(linalg.SpanSolver, "add", counting_add)
    columns = 2 * len(slice_basis(rab, DEFAULT_BEZOUT_BOUND, 0).basis)
    certified, common_zero = bezout_pairs(rng, rab, count=2)
    for images, certify in [(p, False) for p in common_zero] + [(p, True) for p in certified]:
        built.clear()
        added.clear()
        products.clear()
        with monkeypatch.context() as patch:
            patch.setattr(MultiPoly, "__mul__", counting_mul)
            alphas = _bounded_bezout(images)
        assert len(built) == 1
        assert len(products) == len(added) - 1
        if certify:
            assert alphas[0] * images[0] + alphas[1] * images[1] == rab.one()
            assert len(added) < 1 + columns
        else:
            assert alphas is None
            assert len(added) == len(set(added)) == 1 + columns
