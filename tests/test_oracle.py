import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from plinth.derivation import Derivation, apply, iterate
from plinth import oracle
from plinth.cli import FIXTURES, parse_problem
from plinth.oracle import (
    OracleCapError,
    _Combinations,
    kernel_and_image_basis,
    matrix_of_power,
    slice_basis,
    verify_image_ideal,
)
from plinth.polyring import (
    DEGREE_LIMIT,
    CertificateError,
    ExactDivisionError,
    MultiPoly,
    PlinthError,
    PolyRing,
    divide_exact,
    normalize_unit,
)

from test_properties import FractionSpanSolver, as_poly


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


def column_polys(mat):
    """The columns of mat as the polynomials D^n(monomial) they stand for."""
    return [as_poly(mat.source.ring, col, mat.iden ** mat.power) for col in mat.columns()]


def test_matrix_of_power_identity(rab):
    D = nice_ab(rab)
    src = slice_basis(rab, 1, 1)
    mat = matrix_of_power(D, 0, src)
    for e, col in zip(src.basis, column_polys(mat)):
        assert col == MultiPoly(rab, {rab.decode(e): Fraction(1)})


def test_matrix_of_power_columns(rab):
    D = Derivation(rab, [rab.poly("a/2"), rab.poly("b/3")])  # images with denominators
    src = slice_basis(rab, 0, 1)
    mat = matrix_of_power(D, 1, src)
    cols = dict(zip(map(rab.decode, src.basis), column_polys(mat)))
    assert cols[(0, 0, 1, 0)] == rab.poly("a/2")
    assert cols[(0, 0, 0, 1)] == rab.poly("b/3")
    assert cols[(0, 0, 0, 0)].is_zero()
    for e, col in cols.items():
        assert col == iterate(D, MultiPoly(rab, {e: Fraction(1)}), 1)
    # D is applied once per main-variable monomial and shifted by the
    # parameter part: every column, the chain's and kernel()'s images, over
    # rings of 0, 1 and 2 parameters, at every power up to 3
    for params, images in (((), ("1/2", "X/3 + 1")), (("t",), ("t/2", "(t^2 - 1)*X/3 + t")),
                           (("a", "b"), ("a/2 + b", "b/3 + a*b*X"))):
        ring = PolyRing(params, ("X", "Y"))
        D = Derivation(ring, [ring.poly(p) for p in images])
        src = slice_basis(ring, 2, 2)
        for n in range(4):
            mat = matrix_of_power(D, n, src, entry_cap=None)
            powers = [iterate(D, m, n) for m in src.monomials]
            assert column_polys(mat) == powers, (params, n)
            assert [as_poly(ring, col, mat.iden) for col in mat.columns(1)] \
                == [apply(D, m) for m in src.monomials]
            live = [m for m, p in zip(src.monomials, powers) if not p.is_zero()]
            assert [m for _, m in mat.chain.unknowns] == live
            for m, (high, low) in zip(live, mat.chain.columns):
                assert as_poly(ring, high, mat.chain.den) == iterate(D, m, n + 1)
                assert as_poly(ring, low, mat.chain.den) == iterate(D, m, n)
            kernel = [as_poly(ring, k, 1) for k in mat.kernel()]
            assert canonical_basis(kernel) == canonical_basis(kernel_basis(D, src, None))


def test_a_shifted_column_past_the_degree_limit_is_refused():
    # D X = a^(DEGREE_LIMIT - 1) is below the limit, but the column of a*X,
    # that image shifted by a, reaches it: refused as apply refuses a*X
    ring = PolyRing(("a",), ("X", "Y"))
    D = Derivation(ring, [MultiPoly(ring, {(DEGREE_LIMIT - 1, 0, 0): Fraction(1)}),
                          ring.zero()])
    src = slice_basis(ring, 0, 1)
    mat = matrix_of_power(D, 1, src, entry_cap=None)
    assert column_polys(mat) == [apply(D, m) for m in src.monomials]
    with pytest.raises(PlinthError) as applied:
        apply(D, ring.poly("a*X"))
    with pytest.raises(PlinthError) as shifted:
        matrix_of_power(D, 1, slice_basis(ring, 1, 1), entry_cap=None)
    assert str(shifted.value) == str(applied.value)


def test_matrix_of_power_vanishes(rab):
    D = nice_ab(rab)
    src = slice_basis(rab, 0, 2)
    mat = matrix_of_power(D, 3, src)  # every monomial has deg_D <= 2
    assert not any(mat.columns())


def kernel_basis(D, slc, entry_cap=oracle.DEFAULT_ENTRY_CAP):
    """Reference for LinearMapMatrix.kernel: Ker(D) within the slice by its
    own elimination of the D(m) over every monomial m of the slice, as
    normalized polynomials."""
    oracle._refuse_kernel(D, slc, entry_cap)
    system = _Combinations.of_polynomials([(0, m) for m in slc.monomials],
                                          [apply(D, m) for m in slc.monomials])
    return [normalize_unit(k) for k, in system.relations()]


def test_kernel_basis_contains_wang_generator(rab):
    D = nice_ab(rab)
    slc = slice_basis(rab, 1, 1)
    basis = kernel_basis(D, slc)
    assert rab.poly("a*Y - b*X") in basis or rab.poly("-a*Y + b*X") in basis


def test_images_sum_the_terms_that_meet(rt):
    # D(X1) = X1 and D(X2) = -X2 both shift by 0, so the images of X1 and
    # X2 meet: D(X1^a X2^b) = (a - b) X1^a X2^b, which vanishes for a == b;
    # the columns of D keep no zero entry, so those columns are empty
    D = Derivation(rt, [rt.poly("X1"), rt.poly("-X2")])
    slc = slice_basis(rt, 1, 2)
    mat = matrix_of_power(D, 1, slc)
    for col, m in zip(column_polys(mat), slc.monomials):
        assert col == apply(D, m)
    assert all(all(col.values()) for col in mat.columns())
    assert set(kernel_basis(D, slc)) == {rt.poly(p) for p in ("1", "t", "X1*X2", "t*X1*X2")}


def test_kernel_and_image_contains_plinth_elements(rab):
    D = nice_ab(rab)
    src = slice_basis(rab, 1, 1)
    inter = kernel_and_image_basis(D, 1, src)
    assert rab.poly("a") in inter
    assert rab.poly("b") in inter


def test_image_of_d_0_is_the_kernel():
    # D^0 is the identity, so the n = 0 basis is Ker(D) in the slice, in
    # the same canonical form
    for name in ("inice", "tparam", "wink1"):
        D = parse_problem(FIXTURES[name]).derivation()
        slc = slice_basis(D.ring, 2, 2)
        assert kernel_and_image_basis(D, 0, slc) == kernel_basis(D, slc)


def _span_contains(polys, target):
    support = {}
    for p in list(polys) + [target]:
        for e in p.terms:
            support.setdefault(e, len(support))

    def vec(p):
        v = [Fraction(0)] * len(support)
        for e, c in p.terms.items():
            v[support[e]] = c
        return v

    return FractionSpanSolver([vec(p) for p in polys]).express(vec(target)) is not None


def test_slice_yields_one_in_every_image(rt):
    D = Derivation(rt, [rt.poly("t"), rt.poly("-t + 1")])
    for n in (1, 2, 3):
        src = slice_basis(rt, 1, n)
        inter = kernel_and_image_basis(D, n, src, entry_cap=200000)
        assert _span_contains(inter, rt.one())


def test_huge_power_empty_image(rab):
    D = nice_ab(rab)
    src = slice_basis(rab, 0, 2)
    inter = kernel_and_image_basis(D, 5, src)
    assert inter == []


def test_solve_without_columns(rt):
    # D^3 kills the whole slice 1,1 of tparam, so the chain has no columns;
    # a nonzero target in any block is out of reach, the zero one is not
    D = Derivation(rt, [rt.poly("-t^2 + t"), rt.poly("-t*X1 - t + 1")])
    chain = matrix_of_power(D, 3, slice_basis(rt, 1, 1)).chain
    assert chain.columns == []
    assert chain.solve(rt.zero(), rt.poly("1 - t")) is None
    assert chain.solve(rt.poly("t"), rt.zero()) is None
    assert chain.solve(rt.zero(), rt.zero()) == []


def ideal_membership_bounded(gens, h, cofactor_bound, entry_cap=oracle.DEFAULT_ENTRY_CAP):
    """('yes', cofactors) / ('no', remainder) / ('unknown', None).

    Principal ideals get a definitive answer by exact division; otherwise a
    bounded linear solve for cofactors yields a certificate or 'unknown'.
    """
    gens = list(gens)
    if not gens:
        raise PlinthError("membership in the ideal of no generators")
    if h.is_zero():
        return "yes", [g.ring.zero() for g in gens]
    if len(gens) == 1:
        try:
            q = divide_exact(h, gens[0])
            return "yes", [q]
        except ExactDivisionError as err:
            return "no", err.remainder
    ring = h.ring
    monos = slice_basis(ring, *cofactor_bound).monomials
    unknowns = [(i, m) for i in range(len(gens)) for m in monos]
    cofactors = _Combinations.of_polynomials(unknowns, [m * gens[i] for i, m in unknowns],
                                             [h], entry_cap).solve(h)
    if cofactors is None:
        return "unknown", None
    if sum((c * g for c, g in zip(cofactors, gens)), ring.zero()) != h:
        raise CertificateError("membership cofactors of %s fail their re-check" % h)
    return "yes", cofactors


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
    # at n = 0 the D^0 matrix is the slice squared, and the kernel system,
    # whose rows lie in the slice grown once by D, is larger and checked
    # next; the chain [D(m) | m], the largest, is checked as it is built
    D, _ = _wink1()
    src = slice_basis(D.ring, 2, 2)
    assert kernel_and_image_basis(D, 0, src, entry_cap=7740)
    with pytest.raises(OracleCapError, match="solve needs 129 x 60 = 7740 entries, cap is 6000"):
        kernel_and_image_basis(D, 0, src, entry_cap=6000)
    with pytest.raises(OracleCapError, match="solve needs 100 x 60 = 6000 entries, cap is 5999"):
        kernel_and_image_basis(D, 0, src, entry_cap=5999)



def test_chain_is_held_to_the_cap(monkeypatch):
    # wink1 at j = 1, bounds 2,2: the D^1 matrix is 100 x 60 = 6000
    # entries, and the chain [D^2(m) | D(m)] eliminated after it 117 x 54
    D, gens = _wink1()
    src = slice_basis(D.ring, 2, 2)
    eliminated = []
    for name in ("SpanSolver", "Echelon"):  # tagged and tagless eliminations
        solver = getattr(oracle.linalg, name)
        monkeypatch.setattr(oracle.linalg, name,
                            lambda *args, solver=solver: eliminated.append(args) or solver(*args))
    mat = matrix_of_power(D, 1, src, entry_cap=6000)
    with pytest.raises(OracleCapError, match="solve needs 117 x 54 = 6318 entries, cap is 6000"):
        mat.chain
    for refused in (lambda: kernel_and_image_basis(D, 1, src, entry_cap=6000),
                    lambda: verify_image_ideal(D, 1, gens, 2, 2, entry_cap=6000)):
        with pytest.raises(OracleCapError, match="117 x 54 = 6318"):
            refused()
    assert eliminated == []
    assert kernel_and_image_basis(D, 1, src, entry_cap=6318)


def test_image_ideal_bases_build_no_tagged_elimination(monkeypatch):
    # kernel_and_image_basis eliminates its chain once, without the tags
    # that only solve() and relations() read, into the basis that the
    # tagged elimination of the same chain gives
    built = []
    for name in ("SpanSolver", "Echelon"):
        solver = getattr(oracle.linalg, name)
        monkeypatch.setattr(oracle.linalg, name,
                            lambda *args, name=name, solver=solver: built.append(name)
                            or solver(*args))
    for fixture in ("inice", "wink1", "pid3", "tparam"):
        D = parse_problem(FIXTURES[fixture]).derivation()
        src = slice_basis(D.ring, 2, 2)
        for n in range(4):
            built.clear()
            basis = kernel_and_image_basis(D, n, src, entry_cap=None)
            assert built == ["Echelon"]
            assert basis == matrix_of_power(D, n, src, entry_cap=None).chain.tail_basis()
            assert built == ["Echelon", "SpanSolver"]


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
    D = tparam(rt)
    small = kernel_and_image_basis(D, 1, slice_basis(rt, 1, 1))
    big = kernel_and_image_basis(D, 1, slice_basis(rt, 2, 2), entry_cap=100000)
    support = {}
    for p in small + big:
        for e in p.terms:
            support.setdefault(e, len(support))

    def vec(p):
        v = [Fraction(0)] * len(support)
        for e, c in p.terms.items():
            v[support[e]] = c
        return v

    solver = FractionSpanSolver([vec(p) for p in big])
    for p in small:
        assert solver.express(vec(p)) is not None


def test_verify_builds_power_matrix_once(rab, rt, monkeypatch):
    # one D^j matrix per verify: the chain, the preimages, the intersection
    # and the kernel all read it
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


def canonical_basis(polys):
    return _Combinations.of_polynomials([(0, p) for p in polys], polys).tail_basis()


def test_canonical_basis_depends_only_on_span(rt):
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


@pytest.mark.parametrize("name", ["inice", "wink1", "pid3", "tparam", "qnice"])
def test_kernel_matches_the_reference(name):
    # at power 1 the kernel is read from the chain's elimination; at the
    # other powers it takes one elimination of its own
    D = parse_problem(FIXTURES[name]).derivation()
    for bound in (2, 3):
        slc = slice_basis(D.ring, bound, bound)
        reference = kernel_basis(D, slc, None)
        for j in (0, 1, 2):
            kernel = [as_poly(D.ring, k, 1) for k in matrix_of_power(D, j, slc, None).kernel()]
            assert len(kernel) == len(reference)
            assert all(apply(D, k).is_zero() for k in kernel)
            assert canonical_basis(kernel) == canonical_basis(reference), (name, bound, j)


def _wink1():
    spec = parse_problem(FIXTURES["wink1"])
    return spec.derivation(), list(spec.expect)


def assert_cofactors_recombine(D, j, gens, bounds):
    report = verify_image_ideal(D, j, gens, *bounds, entry_cap=None)
    passed = [i for i in report.backward_items if i.status == "PASS"]
    assert len(passed) == len(report.backward_items) > 1
    for item in passed:
        assert len(item.certificate) == len(gens)
        total = sum((c * g for c, g in zip(item.certificate, gens)), D.ring.zero())
        assert total == item.element


def test_backward_cofactors_recombine():
    D, gens = _wink1()
    assert_cofactors_recombine(D, 1, gens, (2, 2))


@pytest.mark.parametrize("name, j, bounds", [("inice", 2, (2, 2)), ("pid3", 2, (2, 2)),
                                             ("inice", 3, (3, 3))])
def test_backward_cofactors_recombine_at_higher_powers(name, j, bounds):
    spec = parse_problem(FIXTURES[name])
    gens = spec.analysis.image_ideal(j, bounds, None).generators
    assert len(gens) == j + 1
    assert_cofactors_recombine(spec.derivation(), j, gens, bounds)


def test_backward_check_builds_one_kernel_elimination_past_j_1(rab, monkeypatch):
    # j = 1: the chain and the cofactor system; the kernel comes from the
    # chain.  j = 2: the kernel takes one elimination of its own.  The
    # generators have different denominators, which the columns share
    built = []
    real_init = oracle.linalg.SpanSolver.__init__

    def counting_init(self, vectors):
        built.append(self)
        real_init(self, vectors)

    monkeypatch.setattr(oracle.linalg.SpanSolver, "__init__", counting_init)
    D = nice_ab(rab)
    for j, gens, count in ((1, ["a/2", "b"], 2), (2, ["a^2/3", "a*b/2", "b^2"], 3)):
        built.clear()
        report = verify_image_ideal(D, j, [rab.poly(g) for g in gens], 2, 2)
        assert report.overall == "PASS"
        assert len(built) == count


def corrupt_answers(slots):
    """A _Combinations.solve that adds the first main variable to the first
    polynomial of every answer with the given number of slots: 1 for a
    forward preimage, one per predicted generator for backward cofactors."""
    solve = _Combinations.solve

    def wrong(self, *target):
        answer = solve(self, *target)
        if answer is not None and len(answer) == slots:
            ring = answer[0].ring
            answer[0] = answer[0] + ring.gen(ring.vars[0])
        return answer

    return wrong


def test_backward_cofactors_are_rechecked(monkeypatch):
    D, gens = _wink1()
    monkeypatch.setattr(_Combinations, "solve", corrupt_answers(len(gens)))
    with pytest.raises(CertificateError, match="backward cofactors"):
        verify_image_ideal(D, 1, gens, 2, 2)


def test_forward_preimages_are_rechecked(monkeypatch):
    D, gens = _wink1()
    monkeypatch.setattr(_Combinations, "solve", corrupt_answers(1))
    with pytest.raises(CertificateError, match="forward preimage"):
        verify_image_ideal(D, 1, gens, 2, 2)


RECHECK_UNDER_OPTIMIZE = """
import sys
from plinth.cli import FIXTURES, parse_problem
from plinth.oracle import _Combinations, verify_image_ideal
from plinth.polyring import CertificateError

print(sys.flags.optimize)
spec = parse_problem(FIXTURES["wink1"])
D, gens = spec.derivation(), list(spec.expect)
solve = _Combinations.solve
for slots in (1, len(gens)):
    def wrong(self, *target, slots=slots):
        answer = solve(self, *target)
        if answer is not None and len(answer) == slots:
            answer[0] = answer[0] + D.ring.gen("X")
        return answer
    _Combinations.solve = wrong
    try:
        verify_image_ideal(D, 1, gens, 2, 2)
        print("accepted")
    except CertificateError as err:
        print(err)
"""


def test_certificates_are_rechecked_under_optimize():
    # the re-checks are explicit ifs, so python -O keeps them
    src = str(Path(oracle.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", RECHECK_UNDER_OPTIMIZE],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    flag, forward, backward = proc.stdout.splitlines()
    assert flag == "1"
    assert forward.startswith("forward preimage of ") and "fails its re-check" in forward
    assert backward.startswith("backward cofactors of ") and "fail their re-check" in backward


RECHECK_BEZOUT_UNDER_OPTIMIZE = """
import sys
from plinth.cli import parse_problem, run
from plinth.oracle import _Combinations
from plinth.polyring import CertificateError

print(sys.flags.optimize)
spec = parse_problem("param a\\nparam b\\nvar X\\nvar Y\\nD X = a + 1\\nD Y = 1 + (a + 1)*b\\n")
solve_first = _Combinations.solve_first

def wrong(self, *target):
    answer = solve_first(self, *target)
    answer[0] = answer[0] + answer[0].ring.one()
    return answer

_Combinations.solve_first = wrong
try:
    print(run("image-ideal", spec, n=1).certificates[0]["theorem"])
except CertificateError as err:
    print(err)
"""


def test_bezout_certificate_is_rechecked_under_optimize():
    # a slice-bezout input: the cofactors of sum alpha_i * f_i = 1 are
    # re-checked by an explicit if, so python -O keeps the check
    src = str(Path(oracle.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", RECHECK_BEZOUT_UNDER_OPTIMIZE],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    flag, message = proc.stdout.splitlines()
    assert flag == "1"
    assert message == "Bezout cofactors of a + 1, a*b + b + 1 fail their re-check"


def test_wink1_verify_at_5_5_is_fast():
    D, gens = _wink1()
    start = time.monotonic()
    report = verify_image_ideal(D, 1, gens, 5, 5, entry_cap=None)
    assert time.monotonic() - start < 1.0
    assert report.overall == "PASS"


def test_combinations_against_sympy(seed):
    """relations() and solve() against ranks from sympy, on random columns
    with mixed denominators, zero and dependent columns and 1 to 3 slots.
    Each unknown is a distinct (slot, monomial), so its coefficient x_i
    can be read back from the answer and the image sum x_i * columns[i]
    recomputed."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    ring = PolyRing(("t",), ("X", "Y"))
    monos = [ring.decode(e) for e in slice_basis(ring, 1, 2).basis]

    def rand_poly():
        return MultiPoly(ring, {rng.choice(monos): Fraction(rng.randint(-4, 4),
                                                              rng.randint(1, 6))
                                for _ in range(rng.randint(1, 4))})

    def rank(polys):
        support = sorted({e for p in polys for e in p.terms})
        return sympy.Matrix(len(support), len(polys), lambda r, c: sympy.Rational(
            str(polys[c].terms.get(support[r], 0)))).rank() if support else 0

    def image(answer, unknowns, columns):
        out = ring.zero()
        for (slot, m), col in zip(unknowns, columns):
            out = out + col * answer[slot].terms.get(m.leading()[0], 0)
        return out

    for _ in range(40):
        nslots = rng.randint(1, 3)
        columns = []
        for _ in range(rng.randint(1, 7)):
            kind = rng.random()
            if kind < 0.15:
                columns.append(ring.zero())
            elif kind < 0.35 and columns:
                columns.append(sum((c * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                    for c in columns), ring.zero()))
            else:
                columns.append(rand_poly())
        pairs = rng.sample([(s, e) for s in range(nslots) for e in monos], len(columns))
        unknowns = [(s, MultiPoly(ring, {e: 1})) for s, e in pairs]
        system = _Combinations.of_polynomials(unknowns, columns)
        rels = system.relations()
        assert len(rels) == len(columns) - rank(columns)
        for rel in rels:
            assert len(rel) == 1 + max(s for s, _ in pairs)
            assert any(not p.is_zero() for p in rel)
            assert image(rel, unknowns, columns).is_zero()
        combo = sum((c * rng.randint(-2, 2) for c in columns), ring.zero())
        answer = system.solve(combo)
        assert answer is not None and image(answer, unknowns, columns) == combo
        other = rand_poly()
        inside = rank(columns + [other]) == rank(columns)
        answer = system.solve(other)
        assert (answer is not None) == inside
        if inside:
            assert image(answer, unknowns, columns) == other
        assert system.solve(ring.poly("X^5")) is None


@pytest.mark.parametrize("short", [(1, 0), (0, 1)], ids=["param", "var"])
def test_growth_guard_raises_on_an_under_reported_bound(monkeypatch, short):
    # D X1 = t grows the parameter degree by 1, D X2 = X1^2 the variable
    # degree by 1: a target slice one short in either misses a column key
    ring = PolyRing(("t",), ("X1", "X2"))
    D = Derivation(ring, [ring.poly("t"), ring.poly("X1^2")])
    src = slice_basis(ring, 1, 1)
    assert oracle.growth_per_application(D) == (1, 1)
    matrix_of_power(D, 2, src)
    real = oracle.growth_per_application
    monkeypatch.setattr(oracle, "growth_per_application",
                        lambda D: tuple(g - s for g, s in zip(real(D), short)))
    with pytest.raises(PlinthError, match="degree growth bound violated"):
        matrix_of_power(D, 1, src)


def test_slices_are_shared_and_immutable(rt):
    slc = slice_basis(rt, 2, 1)
    assert slice_basis(PolyRing(("t",), ("X1", "X2")), 2, 1) is slc
    assert slice_basis(rt, 1, 2) is not slc
    assert isinstance(slc.basis, tuple) and isinstance(slc.monomials, tuple)
    assert len(slc.monomials) == slc.dim == 9
