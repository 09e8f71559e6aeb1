"""Degree-bounded exact linear algebra used as ground truth.

A DegreeSlice is the finite-dimensional window of B spanned by all
monomials within a parameter-degree and a variable-degree bound.  Powers
of a derivation map slices to slices; kernels, image spans and bounded
ideal membership are computed by sparse exact elimination of systems built
straight from polynomial terms.  Every positive answer carries a
certificate (preimage or cofactors) that is re-verified by direct
polynomial arithmetic; bounded failures are reported as INCONCLUSIVE,
never upgraded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb

from . import linalg
from .derivation import apply, iterate
from .polyring import (
    CertificateError,
    ExactDivisionError,
    MultiPoly,
    PlinthError,
    _over,
    divide_exact,
    grlex_key,
    normalize_unit,
)

DEFAULT_ENTRY_CAP = 20000
_ONE = Fraction(1)


class OracleCapError(PlinthError):
    """A solve would exceed the configured matrix-entry cap."""


@dataclass(frozen=True)
class DegreeSlice:
    """All monomials within a parameter-degree and a variable-degree bound.
    The dimension comes from the bounds alone, so caps are checked before
    the basis is enumerated."""

    ring: object
    param_bound: int
    var_bound: int

    @property
    def dim(self):
        k, n = self.ring.nparams, self.ring.nvars
        return comb(k + self.param_bound, k) * comb(n + self.var_bound, n)

    @cached_property
    def basis(self):
        """The monomials in ascending graded-lex order."""
        pmonos = _bounded_tuples(self.ring.nparams, self.param_bound)
        vmonos = _bounded_tuples(self.ring.nvars, self.var_bound)
        return tuple(sorted((p + v for p in pmonos for v in vmonos), key=grlex_key))

    @cached_property
    def monomials(self):
        """The basis monomials as polynomials."""
        return [MultiPoly._trusted(self.ring, {e: _ONE}) for e in self.basis]

    def __contains__(self, exps):
        k = self.ring.nparams
        return sum(exps[:k]) <= self.param_bound and sum(exps[k:]) <= self.var_bound


def slice_basis(ring, param_bound, var_bound):
    """The slice within both bounds; its basis is enumerated on first use."""
    if param_bound < 0 or var_bound < 0:
        raise PlinthError("slice bounds must be naturals")
    return DegreeSlice(ring, param_bound, var_bound)


def _bounded_tuples(length, bound):
    """All tuples of naturals of the given length with sum <= bound."""
    if length == 0:
        return [()]
    return [(d,) + t for d in range(bound + 1)
            for t in _bounded_tuples(length - 1, bound - d)]


def growth_per_application(D):
    """(param-degree, var-degree) growth bound for one application of D."""
    pg = 0
    vg = 0
    for img in D.images:
        if img.is_zero():
            continue
        pg = max(pg, int(img.param_degree()))
        vg = max(vg, int(img.var_degree()) - 1)
    return pg, max(0, vg)


@dataclass
class LinearMapMatrix:
    source: DegreeSlice
    target: DegreeSlice
    power: int
    columns: list  # D^n(monomial) for each source monomial, inside the target slice


def _check_cap(nrows, ncols, cap):
    """The cap counts the entries of the dense matrix a solve stands for."""
    if cap is not None and nrows * ncols > cap:
        raise OracleCapError(
            "solve needs %d x %d = %d entries, cap is %d"
            % (nrows, ncols, nrows * ncols, cap)
        )


def matrix_of_power(D, n, source, entry_cap=DEFAULT_ENTRY_CAP):
    """Exact matrix of D^n from the source slice into an auto-enlarged target."""
    if n < 0:
        raise PlinthError("power must be a natural")
    pg, vg = growth_per_application(D)
    target = slice_basis(
        source.ring, source.param_bound + n * pg, source.var_bound + n * vg
    )
    _check_cap(target.dim, source.dim, entry_cap)
    columns = []
    for m in source.monomials:
        img = iterate(D, m, n)
        if any(t not in target for t in img.terms):
            raise PlinthError("degree growth bound violated (internal)")
        columns.append(img)
    return LinearMapMatrix(source=source, target=target, power=n, columns=columns)


# -- polynomials as sparse linear systems ---------------------------------


def poly_support(polys):
    """The monomials of polys numbered in descending grlex order: the
    column numbering of every sparse system built from polynomials."""
    monos = sorted({e for p in polys for e in p.terms}, key=grlex_key, reverse=True)
    return {e: k for k, e in enumerate(monos)}


def _coords(p, support):
    return {support[e]: c for e, c in p.terms.items()}


class _Combinations:
    """Rational combinations of polynomial columns.

    Unknown i is a (slot, polynomial) pair standing for x_i times that
    polynomial in the answer of its slot, and columns[i] is its image.
    relations() gives the x with sum(x_i * columns[i]) == 0 and solve(target)
    an x with sum(x_i * columns[i]) == target, each as one polynomial per
    slot.  Coordinates number the monomials of the columns and targets by
    poly_support; the cap counts support x columns entries and is checked
    before anything is eliminated.  Targets given up front only widen that
    count; solve() takes any target.
    """

    def __init__(self, unknowns, columns, targets=(), entry_cap=None):
        self.unknowns = unknowns
        self.columns = columns
        self.nslots = 1 + max((slot for slot, _ in unknowns), default=-1)
        self.support = poly_support(list(columns) + list(targets))
        _check_cap(len(self.support), len(columns), entry_cap)

    def _answer(self, x):
        terms = [{} for _ in range(self.nslots)]
        for c, (slot, p) in zip(x, self.unknowns):
            if c:
                acc = terms[slot]
                for e, v in p.terms.items():
                    acc[e] = acc.get(e, 0) + c * v
        return [MultiPoly._trusted(self.unknowns[0][1].ring,
                                   {e: v for e, v in t.items() if v}) for t in terms]

    def relations(self):
        """A basis of the relations, as linalg.nullspace orders it."""
        rows = [{} for _ in self.support]
        for i, p in enumerate(self.columns):
            for e, c in p.terms.items():
                rows[self.support[e]][i] = c
        return [self._answer(x) for x in linalg.nullspace(rows, len(self.columns))]

    @cached_property
    def _solver(self):
        return linalg.SpanSolver([_coords(p, self.support) for p in self.columns])

    def solve(self, target):
        """The answer for one solution, or None if target is out of reach."""
        if any(e not in self.support for e in target.terms):
            return None
        x = self._solver.express(_coords(target, self.support))
        return None if x is None else self._answer(x)


def canonical_basis(polys):
    """The reduced echelon basis of the Q-span of polys, monomials in
    descending grlex order, each element normalize_unit-ed, sorted by
    ascending leading monomial.  It depends only on the span."""
    support = poly_support(polys)
    if not support:
        return []
    monos = list(support)
    ring = polys[0].ring
    pivots = linalg.echelon([_coords(p, support) for p in polys])
    # each row is primitive and its pivot is its leading monomial, so
    # normalize_unit would only flip its sign
    return [MultiPoly._trusted(ring, _over({monos[c]: v if row[k] > 0 else -v
                                            for c, v in row.items()}, 1))
            for k, row in sorted(pivots.items(), reverse=True)]


def kernel_basis(D, slc, entry_cap=DEFAULT_ENTRY_CAP):
    """Basis of Ker(D) intersected with the slice, as normalized polynomials."""
    system = _Combinations([(0, m) for m in slc.monomials],
                           [apply(D, m) for m in slc.monomials], entry_cap=entry_cap)
    return [normalize_unit(k) for k, in system.relations()]


def kernel_and_image_basis(D, n, source, entry_cap=DEFAULT_ENTRY_CAP, matrix=None):
    """(basis of A within the source slice,
        canonical_basis of Ker(D) within the span of D^n(source slice)).

    The second space is a lower approximation of I_n, monotone
    nondecreasing in the slice bounds.  matrix, if given, is
    matrix_of_power(D, n, source), already built by the caller.
    """
    if n < 1:
        raise PlinthError("kernel_and_image_basis needs n >= 1")
    kernel = kernel_basis(D, source, entry_cap)
    mat = matrix or matrix_of_power(D, n, source, entry_cap)
    col_polys = [p for p in mat.columns if not p.is_zero()]
    if not col_polys:
        return kernel, []
    _check_cap(len(col_polys), len({e for p in col_polys for e in p.terms}), entry_cap)
    image = canonical_basis(col_polys)
    # Ker(D) within that span: relations among the D-images of its basis
    system = _Combinations([(0, b) for b in image], [apply(D, b) for b in image],
                           entry_cap=entry_cap)
    return kernel, canonical_basis([w for w, in system.relations()])


def ideal_membership_bounded(gens, h, cofactor_bound, entry_cap=DEFAULT_ENTRY_CAP):
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
    cofactors = _Combinations(unknowns, [m * gens[i] for i, m in unknowns], [h],
                              entry_cap).solve(h)
    if cofactors is None:
        return "unknown", None
    if sum((c * g for c, g in zip(cofactors, gens)), ring.zero()) != h:
        raise CertificateError("membership cofactors of %s fail their re-check" % h)
    return "yes", cofactors


@dataclass
class DirectionItem:
    element: object
    status: str  # PASS / FAIL / INCONCLUSIVE
    detail: str = ""
    certificate: object = None


@dataclass
class VerifyReport:
    n: int
    forward_items: list
    backward_items: list
    notes: list = field(default_factory=list)

    @staticmethod
    def _verdict(items):
        if any(i.status == "FAIL" for i in items):
            return "FAIL"
        if any(i.status == "INCONCLUSIVE" for i in items):
            return "INCONCLUSIVE"
        return "PASS"

    @property
    def forward(self):
        return self._verdict(self.forward_items)

    @property
    def backward(self):
        return self._verdict(self.backward_items)

    @property
    def overall(self):
        order = {"FAIL": 2, "INCONCLUSIVE": 1, "PASS": 0}
        return max((self.forward, self.backward), key=order.get)

    def to_dict(self):
        def items(lst):
            return [
                {"element": str(i.element), "status": i.status, "detail": i.detail}
                for i in lst
            ]

        return {
            "n": self.n,
            "forward": self.forward,
            "backward": self.backward,
            "overall": self.overall,
            "forward_items": items(self.forward_items),
            "backward_items": items(self.backward_items),
            "notes": list(self.notes),
        }


def verify_image_ideal(D, j, predicted_gens, param_bound, var_bound,
                       entry_cap=DEFAULT_ENTRY_CAP):
    """Two-sided bounded check that (predicted_gens)A equals I_j.

    Forward: an explicit preimage under D^j proves each predicted generator
    lies in I_j.  Backward: every oracle basis vector of the bounded I_j
    approximation must be a combination of predicted generators with
    cofactors from the bounded kernel.
    """
    predicted = list(predicted_gens)
    ring = D.ring
    source = slice_basis(ring, param_bound, var_bound)
    forward_items = []
    mat = matrix_of_power(D, j, source, entry_cap)
    nonzero = [(m, p) for m, p in zip(source.monomials, mat.columns) if not p.is_zero()]
    preimages = _Combinations([(0, m) for m, _ in nonzero], [p for _, p in nonzero])
    for g in predicted:
        if not apply(D, g).is_zero():
            forward_items.append(
                DirectionItem(g, "FAIL", "predicted generator is not in Ker(D)")
            )
            continue
        if not nonzero or any(e not in mat.target for e in g.terms):
            forward_items.append(
                DirectionItem(g, "INCONCLUSIVE", "generator outside the slice window")
            )
            continue
        answer = preimages.solve(g)
        if answer is None:
            forward_items.append(
                DirectionItem(g, "INCONCLUSIVE", "no preimage within bounds")
            )
            continue
        preimage, = answer
        if iterate(D, preimage, j) != g:
            raise CertificateError("forward preimage of %s fails its re-check" % g)
        forward_items.append(
            DirectionItem(g, "PASS", "preimage %s" % preimage, certificate=preimage)
        )

    kernel, intersection = kernel_and_image_basis(D, j, source, entry_cap, matrix=mat)
    backward_items = []
    if len(predicted) == 1:
        g = predicted[0]
        for w in intersection:
            try:
                q = divide_exact(w, g)
                backward_items.append(
                    DirectionItem(w, "PASS", "cofactor %s" % q, certificate=q)
                )
            except ExactDivisionError:
                backward_items.append(
                    DirectionItem(
                        w, "FAIL", "%s is in I_%d but not in (%s)" % (w, j, g)
                    )
                )
    elif predicted:
        # each cofactor c_i is a combination of the bounded kernel basis
        unknowns = [(i, kappa) for i in range(len(predicted)) for kappa in kernel]
        cofactors = _Combinations(unknowns, [predicted[i] * kappa for i, kappa in unknowns],
                                  intersection, entry_cap)
        for w in intersection:
            cs = cofactors.solve(w)
            if cs is None:
                backward_items.append(
                    DirectionItem(w, "INCONCLUSIVE", "no bounded cofactors found")
                )
                continue
            if sum((c * g for c, g in zip(cs, predicted)), ring.zero()) != w:
                raise CertificateError("backward cofactors of %s fail their re-check" % w)
            backward_items.append(
                DirectionItem(w, "PASS", "bounded cofactors found", certificate=cs)
            )
    else:
        for w in intersection:
            backward_items.append(
                DirectionItem(w, "INCONCLUSIVE", "no predicted generators to test")
            )
    notes = []
    if not intersection:
        notes.append("bounded I_%d approximation is zero at these bounds" % j)
    return VerifyReport(n=j, forward_items=forward_items, backward_items=backward_items,
                        notes=notes)
