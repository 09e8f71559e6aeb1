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
    divide_exact,
    grlex_key,
    normalize_unit,
)

DEFAULT_ENTRY_CAP = 20000


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
    def _positions(self):
        return {e: i for i, e in enumerate(self.basis)}

    def index(self):
        return self._positions


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


def poly_to_vec(slc, f):
    """Coefficient vector of f in the slice basis; None if f sticks out."""
    idx = slc.index()
    vec = [Fraction(0)] * slc.dim
    for e, c in f.terms.items():
        i = idx.get(e)
        if i is None:
            return None
        vec[i] = c
    return vec


def vec_to_poly(slc, vec):
    return MultiPoly(slc.ring, {e: c for e, c in zip(slc.basis, vec) if c != 0})


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
    index = target.index()
    columns = []
    for e in source.basis:
        img = iterate(D, MultiPoly(source.ring, {e: Fraction(1)}), n)
        if any(t not in index for t in img.terms):
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


def _from_coords(ring, monos, vec):
    return MultiPoly(ring, {monos[k]: Fraction(c) for k, c in vec.items() if c})


def poly_relations(polys, entry_cap=None):
    """Basis of the rational relations x with sum(x_i * polys[i]) == 0, as
    linalg.nullspace of the sparse system whose columns are the polys."""
    support = poly_support(polys)
    rows = [{} for _ in support]
    for i, p in enumerate(polys):
        for e, c in p.terms.items():
            rows[support[e]][i] = c
    _check_cap(len(rows), len(polys), entry_cap)
    return linalg.nullspace(rows, len(polys))


def poly_solve(polys, target, entry_cap=None):
    """Rationals x with sum(x_i * polys[i]) == target, or None."""
    support = poly_support(list(polys) + [target])
    _check_cap(len(support), len(polys), entry_cap)
    return linalg.solve_columns([_coords(p, support) for p in polys],
                                _coords(target, support))


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
    # the pivot of each row is its leading monomial
    return [normalize_unit(_from_coords(ring, monos, pivots[k]))
            for k in sorted(pivots, reverse=True)]


def kernel_basis(D, slc, entry_cap=DEFAULT_ENTRY_CAP):
    """Basis of Ker(D) intersected with the slice, as normalized polynomials."""
    images = [apply(D, MultiPoly(slc.ring, {e: Fraction(1)})) for e in slc.basis]
    return [normalize_unit(vec_to_poly(slc, vec))
            for vec in poly_relations(images, entry_cap)]


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
    # echelon basis of the span of D^n on the slice
    support = poly_support(col_polys)
    _check_cap(len(col_polys), len(support), entry_cap)
    image = list(linalg.echelon([_coords(p, support) for p in col_polys]).values())
    monos = list(support)
    ring = source.ring
    d_images = [apply(D, _from_coords(ring, monos, row)) for row in image]
    # Ker(D) within that span: relations among the D-images of the basis
    inside = []
    for combo in poly_relations(d_images, entry_cap):
        vec = {}
        for c, row in zip(combo, image):
            if c:
                for k, v in row.items():
                    vec[k] = vec.get(k, 0) + c * v
        inside.append(_from_coords(ring, monos, vec))
    return kernel, canonical_basis(inside)


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
    pb, vb = cofactor_bound
    cof_slice = slice_basis(ring, pb, vb)
    col_polys = []
    col_tags = []
    for gi, g in enumerate(gens):
        for e in cof_slice.basis:
            col_polys.append(MultiPoly(ring, {e: Fraction(1)}) * g)
            col_tags.append((gi, e))
    x = poly_solve(col_polys, h, entry_cap)
    if x is None:
        return "unknown", None
    terms = [{} for _ in gens]
    for coeff, (gi, e) in zip(x, col_tags):
        if coeff:
            terms[gi][e] = coeff
    cofactors = [MultiPoly(ring, t) for t in terms]
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
    nonzero = [(p, e) for p, e in zip(mat.columns, source.basis) if not p.is_zero()]
    _check_cap(mat.target.dim, max(len(nonzero), 1), entry_cap)
    window = mat.target.index()
    solver = linalg.SpanSolver([_coords(p, window) for p, _ in nonzero])
    for g in predicted:
        if not apply(D, g).is_zero():
            forward_items.append(
                DirectionItem(g, "FAIL", "predicted generator is not in Ker(D)")
            )
            continue
        if not nonzero or any(e not in window for e in g.terms):
            forward_items.append(
                DirectionItem(g, "INCONCLUSIVE", "generator outside the slice window")
            )
            continue
        coeffs = solver.express(_coords(g, window))
        if coeffs is None:
            forward_items.append(
                DirectionItem(g, "INCONCLUSIVE", "no preimage within bounds")
            )
            continue
        preimage = MultiPoly(ring, {e: c for c, (_, e) in zip(coeffs, nonzero) if c})
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
        multipliers = [g * kappa for g in predicted for kappa in kernel]
        support = poly_support(multipliers + intersection)
        _check_cap(len(support), max(len(multipliers), 1), entry_cap)
        msolver = linalg.SpanSolver([_coords(p, support) for p in multipliers])
        for w in intersection:
            if msolver.express(_coords(w, support)) is None:
                backward_items.append(
                    DirectionItem(w, "INCONCLUSIVE", "no bounded cofactors found")
                )
            else:
                backward_items.append(DirectionItem(w, "PASS", "bounded cofactors found"))
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
