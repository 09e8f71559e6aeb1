"""Degree-bounded exact linear algebra used as ground truth.

A DegreeSlice is the finite-dimensional window of B spanned by all
monomials within a parameter-degree and a variable-degree bound.  Powers
of a derivation map slices to slices.  In one oracle call D acts on
monomials as integer columns over one denominator, each D(X^e) computed
once, and D^j of the slice is composed from them.  Stacking [D^(j+1) | D^j]
for the monomials of the slice gives one elimination that answers both the
forward preimages and Ker(D) within D^j(slice).  The backward check of
several generators writes each cofactor over a basis of Ker(D) within the
slice, which at j = 1 is read from that same elimination.  Every question
is one sparse exact system; polynomials appear only at its boundary.
Every positive answer carries a certificate (preimage or cofactors) that
is re-verified by direct polynomial arithmetic; bounded failures are
reported as INCONCLUSIVE, never upgraded.
"""

from functools import cached_property
from math import comb, lcm

from . import linalg
from .derivation import _columns, apply, iterate
from .polyring import (
    FIELD_MASK,
    CertificateError,
    ExactDivisionError,
    MultiPoly,
    PlinthError,
    divide_exact,
)

DEFAULT_ENTRY_CAP = 20000


class OracleCapError(PlinthError):
    """A solve would exceed the configured matrix-entry cap."""


class DegreeSlice:
    """All monomials within a parameter-degree and a variable-degree bound.
    The dimension comes from the bounds alone, so caps are checked before
    the basis is enumerated."""

    def __init__(self, ring, param_bound, var_bound):
        self.ring, self.param_bound, self.var_bound = ring, param_bound, var_bound

    @property
    def dim(self):
        k, n = self.ring.nparams, self.ring.nvars
        return comb(k + self.param_bound, k) * comb(n + self.var_bound, n)

    @cached_property
    def basis(self):
        """The monomial keys in ascending graded-lex order."""
        pmonos = _bounded_tuples(self.ring.nparams, self.param_bound)
        vmonos = _bounded_tuples(self.ring.nvars, self.var_bound)
        return tuple(sorted(self.ring.encode(p + v) for p in pmonos for v in vmonos))

    @cached_property
    def monomials(self):
        """The basis monomials as polynomials."""
        return [MultiPoly._of(self.ring, {e: 1}) for e in self.basis]

    def __contains__(self, key):
        p, v = self.ring.degrees(key)
        return p <= self.param_bound and v <= self.var_bound


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


class _Images:
    """D on monomials: D(X^e) as integer numerators {key: int} over iden,
    the common denominator of derivation._columns(D).  Each is computed
    once, for the life of this object, which is one oracle call; the
    columns it returns are shared and never written."""

    def __init__(self, D):
        self.iden, columns = _columns(D)
        self.check_degree = D.ring.check_degree
        # X^e contributes e_pos * c at key e + d for each term (d, c) of a
        # column; a delta found in several columns sums their terms
        deltas = {}
        for shift, img in columns:
            for d, c in img:
                deltas.setdefault(d, []).append((shift, c))
        self.deltas = list(deltas.items())
        self.memo = {}

    def __call__(self, e):
        col = self.memo.get(e)
        if col is None:
            col = self.memo[e] = {}
            for d, parts in self.deltas:
                v = 0
                for shift, c in parts:
                    k = e >> shift & FIELD_MASK
                    if k:
                        v += k * c
                if v:
                    col[e + d] = v
            if col:
                self.check_degree(max(col))
        return col

    def apply(self, col):
        """D of an integer column, over one more factor iden."""
        acc = {}
        get = acc.get
        for f, c in col.items():
            for g, d in self(f).items():
                acc[g] = get(g, 0) + c * d
        return {g: v for g, v in acc.items() if v}

    def power(self, e, n):
        """D^n(X^e) as integer numerators over iden ** n."""
        if n == 0:
            return {e: 1}
        col = self(e)
        for _ in range(n - 1):
            col = self.apply(col)
        return col


def _check_cap(nrows, ncols, cap):
    """The cap counts the entries of the dense matrix a solve stands for."""
    if cap is None:
        return
    if cap < 0:
        raise PlinthError("entry cap must be a natural, not %d" % cap)
    if nrows * ncols > cap:
        raise OracleCapError(
            "solve needs %d x %d = %d entries, cap is %d"
            % (nrows, ncols, nrows * ncols, cap)
        )


class _Combinations:
    """Rational combinations of columns.

    Unknown i is a (slot, polynomial) pair standing for x_i times that
    polynomial in the answer of its slot, and columns[i] is its image: a
    tuple of blocks of integer numerators {key: int}, every column over the
    one denominator den.  relations() gives the x with
    sum(x_i * columns[i]) == 0 and solve(*target) an x with
    sum(x_i * columns[i]) == target, each as one polynomial per slot
    (solve_first(target, columns) one from the fewest leading columns given);
    tail_basis() spans the vectors of the column span whose blocks before
    the last vanish.  Coordinates number the monomials of each block in
    descending grlex order, block after block.  The cap counts coordinates x
    columns entries and is checked before anything is eliminated; targets
    given up front only widen that count, and solve() takes any target.
    """

    def __init__(self, unknowns, columns=(), den=1, targets=(), entry_cap=None):
        self.unknowns = unknowns
        self.nslots = 1 + max((slot for slot, _ in unknowns), default=-1)
        self.columns = columns
        self.den = den
        monos = [set().union(*blocks) for blocks in zip(*columns, *targets)] or [()]
        self.numbering = []
        width = 0
        for found in monos:
            ordered = sorted(found, reverse=True)
            self.numbering.append({e: width + k for k, e in enumerate(ordered)})
            width += len(ordered)
        self.width = width
        _check_cap(width, len(columns), entry_cap)

    @classmethod
    def of_polynomials(cls, unknowns, columns, targets=(), entry_cap=None):
        """The system whose columns are polynomials, in one block."""
        den = lcm(*(p.den for p in columns))
        return cls(unknowns,
                   [({e: c * (den // p.den) for e, c in p.nums.items()},) for p in columns],
                   den, [(t.nums,) for t in targets], entry_cap)

    def _vector(self, col):
        return {number[e]: v for number, block in zip(self.numbering, col)
                for e, v in block.items()}

    def _answer(self, x, scale=1):
        """sum_i x_i * unknowns[i] / scale per slot, in integers over one
        denominator."""
        parts = [(self.unknowns[i], c) for i, c in x.items()]
        den = lcm(*(c.denominator * p.den for (_, p), c in parts))
        nums = [{} for _ in range(self.nslots)]
        for (slot, p), c in parts:
            k = c.numerator * (den // (c.denominator * p.den))
            acc = nums[slot]
            get = acc.get
            for e, v in p.nums.items():
                acc[e] = get(e, 0) + k * v
        return [MultiPoly._of(self.unknowns[0][1].ring, t, den * scale) for t in nums]

    def relations(self):
        """A basis of the relations, one per column that depends on earlier
        ones, in column order (linalg.SpanSolver.relations)."""
        return [self._answer(x) for x in self._solver.relations]

    @cached_property
    def _solver(self):
        return linalg.SpanSolver([self._vector(col) for col in self.columns])

    def _coordinates(self, target):
        """(coords, scale): scale * target, one polynomial per block, in the
        coordinates of the columns (which are over den), scale the common
        denominator of its blocks; None if a monomial of target is in no
        column.  A block past the numbering (a system without columns
        numbers one) has no monomial."""
        scale = lcm(*(p.den for p in target))
        coords = {}
        for number, p in zip(self.numbering + [{}] * len(target), target):
            k = self.den * (scale // p.den)
            for e, c in p.nums.items():
                if e not in number:
                    return None
                coords[number[e]] = c * k
        return coords, scale

    def solve(self, *target):
        """The answer for one solution, or None if target, one polynomial
        per block, is out of reach.  It is solved for scale * target in
        integers, scale the common denominator of its blocks."""
        found = self._coordinates(target)
        if found is None:
            return None
        coords, scale = found
        x = self._solver.express(coords)
        return None if x is None else self._answer(x, scale)

    def solve_first(self, target, columns):
        """solve(target), a nonzero polynomial, from the fewest leading
        columns that reach it: columns yields one polynomial per unknown,
        over a divisor of den, and is drawn only until one elimination of
        target and the columns drawn, coordinates numbered on first sight,
        meets a relation that involves target.  That relation is unique
        (linalg.SpanSolver), so no numbering changes it.  None if all of
        them fall short."""
        number = {}

        def vector(p, k):
            return {number.setdefault(e, len(number)): c * k for e, c in p.nums.items()}

        solver = linalg.SpanSolver([vector(target, self.den)])
        for col in columns:
            relation = solver.add(vector(col, self.den // col.den))
            if relation and 0 in relation:
                # relation[0] * target + sum relation[i] * columns[i - 1] == 0,
                # relation[0] > 0 as the first entry
                return self._answer({i - 1: -x for i, x in relation.items() if i},
                                    target.den * relation[0])
        return None

    def tail_basis(self):
        """The last-block parts of the vectors of the column span whose other
        blocks vanish, in one canonical form: the reduced echelon basis,
        monomials in descending grlex order, each element integer-primitive
        with a positive leading coefficient, sorted by ascending leading
        monomial, so it depends only on that subspace.  It comes from the
        elimination solve() uses."""
        monos = list(self.numbering[-1])
        start = self.width - len(monos)
        return [MultiPoly._of(self.unknowns[0][1].ring,
                              {monos[k - start]: v for k, v in row.items()})
                for row in self._solver.basis_from(start)]


class LinearMapMatrix:
    """D^power from the source slice into the target slice.  columns[i] is
    D^power of the i-th source monomial, integer numerators over
    images.iden ** power; images is the D of the call that built it."""

    def __init__(self, source, target, power, columns, images):
        self.source, self.target, self.power = source, target, power
        self.columns, self.images = columns, images

    @cached_property
    def chain(self):
        """The nonzero columns v stacked under their images, [D(v) | v] over
        one denominator, as one system: a preimage of g in Ker(D) answers
        solve(0, g), and tail_basis() is Ker(D) within the span of the v."""
        iden = self.images.iden
        pairs = [(m, col) for m, col in zip(self.source.monomials, self.columns) if col]
        return _Combinations(
            [(0, m) for m, _ in pairs],
            [(self.images.apply(col), {e: c * iden for e, c in col.items()})
             for _, col in pairs],
            iden ** (self.power + 1))

    def kernel(self):
        """A basis of Ker(D) within the source slice, as integer numerators
        {key: int}: the monomials D kills, then sum x_k * m_k for each
        relation x among the nonzero D(m_k).  At power 1 those D(m_k) are
        the columns, so the relations are the chain's, already eliminated;
        at any other power one more system of those D(m_k) finds them."""
        images, basis = self.images, self.source.basis
        live = [k for k, e in enumerate(basis) if images(e)]
        system = self.chain if self.power == 1 else _Combinations(
            [(0, self.source.monomials[k]) for k in live], [(images(basis[k]),) for k in live])
        return ([{e: 1} for e in basis if not images(e)]
                + [{basis[live[k]]: x for k, x in rel.items()}
                   for rel in system._solver.relations])


def _grown(D, source, n):
    """The slice that holds D^n of the source slice."""
    pg, vg = growth_per_application(D)
    return slice_basis(source.ring, source.param_bound + n * pg, source.var_bound + n * vg)


def matrix_of_power(D, n, source, entry_cap=DEFAULT_ENTRY_CAP):
    """Exact matrix of D^n from the source slice into an auto-enlarged
    target."""
    if n < 0:
        raise PlinthError("power must be a natural")
    target = _grown(D, source, n)
    _check_cap(target.dim, source.dim, entry_cap)
    images = _Images(D)
    columns = [images.power(e, n) for e in source.basis]
    if any(t not in target for col in columns for t in col):
        raise PlinthError("degree growth bound violated (internal)")
    return LinearMapMatrix(source, target, n, columns, images)


def _refuse_kernel(D, slc, entry_cap):
    """The cap check of the system of Ker(D) within slc, whose rows lie in
    slc grown once by D.  For a power n >= 1 that slice is within the
    target of D^n, so this refuses only what the D^n matrix refused first;
    at n = 0 it is the one check of that system."""
    _check_cap(_grown(D, slc, 1).dim, slc.dim, entry_cap)


def kernel_and_image_basis(D, n, source, entry_cap=DEFAULT_ENTRY_CAP, matrix=None):
    """The canonical basis (_Combinations.tail_basis) of Ker(D) within the
    span of D^n(source slice): a lower approximation of I_n, monotone
    nondecreasing in the slice bounds.  matrix, if given, is
    matrix_of_power(D, n, source), already built by the caller.
    """
    if matrix is None:
        matrix = matrix_of_power(D, n, source, entry_cap)
        _refuse_kernel(D, source, entry_cap)
    return matrix.chain.tail_basis()


class DirectionItem:
    def __init__(self, element, status, detail="", certificate=None):
        self.element = element
        self.status = status  # PASS / FAIL / INCONCLUSIVE
        self.detail, self.certificate = detail, certificate


class VerifyReport:
    def __init__(self, n, forward_items, backward_items, notes=None):
        self.n, self.forward_items, self.backward_items = n, forward_items, backward_items
        self.notes = [] if notes is None else notes

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
    for g in predicted:
        if not apply(D, g).is_zero():
            forward_items.append(
                DirectionItem(g, "FAIL", "predicted generator is not in Ker(D)")
            )
            continue
        if not any(mat.columns) or any(e not in mat.target for e in g.nums):
            forward_items.append(
                DirectionItem(g, "INCONCLUSIVE", "generator outside the slice window")
            )
            continue
        # a preimage v of g has D^j(v) == g and, since D(g) == 0, D^(j+1)(v) == 0
        answer = mat.chain.solve(ring.zero(), g)
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

    intersection = kernel_and_image_basis(D, j, source, entry_cap, matrix=mat)
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
        _refuse_kernel(D, source, entry_cap)
        kernel = [MultiPoly._of(ring, kappa) for kappa in mat.kernel()]
        unknowns = [(i, kappa) for i in range(len(predicted)) for kappa in kernel]
        cofactors = _Combinations.of_polynomials(
            unknowns, [predicted[i] * kappa for i, kappa in unknowns], intersection, entry_cap)
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
