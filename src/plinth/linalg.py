"""Exact linear algebra over Q by sparse fraction-free elimination.

Rows are sparse {column: int} dicts made from the nonzero entries only.
One kernel inserts rows one at a time into a semi-echelon form: a new row
is reduced in place at the pivot columns it meets, in ascending order,
made primitive and kept under its least column; no earlier row is ever
rewritten, and rows with disjoint supports are never combined, so a block
diagonal matrix is eliminated block by block.  Echelon holds that form;
its basis_from() back-reduces only the rows it returns.  SpanSolver adds
one identity tag per vector, which only relations and express() read: one
elimination of a list of vectors answers span membership with explicit
combinations and gives the relations among the vectors, and nullspace()
is the relations among a matrix's columns.  Dense ``bareiss_echelon``
(Bareiss, Math. Comp. 22, 1968) is the reference the sparse kernel is
checked against.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

_ZERO = Fraction(0)


def bareiss_echelon(rows, pivot_cols):
    """In-place fraction-free row echelon; pivots searched in the first
    pivot_cols columns only.  Returns (rows, pivots) with pivots a list of
    (row, col) pairs in ascending column order."""
    m = len(rows)
    width = len(rows[0]) if m else 0
    prev = 1
    r = 0
    pivots = []
    for c in range(pivot_cols):
        if r >= m:
            break
        p = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        top = rows[r]
        for i in range(r + 1, m):
            cur = rows[i]
            mic = cur[c]
            if mic == 0:
                if prev == 1:
                    if piv != 1:
                        for j in range(c + 1, width):
                            cur[j] = piv * cur[j]
                else:
                    for j in range(c + 1, width):
                        cur[j] = piv * cur[j] // prev
            else:
                for j in range(c + 1, width):
                    cur[j] = (piv * cur[j] - mic * top[j]) // prev
                cur[c] = 0
        pivots.append((r, c))
        prev = piv
        r += 1
    return rows, pivots


def _sparse_row(row):
    """(integer row, scale): the nonzero entries of a dense list or a
    {column: value} dict of ints and Fractions, times the lcm of their
    denominators (the scale)."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    items = [(c, x) for c, x in items if x]
    den = lcm(*(x.denominator for _, x in items))
    return {c: x.numerator * (den // x.denominator) for c, x in items}, den


def _primitive(row):
    g = gcd(*row.values())
    if g == 1:
        return row
    return {c: v // g for c, v in row.items()}


def _eliminate(row, c, top):
    """Set row to a * row - b * top in place, with a, b coprime integers
    chosen so that its column c is zero; return a."""
    a, b = top[c], row[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for k in row:
            row[k] *= a
    get = row.get
    for k, v in top.items():
        x = get(k, 0) - b * v
        if x:
            row[k] = x
        else:
            del row[k]
    return a


def _reduce(pivots, row):
    """(a * row - a combination of the pivot rows, a): row reduced in place
    at every pivot column it meets, in ascending order.  A pivot row's other
    columns lie after its lead, so a cleared column never comes back."""
    heap = [c for c in row if c in pivots]
    heapify(heap)
    scale = 1
    while heap:
        c = heappop(heap)
        if c not in row:  # cancelled, or pushed twice
            continue
        top = pivots[c]
        for k in top:
            if k in pivots and k not in row:
                heappush(heap, k)
        scale *= _eliminate(row, c, top)
    return row, scale


def nullspace(rows, ncols):
    """Basis of {x : M x = 0} for the matrix with the given rows (dense
    lists of length ncols of ints and Fractions), as dense lists of
    Fractions of length ncols: SpanSolver's relations among the columns of
    M, each column scaled to integers over its denominator."""
    solver = SpanSolver([])
    for c in range(ncols):
        solver.add(*_sparse_row([row[c] for row in rows]))
    basis = []
    for vec in solver.relations:
        dense = [_ZERO] * ncols
        for c, v in vec.items():
            dense[c] = Fraction(v)
        basis.append(dense)
    return basis


class Echelon:
    """The semi-echelon form of integer rows {column: int} without zero
    entries, pivots {column: row}: each row is taken, reduced in place
    (_reduce), made primitive and kept under its least column, or dropped
    if it reduces to zero."""

    def __init__(self, rows=()):
        self.pivots = {}
        for row in rows:
            self.add(row)

    def add(self, row):
        row = _primitive(_reduce(self.pivots, _primitive(row))[0])
        if row:
            self.pivots[min(row)] = row

    def basis_from(self, start):
        """A basis of the vectors of the span that vanish in every column
        before start: the pivot rows whose lead is at or after start, any
        tags dropped, back-reduced into the reduced echelon basis, each
        primitive with a positive pivot, by descending pivot column: the
        same whether the rows were eliminated with tags or without."""
        done = {}
        for pc in sorted((c for c in self.pivots if c >= start), reverse=True):
            # the rows in done have no pivot column but their own, so
            # clearing one column brings in no other
            row = _reduce(done, {c: v for c, v in self.pivots[pc].items() if c >= 0})[0]
            g = gcd(*row.values())
            if row[pc] < 0:
                g = -g
            done[pc] = {c: v // g for c, v in row.items()}
        return list(done.values())

    @property
    def rank(self):
        return len(self.pivots)


class SpanSolver(Echelon):
    """Membership, expression and relations in the span of a fixed list of
    vectors.

    A vector is an integer row {coordinate: int} without zero entries,
    over a scale given to add(), 1 by default.  Each is taken, not copied,
    tagged with the entry scale in column ~i (negative, so never a pivot)
    and inserted into one semi-echelon form, pivots {least column >= 0:
    primitive row}; the tags of a row record which combination of the
    vectors it is.  A vector that depends on earlier ones reduces to its
    tags alone: a relation among it and earlier independent vectors, kept
    in relations, and the vector is dropped, so pivot rows' tags name
    independent vectors only.  Vectors are inserted one at a time by add(),
    so a caller can stop early.  An express() query is the same reduction.
    Relations and express() answers are unique, as combinations of
    independent vectors, so no back-reduction of the pivot rows can change
    them.
    """

    def __init__(self, vectors):
        # one {i: int} per dependent vector, in input order, with
        # sum(x_i * vectors[i]) == 0, primitive, first nonzero entry
        # positive: a basis of all relations among the vectors
        self.relations = []
        super().__init__(vectors)

    def add(self, row, scale=1):
        """Insert the next vector, row / scale; its relation with earlier
        independent vectors (also appended to relations) if it depends on
        them, else None."""
        i = len(self.pivots) + len(self.relations)  # each earlier vector made one
        row[~i] = scale
        row = _primitive(_reduce(self.pivots, _primitive(row))[0])
        lead = min((c for c in row if c >= 0), default=None)
        if lead is not None:
            self.pivots[lead] = row
            return None
        sign = -1 if row[max(row)] < 0 else 1  # ~k is largest for the least k
        relation = {~k: sign * x for k, x in sorted(row.items(), reverse=True)}
        self.relations.append(relation)
        return relation

    def express(self, v):
        """{i: c_i} with sum(c_i * vectors[i]) == v, an integer row, the zero
        c_i left out, or None; v itself is left as it is."""
        w, scale = _reduce(self.pivots, dict(v))
        # scale * v == (columns >= 0 of w) - sum_i w[~i] * vectors[i]
        if any(k >= 0 for k in w):
            return None
        return {~k: Fraction(-x, scale) for k, x in w.items()}
