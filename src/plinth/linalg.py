"""Exact linear algebra over Q by sparse fraction-free elimination.

Rows are sparse {column: int} dicts made from the nonzero entries only.
One kernel inserts rows one at a time into a reduced row echelon form
whose rows are kept primitive, pivoting on the first nonzero column; rows
with disjoint supports are never combined, so a block diagonal matrix is
eliminated block by block.  Dense ``bareiss_echelon`` (Bareiss, Math.
Comp. 22, 1968) is the reference the sparse kernel is checked against.
"""

from __future__ import annotations

from fractions import Fraction
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
    """(a * row - b * top, a) with a, b coprime integers chosen so that
    column c of the result is zero."""
    a, b = top[c], row[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {k: a * v for k, v in row.items()} if a != 1 else dict(row)
    for k, v in top.items():
        x = out.get(k, 0) - b * v
        if x:
            out[k] = x
        else:
            del out[k]
    return out, a


def _insert(pivots, row):
    """Add one integer row to the reduced echelon form pivots
    ({pivot column: primitive row}); negative columns are tags and never
    pivots.  A row that gets no pivot is dropped."""
    row = _primitive(row)
    for c in [c for c in row if c in pivots]:
        row = _primitive(_eliminate(row, c, pivots[c])[0])
    lead = min((c for c in row if c >= 0), default=None)
    if lead is None:
        return
    for pc, top in pivots.items():
        if lead in top:
            pivots[pc] = _primitive(_eliminate(top, lead, row)[0])
    pivots[lead] = row


def echelon(rows):
    """Reduced row echelon form of the rows (dense lists or {column: value}
    dicts) as {pivot column: primitive integer row}."""
    pivots = {}
    for row in rows:
        _insert(pivots, _sparse_row(row)[0])
    return pivots


def _primitive_vector(vec, ncols):
    """Dense Fraction list of an integer {column: value} vector, made
    primitive with a positive first nonzero entry."""
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    out = [_ZERO] * ncols
    for c, v in vec.items():
        out[c] = Fraction(v // g)
    return out


def nullspace(rows, ncols):
    """Basis of {x : M x = 0} for the matrix with the given rows (dense
    lists or {column: value} dicts): one vector per free column, with that
    column 1 and the other free columns 0, made integer-primitive with a
    positive first nonzero entry."""
    pivots = echelon(rows)
    holders = {}  # free column -> pivot columns whose row touches it
    for pc, row in pivots.items():
        for c in row:
            if c != pc:
                holders.setdefault(c, []).append(pc)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        scale = lcm(*(pivots[pc][pc] for pc in holders.get(free, ())))
        vec = {free: scale}
        for pc in holders.get(free, ()):
            row = pivots[pc]
            vec[pc] = -row[free] * (scale // row[pc])
        basis.append(_primitive_vector(vec, ncols))
    return basis


class SpanSolver:
    """Membership and expression in the span of a fixed list of vectors.

    Each vector (dense list or {coordinate: value} dict) becomes a sparse
    integer row tagged with an identity entry in column ~i (negative, so
    never a pivot) and is inserted into one reduced echelon form; the tags
    of a row record which combination of the vectors it is.  Vectors that
    depend on earlier ones are dropped, so tags name independent vectors
    only.  Each express() query is a reduction against the pivot rows.
    """

    def __init__(self, vectors):
        self.nvecs = len(vectors)
        self.pivots = {}
        for i, v in enumerate(vectors):
            row, scale = _sparse_row(v)
            row[~i] = scale
            _insert(self.pivots, row)

    def express(self, v):
        """Coefficients c with sum(c_i * vectors[i]) == v, or None."""
        w, scale = _sparse_row(v)
        # invariant: scale * v == (columns >= 0 of w) - sum_i w[~i] * vectors[i]
        for c in [c for c in w if c in self.pivots]:
            w, a = _eliminate(w, c, self.pivots[c])
            scale *= a
        if any(k >= 0 for k in w):
            return None
        combo = [_ZERO] * self.nvecs
        for k, x in w.items():
            combo[~k] = Fraction(-x, scale)
        return combo

    def contains(self, v):
        return self.express(v) is not None

    @property
    def rank(self):
        return len(self.pivots)


def solve_columns(columns, b):
    """x with sum(x_i * columns[i]) == b, or None (one-shot convenience)."""
    return SpanSolver(columns).express(b)
