import random
from fractions import Fraction

import pytest

from plinth.linalg import Echelon, SpanSolver, bareiss_echelon, nullspace

from test_properties import (
    FractionSpanSolver,
    _normalize_vector,
    nullspace_naive,
    random_block_matrix,
)


def test_bareiss_echelon_pivots():
    rows = [[2, 4, 1], [1, 2, 3], [0, 0, 5]]
    out, pivots = bareiss_echelon([list(r) for r in rows], 3)
    assert [c for _, c in pivots] == [0, 2]
    # below each pivot the column is zero
    for r, c in pivots:
        for i in range(r + 1, len(out)):
            assert out[i][c] == 0


def test_nullspace_simple():
    # x + y + z = 0, y - z = 0  ->  span{(-2, 1, 1)}
    rows = [[1, 1, 1], [0, 1, -1]]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    assert [v[0] + v[1] + v[2], v[1] - v[2]] == [0, 0]


def test_nullspace_matches_naive():
    rows = [
        [Fraction(1, 2), 1, 0, 3],
        [1, 2, 0, 6],
        [0, 0, 1, 1],
    ]
    a = nullspace(rows, 4)
    b = nullspace_naive(rows, 4)
    assert a == b
    assert len(a) == 2
    # the dense form is the relations among the columns written out
    columns = [[row[c] for row in rows] for c in range(4)]
    assert [{c: int(x) for c, x in enumerate(v) if x} for v in a] \
        == FractionSpanSolver(columns).relations == [{0: 2, 1: -1}, {0: 6, 2: 1, 3: -1}]


def test_span_solver_express():
    v1 = [1, 0, 1]
    v2 = [0, 1, 1]
    solver = FractionSpanSolver([v1, v2])
    assert solver.rank == 2
    coeffs = solver.express([2, 3, 5])
    assert coeffs == {0: Fraction(2), 1: Fraction(3)}
    assert solver.express([1, 0, 0]) is None
    assert solver.express([1, -1, 0]) is not None
    assert solver.relations == []


def test_solve_columns():
    cols = [[1, 1], [1, -1]]
    x = FractionSpanSolver(cols).express([3, 1])
    assert x == {0: Fraction(2), 1: Fraction(1)}
    # express leaves the zero coefficients out
    assert FractionSpanSolver(cols).express([1, 1]) == {0: Fraction(1)}
    assert FractionSpanSolver([[1, 0]]).express([0, 1]) is None
    assert FractionSpanSolver([]).express([0, 0]) == {}
    assert FractionSpanSolver([]).express([1, 0]) is None


def test_span_solver_dependent_fractions():
    # v3 = 2/3 v1 - 1/2 v2 and v4 = 0: dependent vectors with denominators
    v1 = [Fraction(1, 2), 0, Fraction(3, 4), 0]
    v2 = [0, Fraction(5, 3), 1, 0]
    v3 = [a * Fraction(2, 3) - b * Fraction(1, 2) for a, b in zip(v1, v2)]
    v4 = [0, 0, 0, 0]
    v5 = [0, Fraction(-7, 6), 0, Fraction(1, 5)]
    vectors = [v3, v4, v1, v2, v5]
    solver = FractionSpanSolver(vectors)
    assert solver.rank == 3
    # v4 is zero and 6 v3 - 4 v1 + 3 v2 = 0
    assert solver.relations == [{1: 1}, {0: 6, 2: -4, 3: 3}]
    mix = [Fraction(1, 7) * a - Fraction(5, 9) * b + Fraction(3, 2) * c
           for a, b, c in zip(v1, v2, v5)]
    for target in (v1, v2, v3, v5, mix):
        coeffs = solver.express(target)
        assert coeffs is not None
        assert [sum(c * vectors[i][k] for i, c in coeffs.items()) for k in range(4)] \
            == [Fraction(x) for x in target]
    assert solver.express([1, 0, 0, 0]) is None
    # the same vectors as sparse dicts give the same answers
    sparse = [{k: x for k, x in enumerate(v) if x} for v in vectors]
    assert FractionSpanSolver(sparse).express({0: Fraction(1, 2), 2: Fraction(3, 4)}) \
        == solver.express(v1)


def test_span_solver_random_dependent():
    rng = random.Random(7)
    for _ in range(50):
        dim = rng.randint(1, 8)
        base = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(dim)]
                for _ in range(rng.randint(1, 4))]
        vectors = list(base)
        for _ in range(rng.randint(1, 4)):
            a, b = rng.choice(base), rng.choice(base)
            ca, cb = Fraction(rng.randint(-4, 4), rng.randint(1, 5)), rng.randint(-3, 3)
            vectors.append([ca * x + cb * y for x, y in zip(a, b)])
        rng.shuffle(vectors)
        solver = FractionSpanSolver(vectors)
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in vectors]
        v = [sum(w * vec[k] for w, vec in zip(weights, vectors)) for k in range(dim)]
        coeffs = solver.express(v)
        assert all(c for c in coeffs.values())
        assert [sum(c * vectors[i][k] for i, c in coeffs.items()) for k in range(dim)] == v


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for _ in range(30):
        size = rng.randint(1, 30)
        rows = random_block_matrix(rng, size)
        expected = sympy.Matrix(rows).rank()
        assert FractionSpanSolver(rows).rank == expected
        assert len(nullspace(rows, size)) == size - expected


def test_basis_from_spans_the_vanishing_part():
    # the vectors of the span that vanish in columns 0 and 1, against a
    # plain rational reference: a nullspace of the first two columns
    rng = random.Random(13)
    for _ in range(40):
        width = rng.randint(3, 7)
        vectors = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(width)]
                   for _ in range(rng.randint(1, 6))]
        basis = FractionSpanSolver(vectors).basis_from(2)
        relations = nullspace_naive([[v[c] for v in vectors] for c in (0, 1)], len(vectors))
        expected = [[sum(x * v[k] for x, v in zip(rel, vectors)) for k in range(width)]
                    for rel in relations]
        assert FractionSpanSolver(expected).rank == len(basis)
        leads = [min(row) for row in basis]
        assert leads == sorted(leads, reverse=True) and min(leads, default=2) >= 2
        for row in basis:
            assert row[min(row)] > 0
            assert FractionSpanSolver(expected).express(row) is not None
            assert all(c not in row for c in leads if c != min(row))  # reduced


def _dense(row, width):
    return [row.get(c, 0) for c in range(width)]


def test_span_solver_matches_sympy_rref():
    # basis_from(start) is the rref rows that pivot at or after start, each
    # scaled to be primitive; relations and express against plain references
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    for _ in range(30):
        size = rng.randint(1, 24)
        rows = random_block_matrix(rng, size)
        solver = FractionSpanSolver(rows)
        rref, pivot_cols = sympy.Matrix(rows).rref()
        for start in range(size + 1):
            expected = [[Fraction(int(x.p), int(x.q)) for x in rref.row(k)]
                        for k, pc in enumerate(pivot_cols) if pc >= start]
            assert [_dense(row, size) for row in solver.basis_from(start)] \
                == [_normalize_vector(v) for v in reversed(expected)]
        columns = [[row[c] for row in rows] for c in range(size)]
        assert solver.relations == [{c: int(x) for c, x in enumerate(v) if x}
                                    for v in nullspace_naive(columns, len(rows))]
        targets = [[sum(w * row[k] for w, row in zip(weights, rows)) for k in range(size)]
                   for weights in ([rng.randint(-3, 3) for _ in rows] for _ in range(3))]
        targets += [[Fraction(rng.randint(-2, 2)) for _ in range(size)] for _ in range(3)]
        for target in targets:
            coeffs = solver.express(target)
            if coeffs is None:
                assert FractionSpanSolver(rows + [target]).rank == solver.rank + 1
            else:
                assert [sum(c * rows[i][k] for i, c in coeffs.items()) for k in range(size)] \
                    == target


def test_add_never_rewrites_earlier_pivot_rows():
    # semi-echelon: a row is reduced on insertion and then left as it is, so
    # the first row below keeps its entry in the second row's pivot column
    solver = FractionSpanSolver([[1, 1, 0], [0, 1, 1]])
    assert solver.pivots[0] == {0: 1, 1: 1, ~0: 1}
    assert 1 in solver.pivots
    rng = random.Random(19)
    for _ in range(20):
        size = rng.randint(1, 24)
        solver = FractionSpanSolver([])
        for row in random_block_matrix(rng, size):
            before = {c: (r, dict(r)) for c, r in solver.pivots.items()}
            solver.add(row)
            for c, (r, copy) in before.items():
                assert solver.pivots[c] is r and r == copy
            for c, r in solver.pivots.items():
                assert min(k for k in r if k >= 0) == c


def test_express_leaves_its_query_unchanged():
    # rows are reduced in place, so express works on a copy of its query;
    # the first query is eliminated unscaled, the second scaled by 2
    solver = SpanSolver([{0: 2, 1: 1}, {1: 1, 2: 3}])
    for v in ({0: 4, 1: 5, 2: 9}, {0: 1, 2: 5}):
        copy = dict(v)
        solver.express(v)
        assert v == copy
    assert solver.express({0: 4, 1: 5, 2: 9}) == {0: 2, 1: 3}


def test_echelon_without_tags_gives_the_tagged_basis():
    # without tags each row reduces to the tagged row's part in columns >= 0
    # up to a scalar (the tags can change its gcd), so the normalized
    # basis_from is the same, on integer vectors with zero and dependent ones
    rng = random.Random(23)
    for _ in range(60):
        width = rng.randint(1, 9)
        base = [{c: rng.choice((-6, -4, -3, -2, -1, 1, 2, 3, 4, 6))
                 for c in range(width) if rng.random() < 0.6}
                for _ in range(rng.randint(1, 5))]
        vectors = base + [{}]
        for _ in range(rng.randint(1, 4)):
            a, b = rng.choice(base), rng.choice(base)
            ka, kb = rng.choice((-2, 1, 3)), rng.choice((-1, 0, 2))
            mix = {c: ka * a.get(c, 0) + kb * b.get(c, 0) for c in set(a) | set(b)}
            vectors.append({c: x for c, x in mix.items() if x})
        rng.shuffle(vectors)
        tagged = SpanSolver([dict(v) for v in vectors])
        plain = Echelon([dict(v) for v in vectors])
        assert plain.rank == tagged.rank
        assert all(min(row) >= 0 for row in plain.pivots.values())
        for start in range(width + 1):
            assert plain.basis_from(start) == tagged.basis_from(start)
