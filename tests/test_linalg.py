import random
from fractions import Fraction

import pytest

from plinth.linalg import (
    SpanSolver,
    bareiss_echelon,
    echelon,
    nullspace,
    solve_columns,
)

from test_properties import nullspace_naive, random_block_matrix


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


def test_span_solver_express():
    v1 = [1, 0, 1]
    v2 = [0, 1, 1]
    solver = SpanSolver([v1, v2])
    assert solver.rank == 2
    coeffs = solver.express([2, 3, 5])
    assert coeffs == [Fraction(2), Fraction(3)]
    assert solver.express([1, 0, 0]) is None
    assert solver.contains([1, -1, 0])


def test_solve_columns():
    cols = [[1, 1], [1, -1]]
    x = solve_columns(cols, [3, 1])
    assert x == [Fraction(2), Fraction(1)]
    assert solve_columns([[1, 0]], [0, 1]) is None
    assert solve_columns([], [0, 0]) == []
    assert solve_columns([], [1, 0]) is None


def test_span_solver_dependent_fractions():
    # v3 = 2/3 v1 - 1/2 v2 and v4 = 0: dependent vectors with denominators
    v1 = [Fraction(1, 2), 0, Fraction(3, 4), 0]
    v2 = [0, Fraction(5, 3), 1, 0]
    v3 = [a * Fraction(2, 3) - b * Fraction(1, 2) for a, b in zip(v1, v2)]
    v4 = [0, 0, 0, 0]
    v5 = [0, Fraction(-7, 6), 0, Fraction(1, 5)]
    vectors = [v3, v4, v1, v2, v5]
    solver = SpanSolver(vectors)
    assert solver.rank == 3
    mix = [Fraction(1, 7) * a - Fraction(5, 9) * b + Fraction(3, 2) * c
           for a, b, c in zip(v1, v2, v5)]
    for target in (v1, v2, v3, v5, mix):
        coeffs = solver.express(target)
        assert coeffs is not None
        assert [sum(c * v[k] for c, v in zip(coeffs, vectors)) for k in range(4)] \
            == [Fraction(x) for x in target]
    assert solver.express([1, 0, 0, 0]) is None
    # the same vectors as sparse dicts give the same answers
    sparse = [{k: x for k, x in enumerate(v) if x} for v in vectors]
    assert SpanSolver(sparse).express({0: Fraction(1, 2), 2: Fraction(3, 4)}) \
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
        solver = SpanSolver(vectors)
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in vectors]
        v = [sum(w * vec[k] for w, vec in zip(weights, vectors)) for k in range(dim)]
        coeffs = solver.express(v)
        assert [sum(c * vec[k] for c, vec in zip(coeffs, vectors)) for k in range(dim)] == v


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for _ in range(30):
        size = rng.randint(1, 30)
        rows = random_block_matrix(rng, size)
        expected = sympy.Matrix(rows).rank()
        assert len(echelon(rows)) == expected
        assert SpanSolver(rows).rank == expected
        assert len(nullspace(rows, size)) == size - expected
