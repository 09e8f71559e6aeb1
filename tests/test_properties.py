"""Randomized property suites (seeded; --seed changes the sample)."""

from fractions import Fraction
from math import factorial, gcd, lcm

from plinth.derivation import Derivation, apply, deg_d, iterate
from plinth.grading import WeightedDegree, wdeg_and_tilde
from plinth.linalg import SpanSolver, bareiss_echelon, echelon, nullspace
from plinth.oracle import kernel_and_image_basis, matrix_of_power, slice_basis
from plinth.polyring import (
    MultiPoly,
    PolyRing,
    divides,
    extended_euclid,
    multivariate_gcd,
)

CASES = 200


def random_poly(rng, ring, max_terms=4, max_deg=2, nonzero=False):
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(ring.arity))
        terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    p = MultiPoly(ring, terms)
    if nonzero and p.is_zero():
        return ring.const(rng.randint(1, 5))
    return p


def random_param_poly(rng, ring, max_deg=2, nonzero=False):
    k = ring.nparams
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, 3)):
        e = [0] * ring.arity
        for i in range(k):
            e[i] = rng.randint(0, max_deg)
        terms[tuple(e)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    p = MultiPoly(ring, terms)
    if nonzero and p.is_zero():
        return ring.const(rng.randint(1, 4))
    return p


def random_derivation(rng, ring):
    while True:
        images = [random_poly(rng, ring, max_terms=3, max_deg=2) for _ in ring.vars]
        if not all(img.is_zero() for img in images):
            return Derivation(ring, images)


def _normalize_vector(vec):
    """Integer-primitive with positive first nonzero entry."""
    den = 1
    for x in vec:
        den = lcm(den, Fraction(x).denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return [Fraction(0)] * len(vec)
    first = next(x for x in ints if x != 0)
    if first < 0:
        g = -g
    return [Fraction(x, g) for x in ints]


def nullspace_naive(rows, ncols):
    """Plain rational Gaussian elimination; cross-check for nullspace()."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append((r, c))
        r += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for rr, cc in pivots:
            x[cc] = -work[rr][free]
        basis.append(_normalize_vector(x))
    return basis


def random_block_matrix(rng, size):
    """Sparse block-diagonal size x size Fraction matrix with shuffled rows
    and columns, some zero rows and some rows copied from combinations of
    others."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    start = 0
    while start < size:
        width = min(rng.randint(1, 6), size - start)
        for i in range(start, start + width):
            for j in range(start, start + width):
                if rng.random() < 0.5:
                    rows[i][j] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        start += width
    perm = list(range(size))
    rng.shuffle(perm)
    rows = [[row[perm[j]] for j in range(size)] for row in rows]
    for _ in range(rng.randint(0, 3)):
        i, a, b = rng.randrange(size), rng.randrange(size), rng.randrange(size)
        ca, cb = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
        rows[i] = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
    for _ in range(rng.randint(0, 2)):
        rows[rng.randrange(size)] = [Fraction(0)] * size
    rng.shuffle(rows)
    return rows


# -- check functions, reused by the acceptance suite --------------------------


def check_leibniz(rng, cases=CASES):
    ring = PolyRing(("t",), ("X", "Y"))
    for _ in range(cases):
        D = random_derivation(rng, ring)
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        assert apply(D, f * g) == f * apply(D, g) + g * apply(D, f)


def check_linearity(rng, cases=CASES):
    ring = PolyRing(("t",), ("X", "Y"))
    for _ in range(cases):
        D = random_derivation(rng, ring)
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        r = random_param_poly(rng, ring)
        s = random_param_poly(rng, ring)
        assert apply(D, r * f + s * g) == r * apply(D, f) + s * apply(D, g)


def _random_linear_forms(rng, ring, count):
    # forms with D^2 f = 0 for the nice derivation DX=a, DY=b
    out = []
    for _ in range(count):
        f = (
            random_param_poly(rng, ring, max_deg=1) * ring.gen("X")
            + random_param_poly(rng, ring, max_deg=1) * ring.gen("Y")
            + random_param_poly(rng, ring, max_deg=1)
        )
        if f.is_zero():
            f = ring.gen("X")
        out.append(f)
    return out


def check_prule(rng, cases=CASES):
    """Degree additivity and the multinomial identity for products of
    elements killed by D^2."""
    ring = PolyRing(("a", "b"), ("X", "Y"))
    D = Derivation(ring, [ring.poly("a"), ring.poly("b")])
    for _ in range(cases):
        forms = _random_linear_forms(rng, ring, rng.randint(2, 3))
        prod = ring.one()
        degs = []
        for f in forms:
            prod = prod * f
            degs.append(deg_d(D, f))
        if prod.is_zero():
            continue
        assert deg_d(D, prod) == sum(degs)
        # multinomial expansion at a random order m
        m = rng.randint(1, len(forms) + 1)
        expected = ring.zero()

        def rec(i, remaining, acc, ways):
            nonlocal expected
            if i == len(forms):
                if remaining == 0:
                    expected = expected + Fraction(ways) * acc
                return
            for mi in range(remaining + 1):
                part = iterate(D, forms[i], mi)
                if part.is_zero():
                    continue
                rec(
                    i + 1,
                    remaining - mi,
                    acc * part,
                    ways // factorial(mi),
                )

        rec(0, m, ring.one(), factorial(m))
        assert iterate(D, prod, m) == expected


def check_tilde_multiplicative(rng, cases=CASES):
    ring = PolyRing(("t",), ("X", "Y"))
    for _ in range(cases):
        wd = WeightedDegree(
            ring, {"X": rng.randint(1, 3), "Y": rng.randint(1, 3)}
        )
        f = random_poly(rng, ring, nonzero=True)
        g = random_poly(rng, ring, nonzero=True)
        df, tf = wdeg_and_tilde(wd, f)
        dg, tg = wdeg_and_tilde(wd, g)
        dfg, tfg = wdeg_and_tilde(wd, f * g)
        assert dfg == df + dg
        assert tfg == tf * tg


def check_gcd_divides(rng, cases=CASES):
    ring = PolyRing(("t",), ("X", "Y"))
    for _ in range(cases):
        p = random_poly(rng, ring, max_terms=2, max_deg=1, nonzero=True)
        f = p * random_poly(rng, ring, max_terms=2, max_deg=1, nonzero=True)
        g = p * random_poly(rng, ring, max_terms=2, max_deg=1, nonzero=True)
        got = multivariate_gcd([f, g])
        assert divides(got, f)
        assert divides(got, g)


def check_bezout(rng, cases=CASES):
    ring = PolyRing(("t",), ("X",))
    for _ in range(cases):
        a = random_param_poly(rng, ring, max_deg=3, nonzero=True)
        b = random_param_poly(rng, ring, max_deg=3, nonzero=True)
        g, alpha, beta = extended_euclid(a, b)
        assert alpha * a + beta * b == g
        assert divides(g, a)
        assert divides(g, b)


def check_oracle_monotone(rng, cases=40):
    """Enlarging slice bounds never shrinks the bounded I_1 span."""
    ring = PolyRing(("t",), ("X", "Y"))
    for _ in range(cases):
        # triangular images guarantee local nilpotence
        img_x = random_param_poly(rng, ring, max_deg=1, nonzero=True)
        img_y = random_param_poly(rng, ring, max_deg=1) + random_param_poly(
            rng, ring, max_deg=1
        ) * ring.gen("X")
        if img_y.is_zero():
            img_y = ring.one()
        D = Derivation(ring, [img_x, img_y])
        small = kernel_and_image_basis(D, 1, slice_basis(ring, 1, 1))[1]
        big = kernel_and_image_basis(
            D, 1, slice_basis(ring, 2, 2), entry_cap=200000
        )[1]
        if not small:
            continue
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


def check_matrix_columns(rng, cases=100):
    """Each matrix column equals D^n(monomial), inside the target slice."""
    ring = PolyRing(("t",), ("X", "Y"))
    D = Derivation(ring, [ring.poly("t"), ring.poly("X")])
    src = slice_basis(ring, 2, 2)
    for _ in range(cases):
        n = rng.randint(0, 3)
        mat = matrix_of_power(D, n, src, entry_cap=500000)
        i = rng.randrange(src.dim)
        mono = MultiPoly(ring, {src.basis[i]: Fraction(1)})
        assert mat.columns[i] == iterate(D, mono, n)
        assert all(e in mat.target.index() for e in mat.columns[i].terms)


def check_bareiss_vs_naive(rng, cases=CASES):
    """The sparse kernel against plain rational elimination (same nullspace)
    and against dense Bareiss (same pivot columns and rank), on small dense
    matrices with Fraction entries and on sparse block-diagonal ones up to
    40 x 40 with zero and dependent rows."""
    for case in range(cases):
        if case % 4 == 3:
            ncols = rng.randint(1, 40)
            rows = random_block_matrix(rng, ncols)
        else:
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            rows = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
        a = nullspace([list(r) for r in rows], ncols)
        b = nullspace_naive([list(r) for r in rows], ncols)
        assert a == b
        dens = [lcm(*(Fraction(x).denominator for x in r)) for r in rows]
        ints = [[int(x * d) for x in r] for r, d in zip(rows, dens)]
        _, pivots = bareiss_echelon(ints, ncols)
        assert sorted(echelon(rows)) == [c for _, c in pivots]


# -- pytest wrappers ------------------------------------------------------------


def test_leibniz(rng):
    check_leibniz(rng)


def test_linearity(rng):
    check_linearity(rng)


def test_prule(rng):
    check_prule(rng)


def test_tilde_multiplicative(rng):
    check_tilde_multiplicative(rng)


def test_gcd_divides(rng):
    check_gcd_divides(rng)


def test_bezout(rng):
    check_bezout(rng)


def test_oracle_monotone(rng):
    check_oracle_monotone(rng)


def test_matrix_columns(rng):
    check_matrix_columns(rng)


def test_bareiss_vs_naive(rng):
    check_bareiss_vs_naive(rng)
