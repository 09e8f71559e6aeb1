"""Generator formulas for kernels and image ideals of structured locally
nilpotent derivations.

Covers: the 2-variable kernel generator, the j-th image ideal of a nice
2-variable derivation ((f1,f2)^j with explicit preimages), the quasi-nice
minimum exponent law and its localized single-parameter refinement, slice
construction, strictness detection, and the 3-variable nice reduction to a
2-variable problem over an enlarged coefficient ring.  Every returned
formula carries machine-checked certificates; whenever a hypothesis cannot
be confirmed the result is downgraded to an oracle-only approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Optional

from .derivation import (
    MINUS_INF,
    Derivation,
    UnsupportedStructureError,
    _param_monomials,
    _validate_factored_b,
    apply,
    classify,
    is_fixed_point_free,
    iterate,
    localized_fpf,
    verify_kernel_element,
)
from .grading import (
    GjSpec,
    TopDegreeCertificate,
    WeightedDegree,
    enumerate_gj,
    prime_after_elimination,
    top_degree_ideal,
)
from .oracle import (
    DEFAULT_ENTRY_CAP,
    OracleCapError,
    kernel_and_image_basis,
    poly_relations,
    poly_solve,
    slice_basis,
)
from .polyring import (
    CertificateError,
    MultiPoly,
    PlinthError,
    PolyRing,
    divide_exact,
    divides,
    extended_euclid,
    irreducible_smalldeg,
    multivariate_gcd,
    reduce_mod_prime,
    restrict,
    substitute,
)

DEFAULT_SLICE_BOUND = 4
DEFAULT_SYZYGY_BOUND = 6


@dataclass
class KernelPresentation:
    """Generators of Ker(D) over R, each re-checked to be killed by D."""

    generators: list
    certified: bool


@dataclass
class TheoremCertificate:
    """Machine-checked hypothesis record attached to a formula result."""

    irreducible: bool
    fixed_point_free: Optional[bool] = None
    top_degree: Optional[TopDegreeCertificate] = None
    top_degree_generators: Optional[tuple] = None
    primality: Optional[bool] = None
    strictness: Optional[str] = None
    heuristic: bool = False
    localized: Optional[list] = None  # (prime, multiplicity, stays fpf)
    notes: list = field(default_factory=list)

    def to_dict(self):
        out = {
            "irreducible": self.irreducible,
            "fixed_point_free": self.fixed_point_free,
            "primality": self.primality,
            "strictness": self.strictness,
            "heuristic": self.heuristic,
            "notes": list(self.notes),
        }
        if self.top_degree_generators is not None:
            out["top_degree_generators"] = [str(g) for g in self.top_degree_generators]
        if self.top_degree is not None:
            out["top_degree_hypotheses"] = self.top_degree.nonzerodivisor
        if self.localized is not None:
            out["localized"] = [
                {"prime": str(p), "multiplicity": r, "fixed_point_free": ok}
                for p, r, ok in self.localized
            ]
        return out


@dataclass
class ImageIdealResult:
    """Generators of I_n = Ker(D) intersected with D^n B, as elements of B."""

    n: int
    generators: list
    theorem: str  # trivial / slice / inice / 2varquasi / 2varquasi_PID / pid-3var / oracle-only
    certificate: TheoremCertificate
    preimages: Optional[list] = None
    preimage_factors: Optional[list] = None
    m: Optional[int] = None
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "n": self.n,
            "generators": [str(g) for g in self.generators],
            "theorem": self.theorem,
            "certificate": self.certificate.to_dict(),
            "preimages": None
            if self.preimages is None
            else [str(p) for p in self.preimages],
            "m": self.m,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# kernel generators


def kernel_generator(D):
    """A = R[g] for the structured 2-variable cases.

    Nice with images in R: g = (DX_2)X_1 - (DX_1)X_2.  Quasi-nice:
    g = b*X_2 + f(X_1) with b = DX_1 and f the primitive of -DX_2.
    """
    rep = classify(D)
    ring = D.ring
    if ring.nvars != 2:
        raise UnsupportedStructureError(
            "kernel_generator handles 2-variable derivations only"
        )
    x1, x2 = (ring.gen(v) for v in ring.vars)
    if rep.classification == "nice" and rep.nice_pair is not None:
        g = D.images[1] * x1 - D.images[0] * x2
    elif rep.quasi is not None:
        q = rep.quasi
        g = q.b * ring.gen(ring.vars[q.other]) + q.f
    else:
        raise UnsupportedStructureError(
            "kernel_generator needs a nice or quasi-nice 2-variable derivation"
        )
    certified = verify_kernel_element(D, g)
    if not certified:
        raise PlinthError("internal: kernel candidate %s is not killed by D" % g)
    return KernelPresentation(generators=[g], certified=True)


# ---------------------------------------------------------------------------
# the quasi-nice exponent law


def min_exponent(j, d):
    """Min of i1 + (d-1)*i2 over naturals with i1 + d*i2 = j."""
    if not isinstance(j, int) or j < 1:
        raise PlinthError("min_exponent needs j >= 1")
    if not isinstance(d, int) or d < 1:
        raise PlinthError("min_exponent needs d >= 1")
    return min((j - d * i2) + (d - 1) * i2 for i2 in range(j // d + 1))


# ---------------------------------------------------------------------------
# strictness detection


@dataclass
class StrictnessResult:
    verdict: str  # nice-able / strictly-1-quasi / slice / undetermined
    u: MultiPoly
    v: MultiPoly
    new_coordinate: Optional[MultiPoly] = None
    new_image: Optional[MultiPoly] = None
    heuristic: bool = False
    notes: list = field(default_factory=list)


def strictness_decompose(D):
    """Split f = u + b*v with no coefficient of u divisible by b = DX_1.

    deg u <= 1 makes D nice after the coordinate change X_2' = X_2 + v(X_1)
    (re-verified by applying D twice); deg u >= 2 certifies strict
    1-quasi-niceness over a Euclidean or irreducible-b coefficient ring and
    is flagged heuristic otherwise.
    """
    rep = classify(D)
    if rep.quasi is None:
        raise UnsupportedStructureError(
            "strictness_decompose needs a quasi-nice 2-variable derivation"
        )
    ring = D.ring
    q = rep.quasi
    b, f = q.b, q.f
    x1name = ring.vars[q.pivot]
    x2name = ring.vars[q.other]
    if b.is_constant():
        v = divide_exact(f, b)
        return StrictnessResult(
            verdict="slice",
            u=ring.zero(),
            v=v,
            notes=["DX_1 is a unit; %s/%s is a slice" % (x1name, b)],
        )
    k = ring.nparams
    heuristic = False
    notes = []
    if k == 1:
        u = reduce_mod_prime(f, b)
        v = divide_exact(f - u, b)
    else:
        # coefficient-wise divisibility split; canonical only when b is prime
        uterms = {}
        v = ring.zero()
        x1 = ring.index(x1name)
        deg = f.degree_in(x1name)
        deg = 0 if deg == MINUS_INF else int(deg)
        for e in range(deg + 1):
            c = f.coefficient_of(x1name, e)
            if c.is_zero():
                continue
            mono = ring.gen(x1name) ** e
            if divides(b, c):
                v = v + divide_exact(c, b) * mono
            else:
                for exps, coeff in (c * mono).terms.items():
                    uterms[exps] = coeff
        u = MultiPoly(ring, uterms)
        heuristic = True
        notes.append(
            "multi-parameter coefficient ring: divisibility-based split is "
            "canonical only for irreducible DX_1"
        )
    if f != u + b * v:
        raise CertificateError("split f = u + b*v fails its re-check")
    du = u.degree_in(x1name)
    du = 0 if du == MINUS_INF else int(du)
    if du <= 1:
        newc = ring.gen(x2name) + v
        if not iterate(D, newc, 2).is_zero():
            raise PlinthError("internal: coordinate change did not make D nice")
        return StrictnessResult(
            verdict="nice-able",
            u=u,
            v=v,
            new_coordinate=newc,
            new_image=apply(D, newc),
            heuristic=heuristic,
            notes=notes,
        )
    return StrictnessResult(
        verdict="strictly-1-quasi", u=u, v=v, heuristic=heuristic, notes=notes
    )


# ---------------------------------------------------------------------------
# slices


def slice_construct(D, degree_bound=DEFAULT_SLICE_BOUND):
    """An s with Ds = 1, or None if none is found within the degree bound."""
    ring = D.ring
    rep = classify(D)
    if (
        rep.nice_pair is not None
        and ring.nparams == 1
        and not any(img.is_zero() for img in D.images)
    ):
        g, alpha, beta = extended_euclid(D.images[0], D.images[1])
        if g.is_constant():
            c = g.as_constant()
            s = (alpha * ring.gen(ring.vars[0]) + beta * ring.gen(ring.vars[1])) * (
                1 / c
            )
            if apply(D, s) != ring.one():
                raise CertificateError("Bezout slice %s fails its re-check" % s)
            return s
        return None
    one = ring.one()
    for bound in range(1, degree_bound + 1):
        slc = slice_basis(ring, bound, bound)
        col_polys = [
            apply(D, MultiPoly(ring, {e: Fraction(1)})) for e in slc.basis
        ]
        x = poly_solve(col_polys, one)
        if x is not None:
            s = MultiPoly(ring, {e: c for c, e in zip(x, slc.basis) if c})
            if apply(D, s) != one:
                raise CertificateError("bounded slice %s fails its re-check" % s)
            return s
    return None


# ---------------------------------------------------------------------------
# certificates via the associated graded ideal


def _fresh_names(bases, taken):
    taken = set(taken)
    out = []
    for base in bases:
        name = base
        while name in taken:
            name = name + "_"
        taken.add(name)
        out.append(name)
    return tuple(out)


def _nice_top_degree_certificate(ring, f1, f2):
    """Graded certificate for the nice branch: with fresh slice variables
    S1, S2 and Z of weight 0, the ideal (S1-X1, S2-X2, Z-u) with
    u = f2*X1 - f1*X2 has top-degree ideal (S1-X1, S2-X2, -u); its primality
    is what the soundness of the generator count rests on."""
    s1n, s2n, zn = _fresh_names(("S1", "S2", "Z"), ring.names)
    ext = ring.extend((s1n, s2n, zn))
    weights = {v: 1 for v in ring.vars}
    weights.update({s1n: 1, s2n: 1, zn: 0})
    wd = WeightedDegree(ext, weights)
    x1, x2 = (ext.gen(v) for v in ring.vars)
    ef1, ef2 = (p if p.ring == ext else _embed(p, ext) for p in (f1, f2))
    u = ef2 * x1 - ef1 * x2
    gens = [ext.gen(s1n) - x1, ext.gen(s2n) - x2, ext.gen(zn) - u]
    ideal, cert = top_degree_ideal(wd, gens)
    prime = prime_after_elimination(list(ideal.generators))
    return cert, tuple(ideal.generators), prime


def _quasi_top_degree_certificate(ring, q):
    """Graded certificate for the quasi branch: weights (1, d) on (X1, X2),
    a fresh slice variable S of weight 1 and Z of weight 0; the top-degree
    ideal of (S-X1, Z-(b*X2+f)) is computed literally and its primality
    machine-checked (it can genuinely fail when f is not weight-homogeneous,
    and the failure is recorded rather than suppressed)."""
    sn, zn = _fresh_names(("S", "Z"), ring.names)
    ext = ring.extend((sn, zn))
    x1name = ring.vars[q.pivot]
    x2name = ring.vars[q.other]
    d = max(q.d, 1)
    weights = {x1name: 1, x2name: d, sn: 1, zn: 0}
    wd = WeightedDegree(ext, weights)
    x1 = ext.gen(x1name)
    x2 = ext.gen(x2name)
    kern = _embed(q.b, ext) * x2 + _embed(q.f, ext)
    gens = [ext.gen(sn) - x1, ext.gen(zn) - kern]
    ideal, cert = top_degree_ideal(wd, gens)
    prime = prime_after_elimination(list(ideal.generators))
    return cert, tuple(ideal.generators), prime


def _embed(f, ring):
    from .polyring import embed

    return embed(f, ring)


# ---------------------------------------------------------------------------
# the 3-variable nice reduction


@dataclass
class ThreeVarReduction:
    matrix: list  # 3x3 change of coordinates over R, determinant 1
    inverse: list
    new_ring: PolyRing  # R[U] as coefficient ring, main variables V, W
    reduced: Derivation  # D expressed on the new ring
    kernel: KernelPresentation  # [U, g*V - f*W] in the original coordinates
    coords: tuple  # (U, V, W) as polynomials of the original ring
    names: tuple

    def to_original(self, p):
        """Map a polynomial of the reduced ring back to the original ring."""
        ring = self.coords[0].ring
        k = ring.nparams
        out = ring.zero()
        for exps, coeff in p.terms.items():
            term = ring.const(coeff)
            for i in range(k):  # original parameters keep their positions
                if exps[i]:
                    term = term * ring.gen(ring.params[i]) ** exps[i]
            term = term * self.coords[0] ** exps[k]  # U
            term = term * self.coords[1] ** exps[k + 1]  # V
            term = term * self.coords[2] ** exps[k + 2]  # W
            out = out + term
        return out


def _egcd_R(a, b):
    """(g, alpha, beta) with alpha*a + beta*b = g over R (Q or Q[t]),
    tolerating zero and constant arguments."""
    ring = a.ring
    if a.is_zero() and b.is_zero():
        return ring.zero(), ring.zero(), ring.zero()
    if a.is_zero():
        return b, ring.zero(), ring.one()
    if b.is_zero():
        return a, ring.one(), ring.zero()
    if a.is_constant():
        return ring.one(), ring.const(1 / a.as_constant()), ring.zero()
    if b.is_constant():
        return ring.one(), ring.zero(), ring.const(1 / b.as_constant())
    return extended_euclid(a, b)


def _det3(M):
    return (
        M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
        - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
        + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
    )


def _adjugate3(M):
    def minor(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        return (
            M[rows[0]][cols[0]] * M[rows[1]][cols[1]]
            - M[rows[0]][cols[1]] * M[rows[1]][cols[0]]
        )

    adj = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            c = minor(j, i)
            adj[i][j] = c if (i + j) % 2 == 0 else -c
    return adj


def _find_syzygy(D, degree_bound):
    """(a, b, c) in R^3, not all zero, gcd a unit, with sum a_i*DX_i = 0."""
    ring = D.ring
    for bound in range(degree_bound + 1):
        monos = _param_monomials(ring, bound)
        col_polys = []
        tags = []
        for vi, img in enumerate(D.images):
            for e in monos:
                col_polys.append(MultiPoly(ring, {e: Fraction(1)}) * img)
                tags.append((vi, e))
        basis = poly_relations(col_polys)
        if not basis:
            continue
        coeffs = [ring.zero()] * 3
        for value, (vi, e) in zip(basis[0], tags):
            if value:
                coeffs[vi] = coeffs[vi] + MultiPoly(ring, {e: value})
        nonzero = [p for p in coeffs if not p.is_zero()]
        g = multivariate_gcd(nonzero)
        coeffs = [
            p if p.is_zero() else divide_exact(p, g) for p in coeffs
        ]
        first = next(p for p in coeffs if not p.is_zero())
        if first.leading()[1] < 0:
            coeffs = [-p for p in coeffs]
        return coeffs
    raise UnsupportedStructureError(
        "no R-linear relation among the images within degree %d" % degree_bound
    )


def nice3var_reduce(D, degree_bound=DEFAULT_SYZYGY_BOUND):
    """Reduce a nice irreducible 3-variable derivation over Q or Q[t] to a
    nice 2-variable derivation over the enlarged coefficient ring R[U].

    Finds a syzygy a*DX + b*DY + c*DZ = 0, completes (a,b,c) to a
    determinant-1 matrix over R via Bezout identities, and rewrites D in the
    coordinates (U,V,W) = M(X,Y,Z).  Returns the reduction together with the
    kernel presentation [U, g*V - f*W].
    """
    ring = D.ring
    if ring.nvars != 3:
        raise UnsupportedStructureError("nice3var_reduce needs three main variables")
    if ring.nparams > 1:
        raise UnsupportedStructureError(
            "nice3var_reduce needs a coefficient ring Q or Q[t]"
        )
    rep = classify(D)
    if rep.lnd is not True or len(rep.nice_set) != 3:
        raise UnsupportedStructureError("nice3var_reduce needs a nice derivation")
    if not rep.irreducible:
        raise PlinthError("derivation is not irreducible")
    a, b, c = _find_syzygy(D, degree_bound)

    zero, one = ring.zero(), ring.one()
    if a.is_zero() and b.is_zero():
        if not c.is_constant():
            raise PlinthError("syzygy completion failed: gcd not a unit")
        M = [
            [zero, zero, c],
            [ring.const(1 / c.as_constant()), zero, zero],
            [zero, one, zero],
        ]
    else:
        g1, alpha, beta = _egcd_R(a, b)
        aprime = zero if a.is_zero() else divide_exact(a, g1)
        bprime = zero if b.is_zero() else divide_exact(b, g1)
        g2, gamma, delta = _egcd_R(g1, c)
        if not g2.is_constant():
            raise PlinthError("syzygy completion failed: gcd not a unit")
        scale = 1 / g2.as_constant()
        gamma = gamma * scale
        delta = delta * scale
        M = [
            [a, b, c],
            [-beta, alpha, zero],
            [-delta * aprime, -delta * bprime, gamma],
        ]
    if _det3(M) != one:
        raise PlinthError("syzygy completion failed: determinant is not 1")
    inv = _adjugate3(M)

    xs = [ring.gen(v) for v in ring.vars]
    coords = tuple(
        sum((M[i][j] * xs[j] for j in range(3)), zero) for i in range(3)
    )
    U, V, W = coords
    if not apply(D, U).is_zero():
        raise PlinthError("internal: U is not a kernel element")

    un, vn, wn = _fresh_names(("U", "V", "W"), ring.names)
    big = ring.extend((un, vn, wn))
    new_coords = [big.gen(n) for n in (un, vn, wn)]

    def rewrite(p):
        q = _embed(p, big)
        for j, var in enumerate(ring.vars):
            repl = sum(
                (_embed(inv[j][i], big) * new_coords[i] for i in range(3)),
                big.zero(),
            )
            q = substitute(q, var, repl)
        return q

    new_ring = PolyRing(ring.params + (un,), (vn, wn))
    images = []
    for coord in (V, W):
        img = rewrite(apply(D, coord))
        if any(img.involves(n) for n in (vn, wn)) or any(
            img.involves(v) for v in ring.vars
        ):
            raise UnsupportedStructureError(
                "reduced image %s does not lie in R[%s]" % (img, un)
            )
        images.append(restrict(img, new_ring))
    f, g = images
    if not multivariate_gcd([p for p in images if not p.is_zero()]).is_constant():
        raise UnsupportedStructureError(
            "reduced images share a non-unit factor over R[%s]" % un
        )
    reduced = Derivation(new_ring, images)

    red = ThreeVarReduction(
        matrix=M,
        inverse=inv,
        new_ring=new_ring,
        reduced=reduced,
        kernel=KernelPresentation(generators=[], certified=False),
        coords=coords,
        names=(un, vn, wn),
    )
    kern2 = red.to_original(g) * V - red.to_original(f) * W
    for cand in (U, kern2):
        if not verify_kernel_element(D, cand):
            raise PlinthError("internal: %s is not a kernel element" % cand)
    red.kernel = KernelPresentation(generators=[U, kern2], certified=True)
    return red


# ---------------------------------------------------------------------------
# the image-ideal dispatcher


def image_ideal(D, j, factored_b=None, bounds=(3, 3), entry_cap=DEFAULT_ENTRY_CAP):
    """Generators of I_j with theorem tag and machine-checked certificates.

    Dispatch: a slice (or confirmed fixed-point-freeness) gives I_j = A;
    nice 2-variable not fixed point free gives the j+1 products
    f1^i1 * f2^i2 with explicit preimages; strictly 1-quasi-nice over Q[t]
    gives the principal ideal (prod of non-free primes)^m with
    m = min_exponent(j, d); nice 3-variable over Q[t] reduces and reuses the
    nice branch.  Anything with an unconfirmed hypothesis returns the
    bounded oracle approximation (slice bounds, entry cap) tagged
    oracle-only.
    """
    res = _formula_result(D, j, factored_b)
    if res.theorem == "oracle-only":
        try:
            slc = slice_basis(D.ring, bounds[0], bounds[1])
            res.generators = kernel_and_image_basis(D, j, slc, entry_cap)[1]
        except OracleCapError as err:
            res.notes.append("oracle run hit the entry cap: %s" % err)
    return res


def _formula_result(D, j, factored_b):
    if not isinstance(j, int) or j < 0:
        raise PlinthError("image_ideal needs a natural n")
    ring = D.ring
    rep = classify(D)
    if rep.lnd is False:
        raise PlinthError("D is not locally nilpotent")
    if not rep.irreducible:
        raise PlinthError(
            "D is not irreducible: the images share the non-unit factor %s"
            % multivariate_gcd([i for i in D.images if not i.is_zero()])
        )
    if j == 0:
        return ImageIdealResult(
            n=0,
            generators=[ring.one()],
            theorem="trivial",
            certificate=TheoremCertificate(irreducible=True),
            preimages=[ring.one()],
            preimage_factors=[Fraction(1)],
            notes=["I_0 = A by definition"],
        )
    if rep.lnd is None:
        return _oracle_only(D, j, "local nilpotence unconfirmed (cap)")

    if ring.nvars == 1:
        # irreducible single-variable case: DX is a rational unit
        s = slice_construct(D)
        if s is not None:
            return _slice_result(D, j, s)
        return _oracle_only(D, j, "no slice found within bounds")

    if ring.nvars == 2:
        if rep.classification == "nice" and rep.nice_pair is not None:
            fpf = is_fixed_point_free(D)
            if fpf is True:
                s = slice_construct(D)
                if s is not None:
                    return _slice_result(D, j, s)
                return _oracle_only(D, j, "fixed point free but no slice within bounds")
            if fpf is False:
                return _nice_power_result(
                    D,
                    j,
                    D.images[0],
                    D.images[1],
                    ring.gen(ring.vars[0]),
                    ring.gen(ring.vars[1]),
                    theorem="inice",
                )
            return _oracle_only(D, j, "fixed-point-freeness undetermined within bounds")
        if rep.quasi is not None:
            return _quasi_image_ideal(D, j, rep, factored_b)
        return _oracle_only(D, j, "unstructured 2-variable derivation")

    if ring.nvars == 3 and ring.nparams <= 1 and len(rep.nice_set) == 3:
        return _pid3var_image_ideal(D, j)

    return _oracle_only(D, j, "no formula branch for %d variables over %d parameters"
                        % (ring.nvars, ring.nparams))


def _slice_result(D, j, s):
    ring = D.ring
    pre = s**j * Fraction(1, factorial(j))
    if iterate(D, pre, j) != ring.one():
        raise CertificateError("slice preimage %s fails its re-check" % pre)
    cert = TheoremCertificate(
        irreducible=True,
        fixed_point_free=True,
        notes=["slice %s with Ds = 1; every I_n equals A" % s],
    )
    return ImageIdealResult(
        n=j,
        generators=[ring.one()],
        theorem="slice",
        certificate=cert,
        preimages=[pre],
        preimage_factors=[Fraction(1)],
    )


def _nice_power_result(D, j, f1, f2, p1, p2, theorem, extra_notes=(),
                       with_certificate=True):
    """I_j = (f1, f2)^j with preimages p1^i1 * p2^i2; D p1 = f1, D p2 = f2,
    both f's kernel elements, so D^j(p1^i1 p2^i2) = j! f1^i1 f2^i2 when
    i1 + i2 = j (every surviving term of the product rule differentiates
    each factor exactly once)."""
    ring = D.ring
    gens, preimages, factors = [], [], []
    for i1, i2 in enumerate_gj(GjSpec(m=0, u=(1, 1), j=j)):
        gen = f1**i1 * f2**i2
        pre = p1**i1 * p2**i2
        factor = Fraction(factorial(j))
        if iterate(D, pre, j) != factor * gen:
            raise PlinthError("internal: preimage identity failed for %s" % gen)
        if not apply(D, gen).is_zero():
            raise PlinthError("internal: generator %s is not in Ker(D)" % gen)
        gens.append(gen)
        preimages.append(pre)
        factors.append(factor)
    if with_certificate:
        td_cert, td_gens, prime = _nice_top_degree_certificate(ring, f1, f2)
    else:
        td_cert, td_gens, prime = None, None, None
    cert = TheoremCertificate(
        irreducible=True,
        fixed_point_free=False,
        top_degree=td_cert,
        top_degree_generators=td_gens,
        primality=prime,
        notes=list(extra_notes),
    )
    return ImageIdealResult(
        n=j,
        generators=gens,
        theorem=theorem,
        certificate=cert,
        preimages=preimages,
        preimage_factors=factors,
    )


def _quasi_image_ideal(D, j, rep, factored_b):
    ring = D.ring
    q = rep.quasi
    dec = strictness_decompose(D)
    if dec.verdict == "slice":
        s = slice_construct(D)
        if s is not None:
            return _slice_result(D, j, s)
        return _oracle_only(D, j, "unit DX_1 but no slice within bounds")
    if dec.verdict == "nice-able":
        # in the coordinates (X_1, X_2 + v) the derivation is nice
        newc = dec.new_coordinate
        f2 = dec.new_image
        equiv_images = [None, None]
        equiv_images[q.pivot] = q.b
        equiv_images[q.other] = f2
        equiv = Derivation(ring, equiv_images)
        fpf = is_fixed_point_free(equiv)
        note = "after the coordinate change %s -> %s" % (
            ring.vars[q.other],
            newc,
        )
        if fpf is True:
            s = slice_construct(D)
            if s is not None:
                return _slice_result(D, j, s)
            return _oracle_only(D, j, "fixed point free but no slice within bounds")
        if fpf is False:
            return _nice_power_result(
                D,
                j,
                q.b,
                f2,
                ring.gen(ring.vars[q.pivot]),
                newc,
                theorem="inice",
                extra_notes=[note],
            )
        return _oracle_only(D, j, "fixed-point-freeness undetermined within bounds")
    if dec.verdict != "strictly-1-quasi" or dec.heuristic:
        return _oracle_only(D, j, "strictness undetermined: "
                            + "; ".join(dec.notes or ["no verdict"]))
    if ring.nparams != 1:
        return _oracle_only(D, j, "quasi-nice formulas need the coefficient ring Q[t]")
    # localized fixed-point-freeness per prime factor of b
    if factored_b is None:
        if irreducible_smalldeg(q.b) is True:
            primes = [(q.b, 1, True)]
            theorem = "2varquasi"
        else:
            raise PlinthError(
                "a factorization of DX_1 = %s into irreducibles is required "
                "(pass factored_b)" % q.b
            )
    else:
        primes = _validate_factored_b(q.b, factored_b)
        theorem = "2varquasi_PID"
    localized = [(p, r, localized_fpf(D, p)) for p, r, _ in primes]
    m = min_exponent(j, q.d)
    bad = [(p, r) for p, r, ok in localized if not ok]
    gen = ring.one()
    for p, r in bad:
        gen = gen * p**r
    gen = gen**m
    notes = []
    if not bad:
        notes.append("every localized derivation is fixed point free; I_j = A")
    td_cert, td_gens, prime = _quasi_top_degree_certificate(ring, q)
    if prime is False:
        notes.append(
            "the literal top-degree ideal is not prime (the top part of f is "
            "not the whole of f); the generator formula rests on the "
            "localized fixed-point-freeness checks instead"
        )
    cert = TheoremCertificate(
        irreducible=True,
        fixed_point_free=not bad if all(ok is not None for _, _, ok in localized) else None,
        top_degree=td_cert,
        top_degree_generators=td_gens,
        primality=prime,
        strictness="strictly-1-quasi",
        localized=localized,
        notes=dec.notes,
    )
    return ImageIdealResult(
        n=j,
        generators=[gen],
        theorem=theorem,
        certificate=cert,
        m=m,
        notes=notes,
    )


def _pid3var_image_ideal(D, j):
    try:
        red = nice3var_reduce(D)
    except (UnsupportedStructureError, PlinthError) as err:
        return _oracle_only(D, j, "3-variable reduction failed: %s" % err)
    f, g = red.reduced.images
    fpf = is_fixed_point_free(red.reduced)
    if fpf is True:
        s = slice_construct(D)
        if s is not None:
            return _slice_result(D, j, s)
        return _oracle_only(D, j, "fixed point free but no slice within bounds")
    if fpf is None:
        return _oracle_only(D, j, "fixed-point-freeness of the reduction undetermined")
    U, V, W = red.coords
    f0 = red.to_original(f)
    g0 = red.to_original(g)
    result = _nice_power_result(
        D,
        j,
        f0,
        g0,
        V,
        W,
        theorem="pid-3var",
        extra_notes=[
            "coordinates U=%s, V=%s, W=%s; A = R[U, %s]"
            % (U, V, W, red.kernel.generators[1])
        ],
        with_certificate=False,
    )
    # the graded certificate lives on the reduced 2-variable problem
    td_cert, td_gens, prime = _nice_top_degree_certificate(red.new_ring, f, g)
    result.certificate.top_degree = td_cert
    result.certificate.top_degree_generators = td_gens
    result.certificate.primality = prime
    return result


def _oracle_only(D, j, reason):
    """The oracle-only result, before image_ideal fills in its generators."""
    rep = classify(D)
    cert = TheoremCertificate(irreducible=rep.irreducible, notes=[reason])
    return ImageIdealResult(
        n=j,
        generators=[],
        theorem="oracle-only",
        certificate=cert,
        notes=[reason, "bounded lower approximation of I_j; not a certified basis"],
    )
