"""Generator formulas for kernels and image ideals of structured locally
nilpotent derivations.

Covers: the kernels of the structured 1-, 2- and 3-variable cases, the j-th
image ideal of a nice 2-variable derivation ((f1,f2)^j with explicit
preimages, or I_j = A when f1, f2 generate the unit ideal), the quasi-nice
minimum exponent law and its localized single-parameter refinement,
strictness detection, and the 3-variable nice reduction to a 2-variable
problem over an enlarged coefficient ring.  Every returned formula carries
machine-checked certificates; whenever a hypothesis cannot be confirmed the
result is downgraded to an oracle-only approximation.

A slice is read off what decided its branch.  A Bezout identity
alpha_1*f_1 + alpha_2*f_2 = 1 that shows a nice derivation fixed point free
gives the slice alpha_1*p_1 + alpha_2*p_2 over the preimages p_i of the f_i;
a unit image DX gives X/DX.

What the formulas rest on does not depend on j, so it is worked out once
per problem in an Analysis (structure report, the branch and the
fixed-point-freeness it decides, strictness, localized checks, 3-variable
reduction, top-degree certificate, kernel) and shared by every command and
every j; the per-j step only builds generators and preimages and re-checks
them.  The Analysis is the one place the structure of D is decided: check,
kernel and image-ideal print what it holds.  The top-degree certificate is
a closed form of those facts (_top_degree_certificate).
"""

from fractions import Fraction
from functools import cache, cached_property, partial
from math import factorial

from .derivation import (
    MINUS_INF,
    Derivation,
    _validate_factored_b,
    apply,
    classify,
    iterate,
    localized_fpf,
    nice_fixed_point_free,
)
from .oracle import (
    DEFAULT_ENTRY_CAP,
    OracleCapError,
    _Combinations,
    kernel_and_image_basis,
    slice_basis,
)
from .polyring import (
    CertificateError,
    PlinthError,
    PolyRing,
    _rename,
    divide_exact,
    divides,
    embed,
    extended_euclid,
    irreducible_smalldeg,
    multivariate_gcd,
    reduce_mod_prime,
    restrict,
    substitute,
)

DEFAULT_SYZYGY_BOUND = 6


class TheoremCertificate:
    """Machine-checked hypothesis record attached to a formula result."""

    def __init__(self, irreducible, fixed_point_free=None, top_degree_hypotheses=None,
                 top_degree_generators=None, primality=None, strictness=None,
                 localized=None, notes=None):
        self.irreducible = irreducible
        self.fixed_point_free = fixed_point_free
        self.top_degree_hypotheses = top_degree_hypotheses  # what was checked, as text
        self.top_degree_generators = top_degree_generators
        self.primality = primality
        self.strictness = strictness
        self.localized = localized  # (prime, multiplicity, stays fpf)
        self.notes = [] if notes is None else notes

    def to_dict(self):
        out = {
            "irreducible": self.irreducible,
            "fixed_point_free": self.fixed_point_free,
            "primality": self.primality,
            "strictness": self.strictness,
            "heuristic": False,  # a heuristic strictness split ends oracle-only
            "notes": list(self.notes),
        }
        if self.top_degree_generators is not None:
            out["top_degree_generators"] = [str(g) for g in self.top_degree_generators]
        if self.top_degree_hypotheses is not None:
            out["top_degree_hypotheses"] = self.top_degree_hypotheses
        if self.localized is not None:
            out["localized"] = [
                {"prime": str(p), "multiplicity": r, "fixed_point_free": ok}
                for p, r, ok in self.localized
            ]
        return out


class ImageIdealResult:
    """Generators of I_n = Ker(D) intersected with D^n B, as elements of B."""

    def __init__(self, n, generators, theorem, certificate, preimages=None, m=None,
                 notes=None):
        self.n = n
        self.generators = generators
        # trivial / slice / inice / 2varquasi / 2varquasi_PID / pid-3var / oracle-only
        self.theorem = theorem
        self.certificate = certificate  # a TheoremCertificate
        self.preimages = preimages
        self.m = m
        self.notes = [] if notes is None else notes

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


class StrictnessResult:
    def __init__(self, verdict, u, v, new_coordinate=None, new_image=None,
                 heuristic=False, notes=None):
        self.verdict = verdict  # nice-able / strictly-1-quasi / slice
        self.u, self.v = u, v
        self.new_coordinate = new_coordinate
        self.new_image = new_image
        self.heuristic = heuristic
        self.notes = [] if notes is None else notes


def strictness_decompose(D, rep):
    """Split f = u + b*v with no coefficient of u divisible by b = DX_1;
    rep is classify(D).

    deg u <= 1 makes D nice after the coordinate change X_2' = X_2 + v(X_1)
    (re-verified by applying D twice); deg u >= 2 certifies strict
    1-quasi-niceness over a Euclidean or irreducible-b coefficient ring and
    is flagged heuristic otherwise.
    """
    if rep.quasi is None:
        raise PlinthError("strictness_decompose needs a quasi-nice 2-variable derivation")
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
        u = v = ring.zero()
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
                u = u + c * mono
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
            raise CertificateError("coordinate change did not make D nice")
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


def _top_degree_certificate(ring, slice_vars, top, prime):
    """Graded certificate of a 2-variable problem with kernel generator k:
    each X_i in slice_vars gets a fresh slice variable S_i of its weight and
    a fresh Z has weight 0; (S_i - X_i ..., Z - k) has top-degree ideal
    (S_i - X_i ..., tilde(Z - k)), whose primality the formulas rest on.
    The caller gives top = tilde(Z - k) in ring and its primality in closed
    form.  Nice (weights 1, k = f2*X1 - f1*X2, f_i in R): top is
    f1*X2 - f2*X1, and the residual f1*S2 - f2*S1 is linear with coprime
    coefficients, as D, or pid-3var's reduced images, were checked
    irreducible: prime.  Quasi (weights (1, d), X1 alone sliced,
    k = b*X2 + f): top is -(b*X2 + c_d*X1^d), c_d the X1^d coefficient of f,
    and the residual is linear in X2 with coefficient b and rest c_d*S^d:
    prime exactly when gcd(b, c_d) is a unit, which can fail.  The residual,
    top with X_i -> S_i, is checked nonzero; the tests hold this to
    grading.  Returns (hypotheses, generators, primality)."""
    bases = ("S",) if len(slice_vars) == 1 else tuple(
        "S%d" % i for i in range(1, len(slice_vars) + 1))
    *snames, zn = _fresh_names(bases + ("Z",), ring.names)
    ext = ring.extend((*snames, zn))
    renamed = dict(zip(slice_vars, snames))
    residual = _rename(top, ext, [(i, ext.index(renamed.get(name, name)))
                                  for i, name in enumerate(ring.names)])
    if residual.is_zero():
        raise CertificateError("the top part %s vanishes modulo the slice generators" % top)
    gens = [ext.gen(s) - ext.gen(x) for x, s in renamed.items()] + [embed(top, ext)]
    return ("verified by substitution (residual image %s != 0)" % residual, tuple(gens), prime)


# ---------------------------------------------------------------------------
# the 3-variable nice reduction


class ThreeVarReduction:
    """nice3var_reduce sets images = (f, g) and kernel = (U, g*V - f*W) in the
    original coordinates, the kernel once re-checked to be killed by D."""

    def __init__(self, matrix, new_ring, ext_ring, reduced, coords):
        self.matrix = matrix  # 3x3 change of coordinates over R, determinant 1
        self.new_ring = new_ring  # R[U] as coefficient ring, main variables V, W
        self.ext_ring = ext_ring  # the original ring with U, V, W appended
        self.reduced = reduced  # D expressed on the new ring
        self.coords = coords  # (U, V, W) as polynomials of the original ring
        self._replacements = [(name, embed(coord, ext_ring))
                              for name, coord in zip(ext_ring.vars[-3:], coords)]

    def to_original(self, p):
        """Map a polynomial of the reduced ring back to the original ring:
        U, V and W become the coordinates they name."""
        q = embed(p, self.ext_ring)
        for name, coord in self._replacements:
            q = substitute(q, name, coord)
        return restrict(q, self.coords[0].ring)


def _egcd_R(a, b):
    """(g, alpha, beta) with alpha*a + beta*b = g over R (Q or Q[t]), for
    a and b not both zero, either of them possibly constant."""
    ring = a.ring
    if a.is_zero():
        return b, ring.zero(), ring.one()
    if b.is_zero():
        return a, ring.one(), ring.zero()
    if a.is_constant():
        return ring.one(), ring.const(1 / a.as_constant()), ring.zero()
    if b.is_constant():
        return ring.one(), ring.zero(), ring.const(1 / b.as_constant())
    return extended_euclid(a, b)


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


def _find_syzygy(D):
    """(a, b, c) in R^3, not all zero, gcd a unit, with sum a_i*DX_i = 0."""
    ring = D.ring
    for bound in range(DEFAULT_SYZYGY_BOUND + 1):
        monos = slice_basis(ring, bound, 0).monomials
        unknowns = [(vi, m) for vi in range(3) for m in monos]
        basis = _Combinations.of_polynomials(
            unknowns, [m * D.images[vi] for vi, m in unknowns]).relations()
        if not basis:
            continue
        coeffs = basis[0]
        nonzero = [p for p in coeffs if not p.is_zero()]
        g = multivariate_gcd(nonzero)
        coeffs = [
            p if p.is_zero() else divide_exact(p, g) for p in coeffs
        ]
        first = next(p for p in coeffs if not p.is_zero())
        if first.leading()[1] < 0:
            coeffs = [-p for p in coeffs]
        return coeffs
    raise PlinthError(
        "no R-linear relation among the images within degree %d" % DEFAULT_SYZYGY_BOUND
    )


def nice3var_reduce(D, rep):
    """Reduce a nice irreducible 3-variable derivation over Q or Q[t] to a
    nice 2-variable derivation over the enlarged coefficient ring R[U];
    rep is classify(D).

    Finds a syzygy a*DX + b*DY + c*DZ = 0, completes (a,b,c) to a
    determinant-1 matrix over R via Bezout identities, and rewrites D in the
    coordinates (U,V,W) = M(X,Y,Z).  Returns the reduction together with the
    kernel generators (U, g*V - f*W).
    """
    ring = D.ring
    if ring.nvars != 3:
        raise PlinthError("nice3var_reduce needs three main variables")
    if ring.nparams > 1:
        raise PlinthError("nice3var_reduce needs a coefficient ring Q or Q[t]")
    if rep.lnd is not True or len(rep.nice_set) != 3:
        raise PlinthError("nice3var_reduce needs a nice derivation")
    if not rep.irreducible:
        raise PlinthError("derivation is not irreducible")
    a, b, c = _find_syzygy(D)

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
    inv = _adjugate3(M)  # M * inv = det(M) * I
    if sum((M[0][j] * inv[j][0] for j in range(3)), zero) != one:
        raise PlinthError("syzygy completion failed: determinant is not 1")

    xs = [ring.gen(v) for v in ring.vars]
    coords = tuple(
        sum((M[i][j] * xs[j] for j in range(3)), zero) for i in range(3)
    )
    U, V, W = coords

    un, vn, wn = _fresh_names(("U", "V", "W"), ring.names)
    big = ring.extend((un, vn, wn))
    new_coords = [big.gen(n) for n in (un, vn, wn)]

    # X_j = sum_i inv[j][i] * (U, V, W)_i
    replacements = [(var, sum((embed(inv[j][i], big) * new_coords[i] for i in range(3)),
                              big.zero()))
                    for j, var in enumerate(ring.vars)]

    def rewrite(p):
        q = embed(p, big)
        for var, repl in replacements:
            q = substitute(q, var, repl)
        return q

    new_ring = PolyRing(ring.params + (un,), (vn, wn))
    images = []
    for coord in (V, W):
        img = rewrite(apply(D, coord))  # every X_i is substituted away
        if img.involves(vn) or img.involves(wn):
            raise PlinthError("reduced image %s does not lie in R[%s]" % (img, un))
        images.append(restrict(img, new_ring))
    f, g = images
    if not multivariate_gcd([p for p in images if not p.is_zero()]).is_constant():
        raise PlinthError("reduced images share a non-unit factor over R[%s]" % un)
    reduced = Derivation(new_ring, images)

    red = ThreeVarReduction(M, new_ring, big, reduced, coords)
    red.images = (red.to_original(f), red.to_original(g))
    kern2 = red.images[1] * V - red.images[0] * W
    for cand in (U, kern2):
        if not apply(D, cand).is_zero():
            raise CertificateError("%s is not a kernel element" % cand)
    red.kernel = (U, kern2)
    return red


# ---------------------------------------------------------------------------
# the image-ideal dispatcher


def image_ideal(D, j, factored_b=None, bounds=(3, 3), entry_cap=DEFAULT_ENTRY_CAP):
    """Generators of I_j with theorem tag and machine-checked certificates.

    Dispatch: a slice gives I_j = A (X/DX for one variable, X_1/DX_1 for a
    unit DX_1, alpha_1*X_1 + alpha_2*X_2 from the Bezout cofactors of a fixed
    point free nice pair); nice 2-variable not fixed point free gives the
    j+1 products f1^i1 * f2^i2 with explicit preimages; strictly
    1-quasi-nice over Q[t] gives the principal ideal (prod of non-free
    primes)^m with m = min_exponent(j, d); nice 3-variable over Q[t] reduces
    and reuses the nice branch.  Anything with an unconfirmed hypothesis returns the
    bounded oracle approximation (slice bounds, entry cap) tagged
    oracle-only.  To answer several j for one D, keep one Analysis instead.
    """
    return Analysis(D, factored_b).image_ideal(j, bounds, entry_cap)


class Analysis:
    """The j-independent facts about D and a declared factorization of DX_1,
    each worked out on first use and kept (one that raises, raises again on
    the next use).  It is the one place the structure of D is decided: check
    prints fixed_point_free, kernel prints kernel, and image_ideal runs the
    branch.

    branch is (fixed_point_free, step), decided once: True with the slice
    step, False with the step of a nice power (inice, pid-3var), for a
    strictly quasi-nice D whether every localized check holds, with its
    step; step is j >= 1 -> a fresh result.  Where no formula applies it is
    (None, the reason), and the oracle answers instead.  A step's top-degree
    certificate is a closed form of the facts that decided its branch."""

    def __init__(self, D, factored_b):
        self.D = D
        self.factored_b = factored_b

    @cached_property
    def report(self):
        return classify(self.D)

    def _require_formula_input(self):
        """The formulas need D irreducible and not known to be non-nilpotent."""
        rep = self.report
        if rep.lnd is False:
            raise PlinthError("D is not locally nilpotent")
        if not rep.irreducible:
            raise PlinthError(
                "D is not irreducible: the images share the non-unit factor %s"
                % rep.content
            )

    @cached_property
    def branch(self):
        self._require_formula_input()
        return _branch(self)

    @property
    def fixed_point_free(self):
        """(DB)B = B: True, False, or None when undecided (branch[1] says
        why).  A reducible D is not: its images share a non-unit c, so DB
        lies in cB."""
        return self.report.irreducible and self.branch[0]

    @cached_property
    def reduction(self):
        return nice3var_reduce(self.D, self.report)

    @cached_property
    def kernel(self):
        """The generators of Ker(D) over R as a tuple, each re-checked to be
        killed by D: () for one variable; (g,) for two, g = (DX_2)X_1 -
        (DX_1)X_2 for a nice D with images in R and g = b*X_2 + f(X_1) for a
        quasi-nice one, b = DX_1 and f the primitive of -DX_2; (U, g*V - f*W)
        from the 3-variable reduction.  A locally nilpotent D = c*D0, c the
        content, has Ker(D) = Ker(D0), so a reducible one gets D0's kernel."""
        D, rep = self.D, self.report
        ring = D.ring
        if rep.lnd is True and not rep.irreducible:
            D0 = Derivation(ring, [divide_exact(i, rep.content) for i in D.images])
            gens = Analysis(D0, None).kernel
            for g in gens:
                if not apply(D, g).is_zero():
                    raise CertificateError("kernel generator %s is not killed by D" % g)
            return gens
        if ring.nvars == 1:
            # DX lies in R for any locally nilpotent D, so Ker(D) = R
            if rep.lnd is not True or D.images[0].var_degree() > 0:
                raise PlinthError("single-variable derivation is not locally nilpotent")
            return ()
        if ring.nvars == 3:
            return self.reduction.kernel
        if ring.nvars != 2:
            raise PlinthError("kernel generators are known for 1 to 3 variables only")
        x1, x2 = (ring.gen(v) for v in ring.vars)
        if rep.nice_pair is not None:
            g = D.images[1] * x1 - D.images[0] * x2
        elif rep.quasi is not None:
            q = rep.quasi
            g = q.b * ring.gen(ring.vars[q.other]) + q.f
        else:
            raise PlinthError("the kernel needs a nice or quasi-nice 2-variable derivation")
        if not apply(D, g).is_zero():
            raise CertificateError("kernel candidate %s is not killed by D" % g)
        return (g,)

    def image_ideal(self, j, bounds, entry_cap):
        """image_ideal(D, j, factored_b, bounds, entry_cap) from this analysis."""
        if not isinstance(j, int) or j < 0:
            raise PlinthError("image_ideal needs a natural n")
        self._require_formula_input()
        D = self.D
        if j == 0:
            return ImageIdealResult(
                n=0,
                generators=[D.ring.one()],
                theorem="trivial",
                certificate=TheoremCertificate(irreducible=True),
                preimages=[D.ring.one()],
                notes=["I_0 = A by definition"],
            )
        fpf, step = self.branch
        if fpf is not None:
            return step(j)
        # no formula applies: step is the reason, and the oracle answers
        res = ImageIdealResult(
            n=j,
            generators=[],
            theorem="oracle-only",
            certificate=TheoremCertificate(irreducible=True, notes=[step]),
            notes=[step, "bounded lower approximation of I_j; not a certified basis"],
        )
        try:
            slc = slice_basis(D.ring, bounds[0], bounds[1])
            res.generators = kernel_and_image_basis(D, j, slc, entry_cap)
        except OracleCapError as err:
            res.notes.append("oracle run hit the entry cap: %s" % err)
        return res


def _branch(an):
    """Analysis.branch of an irreducible D not known to be non-nilpotent."""
    D, rep = an.D, an.report
    ring = D.ring
    if rep.lnd is None:
        return None, "local nilpotence unconfirmed (cap)"

    if ring.nvars == 1:
        # irreducible single-variable case: DX is a rational unit
        return _slice_step(D, ring.gen(ring.vars[0]) * (1 / D.images[0].as_constant()))

    if ring.nvars == 2:
        if rep.nice_pair is not None:
            return _nice_branch(
                an, nice_fixed_point_free(D.images),
                "fixed-point-freeness undetermined within bounds",
                "inice", D.images, tuple(ring.gen(v) for v in ring.vars), (ring,) + D.images, ())
        if rep.quasi is not None:
            return _quasi_branch(an)
        return None, "unstructured 2-variable derivation"

    if ring.nvars == 3 and ring.nparams <= 1 and len(rep.nice_set) == 3:
        return _pid3var_branch(an)

    return None, "no formula branch for %d variables over %d parameters" % (
        ring.nvars, ring.nparams)


def _slice_step(D, s):
    """The slice branch, once Ds = 1 is re-checked: I_j = A.  Each slice
    comes from a Bezout identity of images, a unit DX alone for X/DX."""
    if apply(D, s) != D.ring.one():
        raise CertificateError("Bezout slice %s fails its re-check" % s)
    return True, partial(_slice_result, D, s)


def _nice_branch(an, cofactors, undetermined, theorem, images, preimages, graded_on, notes):
    """The tail of every nice branch, on nice_fixed_point_free of the images
    f1, f2 with D p1 = f1, D p2 = f2: cofactors alpha1, alpha2 give the slice
    alpha1*p1 + alpha2*p2, False gives I_j = (f1, f2)^j with preimages
    p1^i1 * p2^i2, and None gives the oracle.  graded_on = (ring, f1, f2) is
    the nice 2-variable problem the top-degree certificate is taken on, with
    kernel generator f2*X1 - f1*X2: its top part is f1*X2 - f2*X1, prime as
    f1 and f2 are coprime.  Like the quasi branch's, it is built on the
    step's first call, as check prints no certificate.  The step reads the
    powers of f1, f2, p1 and p2 from tables it shares across every j."""
    if cofactors:
        (a1, a2), (p1, p2) = cofactors, preimages
        return _slice_step(an.D, a1 * p1 + a2 * p2)
    if cofactors is False:
        ring, f1, f2 = graded_on
        x1, x2 = (ring.gen(v) for v in ring.vars)
        graded = cache(partial(_top_degree_certificate, ring, ring.vars, f1 * x2 - f2 * x1, True))
        powers = tuple(_Powers(p) for p in images + preimages)
        return False, partial(_nice_power_result, an.D, powers, theorem, graded, notes)
    return None, undetermined


class _Powers:
    """p**0, p**1, ... of one polynomial p, each built once, by one
    multiplication from the one before."""

    def __init__(self, p):
        self.p = p
        self.table = [p.ring.one()]

    def __getitem__(self, i):
        while len(self.table) <= i:
            self.table.append(self.table[-1] * self.p)
        return self.table[i]


def _quasi_branch(an):
    D, q = an.D, an.report.quasi
    ring = D.ring
    dec = strictness_decompose(D, an.report)
    if dec.verdict == "slice":
        return _slice_step(D, ring.gen(ring.vars[q.pivot]) * (1 / q.b.as_constant()))
    if dec.verdict == "nice-able":
        # in the coordinates (X_1, X_2 + v) the derivation is nice
        newc = dec.new_coordinate
        f2 = dec.new_image
        return _nice_branch(
            an, nice_fixed_point_free((q.b, f2)),
            "fixed-point-freeness undetermined within bounds", "inice",
            (q.b, f2), (ring.gen(ring.vars[q.pivot]), newc), (ring, q.b, f2),
            ["after the coordinate change %s -> %s" % (ring.vars[q.other], newc)])
    if dec.heuristic:
        return None, "strictness undetermined: " + "; ".join(dec.notes)
    # localized fixed-point-freeness per prime factor of b
    if an.factored_b is None:
        if irreducible_smalldeg(q.b) is True:
            primes = [(q.b, 1, True)]
            theorem = "2varquasi"
        else:
            raise PlinthError(
                "a factorization of DX_1 = %s into irreducibles is required "
                "(give it as factor lines, or pass factored_b)" % q.b
            )
    else:
        primes = _validate_factored_b(q.b, an.factored_b)
        theorem = "2varquasi_PID"
    localized = [(p, r, localized_fpf(D, an.report, p)) for p, r, _ in primes]
    graded = cache(partial(_quasi_top_degree_certificate, ring, q))
    return (all(ok for _, _, ok in localized),
            partial(_quasi_result, ring, q.d, theorem, localized, graded, dec.notes))


def _quasi_top_degree_certificate(ring, q):
    """_top_degree_certificate of the quasi branch."""
    x1, x2 = ring.vars[q.pivot], ring.vars[q.other]
    c_d = q.f.coefficient_of(x1, q.d)
    return _top_degree_certificate(ring, (x1,), -(q.b * ring.gen(x2) + c_d * ring.gen(x1) ** q.d),
                                   multivariate_gcd([q.b, c_d]).is_constant())


def _pid3var_branch(an):
    try:
        red = an.reduction
    except PlinthError as err:
        return None, "3-variable reduction failed: %s" % err
    f, g = red.reduced.images
    U, V, W = red.coords
    cofactors = nice_fixed_point_free((f, g))
    if cofactors:  # over R[U], so mapped back
        cofactors = tuple(map(red.to_original, cofactors))
    # the graded certificate lives on the reduced 2-variable problem
    return _nice_branch(
        an, cofactors,
        "fixed-point-freeness of the reduction undetermined", "pid-3var",
        red.images, (V, W), (red.new_ring, f, g),
        ["coordinates U=%s, V=%s, W=%s; A = R[U, %s]" % (U, V, W, red.kernel[1])])


def _slice_result(D, s, j):
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
    )


def _nice_power_result(D, powers, theorem, graded, notes, j):
    """I_j = (f1, f2)^j with preimages p1^i1 * p2^i2; D p1 = f1, D p2 = f2,
    both f's kernel elements, so D^j(p1^i1 p2^i2) = j! f1^i1 f2^i2 when
    i1 + i2 = j (every surviving term of the product rule differentiates
    each factor exactly once).  powers are the _Powers of f1, f2, p1, p2."""
    f1, f2, p1, p2 = powers
    gens, pres = [], []
    for i2 in range(j + 1):
        i1 = j - i2
        gen = f1[i1] * f2[i2]
        pre = p1[i1] * p2[i2]
        if iterate(D, pre, j) != factorial(j) * gen:
            raise CertificateError("preimage identity failed for %s" % gen)
        if not apply(D, gen).is_zero():
            raise CertificateError("generator %s is not in Ker(D)" % gen)
        gens.append(gen)
        pres.append(pre)
    hypotheses, td_gens, prime = graded()
    cert = TheoremCertificate(
        irreducible=True,
        fixed_point_free=False,
        top_degree_hypotheses=hypotheses,
        top_degree_generators=td_gens,
        primality=prime,
        notes=list(notes),
    )
    return ImageIdealResult(
        n=j,
        generators=gens,
        theorem=theorem,
        certificate=cert,
        preimages=pres,
    )


def _quasi_result(ring, d, theorem, localized, graded, strictness_notes, j):
    """I_j = (product of p^r over the primes p | DX_1 at which D does not
    stay fixed point free)^m with m = min_exponent(j, d)."""
    m = min_exponent(j, d)
    bad = [(p, r) for p, r, ok in localized if not ok]
    gen = ring.one()
    for p, r in bad:
        gen = gen * p**r
    gen = gen**m
    notes = []
    if not bad:
        notes.append("every localized derivation is fixed point free; I_j = A")
    hypotheses, td_gens, prime = graded()
    if prime is False:
        notes.append(
            "the literal top-degree ideal is not prime (the top part of f is "
            "not the whole of f); the generator formula rests on the "
            "localized fixed-point-freeness checks instead"
        )
    cert = TheoremCertificate(
        irreducible=True,
        fixed_point_free=not bad,
        top_degree_hypotheses=hypotheses,
        top_degree_generators=td_gens,
        primality=prime,
        strictness="strictly-1-quasi",
        localized=list(localized),
        notes=list(strictness_notes),
    )
    return ImageIdealResult(
        n=j,
        generators=[gen],
        theorem=theorem,
        certificate=cert,
        m=m,
        notes=notes,
    )
