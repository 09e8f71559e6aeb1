"""R-derivations on Q[params][vars] given by their images on the main
variables, with local-nilpotence / irreducibility checks and structural
classification (nice / quasi-nice) plus the fixed-point-freeness tests the
image-ideal branches run: the unit ideal of a nice pair, and the localized
check at a prime factor of DX_1 of a quasi-nice derivation."""

from functools import lru_cache
from math import lcm

from .polyring import (
    FIELD_MASK,
    CertificateError,
    MultiPoly,
    PlinthError,
    RingMismatchError,
    divides,
    extended_euclid,
    irreducible_smalldeg,
    multivariate_gcd,
    reduce_mod_prime,
)


class UnsupportedStructureError(PlinthError):
    """The derivation does not have a structure this operation handles."""


MINUS_INF = float("-inf")


class _Overflow:
    def __repr__(self):
        return "overflow"


OVERFLOW = _Overflow()

DEFAULT_CAP = 64
DEFAULT_BEZOUT_BOUND = 6


class Derivation:
    """An R-derivation D with D(param) = 0 and D(X_i) = images[i]."""

    __slots__ = ("ring", "images")

    def __init__(self, ring, images):
        images = tuple(images)
        if len(images) != ring.nvars:
            raise PlinthError(
                "need one image per main variable (%d), got %d"
                % (ring.nvars, len(images))
            )
        for img in images:
            if img.ring != ring:
                raise RingMismatchError("derivation image ring mismatch")
        if all(img.is_zero() for img in images):
            raise PlinthError("the zero derivation is not supported")
        self.ring = ring
        self.images = images

    def __repr__(self):
        body = ", ".join(
            "D%s=%s" % (v, img) for v, img in zip(self.ring.vars, self.images)
        )
        return "<Derivation %s>" % body


def apply(D, f):
    """Df = sum_i (DX_i) * df/dX_i; kills all coefficient parameters.

    One pass over integer numerators, all over one common denominator: the
    term c*X^e of f contributes e_i * c * (DX_i) * X^(e - unit_i) for each
    main variable X_i in it, at the key of e plus a delta of _columns.
    """
    if f.ring is not D.ring and f.ring != D.ring:
        raise RingMismatchError("apply: polynomial ring mismatch")
    terms = f.nums.items()
    iden, columns = _columns(D)
    acc = {}
    get = acc.get
    for s, img in columns:
        for e1, c1 in terms:
            k = e1 >> s & FIELD_MASK
            if k:
                c1 *= k
                for d, c2 in img:
                    e = e1 + d
                    acc[e] = get(e, 0) + c1 * c2
    if acc:
        D.ring.check_degree(max(acc))
    return MultiPoly._of(D.ring, acc, f.den * iden)


@lru_cache(maxsize=1)
def _columns(D):
    """(iden, [(shift, terms)]) for apply and for the oracle's D on
    monomials: per main variable with a nonzero image, the offset of its
    field in a key and the terms of its image as integers over the common
    denominator iden, each key minus the variable's key.  Only the last
    derivation's columns are kept, so a Derivation carries nothing extra."""
    iden = lcm(*[img.den for img in D.images])
    ring = D.ring
    return iden, [(ring._shifts[pos], [(k - ring._units[pos], c * (iden // img.den))
                                       for k, c in img.nums.items()])
                  for pos, img in enumerate(D.images, ring.nparams) if img.nums]


def iterate(D, f, n):
    if not isinstance(n, int) or n < 0:
        raise PlinthError("iterate takes a natural exponent")
    for _ in range(n):
        if f.is_zero():
            break
        f = apply(D, f)
    return f


def _deg_with_status(D, f):
    """(degree, 'finite') or (None, 'overflow'|'cycle')."""
    if f.is_zero():
        return MINUS_INF, "finite"
    seen = {f}
    cur = f
    for n in range(DEFAULT_CAP + 1):
        nxt = apply(D, cur)
        if nxt.is_zero():
            return n, "finite"
        # Dg = c*g for a constant c != 0 means g is never killed
        if _is_scalar_multiple(nxt, cur):
            return None, "cycle"
        if nxt in seen:
            return None, "cycle"
        seen.add(nxt)
        cur = nxt
    return None, "overflow"


def _is_scalar_multiple(f, g):
    """f = c*g for a rational c != 0: the numerators are proportional."""
    a, b = f.nums, g.nums
    if not a or a.keys() != b.keys():
        return False
    e = next(iter(a))
    p, q = a[e], b[e]
    return all(c * q == b[k] * p for k, c in a.items())


class QuasiData:
    """Extracted shape of a 1-quasi-nice 2-variable derivation.

    pivot is the index of the variable playing X_1 (D^2 pivot = 0,
    D pivot in R); b = D(pivot); f is the primitive of -D(other) with
    f(0) = 0, so D(other) = -f'(pivot).
    """

    def __init__(self, pivot, other, b, f, d):
        self.pivot, self.other, self.b, self.f, self.d = pivot, other, b, f, d


class StructureReport:
    def __init__(self, lnd, degrees, content, nice_set, classification, quasi=None,
                 nice_pair=None, notes=None):
        self.lnd = lnd
        self.degrees = degrees
        self.content = content  # the gcd of the nonzero images
        self.irreducible = content.is_constant()
        self.nice_set = nice_set
        self.classification = classification
        self.quasi = quasi
        self.nice_pair = nice_pair  # (b, a) with D = b d/dX - a d/dY
        self.notes = [] if notes is None else notes


def classify(D):
    ring = D.ring
    degrees = []
    lnd = True
    notes = []
    for var in ring.vars:
        value, status = _deg_with_status(D, ring.gen(var))
        if status == "finite":
            degrees.append(value)
        elif status == "cycle":
            degrees.append(OVERFLOW)
            lnd = False
            notes.append("D is not locally nilpotent: iterates of %s recur" % var)
        else:
            degrees.append(OVERFLOW)
            if lnd is True:
                lnd = None
                notes.append("iteration cap %d reached on %s" % (DEFAULT_CAP, var))
    # D(DX_i) == 0 exactly when deg_D(X_i) <= 1
    nice_set = frozenset(i for i, d in enumerate(degrees) if d is not OVERFLOW and d <= 1)

    classification = "other"
    quasi = None
    nice_pair = None
    if lnd is True:
        if len(nice_set) == ring.nvars:
            classification = "nice"
            if ring.nvars == 2 and all(_in_R(img) for img in D.images):
                nice_pair = (D.images[0], -D.images[1])
        elif ring.nvars == 2:
            quasi = _extract_quasi(D, nice_set)
            if quasi is not None:
                classification = "quasi-nice"
    return StructureReport(
        lnd=lnd,
        degrees=tuple(degrees),
        content=multivariate_gcd([i for i in D.images if not i.is_zero()]),
        nice_set=nice_set,
        classification=classification,
        quasi=quasi,
        nice_pair=nice_pair,
        notes=notes,
    )


def _in_R(f):
    return f.var_degree() <= 0


def _in_R_of(f, var):
    """f in R[var]: no main variable other than var occurs."""
    ring = f.ring
    s = ring._shifts[ring.index(var)]
    return all(ring.degrees(k)[1] == k >> s & FIELD_MASK for k in f.nums)


def _extract_quasi(D, nice_set):
    ring = D.ring
    for pivot in sorted(nice_set):
        other = 1 - pivot
        b = D.images[pivot]
        if not _in_R(b) or b.is_zero():
            continue
        g = D.images[other]
        xvar = ring.vars[pivot]
        if not _in_R_of(g, xvar):
            continue
        # f = -integral of DX_2 dX_1, normalized with f(0) = 0: the term
        # c*X_1^k becomes -c/(k+1) * X_1^(k+1), over den * lcm of the k+1
        xi = ring.index(xvar)
        s, unit = ring._shifts[xi], ring._units[xi]
        scale = lcm(*[(e >> s & FIELD_MASK) + 1 for e in g.nums])
        f = MultiPoly._of(ring, {e + unit: -c * (scale // ((e >> s & FIELD_MASK) + 1))
                                 for e, c in g.nums.items()}, g.den * scale)
        ring.check_degree(max(f.nums, default=0))
        d = f.degree_in(xvar)
        if d == MINUS_INF:
            d = 0
        return QuasiData(pivot=pivot, other=other, b=b, f=f, d=int(d))
    return None


def _validate_factored_b(b, factored_b):
    """factored_b: list of (prime, multiplicity[, asserted]) matching b up to
    a rational unit."""
    if not factored_b:
        raise PlinthError("a factorization of DX_1 is required here")
    prod = b.ring.one()
    primes = []
    for entry in factored_b:
        p, mult = entry[0], entry[1]
        asserted = entry[2] if len(entry) > 2 else False
        status = irreducible_smalldeg(p)
        if status is False:
            raise PlinthError("declared prime %s is reducible" % p)
        if status is None and not asserted:
            raise PlinthError(
                "cannot certify irreducibility of %s (degree >= 4); "
                "pass assert-irreducible to accept it" % p
            )
        primes.append((p, mult, status is True))
        prod = prod * p**mult
    if not _is_scalar_multiple(b, prod):
        raise PlinthError("declared factorization does not multiply to DX_1")
    return primes


def localized_fpf(D, rep, p):
    """Whether the derivation stays fixed point free after localizing the
    coefficient ring at the prime p | DX_1 (quasi-nice 2-var over Q[t]);
    rep is classify(D)."""
    if rep.quasi is None:
        raise UnsupportedStructureError("localized_fpf needs a quasi-nice 2-var derivation")
    q = rep.quasi
    if not divides(p, q.b):
        raise PlinthError("%s does not divide DX_1 = %s" % (p, q.b))
    fprime = -D.images[q.other]
    red = reduce_mod_prime(fprime, p)
    return (not red.is_zero()) and _in_R(red)


def _bounded_bezout(images):
    """Search cofactors alpha_i in R (total degree <= DEFAULT_BEZOUT_BOUND) with
    sum alpha_i * images_i = 1.  One elimination, one pass: the columns
    m * images_i come image by image, each by ascending degree of m and built
    when the elimination reaches it, and the search stops at the first
    column that brings 1 into their span (oracle._Combinations.solve_first).
    Interleaving the images by degree stops sooner but makes the pass
    without a certificate slower.  Returns the cofactors, or None on failure."""
    from .oracle import _Combinations, slice_basis  # oracle imports this module

    ring = images[0].ring
    monos = slice_basis(ring, DEFAULT_BEZOUT_BOUND, 0).monomials  # ascending degree
    unknowns = [(i, m) for i in range(len(images)) for m in monos]
    system = _Combinations(unknowns, den=lcm(*(f.den for f in images)))
    return system.solve_first(ring.one(), (m * images[i] for i, m in unknowns))


def nice_fixed_point_free(images):
    """(DB)B = B for a nice derivation whose images f_1, f_2, not both zero,
    lie in R: the images must generate the unit ideal of R.  Returns the
    cofactors (alpha_1, alpha_2) with alpha_1*f_1 + alpha_2*f_2 = 1, re-checked
    by polynomial arithmetic, when they do; then alpha_1*X_1 + alpha_2*X_2 is
    a slice.  Returns False when they provably do not, None when undecided.
    Over Q the images are rationals and one nonzero image is inverted; over
    Q[t], a PID, the extended Euclidean algorithm decides.  Over more
    parameters a common zero at the origin, tested first as the cheaper, or
    a non-unit gcd is a sound no, a bounded Bezout certificate a sound yes."""
    f1, f2 = images
    ring = f1.ring
    if ring.nparams == 0:
        alphas = ((ring.zero(), ring.const(1 / f2.as_constant())) if f2.nums
                  else (ring.const(1 / f1.as_constant()), ring.zero()))
    elif ring.nparams == 1:
        g, *alphas = extended_euclid(f1, f2)  # a unit gcd is normalized to 1
        if not g.is_constant():
            return False
    else:
        nonzero = [f for f in images if f.nums]
        if (all(f.constant_term() == 0 for f in nonzero)
                or not multivariate_gcd(nonzero).is_constant()):
            return False
        alphas = _bounded_bezout(images)
        if alphas is None:
            return None
    if alphas[0] * f1 + alphas[1] * f2 != ring.one():
        raise CertificateError("Bezout cofactors of %s fail their re-check"
                               % ", ".join(map(str, images)))
    return tuple(alphas)
