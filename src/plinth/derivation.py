"""R-derivations on Q[params][vars] given by their images on the main
variables, with local-nilpotence / irreducibility checks and structural
classification (nice / quasi-nice) plus fixed-point-freeness tests."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add as _add
from typing import Optional

from .polyring import (
    MultiPoly,
    PlinthError,
    PolyRing,
    RingMismatchError,
    _numerators,
    _over,
    extended_euclid,
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
    main variable X_i in it.
    """
    if f.ring is not D.ring and f.ring != D.ring:
        raise RingMismatchError("apply: polynomial ring mismatch")
    terms, den = _numerators(f.terms)
    iden, columns = _columns(D)
    acc = {}
    get = acc.get
    for pos, img in columns:
        for e1, c1 in terms:
            k = e1[pos]
            if k:
                c1 *= k
                for e2, c2 in img:
                    e = tuple(map(_add, e1, e2))
                    acc[e] = get(e, 0) + c1 * c2
    return MultiPoly._trusted(D.ring, _over(acc, den * iden))


@lru_cache(maxsize=1)
def _columns(D):
    """(iden, [(pos, terms)]) for apply: per main variable with a nonzero
    image, its position in the exponent vector and the terms of its image
    as integers over the common denominator iden, each exponent vector
    minus the variable's unit vector.  Only the last derivation's columns
    are kept, so a Derivation itself carries nothing extra."""
    images = [_numerators(img.terms) for img in D.images]
    iden = lcm(*[d for _, d in images])
    return iden, [(pos, [(e[:pos] + (e[pos] - 1,) + e[pos + 1:], c * (iden // d))
                         for e, c in img])
                  for pos, (img, d) in enumerate(images, D.ring.nparams) if img]


def iterate(D, f, n):
    if not isinstance(n, int) or n < 0:
        raise PlinthError("iterate takes a natural exponent")
    for _ in range(n):
        if f.is_zero():
            break
        f = apply(D, f)
    return f


def _deg_with_status(D, f, cap):
    """(degree, 'finite') or (None, 'overflow'|'cycle')."""
    if f.is_zero():
        return MINUS_INF, "finite"
    seen = {f}
    cur = f
    for n in range(cap + 1):
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
    if f.terms.keys() != g.terms.keys():
        return False
    ratio = None
    for e, c in f.terms.items():
        r = c / g.terms[e]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return ratio is not None


def deg_d(D, f, cap=DEFAULT_CAP):
    """deg_D(f): least n with D^(n+1) f = 0; MINUS_INF for 0; OVERFLOW at cap."""
    if cap < 1:
        raise PlinthError("cap must be at least 1")
    value, status = _deg_with_status(D, f, cap)
    if status == "finite":
        return value
    return OVERFLOW


@dataclass
class QuasiData:
    """Extracted shape of a 1-quasi-nice 2-variable derivation.

    pivot is the index of the variable playing X_1 (D^2 pivot = 0,
    D pivot in R); b = D(pivot); f is the primitive of -D(other) with
    f(0) = 0, so D(other) = -f'(pivot).
    """

    pivot: int
    other: int
    b: MultiPoly
    f: MultiPoly
    d: int


@dataclass
class StructureReport:
    lnd: Optional[bool]
    degrees: tuple
    irreducible: bool
    nice_set: frozenset
    classification: str
    quasi: Optional[QuasiData] = None
    nice_pair: Optional[tuple] = None  # (b, a) with D = b d/dX - a d/dY
    strict_candidate: bool = False
    notes: list = field(default_factory=list)


def classify(D, cap=DEFAULT_CAP):
    ring = D.ring
    degrees = []
    lnd = True
    notes = []
    for var, img in zip(ring.vars, D.images):
        value, status = _deg_with_status(D, ring.gen(var), cap)
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
                notes.append("iteration cap %d reached on %s" % (cap, var))
    irreducible = multivariate_gcd([i for i in D.images if not i.is_zero()]).is_constant()
    nice_set = frozenset(
        i for i, img in enumerate(D.images) if apply(D, img).is_zero()
    )

    classification = "other"
    quasi = None
    nice_pair = None
    strict_candidate = False
    if lnd is True:
        if len(nice_set) == ring.nvars:
            classification = "nice"
            if ring.nvars == 2 and all(_in_R(img) for img in D.images):
                nice_pair = (D.images[0], -D.images[1])
        elif ring.nvars == 2:
            quasi = _extract_quasi(D, nice_set)
            if quasi is not None:
                classification = "quasi-nice"
                strict_candidate = quasi.d >= 2
    return StructureReport(
        lnd=lnd,
        degrees=tuple(degrees),
        irreducible=irreducible,
        nice_set=nice_set,
        classification=classification,
        quasi=quasi,
        nice_pair=nice_pair,
        strict_candidate=strict_candidate,
        notes=notes,
    )


def _in_R(f):
    return f.var_degree() <= 0


def _in_R_of(f, var):
    """f in R[var]: no main variable other than var occurs."""
    ring = f.ring
    k = ring.nparams
    vi = ring.index(var)
    for exps in f.terms:
        for j in range(k, ring.arity):
            if j != vi and exps[j] > 0:
                return False
    return True


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
        # f = -integral of DX_2 dX_1, normalized with f(0) = 0
        f = ring.zero()
        xi = ring.index(xvar)
        for exps, coeff in g.terms.items():
            e = list(exps)
            e[xi] += 1
            f = f + MultiPoly(ring, {tuple(e): -coeff / e[xi]})
        d = f.degree_in(xvar)
        if d == MINUS_INF:
            d = 0
        return QuasiData(pivot=pivot, other=other, b=b, f=f, d=int(d))
    return None


def verify_kernel_element(D, g):
    return apply(D, g).is_zero()


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
        from .polyring import irreducible_smalldeg

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


def localized_fpf(D, p):
    """Whether the derivation stays fixed point free after localizing the
    coefficient ring at the prime p | DX_1 (quasi-nice 2-var over Q[t])."""
    rep = classify(D)
    if rep.quasi is None:
        raise UnsupportedStructureError("localized_fpf needs a quasi-nice 2-var derivation")
    q = rep.quasi
    from .polyring import divides

    if not divides(p, q.b):
        raise PlinthError("%s does not divide DX_1 = %s" % (p, q.b))
    fprime = -D.images[q.other]
    red = reduce_mod_prime(fprime, p)
    return (not red.is_zero()) and _in_R(red)


def _common_zero_at_origin(polys):
    return all(p.constant_term() == 0 for p in polys)


def _bounded_bezout(images, bound):
    """Search cofactors alpha_i in R (total degree <= bound) with
    sum alpha_i * images_i = 1.  Returns True on success, None on failure."""
    from .oracle import poly_solve  # the oracle module imports this one

    ring = images[0].ring
    monos = _param_monomials(ring, bound)
    col_polys = [MultiPoly(ring, {mono: Fraction(1)}) * img
                 for img in images for mono in monos]
    return True if poly_solve(col_polys, ring.one()) is not None else None


def _param_monomials(ring, bound):
    k = ring.nparams
    monos = []

    def rec(i, remaining, exps):
        if i == k:
            e = [0] * ring.arity
            e[:k] = exps
            monos.append(tuple(e))
            return
        for d in range(remaining + 1):
            rec(i + 1, remaining - d, exps + [d])

    rec(0, bound, [])
    return monos


def is_fixed_point_free(D, factored_b=None, bezout_bound=DEFAULT_BEZOUT_BOUND):
    """(DB)B = B test for the structured 2-variable cases; True/False/None."""
    rep = classify(D)
    ring = D.ring
    if rep.classification == "nice" and rep.nice_pair is not None:
        a_img, b_img = D.images
        k = ring.nparams
        if k == 0:
            return not (a_img.is_zero() and b_img.is_zero())
        if k == 1:
            if a_img.is_zero() or b_img.is_zero():
                nz = b_img if a_img.is_zero() else a_img
                return nz.is_constant()
            g, _, _ = extended_euclid(a_img, b_img)
            return g.is_constant()
        # multi-parameter UFD: sound no via a visible common zero, sound yes
        # via a bounded Bezout certificate, otherwise unknown
        nonzero = [i for i in D.images if not i.is_zero()]
        if not multivariate_gcd(nonzero).is_constant():
            return False
        if _common_zero_at_origin(nonzero):
            return False
        return _bounded_bezout(nonzero, bezout_bound)
    if rep.quasi is not None:
        q = rep.quasi
        if ring.nparams == 0:
            return not q.b.is_zero()
        if q.b.is_constant():
            return True
        if ring.nparams != 1:
            raise UnsupportedStructureError(
                "quasi-nice fixed-point-freeness needs a single-parameter ring"
            )
        primes = _validate_factored_b(q.b, factored_b)
        return all(localized_fpf(D, p) for p, _, _ in primes)
    raise UnsupportedStructureError(
        "fixed-point-freeness is decided only for structured 2-variable derivations"
    )
