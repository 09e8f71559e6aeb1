"""Weighted degree maps, the top-degree-part (tilde) operator, the
top-degree ideal of the one shape the generator formulas are certified on,
(S_i - X_i ..., Z - k) with fresh slice variables S_i and Z, and the sound
partial primality check of what is left once the X_i are eliminated."""

from .polyring import (
    FIELD_MASK,
    CertificateError,
    MultiPoly,
    PlinthError,
    RingMismatchError,
    divide_exact,
    ExactDivisionError,
    multivariate_gcd,
    partial_derivative,
    substitute,
)

MINUS_INF = float("-inf")


class WeightedDegree:
    """A weighted degree map: natural weights on variables, 0 on parameters."""

    __slots__ = ("ring", "weights", "_fields")

    def __init__(self, ring, weights):
        ws = {}
        for name in ring.params:
            if weights.get(name, 0) != 0:
                raise PlinthError("coefficient parameters must have weight 0")
            ws[name] = 0
        for name in ring.vars:
            if name not in weights:
                raise PlinthError("missing weight for variable %r" % name)
            w = weights[name]
            if not isinstance(w, int) or w < 0:
                raise PlinthError("weights must be naturals, got %r for %r" % (w, name))
            ws[name] = w
        self.ring = ring
        self.weights = ws
        self._fields = [(s, ws[name]) for name, s in zip(ring.names, ring._shifts) if ws[name]]

    def of_monomial(self, key):
        return sum(w * (key >> s & FIELD_MASK) for s, w in self._fields)


def wdeg_and_tilde(wd, p):
    """(weighted degree, sum of the maximal-weight monomials); (-inf, 0) at 0."""
    if p.ring != wd.ring:
        raise RingMismatchError("wdeg_and_tilde ring mismatch")
    if p.is_zero():
        return MINUS_INF, p
    best = max(wd.of_monomial(e) for e in p.nums)
    top = {e: c for e, c in p.nums.items() if wd.of_monomial(e) == best}
    return best, MultiPoly._of(p.ring, top, p.den)


def top_degree_ideal(wd, slices, z, k):
    """The top-degree ideal of (S_i - X_i ..., Z - k), for slices the name
    pairs (X_i, S_i) of wd.ring with S_i of X_i's weight and z a name of
    weight 0.  The S_i - X_i are homogeneous, so it is generated by them and
    tilde(Z - k), provided that tilde is a non-zerodivisor modulo them:
    its image under X_i -> S_i, the residual, is checked nonzero.  Returns
    (generators, residual)."""
    ring = wd.ring
    _, top = wdeg_and_tilde(wd, ring.gen(z) - k)
    residual = top
    for x, s in slices:
        residual = substitute(residual, x, ring.gen(s))
    if residual.is_zero():
        raise CertificateError("tilde(%s - %s) vanishes modulo the slice generators" % (z, k))
    return [ring.gen(s) - ring.gen(x) for x, s in slices] + [top], residual


def _square_factor_probe(h):
    """A visible repeated factor of h (via gcd with its partials), or None."""
    parts = [h]
    for name in h.ring.names:
        d = partial_derivative(h, name)
        if not d.is_zero():
            parts.append(d)
    if len(parts) == 1:
        return None
    g = multivariate_gcd(parts)
    if g.is_constant():
        return None
    try:
        q = divide_exact(h, g * g)
        return g
    except ExactDivisionError:
        return None


def prime_after_elimination(h):
    """Sound partial primality test for (S_i - X_i ..., h) with h the
    nonzero residual of top_degree_ideal, in which no X_i occurs: the
    S_i - X_i eliminate the X_i, leaving the principal ideal (h).

    h is accepted first when it is linear in some variable V, h = c*V + r
    with gcd(c, r) a unit (with r = 0, c itself a unit), as a primitive
    linear polynomial is irreducible; only when that fails are the content
    gcds and the square-factor probe run, which reject it on a visible
    factorization; otherwise the answer is 'unknown'."""
    ring = h.ring
    if h.is_constant():
        return False  # unit ideal
    # linear-in-a-variable criterion; gcd(c, 0) is c
    for name in ring.names:
        if h.degree_in(name) == 1:
            c = h.coefficient_of(name, 1)
            r = h.coefficient_of(name, 0)
            if multivariate_gcd([c, r]).is_constant():
                return True
    # visible factorizations
    for name in ring.names:
        deg = h.degree_in(name)
        if deg == MINUS_INF or deg < 1:
            continue
        coeffs = [h.coefficient_of(name, k) for k in range(int(deg) + 1)]
        coeffs = [c for c in coeffs if not c.is_zero()]
        content = multivariate_gcd(coeffs)
        if not content.is_constant():
            return False
    if _square_factor_probe(h) is not None:
        return False
    return None
