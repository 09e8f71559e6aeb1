"""Weighted degree maps, the top-degree-part (tilde) operator, and the
sound partial primality check for top-degree ideals."""

from .polyring import (
    FIELD_MASK,
    IdealPresentation,
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


class HypothesisError(PlinthError):
    """A machine-checked hypothesis of a graded statement failed."""


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


class TopDegreeCertificate:
    """What was machine-checked while forming the top-degree ideal."""

    def __init__(self, homogeneous_checked, nonzerodivisor, notes=None):
        self.homogeneous_checked = homogeneous_checked
        self.nonzerodivisor = nonzerodivisor
        self.notes = [] if notes is None else notes


def _substitution_shape(f):
    """(V, g) when f = c*(V - g) with c a rational unit and V absent from g."""
    ring = f.ring
    for name in ring.names:
        i = ring.index(name)
        if f.degree_in(name) != 1:
            continue
        c = f.coefficient_of(name, 1)
        if not c.is_constant():
            continue
        rest = f.coefficient_of(name, 0)
        # f = c*V + rest, V not in rest by construction
        g = rest * (-1 / c.as_constant())
        yield name, g


def _toposort_substitutions(gens):
    """Order substitution generators so each V is eliminated before it is
    used; returns list of (V, g) or None when no acyclic assignment exists."""
    choices = []
    for f in gens:
        opts = list(_substitution_shape(f))
        if not opts:
            return None
        choices.append(opts)
    # greedy: repeatedly pick a generator whose V occurs in no other pending g
    pending = list(range(len(gens)))
    assigned = []
    used_vs = set()
    while pending:
        progress = False
        for idx in list(pending):
            for v, g in choices[idx]:
                if v in used_vs:
                    continue
                others = [j for j in pending if j != idx]
                if any(gens[j].involves(v) for j in others):
                    continue
                assigned.append((v, g))
                used_vs.add(v)
                pending.remove(idx)
                progress = True
                break
            if progress:
                break
        if not progress:
            return None
    # eliminate in reverse pick order so later-picked V's are substituted first
    return list(reversed(assigned))


def top_degree_ideal(wd, gens):
    """Generators of the top-degree ideal of (gens) when the hypotheses hold:
    all but the last generator tilde-fixed, and the last one's tilde a
    non-zerodivisor modulo the others (machine-checked in the substitution
    case only).  Returns (IdealPresentation, TopDegreeCertificate)."""
    gens = list(gens)
    if not gens:
        raise PlinthError("top_degree_ideal of an empty list")
    ring = gens[0].ring
    homogeneous = []
    for i, f in enumerate(gens[:-1]):
        _, tf = wdeg_and_tilde(wd, f)
        if tf != f:
            raise HypothesisError(
                "generator %d is not weight-homogeneous: tilde(%s) = %s" % (i, f, tf)
            )
        homogeneous.append(i)
    last = gens[-1]
    _, tlast = wdeg_and_tilde(wd, last)

    if len(gens) == 1:
        cert = TopDegreeCertificate(
            homogeneous_checked=[],
            nonzerodivisor="trivial (single generator)",
        )
        return IdealPresentation(ring, [tlast]), cert

    subs = _toposort_substitutions(gens[:-1])
    if subs is None:
        raise HypothesisError(
            "non-zerodivisor hypothesis unverifiable: the homogeneous generators "
            "are not in substitution shape"
        )
    reduced = tlast
    for _ in range(len(subs) + 1):
        for v, g in subs:
            if reduced.involves(v):
                reduced = substitute(reduced, v, g)
    if any(reduced.involves(v) for v, _ in subs):
        raise HypothesisError("substitution chain does not terminate")
    if reduced.is_zero():
        raise HypothesisError(
            "tilde of the last generator vanishes modulo the other generators"
        )
    notes = []
    if tlast != last:
        notes.append(
            "last generator was not homogeneous; its top part replaces it"
        )
    cert = TopDegreeCertificate(
        homogeneous_checked=homogeneous,
        nonzerodivisor="verified by substitution (residual image %s != 0)" % reduced,
        notes=notes,
    )
    return IdealPresentation(ring, gens[:-1] + [tlast]), cert


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


def prime_after_elimination(gens):
    """Sound partial primality test for an ideal given by generators.

    Substitution-shaped generators are eliminated.  A single remaining
    generator h is accepted first when it is linear in some variable V,
    h = c*V + r with gcd(c, r) a unit (with r = 0, c itself a unit), as a
    primitive linear polynomial is irreducible; only when that fails are
    the content gcds and the square-factor probe run, which reject it on a
    visible factorization; otherwise the answer is 'unknown'."""
    gens = [g for g in gens]
    ring = gens[0].ring if gens else None
    work = list(gens)
    changed = True
    while changed:
        changed = False
        for idx, f in enumerate(work):
            for v, g in _substitution_shape(f):
                if g.involves(v):
                    continue
                rest = work[:idx] + work[idx + 1 :]
                work = [substitute(h, v, g) for h in rest]
                changed = True
                break
            if changed:
                break
    work = [h for h in work if not h.is_zero()]
    if not work:
        return True  # residual ring is a polynomial ring, zero ideal is prime
    if len(work) > 1:
        return None
    h = work[0]
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
