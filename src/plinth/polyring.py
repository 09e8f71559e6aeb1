"""Exact sparse multivariate polynomial arithmetic over Q.

Polynomials live in a tower Q[t_1..t_k][X_1..X_n]: the t's are
"coefficient parameters" and the X's are "main variables".  Internally a
polynomial is a map from exponent vectors (length k+n, params first) to
nonzero Fractions.  The term order used everywhere (printing, leading
terms, deterministic pivoting) is graded lex on the combined exponent
vector.
"""

from __future__ import annotations

import string
import weakref
from fractions import Fraction
from math import gcd as _igcd
from math import isqrt as _isqrt
from math import lcm as _ilcm
from operator import add as _add
from operator import sub as _sub


# One shared Fraction for each small integer (a Fraction is immutable).  The
# table is built at import, so it stays small.
_SMALL = {n: Fraction(n) for n in range(-128, 129)}


def _fraction(n, d=1):
    """n/d as a Fraction, for integers n and d > 0; shared when it is a
    small integer."""
    if d != 1:
        g = _igcd(n, d)
        n, d = n // g, d // g
        if d != 1:
            return Fraction(n, d)
    return _SMALL[n] if -128 <= n <= 128 else Fraction(n)


def _numerators(terms):
    """([(exps, int)], den): the coefficients of terms as integers over
    their least common denominator den."""
    den = _ilcm(*[c.denominator for c in terms.values()])
    if den == 1:
        return [(e, c.numerator) for e, c in terms.items()], 1
    return [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()], den


def _over(acc, den):
    """Clean terms {exps: n / den} from integer numerators; zeros dropped."""
    if den == 1:
        small = _SMALL
        return {e: small[n] if -128 <= n <= 128 else Fraction(n)
                for e, n in acc.items() if n}
    return {e: _fraction(n, den) for e, n in acc.items() if n}


class PlinthError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(PlinthError):
    pass


class CertificateError(PlinthError):
    """A certificate failed its re-check by direct polynomial arithmetic."""


class PolyParseError(PlinthError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class ExactDivisionError(PlinthError):
    """Raised when an exact division leaves a remainder.

    The nonzero remainder is kept as a definitive "no" witness.
    """

    def __init__(self, remainder):
        super().__init__("exact division failed; remainder %s" % remainder)
        self.remainder = remainder


class PolyRing:
    """Descriptor of the ring Q[params][vars].

    A ring is immutable, so equal rings are one object while any of them
    is in use: every problem parsed over the same names shares it, and
    every constant and variable shares the ring's origin and unit exponent
    vectors.
    """

    __slots__ = ("params", "vars", "names", "_index", "_origin", "_units", "__weakref__")
    _in_use = weakref.WeakValueDictionary()

    def __new__(cls, params, vars):
        key = (tuple(params), tuple(vars))
        ring = cls._in_use.get(key)
        if ring is not None:
            return ring
        names = key[0] + key[1]
        if len(set(names)) != len(names):
            raise PlinthError("ring names must be distinct: %r" % (names,))
        if not key[1]:
            raise PlinthError("a ring needs at least one main variable")
        for name in names:
            if not name or name[0] not in string.ascii_letters + "_":
                raise PlinthError("bad variable name %r" % name)
        ring = super().__new__(cls)
        ring.params, ring.vars = key
        ring.names = names
        ring._index = {name: i for i, name in enumerate(names)}
        ring._origin = (0,) * len(names)
        ring._units = tuple(ring._origin[:i] + (1,) + ring._origin[i + 1:]
                            for i in range(len(names)))
        cls._in_use[key] = ring
        return ring

    def __reduce__(self):  # copies and pickles come back as the shared ring
        return PolyRing, (self.params, self.vars)

    @property
    def nparams(self):
        return len(self.params)

    @property
    def nvars(self):
        return len(self.vars)

    @property
    def arity(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise PlinthError("unknown variable %r in ring %r" % (name, self)) from None

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.params == other.params
            and self.vars == other.vars
        )

    def __hash__(self):
        return hash((self.params, self.vars))

    def __repr__(self):
        return "PolyRing(params=%r, vars=%r)" % (list(self.params), list(self.vars))

    def zero(self):
        return MultiPoly(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        c = _fraction(c.numerator, c.denominator)
        return MultiPoly._trusted(self, {self._origin: c})

    def gen(self, name):
        return MultiPoly._trusted(self, {self._units[self.index(name)]: _fraction(1)})

    def gens(self):
        return {name: self.gen(name) for name in self.names}

    def extend(self, extra_vars):
        """Same parameters, extra main variables appended."""
        return PolyRing(self.params, self.vars + tuple(extra_vars))

    def poly(self, text):
        return poly_from_string(self, text)


def grlex_key(exps):
    return (sum(exps), exps)


class MultiPoly:
    """Sparse exact-rational multivariate polynomial."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        cleaned = {}
        arity = ring.arity
        for exps, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if len(exps) != arity or any(e < 0 for e in exps):
                raise PlinthError("bad exponent vector %r for %r" % (exps, ring))
            cleaned[tuple(exps)] = coeff
        self.terms = cleaned

    @classmethod
    def _trusted(cls, ring, terms):
        """Wrap terms that are clean by construction, skipping the checks of __init__."""
        poly = object.__new__(cls)
        poly.ring = ring
        poly.terms = terms
        return poly

    # -- basic structure ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.ring.arity, Fraction(0))

    def as_constant(self):
        if not self.is_constant():
            raise PlinthError("polynomial %s is not constant" % self)
        return self.constant_term()

    def leading(self):
        """(exponent vector, coefficient) of the graded-lex leading term."""
        if self.is_zero():
            raise PlinthError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def total_degree(self):
        if self.is_zero():
            return float("-inf")
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        i = self.ring.index(name)
        if self.is_zero():
            return float("-inf")
        return max(e[i] for e in self.terms)

    def param_degree(self):
        k = self.ring.nparams
        if self.is_zero():
            return float("-inf")
        return max(sum(e[:k]) for e in self.terms)

    def var_degree(self):
        k = self.ring.nparams
        if self.is_zero():
            return float("-inf")
        return max(sum(e[k:]) for e in self.terms)

    def involves(self, name):
        i = self.ring.index(name)
        return any(e[i] > 0 for e in self.terms)

    def coefficient_of(self, name, power):
        """Coefficient of name**power, a polynomial not involving name."""
        return _coeff_at(self, self.ring.index(name), power)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatchError(
                    "operands live in different rings: %r vs %r"
                    % (self.ring, other.ring)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    # Arithmetic clears denominators once per operand, accumulates integer
    # numerators and builds one Fraction per output term.

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, da = _numerators(self.terms)
        b, db = _numerators(other.terms)
        den = _ilcm(da, db)
        sa, sb = den // da, den // db
        acc = dict(a) if sa == 1 else {e: c * sa for e, c in a}
        get = acc.get
        for e, c in b:
            acc[e] = get(e, 0) + c * sb
        return MultiPoly._trusted(self.ring, _over(acc, den))

    __radd__ = __add__

    def __neg__(self):
        a, den = _numerators(self.terms)
        return MultiPoly._trusted(self.ring, _over({e: -c for e, c in a}, den))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, da = _numerators(self.terms)
        b, db = _numerators(other.terms)
        if len(a) == 1 and not any(a[0][0]):
            a, b = b, a
        if len(b) == 1 and not any(b[0][0]):  # a constant factor keeps the exponents
            k = b[0][1]
            acc = {e: c * k for e, c in a}
        else:
            acc = {}
            get = acc.get
            for e1, c1 in a:
                for e2, c2 in b:
                    e = tuple(map(_add, e1, e2))
                    acc[e] = get(e, 0) + c1 * c2
        return MultiPoly._trusted(self.ring, _over(acc, da * db))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PlinthError("polynomial powers take natural exponents, got %r" % (n,))
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # the square after the last bit would go unused
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        return poly_to_string(self)

    def __repr__(self):
        return "<MultiPoly %s>" % poly_to_string(self)


class IdealPresentation:
    """Finite generator list of an ideal of the ring."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring, generators):
        gens = tuple(generators)
        if any(g.is_zero() for g in gens):
            raise PlinthError("ideal generators must be nonzero")
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generator ring mismatch")
        self.ring = ring
        self.generators = gens

    def __repr__(self):
        return "IdealPresentation(%s)" % ", ".join(str(g) for g in self.generators)


# ---------------------------------------------------------------------------
# spec'd operations


def partial_derivative(f, name):
    i = f.ring.index(name)
    terms, den = _numerators(f.terms)
    out = {exps[:i] + (exps[i] - 1,) + exps[i + 1:]: c * exps[i]
           for exps, c in terms if exps[i]}
    return MultiPoly._trusted(f.ring, _over(out, den))


def substitute(f, name, replacement):
    """Replace a variable by a polynomial of the same ring."""
    if replacement.ring != f.ring:
        raise RingMismatchError("substitution value lives in a different ring")
    i = f.ring.index(name)
    out = f.ring.zero()
    for k in range(_deg(f, i), -1, -1):  # Horner's rule in the variable
        out = out * replacement + _coeff_at(f, i, k)
    return out


def divide_exact(f, g):
    """Quotient f/g when g divides f; else ExactDivisionError with witness.

    Single-divisor division: if g | f the graded-lex greedy loop finds the
    quotient; otherwise it terminates with a nonzero remainder.
    """
    if g.is_zero():
        raise PlinthError("division by the zero polynomial")
    ring = f.ring
    if g.ring != ring:
        raise RingMismatchError("dividend and divisor ring mismatch")
    ge, gc = g.leading()
    tail = [(e, c) for e, c in g.terms.items() if e != ge]
    q = {}
    rem = {}
    work = dict(f.terms)
    # the leading exponent strictly falls, so every quotient exponent is new
    while work:
        exps = max(work, key=grlex_key)
        coeff = work.pop(exps)
        qe = tuple(map(_sub, exps, ge))
        if min(qe) < 0:
            rem[exps] = coeff
            continue
        qc = coeff / gc
        q[qe] = qc
        # subtract qc * x^qe * g from the working dividend
        for e2, c2 in tail:
            e = tuple(map(_add, qe, e2))
            nc = work.get(e, 0) - qc * c2
            if nc:
                work[e] = nc
            else:
                del work[e]
    if rem:
        raise ExactDivisionError(MultiPoly._trusted(ring, rem))
    return MultiPoly._trusted(ring, q)


def divides(g, f):
    try:
        divide_exact(f, g)
        return True
    except ExactDivisionError:
        return False


def rational_content(f):
    """Signed rational c with f/c integer-primitive and positive leading coeff."""
    if f.is_zero():
        raise PlinthError("zero polynomial has no content")
    c = Fraction(_igcd(*[c.numerator for c in f.terms.values()]),
                 _ilcm(*[c.denominator for c in f.terms.values()]))
    _, lead = f.leading()
    if lead < 0:
        c = -c
    return c


def normalize_unit(f):
    """Scale by a rational unit: integer-primitive, positive leading coefficient."""
    if f.is_zero():
        return f
    terms, _ = _numerators(f.terms)
    # the gcd of the numerators over the common denominator is the gcd of
    # the coefficients' own numerators, the numerator of rational_content
    g = _igcd(*[c for _, c in terms])
    if f.leading()[1] < 0:
        g = -g
    return MultiPoly._trusted(f.ring, _over({e: c // g for e, c in terms}, 1))


# -- gcd machinery -----------------------------------------------------------


def _deg(f, i):
    return max((e[i] for e in f.terms), default=-1)


def _coeff_at(f, i, power):
    out = {}
    for exps, coeff in f.terms.items():
        if exps[i] == power:
            e = list(exps)
            e[i] = 0
            out[tuple(e)] = coeff
    return MultiPoly._trusted(f.ring, out)


def _shift(f, i, power):
    out = {}
    for exps, coeff in f.terms.items():
        e = list(exps)
        e[i] += power
        out[tuple(e)] = coeff
    return MultiPoly._trusted(f.ring, out)


def _content_pp(f, i):
    coeffs = [c for c in
              (_coeff_at(f, i, k) for k in range(_deg(f, i) + 1))
              if not c.is_zero()]
    cont = coeffs[0]
    for c in coeffs[1:]:
        cont = _gcd_prs(cont, c)
        if cont.is_constant():
            break
    cont = normalize_unit(cont)
    return cont, divide_exact(f, cont)


def _prem(f, g, i):
    """Pseudo-remainder of f by g with respect to variable index i."""
    dg = _deg(g, i)
    lcg = _coeff_at(g, i, dg)
    r = f
    while not r.is_zero() and _deg(r, i) >= dg:
        dr = _deg(r, i)
        lcr = _coeff_at(r, i, dr)
        r = lcg * r - _shift(lcr * g, i, dr - dg)
    return r


def _gcd_prs(f, g):
    """gcd by primitive pseudo-remainder sequences, recursive in the variables."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    idx = [i for i, col in enumerate(zip(*f.terms, *g.terms)) if any(col)]
    if not idx:
        return f.ring.one()
    i = idx[-1]
    fc, fp = _content_pp(f, i)
    gc, gp = _content_pp(g, i)
    cont = _gcd_prs(fc, gc)
    a, b = fp, gp
    if _deg(a, i) < _deg(b, i):
        a, b = b, a
    while not b.is_zero():
        r = _prem(a, b, i)
        if r.is_zero():
            a, b = b, r
        else:
            a, b = b, _content_pp(r, i)[1]
    return cont * a


# GCDHEU gives up when one evaluation would hold values above _HEU_MAX_BITS bits
_HEU_TRIES = 6
_HEU_MAX_BITS = 1 << 18


def _gcd_heu(f, g):
    """gcd of two nonzero integer polynomials by GCDHEU, or None on giving up.

    Char, Geddes & Gonnet, J. Symbolic Comput. 7 (1989); Geddes, Czapor &
    Labahn, Algorithms for Computer Algebra (1992), section 7.7: evaluate the
    last variable at xi, recurse, rebuild a candidate from the symmetric
    xi-adic digits.  It is returned only if it divides both inputs exactly;
    as xi > 2*min(|f|, |g|) + 2, that proves it is the gcd (Theorem 7.7).
    """
    cf, cg = _igcd(*f.values()), _igcd(*g.values())
    cont = _igcd(cf, cg)
    zero = (0,) * len(next(iter(f)))
    if f.keys() == {zero} or g.keys() == {zero}:
        return {zero: cont}
    i = max(i for i, col in enumerate(zip(*f, *g)) if any(col))
    deg = max(e[i] for e in (*f, *g))
    f = {e: c // cf for e, c in f.items()}
    g = {e: c // cg for e, c in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * deg > _HEU_MAX_BITS:
            return None
        fx, gx = _eval_at(f, i, xi), _eval_at(g, i, xi)
        h = _gcd_heu(fx, gx) if fx and gx else None
        if h is not None:
            cand = _xi_adic(h, i, xi)
            c = _igcd(*cand.values())
            cand = {e: v // c for e, v in cand.items()}
            if _int_divides(cand, f) and _int_divides(cand, g):
                return {e: v * cont for e, v in cand.items()} if cont > 1 else cand
        xi = xi * 73794 // 27011
    return None


def _eval_at(f, i, xi):
    """f with variable i set to the integer xi."""
    out = {}
    for exps, c in f.items():
        e = exps[:i] + (0,) + exps[i + 1:]
        out[e] = out.get(e, 0) + c * xi ** exps[i]
    return {e: c for e, c in out.items() if c}


def _xi_adic(h, i, xi):
    """Polynomial in variable i whose coefficients are h's symmetric xi-adic digits."""
    half = xi // 2
    out = {}
    for exps, v in h.items():
        k = 0
        while v:
            d = (v + half) % xi - half
            if d:
                out[exps[:i] + (k,) + exps[i + 1:]] = d
            v = (v - d) // xi
            k += 1
    return out


def _int_divides(g, f):
    """Whether the primitive integer polynomial g divides f (over Z, so over Q)."""
    ge = max(g, key=grlex_key)
    gc = g[ge]
    tail = [(e, c) for e, c in g.items() if e != ge]
    work = dict(f)
    while work:
        exps = max(work, key=grlex_key)
        qe = tuple(map(_sub, exps, ge))
        if min(qe) < 0:
            return False
        qc, r = divmod(work.pop(exps), gc)
        if r:
            return False
        for e2, c2 in tail:
            e = tuple(map(_add, qe, e2))
            nc = work.get(e, 0) - qc * c2
            if nc:
                work[e] = nc
            else:
                del work[e]
    return True


def _gcd2(f, g):
    """gcd of two polynomials: heuristic first, PRS if it gives up."""
    if f.ring != g.ring:
        raise RingMismatchError("gcd operands ring mismatch")
    if f.is_zero() or g.is_zero():
        return g if f.is_zero() else f
    h = _gcd_heu(dict(_numerators(f.terms)[0]), dict(_numerators(g.terms)[0]))
    if h is None:
        return _gcd_prs(f, g)
    return MultiPoly._trusted(f.ring, _over(h, 1))


def multivariate_gcd(fs):
    """gcd over Q[params][vars], integer-primitive with positive leading coeff."""
    fs = list(fs)
    if not fs:
        raise PlinthError("gcd of an empty list")
    g = fs[0].ring.zero()
    for f in fs:
        g = _gcd2(g, f)
        if not g.is_zero() and g.is_constant():
            break
    if g.is_zero():
        raise PlinthError("gcd of all-zero inputs")
    return normalize_unit(g)


# -- univariate parameter helpers -------------------------------------------


def _single_param_index(ring, polys):
    """Index of the unique parameter the given polynomials may involve."""
    used = set()
    for p in polys:
        for exps in p.terms:
            for i, e in enumerate(exps):
                if e > 0:
                    if i >= ring.nparams:
                        raise PlinthError(
                            "expected a polynomial in the coefficient parameter, "
                            "got main variable %r" % ring.names[i]
                        )
                    used.add(i)
    if len(used) > 1:
        raise PlinthError("expected univariate input, found parameters %s"
                          % [ring.names[i] for i in sorted(used)])
    if used:
        return used.pop()
    if ring.nparams == 0:
        raise PlinthError("ring has no coefficient parameter")
    return 0


def univar_coeffs(f, index):
    """Dense Fraction coefficient list of a polynomial univariate in one name."""
    deg = _deg(f, index)
    coeffs = [Fraction(0)] * (deg + 1) if deg >= 0 else []
    for exps, coeff in f.terms.items():
        coeffs[exps[index]] += coeff
    return coeffs


def poly_from_coeffs(ring, index, coeffs):
    out = {}
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        e = [0] * ring.arity
        e[index] = k
        out[tuple(e)] = c
    return MultiPoly(ring, out)


def _list_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _list_divmod(a, b):
    a = _list_trim(list(a))
    if len(a) < len(b):
        return [], a
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv
        if c == 0:
            continue
        q[i] = c
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    return q, _list_trim(a)


def _egcd_lists(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b), g monic unless b is zero.

    Each remainder is made monic, which keeps the coefficients small.  The
    quotients and scales are kept and one backward pass builds the Bezout
    pair, with one product per step and no recursion.
    """
    steps = []
    while b:
        q, r = _list_divmod(a, b)
        c = r[-1] if r else 1
        steps.append((q, c))
        a, b = b, [v / c for v in r]
    x, y = [Fraction(1)], []
    for q, c in reversed(steps):  # g = x*b + y*r/c with r = a - q*b
        y = [v / c for v in y]
        x, y = y, _list_sub(x, _list_mul(q, y))
    return a, x, y


def _list_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _list_trim(out)


def _list_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _list_trim(out)


def extended_euclid(a, b):
    """(g, alpha, beta) with alpha*a + beta*b = g = gcd(a, b) in Q[t].

    Inputs must be univariate in a single coefficient parameter.  The gcd
    is normalized to integer-primitive with positive leading coefficient,
    and the Bezout pair is rescaled to match.
    """
    if a.is_zero() and b.is_zero():
        raise PlinthError("extended_euclid of two zero polynomials")
    ring = a.ring
    if b.ring != ring:
        raise RingMismatchError("extended_euclid operands ring mismatch")
    i = _single_param_index(ring, [a, b])
    la, lb = univar_coeffs(a, i), univar_coeffs(b, i)
    g, x, y = _egcd_lists(la, lb)
    gp = poly_from_coeffs(ring, i, g)
    scale = 1 / rational_content(gp)
    return (
        normalize_unit(gp),
        poly_from_coeffs(ring, i, [c * scale for c in x]),
        poly_from_coeffs(ring, i, [c * scale for c in y]),
    )


def reduce_mod_prime(r, p):
    """Coefficient-wise remainder mod a prime p of Q[t].

    Returns the canonical representative of r in (Q[t]/(p))[vars]: every
    Q[t]-coefficient is replaced by its Euclidean remainder mod p.
    """
    ring = r.ring
    if p.ring != ring:
        raise RingMismatchError("reduce_mod_prime operands ring mismatch")
    if p.is_constant():
        raise PlinthError("modulus must be nonconstant")
    i = _single_param_index(ring, [p])
    lp = univar_coeffs(p, i)
    k = ring.nparams
    # group terms by their main-variable part
    groups = {}
    for exps, coeff in r.terms.items():
        for j in range(k):
            if j != i and exps[j] > 0:
                raise PlinthError("reduce_mod_prime supports a single parameter")
        varpart = exps[k:]
        groups.setdefault(varpart, {})[exps[i]] = coeff
    out = {}
    for varpart, cmap in groups.items():
        deg = max(cmap)
        coeffs = [cmap.get(d, Fraction(0)) for d in range(deg + 1)]
        _, rem = _list_divmod(coeffs, lp)
        for d, c in enumerate(rem):
            if c == 0:
                continue
            e = [0] * ring.arity
            e[i] = d
            for j, ve in enumerate(varpart):
                e[k + j] = ve
            out[tuple(e)] = out.get(tuple(e), Fraction(0)) + c
    return MultiPoly(ring, out)


def irreducible_smalldeg(p):
    """True/False for degree <= 3 over Q (rational-root test), None beyond."""
    ring = p.ring
    i = _single_param_index(ring, [p])
    coeffs = univar_coeffs(p, i)
    deg = len(coeffs) - 1
    if deg <= 0:
        raise PlinthError("constant polynomial has no irreducibility status")
    if deg == 1:
        return True
    if deg >= 4:
        return None
    # degree 2 or 3: irreducible over Q iff no rational root
    den = _ilcm(*[c.denominator for c in coeffs])
    ints = [int(c * den) for c in coeffs]
    if deg == 2:
        c, b, a = ints
        disc = b * b - 4 * a * c
        return disc < 0 or _isqrt(disc) ** 2 != disc
    # with y = a3*x, a3^2 times the cubic is monic in y with integer roots
    a0, a1, a2, a3 = ints
    return _integer_root_cubic(a2, a1 * a3, a0 * a3 * a3) is None


def _integer_root_cubic(c2, c1, c0):
    """An integer root of y^3 + c2*y^2 + c1*y + c0, or None.

    Real roots lie within the Cauchy bound; the cubic is monotone between
    the integers next to its critical points, so bisection finds them.
    """
    def value(y):
        return ((y + c2) * y + c1) * y + c0

    bound = 1 + max(abs(c2), abs(c1), abs(c0))
    cuts = {-bound, bound}
    disc = c2 * c2 - 3 * c1  # critical points (-c2 +- sqrt(disc)) / 3
    if disc >= 0:
        s = _isqrt(disc)
        for k in ((-c2 + s) // 3, (-c2 - s - 1) // 3):
            cuts.update(y for y in range(k - 1, k + 3) if -bound < y < bound)
    cuts = sorted(cuts)
    for lo, hi in zip(cuts, cuts[1:]):
        sign = 1 if value(hi) >= value(lo) else -1
        while lo < hi:  # least y with sign * value(y) >= 0
            mid = (lo + hi) // 2
            if sign * value(mid) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if value(lo) == 0:
            return lo
    return None


def embed(f, ring):
    """Map a polynomial into a ring containing the same names (by name)."""
    mapping = [ring.index(name) for name in f.ring.names]
    out = {}
    for exps, coeff in f.terms.items():
        e = [0] * ring.arity
        for src, dst in enumerate(mapping):
            e[dst] = exps[src]
        out[tuple(e)] = coeff
    return MultiPoly(ring, out)


def restrict(f, ring):
    """Inverse of embed: fails if f involves names missing from ring."""
    mapping = []
    for i, name in enumerate(f.ring.names):
        if name in ring._index:
            mapping.append((i, ring.index(name)))
        else:
            j = f.ring.index(name)
            if any(e[j] > 0 for e in f.terms):
                raise PlinthError("polynomial involves %r, absent from target ring" % name)
    out = {}
    for exps, coeff in f.terms.items():
        e = [0] * ring.arity
        for src, dst in mapping:
            e[dst] = exps[src]
        out[tuple(e)] = coeff
    return MultiPoly(ring, out)


# ---------------------------------------------------------------------------
# text grammar: parse + print, bijective on canonical forms


def poly_to_string(f):
    if f.is_zero():
        return "0"
    parts = []
    for exps in sorted(f.terms, key=grlex_key, reverse=True):
        coeff = f.terms[exps]
        num, den = coeff.numerator, coeff.denominator
        names = []
        for name, e in zip(f.ring.names, exps):
            if e == 1:
                names.append(name)
            elif e > 1:
                names.append("%s^%d" % (name, e))
        mag = str(abs(num)) if den == 1 else "%d/%d" % (abs(num), den)
        if not names:
            body = mag
        elif mag == "1":
            body = "*".join(names)
        else:
            body = "*".join([mag] + names)
        if not parts:
            parts.append(body if num > 0 else "-" + body)
        else:
            parts.append((" + " if num > 0 else " - ") + body)
    return "".join(parts)


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", None, self.pos)
        ch = self.text[self.pos]
        if ch.isdigit():
            j = self.pos
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            return ("int", int(self.text[self.pos:j]), self.pos)
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return ("name", self.text[self.pos:j], self.pos)
        if ch in "+-*/^()":
            return (ch, ch, self.pos)
        raise PolyParseError("unexpected character %r" % ch, self.pos)

    def next(self):
        kind, value, pos = self.peek()
        if kind == "int":
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        elif kind == "name":
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
        elif kind != "end":
            self.pos += 1
        return kind, value, pos


def poly_from_string(ring, text):
    """Parse the polynomial grammar: + - * / ^ ( ), implicit products allowed."""
    tok = _Tokenizer(text)

    def parse_expr():
        kind, _, _ = tok.peek()
        negate = False
        if kind in ("+", "-"):
            tok.next()
            negate = kind == "-"
        value = parse_term()
        if negate:
            value = -value
        while True:
            kind, _, _ = tok.peek()
            if kind == "+":
                tok.next()
                value = value + parse_term()
            elif kind == "-":
                tok.next()
                value = value - parse_term()
            else:
                return value

    def parse_term():
        value = parse_factor()
        while True:
            kind, _, _ = tok.peek()
            if kind == "*":
                tok.next()
                value = value * parse_factor()
            elif kind == "/":
                tok.next()
                knd, val, pos = tok.next()
                if knd != "int":
                    raise PolyParseError("expected an integer denominator", pos)
                if val == 0:
                    raise PolyParseError("division by zero", pos)
                value = value * Fraction(1, val)
            elif kind in ("int", "name", "("):
                value = value * parse_factor()  # juxtaposition
            else:
                return value

    def parse_factor():
        base = parse_base()
        kind, _, _ = tok.peek()
        if kind == "^":
            tok.next()
            knd, val, pos = tok.next()
            if knd != "int":
                raise PolyParseError("expected a natural exponent after '^'", pos)
            return base**val
        return base

    def parse_base():
        kind, value, pos = tok.next()
        if kind == "int":
            return ring.const(value)
        if kind == "name":
            if value not in ring._index:
                raise PolyParseError("unknown variable %r" % value, pos)
            return ring.gen(value)
        if kind == "(":
            inner = parse_expr()
            knd, _, pos2 = tok.next()
            if knd != ")":
                raise PolyParseError("expected ')'", pos2)
            return inner
        raise PolyParseError("expected a number, variable or '('", pos)

    value = parse_expr()
    kind, _, pos = tok.peek()
    if kind != "end":
        raise PolyParseError("trailing input", pos)
    return value
