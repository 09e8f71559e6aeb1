"""Exact sparse multivariate polynomial arithmetic over Q.

Polynomials live in a tower Q[t_1..t_k][X_1..X_n]: the t's are
"coefficient parameters" and the X's are "main variables".  Internally a
polynomial is in content form: a map nums from exponent vectors (length
k+n, params first) to nonzero integer numerators, over one denominator
den >= 1 with gcd(den, *nums) == 1.  That form is canonical, so equality
and hashing compare it directly, and every kernel reads and writes
integers; the Fraction coefficients are only built on request, by the
terms view.  The term order used everywhere (printing, leading terms,
deterministic pivoting) is graded lex on the combined exponent vector.
"""

from __future__ import annotations

import string
import weakref
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as _igcd
from math import isqrt as _isqrt
from math import lcm as _ilcm
from operator import add as _add
from operator import neg as _neg
from operator import sub as _sub


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
    vectors.  Polynomials are immutable too, so zero(), one() and gen()
    hand out one shared polynomial each.
    """

    __slots__ = ("params", "vars", "names", "_index", "_origin", "_zero", "_one", "_gens",
                 "__weakref__")
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
        ring._zero = MultiPoly._of(ring, {})
        ring._one = MultiPoly._of(ring, {ring._origin: 1})
        ring._gens = tuple(
            MultiPoly._of(ring, {ring._origin[:i] + (1,) + ring._origin[i + 1:]: 1})
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
        return self._zero

    def one(self):
        return self._one

    def const(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return MultiPoly._of(self, {self._origin: c.numerator}, c.denominator)

    def gen(self, name):
        return self._gens[self.index(name)]

    def extend(self, extra_vars):
        """Same parameters, extra main variables appended."""
        return PolyRing(self.params, self.vars + tuple(extra_vars))

    def poly(self, text):
        return poly_from_string(self, text)


def grlex_key(exps):
    return (sum(exps), exps)


class MultiPoly:
    """Sparse exact-rational multivariate polynomial: integer numerators
    nums {exps: int}, none zero, over one denominator den >= 1, in lowest
    terms (gcd(den, *nums.values()) == 1); zero is ({}, 1)."""

    __slots__ = ("ring", "nums", "den")

    def __init__(self, ring, terms):
        """The polynomial with the coefficients terms {exps: int or Fraction}."""
        cleaned = {}
        arity = ring.arity
        for exps, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if len(exps) != arity or any(e < 0 for e in exps):
                raise PlinthError("bad exponent vector %r for %r" % (exps, ring))
            cleaned[tuple(exps)] = coeff
        # over the least common denominator the numerators share no factor with it
        den = _ilcm(*[c.denominator for c in cleaned.values()])
        self.ring = ring
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in cleaned.items()}
        self.den = den

    @classmethod
    def _of(cls, ring, nums, den=1):
        """The polynomial nums / den, for integer numerators nums (taken,
        not copied) and an integer den >= 1: zeros are dropped and the
        common factor of den and the numerators divided out."""
        g = _igcd(den, *nums.values()) if den != 1 else 1
        if g != 1:
            nums = {e: c // g for e, c in nums.items() if c}
            den //= g
        elif 0 in nums.values():
            nums = {e: c for e, c in nums.items() if c}
        poly = object.__new__(cls)
        poly.ring = ring
        poly.nums = nums
        poly.den = den
        return poly

    @property
    def terms(self):
        """The coefficients as {exps: Fraction}, a new dict on every read."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.nums.items()}

    # -- basic structure ------------------------------------------------

    def is_zero(self):
        return not self.nums

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.nums)

    def constant_term(self):
        return Fraction(self.nums.get((0,) * self.ring.arity, 0), self.den)

    def as_constant(self):
        if not self.is_constant():
            raise PlinthError("polynomial %s is not constant" % self)
        return self.constant_term()

    def leading(self):
        """(exponent vector, coefficient) of the graded-lex leading term."""
        if self.is_zero():
            raise PlinthError("zero polynomial has no leading term")
        exps = max(self.nums, key=grlex_key)
        return exps, Fraction(self.nums[exps], self.den)

    def total_degree(self):
        if self.is_zero():
            return float("-inf")
        return max(sum(e) for e in self.nums)

    def degree_in(self, name):
        i = self.ring.index(name)
        if self.is_zero():
            return float("-inf")
        return max(e[i] for e in self.nums)

    def param_degree(self):
        k = self.ring.nparams
        if self.is_zero():
            return float("-inf")
        return max(sum(e[:k]) for e in self.nums)

    def var_degree(self):
        k = self.ring.nparams
        if self.is_zero():
            return float("-inf")
        return max(sum(e[k:]) for e in self.nums)

    def involves(self, name):
        i = self.ring.index(name)
        return any(e[i] > 0 for e in self.nums)

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

    # Arithmetic works on the integer numerators over one denominator and
    # reduces the result once.

    def _plus(self, other, sign):
        """self + sign * other, for sign 1 or -1."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        den = _ilcm(da, db)
        sa, sb = den // da, sign * (den // db)
        acc = dict(self.nums) if sa == 1 else {e: c * sa for e, c in self.nums.items()}
        get = acc.get
        for e, c in other.nums.items():
            acc[e] = get(e, 0) + c * sb
        return MultiPoly._of(self.ring, acc, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly._of(self.ring, {e: -c for e, c in self.nums.items()}, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.nums, other.nums
        origin = self.ring._origin
        if len(a) == 1 and origin in a:
            a, b = b, a
        if len(b) == 1 and origin in b:  # a constant factor keeps the exponents
            k = b[origin]
            acc = {e: c * k for e, c in a.items()}
        else:
            acc = {}
            get = acc.get
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = tuple(map(_add, e1, e2))
                    acc[e] = get(e, 0) + c1 * c2
        return MultiPoly._of(self.ring, acc, self.den * other.den)

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
        return (self.ring == other.ring and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.ring, self.den, frozenset(self.nums.items())))

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
    out = {exps[:i] + (exps[i] - 1,) + exps[i + 1:]: c * exps[i]
           for exps, c in f.nums.items() if exps[i]}
    return MultiPoly._of(f.ring, out, f.den)


def substitute(f, name, replacement):
    """Replace a variable by a polynomial of the same ring."""
    if replacement.ring != f.ring:
        raise RingMismatchError("substitution value lives in a different ring")
    i = f.ring.index(name)
    out = f.ring.zero()
    for k in range(_deg(f, i), -1, -1):  # Horner's rule in the variable
        out = out * replacement + _coeff_at(f, i, k)
    return out


def _int_divmod(f, g):
    """Greedy graded-lex division of integer polynomials: (q, r, s) with
    s*f = q*g + r, s a positive integer and no term of r divisible by the
    leading monomial of g.

    f, g, q and r are {exps: int}, g primitive.  Each step takes the
    leading term of the work from a heap, not a scan, as in the heap
    division of Monagan & Pearce, J. Symb. Comput. 46 (2011); the heap
    holds (-degree, negated exps, exps), so its least entry is the
    graded-lex leading term.  If g divides f, every quotient coefficient is
    an integer (Gauss's lemma) and s = 1; a step that is not exact scales
    the work, q and r by the missing factor.
    """
    ge = max(g, key=grlex_key)
    gc = g[ge]
    tail = [(e, c) for e, c in g.items() if e != ge]
    work = dict(f)
    get = work.get
    heap = [(-sum(e), tuple(map(_neg, e)), e) for e in work]
    heapify(heap)
    q, r, s = {}, {}, 1
    while heap:
        e = heappop(heap)[2]
        c = work.pop(e)
        if not c:
            continue
        qe = tuple(map(_sub, e, ge))
        if min(qe) < 0:  # ge does not divide e
            r[e] = c
            continue
        if c % gc:
            m = abs(gc) // _igcd(c, gc)
            s *= m
            c *= m
            for d in (work, q, r):
                for k in d:
                    d[k] *= m
        qc = c // gc
        q[qe] = qc
        # the new terms fall below e, so a popped exponent never comes back
        for t, tc in tail:
            e2 = tuple(map(_add, qe, t))
            old = get(e2)
            if old is None:
                work[e2] = -qc * tc
                heappush(heap, (-sum(e2), tuple(map(_neg, e2)), e2))
            else:
                work[e2] = old - qc * tc
    return q, r, s


def _divmod(f, g):
    """(q, r) with f = q*g + r and no term of r divisible by the leading
    monomial of g: the remainder of greedy graded-lex division, unique
    because a single polynomial is a Groebner basis of its ideal."""
    if g.is_zero():
        raise PlinthError("division by the zero polynomial")
    ring = f.ring
    if g.ring != ring:
        raise RingMismatchError("dividend and divisor ring mismatch")
    b, db = g.nums, g.den
    cont = _igcd(*b.values())
    if cont != 1:
        b = {e: c // cont for e, c in b.items()}
    q, r, s = _int_divmod(f.nums, b)
    # f = a/da and g = cont*b'/db, so q/(s*da) * db/cont is f's quotient
    if db != 1:
        q = {e: c * db for e, c in q.items()}
    return (MultiPoly._of(ring, q, cont * s * f.den),
            MultiPoly._of(ring, r, s * f.den))


def divide_exact(f, g):
    """Quotient f/g when g divides f; else ExactDivisionError whose witness
    is the nonzero remainder of greedy graded-lex division."""
    q, r = _divmod(f, g)
    if r.nums:
        raise ExactDivisionError(r)
    return q


def divides(g, f):
    return not _divmod(f, g)[1].nums


def normalize_unit(f):
    """Scale by a rational unit: integer-primitive, positive leading coefficient."""
    nums = f.nums
    if not nums:
        return f
    g = _igcd(*nums.values())
    if nums[max(nums, key=grlex_key)] < 0:
        g = -g
    return MultiPoly._of(f.ring, {e: c // g for e, c in nums.items()})


# -- gcd machinery -----------------------------------------------------------


def _deg(f, i):
    return max((e[i] for e in f.nums), default=-1)


def _coeff_at(f, i, power):
    out = {exps[:i] + (0,) + exps[i + 1:]: c
           for exps, c in f.nums.items() if exps[i] == power}
    return MultiPoly._of(f.ring, out, f.den)


def _shift(f, i, power):
    out = {exps[:i] + (exps[i] + power,) + exps[i + 1:]: c for exps, c in f.nums.items()}
    return MultiPoly._of(f.ring, out, f.den)


def _content_pp(f, i):
    coeffs = [c for c in
              (_coeff_at(f, i, k) for k in range(_deg(f, i) + 1))
              if not c.is_zero()]
    cont = coeffs[0]
    for c in coeffs[1:]:
        cont = _gcd2(cont, c)
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
    """gcd of two nonzero polynomials by primitive pseudo-remainder sequences
    in their last variable; the contents, one variable fewer, go through
    _gcd2, so the heuristic gets the first try at every level."""
    idx = [i for i, col in enumerate(zip(*f.nums, *g.nums)) if any(col)]
    if not idx:
        return f.ring.one()
    i = idx[-1]
    fc, fp = _content_pp(f, i)
    gc, gp = _content_pp(g, i)
    cont = _gcd2(fc, gc)
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
            if all(not _int_divmod(p, cand)[1] for p in (f, g)):
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


def _gcd2(f, g):
    """gcd of two polynomials: heuristic first, PRS if it gives up."""
    if f.ring != g.ring:
        raise RingMismatchError("gcd operands ring mismatch")
    if f.is_zero() or g.is_zero():
        return g if f.is_zero() else f
    h = _gcd_heu(f.nums, g.nums)
    if h is None:
        return _gcd_prs(f, g)
    return MultiPoly._of(f.ring, h)


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
        for exps in p.nums:
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


def extended_euclid(a, b):
    """(g, alpha, beta) with alpha*a + beta*b = g = gcd(a, b) in Q[t].

    Inputs must be univariate in a single coefficient parameter.  The gcd
    is normalized to integer-primitive with positive leading coefficient,
    and the Bezout pair is rescaled to match.  Each remainder is made
    monic, which keeps the coefficients small; the quotients and scales are
    kept and one backward pass builds the Bezout pair, with one product per
    step and no recursion.
    """
    if a.is_zero() and b.is_zero():
        raise PlinthError("extended_euclid of two zero polynomials")
    ring = a.ring
    if b.ring != ring:
        raise RingMismatchError("extended_euclid operands ring mismatch")
    _single_param_index(ring, [a, b])  # raises unless univariate in one parameter
    steps = []
    while b.nums:
        q, r = _divmod(a, b)
        c = r.leading()[1] if r.nums else Fraction(1)
        steps.append((-q, c))  # negated: a sum costs one pass, a difference two
        a, b = b, r * (1 / c)
    x, y = ring.one(), ring.zero()
    for nq, c in reversed(steps):  # g = x*b + y*r/c with r = a + nq*b
        y = y * (1 / c)
        x, y = y, x + nq * y
    g = normalize_unit(a)
    scale = g.leading()[1] / a.leading()[1]
    return g, x * scale, y * scale


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
    if any(e[j] for e in r.nums for j in range(ring.nparams) if j != i):
        raise PlinthError("reduce_mod_prime supports a single parameter")
    # p involves one parameter alone, so greedy division by p reduces
    # each coefficient in Q[t] on its own
    return _divmod(r, p)[1]


def irreducible_smalldeg(p):
    """True/False for degree <= 3 over Q (rational-root test), None beyond."""
    ring = p.ring
    i = _single_param_index(ring, [p])
    deg = _deg(p, i)
    if deg <= 0:
        raise PlinthError("constant polynomial has no irreducibility status")
    if deg == 1:
        return True
    if deg >= 4:
        return None
    # degree 2 or 3: irreducible over Q iff no rational root
    ints = [0] * (deg + 1)
    for e, c in p.nums.items():  # over one denominator, which leaves the roots
        ints[e[i]] = c
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
    for exps, c in f.nums.items():
        e = [0] * ring.arity
        for src, dst in enumerate(mapping):
            e[dst] = exps[src]
        out[tuple(e)] = c
    return MultiPoly._of(ring, out, f.den)


def restrict(f, ring):
    """Inverse of embed: fails if f involves names missing from ring."""
    mapping = []
    for i, name in enumerate(f.ring.names):
        if name in ring._index:
            mapping.append((i, ring.index(name)))
        else:
            j = f.ring.index(name)
            if any(e[j] > 0 for e in f.nums):
                raise PlinthError("polynomial involves %r, absent from target ring" % name)
    out = {}
    for exps, c in f.nums.items():
        e = [0] * ring.arity
        for src, dst in mapping:
            e[dst] = exps[src]
        out[tuple(e)] = c
    return MultiPoly._of(ring, out, f.den)


# ---------------------------------------------------------------------------
# text grammar: parse + print, bijective on canonical forms


def poly_to_string(f):
    if f.is_zero():
        return "0"
    parts = []
    nums, den, names = f.nums, f.den, f.ring.names
    for exps in sorted(nums, key=grlex_key, reverse=True):
        num = nums[exps]
        g = _igcd(num, den)  # each coefficient is printed in lowest terms
        mag = str(abs(num) // g) if g == den else "%d/%d" % (abs(num) // g, den // g)
        factors = [name if e == 1 else "%s^%d" % (name, e) for name, e in zip(names, exps) if e]
        if parts:
            parts.append(" + " if num > 0 else " - ")
        elif num < 0:
            parts.append("-")
        parts.append("*".join(factors if factors and mag == "1" else [mag] + factors))
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

    try:
        value = parse_expr()
    except RecursionError:  # each '(' costs four frames of the descent
        raise PolyParseError("parentheses nested too deeply", tok.pos) from None
    kind, _, pos = tok.peek()
    if kind != "end":
        raise PolyParseError("trailing input", pos)
    return value
