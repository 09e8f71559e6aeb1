"""Exact sparse multivariate polynomial arithmetic over Q.

Polynomials live in a tower Q[t_1..t_k][X_1..X_n]: the t's are
"coefficient parameters" and the X's are "main variables".  Internally a
polynomial is in content form: a map nums from monomial keys to nonzero
integer numerators, over one denominator den >= 1 with gcd(den, *nums) ==
1.  That form is canonical, so equality and hashing compare it directly,
and every kernel reads and writes integers.  A key packs an exponent
vector (length k+n, params first) into one natural number (Monagan &
Pearce, CASC 2007): the total degree in the top field, below it one
FIELD_BITS-bit field per name in ring-name order.  So a product of
monomials is the sum of their keys, and integer order is graded lex, the
term order used everywhere.  The top bit of a name's field is a guard, so
a difference of keys shows divisibility.  Degrees stay below DEGREE_LIMIT:
a result that would reach it raises PlinthError, never carries into the
next field.  Exponent tuples appear only at the boundary: in
MultiPoly(ring, terms) and in the terms view.
"""

import re
import sys
import weakref
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb as _comb
from math import gcd as _igcd
from math import isqrt as _isqrt
from math import lcm as _ilcm
from math import log10 as _log10

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
DEGREE_LIMIT = 1 << (FIELD_BITS - 1)  # the top bit of a field is its guard
NAME_STARTS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"  # a name's first letter
# the parser refuses a power predicted to have more terms than this before
# expanding it; (X+Y+Z+1)^37, 9,880 terms, parses in 0.24 s (Python 3.11.7,
# 2-vCPU host), and no pinned sweep or benchmark round parses a power of
# more than 6 terms
MAX_POWER_TERMS = 10000
# and a product of parenthesized factors of a and b terms if a * b passes this
MAX_PRODUCT_TERMS = 10000


class PlinthError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(PlinthError):
    pass


class CertificateError(Exception):
    """A certificate failed its re-check by direct polynomial arithmetic: a
    fault of this package, never a verdict on its input, so it is no
    PlinthError and no handler of malformed input catches it."""


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
    is in use: every problem parsed over the same names shares it.
    Polynomials are immutable too, so zero(), one() and gen() hand out one
    shared polynomial each.  The ring is the codec of its keys: _shifts[i]
    is the offset of name i's field, _top the degree field's, _units[i] the
    key of name i, _cap the least key of degree DEGREE_LIMIT and _guards
    the guard bits of the name fields; _vmask, _vspread and _vshift read
    the main-variable degree of a key (degrees).  _monomials holds the text
    of each monomial key printed so far, as poly_to_string writes it.
    """

    __slots__ = ("params", "vars", "names", "_index", "_shifts", "_top", "_units", "_cap",
                 "_guards", "_vmask", "_vspread", "_vshift", "_zero", "_one", "_gens",
                 "_monomials", "__weakref__")
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
            if not name or name[0] not in NAME_STARTS:
                raise PlinthError("bad variable name %r" % name)
        ring = super().__new__(cls)
        ring.params, ring.vars = key
        ring.names = names
        ring._index = {name: i for i, name in enumerate(names)}
        ring._top = FIELD_BITS * len(names)
        ring._shifts = tuple(range(ring._top - FIELD_BITS, -1, -FIELD_BITS))
        ring._units = tuple((1 << ring._top) + (1 << s) for s in ring._shifts)
        ring._cap = DEGREE_LIMIT << ring._top
        ring._guards = sum(DEGREE_LIMIT << s for s in ring._shifts)
        ring._vshift = ring._shifts[len(key[0])]
        ring._vmask = (1 << ring._vshift + FIELD_BITS) - 1
        ring._vspread = sum(1 << s for s in ring._shifts[len(key[0]):])
        ring._zero = MultiPoly._of(ring, {})
        ring._one = MultiPoly._of(ring, {0: 1})
        ring._gens = tuple(MultiPoly._of(ring, {unit: 1}) for unit in ring._units)
        ring._monomials = {}
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

    def encode(self, exps):
        """The key of an exponent vector."""
        if len(exps) != len(self.names) or min(exps) < 0:
            raise PlinthError("bad exponent vector %r for %r" % (exps, self))
        key = sum(exps)
        for e in exps:
            key = key << FIELD_BITS | e
        return self.check_degree(key)

    def decode(self, key):
        """The exponent vector of a key."""
        return tuple(key >> s & FIELD_MASK for s in self._shifts)

    def degrees(self, key):
        """(parameter degree, main-variable degree) of a key.  One product
        sums the variable fields into the first one's: each partial sum is
        at most the degree, below DEGREE_LIMIT, so none carries."""
        v = (key & self._vmask) * self._vspread >> self._vshift & FIELD_MASK
        return (key >> self._top) - v, v

    def check_degree(self, key):
        """key, if its degree is below DEGREE_LIMIT; a kernel passes its
        greatest key, which reaches _cap if a field would overflow."""
        if key >= self._cap:
            raise PlinthError("degree limit: monomial degrees must stay below %d"
                              % DEGREE_LIMIT)
        return key

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
        return MultiPoly._of(self, {0: c.numerator}, c.denominator)

    def gen(self, name):
        return self._gens[self.index(name)]

    def extend(self, extra_vars):
        """Same parameters, extra main variables appended."""
        return PolyRing(self.params, self.vars + tuple(extra_vars))

    def poly(self, text):
        return poly_from_string(self, text)


def _content_form(coeffs):
    """(nums, den) of the coefficients {key: int or Fraction}: the nonzero
    ones over their least common denominator, coprime to the numerators."""
    coeffs = [(k, c) for k, c in coeffs.items() if c]
    den = _ilcm(*[c.denominator for _, c in coeffs])
    return {k: c.numerator * (den // c.denominator) for k, c in coeffs}, den


class MultiPoly:
    """Sparse exact-rational multivariate polynomial: integer numerators
    nums {key: int}, none zero, over one denominator den >= 1, in lowest
    terms (gcd(den, *nums.values()) == 1); zero is ({}, 1)."""

    __slots__ = ("ring", "nums", "den")

    def __init__(self, ring, terms):
        """The polynomial with the coefficients terms {exps: int or Fraction}."""
        self.ring = ring
        self.nums, self.den = _content_form(
            {ring.encode(e): Fraction(c) for e, c in terms.items() if c})

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
        den, decode = self.den, self.ring.decode
        return {decode(k): Fraction(c, den) for k, c in self.nums.items()}

    # -- basic structure ------------------------------------------------

    def is_zero(self):
        return not self.nums

    def is_constant(self):
        return not any(self.nums)

    def constant_term(self):
        return Fraction(self.nums.get(0, 0), self.den)

    def as_constant(self):
        if not self.is_constant():
            raise PlinthError("polynomial %s is not constant" % self)
        return self.constant_term()

    def leading(self):
        """(exponent vector, coefficient) of the graded-lex leading term."""
        if self.is_zero():
            raise PlinthError("zero polynomial has no leading term")
        key = max(self.nums)
        return self.ring.decode(key), Fraction(self.nums[key], self.den)

    def total_degree(self):
        return max(self.nums) >> self.ring._top if self.nums else float("-inf")

    def degree_in(self, name):
        i = self.ring.index(name)
        return _deg(self, i) if self.nums else float("-inf")

    def param_degree(self):
        return max((self.ring.degrees(k)[0] for k in self.nums), default=float("-inf"))

    def var_degree(self):
        return max((self.ring.degrees(k)[1] for k in self.nums), default=float("-inf"))

    def involves(self, name):
        return _deg(self, self.ring.index(name)) > 0

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
        if len(a) == 1 and 0 in a:
            a, b = b, a
        if len(b) == 1 and 0 in b:  # a constant factor keeps the monomials
            k = b[0]
            acc = {e: c * k for e, c in a.items()}
        else:
            # the leading monomials' product is the product's greatest key
            self.ring.check_degree(max(a, default=0) + max(b, default=0))
            acc = {}
            get = acc.get
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
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


# ---------------------------------------------------------------------------
# spec'd operations


def partial_derivative(f, name):
    i = f.ring.index(name)
    s, unit = f.ring._shifts[i], f.ring._units[i]
    out = {k - unit: c * (k >> s & FIELD_MASK) for k, c in f.nums.items() if k >> s & FIELD_MASK}
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


def _int_divmod(f, g, guards):
    """Greedy graded-lex division of integer polynomials: (q, r, s) with
    s*f = q*g + r, s a positive integer and no term of r divisible by the
    leading monomial of g.

    f, g, q and r are {key: int}, g primitive, and guards is the ring's
    _guards.  Each step takes the leading term of the work from a heap, not
    a scan, as in the heap division of Monagan & Pearce, J. Symb. Comput.
    46 (2011); the heap holds negated keys, so its least entry is the
    leading term.  If g divides f, every quotient coefficient is an
    integer (Gauss's lemma) and s = 1; a step that is not exact scales the
    work, q and r by the missing factor.
    """
    ge = max(g)
    gc = g[ge]
    tail = [(e, c) for e, c in g.items() if e != ge]
    work = dict(f)
    get = work.get
    heap = [-e for e in work]
    heapify(heap)
    q, r, s = {}, {}, 1
    while heap:
        e = -heappop(heap)
        c = work.pop(e)
        if not c:
            continue
        qe = e - ge
        if qe & guards:  # a field borrowed: ge does not divide e
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
            e2 = qe + t
            old = get(e2)
            if old is None:
                work[e2] = -qc * tc
                heappush(heap, -e2)
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
    q, r, s = _int_divmod(f.nums, b, ring._guards)
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
    if nums[max(nums)] < 0:
        g = -g
    return MultiPoly._of(f.ring, {e: c // g for e, c in nums.items()})


# -- gcd machinery -----------------------------------------------------------


def _deg(f, i):
    s = f.ring._shifts[i]
    return max((k >> s & FIELD_MASK for k in f.nums), default=-1)


def _coeff_at(f, i, power):
    s, unit = f.ring._shifts[i], power * f.ring._units[i]
    out = {k - unit: c for k, c in f.nums.items() if k >> s & FIELD_MASK == power}
    return MultiPoly._of(f.ring, out, f.den)


def _last_used(ring, keys):
    """The index of the last name that one of the keys involves, or -1."""
    return max((i for i, s in enumerate(ring._shifts) if any(k >> s & FIELD_MASK for k in keys)),
               default=-1)


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
        r = lcg * r - lcr * g * f.ring._gens[i] ** (dr - dg)
    return r


def _gcd_prs(f, g):
    """gcd of two nonzero polynomials by primitive pseudo-remainder sequences
    in their last variable; the contents, one variable fewer, go through
    _gcd2, so the heuristic gets the first try at every level."""
    i = _last_used(f.ring, (*f.nums, *g.nums))
    if i < 0:
        return f.ring.one()
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


def _gcd_heu(ring, f, g):
    """gcd of two nonzero integer polynomials by GCDHEU, or None on giving up.

    Char, Geddes & Gonnet, J. Symbolic Comput. 7 (1989); Geddes, Czapor &
    Labahn, Algorithms for Computer Algebra (1992), section 7.7: evaluate the
    last variable at xi, recurse, rebuild a candidate from the symmetric
    xi-adic digits.  It is returned only if it divides both inputs exactly;
    as xi > 2*min(|f|, |g|) + 2, that proves it is the gcd (Theorem 7.7).
    """
    cf, cg = _igcd(*f.values()), _igcd(*g.values())
    cont = _igcd(cf, cg)
    if f.keys() == {0} or g.keys() == {0}:
        return {0: cont}
    i = _last_used(ring, (*f, *g))
    s, unit = ring._shifts[i], ring._units[i]
    deg = max(k >> s & FIELD_MASK for k in (*f, *g))
    f = {e: c // cf for e, c in f.items()}
    g = {e: c // cg for e, c in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * deg > _HEU_MAX_BITS:
            return None
        fx, gx = _eval_at(f, s, unit, xi), _eval_at(g, s, unit, xi)
        h = _gcd_heu(ring, fx, gx) if fx and gx else None
        if h is not None:
            cand = _xi_adic(h, unit, xi)
            c = _igcd(*cand.values())
            cand = {e: v // c for e, v in cand.items()}
            if max(cand) < ring._cap and all(not _int_divmod(p, cand, ring._guards)[1]
                                             for p in (f, g)):
                return {e: v * cont for e, v in cand.items()} if cont > 1 else cand
        xi = xi * 73794 // 27011
    return None


def _eval_at(f, s, unit, xi):
    """f with the variable of field offset s and key unit set to the integer xi."""
    out = {}
    for key, c in f.items():
        k = key >> s & FIELD_MASK
        e = key - k * unit
        out[e] = out.get(e, 0) + c * xi ** k
    return {e: c for e, c in out.items() if c}


def _xi_adic(h, unit, xi):
    """Polynomial in the variable of key unit whose coefficients are h's
    symmetric xi-adic digits."""
    half = xi // 2
    out = {}
    for key, v in h.items():
        k = 0
        while v:
            d = (v + half) % xi - half
            if d:
                out[key + k * unit] = d
            v = (v - d) // xi
            k += 1
    return out


def _gcd2(f, g):
    """gcd of two polynomials: heuristic first, PRS if it gives up."""
    if f.ring != g.ring:
        raise RingMismatchError("gcd operands ring mismatch")
    if f.is_zero() or g.is_zero():
        return g if f.is_zero() else f
    h = _gcd_heu(f.ring, f.nums, g.nums)
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
        for key in p.nums:
            for i, e in enumerate(ring.decode(key)):
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
    if any(ring.degrees(k)[0] != ring.decode(k)[i] for k in r.nums):
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
    s = ring._shifts[i]
    for k, c in p.nums.items():  # over one denominator, which leaves the roots
        ints[k >> s & FIELD_MASK] = c
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
    return _rename(f, ring, [(i, ring.index(name)) for i, name in enumerate(f.ring.names)])


def restrict(f, ring):
    """Inverse of embed: fails if f involves names missing from ring."""
    mapping = []
    for i, name in enumerate(f.ring.names):
        if name in ring._index:
            mapping.append((i, ring.index(name)))
        elif f.involves(name):
            raise PlinthError("polynomial involves %r, absent from target ring" % name)
    return _rename(f, ring, mapping)


def _rename(f, ring, mapping):
    """f in ring, name src of f's ring becoming name dst of ring."""
    out = {}
    for k, c in f.nums.items():
        exps, e = f.ring.decode(k), [0] * ring.arity
        for src, dst in mapping:
            e[dst] = exps[src]
        out[ring.encode(e)] = c
    return MultiPoly._of(ring, out, f.den)


# ---------------------------------------------------------------------------
# text grammar: parse + print, bijective on canonical forms


def poly_to_string(f):
    if f.is_zero():
        return "0"
    parts = []
    nums, den, ring = f.nums, f.den, f.ring
    monomials = ring._monomials
    for key in sorted(nums, reverse=True):
        num = nums[key]
        g = _igcd(num, den) if den != 1 else 1  # each coefficient in lowest terms
        try:
            mag = str(abs(num) // g) if g == den else "%d/%d" % (abs(num) // g, den // g)
        except ValueError:  # more digits than str() converts
            mag = _digits(abs(num) // g) + ("" if g == den else "/" + _digits(den // g))
        mono = monomials.get(key)
        if mono is None:
            mono = monomials[key] = "*".join(
                name if e == 1 else "%s^%d" % (name, e)
                for name, s in zip(ring.names, ring._shifts) if (e := key >> s & FIELD_MASK))
        if parts:
            parts.append(" + " if num > 0 else " - ")
        elif num < 0:
            parts.append("-")
        parts.append(mag if not mono else mono if mag == "1" else mag + "*" + mono)
    return "".join(parts)


def _digits(n):
    """str(n) for a natural n of any size: str() refuses one of more than
    sys.get_int_max_str_digits() digits, so a longer one is cut at a power
    of ten into two halves, each converted alone."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half its digits
        high, low = divmod(n, 10**k)
        return _digits(high) + _digits(low).zfill(k)


def _check_power(nums, den, k, pos):
    """Refuse the power p^k of p = nums / den before expanding it, if it may
    have more than MAX_POWER_TERMS terms (at most C(t+k-1, k) for t terms:
    one per multiset of k of them) or a coefficient with more digits than
    int() reads (at most max(den, sum |nums|)^k in lowest terms)."""
    t = len(nums)
    if t > 1 and (k >= MAX_POWER_TERMS or _comb(t + k - 1, k) > MAX_POWER_TERMS):
        raise PolyParseError("a power of %d terms to the %d may have more than %d terms"
                             % (t, k, MAX_POWER_TERMS), pos)
    limit = sys.get_int_max_str_digits()
    height = max(den, sum(map(abs, nums.values())))
    if limit and height > 1 and (k > 4 * limit or k * _log10(height) >= limit):
        raise PolyParseError("a coefficient of this power may have more than %d digits"
                             % limit, pos)


def _check_readable(f):
    """Refuse f if a coefficient, in lowest terms, has more digits than int()
    reads, so that its printed form would not parse back."""
    limit = sys.get_int_max_str_digits()
    big = max(f.den, max(map(abs, f.nums.values()), default=0))
    if not limit or big.bit_length() <= 3 * limit:  # below 2^(3L) < 10^L
        return
    top = 10**limit
    for num in f.nums.values():
        if max(abs(num), f.den) // _igcd(num, f.den) >= top:
            raise PolyParseError("a coefficient has more than %d digits" % limit, 0)


class _Parser:
    """Recursive descent over the tokens of a text, (kind, value, position)
    found in one regex pass; a character that starts no token fails once
    the parser reaches it.  A term is built as coeff * monomial * poly: its
    numbers and variables multiply into coeff and one key, its
    parenthesized factors into poly.  The parser is an object, not nested
    functions, so its tokens are freed as soon as the parse ends."""

    def __init__(self, ring, text):
        self.ring, self.units, self.tokens, self.i = ring, ring._units, [], 0
        for m in re.finditer(r"[ \t]*(?:(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<op>[-+*/^()])"
                             r"|(?P<bad>.))", text, re.S):
            kind = m.lastgroup
            try:
                value = int(m.group(kind)) if kind == "int" else m.group(kind)
            except ValueError:  # more digits than int() converts
                raise PolyParseError("integer literal too long", m.start(kind)) from None
            self.tokens.append((value if kind == "op" else kind, value, m.start(kind)))
        self.tokens.append(("end", None, len(text)))

    def peek(self):
        kind, value, pos = token = self.tokens[self.i]
        if kind == "bad":
            raise PolyParseError("unexpected character %r" % value, pos)
        return token

    def next(self):
        token = self.peek()
        if token[0] != "end":
            self.i += 1
        return token

    def expr(self):
        """The sum of the terms; those without a poly in one accumulator."""
        ring, units = self.ring, self.units
        acc, polys = {}, []
        kind, _, _ = self.peek()
        while True:  # kind is a sign, or the first term has none
            sign = -1 if kind == "-" else 1
            if kind in ("+", "-"):
                self.next()
            coeff, key, poly = self.term()
            c = sign * coeff
            if poly is None:
                acc[key] = acc.get(key, 0) + c
            else:
                polys.append(poly if c == 1 and not key else
                             poly * MultiPoly._of(ring, {key: c.numerator}, c.denominator))
            kind, _, _ = self.peek()
            if kind not in ("+", "-"):
                break
        if not polys and len(acc) == 1 and acc[key] == 1 and key in units:
            return ring._gens[units.index(key)]  # a variable is shared
        value = MultiPoly._of(ring, *_content_form(acc)) if acc or not polys else polys.pop()
        for poly in polys:
            value = value + poly
        return value

    def term(self):
        """(coeff, key, poly) for coeff * monomial(key) * poly, None for a poly of 1."""
        coeff, key, poly = self.factor()
        while True:
            kind, _, _ = self.peek()
            if kind == "/":
                self.next()
                knd, val, pos = self.next()
                if knd != "int":
                    raise PolyParseError("expected an integer denominator", pos)
                if val == 0:
                    raise PolyParseError("division by zero", pos)
                coeff = Fraction(coeff, val)
                continue
            if kind == "*":
                self.next()
            elif kind not in ("int", "name", "("):  # not juxtaposition either
                return coeff, self.ring.check_degree(key), poly
            start = self.i
            c, k, p = self.factor()
            coeff, key = coeff * c, key + k if key else k  # k may be a shared unit key
            if p is not None:
                if poly is not None and len(poly.nums) * len(p.nums) > MAX_PRODUCT_TERMS:
                    raise PolyParseError("a product of %d by %d terms may have more than %d terms"
                                         % (len(poly.nums), len(p.nums), MAX_PRODUCT_TERMS),
                                         self.tokens[start][2])
                poly = p if poly is None else poly * p

    def factor(self):
        coeff, key, poly = self.base()
        kind, _, _ = self.peek()
        if kind == "^":
            self.next()
            knd, val, pos = self.next()
            if knd != "int":
                raise PolyParseError("expected a natural exponent after '^'", pos)
            if poly is not None:
                _check_power(poly.nums, poly.den, val, pos)
                return 1, 0, poly**val
            if not key:  # a number to a power
                _check_power({0: coeff}, 1, val, pos)
            return coeff**val, key * val, None
        return coeff, key, poly

    def base(self):
        kind, value, pos = self.next()
        if kind == "int":
            return value, 0, None
        if kind == "name":
            if value not in self.ring._index:
                raise PolyParseError("unknown variable %r" % value, pos)
            return 1, self.units[self.ring._index[value]], None
        if kind == "(":
            inner = self.expr()
            knd, _, pos2 = self.next()
            if knd != ")":
                raise PolyParseError("expected ')'", pos2)
            return 1, 0, inner
        raise PolyParseError("expected a number, variable or '('", pos)


def poly_from_string(ring, text):
    """Parse the polynomial grammar: + - * / ^ ( ), implicit products allowed,
    in one pass (_Parser)."""
    parser = _Parser(ring, text)
    try:
        value = parser.expr()
    except RecursionError:  # each '(' costs four frames of the descent
        raise PolyParseError("parentheses nested too deeply",
                             parser.tokens[parser.i][2]) from None
    kind, _, pos = parser.peek()
    if kind != "end":
        raise PolyParseError("trailing input", pos)
    _check_readable(value)
    return value
