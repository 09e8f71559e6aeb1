"""Seeded request generators for the three workloads, the calls each request
makes into plinth, and the per-request correctness checks.

A workload is a sequence of rounds.  Round r of seed s is built from
``random.Random("<workload>:<s>:<r>")`` as problem text, and every round holds
the same mix of families and sizes with fresh random instances, so a run
that averages over several rounds depends little on the seed.  plinth
receives only the text (``formula``) or the objects parsed from it
(``verify``, ``discover``).  Nothing here runs while a request is timed
except ``Request.execute``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

from plinth import cli, derivation, imageideals, linalg, oracle

DEFAULT_SEED = 1  # the seed discover_reference.json holds spans for
REFERENCE_FILE = Path(__file__).with_name("discover_reference.json")
# Acceptance test 1 lifts the oracle cap the same way: the CLI default of
# 20000 entries already stops inice at bounds 4,4.
VERIFY_ENTRY_CAP = 5_000_000
COEFFS = (-3, -2, -1, 1, 2, 3)


# ---------------------------------------------------------------------------
# problem text


def _term_text(coeff, exps, names):
    factors = [n if e == 1 else "%s^%d" % (n, e) for n, e in zip(names, exps) if e]
    mag = abs(coeff)
    if not factors:
        body = str(mag)
    elif mag == 1:
        body = "*".join(factors)
    else:
        body = "*".join([str(mag)] + factors)
    return body, coeff < 0


def poly_text(poly, names):
    """Text of a polynomial given as {exponent tuple: int or Fraction}."""
    parts = []
    for exps in sorted(poly, key=lambda e: (sum(e), e), reverse=True):
        coeff = poly[exps]
        if coeff == 0:
            continue
        body, neg = _term_text(coeff, exps, names)
        if parts:
            parts.append(("- " if neg else "+ ") + body)
        else:
            parts.append("-" + body if neg else body)
    return " ".join(parts) or "0"


def _padd(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def _pmul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _problem(params, vars_, images, extra=()):
    names = tuple(params) + tuple(vars_)
    lines = ["param %s" % p for p in params] + ["var %s" % v for v in vars_]
    lines += ["D %s = %s" % (v, poly_text(img, names)) for v, img in zip(vars_, images)]
    return "\n".join(lines + list(extra)) + "\n"


# ---------------------------------------------------------------------------
# univariate helpers for the benchmark's own coprimality check


def _ugcd_degree(f, g):
    """Degree of gcd(f, g) in Q[x]; lists hold coefficients, lowest first."""
    a = [Fraction(c) for c in f]
    b = [Fraction(c) for c in g]
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    while b:
        while len(a) >= len(b) and a:
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _specialize(poly, keep, value):
    """Coefficient list in variable ``keep`` after setting the other one."""
    other = 1 - keep
    deg = max(e[keep] for e in poly)
    out = [Fraction(0)] * (deg + 1)
    for e, c in poly.items():
        out[e[keep]] += c * Fraction(value) ** e[other]
    return out


def coprime_2(f, g):
    """Sound sufficient test that f, g in Q[a, b] share no factor.

    A common factor of positive degree in one variable survives every
    specialization of the other variable that keeps both leading
    coefficients, so a unit gcd after such a specialization rules it out.
    """
    for keep in (0, 1):
        for value in (2, 3, 5, 7, 11):
            fs, gs = _specialize(f, keep, value), _specialize(g, keep, value)
            degf = max(e[keep] for e in f)
            degg = max(e[keep] for e in g)
            if len(fs) - 1 == degf and fs[-1] != 0 and gs[-1] != 0 and len(gs) - 1 == degg:
                if _ugcd_degree(fs, gs) > 0:
                    return False
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# requests


@dataclass
class Request:
    """One request: ``execute`` is timed, ``check`` is not."""

    workload: str
    label: str
    text: str
    j: int = 1
    bounds: tuple = (2, 2)
    tag: str = ""
    # parsed from the text at set-up for verify and discover
    D: object = None
    predicted: list = None
    reference: list = None  # stored discover span, seed 1 only

    def execute(self):
        return EXECUTE[self.workload](self)

    def check(self, outcome):
        """A list of failed checks, empty when every check holds."""
        return CHECK[self.workload](self, outcome)


# -- formula ------------------------------------------------------------------

NICE_DEGREES = (1, 2, 3)
# Degree 4 is where the gcd dominates (degree 5 does not finish; see
# README.md).  Random degree-4 pairs differ up to threefold in cost, more
# than the 14 a run holds can average out, so they come from a fixed pool
# that every seed cycles through in its own order, each pair with its own
# parameter signs a -> +-a, b -> +-b, which leave the cost unchanged.
ANCHOR_POOL = 6
ANCHORS_PER_ROUND = 2
QUASI_DEGREES = (2, 3, 4)
PID3_DEGREES = (1, 2, 3)


def _rand_ab(rng, degree, lead):
    """lead + random terms of total degree 2..degree in (a, b)."""
    mons = [(i, k - i) for k in range(2, degree + 1) for i in range(k + 1)]
    poly = {lead: rng.choice((1, 2, 3))}
    for e in rng.sample(mons, min(len(mons), 2 * degree)):
        poly[e] = rng.choice(COEFFS)
    return poly


def _nice_pair(rng, degree):
    """Coprime f1, f2 in Q[a, b] vanishing at the origin: D X = f1, D Y = f2
    is nice and not fixed point free, so theorem inice."""
    while True:
        if degree == 1:
            r1, r2 = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
            if r1 * r2 == 1:
                continue
            f1, f2 = {(1, 0): 1, (0, 1): r1}, {(1, 0): r2, (0, 1): 1}
        else:
            f1, f2 = _rand_ab(rng, degree, (1, 0)), _rand_ab(rng, degree, (0, 1))
        if coprime_2(f1, f2):
            return f1, f2


def _ab_problem(images, signs=(1, 1)):
    """Problem text for D X, D Y in Q[a, b], after a -> +-a, b -> +-b."""
    return _problem(("a", "b"), ("X", "Y"), [
        {e + (0, 0): c * signs[0] ** e[0] * signs[1] ** e[1] for e, c in img.items()}
        for img in images])


def _nice_request(pair, degree, signs=(1, 1)):
    return Request("formula", "nice-d%d" % degree, _ab_problem(pair, signs), tag="inice")


ANCHORS = [_nice_pair(random.Random("formula-anchor:%d" % k), 4) for k in range(ANCHOR_POOL)]


LINEAR_PRIMES = [((-r, 1), "t - %d" % r if r > 0 else "t + %d" % -r if r else "t")
                 for r in (-3, -2, -1, 0, 1, 2, 3)]
QUADRATIC_PRIMES = [((k, 0, 1), "t^2 + %d" % k) for k in (1, 2, 3, 5)]


def _ulist_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


def _quasi_request(rng, degree):
    """Strictly 1-quasi-nice over Q[t] with factor lines: 2varquasi_PID."""
    primes = rng.sample(LINEAR_PRIMES, rng.choice((1, 2))) + rng.sample(QUADRATIC_PRIMES, 1)
    rng.shuffle(primes)
    lead = rng.choice((-2, -1, 1, 2))
    b = [lead]
    factor_lines = []
    for coeffs, text in primes:
        mult = rng.choice((1, 1, 2))
        for _ in range(mult):
            b = _ulist_mul(b, list(coeffs))
        factor_lines.append("factor %s : %d" % (text, mult))
    # f = sum c_k(t) X1^k with deg c_k <= 1 < deg b, so f mod b = f has
    # degree >= 2 in X1; c_1 constant keeps gcd(DX1, DX2) = 1.
    cs = {1: [rng.choice(COEFFS), 0]}
    for k in range(2, degree + 1):
        cs[k] = [rng.choice(COEFFS), rng.choice(COEFFS)]
    dx1 = {(i, 0, 0): c for i, c in enumerate(b) if c}
    dx2 = {}
    for k, (c0, c1) in cs.items():
        for tdeg, c in ((0, c0), (1, c1)):
            if c:
                dx2[(tdeg, k - 1, 0)] = -k * c
    text = _problem(("t",), ("X1", "X2"), [dx1, dx2], factor_lines)
    return Request("formula", "quasi-d%d" % degree, text, tag="2varquasi_PID")


def _pid3_request(rng, degree):
    """Nice 3-variable over Q[t], DX = 0, DY = t*p1(t), DZ = r*X + t*q1(t):
    the reduced problem is not fixed point free, so theorem pid-3var."""
    def tpoly():
        return {(k + 1, 0, 0, 0): rng.choice(COEFFS) for k in range(degree)
                if k == 0 or rng.random() < 0.7}
    dz = tpoly()
    dz[(0, 1, 0, 0)] = rng.choice(COEFFS)
    text = _problem(("t",), ("X", "Y", "Z"), [{}, tpoly(), dz])
    return Request("formula", "pid3-d%d" % degree, text, tag="pid-3var")


def _slice_requests(rng):
    out = []
    # nice over Q[t] with coprime images: slice from the Bezout identity
    for degree in (2, 4):
        while True:
            p = [rng.choice(COEFFS) for _ in range(degree + 1)]
            q = [rng.choice(COEFFS) for _ in range(degree + 1)]
            if _ugcd_degree(p, q) == 0:
                break
        imgs = [{(i, 0, 0): c for i, c in enumerate(p)}, {(i, 0, 0): c for i, c in enumerate(q)}]
        out.append(Request("formula", "slice-egcd-d%d" % degree,
                           _problem(("t",), ("X", "Y"), imgs), tag="slice"))
    # one variable, D X a unit
    out.append(Request("formula", "slice-1var",
                       _problem((), ("X",), [{(0,): rng.choice(COEFFS)}]), tag="slice"))
    # nice over Q[a, b], DX = f, DY = 1 + f*g: bounded Bezout certificate
    for degree in (1, 2):
        f = _rand_ab(rng, 2, (1, 0))
        g = {e: rng.choice(COEFFS) for e in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
             if sum(e) <= degree}
        dy = _padd({(0, 0): 1}, _pmul(f, g))
        out.append(Request("formula", "slice-bezout-d%d" % degree, _ab_problem([f, dy]),
                           tag="slice"))
    return out


def formula_requests(rng, seed, rnd):
    order = random.Random("formula-anchors:%d" % seed).sample(range(ANCHOR_POOL), ANCHOR_POOL)
    reqs = [_nice_request(_nice_pair(rng, d), d) for d in NICE_DEGREES]
    for slot in range(ANCHORS_PER_ROUND):
        pair = ANCHORS[order[(rnd * ANCHORS_PER_ROUND + slot) % ANCHOR_POOL]]
        reqs.append(_nice_request(pair, 4, (rng.choice((-1, 1)), rng.choice((-1, 1)))))
    reqs += [_quasi_request(rng, d) for d in QUASI_DEGREES]
    reqs += [_pid3_request(rng, d) for d in PID3_DEGREES]
    return reqs + _slice_requests(rng)


FORMULA_STEPS = (("check", None), ("kernel", None),
                 ("image-ideal", 1), ("image-ideal", 2), ("image-ideal", 3))


def _execute_formula(req):
    spec = cli.parse_problem(req.text)
    return spec, [cli.run(cmd, spec, n=n) for cmd, n in FORMULA_STEPS]


def _check_formula(req, outcome):
    spec, reports = outcome
    D = spec.derivation()
    errors = []
    for (cmd, n), rep in zip(FORMULA_STEPS, reports):
        if rep.exit_code != 0:
            errors.append("%s n=%s exit %d" % (cmd, n, rep.exit_code))
        if cmd == "kernel":
            for g in rep.generators:
                if not derivation.apply(D, spec.ring.poly(g)).is_zero():
                    errors.append("kernel generator %s not in Ker(D)" % g)
        if cmd != "image-ideal":
            continue
        cert = rep.certificates[0]
        if cert["theorem"] != req.tag:
            errors.append("n=%d theorem %s, family %s" % (n, cert["theorem"], req.tag))
            continue
        gens = [spec.ring.poly(g) for g in rep.generators]
        for g in gens:
            if not derivation.apply(D, g).is_zero():
                errors.append("n=%d generator %s not in Ker(D)" % (n, g))
        factor = 1 if req.tag == "slice" else factorial(n)
        for g, pre in zip(gens, cert["preimages"] or ()):
            if derivation.iterate(D, spec.ring.poly(pre), n) != factor * g:
                errors.append("n=%d preimage %s of %s fails" % (n, pre, g))
    return errors


# -- verify -------------------------------------------------------------------

# Predicted generators of I_j for each fixture and j.
PREDICTED = {
    ("inice", 1): ("a", "b"),
    ("inice", 2): ("a^2", "a*b", "b^2"),
    ("inice", 3): ("a^3", "a^2*b", "a*b^2", "b^3"),
    ("wink1", 1): ("a", "b", "b*X - a*Y"),
    ("pid3", 1): ("t", "X"),
    ("pid3", 2): ("t^2", "t*X", "X^2"),
    ("tparam", 1): ("1 - t",),
    ("qnice", 1): ("1",),
    ("qnice", 2): ("1",),
}
# A smaller variable bound leaves no preimage in the window: INCONCLUSIVE.
MIN_VAR_BOUND = {("inice", 3): 3, ("qnice", 2): 4}
# Every pair at every bound p, v in 2..4 with p + v <= 7 (6 for wink1,
# which takes ~36 s alone at 4,4; see README.md): a ladder of costs from
# 0.01 s to 3 s with no wide gap, so percentiles do not sit on a jump.  Plus
# inice j = 2 at 4,4, the pair the CLI's default entry cap refuses.
VERIFY_CASES = [(name, j, (p, v)) for (name, j) in PREDICTED
                for p in (2, 3, 4) for v in (2, 3, 4)
                if p + v <= (6 if name == "wink1" else 7)
                and v >= MIN_VAR_BOUND.get((name, j), 2)]
VERIFY_CASES.append(("inice", 2, (4, 4)))
FIXTURE_PARAMS = {"inice": "ab", "wink1": "ab", "pid3": "t", "tparam": "t", "qnice": "t"}


def _flip_params(text, flipped):
    """Substitute p -> (-p) for each parameter in ``flipped``: the same
    derivation up to an automorphism of R, with the predicted ideal mapped
    along and coefficient sizes, so the cost, unchanged."""
    if not flipped:
        return text
    return re.sub(r"\b(%s)\b" % "|".join(flipped), r"(-\1)", text)


def verify_requests(rng, seed, rnd):
    reqs = []
    for name, j, bounds in VERIFY_CASES:
        flipped = [p for p in FIXTURE_PARAMS[name] if rng.random() < 0.5]
        lines = []
        for line in cli.FIXTURES[name].splitlines():
            head, _, rest = line.partition(" ")
            if head in ("D", "factor"):
                lines.append("%s %s" % (head, _flip_params(rest, flipped)))
            elif head in ("param", "var"):
                lines.append(line)
        lines += ["expect %s" % _flip_params(g, flipped) for g in PREDICTED[name, j]]
        reqs.append(Request("verify", "%s-j%d-b%d,%d" % ((name, j) + bounds),
                            "\n".join(lines) + "\n", j=j, bounds=bounds))
    return reqs


def _execute_verify(req):
    return oracle.verify_image_ideal(req.D, req.j, req.predicted,
                                     req.bounds[0], req.bounds[1], VERIFY_ENTRY_CAP)


def _check_verify(req, report):
    errors = []
    if report.overall != "PASS":
        errors.append("verdict %s" % report.overall)
    for item in report.forward_items:
        pre = item.certificate
        if pre is not None and derivation.iterate(req.D, pre, req.j) != item.element:
            errors.append("forward preimage of %s fails its re-check" % item.element)
    return errors


# -- discover -----------------------------------------------------------------

DISCOVER_SHAPES = ((1, 2), (2, 1), (2, 2), (3, 1))  # slice bounds p, v
PARAM_MONOS = ((0, 0), (1, 0), (0, 1))


def _slice_dim(p, v, nparams=2, nvars=3):
    return comb(p + nparams, nparams) * comb(v + nvars, nvars)


def _affine_ab(rng, var=None):
    """(c0 + c1*a + c2*b) * var in Q[a, b][X, Y, Z], c0 != 0; var is the
    index of X, Y or Z, or None for 1."""
    shift = tuple(int(var == k) for k in range(3))
    out = {}
    for e in PARAM_MONOS:
        c = rng.choice(COEFFS) if e == (0, 0) or rng.random() < 0.7 else 0
        if c:
            out[e + shift] = c
    return out


def discover_requests(rng, seed, rnd):
    """Triangular derivations over Q[a, b] in three variables: D X in R,
    D Y in R + R*X, D Z in R + R*X + R*Y, every image with a constant term.
    Images have parameter degree 1 and variable degree <= 1, so D^j raises
    the parameter bound by j; every (bounds, j) below keeps the oracle's
    largest matrix under the default entry cap."""
    reqs = []
    for p, v in DISCOVER_SHAPES:
        for j in (1, 2, 3):
            src = _slice_dim(p, v)
            assert _slice_dim(p + j + 1, v) * src <= oracle.DEFAULT_ENTRY_CAP
            dx = _affine_ab(rng)
            dy = _padd(_affine_ab(rng), {(0, 0, 1, 0, 0): rng.choice(COEFFS)})
            dz = _padd(_padd(_affine_ab(rng), _affine_ab(rng, 0)), _affine_ab(rng, 1))
            text = _problem(("a", "b"), ("X", "Y", "Z"), [dx, dy, dz])
            reqs.append(Request("discover", "tri-b%d,%d-j%d" % (p, v, j), text, j=j,
                                bounds=(p, v), tag="oracle-only"))
    return reqs


def _execute_discover(req):
    return imageideals.image_ideal(req.D, req.j, bounds=req.bounds)


def span_key(gens):
    """[rank, digest of the reduced echelon form] of the Q-span of gens."""
    monos = sorted({e for g in gens for e in g.terms}, key=lambda e: (sum(e), e),
                   reverse=True)
    rows = [[g.terms.get(e, Fraction(0)) for e in monos] for g in gens]
    rank = 0
    for col in range(len(monos)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    echelon = [[[list(e), str(x)] for e, x in zip(monos, row) if x] for row in rows[:rank]]
    return [rank, hashlib.sha256(json.dumps(echelon).encode()).hexdigest()[:16]]


def _check_discover(req, res):
    errors = []
    if res.theorem != req.tag:
        errors.append("theorem %s" % res.theorem)
    if any("entry cap" in note for note in res.notes):
        errors.append("oracle hit the entry cap")
    for g in res.generators:
        if not derivation.apply(req.D, g).is_zero():
            errors.append("generator %s not in Ker(D)" % g)
    if req.reference is not None and span_key(res.generators) != req.reference:
        errors.append("span %s differs from the stored reference %s"
                      % (span_key(res.generators), req.reference))
    return errors


# ---------------------------------------------------------------------------
# workload table, set-up, properties

GENERATORS = {"formula": formula_requests, "verify": verify_requests,
              "discover": discover_requests}
EXECUTE = {"formula": _execute_formula, "verify": _execute_verify,
           "discover": _execute_discover}
CHECK = {"formula": _check_formula, "verify": _check_verify,
         "discover": _check_discover}


def load_reference():
    return json.loads(REFERENCE_FILE.read_text())


def generate(workload, seed, rnd):
    """Round ``rnd`` of the workload's requests for ``seed``, shuffled."""
    rng = random.Random("%s:%d:%d" % (workload, seed, rnd))
    reqs = GENERATORS[workload](rng, seed, rnd)
    for i, req in enumerate(reqs):
        req.label = "r%d-%s#%d" % (rnd, req.label, i)
    rng.shuffle(reqs)
    return reqs


def setup(workload, seed, rnd, reference=None):
    """Generate one round and parse what its requests need; ``reference``
    maps labels to stored discover spans."""
    reqs = generate(workload, seed, rnd)
    if workload == "formula":
        return reqs
    for req in reqs:
        spec = cli.parse_problem(req.text)
        req.D = spec.derivation()
        req.predicted = list(spec.expect or ())
        if reference is not None:
            req.reference = reference.get(req.label)
    return reqs


def digest(workload, seed, rounds=3):
    """Digest of the inputs of the first rounds."""
    h = hashlib.sha256()
    for rnd in range(rounds):
        for req in generate(workload, seed, rnd):
            h.update(json.dumps([req.label, req.text, req.j, list(req.bounds)]).encode())
    return h.hexdigest()[:16]


def admits_grading(D):
    """Whether some nonzero integer weighting w of params and variables makes
    D homogeneous: w(term) - w(X_i) = delta for every term of every D X_i.
    Solved as the nullspace of the exponent-shift system in (w, delta)."""
    ring = D.ring
    n = ring.arity
    rows = []
    for i, img in enumerate(D.images):
        for exps in img.terms:
            row = [Fraction(e) for e in exps] + [Fraction(-1)]
            row[ring.nparams + i] -= 1
            rows.append(row)
    return any(any(x for x in vec[:n]) for vec in linalg.nullspace(rows, n + 1))


def theorem(req, outcome):
    """The theorem tag plinth gave the request."""
    if req.workload == "formula":
        return outcome[1][2].certificates[0]["theorem"]
    if req.workload == "discover":
        return outcome.theorem
    factored_b = cli.parse_problem(req.text).factored_b
    return imageideals.image_ideal(req.D, req.j, factored_b=factored_b,
                                   bounds=(2, 2)).theorem


def properties(workload, seed, reqs, outcomes):
    """Property shares of one round of requests; ``outcomes`` maps each
    label to the program's output for it, if the request returned one."""
    n = len(reqs)
    tag_share = {}
    graded = 0
    for req in reqs:
        tag = theorem(req, outcomes[req.label]) if req.label in outcomes else "error"
        tag_share[tag] = tag_share.get(tag, 0) + 1 / n
        graded += admits_grading(req.D or cli.parse_problem(req.text).derivation())
    first = digest(workload, seed)
    return {
        "requests_per_round": n,
        "theorem_share": {k: round(v, 4) for k, v in sorted(tag_share.items())},
        "graded_share": round(graded / n, 4),
        "input_digest": first,
        "digest_self_check": first == digest(workload, seed)
        and first != digest(workload, seed + 1),
    }
