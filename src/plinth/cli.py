"""Batch front end: problem-file parsing, the check / kernel / image-ideal /
verify / examples commands, canonical printing, JSON reports, and the
built-in fixture suite."""

import os
import sys
from functools import cached_property

from .derivation import Derivation
from .imageideals import Analysis
from .oracle import DEFAULT_ENTRY_CAP, OracleCapError, verify_image_ideal, worst
from .polyring import CertificateError, PlinthError, PolyRing, poly_to_string

DEFAULT_BOUNDS = (3, 3)


class ProblemFormatError(PlinthError):
    def __init__(self, message, line):
        super().__init__("%s (line %d)" % (message, line))
        self.line = line


class ProblemSpec:
    def __init__(self, params, vars, ring, images, factored_b=None, bounds=None,
                 cap=None, expect=None):
        self.params = params
        self.vars = vars
        self.ring = ring
        self.images = images  # var name -> MultiPoly
        self.factored_b = factored_b  # (MultiPoly, multiplicity, asserted)
        self.bounds = bounds
        self.cap = cap
        self.expect = expect  # predicted generators for verify

    def __eq__(self, other):  # the fields, not what is cached on first use
        keys = ("params", "vars", "ring", "images", "factored_b", "bounds", "cap", "expect")
        return type(other) is ProblemSpec and all(
            getattr(self, k) == getattr(other, k) for k in keys)

    # Built on first use and shared by every command run on this spec, so
    # the spec is not changed after its first run.
    @cached_property
    def analysis(self):
        D = Derivation(self.ring, [self.images[v] for v in self.vars])
        return Analysis(D, self.factored_b)

    @cached_property
    def echo(self):
        return problem_to_string(self)

    def derivation(self):
        return self.analysis.D


def parse_problem(text):
    """Parse the plain-text problem format; see problem_to_string for the
    canonical form it round-trips with."""
    params = []
    varnames = []
    d_lines = []
    factor_lines = []
    expect_lines = []
    bounds = None
    cap = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "param":
            if not rest:
                raise ProblemFormatError("param needs at least one name", lineno)
            params.extend(rest.split())
        elif head == "var":
            if not rest:
                raise ProblemFormatError("var needs at least one name", lineno)
            varnames.extend(rest.split())
        elif head == "D":
            name, eq, poly_text = rest.partition("=")
            if not eq:
                raise ProblemFormatError("expected 'D <var> = <poly>'", lineno)
            d_lines.append((name.strip(), poly_text.strip(), lineno))
        elif head == "factor":
            body, colon, tail = rest.partition(":")
            if not colon:
                raise ProblemFormatError(
                    "expected 'factor <poly> : <multiplicity>'", lineno
                )
            pieces = tail.split()
            if not pieces:
                raise ProblemFormatError("factor needs a multiplicity", lineno)
            try:
                mult = int(pieces[0])
            except ValueError:
                raise ProblemFormatError(
                    "multiplicity must be an integer, got %r" % pieces[0], lineno
                ) from None
            asserted = False
            if len(pieces) == 2 and pieces[1] == "assert-irreducible":
                asserted = True
            elif len(pieces) > 1:
                raise ProblemFormatError(
                    "unexpected trailing tokens %r" % pieces[1:], lineno
                )
            factor_lines.append((body.strip(), mult, asserted, lineno))
        elif head == "expect":
            if not rest:
                raise ProblemFormatError("expect needs a polynomial", lineno)
            expect_lines.append((rest, lineno))
        elif head == "bounds":
            try:
                bounds = parse_bounds(rest, "'bounds p,v'")
            except PlinthError as err:
                raise ProblemFormatError(str(err), lineno) from None
        elif head == "cap":
            try:
                cap = int(rest)
            except ValueError:
                raise ProblemFormatError("cap must be an integer", lineno) from None
        else:
            raise ProblemFormatError("unknown directive %r" % head, lineno)
    if not varnames:
        raise ProblemFormatError("no main variables declared", 0)
    try:
        ring = PolyRing(params, varnames)
    except PlinthError as err:
        raise ProblemFormatError(str(err), 0) from None

    def parse_poly(text_, lineno):
        try:
            return ring.poly(text_)
        except PlinthError as err:
            raise ProblemFormatError(str(err), lineno) from None

    images = {}
    for name, poly_text, lineno in d_lines:
        if name not in ring.vars:
            raise ProblemFormatError("unknown variable %r in D line" % name, lineno)
        if name in images:
            raise ProblemFormatError("duplicate D line for %r" % name, lineno)
        images[name] = parse_poly(poly_text, lineno)
    missing = [v for v in varnames if v not in images]
    if missing:
        raise ProblemFormatError("missing image for %s" % ", ".join(missing), 0)
    factored_b = None
    if factor_lines:
        factored_b = [
            (parse_poly(body, lineno), mult, asserted)
            for body, mult, asserted, lineno in factor_lines
        ]
    expect = []
    for body, lineno in expect_lines:
        expect.append(parse_poly(body, lineno))
        if expect[-1].is_zero():  # it generates nothing, and divides nothing
            raise ProblemFormatError("expect needs a nonzero polynomial", lineno)
    return ProblemSpec(
        params=tuple(params),
        vars=tuple(varnames),
        ring=ring,
        images=images,
        factored_b=factored_b,
        bounds=bounds,
        cap=cap,
        expect=expect or None,
    )


def parse_bounds(text, form):
    """The slice bounds (p, v) from the text p,v of the bounds line or of
    --bounds, form naming which in the error for a malformed one."""
    parts = text.split(",")
    if len(parts) != 2:
        raise PlinthError("expected %s" % form)
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise PlinthError("bounds must be integers") from None


def problem_to_string(spec):
    """Canonical printing; parse_problem(problem_to_string(s)) == s."""
    lines = []
    for p in spec.params:
        lines.append("param %s" % p)
    for v in spec.vars:
        lines.append("var %s" % v)
    for v in spec.vars:
        lines.append("D %s = %s" % (v, poly_to_string(spec.images[v])))
    if spec.factored_b:
        for p, mult, asserted in spec.factored_b:
            suffix = " assert-irreducible" if asserted else ""
            lines.append("factor %s : %d%s" % (poly_to_string(p), mult, suffix))
    if spec.expect:
        for p in spec.expect:
            lines.append("expect %s" % poly_to_string(p))
    if spec.bounds is not None:
        lines.append("bounds %d,%d" % spec.bounds)
    if spec.cap is not None:
        lines.append("cap %d" % spec.cap)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in fixtures


FIXTURES = {
    # nice over two parameters: I_j = (a, b)^j
    "inice": (
        "param a\nparam b\nvar X\nvar Y\n"
        "D X = a\nD Y = b\nbounds 2,2\n"
    ),
    # single-parameter quasi-nice instance with reducible DX_1
    "tparam": (
        "param t\nvar X1\nvar X2\n"
        "D X1 = -t^2 + t\nD X2 = -t*X1 - t + 1\n"
        "factor t : 1\nfactor -t + 1 : 1\n"
        "expect -t + 1\n"
        "bounds 3,2\n"
    ),
    # three variables over two parameters: plinth needs three generators
    "wink1": (
        "param a\nparam b\nvar X\nvar Y\nvar Z\n"
        "D X = a\nD Y = b\nD Z = b*X - a*Y\n"
        "expect a\nexpect b\nexpect b*X - a*Y\n"
        "bounds 2,2\n"
    ),
    # nice three-variable instance over Q[t], reduces to two variables
    "pid3": (
        "param t\nvar X\nvar Y\nvar Z\n"
        "D X = 0\nD Y = t\nD Z = X\nbounds 2,2\n"
    ),
    # the simplest slice
    "slice1": "var X\nD X = 1\nbounds 2,2\n",
    # fixed point free over Q[t]: slice X + Y from the Bezout identity
    "slice2": (
        "param t\nvar X\nvar Y\nD X = t\nD Y = -t + 1\nbounds 2,2\n"
    ),
    # quasi-nice but nice-able by the coordinate change X2 -> X2 + X1^2/2
    "qnice": (
        "param t\nvar X1\nvar X2\n"
        "D X1 = t\nD X2 = -t*X1 - 1\nbounds 2,2\n"
    ),
    # not locally nilpotent
    "notlnd": "var X\nD X = X\n",
}


# ---------------------------------------------------------------------------
# command runners


# The exit code of each verdict; every report reads its own from here.
EXIT_CODES = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 2}


class RunReport:
    def __init__(self, command, spec_echo, verdict, generators=None,
                 certificates=None, witnesses=None, lines=None, fixtures=None):
        self.command = command
        self.spec_echo = spec_echo
        self.verdict = verdict
        self.generators = [] if generators is None else generators
        self.certificates = [] if certificates is None else certificates
        self.witnesses = [] if witnesses is None else witnesses
        self.lines = [] if lines is None else lines  # human-readable body
        self.fixtures = fixtures  # the fixture names, in the examples listing only
        if verdict == "FAIL" and not self.witnesses:  # a fail is verified by its witness
            raise CertificateError("%s ends FAIL without a witness" % command)
        self.exit_code = EXIT_CODES[verdict]

    def to_json(self):
        out = {
            "command": self.command,
            "spec-echo": self.spec_echo,
            "verdict": self.verdict,
            "generators": self.generators,
            "certificates": self.certificates,
            "witnesses": self.witnesses,
        }
        if self.fixtures is not None:
            out["fixtures"] = self.fixtures
        return out


def _run_check(spec, command):
    """check's report; every command's for a D shown not locally nilpotent,
    which fails with each variable whose iterates recur as a witness."""
    an = spec.analysis
    rep = an.report
    lines = [
        "lnd: %s" % rep.lnd,
        "degrees: %s" % (rep.degrees,),
        "irreducible: %s" % rep.irreducible,
        "classification: %s" % rep.classification,
    ]
    # the answer the image-ideal branch decided, or why there is none
    try:
        fpf = an.fixed_point_free
        shown = "undetermined (%s)" % an.branch[1] if fpf is None else fpf
    except PlinthError as err:
        fpf, shown = None, "undetermined (%s)" % err
    lines.append("fixed point free: %s" % shown)
    lines.extend(rep.notes)
    cert = {
        "lnd": rep.lnd,
        "irreducible": rep.irreducible,
        "classification": rep.classification,
        "fixed_point_free": fpf,
    }
    return RunReport(
        command=command,
        spec_echo=spec.echo,
        verdict={True: "PASS", None: "INCONCLUSIVE", False: "FAIL"}[rep.lnd],
        certificates=[cert],
        witnesses=list(rep.recurring),
        lines=lines,
    )


def _run_kernel(spec):
    try:
        gens = [poly_to_string(g) for g in spec.analysis.kernel]
    except PlinthError as err:
        return RunReport(
            command="kernel",
            spec_echo=spec.echo,
            verdict="INCONCLUSIVE",
            lines=["unsupported structure: %s" % err],
        )
    return RunReport(
        command="kernel",
        spec_echo=spec.echo,
        verdict="PASS",
        generators=gens,
        # each generator was re-checked to satisfy D(g) = 0, or kernel raised
        certificates=[{"certified": True}],
        lines=["Ker(D) = R[%s]" % ", ".join(gens) if gens else "Ker(D) = R"],
    )


def _oracle_limits(spec, bounds, cap):
    """Slice bounds and entry cap: the option, else the directive, else the
    default; a cap of 0 is a cap.  Negative ones are malformed input for
    every command that takes them, whether or not it runs the oracle."""
    bounds = bounds or spec.bounds or DEFAULT_BOUNDS
    cap = next(c for c in (cap, spec.cap, DEFAULT_ENTRY_CAP) if c is not None)
    if min(bounds) < 0:
        raise PlinthError("slice bounds must be naturals")
    if cap < 0:
        raise PlinthError("entry cap must be a natural, not %d" % cap)
    return bounds, cap


def _run_image_ideal(spec, n, bounds, cap):
    res = spec.analysis.image_ideal(n, bounds, cap)
    cert = res.to_dict()
    gens = cert["generators"]
    lines = ["I_%d generators: %s" % (n, ", ".join(gens) or "(none found)")]
    lines.append("theorem: %s" % res.theorem)
    if res.m is not None:
        lines.append("m = %d" % res.m)
    lines.extend(res.notes)
    return RunReport(
        command="image-ideal",
        spec_echo=spec.echo,
        verdict="PASS" if res.theorem != "oracle-only" else "INCONCLUSIVE",
        generators=gens,
        certificates=[cert],
        lines=lines,
    )


def _run_verify(spec, n, bounds, cap):
    an = spec.analysis
    if spec.expect:
        predicted = list(spec.expect)
    elif n > 0 and an.branch[0] is None:
        predicted = []  # the oracle's own answer predicts nothing about the oracle
    else:
        predicted = list(an.image_ideal(n, bounds, cap).generators)
    try:
        report = verify_image_ideal(an.D, n, predicted, bounds[0], bounds[1], cap)
    except OracleCapError as err:
        return RunReport(
            command="verify",
            spec_echo=spec.echo,
            verdict="INCONCLUSIVE",
            lines=["oracle entry cap exceeded: %s" % err],
        )
    cert = report.to_dict()  # prints each element once; one forward item per generator
    gens = [i["element"] for i in cert["forward_items"]]
    lines = ["predicted generators: %s" % ", ".join(gens)]
    for direction in ("forward", "backward"):
        for i in cert[direction + "_items"]:
            lines.append("%-8s %-12s %s: %s"
                         % (direction, i["status"], i["element"], i["detail"]))
    lines.append("forward: %s, backward: %s" % (report.forward, report.backward))
    witnesses = [i["element"] for i in cert["forward_items"] + cert["backward_items"]
                 if i["status"] == "FAIL"]
    return RunReport(
        command="verify",
        spec_echo=spec.echo,
        verdict=report.overall,
        generators=gens,
        certificates=[cert],
        witnesses=witnesses,
        lines=lines,
    )


def _run_examples(spec, bounds, cap):
    """Each command on a fixture, the rest only once check shows D locally
    nilpotent, at n = 1; the verdict of the worst step."""
    steps = [run("check", spec, bounds=bounds, cap=cap)]
    if spec.analysis.report.lnd is True:
        steps += [run(command, spec, 1, bounds, cap)
                  for command in ("kernel", "image-ideal", "verify")]
    lines = []
    for rep in steps:
        lines.append("== %s: %s" % (rep.command, rep.verdict))
        lines.extend("   " + ln for ln in rep.lines)
    return RunReport(
        command="examples",
        spec_echo=spec.echo,
        verdict=worst(rep.verdict for rep in steps),
        generators=[g for rep in steps for g in rep.generators],
        certificates=[c for rep in steps for c in rep.certificates],
        witnesses=[w for rep in steps for w in rep.witnesses],
        lines=lines,
    )


def run(command, spec, n=None, bounds=None, cap=None):
    """Dispatch a command against a parsed problem; returns a RunReport.
    No kernel or I_j is defined for a D shown not locally nilpotent, so
    every command answers it as check does: FAIL, with a witness."""
    bounds, cap = _oracle_limits(spec, bounds, cap)
    if command not in ("check", "kernel", "image-ideal", "verify"):
        raise PlinthError("unknown command %r" % command)
    if command == "check" or spec.analysis.report.lnd is False:
        return _run_check(spec, command)
    if command == "kernel":
        return _run_kernel(spec)
    if command == "image-ideal":
        return _run_image_ideal(spec, 1 if n is None else n, bounds, cap)
    return _run_verify(spec, 1 if n is None else n, bounds, cap)


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _build_parser():
    import argparse  # the command line alone needs it; the library does not
    parser = argparse.ArgumentParser(
        prog="plinth",
        description=(
            "Compute and independently verify generator formulas for the "
            "image ideals of structured locally nilpotent derivations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_problem=True):
        if needs_problem:
            p.add_argument("problem", nargs="?", help="problem file path")
            p.add_argument("--example", help="use a built-in fixture instead")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--cap", type=int, default=None, help="matrix entry cap")
        p.add_argument(
            "--bounds",
            type=str,
            default=None,
            help="oracle slice bounds as p,v",
        )
        if needs_problem:
            p.add_argument(
                "--assert-irreducible",
                action="store_true",
                help="accept all declared prime factors without a certificate",
            )

    add_common(sub.add_parser("check", help="structural classification"))
    add_common(sub.add_parser("kernel", help="kernel generators"))
    p_img = sub.add_parser("image-ideal", help="generators of I_n")
    add_common(p_img)
    p_img.add_argument("--n", type=int, default=1)
    p_ver = sub.add_parser("verify", help="oracle verification of I_n")
    add_common(p_ver)
    p_ver.add_argument("--n", type=int, default=1)
    p_ex = sub.add_parser("examples", help="run a built-in fixture end to end")
    add_common(p_ex, needs_problem=False)
    p_ex.add_argument("--name", default=None)
    return parser


def _fixture(name):
    if name not in FIXTURES:
        raise PlinthError("unknown fixture %r; try: %s" % (name, ", ".join(sorted(FIXTURES))))
    return parse_problem(FIXTURES[name])


def _load_spec(args):
    if args.example:
        spec = _fixture(args.example)
    elif args.problem:
        with open(args.problem, "r", encoding="utf-8") as fh:
            spec = parse_problem(fh.read())
    else:
        raise PlinthError("give a problem file or --example <name>")
    if args.assert_irreducible and spec.factored_b:
        spec.factored_b = [(p, m, True) for p, m, _ in spec.factored_b]
    return spec


def _emit(report, as_json):
    try:
        if as_json:
            import json  # only --json needs it
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        else:
            for line in report.lines:
                print(line)
            print("verdict: %s" % report.verdict)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        # what is still buffered goes to devnull, so the exit flush cannot fail
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    return report.exit_code


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        if err.code == 0:  # --help
            raise
        return 3  # argparse has printed the usage error: malformed input
    try:
        bounds = None if args.bounds is None else parse_bounds(args.bounds, "--bounds p,v")
        if args.command != "examples":
            report = run(args.command, _load_spec(args), n=getattr(args, "n", None),
                         bounds=bounds, cap=args.cap)
        elif args.name is not None:
            report = _run_examples(_fixture(args.name), bounds, args.cap)
        else:
            names = sorted(FIXTURES)
            report = RunReport(command="examples", spec_echo="", verdict="PASS",
                               lines=["available fixtures:"] + ["  %s" % k for k in names],
                               fixtures=names)
    except (OSError, UnicodeDecodeError) as err:  # an unreadable problem file
        print("input error: %s" % err, file=sys.stderr)
        return 3
    except CertificateError as err:  # a failed re-check: no certified answer
        print("internal error: %s" % err, file=sys.stderr)
        return 2
    except PlinthError as err:  # malformed input
        print("input error: %s" % err, file=sys.stderr)
        return 3
    except Exception as err:  # a fault of plinth: no certified answer
        print("internal error: %s: %s" % (type(err).__name__, err), file=sys.stderr)
        return 2
    return _emit(report, args.json)


if __name__ == "__main__":
    sys.exit(main())
