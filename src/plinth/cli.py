"""Batch front end: problem-file parsing, the check / kernel / image-ideal /
verify / examples commands, canonical printing, JSON reports, and the
built-in fixture suite."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

from .derivation import (
    Derivation,
    UnsupportedStructureError,
    classify,
    is_fixed_point_free,
)
from .imageideals import (
    KernelPresentation,
    image_ideal,
    kernel_generator,
    nice3var_reduce,
)
from .oracle import DEFAULT_ENTRY_CAP, OracleCapError, verify_image_ideal
from .polyring import PlinthError, PolyRing, poly_to_string

DEFAULT_BOUNDS = (3, 3)


class ProblemFormatError(PlinthError):
    def __init__(self, message, line):
        super().__init__("%s (line %d)" % (message, line))
        self.line = line


@dataclass
class ProblemSpec:
    params: tuple
    vars: tuple
    ring: PolyRing
    images: dict  # var name -> MultiPoly
    factored_b: Optional[list] = None  # (MultiPoly, multiplicity, asserted)
    bounds: Optional[tuple] = None
    cap: Optional[int] = None
    expect: Optional[list] = None  # predicted generators for verify

    def derivation(self):
        return Derivation(self.ring, [self.images[v] for v in self.vars])


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
            parts = rest.split(",")
            if len(parts) != 2:
                raise ProblemFormatError("expected 'bounds p,v'", lineno)
            try:
                bounds = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ProblemFormatError("bounds must be integers", lineno) from None
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
    expect = None
    if expect_lines:
        expect = [parse_poly(body, lineno) for body, lineno in expect_lines]
    return ProblemSpec(
        params=tuple(params),
        vars=tuple(varnames),
        ring=ring,
        images=images,
        factored_b=factored_b,
        bounds=bounds,
        cap=cap,
        expect=expect,
    )


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


@dataclass
class RunReport:
    command: str
    spec_echo: str
    verdict: str
    exit_code: int
    generators: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    lines: list = field(default_factory=list)  # human-readable body

    def to_json(self):
        return {
            "command": self.command,
            "spec-echo": self.spec_echo,
            "verdict": self.verdict,
            "generators": self.generators,
            "certificates": self.certificates,
            "witnesses": self.witnesses,
        }


def _run_check(spec):
    D = spec.derivation()
    rep = classify(D)
    lines = [
        "lnd: %s" % rep.lnd,
        "degrees: %s" % (rep.degrees,),
        "irreducible: %s" % rep.irreducible,
        "classification: %s" % rep.classification,
    ]
    fpf = None
    try:
        fpf = is_fixed_point_free(D, factored_b=spec.factored_b)
        lines.append("fixed point free: %s" % fpf)
    except (UnsupportedStructureError, PlinthError) as err:
        lines.append("fixed point free: undetermined (%s)" % err)
    lines.extend(rep.notes)
    if rep.lnd is True:
        verdict, code = "PASS", 0
    else:
        verdict, code = "INCONCLUSIVE" if rep.lnd is None else "FAIL", 2
    cert = {
        "lnd": rep.lnd,
        "irreducible": rep.irreducible,
        "classification": rep.classification,
        "fixed_point_free": fpf,
    }
    return RunReport(
        command="check",
        spec_echo=problem_to_string(spec),
        verdict=verdict,
        exit_code=code,
        certificates=[cert],
        lines=lines,
    )


def _run_kernel(spec):
    D = spec.derivation()
    try:
        if spec.ring.nvars == 3:
            pres = nice3var_reduce(D).kernel
        elif spec.ring.nvars == 1:
            # DX lies in R for any locally nilpotent D, so Ker(D) = R
            rep = classify(D)
            if rep.lnd is not True or D.images[0].var_degree() > 0:
                raise UnsupportedStructureError(
                    "single-variable derivation is not locally nilpotent"
                )
            pres = KernelPresentation(generators=[], certified=True)
        else:
            pres = kernel_generator(D)
    except (UnsupportedStructureError, PlinthError) as err:
        return RunReport(
            command="kernel",
            spec_echo=problem_to_string(spec),
            verdict="INCONCLUSIVE",
            exit_code=2,
            lines=["unsupported structure: %s" % err],
        )
    gens = [poly_to_string(g) for g in pres.generators]
    return RunReport(
        command="kernel",
        spec_echo=problem_to_string(spec),
        verdict="PASS",
        exit_code=0,
        generators=gens,
        certificates=[{"certified": pres.certified}],
        lines=["Ker(D) = R[%s]" % ", ".join(gens) if gens else "Ker(D) = R"],
    )


def _run_image_ideal(spec, n, bounds, cap):
    D = spec.derivation()
    bounds = bounds or spec.bounds or DEFAULT_BOUNDS
    cap = cap or spec.cap or DEFAULT_ENTRY_CAP
    try:
        res = image_ideal(D, n, factored_b=spec.factored_b, bounds=bounds,
                          entry_cap=cap)
    except UnsupportedStructureError as err:
        return RunReport(
            command="image-ideal",
            spec_echo=problem_to_string(spec),
            verdict="INCONCLUSIVE",
            exit_code=2,
            lines=["unsupported structure: %s" % err],
        )
    gens = [poly_to_string(g) for g in res.generators]
    lines = ["I_%d generators: %s" % (n, ", ".join(gens) or "(none found)")]
    lines.append("theorem: %s" % res.theorem)
    if res.m is not None:
        lines.append("m = %d" % res.m)
    lines.extend(res.notes)
    verdict = "PASS" if res.theorem != "oracle-only" else "INCONCLUSIVE"
    return RunReport(
        command="image-ideal",
        spec_echo=problem_to_string(spec),
        verdict=verdict,
        exit_code=0 if verdict == "PASS" else 2,
        generators=gens,
        certificates=[res.to_dict()],
        lines=lines,
    )


def _run_verify(spec, n, bounds, cap):
    D = spec.derivation()
    bounds = bounds or spec.bounds or DEFAULT_BOUNDS
    cap = cap or spec.cap or DEFAULT_ENTRY_CAP
    if spec.expect:
        predicted = list(spec.expect)
    else:
        res = image_ideal(D, n, factored_b=spec.factored_b, bounds=bounds,
                          entry_cap=cap)
        predicted = list(res.generators)
    try:
        report = verify_image_ideal(D, n, predicted, bounds[0], bounds[1], cap)
    except OracleCapError as err:
        return RunReport(
            command="verify",
            spec_echo=problem_to_string(spec),
            verdict="INCONCLUSIVE",
            exit_code=2,
            lines=["oracle entry cap exceeded: %s" % err],
        )
    lines = ["predicted generators: %s" % ", ".join(str(p) for p in predicted)]
    for item in report.forward_items:
        lines.append("forward  %-12s %s: %s" % (item.status, item.element, item.detail))
    for item in report.backward_items:
        lines.append("backward %-12s %s: %s" % (item.status, item.element, item.detail))
    lines.append("forward: %s, backward: %s" % (report.forward, report.backward))
    witnesses = [
        str(i.element)
        for i in report.forward_items + report.backward_items
        if i.status == "FAIL"
    ]
    code = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 2}[report.overall]
    return RunReport(
        command="verify",
        spec_echo=problem_to_string(spec),
        verdict=report.overall,
        exit_code=code,
        generators=[str(p) for p in predicted],
        certificates=[report.to_dict()],
        witnesses=witnesses,
        lines=lines,
    )


def _run_examples(name, bounds, cap):
    if name is None:
        lines = ["available fixtures:"] + ["  %s" % k for k in sorted(FIXTURES)]
        return RunReport(
            command="examples",
            spec_echo="",
            verdict="PASS",
            exit_code=0,
            lines=lines,
        )
    if name not in FIXTURES:
        return RunReport(
            command="examples",
            spec_echo="",
            verdict="ERROR",
            exit_code=3,
            lines=["unknown fixture %r; try: %s" % (name, ", ".join(sorted(FIXTURES)))],
        )
    spec = parse_problem(FIXTURES[name])
    steps = [("check", _run_check(spec))]
    if steps[0][1].certificates[0]["lnd"] is True:
        steps.append(("kernel", _run_kernel(spec)))
        steps.append(("image-ideal", _run_image_ideal(spec, 1, bounds, cap)))
        steps.append(("verify", _run_verify(spec, 1, bounds, cap)))
    lines = []
    gens = []
    certs = []
    wits = []
    worst = 0
    for label, rep in steps:
        lines.append("== %s: %s" % (label, rep.verdict))
        lines.extend("   " + ln for ln in rep.lines)
        gens.extend(rep.generators)
        certs.extend(rep.certificates)
        wits.extend(rep.witnesses)
        worst = max(worst, rep.exit_code)
    verdict = {0: "PASS", 1: "FAIL", 2: "INCONCLUSIVE", 3: "ERROR"}[worst]
    return RunReport(
        command="examples",
        spec_echo=problem_to_string(spec),
        verdict=verdict,
        exit_code=worst,
        generators=gens,
        certificates=certs,
        witnesses=wits,
        lines=lines,
    )


def run(command, spec, n=None, bounds=None, cap=None):
    """Dispatch a command against a parsed problem; returns a RunReport."""
    if command == "check":
        return _run_check(spec)
    if command == "kernel":
        return _run_kernel(spec)
    if command == "image-ideal":
        return _run_image_ideal(spec, 1 if n is None else n, bounds, cap)
    if command == "verify":
        return _run_verify(spec, 1 if n is None else n, bounds, cap)
    raise PlinthError("unknown command %r" % command)


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _build_parser():
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


def _parse_bounds(text):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise PlinthError("expected --bounds p,v")
    return (int(parts[0]), int(parts[1]))


def _load_spec(args):
    if getattr(args, "example", None):
        if args.example not in FIXTURES:
            raise PlinthError(
                "unknown fixture %r; try: %s"
                % (args.example, ", ".join(sorted(FIXTURES)))
            )
        text = FIXTURES[args.example]
    elif getattr(args, "problem", None):
        with open(args.problem, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        raise PlinthError("give a problem file or --example <name>")
    spec = parse_problem(text)
    if getattr(args, "assert_irreducible", False) and spec.factored_b:
        spec.factored_b = [(p, m, True) for p, m, _ in spec.factored_b]
    return spec


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        for line in report.lines:
            print(line)
        print("verdict: %s" % report.verdict)
    return report.exit_code


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        bounds = _parse_bounds(args.bounds)
        if args.command == "examples":
            report = _run_examples(args.name, bounds, args.cap)
        else:
            spec = _load_spec(args)
            report = run(
                args.command,
                spec,
                n=getattr(args, "n", None),
                bounds=bounds,
                cap=args.cap,
            )
    except (ProblemFormatError, OSError, ValueError) as err:
        print("input error: %s" % err, file=sys.stderr)
        return 3
    except UnsupportedStructureError as err:
        print("unsupported structure: %s" % err, file=sys.stderr)
        return 2
    except PlinthError as err:
        print("input error: %s" % err, file=sys.stderr)
        return 3
    return _emit(report, args.json)


if __name__ == "__main__":
    sys.exit(main())
