"""Span recorder for the traced run.

``Recorder.install`` wraps every public function of every plinth module in
each plinth namespace that binds it, because ``cli`` and ``imageideals`` call
names such as ``classify`` through their own ``from .derivation import ...``
bindings.  A span records its name, parent span, request id, start and end;
spans stay in memory and are written out once, when the run ends.  Self time
is a span's duration minus the time its child spans cover.

``MultiPoly.__mul__`` is a method, not a module function: its calls are
counted, without spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import types
from collections import defaultdict
from time import perf_counter

import plinth
from plinth import cli, derivation, grading, imageideals, linalg, oracle, polyring

LAYERS = ("cli", "polyring", "linalg", "derivation", "grading", "imageideals", "oracle")
MODULES = (plinth, cli, polyring, linalg, derivation, grading, imageideals, oracle)
PROBE = "bench.probe"  # benchmark-side bookkeeping; belongs to no layer


class Recorder:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.spans = []  # (name id, parent span index, request id, start, end)
        self.stack = []
        self.request = -1
        self.counts = defaultdict(int)
        self.values = defaultdict(list)  # probe samples, e.g. slice dims
        self._wrappers = None
        self._originals = []

    # -- recording -----------------------------------------------------

    def _sid(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _spanned(self, name, fn, before=None, after=None):
        sid = self._sid(name)
        probe = self._sid(PROBE)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if before is not None:
                t0 = perf_counter()
                before(args, kwargs)
                spans.append((probe, parent, self.request, t0, perf_counter()))
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (sid, parent, self.request, start, end)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- probes on layer boundaries -------------------------------------

    def _bareiss_before(self, args, kwargs):
        rows = args[0]
        width = len(rows[0]) if rows else 0
        self.counts["linalg.bareiss_echelon.rows"] += len(rows)
        self.counts["linalg.bareiss_echelon.cells"] += len(rows) * width
        self.counts["linalg.bareiss_echelon.nonzero"] += sum(
            1 for row in rows for x in row if x
        )

    def _bareiss_after(self, args, kwargs, result):
        self.counts["linalg.bareiss_echelon.rank"] += len(result[1])

    def _slice_after(self, args, kwargs, result):
        self.values["oracle.slice_dim"].append(result.dim)

    def _matrix_after(self, args, kwargs, result, signature=None):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        entries = result.target.dim * result.source.dim
        self.counts["oracle.matrix_entries"] += entries
        self.values["oracle.cap_headroom"].append(1 - entries / bound.arguments["entry_cap"])

    # -- install / remove -------------------------------------------------

    def _plan(self):
        """(owner, attribute, wrapper) for every binding the trace replaces."""
        hooks = {
            linalg.bareiss_echelon: (self._bareiss_before, self._bareiss_after),
            oracle.slice_basis: (None, self._slice_after),
            oracle.matrix_of_power: (None, functools.partial(
                self._matrix_after, signature=inspect.signature(oracle.matrix_of_power))),
        }
        wrappers = {}
        plan = []
        for mod in MODULES:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("plinth.")):
                    continue
                if obj not in wrappers:
                    name = "%s.%s" % (obj.__module__.rsplit(".", 1)[1], obj.__name__)
                    wrappers[obj] = self._spanned(name, obj, *hooks.get(obj, (None, None)))
                plan.append((mod, attr, wrappers[obj]))
        span_solver = linalg.SpanSolver
        plan.append((span_solver, "__init__",
                     self._spanned("linalg.SpanSolver.init", span_solver.__init__)))
        plan.append((span_solver, "express",
                     self._spanned("linalg.SpanSolver.express", span_solver.express)))
        mul = self._counted("polyring.mul", polyring.MultiPoly.__mul__)
        plan.append((polyring.MultiPoly, "__mul__", mul))
        plan.append((polyring.MultiPoly, "__rmul__", mul))
        return plan

    def install(self):
        if self._originals:
            raise RuntimeError("trace already installed")
        if self._wrappers is None:
            self._wrappers = self._plan()
        for owner, attr, wrapper in self._wrappers:
            self._originals.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def remove(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def self_times(self):
        """{name: (calls, self seconds)} over every recorded span."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for sid, parent, _, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for i, (sid, _, _, start, end) in enumerate(spans):
            agg = out[self.names[sid]]
            agg[0] += 1
            agg[1] += end - start - covered[i]
        return out

    def write(self, path):
        """Spans as gzip TSV: index, name, parent index, request, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tparent\trequest\tstart_s\tend_s\n")
            for i, (sid, parent, req, start, end) in enumerate(self.spans):
                fh.write("%d\t%s\t%d\t%d\t%.9f\t%.9f\n"
                         % (i, self.names[sid], parent, req, start, end))


def layer_metrics(rec, requests):
    """Per-layer metric values, each per traced request unless named a ratio."""
    per = 1 / requests
    st = rec.self_times()

    def self_s(name):
        return st[name][1] * per if name in st else 0.0

    def calls(name):
        return st[name][0] if name in st else 0

    out = {}
    for layer in LAYERS:
        names = [n for n in st if n.split(".", 1)[0] == layer]
        out[layer + ".calls"] = (sum(st[n][0] for n in names) * per, "calls/req")
        out[layer + ".self_s"] = (sum(st[n][1] for n in names) * per, "s/req")
    for name in ("polyring.multivariate_gcd", "polyring.extended_euclid",
                 "polyring.divide_exact", "polyring.poly_from_string",
                 "cli.parse_problem", "derivation.classify",
                 "derivation.is_fixed_point_free", "derivation.iterate",
                 "grading.prime_after_elimination", "grading.top_degree_ideal",
                 "imageideals.image_ideal", "imageideals.slice_construct",
                 "imageideals.strictness_decompose", "imageideals.nice3var_reduce",
                 "oracle.matrix_of_power", "oracle.kernel_and_image_basis",
                 "oracle.verify_image_ideal", "linalg.bareiss_echelon",
                 "linalg.nullspace"):
        out[name + ".self_s"] = (self_s(name), "s/req")
    out["linalg.SpanSolver.init_s"] = (self_s("linalg.SpanSolver.init"), "s/req")
    out["linalg.SpanSolver.express_s"] = (self_s("linalg.SpanSolver.express"), "s/req")
    out["polyring.mul.calls"] = (rec.counts["polyring.mul"] * per, "calls/req")
    out["derivation.classify.calls_per_request"] = (calls("derivation.classify") * per,
                                                    "calls/req")
    verifies = calls("oracle.verify_image_ideal")
    out["oracle.matrix_of_power.calls_per_verify"] = (
        calls("oracle.matrix_of_power") / verifies if verifies else 0.0, "calls/verify")
    c = rec.counts
    out["oracle.slice_dim.max"] = (max(rec.values["oracle.slice_dim"], default=0), "count")
    out["oracle.matrix_entries.sum"] = (c["oracle.matrix_entries"] * per, "entries/req")
    # 1.0 when no D^j matrix was built
    out["oracle.cap_headroom.min"] = (min(rec.values["oracle.cap_headroom"], default=1.0),
                                      "ratio")
    cells = c["linalg.bareiss_echelon.cells"]
    rows = c["linalg.bareiss_echelon.rows"]
    out["linalg.bareiss_echelon.cells"] = (cells * per, "cells/req")
    out["linalg.bareiss_echelon.nonzero_fraction"] = (
        c["linalg.bareiss_echelon.nonzero"] / cells if cells else 0.0, "ratio")
    out["linalg.bareiss_echelon.rank_ratio"] = (
        c["linalg.bareiss_echelon.rank"] / rows if rows else 0.0, "ratio")
    return out
