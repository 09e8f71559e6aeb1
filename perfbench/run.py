"""plinth benchmark: a closed loop of seeded requests, one client, no threads.

Usage, from the repository root:

    python3 perfbench/run.py --workload formula --seed 1 --seconds 30 --trace 0

The loop sends the next request only after the previous one returns and
runs whole rounds of the workload (every round holds the same mix) until
``--seconds`` have passed.  Each output is checked after its request; checks
are not timed.  With ``--trace 0`` the last line reports the end-to-end
metrics; with ``--trace 1`` the run spends half its time untraced and half
traced and reports the per-layer metrics and the tracing overhead, and
writes the spans to ``perfbench/out/``.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("formula", "verify", "discover")
SETUP_REPEATS = 5
# The highest percentile with at least ten samples beyond it at the
# workload's designed run length; runs last until they have that many.
TAIL_PERCENTILE = {"formula": 90, "verify": 90, "discover": 95}
IMPORT_PLINTH = ("from time import perf_counter; start = perf_counter(); "
                 "import plinth, plinth.cli, plinth.oracle; print(perf_counter() - start)")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(rounds):
    """Median time to import plinth in a fresh interpreter, plus median time
    to set up the first round of requests."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PLINTH], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True).stdout
        imports.append(float(out))
    builds = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        rounds.build(0)
        builds.append(perf_counter() - start)
    return statistics.median(imports) + statistics.median(builds)


class Rounds:
    """The seeded rounds of one workload, built once each and kept."""

    def __init__(self, workloads, workload, seed):
        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.reference = None
        if workload == "discover" and seed == workloads.DEFAULT_SEED:
            self.reference = workloads.load_reference()
        self.cache = {}

    def build(self, rnd):
        return self.workloads.setup(self.workload, self.seed, rnd, self.reference)

    def __getitem__(self, rnd):
        if rnd not in self.cache:
            self.cache[rnd] = self.build(rnd)
        return self.cache[rnd]


class Phase:
    """Closed-loop measurement over whole rounds.

    Runs rounds until half a mean round past ``seconds`` would be reached
    and at least ``min_samples`` requests have been timed."""

    def __init__(self, rounds, seconds, min_samples=0, recorder=None):
        self.latencies = []
        self.failed = 0
        self.errors = []
        self.outcomes = {}
        self.rounds = 0
        start = perf_counter()
        while True:
            gc.collect()  # each round starts from a collected heap
            for req in rounds[self.rounds]:
                self._one(req, recorder)
            self.rounds += 1
            elapsed = perf_counter() - start
            if (len(self.latencies) >= min_samples
                    and elapsed * (1 + 0.5 / self.rounds) >= seconds):
                break

    def _one(self, req, recorder):
        outcome, errors = None, []
        if recorder is not None:
            recorder.request = len(self.latencies)
            recorder.install()
        start = perf_counter()
        try:
            outcome = req.execute()
        except Exception:  # a failed request is counted, not fatal
            errors = [_last_line()]
        finally:
            self.latencies.append(perf_counter() - start)
            if recorder is not None:
                recorder.remove()
        if outcome is not None:
            try:
                errors = req.check(outcome)
            except Exception:  # an output the checks cannot read is wrong
                errors = ["check raised " + _last_line()]
            if self.rounds == 0:  # kept for the properties; later ones would grow the heap
                self.outcomes[req.label] = outcome
        if errors:
            self.failed += 1
            self.errors.append("%s: %s" % (req.label, "; ".join(errors)))

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def requests_per_s(self):
        return self.attempted / sum(self.latencies)


def _last_line():
    return traceback.format_exc(limit=2).strip().splitlines()[-1]


def tail(latencies, pct):
    """Nearest-rank percentile ``pct`` of the latencies."""
    ordered = sorted(latencies)
    return ordered[math.ceil(pct / 100 * len(ordered)) - 1]


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "plinth" / "__init__.py").is_file():
        print("perfbench: no plinth sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    rounds = Rounds(workloads, args.workload, args.seed)
    setup_s = measure_setup(rounds)
    if args.trace:
        untraced = Phase(rounds, args.seconds / 2)
        recorder = tracer.Recorder()
        phase = Phase(rounds, args.seconds / 2, recorder=recorder)
        metrics = tracer.layer_metrics(recorder, phase.attempted)
        metrics["trace.untraced_requests_per_s"] = (untraced.requests_per_s, "1/s")
        metrics["trace.traced_requests_per_s"] = (phase.requests_per_s, "1/s")
        metrics["trace.overhead"] = (untraced.requests_per_s / phase.requests_per_s - 1,
                                     "ratio")
        spans_file = OUT / ("spans-%s-seed%d.tsv.gz" % (args.workload, args.seed))
        recorder.write(spans_file)
        failed = untraced.failed + phase.failed
        attempted = untraced.attempted + phase.attempted
        errors = untraced.errors + phase.errors
    else:
        pct = TAIL_PERCENTILE[args.workload]
        phase = Phase(rounds, args.seconds, min_samples=math.ceil(10 / (1 - pct / 100)))
        metrics = {
            "setup_s": (setup_s, "s"),
            "requests_per_s": (phase.requests_per_s, "1/s"),
            "latency_p50_ms": (statistics.median(phase.latencies) * 1000, "ms"),
            "latency_tail_ms": (tail(phase.latencies, pct) * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
        failed, attempted, errors = phase.failed, phase.attempted, phase.errors

    props = workloads.properties(args.workload, args.seed, rounds[0], phase.outcomes)
    print("workload %s, seed %d, %d rounds of %d requests, %s"
          % (args.workload, args.seed, phase.rounds, len(rounds[0]),
             "traced" if args.trace else "untraced"))
    print("fail_ratio %.4f (%d of %d requests)" % (failed / attempted, failed, attempted))
    for err in errors[:10]:
        print("  failed %s" % err)
    if not args.trace:
        print("latency_tail_ms is p%g of %d samples" % (pct, phase.attempted))
    for name, (value, unit) in metrics.items():
        print("%-45s %14.6g %s" % (name, value, unit))
    print("properties %s" % json.dumps(props, sort_keys=True))
    if args.trace:
        print("%d spans written to %s" % (len(recorder.spans), spans_file.relative_to(ROOT)))
    result = {
        "correct": failed == 0 and props["digest_self_check"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
