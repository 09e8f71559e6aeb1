"""Tooling guard for perfbench/: one seed-1 round of each workload runs
through the harness's set-up, execution and output checks with no failure,
and the tracer installs on and comes off the classes it wraps, so a broken
traced run or a failed output check shows here, without a benchmark run."""

import sys
from pathlib import Path

import pytest

from plinth import linalg, polyring

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_one_round_passes_its_checks(workload):
    reference = workloads.load_reference() if workload == "discover" else None
    reqs = workloads.setup(workload, SEED, 0, reference)
    outcomes = {}
    for req in reqs:
        outcomes[req.label] = req.execute()
        assert req.check(outcomes[req.label]) == [], req.label
    props = workloads.properties(workload, SEED, reqs, outcomes)
    assert props["digest_self_check"] and "error" not in props["theorem_share"]


def test_tracer_installs_and_removes():
    wrapped = [(polyring.MultiPoly, "__mul__"), (polyring.MultiPoly, "__rmul__"),
               (linalg.SpanSolver, "__init__"), (linalg.SpanSolver, "express")]
    originals = [owner.__dict__[attr] for owner, attr in wrapped]
    recorder = tracer.Recorder()
    req = next(r for r in workloads.setup("formula", SEED, 0) if r.label.endswith("#0"))
    for _ in range(2):  # a second install reuses the wrappers of the first
        recorder.request = 0
        recorder.install()
        try:
            assert all(owner.__dict__[attr] is not original
                       for (owner, attr), original in zip(wrapped, originals))
            outcome = req.execute()
        finally:
            recorder.remove()
        assert all(owner.__dict__[attr] is original
                   for (owner, attr), original in zip(wrapped, originals))
        assert req.check(outcome) == []
    metrics = tracer.layer_metrics(recorder, 2)
    assert metrics["polyring.mul.calls"][0] > 0 and metrics["cli.calls"][0] > 0
