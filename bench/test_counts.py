"""The traced counts repeat exactly for a fixed seed.

Claims that rest on a count (fewer key-rate evaluations, fewer pools) need
the count to be deterministic.  Run from the root of the checkout:

    python3 -m pytest bench/test_counts.py
"""
from __future__ import annotations

import sys

import pytest

import run  # pins threads and drops MPQKD_SEED before numpy loads

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = (
    "model.key_rate.calls",
    "optimize.evals_per_call",
    "montecarlo.pairs",
    "decoy.lp.calls",
    "sweep.pool_starts",
)
# The count each workload must exercise, so the comparison is not 0 == 0.
EXERCISED = {
    "sweep": "optimize.evals_per_call",
    "fig-parallel": "sweep.pool_starts",
    "verify": "montecarlo.pairs",
    "decoy": "decoy.lp.calls",
}


def traced_counts(name: str, seed: int, workdir) -> dict[str, float]:
    prepared = workloads.prepare(name, seed, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcome = prepared.run()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert prepared.check(outcome) == []
    metrics = tracing.layer_metrics([tracing.summarize(tracer)])
    return {name: metrics[name] for name in COUNTS}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat(name, tmp_path):
    first = traced_counts(name, 7, tmp_path / "first")
    second = traced_counts(name, 7, tmp_path / "second")
    assert first == second
    assert first[EXERCISED[name]] > 0
