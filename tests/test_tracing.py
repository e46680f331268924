"""The benchmark's stage tracer (bench/tracing.py) still fits the library.

``Patches`` wraps functions where their callers look them up
(``owner.__dict__[attr]``), so every traced name must stay bound in its
module; a missing one makes ``bench/run.py --trace 1`` fail with KeyError.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import trajkit as tk
from test_simulate import curved_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    yield tracing
    sys.modules.pop("tracing", None)


def test_patches_install_count_and_restore(tracing):
    scenario = curved_scenario([tk.Perturbation(0.1, [-0.012, 0.004, 0.0])])
    untraced = tk.run(scenario)
    targets = tracing._targets()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in targets]

    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer)
    patches.install()
    try:
        traced = tk.run(curved_scenario([tk.Perturbation(0.1, [-0.012, 0.004, 0.0])]))
    finally:
        patches.remove()

    for (owner, attr, _, _), original in zip(targets, originals):
        assert owner.__dict__[attr] is original, attr
    assert np.array_equal(traced.commanded.positions, untraced.commanded.positions)
    counts = tracer.counts
    ticks = len(untraced.commanded) - 1
    # one controller_step per replan interval, not one per tick
    assert counts["simulate.planner.calls"] <= counts["replan.step.calls"] < ticks
    assert counts["replan.merges"] == len(untraced.replan_events) > 0
    assert counts["replan.dropped_waypoints"] == sum(e.dropped_count
                                                     for e in untraced.replan_events)
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["simulate.share"] > 0.0
