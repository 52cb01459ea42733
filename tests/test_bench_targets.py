"""The package names the bench rebinds: bench/measure.py's layer_targets()
looks each one up by name, so a rename must fail here and not only in a
traced bench run."""

import sys
from pathlib import Path

import numpy as np
import pytest

from d2dcache.config import config_from_dict
from d2dcache.runner import build_point_inputs, run_point, run_trials

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import measure
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return measure, tracing


def test_every_layer_target_is_callable(bench):
    measure, _ = bench
    targets = measure.layer_targets()
    assert targets
    for t in targets:
        assert callable(getattr(t.owner, t.attr)), f"{t.layer}: {t.owner!r} has no {t.attr}"


def test_trial_and_accumulate_run_once_per_trial(bench):
    measure, tracing = bench
    layers = ("runner.trial", "metrics.accumulate")
    cfg = config_from_dict({
        "scheme": "scenario1", "regime": "gamma_lt1", "N": 2000, "M": 50, "S": 2,
        "gamma": 0.6, "q": 5.0, "rho_or_alpha1": 3.0, "n_realizations": 3,
        "base_seed": 91, "threads": 2,
    })
    with tracing.Tracer(t for t in measure.layer_targets() if t.layer in layers) as tracer:
        run_point(cfg)
    for layer in layers:
        assert len(measure.durations(tracer, layer)) == cfg.n_realizations, layer


def test_cochannel_path_gains_are_traced(bench):
    # the co-channel loop must call schemes.path_gain by that name, or its
    # sum(n^2) evaluations drop out of the traced phy.path_gain layer
    measure, tracing = bench
    cfg = config_from_dict({
        "scheme": "scenario2", "regime": "gamma_lt1", "N": 6400, "M": 128, "S": 4,
        "gamma": 0.6, "q": 10.0, "rho_or_alpha1": 4.0, "C_sec": 4.0, "n_realizations": 2,
        "base_seed": 93, "threads": 2,
    })
    inputs = build_point_inputs(cfg)
    targets = [t for t in measure.layer_targets() if t.layer == "phy.path_gain"]
    with tracing.Tracer(targets) as tracer:
        results = [res for res, _, _ in run_trials(cfg, inputs)]
    pairs = 0
    for res in results:
        for slot in res.slots:
            sizes = np.diff(np.flatnonzero(np.diff(slot.link_res, prepend=-1, append=-1)))
            pairs += int((sizes * (sizes - 1)).sum())
    assert pairs > 0
    assert tracing.counts(tracer.spans)["path_gain_evals"] >= pairs
