"""The package names the bench rebinds: bench/measure.py's layer_targets()
looks each one up by name, so a rename must fail here and not only in a
traced bench run."""

import sys
from pathlib import Path

import pytest

from d2dcache.config import config_from_dict
from d2dcache.runner import run_point

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
