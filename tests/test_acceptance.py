"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every network simulation runs through the runner on a shipped config. The
heavy network family of scripts/configs/outage_match.yaml (N=20000, M=400,
S=2, gamma=0.6, q=20, rho=4, K=1) is simulated once per session and shared
by the outage, SINR-floor, transport-bound and fairness criteria; the
exponent criteria run the scaling sweeps of scripts/configs/scaling_*.yaml.
The invariant criteria call the check functions of d2dcache.validate, which
`d2dcache validate` runs at its own seeds and sizes.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from d2dcache.analysis import fit_loglog
from d2dcache.config import config_from_dict, load_config
from d2dcache.metrics import ThroughputAccumulator
from d2dcache.popularity import PopularityModel
from d2dcache.runner import build_point_inputs, run, run_trials, write_artifact
from d2dcache.validate import (
    check_fixed_point,
    check_log_inequality,
    check_outage_closed_form,
    check_sinr_floor,
    check_transport_slack,
    cluster_ratios,
    hit_probability_curve,
)

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
WORKERS = 2


def _report(criterion: int, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion} [{'PASS' if passed else 'FAIL'}] {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _config(name: str, **overrides):
    return dataclasses.replace(load_config(CONFIGS / name), threads=WORKERS, **overrides)


# ----------------------------------------------------------------- family

N_FAMILY = 1000
N_CRIT1 = 200
N_CRIT6 = 500
N_CRIT9 = 500


@pytest.fixture(scope="module")
def family():
    """Scenario-1 runs of the shared configuration, checked once: the reports
    of criteria 1, 5 and 6, and the throughput accumulator of criterion 9."""
    cfg = _config("outage_match.yaml", n_realizations=N_FAMILY, check_bounds=True)
    inputs = build_point_inputs(cfg)
    acc = ThroughputAccumulator()
    fracs, ratios, slacks = [], [], []
    for t, (res, c_gamma, slack) in enumerate(run_trials(cfg, inputs)):
        fracs.append(res.outage_fraction)
        ratios.append(cluster_ratios(res, cfg.phy))
        slacks.append(slack)
        if t < N_CRIT9:
            acc.add(res, c_gamma, slack)
    return {
        "cfg": cfg, "acc": acc,
        1: check_outage_closed_form(fracs[:N_CRIT1], inputs.closed_form, cfg.base_seed),
        5: check_sinr_floor(ratios, cfg.base_seed),
        6: check_transport_slack(slacks[:N_CRIT6], cfg.base_seed),
    }


def test_criterion_1_outage_vs_closed_form(family):
    _report(1, family[1].passed, family[1].detail)


def test_criterion_2_hit_probability_scaling():
    model = PopularityModel(M=2_000_000, gamma=0.6, q=2.0)
    rows = hit_probability_curve(model, 2, 20_240_812, 100_000)
    fit = fit_loglog([r["eps_rho"] for r in rows], [r["p_hit_closed_form"] for r in rows])
    gaps = [r["gap_in_se"] for r in rows if "gap_in_se" in r]
    _report(
        2,
        abs(fit.slope - 0.4) <= 0.05 and all(gap <= 3.0 for gap in gaps),
        f"hit-probability slope {fit.slope:.4f} vs 0.4 +- 0.05; "
        f"MC gaps {', '.join(f'{gap:.2f}SE' for gap in gaps)} (<= 3 SE each)",
    )


def test_criterion_3_scenario2_exponent_gamma_lt1():
    s2 = run(_config("scaling_lt1.yaml", scheme="scenario2"))
    s1 = run(_config("scaling_lt1.yaml", scheme="scenario1"))
    dominance = all(
        p2.estimate.mean_throughput > p1.estimate.mean_throughput
        for p2, p1 in zip(s2.points, s1.points)
    )
    target = s2.predicted_exponent
    slope_ok = s2.fit["n_points"] == 5 and abs(s2.fit["slope"] - target) <= 0.10
    _report(
        3,
        slope_ok and dominance,
        f"scenario-2 slope {s2.fit['slope']:.4f} vs {target:.4f} +- 0.10; "
        f"scenario-2 > scenario-1 at every point: {dominance}",
    )


def test_criterion_4_exponents_gamma_gt1():
    f2 = run(_config("scaling_gt1.yaml", scheme="scenario2")).fit
    f1 = run(_config("scaling_gt1.yaml", scheme="scenario1")).fit
    ok1 = f1["n_points"] == 5 and abs(f1["slope"] - 1.0) <= 0.15
    ok2 = f2["n_points"] == 5 and abs(f2["slope"] - 0.5) <= 0.10
    _report(
        4,
        ok1 and ok2,
        f"scenario-1 slope {f1['slope']:.4f} vs 1 +- 0.15; "
        f"scenario-2 slope {f2['slope']:.4f} vs 0.5 +- 0.10",
    )


def test_criterion_5_sinr_floor(family):
    _report(5, family[5].passed, family[5].detail)


def test_criterion_6_transport_bound(family):
    report = family[6]
    _report(6, report.passed and report.n_checks == N_CRIT6, report.detail)


def test_criterion_7_fixed_point_and_asymptote():
    report = check_fixed_point(777, 10_000)
    _report(7, report.passed, report.detail)


def test_criterion_8_log_inequality():
    report = check_log_inequality(888, 100_000)
    _report(8, report.passed, report.detail)


def test_criterion_9_fairness(family):
    acc = family["acc"]
    means = acc.per_index_means
    grand = float(means.mean())
    cv = float(means.std()) / grand
    noise_floor = math.sqrt(float(acc.per_index_vars.mean()) / acc.n_real) / grand
    threshold = 5.0 * noise_floor
    part_a = cv <= threshold

    # realization-level unfairness of the double time-slot scheme
    cfg = dataclasses.replace(
        family["cfg"], scheme="scenario2", base_seed=9_000, n_realizations=N_CRIT9,
        check_bounds=False,
    )
    outcomes = []
    for res, _, _ in run_trials(cfg, build_point_inputs(cfg)):
        served1, served2 = (np.zeros(res.n_users, dtype=bool) for _ in range(2))
        served1[res.slot("cluster1").link_rx] = True
        served2[res.slot("cluster2").link_rx] = True
        only1 = served1 & ~served2
        if served2.any() and only1.any():
            bits = res.per_user_bits
            outcomes.append(float(bits[served2].mean()) > float(bits[only1].mean()))
    frac = float(np.mean(outcomes))
    part_b = frac >= 0.95
    _report(
        9,
        part_a and part_b,
        f"index-mean CV {cv:.4f} <= {threshold:.4f} (5 x noise floor): {part_a}; "
        f"slot-2-served users out-earn slot-1-only users in {100 * frac:.1f}% "
        f"of {len(outcomes)} realizations (>= 95%)",
    )


def test_criterion_10_artifact_determinism(tmp_path):
    raw = {
        "scheme": "scenario1",
        "regime": "gamma_lt1",
        "N": 5000,
        "M": 100,
        "S": 2,
        "gamma": 0.6,
        "q": 10.0,
        "rho_or_alpha1": 4.0,
        "n_realizations": 10,
        "base_seed": 4242,
        "check_bounds": True,
        "sweep": {"param": "M", "values": [100, 200], "couple": {"N": "50 * M"}},
    }
    blobs = []
    for threads, name in ((1, "t1"), (8, "t8")):
        cfg = dataclasses.replace(config_from_dict(raw), threads=threads)
        artifact = run(cfg)
        write_artifact(artifact, cfg, tmp_path / name, "both")
        blobs.append(
            (
                (tmp_path / name / "results.csv").read_bytes(),
                (tmp_path / name / "results.json").read_bytes(),
            )
        )
    same = blobs[0][0] == blobs[1][0] and blobs[0][1] == blobs[1][1]
    _report(
        10,
        same,
        f"CSV and JSON artifacts byte-identical across 1-thread and 8-thread runs: {same}",
    )
