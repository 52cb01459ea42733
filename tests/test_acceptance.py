"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every network simulation runs through the runner on a shipped config. The
heavy network family of scripts/configs/outage_match.yaml (N=20000, M=400,
S=2, gamma=0.6, q=20, rho=4, K=1) is simulated once per session and shared
by the outage, SINR-floor, transport-bound and fairness criteria; the
exponent criteria run the scaling sweeps of scripts/configs/scaling_*.yaml.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from d2dcache.analysis import RESIDUAL_TOL, fit_loglog, po_sec_gamma_lt1, solve_c1_c2
from d2dcache.caching import optimize_policy
from d2dcache.config import DEFAULT_PHY, config_from_dict, load_config
from d2dcache.metrics import ThroughputAccumulator
from d2dcache.phy import PhyConfig, interference_upper_bound, sinr_floor
from d2dcache.popularity import PopularityModel, sample_request
from d2dcache.runner import build_point_inputs, run, run_trials, write_artifact

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
PHY = PhyConfig(**DEFAULT_PHY)
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
    """Scenario-1 runs of the shared configuration with per-trial statistics."""
    cfg = _config("outage_match.yaml", n_realizations=N_FAMILY, check_bounds=True)
    inputs = build_point_inputs(cfg)
    acc = ThroughputAccumulator(T_prime=cfg.T_prime)
    fracs, floor_ratios, int_ratios, slacks = [], [], [], []
    for t, (res, _, slack) in enumerate(run_trials(cfg, inputs)):
        slot = res.slot("cluster")
        floor = sinr_floor(slot.cluster_side, PHY, PHY.Pmax, PHY.Pmax)
        bound = interference_upper_bound(slot.cluster_side, PHY, PHY.Pmax)
        fracs.append(res.outage_fraction)
        floor_ratios.append(slot.min_sinr / floor)
        int_ratios.append(slot.max_interference / bound)
        slacks.append(slack)
        if t < N_CRIT9:
            acc.add(res)
    return {
        "cfg": cfg,
        "closed_form": inputs.closed_form,
        "fracs": np.asarray(fracs),
        "floor_ratios": np.asarray(floor_ratios),
        "interference_ratios": np.asarray(int_ratios),
        "slacks": np.asarray(slacks[:N_CRIT6]),
        "acc": acc,
    }


def test_criterion_1_outage_vs_closed_form(family):
    fr = family["fracs"][:N_CRIT1]
    target = family["closed_form"]
    se = float(fr.std(ddof=1) / math.sqrt(len(fr)))
    gap = abs(float(fr.mean()) - target)
    _report(
        1,
        gap <= 3.0 * se,
        f"|empirical - closed-form| = {gap:.2e} vs 3 SE = {3 * se:.2e} "
        f"(closed {target:.6f}, empirical {fr.mean():.6f}, {len(fr)} realizations)",
    )


def test_criterion_2_hit_probability_scaling():
    model = PopularityModel(M=2_000_000, gamma=0.6, q=2.0)
    S = 2
    exps = list(range(4, 11))  # eps'rho' = 2^-4 .. 2^-10
    ratios = [2.0**-k for k in exps]
    p_hit = [1.0 - po_sec_gamma_lt1(r * model.M / S, model, S) for r in ratios]
    fit = fit_loglog(ratios, p_hit)
    slope_ok = abs(fit.slope - 0.4) <= 0.05

    rng = np.random.Generator(np.random.PCG64(20_240_812))
    mc_ok, mc_details = True, []
    for r in (2.0**-4, 2.0**-7, 2.0**-10):
        gc = r * model.M / S
        pol = optimize_policy(model, S, gc)
        formula = po_sec_gamma_lt1(gc, model, S)
        n_draws = 100_000
        occupants = rng.poisson(gc, size=n_draws)
        files = sample_request(model, rng, size=n_draws)
        holders = rng.binomial(occupants, pol.probs[files - 1])
        p_mc = float((holders == 0).mean())
        se = math.sqrt(p_mc * (1 - p_mc) / n_draws)
        mc_ok &= abs(p_mc - formula) <= 3.0 * se
        mc_details.append(f"{abs(p_mc - formula) / se:.2f}SE")
    _report(
        2,
        slope_ok and mc_ok,
        f"hit-probability slope {fit.slope:.4f} vs 0.4 +- 0.05; "
        f"MC gaps {', '.join(mc_details)} (<= 3 SE each)",
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
    ratios = family["floor_ratios"]
    i_ratios = family["interference_ratios"]
    violations = int(np.sum(ratios < 1.0))
    i_violations = int(np.sum(i_ratios > 1.0))
    k1 = sinr_floor(0.2, PHY, PHY.Pmax, PHY.Pmax)
    phy_k2 = PhyConfig(**{**DEFAULT_PHY, "K": 2})
    k2 = sinr_floor(0.2, phy_k2, phy_k2.Pmax, phy_k2.Pmax)
    _report(
        5,
        violations == 0 and i_violations == 0 and k2 > k1,
        f"{violations} floor violations over {len(ratios)} realizations "
        f"(worst SINR/floor {float(ratios.min()):.3f}); interference within "
        f"its bound in all realizations (max ratio {float(i_ratios.max()):.3f}); "
        f"floor(K=2)={k2:.4f} > floor(K=1)={k1:.4f}",
    )


def test_criterion_6_transport_bound(family):
    slacks = family["slacks"]
    violations = int(np.sum(slacks < 0.0))
    _report(
        6,
        violations == 0 and len(slacks) == N_CRIT6,
        f"{violations} bound violations over {len(slacks)} schedules "
        f"(min slack {float(np.nanmin(slacks)):.4g})",
    )


def test_criterion_7_fixed_point_and_asymptote():
    rng = np.random.Generator(np.random.PCG64(777))
    worst = 0.0
    for _ in range(10_000):
        fp = solve_c1_c2(
            float(rng.uniform(1e-3, 1e5)),
            float(rng.uniform(0.0, 1e5)),
            int(rng.integers(1, 12)),
            float(rng.uniform(0.05, 3.0)),
        )
        worst = max(worst, abs(fp.residual) / max(1.0, fp.C1))
    ratios = []
    for x in (1e-4, 1e-6, 1e-8):
        fp = solve_c1_c2(1.0, 1.0 / x, 1, 1.0)
        ratios.append(fp.C1 / (math.sqrt(2.0) * x**-0.5))
    ok = (
        worst <= RESIDUAL_TOL
        and 0.99 <= ratios[1] <= 1.01
        and ratios[0] > ratios[1] > ratios[2] > 1.0
    )
    _report(
        7,
        ok,
        f"max scaled residual {worst:.2e} over 1e4 inputs; asymptote ratio at "
        f"1e-6: {ratios[1]:.6f}; monotone {ratios[0]:.6f} > {ratios[1]:.6f} > {ratios[2]:.6f}",
    )


def test_criterion_8_log_inequality():
    rng = np.random.Generator(np.random.PCG64(888))
    x = rng.uniform(1e-12, 100.0, 100_000)
    a = rng.uniform(1.0, 8.0, 100_000)
    violations = int(np.sum(np.log1p(x**a) > a * x + 1e-12))
    _report(8, violations == 0, f"{violations} violations over 100000 draws")


def test_criterion_9_fairness(family):
    acc = family["acc"]
    means = acc.per_index_means
    grand = float(means.mean())
    cv = float(means.std()) / grand
    noise_floor = math.sqrt(float(acc.per_index_vars.mean()) / acc.n_real) / grand
    part_a = cv <= 5.0 * noise_floor

    # realization-level unfairness of the double time-slot scheme
    cfg = dataclasses.replace(
        family["cfg"], scheme="scenario2", base_seed=9_000, n_realizations=N_CRIT9,
        check_bounds=False,
    )
    outcomes = []
    for res, _, _ in run_trials(cfg, build_point_inputs(cfg)):
        s1, s2 = res.slot("cluster1"), res.slot("cluster2")
        only1 = s1.served & ~s2.served
        if s2.served.any() and only1.any():
            outcomes.append(
                float(res.per_user_bits[s2.served].mean()) > float(res.per_user_bits[only1].mean())
            )
    frac = float(np.mean(outcomes))
    part_b = frac >= 0.95
    _report(
        9,
        part_a and part_b,
        f"index-mean CV {cv:.4f} <= 5 x noise floor {noise_floor:.4f}: {part_a}; "
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
