"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The heavy network family (N=20000, M=400, S=2, gamma=0.6, q=20, rho=4, K=1)
is simulated once per session and shared by the outage, SINR-floor,
transport-bound and fairness criteria.
"""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from d2dcache.analysis import (
    RESIDUAL_TOL,
    fit_loglog,
    po_sec_gamma_lt1,
    predicted_exponent,
    solve_c1_c2,
)
from d2dcache.caching import build_split_policy, closed_form_outage, optimize_policy
from d2dcache.config import DEFAULT_PHY, config_from_dict
from d2dcache.geometry import build_realization
from d2dcache.metrics import ThroughputAccumulator, check_transport_bound
from d2dcache.phy import PhyConfig, interference_upper_bound, sinr_floor
from d2dcache.popularity import PopularityModel, sample_request
from d2dcache.runner import run, write_artifact
from d2dcache.schemes import SchemeConfig, derive_epsilon, run_scenario1, run_scenario2

PHY = PhyConfig(**DEFAULT_PHY)
WORKERS = 2


def _report(criterion: int, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion} [{'PASS' if passed else 'FAIL'}] {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ----------------------------------------------------------------- family

N_FAMILY = 1000
N_CRIT1 = 200
N_CRIT6 = 500
N_CRIT9 = 500


@pytest.fixture(scope="module")
def family():
    """Scenario-1 runs of the shared configuration with per-trial statistics."""
    model = PopularityModel(M=400, gamma=0.6, q=20.0)
    S, N, rho = 2, 20_000, 4.0
    g_c = rho * model.M / S
    policy = optimize_policy(model, S, g_c)
    target = closed_form_outage(policy, model, g_c)
    cfg = SchemeConfig(regime="gamma_lt1", model=model, S=S, rho_or_alpha1=rho)
    r0 = 0.1 * math.sqrt(rho * model.M / (S * N))

    acc = ThroughputAccumulator(T_prime=1.0)

    def one(t):
        want_schedule = t < N_CRIT6
        realization = build_realization(model, policy, N, 42 + t)
        res = run_scenario1(realization, cfg, PHY)
        slot = res.slot("cluster")
        floor = sinr_floor(slot.cluster_side, PHY, PHY.Pmax, PHY.Pmax)
        bound = interference_upper_bound(slot.cluster_side, PHY, PHY.Pmax)
        slack = math.nan
        if want_schedule:
            check = check_transport_bound(res, PHY, r0, 0.1)
            slack = check.slack if check.holds else -1.0
        return res, slot.min_sinr / floor, slot.max_interference / bound, slack

    fracs, floor_ratios, int_ratios, slacks = [], [], [], []
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for t, (res, ratio, i_ratio, slack) in enumerate(pool.map(one, range(N_FAMILY))):
            fracs.append(res.outage_fraction)
            floor_ratios.append(ratio)
            int_ratios.append(i_ratio)
            slacks.append(slack)
            if t < N_CRIT9:
                acc.add(res)
    return {
        "model": model,
        "closed_form": target,
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


def _run_sweep_point(model, S, rho, regime, N, seed0, scenario, C_sec, n_real):
    g_c = rho * (model.M if regime == "gamma_lt1" else model.q) / S
    cfg = SchemeConfig(regime=regime, model=model, S=S, rho_or_alpha1=rho, C_sec=C_sec)
    if scenario == 2:
        eps = derive_epsilon(cfg, N)
        policy = build_split_policy(model, S, 2 * g_c, 2 * eps * g_c)
        runner = run_scenario2
    else:
        policy = optimize_policy(model, S, g_c)
        runner = run_scenario1
    acc = ThroughputAccumulator(T_prime=1.0)
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for res in pool.map(
            lambda t: runner(build_realization(model, policy, N, seed0 + t), cfg, PHY),
            range(n_real),
        ):
            acc.add(res)
    return acc.finish()


def test_criterion_3_scenario2_exponent_gamma_lt1():
    S, gamma, q, rho, C_sec, n_real = 4, 0.6, 10.0, 4.0, 4.0, 100
    xs, t2s, t1s = [], [], []
    dominance = True
    for M in (256, 512, 1024, 2048, 4096):
        N = 50 * M
        model = PopularityModel(M=M, gamma=gamma, q=q)
        e2 = _run_sweep_point(model, S, rho, "gamma_lt1", N, 31_000, 2, C_sec, n_real)
        e1 = _run_sweep_point(model, S, rho, "gamma_lt1", N, 31_000, 1, C_sec, n_real)
        xs.append(S / M)
        t2s.append(e2.mean_throughput)
        t1s.append(e1.mean_throughput)
        dominance &= e2.mean_throughput > e1.mean_throughput
    fit = fit_loglog(xs, t2s)
    target = predicted_exponent("scenario2_lt1", gamma)
    slope_ok = abs(fit.slope - target) <= 0.10
    _report(
        3,
        slope_ok and dominance,
        f"scenario-2 slope {fit.slope:.4f} vs {target:.4f} +- 0.10; "
        f"scenario-2 > scenario-1 at every point: {dominance}",
    )


def test_criterion_4_exponents_gamma_gt1():
    S, gamma, alpha1, C_sec, n_real = 4, 1.5, 4.0, 4.0, 100
    xs, t1s, t2s = [], [], []
    for qi in (64, 128, 256, 512, 1024):
        q, M, N = float(qi), 50 * qi, 200 * qi
        model = PopularityModel(M=M, gamma=gamma, q=q)
        e2 = _run_sweep_point(model, S, alpha1, "gamma_gt1", N, 32_000, 2, C_sec, n_real)
        e1 = _run_sweep_point(model, S, alpha1, "gamma_gt1", N, 32_000, 1, C_sec, n_real)
        xs.append(S / q)
        t1s.append(e1.mean_throughput)
        t2s.append(e2.mean_throughput)
    f1 = fit_loglog(xs, t1s)
    f2 = fit_loglog(xs, t2s)
    ok1 = abs(f1.slope - 1.0) <= 0.15
    ok2 = abs(f2.slope - 0.5) <= 0.10
    _report(
        4,
        ok1 and ok2,
        f"scenario-1 slope {f1.slope:.4f} vs 1 +- 0.15; "
        f"scenario-2 slope {f2.slope:.4f} vs 0.5 +- 0.10",
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
    model = family["model"]
    S, N, rho, C_sec = 2, 20_000, 4.0, 4.0
    g_c = rho * model.M / S
    cfg = SchemeConfig(regime="gamma_lt1", model=model, S=S, rho_or_alpha1=rho, C_sec=C_sec)
    eps = derive_epsilon(cfg, N)
    split = build_split_policy(model, S, 2 * g_c, 2 * eps * g_c)

    def one(t):
        res = run_scenario2(build_realization(model, split, N, 9_000 + t), cfg, PHY)
        s1, s2 = res.slot("cluster1"), res.slot("cluster2")
        only1 = s1.served & ~s2.served
        if not s2.served.any() or not only1.any():
            return None
        return float(res.per_user_bits[s2.served].mean()) > float(
            res.per_user_bits[only1].mean()
        )

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        outcomes = [o for o in pool.map(one, range(N_CRIT9)) if o is not None]
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
