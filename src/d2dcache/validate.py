"""Cross-module invariant suites behind the `validate` CLI subcommand.

Each suite runs at a pinned seed and reports pass/fail with a short detail
string; any failure flips the process exit code. These are quick release
gates, not the full acceptance runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, caching, metrics, schemes
from .config import DEFAULT_PHY
from .geometry import build_realization
from .phy import PhyConfig, sinr_floor
from .popularity import PopularityModel

_SEED = 20240811


@dataclass
class SuiteReport:
    name: str
    passed: bool
    detail: str
    n_checks: int
    seed: int | None = None


def _mini_scenario1(n_real: int, seed: int = _SEED):
    """Small clustered network shared by several suites."""
    phy = PhyConfig(**DEFAULT_PHY)
    model = PopularityModel(M=100, gamma=0.6, q=10.0)
    S, N, rho = 2, 5000, 4.0
    g_c = rho * model.M / S
    policy = caching.optimize_policy(model, S, g_c)
    cfg = schemes.SchemeConfig(
        regime="gamma_lt1", model=model, S=S, rho_or_alpha1=rho,
    )
    results = []
    for t in range(n_real):
        realization = build_realization(model, policy, N, seed + t)
        results.append(schemes.run_scenario1(realization, cfg, phy))
    return phy, model, policy, g_c, cfg, results


def suite_log_inequality(n: int = 100_000) -> SuiteReport:
    """ln(1 + x^alpha) <= alpha*x for x > 0, alpha >= 1."""
    rng = np.random.Generator(np.random.PCG64(_SEED))
    x = rng.uniform(1e-9, 100.0, n)
    a = rng.uniform(1.0, 8.0, n)
    viol = int(np.sum(np.log1p(x**a) > a * x + 1e-12))
    return SuiteReport("log_power_inequality", viol == 0, f"{viol} violations", n, _SEED)


def suite_sinr_floor(n_real: int = 20) -> SuiteReport:
    phy, _, _, _, _, results = _mini_scenario1(n_real)
    floor_checked = 0
    worst = math.inf
    for res in results:
        slot = res.slot("cluster")
        floor = sinr_floor(slot.cluster_side, phy, phy.Pmax, phy.Pmax)
        if slot.n_links:
            worst = min(worst, slot.min_sinr / floor)
            floor_checked += slot.n_links
    mono = sinr_floor(0.2, phy, phy.Pmax, phy.Pmax)
    phy_k2 = PhyConfig(**{**DEFAULT_PHY, "K": 2})
    mono_ok = sinr_floor(0.2, phy_k2, phy_k2.Pmax, phy_k2.Pmax) > mono
    ok = worst >= 1.0 and mono_ok
    return SuiteReport(
        "cluster_sinr_floor", ok,
        f"min SINR/floor ratio {worst:.3g} over {floor_checked} links; "
        f"floor monotone in K: {mono_ok}", floor_checked, _SEED,
    )


def suite_transport_bound(n_real: int = 20) -> SuiteReport:
    phy, model, _, g_c, cfg, results = _mini_scenario1(n_real)
    n_viol = 0
    min_slack = math.inf
    for res in results:
        r0 = 0.1 * math.sqrt(g_c / 5000)
        check = metrics.check_transport_bound(res, phy, r0, 0.1)
        min_slack = min(min_slack, check.slack)
        n_viol += not check.holds
    return SuiteReport(
        "transport_capacity_bound", n_viol == 0,
        f"{n_viol} violations, min slack {min_slack:.4g}", n_real, _SEED,
    )


def suite_outage_closed_form(n_real: int = 60) -> SuiteReport:
    phy, model, policy, g_c, cfg, results = _mini_scenario1(n_real)
    fracs = np.array([r.outage_fraction for r in results])
    target = caching.closed_form_outage(policy, model, g_c)
    se = float(fracs.std(ddof=1) / math.sqrt(len(fracs)))
    gap = abs(float(fracs.mean()) - target)
    ok = gap <= 3.0 * se
    return SuiteReport(
        "outage_closed_form_match", ok,
        f"|empirical-closed| = {gap:.2e} vs 3SE = {3 * se:.2e}", n_real, _SEED,
    )


def suite_fixed_point(n: int = 10_000) -> SuiteReport:
    rng = np.random.Generator(np.random.PCG64(_SEED))
    gc = rng.uniform(0.1, 1e4, n)
    q = rng.uniform(0.0, 1e4, n)
    gamma = rng.uniform(0.05, 3.0, n)
    worst = 0.0
    for i in range(n):
        fp = analysis.solve_c1_c2(float(gc[i]), float(q[i]), 2, float(gamma[i]))
        worst = max(worst, abs(fp.residual) / max(1.0, fp.C1))
    ratios = []
    for x in (1e-4, 1e-6, 1e-8):
        fp = analysis.solve_c1_c2(1.0, 1.0 / x, 1, 1.0)  # C2 = 1/x
        ratios.append(fp.C1 / (math.sqrt(2.0) * x**-0.5))
    mono = ratios[0] > ratios[1] > ratios[2] > 1.0
    ok = worst <= analysis.RESIDUAL_TOL and mono and abs(ratios[1] - 1.0) <= 0.01
    return SuiteReport(
        "fixed_point_and_small_cluster_asymptote", ok,
        f"max residual {worst:.2e}; asymptote ratios {ratios[0]:.6f} > "
        f"{ratios[1]:.6f} > {ratios[2]:.6f}", n + 3, _SEED,
    )


def suite_placement_marginals(n_draws: int = 40_000) -> SuiteReport:
    model = PopularityModel(M=20, gamma=0.8, q=2.0)
    policy = caching.optimize_policy(model, 3, 12.0)
    rng = np.random.Generator(np.random.PCG64(_SEED))
    caches = caching.place_caches_batch(policy, rng, n_draws)
    counts = np.bincount(caches.ravel(), minlength=model.M + 1)[1:]
    p = policy.probs
    sd = np.sqrt(np.maximum(p * (1 - p), 1e-12) * n_draws)
    z = np.abs(counts - n_draws * p) / np.maximum(sd, 1e-9)
    distinct = all(len(set(row)) == policy.cache_size for row in caches[:200].tolist())
    ok = bool(np.all(z <= 4.0)) and distinct
    return SuiteReport(
        "placement_marginals", ok,
        f"max |z| = {float(z.max()):.2f} over {model.M} files; exact-S rows: {distinct}",
        n_draws, _SEED,
    )


ALL_SUITES = (
    suite_log_inequality,
    suite_sinr_floor,
    suite_transport_bound,
    suite_outage_closed_form,
    suite_fixed_point,
    suite_placement_marginals,
)


def run_all() -> list[SuiteReport]:
    return [suite() for suite in ALL_SUITES]
