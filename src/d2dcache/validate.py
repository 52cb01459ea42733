"""Cross-module invariant suites behind the `validate` CLI subcommand.

Each suite runs at a pinned seed and reports pass/fail with a short detail
string; any failure flips the process exit code. These are quick release
gates, not the full acceptance runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, caching, runner
from .config import DEFAULT_PHY, ExperimentConfig
from .phy import PhyConfig, sinr_floor
from .popularity import PopularityModel
from .regimes import GAMMA_LT1

_SEED = 20240811

# small clustered network shared by the Monte Carlo suites
_MINI = ExperimentConfig(
    scheme="scenario1", regime=GAMMA_LT1.name, N=5000, M=100, S=2, gamma=0.6,
    q=10.0, rho_or_alpha1=4.0, n_realizations=1, base_seed=_SEED,
)


@dataclass
class SuiteReport:
    name: str
    passed: bool
    detail: str
    n_checks: int
    seed: int | None = None


def _mini_trials(n_real: int, check_bounds: bool = False):
    """The point inputs and the in-order runner trials of the mini network."""
    cfg = replace(_MINI, n_realizations=n_real, check_bounds=check_bounds)
    inputs = runner.build_point_inputs(cfg)
    return inputs, runner.run_trials(cfg, inputs)


def suite_log_inequality(n: int = 100_000) -> SuiteReport:
    """ln(1 + x^alpha) <= alpha*x for x > 0, alpha >= 1."""
    rng = np.random.Generator(np.random.PCG64(_SEED))
    x = rng.uniform(1e-9, 100.0, n)
    a = rng.uniform(1.0, 8.0, n)
    viol = int(np.sum(np.log1p(x**a) > a * x + 1e-12))
    return SuiteReport("log_power_inequality", viol == 0, f"{viol} violations", n, _SEED)


def suite_sinr_floor(n_real: int = 20) -> SuiteReport:
    phy = _MINI.phy
    _, trials = _mini_trials(n_real)
    floor_checked = 0
    worst = math.inf
    for res, _, _ in trials:
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
    _, trials = _mini_trials(n_real, check_bounds=True)
    slacks = [slack for _, _, slack in trials]
    n_viol = sum(slack < 0.0 for slack in slacks)  # the bound holds iff slack >= 0
    return SuiteReport(
        "transport_capacity_bound", n_viol == 0,
        f"{n_viol} violations, min slack {min(slacks):.4g}", n_real, _SEED,
    )


def suite_outage_closed_form(n_real: int = 60) -> SuiteReport:
    inputs, trials = _mini_trials(n_real)
    fracs = np.array([res.outage_fraction for res, _, _ in trials])
    target = inputs.closed_form
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
