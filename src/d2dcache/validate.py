"""The paper's invariants as check functions, and the `validate` suites.

Each `check_*` function takes its inputs (per-trial results, or a seed and a
size) and returns a `SuiteReport`. The acceptance gate and the `validate` CLI
subcommand call the same checks, each at its own seeds and sizes; the
`validate` suites are quick release gates, not the full acceptance runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, caching, runner
from .config import ExperimentConfig
from .metrics import mean_se
from .phy import PhyConfig, interference_upper_bound, sinr_floor
from .popularity import PopularityModel, sample_request
from .regimes import GAMMA_LT1

_SEED = 20240811

# small clustered network of the Monte Carlo suites
_MINI = ExperimentConfig(
    scheme="scenario1", regime=GAMMA_LT1.name, N=5000, M=100, S=2, gamma=0.6,
    q=10.0, rho_or_alpha1=4.0, n_realizations=60, base_seed=_SEED, check_bounds=True,
)


@dataclass
class SuiteReport:
    name: str
    passed: bool
    detail: str
    n_checks: int
    seed: int


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def cluster_ratios(result, phy: PhyConfig, label: str = "cluster") -> tuple[float, float]:
    """(min SINR / floor, max interference / ring bound) of one clustered slot
    of a result, at that slot's own realized side: "cluster" of scenario 1,
    "cluster1" or "cluster2" of scenario 2. Both are inf / 0 when no link was
    active."""
    slot = result.slot(label)
    floor = sinr_floor(slot.cluster_side, phy)
    bound = interference_upper_bound(slot.cluster_side, phy)
    return (float(slot.link_sinr.min(initial=math.inf)) / floor,
            float(slot.link_interference.max(initial=0.0)) / bound)


def check_outage_closed_form(fracs, closed_form: float, seed: int) -> SuiteReport:
    """Mean per-trial outage fraction within 3 SE of the closed form."""
    mean, se = mean_se(fracs)
    gap = abs(mean - closed_form)
    return SuiteReport(
        "outage_closed_form_match", gap <= 3.0 * se,
        f"|empirical - closed-form| = {gap:.2e} vs 3 SE = {3 * se:.2e} "
        f"(closed {closed_form:.6f}, empirical {mean:.6f}, {len(fracs)} realizations)",
        len(fracs), seed,
    )


def check_sinr_floor(trial_ratios, seed: int) -> SuiteReport:
    """SINR/floor >= 1 and interference/ring bound <= 1 in every trial, given
    the cluster_ratios of each, and the floor grows with the reuse factor K."""
    ratios, i_ratios = np.asarray(trial_ratios, dtype=np.float64).T
    violations = int(np.sum(ratios < 1.0))
    i_violations = int(np.sum(i_ratios > 1.0))
    phys = [PhyConfig(K=k) for k in (1, 2)]
    k1, k2 = (sinr_floor(0.2, phy) for phy in phys)
    within = f"above its bound in {i_violations}" if i_violations else "within its bound in all"
    return SuiteReport(
        "cluster_sinr_floor", violations == 0 and i_violations == 0 and k2 > k1,
        f"{violations} floor violations over {len(ratios)} realizations "
        f"(worst SINR/floor {float(ratios.min()):.3f}); interference {within} realizations "
        f"(max ratio {float(i_ratios.max()):.3f}); "
        f"floor(K=2)={k2:.4f} > floor(K=1)={k1:.4f}",
        len(ratios), seed,
    )


def check_transport_slack(slacks, seed: int) -> SuiteReport:
    """The transport-capacity bound holds on every schedule (slack >= 0); a
    non-finite slack is a schedule whose bound was never checked."""
    slacks = np.asarray(slacks, dtype=np.float64)
    violations = len(slacks) - int(np.count_nonzero(np.isfinite(slacks) & (slacks >= 0.0)))
    return SuiteReport(
        "transport_capacity_bound", violations == 0,
        f"{violations} bound violations over {len(slacks)} schedules "
        f"(min slack {float(slacks.min()):.4g})",
        len(slacks), seed,
    )


def check_fixed_point(seed: int, n: int) -> SuiteReport:
    """Scaled C1/C2 fixed-point residuals over n random inputs, and the
    small-cluster asymptote C1 ~ sqrt(2/x) at x = 1e-4, 1e-6, 1e-8."""
    rng = _rng(seed)
    worst = 0.0
    for _ in range(n):
        fp = analysis.solve_c1_c2(
            float(rng.uniform(1e-3, 1e5)),
            float(rng.uniform(0.0, 1e5)),
            int(rng.integers(1, 12)),
            float(rng.uniform(0.05, 3.0)),
        )
        worst = max(worst, abs(fp.residual) / max(1.0, fp.C1))
    ratios = [  # C1 / sqrt(2/x) at C2 = 1/x
        analysis.solve_c1_c2(1.0, 1.0 / x, 1, 1.0).C1 / (math.sqrt(2.0) * x**-0.5)
        for x in (1e-4, 1e-6, 1e-8)
    ]
    ok = worst <= analysis.RESIDUAL_TOL and 0.99 <= ratios[1] <= 1.01
    ok &= ratios[0] > ratios[1] > ratios[2] > 1.0
    count = f"{n:.0e}".replace("e+0", "e")  # 10000 -> 1e4
    return SuiteReport(
        "fixed_point_and_small_cluster_asymptote", ok,
        f"max scaled residual {worst:.2e} over {count} inputs; asymptote ratio at "
        f"1e-6: {ratios[1]:.6f}; monotone {ratios[0]:.6f} > {ratios[1]:.6f} > {ratios[2]:.6f}",
        n + 3, seed,
    )


def check_log_inequality(seed: int, n: int) -> SuiteReport:
    """ln(1 + x^alpha) <= alpha*x for x > 0, alpha >= 1, over n draws."""
    rng = _rng(seed)
    x = rng.uniform(1e-12, 100.0, n)
    a = rng.uniform(1.0, 8.0, n)
    violations = int(np.sum(np.log1p(x**a) > a * x + 1e-12))
    detail = f"{violations} violations over {n} draws"
    return SuiteReport("log_power_inequality", violations == 0, detail, n, seed)


def check_placement_marginals(policy, seed: int, n_draws: int) -> SuiteReport:
    """Exact-S placement of n_draws caches: every row holds S distinct files,
    and each file's count is within 4 binomial SDs of n_draws * Pc(f)."""
    caches = caching.place_caches_batch(policy, _rng(seed), n_draws)
    counts = np.bincount(caches.ravel(), minlength=policy.M + 1)[1:]
    p = policy.pc_of(np.arange(1, policy.M + 1))
    sd = np.sqrt(np.maximum(p * (1 - p), 1e-12) * n_draws)
    z = np.abs(counts - n_draws * p) / np.maximum(sd, 1e-9)
    exact_s = caches.shape == (n_draws, policy.cache_size)
    distinct = exact_s and bool(np.all(np.diff(np.sort(caches, axis=1), axis=1) != 0))
    return SuiteReport(
        "placement_marginals", bool(np.all(z <= 4.0)) and distinct,
        f"max |z| = {float(z.max()):.2f} over {policy.M} files; exact-S rows: {distinct}",
        n_draws, seed,
    )


def cluster_outage_mc(model, policy, gc: float, n_draws: int, rng) -> tuple[float, float]:
    """Poisson-occupancy cluster oracle: Poisson(gc) occupants cache by the
    policy (file f is held by each one with probability Pc(f)), and a request
    is in outage iff no occupant holds it. Returns (outage, its SE)."""
    occupants = rng.poisson(gc, size=n_draws)
    files = sample_request(model, rng, size=n_draws)
    holders = rng.binomial(occupants, policy.pc_of(files))
    p = float((holders == 0).mean())
    return p, math.sqrt(p * (1 - p) / n_draws)


def hit_probability_curve(model, S: int, seed: int, n_draws: int) -> list[dict]:
    """Small-cluster hit probability 1 - po_sec_gamma_lt1 at the occupancies
    eps_rho * M / S, eps_rho = 2^-4 .. 2^-10, with the cluster oracle's outage,
    its SE and its distance from the closed form in SEs at 2^-4, 2^-7, 2^-10."""
    rng = _rng(seed)
    rows = []
    for k in range(4, 11):
        er = 2.0**-k
        gc = er * model.M / S
        po = analysis.po_sec_gamma_lt1(gc, model, S)
        row = {"eps_rho": er, "p_hit_closed_form": 1.0 - po}
        if k in (4, 7, 10):
            policy = caching.optimize_policy(model, S, gc)
            p_mc, se = cluster_outage_mc(model, policy, gc, n_draws, rng)
            row.update(p_out_mc=p_mc, mc_se=se, gap_in_se=abs(p_mc - po) / se)
        rows.append(row)
    return rows


def suite_mini_network(n_real: int = _MINI.n_realizations) -> list[SuiteReport]:
    """One run of the mini network: the SINR-floor and transport-slack checks
    on its first 20 trials, the outage check on all of them."""
    cfg = replace(_MINI, n_realizations=n_real)
    inputs = runner.build_point_inputs(cfg)
    ratios, slacks, fracs = [], [], []
    for res, _, slack in runner.run_trials(cfg, inputs):
        if len(fracs) < 20:
            ratios.append(cluster_ratios(res, cfg.phy))
            slacks.append(slack)
        fracs.append(res.outage_fraction)
    return [
        check_sinr_floor(ratios, _SEED),
        check_transport_slack(slacks, _SEED),
        check_outage_closed_form(fracs, inputs.closed_form, _SEED),
    ]


def run_all() -> list[SuiteReport]:
    policy = caching.optimize_policy(PopularityModel(M=20, gamma=0.8, q=2.0), 3, 12.0)
    return [
        check_log_inequality(_SEED, 100_000), *suite_mini_network(),
        check_fixed_point(_SEED, 10_000), check_placement_marginals(policy, _SEED, 40_000),
    ]
