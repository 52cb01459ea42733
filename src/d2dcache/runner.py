"""Experiment driver: per-point Monte Carlo loops, sweeps, fits, artifacts.

Trial t of a point runs on seed base_seed + t. Trials are distributed over a
thread pool but reduced in trial order, so artifacts are byte-identical
regardless of the worker count.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from . import analysis, caching, metrics, schemes
from .config import ExperimentConfig, config_to_dict, sweep_points, swept_param_names
from .geometry import build_realization, grid_from_target_side
from .popularity import PopularityModel
from .regimes import REGIMES

SCHEMA_VERSION = 1


@dataclass
class PointResult:
    """One sweep point; a failed point keeps every default but its error.
    cluster_sides holds the realized side 1/k of each clustered slot, the
    same in every trial."""

    params: dict
    estimate: metrics.ThroughputOutageEstimate | None = None
    c_gamma_mean: float = math.nan
    bound_slack_min: float = math.nan
    closed_form_outage: float = math.nan
    epsilon: float | None = None
    cluster_sides: tuple = ()
    error: str | None = None


@dataclass
class ResultArtifact:
    config: dict
    points: list[PointResult]
    fit: dict | None
    predicted_exponent: float
    schema_version: int = SCHEMA_VERSION
    seed_info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PointInputs:
    """What every trial of a point shares, all derived from one regime record.

    policies holds one caching policy per cache block, parallel to the
    realization's caches, to sides and to grid_sizes: (policy,) for scenario
    1, the two S/2 sub-policies for scenario 2. sides holds each clustered
    slot's target side, sqrt(occupancy / N) and then sqrt(eps) times that,
    and grid_sizes the k x k grid (realized side 1/k) it rounds to, which
    every trial builds. closed_form is the outage the simulation estimates
    for scenario 1 (exactly N users on the trial's grid, self-service
    included) and the Poisson cluster outage of slot 1 for scenario 2.
    """

    model: PopularityModel
    policies: tuple[caching.CachingPolicy, ...]
    occupancy: float
    sides: tuple[float, ...]
    grid_sizes: tuple[int, ...]
    epsilon: float | None
    closed_form: float


def build_point_inputs(cfg: ExperimentConfig) -> PointInputs:
    """Model, occupancy, cluster sides, caching policy and closed form of one point."""
    regime = REGIMES[cfg.regime]
    model = PopularityModel(M=cfg.M, gamma=cfg.gamma, q=cfg.q)
    occupancy = regime.occupancy(cfg)
    # fail fast on an infeasible cluster side so the point is skipped cleanly
    side = math.sqrt(occupancy / cfg.N)
    if side > 1.0:
        raise ValueError(
            f"cluster side {side:.4g} exceeds the network; increase N or decrease the occupancy target"
        )
    epsilon = None
    if cfg.scheme == "scenario2":
        epsilon = regime.epsilon(cfg)
        sides = (side, math.sqrt(epsilon) * side)
        grid_sizes = tuple(grid_from_target_side(s) for s in sides)
        policies = caching.build_split_policy(model, cfg.S, 2.0 * occupancy, 2.0 * epsilon * occupancy)
        closed_form = caching.closed_form_outage(policies[0], model, 2.0 * occupancy)
    else:
        sides = (side,)
        grid_sizes = (grid_from_target_side(side),)
        policies = (caching.optimize_policy(model, cfg.S, occupancy),)
        closed_form = caching.finite_n_outage(*policies, model, cfg.N, grid_sizes[0] ** 2)
    return PointInputs(model, policies, occupancy, sides, grid_sizes, epsilon, closed_form)


def run_trial(cfg: ExperimentConfig, inputs: PointInputs, trial: int):
    seed = cfg.base_seed + trial
    realization = build_realization(inputs.model, inputs.policies, cfg.N, seed)
    if cfg.scheme == "scenario2":
        result = schemes.run_scenario2(realization, *inputs.grid_sizes, cfg.phy)
    else:
        result = schemes.run_scenario1(realization, *inputs.grid_sizes, cfg.phy)
    c_gamma = metrics.transport_capacity(result)
    slack = math.nan
    if cfg.check_bounds:
        r0 = cfg.eps0 * inputs.sides[0]
        slack = metrics.check_transport_bound(result, cfg.phy, r0, cfg.eps0)
    return result, c_gamma, slack


def run_trials(cfg: ExperimentConfig, inputs: PointInputs):
    """run_trial for trials 0 .. n_realizations - 1 on cfg.threads workers
    (default: all cores), yielded in trial order."""
    with ThreadPoolExecutor(max_workers=cfg.threads or os.cpu_count() or 1) as pool:
        yield from pool.map(lambda t: run_trial(cfg, inputs, t), range(cfg.n_realizations))


def point_params(cfg: ExperimentConfig) -> dict:
    """The fields that name a sweep point in every artifact."""
    return {
        "N": cfg.N, "M": cfg.M, "S": cfg.S, "gamma": cfg.gamma, "q": cfg.q,
        "rho_or_alpha1": cfg.rho_or_alpha1,
    }


def run_point(cfg: ExperimentConfig) -> PointResult:
    params = point_params(cfg)
    try:
        inputs = build_point_inputs(cfg)
        acc = metrics.ThroughputAccumulator()
        for trial in run_trials(cfg, inputs):
            acc.add(*trial)
    except (ValueError, RuntimeError) as exc:
        return PointResult(params, error=str(exc))
    estimate, c_gamma_mean, bound_slack_min = acc.finish()
    return PointResult(params, estimate, c_gamma_mean, bound_slack_min, inputs.closed_form,
                       inputs.epsilon, tuple(1.0 / k for k in inputs.grid_sizes))


def run(cfg: ExperimentConfig) -> ResultArtifact:
    """Run every sweep point and fit the throughput scaling when possible."""
    points = [run_point(p) for p in sweep_points(cfg)]

    regime = REGIMES[cfg.regime]
    fit = None
    good = [p for p in points if p.estimate is not None and p.estimate.mean_throughput > 0]
    if cfg.sweep is not None and len(good) >= 2:
        axis = [regime.fit_axis(p.params) for p in good]
        y = [p.estimate.mean_throughput for p in good]
        try:
            f = analysis.fit_loglog([x for _, x in axis], y)
            fit = {"x": axis[0][0], **asdict(f)}
        except ValueError:
            fit = None
    return ResultArtifact(
        config=config_to_dict(cfg),
        points=points,
        fit=fit,
        predicted_exponent=regime.exponent(cfg.scheme, cfg.gamma),
        seed_info={
            "base_seed": cfg.base_seed,
            "trial_seeds": f"base_seed + 0..{cfg.n_realizations - 1} per point",
        },
    )


def _fmt(x) -> str:
    """Shortest round-trip decimal for floats; empty for missing values."""
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return repr(x)
    return str(x)


def _nan_to_null(x):
    if isinstance(x, float) and math.isnan(x):
        return None
    if isinstance(x, dict):
        return {k: _nan_to_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_nan_to_null(v) for v in x]
    return x


def write_tables(out_dir, stem: str, fmt: str, header: list, rows: list, doc) -> list[str]:
    """The one artifact format: <stem>.csv holds the header and the rows, each
    cell by _fmt; <stem>.json holds doc with NaN as null and sorted keys.
    fmt is csv, json or both; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt in ("csv", "both"):
        path = os.path.join(out_dir, f"{stem}.csv")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            for row in [header, *rows]:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
        written.append(path)
    if fmt in ("json", "both"):
        path = os.path.join(out_dir, f"{stem}.json")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(_nan_to_null(doc), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written


def artifact_rows(artifact: ResultArtifact, cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    swept = swept_param_names(cfg)
    header = ["point", *swept, "T_min_avg", "T_stderr", "p_o_hat", "p_o_stderr",
              "C_gamma_mean", "bound_slack_min"]
    rows = []
    for i, p in enumerate(artifact.points):
        est = p.estimate
        row = [i, *[p.params[name] for name in swept]]
        if est is None:
            row += [None] * 4
        else:
            row += [est.T_min_avg, est.std_errors["T_min_avg"], est.p_o_hat, est.std_errors["p_o_hat"]]
        row += [p.c_gamma_mean, p.bound_slack_min]
        rows.append(row)
    return header, rows


def write_artifact(
    artifact: ResultArtifact,
    cfg: ExperimentConfig,
    out_dir,
    fmt: str = "both",
    wall_clock_s: float | None = None,
) -> list[str]:
    """Write results.csv / results.json plus a non-deterministic run_info

    sidecar (timing lives there so result files stay byte-stable)."""
    doc = asdict(artifact)
    for point in doc["points"]:
        if point["estimate"] is None:
            del point["estimate"]
    written = write_tables(out_dir, "results", fmt, *artifact_rows(artifact, cfg), doc)
    info = {
        "wall_clock_seconds": wall_clock_s,
        "written_at_unix": time.time(),
        "threads": cfg.threads or os.cpu_count() or 1,
    }
    write_tables(out_dir, "run_info", "json", [], [], info)
    return written
