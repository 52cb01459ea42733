"""Timed runs of one workload: metrics, correctness checks and traced layers.

Load is one process. Monte Carlo workloads go through ``runner.run`` with the
runner's own thread pool at ``threads = nproc``, in batches of a fixed number
of trials: a closed loop, where the next trial starts when a worker is free.
Batch b runs trials seed + b*k .. seed + b*k + k - 1, so trial t of the run
always runs on seed + t. The hit-probability workload runs single-threaded.

Untraced runs give the end-to-end metrics; a traced run repeats the same
batches with every layer wrapped (see tracing.py) and gives the per-layer
metrics and the tracing overhead.

The machine's speed can change by more than half within seconds, so the
set-up samples are spread over the timed loop instead of taken in one burst,
and rates are work over the summed time of every sample.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from d2dcache import analysis, caching, geometry, metrics, runner, schemes
from d2dcache.config import config_from_dict
from d2dcache.popularity import PopularityModel

import tracing
from tracing import Target, Tracer
from workloads import WORKLOADS, HitCurve, MonteCarlo

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 9
POINT_SETUP_BURST_S = 0.05
MIN_STEPS = 3
OUTAGE_SE = 3.0


def layer_targets() -> list[Target]:
    """Every callable the traced run rebinds, where its caller looks it up."""
    def links(args, out):
        return ("links", out.n_links)

    def evals(args, out):
        return ("path_gain_evals", np.size(args[0]))

    def split_users(args, out):
        return ("split_users", args[2])

    def split_rows(args, out):
        # caching's own binding is reached only from place_split_caches_batch
        return ("split_rows", args[2])

    return [
        Target(runner, "run_trial", "runner.trial"),
        Target(runner, "build_realization", "geometry.draw"),
        Target(runner, "write_artifact", "runner.write"),
        Target(geometry, "sample_request", "popularity.sample"),
        Target(geometry, "place_caches_batch", "caching.place"),
        Target(geometry, "place_split_caches_batch", "caching.place", split_users),
        Target(caching, "place_caches_batch", "caching.place", split_rows),
        Target(caching, "optimize_policy", "caching.policy"),
        Target(caching, "build_split_policy", "caching.policy"),
        Target(caching, "closed_form_outage", "analysis.closed_form"),
        Target(analysis, "po_sec_gamma_lt1", "analysis.closed_form"),
        Target(analysis, "fit_loglog", "analysis.closed_form"),
        Target(schemes, "run_scenario1", "schemes"),
        Target(schemes, "run_scenario2", "schemes"),
        Target(schemes, "build_grid", "geometry.grid"),
        Target(schemes, "pair_within_clusters", "geometry.pairing", links),
        Target(schemes, "path_gain", "phy.path_gain", evals),
        Target(metrics, "transport_capacity", "metrics.transport"),
        Target(metrics, "check_transport_bound", "metrics.bound_check"),
        Target(metrics.ThroughputAccumulator, "add", "metrics.accumulate"),
    ]


def trial_timer() -> Tracer:
    """The untraced runs' only rebinding: per-trial wall time."""
    return Tracer([Target(runner, "run_trial", tracing.TRIAL_LAYER)])


def durations(tracer: Tracer, layer: str) -> list[float]:
    return [s.end - s.start for s in tracer.spans if s.layer == layer]


def summary(values) -> dict:
    values = list(values)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def tail(values) -> tuple[float, float]:
    """Highest order statistic with ten samples beyond it, and its percentile.

    Below 21 samples no such statistic lies above the median, and this is the
    maximum instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    i = n - 11 if n > 20 else n - 1
    pct = 100.0 * i / (n - 1) if n > 1 else 100.0
    return ordered[i], pct


def stat(value: float, samples=None, **extra) -> dict:
    """A metric value with the median, quartiles and count of its samples."""
    out = {"value": float(value)}
    if samples is not None:
        out.update(summary(samples))
        out["samples"] = [float(x) for x in samples]
    out.update(extra)
    return out


def timing_stats(name: str, ms: list[float]) -> dict:
    tail_ms, pct = tail(ms)
    return {
        f"{name}_p50": stat(statistics.median(ms), ms),
        f"{name}_tail": stat(tail_ms, ms, percentile=pct),
    }


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def probe_setup(name: str, src: Path) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe_setup.py"), str(src), name],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupSamples:
    """Set-up probes, and for Monte Carlo workloads point set-ups, taken
    between the steps of the timed loop at evenly spaced measured times."""

    def __init__(self, name: str, src: Path, seconds: float, point_cfg=None):
        self.name, self.src, self.point_cfg = name, src, point_cfg
        self.due = [i * seconds / SETUP_PROBES for i in range(SETUP_PROBES)]
        self.setup_s: list[float] = []
        self.point_setup_s: list[float] = []

    def __call__(self, measured: float) -> None:
        if self.due and measured >= self.due[0]:
            self.due.pop(0)
            self.setup_s.append(probe_setup(self.name, self.src))
        if self.point_cfg is not None:
            end = time.perf_counter() + POINT_SETUP_BURST_S
            while True:
                t0 = time.perf_counter()
                runner.build_point_inputs(self.point_cfg)
                t1 = time.perf_counter()
                self.point_setup_s.append(t1 - t0)
                if t1 >= end:
                    break

    def finish(self) -> None:
        while self.due:
            self.due.pop()
            self.setup_s.append(probe_setup(self.name, self.src))


def timed_loop(step, seconds: float | None = None, count: int | None = None, between=None) -> list:
    """step(0), step(1), ... until the steps took `seconds` (and at least
    MIN_STEPS ran) or `count` ran; between(measured) runs after each step,
    outside the measured time."""
    results: list = []
    measured = 0.0
    while len(results) < count if count is not None else (len(results) < MIN_STEPS or measured < seconds):
        t0 = time.perf_counter()
        results.append(step(len(results)))
        measured += time.perf_counter() - t0
        if between is not None:
            between(measured)
    return results


@dataclass
class Run:
    """What one workload run produced: metric stats, checks and work counts."""

    metrics: dict
    checks: list
    attempted: int
    failed: int
    info: dict
    spans: list = field(default_factory=list)


def check(checks: list, name: str, passed: bool, detail: str) -> None:
    checks.append({"name": name, "passed": bool(passed), "detail": detail})


# --------------------------------------------------------------- Monte Carlo


@dataclass
class Batch:
    index: int
    run_s: float
    wall_s: float
    sha: str | None
    point: object | None
    error: str | None


def run_batch(wl: MonteCarlo, seed: int, b: int, k: int, threads: int, out: Path, tracer: Tracer) -> Batch:
    """runner.run of trials seed + b*k .. seed + b*k + k - 1, then its artifacts."""
    cfg = config_from_dict(
        {**wl.config, "n_realizations": k, "base_seed": seed + b * k, "threads": threads}
    )
    with tracer.region("runner.run", root=True):
        start = time.perf_counter()
        try:
            artifact = runner.run(cfg)
        except Exception as exc:  # a failed batch is counted, not fatal
            return Batch(b, math.nan, math.nan, None, None, f"{type(exc).__name__}: {exc}")
        ran = time.perf_counter()
        runner.write_artifact(artifact, cfg, out, "both", wall_clock_s=ran - start)
        done = time.perf_counter()
    point = artifact.points[0]
    return Batch(b, ran - start, done - start, sha256_file(out / "results.json"), point, point.error)


def reference_run(wl: MonteCarlo, seed: int, k: int, out: Path) -> Batch:
    """Plain single-threaded run of batch 0: the baseline for the results.json
    hash and for parallel efficiency."""
    return run_batch(wl, seed, 0, k, 1, out / "threads1", trial_timer())


def run_monte_carlo(wl: MonteCarlo, seed: int, seconds: float, trace: bool, out: Path, src: Path) -> Run:
    threads = nproc()
    k = wl.trials_per_thread * threads
    checks: list = []
    stats: dict = {}

    ref = reference_run(wl, seed, k, out)
    ref_rate = k / ref.run_s

    def step(b, tracer):
        return run_batch(wl, seed, b, k, threads, out / "threads_n", tracer)

    timer = trial_timer()
    samples = None
    if not trace:
        point_cfg = config_from_dict({**wl.config, "n_realizations": 1, "base_seed": seed})
        samples = SetupSamples(wl.name, src, seconds, point_cfg)
    with timer:
        batches = timed_loop(lambda b: step(b, timer), seconds / 2 if trace else seconds, between=samples)
    good = [b for b in batches if b.error is None]
    bad = [b for b in [ref, *batches] if b.error is not None]
    if not good:
        raise RuntimeError(f"every batch of {wl.name} failed: {bad[-1].error}")
    failed = k * len(bad)
    attempted = k * (len(batches) + 1)
    check(checks, "no_failed_trials", not bad,
          f"{failed} of {attempted} trials failed" + "".join(f"; batch {b.index}: {b.error}" for b in bad))
    check(checks, "results_hash_threads", ref.sha is not None and ref.sha == batches[0].sha,
          f"results.json sha256 at {threads} threads {batches[0].sha} vs 1 thread {ref.sha}")
    if good and wl.config["scheme"] == "scenario1":
        # the closed form is the simulated outage for scenario 1 only
        p = statistics.fmean(b.point.estimate.p_o_hat for b in good)
        se = math.sqrt(sum(b.point.estimate.std_errors["p_o_hat"] ** 2 for b in good)) / len(good)
        closed = good[0].point.closed_form_outage
        check(checks, "outage_vs_closed_form", abs(p - closed) <= OUTAGE_SE * se,
              f"|MC {p:.6f} - closed form {closed:.6f}| = {abs(p - closed):.2e} "
              f"vs {OUTAGE_SE:g} SE = {OUTAGE_SE * se:.2e} over {k * len(good)} trials")
    if good and wl.config.get("check_bounds"):
        slack = min(b.point.bound_slack_min for b in good)
        check(checks, "transport_bound", slack >= 0.0,
              f"smallest transport-bound slack {slack:.4g} over {k * len(good)} schedules")

    rates = [k / b.run_s for b in good]
    rate = k * len(good) / sum(b.run_s for b in good)
    info = {"threads": threads, "batch_trials": k, "batches": len(batches),
            "results_sha256": batches[0].sha, "results_sha256_1thread": ref.sha,
            "trials_per_s_1thread": ref_rate}

    if not trace:
        samples.finish()
        walls = [b.wall_s for b in good]
        point_s = samples.point_setup_s
        stats["trials_per_s"] = stat(rate, rates)
        stats["policy_solves_per_s"] = stat(len(point_s) / sum(point_s), [1.0 / t for t in point_s])
        stats["run_wall_s"] = stat(statistics.median(walls), walls)
        stats.update(timing_stats("trial_ms", [1000.0 * d for d in durations(timer, tracing.TRIAL_LAYER)]))
        stats["setup_s"] = stat(statistics.median(samples.setup_s), samples.setup_s)
        stats["peak_rss_mb"] = stat(peak_rss_mb())
        return Run(stats, checks, attempted, failed, info)

    tracer = Tracer(layer_targets())
    with tracer:
        traced = timed_loop(lambda b: step(b, tracer), count=len(batches))
    attempted += k * len(traced)
    failed += k * sum(b.error is not None for b in traced)
    check(checks, "results_hash_traced", [b.sha for b in traced] == [b.sha for b in batches],
          "traced batches reproduce the untraced results.json hashes")
    stats.update(layer_metrics(tracer, k * len(traced)))
    stats["runner.parallel_efficiency"] = stat(rate / (threads * ref_rate))
    stats["trace_overhead_frac"] = stat(
        sum(b.wall_s for b in traced) / sum(b.wall_s for b in batches) - 1.0
    )
    return Run(stats, checks, attempted, failed, info, tracer.spans)


def layer_metrics(tracer: Tracer, n_trials: int) -> dict:
    """Per-layer self times and work counts, per trial of the traced run."""
    own = tracing.self_times(tracer.spans)
    work = tracing.counts(tracer.spans)
    layer_of = {s.id: s.layer for s in tracer.spans}
    solves = [s for s in tracer.spans
              if s.layer == "caching.policy" and layer_of.get(s.parent) != "caching.policy"]
    split_users = work.get("split_users", 0.0)
    slot2_rows = work.get("split_rows", 0.0) - split_users

    def per_trial(layer):
        return stat(own.get(layer, 0.0) / n_trials)

    return {
        "geometry.pairing_s": per_trial("geometry.pairing"),
        "geometry.links": stat(work.get("links", 0.0) / n_trials),
        "schemes.self_s": per_trial("schemes"),
        "phy.path_gain_s": per_trial("phy.path_gain"),
        "phy.path_gain_evals": stat(work.get("path_gain_evals", 0.0) / n_trials),
        "geometry.draw_self_s": per_trial("geometry.draw"),
        "geometry.grid_s": per_trial("geometry.grid"),
        "popularity.sample_s": per_trial("popularity.sample"),
        "caching.place_s": per_trial("caching.place"),
        "caching.split_accept_ratio": stat(split_users / slot2_rows if slot2_rows else 1.0),
        "caching.policy_s": stat(own.get("caching.policy", 0.0) / len(solves) if solves else 0.0),
        "analysis.closed_form_s": per_trial("analysis.closed_form"),
        "metrics.transport_s": per_trial("metrics.transport"),
        "metrics.bound_check_s": per_trial("metrics.bound_check"),
        "metrics.accumulate_s": per_trial("metrics.accumulate"),
        "runner.trial_s": per_trial("runner.trial"),
        "runner.write_s": per_trial("runner.write"),
    }


# ------------------------------------------------------ hit-probability curve


def run_curve(wl: HitCurve, model, tracer: Tracer) -> dict:
    """One curve: per point a policy solve, its cluster outage and the formula."""
    ratios, hits, solves, errors = [], [], [], []
    with tracer.region("curve", root=True):
        start = time.perf_counter()
        for i, k in enumerate(wl.ks):
            ratio = 2.0**-k
            gc = ratio * wl.M / wl.S
            with tracer.region("point", trial=i):
                try:
                    t0 = time.perf_counter()
                    policy = caching.optimize_policy(model, wl.S, gc)
                    solves.append(time.perf_counter() - t0)
                    caching.closed_form_outage(policy, model, gc)  # timed work; the fit uses the formula
                    hits.append(1.0 - analysis.po_sec_gamma_lt1(gc, model, wl.S))
                    ratios.append(ratio)
                except (ValueError, ArithmeticError) as exc:
                    errors.append(f"k={k}: {type(exc).__name__}: {exc}")
        fit = analysis.fit_loglog(ratios, hits) if len(hits) >= 2 else None
        wall = time.perf_counter() - start
    return {"wall_s": wall, "solves": solves, "errors": errors,
            "slope": fit.slope if fit is not None else math.nan}


def run_hit_curve(wl: HitCurve, seed: int, seconds: float, trace: bool, out: Path, src: Path) -> Run:
    checks: list = []
    stats: dict = {}
    n_points = len(wl.ks)
    model = PopularityModel(M=wl.M, gamma=wl.gamma, q=wl.q)
    model.pmf_table

    timer = Tracer([])
    samples = None if trace else SetupSamples(wl.name, src, seconds)
    curves = timed_loop(lambda _: run_curve(wl, model, timer), seconds / 2 if trace else seconds,
                        between=samples)
    errors = [e for c in curves for e in c["errors"]]
    attempted = n_points * len(curves)
    check(checks, "no_failed_points", not errors,
          f"{len(errors)} of {attempted} points failed" + "".join(f"; {e}" for e in errors[:3]))
    slopes = [c["slope"] for c in curves]
    check(checks, "hit_probability_slope", all(abs(s - wl.slope) <= wl.slope_tol for s in slopes),
          f"hit-probability slope {slopes[0]:.4f} vs {wl.slope} +- {wl.slope_tol} "
          f"(all {len(curves)} curves identical: {len(set(slopes)) == 1})")
    info = {"threads": 1, "curves": len(curves), "slope": slopes[0]}

    walls = [c["wall_s"] for c in curves]
    if not trace:
        samples.finish()
        solves = [t for c in curves for t in c["solves"]]
        stats["trials_per_s"] = stat(n_points * len(curves) / sum(walls), [n_points / w for w in walls])
        stats["policy_solves_per_s"] = stat(len(solves) / sum(solves), [1.0 / t for t in solves])
        stats["run_wall_s"] = stat(statistics.median(walls), walls)
        stats.update(timing_stats("trial_ms", [1000.0 * d for d in durations(timer, "point")]))
        stats["setup_s"] = stat(statistics.median(samples.setup_s), samples.setup_s)
        stats["peak_rss_mb"] = stat(peak_rss_mb())
        return Run(stats, checks, attempted, len(errors), info)

    tracer = Tracer(layer_targets())
    with tracer:
        traced = [run_curve(wl, model, tracer) for _ in curves]
    attempted += n_points * len(traced)
    failed = len(errors) + sum(len(c["errors"]) for c in traced)
    stats.update(layer_metrics(tracer, n_points * len(traced)))
    stats["runner.parallel_efficiency"] = stat(1.0 / nproc())
    stats["trace_overhead_frac"] = stat(sum(c["wall_s"] for c in traced) / sum(walls) - 1.0)
    return Run(stats, checks, attempted, failed, info, tracer.spans)


def run(name: str, seed: int, seconds: float, trace: bool, out: Path, src: Path) -> Run:
    wl = WORKLOADS[name]
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(wl, MonteCarlo):
        return run_monte_carlo(wl, seed, seconds, trace, out, src)
    return run_hit_curve(wl, seed, seconds, trace, out, src)
