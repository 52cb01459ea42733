"""Command line interface.

Subcommands:
  simulate  -- run a single configuration point
  sweep     -- run all sweep points and fit the throughput scaling
  analyze   -- closed-form quantities only, no Monte Carlo
  validate  -- run the invariant suites; nonzero exit on any failure
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import validate
from .config import config_to_dict, load_config, sweep_points
from .phy import interference_upper_bound, sinr_floor
from .regimes import REGIMES
from .runner import build_point_inputs, run, write_artifact


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--seed", type=int, default=None, help="override base_seed")
    p.add_argument("--threads", type=int, default=None, help="worker threads (default: cores)")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")


def _load(args, force_single: bool = False):
    cfg = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if force_single and cfg.sweep is not None:
        overrides["sweep"] = None
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load(args, force_single=True)
    t0 = time.monotonic()
    artifact = run(cfg)
    written = write_artifact(artifact, cfg, args.out, args.format, time.monotonic() - t0)
    for p in written:
        print(f"wrote {p}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    if cfg.sweep is None:
        print("config has no sweep section; running the single point", file=sys.stderr)
    t0 = time.monotonic()
    artifact = run(cfg)
    written = write_artifact(artifact, cfg, args.out, args.format, time.monotonic() - t0)
    if artifact.fit is not None:
        print(
            f"fitted slope {artifact.fit['slope']:.4f} "
            f"(stderr {artifact.fit['slope_stderr']:.4f}) vs predicted "
            f"{artifact.predicted_exponent}"
        )
    for p in written:
        print(f"wrote {p}")
    return 0


def cmd_analyze(args) -> int:
    """Closed-form per-point report: cluster sides, outage, SINR floor."""
    cfg = _load(args)
    rows = []
    for point in sweep_points(cfg):
        inputs = build_point_inputs(point)
        regime = REGIMES[point.regime]
        d = inputs.sides[0]
        entry = {
            "N": point.N, "M": point.M, "S": point.S, "gamma": point.gamma,
            "q": point.q, "rho_or_alpha1": point.rho_or_alpha1,
            "cluster_side": d,
            "occupancy": inputs.occupancy,
            "sinr_floor": sinr_floor(d, point.phy, point.phy.Pmax, point.phy.Pmax),
            "interference_bound": interference_upper_bound(d, point.phy, point.phy.Pmax),
        }
        if point.scheme == "scenario2":
            entry["epsilon"] = inputs.epsilon
            entry["slot2_cluster_side"] = inputs.sides[1]
            entry["slot2_outage_closed_form"] = regime.small_cluster_outage(
                inputs.policy.gc2, inputs.model, point.S // 2
            )
        else:
            entry["outage_closed_form"] = inputs.closed_form
        entry["predicted_exponent"] = regime.exponent(point.scheme, point.gamma)
        rows.append(entry)

    os.makedirs(args.out, exist_ok=True)
    keys = sorted({k for r in rows for k in r})
    written = []
    if args.format in ("csv", "both"):
        path = os.path.join(args.out, "analysis.csv")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(keys) + "\n")
            for r in rows:
                fh.write(",".join(repr(r[k]) if isinstance(r.get(k), float) else str(r.get(k, ""))
                                  for k in keys) + "\n")
        written.append(path)
    if args.format in ("json", "both"):
        path = os.path.join(args.out, "analysis.json")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump({"config": config_to_dict(cfg), "points": rows}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    for p in written:
        print(f"wrote {p}")
    return 0


def cmd_validate(args) -> int:
    reports = validate.run_all()
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail} (n={r.n_checks}, seed={r.seed})")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "validate.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump([dataclasses.asdict(r) for r in reports], fh, indent=2)
        print(f"wrote {path}")
    print(f"{len(reports) - len(failed)}/{len(reports)} suites passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="d2dcache",
        description="Cache-aided D2D network simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a single configuration point")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep and fit the scaling")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser("analyze", help="closed-form quantities only")
    _add_common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_val = sub.add_parser("validate", help="run the invariant suites")
    p_val.add_argument("--out", default=None, help="optional report directory")
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
