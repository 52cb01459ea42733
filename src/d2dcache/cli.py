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
import sys
import time

from . import validate
from .caching import closed_form_outage
from .config import config_to_dict, load_config, sweep_points
from .phy import interference_upper_bound, sinr_floor
from .regimes import REGIMES
from .runner import build_point_inputs, point_params, run, write_artifact, write_tables


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--seed", type=int, default=None, help="override base_seed")
    p.add_argument("--threads", type=int, default=None, help="worker threads (default: usable CPUs)")
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


def cmd_run(args) -> int:
    """simulate runs the config's single point; sweep runs every sweep point."""
    single = args.command == "simulate"
    cfg = _load(args, force_single=single)
    if cfg.sweep is None and not single:
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
    """Closed-form per-point report: cluster sides, outage, SINR floor. The
    floor and the interference bound are taken at the realized side 1/k that
    the trials use, cluster_side is the target side, and slot 2 of scenario 2
    reports the exact outage of its solved policy at 2*eps*g_c. A point whose
    inputs cannot be built is recorded as its params and its error."""
    cfg = _load(args)
    rows = []
    for point in sweep_points(cfg):
        entry = point_params(point)
        try:
            inputs = build_point_inputs(point)
        except ValueError as exc:
            rows.append({**entry, "error": str(exc)})
            continue
        realized = 1.0 / inputs.grid_sizes[0]
        entry.update(
            cluster_side=inputs.sides[0],
            occupancy=inputs.occupancy,
            sinr_floor=sinr_floor(realized, point.phy),
            interference_bound=interference_upper_bound(realized, point.phy),
        )
        if point.scheme == "scenario2":
            entry["epsilon"] = inputs.epsilon
            entry["slot2_cluster_side"] = inputs.sides[1]
            entry["slot2_outage_closed_form"] = closed_form_outage(
                inputs.policies[1], inputs.model, 2.0 * inputs.epsilon * inputs.occupancy
            )
        else:
            entry["outage_closed_form"] = inputs.closed_form
        entry["predicted_exponent"] = REGIMES[point.regime].exponent(point.scheme, point.gamma)
        rows.append(entry)

    # the CSV does not quote, so error messages go to the JSON only
    keys = sorted({k for r in rows for k in r} - {"error"})
    written = write_tables(
        args.out, "analysis", args.format, keys, [[r.get(k) for k in keys] for r in rows],
        {"config": config_to_dict(cfg), "points": rows},
    )
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
        for path in write_tables(args.out, "validate", "json", [], [],
                                 [dataclasses.asdict(r) for r in reports]):
            print(f"wrote {path}")
    print(f"{len(reports) - len(failed)}/{len(reports)} suites passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="d2dcache",
        description="Cache-aided D2D network simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("simulate", cmd_run, "run a single configuration point"),
        ("sweep", cmd_run, "run a parameter sweep and fit the scaling"),
        ("analyze", cmd_analyze, "closed-form quantities only"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(func=func)

    p_val = sub.add_parser("validate", help="run the invariant suites")
    p_val.add_argument("--out", default=None, help="optional report directory")
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
