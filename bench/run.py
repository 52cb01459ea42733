#!/usr/bin/env python3
"""d2dcache benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload family_s1 --seed 1 --seconds 15 --trace 0

Run from the repository root. The package is imported from ./src of the
checkout this file sits in. --trace 0 prints the end-to-end metrics of
BENCHMARK.json; --trace 1 also runs the batches with every layer wrapped and
prints the per-layer metrics. Each metric is printed by name with its unit,
then every correctness check; the last line of standard output is one JSON
object with keys correct, attempted, failed and metrics. The full record
(versions, seeds, hashes, per-metric median and quartiles, sample counts) is
written to .bench_out/<workload>-seed<seed>-trace<0|1>/result.json, and the
spans of a traced run next to it. Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time of the untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "d2dcache" / "__init__.py").is_file():
        print(f"run.py: no d2dcache package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import d2dcache

    if Path(d2dcache.__file__).resolve().parent != SRC / "d2dcache":
        print(f"run.py: imported d2dcache from {d2dcache.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import measure

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace), out, SRC)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(result.metrics))
    if missing:
        raise RuntimeError(f"workload {args.workload} did not measure {missing}")
    metrics = {name: {**result.metrics[name], "unit": units[name]} for name in units}
    correct = all(c["passed"] for c in result.checks)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": measure.nproc(),
        "seeds": {"base_seed": args.seed, "trial_seeds": "base_seed + t for trial t of the run"},
        **result.info,
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_frac": result.failed / result.attempted,
        "checks": result.checks,
        "metrics": metrics,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        (out / "spans.json").write_text(json.dumps([asdict(s) for s in result.spans]) + "\n")

    for name, m in metrics.items():
        n = f"  (n={m['n']})" if "n" in m else ""
        pct = f"  (p{m['percentile']:.0f})" if "percentile" in m else ""
        print(f"{args.workload}  {name:28s} {m['value']:.6g} {m['unit']}{pct}{n}")
    for key in ("results_sha256", "results_sha256_1thread"):
        if key in record:
            print(f"{args.workload}  {key} {record[key]}")
    for c in result.checks:
        print(f"{args.workload}  check {c['name']}: {'PASS' if c['passed'] else 'FAIL'}  {c['detail']}")
    print(f"{args.workload}  attempted {result.attempted}, failed {result.failed}; record {out / 'result.json'}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
