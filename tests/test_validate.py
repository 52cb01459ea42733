import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from d2dcache import popularity, validate
from d2dcache.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_all_suites_pass_and_cli_exit_zero(tmp_path, capsys):
    rc = main(["validate", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 6 and "6/6 suites passed" in out
    reports = json.loads((tmp_path / "validate.json").read_text())
    assert all(r["n_checks"] > 0 and r["seed"] == validate._SEED for r in reports)


def test_corrupted_reuse_coloring_is_caught(monkeypatch):
    """Mutation check: an all-one-color 'reuse' pattern floods every cluster
    with co-channel interference and must trip the SINR-floor suite."""
    import d2dcache.schemes as schemes

    def broken_coloring(cells, k, phy):
        return np.zeros(len(cells), dtype=np.int64)

    monkeypatch.setattr(schemes, "reuse_color", broken_coloring)
    floor_report = validate.suite_mini_network(n_real=5)[0]
    assert floor_report.name == "cluster_sinr_floor" and not floor_report.passed


def _log_check(x, alpha, seed):
    """check_log_inequality on the given draws instead of its generator's."""
    draws = iter([np.asarray(x), np.asarray(alpha)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validate, "_rng", lambda s: SimpleNamespace(uniform=lambda *_: next(draws)))
        return validate.check_log_inequality(seed, len(x))


# mean 0.25, SE 0.0645: the closed forms 0.379 and 0.508 lie 2.0 and 4.0 SE away
FRACS = [0.1, 0.2, 0.3, 0.4]


@pytest.mark.parametrize("check, passing, failing, failure_text", [
    (validate.check_outage_closed_form, (FRACS, 0.379), (FRACS, 0.508), "4 realizations"),
    (validate.check_transport_slack, ([0.0, 3.0],), ([2.0, -1e-9, 5.0],),
     "1 bound violations over 3 schedules"),
    # a NaN slack is a schedule whose bound was never checked
    (validate.check_transport_slack, ([0.0, 3.0],), ([np.nan] * 5,),
     "5 bound violations over 5 schedules (min slack nan)"),
    (validate.check_sinr_floor, ([(1.0, 0.2), (3.0, 1.0)],), ([(1.0, 0.2), (3.0, 1.01)],),
     "interference above its bound in 1 realizations"),
    # alpha < 1 lies outside the inequality's domain, so (0.01, 0.5) violates it
    (_log_check, ([0.01, 50.0], [1.0, 8.0]), ([0.01, 50.0], [0.5, 8.0]),
     "1 violations over 2 draws"),
], ids=["outage", "transport_slack", "transport_slack_nan", "sinr_floor", "log_inequality"])
def test_checks_fail_across_their_threshold(check, passing, failing, failure_text):
    assert check(*passing, 0).passed
    report = check(*failing, 0)
    assert not report.passed
    assert failure_text in report.detail


def test_hit_probability_curve_rows():
    # at the seed of scripts/hit_probability_curve.py; the law's own bias at
    # M = 2e4 is 0.6 to 1.1 SE of these 2e4 draws
    model = popularity.PopularityModel(M=20_000, gamma=0.6, q=2.0)
    rows = validate.hit_probability_curve(model, 2, 20240812, 20_000)
    assert [r["eps_rho"] for r in rows] == [2.0**-k for k in range(4, 11)]
    mc = [r for r in rows if "p_out_mc" in r]
    assert [r["eps_rho"] for r in mc] == [2.0**-4, 2.0**-7, 2.0**-10]
    assert all(0.0 < r["p_hit_closed_form"] < 1.0 for r in rows)
    assert all(r["mc_se"] > 0.0 and r["gap_in_se"] <= 3.0 for r in mc), mc


@pytest.mark.parametrize("seed", [validate._SEED, 20240812])
def test_hit_probability_curve_exact_gaps(seed):
    # against the exact outage of the simulated policy, not the law, every
    # Monte Carlo row is within 3 SE at both seeds (2.61 SE at worst)
    model = popularity.PopularityModel(M=20_000, gamma=0.6, q=2.0)
    mc = [r for r in validate.hit_probability_curve(model, 2, seed, 20_000) if "p_out_mc" in r]
    assert len(mc) == 3 and all(r["gap_exact_in_se"] <= 3.0 for r in mc), mc


def test_hit_probability_script_smoke(tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "hit_probability_curve.py"),
         "--M", "20000", "--draws", "5000", "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "hit_probability.csv").read_text().splitlines()
    assert len(rows) == 1 + 7  # header, one row per eps*rho = 2^-4 .. 2^-10
    assert rows[0].split(",")[-3:] == ["gap_in_se", "p_out_exact", "gap_exact_in_se"]


def test_line_trace_script_smoke():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "line_trace.py"), "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_popularity.py")],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    unreached = {line.split()[0] for line in proc.stdout.splitlines() if line.startswith("src/")}
    assert any(loc.startswith("src/d2dcache/schemes.py:") for loc in unreached)  # never imported
    source, first = inspect.getsourcelines(popularity.sample_request)
    sampled = {f"src/d2dcache/popularity.py:{n}" for n in range(first, first + len(source))}
    assert not unreached & sampled
