"""Tests of the benchmark itself: python3 -m pytest bench

Smoke runs use tiny versions of every workload so the whole suite takes
well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    wl = WORKLOADS[name]
    sizes = {
        "family_s1": dict(N=2000, M=40, q=2.0),
        "lt1_s2_N204800": dict(N=3200, M=64),
        "gt1_s2_N204800": dict(N=3200, M=800, q=16.0),
    }
    if name in sizes:
        return dataclasses.replace(wl, config={**wl.config, **sizes[name]}, trials_per_thread=2)
    return dataclasses.replace(wl, M=200_000)  # slope 0.442, within 0.4 +- 0.05


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_every_workload(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, name, tiny(name))
    code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)])
    text = capsys.readouterr().out
    out = last_json(text)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert code == 0, text
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in out["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for m in out["metrics"].values():
        assert isinstance(m["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_wrong_expected_hash_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, "family_s1", tiny("family_s1"))
    wrong = measure.Batch(0, 1.0, 1.0, "0" * 64, None, None)
    monkeypatch.setattr(measure, "reference_run", lambda *args: wrong)
    code = run.main(["--workload", "family_s1", "--seed", "7", "--seconds", "0.1", "--trace", "0"])
    text = capsys.readouterr().out
    assert code == 1
    assert last_json(text)["correct"] is False
    assert "check results_hash_threads: FAIL" in text


def test_tracing_restores_every_rebound_name():
    targets = measure.layer_targets()
    originals = [getattr(t.owner, t.attr) for t in targets]
    with pytest.raises(RuntimeError):
        with tracing.Tracer(targets):
            for t, original in zip(targets, originals):
                assert getattr(t.owner, t.attr) is not original
            raise RuntimeError("leave the block early")
    for t, original in zip(targets, originals):
        assert getattr(t.owner, t.attr) is original, f"{t.owner.__name__}.{t.attr} not restored"


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S(0, "outer", 0.0, 10.0, None, None),
        S(1, "a", 1.0, 4.0, 0, None),  # children overlap on two threads
        S(2, "a", 3.0, 6.0, 0, None),
        S(3, "b", 2.0, 3.0, 1, None),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({"outer": 5.0, "a": 5.0, "b": 1.0})


def test_tail_has_ten_samples_beyond_it():
    value, pct = measure.tail(list(range(1, 101)))
    assert value == 90 and sum(v > value for v in range(1, 101)) == 10
    assert measure.tail([float(v) for v in range(20)]) == (19.0, 100.0)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "family_s1", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
