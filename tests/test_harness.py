import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from d2dcache.analysis import fit_loglog
from d2dcache.caching import closed_form_outage, finite_n_outage, optimize_policy
from d2dcache.cli import main
from d2dcache.config import (
    ExperimentConfig,
    SweepSpec,
    config_from_dict,
    load_config,
    sweep_points,
)
from d2dcache.geometry import grid_from_target_side
from d2dcache.phy import PhyConfig, interference_upper_bound, sinr_floor
from d2dcache.popularity import PopularityModel
from d2dcache.regimes import REGIMES
from d2dcache.runner import (
    artifact_rows,
    build_point_inputs,
    run,
    run_point,
    run_trial,
    run_trials,
    write_artifact,
)

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"

BASE = {
    "scheme": "scenario1",
    "regime": "gamma_lt1",
    "N": 2000,
    "M": 50,
    "S": 2,
    "gamma": 0.6,
    "q": 5.0,
    "rho_or_alpha1": 3.0,
    "n_realizations": 4,
    "base_seed": 91,
}

BAD_TYPES = [
    ("check_bounds", "no"),
    ("threads", "2"),
    ("threads", 0),
    ("n_realizations", 2.5),
    ("N", "1e4"),  # YAML reads 1e4 as a string
    ("N", True),
    ("gamma", "0.6"),
    ("base_seed", -1),  # PCG64 would reject it inside the first trial
    ("sweep", [1, 2]),
    ("phy", [1]),
    ("q", math.nan),
    ("q", math.inf),
    ("C_sec", math.nan),
    ("eps0", math.nan),
    ("C_sec", 0),
    ("eps0", -0.1),
    ("rho_or_alpha1", 0),
    ("gamma", -0.5),
    ("q", -1),
    ("N", 0),
]
BAD_PHY = [("alpha", "4"), ("alpha", math.inf), ("chi", math.nan), ("N0", math.nan),
           ("Pmax", math.inf)]


def _write_cfg(tmp_path, name="cfg.yaml", **over):
    raw = {**BASE, **over}
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


def test_config_roundtrip(tmp_path):
    path = _write_cfg(tmp_path)
    cfg = load_config(path)
    assert cfg.N == 2000 and cfg.phy.alpha == 4.0


def test_config_validation_errors():
    missing = dict(BASE)
    del missing["M"]
    for raw in (
        {**BASE, "scheme": "scenario9"},
        {**BASE, "regime": "gamma_gt1"},  # gamma 0.6 inconsistent
        {**BASE, "scheme": "scenario2", "S": 3},  # odd split
        {**BASE, "scheme": "scenario2", "regime": "zipf_gt1", "gamma": 1.5},
        {**BASE, "bogus_key": 1},
        missing,
        [BASE],  # a YAML sequence, not a mapping
    ):
        with pytest.raises(ValueError):
            config_from_dict(raw)
    for key, value in BAD_TYPES:
        with pytest.raises(ValueError, match=f"^{key} must"):
            config_from_dict({**BASE, key: value})
    for key, value in BAD_PHY:
        with pytest.raises(ValueError, match=f"phy.{key}"):
            config_from_dict({**BASE, "phy": {key: value}})
    bad_sweeps = [
        ({"values": [50, 100]}, "sweep.param"),
        ({"param": "M"}, "sweep.values"),
        ({"param": "M", "values": 100}, "sweep.values"),
        ({"param": "M", "values": [50], "couple": ["N"]}, "sweep.couple"),
        ({"param": "M", "values": [50], "coupel": {"N": "40 * M"}}, "coupel"),  # was ignored
        ({"param": "gamma", "values": [0.5, math.nan]}, "sweep.values"),
    ]
    for sweep, key in bad_sweeps:
        with pytest.raises(ValueError, match=key):
            config_from_dict({**BASE, "sweep": sweep})
    # gamma > 1 clusters are sized by q: q = 0 would divide by zero
    gt1 = {**BASE, "regime": "gamma_gt1", "gamma": 1.5, "q": 0.0}
    for scheme in ("scenario1", "scenario2"):
        with pytest.raises(ValueError, match="q must be positive"):
            config_from_dict({**gt1, "scheme": scheme})
    assert config_from_dict({**BASE, "gamma": 0, "threads": 2, "check_bounds": True}).threads == 2


def test_phy_rejects_non_finite_numbers_built_in_code():
    # a PhyConfig made in code never passes config_from_dict's key checks
    phy = config_from_dict(BASE).phy
    for key in ("chi", "alpha", "N0", "B", "Pmax", "gain_cap", "sinr_ceiling"):
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            dataclasses.replace(phy, **{key: math.nan})
    with pytest.raises(ValueError, match="^alpha must be finite"):
        dataclasses.replace(phy, alpha=math.inf)


def test_phy_reuse_parameter_built_in_code_is_an_integer():
    phy = config_from_dict(BASE).phy
    for K in (1.5, True):
        with pytest.raises(ValueError, match="^K must be an integer"):
            dataclasses.replace(phy, K=K)
    with pytest.raises(ValueError, match=r"^phy\.K must be an integer, got 1\.5"):
        config_from_dict({**BASE, "phy": {"K": 1.5}})


def test_sweep_spec_built_in_code_is_checked():
    cfg = config_from_dict(BASE)
    with pytest.raises(ValueError, match="cannot sweep or couple 'bogus'"):
        dataclasses.replace(cfg, sweep=SweepSpec("bogus", (1,)))
    with pytest.raises(ValueError, match="cannot sweep or couple 'bogus'"):
        SweepSpec("M", (50,), {"bogus": "2 * M"})
    with pytest.raises(ValueError, match="sweep.values must be numbers"):
        SweepSpec("M", (math.nan,))
    assert len(sweep_points(dataclasses.replace(cfg, sweep=SweepSpec("M", (50, 60))))) == 2


def test_yaml_and_code_share_one_schema():
    # a bad value fails with the same message whether it comes from YAML or
    # from dataclasses.replace; a phy key only gains its "phy." prefix
    cfg = config_from_dict(BASE)
    for key, value in BAD_TYPES:
        with pytest.raises(ValueError) as from_yaml:
            config_from_dict({**BASE, key: value})
        with pytest.raises(ValueError) as in_code:
            dataclasses.replace(cfg, **{key: value})
        assert str(from_yaml.value) == str(in_code.value)
    for key, value in BAD_PHY:
        with pytest.raises(ValueError) as from_yaml:
            config_from_dict({**BASE, "phy": {key: value}})
        with pytest.raises(ValueError) as in_code:
            dataclasses.replace(cfg.phy, **{key: value})
        assert str(from_yaml.value) == f"phy.{in_code.value}"


def test_sweep_values_of_an_integer_parameter_are_integers():
    for param, values in (("S", [1.4, 2.5]), ("M", [50.5, 51.5, 60.7]), ("N", [2000.0])):
        with pytest.raises(ValueError, match=rf"sweep\.values must be integers to sweep {param}"):
            config_from_dict({**BASE, "sweep": {"param": param, "values": values}})
        with pytest.raises(ValueError, match=rf"sweep\.values must be integers to sweep {param}"):
            SweepSpec(param, tuple(values))
    # a coupled integer still rounds half to even: 50 * 1.01 = 50.5 -> 50
    coupled = {"param": "q", "values": [1.01, 1.03], "couple": {"M": "50 * q"}}
    assert [p.M for p in sweep_points(config_from_dict({**BASE, "sweep": coupled}))] == [50, 52]


def test_only_null_or_absent_sections_take_the_default():
    default = config_from_dict(BASE)
    assert config_from_dict({**BASE, "phy": None, "sweep": None}) == default
    for value in (0, False, "", []):
        with pytest.raises(ValueError, match="^phy must be a PhyConfig"):
            config_from_dict({**BASE, "phy": value})
    for value in ([], 0, "", False):
        with pytest.raises(ValueError, match="^sweep must be a SweepSpec"):
            config_from_dict({**BASE, "sweep": value})
    with pytest.raises(ValueError, match=r"^sweep\.param is missing"):
        config_from_dict({**BASE, "sweep": {}})
    for couple in ([], 0, ""):
        with pytest.raises(ValueError, match=r"^sweep\.couple must be a mapping"):
            config_from_dict({**BASE, "sweep": {"param": "M", "values": [50], "couple": couple}})
    no_couple = config_from_dict({**BASE, "sweep": {"param": "M", "values": [50], "couple": None}})
    assert no_couple.sweep.couple == {}


def test_readme_config_example_is_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config file", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    raw = yaml.safe_load(block)
    cfg = config_from_dict(raw)
    assert cfg.phy == PhyConfig()
    assert {f.name for f in dataclasses.fields(ExperimentConfig)} <= set(raw)
    assert {f.name for f in dataclasses.fields(PhyConfig)} <= set(raw["phy"])


def test_config_regime_warning():
    with pytest.warns(UserWarning):
        config_from_dict({**BASE, "q": 100.0})  # q > M in the heavy-tailed regime


def test_sweep_point_coupling():
    cfg = config_from_dict(
        {**BASE, "sweep": {"param": "M", "values": [50, 100], "couple": {"N": "40 * M"}}}
    )
    pts = sweep_points(cfg)
    assert [p.M for p in pts] == [50, 100]
    assert [p.N for p in pts] == [2000, 4000]
    assert all(p.sweep is None for p in pts)
    mixed = {"param": "M", "values": [50], "couple": {"N": "-(M // 8 - 2 ** 3) * 400 % 7000 + M / 2"}}
    assert sweep_points(config_from_dict({**BASE, "sweep": mixed}))[0].N == 825  # 800 + 25
    for expr in (
        "().__class__.__mro__[1].__subclasses__().__len__()",
        "__import__('os').getpid()",
        "len('ab') * M",
        "M if M else N",
        "x * M",
        "10 ** 10 ** 10",
    ):
        bad = {"param": "M", "values": [50], "couple": {"N": expr}}
        with pytest.raises(ValueError, match="coupling expression"):
            sweep_points(config_from_dict({**BASE, "sweep": bad}))


@pytest.mark.parametrize("expr, shown", [("1e308 * 10", "inf"), ("1e308 * 10 - 1e308 * 10", "nan")])
def test_non_finite_coupled_integer_names_its_key(expr, shown):
    bad = {"param": "M", "values": [50], "couple": {"N": expr}}
    with pytest.raises(ValueError, match=rf"^N must be an integer, got {shown}$"):
        sweep_points(config_from_dict({**BASE, "sweep": bad}))


@pytest.mark.parametrize(
    "regime,scheme,over",
    [
        ("gamma_lt1", "scenario1", {}),
        ("gamma_lt1", "scenario2", {"N": 20000, "M": 200, "rho_or_alpha1": 4.0}),
        ("gamma_gt1", "scenario1", {"gamma": 1.5, "M": 500, "q": 20.0}),
        ("gamma_gt1", "scenario2", {"gamma": 1.5, "M": 2000, "q": 100.0, "N": 20000,
                                    "rho_or_alpha1": 4.0, "S": 4}),
        ("zipf_gt1", "scenario1", {"gamma": 1.5, "q": 0.0, "M": 500, "rho_or_alpha1": 40.0}),
    ],
)
def test_point_inputs_share_one_occupancy(regime, scheme, over):
    cfg = config_from_dict({**BASE, "regime": regime, "scheme": scheme, **over})
    inputs = build_point_inputs(cfg)
    occupancy = REGIMES[regime].occupancy(cfg)
    assert inputs.occupancy == occupancy
    side = math.sqrt(occupancy / cfg.N)
    if scheme == "scenario2":
        eps = REGIMES[regime].epsilon(cfg)
        assert inputs.epsilon == eps
        solved = optimize_policy(inputs.model, cfg.S // 2, 2.0 * occupancy)
        solved2 = optimize_policy(inputs.model, cfg.S // 2, 2.0 * eps * occupancy)
        p1, p2 = inputs.policies
        assert np.array_equal(p1.probs, solved.probs) and np.array_equal(p2.probs, solved2.probs)
        closed = closed_form_outage(solved, inputs.model, 2.0 * occupancy)
        assert inputs.sides == (side, math.sqrt(eps) * side)
    else:
        solved = optimize_policy(inputs.model, cfg.S, occupancy)
        (policy,) = inputs.policies
        assert np.array_equal(policy.probs, solved.probs)
        # the simulated model: exactly N users on the trial's grid
        closed = finite_n_outage(solved, inputs.model, cfg.N, grid_from_target_side(side) ** 2)
        assert inputs.sides == (side,)
    assert inputs.closed_form == closed
    assert inputs.grid_sizes == tuple(grid_from_target_side(s) for s in inputs.sides)
    # the trial's grids are exactly these sizes
    result, _, _ = run_trial(cfg, inputs, 0)
    realized = tuple(s.cluster_side for s in result.slots if s.cluster_side is not None)
    assert realized == tuple(1.0 / k for k in inputs.grid_sizes)


@pytest.mark.parametrize(
    "over",
    [
        {"check_bounds": True},
        {"scheme": "scenario2", "N": 20000, "M": 200, "rho_or_alpha1": 4.0, "n_realizations": 5},
    ],
)
def test_run_point_is_numpy_over_its_trials(over):
    cfg = config_from_dict({**BASE, **over})
    point = run_point(cfg)
    trials = list(run_trials(cfg, build_point_inputs(cfg)))
    n = len(trials)
    outage = np.array([res.outage_fraction for res, _, _ in trials])
    net_mean = np.array([res.per_user_bits.mean() for res, _, _ in trials])
    bits = np.array([res.per_user_bits for res, _, _ in trials])
    c_gamma, slack = (np.array([trial[i] for trial in trials]) for i in (1, 2))

    est = point.estimate
    assert est.n_realizations == n == cfg.n_realizations
    assert est.p_o_hat == outage.mean()
    assert est.std_errors["p_o_hat"] == outage.std(ddof=1) / math.sqrt(n)
    assert est.mean_throughput == net_mean.mean()
    assert est.std_errors["mean_throughput"] == net_mean.std(ddof=1) / math.sqrt(n)
    u_min = int(np.argmin(bits.mean(axis=0)))
    assert est.T_min_avg == bits.mean(axis=0)[u_min]
    assert est.std_errors["T_min_avg"] == pytest.approx(
        bits[:, u_min].std(ddof=1) / math.sqrt(n), rel=1e-9
    )
    assert point.c_gamma_mean == c_gamma.mean()
    if cfg.check_bounds:
        assert point.bound_slack_min == slack.min() and np.all(np.isfinite(slack))
    else:
        assert math.isnan(point.bound_slack_min) and np.all(np.isnan(slack))
    # the point's sides are every trial's clustered sides
    for res, _, _ in trials:
        clustered = tuple(s.cluster_side for s in res.slots if s.cluster_side is not None)
        assert clustered == point.cluster_sides
    assert len(point.cluster_sides) == (2 if cfg.scheme == "scenario2" else 1)


def test_run_single_point_artifact(tmp_path):
    cfg = load_config(_write_cfg(tmp_path))
    artifact = run(cfg)
    assert len(artifact.points) == 1
    p = artifact.points[0]
    assert p.estimate is not None
    assert 0.0 <= p.estimate.p_o_hat <= 1.0
    assert p.estimate.T_min_avg >= 0.0
    assert artifact.fit is None  # no sweep, no fit
    written = write_artifact(artifact, cfg, tmp_path / "out", "both")
    assert (tmp_path / "out" / "results.csv").exists()
    assert (tmp_path / "out" / "results.json").exists()
    data = json.loads((tmp_path / "out" / "results.json").read_text())
    assert data["schema_version"] == 1
    header = (tmp_path / "out" / "results.csv").read_text().splitlines()[0]
    assert header == "point,T_min_avg,T_stderr,p_o_hat,p_o_stderr,C_gamma_mean,bound_slack_min"


def test_run_sweep_emits_fit(tmp_path):
    cfg = config_from_dict(
        {
            **BASE,
            "n_realizations": 3,
            "sweep": {"param": "M", "values": [40, 80, 160], "couple": {"N": "40 * M"}},
        }
    )
    artifact = run(cfg)
    assert len(artifact.points) == 3
    assert artifact.fit is not None
    fit = fit_loglog(
        [2 / p.params["M"] for p in artifact.points],
        [p.estimate.mean_throughput for p in artifact.points],
    )
    assert artifact.fit["x"] == "S/M"
    assert artifact.fit["slope"] == fit.slope
    assert artifact.predicted_exponent == 1.0  # scenario1, gamma<1
    header, rows = artifact_rows(artifact, cfg)
    assert header[:3] == ["point", "M", "N"]
    assert len(rows) == 3


def test_infeasible_point_recorded_not_fatal():
    cfg = config_from_dict({**BASE, "N": 400, "M": 2000, "rho_or_alpha1": 8.0})
    # rho*M/(S*N) > 1: cluster side infeasible
    artifact = run(cfg)
    p = artifact.points[0]
    assert p.estimate is None
    assert p.error is not None and "cluster side" in p.error


def test_failing_trial_recorded_not_fatal(tmp_path):
    # at M = 8 the split-cache draw gives up inside the trial; M = 64 draws fine
    raw = yaml.safe_load((CONFIGS / "scaling_lt1.yaml").read_text())
    raw.update(gamma=0.8, q=0.0, C_sec=0.5, n_realizations=1)
    raw["sweep"]["values"] = [8, 64]
    cfg = config_from_dict(raw)
    artifact = run(cfg)
    bad, good = artifact.points
    assert bad.estimate is None and "could not draw disjoint cache subspaces" in bad.error
    assert good.error is None and good.estimate == run_point(sweep_points(cfg)[1]).estimate
    # the failed point keeps its swept params and leaves its estimate cells empty
    write_artifact(artifact, cfg, tmp_path, "both")
    header, bad_row, _ = (tmp_path / "results.csv").read_text().splitlines()
    assert header.startswith("point,M,N,T_min_avg,") and bad_row == "0,8,400,,,,,,"
    bad_json, good_json = _strict_json((tmp_path / "results.json").read_text())["points"]
    assert "estimate" not in bad_json and bad_json["error"] == bad.error
    assert "estimate" in good_json and good_json["error"] is None


def test_rerun_and_thread_count_byte_identical(tmp_path):
    path = _write_cfg(tmp_path)
    outs = []
    for threads, name in ((1, "a"), (2, "b"), (1, "c")):
        cfg = dataclasses.replace(load_config(path), threads=threads)
        artifact = run(cfg)
        write_artifact(artifact, cfg, tmp_path / name, "both")
        outs.append(
            (
                (tmp_path / name / "results.csv").read_bytes(),
                (tmp_path / name / "results.json").read_bytes(),
            )
        )
    assert outs[0][0] == outs[1][0] == outs[2][0]
    # JSON echoes the thread count nowhere; artifacts must match bytewise
    assert outs[0][1] == outs[1][1] == outs[2][1]


def test_cli_simulate_and_analyze(tmp_path, capsys):
    path = _write_cfg(tmp_path)
    rc = main(["simulate", "--config", str(path), "--threads", "1", "--out", str(tmp_path / "sim")])
    assert rc == 0
    assert (tmp_path / "sim" / "results.csv").exists()
    assert json.loads((tmp_path / "sim" / "run_info.json").read_text())["threads"] == 1
    capsys.readouterr()
    # sweep of a config without a sweep section runs its single point, and says so
    main(["sweep", "--config", str(path), "--out", str(tmp_path / "sw")])
    assert capsys.readouterr().err == "config has no sweep section; running the single point\n"
    sim, sw = ((tmp_path / d / "results.csv").read_bytes() for d in ("sim", "sw"))
    assert sim == sw

    rc = main(["analyze", "--config", str(path), "--out", str(tmp_path / "an")])
    assert rc == 0
    data = json.loads((tmp_path / "an" / "analysis.json").read_text())
    assert "outage_closed_form" in data["points"][0]
    assert data["points"][0]["predicted_exponent"] == 1.0


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_cli_analyze_shipped_config(tmp_path, path):
    cfg = load_config(path)
    argv = ["analyze", "--config", str(path), "--out", str(tmp_path), "--format", "both"]
    assert main(argv) == 0
    data = json.loads((tmp_path / "analysis.json").read_text())
    assert len(data["points"]) == len(sweep_points(cfg))
    # slot 2 reports the exact Poisson outage of its own solved policy
    for point, entry in zip(sweep_points(cfg), data["points"]):
        if point.scheme == "scenario2":
            model = PopularityModel(M=point.M, gamma=point.gamma, q=point.q)
            g2 = 2.0 * entry["epsilon"] * entry["occupancy"]
            policy = optimize_policy(model, point.S // 2, g2)
            assert entry["slot2_outage_closed_form"] == closed_form_outage(policy, model, g2)
    # each CSV row is its JSON point: shortest round-trip floats, empty where missing
    header, *rows = (tmp_path / "analysis.csv").read_text().splitlines()
    keys = header.split(",")
    assert keys == sorted(keys)
    assert len(rows) == len(data["points"])
    for row, point in zip(rows, data["points"]):
        cells = dict(zip(keys, row.split(",")))
        assert len(row.split(",")) == len(keys) and set(point) <= set(keys)
        for key, cell in cells.items():
            value = point.get(key)
            if value is None:
                assert cell == ""
            else:
                assert cell == (repr(value) if isinstance(value, float) else str(value))


def test_cli_analyze_floor_at_realized_side(tmp_path):
    # the target side sqrt(75 / 2000) = 0.194 rounds to a 5 x 5 grid of side 0.2
    path = _write_cfg(tmp_path, n_realizations=1)
    main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")])
    main(["analyze", "--config", str(path), "--out", str(tmp_path / "an")])
    (point,) = json.loads((tmp_path / "sim" / "results.json").read_text())["points"]
    (entry,) = json.loads((tmp_path / "an" / "analysis.json").read_text())["points"]
    side = point["cluster_sides"][0]
    assert side != entry["cluster_side"]
    phy = load_config(path).phy
    assert entry["sinr_floor"] == sinr_floor(side, phy)
    assert entry["interference_bound"] == interference_upper_bound(side, phy)


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_cli_sweep_two_points_writes_strict_json(tmp_path):
    # a fit over two points has no slope standard error: it must be null, not NaN
    sweep = {"param": "M", "values": [40, 80], "couple": {"N": "40 * M"}}
    path = _write_cfg(tmp_path, n_realizations=2, sweep=sweep)
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "sw")])
    assert rc == 0
    data = _strict_json((tmp_path / "sw" / "results.json").read_text())
    assert data["fit"]["n_points"] == 2
    assert data["fit"]["slope_stderr"] is None
    # simulate of a sweep config runs only its base point, M = 50
    main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")])
    (point,) = _strict_json((tmp_path / "sim" / "results.json").read_text())["points"]
    assert point["params"]["M"] == 50 and point["params"]["N"] == 2000


def test_cli_sweep_at_one_abscissa_prints_no_slope(tmp_path, capsys):
    # a sweep along N at fixed M and S puts both points at S/M = 0.04
    path = _write_cfg(tmp_path, n_realizations=2, sweep={"param": "N", "values": [2000, 4000]})
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sw")]) == 0
    assert "fitted slope" not in capsys.readouterr().out
    data = _strict_json((tmp_path / "sw" / "results.json").read_text())
    assert data["fit"] is None
    assert [p["params"]["N"] for p in data["points"] if "estimate" in p] == [2000, 4000]


def test_cli_analyze_records_infeasible_point(tmp_path):
    # at N = 200 the cluster side sqrt(20 * 40 / 2 / 200) = 1.41 exceeds the network
    sweep = {"param": "N", "values": [200, 4000]}
    path = _write_cfg(tmp_path, M=40, rho_or_alpha1=20.0, sweep=sweep)
    rc = main(["analyze", "--config", str(path), "--out", str(tmp_path / "an")])
    assert rc == 0
    bad, good = _strict_json((tmp_path / "an" / "analysis.json").read_text())["points"]
    assert set(bad) == {"N", "M", "S", "gamma", "q", "rho_or_alpha1", "error"}
    assert bad["N"] == 200 and "cluster side" in bad["error"]
    assert good["N"] == 4000 and "error" not in good
    assert good["outage_closed_form"] > 0.0
    header, bad_row, good_row = (tmp_path / "an" / "analysis.csv").read_text().splitlines()
    keys = header.split(",")
    assert "error" not in keys
    cells = dict(zip(keys, bad_row.split(",")))
    assert cells["N"] == "200" and cells["M"] == "40"
    assert all(cells[k] == "" for k in keys if k not in bad)
    assert "" not in good_row.split(",")


def test_cli_seed_override_changes_results(tmp_path):
    path = _write_cfg(tmp_path)
    with pytest.raises(ValueError, match="base_seed"):
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "s0"), "--seed", "-1"])
    main(["simulate", "--config", str(path), "--out", str(tmp_path / "s1"), "--seed", "7"])
    main(["simulate", "--config", str(path), "--out", str(tmp_path / "s2"), "--seed", "8"])
    a = (tmp_path / "s1" / "results.csv").read_text()
    b = (tmp_path / "s2" / "results.csv").read_text()
    assert a != b


def test_zipf_regime_single_point():
    raw = {
        **BASE,
        "regime": "zipf_gt1",
        "gamma": 1.5,
        "q": 0.0,
        "M": 500,
        "N": 5000,
        "rho_or_alpha1": 200.0,  # alpha2': occupancy alpha2'/S per cluster
    }
    artifact = run(config_from_dict(raw))
    p = artifact.points[0]
    assert p.estimate is not None
    assert artifact.predicted_exponent == 0.0
    # q = 0: an M-sweep is fitted against S/M, never S/q
    sweep = {"param": "M", "values": [250, 500], "couple": {"N": "10 * M"}}
    artifact = run(config_from_dict({**raw, "n_realizations": 2, "sweep": sweep}))
    assert all(p.estimate is not None for p in artifact.points)
    assert artifact.fit is not None and artifact.fit["x"] == "S/M"


def test_cli_sweep_scenario2(tmp_path):
    sweep = {"param": "M", "values": [100, 200], "couple": {"N": "100 * M"}}
    path = _write_cfg(tmp_path, "s2.yaml", scheme="scenario2", N=20000, M=200,
                      rho_or_alpha1=4.0, q=10.0, n_realizations=2, sweep=sweep)
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "sw"), "--format", "csv"])
    assert rc == 0
    lines = (tmp_path / "sw" / "results.csv").read_text().splitlines()
    assert len(lines) == 3


def test_popularity_import_stays_light():
    # the package __init__ re-exports nothing, so one submodule loads alone
    code = (
        "import sys, d2dcache.popularity\n"
        "print(sorted({'yaml', 'd2dcache.config', 'd2dcache.schemes'} & set(sys.modules)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out == "[]\n"
