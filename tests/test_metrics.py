import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from d2dcache.config import ExperimentConfig
from d2dcache.metrics import (
    ThroughputAccumulator,
    ThroughputOutageEstimate,
    bound_constant,
    check_transport_bound,
    transport_capacity,
)
from d2dcache.phy import PhyConfig, path_gain
from d2dcache.runner import build_point_inputs, run_trials
from d2dcache.schemes import SchemeResult, SlotResult

PHY = PhyConfig()


def _slot(distance, rate, res=None, rx=None, airtime=1.0, bandwidth=PHY.B):
    """A link table of the given distances and rates; each link holds its own
    resource and reaches user i unless res and rx say otherwise."""
    distance = np.asarray(distance, dtype=np.float64)
    n = len(distance)
    zeros = np.zeros(n)
    return SlotResult(
        label="tdma",
        link_rx=np.arange(n) if rx is None else rx,
        link_distance=distance,
        link_rate=np.asarray(rate, dtype=np.float64),
        link_sinr=zeros,
        link_res=np.arange(n) if res is None else np.asarray(res),
        link_interference=zeros,
        airtime=airtime,
        bandwidth=bandwidth,
        cluster_side=None,
    )


def _synthetic_result(bits, served, airtime=1.0):
    """One slot whose links reach the served users at rates `bits` for an
    airtime share of the epoch; the other users get nothing."""
    rx = np.flatnonzero(np.asarray(served, dtype=bool))
    slot = _slot(np.zeros(len(rx)), np.asarray(bits, dtype=np.float64)[rx], rx=rx, airtime=airtime)
    return SchemeResult(n_users=len(served), slots=[slot])


def _third(R0):
    return PHY.B * math.log2(math.e) / R0 * bound_constant(PHY.alpha)


def estimate(results):
    acc = ThroughputAccumulator()
    for r in results:
        acc.add(r, transport_capacity(r), math.nan)
    return acc.finish()[0]


def test_estimate_single_uniform_realization():
    res = _synthetic_result([5.0, 5.0, 5.0], [True] * 3, airtime=0.5)
    est = estimate([res])
    assert est.T_min_avg == pytest.approx(2.5)
    assert est.p_o_hat == 0.0
    assert est.n_realizations == 1


def test_single_trial_has_zero_variances():
    acc = ThroughputAccumulator()
    acc.add(_synthetic_result([4.0, 1.0, 0.0], [True, True, False]), 2.0, math.nan)
    assert acc.per_index_vars.tolist() == [0.0, 0.0, 0.0]
    est = acc.finish()[0]
    assert est.std_errors == {"T_min_avg": 0.0, "p_o_hat": 0.0, "mean_throughput": 0.0}


def test_estimate_all_outage():
    res = _synthetic_result([0.0, 0.0], [False, False])
    est = estimate([res])
    assert est.T_min_avg == 0.0
    assert est.p_o_hat == 1.0


def test_estimate_empty_errors():
    with pytest.raises(ValueError):
        estimate([])


def test_estimate_validation():
    acc = ThroughputAccumulator()
    acc.add(_synthetic_result([1.0], [True]), 0.0, math.nan)
    for bad in (
        lambda: ThroughputOutageEstimate(1.0, 1.5, 1, {}, 1.0),
        lambda: ThroughputOutageEstimate(-1.0, 0.5, 1, {}, 1.0),
        lambda: acc.add(_synthetic_result([1.0, 1.0], [True, True]), 0.0, math.nan),
    ):
        with pytest.raises(ValueError):
            bad()


def test_estimate_permutation_invariant():
    rng = np.random.Generator(np.random.PCG64(5))
    results = [
        _synthetic_result(rng.random(10), rng.random(10) > 0.2) for _ in range(8)
    ]
    a = estimate(results)
    b = estimate(list(reversed(results)))
    assert a.T_min_avg == pytest.approx(b.T_min_avg, rel=1e-12)
    assert a.p_o_hat == pytest.approx(b.p_o_hat, rel=1e-12)


def test_estimate_index_symmetry():
    # iid per-user draws: index means stay within sampling noise of the mean
    rng = np.random.Generator(np.random.PCG64(11))
    acc = ThroughputAccumulator()
    for _ in range(400):
        acc.add(_synthetic_result(rng.exponential(1.0, 50), np.ones(50, dtype=bool)), 0.0, math.nan)
    means = acc.per_index_means
    noise = math.sqrt(float(acc.per_index_vars.mean()) / acc.n_real)
    assert float(means.std()) <= 3.0 * noise


def test_transport_capacity_values():
    one = SchemeResult(1, [_slot([0.1], [100.0])])
    assert transport_capacity(one) == pytest.approx(10.0)
    # a link's airtime share of the epoch scales its average rate
    quarter = SchemeResult(1, [_slot([0.1], [100.0], airtime=0.25)])
    assert transport_capacity(quarter) == pytest.approx(2.5)
    assert transport_capacity(_synthetic_result([], [])) == 0.0
    assert transport_capacity(SchemeResult(0, [])) == 0.0
    rng = np.random.Generator(np.random.PCG64(0))
    d, c = rng.random(30), rng.random(30)
    perm = rng.permutation(30)
    assert transport_capacity(SchemeResult(30, [_slot(d, c)])) == pytest.approx(
        transport_capacity(SchemeResult(30, [_slot(d[perm], c[perm])])), rel=1e-12
    )


def test_bound_trivial_empty_schedule():
    slack = check_transport_bound(_synthetic_result([], []), PHY, R0=0.02)
    assert slack == pytest.approx(_third(0.02))


def test_bound_single_full_band_link():
    # one max-power pair alone in the band: LHS sits entirely in the C_W term;
    # a large R0 keeps the third term small enough to see that
    r = 0.05
    snr = PHY.Pmax * path_gain(r, PHY) / (PHY.N0 * PHY.B)
    res = SchemeResult(1, [_slot([r], [PHY.B * math.log2(1.0 + snr)])])
    assert transport_capacity(res) > 0.01
    slack = check_transport_bound(res, PHY, R0=1e4)
    assert slack == pytest.approx(_third(1e4), rel=1e-12)


def test_bound_short_link_term():
    """On one clustered resource, the representative enters through its
    noise-only transport, the link shorter than R0 through its own transport,
    and the link longer than R0 not at all."""
    airtime, bw, R0 = 0.125, PHY.B / 4, 0.02
    d = np.array([0.05, 0.01, 0.03])
    rates = np.array([0.5, 2.0, 0.7])
    slot = _slot(d, rates, res=[3, 3, 3], airtime=airtime, bandwidth=bw)
    res = SchemeResult(3, [slot])
    snr_alone = PHY.Pmax * path_gain(0.05, PHY) / (PHY.N0 * bw)
    cw = 0.05 * bw * math.log2(1.0 + snr_alone) * airtime
    cr0 = 0.01 * 2.0 * airtime
    expected = cw + cr0 - transport_capacity(res)
    assert abs(expected) > 1e-3
    slack = check_transport_bound(res, PHY, R0)
    assert slack - _third(R0) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("scheme", ["scenario1", "scenario2"])
def test_bound_holds_on_simulated_schedules(scheme):
    cfg = ExperimentConfig(
        scheme=scheme, regime="gamma_lt1", N=5000, M=100, S=2, gamma=0.6, q=10.0,
        rho_or_alpha1=4.0, n_realizations=20, base_seed=7100, check_bounds=True, threads=2,
    )
    for trial, (res, c_gamma, slack) in enumerate(run_trials(cfg, build_point_inputs(cfg))):
        assert len(res.slots) == 2 and all(len(s.link_rx) for s in res.slots)
        assert slack >= 0, f"trial {trial}: C_gamma={c_gamma} slack={slack}"


def test_bound_argument_validation():
    for R0 in (0.0, -0.02, math.nan):
        with pytest.raises(ValueError, match=f"R0 must be positive, got {R0}"):
            check_transport_bound(_synthetic_result([], []), PHY, R0)


def test_reductions_do_not_depend_on_blas_threads():
    """C_gamma and the closed-form outage are bit-equal under 1 and 2 BLAS
    threads, so artifacts do not depend on the machine's core count."""
    code = (
        "import numpy as np; from types import SimpleNamespace as NS\n"
        "from d2dcache.caching import closed_form_outage\n"
        "from d2dcache.metrics import transport_capacity\n"
        "from d2dcache.schemes import SchemeResult, SlotResult\n"
        "a, b = np.random.Generator(np.random.PCG64(1)).random((2, 2_000_000))\n"
        "d, r, z, ids = a[:200_000], b[:200_000], np.zeros(200_000), np.arange(200_000)\n"
        "slot = SlotResult('tdma', ids, d, r, z, ids, z, 1.0, 1.0, None)\n"
        "print(repr(transport_capacity(SchemeResult(200_000, [slot]))))\n"
        "print(repr(closed_form_outage(NS(M=a.size, probs=a), NS(M=a.size, pmf_table=b), 3.0)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": n},
        ).stdout
        for n in ("1", "2")
    }
    assert len(outs) == 1, outs
