import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from d2dcache.config import DEFAULT_PHY, ExperimentConfig
from d2dcache.geometry import build_realization
from d2dcache.metrics import ThroughputAccumulator, check_transport_bound, transport_capacity
from d2dcache.phy import PhyConfig, path_gain
from d2dcache.runner import build_point_inputs
from d2dcache.schemes import SchemeResult, SlotResult, run_scenario1, run_scenario2

PHY = PhyConfig(**DEFAULT_PHY)


def _synthetic_result(bits, served, T_prime=1.0):
    """One slot of unit airtime whose links reach the served users at rates
    `bits`; the other users get nothing."""
    rx = np.flatnonzero(np.asarray(served, dtype=bool))
    zeros = np.zeros(len(rx))
    slot = SlotResult(
        label="tdma",
        link_rx=rx,
        link_distance=zeros,
        link_rate=np.asarray(bits, dtype=np.float64)[rx],
        link_sinr=zeros,
        link_res=np.arange(len(rx)),
        link_interference=zeros,
        airtime=1.0,
        bandwidth=PHY.B,
        cluster_side=None,
    )
    return SchemeResult(n_users=len(served), slots=[slot], T_prime=T_prime)


def estimate(results, T_prime):
    acc = ThroughputAccumulator(T_prime=T_prime)
    for r in results:
        acc.add(r)
    return acc.finish()


def test_estimate_single_uniform_realization():
    res = _synthetic_result([5.0, 5.0, 5.0], [True] * 3, T_prime=2.0)
    est = estimate([res], T_prime=2.0)
    assert est.T_min_avg == pytest.approx(2.5)
    assert est.p_o_hat == 0.0
    assert est.n_realizations == 1


def test_estimate_all_outage():
    res = _synthetic_result([0.0, 0.0], [False, False])
    est = estimate([res], T_prime=1.0)
    assert est.T_min_avg == 0.0
    assert est.p_o_hat == 1.0


def test_estimate_empty_errors():
    with pytest.raises(ValueError):
        estimate([], T_prime=1.0)


def test_estimate_permutation_invariant():
    rng = np.random.Generator(np.random.PCG64(5))
    results = [
        _synthetic_result(rng.random(10), rng.random(10) > 0.2) for _ in range(8)
    ]
    a = estimate(results, 1.0)
    b = estimate(list(reversed(results)), 1.0)
    assert a.T_min_avg == pytest.approx(b.T_min_avg, rel=1e-12)
    assert a.p_o_hat == pytest.approx(b.p_o_hat, rel=1e-12)


def test_estimate_index_symmetry():
    # iid per-user draws: index means stay within sampling noise of the mean
    rng = np.random.Generator(np.random.PCG64(11))
    acc = ThroughputAccumulator(T_prime=1.0)
    for _ in range(400):
        acc.add(_synthetic_result(rng.exponential(1.0, 50), np.ones(50, dtype=bool)))
    means = acc.per_index_means
    noise = math.sqrt(float(acc.per_index_vars.mean()) / acc.n_real)
    assert float(means.std()) <= 3.0 * noise


def test_transport_capacity_values():
    assert transport_capacity([0.1], [100.0]) == pytest.approx(10.0)
    assert transport_capacity([], []) == 0.0
    rng = np.random.Generator(np.random.PCG64(0))
    d, c = rng.random(30), rng.random(30)
    perm = rng.permutation(30)
    assert transport_capacity(d, c) == pytest.approx(
        transport_capacity(d[perm], c[perm]), rel=1e-12
    )
    with pytest.raises(ValueError):
        transport_capacity([-0.1], [1.0])


def test_bound_trivial_empty_schedule():
    check = check_transport_bound(_synthetic_result([], []), PHY, R0=0.02, eps0=0.1)
    assert check.holds
    assert check.lhs == 0.0
    assert check.slack == pytest.approx(check.terms["third"])


def test_bound_single_full_band_link():
    # one max-power pair alone in the band: LHS sits entirely in the C_W term
    r, gain = 0.05, path_gain(0.05, PHY)
    snr = PHY.Pmax * gain / (PHY.N0 * PHY.B)
    slot = SlotResult(
        label="tdma",
        link_rx=np.array([0]),
        link_distance=np.array([r]),
        link_rate=np.array([PHY.B * math.log2(1.0 + snr)]),
        link_sinr=np.array([snr]),
        link_res=np.array([0]),
        link_interference=np.zeros(1),
        airtime=1.0,
        bandwidth=PHY.B,
        cluster_side=None,
    )
    res = SchemeResult(n_users=1, slots=[slot], T_prime=1.0)
    check = check_transport_bound(res, PHY, R0=0.02, eps0=0.1)
    assert check.holds
    assert check.lhs == pytest.approx(check.terms["C_W"], rel=1e-12)
    assert check.slack == pytest.approx(check.terms["third"], rel=1e-12)


@pytest.mark.parametrize("scheme", ["scenario1", "scenario2"])
def test_bound_holds_on_simulated_schedules(scheme):
    S, N, rho = 2, 5000, 4.0
    inputs = build_point_inputs(ExperimentConfig(
        scheme=scheme, regime="gamma_lt1", N=N, M=100, S=S, gamma=0.6, q=10.0,
        rho_or_alpha1=rho, n_realizations=1, base_seed=0,
    ))
    run_scheme = run_scenario2 if scheme == "scenario2" else run_scenario1
    r0 = 0.1 * math.sqrt(rho * 100 / (S * N))
    for seed in range(20):
        realization = build_realization(inputs.model, inputs.policy, N, 7100 + seed)
        res = run_scheme(realization, *inputs.sides, PHY, 1.0)
        assert len(res.slots) == 2 and all(s.n_links for s in res.slots)
        check = check_transport_bound(res, PHY, r0, 0.1)
        assert check.holds, f"seed {seed}: lhs={check.lhs} rhs={check.rhs}"
        assert check.lhs == pytest.approx(transport_capacity(*res.transport_links()), rel=1e-9)


def test_bound_argument_validation():
    with pytest.raises(ValueError):
        check_transport_bound(_synthetic_result([], []), PHY, R0=0.0, eps0=0.1)


def test_reductions_do_not_depend_on_blas_threads():
    """C_gamma and the closed-form outage are bit-equal under 1 and 2 BLAS
    threads, so artifacts do not depend on the machine's core count."""
    code = (
        "import numpy as np; from types import SimpleNamespace as NS\n"
        "from d2dcache.caching import closed_form_outage\n"
        "from d2dcache.metrics import transport_capacity\n"
        "a, b = np.random.Generator(np.random.PCG64(1)).random((2, 2_000_000))\n"
        "print(repr(transport_capacity(a[:200_000], b[:200_000])))\n"
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
