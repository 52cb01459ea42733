import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dcache.caching import build_split_policy, closed_form_outage, optimize_policy
from d2dcache.config import ExperimentConfig
from d2dcache.geometry import (
    ClusterGrid,
    NetworkRealization,
    PairingOutcome,
    build_grid,
    build_realization,
    pair_within_clusters,
)
from d2dcache.phy import PhyConfig, path_gain
from d2dcache.popularity import PopularityModel
from d2dcache.regimes import REGIMES
from d2dcache.runner import build_point_inputs, run_trials
from d2dcache.schemes import SchemeResult, _clustered_bits, run_scenario1, run_scenario2
from d2dcache.validate import _MINI, check_outage_closed_form, check_sinr_floor, cluster_ratios
from link_oracle import all_pairs_interference, link_rate, ordered_pairs_within_groups

PHY = PhyConfig()


def _config(**over):
    base = dict(scheme="scenario1", regime="gamma_lt1", N=10_000, M=100, S=2, gamma=0.6,
                q=5.0, rho_or_alpha1=1.0, n_realizations=1, base_seed=0)
    return ExperimentConfig(**{**base, **over})


def test_cluster_side_values():
    assert build_point_inputs(_config(S=4)).sides == (pytest.approx(0.05),)
    assert build_point_inputs(_config(S=4)).grid_sizes == (20,)
    gt1 = _config(regime="gamma_gt1", gamma=1.5, M=1000, q=50.0, N=100_000, rho_or_alpha1=2.0)
    assert build_point_inputs(gt1).sides == (pytest.approx(math.sqrt(100.0 / 200_000.0)),)
    # doubling M at fixed N, S, rho scales d by sqrt(2)
    assert build_point_inputs(_config(S=4, M=200)).sides == (
        pytest.approx(0.05 * math.sqrt(2.0)),
    )
    with pytest.raises(ValueError, match="cluster side"):
        build_point_inputs(_config(S=1, N=50))  # side > 1


def test_tune_epsilon_values():
    # rho_or_alpha1 = 1, so epsilon is the shrink product itself
    lt1, gt1 = REGIMES["gamma_lt1"], REGIMES["gamma_gt1"]
    prod = lt1.epsilon(_config(M=400, q=10.0, S=4, C_sec=1.0))
    assert prod == pytest.approx((4 / 400) ** (1 / 1.4), rel=1e-12)
    assert prod == pytest.approx(0.03728, rel=1e-3)
    cfg = _config(regime="gamma_gt1", gamma=1.5, M=4000, q=400.0, S=4, C_sec=1.0)
    assert gt1.epsilon(cfg) == pytest.approx(0.1)
    assert gt1.epsilon(replace(cfg, C_sec=2.0)) == pytest.approx(0.2)
    zipf = _config(regime="zipf_gt1", gamma=1.5, M=4000, q=400.0, S=4)
    with pytest.raises(ValueError):
        REGIMES["zipf_gt1"].epsilon(zipf)
    with pytest.raises(ValueError, match="scenario2"):
        replace(zipf, scheme="scenario2")


def test_derive_epsilon_regime_error():
    cfg = _config(scheme="scenario2", M=8, q=0.0, S=4, N=100, rho_or_alpha1=0.05, C_sec=4.0)
    with pytest.raises(ValueError, match="exceeds 1"):
        build_point_inputs(cfg)


def test_full_cache_never_outages():
    m = PopularityModel(M=4, gamma=0.7, q=0.0)
    policy = optimize_policy(m, 4, 10.0)
    realization = build_realization(m, (policy,), 500, 1)
    res = run_scenario1(realization, 16, PHY)
    assert res.outage_fraction == 0.0
    assert np.all(res.per_user_bits > 0)


def test_single_user_tdma_degenerate():
    m = PopularityModel(M=1, gamma=0.5, q=0.0)
    policy = optimize_policy(m, 1, 1.0)
    realization = build_realization(m, (policy,), 1, 0)
    res = run_scenario1(realization, 1, PHY)
    tdma = res.slot("tdma")
    # the lone user self-serves, full band, half the epoch, capped gain
    snr = PHY.Pmax * PHY.gain_cap / (PHY.B * PHY.N0)
    assert tdma.link_rx.tolist() == [0]
    assert tdma.link_rate[0] * tdma.airtime == pytest.approx(
        PHY.B * math.log2(1 + snr) * 0.5, rel=1e-12
    )
    assert tdma.airtime == pytest.approx(0.5)
    with pytest.raises(KeyError, match="cluster2"):
        res.slot("cluster2")


def test_scenario1_outage_matches_closed_form_small():
    # the runner's scenario-1 closed form is the outage of exactly N users on
    # the trial's grid, self-service included; it lies below the Poisson form
    cfg = replace(_MINI, n_realizations=300, base_seed=600)
    inputs = build_point_inputs(cfg)
    assert inputs.closed_form < closed_form_outage(*inputs.policies, inputs.model, inputs.occupancy)
    fracs = [res.outage_fraction for res, _, _ in run_trials(cfg, inputs)]
    assert check_outage_closed_form(fracs, inputs.closed_form, cfg.base_seed).passed


def test_scenario1_equal_service_per_cycle():
    # each served user is activated exactly once per slot
    m = PopularityModel(M=50, gamma=0.7, q=5.0)
    policy = optimize_policy(m, 2, 50.0)
    realization = build_realization(m, (policy,), 2000, 8)
    res = run_scenario1(realization, 6, PHY)
    for label in ("tdma", "cluster"):
        rx = res.slot(label).link_rx
        assert len(np.unique(rx)) == len(rx)
    # airtime equalization: per-activation share times max rounds fills half the epoch
    slot = res.slot("cluster")
    rx_counts = np.bincount(res.slot("cluster").link_rx, minlength=2000)
    assert rx_counts.max() == 1
    assert slot.airtime > 0


def test_scenario1_deterministic():
    m = PopularityModel(M=30, gamma=0.8, q=2.0)
    policy = optimize_policy(m, 2, 30.0)
    a = run_scenario1(build_realization(m, (policy,), 1000, 5), 6, PHY)
    b = run_scenario1(build_realization(m, (policy,), 1000, 5), 6, PHY)
    assert np.array_equal(a.per_user_bits, b.per_user_bits)


@pytest.fixture(scope="module")
def mini_cluster_ratios():
    """cluster_ratios of 120 runner trials of validate's mini network at base seed 300."""
    cfg = replace(_MINI, n_realizations=120, base_seed=300)
    ratios = [cluster_ratios(res, PHY) for res, _, _ in run_trials(cfg, build_point_inputs(cfg))]
    return cfg, ratios


def test_scenario1_sinr_floor_holds(mini_cluster_ratios):
    # every trial's cluster slot stays above the SINR floor and below the ring
    # interference bound
    cfg, ratios = mini_cluster_ratios
    report = check_sinr_floor(ratios, cfg.base_seed)
    assert report.passed and report.n_checks == 120, report.detail


def test_interference_below_closed_form_bound(mini_cluster_ratios):
    # max interference / ring bound in each trial's cluster slot
    _, ratios = mini_cluster_ratios
    i_ratios = np.array([r[1] for r in ratios])
    assert len(i_ratios) == 120
    assert np.all(i_ratios <= 1.0), i_ratios.max()


def _scenario2_setup(N=20_000, seed=17):
    cfg = _config(scheme="scenario2", N=N, M=400, q=20.0, S=2, rho_or_alpha1=4.0, C_sec=4.0)
    inputs = build_point_inputs(cfg)
    return inputs, build_realization(inputs.model, inputs.policies, N, seed)


def test_scenario2_requires_split_caches():
    m = PopularityModel(M=50, gamma=0.6, q=2.0)
    policy = optimize_policy(m, 2, 50.0)
    realization = build_realization(m, (policy,), 500, 0)
    with pytest.raises(ValueError):
        run_scenario2(realization, 3, 3, PHY)


def test_scenario2_identical_construction_when_eps_one():
    # eps = 1 with gc1 = gc2 runs the same machinery twice; per-slot outputs
    # are two draws of the same construction
    m = PopularityModel(M=400, gamma=0.6, q=20.0)
    S, rho, N = 2, 4.0, 20_000
    g_c = rho * m.M / S
    split = build_split_policy(m, S, 2 * g_c, 2 * g_c)
    assert np.array_equal(split[0].probs, split[1].probs)
    realization = build_realization(m, split, N, 23)
    res = run_scenario2(realization, 5, 5, PHY)
    s1, s2 = res.slot("cluster1"), res.slot("cluster2")
    assert s1.cluster_side == s2.cluster_side
    assert len(s1.link_rx) == pytest.approx(len(s2.link_rx), rel=0.05)
    bits1, bits2 = (np.sum(s.link_rate * s.airtime) for s in (s1, s2))
    assert bits1 == pytest.approx(bits2, rel=0.10)


def test_scenario2_slot2_links_shorter():
    inputs, realization = _scenario2_setup()
    res = run_scenario2(realization, *inputs.grid_sizes, PHY)
    assert res.slot("cluster2").link_distance.mean() < res.slot("cluster1").link_distance.mean()
    d1, d2 = (res.slot(label).cluster_side for label in ("cluster1", "cluster2"))
    assert d2 < d1
    assert res.slot("cluster2").link_distance.max() <= math.sqrt(2) * d2 + 1e-12


def test_scenario2_slot2_rate_and_total_advantage():
    # paired comparison on shared seeds: the short-link slot carries a higher
    # per-link rate and the double-slot scheme beats the single-cache scheme
    cfg = _config(N=50_000, M=400, q=10.0, S=4, rho_or_alpha1=4.0, C_sec=4.0,
                  n_realizations=5, base_seed=900, threads=2)
    cfg2 = replace(cfg, scheme="scenario2")
    res1 = [res for res, _, _ in run_trials(cfg, build_point_inputs(cfg))]
    res2 = [res for res, _, _ in run_trials(cfg2, build_point_inputs(cfg2))]
    rate1, rate2 = ([r.slot(f"cluster{i}").link_rate.mean() for r in res2] for i in (1, 2))
    assert np.mean(rate2) > np.mean(rate1)
    bits1, bits2 = ([r.per_user_bits.mean() for r in res] for res in (res1, res2))
    assert np.mean(bits2) > np.mean(bits1)


def test_scenario2_outage_only_when_both_slots_miss():
    # a user is served iff the pairing of either slot's grid and cache block
    # reaches it, and exactly the served users carry bits
    inputs, realization = _scenario2_setup(N=10_000, seed=31)
    res = run_scenario2(realization, *inputs.grid_sizes, PHY)
    reached = np.zeros(realization.n_users, dtype=bool)
    for k, caches in zip(inputs.grid_sizes, realization.caches):
        grid = build_grid(k, realization.positions)
        reached[pair_within_clusters(realization, grid, caches).rx] = True
    assert 0 < reached.sum() < realization.n_users
    assert np.array_equal(res.per_user_served, reached)
    assert np.array_equal(res.per_user_bits > 0, reached)


@settings(max_examples=30, deadline=None)
@given(
    scheme=st.sampled_from(["scenario1", "scenario2"]),
    N=st.integers(800, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_user_bits_sum_the_slots_that_serve_each_user(scheme, N, seed):
    # every user is the rx of at most one link per slot, and its bits add, slot
    # by slot, rate x airtime of each link that reaches it
    cfg = _config(scheme=scheme, N=N, M=400, q=20.0, S=2, rho_or_alpha1=4.0, C_sec=4.0)
    inputs = build_point_inputs(cfg)
    realization = build_realization(inputs.model, inputs.policies, N, seed)
    run = run_scenario2 if scheme == "scenario2" else run_scenario1
    res = run(realization, *inputs.grid_sizes, PHY)
    for slot in res.slots:
        assert len(np.unique(slot.link_rx)) == len(slot.link_rx)
    bits, served = res.per_user_bits, res.per_user_served
    for u in range(N):
        links = [(s, np.flatnonzero(s.link_rx == u)) for s in res.slots]
        shares = [float(s.link_rate[row[0]] * s.airtime) for s, row in links if len(row)]
        assert bits[u] == sum(shares)
        assert served[u] == bool(shares)


def test_scenario2_sinr_floor_both_slots():
    # each clustered slot of the first points of both scaling sweeps stays
    # above the SINR floor and below the ring interference bound, each at
    # its own realized side
    for cfg in (
        _config(scheme="scenario2", regime="gamma_lt1", N=12_800, M=256, q=10.0, S=4,
                rho_or_alpha1=4.0, C_sec=4.0, n_realizations=4, base_seed=31_000),
        _config(scheme="scenario2", regime="gamma_gt1", N=12_800, M=3200, q=64.0, S=4,
                gamma=1.5, rho_or_alpha1=4.0, C_sec=4.0, n_realizations=4, base_seed=32_000),
    ):
        results = [res for res, _, _ in run_trials(cfg, build_point_inputs(cfg))]
        for label in ("cluster1", "cluster2"):
            ratios = [cluster_ratios(res, cfg.phy, label) for res in results]
            report = check_sinr_floor(ratios, cfg.base_seed)
            assert report.passed and report.n_checks == 4, (cfg.regime, label, report.detail)


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(2, 300),
    M=st.integers(1, 30),
    S=st.integers(1, 4),
    k=st.integers(1, 9),
    K=st.integers(1, 2),
    chi=st.sampled_from([1e-11, 1e-8, 1e-4]),
    ceiling=st.sampled_from([None, 30.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_clustered_rates_match_scalar_oracle(N, M, S, k, K, chi, ceiling, seed):
    # every (round, color) resource of a clustered slot, rebuilt as its list of
    # (tx, rx) pairs: each link's rate is the scalar SINR rate among its companions
    phy = PhyConfig(K=K, chi=chi, sinr_ceiling=ceiling)
    m = PopularityModel(M=M, gamma=0.6, q=1.0)
    S = min(S, M)
    realization = build_realization(m, (optimize_policy(m, S, N / k**2),), N, seed)
    grid = build_grid(k, realization.positions)
    pairing = pair_within_clusters(realization, grid, realization.caches[0])
    slot = _clustered_bits(realization, pairing, grid, phy, "cluster")
    tx_of = dict(zip(pairing.rx.tolist(), pairing.tx.tolist()))  # each rx once per slot
    assert len(tx_of) == len(slot.link_rx)
    for key in np.unique(slot.link_res):
        rows = np.flatnonzero(slot.link_res == key)
        pairs = [(tx_of[rx], rx) for rx in slot.link_rx[rows].tolist()]
        for pair, row in zip(pairs, rows):
            expect = link_rate(pair, pairs, realization.positions, phy, slot.bandwidth)
            assert slot.link_rate[row] == pytest.approx(expect, rel=1e-9)


def _synthetic_slot(counts, k, seed, n_self=0):
    """A k x k grid with counts[c] links in cell c, delivered as one clustered
    slot. Receiver i and transmitter L + i of link i lie uniformly in its cell;
    the cells are shuffled over the links, so rx order is not cell order.
    Links 0 .. n_self - 1 are self-served instead: their tx is their rx."""
    rng = np.random.default_rng(seed)
    cell = rng.permutation(np.repeat(np.arange(k * k), counts))
    L = len(cell)

    def in_cell():
        return np.column_stack(((cell // k + rng.random(L)) / k, (cell % k + rng.random(L)) / k))

    rx_pos, tx_pos = in_cell(), in_cell()
    users = np.concatenate([cell, cell])
    realization = NetworkRealization(
        positions=np.concatenate([rx_pos, tx_pos]),
        requests=np.ones(2 * L, dtype=np.int64),
        caches=(np.ones((2 * L, 1), dtype=np.int64),),
    )
    tx = np.arange(L, 2 * L)
    tx[:n_self] = np.arange(n_self)
    distance = np.hypot(*(tx_pos - rx_pos).T)
    distance[:n_self] = 0.0
    pairing = PairingOutcome(tx=tx, rx=np.arange(L), distance=distance)
    grid = ClusterGrid(k=k, cell_id=users)
    return realization, _clustered_bits(realization, pairing, grid, PHY, "cluster")


def test_clustered_slot_without_links_is_empty():
    # every user requests file 2 and caches file 1: no cell holds a link
    positions = np.array([[0.1, 0.1], [0.3, 0.2], [0.8, 0.9]])
    realization = NetworkRealization(
        positions=positions, requests=np.full(3, 2), caches=(np.ones((3, 1), dtype=np.int64),)
    )
    grid = build_grid(2, positions)
    pairing = pair_within_clusters(realization, grid, realization.caches[0])
    assert pairing.n_links == 0
    slot = _clustered_bits(realization, pairing, grid, PHY, "cluster")
    assert (slot.label, slot.airtime, slot.cluster_side) == ("cluster", 0.0, 0.5)
    assert slot.bandwidth == PHY.subchannel_bandwidth and math.isfinite(slot.bandwidth)
    for column in (slot.link_rx, slot.link_distance, slot.link_rate, slot.link_sinr,
                   slot.link_res, slot.link_interference):
        assert column.shape == (0,)
    result = SchemeResult(3, [slot])
    assert result.per_user_bits.tolist() == [0.0, 0.0, 0.0] and result.outage_fraction == 1.0


def _group_sizes(slot):
    return np.diff(np.flatnonzero(np.diff(slot.link_res, prepend=-1, append=-1)))


def _cell_counts(pattern, k, c, seed):
    """Links per cell of a k x k grid (k a multiple of 4, so each of the 16
    colours of K = 1 has (k/4)^2 cells)."""
    rng = np.random.default_rng(seed)
    cx, cy = np.divmod(np.arange(k * k), k)
    first = (cx < 4) & (cy < 4)  # one cell of every colour
    if pattern == "random":
        return rng.integers(0, c + 2, k * k)
    if pattern == "equal":
        return np.full(k * k, c)
    if pattern == "singles":
        return np.where(first, rng.integers(1, c + 2, k * k), 0)
    # dominant: colour 0 fills all of its cells once, the others one cell each
    return np.where((cx % 4 == 0) & (cy % 4 == 0), 1, np.where(first, c, 0))


SLOT_PATTERNS = dict(
    pattern=st.sampled_from(["random", "equal", "singles", "dominant"]),
    k=st.sampled_from([4, 8, 12, 20]),
    c=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=40, deadline=None)
@given(**SLOT_PATTERNS)
def test_interference_equals_all_pairs_reference(pattern, k, c, seed):
    # the pass-wise sums are bit-equal to the all-pairs bincount
    realization, slot = _synthetic_slot(_cell_counts(pattern, k, c, seed), k, seed)
    sizes = _group_sizes(slot)
    if pattern == "singles":
        assert sizes.max() == 1
    if pattern == "equal":
        assert len(set(sizes.tolist())) == 1
    if pattern == "dominant":
        assert sizes.max() == (k // 4) ** 2 and (k == 4 or sorted(sizes)[-2] <= 2)
    pos = realization.positions
    tx = slot.link_rx + len(slot.link_rx)
    expect = all_pairs_interference(pos[tx], pos[slot.link_rx], sizes, PHY)
    assert np.array_equal(slot.link_interference, expect)


@settings(max_examples=40, deadline=None)
@given(**SLOT_PATTERNS)
def test_interference_within_rtol_of_hypot_reference(pattern, k, c, seed):
    # the distance is sqrt(dx*dx + dy*dy), not np.hypot; this bounds what
    # that convention moves in every link's interference
    realization, slot = _synthetic_slot(_cell_counts(pattern, k, c, seed), k, seed)
    pos = realization.positions
    vic, intf = ordered_pairs_within_groups(_group_sizes(slot))
    tx_pos, rx_pos = pos[slot.link_rx + len(slot.link_rx)], pos[slot.link_rx]
    d = np.hypot(*(tx_pos[intf] - rx_pos[vic]).T)
    expect = np.bincount(vic, weights=PHY.Pmax * path_gain(d, PHY), minlength=len(slot.link_rx))
    np.testing.assert_allclose(slot.link_interference, expect, rtol=1e-14, atol=0.0)


def test_self_served_links_in_cochannel_groups():
    # a user that caches its own request is its own tx at distance 0; the
    # pass of that link's index evaluates its own row at d = 0, then zeroes it
    k, n_self = 8, 6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        realization, slot = _synthetic_slot(_cell_counts("equal", k, 2, 7), k, 7, n_self)
    sizes = _group_sizes(slot)
    assert sizes.min() == 4
    assert np.count_nonzero(slot.link_distance == 0.0) == n_self
    tx = np.where(slot.link_rx < n_self, slot.link_rx, slot.link_rx + len(slot.link_rx))
    pos = realization.positions
    expect = all_pairs_interference(pos[tx], pos[slot.link_rx], sizes, PHY)
    assert np.isfinite(slot.link_interference).all()
    assert np.array_equal(slot.link_interference, expect)


def test_interference_memory_is_linear_in_links():
    # one co-channel group of 45^2 = 2025 links: all ordered pairs would be
    # 4.1 M rows of several arrays, hundreds of MB
    k = 180
    cx, cy = np.divmod(np.arange(k * k), k)
    counts = ((cx % 4 == 0) & (cy % 4 == 0)).astype(np.int64)
    tracemalloc.start()
    try:
        _, slot = _synthetic_slot(counts, k, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(np.unique(slot.link_res)) == 1 and len(slot.link_rx) == 2025
    assert peak <= 4 * 2**20
