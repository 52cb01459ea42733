import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dcache import caching
from d2dcache.caching import (
    CachingPolicy,
    build_split_policy,
    closed_form_outage,
    finite_n_outage,
    optimize_policy,
    place_caches_batch,
    place_split_caches_batch,
)
from d2dcache.popularity import PopularityModel, sample_request
from d2dcache.validate import check_placement_marginals
from waterfill_oracle import bisection_waterfill

# Objective value of the optimum for M=4, S=1, gamma=0.8, q=0, g_c=10,
# frozen from a projected grid search (5e-3 coarse pass plus two local
# refinements down to 8e-6 steps; SLSQP agreed to 1e-10).
GRID_ORACLE_OBJECTIVE = 0.0749709158


def test_policy_validation():
    # sums to 1.1, not 2; a probability above 1; S > M; a probability an ulp
    # outside [0, 1]; NaN; not 1-d; negative size
    for probs, size in (([0.5, 0.6], 2), ([1.5, 0.5], 2), ([1.0], 2),
                        ([1.0 + 2.0**-52, 1.0 - 2.0**-52], 2), ([np.nan, 1.0], 1),
                        ([[0.5], [0.5]], 1), ([], -1)):
        with pytest.raises(ValueError):
            CachingPolicy(np.array(probs), size)
    CachingPolicy(np.array([0.25, 0.75]), 1)


def test_optimize_saturates_when_cache_covers_library():
    m = PopularityModel(M=6, gamma=0.9, q=1.0)
    pol = optimize_policy(m, 6, 3.0)
    assert np.allclose(pol.probs, 1.0)


def test_optimize_uniform_under_uniform_popularity():
    m = PopularityModel(M=10, gamma=0.0, q=0.0)
    pol = optimize_policy(m, 3, 7.5)
    assert np.allclose(pol.probs, 0.3, atol=1e-9)


def test_optimize_matches_grid_search_oracle():
    m = PopularityModel(M=4, gamma=0.8, q=0.0)
    pol = optimize_policy(m, 1, 10.0)
    obj = closed_form_outage(pol, m, 10.0)
    assert obj == pytest.approx(GRID_ORACLE_OBJECTIVE, abs=1e-3)
    assert obj <= GRID_ORACLE_OBJECTIVE + 1e-9  # never worse than the grid point


def test_optimize_errors():
    m = PopularityModel(M=4, gamma=0.5, q=0.0)
    for S, g_c in ((5, 1.0), (0, 1.0), (2, -1.0), (2, np.nan), (2, np.inf)):
        with pytest.raises(ValueError):
            optimize_policy(m, S, g_c)


@settings(max_examples=25, deadline=None)
@given(
    M=st.integers(2, 400),
    gamma=st.floats(0.0, 3.0),
    q=st.floats(0.0, 50.0),
    gc=st.floats(0.5, 5e3),
    data=st.data(),
)
def test_optimize_satisfies_kkt(M, gamma, q, gc, data):
    S = data.draw(st.integers(1, M))
    m = PopularityModel(M=M, gamma=gamma, q=q)
    pol = optimize_policy(m, S, gc)
    pc = pol.pc_of(np.arange(1, M + 1))
    assert abs(float(pc.sum()) - S) <= 1e-9
    # stationarity of g_c*P(f)*exp(-g_c*Pc(f)) checked in log space: the
    # gradient itself underflows to denormals for large g_c*Pc
    log_grad = np.log(gc) + np.log(m.pmf_table) - gc * pc
    interior = (pc > 1e-9) & (pc < 1 - 1e-9)
    if interior.any():
        log_mu = float(np.median(log_grad[interior]))
        assert np.all(np.abs(log_grad[interior] - log_mu) <= 1e-6)
        # saturated coordinates obey the complementary inequalities
        assert np.all(log_grad[pc >= 1 - 1e-9] >= log_mu - 1e-6)
        assert np.all(log_grad[pc <= 1e-9] <= log_mu + 1e-6)


@settings(max_examples=25, deadline=None)
@given(
    M=st.integers(2, 300),
    gamma=st.floats(0.0, 2.5),
    q=st.floats(0.0, 30.0),
    gc=st.floats(0.5, 1e3),
    data=st.data(),
)
def test_optimized_beats_uniform(M, gamma, q, gc, data):
    S = data.draw(st.integers(1, M))
    m = PopularityModel(M=M, gamma=gamma, q=q)
    best = closed_form_outage(optimize_policy(m, S, gc), m, gc)
    uniform = closed_form_outage(CachingPolicy(np.full(M, S / M), S), m, gc)
    assert best <= uniform + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    M=st.integers(2, 5000),
    gamma=st.floats(0.0, 3.0),
    q=st.floats(0.0, 100.0),
    gc=st.floats(1e-2, 1e5),
    data=st.data(),
)
def test_optimize_matches_bisection_oracle(M, gamma, q, gc, data):
    S = data.draw(st.integers(1, M - 1))
    m = PopularityModel(M=M, gamma=gamma, q=q)
    policy = optimize_policy(m, S, gc)
    b = len(policy.probs)
    ref = bisection_waterfill(m.pmf_table, S, gc)
    # the oracle gives nothing to the files past the solved prefix
    assert float(np.max(ref[b:], initial=0.0)) <= 1e-12
    pc = policy.pc_of(np.arange(1, M + 1))
    assert float(np.max(np.abs(pc - ref))) <= 1e-12
    assert abs(float(pc.sum()) - S) <= 1e-12 * S
    # exp(-g_c*Pc) is only as exact as g_c times an ulp of Pc, so two equal
    # optima may read apart by two ulps of each solve on top of 1e-15
    obj, ref_obj = (float(np.add.reduce(m.pmf_table * np.exp(-gc * x))) for x in (pc, ref))
    assert obj <= ref_obj * (1.0 + 1e-15 + gc * 2.0**-50)


def test_waterfill_rejects_increasing_mass(monkeypatch):
    monkeypatch.setattr(PopularityModel, "_weights", lambda self, lo, hi: np.arange(lo, hi + 1.0))
    for solve in (lambda m: m.pmf_table, lambda m: optimize_policy(m, 1, 4.0)):
        with pytest.raises(ValueError, match="non-increasing"):
            solve(PopularityModel(M=3, gamma=0.6))


@pytest.fixture(scope="module")
def two_million_files() -> PopularityModel:
    m = PopularityModel(M=2_000_000, gamma=0.6, q=2.0)
    m.pmf_table
    return m


def test_optimize_memory_at_two_million_files(two_million_files):
    _check_optimize_memory(two_million_files, 7)


def test_optimize_memory_at_two_million_files_small_support(two_million_files):
    _check_optimize_memory(two_million_files, 10)


def _check_optimize_memory(m, k):
    """The solve reads floors on a prefix of at most twice the support b
    (26 065 files at k = 7, 3 273 at k = 10): its peak is at most 8 floats
    per file of the support, not the library-length arrays it once held."""
    tracemalloc.start()
    try:
        policy = optimize_policy(m, 2, 2.0**-k * m.M / 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(policy.probs) < m.M // 50
    assert peak <= 8 * 8 * len(policy.probs)


@pytest.mark.parametrize("M, gamma, S, g_c", [
    (3, 0.5, 1, 0.5),     # the rounded Pc sum to S exactly: nothing to spread
    (3, 0.5, 1, 1.0),     # a rounding gap, spread over the files inside (0, 1)
    (5, 2.0, 1, 1.0),     # T is flat at S: file 1 is full and file 2 still empty
    (5, 2000.0, 2, 3.0),  # one file with mass, S = 2: files 1 and 2 are full
])
def test_waterfill_residual_step(M, gamma, S, g_c):
    m = PopularityModel(M=M, gamma=gamma, q=0.0)
    policy = optimize_policy(m, S, g_c)
    pc = policy.pc_of(np.arange(1, M + 1))
    assert abs(float(pc.sum()) - S) <= 1e-15 * S
    ref = bisection_waterfill(m.pmf_table, S, g_c)
    objective = [float(np.add.reduce(m.pmf_table * np.exp(-g_c * x))) for x in (pc, ref)]
    assert objective[0] == pytest.approx(objective[1], rel=1e-15, abs=0)
    if gamma < 1000.0:
        assert float(np.max(np.abs(pc - ref))) <= 1e-12
    else:  # files without mass cost nothing: the oracle spreads S - 1 over them
        assert np.count_nonzero(m.pmf_table) == 1 and policy.probs.tolist() == [1.0, 1.0]


@settings(max_examples=100, deadline=None)
@given(
    M=st.integers(2, 3000),
    gamma=st.floats(0.0, 3.0),
    q=st.floats(0.0, 100.0),
    gc=st.floats(1e-2, 1e5),
    N=st.integers(1, 10_000),
    cells=st.integers(1, 400),
    data=st.data(),
)
def test_closed_forms_match_full_length_reference(M, gamma, q, gc, N, cells, data):
    S = data.draw(st.integers(1, M - 1))
    m = PopularityModel(M=M, gamma=gamma, q=q)
    _check_closed_forms(m, S, gc, N, cells)


@pytest.mark.parametrize("k", range(4, 11))
def test_closed_forms_match_full_length_reference_at_two_million_files(two_million_files, k):
    m = two_million_files
    _check_closed_forms(m, 2, 2.0**-k * m.M / 2, 20_000, 400)


def _check_closed_forms(m, S, gc, N, cells):
    """Both closed forms against numpy over the library, the support prefix
    padded with zeros."""
    policy = optimize_policy(m, S, gc)
    pc = np.zeros(m.M)
    pc[:len(policy.probs)] = policy.probs
    p = m.pmf_table
    poisson = float(np.add.reduce(p * np.exp(-gc * pc)))
    assert closed_form_outage(policy, m, gc) == pytest.approx(poisson, rel=1e-13, abs=0)
    with np.errstate(divide="ignore"):
        others_miss = np.exp((N - 1) * np.log1p(-pc / cells)) if N > 1 else 1.0
    finite = float(np.add.reduce(p * (1.0 - pc) * others_miss))
    assert finite_n_outage(policy, m, N, cells) == pytest.approx(finite, rel=1e-13, abs=0)


def test_closed_forms_never_read_the_pmf_past_the_support():
    m = PopularityModel(M=5000, gamma=0.6, q=2.0)
    policy = optimize_policy(m, 2, 40.0)
    b = len(policy.probs)
    assert b < m.M
    clean = closed_form_outage(policy, m, 40.0), finite_n_outage(policy, m, 2000, 100)
    poisoned = m.pmf_table.copy()
    poisoned[b:] = np.nan
    m.__dict__["pmf_table"] = poisoned
    assert (closed_form_outage(policy, m, 40.0), finite_n_outage(policy, m, 2000, 100)) == clean


def test_outage_monotone_in_occupancy():
    m = PopularityModel(M=60, gamma=0.7, q=4.0)
    values = [
        closed_form_outage(optimize_policy(m, 2, gc), m, gc)
        for gc in (5.0, 10.0, 30.0, 100.0, 400.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_closed_form_uniform_policy_value():
    # uniform policy at occupancy rho*M/S gives exactly exp(-rho)
    m = PopularityModel(M=40, gamma=0.6, q=3.0)
    S, rho = 4, 2.5
    pol = CachingPolicy(np.full(40, S / 40), S)
    assert closed_form_outage(pol, m, rho * 40 / S) == pytest.approx(np.exp(-rho), rel=1e-12, abs=0)


def test_closed_form_empty_policy_is_one():
    m = PopularityModel(M=5, gamma=1.0, q=0.0)
    pol = CachingPolicy(np.zeros(5), 0)
    assert closed_form_outage(pol, m, 12.0) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="zero-size"):
        place_caches_batch(pol, np.random.Generator(np.random.PCG64(0)), 1)


def test_closed_form_dimension_mismatch():
    m = PopularityModel(M=5, gamma=1.0, q=0.0)
    pol = CachingPolicy(np.full(4, 0.5), 2)
    with pytest.raises(ValueError):
        closed_form_outage(pol, m, 3.0)
    # a prefix of a 5-file library is a policy of that library
    prefix = CachingPolicy(np.full(4, 0.5), 2, 5)
    assert prefix.M == 5 and prefix.pc_of(np.array([4, 5])).tolist() == [0.5, 0.0]
    assert closed_form_outage(prefix, m, 3.0) == pytest.approx(
        float(np.sum(m.pmf_table[:4])) * np.exp(-1.5) + m.pmf_table[4], rel=1e-15)
    with pytest.raises(ValueError, match="cover 4 files but the library has 3"):
        CachingPolicy(np.full(4, 0.5), 2, 3)


def test_finite_n_outage_values():
    # uniform policy: every file misses with (1 - S/M) * (1 - S/(M*cells))^(N-1)
    m = PopularityModel(M=40, gamma=0.6, q=3.0)
    pol = CachingPolicy(np.full(40, 4 / 40), 4)
    expect = 0.9 * (1.0 - 0.1 / 25) ** 4999
    assert finite_n_outage(pol, m, 5000, 25) == pytest.approx(expect, rel=1e-12, abs=0)
    # a lone user is served only by itself
    assert finite_n_outage(pol, m, 1, 25) == pytest.approx(0.9, rel=1e-15, abs=0)
    # a file every user caches, on a single cell, never misses
    full = CachingPolicy(np.ones(5), 5)
    m5 = PopularityModel(M=5, gamma=1.0, q=0.0)
    with np.errstate(all="raise"):
        assert finite_n_outage(full, m5, 7, 1) == 0.0
        assert finite_n_outage(full, m5, 1, 1) == 0.0
    with pytest.raises(ValueError):
        finite_n_outage(pol, m5, 10, 4)


def test_placement_exact_size_and_forced_inclusion():
    probs = np.array([1.0, 0.4, 0.35, 0.25])
    pol = CachingPolicy(probs, 2)
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(200):
        files = set(place_caches_batch(pol, rng, 1)[0].tolist())
        assert len(files) == 2
        assert 1 in files  # Pc=1 forces inclusion


def test_placement_marginals_match_probabilities():
    policy = optimize_policy(PopularityModel(M=20, gamma=0.9, q=2.0), 3, 15.0)
    report = check_placement_marginals(policy, 11, 100_000)
    assert report.passed, report.detail
    # a policy stored on a prefix of its library: the files past it are never drawn
    report = check_placement_marginals(CachingPolicy(np.array([1.0, 0.5, 0.5]), 2, 6), 11, 20_000)
    assert report.passed and "over 6 files" in report.detail, report.detail


def test_placement_against_poisson_cluster_outage():
    """Cluster-level Monte Carlo with fully materialized caches reproduces the
    closed-form outage within 3 standard errors."""
    m = PopularityModel(M=50, gamma=0.6, q=5.0)
    S, gc = 2, 25.0
    pol = optimize_policy(m, S, gc)
    target = closed_form_outage(pol, m, gc)
    rng = np.random.Generator(np.random.PCG64(1234))
    n_draws = 100_000
    occupants = rng.poisson(gc, size=n_draws)
    total = int(occupants.sum())
    caches = place_caches_batch(pol, rng, total)
    owner = np.repeat(np.arange(n_draws), occupants)
    requests = sample_request(m, rng, size=n_draws)
    hit_rows = (caches == requests[owner, None]).any(axis=1)
    hits = np.bincount(owner[hit_rows], minlength=n_draws) > 0
    p_out = 1.0 - hits.mean()
    se = np.sqrt(target * (1 - target) / n_draws)
    assert abs(p_out - target) <= 3 * se


def test_split_policy_basics():
    m = PopularityModel(M=100, gamma=0.6, q=10.0)
    with pytest.raises(ValueError):
        build_split_policy(m, 3, 10.0, 5.0)
    p1, p2 = build_split_policy(m, 2, 8.0, 8.0)
    assert p1.cache_size == p2.cache_size == 1
    assert np.allclose(p1.probs, p2.probs)


def test_split_policy_concentrates_slot2():
    # smaller g_c drives mass toward the most popular files
    m = PopularityModel(M=100, gamma=0.6, q=10.0)
    p1, p2 = build_split_policy(m, 4, 50.0, 5.0)
    assert p2.probs[0] >= p1.probs[0]


def test_split_placement_fails_at_once_on_a_saturated_slot2_file(monkeypatch):
    # scaling_lt1 at M = 8, gamma = 0.8, q = 0, C_sec = 0.5: Pc2(1) = 1
    p1, p2 = build_split_policy(PopularityModel(M=8, gamma=0.8, q=0.0), 4, 16.0, 1.12)
    assert p2.probs[0] == 1.0 and p1.probs[0] < 1.0
    calls = []
    place = caching.place_caches_batch
    monkeypatch.setattr(caching, "place_caches_batch", lambda *a: calls.append(a) or place(*a))
    rng = np.random.Generator(np.random.PCG64(5))
    with pytest.raises(RuntimeError, match="^could not draw disjoint cache subspaces; file 1 "):
        place_split_caches_batch((p1, p2), rng, 200)
    assert len(calls) == 2  # the two first draws, no redraw


def test_split_placement_disjoint():
    m = PopularityModel(M=30, gamma=0.8, q=1.0)
    sp = build_split_policy(m, 4, 40.0, 6.0)
    rng = np.random.Generator(np.random.PCG64(3))
    s1, s2 = place_split_caches_batch(sp, rng, 5000)
    assert s1.shape == (5000, 2) and s2.shape == (5000, 2)
    overlap = (s1[:, :, None] == s2[:, None, :]).any(axis=(1, 2))
    assert not overlap.any()
