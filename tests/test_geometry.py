import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d2dcache.caching import optimize_policy
from d2dcache.geometry import (
    ClusterGrid,
    NetworkRealization,
    build_grid,
    build_realization,
    grid_from_target_side,
    pair_within_clusters,
    place_users,
    reuse_color,
    segment_ids,
)
from d2dcache.phy import PhyConfig
from d2dcache.popularity import PopularityModel


def test_place_users_support_and_determinism():
    rng = np.random.Generator(np.random.PCG64(1))
    pts = place_users(1000, rng)
    assert pts.shape == (1000, 2)
    assert pts.min() >= 0.0 and pts.max() <= 1.0
    again = place_users(1000, np.random.Generator(np.random.PCG64(1)))
    assert np.array_equal(pts, again)
    with pytest.raises(ValueError):
        place_users(0, rng)


def test_place_users_binomial_count():
    rng = np.random.Generator(np.random.PCG64(77))
    n = 100_000
    pts = place_users(n, rng)
    inside = np.sum((pts[:, 0] <= 0.3) & (pts[:, 1] <= 0.3))
    p = 0.09
    sd = np.sqrt(n * p * (1 - p))
    assert abs(inside - n * p) <= 4 * sd


def test_grid_cells():
    pts = np.array([[0.6, 0.1], [1.0, 1.0], [0.0, 0.0]])
    g = build_grid(2, pts)
    assert g.n_cells == 4
    assert g.cell_id[0] == 1 * 2 + 0
    assert g.cell_id[1] == 1 * 2 + 1  # (1.0, 1.0) clamps inward to cell (1, 1)
    assert g.cell_id[2] == 0


def test_grid_from_target_side():
    assert grid_from_target_side(0.25) == 4
    assert grid_from_target_side(0.3) == 3
    assert grid_from_target_side(1.0) == 1
    for side in (0.0, 1.5):
        with pytest.raises(ValueError):
            grid_from_target_side(side)


def test_realization_and_grid_validation():
    pos, req = np.full((2, 2), 0.5), np.ones(2, dtype=np.int64)
    cache = (np.ones((2, 1), dtype=np.int64),)
    for bad in (
        lambda: NetworkRealization(pos, req[:1], cache),
        lambda: NetworkRealization(pos + 1.0, req, cache),
        lambda: ClusterGrid(0, np.zeros(0, dtype=np.int64)),
    ):
        with pytest.raises(ValueError):
            bad()


def test_reuse_color_count_and_uniqueness():
    assert PhyConfig(K=1).reuse_period == 4
    colors = reuse_color(np.arange(16), 4, PhyConfig(K=1))
    # a 4x4 grid with reuse period 4 uses each of the 16 colors exactly once
    assert sorted(colors.tolist()) == list(range(16))


def test_reuse_color_cochannel_separation():
    k = 9
    cells = np.arange(k * k)
    cx, cy = np.divmod(cells, k)
    dx, dy = np.abs(cx[:, None] - cx), np.abs(cy[:, None] - cy)
    for K in (1, 2):
        colors = reuse_color(cells, k, PhyConfig(K=K))
        p = 2 * (K + 1)
        same = (colors[:, None] == colors) & ~np.eye(k * k, dtype=bool)
        assert same.any()
        assert np.all(dx[same] % p == 0) and np.all(dy[same] % p == 0)
        assert np.all(np.maximum(dx, dy)[same] >= p)  # Chebyshev separation


def _brute_force_pairing(realization, grid):
    """Nearest same-cell holder of every request by a loop over all users:
    (distance, user) of the smallest (dx*dx + dy*dy, user), the squared
    distance in the floating-point form the vectorized search compares."""
    n = realization.n_users
    tx = {}
    for u in range(n):
        best = None
        for v in range(n):
            if grid.cell_id[v] != grid.cell_id[u]:
                continue
            if realization.requests[u] not in realization.caches[0][v]:
                continue
            dx, dy = (realization.positions[v] - realization.positions[u]).tolist()
            if best is None or (dx * dx + dy * dy, v) < best:
                best = (dx * dx + dy * dy, v)
        if best is not None:
            tx[u] = (np.sqrt(best[0]), best[1])
    return tx


@given(st.lists(st.integers(1, 6), min_size=1, max_size=40))
def test_segment_ids_match_repeat(sizes):
    sizes = np.array(sizes)
    starts = np.cumsum(sizes) - sizes
    seg = segment_ids(starts, int(sizes.sum()))
    assert np.array_equal(seg, np.repeat(np.arange(len(sizes)), sizes))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_pairing_matches_brute_force(seed):
    model = PopularityModel(M=10, gamma=0.8, q=1.0)
    policy = optimize_policy(model, 2, 8.0)
    realization = build_realization(model, (policy,), 50, seed)
    grid = build_grid(2, realization.positions)
    outcome = pair_within_clusters(realization, grid, realization.caches[0])
    brute = _brute_force_pairing(realization, grid)

    assert set(outcome.rx.tolist()) == set(brute)
    for rx, tx, dist in zip(outcome.rx, outcome.tx, outcome.distance):
        bd, bv = brute[int(rx)]
        assert int(tx) == bv
        assert dist == pytest.approx(bd, abs=1e-12)
    # one link per served user, in ascending rx order
    assert np.all(np.diff(outcome.rx) > 0)


def test_pairing_respects_cells_and_link_bound():
    model = PopularityModel(M=20, gamma=0.7, q=2.0)
    policy = optimize_policy(model, 2, 30.0)
    realization = build_realization(model, (policy,), 2000, 9)
    grid = build_grid(5, realization.positions)
    outcome = pair_within_clusters(realization, grid, realization.caches[0])
    assert np.array_equal(grid.cell_id[outcome.tx], grid.cell_id[outcome.rx])
    assert outcome.distance.max() <= np.sqrt(2) / 5 + 1e-12
    # every tx really caches the requested file
    for tx, rx in zip(outcome.tx[:100], outcome.rx[:100]):
        assert realization.requests[rx] in realization.caches[0][tx]
    # each served user has exactly one inbound link
    assert len(np.unique(outcome.rx)) == outcome.n_links


def _realization(positions, requests, caches):
    return NetworkRealization(
        positions=np.asarray(positions, dtype=np.float64),
        requests=np.asarray(requests, dtype=np.int64),
        caches=(np.asarray(caches, dtype=np.int64),),
    )


def test_pairing_ties_go_to_lowest_index():
    # user 0 requests file 1 from mirrored holders 3 and 1 at equal distance;
    # user 2 requests file 2 from co-located holders 4 and 5; user 6's nearest
    # holder (7) has a higher index than a farther one (1); nobody holds file 9
    realization = _realization(
        [[0.5, 0.5], [0.75, 0.5], [0.1, 0.9], [0.25, 0.5], [0.3, 0.7], [0.3, 0.7],
         [0.9, 0.1], [0.9, 0.15]],
        [1, 9, 2, 9, 9, 9, 1, 9],
        [[3], [1], [3], [1], [2], [2], [3], [1]],
    )
    grid = build_grid(1, realization.positions)
    outcome = pair_within_clusters(realization, grid, realization.caches[0])
    assert outcome.rx.tolist() == [0, 2, 6]
    assert outcome.tx.tolist() == [1, 4, 7]
    assert outcome.distance[0] == 0.25
    # the users in outage are exactly those that are no link's rx
    assert sorted(set(range(8)) - set(outcome.rx.tolist())) == [1, 3, 4, 5, 7]


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(1, 150),
    M=st.integers(1, 4),
    S=st.integers(1, 3),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(N=150, M=1, S=1, k=1, seed=0)  # one run of 150 candidates per request
def test_pairing_matches_oracle_on_lattice(N, M, S, k, seed):
    # positions on a 5 x 5 lattice of exact binary fractions: distance ties and
    # co-located holders are common, and so are long candidate runs
    rng = np.random.default_rng(seed)
    realization = _realization(
        rng.integers(0, 5, (N, 2)) / 4.0, rng.integers(1, M + 1, N), rng.integers(1, M + 1, (N, S))
    )
    grid = build_grid(k, realization.positions)
    outcome = pair_within_clusters(realization, grid, realization.caches[0])
    brute = _brute_force_pairing(realization, grid)
    assert outcome.rx.tolist() == sorted(brute)
    assert outcome.tx.tolist() == [brute[u][1] for u in sorted(brute)]
    assert outcome.distance.tolist() == [brute[u][0] for u in sorted(brute)]


def test_pairing_drops_requests_past_every_cached_file():
    # file 2**62 is in no cache: its request gets no link, and the key guard,
    # which reads only the cached files, does not count it
    positions = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])
    caches = np.array([[1], [2], [1]])
    realization = NetworkRealization(positions, np.array([2, 2**62, 1]), (caches,))
    out = pair_within_clusters(realization, build_grid(2, positions), caches)
    assert (out.tx.tolist(), out.rx.tolist()) == ([1, 2], [0, 2])
    assert out.distance[0] == np.sqrt(0.1**2 + 0.1**2) and out.distance[1] == 0.0


def test_pairing_key_overflow_is_an_error():
    one = np.ones(2, dtype=np.int64)
    realization = NetworkRealization(np.array([[0.1, 0.1], [0.2, 0.2]]), one, (one[:, None],))
    grid = ClusterGrid(2**31, np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError, match=r"N=2 users and 4611686018427387904 cells"):
        pair_within_clusters(realization, grid, one[:, None])
