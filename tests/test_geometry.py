import numpy as np
import pytest

from d2dcache.caching import optimize_policy
from d2dcache.geometry import (
    build_grid,
    build_realization,
    grid_from_target_side,
    n_reuse_colors,
    pair_within_clusters,
    place_users,
    reuse_color,
)
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
    with pytest.raises(ValueError):
        grid_from_target_side(0.0)
    with pytest.raises(ValueError):
        grid_from_target_side(1.5)


def test_reuse_color_count_and_uniqueness():
    assert n_reuse_colors(1) == 16
    pts = np.random.Generator(np.random.PCG64(0)).random((10, 2))
    g4 = build_grid(4, pts)
    colors = reuse_color(g4, 1)
    # a 4x4 grid with reuse period 4 uses each of the 16 colors exactly once
    assert sorted(colors.tolist()) == list(range(16))


def test_reuse_color_cochannel_separation():
    pts = np.random.Generator(np.random.PCG64(0)).random((10, 2))
    for K in (1, 2):
        g = build_grid(9, pts)
        colors = reuse_color(g, K)
        p = 2 * (K + 1)
        cells = np.arange(g.n_cells)
        cx, cy = cells // g.k, cells % g.k
        for color in np.unique(colors):
            idx = np.nonzero(colors == color)[0]
            for i in idx:
                for j in idx:
                    if i == j:
                        continue
                    dx, dy = abs(int(cx[i] - cx[j])), abs(int(cy[i] - cy[j]))
                    assert dx % p == 0 and dy % p == 0
                    assert max(dx, dy) >= p  # Chebyshev separation


def _brute_force_pairing(realization, grid):
    n = realization.n_users
    tx = {}
    for u in range(n):
        best = None
        for v in range(n):
            if grid.cell_id[v] != grid.cell_id[u]:
                continue
            if realization.requests[u] not in realization.cache_set(v):
                continue
            d = float(np.hypot(*(realization.positions[v] - realization.positions[u])))
            if best is None or (d, v) < best:
                best = (d, v)
        if best is not None:
            tx[u] = best
    return tx


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_pairing_matches_brute_force(seed):
    model = PopularityModel(M=10, gamma=0.8, q=1.0)
    policy = optimize_policy(model, 2, 8.0)
    realization = build_realization(model, policy, 50, seed)
    grid = build_grid(2, realization.positions)
    outcome = pair_within_clusters(realization, grid)
    brute = _brute_force_pairing(realization, grid)

    assert set(outcome.rx.tolist()) == set(brute)
    for rx, tx, dist in zip(outcome.rx, outcome.tx, outcome.distance):
        bd, bv = brute[int(rx)]
        assert int(tx) == bv
        assert dist == pytest.approx(bd, abs=1e-12)
    # outage flags complement the served set
    served = np.zeros(50, dtype=bool)
    served[outcome.rx] = True
    assert np.array_equal(outcome.outage_flags, ~served)


def test_pairing_respects_cells_and_link_bound():
    model = PopularityModel(M=20, gamma=0.7, q=2.0)
    policy = optimize_policy(model, 2, 30.0)
    realization = build_realization(model, policy, 2000, 9)
    grid = build_grid(5, realization.positions)
    outcome = pair_within_clusters(realization, grid)
    assert np.array_equal(grid.cell_id[outcome.tx], grid.cell_id[outcome.rx])
    assert outcome.distance.max() <= np.sqrt(2) / 5 + 1e-12
    # every tx really caches the requested file
    for tx, rx in zip(outcome.tx[:100], outcome.rx[:100]):
        assert realization.requests[rx] in realization.cache_set(int(tx))
    # each served user has exactly one inbound link
    assert len(np.unique(outcome.rx)) == outcome.n_links
