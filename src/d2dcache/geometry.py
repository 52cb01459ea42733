"""Network geometry: binomial point process, square cluster grid, frequency
reuse coloring, and TX-RX pairing confined to clusters.

The network is the unit square. A grid of k x k equal square cells partitions
it; a user can be served only by a same-cell user (itself included) that
caches its requested file. The nearest such candidate is chosen, ties broken
by lowest user index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .caching import CachingPolicy, place_caches_batch, place_split_caches_batch
from .popularity import PopularityModel, sample_request


@dataclass(frozen=True)
class NetworkRealization:
    """One drawn network: positions, requests and cache contents of N users.

    caches holds one (N, S_slot) int64 block of 1-based file indices per cache
    subspace: a single block for an unsplit cache, the two disjoint (N, S/2)
    subspaces of a split one.
    """

    positions: np.ndarray
    requests: np.ndarray
    caches: tuple[np.ndarray, ...]

    def __post_init__(self):
        n = len(self.positions)
        if len(self.requests) != n or any(len(c) != n for c in self.caches):
            raise ValueError("positions, requests and caches must have equal length")
        if np.any(self.positions < 0.0) or np.any(self.positions > 1.0):
            raise ValueError("all coordinates must lie in [0, 1]")

    @property
    def n_users(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class ClusterGrid:
    """k x k partition of the unit square; cell_id = cx * k + cy."""

    k: int
    cell_id: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"grid needs k >= 1, got {self.k}")

    @property
    def side(self) -> float:
        return 1.0 / self.k

    @property
    def n_cells(self) -> int:
        return self.k * self.k


@dataclass(frozen=True)
class PairingOutcome:
    """Per-cell nearest-candidate server assignment.

    tx/rx/distance are parallel arrays over the established links, in
    ascending rx order; a user is in outage iff it is no link's rx, that is,
    iff no same-cell user (itself included) caches its request.
    """

    tx: np.ndarray
    rx: np.ndarray
    distance: np.ndarray

    @property
    def n_links(self) -> int:
        return len(self.rx)


def place_users(N: int, rng: np.random.Generator) -> np.ndarray:
    """N independent uniform points on the unit square, (N, 2) float64."""
    if N < 1:
        raise ValueError(f"need at least one user, got N={N}")
    return rng.random((N, 2))


def build_grid(k: int, positions: np.ndarray) -> ClusterGrid:
    cx = np.minimum((positions[:, 0] * k).astype(np.int64), k - 1)
    cy = np.minimum((positions[:, 1] * k).astype(np.int64), k - 1)
    return ClusterGrid(k=k, cell_id=cx * k + cy)


def grid_from_target_side(d_target: float) -> int:
    """Cells per side for a requested cluster side, half-up rounding of 1/d."""
    if not (0.0 < d_target <= 1.0):
        raise ValueError(f"cluster side must be in (0, 1], got {d_target}")
    return max(1, int(math.floor(1.0 / d_target + 0.5)))


def reuse_color(grid: ClusterGrid, K: int) -> np.ndarray:
    """Color of every cell, one of (2(K+1))^2 values.

    color(cx, cy) = (cx mod p) * p + (cy mod p) with p = 2(K+1): co-channel
    cells sit at offsets that are multiples of p on both axes.
    """
    if K < 1:
        raise ValueError(f"reuse parameter K must be >= 1, got {K}")
    p = 2 * (K + 1)
    cells = np.arange(grid.n_cells)
    cx, cy = cells // grid.k, cells % grid.k
    return (cx % p) * p + (cy % p)


def n_reuse_colors(K: int) -> int:
    return (2 * (K + 1)) ** 2


def segment_ids(starts: np.ndarray, total: int) -> np.ndarray:
    """Segment index of every row of `total` rows cut into non-empty
    contiguous segments at `starts`: np.repeat(arange, sizes) by a cumulative
    sum, which, unlike np.repeat or an in-place cumsum, runs without holding
    the GIL."""
    return np.cumsum(np.bincount(starts[1:], minlength=total))


def _nearest_candidate_links(
    positions: np.ndarray,
    requests: np.ndarray,
    cache_cols: np.ndarray,
    cell_id: np.ndarray,
    n_cells: int,
) -> PairingOutcome:
    """Vectorized nearest same-cell cached-copy search, linear in the candidates.

    One sort of the composite key ((file, cell), holder) builds the inverted
    (file, cell) -> holders index with the holders ascending inside each key
    run. The requests, sorted by ((file, cell), user), are resolved against
    the runs by one searchsorted, and each request takes the first candidate
    at its exact minimum distance, so ties break toward the lowest candidate
    user index. The links come back in ascending rx order.
    """
    n = len(positions)
    n_keys = max(int(cache_cols.max(initial=0)), int(requests.max(initial=0))) + 1
    if n_keys * n_cells * n > np.iinfo(np.int64).max:
        raise ValueError(
            f"pairing key (file, cell, user) overflows int64 for N={n} users "
            f"and {n_cells} cells"
        )
    users = np.arange(n, dtype=np.int64)
    held = cache_cols.astype(np.int64) * n_cells
    held += cell_id[:, None]
    held *= n
    held += users[:, None]
    skey, sowner = np.divmod(np.sort(held, axis=None), n)
    run_start = np.flatnonzero(np.diff(skey, prepend=-1))
    run_key = skey[run_start]
    run_len = np.diff(np.append(run_start, len(skey)))

    qkey, quser = np.divmod(
        np.sort((requests.astype(np.int64) * n_cells + cell_id) * n + users), n
    )
    run = np.minimum(np.searchsorted(run_key, qkey), len(run_key) - 1)
    hit = np.flatnonzero(run_key[run] == qkey)
    if len(hit) == 0:
        empty = np.empty(0, dtype=np.int64)
        return PairingOutcome(empty, empty, np.empty(0))

    rx, run = quser[hit], run[hit]
    c = run_len[run]
    starts = np.cumsum(c) - c
    total = int(starts[-1] + c[-1])
    # candidate row i belongs to request seg[i] and is user holder[i]
    seg = segment_ids(starts, total)
    row = np.arange(total)
    hold = (run_start[run] - starts)[seg]
    hold += row
    holder = sowner[hold]
    d2 = positions[holder, 0]
    d2 -= positions[rx, 0][seg]
    np.square(d2, out=d2)
    dy = positions[holder, 1]
    dy -= positions[rx, 1][seg]
    np.square(dy, out=dy)
    d2 += dy
    # segmented argmin: each request's candidates are contiguous and ascend
    # in user index, so the first one at the exact minimum is the tie winner
    best = np.minimum.reduceat(d2, starts)
    at_best = np.where(d2 == best[seg], row, total)
    tx = np.full(n, -1, dtype=np.int64)
    tx[rx] = holder[np.minimum.reduceat(at_best, starts)]
    dist = np.empty(n)
    dist[rx] = np.sqrt(best)
    served = np.flatnonzero(tx >= 0)
    return PairingOutcome(tx[served], served, dist[served])


def pair_within_clusters(
    realization: NetworkRealization,
    grid: ClusterGrid,
    caches: np.ndarray,
) -> PairingOutcome:
    """Pair every user with the nearest same-cell holder of its request in
    caches, one (N, S_slot) block of realization.caches."""
    return _nearest_candidate_links(
        realization.positions, realization.requests, caches, grid.cell_id, grid.n_cells
    )


def build_realization(
    model: PopularityModel,
    policies: tuple[CachingPolicy, ...],
    N: int,
    seed: int,
) -> NetworkRealization:
    """Draw a full network realization from one seeded stream.

    policies holds one caching policy per cache block: (policy,) for an
    unsplit cache, the two sub-policies of a split one. Draw order is fixed
    (positions, then requests, then cache offsets) so a seed pins the
    realization bit-exactly.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    pos = place_users(N, rng)
    req = sample_request(model, rng, size=N)
    if len(policies) == 2:
        caches = place_split_caches_batch(policies, rng, N)
    else:
        caches = (place_caches_batch(*policies, rng, N),)
    return NetworkRealization(positions=pos, requests=req, caches=caches)
