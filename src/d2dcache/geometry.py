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
from .phy import PhyConfig
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


def reuse_color(cells: np.ndarray, k: int, phy: PhyConfig) -> np.ndarray:
    """Color of each of the given cells of a k x k grid, one of p^2 values
    for p = phy.reuse_period; no array spans the grid.

    color(cx, cy) = (cx mod p) * p + (cy mod p): co-channel cells sit at
    offsets that are multiples of p on both axes.
    """
    p = phy.reuse_period
    return (cells // k % p) * p + cells % k % p


def segment_ids(starts: np.ndarray, total: int) -> np.ndarray:
    """Segment index of every row of `total` rows cut into non-empty
    contiguous segments at `starts`: np.repeat(arange, sizes) by a cumulative
    sum, which, unlike np.repeat or an in-place cumsum, runs without holding
    the GIL."""
    return np.cumsum(np.bincount(starts[1:], minlength=total))


def packed_sort(keys: np.ndarray, payload: np.ndarray, width: int, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Int64 keys in [0, bound) and their payloads in [0, width), broadcast
    against keys, both flat and sorted by key, then payload, by one in-place
    np.sort of keys * width + payload; keys is overwritten. With payload =
    np.arange(len(keys)) and width = len(keys), the order is the stable argsort.
    """
    if bound * width > np.iinfo(np.int64).max:
        raise ValueError(f"packed sort key overflows int64 for keys below {bound} and width {width}")
    keys *= width
    keys += payload
    packed = keys.reshape(-1)
    packed.sort()
    # keys >= 0: // and a product give divmod, about ten times faster in int64;
    # the product is formed in skey itself, which one more // restores
    skey = packed // width
    skey *= width
    packed -= skey
    skey //= width
    return skey, packed


def run_starts(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First row and length of each run of equal keys in sorted_keys."""
    new_run = np.empty(len(sorted_keys), dtype=bool)
    new_run[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    return starts, np.diff(starts, append=len(sorted_keys))


def pair_within_clusters(
    realization: NetworkRealization,
    grid: ClusterGrid,
    caches: np.ndarray,
) -> PairingOutcome:
    """Pair every user with the nearest same-cell holder of its request in
    caches, one (N, S_slot) block of realization.caches, by a vectorized
    search linear in the candidates.

    One sort of the composite key ((file, cell), holder) builds the inverted
    (file, cell) -> holders index with the holders ascending inside each key
    run. The requests up to the largest cached file, the only ones a holder
    can serve, sorted by ((file, cell), user), find the first and the last
    holder of their key by searchsorted, and each request takes the first
    candidate at its exact minimum distance, so ties break toward the lowest
    candidate user index. The links come back in ascending rx order. Every
    temporary is freed at its last use, so the peak is about four float64
    arrays over the candidates.
    """
    positions, requests = realization.positions, realization.requests
    cell_id, n_cells = grid.cell_id, grid.n_cells
    n = len(positions)
    top = int(caches.max(initial=0))
    n_keys = top + 1
    if n_keys * n_cells * n > np.iinfo(np.int64).max:
        raise ValueError(
            f"pairing key (file, cell, user) overflows int64 for N={n} users "
            f"and {n_cells} cells"
        )
    held = np.multiply(caches, n_cells, dtype=np.int64)
    held += cell_id[:, None]
    # user ids are only added and gathered from, never an index: int32 halves them
    user_id = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    skey, sowner = packed_sort(held, np.arange(n, dtype=user_id)[:, None], n, n_keys * n_cells)
    del held
    sowner = sowner.astype(user_id, copy=False)

    # a request past the largest cached file has no holder: no query for it
    asked = np.flatnonzero(requests <= top)
    qkey = requests[asked].astype(np.int64, copy=False)
    qkey *= n_cells
    qkey += cell_id[asked]
    qkey, rx = packed_sort(qkey, asked, n, n_keys * n_cells)
    del asked
    # the holders of each request's key are sorted rows first .. first + c - 1
    first = np.searchsorted(skey, qkey)
    c = np.searchsorted(skey, qkey, side="right")
    del skey, qkey
    c -= first
    hit = np.flatnonzero(c)
    if len(hit) == 0:
        empty = np.empty(0, dtype=np.int64)
        return PairingOutcome(empty, empty, np.empty(0))

    rx, first, c = rx[hit], first[hit], c[hit]
    del hit
    starts = np.cumsum(c)
    starts -= c
    total = int(starts[-1] + c[-1])
    del c
    # candidate row i belongs to request seg[i] and is sorted row
    # first[seg[i]] + i - starts[seg[i]] of the holder index
    first -= starts
    seg = segment_ids(starts, total)
    holder = first[seg]
    holder += np.arange(total)
    holder[:] = sowner[holder]  # sorted row -> user, in place
    d2 = positions[holder, 0]
    dy = positions[holder, 1]
    del holder
    d2 -= positions[rx, 0][seg]
    np.square(d2, out=d2)
    dy -= positions[rx, 1][seg]
    np.square(dy, out=dy)
    d2 += dy
    del dy
    # segmented argmin: each request's candidates are contiguous and ascend
    # in user index, so the first one at the exact minimum is the tie winner
    best = np.minimum.reduceat(d2, starts)
    at_best = np.flatnonzero(d2 == best[seg])
    del d2, starts
    first += at_best[run_starts(seg[at_best])[0]]  # sorted row of each winner
    del at_best, seg
    tx = np.full(n, -1, dtype=np.int64)
    tx[rx] = sowner[first]
    dist = np.empty(n)
    dist[rx] = np.sqrt(best)
    served = np.flatnonzero(tx >= 0)
    return PairingOutcome(tx[served], served, dist[served])


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
