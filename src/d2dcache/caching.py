"""Decentralized random caching.

Each user independently caches exactly S distinct files so that file f is
included with a prescribed marginal probability Pc(f), sum_f Pc(f) = S.
The policy used throughout minimizes the cluster outage objective

    sum_f P(f) * exp(-g_c * Pc(f))

over 0 <= Pc <= 1, sum Pc = S, where g_c is the mean number of users per
cluster. The minimizer is a water-filling profile. Its budget sum_f Pc(f)
is piecewise linear in the KKT multiplier, so the solve finds the linear
piece that holds the budget S with binary searches over a prefix sum and
solves that piece's linear equation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .popularity import PopularityModel, _sorted_search

SUM_TOL = 1e-9
_MAX_SPLIT_RETRIES = 1000


@dataclass(frozen=True)
class CachingPolicy:
    """Per-file caching probabilities with a total-budget constraint."""

    probs: np.ndarray
    cache_size: int

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("probs must be a 1-d sequence")
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        if len(p) < self.cache_size:
            raise ValueError(
                f"infeasible policy: cache_size {self.cache_size} exceeds library size {len(p)}"
            )
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise ValueError("caching probabilities must lie in [0, 1]")
        if abs(float(p.sum()) - self.cache_size) > SUM_TOL:
            raise ValueError(
                f"caching probabilities sum to {p.sum():.12g}, expected {self.cache_size}"
            )
        p = np.clip(p, 0.0, 1.0)  # keep interval lengths <= 1 for exact-S placement
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def M(self) -> int:
        return len(self.probs)


def _waterfill_probs(prob_mass: np.ndarray, S: int, g_c: float) -> np.ndarray:
    """Minimize sum p*exp(-g_c*Pc) s.t. sum Pc = S, 0 <= Pc <= 1, for a
    non-increasing mass p.

    KKT: Pc(f) = clip((nu - v_f)/g_c, 0, 1) with floor v_f = -ln(g_c*p_f),
    non-decreasing in f, and water level nu. The budget T(nu) = sum Pc is
    continuous, non-decreasing and linear between its breakpoints v_f (file f
    starts to fill) and v_f + g_c (file f is full). With a prefix sum of v,
    T costs two binary searches, so a binary search over each kind of
    breakpoint finds the piece on which T = S, and nu solves its linear
    equation. Zero mass gives v = inf and Pc = 0.
    """
    if np.any(prob_mass[1:] > prob_mass[:-1]):
        raise ValueError("water-filling needs a non-increasing probability mass")
    with np.errstate(divide="ignore"):
        v = np.log(prob_mass)
    np.negative(v, out=v)
    v -= np.log(g_c)
    cs = np.zeros(len(v) + 1)
    np.cumsum(v, out=cs[1:])
    n_mass = int(np.searchsorted(v, np.inf))

    def budget(nu: float) -> float:
        a = int(np.searchsorted(v, nu - g_c, side="right"))  # full files
        b = max(a, int(np.searchsorted(v, nu)))             # files with Pc > 0
        return a + ((b - a) * nu - (cs[b] - cs[a])) / g_c

    def below_budget(shift: float) -> int:
        """Number of breakpoints v_f + shift at which T < S."""
        lo, hi = 0, n_mass
        while lo < hi:
            mid = (lo + hi) // 2
            if budget(float(v[mid]) + shift) < S:
                lo = mid + 1
            else:
                hi = mid
        return lo

    b, a = below_budget(0.0), below_budget(g_c)
    # b == a: the b files below the level are all full
    nu = (g_c * (S - a) + (cs[b] - cs[a])) / (b - a) if b > a else np.inf
    del cs
    pc = v  # the floors are not needed again: write Pc over them
    np.subtract(nu, pc[:b], out=pc[:b])
    pc[:b] /= g_c
    np.clip(pc[:b], 0.0, 1.0, out=pc[:b])
    pc[b:] = 0.0
    # close the residual budget gap on the unsaturated coordinates; Pc does
    # not increase with f, so each candidate set is a slice
    residual = S - float(pc.sum())
    if residual != 0.0:
        n_full = int(np.count_nonzero(pc[:b] == 1.0))
        n_pos = int(np.count_nonzero(pc[:b]))
        if n_pos > n_full:
            free = slice(n_full, n_pos)
        else:
            free = slice(n_full, None) if residual > 0 else slice(0, n_pos)
        n_free = len(pc[free])
        if n_free:
            pc[free] += residual / n_free
            np.clip(pc[free], 0.0, 1.0, out=pc[free])
    return pc


def optimize_policy(model: PopularityModel, S: int, g_c: float) -> CachingPolicy:
    """Outage-minimizing caching policy for mean cluster occupancy g_c."""
    if S < 1:
        raise ValueError(f"cache size must be >= 1, got {S}")
    if S > model.M:
        raise ValueError(f"infeasible: cache size {S} exceeds library size {model.M}")
    if g_c <= 0:
        raise ValueError(f"g_c must be positive, got {g_c}")
    if S == model.M:
        return CachingPolicy(np.ones(model.M), S)
    pc = _waterfill_probs(model.pmf_table, S, float(g_c))
    return CachingPolicy(pc, S)


def closed_form_outage(policy: CachingPolicy, model: PopularityModel, g_c: float) -> float:
    """Cluster outage sum_f P(f)*exp(-g_c*Pc(f)) for Poisson(g_c) occupancy,
    summed by np.add.reduce so that no BLAS thread count enters the result."""
    if policy.M != model.M:
        raise ValueError(
            f"policy covers {policy.M} files but the model has {model.M}"
        )
    return float(np.add.reduce(model.pmf_table * np.exp(-g_c * policy.probs)))


def finite_n_outage(policy: CachingPolicy, model: PopularityModel, N: int, n_cells: int) -> float:
    """Outage of one of exactly N uniform users on n_cells equal cells, served
    by any same-cell user that caches its request, itself included:

        sum_f P(f) * (1 - Pc(f)) * (1 - Pc(f)/n_cells)^(N-1)

    with the power taken through log1p. closed_form_outage is its Poisson
    counterpart."""
    if policy.M != model.M:
        raise ValueError(
            f"policy covers {policy.M} files but the model has {model.M}"
        )
    pc = policy.probs
    with np.errstate(divide="ignore"):  # Pc = 1 on a single cell: no miss
        others_miss = np.exp((N - 1) * np.log1p(-pc / n_cells)) if N > 1 else 1.0
    return float(np.add.reduce(model.pmf_table * (1.0 - pc) * others_miss))


def _interval_partition(probs: np.ndarray, S: int, offsets: np.ndarray) -> np.ndarray:
    """Exact-S placement: lay the M probabilities end to end on a segment of
    length S and pick the S files whose intervals contain u, u+1, ..., u+S-1.

    Each interval has length <= 1 and the points are spaced exactly 1 apart,
    so the S selected files are distinct and the marginal inclusion
    probability of file f is exactly Pc(f). offsets is one uniform in [0,1)
    per draw; returns an (n, S) int64 array of 1-based file indices. Every
    point stays below the last edge S, so no index exceeds M.
    """
    edges = np.concatenate(([0.0], np.cumsum(probs)))
    edges[-1] = float(S)
    return _sorted_search(edges, offsets, S)


def place_caches_batch(policy: CachingPolicy, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n caches of exactly S distinct files, one uniform consumed per draw."""
    if policy.cache_size < 1:
        raise ValueError("cannot place caches for a zero-size policy")
    return _interval_partition(policy.probs, policy.cache_size, rng.random(n))


def build_split_policy(
    model: PopularityModel, S: int, gc1: float, gc2: float
) -> tuple[CachingPolicy, CachingPolicy]:
    """Split the cache into two S/2 subspaces, each optimized for its own g_c."""
    if S % 2 != 0:
        raise ValueError(
            f"split caching needs an even cache size; got S={S} (round up or down)"
        )
    return optimize_policy(model, S // 2, gc1), optimize_policy(model, S // 2, gc2)


def place_split_caches_batch(
    policies: tuple[CachingPolicy, CachingPolicy], rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n split caches, one block per sub-policy; the two subsets of each
    user are disjoint.

    Subset 2 is rejection-resampled against subset 1. This distorts the
    slot-2 marginals by O(sum_f Pc1*Pc2), which is second order for the
    spread-out slot-1 policies the schemes use. Every slot-2 draw holds the
    files with Pc2 = 1, so a clashing row whose subset 1 holds one of them
    can never be repaired: that raises at once, before any redraw.
    """
    policy1, policy2 = policies
    slot1 = place_caches_batch(policy1, rng, n)
    slot2 = place_caches_batch(policy2, rng, n)
    # only the rows drawn again can clash, so each pass tests just those
    rows, block1, block2 = np.arange(n), slot1, slot2
    for _ in range(_MAX_SPLIT_RETRIES):
        clash = np.zeros(len(rows), dtype=bool)
        for file2 in block2.T:
            for file1 in block1.T:
                clash |= file2 == file1
        rows = rows[clash]
        if not len(rows):
            return slot1, slot2
        block1 = slot1[rows]
        stuck = block1[policy2.probs[block1 - 1] >= 1.0]
        if len(stuck):
            raise RuntimeError(
                "could not draw disjoint cache subspaces; file "
                f"{stuck.min()} has slot-2 caching probability 1 and is drawn in slot 1 too"
            )
        block2 = place_caches_batch(policy2, rng, len(rows))
        slot2[rows] = block2
    raise RuntimeError(
        "could not draw disjoint cache subspaces; the two sub-policies "
        "force overlapping saturated files"
    )
