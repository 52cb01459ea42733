"""Decentralized random caching.

Each user independently caches exactly S distinct files so that file f is
included with a prescribed marginal probability Pc(f), sum_f Pc(f) = S.
The policy used throughout minimizes the cluster outage objective

    sum_f P(f) * exp(-g_c * Pc(f))

over 0 <= Pc <= 1, sum Pc = S, where g_c is the mean number of users per
cluster. The minimizer is a water-filling profile. Its budget sum_f Pc(f)
is piecewise linear in the KKT multiplier, so the solve finds the linear
piece that holds the budget S with binary searches over a prefix sum and
solves that piece's linear equation exactly. It reads only a prefix of the
files a little longer than the policy's support, and a policy stores Pc on
that support prefix only.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .popularity import GuideTable, PopularityModel

SUM_TOL = 1e-9
_MAX_SPLIT_RETRIES = 1000
_MIN_PREFIX = 1024  # files in the solve's first prefix


@dataclass(frozen=True)
class CachingPolicy:
    """Per-file caching probabilities with a total-budget constraint.

    probs holds Pc on a prefix of the M library files, the support of a
    solved policy; every file past it has Pc = 0. M defaults to the length
    of probs, so a full-length array is a policy too.
    """

    probs: np.ndarray
    cache_size: int
    M: int | None = None

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("probs must be a 1-d sequence")
        M = len(p) if self.M is None else self.M
        if M < len(p):
            raise ValueError(f"probs cover {len(p)} files but the library has {M}")
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        if M < self.cache_size:
            raise ValueError(
                f"infeasible policy: cache_size {self.cache_size} exceeds library size {M}"
            )
        if not np.all((p >= 0.0) & (p <= 1.0)):  # interval lengths <= 1 for exact-S placement
            raise ValueError("caching probabilities must lie in [0, 1]")
        if not abs(float(p.sum()) - self.cache_size) <= SUM_TOL:
            raise ValueError(
                f"caching probabilities sum to {p.sum():.12g}, expected {self.cache_size}"
            )
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "M", M)

    @cached_property
    def _placement(self) -> GuideTable:
        """Exact-S placement, built at the first draw: lay the probabilities
        end to end on a segment of length S and pick the S files whose
        intervals contain u, u+1, ..., u+S-1 for one uniform u in [0, 1).

        Each interval has length <= 1 and the points are spaced exactly 1
        apart, so the S selected files are distinct and the marginal
        inclusion probability of file f is exactly Pc(f). The search of the
        interval edges returns 1-based file indices. Every edge from the last
        file with Pc > 0 onward is S, so every point stays below the last edge
        and never lands on a file with Pc = 0.
        """
        edges = np.concatenate(([0.0], np.cumsum(self.probs)))
        edges[np.flatnonzero(self.probs)[-1] + 1:] = float(self.cache_size)
        return GuideTable(edges, self.cache_size)

    def pc_of(self, files: np.ndarray) -> np.ndarray:
        """Pc of each 1-based file index; 0 past the stored prefix."""
        pc = np.zeros(np.shape(files))
        inside = files <= len(self.probs)
        pc[inside] = self.probs[files[inside] - 1]
        return pc


def _waterfill_probs(prob_mass: np.ndarray, S: int, g_c: float) -> np.ndarray:
    """Minimize sum p*exp(-g_c*Pc) s.t. sum Pc = S, 0 <= Pc <= 1, for a
    non-increasing mass p, such as a checked pmf_table; returns Pc on a
    prefix of the files, and every file past it has Pc = 0.

    KKT: Pc(f) = clip((nu - v_f)/g_c, 0, 1) with floor v_f = -ln(g_c*p_f),
    non-decreasing in f, and water level nu. The budget T(nu) = sum Pc is
    continuous, non-decreasing and linear between its breakpoints v_f (file f
    starts to fill) and v_f + g_c (file f is full). With a prefix sum of v,
    T costs two binary searches, so a binary search over each kind of
    breakpoint finds the piece on which T = S, and nu solves its linear
    equation. Zero mass gives v = inf and Pc = 0.

    Only a prefix of the floors is read. For nu <= v[L-1] no file past L
    has Pc > 0, so T on the first L files equals T on all of them; past
    v[L-1] both are >= T(v[L-1]). Once T(v[L-1]) >= S, or the prefix holds
    every file with mass, the test T >= S therefore reads the same on the
    prefix at every breakpoint, and both searches find the same piece as on
    the whole library. L doubles until then, and the running prefix sum of
    each new block starts from the last one, which is bit-equal to one
    sequential sum.

    b == a means a piece on which T is flat: the first a files are full and
    the next one is still empty. T never exceeds the number of files with
    Pc > 0, so a = S there, or a is every file with mass and a < S; the
    first S files are then full, the files past the mass costing nothing.
    Otherwise the files a..b-1 on the piece have exact Pc in (0, 1], and
    rounding leaves a gap S - sum Pc of a few ulps, spread over the files
    strictly inside (0, 1). If rounding left no such file, every Pc would be
    0 or 1 and the gap a whole number of files; no spread could close that,
    and CachingPolicy's sum check reports it.
    """
    M = len(prob_mass)
    log_gc = np.log(g_c)
    v, cs = np.empty(0), np.zeros(1)

    def budget(nu: float) -> float:
        a = int(np.searchsorted(v, nu - g_c, side="right"))  # full files
        b = max(a, int(np.searchsorted(v, nu)))             # files with Pc > 0
        return a + ((b - a) * nu - (cs[b] - cs[a])) / g_c

    L = min(M, max(_MIN_PREFIX, 2 * S))
    while True:
        with np.errstate(divide="ignore"):
            block = np.log(prob_mass[len(v):L])
        np.negative(block, out=block)
        block -= log_gc
        v = np.concatenate((v, block))
        block[0] += cs[-1]
        cs = np.concatenate((cs, np.cumsum(block, out=block)))
        n_mass = int(np.searchsorted(v, np.inf))
        if n_mass < L or L == M or budget(float(v[-1])) >= S:
            break
        L = min(M, 2 * L)

    def below_budget(shift: float) -> int:
        """Number of breakpoints v_f + shift at which T < S."""
        return bisect.bisect_left(range(n_mass), S, key=lambda f: budget(float(v[f]) + shift))

    b, a = below_budget(0.0), below_budget(g_c)
    if b == a:  # T is flat at S, or every file with mass is full below S
        return np.ones(S)
    nu = (g_c * (S - a) + (cs[b] - cs[a])) / (b - a)
    del cs
    pc = v[:b]  # the floors are not needed again: write Pc over them
    np.subtract(nu, pc, out=pc)
    pc /= g_c
    np.clip(pc, 0.0, 1.0, out=pc)
    # Pc does not increase with f, so the files strictly inside (0, 1) are a slice
    residual = S - float(pc.sum())
    if residual != 0.0:
        free = pc[int(np.count_nonzero(pc == 1.0)):int(np.count_nonzero(pc))]
        if len(free):
            free += residual / len(free)
            np.clip(free, 0.0, 1.0, out=free)
    return pc


def optimize_policy(model: PopularityModel, S: int, g_c: float) -> CachingPolicy:
    """Outage-minimizing caching policy for mean cluster occupancy g_c."""
    if S < 1:
        raise ValueError(f"cache size must be >= 1, got {S}")
    if S > model.M:
        raise ValueError(f"infeasible: cache size {S} exceeds library size {model.M}")
    if not 0 < g_c < np.inf:
        raise ValueError(f"g_c must be positive and finite, got {g_c}")
    if S == model.M:
        return CachingPolicy(np.ones(model.M), S)
    pc = _waterfill_probs(model.pmf_table, S, float(g_c))
    return CachingPolicy(pc, S, model.M)


def closed_form_outage(policy: CachingPolicy, model: PopularityModel, g_c: float) -> float:
    """Cluster outage sum_f P(f)*exp(-g_c*Pc(f)) for Poisson(g_c) occupancy,
    summed over the policy's prefix; the files past it have Pc = 0 and add
    their mass, model.tail_mass, with weight 1, so no pmf entry past the
    prefix is read. Summed by np.add.reduce so that no BLAS thread count
    enters the result."""
    if policy.M != model.M:
        raise ValueError(
            f"policy covers {policy.M} files but the model has {model.M}"
        )
    b = len(policy.probs)
    terms = np.multiply(policy.probs, -g_c)
    np.exp(terms, out=terms)
    terms *= model.pmf_table[:b]
    return float(np.add.reduce(terms) + model.tail_mass(b))


def finite_n_outage(policy: CachingPolicy, model: PopularityModel, N: int, n_cells: int) -> float:
    """Outage of one of exactly N uniform users on n_cells equal cells, served
    by any same-cell user that caches its request, itself included:

        sum_f P(f) * (1 - Pc(f)) * (1 - Pc(f)/n_cells)^(N-1)

    with the power taken through log1p, summed over the policy's prefix; the
    files past it have Pc = 0 and add their mass, model.tail_mass, with
    weight 1. closed_form_outage is its Poisson counterpart."""
    if policy.M != model.M:
        raise ValueError(
            f"policy covers {policy.M} files but the model has {model.M}"
        )
    pc = policy.probs
    b = len(pc)
    with np.errstate(divide="ignore"):  # Pc = 1 on a single cell: no miss
        others_miss = np.exp((N - 1) * np.log1p(-pc / n_cells)) if N > 1 else 1.0
    prefix = model.pmf_table[:b] * (1.0 - pc) * others_miss
    return float(np.add.reduce(prefix) + model.tail_mass(b))


def place_caches_batch(policy: CachingPolicy, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n caches of exactly S distinct files, one uniform consumed per draw."""
    if policy.cache_size < 1:
        raise ValueError("cannot place caches for a zero-size policy")
    return policy._placement.search(rng.random(n))


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
        stuck = block1[policy2.pc_of(block1) >= 1.0]
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
