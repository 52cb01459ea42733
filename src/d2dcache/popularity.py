"""MZipf request popularity: probability mass and seeded sampling.

The request distribution over a library of M files is
P(f) = (f + q)^(-gamma) / H(1, M), where H(a, b) = sum_{f=a}^{b} (f+q)^(-gamma).
q = 0 reduces to a plain Zipf law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class PopularityModel:
    """Library popularity law.

    M      -- library size (number of files, indexed 1..M)
    gamma  -- Zipf factor (>= 0)
    q      -- plateau factor (>= 0); flattens the head of the distribution
    """

    M: int
    gamma: float
    q: float = 0.0

    def __post_init__(self):
        if not isinstance(self.M, (int, np.integer)) or self.M < 1:
            raise ValueError(f"library size M must be a positive integer, got {self.M!r}")
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if not self.q >= 0:
            raise ValueError(f"q must be non-negative, got {self.q}")

    @cached_property
    def pmf_table(self) -> np.ndarray:
        """Full probability vector over files 1..M (index 0 is file 1)."""
        # exp(-gamma*log(f+q)) stays finite where (f+q)**-gamma would underflow first
        f = np.arange(1, self.M + 1, dtype=np.float64)
        weights = np.exp(-self.gamma * np.log(f + self.q))
        t = weights / math.fsum(weights)
        t.setflags(write=False)
        return t

    @cached_property
    def pmf_non_increasing(self) -> bool:
        """Whether pmf_table never increases with f, checked over every file
        once; the table is read-only."""
        return _non_increasing(self.pmf_table)

    @cached_property
    def _cdf(self) -> np.ndarray:
        c = np.cumsum(self.pmf_table)
        c[-1] = 1.0
        c.setflags(write=False)
        return c


def _non_increasing(a: np.ndarray) -> bool:
    return not bool(np.any(a[1:] > a[:-1]))


def _sorted_search(table: np.ndarray, u: np.ndarray, S: int) -> np.ndarray:
    """np.searchsorted(table, u[:, None] + np.arange(S), side="right") as an
    (n, S) int64 array, searched in ascending query order, with every point
    u + j kept below j + 1. Where u + j rounds up to j + 1 (u = 1 - 2^-53
    does for every j >= 1), the point is the largest double below j + 1; no
    double lies between it and the exact sum, so it finds the same interval.

    Ascending queries walk the table forward, so the binary searches stay in
    cache; each answer does not depend on the query order, so scattering the
    answers back gives exactly the random-order result. u + j keeps the order
    of u, so one argsort orders every column.
    """
    order = np.argsort(u)
    u_sorted = u[order]
    out = np.empty((len(u), S), dtype=np.int64)
    for j in range(S):
        point = u_sorted + j
        np.minimum(point, np.nextafter(j + 1.0, 0.0), out=point)
        out[order, j] = np.searchsorted(table, point, side="right")
    return out


def sample_request(model: PopularityModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw size file indices from the popularity law by inverse CDF, as an
    int64 array. Deterministic given the generator state: each draw consumes
    exactly one uniform. The CDF ends at 1.0, above every uniform, so no
    index exceeds M."""
    idx = _sorted_search(model._cdf, rng.random(size), 1).reshape(size)
    idx += 1
    return idx
