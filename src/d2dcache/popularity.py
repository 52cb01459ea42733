"""MZipf request popularity: probability mass and seeded sampling.

The request distribution over a library of M files is
P(f) = (f + q)^(-gamma) / H(1, M), where H(a, b) = sum_{f=a}^{b} (f+q)^(-gamma).
q = 0 reduces to a plain Zipf law.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_HEAD = 1024  # terms of a power sum added exactly; Euler-Maclaurin sums the rest
_DIGITS = 24  # significant digits of the Euler-Maclaurin integral
_GUIDE_BUCKETS = 4  # guide-table buckets per table entry


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
        for name in ("gamma", "q"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
            if value == math.inf:
                raise ValueError(f"{name} must be finite, got {value}")
        # the weights decrease in f: if file 1's underflows, every one does
        if self._weights(1, 1)[0] == 0.0:
            raise ValueError(
                f"every popularity weight (f+q)^-gamma underflows to 0 at gamma={self.gamma} "
                f"and q={self.q}: decrease gamma or q"
            )

    def _weights(self, lo: int, hi: int) -> np.ndarray:
        """(f+q)^-gamma for f = lo..hi as exp(-gamma*log(f+q)). This form
        underflows where (f+q)**-gamma does, at gamma*ln(f+q) near 745; what
        ties the code to it is that _power_sum's exact head adds these very
        weights, so the norm is the fsum of the table's own terms. Where gamma
        is a few ulps off an integer they carry a small bias (ROADMAP, "A bias
        in the pmf weights"); another form would move every table's last bits."""
        f = np.arange(lo, hi + 1, dtype=np.float64)
        return np.exp(-self.gamma * np.log(f + self.q))

    def _power_sum(self, lo: int, hi: int) -> tuple[float, float]:
        """H(lo, hi) = sum_{f=lo}^{hi} (f+q)^-gamma and a bound on its error;
        0 for an empty range.

        The first _HEAD terms are the weights of pmf_table, added exactly by
        fsum. The table rounds each f+q to a double, which within a binade
        of f+q is f+q' for one shift q'. So past the head the terms are
        (f+q')^-gamma exactly on each run of files with one shift (one run
        for a whole-number q), and Euler-Maclaurin sums a run f = n..m, with
        a = n+q' and c = m+q', as

            integral_a^c x^-gamma dx + (a^-gamma + c^-gamma)/2
            + gamma (a^(-gamma-1) - c^(-gamma-1))/12
            - gamma(gamma+1)(gamma+2) (a^(-gamma-3) - c^(-gamma-3))/720.

        x^-gamma is completely monotone, so the error of a run lies below
        the first omitted term, gamma(gamma+1)...(gamma+4) a^(-gamma-5)/30240;
        the returned bound is their sum. Every run starts past the head, so
        a >= 1025 and the bound is under 1e-19 of the sum for gamma <= 3.

        The integral carries most of the sum at gamma < 1. It is
        a^t expm1(t ln(c/a))/t with t = 1 - gamma (ln(c/a) at t = 0) in
        decimal arithmetic that keeps _DIGITS digits through each
        cancellation, so it is exact to far below a double's rounding at
        every gamma, 1 and its neighbours included; the sum is then within
        about one rounding of the weights' own fsum.
        """
        q, gamma = self.q, self.gamma
        n = min(hi + 1, lo + _HEAD)
        terms, bound = self._weights(lo, n - 1).tolist(), 0.0
        for n, m, shift in _shift_runs(n, hi, q):
            a, c = n + shift, m + shift
            pa, pc = a**-gamma, c**-gamma
            p3 = gamma * (gamma + 1.0) * (gamma + 2.0)
            terms += [_power_integral(a, c, gamma), 0.5 * pa, 0.5 * pc,
                      gamma / 12.0 * (pa / a - pc / c),
                      -p3 / 720.0 * (pa / a**3 - pc / c**3)]
            bound += p3 * (gamma + 3.0) * (gamma + 4.0) / 30240.0 * pa / a**5
        return math.fsum(terms), bound

    @cached_property
    def norm(self) -> float:
        """The normaliser H(1, M) of the pmf."""
        return self._power_sum(1, self.M)[0]

    def tail_mass(self, b: int) -> float:
        """P(f > b) = H(b+1, M) / H(1, M), without reading pmf_table."""
        return self._power_sum(b + 1, self.M)[0] / self.norm

    @cached_property
    def pmf_table(self) -> np.ndarray:
        """Full probability vector over files 1..M (index 0 is file 1),
        read-only and checked once to never increase with f, the order the
        water-filling solve takes exactly."""
        t = self._weights(1, self.M)
        t /= self.norm
        if np.any(t[1:] > t[:-1]):
            raise ValueError("water-filling needs a non-increasing probability mass")
        t.setflags(write=False)
        return t

    @cached_property
    def _request_guide(self) -> GuideTable:
        """The requests' interval table, built at the first draw."""
        return GuideTable(self.pmf_table, 1)


def _shift_runs(n: int, hi: int, q: float) -> list[tuple[int, int, float]]:
    """Split files n..hi into maximal runs (first, last, shift) on which the
    double f+q is f + shift. Within a binade of f+q the rounding of the sum
    depends on q alone, so each binade has one shift; it is read at the
    binade's middle file, away from sums that round across its edges. A
    whole-number q gives one run."""
    runs: list[tuple[int, int, float]] = []
    while n <= hi:
        top = 2.0 ** math.frexp(n + q)[1]  # every f+q in [n+q, top) has one ulp
        m = min(hi, max(n, math.ceil(top - q) - 1))
        mid = (n + m) // 2
        shift = (mid + q) - mid
        if runs and runs[-1][2] == shift:
            runs[-1] = (runs[-1][0], m, shift)
        else:
            runs.append((n, m, shift))
        n = m + 1
    return runs


def _power_integral(a: float, c: float, gamma: float) -> float:
    """integral_a^c x^-gamma dx for 0 < a <= c, as a^t expm1(y)/t with
    t = 1 - gamma and y = t ln(c/a), or ln(c/a) at t = 0, in decimal
    arithmetic. ln(1+r) and exp(y) - 1 each get extra digits for the
    leading zeros of r = (c-a)/a and of y, so _DIGITS digits survive the
    cancellation at c near a and at gamma near 1."""
    with decimal.localcontext() as ctx:
        ctx.prec = _DIGITS
        A, C, t = decimal.Decimal(a), decimal.Decimal(c), 1 - decimal.Decimal(gamma)
        r = (C - A) / A
        ctx.prec = _DIGITS + max(0, -r.adjusted())
        L = (1 + r).ln()
        if not t:
            return float(L)
        y = t * L
        ctx.prec = _DIGITS + max(0, -y.adjusted())
        em1 = y.exp() - 1
        ctx.prec = _DIGITS
        return float((t * A.ln()).exp() * em1 / t)


class GuideTable:
    """Exact inverse-CDF search of masses laid end to end on [0, S), by a
    guide table (Chen & Asau 1974; Devroye, Non-Uniform Random Variate
    Generation, 1986, ch. III), with no sort of the queries.

    table is [0, cumsum(masses)] with every edge from the last positive mass
    onward pinned to S, so no point lands on a zero mass after that one.
    search(u) is np.searchsorted(table, u[:, None] + np.arange(S),
    side="right") as an (n, S) int64 array: the 1-based index of the mass
    whose interval holds each point. Every point u + j is kept below j + 1.
    Where u + j rounds up to j + 1 (u = 1 - 2^-53 does for every j >= 1),
    the point is the largest double below j + 1; no double lies between it
    and the exact sum, so it finds the same interval.

    The value x falls in bucket floor(x * scale), scale = B / S with B =
    _GUIDE_BUCKETS * len(table), the product rounded to a double as for the
    table's own entries. Rounding never makes that map decrease, so an entry
    in a lower bucket than x lies below x, even where x * scale rounds up
    onto a bucket edge: first[b], the number of entries in the buckets below
    b, is a lower bound on the answer of every point in bucket b. One forward
    step from it settles each point with at most one entry between the bound
    and itself; np.searchsorted finishes the rows still behind, which lie in
    the crowded buckets of a steep table's tail. The last edge is S and every
    point lies below it, so neither step reads past the table's end.
    """

    def __init__(self, masses: np.ndarray, S: int):
        table = np.zeros(len(masses) + 1)
        np.cumsum(masses, out=table[1:])
        table[np.flatnonzero(masses)[-1] + 1:] = S
        n_buckets = _GUIDE_BUCKETS * len(table)
        self.table, self.S = table, S
        self._scale = n_buckets / S
        counts = np.bincount((table * self._scale).astype(np.int64), minlength=n_buckets)
        self._first = np.zeros(n_buckets + 1, dtype=np.int64)
        np.cumsum(counts[:n_buckets], out=self._first[1:])

    def search(self, u: np.ndarray) -> np.ndarray:
        out = np.empty((len(u), self.S), dtype=np.int64)
        for j in range(self.S):
            point = u + j
            np.minimum(point, np.nextafter(j + 1.0, 0.0), out=point)
            at = self._first[(point * self._scale).astype(np.int64)]
            at += self.table[at] <= point
            behind = np.flatnonzero(self.table[at] <= point)
            at[behind] = np.searchsorted(self.table, point[behind], side="right")
            out[:, j] = at
        return out


def sample_request(model: PopularityModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw size 1-based file indices from the popularity law by inverse CDF,
    as an int64 array. Deterministic given the generator state: each draw
    consumes exactly one uniform."""
    return model._request_guide.search(rng.random(size)).reshape(size)
