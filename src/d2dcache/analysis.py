"""Closed-form oracles and asymptotic predictions.

The small-cluster hit probability is governed by two constants: C2 = q*gamma
/ (S*g_c') and C1, the unique root >= 1 of C1 = 1 + C2*ln(1 + C1/C2). The
closed-form outage of an optimally cached cluster with mean occupancy g_c'
follows in terms of C1, C2 for both the heavy-tailed (gamma < 1) and
light-tailed (gamma > 1) popularity regimes. Throughput scaling exponents
are finite-size estimated by ordinary least squares in log-log coordinates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .popularity import PopularityModel

RESIDUAL_TOL = 1e-12
_MAX_FP_ITER = 10_000


@dataclass(frozen=True)
class FixedPointConstants:
    C1: float
    C2: float
    gc_prime: float
    residual: float

    def __post_init__(self):
        if not self.C1 >= 1.0 - 1e-12:
            raise ValueError(f"C1 must be >= 1, got {self.C1}")
        if not abs(self.residual) <= RESIDUAL_TOL * max(1.0, self.C1):
            raise ValueError(
                f"fixed-point residual {self.residual:.3e} exceeds tolerance for C1={self.C1}"
            )


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    slope_stderr: float


def _fixed_point_residual(c1: float, c2: float) -> float:
    ratio = c1 / c2
    if math.isinf(ratio):  # denormal C2: ln(1 + C1/C2) = ln C1 - ln C2 exactly enough
        return c1 - 1.0 - c2 * (math.log(c1) - math.log(c2))
    return c1 - 1.0 - c2 * math.log1p(ratio)


def solve_c1_c2(gc_prime: float, q: float, S: int, gamma: float) -> FixedPointConstants:
    """Solve C1 = 1 + C2*ln(1 + C1/C2) with C2 = q*gamma/(S*gc_prime).

    Newton's method on g(C1) = C1 - 1 - C2*ln(1 + C1/C2), started at the
    large-C2 asymptote 1 + sqrt(2*C2). g is increasing and convex, and
    g(1 + sqrt(2*C2)) > 0 for every C2 > 0 because ln(1 + y) <= y/sqrt(1 + y).
    So the iterates descend monotonically onto the unique root.

    The loop ends at the tolerance test alone. g' = C1/(C1+C2) <= 1, so a
    step |g/g'| below half an ulp of C1 needs |g| <= 2^-53 * C1, which the
    test, 0.5e-12 * max(1, C1), has already accepted.
    """
    if not gc_prime > 0:
        raise ValueError(f"gc_prime must be positive, got {gc_prime}")
    if S < 1:
        raise ValueError(f"S must be >= 1, got {S}")
    c2 = q * gamma / (S * gc_prime)
    if c2 == 0.0:
        return FixedPointConstants(C1=1.0, C2=0.0, gc_prime=gc_prime, residual=0.0)

    c1 = 1.0 + math.sqrt(2.0 * c2)
    for _ in range(_MAX_FP_ITER):
        g = _fixed_point_residual(c1, c2)
        if abs(g) <= 0.5 * RESIDUAL_TOL * max(1.0, c1):
            break
        c1 -= g / (1.0 - c2 / (c2 + c1))
    else:
        raise RuntimeError(f"fixed point did not converge for C2={c2}")
    return FixedPointConstants(
        C1=c1, C2=c2, gc_prime=gc_prime, residual=_fixed_point_residual(c1, c2)
    )


def _pow_ratio_log(c1: float, c2: float, gamma: float) -> float:
    """(C1/(C1+C2))^gamma * (C2/(C1+C2))^(gamma*C2/C1), computed in log space.

    (C2/(C1+C2))^(gamma*C2/C1) = exp(-gamma*(C2/C1)*log1p(C1/C2)); the
    exponent stays finite as C2 -> infinity where direct powering underflows.
    """
    if c2 == 0.0:
        return 1.0
    log_a = -gamma * math.log1p(c2 / c1)
    log_b = -gamma * (c2 / c1) * math.log1p(c1 / c2)
    return math.exp(log_a + log_b)


def _clamp_probability(value: float, where: str) -> float:
    if -1e-9 <= value <= 1.0 + 1e-9:
        return min(1.0, max(0.0, value))
    raise ValueError(
        f"{where} evaluated to {value:.6g}, outside [0, 1] beyond tolerance; "
        "the configuration is outside the formula's regime"
    )


def po_sec_gamma_lt1(gc_prime: float, model: PopularityModel, S: int) -> float:
    """Closed-form minimal cluster outage, heavy-tailed regime (gamma < 1).

    Mean cluster occupancy gc_prime, per-user cache budget S over the model's
    M files.
    """
    gamma, q, M = model.gamma, model.q, model.M
    if gamma >= 1.0:
        raise ValueError(f"heavy-tailed formula needs gamma < 1, got {gamma}")
    fp = solve_c1_c2(gc_prime, q, S, gamma)
    c1, c2 = fp.C1, fp.C2
    t1 = (c1 * S * gc_prime / (gamma * M)) ** (1.0 - gamma)
    t2 = c2 * S * gc_prime / (gamma * M)  # algebraically q/M
    denom = (1.0 + t2) ** (1.0 - gamma) - t2 ** (1.0 - gamma) if t2 > 0 else 1.0
    head = _pow_ratio_log(c1, c2, gamma)
    if c2 > 0:
        tail_fac = (1.0 + c2 / c1) ** (1.0 - gamma) - (c2 / c1) ** (1.0 - gamma)
    else:
        tail_fac = 1.0
    a = (1.0 - gamma) * math.exp(-gamma * (1.0 / c1 - 1.0)) * t1 * head / denom
    b = t1 * tail_fac / denom
    return _clamp_probability(1.0 + a - b, "heavy-tailed cluster outage")


def po_sec_gamma_gt1(gc_prime: float, model: PopularityModel, S: int) -> float:
    """Closed-form minimal cluster outage, light-tailed regime (gamma > 1).

    Valid deep in the gc_prime = o(q) regime; warns when q*gamma/(S*gc_prime)
    is not comfortably large.
    """
    gamma, q = model.gamma, model.q
    if gamma <= 1.0:
        raise ValueError(f"light-tailed formula needs gamma > 1, got {gamma}")
    fp = solve_c1_c2(gc_prime, q, S, gamma)
    c1, c2 = fp.C1, fp.C2
    if c2 < 10.0:
        warnings.warn(
            f"light-tailed outage formula used with C2={c2:.3g} < 10; the "
            "small-cluster asymptotics are only weakly satisfied",
            stacklevel=2,
        )
    head = _pow_ratio_log(c1, c2, gamma)
    a = (
        (gamma - 1.0)
        * math.exp(-gamma * (1.0 / c1 - 1.0))
        * head
        * (c2 / c1) ** (gamma - 1.0)
    )
    b = ((c1 / c2) ** (gamma - 1.0) - (c1 / (c1 + c2)) ** (gamma - 1.0)) * (c2 / c1) ** (
        gamma - 1.0
    )
    return _clamp_probability(1.0 + a - b, "light-tailed cluster outage")


def fit_loglog(x, y) -> ScalingFit:
    """Ordinary least squares of ln(y) on ln(x) over parallel sequences."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be parallel 1-d sequences")
    if len(x) < 2:
        raise ValueError("need at least two points to fit a slope")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs strictly positive coordinates")
    lx, ly = np.log(x), np.log(y)
    n = len(lx)
    mx, my = lx.mean(), ly.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    if sxx == 0.0:
        raise ValueError("all x values coincide; slope is undefined")
    slope = float(np.sum((lx - mx) * (ly - my)) / sxx)
    intercept = my - slope * mx
    resid = ly - (intercept + slope * lx)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - my) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    stderr = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 else math.nan
    return ScalingFit(
        slope=slope,
        intercept=float(intercept),
        r_squared=max(0.0, min(1.0, r2)),
        n_points=n,
        slope_stderr=stderr,
    )
