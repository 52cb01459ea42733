"""Generalized physical channel: capped power-law path gain, the SINR rate model
and the closed-form interference/SINR guarantees for reuse-colored clusters.

The path gain between two users at distance d is min(gain_cap, chi / d^alpha);
the cap (default 1) keeps receive power at or below transmit power at short
range. A link transmitting with power P on a sub-channel of bandwidth B_u
gets rate B_u * log2(1 + P*gain / (B_u*N0 + interference)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_SERIES_REL_TOL = 1e-10
_SERIES_CHUNK = 10_000_000
_SERIES_MAX_TERMS = 500_000_000


@dataclass(frozen=True)
class PhyConfig:
    """Channel and band parameters.

    chi          -- path gain calibration factor (gain at unit distance)
    alpha        -- pathloss exponent, > 2 so the interference series converges
    N0           -- noise power spectral density (W/Hz)
    B            -- total system bandwidth (Hz)
    Pmax         -- maximum transmit power (W)
    K            -- frequency reuse parameter; reuse factor is (2(K+1))^2
    gain_cap     -- upper bound on any path gain, <= 1
    sinr_ceiling -- bounded-model mode: rates use min(SINR, ceiling); None = off
    """

    chi: float
    alpha: float
    N0: float
    B: float
    Pmax: float
    K: int = 1
    gain_cap: float = 1.0
    sinr_ceiling: float | None = None

    def __post_init__(self):
        if self.alpha <= 2:
            raise ValueError(
                f"pathloss exponent must exceed 2 (interference series diverges), got {self.alpha}"
            )
        if self.gain_cap > 1.0 or self.gain_cap <= 0.0:
            raise ValueError(f"gain_cap must be in (0, 1], got {self.gain_cap}")
        for name in ("chi", "N0", "B", "Pmax"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.K < 1:
            raise ValueError(f"reuse parameter K must be >= 1, got {self.K}")
        if self.sinr_ceiling is not None and self.sinr_ceiling <= 0:
            raise ValueError(f"sinr_ceiling must be positive when set, got {self.sinr_ceiling}")

    def effective_sinr(self, sinr):
        """Apply the bounded-model ceiling when enabled. Accepts arrays."""
        if self.sinr_ceiling is None:
            return sinr
        return np.minimum(sinr, self.sinr_ceiling)

    @property
    def subchannel_bandwidth(self) -> float:
        return self.B / (2 * (self.K + 1)) ** 2


def path_gain(d, cfg: PhyConfig):
    """min(gain_cap, chi / d^alpha); d = 0 hits the cap. Accepts arrays."""
    d = np.asarray(d, dtype=np.float64)
    with np.errstate(divide="ignore"):
        raw = cfg.chi / d**cfg.alpha
    out = np.minimum(cfg.gain_cap, raw)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=32)
def interference_series_constant(alpha: float) -> float:
    """sum_{i>=1} i^(1-alpha) by partial sums with an integral-bracketed tail.

    The tail after n terms lies between the integrals from n+1 and from n;
    the midpoint is added and the bracket half-width certifies a relative
    error <= 1e-10.
    """
    if alpha <= 2:
        raise ValueError(f"series diverges for alpha <= 2, got {alpha}")
    total = 0.0
    n = 0
    chunk = 10_000
    while True:
        chunk = min(chunk, _SERIES_MAX_TERMS - n)
        i = np.arange(n + 1, n + chunk + 1, dtype=np.float64)
        total += float(np.exp((1.0 - alpha) * np.log(i)).sum())
        n += chunk
        tail_hi = n ** (2.0 - alpha) / (alpha - 2.0)
        tail_lo = (n + 1) ** (2.0 - alpha) / (alpha - 2.0)
        mid = 0.5 * (tail_hi + tail_lo)
        if 0.5 * (tail_hi - tail_lo) <= _SERIES_REL_TOL * (total + mid):
            return total + mid
        if n >= _SERIES_MAX_TERMS:
            raise RuntimeError(
                f"interference series for alpha={alpha} did not reach the "
                f"requested tolerance within {_SERIES_MAX_TERMS} terms"
            )
        chunk = min(10 * chunk, _SERIES_CHUNK)


def interference_upper_bound(d: float, cfg: PhyConfig, nu_upp: float) -> float:
    """Worst-case co-channel interference power at any in-cluster receiver.

    Counts ring i of the reuse pattern as 8i transmitters at distance
    (2i-1)(K+1)d with uncapped gains: 8 * nu_upp * chi * I_c / (d(K+1))^alpha.
    """
    if d <= 0:
        raise ValueError(f"cluster side must be positive, got {d}")
    ic = interference_series_constant(cfg.alpha)
    return 8.0 * nu_upp * cfg.chi * ic / (d * (cfg.K + 1)) ** cfg.alpha


def sinr_floor(d: float, cfg: PhyConfig, nu_low: float, nu_upp: float) -> float:
    """Guaranteed SINR of any activated in-cluster pair under one-TX-per-cluster
    reuse scheduling with powers in [nu_low, nu_upp].

    Worst-case signal at the cluster diagonal sqrt(2)*d over noise plus the
    ring interference bound. Monotonically increasing in K.
    """
    if not (0.0 < nu_low <= nu_upp <= cfg.Pmax):
        raise ValueError(
            f"need 0 < nu_low <= nu_upp <= Pmax, got nu_low={nu_low} nu_upp={nu_upp}"
        )
    signal = nu_low * cfg.chi / (math.sqrt(2.0) * d) ** cfg.alpha
    noise = cfg.subchannel_bandwidth * cfg.N0
    return signal / (noise + interference_upper_bound(d, cfg, nu_upp))
