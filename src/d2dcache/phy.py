"""Generalized physical channel: capped power-law path gain, the SINR rate model
and the closed-form interference/SINR guarantees for reuse-colored clusters.

The path gain between two users at distance d is min(gain_cap, chi / d^alpha);
the cap (default 1) keeps receive power at or below transmit power at short
range. A link transmitting with power P on a sub-channel of bandwidth B_u
gets rate B_u * log2(1 + P*gain / (B_u*N0 + interference)).
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import dataclass
from functools import cache

import numpy as np

_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               tuple: "a list", dict: "a mapping", type(None): "null"}


@cache
def field_kinds(cls) -> dict:
    """Each field of a dataclass and the tuple of types its annotation accepts."""
    return {
        name: typing.get_args(t) if isinstance(t, types.UnionType) else (t,)
        for name, t in typing.get_type_hints(cls).items()
    }


def _accepts(kind, value) -> bool:
    if isinstance(value, bool) or value is None:
        return kind is type(value)
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, typing.get_origin(kind) or kind)


def check_field_types(obj) -> None:
    """Every config dataclass checks its values against its annotations (here,
    as PhyConfig is the lowest one): int takes an integer and float a finite
    number, neither a bool; bool a bool; a union any of its members."""
    for name, kinds in field_kinds(type(obj)).items():
        value = getattr(obj, name)
        if not any(_accepts(kind, value) for kind in kinds):
            expected = " or ".join(
                _KIND_NAMES.get(typing.get_origin(k) or k) or f"a {k.__name__} (a mapping in YAML)"
                for k in kinds
            )
            raise ValueError(f"{name} must be {expected}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


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

    The defaults are unit-free: B = 1 Hz, Pmax = 1 W, Pmax/(N0*B) = 1e6. chi
    is set so the receive-power gain cap binds only at sub-cluster range and
    cluster-scale links stay inside the power-law region (see README).
    """

    chi: float = 1e-11
    alpha: float = 4.0
    N0: float = 1e-6
    B: float = 1.0
    Pmax: float = 1.0
    K: int = 1
    gain_cap: float = 1.0
    sinr_ceiling: float | None = None

    def __post_init__(self):
        check_field_types(self)
        if self.alpha <= 2:
            raise ValueError(
                f"alpha must exceed 2 (the interference series diverges), got {self.alpha}"
            )
        if self.gain_cap > 1.0 or self.gain_cap <= 0.0:
            raise ValueError(f"gain_cap must be in (0, 1], got {self.gain_cap}")
        for name in ("chi", "N0", "B", "Pmax"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
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


def interference_series_constant(alpha: float) -> float:
    """sum_{i>=1} i^(1-alpha) = zeta(s), s = alpha - 1, by Euler-Maclaurin.

    The terms i < n = 100 are summed directly and the tail from n is
    n^(1-s)/(s-1) + n^-s/2 + s n^(-s-1)/12 - s(s+1)(s+2) n^(-s-3)/720.
    x^-s is completely monotone, so the error is below the first omitted
    term, s(s+1)(s+2)(s+3)(s+4) n^(-s-5)/30240: under 4e-15 for every
    alpha > 2, while the sum exceeds 1.
    """
    if alpha <= 2:
        raise ValueError(f"series diverges for alpha <= 2, got {alpha}")
    s = alpha - 1.0
    n = 100
    return math.fsum([
        *(i**-s for i in range(1, n)),
        n ** (1.0 - s) / (s - 1.0),
        0.5 * n**-s,
        s * n ** (-s - 1.0) / 12.0,
        -s * (s + 1.0) * (s + 2.0) * n ** (-s - 3.0) / 720.0,
    ])


def interference_upper_bound(d: float, cfg: PhyConfig) -> float:
    """Worst-case co-channel interference power at any in-cluster receiver.

    Counts ring i of the reuse pattern as 8i transmitters at Pmax at distance
    (2i-1)(K+1)d with uncapped gains: 8 * Pmax * chi * I_c / (d(K+1))^alpha.
    """
    if not d > 0:
        raise ValueError(f"cluster side must be positive, got {d}")
    ic = interference_series_constant(cfg.alpha)
    return 8.0 * cfg.Pmax * cfg.chi * ic / (d * (cfg.K + 1)) ** cfg.alpha


def sinr_floor(d: float, cfg: PhyConfig) -> float:
    """Guaranteed SINR of any activated in-cluster pair under one-TX-per-cluster
    reuse scheduling with every link at Pmax.

    Worst-case signal at the cluster diagonal sqrt(2)*d over noise plus the
    ring interference bound. Monotonically increasing in K.
    """
    interference = interference_upper_bound(d, cfg)  # first: it checks d
    signal = cfg.Pmax * cfg.chi / (math.sqrt(2.0) * d) ** cfg.alpha
    noise = cfg.subchannel_bandwidth * cfg.N0
    return signal / (noise + interference)
