"""The popularity regimes, one frozen record each.

Every per-regime fact of the toolkit lives here: the allowed side of gamma
against 1, the occupancy driver (mean users per cluster is
rho_or_alpha1 * driver / S), the sweep's fit axis, the slot-2 shrink product
eps * rho_or_alpha1 of the double time-slot scheme, the predicted throughput
exponent of each scheme it supports and the finite-size warning on q.
Methods read the config fields they need (M, q, S, gamma, rho_or_alpha1,
C_sec) from any object that carries them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Regime:
    name: str
    gamma_above_1: bool
    driver: str | None  # config field driving the occupancy; None means 1
    axis: str  # the fit axis is S / axis
    shrink: Callable[[float, float], float] | None  # (S/driver, gamma) -> product / C_sec
    exponents: dict[str, Callable[[float], float]]  # scheme -> gamma -> exponent
    q_warn_divisor: int | None = None  # warn when q > M / q_warn_divisor
    q_warning: str = ""

    def allows_gamma(self, gamma: float) -> bool:
        return gamma > 1.0 if self.gamma_above_1 else gamma < 1.0

    def driver_value(self, cfg) -> float:
        return getattr(cfg, self.driver) if self.driver else 1

    def occupancy(self, cfg) -> float:
        """Mean users per cluster of the nominal (slot-1) clusters."""
        return cfg.rho_or_alpha1 * self.driver_value(cfg) / cfg.S

    def epsilon(self, cfg) -> float:
        """Slot-2 shrink factor eps = C_sec * shrink / rho_or_alpha1, at most 1."""
        if self.shrink is None:
            raise ValueError(f"slot-2 tuning is undefined for regime {self.name!r}")
        product = cfg.C_sec * self.shrink(cfg.S / self.driver_value(cfg), cfg.gamma)
        eps = product / cfg.rho_or_alpha1
        if eps > 1.0:
            raise ValueError(
                f"slot-2 shrink factor eps={eps:.4g} exceeds 1: the configuration is "
                "not deep enough in the asymptotic regime (reduce C_sec or grow M/q)"
            )
        return eps

    def fit_axis(self, params: dict) -> tuple[str, float]:
        """The sweep's fit axis: its label and its value at a point."""
        return f"S/{self.axis}", params["S"] / params[self.axis]

    def exponent(self, scheme: str, gamma: float) -> float:
        """Predicted throughput exponent in the fit axis."""
        return self.exponents[scheme](gamma)


GAMMA_LT1 = Regime(
    name="gamma_lt1",
    gamma_above_1=False,
    driver="M",
    axis="M",
    shrink=lambda ratio, gamma: ratio ** (1.0 / (2.0 - gamma)),
    exponents={
        "scenario1": lambda gamma: 1.0,  # throughput ~ (S/M)^1
        "scenario2": lambda gamma: (1.0 - gamma) / (2.0 - gamma),
    },
    q_warn_divisor=1,
    q_warning=(
        "plateau q={q} exceeds library size M={M}; the popularity law is nearly "
        "uniform and the heavy-tailed scalings will be washed out"
    ),
)

GAMMA_GT1 = Regime(
    name="gamma_gt1",
    gamma_above_1=True,
    driver="q",
    axis="q",
    shrink=lambda ratio, gamma: math.sqrt(ratio),
    exponents={
        "scenario1": lambda gamma: 1.0,  # throughput ~ (S/q)^1
        "scenario2": lambda gamma: 0.5,  # throughput ~ (S/q)^(1/2)
    },
    q_warn_divisor=10,
    q_warning=(
        "light-tailed regime expects q well below M, got q={q}, M={M}; scaling "
        "predictions may be off at this size"
    ),
)

# constant-plateau regime: constant throughput, no slot-2 tuning rule
ZIPF_GT1 = Regime(
    name="zipf_gt1",
    gamma_above_1=True,
    driver=None,
    axis="M",
    shrink=None,
    exponents={"scenario1": lambda gamma: 0.0},
)

REGIMES = {r.name: r for r in (GAMMA_LT1, GAMMA_GT1, ZIPF_GT1)}
