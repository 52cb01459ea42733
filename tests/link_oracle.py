"""Scalar reference for link rates: one link at a time, interference summed in
a Python loop. The vectorized co-channel path in d2dcache.schemes is checked
against it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from d2dcache.phy import PhyConfig, path_gain


@dataclass(frozen=True)
class ActiveLink:
    tx: int
    rx: int
    power: float
    subchannel: int


@dataclass(frozen=True)
class ActiveSet:
    """Links sharing the air at one scheduling step, plus user positions.

    The scheduler guarantees at most one active TX per (cell, subchannel);
    this container only checks the power range.
    """

    links: tuple[ActiveLink, ...]
    positions: np.ndarray
    Pmax: float

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        for l in self.links:
            if not (0.0 < l.power <= self.Pmax):
                raise ValueError(f"link power {l.power} outside (0, Pmax={self.Pmax}]")


def link_rate(
    link: ActiveLink,
    active_set: ActiveSet,
    cfg: PhyConfig,
    subchannel_bandwidth: float,
) -> float:
    """Rate (bits/s) of one link given its co-channel companions."""
    pos = active_set.positions
    d_sig = float(np.hypot(*(pos[link.tx] - pos[link.rx])))
    if link.power == 0.0:
        return 0.0
    signal = link.power * path_gain(d_sig, cfg)
    interference = 0.0
    for other in active_set.links:
        if other is link or (other.tx == link.tx and other.rx == link.rx):
            continue
        if other.subchannel != link.subchannel:
            continue
        d_int = float(np.hypot(*(pos[other.tx] - pos[link.rx])))
        interference += other.power * path_gain(d_int, cfg)
    noise = subchannel_bandwidth * cfg.N0
    sinr = float(cfg.effective_sinr(signal / (noise + interference)))
    return subchannel_bandwidth * math.log2(1.0 + sinr)
