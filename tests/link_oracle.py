"""Scalar references: link rates one link at a time with interference summed
in a Python loop, and the all-pairs co-channel interference. The vectorized
co-channel path in d2dcache.schemes is checked against both."""

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


def _distance(tx_pos: np.ndarray, rx_pos: np.ndarray) -> float:
    """sqrt(dx*dx + dy*dy) with dx = tx - rx: pairing's and the co-channel
    path's expression, in their operand order."""
    dx, dy = (tx_pos - rx_pos).tolist()
    return math.sqrt(dx * dx + dy * dy)


def link_rate(
    link: ActiveLink,
    active_set: ActiveSet,
    cfg: PhyConfig,
    subchannel_bandwidth: float,
) -> float:
    """Rate (bits/s) of one link given its co-channel companions."""
    pos = active_set.positions
    d_sig = _distance(pos[link.tx], pos[link.rx])
    if link.power == 0.0:
        return 0.0
    signal = link.power * path_gain(d_sig, cfg)
    interference = 0.0
    for other in active_set.links:
        if other is link or (other.tx == link.tx and other.rx == link.rx):
            continue
        if other.subchannel != link.subchannel:
            continue
        d_int = _distance(pos[other.tx], pos[link.rx])
        interference += other.power * path_gain(d_int, cfg)
    noise = subchannel_bandwidth * cfg.N0
    sinr = float(cfg.effective_sinr(signal / (noise + interference)))
    return subchannel_bandwidth * math.log2(1.0 + sinr)


def ordered_pairs_within_groups(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All ordered (victim, interferer) index pairs inside contiguous groups.

    sizes are group lengths over a flat array of sum(sizes) rows; returns
    global row indices (i, j), i != j, j in i's group, i-major.
    """
    sizes = sizes.astype(np.int64)
    n_pairs = sizes * (sizes - 1)
    total = int(n_pairs.sum())
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    pair_start = np.concatenate(([0], np.cumsum(n_pairs)[:-1]))
    p_local = np.arange(total, dtype=np.int64) - np.repeat(pair_start, n_pairs)
    n_of = np.repeat(sizes, n_pairs)
    i_local = p_local // (n_of - 1)
    j_local = p_local % (n_of - 1)
    j_local += j_local >= i_local
    base = np.repeat(starts, n_pairs)
    return base + i_local, base + j_local


def all_pairs_interference(
    tx_pos: np.ndarray, rx_pos: np.ndarray, sizes: np.ndarray, cfg: PhyConfig
) -> np.ndarray:
    """Co-channel interference at every row from every ordered pair of its
    group at once, summed by bincount: O(sum sizes^2) memory."""
    vic, intf = ordered_pairs_within_groups(sizes)
    if not len(vic):
        return np.zeros(len(rx_pos))
    dx = tx_pos[intf, 0] - rx_pos[vic, 0]
    dy = tx_pos[intf, 1] - rx_pos[vic, 1]
    w = cfg.Pmax * path_gain(np.sqrt(dx * dx + dy * dy), cfg)
    return np.bincount(vic, weights=w, minlength=len(rx_pos))
