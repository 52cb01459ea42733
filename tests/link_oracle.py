"""Scalar references: link rates one link at a time with interference summed
in a Python loop, and the all-pairs co-channel interference. The vectorized
co-channel path in d2dcache.schemes is checked against both."""

from __future__ import annotations

import math

import numpy as np

from d2dcache.phy import PhyConfig, path_gain


def _distance(tx_pos: np.ndarray, rx_pos: np.ndarray) -> float:
    """sqrt(dx*dx + dy*dy) with dx = tx - rx: pairing's and the co-channel
    path's expression, in their operand order."""
    dx, dy = (tx_pos - rx_pos).tolist()
    return math.sqrt(dx * dx + dy * dy)


def link_rate(
    link: tuple[int, int],
    co_channel: list[tuple[int, int]],
    positions: np.ndarray,
    cfg: PhyConfig,
    bandwidth: float,
) -> float:
    """Rate (bits/s) of the (tx, rx) link among the (tx, rx) pairs sharing its
    channel, itself included; every transmitter sends at Pmax."""
    tx, rx = link
    signal = cfg.Pmax * path_gain(_distance(positions[tx], positions[rx]), cfg)
    interference = 0.0
    for other in co_channel:
        if other != link:
            d_int = _distance(positions[other[0]], positions[rx])
            interference += cfg.Pmax * path_gain(d_int, cfg)
    noise = bandwidth * cfg.N0
    sinr = float(cfg.effective_sinr(signal / (noise + interference)))
    return bandwidth * math.log2(1.0 + sinr)


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
