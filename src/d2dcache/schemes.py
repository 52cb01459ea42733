"""Achievable transmission schemes.

Scenario 1 (equal throughput): the epoch splits into a TDMA half, where
every served pair gets a 1/(2N) share of it alone in the full band, and a
clustered half, where reuse-colored clusters round-robin their pairs, one
active TX per cluster at a time.

Scenario 2 (double time-slot): the clustered machinery runs twice, first with
the nominal cluster side against cache subspace 1, then with a shrunken side
sqrt(eps)*d against cache subspace 2, so short links carry bits at high rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ClusterGrid,
    NetworkRealization,
    PairingOutcome,
    build_grid,
    grid_from_target_side,
    n_reuse_colors,
    pair_within_clusters,
    reuse_color,
    segment_ids,
)
from .phy import PhyConfig, path_gain


@dataclass
class SlotResult:
    """Link table of one time slot: the slot's only record of who it served.

    The link_* arrays are parallel, one row per active link, and each user is
    the rx of at most one link. link_res is the time-frequency resource each
    link holds on bandwidth Hz for an airtime share of the epoch: a TDMA
    activation, or a (round, color) pair of a clustered slot. Links are grouped
    by link_res, and the first link of each resource is its max-power
    representative (every link transmits at Pmax), which the transport-capacity
    bound relies on. Resource keys restart in every slot. link_interference is
    the co-channel interference at each receiver, zero in a TDMA slot.
    """

    label: str
    link_rx: np.ndarray
    link_distance: np.ndarray
    link_rate: np.ndarray
    link_sinr: np.ndarray
    link_res: np.ndarray
    link_interference: np.ndarray
    airtime: float
    bandwidth: float
    cluster_side: float | None

    @property
    def n_links(self) -> int:
        return len(self.link_rx)

    @property
    def min_sinr(self) -> float:
        return float(self.link_sinr.min()) if len(self.link_sinr) else math.inf

    @property
    def max_interference(self) -> float:
        return float(self.link_interference.max()) if len(self.link_interference) else 0.0


@dataclass
class SchemeResult:
    """Epoch outcome: the link tables of every slot, read per user on demand."""

    n_users: int
    slots: list[SlotResult]

    @property
    def per_user_bits(self) -> np.ndarray:
        bits = np.zeros(self.n_users)
        for s in self.slots:
            bits[s.link_rx] += s.link_rate * s.airtime
        return bits

    @property
    def per_user_served(self) -> np.ndarray:
        served = np.zeros(self.n_users, dtype=bool)
        for s in self.slots:
            served[s.link_rx] = True
        return served

    @property
    def outage_fraction(self) -> float:
        return 1.0 - float(self.per_user_served.mean())

    def slot(self, label: str) -> SlotResult:
        for s in self.slots:
            if s.label == label:
                return s
        raise KeyError(f"no slot labelled {label!r}")


def _cochannel_interference(
    positions: np.ndarray,
    tx: np.ndarray,
    rx: np.ndarray,
    sizes: np.ndarray,
    phy: PhyConfig,
) -> np.ndarray:
    """Interference at every row's receiver from the other transmitters of its
    group; the groups are contiguous runs of rows of the given sizes.

    The groups are laid out by descending size, so the groups larger than j
    are a prefix of the layout, and pass j adds the j-th transmitter of each
    of them to that group's other receivers. Memory stays linear in the rows,
    and every receiver sums its interferers in ascending row order from 0.0.
    A pass evaluates the whole prefix and zeroes each group's own row j
    before adding, which is exact: the sums start at +0.0 and every term is
    non-negative. Distances are sqrt(dx*dx + dy*dy), as in pairing.
    """
    by_size = np.argsort(-sizes, kind="stable")
    lay_sizes = sizes[by_size]
    lay_ends = np.cumsum(lay_sizes)
    lay_starts = lay_ends - lay_sizes
    n_rows = int(lay_ends[-1])
    group = segment_ids(lay_starts, n_rows)
    first = lay_starts[group]  # layout row of each row's group's first link
    local = np.arange(n_rows) - first
    rows = (np.cumsum(sizes) - sizes)[by_size][group] + local
    tx_rows, rx_rows = tx[rows], rx[rows]
    txx, txy = positions[tx_rows, 0], positions[tx_rows, 1]
    rxx, rxy = positions[rx_rows, 0], positions[rx_rows, 1]
    # groups in pass j: those of more than max(j, 1) links
    n_groups = np.searchsorted(-lay_sizes, -np.maximum(np.arange(lay_sizes[0]), 1))
    interference = np.zeros(n_rows)
    dx_buf, dy_buf = np.empty(n_rows), np.empty(n_rows)
    for j, m in enumerate(n_groups.tolist()):
        if m == 0:
            break
        r = lay_ends[m - 1]
        src = first[:r] + j
        dx = np.subtract(txx[src], rxx[:r], out=dx_buf[:r])
        np.square(dx, out=dx)
        dy = np.subtract(txy[src], rxy[:r], out=dy_buf[:r])
        np.square(dy, out=dy)
        dx += dy
        gain = path_gain(np.sqrt(dx, out=dx), phy)
        gain *= phy.Pmax
        gain[lay_starts[:m] + j] = 0.0
        interference[:r] += gain
    out = np.empty(n_rows)
    out[rows] = interference
    return out


def _rate_links(
    label: str,
    rx: np.ndarray,
    distance: np.ndarray,
    interference: np.ndarray,
    res: np.ndarray,
    airtime: float,
    bandwidth: float,
    cluster_side: float | None,
    phy: PhyConfig,
) -> SlotResult:
    """The link table of a slot whose links all transmit at Pmax on
    `bandwidth` Hz, each rated by its SINR against the given interference."""
    sinr = phy.Pmax * path_gain(distance, phy) / (bandwidth * phy.N0 + interference)
    rate = bandwidth * np.log2(1.0 + phy.effective_sinr(sinr))
    return SlotResult(
        label, rx, distance, rate, sinr, res, interference, airtime, bandwidth, cluster_side
    )


def _clustered_bits(
    realization: NetworkRealization,
    pairing: PairingOutcome,
    grid: ClusterGrid,
    phy: PhyConfig,
    label: str,
) -> SlotResult:
    """Round-robin reuse-colored delivery of the paired links in half the epoch.

    Every cluster activates its next pair each round; all active pairs hold
    their color's sub-channel for 0.5/R_max of the epoch, R_max being the
    largest per-cluster pair count.
    """
    bw = phy.subchannel_bandwidth
    L = pairing.n_links
    if L == 0:
        no_res = np.empty(0, dtype=np.int64)
        return _rate_links(
            label, pairing.rx, pairing.distance, np.empty(0), no_res, 0.0, bw, grid.side, phy
        )

    # round index = rank of the link inside its cluster; rx already ascends
    cell = grid.cell_id[pairing.rx]
    order = np.argsort(cell, kind="stable")
    cell_sorted = cell[order]
    boundaries = np.concatenate(([0], np.nonzero(np.diff(cell_sorted))[0] + 1))
    counts = np.diff(np.concatenate((boundaries, [L])))
    rounds = np.arange(L, dtype=np.int64) - boundaries[segment_ids(boundaries, L)]
    r_max = int(counts.max())
    airtime = 0.5 / r_max

    colors = reuse_color(grid, phy.K)
    link_color = colors[cell_sorted]
    res_key = rounds * n_reuse_colors(phy.K) + link_color

    # group links by (round, color) resource and accumulate cross interference
    g_order = np.argsort(res_key, kind="stable")
    g_key = res_key[g_order]
    g_bound = np.concatenate(([0], np.nonzero(np.diff(g_key))[0] + 1))
    g_sizes = np.diff(np.concatenate((g_bound, [L])))

    link_idx = order[g_order]  # grouped order -> original pairing rows
    tx_g = pairing.tx[link_idx]
    rx_g = pairing.rx[link_idx]
    interference = _cochannel_interference(realization.positions, tx_g, rx_g, g_sizes, phy)
    return _rate_links(
        label, rx_g, pairing.distance[link_idx], interference, g_key, airtime, bw, grid.side, phy
    )


def _tdma_bits(
    realization: NetworkRealization,
    pairing: PairingOutcome,
    phy: PhyConfig,
) -> SlotResult:
    """Slot A: every served pair alone in the full band for 1/(2N) of the epoch."""
    L = pairing.n_links
    airtime = 1.0 / (2.0 * realization.n_users)
    return _rate_links(
        "tdma", pairing.rx, pairing.distance, np.zeros(L), np.arange(L), airtime, phy.B, None, phy
    )


def run_scenario1(
    realization: NetworkRealization,
    side: float,
    phy: PhyConfig,
) -> SchemeResult:
    """TDMA half plus clustered half over a single unsplit cache, clusters of
    target side `side`."""
    (caches,) = realization.caches
    grid = build_grid(grid_from_target_side(side), realization.positions)
    pairing = pair_within_clusters(realization, grid, caches)

    slot_a = _tdma_bits(realization, pairing, phy)
    slot_b = _clustered_bits(realization, pairing, grid, phy, "cluster")
    return SchemeResult(realization.n_users, [slot_a, slot_b])


def run_scenario2(
    realization: NetworkRealization,
    side1: float,
    side2: float,
    phy: PhyConfig,
) -> SchemeResult:
    """Double time-slot delivery over a split cache.

    Slot 1: clustered delivery, target side side1, cache subspace 1. Slot 2:
    clustered delivery, target side side2 (sqrt(eps)*side1), cache subspace 2.
    A user is in outage only if unserved in both slots.
    """
    caches1, caches2 = realization.caches
    grid1 = build_grid(grid_from_target_side(side1), realization.positions)
    grid2 = build_grid(grid_from_target_side(side2), realization.positions)
    pairing1 = pair_within_clusters(realization, grid1, caches1)
    pairing2 = pair_within_clusters(realization, grid2, caches2)

    slot1 = _clustered_bits(realization, pairing1, grid1, phy, "cluster1")
    slot2 = _clustered_bits(realization, pairing2, grid2, phy, "cluster2")
    return SchemeResult(realization.n_users, [slot1, slot2])
