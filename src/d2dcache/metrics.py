"""Throughput, outage and transport-capacity extraction from scheme results.

Per-user throughput is bits per epoch. The network figure of merit is
the minimum over user indices of the across-realization mean throughput; the
outage probability is the mean fraction of users that no scheme slot served.
Transport capacity sums distance times average rate over scheduled pairs and
is checked against the closed-form upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .phy import PhyConfig, path_gain
from .schemes import SchemeResult


@dataclass
class ThroughputOutageEstimate:
    T_min_avg: float
    p_o_hat: float
    n_realizations: int
    std_errors: dict[str, float]
    mean_throughput: float

    def __post_init__(self):
        if not (0.0 <= self.p_o_hat <= 1.0):
            raise ValueError(f"outage estimate {self.p_o_hat} outside [0, 1]")
        if self.T_min_avg < 0:
            raise ValueError("throughput cannot be negative")


def mean_se(values) -> tuple[float, float]:
    """Mean of per-trial values and its standard error, 0 for one trial."""
    v = np.asarray(values, dtype=np.float64)
    se = float(v.std(ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0
    return float(v.mean()), se


@dataclass
class ThroughputAccumulator:
    """The one reduction of a point's trials, added in trial order so that it
    is deterministic: per-user throughput sums, and per trial the outage
    fraction, the network mean throughput, C_gamma and the transport-bound
    slack (NaN when unchecked), scalars only."""

    sum_t: np.ndarray = field(default_factory=lambda: np.empty(0))
    sum_t2: np.ndarray = field(default_factory=lambda: np.empty(0))
    trials: list = field(default_factory=list)

    def add(self, result: SchemeResult, c_gamma: float, slack: float) -> None:
        t = result.per_user_bits
        if not self.trials:
            self.sum_t, self.sum_t2 = np.zeros(len(t)), np.zeros(len(t))
        elif len(t) != len(self.sum_t):
            raise ValueError("all realizations must have the same number of users")
        self.sum_t += t
        self.sum_t2 += t * t
        self.trials.append((result.outage_fraction, float(t.mean()), c_gamma, slack))

    @property
    def n_real(self) -> int:
        return len(self.trials)

    @property
    def per_index_means(self) -> np.ndarray:
        return self.sum_t / self.n_real

    @property
    def per_index_vars(self) -> np.ndarray:
        m = self.per_index_means
        n = self.n_real
        if n < 2:
            return np.zeros_like(m)
        return np.maximum(self.sum_t2 / n - m * m, 0.0) * n / (n - 1)

    def finish(self) -> tuple[ThroughputOutageEstimate, float, float]:
        """The estimate, the mean C_gamma and the smallest slack over trials."""
        if not self.trials:
            raise ValueError("cannot estimate from zero realizations")
        means = self.per_index_means
        u_min = int(np.argmin(means))
        n = self.n_real
        se_tmin = math.sqrt(self.per_index_vars[u_min] / n) if n > 1 else 0.0
        outage, net_mean, c_gamma, slack = np.array(self.trials).T
        p_o, se_po = mean_se(outage)
        mean_t, se_mean = mean_se(net_mean)
        estimate = ThroughputOutageEstimate(
            T_min_avg=float(means[u_min]),
            p_o_hat=p_o,
            n_realizations=n,
            std_errors={"T_min_avg": se_tmin, "p_o_hat": se_po, "mean_throughput": se_mean},
            mean_throughput=mean_t,
        )
        return estimate, float(c_gamma.mean()), float(slack.min())


def _concat(parts: list, dtype=np.float64) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype)


def _transport(distance, rate, airtime: float) -> np.ndarray:
    """Transport of links held for an airtime share of the epoch: distance
    times average rate, in meter-bits per epoch."""
    return distance * (rate * airtime)


def _link_transport(result: SchemeResult) -> np.ndarray:
    """Every link's transport, the slots' link tables concatenated in slot order."""
    return _concat(
        [_transport(s.link_distance, s.link_rate, s.airtime) for s in result.slots]
    )


def transport_capacity(result: SchemeResult) -> float:
    """C_gamma = sum over links of distance * average rate (meter-bits per epoch),
    summed without BLAS so that no BLAS thread count enters the result."""
    return float(np.add.reduce(_link_transport(result)))


def bound_constant(alpha: float) -> float:
    """alpha*(3*sqrt(2)+1) + 2*(2*(sqrt(2)+1))^alpha."""
    return alpha * (3.0 * math.sqrt(2.0) + 1.0) + 2.0 * (2.0 * (math.sqrt(2.0) + 1.0)) ** alpha


def check_transport_bound(result: SchemeResult, phy: PhyConfig, R0: float) -> float:
    """Slack RHS - LHS of the transport-capacity upper bound on one realized
    schedule; the bound holds when it is >= 0.

    The schedule is read off the per-slot link tables: the first link of each
    resource in a slot is that resource's max-power representative. LHS is
    transport_capacity. RHS adds, per time-frequency resource, the
    representative's noise-only transport and the actual transport of short
    (< R0) non-representative links, plus the closed-form term
    B*log2(e)/eps0 * sqrt(SN/(rho' M)) * C(alpha). R0 = eps0*sqrt(rho' M/(S N))
    makes sqrt(SN/(rho' M)) = eps0/R0, so eps0 cancels and the term is
    B*log2(e)*C(alpha)/R0: R0 is all the bound needs.
    """
    if not R0 > 0:
        raise ValueError(f"R0 must be positive, got {R0}")
    cw_parts, short = [], []
    # resource keys restart in every slot, so representatives are found per slot
    for s in result.slots:
        w = np.ones(len(s.link_res), dtype=bool)
        w[1:] = s.link_res[1:] != s.link_res[:-1]
        d, bw = s.link_distance[w], s.bandwidth
        rate_alone = bw * np.log2(1.0 + phy.Pmax * path_gain(d, phy) / (phy.N0 * bw))
        cw_parts.append(_transport(d, rate_alone, s.airtime))
        short.append(~w & (s.link_distance < R0))
    transport = _link_transport(result)
    cw_term = float(np.add.reduce(_concat(cw_parts)))
    cr0_term = float(np.add.reduce(transport[_concat(short, bool)]))

    third = phy.B * math.log2(math.e) / R0 * bound_constant(phy.alpha)

    # LHS is transport_capacity's sum of the same array
    return cw_term + cr0_term + third - float(np.add.reduce(transport))
