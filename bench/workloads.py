"""The benchmark's pinned workloads.

The reasons each one is in the set are in BENCHMARK.json; the layer each one
stresses is in README.md. This module imports nothing from d2dcache, so the
set-up probe can time the package import itself.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MonteCarlo:
    """One sweep point run through ``runner.run`` in batches.

    config holds ExperimentConfig keys except n_realizations and base_seed,
    which each batch sets. A batch is trials_per_thread trials per worker.
    """

    name: str
    config: dict
    trials_per_thread: int


@dataclass(frozen=True)
class HitCurve:
    """Closed-form small-cluster hit-probability curve, as in criterion 2.

    One point per k in ks at mean occupancy 2^-k * M / S: policy solve,
    cluster outage of the solved policy, and the small-cluster formula; the
    curve ends with a log-log fit of the hit probability.
    """

    name: str
    M: int
    gamma: float
    q: float
    S: int
    ks: tuple
    slope: float
    slope_tol: float


WORKLOADS = {
    w.name: w
    for w in (
        # the acceptance family, scripts/configs/outage_match.yaml
        MonteCarlo(
            "family_s1",
            dict(scheme="scenario1", regime="gamma_lt1", N=20000, M=400, S=2,
                 gamma=0.6, q=20.0, rho_or_alpha1=4.0, check_bounds=True),
            trials_per_thread=10,
        ),
        # largest point of scripts/configs/scaling_lt1.yaml
        MonteCarlo(
            "lt1_s2_N204800",
            dict(scheme="scenario2", regime="gamma_lt1", N=204800, M=4096, S=4,
                 gamma=0.6, q=10.0, rho_or_alpha1=4.0, C_sec=4.0),
            trials_per_thread=1,
        ),
        # largest point of scripts/configs/scaling_gt1.yaml
        MonteCarlo(
            "gt1_s2_N204800",
            dict(scheme="scenario2", regime="gamma_gt1", N=204800, M=51200, S=4,
                 gamma=1.5, q=1024.0, rho_or_alpha1=4.0, C_sec=4.0),
            trials_per_thread=2,
        ),
        HitCurve("policy_M2e6", M=2_000_000, gamma=0.6, q=2.0, S=2,
                 ks=tuple(range(4, 11)), slope=0.4, slope_tol=0.05),
    )
}
