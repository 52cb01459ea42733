"""Cache-aided single-hop D2D network simulator and analysis toolkit."""

from .popularity import PopularityModel, harmonic_sum, pmf, sample_request
from .caching import (
    CachingPolicy,
    SplitCachingPolicy,
    build_split_policy,
    closed_form_outage,
    optimize_policy,
)
from .geometry import (
    ClusterGrid,
    NetworkRealization,
    PairingOutcome,
    build_grid,
    build_realization,
    grid_from_target_side,
    pair_within_clusters,
    place_users,
    reuse_color,
)
from .phy import PhyConfig, interference_upper_bound, path_gain, sinr_floor
from .schemes import SchemeResult, run_scenario1, run_scenario2
from .metrics import check_transport_bound, transport_capacity
from .analysis import (
    FixedPointConstants,
    ScalingFit,
    fit_loglog,
    po_sec_gamma_gt1,
    po_sec_gamma_lt1,
    solve_c1_c2,
)
from .config import ExperimentConfig, load_config

__version__ = "0.1.0"
