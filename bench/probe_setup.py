"""Time one workload's set-up in a fresh interpreter and print it as JSON.

    python3 bench/probe_setup.py SRC_DIR WORKLOAD

Set-up is the package import, the config build and runner.build_point_inputs
(policy solve, epsilon) for a Monte Carlo workload, and the import and the
popularity table build for the hit-probability curve.
"""

import json
import sys
import time

from workloads import WORKLOADS, MonteCarlo


def main() -> None:
    src, name = sys.argv[1], sys.argv[2]
    wl = WORKLOADS[name]
    sys.path.insert(0, src)
    start = time.perf_counter()
    if isinstance(wl, MonteCarlo):
        from d2dcache import runner
        from d2dcache.config import config_from_dict

        cfg = config_from_dict({**wl.config, "n_realizations": 1, "base_seed": 0})
        runner.build_point_inputs(cfg)
    else:
        from d2dcache.popularity import PopularityModel

        PopularityModel(M=wl.M, gamma=wl.gamma, q=wl.q).pmf_table
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
