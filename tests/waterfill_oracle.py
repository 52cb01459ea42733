"""Reference water-filling solve: bisection on the KKT multiplier over the
full library, pass after pass. d2dcache.caching solves the same problem
exactly on one linear piece of the budget and is checked against this."""

from __future__ import annotations

import numpy as np

SUM_TOL = 1e-9
MU_REL_TOL = 1e-12
MAX_BISECT = 200


def bisection_waterfill(prob_mass: np.ndarray, S: int, g_c: float) -> np.ndarray:
    """Minimize sum p*exp(-g_c*Pc) s.t. sum Pc = S, 0 <= Pc <= 1.

    KKT: Pc(f) = clip(ln(g_c*p_f/mu)/g_c, 0, 1); mu found by bisection on
    ln(mu). The budget sum is continuous and non-increasing in mu.
    """
    with np.errstate(divide="ignore"):
        log_gp = np.log(g_c) + np.log(prob_mass)
    finite = log_gp[np.isfinite(log_gp)]  # underflowed tail mass stays at Pc = 0
    lo = float(finite.min()) - g_c  # every finite-mass file saturated -> sum >= S
    hi = float(finite.max())        # every file at zero -> sum = 0 <= S
    pc = np.empty_like(prob_mass)
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        np.clip((log_gp - mid) / g_c, 0.0, 1.0, out=pc)
        total = float(pc.sum())
        if abs(total - S) <= 0.1 * SUM_TOL:
            break
        if total > S:
            lo = mid
        else:
            hi = mid
        if hi - lo <= MU_REL_TOL * max(1.0, abs(hi)):
            break
    # close the residual budget gap on the unsaturated coordinates
    residual = S - float(pc.sum())
    if residual != 0.0:
        free = (pc > 0.0) & (pc < 1.0)
        if not free.any():
            free = pc < 1.0 if residual > 0 else pc > 0.0
        n_free = int(free.sum())
        if n_free:
            pc[free] += residual / n_free
            np.clip(pc, 0.0, 1.0, out=pc)
    return pc
