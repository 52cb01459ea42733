import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dcache.analysis import (
    RESIDUAL_TOL,
    FixedPointConstants,
    fit_loglog,
    po_sec_gamma_lt1,
    solve_c1_c2,
)
from d2dcache.config import config_from_dict
from d2dcache.regimes import REGIMES
from d2dcache.caching import closed_form_outage, optimize_policy
from d2dcache.popularity import PopularityModel
from d2dcache.validate import cluster_outage_mc

# C1 / (sqrt(2) * x^(-1/2)) at x = eps'*alpha1'/gamma in {1e-4, 1e-6, 1e-8},
# frozen from an mpmath findroot run at 50 digits
ASYMPTOTE_RATIOS = {1e-4: 1.00471959, 1e-6: 1.00047146, 1e-8: 1.00004714}


def test_fixed_point_q_zero():
    fp = solve_c1_c2(5.0, 0.0, 2, 0.7)
    assert fp.C1 == 1.0 and fp.C2 == 0.0


@settings(max_examples=200, deadline=None)
@given(
    gc=st.floats(1e-3, 1e6),
    q=st.floats(0.0, 1e6),
    gamma=st.floats(0.01, 4.0),
    S=st.integers(1, 16),
)
def test_fixed_point_residual_contract(gc, q, gamma, S):
    fp = solve_c1_c2(gc, q, S, gamma)
    assert abs(fp.residual) <= RESIDUAL_TOL * max(1.0, fp.C1)
    assert fp.C1 >= 1.0


def test_fixed_point_rejects_bad_inputs():
    for bad in (
        lambda: solve_c1_c2(0.0, 1.0, 1, 0.6),
        lambda: solve_c1_c2(math.nan, 1.0, 1, 0.6),
        lambda: solve_c1_c2(1.0, 1.0, 0, 0.6),
        lambda: FixedPointConstants(C1=0.5, C2=1.0, residual=0.0),
        lambda: FixedPointConstants(C1=2.0, C2=1.0, residual=1e-9),
        lambda: FixedPointConstants(C1=2.0, C2=1.0, residual=math.nan),
    ):
        with pytest.raises(ValueError):
            bad()


def test_fixed_point_tiny_c2_residual():
    # below C2 = 1e-17 the root is C1 = 1 to double precision; 5e-324
    # overflows C1/C2 and takes the residual's logarithm branch
    for c2 in (1e-24, 1e-20, 1e-18, 5e-324):
        fp = solve_c1_c2(1.0, c2, 1, 1.0)
        assert abs(fp.residual) <= 1e-15, (c2, fp)


def test_fixed_point_monotone_in_c2():
    vals = [solve_c1_c2(1.0, q, 1, 1.0).C1 for q in (0.1, 1.0, 10.0, 100.0, 1e4)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_small_cluster_asymptote():
    ratios = []
    for x, expect in ASYMPTOTE_RATIOS.items():
        fp = solve_c1_c2(1.0, 1.0 / x, 1, 1.0)  # C2 = 1/x
        ratio = fp.C1 / (math.sqrt(2.0) * x**-0.5)
        assert ratio == pytest.approx(expect, abs=1e-6)
        assert fp.C1 / fp.C2 == pytest.approx(math.sqrt(2.0 * x), rel=0.01)
        ratios.append(ratio)
    # convergence toward 1 is monotone as the regime deepens
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_po_lt1_in_range_over_grid():
    m = PopularityModel(M=100_000, gamma=0.6, q=20.0)
    for k in range(2, 12):
        v = po_sec_gamma_lt1(2.0**-k * m.M / 2, m, 2)
        assert 0.0 <= v <= 1.0


def test_po_lt1_rejects_out_of_regime():
    for gc, m in ((1e6, PopularityModel(M=100, gamma=0.6, q=0.0)),
                  (10.0, PopularityModel(M=100, gamma=1.5, q=5.0))):
        with pytest.raises(ValueError):
            po_sec_gamma_lt1(gc, m, 2)


def test_po_lt1_doubling_scaling():
    # deep in the small-occupancy regime, doubling the driving product scales
    # the hit probability by 2^(1-gamma) within 5%
    m = PopularityModel(M=2_000_000, gamma=0.6, q=2.0)
    ph = lambda er: 1.0 - po_sec_gamma_lt1(er * m.M / 2, m, 2)
    ratio = ph(2.0**-9) / ph(2.0**-10)
    assert ratio == pytest.approx(2.0**0.4, rel=0.05)


def test_po_lt1_matches_cluster_monte_carlo():
    # the small-cluster law within 3 SE of the Poisson-occupancy cluster
    # oracle at occupancies eps_rho * M / S, S = 2
    m = PopularityModel(M=200_000, gamma=0.6, q=50.0)
    rng = np.random.Generator(np.random.PCG64(424242))
    for gc in (2.0**-5 * m.M / 2, 2.0**-8 * m.M / 2):
        p_mc, se = cluster_outage_mc(m, optimize_policy(m, 2, gc), gc, 100_000, rng)
        assert abs(p_mc - po_sec_gamma_lt1(gc, m, 2)) <= 3.0 * se, f"gc={gc}: {p_mc}"


def test_exact_hit_doubling_gt1():
    # light-tailed small clusters: the exact Poisson hit probability of the
    # solved policy, the quantity `analyze` reports, doubles with occupancy
    m = PopularityModel(M=200_000, gamma=1.5, q=2000.0)

    def ph(ea):
        gc = ea * m.q / 2
        return 1.0 - closed_form_outage(optimize_policy(m, 2, gc), m, gc)

    assert ph(2.0**-9) / ph(2.0**-10) == pytest.approx(2.0, rel=0.05)


def test_predicted_exponents():
    lt1, gt1, zipf = REGIMES["gamma_lt1"], REGIMES["gamma_gt1"], REGIMES["zipf_gt1"]
    assert lt1.exponent("scenario2", 0.6) == pytest.approx(0.2857142857, abs=1e-9)
    assert lt1.exponent("scenario1", 0.6) == 1.0
    assert gt1.exponent("scenario1", 1.5) == 1.0
    assert gt1.exponent("scenario2", 1.5) == 0.5
    assert zipf.exponent("scenario1", 1.5) == 0.0
    # floats, so results.json prints 1.0, not 1
    assert all(
        isinstance(r.exponent(s, 0.6 if r is lt1 else 1.5), float)
        for r in REGIMES.values() for s in r.exponents
    )
    # gamma -> 0 limit of the heavy-tailed double-slot exponent
    assert lt1.exponent("scenario2", 1e-12) == pytest.approx(0.5, abs=1e-9)
    base = {"scheme": "scenario2", "N": 2000, "M": 50, "S": 2, "q": 5.0,
            "rho_or_alpha1": 3.0, "n_realizations": 1, "base_seed": 0}
    with pytest.raises(ValueError, match="gamma < 1"):
        config_from_dict({**base, "regime": "gamma_lt1", "gamma": 1.5})
    with pytest.raises(ValueError, match="regime"):
        config_from_dict({**base, "regime": "nonsense", "gamma": 0.5})


def test_fit_loglog_exact_square():
    x = np.linspace(1.0, 9.0, 9)
    fit = fit_loglog(x, x**2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_loglog_constant():
    fit = fit_loglog([1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-14)


def test_fit_loglog_noisy_recovery():
    rng = np.random.Generator(np.random.PCG64(5150))
    x = np.logspace(0, 2, 10)
    y = 3.0 * x**0.7 * (1.0 + 0.01 * rng.standard_normal(10))
    fit = fit_loglog(x, y)
    assert abs(fit.slope - 0.7) <= 3.0 * fit.slope_stderr
    assert fit.n_points == 10


def test_fit_loglog_errors():
    for x, y in (([1.0, -2.0], [1.0, 1.0]), ([1.0], [1.0]), ([2.0, 2.0], [1.0, 3.0]),
                 ([1.0, 2.0], [1.0, 2.0, 3.0])):
        with pytest.raises(ValueError):
            fit_loglog(x, y)
