import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dcache.phy import (
    PhyConfig,
    interference_series_constant,
    interference_upper_bound,
    path_gain,
    sinr_floor,
)
from d2dcache.validate import check_log_inequality
from link_oracle import link_rate

ZETA3 = 1.2020569031595943  # independent value of sum i^-3
# sum i^(1-alpha) by direct partial sums (up to 1e8 terms) with an
# integral-bracketed tail, accurate to 1e-10 relative
PARTIAL_SUMS = {
    2.01: 100.577943338499,
    2.1: 10.584448464950801,
    2.5: 2.6123753486854886,
    3.0: 1.644934066848227,
    4.0: 1.2020569031595947,
    6.0: 1.03692775514337,
}


def cfg(**kw):
    base = dict(chi=1.0, alpha=4.0, N0=1e-6, B=1.0, Pmax=1.0, K=1, gain_cap=1.0)
    base.update(kw)
    return PhyConfig(**base)


def test_config_validation():
    for bad in ({"alpha": 2.0}, {"gain_cap": 1.5}, {"K": 0}, {"Pmax": 0.0}):
        with pytest.raises(ValueError):
            cfg(**bad)


def test_path_gain_values():
    c = cfg()
    assert path_gain(1.0, c) == pytest.approx(1.0)
    assert path_gain(0.0, c) == pytest.approx(1.0)  # cap at zero distance
    assert path_gain(2.0, c) == pytest.approx(1.0 / 16.0)
    c2 = cfg(gain_cap=0.5)
    assert path_gain(1e-9, c2) == pytest.approx(0.5)
    arr = path_gain(np.array([0.0, 1.0, 2.0]), c)
    assert np.allclose(arr, [1.0, 1.0, 1.0 / 16.0])


def test_link_rate_no_interferers_unit_snr():
    # place the pair so that P*gain equals the sub-channel noise power
    c = cfg(chi=1e-6, N0=1.0, B=1.0)
    pos = np.array([[0.0, 0.0], [0.0, 1.0]])  # distance 1 -> gain chi = 1e-6
    bu = 1e-6  # B_u*N0 = 1e-6 = signal
    rate = link_rate((0, 1), [(0, 1)], pos, c, bu)
    assert rate == pytest.approx(bu, rel=1e-12)  # log2(2) = 1


def test_link_rate_mirror_symmetry():
    c = cfg(chi=1e-4)
    pos = np.array([[0.1, 0.5], [0.2, 0.5], [0.9, 0.5], [0.8, 0.5]])
    pairs = [(0, 1), (2, 3)]
    bu = c.subchannel_bandwidth
    rates = [link_rate(pair, pairs, pos, c, bu) for pair in pairs]
    assert rates[0] == pytest.approx(rates[1], rel=1e-12)


def test_link_rate_monotone_in_interferer_power():
    # an interferer at Pmax delivers more power as it nears the receiver
    c = cfg(chi=1e-4)
    bu = c.subchannel_bandwidth
    rates = []
    for x_int in (0.9, 0.6, 0.4):
        pos = np.array([[0.1, 0.5], [0.2, 0.5], [x_int, 0.5], [x_int + 0.05, 0.5]])
        rates.append(link_rate((0, 1), [(0, 1), (2, 3)], pos, c, bu))
    assert rates[0] > rates[1] > rates[2]


def test_interference_series_alpha4():
    assert interference_series_constant(4.0) == pytest.approx(ZETA3, rel=1e-10)
    for alpha in (3.0, 4.0, 6.0):
        assert interference_series_constant(alpha) == pytest.approx(PARTIAL_SUMS[alpha], rel=1e-10)
    with pytest.raises(ValueError):
        interference_series_constant(2.0)


def test_interference_series_near_two():
    # zeta(1.5) = 2.612375348685488
    assert interference_series_constant(2.5) == pytest.approx(2.612375348685488, rel=1e-9)
    for alpha in (2.01, 2.1, 2.5):
        assert interference_series_constant(alpha) == pytest.approx(PARTIAL_SUMS[alpha], rel=1e-10)


def test_interference_upper_bound_value():
    c = cfg()
    val = interference_upper_bound(0.1, c)
    assert val == pytest.approx(5000.0 * ZETA3, rel=1e-9)
    for bound in (interference_upper_bound, sinr_floor):
        for d in (0.0, math.nan):
            with pytest.raises(ValueError, match=f"cluster side must be positive, got {d}"):
                bound(d, c)


def test_interference_bound_decreasing_in_K():
    vals = [
        interference_upper_bound(0.1, cfg(K=K))
        for K in (1, 2, 3, 5)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sinr_floor_monotone_in_K():
    vals = [sinr_floor(0.2, cfg(chi=1e-11, K=K)) for K in (1, 2, 3)]
    assert vals[0] < vals[1] < vals[2]


def test_sinr_floor_noise_free_limit():
    # N0 -> 0: floor -> (1/(8 I_c)) * ((K+1)/sqrt(2))^alpha, d-free
    c = cfg(N0=1e-30)
    expect = (1.0 / (8.0 * ZETA3)) * ((2.0) / math.sqrt(2.0)) ** 4
    for d in (0.05, 0.2, 0.7):
        assert sinr_floor(d, c) == pytest.approx(expect, rel=1e-6)


def test_bounds_read_pmax():
    # every link at Pmax: scaling Pmax and N0 together leaves the floor and
    # scales the ring bound
    base = cfg(chi=1e-11, N0=1e-6, Pmax=1.0)
    for factor in (0.25, 3.0, 1e3):
        scaled = cfg(chi=1e-11, N0=1e-6 * factor, Pmax=factor)
        for d in (0.05, 0.2):
            assert sinr_floor(d, scaled) == pytest.approx(sinr_floor(d, base), rel=1e-12)
            assert interference_upper_bound(d, scaled) == pytest.approx(
                factor * interference_upper_bound(d, base), rel=1e-12
            )


def test_sinr_capped_by_gain_cap():
    # with the cap active, SINR <= Pmax*gain_cap/(B_u*N0) whatever the distance
    c = cfg(chi=1.0, gain_cap=1.0)
    bu = c.subchannel_bandwidth
    pos = np.array([[0.0, 0.0], [0.0, 1e-12]])
    rate = link_rate((0, 1), [(0, 1)], pos, c, bu)
    assert rate <= bu * math.log2(1.0 + c.Pmax * c.gain_cap / (bu * c.N0)) + 1e-9


def test_bounded_model_ceiling():
    # bounded-model toggle clamps the rate map, not the physical SINR
    c_off = cfg(chi=1e-6, N0=1.0, B=1.0)
    c_on = cfg(chi=1e-6, N0=1.0, B=1.0, sinr_ceiling=0.5)
    pos = np.array([[0.0, 0.0], [0.0, 1.0]])
    full = link_rate((0, 1), [(0, 1)], pos, c_off, 1e-6)
    clamped = link_rate((0, 1), [(0, 1)], pos, c_on, 1e-6)
    assert clamped == pytest.approx(1e-6 * math.log2(1.5), rel=1e-12)
    assert clamped < full
    with pytest.raises(ValueError):
        cfg(sinr_ceiling=-1.0)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(1e-9, 100.0), a=st.floats(1.0, 8.0))
def test_log_inequality_property(x, a):
    assert math.log1p(x**a) <= a * x + 1e-12


def test_log_inequality_bulk():
    assert check_log_inequality(2024, 100_000).passed
