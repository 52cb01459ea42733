import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d2dcache.popularity import PopularityModel, sample_request


def test_harmonic_single_term():
    # the normaliser H(1, M) of a one-file library is its single term
    assert PopularityModel(M=1, gamma=1.3, q=2.5).pmf_table.tolist() == [1.0]


def test_harmonic_classic_values():
    # H(1, 3) = 11/6 at gamma = 1, q = 0, and H(1, 7) = 7 at gamma = 0
    m = PopularityModel(M=3, gamma=1.0, q=0.0)
    assert m.pmf_table == pytest.approx([6.0 / 11.0, 3.0 / 11.0, 2.0 / 11.0], abs=1e-12)
    m7 = PopularityModel(M=7, gamma=0.0, q=5.0)
    assert m7.pmf_table == pytest.approx([1.0 / 7.0] * 7, abs=1e-12)


def test_pmf_values():
    assert PopularityModel(M=1, gamma=2.0, q=3.0).pmf_table[0] == pytest.approx(1.0)
    assert PopularityModel(M=5, gamma=0.0, q=0.0).pmf_table[2] == pytest.approx(0.2)
    assert PopularityModel(M=2, gamma=1.0, q=0.0).pmf_table[0] == pytest.approx(2.0 / 3.0)


def test_model_validation():
    with pytest.raises(ValueError):
        PopularityModel(M=0, gamma=0.5, q=0.0)
    with pytest.raises(ValueError):
        PopularityModel(M=3, gamma=-0.1, q=0.0)
    with pytest.raises(ValueError):
        PopularityModel(M=3, gamma=0.5, q=-1.0)


@settings(max_examples=60, deadline=None)
@given(
    M=st.integers(1, 2000),
    gamma=st.floats(0.0, 6.0, allow_nan=False),
    q=st.floats(0.0, 1e4, allow_nan=False),
)
def test_pmf_sums_to_one_and_monotone(M, gamma, q):
    m = PopularityModel(M=M, gamma=gamma, q=q)
    t = m.pmf_table
    assert abs(float(t.sum()) - 1.0) <= 1e-12
    assert np.all(np.diff(t) <= 1e-15)


@settings(max_examples=20, deadline=None)
@given(
    M=st.integers(1, 2_000_000),
    gamma=st.one_of(st.just(0.0), st.floats(0.0, 6.0)),
    q=st.floats(0.0, 1e4),
)
@example(M=2_000_000, gamma=0.0, q=0.0)
@example(M=2_000_000, gamma=0.6, q=2.0)
def test_pmf_table_non_increasing(M, gamma, q):
    # the water-filling solve takes this order exactly, without a tolerance
    t = PopularityModel(M=M, gamma=gamma, q=q).pmf_table
    assert np.all(t[1:] <= t[:-1])


def test_q_zero_reduces_to_zipf():
    m = PopularityModel(M=50, gamma=1.2, q=0.0)
    for f in (2, 7, 50):
        ratio = m.pmf_table[f - 1] / m.pmf_table[0]
        assert ratio == pytest.approx(f**-1.2, abs=1e-12)


def test_sampling_degenerate_and_deterministic():
    m1 = PopularityModel(M=1, gamma=0.7, q=0.0)
    rng = np.random.Generator(np.random.PCG64(5))
    assert np.array_equal(sample_request(m1, rng, size=20), np.ones(20))

    m = PopularityModel(M=100, gamma=0.8, q=10.0)
    a = sample_request(m, np.random.Generator(np.random.PCG64(123)), size=50)
    b = sample_request(m, np.random.Generator(np.random.PCG64(123)), size=50)
    assert np.array_equal(a, b)


def test_sampling_frequencies_match_pmf():
    # 1e6 draws, every file within 4 binomial standard deviations
    m = PopularityModel(M=100, gamma=0.8, q=10.0)
    rng = np.random.Generator(np.random.PCG64(987))
    n = 1_000_000
    draws = sample_request(m, rng, size=n)
    counts = np.bincount(draws, minlength=m.M + 1)[1:]
    p = m.pmf_table
    sd = np.sqrt(n * p * (1 - p))
    z = np.abs(counts - n * p) / sd
    assert float(z.max()) <= 4.0
