import math

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
    for M, gamma, q in ((0, 0.5, 0.0), (3, -0.1, 0.0), (3, 0.5, -1.0)):
        with pytest.raises(ValueError):
            PopularityModel(M=M, gamma=gamma, q=q)
    for key, gamma, q in (("gamma", np.nan, 0.0), ("q", 0.5, np.nan)):
        with pytest.raises(ValueError, match=f"^{key} must be non-negative, got nan"):
            PopularityModel(M=5, gamma=gamma, q=q)
    for key, gamma, q in (("gamma", math.inf, 0.0), ("q", 0.5, math.inf)):
        with pytest.raises(ValueError, match=f"^{key} must be finite, got inf$"):
            PopularityModel(M=10, gamma=gamma, q=q)


UNDERFLOW = (
    "every popularity weight (f+q)^-gamma underflows to 0 at gamma=100.0 and q=1000000.0: "
    "decrease gamma or q"
)


def test_model_whose_every_weight_underflows_is_rejected():
    # (1 + 1e6)^-100 = 1e-600 is below the smallest double: the pmf would be 0/0
    with pytest.raises(ValueError) as err:
        PopularityModel(M=10, gamma=100.0, q=1e6)
    assert str(err.value) == UNDERFLOW
    # 1001^-100 = 1e-300 is a normal double: a finite pmf
    t = PopularityModel(M=10, gamma=100.0, q=1e3).pmf_table
    assert np.isfinite(t).all() and abs(math.fsum(t.tolist()) - 1.0) <= 1e-15


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
def test_pmf_table_never_increases(M, gamma, q):
    # the water-filling solve takes this order exactly, without a tolerance
    t = PopularityModel(M=M, gamma=gamma, q=q).pmf_table
    assert np.all(t[1:] <= t[:-1])


def _term_sum(m: PopularityModel, lo: int) -> float:
    """H(lo, M) by fsum over its terms: the table's weights for the 1024-term
    head, and (f+q)^-gamma by np.power past it, each within an ulp and
    unbiased. exp(-gamma*log(f+q)) is not: where gamma is a few ulps off an
    integer, gamma*log(f+q) rounds one way more often than the other, and
    the fsum of those weights strays up to 10 ulp from the exact sum."""
    x = np.arange(lo, m.M + 1, dtype=np.float64) + m.q
    head = np.exp(-m.gamma * np.log(x[:1024]))
    return math.fsum([*head.tolist(), *np.power(x[1024:], -m.gamma).tolist()])


def _check_norm_and_tail(m: PopularityModel, b: int):
    """norm within 2 ulp and tail_mass(b) within 1e-15 of the sums of their
    terms, and each power sum's error bound under 2^-53 of the sum."""
    norm = _term_sum(m, 1)
    assert abs(m.norm - norm) <= 2 * math.ulp(norm)
    tail = _term_sum(m, b + 1) / norm
    assert abs(m.tail_mass(b) - tail) <= 1e-15 * tail
    for lo in (1, b + 1):
        total, bound = m._power_sum(lo, m.M)
        assert bound <= 2.0**-53 * total


@settings(max_examples=60, deadline=None)
@given(
    M=st.integers(1, 200_000),
    gamma=st.one_of(st.sampled_from([0.0, 1.0, 1.0 - 1e-9, 1.0 + 1e-9]), st.floats(0.0, 3.0)),
    q=st.floats(0.0, 1e4),
    data=st.data(),
)
def test_norm_and_tail_match_exact_sums(M, gamma, q, data):
    _check_norm_and_tail(PopularityModel(M=M, gamma=gamma, q=q), data.draw(st.integers(0, M)))


# the libraries of scripts/configs and of the bench workloads
SHIPPED_MODELS = [
    *((M, 0.6, 10.0) for M in (256, 512, 1024, 2048, 4096)),
    *((int(50 * q), 1.5, q) for q in (64.0, 128.0, 256.0, 512.0, 1024.0)),
    (400, 0.6, 20.0),
    (2_000_000, 0.6, 2.0),
]


@pytest.mark.parametrize("M, gamma, q", SHIPPED_MODELS)
def test_norm_and_tail_match_the_table_on_shipped_models(M, gamma, q):
    """The one normaliser against the table it divides: within 2 ulp of the
    fsum over every weight, and each tail within 1e-15 of numpy's sum of the
    table past b."""
    m = PopularityModel(M=M, gamma=gamma, q=q)
    f = np.arange(1, M + 1, dtype=np.float64)
    exact = math.fsum(np.exp(-gamma * np.log(f + q)).tolist())
    assert abs(m.norm - exact) <= 2 * math.ulp(exact)
    for b in (0, M // 10, M // 2, max(0, M - 1500), M):
        tail = float(np.add.reduce(m.pmf_table[b:]))
        assert abs(m.tail_mass(b) - tail) <= 1e-15 * tail
    _check_norm_and_tail(m, M // 10)


def test_norm_and_tail_edge_cases_are_exact():
    one = PopularityModel(M=1, gamma=1.3, q=2.5)
    assert (one.tail_mass(0), one.tail_mass(1)) == (1.0, 0.0)
    head = PopularityModel(M=1024, gamma=0.8, q=2.0)  # no Euler-Maclaurin part
    assert head.norm == math.fsum(head._weights(1, 1024).tolist())
    assert PopularityModel(M=3000, gamma=0.8, q=2.0).tail_mass(3000) == 0.0
    _check_norm_and_tail(PopularityModel(M=1025, gamma=0.7, q=0.0), 1024)  # one file past the head
    # gamma = 1 exactly past the head: the integral's logarithm branch
    _check_norm_and_tail(PopularityModel(M=5000, gamma=1.0, q=0.0), 2500)
    for M in (7, 1025, 5000, 200_000):
        for q in (0.0, 3.7, 9999.123456789):  # 3.7 and 9999.12... round by several shifts
            flat = PopularityModel(M=M, gamma=0.0, q=q)
            assert flat.norm == M
            tails = [flat.tail_mass(b) for b in (0, 1, M // 3, M)]
            assert tails == [1.0, (M - 1) / M, (M - M // 3) / M, 0.0]


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
