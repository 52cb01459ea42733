"""The realization draw: guide-table inverse-CDF searches equal plain
searches, each draw consumes one uniform, and pinned seeds pin the draw."""

import hashlib
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dcache import caching
from d2dcache.caching import (
    CachingPolicy,
    build_split_policy,
    optimize_policy,
    place_caches_batch,
)
from d2dcache.geometry import build_realization
from d2dcache.popularity import GuideTable, PopularityModel, sample_request

BELOW_ONE = np.nextafter(1.0, 0.0)


def _edge_queries(table: np.ndarray, S: int) -> np.ndarray:
    """Offsets in [0, 1) whose points u + j land on a table entry or one ulp
    either side of it, for every column j < S, plus 0.0 and the largest
    double below 1.0."""
    shifted = np.concatenate([table - j for j in range(S)])
    near = np.concatenate([shifted, np.nextafter(shifted, -np.inf), np.nextafter(shifted, np.inf)])
    near = np.concatenate([near, [0.0, BELOW_ONE]])
    return near[(near >= 0.0) & (near < 1.0)]


@st.composite
def _queries(draw, table: np.ndarray, S: int) -> np.ndarray:
    """An odd number of offsets, mixing edge queries and plain uniforms."""
    edges = _edge_queries(table, S)
    picks = draw(st.lists(st.one_of(
        st.sampled_from(edges.tolist()),
        st.floats(0.0, 1.0, exclude_max=True, allow_nan=False),
    ), min_size=1, max_size=60))
    return np.array(picks[: len(picks) - 1 + len(picks) % 2], dtype=np.float64)


@st.composite
def _policies(draw) -> caching.CachingPolicy:
    """Water-filled policies: steep laws with small occupancy leave flat runs
    of Pc = 0 files, large occupancy saturates files at Pc = 1, and S = M
    caches every file."""
    M = draw(st.integers(1, 40))
    S = draw(st.integers(1, min(4, M)))
    model = PopularityModel(M=M, gamma=draw(st.floats(0.0, 4.0)), q=draw(st.floats(0.0, 10.0)))
    return optimize_policy(model, S, draw(st.floats(0.05, 2000.0)))


def _sizes(u: np.ndarray):
    # sizes 0, 1 and the odd full length
    return u[:0], u[:1], u


def _points(u: np.ndarray, S: int) -> np.ndarray:
    """u + j for every column j, except where u + j rounds up to j + 1
    (u = 1 - 2^-53 does for j >= 1): there the point is the largest double
    below j + 1."""
    j = np.arange(S)
    points = u[:, None] + j
    return np.where(points == j + 1, np.nextafter(j + 1.0, 0.0), points)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), masses=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1 / 3, 0.75, 1.0, 1.5, 3.0]),
                                       min_size=1, max_size=12).filter(any),
       S=st.integers(1, 4))
def test_guide_search_equals_plain_searchsorted(data, masses, S):
    # zero masses are flat runs of equal edges
    table = np.concatenate(([0.0], np.cumsum(masses)))
    table[np.flatnonzero(masses)[-1] + 1:] = float(S)  # from the last positive mass on
    for u in _sizes(data.draw(_queries(table, S))):
        expect = np.searchsorted(table, _points(u, S), side="right")
        got = GuideTable(np.array(masses), S).search(u)
        assert got.dtype == np.int64 and got.shape == (len(u), S)
        assert np.array_equal(got, expect)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), policy=_policies())
def test_interval_partition_equals_plain_searchsorted(data, policy):
    S, M = policy.cache_size, policy.M
    edges = np.concatenate(([0.0], np.cumsum(policy.probs)))
    edges[np.flatnonzero(policy.probs)[-1] + 1:] = float(S)  # from the last cached file on
    for u in _sizes(data.draw(_queries(edges, S))):
        # no clamp to file M: every point stays below the last edge
        expect = np.searchsorted(edges, _points(u, S), side="right")
        got = policy._placement.search(u)
        assert got.dtype == np.int64 and got.shape == (len(u), S)
        assert np.array_equal(got, expect)
        assert np.all((got >= 1) & (got <= M))
        assert np.all(policy.probs[got - 1] > 0)


@pytest.mark.parametrize("probs, files", [
    ([1.0, 1.0, 1.0], [1, 2, 3]),
    ([1.0, 0.5, 0.5, 1.0], [1, 3, 4]),
])
def test_interval_partition_distinct_at_largest_offset(probs, files):
    # at u = 1 - 2^-53, u + 1 and u + 2 round up to 2 and 3; each point must
    # still land in its own interval, not in the next one or on file M twice
    got = CachingPolicy(np.array(probs), 3)._placement.search(np.array([BELOW_ONE]))
    assert got.tolist() == [files]


def test_interval_partition_never_draws_an_uncached_file():
    # the slot-2 policy of the shipped scaling_gt1 point q = 1024 (M = 51 200,
    # 2*eps*g_c = 128) caches only its first 710 files, and their prefix sum
    # rounds below S = 2: the points above it belong to file 710, not to file M
    policy = optimize_policy(PopularityModel(M=51_200, gamma=1.5, q=1024.0), 2, 128.0)
    assert np.flatnonzero(policy.probs)[-1] + 1 == 710
    got = policy._placement.search(np.array([BELOW_ONE, 1 - 1e-15]))
    assert got[:, -1].tolist() == [710, 710]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), M=st.integers(1, 60), gamma=st.floats(0.0, 40.0), q=st.floats(0.0, 10.0))
def test_sample_request_equals_plain_searchsorted(data, M, gamma, q):
    # a steep law rounds the tail of the CDF to a flat run of 1.0
    model = PopularityModel(M=M, gamma=gamma, q=q)
    table = model._request_guide.table
    # the CDF with a leading 0 and its last entry pinned to 1.0
    assert np.array_equal(table, np.concatenate(([0.0], np.cumsum(model.pmf_table)[:-1], [1.0])))
    for u in _sizes(data.draw(_queries(table, 1))):
        # no clamp to file M: the table ends at 1.0, above every uniform
        expect = np.searchsorted(table, u, side="right")
        got = sample_request(model, SimpleNamespace(random=lambda size: u), len(u))
        assert got.dtype == np.int64 and got.shape == (len(u),)
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("model", [
    PopularityModel(M=51_200, gamma=1.5, q=1024.0),  # the shipped gamma > 1 point
    PopularityModel(M=60, gamma=40.0, q=5.0),  # a CDF whose last 51 entries are 1.0
], ids=["gamma1.5", "gamma40"])
def test_guide_search_in_the_most_crowded_bucket(model):
    # points among the entries of the reachable bucket that holds the most:
    # the guide's bound lies two or more entries behind some of them, so one
    # forward step leaves those rows to np.searchsorted
    guide = model._request_guide
    b = int(np.argmax(np.diff(guide._first)))
    inside = guide.table[guide._first[b]:guide._first[b + 1]]
    u = np.concatenate([inside, np.nextafter(inside, 0.0), np.nextafter(inside, 2.0),
                        [b / guide._scale, (b + 1) / guide._scale, BELOW_ONE]])
    u = u[(u >= 0.0) & (u < 1.0)]
    expect = np.searchsorted(guide.table, u, side="right")
    bound = guide._first[(u * guide._scale).astype(np.int64)]
    assert np.all(bound <= expect) and np.any(expect - bound >= 2)
    got = sample_request(model, SimpleNamespace(random=lambda size: u), len(u))
    assert np.array_equal(got, expect)


def test_guide_search_where_the_bucket_product_rounds_up():
    # points x below a bucket edge b / scale whose product x * scale rounds up
    # to b, each in the table with the double above it; where that double is
    # the rounded edge itself, a guide that counted the entries up to each
    # edge would start past x
    n, S = 50, 3
    scale = 4 * n / S
    up, under_edge = [], []
    for b in range(1, 4 * n):
        x = b / scale
        for _ in range(4):
            if Fraction(x) * Fraction(scale) < b <= x * scale:
                (under_edge if np.nextafter(x, np.inf) == b / scale else up).append(x)
            x = np.nextafter(x, 0.0)
    up = np.sort(np.array(under_edge + up[::5]))  # spread over all three columns
    assert under_edge and 2 * len(up) < n - 1 and set(np.floor(up)) == {0.0, 1.0, 2.0}
    table = np.sort(np.concatenate([np.zeros(n - 1 - 2 * len(up)), up, np.nextafter(up, np.inf), [S]]))
    guide = GuideTable(np.diff(table), S)
    assert np.array_equal(guide.table, table)  # the cumulative sum of the steps is exact
    assert guide._scale == scale
    u = up - np.floor(up)  # exact: u + floor(x) is x again
    got = guide.search(u)
    assert np.array_equal(got, np.searchsorted(table, _points(u, S), side="right"))
    assert np.array_equal(got[np.arange(len(u)), np.floor(up).astype(np.int64)],
                          np.searchsorted(table, up, side="right"))


def test_guide_search_ends_at_the_last_positive_mass():
    # every edge from the last positive mass on is S: the first two masses
    # sum to 1 - 2^-53, and the point there belongs to mass 2, not to the
    # zero mass 4 that a table pinning only its last edge would give it
    got = GuideTable(np.array([0.5, 0.5 - 2**-53, 0.0, 0.0]), 1).search(np.array([BELOW_ONE]))
    assert got.tolist() == [[2]]


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_each_draw_consumes_one_uniform(n):
    # trial seeds pin a realization only if every draw takes exactly one
    # uniform from the stream
    model = PopularityModel(M=50, gamma=0.8, q=2.0)
    policy = optimize_policy(model, 3, 20.0)
    for draw in (lambda rng: sample_request(model, rng, n),
                 lambda rng: place_caches_batch(policy, rng, n)):
        rng = np.random.Generator(np.random.PCG64(99))
        twin = np.random.Generator(np.random.PCG64(99))
        draw(rng)
        twin.random(n)
        assert rng.bit_generator.state == twin.bit_generator.state


def _digest(realization) -> str:
    h = hashlib.sha256()
    for a in (realization.positions, realization.requests, *realization.caches):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of positions, requests and every cache block of N = 1001 users,
# recorded before the draw searched in sorted order
PINNED_DRAWS = {
    ("single", 3): "fa2ec33aaf1f75ae510c4e77146f423bfae75ec3a2b8280212464e1e2a876e07",
    ("single", 41): "815c4371efbd81bbe50d10577544464a2c918f15ac8b34ea954fe31cfac8061a",
    ("split", 3): "84bc04557cda524ea96746acfe0442bf37c651836773798b4cd02ad241baff06",
    ("split", 41): "dc7771167ab6dbbe29588588f3c6757d4313ab3e52a20f016e25f3576f2c97f8",
}


@pytest.mark.parametrize("cache, seed", sorted(PINNED_DRAWS))
def test_pinned_draw_digests(cache, seed, monkeypatch):
    if cache == "single":
        model = PopularityModel(M=200, gamma=0.6, q=5.0)
        policies = (optimize_policy(model, 3, 40.0),)
    else:
        # a 30-file library with a concentrated slot-2 policy: many of the
        # first slot-2 draws clash with slot 1 and are drawn again
        model = PopularityModel(M=30, gamma=0.8, q=1.0)
        policies = build_split_policy(model, 4, 40.0, 6.0)
    sizes = []
    place = caching.place_caches_batch
    monkeypatch.setattr(caching, "place_caches_batch",
                        lambda policy, rng, n: sizes.append(n) or place(policy, rng, n))
    realization = build_realization(model, policies, 1001, seed)
    assert _digest(realization) == PINNED_DRAWS[cache, seed]
    if cache == "split":
        assert sizes[:2] == [1001, 1001] and len(sizes) > 2  # at least one clash retry
