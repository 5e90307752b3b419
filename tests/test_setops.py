import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boostedwaves.setops as so

INF = math.inf


# dyadic endpoints keep every sum exact in double precision
dyadic = st.integers(min_value=-2048, max_value=2048).map(lambda k: k / 64.0)


@st.composite
def interval_unions(draw, max_intervals=4):
    count = draw(st.integers(1, max_intervals))
    pairs = []
    for _ in range(count):
        a = draw(dyadic)
        w = draw(st.integers(1, 256)) / 64.0
        pairs.append((a, a + w))
    return so.IntervalUnion.of(*pairs)


def test_canonical_form_merges_strict_overlaps():
    u = so.IntervalUnion.of((0.0, 2.0), (1.0, 3.0), (5.0, 6.0))
    assert u.intervals == ((0.0, 3.0), (5.0, 6.0))


def test_canonical_form_keeps_touching_intervals_apart():
    u = so.IntervalUnion.of((0.0, 1.0), (1.0, 2.0))
    assert u.intervals == ((0.0, 1.0), (1.0, 2.0))
    assert not u.contains(1.0)


def test_membership_excludes_endpoints():
    u = so.IntervalUnion.of((0.0, 1.0))
    assert u.contains(0.5)
    assert not u.contains(0.0)
    assert not u.contains(1.0)


def test_minkowski_sum_bounded_intervals():
    u = so.minkowski_sum(so.IntervalUnion.of((1.0, 2.0)), so.IntervalUnion.of((10.0, 11.0)))
    assert u.intervals == ((11.0, 13.0),)


def test_minkowski_sum_rays():
    ray = so.IntervalUnion.of((0.0, INF))
    assert so.minkowski_sum(ray, ray) == ray
    assert so.minkowski_sum(so.IntervalUnion.reals(), ray) == so.IntervalUnion.reals()


def test_minkowski_sum_split_union_brute_force():
    x = so.IntervalUnion.of((0.0, 1.0), (5.0, 6.0))
    y = so.IntervalUnion.of((0.0, 1.0))
    out = so.minkowski_sum(x, y)
    assert out.intervals == ((0.0, 2.0), (5.0, 7.0))
    # fine epsilon-grid membership oracle
    ts = np.linspace(-1.0, 8.0, 1801)
    for t in ts:
        attainable = any(
            x.contains(t - s)
            for s in np.linspace(0.0, 1.0, 401)[1:-1]
            if y.contains(s)
        )
        assert out.contains(t) == attainable or abs(t - round(t)) < 2.5e-3


def test_fixed_points_canonical_sets():
    assert so.is_fixed_point(so.IntervalUnion.positive_ray(), 3)
    assert so.is_fixed_point(so.IntervalUnion.negative_ray(), 3)
    for m in (2, 3, 5):
        assert so.is_fixed_point(so.IntervalUnion.reals(), m)


def test_bounded_interval_not_fixed():
    assert not so.is_fixed_point(so.IntervalUnion.of((1.0, 2.0)), 2)
    # (1,2) + (1,2) = (2,4)
    assert so.minkowski_power(so.IntervalUnion.of((1.0, 2.0)), 2).intervals == ((2.0, 4.0),)


def test_classify_fixed_points_flags_canonical_only():
    rng = np.random.default_rng(17)
    candidates = [so.IntervalUnion.positive_ray()]
    candidates += [so.random_interval_union(rng) for _ in range(499)]
    summary = so.classify_fixed_points(candidates, 3)
    assert summary.canonical_hits == 1
    assert summary.passed


def test_lattice_scan_fixed_points_are_canonical():
    ends = (-INF, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, INF)
    candidates = so.lattice_unions(ends)
    assert len(set(candidates)) == len(candidates)
    # the scan reaches rays and gapped unbounded unions, not only bounded sets
    for pairs in (((-INF, -1.0), (1.0, INF)), ((-INF, 0.0), (0.0, INF)), ((0.5, INF),),
                  ((-1.0, INF),)):
        assert so.IntervalUnion.of(*pairs) in candidates
    for m in (2, 3):
        fixed = [x for x in candidates if so.is_fixed_point(x, m)]
        assert sorted(fixed, key=lambda x: x.intervals) == sorted(
            so.CANONICAL_FIXED_POINTS, key=lambda x: x.intervals)


def test_one_sided_positive_infimum_never_fixed():
    rng = np.random.default_rng(29)
    for _ in range(100):
        lo = float(rng.uniform(0.05, 4.0))
        x = so.IntervalUnion.of((lo, lo + float(rng.uniform(0.1, 2.0))))
        assert not so.is_fixed_point(x, 2)


@given(interval_unions(), interval_unions())
@settings(max_examples=200)
def test_minkowski_commutative(x, y):
    assert so.minkowski_sum(x, y) == so.minkowski_sum(y, x)


@given(interval_unions(), interval_unions(), interval_unions())
@settings(max_examples=200)
def test_minkowski_associative_on_dyadics(x, y, z):
    left = so.minkowski_sum(so.minkowski_sum(x, y), z)
    right = so.minkowski_sum(x, so.minkowski_sum(y, z))
    assert left == right


@given(interval_unions(), interval_unions(), interval_unions())
@settings(max_examples=200)
def test_minkowski_monotone(x, y, extra):
    bigger = so.union(x, extra)
    assert so.minkowski_sum(x, y).subset_of(so.minkowski_sum(bigger, y))


@given(interval_unions(), interval_unions())
@settings(max_examples=200)
def test_sum_output_is_open_and_canonical(x, y):
    out = so.minkowski_sum(x, y)
    for (a, b), nxt in zip(out.intervals, out.intervals[1:] + ((INF, INF),)):
        assert a < b
        if nxt != (INF, INF):
            assert b <= nxt[0]


@given(dyadic, dyadic, st.integers(1, 64), st.integers(1, 64))
@settings(max_examples=200)
def test_ball_sum_identity_exact(c1, c2, k1, k2):
    r1, r2 = k1 / 16.0, k2 / 16.0
    left = so.minkowski_sum(
        so.IntervalUnion.of((c1 - r1, c1 + r1)),
        so.IntervalUnion.of((c2 - r2, c2 + r2)),
    )
    want = so.IntervalUnion.of(((c1 - r1) + (c2 - r2), (c1 + r1) + (c2 + r2)))
    assert left == want


def test_rasterized_sum_matches_lattice_dilation():
    from scipy import signal

    x = so.IntervalUnion.of((-2.0, -0.5), (1.0, 2.25))
    lattice = (np.arange(256) - 128) * 0.0625
    direct = so.rasterize(so.minkowski_sum(x, x), lattice)
    mask = so.rasterize(x, lattice)
    dilated_full = signal.fftconvolve(mask.astype(float), mask.astype(float)) > 0.5
    dilated = dilated_full[128 : 128 + 256]
    # agreement up to one lattice cell at each interval boundary
    disagree = np.where(direct != dilated)[0]
    for idx in disagree:
        t = lattice[idx]
        near_boundary = any(
            min(abs(t - a), abs(t - b)) <= 0.0625 + 1e-12
            for a, b in so.minkowski_sum(x, x).intervals
        )
        assert near_boundary
