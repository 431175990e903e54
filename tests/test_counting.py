"""Counts, ball moments, partition moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmf import (
    MomentKind,
    counting_moment_table,
    covering_count,
    covering_moment,
    log_partition_moment,
    packing_count,
    packing_moment,
    partition_moment_table,
)
from hsmf.oracles import brute_force_ball_moments
from hsmf.specs import max_length_at


# ---------------------------------------------------------------------------
# covering / packing counts
# ---------------------------------------------------------------------------

def test_covering_count_full_interval(uniform_spec):
    # ceil(1/(2r)) balls suffice and are needed on [0, 1]
    assert covering_count(uniform_spec, 1 / 8) == 4
    assert covering_count(uniform_spec, 1.0) == 1


def test_packing_count_full_interval(uniform_spec):
    # {0, 1/4, 1/2, 3/4, 1} is 1/4-separated
    assert packing_count(uniform_spec, 0.25) == 5
    assert packing_count(uniform_spec, 2.0) == 1


def test_cantor_counts_cross_checked(cantor_spec):
    # frozen values, cross-checked against the exact midpoint-class optimum
    assert covering_count(cantor_spec, 1 / 18) == 8
    bf = brute_force_ball_moments(cantor_spec, 0.0, 1 / 18, 3)
    assert bf.covering == 8
    assert covering_count(cantor_spec, 1 / 18, depth=3, centers="midpoints") == 8

    # all 16 depth-3 endpoints are pairwise >= 1/27 apart
    assert packing_count(cantor_spec, 1 / 27) == 16
    bfp = brute_force_ball_moments(cantor_spec, 0.0, 1 / 27, 3)
    assert bfp.packing == 8  # midpoint class has one point per cell


def test_packing_vs_covering_consistency(uniform_spec, binomial_spec):
    for spec in (uniform_spec, binomial_spec):
        for r in (1 / 4, 1 / 8, 1 / 32):
            assert packing_count(spec, r) >= covering_count(spec, 2 * r) - 1


def test_scale_too_small(uniform_spec):
    from hsmf.errors import ScaleTooSmall

    # below the depth_cap resolution
    with pytest.raises(ScaleTooSmall):
        covering_count(uniform_spec, 2.0 ** -(uniform_spec.depth_cap + 1))
    # enumeration blow-up surfaces as the same error
    with pytest.raises(ScaleTooSmall):
        covering_count(uniform_spec, 2.0**-40)
    # and so does a generation past depth_cap or too large to enumerate in
    # the moments, which reach the candidates through their ball masses
    too_deep = uniform_spec.depth_cap + 904
    for moment in (covering_moment, packing_moment):
        with pytest.raises(ScaleTooSmall):
            moment(uniform_spec, 1.0, 0.5, depth=too_deep)
        with pytest.raises(ScaleTooSmall):
            moment(uniform_spec, 2.0, 2.0**-40)
    for kind in (MomentKind.COVERING_MOMENT, MomentKind.PACKING_MOMENT):
        with pytest.raises(ScaleTooSmall):
            counting_moment_table(uniform_spec, kind, [1.0], [2.0**-40])


# ---------------------------------------------------------------------------
# ball moments
# ---------------------------------------------------------------------------

def test_moment_q0_reduces_to_counts(uniform_spec, cantor_spec):
    for spec in (uniform_spec, cantor_spec):
        for r in (1 / 8, 1 / 32):
            assert covering_moment(spec, 0.0, r) == covering_count(spec, r)
            assert packing_moment(spec, 0.0, r) == packing_count(spec, r)


def test_covering_moment_q1_bounds(uniform_spec):
    # a cover exhausts the measure, so the q=1 sum is at least 1
    v = covering_moment(uniform_spec, 1.0, 0.5)
    assert 1.0 <= v <= covering_count(uniform_spec, 0.5)


def test_packing_moment_q1_bounded_overlap(uniform_spec):
    for r in (1 / 4, 1 / 16, 1 / 64):
        assert packing_moment(uniform_spec, 1.0, r) <= 3.0


def test_dyadic_q2_moments_within_factor_four(uniform_spec):
    # aligned radius: the moment tracks 2^k (2^-k)^2 = 2^-k up to ball/cell slack
    for k in (6, 8, 10):
        r = 2.0**-k
        for fn in (covering_moment, packing_moment):
            ratio = fn(uniform_spec, 2.0, r) / r
            assert 0.25 <= ratio <= 4.0


# ---------------------------------------------------------------------------
# partition moments
# ---------------------------------------------------------------------------

def test_partition_normalization(uniform_spec, periodic_spec, block_spec):
    for spec in (uniform_spec, periodic_spec, block_spec):
        for k in (1, 5, 20):
            assert log_partition_moment(spec, 1.0, 0.0, k) == pytest.approx(math.log(1.0), abs=1e-12)


def test_partition_uniform_value(uniform_spec):
    assert log_partition_moment(uniform_spec, 2.0, 0.0, 3) == pytest.approx(math.log(0.125))


def test_partition_counts_cells(periodic_spec):
    assert log_partition_moment(periodic_spec, 0.0, 0.0, 2) == pytest.approx(math.log(6.0))


def test_partition_matches_enumeration(periodic_spec):
    from hsmf.specs import cells

    _, lengths, masses = cells(periodic_spec, 4)
    for q, t in ((2.0, 0.3), (-1.0, 0.0), (0.5, -0.2)):
        direct = float(np.sum(masses**q * lengths**t))
        assert log_partition_moment(periodic_spec, q, t, 4) == pytest.approx(math.log(direct), rel=1e-12)


@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_partition_log_convexity(p, t, q, s, lam):
    """Interpolated (q, t) moments never exceed the log-interpolation."""
    from hsmf import ConstantSchedule, GapPolicy, GenerationFamily, MoranSpec, validate_spec

    spec = validate_spec(
        MoranSpec(
            families=(GenerationFamily((0.3, 0.7), (0.4, 0.35)),),
            schedule=ConstantSchedule(0),
            gap_policy=GapPolicy.EQUAL_GAPS,
            depth_cap=64,
        )
    )
    k = 7
    mid = log_partition_moment(spec, lam * p + (1 - lam) * q, lam * t + (1 - lam) * s, k)
    bound = lam * log_partition_moment(spec, p, t, k) + (1 - lam) * log_partition_moment(spec, q, s, k)
    assert mid <= bound + 1e-9


# ---------------------------------------------------------------------------
# moment tables
# ---------------------------------------------------------------------------

def test_moment_table_q_monotone_and_q0_reduction(binomial_spec):
    qs = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    rs = [2.0**-k for k in range(3, 9)]
    for kind in (MomentKind.COVERING_MOMENT, MomentKind.PACKING_MOMENT):
        table = counting_moment_table(binomial_spec, kind, qs, rs)
        assert not table.check_invariants()
        # same centers per scale: rows non-increasing in q since masses <= 1
        assert np.all(np.diff(table.values, axis=0) <= 1e-12)
        count_kind = (
            MomentKind.COVERING_COUNT
            if kind is MomentKind.COVERING_MOMENT
            else MomentKind.PACKING_COUNT
        )
        counts = counting_moment_table(binomial_spec, count_kind, qs, rs)
        i0 = int(np.argmin(np.abs(qs)))
        assert np.array_equal(table.values[i0], counts.values[i0])
        # q < 0 ball moments are flagged heuristic
        assert table.flags[0].all() and not table.flags[2].any()


def test_moment_table_csv_order(uniform_spec):
    qs = np.array([0.0, 1.0])
    rs = [0.5, 0.25]
    table = partition_moment_table(uniform_spec, qs, [1, 2])
    rows = list(table.rows_csv())
    # q outer, r inner descending
    assert [r[1] for r in rows] == ["0", "0", "1", "1"]
    assert rows[0][2] == "0.5" and rows[1][2] == "0.25"
