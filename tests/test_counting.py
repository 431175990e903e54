"""Counts, ball moments, partition moments."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmf import (
    MomentKind,
    ball_table,
    counting_moment_table,
    covering_moment,
    load_spec,
    log_partition_moment,
    packing_moment,
    partition_moment_table,
)
from hsmf import counting
from hsmf.oracles import brute_force_ball_moments, midpoint_ball_masses
from hsmf.specs import max_length_at
from hsmf.verify import criterion_10

SPECS = Path(__file__).resolve().parents[1] / "specs"
LOPSIDED = Path(__file__).resolve().parent / "fixtures" / "lopsided.json"


def covering_count(spec, r):
    return covering_moment(ball_table(spec, r), 0.0)


def packing_count(spec, r):
    return packing_moment(ball_table(spec, r), 0.0)


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
    mids = midpoint_ball_masses(cantor_spec, 1 / 18, 3)
    bf = brute_force_ball_moments(mids, 0.0)
    assert bf.covering == 8
    assert covering_moment(mids, 0.0) == 8

    # all 16 depth-3 endpoints are pairwise >= 1/27 apart
    assert packing_count(cantor_spec, 1 / 27) == 16
    bfp = brute_force_ball_moments(midpoint_ball_masses(cantor_spec, 1 / 27, 3), 0.0)
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
    # and so does a generation too large to enumerate, in a ball table and
    # in the moment tables built from them
    with pytest.raises(ScaleTooSmall):
        ball_table(uniform_spec, 2.0**-40)
    with pytest.raises(ScaleTooSmall):
        counting_moment_table(uniform_spec, [1.0], [2.0**-40])


# ---------------------------------------------------------------------------
# ball moments
# ---------------------------------------------------------------------------

def test_moment_q0_reduces_to_counts(uniform_spec, cantor_spec):
    for spec in (uniform_spec, cantor_spec):
        for r in (1 / 8, 1 / 32):
            cover_n, pack_n, _, _ = counting_moment_table(spec, [0.0], [r])
            table = ball_table(spec, r)
            assert covering_moment(table, 0.0) == cover_n.values[0, 0]
            assert packing_moment(table, 0.0) == pack_n.values[0, 0]


def test_covering_moment_q1_bounds(uniform_spec):
    # a cover exhausts the measure, so the q=1 sum is at least 1
    v = covering_moment(ball_table(uniform_spec, 0.5), 1.0)
    assert 1.0 <= v <= covering_count(uniform_spec, 0.5)


def test_packing_moment_q1_bounded_overlap(uniform_spec):
    for r in (1 / 4, 1 / 16, 1 / 64):
        assert packing_moment(ball_table(uniform_spec, r), 1.0) <= 3.0


def test_dyadic_q2_moments_within_factor_four(uniform_spec):
    # aligned radius: the moment tracks 2^k (2^-k)^2 = 2^-k up to ball/cell slack
    for k in (6, 8, 10):
        r = 2.0**-k
        table = ball_table(uniform_spec, r)
        for fn in (covering_moment, packing_moment):
            ratio = fn(table, 2.0) / r
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
    tables = counting_moment_table(binomial_spec, qs, rs)
    assert [t.kind for t in tables] == [MomentKind.COVERING_COUNT, MomentKind.PACKING_COUNT,
                                        MomentKind.COVERING_MOMENT, MomentKind.PACKING_MOMENT]
    for counts, table in zip(tables[:2], tables[2:]):
        assert not table.check_invariants() and not counts.check_invariants()
        # same centers per scale: rows non-increasing in q since masses <= 1
        assert np.all(np.diff(table.values, axis=0) <= 1e-12)
        i0 = int(np.argmin(np.abs(qs)))
        assert np.array_equal(table.values[i0], counts.values[i0])
        # q < 0 ball moments are flagged heuristic
        assert table.flags[0].all() and not table.flags[2].any()


def test_each_moment_table_message_fires_alone(binomial_spec):
    """Each check of ``MomentTable.check_invariants``, on a table that ``moments``
    writes, perturbed so that it alone fails."""
    qs = np.array([-1.0, 0.0, 2.0])
    partition = partition_moment_table(binomial_spec, qs, [4, 6, 8])
    covering = counting_moment_table(binomial_spec, qs, [2.0**-4, 2.0**-6])[0]
    assert partition.check_invariants() == [] and covering.check_invariants() == []

    def bent(table, name, index, value):
        array = getattr(table, name).copy()
        array[index] = value
        return dataclasses.replace(table, **{name: array})

    perturbed = {
        "scales not strictly decreasing": bent(partition, "scales", 1, partition.scales[0]),
        "scales outside (0, 1]": bent(partition, "scales", 0, 1.5),
        "partition moments must be positive": bent(partition, "values", (0, 0), 0.0),
        "counts must be positive integers": bent(covering, "values", (0, 0), 2.5),
    }
    for message, bad in perturbed.items():
        assert bad.check_invariants() == [message]


def test_moment_table_csv_order(uniform_spec):
    qs = np.array([0.0, 1.0])
    rs = [0.5, 0.25]
    table = partition_moment_table(uniform_spec, qs, [1, 2])
    rows = list(table.rows_csv())
    # q outer, r inner descending
    assert [r[1] for r in rows] == ["0", "0", "1", "1"]
    assert rows[0][2] == "0.5" and rows[1][2] == "0.25"


@given(st.lists(st.sampled_from([0.0, -0.0, 0.1, 0.1 + 0.2, 0.3, 1e-300, 0.5, 1.0, 2.0**-40]), max_size=40)
       | st.lists(st.floats(allow_nan=False), max_size=40))
@settings(max_examples=200, deadline=None)
def test_sorted_distinct_equals_np_unique(values):
    """The dedupe of ball_table and c7's alpha grid is np.unique's sorting
    path to the bit, signed zeros and infinities included."""
    a = np.array(values, dtype=float)
    assert counting.sorted_distinct(a.copy()).tobytes() == np.unique(a).tobytes()


@pytest.mark.parametrize("name", ["uniform", "binomial_quarter", "middle_thirds",
                                  "periodic_two_family", "block_switched", "switching_binomial"])
def test_moment_table_columns_equal_the_table_estimators(name):
    """Each column of the one-pass moment tables is the q = 0 packing size and
    the covering and packing moments of that scale's ball table, to the bit,
    for every q: one cover and one packing per scale."""
    spec = load_spec(SPECS / f"{name}.json")
    qs = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])
    rs = [2.0**-j for j in range(1, 11)]
    cover_n, pack_n, cover_m, pack_m = counting_moment_table(spec, qs, rs)
    for j, r in enumerate(rs):
        table = ball_table(spec, r)
        n_pack = packing_moment(table, 0.0)
        assert set(pack_n.values[:, j]) == {n_pack}
        assert set(cover_n.values[:, j]) == {covering_moment(table, 0.0)}
        assert pack_m.values[qs.tolist().index(0.0), j] == n_pack
        for i, q in enumerate(qs):
            assert cover_m.values[i, j] == covering_moment(table, q)
            assert pack_m.values[i, j] == packing_moment(table, q)


def test_criterion_10_finds_each_cover_and_packing_once(monkeypatch):
    """Structural guard, not a timing gate: criterion 10 reads 6 ball tables at
    4 q each, and each table finds its cover and its packing once, and each
    sweep lookup once for its sweep and the exact programs."""
    calls = {"_covering_centers": 0, "_packing_centers": 0, "separated_after": 0, "cover_steps": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(counting, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(counting, name, counted)
    assert criterion_10().passed
    assert calls == {"_covering_centers": 6, "_packing_centers": 6, "separated_after": 6, "cover_steps": 6}


@pytest.mark.filterwarnings("error")
def test_overflowing_ball_moments_are_inf_without_warning():
    """One overflow rule for every ball-moment sum: at q = -50 the smallest
    lopsided ball masses (below 1e-9) overflow to inf, silently, in the greedy
    moments as in the moments table, and in the oracle's weights."""
    spec = load_spec(LOPSIDED)
    table = ball_table(spec, 2.0**-7)
    assert covering_moment(table, -50.0) == math.inf
    assert packing_moment(table, -50.0) == math.inf
    bf = brute_force_ball_moments(midpoint_ball_masses(spec, 2.0**-10, 12), -50.0)
    assert bf.packing == math.inf
