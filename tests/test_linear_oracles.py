"""
The linear-time exact DPs and pointer-following greedy sweeps against the
quadratic per-step versions they replaced, kept here as test-only oracles.
Values and center lists must agree exactly (``==``), not to a tolerance:
the verify artifacts are byte-compared, so the rewrite may not move a bit.
The references spell "r apart" (a + r <= b) and "covers" (p <= y + r and
y - r <= p) as the greedy sweeps do, written out per step rather than read
from the sweeps' lookups, so the exact programs answer for the same floats.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmf import counting
from hsmf.cli import MOMENT_MAX_CELLS, _usable_radii
from hsmf.counting import (
    _covering_centers,
    _packing_centers,
    ball_table,
    cover_steps,
    covering_moment,
    packing_moment,
    separated_after,
)
from hsmf.errors import ScaleTooSmall
from hsmf.oracles import (
    _max_packing_value,
    _min_cover_value,
    brute_force_ball_moments,
    midpoint_ball_masses,
)
from hsmf.specs import load_spec, max_length_at
from hsmf.verify import spec_binomial, spec_middle_thirds, spec_uniform


# ---------------------------------------------------------------------------
# Reference implementations: one searchsorted or one rescan per step
# ---------------------------------------------------------------------------

def _ref_max_packing_value(points, weights, r):
    n = points.size
    best = np.empty(n)
    prefix = np.empty(n)
    for i in range(n):
        apart = np.flatnonzero(points + r <= points[i])  # the greedy's "r apart" test
        prev = prefix[apart[-1]] if apart.size else 0.0
        best[i] = weights[i] + max(prev, 0.0)
        prefix[i] = best[i] if i == 0 else max(prefix[i - 1], best[i])
    return float(prefix[-1])


def _ref_min_cover_value(points, weights, r, lefts, rights):
    n = points.size
    start = float(lefts[0])
    reach = points + r
    idx = np.searchsorted(rights, reach, side="right")
    ns = np.full(n, math.inf)
    inside = idx < lefts.size
    safe_idx = np.minimum(idx, lefts.size - 1)
    piece_left = lefts[safe_idx]
    ns[inside] = np.where(piece_left[inside] <= reach[inside], reach[inside], piece_left[inside])
    cost = np.full(n, math.inf)
    init = (start - r <= points) & (points <= start + r)  # the greedy's "covers" tests
    cost[init] = weights[init]
    for j in range(1, n):
        ok = points[j] <= ns[:j] + r
        if ok.any():
            prev = cost[:j][ok].min()
            if prev + weights[j] < cost[j]:
                cost[j] = prev + weights[j]
    done = ~np.isfinite(ns)
    if not done.any() or not np.isfinite(cost[done]).any():
        return math.inf
    return float(cost[done].min())


def _ref_covering_centers(points, lefts, rights, r):
    centers = []
    pos = lefts[0]
    last = rights[-1]
    guard = 0
    while True:
        j = np.searchsorted(points, pos + r, side="right") - 1
        if j < 0 or points[j] < pos - r:
            raise ScaleTooSmall("candidate centers cannot cover the support at this radius")
        c = float(points[j])
        centers.append(c)
        covered = c + r
        if covered >= last:
            return centers
        i = np.searchsorted(rights, covered, side="right")
        if i >= lefts.size:
            return centers
        pos = max(covered, lefts[i])
        if lefts[i] <= covered < rights[i]:
            pos = covered
        guard += 1
        if guard > points.size + 1:
            raise ScaleTooSmall("covering sweep failed to progress")


def _ref_packing_centers(points, r):
    centers = [float(points[0])]
    while True:
        i = np.searchsorted(points, centers[-1] + r, side="left")
        if i >= points.size:
            return centers
        centers.append(float(points[i]))


def _list_covering_centers(points, lefts, rights, r):
    """The sweep as it was before it filled an index array: a Python list."""
    take, stuck, done = map(memoryview, cover_steps(points, lefts, rights, r))
    centers = []
    j = points.size  # the start slot
    while True:
        if stuck[j]:
            raise ScaleTooSmall("candidate centers cannot cover the support at this radius")
        j = take[j]
        centers.append(j)
        if done[j]:
            return centers
        if len(centers) > points.size + 1:
            raise ScaleTooSmall("covering sweep failed to progress")


def _list_packing_centers(points, r):
    """The packing sweep as it was before it filled an index array."""
    nxt = memoryview(separated_after(points, r))
    centers = [0]
    while (i := nxt[centers[-1]]) < points.size:
        if i <= centers[-1]:
            raise ScaleTooSmall("packing sweep failed to progress")
        centers.append(i)
    return centers


def _assert_same_cover(points, lefts, rights, r):
    try:
        want = _ref_covering_centers(points, lefts, rights, r)
    except ScaleTooSmall as e:
        with pytest.raises(ScaleTooSmall, match=str(e)):
            _covering_centers(points, lefts, rights, r)
        return
    assert points[_covering_centers(points, lefts, rights, r)].tolist() == want


# ---------------------------------------------------------------------------
# Random problems on a dyadic grid: ties, touching and one-point pieces, gaps
# wider than 2r, single candidates, zero masses, q of both signs
# ---------------------------------------------------------------------------

@st.composite
def line_problems(draw):
    grid = draw(st.sampled_from([4, 16, 256]))
    n = draw(st.integers(1, 40))
    points = np.sort(np.array(draw(st.lists(st.integers(0, grid), min_size=n, max_size=n)))) / grid
    m = draw(st.integers(1, 6))
    ends = sorted(draw(st.lists(st.integers(0, grid), min_size=2 * m, max_size=2 * m)))
    lefts = np.array(ends[0::2], dtype=float) / grid
    rights = np.array(ends[1::2], dtype=float) / grid
    if draw(st.booleans()):
        r = draw(st.integers(1, grid)) / grid / draw(st.sampled_from([1, 2, 8]))
    else:
        r = draw(st.floats(1e-3, 0.75))
    masses = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=n, max_size=n,
    )))
    q = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5]))
    with np.errstate(divide="ignore"):
        weights = masses**q
    return points, weights, r, lefts, rights


@given(line_problems())
@settings(max_examples=200, deadline=None)
def test_equal_the_per_step_oracles(problem):
    points, weights, r, lefts, rights = problem
    assert _max_packing_value(points, weights, r) == _ref_max_packing_value(points, weights, r)
    assert _min_cover_value(points, weights, r, lefts, rights) == _ref_min_cover_value(
        points, weights, r, lefts, rights
    )
    assert points[_packing_centers(points, r)].tolist() == _ref_packing_centers(points, r)
    _assert_same_cover(points, lefts, rights, r)


def test_cover_dp_rejects_unsorted_points():
    points = np.array([0.5, 0.1, 0.9])
    with pytest.raises(AssertionError, match="sorted"):
        _min_cover_value(points, np.ones(3), 0.2, np.array([0.0]), np.array([1.0]))


def test_packing_program_and_sweep_share_r_apart():
    # a + r <= b holds for these two endpoints of middle_thirds at r = 3^-12, b - r >= a does not
    points = np.array([3.7633528463178403e-06, 5.64502926947676e-06])
    r = max_length_at(spec_middle_thirds(), 12)
    assert _packing_centers(points, r).tolist() == [0, 1]
    assert _max_packing_value(points, np.ones(2), r) == 2.0


def test_cover_program_and_sweep_share_covers():
    # the first ball: 0.1 + 0.2 <= 0.1 + 0.2 holds, (0.1 + 0.2) - 0.2 <= 0.1 does not
    points, lefts, rights = np.array([0.1 + 0.2]), np.array([0.1]), np.array([0.5])
    assert _covering_centers(points, lefts, rights, 0.2).tolist() == [0]
    assert _min_cover_value(points, np.ones(1), 0.2, lefts, rights) == 1.0
    # a following ball: b <= (a + r) + r holds, b - r <= a + r does not
    points, r = np.array([0.08991356716121543, 0.36352589987981054]), 0.13680616635929754
    lefts, rights = np.array([0.0]), np.array([0.5])
    assert _covering_centers(points, lefts, rights, r).tolist() == [0, 1]
    assert _min_cover_value(points, np.ones(2), r, lefts, rights) == 2.0


def test_packing_sweep_without_progress_raises():
    # a radius below the spacing resolution of the points cannot advance, in the
    # sweep or in the exact program that reads the same lookup
    points = np.array([1.0, 2.0])
    with pytest.raises(ScaleTooSmall, match="progress") as got:
        _packing_centers(points, 1e-20)
    with pytest.raises(ScaleTooSmall) as want:
        _list_packing_centers(points, 1e-20)
    assert got.value.args == want.value.args
    with pytest.raises(ScaleTooSmall, match="progress"):
        _max_packing_value(points, np.ones(2), 1e-20)


# ---------------------------------------------------------------------------
# The measures certified by verify's criterion 10, at a smaller depth
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factory", [spec_uniform, spec_middle_thirds, spec_binomial])
def test_equal_on_verify_measures(factory):
    spec = factory()
    depth = 8
    for r in (max_length_at(spec, depth), 2.7 * max_length_at(spec, depth)):
        table = midpoint_ball_masses(spec, r, depth)
        mids, masses, lefts, rights = table.points, table.ball_mass, table.lefts, table.rights
        assert mids[_packing_centers(mids, r)].tolist() == _ref_packing_centers(mids, r)
        _assert_same_cover(mids, lefts, rights, r)
        for q in (-1.0, 0.0, 1.0, 2.0):
            w = masses**q
            assert _max_packing_value(mids, w, r) == _ref_max_packing_value(mids, w, r)
            assert _min_cover_value(mids, w, r, lefts, rights) == _ref_min_cover_value(
                mids, w, r, lefts, rights
            )


@pytest.mark.parametrize("factory", [spec_uniform, spec_middle_thirds, spec_binomial])
def test_exact_programs_certify_the_endpoint_class(factory):
    """Criterion 10's cells on the endpoint tables that ``moments`` sums over,
    at each radius's matched generation: the greedy stays inside the optima
    to criterion 10's 1e-9, and at q = 0 the sweeps are optimal within the
    class, so both sides are equal."""
    spec = factory()
    base = max_length_at(spec, 12)
    for r in (base, 2.7 * base):
        table = ball_table(spec, r)
        for q in (-1.0, 0.0, 1.0, 2.0):
            bf = brute_force_ball_moments(table, q)
            cover, pack = covering_moment(table, q), packing_moment(table, q)
            tol = 1e-9 * max(1.0, abs(bf.covering), abs(bf.packing))
            assert cover >= bf.covering - tol and pack <= bf.packing + tol, (r, q)
            if q == 0.0:
                assert (cover, pack) == (bf.covering, bf.packing), r


# ---------------------------------------------------------------------------
# The index-array sweeps against the list-based ones they replaced
# ---------------------------------------------------------------------------

SPEC_FILES = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.json")) + [
    Path(__file__).resolve().parent / "fixtures" / "lopsided.json"
]


def _assert_same_sweeps(table):
    want_cover = _list_covering_centers(table.points, table.lefts, table.rights, table.r)
    want_pack = _list_packing_centers(table.points, table.r)
    for got, want in ((table.cover, want_cover), (table.packing, want_pack)):
        assert got.dtype == np.intp
        assert got.tolist() == want


@pytest.fixture()
def massless_tables(monkeypatch):
    """Ball tables without their ball masses, which the sweeps never read."""
    monkeypatch.setattr(counting, "ball_masses", lambda spec, pts, r, depth: np.zeros(pts.size))


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.stem)
def test_sweeps_equal_the_list_sweeps_on_moments_tables(path, massless_tables):
    """Every endpoint table ``moments --r-octaves 16`` builds for this spec."""
    spec = load_spec(path)
    radii = _usable_radii("moments skip", spec, range(1, 17), MOMENT_MAX_CELLS)
    assert radii
    for r in radii:
        _assert_same_sweeps(ball_table(spec, r))


def test_sweeps_equal_the_list_sweeps_on_criterion_10_tables(massless_tables):
    for factory in (spec_uniform, spec_middle_thirds, spec_binomial):
        spec = factory()
        base = max_length_at(spec, 12)
        for r in (base, 2.7 * base):
            _assert_same_sweeps(ball_table(spec, r))


@pytest.mark.parametrize("points, lefts, rights, r", [
    ([0.0], [0.5], [1.0], 0.1),  # stuck: no candidate within r of the first uncovered point
    ([0.9], [0.0], [1.0], 0.1),  # stuck: no candidate left of it
    ([0.0, 0.5], [0.0], [1.0], 0.1),  # the uncovered point stays at the first ball's reach
])
def test_cover_errors_equal_the_list_sweep(points, lefts, rights, r):
    points, lefts, rights = np.array(points), np.array(lefts), np.array(rights)
    with pytest.raises(ScaleTooSmall) as want:
        _list_covering_centers(points, lefts, rights, r)
    with pytest.raises(ScaleTooSmall) as got:
        _covering_centers(points, lefts, rights, r)
    assert got.value.args == want.value.args
