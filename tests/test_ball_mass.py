"""
``specs.ball_mass`` against the depth-first search it replaced, and
``specs.ball_masses`` against root-started ``ball_mass`` calls.

The old search looked up each expanded node's family through ``family_at``
and an ``lru_cache``d ``child_layout`` and took ``math.log`` of every child
probability; it is kept here as a test-only oracle. The table-driven search
must agree with it bit for bit (``==``), because its traversal order, and so
its summation order, is the same. A search started at its window's anchor
skips only nodes that add nothing, so it must agree with the root-started
search bit for bit as well.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmf import (
    BlockSchedule,
    ConstantSchedule,
    GapPolicy,
    GenerationFamily,
    MoranSpec,
    PeriodicSchedule,
    TooDeep,
    ball_mass,
    validate_spec,
)
from hsmf import counting
from hsmf import specs as specs_module
from hsmf.oracles import midpoint_ball_masses
from hsmf.specs import BALL_CHUNK, ball_masses, cells, load_spec, matched_generation


# ---------------------------------------------------------------------------
# test-only oracle: the per-node family_at/child_layout/math.log search
# ---------------------------------------------------------------------------

def interval_of(spec, address):
    """``(left, length, mass)`` of the basic interval at a 1-based address,
    walked down the spec's child table one generation at a time."""
    left, length, mass = 0.0, 1.0, 1.0
    for g, idx in enumerate(address, start=1):
        f = spec.schedule.family_index(g)
        offset, ratio, _ = spec.child_table[f][idx - 1]
        left += offset * length
        length *= ratio
        mass *= spec.families[f].probs[idx - 1]
    return left, length, mass


def _old_child_layout(family, gap_policy):
    c = family.ratios
    gap = 0.0
    if gap_policy is GapPolicy.EQUAL_GAPS:
        gap = (1.0 - math.fsum(c)) / (family.arity - 1)
    offsets = []
    pos = 0.0
    for j in range(family.arity):
        offsets.append(pos)
        pos += c[j] + gap
    return tuple(offsets), gap


def _old_ball_mass(spec, x, r, depth):
    if depth > spec.depth_cap:
        raise TooDeep(f"depth {depth} exceeds depth_cap {spec.depth_cap}")
    lo = max(0.0, x - r)
    hi = min(1.0, x + r)
    if hi <= lo:
        return 0.0, 0.0
    mass = 0.0
    error = 0.0
    stack = [(0, 0.0, 1.0, 0.0)]
    while stack:
        g, left, length, logm = stack.pop()
        right = left + length
        if left >= hi or right <= lo:
            continue
        if lo <= left and right <= hi:
            mass += math.exp(logm)
            continue
        if g >= depth:
            mid = left + 0.5 * length
            m = math.exp(logm)
            if lo <= mid <= hi:
                mass += m
            error += m
            continue
        fam = spec.family_at(g + 1)
        offsets, _ = _old_child_layout(fam, spec.gap_policy)
        for j in range(fam.arity):
            stack.append(
                (
                    g + 1,
                    left + offsets[j] * length,
                    fam.ratios[j] * length,
                    logm + math.log(fam.probs[j]),
                )
            )
    return mass, error


def _old_cells(spec, k):
    lefts, lengths, masses = np.zeros(1), np.ones(1), np.ones(1)
    for g in range(1, k + 1):
        fam = spec.family_at(g)
        off = np.asarray(_old_child_layout(fam, spec.gap_policy)[0])
        lefts = (lefts[:, None] + lengths[:, None] * off[None, :]).ravel()
        masses = (masses[:, None] * fam.prob_array[None, :]).ravel()
        lengths = (lengths[:, None] * fam.ratio_array[None, :]).ravel()
    return lefts, lengths, masses


# ---------------------------------------------------------------------------
# random specs
# ---------------------------------------------------------------------------

@st.composite
def _families(draw, gap_policy):
    arity = draw(st.integers(2, 4))
    pw = draw(st.lists(st.integers(1, 9), min_size=arity, max_size=arity))
    probs = tuple(w / sum(pw) for w in pw)
    if draw(st.booleans()):
        # equal ratios keep every cell edge a short binary fraction (ties)
        cw = [1] * arity
    else:
        cw = draw(st.lists(st.integers(1, 9), min_size=arity, max_size=arity))
    scale = 1.0 if gap_policy is GapPolicy.NO_GAPS else draw(st.sampled_from((0.25, 0.5, 0.8, 0.9)))
    ratios = tuple(scale * w / sum(cw) for w in cw)
    return GenerationFamily(probs, ratios)


@st.composite
def _thin_families(draw, gap_policy):
    """A family with child ratios near 0.05: past generation 20 its small
    cells are shorter than the ulp of their left endpoints, so siblings can
    share a left endpoint."""
    arity = draw(st.integers(2, 4))
    pw = draw(st.lists(st.integers(1, 9), min_size=arity, max_size=arity))
    probs = tuple(w / sum(pw) for w in pw)
    thin = draw(st.sampled_from((0.04, 0.05, 0.06)))
    if gap_policy is GapPolicy.NO_GAPS:
        ratios = (thin,) * (arity - 1) + (1.0 - thin * (arity - 1),)
    else:
        ratios = (thin,) * arity
    return GenerationFamily(probs, tuple(draw(st.permutations(ratios))))


@st.composite
def random_specs(draw, families=_families, depth_caps=st.integers(4, 14)):
    gap_policy = draw(st.sampled_from(tuple(GapPolicy)))
    n_fam = draw(st.integers(1, 3))
    families = tuple(draw(families(gap_policy)) for _ in range(n_fam))
    depth_cap = draw(depth_caps)
    kind = draw(st.sampled_from(("constant", "periodic", "blocks")))
    fam_index = st.integers(0, n_fam - 1)
    if kind == "constant":
        schedule = ConstantSchedule(draw(fam_index))
    elif kind == "periodic":
        schedule = PeriodicSchedule(tuple(draw(st.lists(fam_index, min_size=1, max_size=4))))
    else:
        # boundaries on both sides of the ball depths drawn below
        inner = draw(st.lists(st.integers(2, depth_cap + 3), max_size=4, unique=True))
        boundaries = (1, *sorted(inner))
        schedule = BlockSchedule(boundaries, tuple(draw(fam_index) for _ in boundaries))
    # integer weights keep every family inside the gap policy's margin
    return validate_spec(MoranSpec(families, schedule, gap_policy, depth_cap))


@st.composite
def balls(draw, spec):
    """A (center, radius, depth) triple with the center at a cell endpoint or
    midpoint, or placed so that x - r or x + r is 0, 1 or a cell edge."""
    k = draw(st.integers(0, min(spec.depth_cap, 6)))
    lefts, lengths, _ = cells(spec, k)
    i = draw(st.integers(0, lefts.size - 1))
    left, right = float(lefts[i]), float(lefts[i] + lengths[i])
    r = draw(st.sampled_from((1.0, 0.75, 0.5, 1 / 3, 0.3))) * 2.0 ** -draw(st.integers(0, 12))
    x = draw(
        st.sampled_from(
            (left, right, left + 0.5 * (right - left), left + r, left - r, right + r, right - r,
             r, 1.0 - r, 0.0, 1.0)
        )
    )
    depth = draw(st.integers(0, spec.depth_cap))
    return x, r, depth


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ball_mass_equals_old_search(data):
    spec = data.draw(random_specs())
    for _ in range(4):
        x, r, depth = data.draw(balls(spec))
        assert ball_mass(spec, x, r, depth) == _old_ball_mass(spec, x, r, depth)
    k = data.draw(st.integers(0, min(spec.depth_cap, 6)))
    new, old = cells(spec, k), _old_cells(spec, k)
    assert all(np.array_equal(a, b) for a, b in zip(new, old))


def test_ball_mass_equals_old_search_on_fixtures(binomial_spec, cantor_spec, periodic_spec, block_spec):
    # every generation-6 endpoint and midpoint, two radii, the block spec
    # crossing its boundaries at generations 4 and 64
    for spec in (binomial_spec, cantor_spec, periodic_spec, block_spec):
        lefts, lengths, _ = cells(spec, 6)
        xs = np.concatenate([lefts, lefts + lengths, lefts + 0.5 * lengths]).tolist()
        for r, depth in ((0.01, 14), (2.0 ** -5, 70)):
            for x in xs:
                assert ball_mass(spec, x, r, depth) == _old_ball_mass(spec, x, r, depth)


def test_ball_mass_depth_guard(binomial_spec):
    with pytest.raises(TooDeep):
        ball_mass(binomial_spec, 0.5, 0.1, binomial_spec.depth_cap + 1)


def test_ball_mass_empty_window(binomial_spec):
    # hi <= lo after clamping to [0, 1]: outside the unit interval, or r = 0
    assert ball_mass(binomial_spec, 1.5, 0.25, 8) == (0.0, 0.0)
    assert ball_mass(binomial_spec, -0.5, 0.5, 8) == (0.0, 0.0)
    assert ball_mass(binomial_spec, 0.3, 0.0, 8) == (0.0, 0.0)


def test_ball_mass_makes_no_family_lookups_after_first_call(monkeypatch, periodic_spec, block_spec):
    """Structural guard, not a timing gate: once a spec's child table exists,
    a ball mass neither hashes a family nor calls ``family_at``."""
    specs = (periodic_spec, block_spec)
    centers = [cells(spec, 3)[0].tolist() for spec in specs]  # support points
    for spec in specs:
        ball_mass(spec, 0.3, 0.05, 12)
    hashes, lookups = [], []
    family_hash, family_at = GenerationFamily.__hash__, MoranSpec.family_at

    def counted_hash(self):
        hashes.append(self)
        return family_hash(self)

    def counted_family_at(self, generation):
        lookups.append(generation)
        return family_at(self, generation)

    monkeypatch.setattr(GenerationFamily, "__hash__", counted_hash)
    monkeypatch.setattr(MoranSpec, "family_at", counted_family_at)
    for spec, xs in zip(specs, centers):
        for x in xs:
            assert ball_mass(spec, x, 0.05, 70)[0] > 0.0
    assert hashes == [] and lookups == []


# ---------------------------------------------------------------------------
# anchored searches: ball_masses and ball_mass(..., start)
# ---------------------------------------------------------------------------

def _check_column(spec, xs, r, depth):
    """
    Assert that ``ball_masses`` equals root-started ``ball_mass`` on every
    center, that it calls ``ball_mass`` once per center in order, and that each
    anchored call equals the root-started ``(mass, error)``. Returns the
    starts it passed.
    """
    starts = []

    def recording(spec_, x, r_, depth_, start=None):
        starts.append((x, start))
        return ball_mass(spec_, x, r_, depth_, start)

    specs_module.ball_mass = recording
    try:
        got = ball_masses(spec, xs, r, depth)
    finally:
        specs_module.ball_mass = ball_mass
    want = [ball_mass(spec, x, r, depth) for x in xs]
    assert got.tolist() == [mass for mass, _ in want]
    assert [x for x, _ in starts] == list(xs)
    for (x, start), root_started in zip(starts, want):
        assert ball_mass(spec, x, r, depth, start) == root_started
    return [start for _, start in starts]


@st.composite
def columns(draw, spec, octaves=(0, 12)):
    """
    A radius, a depth (0 and depth_cap included) and a column of centers:
    endpoints and midpoints of shallow cells and of cells at random addresses
    down to depth_cap, centers whose window edge is a cell edge, windows
    clamped at 0 or 1, and windows that clamp to nothing (hi <= lo).
    """
    r = draw(st.sampled_from((1.0, 0.75, 0.5, 1 / 3, 0.3))) * 2.0 ** -draw(st.integers(*octaves))
    depth = draw(st.one_of(st.just(0), st.just(spec.depth_cap), st.integers(0, spec.depth_cap)))
    k = draw(st.integers(0, min(spec.depth_cap, 6)))
    lefts, lengths, _ = cells(spec, k)
    pieces = [(float(lefts[i]), float(lengths[i]))
              for i in draw(st.lists(st.integers(0, lefts.size - 1), min_size=1, max_size=6))]
    for _ in range(draw(st.integers(0, 3))):
        g = draw(st.integers(1, spec.depth_cap))
        address = tuple(draw(st.integers(1, spec.family_at(j).arity)) for j in range(1, g + 1))
        pieces.append(interval_of(spec, address)[:2])
    xs = [0.0, 1.0, r, 1.0 - r, -r, 1.0 + r, 1.5]
    for left, length in pieces:
        right = left + length
        xs += [left, right, left + 0.5 * length, left + r, left - r, right + r, right - r]
    return xs, r, depth


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ball_masses_equal_root_started_search(data):
    """All three schedule kinds, both gap policies, arity 2-4, block
    boundaries on both sides of the anchors."""
    spec = data.draw(random_specs())
    _check_column(spec, *data.draw(columns(spec)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ball_masses_equal_root_started_search_below_the_ulp(data):
    """Ratios near 0.05 at depth 20 and more, where small cells are shorter
    than the ulp of their left endpoints and sibling lefts tie. Radii of
    2^-36..2^-70 put window edges at that scale."""
    spec = data.draw(random_specs(_thin_families, st.integers(20, 40)))
    xs, r, depth = data.draw(columns(spec, octaves=(36, 70)))
    _check_column(spec, xs, r, max(depth, 20))


def test_ball_masses_anchor_below_the_ulp():
    """Anchors shorter than the ulp of their left endpoint occur, and agree."""
    spec = validate_spec(MoranSpec((GenerationFamily((0.2, 0.3, 0.5), (0.05, 0.05, 0.05)),),
                                   ConstantSchedule(0), GapPolicy.EQUAL_GAPS, 40))
    rng = np.random.default_rng(3)
    r = 0.3 * 2.0**-51
    xs = []
    for g in (20, 30, 40):
        for address in rng.integers(1, 4, size=(20, g)):
            left, length, _ = interval_of(spec, tuple(address.tolist()))
            right = left + length
            xs += [left, right, left + 0.5 * length, left + r, left - r, right + r, right - r]
    starts = _check_column(spec, xs, r, 40)
    assert any(length < math.ulp(left) for _, left, length, _ in starts)


def test_ball_masses_anchor_kinds(cantor_spec, binomial_spec, block_spec):
    # a window inside a gap meets no child of the root: the root is the anchor
    assert _check_column(cantor_spec, [0.5], 0.1, 12) == [(0, 0.0, 1.0, 0.0)]
    # a window inside the gap (1/9, 2/9) of the generation-1 cell [0, 1/3]
    (start,) = _check_column(cantor_spec, [1 / 6], 0.02, 12)
    assert start[:3] == (1, 0.0, 1 / 3)
    # a window holding [0, 1] after clamping: the root is inside it
    assert _check_column(binomial_spec, [0.0, 1.0], 1.0, 12) == [(0, 0.0, 1.0, 0.0)] * 2
    # depth 0: every anchor is the root
    assert set(_check_column(binomial_spec, [0.1, 0.5, 0.9], 0.01, 0)) == {(0, 0.0, 1.0, 0.0)}
    # block boundaries at generations 4 and 64: anchors above generation 4
    # (r = 2^-5) and below it (r = 1e-6), and searches crossing 64
    lefts, lengths, _ = cells(block_spec, 6)
    xs = np.concatenate([lefts, lefts + lengths, lefts + 0.5 * lengths]).tolist()
    assert {start[0] for start in _check_column(block_spec, xs, 2.0**-5, 70)} == {3}
    assert min(start[0] for start in _check_column(block_spec, xs, 1e-6, 70)) > 4


def test_ball_masses_column_longer_than_one_chunk(binomial_spec):
    lefts, lengths, _ = cells(binomial_spec, 12)
    xs = np.concatenate([lefts, lefts + 0.5 * lengths, [1.0]]).tolist()
    assert len(xs) > 2 * BALL_CHUNK
    _check_column(binomial_spec, xs, 2.0**-12, 20)


def test_candidate_ball_masses_calls_ball_mass_once_per_center(monkeypatch, cantor_spec, periodic_spec):
    """Structural guard, not a timing gate: each candidate center costs
    exactly one ``specs.ball_mass`` call, so a per-call count and a per-call
    error statistic still cover every center."""
    calls = []

    def counted(*args):
        calls.append(args[1])
        return ball_mass(*args)

    monkeypatch.setattr(specs_module, "ball_mass", counted)
    for spec in (cantor_spec, periodic_spec):
        for table_of in (lambda: counting.ball_table(spec, 0.01),
                         lambda: midpoint_ball_masses(spec, 0.01, 6)):
            calls.clear()
            table = table_of()
            assert calls == table.points.tolist()


def test_ball_masses_skip_the_shared_descent(monkeypatch):
    """Structural guard, not a timing gate: on binomial_quarter at r = 2^-12
    the anchored column looks up at most half the families that root-started
    searches do. Starting from the root would add the descent's lookups to
    the root-started ones."""
    spec = load_spec(Path(__file__).resolve().parents[1] / "specs" / "binomial_quarter.json")
    r = 2.0**-12
    k = matched_generation(spec, r)
    pts = counting.ball_table(spec, r).points
    lookups = []
    family_index = ConstantSchedule.family_index

    def counted(self, generation):
        lookups.append(generation)
        return family_index(self, generation)

    monkeypatch.setattr(ConstantSchedule, "family_index", counted)
    ball_masses(spec, pts, r, k + 8)
    anchored = len(lookups)
    lookups.clear()
    for x in pts.tolist():
        ball_mass(spec, x, r, k + 8)
    assert anchored <= len(lookups) / 2
