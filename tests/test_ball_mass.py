"""
``specs.ball_mass`` against the depth-first search it replaced, and
``specs.ball_masses`` against root-started ``ball_mass`` calls.

The old search looked up each expanded node's family through ``family_at``
and an ``lru_cache``d ``child_layout`` and took ``math.log`` of every child
probability; it is kept here as a test-only oracle. The table-driven search
must agree with it bit for bit (``==``), because its traversal order, and so
its summation order, is the same. ``ball_masses`` resolves a column in one
numpy descent and sums each center's terms in the search's order, so it must
agree with the root-started search bit for bit as well, and it sends a
center to ``ball_mass`` exactly when the oracle's search is truncated.
"""

import math
import os
import subprocess
import sys
import tracemalloc
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
from hsmf import verify
from hsmf.oracles import midpoint_ball_masses
from hsmf.specs import BALL_CHUNK, ball_masses, cells, load_spec, matched_generation, max_length_at

SPECS = Path(__file__).resolve().parents[1] / "specs"


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


def _old_search(spec, x, r, depth):
    """``(mass, error, truncated)``: truncated when the search pops a node at
    generation ``depth`` that meets the window without lying inside it."""
    if depth > spec.depth_cap:
        raise TooDeep(f"depth {depth} exceeds depth_cap {spec.depth_cap}")
    lo = max(0.0, x - r)
    hi = min(1.0, x + r)
    if hi <= lo:
        return 0.0, 0.0, False
    mass = 0.0
    error = 0.0
    truncated = False
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
            truncated = True
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
    return mass, error, truncated


def _old_ball_mass(spec, x, r, depth):
    return _old_search(spec, x, r, depth)[:2]


def _old_cells(spec, k):
    lefts, lengths, masses = np.zeros(1), np.ones(1), np.ones(1)
    for g in range(1, k + 1):
        fam = spec.family_at(g)
        off = np.asarray(_old_child_layout(fam, spec.gap_policy)[0])
        lefts = (lefts[:, None] + lengths[:, None] * off[None, :]).ravel()
        masses = (masses[:, None] * np.asarray(fam.probs, dtype=float)[None, :]).ravel()
        lengths = (lengths[:, None] * np.asarray(fam.ratios, dtype=float)[None, :]).ravel()
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
# the column kernel: ball_masses, and ball_mass(..., start) for its truncated centers
# ---------------------------------------------------------------------------

ROOT = (0, 0.0, 1.0, 0.0)


def _check_column(spec, xs, r, depth):
    """
    Assert that ``ball_masses`` equals root-started ``ball_mass`` on every
    center; that it calls ``ball_mass`` exactly once, in order, for each
    center whose oracle search is truncated and for no other center; and
    that each of those calls, started from its anchor, equals the
    root-started ``(mass, error)``. Returns the starts it passed.
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
    assert [x for x, _ in starts] == [x for x in xs if _old_search(spec, x, r, depth)[2]]
    for x, start in starts:
        assert ball_mass(spec, x, r, depth, start) == ball_mass(spec, x, r, depth)
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


def _anchor(spec, x, r, depth):
    """The window's anchor, walked down from the root with the search's float
    operations: the first node that is inside the window, has zero or
    several children meeting it, or is at ``depth``."""
    lo, hi = max(0.0, x - r), min(1.0, x + r)
    g, left, length, logm = ROOT
    while g < depth and not (lo <= left and left + length <= hi):
        meeting = [(left + offset * length, ratio * length, logm + logp)
                   for offset, ratio, logp in spec.child_table[spec.schedule.family_index(g + 1)]
                   if left + offset * length < hi and left + offset * length + ratio * length > lo]
        if len(meeting) != 1:
            break
        g += 1
        left, length, logm = meeting[0]
    return g, left, length, logm


def test_ball_masses_anchor_below_the_ulp():
    """Anchors shorter than the ulp of their left endpoint occur in the
    column, and its masses agree. No search in it is truncated, and from
    such an anchor none can be: a node shorter than that ulp has no float
    strictly inside it, so neither it nor a descendant can straddle a
    window edge."""
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
    anchors = [_anchor(spec, x, r, 40) for x in xs]
    assert any(length < math.ulp(left) for _, left, length, _ in anchors)
    assert _check_column(spec, xs, r, 40) == []


def test_ball_masses_anchor_kinds(cantor_spec, binomial_spec, block_spec):
    """Each kind of search end: no search for a center whose search ends
    above the depth, and the anchor as the start of one that is cut."""
    # a window inside a gap meets no child of the root; cut at depth 0, its
    # search starts at the root
    assert _check_column(cantor_spec, [0.5], 0.1, 12) == []
    assert _check_column(cantor_spec, [0.5], 0.1, 0) == [ROOT]
    # a window inside the gap (1/9, 2/9) of the generation-1 cell [0, 1/3];
    # cut at depth 1, its search starts at that cell
    assert _check_column(cantor_spec, [1 / 6], 0.02, 12) == []
    (start,) = _check_column(cantor_spec, [1 / 6], 0.02, 1)
    assert start[:3] == (1, 0.0, 1 / 3)
    # a window holding [0, 1] after clamping: the root is inside it, at any depth
    assert _check_column(binomial_spec, [0.0, 1.0], 1.0, 12) == []
    assert _check_column(binomial_spec, [0.0, 1.0], 1.0, 0) == []
    # depth 0: every other search is cut at the root
    assert _check_column(binomial_spec, [0.1, 0.5, 0.9], 0.01, 0) == [ROOT] * 3
    # a NaN center clamps to all of [0, 1], as the search's max and min do,
    # and an infinite one to nothing
    assert _check_column(binomial_spec, [math.nan, math.inf, -math.inf], 0.01, 12) == []
    # block boundaries at generations 4 and 64: at depth 70 every window
    # edge has left the support, so no search is cut; cut at depth 2, the
    # r = 2^-5 searches start at generation 2, and cut at depth 8, the
    # r = 1e-6 ones start below generation 4
    lefts, lengths, _ = cells(block_spec, 6)
    xs = np.concatenate([lefts, lefts + lengths, lefts + 0.5 * lengths]).tolist()
    assert _check_column(block_spec, xs, 2.0**-5, 70) == []
    assert _check_column(block_spec, xs, 1e-6, 70) == []
    assert {start[0] for start in _check_column(block_spec, xs, 2.0**-5, 2)} == {2}
    starts = _check_column(block_spec, xs, 1e-6, 8)
    assert starts and min(start[0] for start in starts) > 4


def test_ball_masses_finish_a_tangled_center_without_a_ball_mass_call(monkeypatch):
    """Siblings that overlap through rounding can leave a center's straddling
    nodes outside the hi/lo two-chain shape. These two centers are tangled
    and not truncated: the private search finishes them, their masses agree,
    and they make no ``ball_mass`` call."""
    spec = validate_spec(MoranSpec((GenerationFamily((3 / 13, 6 / 13, 1 / 13, 3 / 13),
                                                     (0.05, 0.05, 0.85, 0.05)),),
                                   ConstantSchedule(0), GapPolicy.NO_GAPS, 35))
    xs, r = [0.9998812499999999, 0.9502499999999999], 1.4802973661668753e-16
    searched = []
    search = specs_module._search

    def counted(spec_, x, *args):
        searched.append(x)
        return search(spec_, x, *args)

    monkeypatch.setattr(specs_module, "_search", counted)
    ball_masses(spec, xs, r, 35)
    monkeypatch.undo()
    assert searched == xs
    assert _check_column(spec, xs, r, 35) == []


def test_ball_masses_column_longer_than_one_chunk(binomial_spec):
    lefts, lengths, _ = cells(binomial_spec, 12)
    xs = np.concatenate([lefts, lefts + 0.5 * lengths, [1.0]]).tolist()
    assert len(xs) > 2 * BALL_CHUNK
    _check_column(binomial_spec, xs, 2.0**-12, 20)
    _check_column(binomial_spec, xs, 0.3 * 2.0**-12, 20)


def test_candidate_ball_masses_call_ball_mass_once_per_truncated_center(
        monkeypatch, binomial_spec, cantor_spec, periodic_spec):
    """Structural guard, not a timing gate: the candidate tables call
    ``specs.ball_mass`` exactly once per center whose search is truncated, in
    order, and never for another center. So a per-call error statistic
    covers every center that has an error. The cases hold tables where every
    center, some centers and no center is truncated."""
    calls = []

    def counted(*args):
        calls.append(args[1])
        return ball_mass(*args)

    monkeypatch.setattr(specs_module, "ball_mass", counted)
    seen = set()
    for spec, r in ((binomial_spec, 0.01), (cantor_spec, 0.25), (periodic_spec, 0.01)):
        depth = min(spec.depth_cap, matched_generation(spec, r) + 8)
        for table_of, d in ((lambda: counting.ball_table(spec, r), depth),
                            (lambda: midpoint_ball_masses(spec, r, 6), 14)):
            calls.clear()
            table = table_of()
            assert calls == [x for x in table.points.tolist() if _old_search(spec, x, r, d)[2]]
            seen.add(min(len(calls), 1) + (len(calls) == table.points.size))
    assert seen == {0, 1, 2}  # none, some and all of a table's centers


def test_ball_masses_skip_the_shared_descent(monkeypatch):
    """Structural guard, not a timing gate: on binomial_quarter at r = 2^-12
    the column kernel looks up at most half the families that root-started
    searches do. It looks one family up per generation and chunk, so a
    per-center search from the root would add its lookups to the kernel's."""
    spec = load_spec(SPECS / "binomial_quarter.json")
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


# ---------------------------------------------------------------------------
# the ball tables that moments and criterion 10 build
# ---------------------------------------------------------------------------

def _c10_tables():
    """Criterion 10's six (spec, r): base and 2.7 x base on three specs."""
    for factory in (verify.spec_uniform, verify.spec_middle_thirds, verify.spec_binomial):
        spec = factory()
        base = max_length_at(spec, 12)
        for r in (base, 2.7 * base):
            yield spec, r


def _searched(monkeypatch, spec, r):
    """``ball_table(spec, r)`` and the centers it sent to ``ball_mass``."""
    calls = []

    def counted(*args):
        calls.append(args[1])
        return ball_mass(*args)

    monkeypatch.setattr(specs_module, "ball_mass", counted)
    table = counting.ball_table(spec, r)
    monkeypatch.setattr(specs_module, "ball_mass", ball_mass)
    return table, calls


@pytest.mark.parametrize("tables", [
    pytest.param(lambda: [(load_spec(SPECS / f"{name}.json"), 2.0**-j)
                          for name, octaves in (("binomial_quarter", 12), ("periodic_two_family", 12),
                                                ("middle_thirds", 10))
                          for j in range(1, octaves + 1)], id="specs"),
    pytest.param(lambda: list(_c10_tables()), id="criterion_10"),
])
def test_ball_table_masses_equal_the_old_search(monkeypatch, tables):
    """Old-versus-new equivalence at table level: every ball mass equals the
    per-node oracle search byte for byte, and the centers sent to
    ``ball_mass`` are exactly those whose oracle search is truncated."""
    for spec, r in tables():
        table, calls = _searched(monkeypatch, spec, r)
        depth = min(spec.depth_cap, matched_generation(spec, r) + 8)
        old = [_old_search(spec, x, r, depth) for x in table.points.tolist()]
        assert table.ball_mass.tobytes() == np.array([mass for mass, _, _ in old]).tobytes()
        assert calls == [x for x, (_, _, cut) in zip(table.points.tolist(), old) if cut]


def test_moments_tables_keep_the_traced_ball_mass_calls(monkeypatch):
    """Structural guard for the benchmark's traced pass, not a timing gate:
    ``moments`` on middle_thirds at its 10 octaves sends truncated centers to
    ``ball_mass`` (36 of them), so ``specs.ball_mass.calls > 0`` still holds
    on the fixed-radius workload, while binomial_quarter at 15 octaves,
    whose window edges all land on cell edges, sends none."""
    thirds, quarter = load_spec(SPECS / "middle_thirds.json"), load_spec(SPECS / "binomial_quarter.json")
    assert sum(len(_searched(monkeypatch, thirds, 2.0**-j)[1]) for j in range(1, 11)) > 0
    assert sum(len(_searched(monkeypatch, quarter, 2.0**-j)[1]) for j in range(1, 16)) == 0


def test_ball_masses_free_each_chunk_before_the_next():
    """Working-set guard: on criterion 10's middle_thirds 2.7 x base column
    (8192 centers, two chunks) the traced peak of ``ball_masses`` is no more
    than on its first chunk alone, plus the larger output array and 16 KiB.
    Terms or frontiers kept past their chunk would add to it."""
    spec, r = list(_c10_tables())[3]
    pts = counting.ball_table(spec, r).points
    depth = min(spec.depth_cap, matched_generation(spec, r) + 8)
    assert pts.size == 2 * BALL_CHUNK

    def peak(xs):
        tracemalloc.start()
        try:
            ball_masses(spec, xs, r, depth)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    first = peak(pts[:BALL_CHUNK])
    assert peak(pts) <= first + 8 * (pts.size - BALL_CHUNK) + 16 * 1024


_DISPATCH_CASE = """
import sys
from hsmf import counting
from hsmf.specs import load_spec
spec = load_spec(sys.argv[1])
sys.stdout.write(counting.ball_table(spec, 2.0**-10).ball_mass.tobytes().hex())
"""


def test_ball_masses_do_not_depend_on_the_simd_dispatch_target():
    """The kernel uses only IEEE +, *, comparisons and math.exp, so its bytes
    are the same with numpy's AVX-512 targets disabled. Only the child
    process's environment changes."""
    from numpy._core import _multiarray_umath as umath

    targets = [t for t in umath.__cpu_dispatch__
               if (t.startswith("AVX512") or t == "X86_V4") and umath.__cpu_features__.get(t)]
    if not targets:
        pytest.skip("no AVX-512 dispatch target above the baseline on this CPU and numpy build")
    spec_path = SPECS / "binomial_quarter.json"
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join([str(Path(specs_module.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _DISPATCH_CASE, str(spec_path)], env=env,
                          capture_output=True, text=True, check=True)
    here = counting.ball_table(load_spec(spec_path), 2.0**-10).ball_mass
    assert done.stdout == here.tobytes().hex()
