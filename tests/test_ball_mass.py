"""
``specs.ball_mass`` against the depth-first search it replaced.

The old search looked up each expanded node's family through ``family_at``
and an ``lru_cache``d ``child_layout`` and took ``math.log`` of every child
probability; it is kept here as a test-only oracle. The table-driven search
must agree with it bit for bit (``==``), because its traversal order, and so
its summation order, is the same.
"""

import math

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
from hsmf.specs import cells


# ---------------------------------------------------------------------------
# test-only oracle: the per-node family_at/child_layout/math.log search
# ---------------------------------------------------------------------------

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
def random_specs(draw):
    gap_policy = draw(st.sampled_from(tuple(GapPolicy)))
    n_fam = draw(st.integers(1, 3))
    families = tuple(draw(_families(gap_policy)) for _ in range(n_fam))
    depth_cap = draw(st.integers(4, 14))
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
