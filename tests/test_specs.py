"""Measure construction: validation, interval geometry, ball masses, sampling."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare
from test_ball_mass import interval_of

from hsmf import (
    BlockSchedule,
    ConstantSchedule,
    GapPolicy,
    GenerationFamily,
    MoranSpec,
    PeriodicSchedule,
    SpecValidationError,
    TooDeep,
    ball_mass,
    check_spec,
    sample_paths,
    spec_from_dict,
    validate_spec,
)
from hsmf.counting import ball_table
from hsmf.specs import _tilt_weights, ball_masses, cells, family_rows, load_spec, matched_generation


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_uniform_ok(uniform_spec):
    assert validate_spec(uniform_spec) is uniform_spec


def test_validate_bad_probability_sum():
    spec = MoranSpec(
        families=(GenerationFamily((0.5, 0.6), (0.5, 0.5)),),
        schedule=ConstantSchedule(0),
        gap_policy=GapPolicy.NO_GAPS,
        depth_cap=16,
    )
    codes = {v.code for v in check_spec(spec)}
    assert codes == {"NonProbabilityVector"}
    with pytest.raises(SpecValidationError):
        validate_spec(spec)


def test_validate_gap_policy_mismatch():
    # ratio sum 0.8 != 1 under the abutting layout
    spec = MoranSpec(
        families=(GenerationFamily((0.5, 0.5), (0.4, 0.4)),),
        schedule=ConstantSchedule(0),
        gap_policy=GapPolicy.NO_GAPS,
        depth_cap=16,
    )
    codes = {v.code for v in check_spec(spec)}
    assert codes == {"GapPolicyMismatch"}


def test_validate_ratio_out_of_range():
    spec = MoranSpec(
        families=(GenerationFamily((0.5, 0.5), (0.5, 1.2)),),
        schedule=ConstantSchedule(0),
        gap_policy=GapPolicy.NO_GAPS,
        depth_cap=16,
    )
    codes = {v.code for v in check_spec(spec)}
    assert "RatioOutOfRange" in codes


def test_validate_bad_schedule_index():
    spec = MoranSpec(
        families=(GenerationFamily((0.5, 0.5), (0.5, 0.5)),),
        schedule=ConstantSchedule(3),
        gap_policy=GapPolicy.NO_GAPS,
        depth_cap=16,
    )
    codes = {v.code for v in check_spec(spec)}
    assert "BadSchedule" in codes


def _spec(probs=(0.5, 0.5), ratios=(0.5, 0.5), gaps=GapPolicy.NO_GAPS,
          schedule=ConstantSchedule(0), depth_cap=16):
    return MoranSpec((GenerationFamily(probs, ratios),), schedule, gaps, depth_cap)


@pytest.mark.parametrize("spec, code, where", [
    (_spec(probs=(1.0,), ratios=(0.5,)), "NonProbabilityVector", "families[0]"),
    (_spec(probs=(0.0, 1.0)), "NonProbabilityVector", "families[0].probs"),
    (_spec(ratios=(0.6, 0.6)), "RatioOutOfRange", "families[0].ratios"),
    (_spec(gaps=GapPolicy.EQUAL_GAPS), "GapPolicyMismatch", "families[0].ratios"),
    (_spec(depth_cap=0), "BadSchedule", "depth_cap"),
    (_spec(schedule=BlockSchedule((1, 4, 4), (0, 0, 0))), "BadSchedule", "schedule.boundaries"),
    (_spec(schedule=PeriodicSchedule(())), "BadSchedule", "schedule.pattern"),
], ids=["arity-1", "zero-probability", "ratio-sum-above-1", "equal-gaps-ratio-sum-1",
        "depth-cap-0", "boundaries-not-increasing", "empty-pattern"])
def test_check_spec_names_each_violation_alone(spec, code, where):
    assert [(v.code, v.where) for v in check_spec(spec)] == [(code, where)]


# ---------------------------------------------------------------------------
# interval geometry
# ---------------------------------------------------------------------------

def test_interval_uniform_dyadic(uniform_spec):
    # (1, 2): left half then its right half -> [1/4, 1/2], mass 1/4
    assert interval_of(uniform_spec, (1, 2)) == (0.25, 0.25, 0.25)


def test_interval_binomial_one_step(binomial_spec):
    left, length, mass = interval_of(binomial_spec, (2,))
    assert (left, length, mass) == (0.5, 0.5, 0.75)


def test_interval_equal_gaps_layout():
    # two children of relative length 1/4 and total slack 1/2 -> gap 1/2
    spec = validate_spec(
        MoranSpec(
            families=(GenerationFamily((0.5, 0.5), (0.25, 0.25)),),
            schedule=ConstantSchedule(0),
            gap_policy=GapPolicy.EQUAL_GAPS,
            depth_cap=32,
        )
    )
    left, length, mass = interval_of(spec, (2,))
    assert (left, length, mass) == (0.75, 0.25, 0.5)
    l1, len1, _ = interval_of(spec, (1,))
    assert l1 == 0.0
    assert left - (l1 + len1) == pytest.approx(0.5)  # the gap


def test_sibling_gaps_and_disjointness(periodic_spec):
    lefts, lengths, _ = cells(periodic_spec, 3)
    rights = lefts + lengths
    assert np.all(np.diff(lefts) > 0)
    assert np.all(lefts[1:] - rights[:-1] > -1e-15)  # never overlap
    # gap between siblings of a common parent is gap_frac * parent length
    fam = periodic_spec.family_at(1)
    g = periodic_spec.family_gap(fam)
    l0, len0, _ = interval_of(periodic_spec, (1,))
    l1, _, _ = interval_of(periodic_spec, (2,))
    assert l1 - (l0 + len0) == pytest.approx(g * 1.0)


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=8, deadline=None)
def test_masses_sum_to_one_every_generation(k):
    spec = validate_spec(
        MoranSpec(
            families=(
                GenerationFamily((0.25, 0.75), (0.25, 0.25)),
                GenerationFamily((1 / 3, 1 / 3, 1 / 3), (1 / 9, 1 / 9, 1 / 9)),
            ),
            schedule=PeriodicSchedule((0, 1)),
            gap_policy=GapPolicy.EQUAL_GAPS,
            depth_cap=64,
        )
    )
    _, _, masses = cells(spec, k)
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-10)


def test_nested_mass_consistency(binomial_spec):
    # parent mass equals the sum of its children's masses
    parent = interval_of(binomial_spec, (2, 1))[2]
    kids = [interval_of(binomial_spec, (2, 1, j))[2] for j in (1, 2)]
    assert parent == pytest.approx(sum(kids), rel=1e-15)


# ---------------------------------------------------------------------------
# ball masses
# ---------------------------------------------------------------------------

def test_ball_mass_whole_space(uniform_spec):
    mass, err = ball_mass(uniform_spec, 0.5, 0.5, depth=1)
    assert mass == 1.0 and err == 0.0


def test_ball_mass_r_at_least_one_is_exact(cantor_spec):
    mass, err = ball_mass(cantor_spec, 0.3, 1.0, depth=5)
    assert mass == 1.0 and err == 0.0


def test_ball_mass_aligned_binomial(binomial_spec):
    # B(0.25, 0.25) = [0, 0.5] exactly, the mass-1/4 child
    mass, err = ball_mass(binomial_spec, 0.25, 0.25, depth=1)
    assert mass == pytest.approx(0.25)
    assert err == 0.0


def test_ball_mass_against_cell_enumeration(binomial_spec):
    # brute force: sum depth-12 cell masses by midpoint membership in the window
    x, r, depth = 0.3, 0.1, 12
    mass, err = ball_mass(binomial_spec, x, r, depth)
    lefts, lengths, masses = cells(binomial_spec, depth)
    mids = lefts + 0.5 * lengths
    ref = masses[(mids >= x - r) & (mids <= x + r)].sum()
    assert err < 1e-3
    assert mass == pytest.approx(ref, abs=1e-12)


def test_ball_mass_error_bound_brackets_truth(binomial_spec):
    # deepening the evaluation keeps the refined value inside the coarse bracket
    x, r = 0.3, 0.07
    m8, e8 = ball_mass(binomial_spec, x, r, 8)
    m16, e16 = ball_mass(binomial_spec, x, r, 16)
    assert e16 < e8
    assert m8 - e8 - 1e-15 <= m16 <= m8 + e8 + 1e-15


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_enumeration_sampling_and_ball_masses_stop_at_depth_cap(binomial_spec):
    cap = binomial_spec.depth_cap
    with pytest.raises(TooDeep, match=f"^generation {cap + 1} exceeds depth_cap {cap}$"):
        cells(binomial_spec, cap + 1)
    with pytest.raises(TooDeep, match=f"^depth {cap + 1} exceeds depth_cap {cap}$"):
        sample_paths(binomial_spec, 2.0, 0.0, cap + 1, 4, 0)
    with pytest.raises(TooDeep, match=f"^depth {cap + 1} exceeds depth_cap {cap}$"):
        ball_masses(binomial_spec, [0.25, 0.5], 0.1, cap + 1)


def test_sample_path_deterministic(binomial_spec):
    p1 = sample_paths(binomial_spec, 1.0, 0.0, 12, 1, seed=5)[0]
    p2 = sample_paths(binomial_spec, 1.0, 0.0, 12, 1, seed=5)[0]
    assert p1.shape == (1, 12)
    assert [row.tolist() for row in p1] == [row.tolist() for row in p2]
    assert set(p1.ravel().tolist()) <= {1, 2}


def _int64_sample_paths(spec, q, t, depth, n, seed):
    """Reference: the path matrix drawn as ``sample_paths`` draws it, stored as int64."""
    rng = np.random.default_rng(seed)
    paths = np.empty((n, depth), dtype=np.int64)
    rows = family_rows(spec)
    for g in range(1, depth + 1):
        fam = spec.family_at(g)
        cum = np.cumsum(_tilt_weights(rows[spec.schedule.family_index(g)], q, t))
        cum[-1] = 1.0
        paths[:, g - 1] = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), fam.arity - 1) + 1
    return paths


def _equal_family(arity):
    return GenerationFamily((1.0 / arity,) * arity, (1.0 / arity,) * arity)


@pytest.mark.parametrize("arities", [(2,), (2, 6), (300,), (127,), (128,)])
def test_sample_paths_are_stored_in_the_narrowest_signed_dtype(arities):
    spec = validate_spec(MoranSpec(tuple(_equal_family(a) for a in arities),
                                   PeriodicSchedule(tuple(range(len(arities)))), GapPolicy.NO_GAPS, 64))
    n, depth = 500, 12
    for q, t in ((1.0, 0.0), (0.0, 0.0), (2.0, -0.5)):
        paths = sample_paths(spec, q, t, depth, n, seed=7)[0]
        if max(arities) <= 127:
            assert paths.dtype == np.int8 and paths.nbytes == n * depth
        else:
            assert paths.dtype == np.int16
        want = _int64_sample_paths(spec, q, t, depth, n, seed=7)
        assert np.array_equal(paths, want)
        assert paths.tolist() == want.tolist()
        assert paths.max() <= max(arities)


def test_tilt_probabilities_match_frequencies(binomial_spec):
    # q=2, t=0 on masses (1/4, 3/4): tilt weights (0.1, 0.9)
    n = 10**5
    paths = sample_paths(binomial_spec, 2.0, 0.0, 1, n, seed=11)[0]
    counts = np.bincount(paths[:, 0], minlength=3)[1:]
    p = np.array([0.1, 0.9])
    stat, pval = chisquare(counts, n * p)
    assert pval > 1e-4


def test_uniform_tilt_is_uniform():
    spec = validate_spec(
        MoranSpec(
            families=(GenerationFamily((0.2, 0.3, 0.5), (1 / 3, 1 / 3, 1 / 3)),),
            schedule=ConstantSchedule(0),
            gap_policy=GapPolicy.NO_GAPS,
            depth_cap=64,
        )
    )
    n = 3 * 10**4
    paths = sample_paths(spec, 0.0, 0.0, 1, n, seed=3)[0]
    counts = np.bincount(paths[:, 0], minlength=4)[1:]
    _, pval = chisquare(counts)
    assert pval > 1e-4


# ---------------------------------------------------------------------------
# matching and JSON round trip
# ---------------------------------------------------------------------------

def test_matched_generation_dyadic(uniform_spec):
    assert matched_generation(uniform_spec, 2.0**-16) == 16
    assert matched_generation(uniform_spec, 0.3) == 2
    assert matched_generation(uniform_spec, 1.0) == 0


def test_support_intervals_nogaps(uniform_spec):
    table = ball_table(uniform_spec, 2.0**-6)
    assert table.lefts.tolist() == [0.0] and table.rights.tolist() == [1.0]


def test_spec_json_round_trip(periodic_spec, tmp_path):
    d = periodic_spec.as_dict()
    clone = spec_from_dict(json.loads(json.dumps(d)))
    assert clone.as_dict() == d


def test_spec_json_rejects_unknown_keys():
    d = {
        "families": [{"probs": [0.5, 0.5], "ratios": [0.5, 0.5]}],
        "schedule": {"type": "constant", "family": 0},
        "gap_policy": "no_gaps",
        "depth_cap": 8,
        "extra": 1,
    }
    with pytest.raises(ValueError, match="unknown keys"):
        spec_from_dict(d)
    d.pop("extra")
    d["families"][0]["color"] = "blue"
    with pytest.raises(ValueError, match="unknown keys"):
        spec_from_dict(d)


def _spec_json(path, text: str) -> str:
    """A valid spec's JSON with the value at ``path`` replaced by the JSON ``text``."""
    d = {"families": [{"probs": [0.25, 0.75], "ratios": [0.5, 0.5]}],
         "schedule": {"type": "constant", "family": 0}, "gap_policy": "no_gaps", "depth_cap": 8}
    if not path:
        return text
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@"
    return json.dumps(d).replace('"@"', text)


@pytest.mark.parametrize("path, text, message", [
    ((), "[1, 2]", "spec must be an object, got [1, 2]"),
    (("families",), "5", "families must be a list, got 5"),
    (("families", 0), "null", "families[0] must be an object, got None"),
    (("families", 0, "probs"), "0.5", "families[0].probs must be a list, got 0.5"),
    (("schedule",), '{"type": "periodic", "pattern": 3}', "schedule.pattern must be a list, got 3"),
    (("schedule",), '{"type": "blocks", "boundaries": [1], "families": {}}',
     "schedule.families must be a list, got {}"),
    (("schedule",), '{"type": "constant"}', "missing key 'family' in schedule"),
    (("schedule", "family"), "null", "schedule.family must be an integer, got None"),
    (("depth_cap",), "1e400", "depth_cap must be an integer, got inf"),
    (("families", 0), '{"probs": [0.5, 0.5]}', "missing key 'ratios' in families[0]"),
], ids=["top-level-list", "families-int", "family-null", "probs-number", "pattern-int",
        "block-families-object", "family-missing", "family-null-index", "depth-cap-1e400",
        "ratios-missing"])
def test_spec_from_dict_names_the_malformed_field(path, text, message):
    with pytest.raises(ValueError) as e:
        spec_from_dict(json.loads(_spec_json(path, text)))
    assert str(e.value) == message


@pytest.mark.parametrize("path, text, message", [
    (("depth_cap",), "4.7", "depth_cap must be an integer, got 4.7"),
    (("depth_cap",), "4.0", "depth_cap must be an integer, got 4.0"),
    (("depth_cap",), "true", "depth_cap must be an integer, got True"),
    (("schedule", "family"), "0.9", "schedule.family must be an integer, got 0.9"),
    (("families", 0, "probs", 0), '"0.5"', "families[0].probs[0] must be a finite number, got '0.5'"),
    (("families", 0, "ratios", 1), "false", "families[0].ratios[1] must be a finite number, got False"),
    (("families", 0, "probs", 0), "NaN", "families[0].probs[0] must be a finite number, got nan"),
    (("families", 0, "probs", 1), "-Infinity",
     "families[0].probs[1] must be a finite number, got -inf"),
    (("families", 0, "ratios", 0), "1e400", "families[0].ratios[0] must be a finite number, got inf"),
    (("families", 0, "ratios", 0), "1" + "0" * 400,
     f"families[0].ratios[0] must be a finite number, got 1{'0' * 400}"),
], ids=["depth-cap-fraction", "depth-cap-float", "depth-cap-bool", "family-fraction",
        "prob-string", "ratio-bool", "prob-nan", "prob-minus-infinity", "ratio-1e400",
        "ratio-huge-int"])
def test_spec_fields_take_only_their_json_type(tmp_path, path, text, message):
    """No silent coercion: each of these used to load as a valid spec, or as a NaN one."""
    file = tmp_path / "spec.json"
    file.write_text(_spec_json(path, text))
    with pytest.raises(ValueError) as e:
        load_spec(file)
    assert str(e.value) == message


def test_spec_numbers_may_be_json_integers():
    d = json.loads(_spec_json(("families", 0), '{"probs": [1, 0], "ratios": [0.5, 0.5]}'))
    assert spec_from_dict(d).families[0].probs == (1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_check_spec_rejects_non_finite_probabilities(bad):
    spec = MoranSpec(
        families=(GenerationFamily((bad, 0.5), (0.5, 0.5)),),
        schedule=ConstantSchedule(0),
        gap_policy=GapPolicy.NO_GAPS,
        depth_cap=8,
    )
    assert [(v.code, v.where, v.message) for v in check_spec(spec)] == [
        ("NonProbabilityVector", "families[0].probs", "entries must be finite")]
