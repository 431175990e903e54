"""Normalization exponents, envelope estimates, separator grids."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from hsmf import (
    BlockSchedule,
    ConstantSchedule,
    GapPolicy,
    GenerationFamily,
    MoranSpec,
    PeriodicSchedule,
    beta_sequence,
    partition_moment_table,
    separator_grid,
    solve_beta_k,
    theta_delta_from_moments,
    validate_spec,
)
from hsmf.counting import MomentTable, log_partition, log_partition_moment
from hsmf.errors import InsufficientScales, NoBracket, NoConvergence, ParameterOutOfRange
from hsmf.scaling import (
    _bracket_bound,
    _table_generations,
    sample_generations,
    separator_problems,
    slope_changes,
    solve_beta_stack,
    stack_by_shape,
)
from hsmf.specs import family_generation_counts, load_spec
from hsmf.oracles import periodic_moran_beta, switching_binomial_tau
from hsmf import verify

LOG2_6_OVER_5 = math.log2(6) / 5  # 0.51699250014423122
SPECS = Path(__file__).resolve().parent.parent / "specs"


# ---------------------------------------------------------------------------
# solve_beta_k
# ---------------------------------------------------------------------------

def test_beta_uniform_closed_form(uniform_spec):
    for q in (-3.0, 0.0, 1.0, 2.5):
        for k in (1, 7, 64):
            assert solve_beta_k(uniform_spec, q, k) == pytest.approx(1.0 - q, abs=1e-12)


def test_beta_at_one_is_zero(periodic_spec, block_spec, switching_spec):
    for spec in (periodic_spec, block_spec, switching_spec):
        for k in (3, 10, 101):
            assert abs(solve_beta_k(spec, 1.0, k)) <= 1e-12


def test_beta_periodic_even_generations(periodic_spec):
    for q in (-2.0, 0.0, 0.5, 2.0):
        want = LOG2_6_OVER_5 * (1.0 - q)
        assert solve_beta_k(periodic_spec, q, 10) == pytest.approx(want, abs=1e-12)
        assert solve_beta_k(periodic_spec, q, 1000) == pytest.approx(want, abs=1e-12)


def test_beta_closed_form_matches_root_solver():
    # constant ratios take the closed form; it must agree with the root of
    # the partition kernel found by plain bisection
    fam = GenerationFamily((0.3, 0.7), (0.25, 0.25))
    spec = validate_spec(
        MoranSpec((fam,), ConstantSchedule(0), GapPolicy.EQUAL_GAPS, depth_cap=256)
    )
    for q in (-2.0, -0.5, 0.0, 0.7, 1.0, 3.0):
        k = 37
        closed = solve_beta_k(spec, q, k)
        counts = family_generation_counts(spec, k)
        lo, hi = -64.0, 64.0
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            g, _ = log_partition(spec.families, q, mid, counts)
            if g[0] > 0:
                lo = mid
            else:
                hi = mid
        assert closed == pytest.approx(0.5 * (lo + hi), abs=1e-12)


def test_beta_residual_bound_nonconstant_ratios():
    fam = GenerationFamily((0.2, 0.5, 0.3), (0.2, 0.3, 0.25))
    spec = validate_spec(
        MoranSpec((fam,), ConstantSchedule(0), GapPolicy.EQUAL_GAPS, depth_cap=256)
    )
    for q in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
        for k in (3, 31, 128):
            beta = solve_beta_k(spec, q, k)
            assert abs(log_partition_moment(spec, q, beta, k)) <= 1e-12 * k


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=0.05, max_value=0.45),
    st.floats(min_value=0.05, max_value=0.45),
    st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=80, deadline=None)
def test_beta_residual_property(q, k, c1, c2, p1):
    fam = GenerationFamily((p1, 1.0 - p1), (c1, c2))
    spec = validate_spec(
        MoranSpec((fam,), ConstantSchedule(0), GapPolicy.EQUAL_GAPS, depth_cap=64)
    ) if c1 + c2 < 1.0 - 1e-6 else None
    if spec is None:
        return
    beta = solve_beta_k(spec, q, k)
    assert abs(log_partition_moment(spec, q, beta, k)) <= 1e-12 * k


def test_beta_monotone_convex_in_q(block_spec):
    qs = np.arange(-4.0, 4.0 + 0.25, 0.25)
    for k in (5, 40, 333):
        vals = np.array([solve_beta_k(block_spec, float(q), k) for q in qs])
        assert np.all(np.diff(vals) <= 1e-10)
        second = np.diff(np.diff(vals))
        assert np.all(second >= -1e-9)


# ---------------------------------------------------------------------------
# beta sequences
# ---------------------------------------------------------------------------

def test_beta_sequence_uniform_exact(uniform_spec):
    bs = beta_sequence(uniform_spec, 0.5, 256)
    assert bs.liminf_est == bs.limsup_est == pytest.approx(0.5, abs=1e-14)
    assert np.all(np.diff(bs.k_samples) > 0)


def test_beta_sequence_block_bounds(block_spec):
    # growing block ratios: the envelope reaches both branch exponents
    bs = beta_sequence(block_spec, 0.5, 4**10)
    lo = math.log(math.sqrt(0.25) + math.sqrt(0.75)) / math.log(4.0)
    assert bs.liminf_est == pytest.approx(lo, abs=0.02)
    assert bs.limsup_est == pytest.approx(0.25, abs=0.02)
    assert bs.limsup_est - bs.liminf_est > 0.01


def test_beta_sequence_switching_branches(switching_spec):
    tau, tau_hat = switching_binomial_tau(0.2, 0.4, 0.5)
    bs = beta_sequence(switching_spec, 0.5, 4**10)
    assert bs.liminf_est == pytest.approx(tau, abs=0.02)
    assert bs.limsup_est == pytest.approx(tau_hat, abs=0.02)


def test_sample_generations_increasing_to_k_max(uniform_spec, periodic_spec, block_spec):
    for spec in (uniform_spec, periodic_spec, block_spec):
        for k_max in (1, 3, 100, min(1 << 20, spec.depth_cap)):
            ks = sample_generations(spec, k_max)
            assert np.all(np.diff(ks) > 0)
            assert ks[0] >= 1 and ks[-1] <= k_max
            if isinstance(spec.schedule, BlockSchedule):
                assert ks[-1] == k_max
            else:  # beta_{mP} = beta_P: one period holds the whole envelope
                assert ks.tolist() == [min(spec.schedule.period, k_max)]


def test_separator_grid_depth_cap_guard(uniform_spec, periodic_spec, block_spec):
    from hsmf.errors import TooDeep

    for spec in (uniform_spec, periodic_spec, block_spec):
        with pytest.raises(TooDeep):
            separator_grid(spec, [0.5], spec.depth_cap + 1)


def test_beta_sequence_depth_cap_guard(uniform_spec):
    from hsmf.errors import TooDeep

    with pytest.raises(TooDeep):
        beta_sequence(uniform_spec, 0.5, uniform_spec.depth_cap + 1)
    with pytest.raises(TooDeep):
        solve_beta_k(uniform_spec, 0.5, uniform_spec.depth_cap + 1)


def test_beta_sequence_block_nonconstant_ratios():
    # root-solve path for block schedules whose ratios differ per child
    fam_a = GenerationFamily((0.3, 0.7), (0.2, 0.35))
    fam_b = GenerationFamily((0.5, 0.5), (0.3, 0.25))
    spec = validate_spec(
        MoranSpec(
            (fam_a, fam_b),
            BlockSchedule(boundaries=(1, 8, 64, 512), families=(0, 1, 0, 1)),
            GapPolicy.EQUAL_GAPS,
            depth_cap=4096,
        )
    )
    bs = beta_sequence(spec, 1.5, 2000)
    assert np.all(np.diff(bs.k_samples) > 0)
    assert np.isfinite(bs.liminf_est) and np.isfinite(bs.limsup_est)
    assert bs.liminf_est <= bs.limsup_est + 1e-12
    # the endpoint envelope brackets directly solved interior values
    for k in (7, 63, 511, 1999):
        val = solve_beta_k(spec, 1.5, k)
        assert bs.liminf_est - 1e-12 <= val <= bs.limsup_est + 1e-12


# ---------------------------------------------------------------------------
# block envelopes from block endpoints
# ---------------------------------------------------------------------------

def _random_families(rng, closed: bool):
    """1-3 random families of arity 2-4 under a random gap policy; ``closed``
    picks constant per-family ratios (closed form) or mixed ratios (Newton
    path)."""
    n_fam = int(rng.integers(1, 4))
    gap = GapPolicy.NO_GAPS if rng.random() < 0.5 else GapPolicy.EQUAL_GAPS
    fams = []
    for _ in range(n_fam):
        arity = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(arity) * 2.0)
        total = 1.0 if gap is GapPolicy.NO_GAPS else float(rng.uniform(0.3, 0.9))
        if closed:
            c = np.full(arity, total / arity)
        else:
            c = np.clip(rng.dirichlet(np.ones(arity) * 2.0) * total, 1e-4, 1 - 1e-9)
            if gap is GapPolicy.NO_GAPS:
                c = c / c.sum()
        fams.append(GenerationFamily(tuple(p / p.sum()), tuple(c)))
    return tuple(fams), gap


def _random_block_spec(rng, closed: bool, k_max: int) -> MoranSpec:
    """A block schedule over ``_random_families``, some boundaries past k_max."""
    fams, gap = _random_families(rng, closed)
    n_bounds = int(rng.integers(1, min(8, k_max)))
    inner = rng.choice(np.arange(2, k_max + k_max // 4 + 1), size=n_bounds, replace=False)
    bounds = (1, *sorted(int(t) for t in inner))
    families = tuple(int(rng.integers(0, len(fams))) for _ in bounds)
    return validate_spec(
        MoranSpec(fams, BlockSchedule(bounds, families), gap, depth_cap=2 * k_max)
    )


@pytest.mark.parametrize("closed,k_cap", [(True, 4000), (False, 300)])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_block_endpoint_envelope_matches_dense(closed, k_cap, seed):
    rng = np.random.default_rng(seed)
    k_max = int(rng.integers(4, k_cap + 1))
    spec = _random_block_spec(rng, closed, k_max)
    qs = np.round(np.sort(rng.uniform(-4.0, 4.0, size=3)), 6)
    endpoints = set(sample_generations(spec, k_max).tolist())
    assert all(1 <= k <= k_max for k in endpoints)
    grid = separator_grid(spec, qs, k_max)
    for i, q in enumerate(qs):
        dense = solve_beta_k(spec, float(q), np.arange(1, k_max + 1))
        assert grid.b[i] == pytest.approx(dense.min(), abs=1e-12)
        assert grid.B[i] == pytest.approx(dense.max(), abs=1e-12)
        d = grid.diagnostics[i]
        assert d["k_b"] in endpoints and d["k_B"] in endpoints
        assert d["generations"] == len(endpoints)
        assert d["window"] == [1, k_max]


def test_block_endpoints_on_shipped_spec():
    # structural guard: a 2^20-generation block envelope costs a handful of
    # generations, not a dense scan
    spec = load_spec(SPECS / "block_switched.json")
    ks = sample_generations(spec, 1 << 20)
    assert ks.size <= 2 * len(spec.schedule.boundaries) + 2
    assert ks[0] == 1 and ks[-1] == 1 << 20


def test_periodic_envelope_is_one_generation_on_shipped_specs():
    # structural guard: a constant or periodic envelope at depth_cap (4096 or
    # 8192) costs one generation, not a dense periodic scan
    for path in sorted(SPECS.glob("*.json")):
        spec = load_spec(path)
        if not isinstance(spec.schedule, BlockSchedule):
            assert sample_generations(spec, spec.depth_cap).tolist() == [spec.schedule.period]


def _stride_generations(spec: MoranSpec, k_max: int) -> np.ndarray:
    """The constant and periodic sampler the envelope used before the
    one-period rule: every stride-th generation, with a period-aligned stride
    giving about 2048 of them, plus k_max."""
    period = spec.schedule.period
    stride = period * max(1, (k_max // period) // 2048)
    ks = np.arange(stride, k_max + 1, stride, dtype=np.int64)
    if ks.size == 0 or ks[-1] != k_max:
        ks = np.append(ks, k_max)
    return ks


def test_periodic_envelope_within_1e_14_of_stride_sampler():
    # at a period-aligned k_max every stride sample holds beta_P up to float
    # noise, so the one-period envelope moves b and B by at most 1e-14
    qs = np.arange(-8.0, 8.0 + 0.125, 0.25)
    for path in sorted(SPECS.glob("*.json")):
        spec = load_spec(path)
        if isinstance(spec.schedule, BlockSchedule):
            continue
        for k_max in (256, 1000, 1024):
            old = solve_beta_k(spec, qs[:, None], _stride_generations(spec, k_max))
            grid = separator_grid(spec, qs, k_max)
            for new, ref in ((grid.b, old.min(axis=1)), (grid.B, old.max(axis=1))):
                assert np.all(np.abs(new - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref))), (path.name, k_max)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), closed=st.booleans(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_periodic_envelope_is_the_one_period_root(seed, closed, data):
    rng = np.random.default_rng(seed)
    fams, gap = _random_families(rng, closed)
    if len(fams) > 1:
        sched = PeriodicSchedule(tuple(int(f) for f in rng.integers(0, len(fams), size=int(rng.integers(2, 6)))))
    else:
        sched = ConstantSchedule(0)
    spec = validate_spec(MoranSpec(fams, sched, gap, depth_cap=512))
    period = sched.period
    k_max = data.draw(st.integers(1, spec.depth_cap), label="k_max")
    qs = np.round(np.sort(rng.uniform(-4.0, 4.0, size=3)), 6)
    grid = separator_grid(spec, qs, k_max)
    want = solve_beta_k(spec, qs, min(period, k_max))
    assert grid.b.tobytes() == want.tobytes() and grid.B.tobytes() == want.tobytes()
    assert all(d["oscillation"] == 0.0 and d["converged"] for d in grid.diagnostics)
    if k_max >= period:
        at_period = separator_grid(spec, qs, period)
        assert grid.b.tobytes() == at_period.b.tobytes() and grid.B.tobytes() == at_period.B.tobytes()


def test_block_endpoint_envelope_shipped_specs_dense():
    qs = np.arange(-8.0, 8.0 + 0.5, 0.5)
    for name in ("block_switched", "switching_binomial"):
        spec = load_spec(SPECS / f"{name}.json")
        grid = separator_grid(spec, qs, 4**8)
        for i, q in enumerate(qs):
            dense = solve_beta_k(spec, float(q), np.arange(1, 4**8 + 1))
            assert grid.b[i] == pytest.approx(dense.min(), abs=1e-14)
            assert grid.B[i] == pytest.approx(dense.max(), abs=1e-14)


def test_grid_attainment_diagnostics(uniform_spec, periodic_spec, block_spec):
    qs = np.array([-1.0, 0.5, 2.0])
    for spec, k_max in ((uniform_spec, 64), (periodic_spec, 1000), (block_spec, 4**8)):
        grid = separator_grid(spec, qs, k_max)
        ks = sample_generations(spec, k_max)
        for i, d in enumerate(grid.diagnostics):
            assert d["generations"] == ks.size
            assert d["k_b"] in ks and d["k_B"] in ks
            assert solve_beta_k(spec, float(qs[i]), d["k_b"]) == pytest.approx(grid.b[i], abs=1e-12)
            assert solve_beta_k(spec, float(qs[i]), d["k_B"]) == pytest.approx(grid.B[i], abs=1e-12)
        assert not grid.check_invariants()


# ---------------------------------------------------------------------------
# batched beta_k: scalar oracle, closed form, batch independence, iteration cap
# ---------------------------------------------------------------------------

def _random_spec(rng, closed: bool, kind: int | None = None) -> MoranSpec:
    """``_random_families`` under a constant, periodic or block schedule
    (``kind`` 0, 1 or 2, random when None), in the style of verify's random
    specs, with room for k up to 300. A periodic or block schedule may use
    one family."""
    fams, gap = _random_families(rng, closed)
    n_fam = len(fams)
    if kind is None:
        kind = int(rng.integers(0, 3)) if n_fam > 1 else 0
    if kind == 0:
        sched = ConstantSchedule(0)
    elif kind == 1:
        pattern = rng.integers(0, n_fam, size=int(rng.integers(2, 5)))
        sched = PeriodicSchedule(tuple(int(f) for f in pattern))
    else:
        bounds = tuple(int(t) for t in np.cumsum([1, *rng.integers(1, 100, size=3)]))
        sched = BlockSchedule(bounds, tuple(int(f) for f in rng.integers(0, n_fam, size=4)))
    return validate_spec(MoranSpec(fams, sched, gap, depth_cap=512))


def _oracle_newton_beta_k(spec: MoranSpec, q: float, k: int) -> float:
    """The scalar Newton solve the package ran before the batched kernel, one
    generation at a time: same bracket expansion, safeguard and 1e-13 k
    residual target, on per-family terms built independently of the kernel."""
    counts = family_generation_counts(spec, k)[:, 0]
    terms = [(float(c), q * f.log_probs, f.log_ratios)
             for f, c in zip(spec.families, counts) if c]

    def g_and_slope(beta):
        g = dg = 0.0
        for c, qlp, lr in terms:
            v = qlp + beta * lr
            m = v.max()
            w = np.exp(v - m)
            g += c * (m + math.log(w.sum()))
            dg += c * float((w @ lr) / w.sum())
        return g, dg

    lo, hi = -64.0, 64.0
    while g_and_slope(lo)[0] < 0.0 or g_and_slope(hi)[0] > 0.0:
        lo, hi = 2.0 * lo, 2.0 * hi
    beta = 0.0
    for _ in range(100):
        g, dg = g_and_slope(beta)
        if abs(g) <= 1e-13 * k:
            return beta
        lo, hi = (beta, hi) if g > 0.0 else (lo, beta)
        step = beta - g / dg
        beta = step if lo < step < hi else 0.5 * (lo + hi)
    raise AssertionError("oracle did not converge")


def _sampled_ks(rng, k_top: int = 300) -> np.ndarray:
    return np.unique(np.concatenate([[1, k_top], rng.integers(1, k_top + 1, size=14)]))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_batched_newton_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, closed=False)
    ks = _sampled_ks(rng)
    q = float(rng.uniform(-5.0, 5.0))
    betas = solve_beta_k(spec, q, ks)
    for k, beta in zip(ks.tolist(), betas):
        assert beta == pytest.approx(_oracle_newton_beta_k(spec, q, k), abs=1e-12)
        assert abs(log_partition_moment(spec, q, float(beta), k)) <= 1e-12 * k


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_closed_form_matches_count_products(seed):
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, closed=True)
    ks = _sampled_ks(rng)
    q = float(rng.uniform(-8.0, 8.0))
    counts = family_generation_counts(spec, ks)
    A = np.array([logsumexp(q * f.log_probs) for f in spec.families])
    L = np.array([-math.log(f.ratios[0]) for f in spec.families])
    want = (A @ counts) / (L @ counts)
    got = solve_beta_k(spec, q, ks)
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


def _wide_spec(rng) -> MoranSpec:
    """Arity 9 with mixed ratios: wide enough that numpy sums the children
    pairwise rather than in sequence."""
    c = rng.dirichlet(np.ones(9)) * 0.8
    fam = GenerationFamily(tuple(rng.dirichlet(np.ones(9))), tuple(np.clip(c, 1e-4, None)))
    return validate_spec(MoranSpec((fam,), ConstantSchedule(0), GapPolicy.EQUAL_GAPS, 512))


@pytest.mark.parametrize("kind", ["closed", "newton", "block-closed", "block-newton", "wide"])
def test_solve_is_batch_independent(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(6):
        if kind == "wide":
            spec = _wide_spec(rng)
        elif kind.startswith("block"):
            spec = _random_block_spec(rng, kind == "block-closed", 256)
        else:
            spec = _random_spec(rng, kind == "closed")
        ks = _sampled_ks(rng, 256)
        qs = np.array([-4.5, -1.0, 0.5, 2.0, 6.0])
        grid = solve_beta_k(spec, qs[:, None], ks)
        assert grid.shape == (qs.size, ks.size)
        for i, q in enumerate(qs):
            batch = solve_beta_k(spec, q, ks)
            alone = np.array([solve_beta_k(spec, q, int(k)) for k in ks])
            assert np.array_equal(batch, alone)
            assert np.array_equal(grid[i], alone)
            assert np.array_equal(solve_beta_k(spec, q, ks[::3]), batch[::3])
        for j in (0, ks.size - 1):
            assert np.array_equal(solve_beta_k(spec, qs, int(ks[j])), grid[:, j])


def test_grid_unchanged_by_extra_generations():
    # a dense solve adds every generation between the block endpoints; where
    # the attaining generation is unchanged, so is the envelope value, to the bit
    fam_a = GenerationFamily((0.3, 0.7), (0.2, 0.35))
    fam_b = GenerationFamily((0.5, 0.5), (0.3, 0.25))
    newton = validate_spec(MoranSpec(
        (fam_a, fam_b), BlockSchedule((1, 8, 64, 512), (0, 1, 0, 1)), GapPolicy.EQUAL_GAPS, 4096,
    ))
    qs = np.arange(-4.0, 4.25, 0.5)
    for spec, k_max in ((load_spec(SPECS / "block_switched.json"), 4**6), (newton, 2000)):
        ends = separator_grid(spec, qs, k_max)
        dense = solve_beta_k(spec, qs[:, None], np.arange(1, k_max + 1))
        same = 0
        for i, d_end in enumerate(ends.diagnostics):
            assert d_end["generations"] < k_max
            if d_end["k_b"] == dense[i].argmin() + 1:
                assert ends.b[i] == dense[i].min()
                same += 1
            if d_end["k_B"] == dense[i].argmax() + 1:
                assert ends.B[i] == dense[i].max()
                same += 1
        assert same >= qs.size


def test_newton_iteration_cap_raises(monkeypatch):
    from hsmf import scaling

    fam = GenerationFamily((0.2, 0.5, 0.3), (0.2, 0.3, 0.25))
    spec = validate_spec(MoranSpec((fam,), ConstantSchedule(0), GapPolicy.EQUAL_GAPS, 256))
    assert np.all(np.isfinite(solve_beta_k(spec, 2.0, np.array([5, 40]))))
    monkeypatch.setattr(scaling, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match=r"q=2\.0, k=5 \(2 of 2 generations"):
        solve_beta_k(spec, 2.0, np.array([5, 40]))
    with pytest.raises(NoConvergence):
        separator_grid(spec, [0.5, 2.0], 64)


@pytest.mark.parametrize("probs, ratios", [((0.2, 0.5, 0.3), (0.2, 0.3, 0.25)),
                                           ((1e-9, 0.999999999), (0.998, 0.001)),
                                           ((0.01, 0.99), (1e-6, 0.999))])
def test_bracket_bound_brackets_every_root(probs, ratios):
    """At +-h from ``_bracket_bound``, log S_k(q, t) has the signs a bracket
    needs, for q of both signs far past the CLI's usual range."""
    spec = validate_spec(MoranSpec((GenerationFamily(probs, ratios),), ConstantSchedule(0),
                                   GapPolicy.EQUAL_GAPS, 256))
    qs = np.repeat([-1e4, -20.0, -1.0, 0.0, 0.5, 1.0, 20.0, 1e4], 3)
    ks = np.tile([1, 7, 256], 8)
    counts = family_generation_counts(spec, ks)
    h = _bracket_bound(spec.families, qs, counts)
    assert np.all(np.isfinite(h))
    assert np.all(log_partition(spec.families, qs, h, counts)[0] < 0.0)
    assert np.all(log_partition(spec.families, qs, -h, counts)[0] > 0.0)
    roots = solve_beta_k(spec, qs, ks)
    assert np.all(np.abs(roots) < h)


def _doubling_newton_roots(spec: MoranSpec, q: np.ndarray, ks: np.ndarray, counts: np.ndarray):
    """The batched solve as it was before its bracket became +-``_bracket_bound``:
    each bracket starts at [-64, 64] and doubles until it holds a sign change,
    up to that bound, then the same safeguarded Newton steps to 1e-13 k."""
    lo, hi = np.full(ks.size, -64.0), np.full(ks.size, 64.0)
    todo = np.arange(ks.size)
    bound = _bracket_bound(spec.families, q, counts)
    while True:
        glo, _ = log_partition(spec.families, q[todo], lo[todo], counts[:, todo])
        ghi, _ = log_partition(spec.families, q[todo], hi[todo], counts[:, todo])
        todo = todo[(glo < 0.0) | (ghi > 0.0)]
        if todo.size == 0:
            break
        assert np.all(hi[todo] < bound[todo]), "no sign change inside the bound"
        lo[todo] *= 2.0
        hi[todo] *= 2.0
    beta = np.zeros(ks.size)
    tol = 1e-13 * np.maximum(ks, 1)
    todo = np.arange(ks.size)
    for _ in range(100):
        b = beta[todo]
        g, dg = log_partition(spec.families, q[todo], b, counts[:, todo])
        moving = np.abs(g) > tol[todo]
        todo, b, g, dg = todo[moving], b[moving], g[moving], dg[moving]
        if todo.size == 0:
            return beta
        up = g > 0.0
        lo[todo] = np.where(up, b, lo[todo])
        hi[todo] = np.where(up, hi[todo], b)
        mid = 0.5 * (lo[todo] + hi[todo])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = b - g / dg
        beta[todo] = np.where((lo[todo] < step) & (step < hi[todo]), step, mid)
    raise AssertionError("reference did not converge")


@pytest.mark.parametrize("kind", [0, 1, 2])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_bound_bracket_roots_match_doubling_search(kind, seed):
    """Every root from the +-h bracket is within 1e-12 max(1, |old|) of the
    doubling search's, on mixed-ratio specs of each schedule kind."""
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, closed=False, kind=kind)
    qs = np.concatenate([[-20.0, 20.0], rng.uniform(-20.0, 20.0, size=6)])
    ks = np.unique(np.concatenate([[1, 256], rng.integers(1, 257, size=6)]))
    got = solve_beta_k(spec, qs[:, None], ks).ravel()
    q_flat, k_flat = np.repeat(qs, ks.size), np.tile(ks, qs.size)
    old = _doubling_newton_roots(spec, q_flat, k_flat, family_generation_counts(spec, k_flat))
    assert np.all(np.abs(got - old) <= 1e-12 * np.maximum(1.0, np.abs(old)))


def test_batched_solve_errors_name_the_first_failing_pair(monkeypatch):
    from hsmf import scaling

    fam = GenerationFamily((0.2, 0.5, 0.3), (0.2, 0.3, 0.25))
    spec = validate_spec(MoranSpec((fam,), ConstantSchedule(0), GapPolicy.EQUAL_GAPS, 256))
    ks = np.array([5, 40])
    # 5 (q log 0.2) overflows to inf, so log S_5 is inf at every t: no bracket
    # exists, and the bound is not finite at the first pair in q-major order
    with np.errstate(over="ignore"), pytest.raises(
            NoBracket, match=r"^no finite bracket for beta at q=-1e\+308, k=5$"):
        solve_beta_k(spec, np.array([0.5, -1e308])[:, None], ks)
    # beta_k(1) = 0 is the starting point, so q = 1 converges in one step
    monkeypatch.setattr(scaling, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match=r"q=2\.0, k=5 \(2 of 2 generations"):
        solve_beta_k(spec, np.array([1.0, 2.0, 3.0])[:, None], ks)
    with pytest.raises(NoConvergence, match=r"q=3\.0, k=40 \(1 of 1 generations"):
        solve_beta_k(spec, np.array([1.0, 3.0]), np.array([7, 40]))


def test_generations_below_one_raise_before_any_solve(monkeypatch):
    """k < 1 has no generation-k cells: both routes name the first such k
    before they evaluate anything, and so does a stack."""
    from hsmf import scaling

    def no_solve(*args):
        raise AssertionError("solved a generation below 1")

    monkeypatch.setattr(scaling, "log_partition", no_solve)
    newton = validate_spec(MoranSpec((GenerationFamily((0.2, 0.5, 0.3), (0.2, 0.3, 0.25)),),
                                     ConstantSchedule(0), GapPolicy.EQUAL_GAPS, 256))
    closed = load_spec(SPECS / "uniform.json")
    for spec in (closed, newton):
        for k in (0, -1):
            with pytest.raises(ParameterOutOfRange, match=rf"^generation {k} is below 1$"):
                solve_beta_k(spec, 1.0, k)
        with pytest.raises(ParameterOutOfRange, match=r"^generation 0 is below 1$"):
            solve_beta_k(spec, np.array([0.5, 2.0])[:, None], np.array([3, 0, -1]))
        with pytest.raises(ParameterOutOfRange, match=r"^generation -2 is below 1$"):
            stack_by_shape([spec, spec, spec], [5, -2, 0])


def _shaped_spec(rng, arities, closed: bool, kind: int) -> MoranSpec:
    """Families of the given arities with constant (closed form) or mixed
    (Newton) ratios, under a constant, periodic or block schedule (``kind``
    0, 1 or 2); room for k up to 300."""
    gap = GapPolicy.NO_GAPS if rng.random() < 0.5 else GapPolicy.EQUAL_GAPS
    fams = []
    for arity in arities:
        p = rng.dirichlet(np.ones(arity) * 2.0)
        total = 1.0 if gap is GapPolicy.NO_GAPS else float(rng.uniform(0.3, 0.9))
        if closed:
            c = np.full(arity, total / arity)
        else:
            c = np.clip(rng.dirichlet(np.ones(arity) * 2.0) * total, 1e-4, 1 - 1e-9)
            if gap is GapPolicy.NO_GAPS:
                c = c / c.sum()
        fams.append(GenerationFamily(tuple(p / p.sum()), tuple(c)))
    n_fam = len(fams)
    if kind == 0:
        sched = ConstantSchedule(int(rng.integers(0, n_fam)))
    elif kind == 1:
        sched = PeriodicSchedule(tuple(int(f) for f in rng.integers(0, n_fam, size=int(rng.integers(2, 5)))))
    else:
        bounds = tuple(int(t) for t in np.cumsum([1, *rng.integers(1, 100, size=3)]))
        sched = BlockSchedule(bounds, tuple(int(f) for f in rng.integers(0, n_fam, size=4)))
    return validate_spec(MoranSpec(tuple(fams), sched, gap, depth_cap=512))


@st.composite
def spec_batches(draw):
    """2-9 specs drawn from 1-3 family shapes (1-3 families of arity 2-6,
    closed form or Newton), every schedule kind, one generation each, and a
    q grid reaching +-20."""
    shapes = draw(st.lists(st.tuples(st.lists(st.integers(2, 6), min_size=1, max_size=3), st.booleans()),
                           min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specs, ks = [], []
    for _ in range(draw(st.integers(2, 9))):
        arities, closed = shapes[draw(st.integers(0, len(shapes) - 1))]
        specs.append(_shaped_spec(rng, arities, closed, draw(st.integers(0, 2))))
        ks.append(draw(st.integers(1, 300)))
    qs = draw(st.lists(st.one_of(st.sampled_from([-20.0, -1.0, 0.0, 1.0, 20.0]),
                                 st.floats(-20.0, 20.0)), min_size=1, max_size=6))
    return specs, ks, np.array(qs)


def _assert_stacks_equal_lone_solves(specs, ks, qs):
    """Every stacked root and residual equals a lone solve's, to the bit, and
    the stacks hold each spec once, grouped by family arities and route."""
    stacks = stack_by_shape(specs, ks)
    assert sorted(i for stack in stacks for i in stack.positions) == list(range(len(specs)))
    for stack in stacks:
        shapes = {(tuple(f.arity for f in specs[i].families),
                   all(f.constant_ratio for f in specs[i].families)) for i in stack.positions}
        assert len(shapes) == 1
        betas = solve_beta_stack(stack, qs)
        g, dg = log_partition(stack.families, qs, betas, stack.counts)
        assert betas.shape == g.shape == dg.shape == (len(stack.positions), qs.size)
        for row, i in enumerate(stack.positions):
            alone = solve_beta_k(specs[i], qs, ks[i])
            assert betas[row].tobytes() == alone.tobytes()
            g_alone, dg_alone = log_partition(specs[i].families, qs, alone,
                                              family_generation_counts(specs[i], ks[i]))
            assert g[row].tobytes() == g_alone.tobytes()
            assert dg[row].tobytes() == dg_alone.tobytes()
    return stacks


@pytest.mark.parametrize("seed", [0, 5])
def test_stacked_roots_equal_lone_solves_on_criterion_1_pairs(seed):
    rng = np.random.default_rng(seed + 1)
    specs, ks = [], []
    for _ in range(200):
        specs.append(verify._random_spec(rng))
        ks.append(int(rng.integers(4, 97)))
    stacks = _assert_stacks_equal_lone_solves(specs, ks, np.arange(-3.0, 4.0))
    assert len(stacks) <= 12


@given(spec_batches())
@settings(max_examples=60, deadline=None)
def test_stacked_roots_equal_lone_solves(batch):
    _assert_stacks_equal_lone_solves(*batch)


def _first_loop_error(specs, ks, qs):
    """The error that solving the specs one by one raises first."""
    for spec, k in zip(specs, ks):
        try:
            solve_beta_k(spec, qs, k)
        except (NoBracket, NoConvergence) as e:
            return e
    return None


def _assert_stack_raises_as_the_loop(specs, ks, qs):
    want = _first_loop_error(specs, ks, qs)
    (stack,) = stack_by_shape(specs, ks)
    with pytest.raises(type(want)) as got:
        solve_beta_stack(stack, qs)
    assert got.value.args == want.args
    return want


def test_stacked_errors_name_the_pair_the_loop_raises_first(monkeypatch):
    from hsmf import scaling

    def newton_spec(probs):
        return validate_spec(MoranSpec((GenerationFamily(probs, (0.3, 0.25)),), ConstantSchedule(0),
                                       GapPolicy.EQUAL_GAPS, 256))

    # at q = -1e306, (1e-300)^q overflows, so no bracket exists; (1/2)^q does not
    halves, tiny = newton_spec((0.5, 0.5)), newton_spec((1e-300, 1.0 - 1e-300))
    extreme = np.array([0.5, -1e306])
    with np.errstate(over="ignore", invalid="ignore"):
        for specs, ks in (([halves, tiny, halves], [5, 7, 9]), ([tiny, halves], [7, 5])):
            want = _assert_stack_raises_as_the_loop(specs, ks, extreme)
            assert str(want) == "no finite bracket for beta at q=-1e+306, k=7"
        # beta_k(1) = 0 is the starting point, so q = 1 converges in one step
        monkeypatch.setattr(scaling, "_NEWTON_MAX_ITER", 1)
        want = _assert_stack_raises_as_the_loop([halves, tiny, halves], [5, 7, 9], np.array([2.0, -1e306]))
        assert str(want).endswith("q=2.0, k=5 (1 of 1 generations unconverged)")
    # the unconverged count is that spec's own, not the stack's
    want = _assert_stack_raises_as_the_loop([halves, tiny, halves], [5, 7, 9], np.array([1.0, 2.0, 2.0]))
    assert str(want).endswith("q=2.0, k=5 (2 of 2 generations unconverged)")


# ---------------------------------------------------------------------------
# theta/delta from tables
# ---------------------------------------------------------------------------

def _theta_delta_linear(table: MomentTable, q: float) -> tuple[float, float]:
    """Reference route: Theta/Delta of one row read off a linear-valued
    table, valid only while every moment and scale is representable."""
    if table.scales.size < 8:
        raise InsufficientScales("need at least 8 scales")
    if table.scales[0] / table.scales[-1] < 16.0:
        raise InsufficientScales("scales must span at least 4 octaves")
    vals = table.values[int(np.argmin(np.abs(table.q_grid - q)))]
    neg_log_r = -np.log(table.scales)
    x = np.log(vals) / neg_log_r
    fine = x[table.scales.size // 2:]
    return float(fine.min()), float(fine.max())


def _synthetic_logs(d_even: float, d_odd: float | None = None):
    """log(r^-d) at dyadic scales r = 2^-1 .. 2^-12, d alternating if d_odd."""
    neg_log_r = np.arange(1, 13) * math.log(2.0)
    d = np.full(neg_log_r.size, d_even)
    if d_odd is not None:
        d[1::2] = d_odd
    return d * neg_log_r, neg_log_r


def test_theta_delta_exact_power_law():
    for d in (0.0, 0.5, 1.0):
        theta, delta = theta_delta_from_moments(*_synthetic_logs(d))
        assert theta[0] == pytest.approx(d, abs=1e-12)
        assert delta[0] == pytest.approx(d, abs=1e-12)


def test_theta_delta_alternating_oscillation():
    theta, delta = theta_delta_from_moments(*_synthetic_logs(0.3, 0.8))
    assert theta[0] == pytest.approx(0.3, abs=1e-12)
    assert delta[0] == pytest.approx(0.8, abs=1e-12)


def test_theta_delta_requires_scales():
    logs, neg_log_r = _synthetic_logs(0.5)
    with pytest.raises(InsufficientScales, match="8 scales"):
        theta_delta_from_moments(logs[:4], neg_log_r[:4])
    with pytest.raises(InsufficientScales, match="4 octaves"):
        theta_delta_from_moments(logs, neg_log_r / 4.0)


def test_theta_matches_beta_route(uniform_spec):
    # partition moments at dyadic scales reproduce beta(2) = -1
    ks = np.arange(2, 24)
    log_s, _ = log_partition(uniform_spec.families, [[2.0]], 0.0, family_generation_counts(uniform_spec, ks))
    theta, delta = theta_delta_from_moments(log_s, ks * math.log(2.0))
    assert theta[0] == pytest.approx(-1.0, abs=0.01)
    assert delta[0] == pytest.approx(-1.0, abs=0.01)


def test_log_route_matches_linear_table(binomial_spec, periodic_spec):
    # on a table whose moments and scales all fit in a double, the log route
    # and the linear-valued reference agree to rounding
    qs = np.arange(-4.0, 4.5, 0.5)
    ks = list(range(4, 68, 4))
    for spec in (binomial_spec, periodic_spec, load_spec(SPECS / "block_switched.json")):
        table = partition_moment_table(spec, qs, ks)
        assert np.all(np.isfinite(table.values)) and np.all(table.values > 0)
        counts = family_generation_counts(spec, ks)
        log_s, _ = log_partition(spec.families, qs[:, None], 0.0, counts)
        neg_log_r = sum(n * -math.log(f.max_ratio) for f, n in zip(spec.families, counts))
        theta, delta = theta_delta_from_moments(log_s, neg_log_r)
        for i, q in enumerate(qs):
            ref_theta, ref_delta = _theta_delta_linear(table, q)
            assert theta[i] == pytest.approx(ref_theta, rel=0, abs=1e-13)
            assert delta[i] == pytest.approx(ref_delta, rel=0, abs=1e-13)


def test_theta_delta_independent_of_q_range():
    spec = load_spec(SPECS / "switching_binomial.json")
    narrow = separator_grid(spec, np.arange(-1.0, 1.5, 1.0), 1024)
    wide = separator_grid(spec, np.arange(-8.0, 8.5, 1.0), 1024)
    assert wide.q_grid[7] == narrow.q_grid[0] == -1.0
    assert wide.Theta[7] == narrow.Theta[0]
    assert wide.Delta[7] == narrow.Delta[0]


@pytest.mark.parametrize("source", ["shipped", "random"])
def test_theta_is_a_one_sided_bound_on_beta_k(source):
    # with r_k the largest generation-k length, |I|^t <= r_k^t for t >= 0 and
    # >= r_k^t for t <= 0, so at each table generation theta_k = log S_k(q, 0)
    # / (-log r_k) is >= beta_k where beta_k >= 0 and <= beta_k where beta_k <= 0
    if source == "shipped":
        specs = [load_spec(path) for path in sorted(SPECS.glob("*.json"))]
    else:
        rng = np.random.default_rng(20261020)
        specs = [verify._random_spec(rng) for _ in range(100)]
    qs = np.arange(-5.0, 5.0 + 0.25, 0.25)
    for spec in specs:
        ks = np.array(_table_generations(spec, min(1024, spec.depth_cap)))
        counts = family_generation_counts(spec, ks)
        log_s, _ = log_partition(spec.families, qs[:, None], 0.0, counts)
        neg_log_r = sum(n * -math.log(fam.max_ratio) for fam, n in zip(spec.families, counts))
        theta = log_s / neg_log_r
        beta = solve_beta_k(spec, qs[:, None], ks)
        tol = 1e-12 * ks
        assert np.all((theta >= beta - tol) | (beta < 0))
        assert np.all((theta <= beta + tol) | (beta > 0))


def test_theta_cross_check_on_worked_specs(periodic_spec, binomial_spec):
    # same-window consistency of the moment route and the envelope route
    for spec, q in ((periodic_spec, 0.5), (periodic_spec, 2.0), (binomial_spec, -1.0)):
        grid = separator_grid(spec, [q], k_max=512)
        assert abs(grid.Theta[0] - grid.b[0]) <= 0.05
        assert abs(grid.Delta[0] - grid.B[0]) <= 0.05


# ---------------------------------------------------------------------------
# separator grids
# ---------------------------------------------------------------------------

def test_grid_uniform(uniform_spec):
    qs = np.arange(-2.0, 2.5, 1.0)
    grid = separator_grid(uniform_spec, qs, 64)
    assert np.allclose(grid.b, 1 - qs, atol=1e-12)
    assert np.allclose(grid.B, 1 - qs, atol=1e-12)
    assert not grid.check_invariants()


def test_grid_periodic_closed_form(periodic_spec):
    qs = np.arange(-3.0, 3.25, 0.25)
    grid = separator_grid(periodic_spec, qs, 1000)
    want = LOG2_6_OVER_5 * (1 - qs)
    assert np.max(np.abs(grid.b - want)) < 1e-6
    assert np.max(np.abs(grid.B - want)) < 1e-6
    assert not grid.check_invariants()


def test_grid_block_gap(block_spec):
    grid = separator_grid(block_spec, [0.5], 4**10)
    assert grid.b[0] < grid.B[0] - 0.01
    assert not grid.diagnostics[0]["converged"]


def test_grid_invariant_reporting():
    from hsmf.scaling import SeparatorGrid

    qs = np.array([0.0, 1.0, 2.0])
    bad = SeparatorGrid(
        q_grid=qs,
        b=np.array([1.0, 0.0, 0.5]),   # not monotone
        B=np.array([1.0, 0.0, -1.0]),
        Theta=np.zeros(3),
        Delta=np.zeros(3),
        diagnostics=[{}] * 3,
    )
    problems = bad.check_invariants()
    assert any("b not non-increasing" in p for p in problems)
    assert any("chain" in p for p in problems)


@pytest.mark.parametrize("b, B, message", [
    ([1.0, 0.0, -0.5], [1.0, 0.0, -1.0], "chain b <= B violated"),
    ([-1.0, 0.0, -0.5], [1.0, 0.0, -0.5], "b not non-increasing in q"),
    ([1.0, 0.0, -1.0], [1.0, 0.0, 0.5], "B not non-increasing in q"),
    ([0.5, 0.0, -1.0], [0.5, 0.0, -1.0], "B not discretely convex"),
    ([1.0, -0.5, -1.0], [1.0, 0.0, -1.0], "b(1) != 0"),
    ([1.0, 0.0, -1.0], [1.5, 0.5, -0.5], "B(1) != 0"),
])
def test_separator_problems_names_each_broken_clause(b, B, message):
    """On q = (0, 1, 2), each pair breaks exactly one clause of the shape theorem."""
    qs = np.array([0.0, 1.0, 2.0])
    assert separator_problems(qs, np.array(b), np.array(B)) == [message]


def test_slope_changes_keep_their_sign_on_a_reversed_grid():
    x = np.array([-1.0, 0.0, 2.0, 3.0])
    forward = slope_changes(x, x**2)
    assert np.array_equal(forward, [3.0, 3.0])
    assert np.array_equal(slope_changes(x[::-1], (x**2)[::-1]), forward[::-1])
    assert slope_changes(x[:2], x[:2]).size == 0


# ---------------------------------------------------------------------------
# exponent derivative
# ---------------------------------------------------------------------------

def test_derivative_binomial_tau(binomial_spec):
    # -tau'(1) = p log2(1/p) + (1-p) log2(1/(1-p)) with p = 1/4: 0.811278
    def central_difference(q, h=0.05):
        return (solve_beta_k(binomial_spec, q + h, 30) - solve_beta_k(binomial_spec, q - h, 30)) / (2 * h)

    assert -central_difference(1.0) == pytest.approx(0.25 * 2 + 0.75 * math.log2(4 / 3), abs=1e-3)
    assert -central_difference(0.0) == pytest.approx((2 + math.log2(4 / 3)) / 2, abs=1e-3)
