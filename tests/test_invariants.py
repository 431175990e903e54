"""Cross-module invariants that don't belong to a single operation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmf import (
    ConstantSchedule,
    GapPolicy,
    GenerationFamily,
    MoranSpec,
    PeriodicSchedule,
    alpha_bounds,
    coarse_spectrum,
    separator_grid,
    solve_beta_k,
    spectrum_result,
    validate_spec,
)
from hsmf import spectrum as S
from hsmf.specs import cells
from hsmf.verify import criterion_5, criterion_8


@st.composite
def small_specs(draw):
    n_fam = draw(st.integers(1, 2))
    fams = []
    for _ in range(n_fam):
        arity = draw(st.integers(2, 3))
        raw_p = [draw(st.floats(0.05, 1.0)) for _ in range(arity)]
        total = sum(raw_p)
        probs = tuple(p / total for p in raw_p)
        raw_c = [draw(st.floats(0.05, 1.0)) for _ in range(arity)]
        scale = draw(st.floats(0.3, 0.9)) / sum(raw_c)
        ratios = tuple(c * scale for c in raw_c)
        fams.append(GenerationFamily(probs, ratios))
    if n_fam == 1:
        sched = ConstantSchedule(0)
    else:
        pattern = tuple(draw(st.integers(0, n_fam - 1)) for _ in range(draw(st.integers(1, 3))))
        sched = PeriodicSchedule(pattern)
    return validate_spec(
        MoranSpec(tuple(fams), sched, GapPolicy.EQUAL_GAPS, depth_cap=256)
    )


@given(small_specs())
@settings(max_examples=40, deadline=None)
def test_grid_invariants_hold_on_random_specs(spec):
    qs = np.arange(-3.0, 3.5, 0.5)
    grid = separator_grid(spec, qs, k_max=96)
    assert grid.check_invariants() == []


def test_full_pipeline_on_random_specs(monkeypatch):
    """End-to-end robustness sweep: no exceptions, invariants scoped to the
    regimes where they are guaranteed."""
    from hsmf.specs import max_length_at
    from hsmf.verify import _random_spec

    monkeypatch.setattr(S, "TILTED_QS", (0.0, 1.0))
    monkeypatch.setattr(S, "TILTED_DEPTH", 24)
    monkeypatch.setattr(S, "TILTED_SAMPLE_COUNT", 512)
    rng = np.random.default_rng(5150)
    qs = np.arange(-6.0, 6.5, 0.5)
    alphas = np.round(np.arange(0.0, 3.5, 0.05), 10)
    for trial in range(15):
        spec = _random_spec(rng)
        grid = separator_grid(spec, qs, k_max=128)
        assert grid.check_invariants() == []
        assert np.all(np.isfinite(grid.b)) and np.all(np.isfinite(grid.Theta))
        r = max_length_at(spec, 10)
        result = spectrum_result(spec, grid, alphas, [r], epsilon=0.05, seed=trial)
        assert result.check_invariants() == []
        if result.coarse.uniform_cells:
            f = result.coarse.f_hat[0]
            fin = f[np.isfinite(f)]
            if fin.size:
                assert fin.min() >= -1e-9 and fin.max() <= 1.0 + 1e-9
        for tc in result.tilted:
            # the per-path ratio log(mass)/log(length) has an O(sd^2/depth)
            # finite-depth bias against the derivative prediction, visible for
            # strongly mixed contraction ratios; allow for it explicitly
            margin = (
                4 * tc.alpha_emp_sd / math.sqrt(max(1, tc.sample_count))
                + 0.02
                + 20 * tc.alpha_emp_sd**2 / tc.depth
            )
            assert abs(tc.alpha_emp_mean - tc.alpha_hat_pred) <= margin


def test_generation_20_masses_sum_to_one(uniform_spec):
    # brute-force enumerable boundary of the mass-conservation invariant
    _, _, masses = cells(uniform_spec, 20)
    assert masses.size == 2**20
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-10)


def test_coarse_counts_vanish_outside_exponent_interval(binomial_spec):
    eps = 0.05
    qs = np.arange(-24.0, 24.5, 0.5)
    grid = separator_grid(binomial_spec, qs, 64)
    ab = alpha_bounds(grid)
    alphas = np.round(np.arange(0.0, 3.0001, 0.025), 10)
    cs = coarse_spectrum(binomial_spec, [2.0**-20], eps, alphas)
    outside = (alphas < ab.alpha_min - eps) | (alphas > ab.alpha_max + eps)
    assert outside.any()
    assert np.all(np.isnan(cs.f_hat[0][outside]))


def test_spectrum_result_invariants(binomial_spec):
    qs = np.arange(-8.0, 8.25, 0.25)
    grid = separator_grid(binomial_spec, qs, 64)
    alphas = np.round(np.arange(0.2, 2.4001, 0.05), 10)
    result = spectrum_result(
        binomial_spec, grid, alphas, [2.0**-10, 2.0**-14], epsilon=0.05, seed=3
    )
    assert result.check_invariants() == []
    assert result.bounds.alpha_min < result.bounds.alpha_max


def test_periodic_formalism_equality_at_tilt_exponents(periodic_spec):
    # the alternating construction has an affine exponent curve, so the tilt
    # exponent -beta'(q) is the same for every q and the histogram matches
    # the transform there
    alpha0 = math.log(6) / math.log(32)
    h = 0.05
    for q in (-1.0, 0.0, 0.5, 2.0):
        d = (solve_beta_k(periodic_spec, q + h, 1000) - solve_beta_k(periodic_spec, q - h, 1000)) / (2 * h)
        assert -d == pytest.approx(alpha0, abs=1e-9)
    r = 0.25**12 * 0.125**12
    cs = coarse_spectrum(periodic_spec, [r], 0.05, np.array([alpha0]))
    assert abs(cs.f_hat[0, 0] - alpha0) <= 0.05  # beta*(alpha0) == alpha0 here


def test_tolerance_scale_flag_tightens_until_failure():
    # 10x tighter tolerances push honest estimation error over the line
    res = criterion_8(seed=0, tol_scale=0.1)
    assert not res.passed
    assert any("peak" in f["check"] for f in res.failures)
    res5 = criterion_5(seed=0, tol_scale=0.1)
    assert not res5.passed
