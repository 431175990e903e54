"""Legendre transforms, exponent intervals, coarse histograms, tilted checks."""

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from hsmf import (
    ConstantSchedule,
    DegenerateGrid,
    GapPolicy,
    GenerationFamily,
    MoranSpec,
    ScaleTooSmall,
    alpha_bounds,
    coarse_spectrum,
    legendre_transform,
    separator_grid,
    solve_beta_k,
    tilted_dimension_check,
    validate_spec,
)
from hsmf.oracles import switching_alpha_interval, switching_binomial_tau
from hsmf import spectrum as S
from hsmf.spectrum import mass_distribution


def tau(q, p=0.25):
    return math.log2(p**q + (1 - p) ** q)


# ---------------------------------------------------------------------------
# legendre transform
# ---------------------------------------------------------------------------

def test_legendre_linear_tie_is_interior():
    qs = np.arange(-4.0, 5.0, 1.0)
    vals, flags = legendre_transform(qs, 1.0 - qs, [1.0])
    assert vals[0] == 1.0
    assert not flags[0]  # every grid point ties, including interior ones


def test_legendre_needs_two_q_points():
    with pytest.raises(DegenerateGrid, match="^legendre transform needs at least two q points$"):
        legendre_transform([0.5], [0.5], [1.0])


def test_legendre_linear_boundary():
    qs = np.arange(-4.0, 5.0, 1.0)
    vals, flags = legendre_transform(qs, 1.0 - qs, [1.5])
    assert vals[0] == pytest.approx(-1.0)
    assert flags[0]


def test_legendre_binomial_peak_value():
    # at alpha = -tau'(0) the transform is tau(0) = 1 (minimizer q = 0)
    qs = np.arange(-6.0, 6.0 + 0.01, 0.01)
    phi = np.array([tau(q) for q in qs])
    alpha0 = (2 + math.log2(4 / 3)) / 2
    vals, flags = legendre_transform(qs, phi, [alpha0])
    assert vals[0] == pytest.approx(1.0, abs=1e-6)
    assert not flags[0]


def test_legendre_matches_brute_force_bitwise():
    qs = np.arange(-3.0, 3.25, 0.25)
    phi = np.array([tau(q) for q in qs])
    alphas = np.arange(0.3, 2.2, 0.07)
    vals, _ = legendre_transform(qs, phi, alphas)
    oracle = np.array([min(a * q + f for q, f in zip(qs, phi)) for a in alphas])
    assert np.array_equal(vals, oracle)


def test_legendre_concave():
    qs = np.arange(-5.0, 5.25, 0.25)
    phi = np.array([tau(q) for q in qs])
    alphas = np.arange(0.42, 2.0, 0.01)
    vals, flags = legendre_transform(qs, phi, alphas)
    v = vals[~flags]
    a = alphas[~flags]
    second = np.diff(np.diff(v) / np.diff(a))
    assert np.all(second <= 1e-8)


def _boundary_by_loop(objective, values):
    """The per-alpha loop the vectorized boundary flags replaced, kept as their reference."""
    boundary = np.empty(values.size, dtype=bool)
    for i in range(values.size):
        attained = np.flatnonzero(objective[i] == values[i])
        interior = (attained > 0) & (attained < objective.shape[1] - 1)
        boundary[i] = not bool(interior.any())
    return boundary


@pytest.mark.parametrize("qs, phi", [
    ([-1, 0, 1], [1, 0, 1]),        # at alpha = 1 and -1 an endpoint ties the interior
    ([-1, 0, 1], [0, 1, 0]),        # at alpha = 0 the two endpoints tie
    ([-1, 0, 1, 2], [1, 0, 0, 1]),  # at alpha = 0 two interior points tie
    ([0, 1], [0, 0]),               # two points: every minimum is at an endpoint
    ([0, 1], [1, 0]),
    ([-3, -1, 0, 2, 5, 6], [9, 4, 2, 2, 4, 9]),
], ids=["endpoint-interior", "endpoints", "interior", "two-tied", "two", "wide"])
def test_legendre_boundary_flags_equal_the_per_alpha_loop(qs, phi):
    qs, phi = np.asarray(qs, dtype=float), np.asarray(phi, dtype=float)
    alphas = np.arange(-3.0, 3.25, 0.25)  # exact products, so ties are exact
    vals, flags = legendre_transform(qs, phi, alphas)
    objective = alphas[:, None] * qs[None, :] + phi[None, :]
    assert np.array_equal(flags, _boundary_by_loop(objective, vals))


@pytest.mark.parametrize("name, bend", [("b_star", -1e-3), ("B_star", 1e-3)])
def test_bent_transform_is_not_discretely_concave(binomial_spec, name, bend):
    """A dip in b_star, or a bump in B_star (which keeps b_star <= B_star), at
    one unflagged alpha breaks discrete concavity and nothing else."""
    grid = separator_grid(binomial_spec, np.arange(-4.0, 4.25, 0.25), 64)
    result = S.spectrum_result(binomial_spec, grid, np.round(np.arange(0.0, 2.5001, 0.025), 10), [2.0**-8])
    assert result.check_invariants() == []
    inside = np.flatnonzero(~result.boundary)
    curve = getattr(result, name).copy()
    curve[inside[inside.size // 2]] += bend
    bent = dataclasses.replace(result, **{name: curve})
    assert bent.check_invariants() == [f"{name} not discretely concave"]


def test_each_invariant_message_fires_alone(binomial_spec):
    """Each of the bounds, histogram and order checks, on a real result
    perturbed so that it alone fails. b_star shifted up keeps its shape."""
    grid = separator_grid(binomial_spec, np.arange(-4.0, 4.25, 0.25), 64)
    result = S.spectrum_result(binomial_spec, grid, np.round(np.arange(0.0, 2.5001, 0.025), 10), [2.0**-8])
    assert result.check_invariants() == []
    bounds, coarse = result.bounds, result.coarse
    assert coarse.uniform_cells  # else the ceiling is not checked

    def one_bin(value):
        f_hat = coarse.f_hat.copy()
        f_hat[0, np.flatnonzero(np.isfinite(f_hat[0]))[0]] = value
        return dataclasses.replace(result, coarse=dataclasses.replace(coarse, f_hat=f_hat))

    perturbed = {
        "alpha_min > alpha_max": dataclasses.replace(
            result, bounds=dataclasses.replace(bounds, alpha_min=bounds.alpha_max + 1.0)),
        "beta_min > beta_max": dataclasses.replace(
            result, bounds=dataclasses.replace(bounds, beta_min=bounds.beta_max + 1.0)),
        "coarse f_hat negative": one_bin(-0.5),
        "coarse f_hat above its cell-count ceiling": one_bin(coarse.ceiling[0] + 0.5),
        "b_star exceeds B_star": dataclasses.replace(result, b_star=result.b_star + 1.0),
    }
    for message, bad in perturbed.items():
        assert bad.check_invariants() == [message]


def test_each_transform_is_checked_on_its_own_unflagged_alphas(block_spec):
    """On the block construction b* is flagged at most alphas where B* is not,
    so a dip in B* at such an alpha fails B*'s concavity check; under the
    merged mask of the two flags it would go unseen."""
    grid = separator_grid(block_spec, np.arange(-4.0, 4.25, 0.25), 1024)
    alpha = np.round(np.arange(0.0, 2.5001, 0.025), 10)
    result = S.spectrum_result(block_spec, grid, alpha, [2.0**-8])
    assert result.check_invariants() == []
    _, flag_b = legendre_transform(grid.q_grid, grid.b, alpha)
    _, flag_B = legendre_transform(grid.q_grid, grid.B, alpha)
    only_b, inside_B = np.flatnonzero(flag_b & ~flag_B), np.flatnonzero(~flag_B)
    assert only_b.size > 3 and np.count_nonzero(~(flag_b | flag_B)) < 3
    i = only_b[only_b.size // 2]
    assert inside_B[0] < i < inside_B[-1]
    B_star = result.B_star.copy()
    B_star[i] -= 0.1  # deeper than any kink of B* on this alpha grid
    assert dataclasses.replace(result, B_star=B_star).check_invariants() == ["B_star not discretely concave"]
    assert np.array_equal(result.flag_b, flag_b) and np.array_equal(result.flag_B, flag_B)
    assert np.array_equal(result.boundary, flag_b | flag_B)


# ---------------------------------------------------------------------------
# alpha bounds
# ---------------------------------------------------------------------------

def test_alpha_bounds_linear_curve(uniform_spec):
    qs = np.arange(-8.0, 9.0, 1.0)
    grid = separator_grid(uniform_spec, qs, 64)
    ab = alpha_bounds(grid)
    # -b(q)/q = 1 - 1/q: sup over the positive grid is at q = 8
    assert ab.alpha_min == pytest.approx(1 - 1 / 8)
    assert ab.alpha_max == pytest.approx(1 + 1 / 8)
    assert ab.beta_min <= ab.beta_max


def test_alpha_bounds_binomial_limits(binomial_spec):
    qs = np.arange(-40.0, 40.5, 0.5)
    grid = separator_grid(binomial_spec, qs, 64)
    ab = alpha_bounds(grid)
    assert ab.alpha_min == pytest.approx(math.log2(4 / 3), abs=0.02)
    assert ab.alpha_max == pytest.approx(2.0, abs=0.02)


def test_alpha_bounds_switching_interval(switching_spec):
    qs = np.arange(-32.0, 32.5, 0.5)
    grid = separator_grid(switching_spec, qs, 4**10)
    ab = alpha_bounds(grid)
    lo, hi = switching_alpha_interval(0.4)
    assert ab.alpha_min == pytest.approx(lo, abs=0.02)
    assert ab.alpha_max == pytest.approx(hi, abs=0.02)


def test_alpha_bounds_requires_both_signs(uniform_spec):
    grid = separator_grid(uniform_spec, np.arange(0.5, 4.0, 0.5), 32)
    with pytest.raises(DegenerateGrid):
        alpha_bounds(grid)


# ---------------------------------------------------------------------------
# coarse spectrum
# ---------------------------------------------------------------------------

def test_coarse_uniform_degenerate(uniform_spec):
    alphas = np.arange(0.5, 1.6, 0.05)
    cs = coarse_spectrum(uniform_spec, [2.0**-12], 0.02, alphas)
    f = cs.f_hat[0]
    near = np.abs(alphas - 1.0) <= 0.02 + 1e-12
    assert np.all(f[near] == pytest.approx(1.0, abs=1e-12))
    assert np.all(np.isnan(f[~near]) | (np.abs(alphas[~near] - 1.0) <= 0.04))


def test_coarse_needs_a_scale_below_one(uniform_spec):
    for r in (1.0, 2.0):
        with pytest.raises(ScaleTooSmall, match=r"^coarse spectrum needs r < 1$"):
            coarse_spectrum(uniform_spec, [r], epsilon=0.05, alpha_grid=[1.0])


def test_coarse_ceiling_counts_cells_shorter_than_the_scale():
    """Three equal cells of ratio 0.333: at r = 2^-4 the matched generation 3
    has 27 cells of length 0.0369, more than 1/r = 16 fit in [0, 1]. So f_hat
    is log 27 / log 16 = 1.19 there; the ceiling is log(1/length) / log(1/r)."""
    fam = GenerationFamily((1 / 3,) * 3, (0.333,) * 3)
    spec = validate_spec(MoranSpec((fam,), ConstantSchedule(0), GapPolicy.EQUAL_GAPS, 8))
    grid = separator_grid(spec, np.arange(-1.0, 1.5, 1.0), 8)
    result = S.spectrum_result(spec, grid, np.round(np.arange(0.0, 2.5001, 0.025), 10), [2.0**-4])
    assert np.nanmax(result.coarse.f_hat) == pytest.approx(math.log(27) / math.log(16))
    assert result.coarse.ceiling[0] == pytest.approx(3 * math.log(0.333) / math.log(2.0**-4))
    assert result.check_invariants() == []


def test_coarse_csv_writes_counts_a_double_holds(uniform_spec):
    """A count is written as inf only past the double range (e^709.78), not
    from a log count of 700 on: at r = 2^-1012 the uniform measure's 2^1012
    cells have log count 701.46."""
    from hsmf.output import fmt

    cs = coarse_spectrum(uniform_spec, [2.0**-1012, 2.0**-1030], 0.02, [0.5, 1.0])
    counts = [row[3] for row in cs.rows_csv()]
    assert counts == ["0", fmt(math.exp(cs.log_counts[0, 1])), "0", "inf"]
    assert 4.3e304 < float(counts[1]) < 4.5e304


def test_coarse_counts_match_binomial_coefficients(binomial_spec):
    k = 16
    r = 2.0**-k
    eps = 0.05
    alphas = np.arange(0.3, 2.2, 0.05)
    cs = coarse_spectrum(binomial_spec, [r], eps, alphas)
    log_r = math.log(r)
    for ai, a in enumerate(alphas):
        want = 0
        for j in range(k + 1):
            lm = j * math.log(0.75) + (k - j) * math.log(0.25)
            if (a + eps) * log_r <= lm <= (a - eps) * log_r:
                want += math.comb(k, j)
        got = cs.log_counts[0, ai]
        if want == 0:
            assert not np.isfinite(got)
        else:
            assert math.exp(got) == pytest.approx(want, rel=1e-9)


def test_coarse_binomial_peak_location(binomial_spec):
    alphas = np.round(np.arange(0.2, 2.4001, 0.05), 10)
    cs = coarse_spectrum(binomial_spec, [2.0**-24], 0.1, alphas)
    a_pk, f_pk = cs.peak(0)
    assert abs(a_pk - 1.2075) <= 0.1
    assert f_pk == pytest.approx(0.953157, abs=1e-4)


def test_coarse_single_path_bin(binomial_spec):
    # the all-heavy path is a single cell: f_hat = 0 at alpha = 2
    alphas = np.array([2.0])
    cs = coarse_spectrum(binomial_spec, [2.0**-16], 0.04, alphas)
    assert cs.f_hat[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_coarse_epsilon_sensitivity_sweep(binomial_spec):
    # wider bins absorb more neighboring levels: peak grows monotonically
    # along the documented sweep and stays below the box-count ceiling 1
    alphas = np.round(np.arange(0.2, 2.4001, 0.05), 10)
    peaks = []
    for eps in (0.025, 0.05, 0.1):
        cs = coarse_spectrum(binomial_spec, [2.0**-24], eps, alphas)
        peaks.append(cs.peak(0)[1])
    assert peaks[0] <= peaks[1] <= peaks[2] <= 1.0
    assert peaks[2] - peaks[0] < 0.1


def test_coarse_sampled_mode_close_to_exact(binomial_spec, monkeypatch):
    alphas = np.round(np.arange(0.5, 2.01, 0.1), 10)
    r = 2.0**-20
    exact = coarse_spectrum(binomial_spec, [r], 0.1, alphas)
    monkeypatch.setattr(S, "MASS_MAX_TERMS", 1)
    monkeypatch.setattr(S, "MASS_SAMPLE_COUNT", 1 << 15)
    sampled = coarse_spectrum(binomial_spec, [r], 0.1, alphas, seed=9)
    assert not sampled.exact[0]
    both = ~np.isnan(exact.f_hat[0]) & ~np.isnan(sampled.f_hat[0])
    # agreement within a few standard errors plus histogram granularity
    diff = np.abs(exact.f_hat[0][both] - sampled.f_hat[0][both])
    assert np.all(diff <= 3 * sampled.stderr[0][both] + 0.05)


def test_mass_distribution_total(periodic_spec):
    dist = mass_distribution(periodic_spec, 6)
    assert dist.exact
    # total count equals the number of cells
    from scipy.special import logsumexp

    assert logsumexp(dist.log_counts) == pytest.approx(dist.total_log_cells, rel=1e-12)
    # masses sum to 1
    assert logsumexp(dist.log_counts + dist.log_masses) == pytest.approx(0.0, abs=1e-10)


def _tuple_loop_mass_distribution(spec, k):
    """Reference: the exact (log_mass, log_count) arrays built from one Python
    tuple per composition term, as ``mass_distribution`` once built them."""
    from hsmf.specs import family_generation_counts, family_rows

    counts = family_generation_counts(spec, k)[:, 0]
    log_masses, log_counts = np.zeros(1), np.zeros(1)
    for f, rows in enumerate(family_rows(spec)):
        m = int(counts[f])
        if m == 0:
            continue
        classes = sorted(Counter(rows.log_probs.tolist()).items())
        terms = []
        # every composition of m into len(classes) counts, in lexicographic order
        heads = itertools.product(range(m + 1), repeat=len(classes) - 1)
        for comp in ((*h, m - sum(h)) for h in heads if sum(h) <= m):
            log_count = math.lgamma(m + 1)
            log_mass = 0.0
            for (lp, mult), cnt in zip(classes, comp):
                log_count += cnt * math.log(mult) - math.lgamma(cnt + 1)
                log_mass += cnt * lp
            terms.append((log_mass, log_count))
        lm = np.array([t[0] for t in terms])
        lc = np.array([t[1] for t in terms])
        log_masses = (log_masses[:, None] + lm[None, :]).ravel()
        log_counts = (log_counts[:, None] + lc[None, :]).ravel()
    return log_masses, log_counts


def _assert_mass_distribution_is_the_tuple_loop(spec, ks):
    for k in ks:
        dist = mass_distribution(spec, k)
        assert dist.exact
        log_masses, log_counts = _tuple_loop_mass_distribution(spec, k)
        assert dist.log_masses.tobytes() == log_masses.tobytes()
        assert dist.log_counts.tobytes() == log_counts.tobytes()


@pytest.mark.parametrize("fixture", ["uniform_spec", "binomial_spec", "cantor_spec",
                                     "periodic_spec", "block_spec", "switching_spec"])
def test_mass_distribution_equals_the_tuple_loop_on_the_fixtures(fixture, request):
    _assert_mass_distribution_is_the_tuple_loop(request.getfixturevalue(fixture), (1, 2, 7, 16, 40))


@pytest.mark.parametrize("probs", [(0.1, 0.2, 0.3, 0.4), (0.3, 0.2, 0.3, 0.2), (0.25, 0.25, 0.25, 0.25),
                                   (0.4, 0.1, 0.1, 0.4)])
def test_mass_distribution_equals_the_tuple_loop_on_four_children(probs):
    """Four classes, and repeated probabilities that merge into fewer classes
    with multiplicities."""
    spec = validate_spec(MoranSpec((GenerationFamily(probs, (0.97, 0.01, 0.01, 0.01)),),
                                   ConstantSchedule(0), GapPolicy.NO_GAPS, 4096))
    _assert_mass_distribution_is_the_tuple_loop(spec, (1, 3, 30, 90))


def test_local_exponent_nonnegative(binomial_spec, cantor_spec):
    from hsmf import ball_mass

    for spec in (binomial_spec, cantor_spec):
        for x in (0.0, 0.31, 0.74, 1.0):
            for r in (0.25, 2.0**-6, 2.0**-10):
                # log m / log r >= 0 at radii below 1 iff the mass never exceeds 1
                assert ball_mass(spec, x, r, 16)[0] <= 1.0


# ---------------------------------------------------------------------------
# tilted checks
# ---------------------------------------------------------------------------

def test_tilted_uniform_exact(uniform_spec):
    tc = tilted_dimension_check(uniform_spec, 3.0, 20, 512, seed=2)
    assert tc.alpha_emp_mean == 1.0
    assert tc.alpha_emp_sd == 0.0
    assert tc.alpha_hat_pred == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "q,want",
    [
        (0.0, (2 + math.log2(4 / 3)) / 2),          # uniform-tilt mean exponent
        (1.0, 0.25 * 2 + 0.75 * math.log2(4 / 3)),  # measure-tilt mean exponent
    ],
)
def test_tilted_binomial_means(binomial_spec, q, want):
    depth = 30
    tc = tilted_dimension_check(binomial_spec, q, depth, 10**4, seed=13)
    assert tc.t == solve_beta_k(binomial_spec, q, depth)
    assert tc.alpha_hat_pred == pytest.approx(want, abs=1e-3)
    assert abs(tc.alpha_emp_mean - want) <= 0.02
    # statistical consistency of mean versus prediction
    margin = 3 * tc.alpha_emp_sd / math.sqrt(tc.sample_count) + 0.02
    assert abs(tc.alpha_emp_mean - tc.alpha_hat_pred) <= margin
    assert tc.legendre_value == pytest.approx(q * want + tc.t, abs=1e-2)


def test_tilted_q2_binomial(binomial_spec):
    depth = 30
    tc = tilted_dimension_check(binomial_spec, 2.0, depth, 10**4, seed=14)
    # alpha(2) = (0.1 * 2 + 0.9 * log2(4/3))
    want = 0.1 * 2 + 0.9 * math.log2(4 / 3)
    assert abs(tc.alpha_emp_mean - want) <= 0.02


# ---------------------------------------------------------------------------
# formalism equality on the validating periodic construction
# ---------------------------------------------------------------------------

def test_periodic_coarse_equals_transform(periodic_spec):
    # all cells share one exponent; the histogram hits the closed form exactly
    k = 24
    alpha0 = math.log(6) / math.log(32)
    r = 0.25**12 * 0.125**12
    cs = coarse_spectrum(periodic_spec, [r], 0.05, np.array([alpha0]))
    assert cs.f_hat[0, 0] == pytest.approx(alpha0, abs=1e-12)
    # matches beta*(alpha0): the transform of the affine separator curve
    qs = np.arange(-4.0, 4.25, 0.25)
    grid = separator_grid(periodic_spec, qs, 1000)
    vals, flags = legendre_transform(qs, grid.b, np.array([alpha0]))
    assert not flags[0]
    assert abs(cs.f_hat[0, 0] - vals[0]) <= 0.05
