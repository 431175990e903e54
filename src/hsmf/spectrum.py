"""
Legendre-transform machinery, admissible exponent intervals, coarse
singularity-spectrum histograms, and tilted-sampling consistency checks.

The coarse spectrum works on matched-generation cells rather than balls: the
cell-mass multiset of a generation factorizes over families, so exact counts
come from enumerating per-family child-class compositions (a handful of terms
for the measures here) instead of the full cell tree. Beyond an enumeration
cap the distribution is sampled uniformly over cells and the histogram counts
carry a standard error. Empty bins are reported as missing values, never as a
numeric sentinel.

Everything here is a pure function of (inputs, seed); per-scale sampling
derives its stream from (seed, scale index), so per-alpha and per-q cells can
run concurrently with reproducible results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import lgamma
from typing import Sequence

import numpy as np

from .counting import logsumexp
from .errors import DegenerateGrid, ScaleTooSmall
from .output import fmt
from .scaling import SeparatorGrid, solve_beta_k
from .specs import (
    MoranSpec,
    family_generation_counts,
    matched_generation,
    max_length_at,
    sample_paths,
)

DERIVATIVE_STEP = 0.05  # the tilted checks' central-difference step in q
# mass_distribution enumerates up to MASS_MAX_TERMS composition terms exactly;
# beyond that it samples MASS_SAMPLE_COUNT cells
MASS_MAX_TERMS = 2_000_000
MASS_SAMPLE_COUNT = 65536
# spectrum_result's tilted checks: their q values, depth (at most the spec's
# depth_cap) and paths per check
TILTED_QS = (0.0, 1.0, 2.0)
TILTED_DEPTH = 30
TILTED_SAMPLE_COUNT = 4096


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

def legendre_transform(q_grid, phi, alpha_grid) -> tuple[np.ndarray, np.ndarray]:
    """
    Discrete Legendre transform phi*(alpha) = min over the q grid of
    alpha*q + phi(q), exact for the sampled problem.

    The boundary flag is set when the minimum is attained only at a grid
    endpoint, which signals that the true infimum lies outside the grid
    (or is -inf); flagged values should be excluded from comparisons.
    """
    q = np.asarray(q_grid, dtype=float)
    phi = np.asarray(phi, dtype=float)
    alpha = np.asarray(alpha_grid, dtype=float)
    if q.size < 2:
        raise DegenerateGrid("legendre transform needs at least two q points")
    objective = alpha[:, None] * q[None, :] + phi[None, :]
    values = objective.min(axis=1)
    boundary = np.empty(alpha.size, dtype=bool)
    for i in range(alpha.size):
        attained = np.flatnonzero(objective[i] == values[i])
        interior = (attained > 0) & (attained < q.size - 1)
        boundary[i] = not bool(interior.any())
    return values, boundary


@dataclass
class AlphaBounds:
    alpha_min: float
    alpha_max: float
    beta_min: float
    beta_max: float


def alpha_bounds(grid: SeparatorGrid) -> AlphaBounds:
    """
    Discrete sup/inf of -b(q)/q and -B(q)/q over the positive/negative parts
    of the grid, excluding |q| < 0.5. Needs q of both signs.
    """
    q = grid.q_grid
    pos = q >= 0.5
    neg = q <= -0.5
    if not pos.any() or not neg.any():
        raise DegenerateGrid("alpha bounds need q of both signs away from 0")
    return AlphaBounds(
        alpha_min=float(np.max(-grid.b[pos] / q[pos])),
        alpha_max=float(np.min(-grid.b[neg] / q[neg])),
        beta_min=float(np.max(-grid.B[pos] / q[pos])),
        beta_max=float(np.min(-grid.B[neg] / q[neg])),
    )


# ---------------------------------------------------------------------------
# Cell-mass distribution at one generation
# ---------------------------------------------------------------------------

def _family_classes(fam) -> list[tuple[float, int]]:
    """Distinct child log-masses with multiplicities."""
    seen: dict[float, int] = {}
    for lp in fam.log_probs:
        seen[float(lp)] = seen.get(float(lp), 0) + 1
    return sorted(seen.items())


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


@dataclass
class MassDistribution:
    """log-mass values with log-counts for one generation's cells."""

    k: int
    log_masses: np.ndarray
    log_counts: np.ndarray
    exact: bool
    total_log_cells: float
    sample_count: int = 0


def mass_distribution(spec: MoranSpec, k: int, seed: int = 0) -> MassDistribution:
    """
    The multiset of generation-k cell masses, as (log_mass, log_count) pairs.

    Exact when the per-family composition count stays within MASS_MAX_TERMS;
    otherwise a uniform-over-cells sample of MASS_SAMPLE_COUNT paths (the
    (0, 0) tilt) with per-value counts scaled up by the total cell count.
    """
    counts = family_generation_counts(spec, k)[:, 0]
    total_log_cells = float(
        sum(c * math.log(spec.families[f].arity) for f, c in enumerate(counts) if c)
    )
    per_family: list[list[tuple[float, float]]] = []
    n_terms = 1
    for f, fam in enumerate(spec.families):
        m = int(counts[f])
        if m == 0:
            continue
        classes = _family_classes(fam)
        terms: list[tuple[float, float]] = []
        n_comp = math.comb(m + len(classes) - 1, len(classes) - 1)
        if n_terms * n_comp > MASS_MAX_TERMS:
            n_terms = MASS_MAX_TERMS + 1
            break
        for comp in _compositions(m, len(classes)):
            log_count = lgamma(m + 1)
            log_mass = 0.0
            for (lp, mult), cnt in zip(classes, comp):
                log_count += cnt * math.log(mult) - lgamma(cnt + 1)
                log_mass += cnt * lp
            terms.append((log_mass, log_count))
        per_family.append(terms)
        n_terms *= n_comp

    if n_terms <= MASS_MAX_TERMS:
        log_masses = np.zeros(1)
        log_counts = np.zeros(1)
        for terms in per_family:
            lm = np.array([t[0] for t in terms])
            lc = np.array([t[1] for t in terms])
            log_masses = (log_masses[:, None] + lm[None, :]).ravel()
            log_counts = (log_counts[:, None] + lc[None, :]).ravel()
        return MassDistribution(k, log_masses, log_counts, True, total_log_cells)

    _, log_mass, _ = sample_paths(spec, 0.0, 0.0, k, MASS_SAMPLE_COUNT, seed)
    vals, freq = np.unique(np.round(log_mass, 12), return_counts=True)
    log_counts = total_log_cells + np.log(freq / MASS_SAMPLE_COUNT)
    return MassDistribution(k, vals, log_counts, False, total_log_cells, MASS_SAMPLE_COUNT)


# ---------------------------------------------------------------------------
# Coarse spectrum
# ---------------------------------------------------------------------------

@dataclass
class CoarseSpectrum:
    """Histogram spectrum estimates f_hat(alpha) per scale."""

    scales: np.ndarray
    alpha_grid: np.ndarray
    epsilon: float
    f_hat: np.ndarray        # (n_scales, n_alpha), NaN where the bin is empty
    log_counts: np.ndarray   # -inf where empty
    exact: np.ndarray        # per scale
    stderr: np.ndarray       # NaN for exact scales/bins
    # per scale, log(1/length) / log(1/r) for the longest matched-generation
    # cell; 1 when that length is r
    ceiling: np.ndarray
    # True when all matched-generation cells share one length, which is when
    # the cell-count histogram is a faithful proxy for ball counts at that
    # scale, and f_hat stays in [0, ceiling]: at most 1/length such cells fit in [0, 1]
    uniform_cells: bool = True

    def peak(self, scale_index: int = -1) -> tuple[float, float]:
        """(alpha at the max f_hat, max f_hat) at one scale."""
        row = self.f_hat[scale_index]
        i = int(np.nanargmax(row))
        return float(self.alpha_grid[i]), float(row[i])

    def rows_csv(self):
        for si, r in enumerate(self.scales):
            for ai, a in enumerate(self.alpha_grid):
                f = self.f_hat[si, ai]
                lc = self.log_counts[si, ai]
                try:
                    count = math.exp(lc)
                except OverflowError:
                    count = math.inf
                yield (fmt(r), fmt(a), "" if math.isnan(f) else fmt(f), fmt(count))


def coarse_spectrum(
    spec: MoranSpec,
    r_list: Sequence[float],
    epsilon: float,
    alpha_grid,
    seed: int = 0,
) -> CoarseSpectrum:
    """
    For each scale r: match a generation, take the cell-mass distribution, and
    count cells with mass in [r^(alpha+eps), r^(alpha-eps)] per alpha bin;
    f_hat = log(count) / (-log r). Exact counts up to the enumeration cap,
    sampled with standard errors beyond.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    scales = np.asarray(sorted(set(float(r) for r in r_list), reverse=True))
    n_s, n_a = scales.size, alpha_grid.size
    f_hat = np.full((n_s, n_a), np.nan)
    log_counts = np.full((n_s, n_a), -np.inf)
    stderr = np.full((n_s, n_a), np.nan)
    exact = np.zeros(n_s, dtype=bool)
    ceiling = np.empty(n_s)
    for si, r in enumerate(scales):
        k = matched_generation(spec, r)
        if k == 0:
            raise ScaleTooSmall("coarse spectrum needs r < 1")
        dist = mass_distribution(spec, k, seed=seed + si)
        exact[si] = dist.exact
        log_r = math.log(r)
        ceiling[si] = math.log(max_length_at(spec, k)) / log_r
        for ai, a in enumerate(alpha_grid):
            lo = (a + epsilon) * log_r
            hi = (a - epsilon) * log_r
            mask = (dist.log_masses >= lo) & (dist.log_masses <= hi)
            if not mask.any():
                continue
            lc = float(logsumexp(dist.log_counts[mask]))
            log_counts[si, ai] = lc
            f_hat[si, ai] = lc / (-log_r)
            if not dist.exact:
                p_hat = math.exp(lc - dist.total_log_cells)
                p_hat = min(max(p_hat, 1.0 / dist.sample_count), 1.0)
                se_logp = math.sqrt((1.0 - p_hat) / (p_hat * dist.sample_count))
                stderr[si, ai] = se_logp / (-log_r)
    uniform_cells = all(
        spec.families[i].constant_ratio for i in spec.schedule.referenced
    )
    return CoarseSpectrum(
        scales, alpha_grid, epsilon, f_hat, log_counts, exact, stderr, ceiling, uniform_cells
    )


# ---------------------------------------------------------------------------
# Tilted sampling checks
# ---------------------------------------------------------------------------

@dataclass
class TiltedCheck:
    q: float
    t: float
    depth: int
    sample_count: int
    alpha_hat_pred: float
    alpha_emp_mean: float
    alpha_emp_sd: float
    legendre_value: float


def tilted_dimension_check(
    spec: MoranSpec,
    q: float,
    t: float,
    depth: int,
    sample_count: int,
    seed: int,
) -> TiltedCheck:
    """
    Draw tilted paths at (q, t) and compare their empirical local exponent
    log(mass)/log(length) at ``depth`` against -d beta_depth / dq, the
    exponent the tilt concentrates on, by a central difference of step
    DERIVATIVE_STEP. ``legendre_value`` is q * alpha + t, the dimension the
    formalism assigns there.
    """
    _, log_mass, log_len = sample_paths(spec, q, t, depth, sample_count, seed)
    alphas = log_mass / log_len
    emp_mean = float(np.mean(alphas))
    emp_sd = float(np.std(alphas, ddof=1)) if sample_count > 1 else 0.0
    stencil = np.array([q - DERIVATIVE_STEP, q, q + DERIVATIVE_STEP])
    beta = solve_beta_k(spec, stencil, depth)
    pred = -(beta[2] - beta[0]) / (stencil[2] - stencil[0])
    return TiltedCheck(
        q=q,
        t=t,
        depth=depth,
        sample_count=sample_count,
        alpha_hat_pred=float(pred),
        alpha_emp_mean=emp_mean,
        alpha_emp_sd=emp_sd,
        legendre_value=float(q * pred + t),
    )


# ---------------------------------------------------------------------------
# Bundled spectrum result
# ---------------------------------------------------------------------------

@dataclass
class SpectrumResult:
    alpha_grid: np.ndarray
    b_star: np.ndarray
    B_star: np.ndarray
    boundary: np.ndarray
    bounds: AlphaBounds
    coarse: CoarseSpectrum
    tilted: list[TiltedCheck] = field(default_factory=list)

    def check_invariants(self) -> list[str]:
        tol = 1e-8
        out = []
        if self.bounds.alpha_min > self.bounds.alpha_max:
            out.append("alpha_min > alpha_max")
        if self.bounds.beta_min > self.bounds.beta_max:
            out.append("beta_min > beta_max")
        finite_f = self.coarse.f_hat[np.isfinite(self.coarse.f_hat)]
        if finite_f.size and finite_f.min() < -tol:
            out.append("coarse f_hat negative")
        # the ceiling is a cell-proxy guarantee only when all cells at the
        # matched generation share one length
        if self.coarse.uniform_cells and np.any(self.coarse.f_hat > self.coarse.ceiling[:, None] + tol):
            out.append("coarse f_hat above its cell-count ceiling")
        ok = ~self.boundary
        if np.any(self.b_star[ok] > self.B_star[ok] + tol):
            out.append("b_star exceeds B_star")
        for name, curve in (("b_star", self.b_star), ("B_star", self.B_star)):
            vals = np.where(self.boundary, np.nan, curve)
            fin = np.isfinite(vals)
            if fin.sum() >= 3:
                idx = np.flatnonzero(fin)
                a = self.alpha_grid[idx]
                v = vals[idx]
                second = np.diff(np.diff(v) / np.diff(a))
                if np.any(second > tol):
                    out.append(f"{name} not discretely concave")
        return out

    def legendre_rows_csv(self):
        for i, a in enumerate(self.alpha_grid):
            yield (
                fmt(a),
                fmt(self.b_star[i]),
                fmt(self.B_star[i]),
                "true" if self.boundary[i] else "false",
            )


def spectrum_result(
    spec: MoranSpec,
    grid: SeparatorGrid,
    alpha_grid,
    r_list: Sequence[float],
    epsilon: float = 0.05,
    seed: int = 0,
) -> SpectrumResult:
    """Assemble Legendre curves, bounds, coarse histograms, and tilted checks."""
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    b_star, flag_b = legendre_transform(grid.q_grid, grid.b, alpha_grid)
    B_star, flag_B = legendre_transform(grid.q_grid, grid.B, alpha_grid)
    boundary = flag_b | flag_B
    bounds = alpha_bounds(grid)
    coarse = coarse_spectrum(spec, r_list, epsilon, alpha_grid, seed=seed)
    depth = min(TILTED_DEPTH, spec.depth_cap)
    tilted = []
    for q in TILTED_QS:
        t = solve_beta_k(spec, float(q), depth)
        tilted.append(
            tilted_dimension_check(spec, float(q), t, depth, TILTED_SAMPLE_COUNT, seed)
        )
    return SpectrumResult(alpha_grid, b_star, B_star, boundary, bounds, coarse, tilted)
