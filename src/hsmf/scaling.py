"""
Scaling exponents from moment statistics.

The central object is the generation-k normalization exponent beta_k(q): the
unique root in t of sum over generation-k cells of mass^q length^t = 1. The
map t -> log S_k(q, t) is strictly decreasing (lengths lie in (0, 1)), so the
root exists and is unique. When every family contracts its children by one
common ratio the root has the closed form

    beta_k(q) = sum_i log(sum_j p_ij^q) / sum_i -log(c_i),

evaluated for all k at once through per-family generation counts; otherwise
a bracket-safeguarded Newton iteration runs on all requested generations at
once and raises NoConvergence rather than return an unconverged root. Both
routes go through the elementwise kernel ``counting.log_partition``, so
beta_k at one generation is the same to the bit whatever is solved with it.

The lower/upper separator functions are the liminf/limsup of beta_k over k.
From a finite run these are estimated by the min/max of beta_k over the whole
range [1, k_max] of generations. Periodic schedules are sampled at
period-aligned generations, where beta_k has no O(1/k) truncation wobble.
Block schedules are evaluated only at 1, k_max and the boundary pairs T_j - 1,
T_j, which is exact: inside one block only the active family's count m grows,
so log S_k(q, t) = C(t) + m phi_f(t). Under constant ratios
beta = (N + m A_f) / (D + m L_f) is a Moebius map in m; otherwise the root
moves monotonically toward phi_f's root (d beta/dm has the sign of
phi_f(beta); a zero at one m pins beta at that root for every m). Either
way the min and max over a run of generations inside one block sit at the
run's ends. The whole range is used because a half-range tail [k_max/2, k_max]
provably spans less than a factor-2 range of block mixing fractions and cannot
see both envelope branches.

Independently of the beta route, Theta(q) and Delta(q) are liminf/limsup
estimates of log S_k(q, 0)/(-log r_k), with r_k the largest generation-k cell
length, reported next to b and B so discrepancies between the two routes
surface. Both logs are exact family sums over 16 generations spanning
[k_max/16, k_max], whatever the q grid, so no raw moment or scale has to fit
in a double.

A separator grid makes one (q x k) root solve: ``solve_beta_k`` broadcasts
the q grid against the sampled generations, and since every (q, k) pair is
solved elementwise, each value is the one a lone solve gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientScales, NoBracket, NoConvergence, TooDeep
from .output import fmt
from .specs import (
    BlockSchedule,
    MoranSpec,
    family_generation_counts,
)
from .counting import log_partition

_CONVERGED_TOL = 1e-6
_NEWTON_MAX_ITER = 100


# ---------------------------------------------------------------------------
# beta_k(q)
# ---------------------------------------------------------------------------

def _newton_roots(spec: MoranSpec, q: np.ndarray, ks: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """
    Roots in t of log S_k(q, t) = 0 for every (q, k) pair of the flat arrays
    ``q`` and ``ks`` (counts are the family generation counts of ``ks``), each
    with its own bracket [lo, hi]: start at [-64, 64] and double until
    g(lo) >= 0 >= g(hi), then take Newton steps that stay inside the bracket
    (else bisect) until |g| <= 1e-13 k. Each element stops on its own, so
    every root is the one a lone solve gives. Errors name the first failing
    pair and count the unconverged generations at its q.
    """
    lo, hi = np.full(ks.size, -64.0), np.full(ks.size, 64.0)
    todo = np.arange(ks.size)
    for _ in range(13):
        glo, _ = log_partition(spec, q[todo], lo[todo], counts[:, todo])
        ghi, _ = log_partition(spec, q[todo], hi[todo], counts[:, todo])
        todo = todo[(glo < 0.0) | (ghi > 0.0)]
        if todo.size == 0:
            break
        lo[todo] *= 2.0
        hi[todo] *= 2.0
    else:
        i = todo[0]
        raise NoBracket(f"no sign change for beta in [{lo[i]}, {hi[i]}] at q={float(q[i])}, k={ks[i]}")
    beta = np.zeros(ks.size)
    tol = 1e-13 * np.maximum(ks, 1)
    todo = np.arange(ks.size)
    for _ in range(_NEWTON_MAX_ITER):
        b = beta[todo]
        g, dg = log_partition(spec, q[todo], b, counts[:, todo])
        moving = np.abs(g) > tol[todo]
        todo, b, g, dg = todo[moving], b[moving], g[moving], dg[moving]
        if todo.size == 0:
            return beta
        up = g > 0.0
        lo[todo] = np.where(up, b, lo[todo])
        hi[todo] = np.where(up, hi[todo], b)
        mid = 0.5 * (lo[todo] + hi[todo])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = b - g / dg  # dg == 0 gives a non-finite step, hence mid
        beta[todo] = np.where((lo[todo] < step) & (step < hi[todo]), step, mid)
    i = todo[0]
    at_q = q == q[i]
    raise NoConvergence(
        f"beta_k did not converge in {_NEWTON_MAX_ITER} Newton steps at q={float(q[i])}, "
        f"k={ks[i]} ({np.count_nonzero(at_q[todo])} of {np.count_nonzero(at_q)} generations unconverged)"
    )


def solve_beta_k(spec: MoranSpec, q, k):
    """
    The generation-k normalization exponent with q and k broadcast against
    each other: a float for scalar q and k, else an array of the broadcast
    shape (``q[:, None]`` against an array of generations gives a (q x k)
    grid). The closed form under constant per-family ratios, else
    ``_newton_roots`` on all (q, k) pairs at once, holding the residual to
    |log S_k| <= 1e-13 k. Raises NoConvergence or NoBracket rather than
    return a root that misses that bound.
    """
    qs = np.asarray(q, dtype=float)
    ks = np.asarray(k, dtype=np.int64)
    if ks.size and ks.max() > spec.depth_cap:
        raise TooDeep(f"generation {ks.max()} exceeds depth_cap {spec.depth_cap}")
    counts = family_generation_counts(spec, ks.ravel())
    if all(fam.constant_ratio for fam in spec.families):
        counts = counts.reshape(-1, *ks.shape)
        num, _ = log_partition(spec, qs, 0.0, counts)
        den = sum(n * -math.log(fam.ratios[0]) for fam, n in zip(spec.families, counts))
        beta = num / den
    else:
        shape = np.broadcast_shapes(qs.shape, ks.shape)
        cols = np.broadcast_to(np.arange(ks.size).reshape(ks.shape), shape).ravel()
        q_flat = np.broadcast_to(qs, shape).ravel()
        beta = _newton_roots(spec, q_flat, ks.ravel()[cols], counts[:, cols]).reshape(shape)
    return float(beta) if beta.ndim == 0 else beta


# ---------------------------------------------------------------------------
# Sequences and envelope estimates
# ---------------------------------------------------------------------------

@dataclass
class BetaSequence:
    """Sampled beta_k values for one q with envelope estimates over [1, k_max]."""

    q: float
    k_samples: np.ndarray
    beta_values: np.ndarray
    liminf_est: float
    limsup_est: float

    @property
    def oscillation(self) -> float:
        return self.limsup_est - self.liminf_est

    def check_invariants(self) -> list[str]:
        out = []
        if not np.all(np.diff(self.k_samples) > 0):
            out.append("k_samples not increasing")
        if not (np.isfinite(self.liminf_est) and np.isfinite(self.limsup_est)):
            out.append("envelope estimates not finite")
        if self.liminf_est > self.limsup_est + 1e-12:
            out.append("liminf exceeds limsup")
        return out


def sample_generations(spec: MoranSpec, k_max: int) -> np.ndarray:
    """
    Generation indices at which beta_k is evaluated over [1, k_max]. A block
    schedule gets 1, k_max and each T_j - 1, T_j inside that range, where the
    min and max of beta_k are attained exactly (module docstring). Other
    schedules get every stride-th generation plus k_max, with a
    period-aligned stride giving about 2048 samples.
    """
    sched = spec.schedule
    if isinstance(sched, BlockSchedule):
        pts = {1, k_max}
        for t in sched.boundaries:
            pts.update(k for k in (t - 1, t) if 1 <= k <= k_max)
        return np.array(sorted(pts), dtype=np.int64)
    stride = sched.period * max(1, (k_max // sched.period) // 2048)
    ks = np.arange(stride, k_max + 1, stride, dtype=np.int64)
    if ks.size == 0 or ks[-1] != k_max:
        ks = np.append(ks, k_max)
    return ks


def beta_sequence(spec: MoranSpec, q: float, k_max: int) -> BetaSequence:
    """
    Evaluate beta_k(q) on the sampled generations and estimate the
    liminf/limsup as their min/max.
    """
    if k_max > spec.depth_cap:
        raise TooDeep(f"k_max {k_max} exceeds depth_cap {spec.depth_cap}")
    ks = sample_generations(spec, k_max)
    vals = solve_beta_k(spec, q, ks)
    return BetaSequence(
        q=q,
        k_samples=ks,
        beta_values=vals,
        liminf_est=float(vals.min()),
        limsup_est=float(vals.max()),
    )


# ---------------------------------------------------------------------------
# Theta/Delta from moment tables
# ---------------------------------------------------------------------------

def theta_delta_from_moments(log_moments, neg_log_r) -> tuple[np.ndarray, np.ndarray]:
    """
    (theta, delta): the liminf/limsup of log(moment)/(-log r) over the finest
    half of the scales (min/max there) for each row of a (q x scales) array of
    log moments. Scales are given as increasing -log r. Requires >= 8 scales
    spanning >= 4 octaves.
    """
    log_moments = np.atleast_2d(log_moments)
    neg_log_r = np.asarray(neg_log_r, dtype=float)
    if neg_log_r.size < 8:
        raise InsufficientScales("need at least 8 scales")
    if neg_log_r[-1] - neg_log_r[0] < math.log(16.0):
        raise InsufficientScales("scales must span at least 4 octaves")
    fine = (log_moments / neg_log_r)[:, neg_log_r.size // 2:]
    return fine.min(axis=1), fine.max(axis=1)


# ---------------------------------------------------------------------------
# Separator grids
# ---------------------------------------------------------------------------

@dataclass
class SeparatorGrid:
    """
    Estimated separator functions over a q grid, with per-q diagnostics
    (window, the first and last evaluated generation; oscillation; converged;
    the generations k_b and k_B attaining b and B, first in sample order; and
    the number of generations evaluated). The CSV's ``Lambda`` column
    writes B, as B(q) = Lambda(q); no independent Lambda is estimated.
    """

    q_grid: np.ndarray
    b: np.ndarray
    B: np.ndarray
    Theta: np.ndarray
    Delta: np.ndarray
    diagnostics: list[dict] = field(default_factory=list)

    def check_invariants(self) -> list[str]:
        """Empty list when all grid invariants hold, to 1e-8 (1e-9 for the
        zeros at q = 1); else one message each."""
        tol = 1e-8
        out = []
        if np.any(self.b > self.B + tol):
            out.append("chain b <= B violated")
        for name, curve in (("b", self.b), ("B", self.B)):
            if np.any(np.diff(curve) > tol):
                out.append(f"{name} not non-increasing in q")
        if self.q_grid.size >= 3:
            h1 = np.diff(self.q_grid[:-1])
            second = np.diff(np.diff(self.B) / np.diff(self.q_grid)) * np.sign(h1)
            if np.any(second < -tol):
                out.append("B not discretely convex")
        ones = np.isclose(self.q_grid, 1.0, atol=1e-12)
        if ones.any():
            if abs(float(self.b[ones][0])) > 1e-9:
                out.append("b(1) != 0")
            if abs(float(self.B[ones][0])) > 1e-9:
                out.append("B(1) != 0")
        return out

    csv_columns = ("q", "b", "B", "Lambda", "Theta", "Delta", "osc", "converged")

    def rows_csv(self):
        for i, q in enumerate(self.q_grid):
            d = self.diagnostics[i]
            yield (
                fmt(q),
                fmt(self.b[i]),
                fmt(self.B[i]),
                fmt(self.B[i]),  # the Lambda column: B(q) = Lambda(q)
                fmt(self.Theta[i]),
                fmt(self.Delta[i]),
                fmt(d["oscillation"]),
                "true" if d["converged"] else "false",
            )


def _table_generations(spec: MoranSpec, k_max: int) -> list[int]:
    """Generations for the Theta/Delta cross-check: 16 period-aligned points
    over [k_max/16, k_max], or the first 16 periods when that gives fewer
    than 8."""
    cap = max(k_max, 8)
    period = spec.schedule.period or 1
    ks = sorted(
        {max(period, period * round(k / period)) for k in np.linspace(cap / 16, cap, 16)}
    )
    if len(ks) < 8:
        ks = sorted(set(range(period, cap + 1, period)))[:16] or [period]
    return ks


def separator_grid(spec: MoranSpec, q_grid, k_max: int) -> SeparatorGrid:
    """
    Estimate b and B over a q grid from the beta_k envelope (the min
    and max over [1, k_max]), plus Theta/Delta from exact log partition sums
    as an independent cross-check route. When those span too few scales,
    Theta and Delta are nan and each diagnostics entry says why under
    ``theta_delta``.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    ks = sample_generations(spec, k_max)
    betas = solve_beta_k(spec, q_grid[:, None], ks)
    rows = np.arange(q_grid.size)
    i_b, i_B = betas.argmin(axis=1), betas.argmax(axis=1)
    b, B = betas[rows, i_b], betas[rows, i_B]
    diagnostics = [
        {
            "q": float(q),
            "window": [int(ks[0]), int(ks[-1])],
            "oscillation": float(B[i] - b[i]),
            "converged": bool(B[i] - b[i] <= _CONVERGED_TOL),
            "k_b": int(ks[i_b[i]]),
            "k_B": int(ks[i_B[i]]),
            "generations": int(ks.size),
        }
        for i, q in enumerate(q_grid)
    ]

    counts = family_generation_counts(spec, _table_generations(spec, k_max))
    log_s, _ = log_partition(spec, q_grid[:, None], 0.0, counts)
    neg_log_r = sum(n * -math.log(fam.max_ratio) for fam, n in zip(spec.families, counts))
    try:
        Theta, Delta = theta_delta_from_moments(log_s, neg_log_r)
    except InsufficientScales as e:  # no cross-check at these scales; b and B stand
        Theta, Delta = np.full(q_grid.size, np.nan), np.full(q_grid.size, np.nan)
        for d in diagnostics:
            d["theta_delta"] = str(e)

    return SeparatorGrid(
        q_grid=q_grid,
        b=b,
        B=B,
        Theta=Theta,
        Delta=Delta,
        diagnostics=diagnostics,
    )
