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

The lower/upper separator functions are the liminf/limsup of beta_k over k,
taken exactly from a few generations of [1, k_max]. A constant or periodic
schedule with period P needs only P (k_max below one period): at k = mP the
family counts are m times those of one period, so log S_k(q, t) =
m log S_P(q, t) and beta_{mP} = beta_P, the one-period equation of
Cawley-Mauldin 1992. Block schedules need only 1, k_max and the boundary
pairs T_j - 1, T_j: inside one block only the active family's count m grows,
so log S_k(q, t) = C(t) + m phi_f(t). Under constant ratios
beta = (N + m A_f) / (D + m L_f) is a Moebius map in m; otherwise the root
moves monotonically toward phi_f's root (d beta/dm has the sign of
phi_f(beta); a zero at one m pins beta at that root for every m). Either way
the min and max over a run of generations inside one block sit at the run's
ends. The whole range is used because a
half-range tail [k_max/2, k_max] provably spans less than a factor-2 range of
block mixing fractions and cannot see both envelope branches.

Theta(q) and Delta(q) are the partition-moment route at the largest cell
length: the min/max of log S_k(q, 0)/(-log r_k), with r_k the largest
generation-k cell length, over the finer half of 16 generations spanning
[k_max/16, k_max], whatever the q grid. Nothing compares them with b and B.
Under constant per-family ratios every generation-k cell has length r_k, so
S_k(q, t) = S_k(q, 0) r_k^t and each table value is beta_k itself: on a
constant or periodic spec they equal b and B by algebra. Both logs are exact
family sums, so no raw moment or scale has to fit in a double.

A separator grid makes one (q x k) root solve: ``solve_beta_k`` broadcasts
the q grid against the sampled generations, and since every (q, k) pair is
solved elementwise, each value is the one a lone solve gives. Many specs,
each at one generation, are solved the same way: ``stack_by_shape`` groups
them by family shape (the tuple of family arities and the route) and stacks
each family's (log_probs, log_ratios) rows spec by spec; Newton reads any
rows as (specs, arity) and gathers each element's by its spec number, and
``solve_beta_stack`` solves a group in one closed-form evaluation or one
Newton call. Arities are never padded, so every reduction is as long as in a
lone solve and every root equals the lone solve's to the bit; criterion 1 of
``verify`` solves its 200 random specs this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from ._np import np
from .errors import InsufficientScales, NoBracket, NoConvergence, ParameterOutOfRange, TooDeep
from .output import fmt
from .specs import (
    BlockSchedule,
    FamilyRows,
    MoranSpec,
    family_generation_counts,
    family_rows,
)
from .counting import log_partition

_CONVERGED_TOL = 1e-6
_NEWTON_MAX_ITER = 100


# ---------------------------------------------------------------------------
# beta_k(q)
# ---------------------------------------------------------------------------

def _bracket_bound(families, q: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """
    Per (q, k) pair, the half-width h of ``_newton_roots``' bracket [-h, h]
    on the root of log S_k(q, t). A family's sum of p^q c^t is at most 1 once
    every term is at most 1/arity, t >= max_j (q log p_j + log arity) / -log c_j,
    and at least 1 once one term is, t <= max_j q log p_j / -log c_j. With U
    the largest first bound and L the smallest second one over the families
    present, h = 2 max(|L|, |U|) + 1 puts each sum below max c at h and above
    1 / max c at -h. It is not finite where a family's terms are all 0, or
    one is inf, at every t: then no bracket exists.
    """
    upper, lower = np.full(q.size, -np.inf), np.full(q.size, np.inf)
    with np.errstate(over="ignore"):
        for fam, n in zip(families, counts):
            qlp, inv, log_n = q[:, None] * fam.log_probs, -fam.log_ratios, math.log(fam.log_probs.shape[-1])
            upper = np.where(n > 0, np.maximum(upper, ((qlp + log_n) / inv).max(axis=-1)), upper)
            lower = np.where(n > 0, np.minimum(lower, (qlp / inv).max(axis=-1)), lower)
        return 2.0 * np.maximum(np.abs(lower), np.abs(upper)) + 1.0


def _rows_at(families, member: np.ndarray) -> list[FamilyRows]:
    """Each family's rows, read as (specs, arity), gathered at the spec numbers ``member``."""
    return [FamilyRows(*(a.reshape(-1, a.shape[-1]).take(member, axis=0) for a in fam)) for fam in families]


def _newton_roots(families, q: np.ndarray, ks: np.ndarray, counts: np.ndarray,
                  member: np.ndarray) -> np.ndarray:
    """
    Roots in t of log S_k(q, t) = 0 for every (q, k) pair of the flat arrays
    ``q`` and ``ks`` (counts are the family generation counts of ``ks``; each
    family's rows are read as one (arity,) row per spec), each from its
    own bracket [lo, hi] = [-h, h], h from ``_bracket_bound``: Newton steps
    that stay inside the bracket (else bisect) until |g| <= 1e-13 k. Each
    element stops on its own, so every root is the one a lone solve gives.

    ``member`` numbers the spec of each pair, non-decreasing, and errors name
    the first spec that fails, as a loop solving the specs one by one would:
    NoBracket names that spec's first pair whose h is not finite, where no
    bracket exists; NoConvergence names its first unconverged pair and counts
    its unconverged generations at that q.
    """
    hi = _bracket_bound(_rows_at(families, member), q, counts)
    bad = ~np.isfinite(hi)
    lo = -hi
    beta = np.zeros(ks.size)
    tol = 1e-13 * ks
    todo = np.arange(ks.size)
    if bad.any():  # only the specs before the first one without a bracket can fail first
        todo = todo[member < member[bad.argmax()]]
    for _ in range(_NEWTON_MAX_ITER):
        b = beta[todo]
        g, dg = log_partition(_rows_at(families, member[todo]), q[todo], b, counts[:, todo])
        moving = np.abs(g) > tol[todo]
        todo, b, g, dg = todo[moving], b[moving], g[moving], dg[moving]
        if todo.size == 0:
            break
        up = g > 0.0
        lo[todo] = np.where(up, b, lo[todo])
        hi[todo] = np.where(up, hi[todo], b)
        mid = 0.5 * (lo[todo] + hi[todo])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = b - g / dg  # dg == 0 gives a non-finite step, hence mid
        beta[todo] = np.where((lo[todo] < step) & (step < hi[todo]), step, mid)
    if todo.size:
        i = todo[0]
        at_q = (q == q[i]) & (member == member[i])
        raise NoConvergence(
            f"beta_k did not converge in {_NEWTON_MAX_ITER} Newton steps at q={float(q[i])}, "
            f"k={ks[i]} ({np.count_nonzero(at_q[todo])} of {np.count_nonzero(at_q)} generations unconverged)"
        )
    if bad.any():
        i = bad.argmax()
        raise NoBracket(f"no finite bracket for beta at q={float(q[i])}, k={ks[i]}")
    return beta


def _roots(families, neg_log_c, q: np.ndarray, ks: np.ndarray, counts: np.ndarray, member) -> np.ndarray:
    """
    beta_k(q) for every element of q broadcast against ``ks``: each family's
    rows, the counts (families x ks.shape) and ``member``, the number of each
    element's spec, broadcast against the same elements. Given each family's
    -log c, ``neg_log_c``, the closed form; else ``_newton_roots`` on the
    flattened elements, which gathers each one's rows by its spec number.
    """
    if neg_log_c is not None:
        num, _ = log_partition(families, q, 0.0, counts)
        return num / sum(n * c for n, c in zip(counts, neg_log_c))
    shape = np.broadcast_shapes(q.shape, ks.shape)
    counts = np.stack([np.broadcast_to(n, shape).ravel() for n in counts])
    q, ks, member = (np.broadcast_to(a, shape).ravel() for a in (q, ks, member))
    return _newton_roots(families, q, ks, counts, member).reshape(shape)


def _check_generations(spec: MoranSpec, ks: np.ndarray) -> None:
    """Raise before any solve for a generation below 1 (the first one met) or
    past ``depth_cap``."""
    if ks.size and ks.min() < 1:
        raise ParameterOutOfRange(f"generation {ks.ravel()[np.argmax(ks.ravel() < 1)]} is below 1")
    if ks.size and ks.max() > spec.depth_cap:
        raise TooDeep(f"generation {ks.max()} exceeds depth_cap {spec.depth_cap}")


def _closed_form(spec: MoranSpec) -> bool:
    return all(fam.constant_ratio for fam in spec.families)


def solve_beta_k(spec: MoranSpec, q, k):
    """
    The generation-k normalization exponent with q and k broadcast against
    each other: a float for scalar q and k, else an array of the broadcast
    shape (``q[:, None]`` against an array of generations gives a (q x k)
    grid). The closed form under constant per-family ratios, else
    ``_newton_roots`` on all (q, k) pairs at once, holding the residual to
    |log S_k| <= 1e-13 k from the bracket ``_bracket_bound`` proves. Raises
    ParameterOutOfRange for a generation below 1, NoConvergence rather than
    return a root that misses that bound, and NoBracket where p^q is 0 or inf
    at every t, so that no root exists.
    """
    qs = np.asarray(q, dtype=float)
    ks = np.asarray(k, dtype=np.int64)
    _check_generations(spec, ks)
    counts = family_generation_counts(spec, ks.ravel()).reshape(-1, *ks.shape)
    neg_log_c = [-math.log(fam.ratios[0]) for fam in spec.families] if _closed_form(spec) else None
    beta = _roots(family_rows(spec), neg_log_c, qs, ks, counts, 0)
    return float(beta) if beta.ndim == 0 else beta


class SpecStack(NamedTuple):
    """
    Specs of one family shape -- the tuple of their family arities and the
    route, closed form or Newton -- each at one generation, stacked along a
    leading axis of n specs. ``positions`` are their places in the list given
    to ``stack_by_shape``. ``ks`` is (n, 1), ``counts`` (families, n, 1) and
    each family's rows (n, 1, arity), every spec's own arrays, so they
    broadcast against a q grid as a lone spec's broadcast against its (q, k)
    pairs, and every reduction is as long as in a lone solve.
    """

    positions: tuple[int, ...]
    ks: np.ndarray
    counts: np.ndarray
    families: tuple[FamilyRows, ...]
    neg_log_c: tuple[np.ndarray, ...] | None  # each family's -log c on the closed-form route


def stack_by_shape(specs, ks) -> list[SpecStack]:
    """
    ``specs[i]`` at generation ``ks[i]``, grouped into one stack per family
    shape, in order of first appearance; arities are never padded. Raises for
    the first generation ``solve_beta_k`` would refuse.
    """
    groups: dict[tuple, list[int]] = {}
    for i, (spec, k) in enumerate(zip(specs, ks)):
        _check_generations(spec, np.asarray(k, dtype=np.int64))
        shape = (tuple(fam.arity for fam in spec.families), _closed_form(spec))
        groups.setdefault(shape, []).append(i)
    stacks = []
    for (_, closed), positions in groups.items():
        members = [specs[i] for i in positions]
        fams = list(zip(*(spec.families for spec in members)))  # per family, every member's
        counts = [family_generation_counts(spec, ks[i]) for spec, i in zip(members, positions)]
        stacks.append(SpecStack(
            positions=tuple(positions),
            ks=np.array([[ks[i]] for i in positions], dtype=np.int64),
            counts=np.concatenate(counts, axis=1)[..., None],
            families=tuple(FamilyRows(*(np.stack(a)[:, None] for a in zip(*rows)))
                           for rows in zip(*map(family_rows, members))),
            neg_log_c=tuple(np.array([[-math.log(f.ratios[0])] for f in fam]) for fam in fams) if closed else None,
        ))
    return stacks


def solve_beta_stack(stack: SpecStack, q) -> np.ndarray:
    """
    beta_k(q) of every stacked spec at its generation over the 1-d q grid,
    an (n, q.size) array from one closed-form evaluation or one Newton solve: row
    i is ``solve_beta_k(spec, q, k)`` of the i-th stacked spec to the bit,
    and an error names the (q, k) that solving the specs in order would
    raise first.
    """
    return _roots(stack.families, stack.neg_log_c, np.asarray(q, dtype=float), stack.ks, stack.counts,
                  np.arange(len(stack.positions))[:, None])


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


def sample_generations(spec: MoranSpec, k_max: int) -> np.ndarray:
    """
    Generation indices at which beta_k is evaluated over [1, k_max], where
    its liminf and limsup are attained exactly (module docstring): the period
    P of a constant or periodic schedule, or k_max when k_max < P; 1, k_max
    and each T_j - 1, T_j inside that range for a block schedule. Raises
    TooDeep for a k_max past ``depth_cap``.
    """
    if k_max > spec.depth_cap:
        raise TooDeep(f"k_max {k_max} exceeds depth_cap {spec.depth_cap}")
    sched = spec.schedule
    if not isinstance(sched, BlockSchedule):
        return np.array([min(sched.period, k_max)], dtype=np.int64)
    pts = {1, k_max}
    for t in sched.boundaries:
        pts.update(k for k in (t - 1, t) if 1 <= k <= k_max)
    return np.array(sorted(pts), dtype=np.int64)


def beta_sequence(spec: MoranSpec, q: float, k_max: int) -> BetaSequence:
    """
    Evaluate beta_k(q) on the sampled generations and estimate the
    liminf/limsup as their min/max.
    """
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

def slope_changes(x, y) -> np.ndarray:
    """
    Second divided differences of y over x, the change of slope at each
    interior point, signed by the direction of x: non-negative on a convex
    curve whether x increases or decreases. Empty below three points.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.diff(np.diff(y) / np.diff(x)) * np.sign(np.diff(x[:-1]))


def separator_problems(q, b, B) -> list[str]:
    """
    The shape theorem on an increasing q grid, for an estimated grid or a
    closed-form (lower, upper) pair: b <= B, both non-increasing, B
    discretely convex, to 1e-8; b(1) = B(1) = 0 to 1e-9 where the grid has
    q = 1. Empty list when all hold, else one message each.
    """
    tol = 1e-8
    out = []
    if np.any(b > B + tol):
        out.append("chain b <= B violated")
    for name, curve in (("b", b), ("B", B)):
        if np.any(np.diff(curve) > tol):
            out.append(f"{name} not non-increasing in q")
    if np.any(slope_changes(q, B) < -tol):
        out.append("B not discretely convex")
    ones = np.isclose(q, 1.0, atol=1e-12)
    if ones.any():
        if abs(float(b[ones][0])) > 1e-9:
            out.append("b(1) != 0")
        if abs(float(B[ones][0])) > 1e-9:
            out.append("B(1) != 0")
    return out


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
        """``separator_problems`` on this grid's b and B."""
        return separator_problems(self.q_grid, self.b, self.B)

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
    """Generations of the Theta/Delta table: 16 period-aligned points
    over [k_max/16, k_max]."""
    cap = max(k_max, 8)
    period = spec.schedule.period or 1
    return sorted(
        {max(period, period * round(k / period)) for k in np.linspace(cap / 16, cap, 16)}
    )


def separator_grid(spec: MoranSpec, q_grid, k_max: int) -> SeparatorGrid:
    """
    b and B over a q grid, the min and max of beta_k over [1, k_max] at
    ``sample_generations``, plus Theta/Delta from exact log partition sums at
    the largest cell length. When those span too few scales,
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
    log_s, _ = log_partition(family_rows(spec), q_grid[:, None], 0.0, counts)
    neg_log_r = sum(n * -math.log(fam.max_ratio) for fam, n in zip(spec.families, counts))
    try:
        Theta, Delta = theta_delta_from_moments(log_s, neg_log_r)
    except InsufficientScales as e:  # no Theta/Delta at these scales; b and B stand
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
