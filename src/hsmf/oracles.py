"""
Closed-form reference curves for the three worked measure classes, plus exact
small-depth optima for ball moments.

The closed forms are the acceptance oracles: the alternating two-family
construction has a genuine limit exponent; the block-switched construction has
distinct liminf/limsup branches given by the two single-family exponents; the
switching binomial's branches are the two dyadic moment exponents. The brute
force solves the exact packing/covering optimum over the midpoint-center
class by dynamic programming on the line, certifying the greedy estimators
within that class, on the ball table those estimators read. Both programs
are O(n) past one sorted lookup per point. In the covering program the first
support point ns_i left uncovered by ball i is non-decreasing in i, so the
balls that may precede ball j form a suffix [lo_j, j) whose start never moves
left, and a monotone deque yields each suffix minimum, an existing value.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .counting import BallTable, ball_table
from .errors import ParameterOutOfRange, TooDeep
from .specs import MoranSpec, _num_cells

_BRUTE_FORCE_MAX_CELLS = 1 << 13


def uniform_beta(q: float) -> float:
    """Exponent curve of the uniform dyadic measure: 1 - q."""
    return 1.0 - q


def _check_probs(p, where: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
        raise ParameterOutOfRange(f"{where} must be a positive probability vector")
    return p


def periodic_moran_beta(p1, r1: float, p2, r2: float, q: float) -> float:
    """
    Limit exponent of the two-family alternating construction
    (arity-2 family with ratio r1, arity-3 family with ratio r2):

        beta(q) = [log sum p1^q + log sum p2^q] / (-log(r1 r2)).
    """
    p1 = _check_probs(p1, "p1")
    p2 = _check_probs(p2, "p2")
    if not (0.0 < r1 < 0.5):
        raise ParameterOutOfRange("need 0 < r1 < 1/2")
    if not (0.0 < r2 < 1.0 / 3.0):
        raise ParameterOutOfRange("need 0 < r2 < 1/3")
    num = math.log(float(np.sum(p1**q))) + math.log(float(np.sum(p2**q)))
    return num / (-math.log(r1 * r2))


@dataclass(frozen=True)
class BlockBounds:
    liminf: float
    limsup: float
    liminf_branch: int  # 1 or 2: which single-family exponent is the inf
    limsup_branch: int


def block_moran_bounds(p1, r1: float, p2, r2: float, q: float) -> BlockBounds:
    """
    liminf/limsup exponents of the block-switched construction with block
    length ratios growing without bound: the inf and sup of the two
    single-family exponents log(sum p_i^q) / (-log r_i). The branch taken is
    reported rather than assumed from a case split.
    """
    p1 = _check_probs(p1, "p1")
    p2 = _check_probs(p2, "p2")
    if not (0.0 < r1 < 0.5):
        raise ParameterOutOfRange("need 0 < r1 < 1/2")
    if not (0.0 < r2 < 1.0 / 3.0):
        raise ParameterOutOfRange("need 0 < r2 < 1/3")
    e1 = math.log(float(np.sum(p1**q))) / (-math.log(r1))
    e2 = math.log(float(np.sum(p2**q))) / (-math.log(r2))
    if e1 <= e2:
        return BlockBounds(e1, e2, 1, 2)
    return BlockBounds(e2, e1, 2, 1)


def switching_binomial_tau(p: float, p_hat: float, q: float) -> tuple[float, float]:
    """
    The two dyadic moment exponents of the switching binomial measure:

        tau(q)     = log2(p^q + (1-p)^q)
        tau_hat(q) = log2(p_hat^q + (1-p_hat)^q)

    Requires 0 < p < p_hat <= 1/2.
    """
    if not (0.0 < p < p_hat <= 0.5):
        raise ParameterOutOfRange("need 0 < p < p_hat <= 1/2")
    tau = math.log2(p**q + (1.0 - p) ** q)
    tau_hat = math.log2(p_hat**q + (1.0 - p_hat) ** q)
    return tau, tau_hat


def switching_alpha_interval(p_hat: float) -> tuple[float, float]:
    """Admissible local-exponent interval (-log2(1 - p_hat), -log2(p_hat))."""
    if not (0.0 < p_hat <= 0.5):
        raise ParameterOutOfRange("need 0 < p_hat <= 1/2")
    return -math.log2(1.0 - p_hat), -math.log2(p_hat)


# ---------------------------------------------------------------------------
# Oracle curves as grid objects
# ---------------------------------------------------------------------------

@dataclass
class OracleCurve:
    """A closed-form reference curve sampled on a q grid."""

    name: str
    q_grid: np.ndarray
    values: np.ndarray
    provenance: str   # which closed form and parameters produced it
    convex: bool = True  # min-of-branches envelopes are not convex at crossings

    def check_invariants(self) -> list[str]:
        tol = 1e-8
        out = []
        if not np.all(np.isfinite(self.values)):
            out.append(f"{self.name}: non-finite values")
        if np.any(np.diff(self.values) > tol):
            out.append(f"{self.name}: not non-increasing")
        if self.convex and self.q_grid.size >= 3:
            second = np.diff(np.diff(self.values) / np.diff(self.q_grid))
            if np.any(second < -tol):
                out.append(f"{self.name}: not discretely convex")
        return out


def oracle_curve(name: str, q_grid, fn, provenance: str, convex: bool = True) -> OracleCurve:
    q_grid = np.asarray(q_grid, dtype=float)
    values = np.array([fn(float(q)) for q in q_grid])
    return OracleCurve(name, q_grid, values, provenance, convex)


# ---------------------------------------------------------------------------
# Exact midpoint-class ball-moment optima
# ---------------------------------------------------------------------------

@dataclass
class BruteForceMoments:
    packing: float   # max of sum mu(B)^q over r-separated midpoint sets
    covering: float  # min of sum mu(B)^q over midpoint covers of the support


def midpoint_ball_masses(spec: MoranSpec, r: float, depth: int) -> BallTable:
    """The midpoint ball table at ``depth`` (<= 12, hard cell cap): the
    brute force's candidate class, which the greedy estimators then read too."""
    if depth > 12:
        raise TooDeep("brute force is limited to depth <= 12")
    if _num_cells(spec, depth) > _BRUTE_FORCE_MAX_CELLS:
        raise TooDeep(f"brute force capped at {_BRUTE_FORCE_MAX_CELLS} cells")
    return ball_table(spec, r, int(depth), "midpoints")


def _max_packing_value(points: np.ndarray, weights: np.ndarray, r: float) -> float:
    """
    Exact max of sum(weights) over subsets of the sorted ``points`` with
    pairwise distance >= r: prefix-max dynamic program on the line, where the
    last point at distance >= r left of each point is found in one pass.
    """
    before = (np.searchsorted(points, points - r, side="right") - 1).tolist()
    prefix: list[float] = []  # prefix[i] = max value of a packing within points[:i+1]
    for i, (j, w) in enumerate(zip(before, weights.tolist())):
        best = w + max(prefix[j] if j >= 0 else 0.0, 0.0)  # packing ending at i
        prefix.append(best if i == 0 else max(prefix[-1], best))
    return prefix[-1]


def _min_cover_value(
    points: np.ndarray,
    weights: np.ndarray,
    r: float,
    lefts: np.ndarray,
    rights: np.ndarray,
) -> float:
    """
    Exact min of sum(weights) over center subsets whose radius-r balls cover
    the union of [lefts, rights]. Dynamic program over centers in left-to-
    right order: ball j may extend a chain ending at ball i when no support
    point lies in the gap (reach_i, points_j - r), i.e. when points_j - r is
    at most ns_i, the first support point beyond reach_i. ``points`` and the
    pieces must be sorted; then ns is non-decreasing (module docstring).
    """
    n = points.size
    start = float(lefts[0])
    reach = points + r
    # ns[i]: first support point strictly beyond reach[i] (the point the next
    # ball must still cover); +inf when the chain already covers everything.
    idx = np.searchsorted(rights, reach, side="right")
    ns = np.full(n, math.inf)
    inside = idx < lefts.size
    ns[inside] = np.maximum(reach[inside], lefts[idx[inside]])
    assert np.all(ns[1:] >= ns[:-1]), "points and support pieces must be sorted"
    lo = np.searchsorted(ns, points - r, side="left").tolist()
    init = ((points - r <= start) & (start <= reach)).tolist()
    cost: list[float] = []
    window: deque[int] = deque()  # indices in [lo_j, j) with increasing cost
    for j, w in enumerate(weights.tolist()):
        c = w if init[j] else math.inf
        while window and window[0] < lo[j]:
            window.popleft()
        if window and cost[window[0]] + w < c:
            c = cost[window[0]] + w
        cost.append(c)
        while window and cost[window[-1]] >= c:
            window.pop()
        window.append(j)
    return min(cost[int(np.searchsorted(ns, math.inf)):], default=math.inf)


def brute_force_ball_moments(table: BallTable, q: float) -> BruteForceMoments:
    """
    Certified packing/covering moment optima over the table's centers (the
    midpoint class from ``midpoint_ball_masses``). The packing side is an
    exact interval-graph DP; the covering side an exact shortest-cover DP.
    """
    with np.errstate(over="ignore"):  # an overflowing weight is inf, as in the greedy sums
        weights = table.ball_mass**q
    pack = _max_packing_value(table.points, weights, table.r)
    cover = _min_cover_value(table.points, weights, table.r, table.lefts, table.rights)
    return BruteForceMoments(packing=pack, covering=cover)
