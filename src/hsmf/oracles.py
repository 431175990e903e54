"""
Closed-form reference curves for the three worked measure classes, plus exact
small-depth optima for ball moments.

The closed forms are the acceptance oracles: the alternating two-family
construction has a genuine limit exponent; the block-switched construction has
distinct liminf/limsup branches given by the two single-family exponents; the
switching binomial's branches are the two dyadic moment exponents. The brute
force solves the exact packing/covering optimum by dynamic programming on the
line, certifying the greedy estimators on the ball table they read. Both
programs read the greedy's own lookups (``separated_after``, ``cover_steps``),
so "r apart" and "covers" are one float test each, and accept any sorted
candidate class; criterion 10 runs them on the endpoint tables that
``moments`` sums over.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from ._np import np
from .counting import BallTable, cover_steps, separated_after
from .errors import ParameterOutOfRange, ScaleTooSmall, TooDeep
from .specs import GapPolicy, MoranSpec, _num_cells, ball_masses, cells

_BRUTE_FORCE_MAX_CELLS = 1 << 13


def uniform_beta(q: float) -> float:
    """Exponent curve of the uniform dyadic measure: 1 - q."""
    return 1.0 - q


def _two_family_logs(p1, r1: float, p2, r2: float, q: float) -> tuple[float, float]:
    """log sum p1^q and log sum p2^q, once p1 and p2 are positive probability
    vectors, 0 < r1 < 1/2 (arity 2) and 0 < r2 < 1/3 (arity 3)."""
    ps = [np.asarray(p, dtype=float) for p in (p1, p2)]
    for p, where in zip(ps, ("p1", "p2")):
        if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ParameterOutOfRange(f"{where} must be a positive probability vector")
    if not (0.0 < r1 < 0.5):
        raise ParameterOutOfRange("need 0 < r1 < 1/2")
    if not (0.0 < r2 < 1.0 / 3.0):
        raise ParameterOutOfRange("need 0 < r2 < 1/3")
    return math.log(float(np.sum(ps[0] ** q))), math.log(float(np.sum(ps[1] ** q)))


def periodic_moran_beta(p1, r1: float, p2, r2: float, q: float) -> float:
    """
    Limit exponent of the two-family alternating construction
    (arity-2 family with ratio r1, arity-3 family with ratio r2):

        beta(q) = [log sum p1^q + log sum p2^q] / (-log(r1 r2)).
    """
    log1, log2 = _two_family_logs(p1, r1, p2, r2, q)
    return (log1 + log2) / (-math.log(r1 * r2))


def block_moran_bounds(p1, r1: float, p2, r2: float, q: float) -> tuple[float, float]:
    """
    (liminf, limsup) exponents of the block-switched construction with block
    length ratios growing without bound: the inf and sup of the two
    single-family exponents log(sum p_i^q) / (-log r_i).
    """
    log1, log2 = _two_family_logs(p1, r1, p2, r2, q)
    e1, e2 = log1 / (-math.log(r1)), log2 / (-math.log(r2))
    return (e1, e2) if e1 <= e2 else (e2, e1)


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
# Exact ball-moment optima
# ---------------------------------------------------------------------------

@dataclass
class BruteForceMoments:
    packing: float   # max of sum mu(B)^q over r-separated candidate sets
    covering: float  # min of sum mu(B)^q over candidate covers of the support


def midpoint_ball_masses(spec: MoranSpec, r: float, depth: int) -> BallTable:
    """The generation-``depth`` cell midpoints (depth <= 12, hard cell cap) as a
    ball table, masses resolved as ``ball_table`` resolves them."""
    if depth > 12:
        raise TooDeep("brute force is limited to depth <= 12")
    if _num_cells(spec, depth) > _BRUTE_FORCE_MAX_CELLS:
        raise TooDeep(f"brute force capped at {_BRUTE_FORCE_MAX_CELLS} cells")
    r, depth = float(r), int(depth)
    lefts, lengths = cells(spec, depth)[:2]
    pts = lefts + 0.5 * lengths
    if spec.gap_policy is GapPolicy.NO_GAPS:
        lefts, lengths = np.array([0.0]), np.array([1.0])
    ball = ball_masses(spec, pts, r, min(spec.depth_cap, depth + 8))
    return BallTable(r, pts, ball, lefts, lefts + lengths)


def _max_packing_value(points: np.ndarray, weights: np.ndarray, r: float) -> float:
    """
    Exact max of sum(weights) over r-separated subsets of the sorted
    ``points``: prefix-max dynamic program on the line, where the last point
    r apart left of each point is read from ``separated_after``.
    """
    idx = np.arange(points.size)
    after = separated_after(points, r)
    if np.any(after <= idx):  # r below the points' spacing resolution, as in _packing_centers
        raise ScaleTooSmall("packing program failed to progress")
    before = np.searchsorted(after, idx, side="right") - 1
    prefix: list[float] = []  # prefix[i] = max value of a packing within points[:i+1]
    for i, (j, w) in enumerate(zip(before.tolist(), weights.tolist())):
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
    the sorted pieces [lefts, rights], by a left-to-right dynamic program on
    the greedy's ``cover_steps``: ball j may come first when it covers
    lefts[0], and follow ball i < j when j <= take_i or i is done. take is
    non-decreasing, so ball j's predecessors form a suffix [lo_j, j), and a
    monotone deque yields each suffix minimum, an existing value.
    """
    assert np.all(points[1:] >= points[:-1]), "points must be sorted"
    n = points.size
    take, _, done = cover_steps(points, lefts, rights, r)
    first, last = int(np.searchsorted(points, lefts[0] - r, side="left")), int(take[n])
    lo = np.searchsorted(np.where(done, n - 1, take[:n]), np.arange(n), side="left").tolist()
    cost: list[float] = []
    window: deque[int] = deque()  # indices in [lo_j, j) with increasing cost
    for j, w in enumerate(weights.tolist()):
        c = w if first <= j <= last else math.inf
        while window and window[0] < lo[j]:
            window.popleft()
        if window and cost[window[0]] + w < c:
            c = cost[window[0]] + w
        cost.append(c)
        while window and cost[window[-1]] >= c:
            window.pop()
        window.append(j)
    return min(cost[n - int(np.count_nonzero(done)):], default=math.inf)


def brute_force_ball_moments(table: BallTable, q: float) -> BruteForceMoments:
    """
    Certified packing/covering moment optima over the table's centers, of
    either class. The packing side is an exact interval-graph DP; the
    covering side an exact shortest-cover DP.
    """
    with np.errstate(over="ignore"):  # an overflowing weight is inf, as in the greedy sums
        weights = table.ball_mass**q
    pack = _max_packing_value(table.points, weights, table.r)
    cover = _min_cover_value(table.points, weights, table.r, table.lefts, table.rights)
    return BruteForceMoments(packing=pack, covering=cover)
