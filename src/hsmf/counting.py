"""
Fixed-radius covering/packing counts and q-moment sums, plus exact factorized
partition moments and the moment tables built from them.

Greedy estimators
-----------------
Counts and moment sums need an extremum over center sets, which is not
tractable exactly over real centers. ``ball_table`` builds one scale's
candidate table from one cell enumeration at the matched generation: the
centers, their ball masses and the support pieces. Every estimator at that
scale reads the table; a count is the q = 0 moment. The centers are the
generation's cell endpoints, all of which belong to the support; an endpoint
shared by adjacent cells is kept once, by an in-place sort and an
adjacent-difference mask (``sorted_distinct``). The left-to-right sweep is
exactly optimal within this class on the line, so the q = 0 covering moment
is an upper bound for the true covering number of the support (it covers the
generation-k superset) and the q = 0 packing moment counts a valid packing of
the support, hence a lower bound for the true packing number. Both are within
a factor 2 of the continuum optimum.

The sweeps' two lookups, ``separated_after`` and ``cover_steps``, are also
the steps of the exact programs in ``oracles``, which accept any sorted class;
a ball table finds each once and keeps it for the sweeps and the programs.

A table owns one cover and one packing, both q-independent and each found
once, as ``np.intp`` index arrays into its sorted centers that the sweeps fill
in place. ``covering_moment`` and ``packing_moment`` are the one ball-moment sum:
the columns of ``counting_moment_table`` are their values, and a power past
the double range is inf there without a warning, as in the oracle's weights.

For q < 0 the covering infimum rewards small-mass balls and no tractable
scheme tracks it; those values are flagged heuristic. Partition moments are
exact and factorized, and are the canonical scaling statistic.

All operations are pure and reentrant. Moment-table cells are evaluated per
scale on a fixed center set (never through shared accumulators), so values
are independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

from ._np import np
from .errors import ScaleTooSmall, TooDeep
from .output import fmt
from .specs import (
    GapPolicy,
    MoranSpec,
    ball_masses,
    cells,
    family_generation_counts,
    family_rows,
    matched_generation,
    max_length_at,
)


class MomentKind(str, Enum):
    COVERING_MOMENT = "covering_moment"
    PACKING_MOMENT = "packing_moment"
    PARTITION_MOMENT = "partition_moment"
    COVERING_COUNT = "covering_count"
    PACKING_COUNT = "packing_count"


# ---------------------------------------------------------------------------
# Greedy center selection
# ---------------------------------------------------------------------------

def separated_after(points: np.ndarray, r: float) -> np.ndarray:
    """For each sorted candidate i, the first j with points[i] + r <= points[j]."""
    return np.searchsorted(points, points + r, side="left")


def cover_steps(points: np.ndarray, lefts: np.ndarray, rights: np.ndarray, r: float):
    """
    Step lookups of a left-to-right cover of the sorted pieces [lefts, rights]
    by radius-r balls at the sorted ``points``, per ball j plus a start slot n.
    The slot's uncovered point y is lefts[0] at the start, else max(points[j]
    + r, left end of the first piece reaching past it). ``take``: the farthest
    p with p <= y + r; ``stuck``: no p has y - r <= p <= y + r; ``done`` (per
    ball): it reaches past the support.
    """
    reach = points + r
    piece = np.searchsorted(rights, reach, side="right")
    # filled in place and freed early: a table keeps these lookups, so the
    # temporaries beside them set the peak of the finest scale's sweep
    pos = np.empty(points.size + 1)
    np.maximum(reach, lefts[np.minimum(piece, lefts.size - 1)], out=pos[:-1])
    pos[-1] = lefts[0]
    del reach
    take = np.searchsorted(points, pos + r, side="right")
    take -= 1
    return take, (take < 0) | (points[take] < pos - r), piece >= lefts.size


def _covering_centers(steps) -> np.ndarray:
    """Indices of the greedy cover from ``cover_steps``' lookups: each step
    takes the farthest candidate that still covers the leftmost uncovered
    point, which on the line is optimal within the candidate class."""
    take, stuck, done = map(memoryview, steps)
    size = len(done)
    centers = np.empty(size + 2, dtype=np.intp)
    out = memoryview(centers)
    j = size  # the start slot
    for n in range(size + 2):  # a progressing sweep takes each candidate once
        if stuck[j]:
            raise ScaleTooSmall("candidate centers cannot cover the support at this radius")
        j = out[n] = take[j]
        if done[j]:
            return centers[:n + 1]
    raise ScaleTooSmall("covering sweep failed to progress")


def _packing_centers(after: np.ndarray) -> np.ndarray:
    """Indices of a greedy maximal r-separated subset of sorted candidate
    points from their ``separated_after`` lookup: from each chosen point, the
    first one r apart from it."""
    nxt = memoryview(after)
    centers = np.empty(after.size, dtype=np.intp)
    out = memoryview(centers)
    out[0] = i = 0
    n = 1
    while (j := nxt[i]) < after.size:
        if j <= i:
            raise ScaleTooSmall("packing sweep failed to progress")
        out[n] = i = j
        n += 1
    return centers[:n]


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of the 1-d float array ``a`` (no NaN), ascending.
    This is ``np.unique``'s sorting path: ``a`` is sorted in place and each
    value unequal to its predecessor is kept. ``np.unique`` itself would copy
    ``a`` and import ``numpy.ma`` to ask whether it is masked."""
    a.sort()
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


@dataclass(frozen=True)
class BallTable:
    """One scale's candidate centers (sorted, distinct by sort and mask) with
    their ball masses mu(B(x, r)), and the support pieces [lefts, rights]
    they cover. The sweeps' lookups ``after`` (``separated_after``) and
    ``steps`` (``cover_steps``), and the greedy cover and packing, as
    ``np.intp`` index arrays into ``points``, are each found on first use
    and kept for the exact programs: a table whose centers cannot cover
    still serves the packing side."""

    r: float
    points: np.ndarray
    ball_mass: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray

    @cached_property
    def after(self) -> np.ndarray:
        return separated_after(self.points, self.r)

    @cached_property
    def steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return cover_steps(self.points, self.lefts, self.rights, self.r)

    @cached_property
    def cover(self) -> np.ndarray:
        return _covering_centers(self.steps)

    @cached_property
    def packing(self) -> np.ndarray:
        return _packing_centers(self.after)


def ball_table(spec: MoranSpec, r: float) -> BallTable:
    """
    The endpoint table at radius r over the cells of the matched generation,
    from one cell enumeration. Ball masses are resolved 8 generations below
    it (at most depth_cap). A generation that cannot be enumerated is a scale
    too small.
    """
    r = float(r)
    k = matched_generation(spec, r)
    try:
        lefts, lengths = cells(spec, k)[:2]
    except TooDeep as e:
        raise ScaleTooSmall(str(e)) from e
    pts = sorted_distinct(np.concatenate([lefts, lefts + lengths]))
    if spec.gap_policy is GapPolicy.NO_GAPS:
        lefts, lengths = np.array([0.0]), np.array([1.0])
    rights = lefts + lengths
    del lengths  # free the enumeration before the ball masses, which set the peak
    ball = ball_masses(spec, pts, r, min(spec.depth_cap, k + 8))
    return BallTable(r, pts, ball, lefts, rights)


def covering_moment(table: BallTable, q: float) -> float:
    """
    Sum of mu(B(x_i, r))^q over the greedy cover: at q = 0 the size of the
    cover, an upper bound on the true covering number within a factor 2.
    Heuristic for the covering infimum; for q < 0 there is no tractable scheme
    that rewards small-mass balls and the value is heuristic by contract.
    """
    with np.errstate(over="ignore"):
        return float(np.sum(table.ball_mass[table.cover] ** q))


def packing_moment(table: BallTable, q: float) -> float:
    """
    Sum of mu(B(x_i, r))^q over the greedy left-to-right r-separated packing,
    the same set for every q: at q = 0 its size, a lower bound on the true
    packing number within a factor 2. Heuristic lower bound on the packing
    supremum.
    """
    with np.errstate(over="ignore"):
        return float(np.sum(table.ball_mass[table.packing] ** q))


# ---------------------------------------------------------------------------
# Partition moments (exact, factorized)
# ---------------------------------------------------------------------------

def logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum exp(a) over the last axis, split as scipy.special.logsumexp
    splits it: the largest terms factor out and the rest go through log1p."""
    top = a.max(axis=-1, keepdims=True)
    is_top = a == top
    n_top = is_top.sum(axis=-1)
    rest = np.where(is_top, 0.0, np.exp(a - top)).sum(axis=-1)
    return np.log1p(rest / n_top) + np.log(n_top) + top[..., 0]


def log_partition(families, q, t, counts) -> tuple[np.ndarray, np.ndarray]:
    """
    log S(q, t) = sum_f n_f log sum_j p_fj^q c_fj^t and its t-derivative for
    each column of a (families x n) matrix of generation counts n_f; q and t
    broadcast against the columns. ``families`` are ``FamilyRows``
    (``family_rows``): each family's ``log_probs`` and ``log_ratios`` rows
    broadcast against the columns too, so stacked rows give each column its
    own spec. Families are accumulated one at a time with elementwise
    operations and children are reduced along the last axis, so a column's
    value does not depend on which columns share the call.
    """
    q = np.asarray(q, dtype=float)[..., None]
    t = np.asarray(t, dtype=float)[..., None]
    counts = np.asarray(counts, dtype=float)
    shape = np.broadcast_shapes(q.shape[:-1], t.shape[:-1], counts.shape[1:])
    g, dg = np.zeros(shape), np.zeros(shape)
    for fam, n in zip(families, counts):
        if n.any():
            v = q * fam.log_probs + t * fam.log_ratios
            ls = logsumexp(v)
            g += n * ls
            dg += n * (np.exp(v - ls[..., None]) * fam.log_ratios).sum(axis=-1)
    return g, dg


def log_partition_moment(spec: MoranSpec, q: float, t: float, k: int) -> float:
    """
    log of S_k(q, t) = sum over generation-k cells of mass^q length^t,
    computed in the factorized form prod_i (sum_j p_ij^q c_ij^t) without
    enumerating cells (``log_partition`` at one generation).
    """
    return float(log_partition(family_rows(spec), q, t, family_generation_counts(spec, k))[0][0])


# ---------------------------------------------------------------------------
# Moment tables
# ---------------------------------------------------------------------------

@dataclass
class MomentTable:
    """Sampled (q, r) moment sums of one kind; rows q-major, scales decreasing."""

    kind: MomentKind
    q_grid: np.ndarray
    scales: np.ndarray
    values: np.ndarray  # shape (len(q_grid), len(scales))
    flags: np.ndarray = field(default=None)  # bool, heuristic entries

    def __post_init__(self):
        self.q_grid = np.asarray(self.q_grid, dtype=float)
        self.scales = np.asarray(self.scales, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.flags is None:
            self.flags = np.zeros(self.values.shape, dtype=bool)

    def check_invariants(self) -> list[str]:
        problems = []
        if not np.all(np.diff(self.scales) < 0):
            problems.append("scales not strictly decreasing")
        if not (np.all(self.scales > 0) and np.all(self.scales <= 1)):
            problems.append("scales outside (0, 1]")
        if self.kind is MomentKind.PARTITION_MOMENT and not np.all(self.values > 0):
            problems.append("partition moments must be positive")
        if self.kind in (MomentKind.COVERING_COUNT, MomentKind.PACKING_COUNT):
            if not np.all(self.values >= 1) or not np.allclose(self.values, np.round(self.values)):
                problems.append("counts must be positive integers")
        return problems

    def rows_csv(self):
        for i, q in enumerate(self.q_grid):
            for j, r in enumerate(self.scales):
                flag = "heuristic" if self.flags[i, j] else ""
                yield (self.kind.value, fmt(q), fmt(r), fmt(self.values[i, j]), flag)


def partition_moment_table(spec: MoranSpec, q_grid, ks) -> MomentTable:
    """
    Partition moments S_k(q, 0) indexed by the max cell length at each k. A
    moment past the double range is written as inf, never as a clamped
    finite number.
    """
    ks = sorted(int(k) for k in ks)
    q_grid = np.asarray(q_grid, dtype=float)
    log_s, _ = log_partition(family_rows(spec), q_grid[:, None], 0.0, family_generation_counts(spec, ks))
    with np.errstate(over="ignore"):
        vals = np.exp(log_s)
    scales = [max_length_at(spec, k) for k in ks]
    return MomentTable(MomentKind.PARTITION_MOMENT, q_grid, np.asarray(scales), vals)


def counting_moment_table(spec: MoranSpec, q_grid, r_list: Sequence[float]) -> tuple[MomentTable, ...]:
    """
    Covering count, packing count, covering moment and packing moment tables,
    in that order. Each scale's moments are sums over one fixed q-independent
    center set (the q = 0 greedy over cell endpoints), so each column is
    evaluated on one packing/cover and the rows are exactly monotone in q.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    r_list = sorted(set(float(r) for r in r_list), reverse=True)
    shape = (q_grid.size, len(r_list))
    cover_n, pack_n, cover_m, pack_m = (np.empty(shape) for _ in range(4))
    for j, r in enumerate(r_list):
        table = ball_table(spec, r)
        cover_n[:, j], pack_n[:, j] = table.cover.size, table.packing.size
        # one scalar q per call: numpy rounds q = -1, 0.5, 2 powers unlike a (q x centers) one
        cover_m[:, j] = [covering_moment(table, q) for q in q_grid]
        pack_m[:, j] = [packing_moment(table, q) for q in q_grid]
        del table  # release this scale's table before the next, finer one is built
    scales = np.asarray(r_list)
    flags = np.broadcast_to((q_grid < 0)[:, None], shape)  # q < 0 ball moments are heuristic
    return (
        MomentTable(MomentKind.COVERING_COUNT, q_grid, scales, cover_n),
        MomentTable(MomentKind.PACKING_COUNT, q_grid, scales, pack_n),
        MomentTable(MomentKind.COVERING_MOMENT, q_grid, scales, cover_m, flags),
        MomentTable(MomentKind.PACKING_MOMENT, q_grid, scales, pack_m, flags),
    )
