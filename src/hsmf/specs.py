"""
Moran interval measures with per-generation probability and contraction families.

A measure spec consists of

* generation families: a probability vector ``probs`` (child masses, summing
  to 1) and a contraction vector ``ratios`` (child lengths as fractions of the
  parent, each in (0, 1), summing to at most 1), both of the same arity n >= 2;
* a schedule assigning one family to every generation 1..depth_cap
  (constant, periodic, or block-switched at a strictly increasing boundary
  sequence starting at 1);
* a gap policy fixing the geometric realization on [0, 1]: children are laid
  out left to right, either abutting (``no_gaps``, requires ratio sums == 1,
  support is all of [0, 1]) or separated by equal gaps (``equal_gaps``,
  requires ratio sums < 1, which yields strictly positive sibling separation
  proportional to the parent length);
* ``depth_cap``: the working depth for all finite computations.

Addresses are 1-based tuples ``(i_1, ..., i_k)``, one child index per
generation. Interval masses are products of child probabilities along the
address; lengths are products of ratios. Deep products are accumulated in log
space where underflow matters.

Each spec carries one child table (``MoranSpec.child_table``): per family, the
children's left offsets, ratios and log probabilities, which ``ball_mass``,
``ball_masses`` and ``cells`` all read. It is built on first use from the
spec's own fields; building it is deterministic and idempotent (a concurrent
second build yields the same floats), so specs still behave as immutable
values. Every function here is pure given its inputs (plus an explicit seed
for sampling) and safe to call concurrently, with one caveat before Python
3.12: numpy loads on its first use (``hsmf._np``), and that load is not
thread-safe, so the first numpy use must not race. Importing numpy before
``hsmf`` avoids the issue.

``ball_mass`` is a depth-first search over the cells meeting a window. Its
optional ``start`` argument begins the search at the window's anchor: the
first node, from the root down, that is inside the window, has zero or
several children meeting it, or is at the truncation depth. The nodes above
it add nothing, so the result is the same to the bit. ``ball_masses``
resolves a column of centers in one numpy descent, at most ``BALL_CHUNK``
centers at a time so that its working set stays bounded: it keeps only the
nodes that straddle a window edge, and sums each center's terms in the
search's order, so each mass equals the search's to the bit. Only a center
whose search is still straddling a window edge at the truncation depth goes
to ``ball_mass``, from its anchor: that search alone applies the midpoint
rule and returns the truncation error.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Union

from ._np import np
from .errors import ParameterOutOfRange, ScaleTooSmall, SpecValidationError, TooDeep, Violation

PROB_TOL = 1e-12
MAX_GENERATION = 1 << 53  # largest depth_cap and block boundary: a double holds each one exactly
# Hard cap for exhaustive cell enumeration (counts, coarse histograms, oracles).
MAX_ENUM_CELLS = 1 << 21
# Centers per numpy descent in ball_masses; bounds the working set of a column.
BALL_CHUNK = 4096


class GapPolicy(str, Enum):
    EQUAL_GAPS = "equal_gaps"
    NO_GAPS = "no_gaps"


@dataclass(frozen=True)
class GenerationFamily:
    """One generation's child masses and contraction ratios."""

    probs: tuple[float, ...]
    ratios: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        object.__setattr__(self, "ratios", tuple(float(c) for c in self.ratios))

    @property
    def arity(self) -> int:
        return len(self.probs)

    @property
    def ratio_sum(self) -> float:
        return float(math.fsum(self.ratios))

    @property
    def constant_ratio(self) -> bool:
        """True when every child contracts by the same factor."""
        return all(c == self.ratios[0] for c in self.ratios)

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)

    def as_dict(self) -> dict:
        return {"probs": list(self.probs), "ratios": list(self.ratios)}


@dataclass(frozen=True)
class ConstantSchedule:
    """Every generation uses the same family."""

    family: int

    @property
    def period(self) -> int:
        return 1

    @property
    def referenced(self) -> tuple[int, ...]:
        return (self.family,)

    def family_index(self, generation: int) -> int:
        return self.family

    def as_dict(self) -> dict:
        return {"type": "constant", "family": self.family}


@dataclass(frozen=True)
class PeriodicSchedule:
    """Generations cycle through ``pattern`` (generation 1 uses pattern[0])."""

    pattern: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "pattern", tuple(int(i) for i in self.pattern))

    @property
    def period(self) -> int:
        return len(self.pattern)

    @property
    def referenced(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.pattern)))

    def family_index(self, generation: int) -> int:
        return self.pattern[(generation - 1) % len(self.pattern)]

    def as_dict(self) -> dict:
        return {"type": "periodic", "pattern": list(self.pattern)}


@dataclass(frozen=True)
class BlockSchedule:
    """
    Block-switched schedule: generations in [boundaries[j], boundaries[j+1])
    use families[j]; the final block extends to the depth cap.

    boundaries must be strictly increasing with boundaries[0] == 1, one family
    index per block.
    """

    boundaries: tuple[int, ...]
    families: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "boundaries", tuple(int(t) for t in self.boundaries))
        object.__setattr__(self, "families", tuple(int(i) for i in self.families))

    @property
    def period(self) -> None:
        return None

    @property
    def referenced(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.families)))

    @property
    def boundary_ratios(self) -> tuple[float, ...]:
        b = self.boundaries
        return tuple(b[j + 1] / b[j] for j in range(len(b) - 1))

    def family_index(self, generation: int) -> int:
        j = bisect_right(self.boundaries, generation) - 1
        return self.families[j]

    def as_dict(self) -> dict:
        return {
            "type": "blocks",
            "boundaries": list(self.boundaries),
            "families": list(self.families),
        }


Schedule = Union[ConstantSchedule, PeriodicSchedule, BlockSchedule]


@dataclass(frozen=True)
class MoranSpec:
    """Immutable generative description of a Moran measure on [0, 1]."""

    families: tuple[GenerationFamily, ...]
    schedule: Schedule
    gap_policy: GapPolicy
    depth_cap: int

    def __post_init__(self):
        fams = tuple(
            f if isinstance(f, GenerationFamily) else GenerationFamily(**f)
            for f in self.families
        )
        object.__setattr__(self, "families", fams)
        object.__setattr__(self, "gap_policy", GapPolicy(self.gap_policy))
        object.__setattr__(self, "depth_cap", int(self.depth_cap))

    def family_at(self, generation: int) -> GenerationFamily:
        return self.families[self.schedule.family_index(generation)]

    def family_gap(self, family: GenerationFamily) -> float:
        """Sibling gap in parent-length units (0 under NoGaps)."""
        if self.gap_policy is GapPolicy.NO_GAPS:
            return 0.0
        return (1.0 - family.ratio_sum) / (family.arity - 1)

    @cached_property
    def child_table(self) -> tuple[tuple[tuple[float, float, float], ...], ...]:
        """
        Per family, one ``(left offset, ratio, log p)`` row per child, left to
        right, in parent-length units: under equal gaps the first child starts
        at 0 and the last child ends at 1. Built on first use, never changed.
        """
        table = []
        for fam in self.families:
            gap = self.family_gap(fam)
            rows = []
            pos = 0.0
            for c, p in zip(fam.ratios, fam.probs):
                rows.append((pos, c, math.log(p)))
                pos += c + gap
            table.append(tuple(rows))
        return tuple(table)

    def as_dict(self) -> dict:
        return {
            "families": [f.as_dict() for f in self.families],
            "schedule": self.schedule.as_dict(),
            "gap_policy": self.gap_policy.value,
            "depth_cap": self.depth_cap,
        }


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def check_spec(spec: MoranSpec) -> list[Violation]:
    """Check every spec invariant; return the (possibly empty) violation list."""
    out: list[Violation] = []
    for i, fam in enumerate(spec.families):
        where = f"families[{i}]"
        if len(fam.probs) != len(fam.ratios):
            out.append(
                Violation(
                    "RatioOutOfRange",
                    where,
                    f"probs and ratios lengths differ ({len(fam.probs)} vs {len(fam.ratios)})",
                )
            )
            continue
        if fam.arity < 2:
            out.append(Violation("NonProbabilityVector", where, "family arity must be >= 2"))
            continue
        if not all(map(math.isfinite, fam.probs)):
            out.append(Violation("NonProbabilityVector", f"{where}.probs", "entries must be finite"))
        elif any(p <= 0.0 for p in fam.probs):
            out.append(Violation("NonProbabilityVector", f"{where}.probs", "entries must be > 0"))
        elif abs(math.fsum(fam.probs) - 1.0) > PROB_TOL:
            out.append(
                Violation(
                    "NonProbabilityVector",
                    f"{where}.probs",
                    f"sum is {math.fsum(fam.probs)!r}, expected 1 within {PROB_TOL}",
                )
            )
        if any(not (0.0 < c < 1.0) for c in fam.ratios):
            out.append(Violation("RatioOutOfRange", f"{where}.ratios", "entries must lie in (0, 1)"))
        elif fam.ratio_sum > 1.0 + PROB_TOL:
            out.append(
                Violation("RatioOutOfRange", f"{where}.ratios", f"sum {fam.ratio_sum!r} exceeds 1")
            )
        else:
            if spec.gap_policy is GapPolicy.NO_GAPS and abs(fam.ratio_sum - 1.0) > PROB_TOL:
                out.append(
                    Violation(
                        "GapPolicyMismatch",
                        f"{where}.ratios",
                        f"no_gaps requires ratio sum 1, got {fam.ratio_sum!r}",
                    )
                )
            if spec.gap_policy is GapPolicy.EQUAL_GAPS and fam.ratio_sum >= 1.0 - PROB_TOL:
                out.append(
                    Violation(
                        "GapPolicyMismatch",
                        f"{where}.ratios",
                        f"equal_gaps requires ratio sum < 1, got {fam.ratio_sum!r}",
                    )
                )

    sched = spec.schedule
    n_fam = len(spec.families)
    if spec.depth_cap < 1:
        out.append(Violation("BadSchedule", "depth_cap", "must be a positive integer"))
    elif spec.depth_cap > MAX_GENERATION:
        out.append(Violation("BadSchedule", "depth_cap", "must be at most 2**53"))
    if isinstance(sched, BlockSchedule):
        b = sched.boundaries
        if not b or b[0] != 1:
            out.append(Violation("BadSchedule", "schedule.boundaries", "must start at 1"))
        if any(b[j + 1] <= b[j] for j in range(len(b) - 1)):
            out.append(Violation("BadSchedule", "schedule.boundaries", "must be strictly increasing"))
        if any(t > MAX_GENERATION for t in b):
            out.append(Violation("BadSchedule", "schedule.boundaries", "must be at most 2**53"))
        if len(sched.families) != len(b):
            out.append(
                Violation(
                    "BadSchedule",
                    "schedule.families",
                    "need exactly one family index per block",
                )
            )
    if isinstance(sched, PeriodicSchedule) and sched.period == 0:
        out.append(Violation("BadSchedule", "schedule.pattern", "must be non-empty"))
    for idx in sched.referenced:
        if not (0 <= idx < n_fam):
            out.append(
                Violation("BadSchedule", "schedule", f"family index {idx} out of range (have {n_fam})")
            )
    return out


def validate_spec(spec: MoranSpec) -> MoranSpec:
    """Return the spec unchanged if valid, else raise SpecValidationError."""
    violations = check_spec(spec)
    if violations:
        raise SpecValidationError(violations)
    return spec


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

class FamilyRows(NamedTuple):
    """One family's log child masses and log contraction ratios: (arity,)
    rows for one spec, or rows stacked over leading axes, one spec each."""

    log_probs: np.ndarray
    log_ratios: np.ndarray


def family_rows(spec: MoranSpec) -> tuple[FamilyRows, ...]:
    """Each family's rows, the one form in which the kernels read a family."""
    return tuple(FamilyRows(*(np.log(np.asarray(v, dtype=float)) for v in (f.probs, f.ratios)))
                 for f in spec.families)


def ball_mass(spec: MoranSpec, x: float, r: float, depth: int, start=None) -> tuple[float, float]:
    """
    Evaluate mu(B(x, r)) by tree descent truncated at ``depth``.

    The window [x - r, x + r] is clamped to [0, 1]. Subtrees fully inside the
    window contribute their whole mass; generation-``depth`` cells that only
    partly overlap are included iff their midpoint lies in the window, and
    their total mass is returned as a rigorous two-sided error bound (the true
    value lies in [mass - error, mass + error]). Zero-length overlaps are
    ignored: the measures here are atomless.

    The traversal is a depth-first search from a stack that pops the
    rightmost child first. Its visiting order fixes the summation order of
    ``mass`` and ``error``, so that order must not change if results are to
    stay bit-identical.

    ``start`` is the node the search starts from: ``None`` for the root, or a
    ``(generation, left, length, log_mass)`` tuple. A node other than the root
    must be the window's anchor or a node above it: it is reached from the
    root through nodes that are not inside the window and have exactly one
    child meeting it, and its floats come from the same operations the search
    uses (``left + offset * length``, ``ratio * length``, ``logm + logp``).
    Those skipped nodes add nothing to ``mass`` or ``error``, so the result is
    the root-started one to the bit. ``ball_masses`` calls this search, from
    the anchor, only for the centers whose search is truncated: it is the one
    place that applies the midpoint rule.
    """
    if depth > spec.depth_cap:
        raise TooDeep(f"depth {depth} exceeds depth_cap {spec.depth_cap}")
    return _search(spec, x, r, depth, start)


def _search(spec: MoranSpec, x: float, r: float, depth: int, start) -> tuple[float, float]:
    """``ball_mass`` without the depth check."""
    lo = max(0.0, x - r)
    hi = min(1.0, x + r)
    if hi <= lo:
        return 0.0, 0.0
    table = spec.child_table
    family_index = spec.schedule.family_index
    mass = 0.0
    error = 0.0
    # stack entries: (generation of the node, left, length, log_mass); only
    # children that overlap the window are pushed (the root always does)
    stack = [(0, 0.0, 1.0, 0.0) if start is None else start]
    push = stack.append
    while stack:
        g, left, length, logm = stack.pop()
        right = left + length
        if lo <= left and right <= hi:
            mass += math.exp(logm)
            continue
        if g >= depth:
            mid = left + 0.5 * length
            m = math.exp(logm)
            if lo <= mid <= hi:
                mass += m
            error += m
            continue
        g += 1
        for offset, ratio, logp in table[family_index(g)]:
            child_left = left + offset * length
            child_length = ratio * length
            if child_left < hi and child_left + child_length > lo:
                push((g, child_left, child_length, logm + logp))
    return mass, error


# Roles of a straddling node in the ball_masses descent: on the path from the
# root to the anchor, on the hi or lo chain below it, or tangled (any other
# straddling node, which only rounding below the ulp makes).
_PATH, _HI, _LO, _TANGLED = 0, 1, 2, 3


def ball_masses(spec: MoranSpec, xs, r: float, depth: int) -> np.ndarray:
    """
    ``ball_mass(spec, x, r, depth)[0]`` for every center in ``xs``, equal to
    the root-started search to the bit.

    The centers descend in chunks of at most ``BALL_CHUNK``, one generation
    per step in numpy, with the search's own float operations (``left +
    offset * length``, ``ratio * length``, ``logm + logp``). A step keeps
    only the nodes that straddle a window edge, that is, meet the window
    without lying inside it, and records each child inside the window as a
    term. Down to the window's anchor (see ``ball_mass``) a center has one
    straddling node per generation; below it at most two, a hi chain from
    the anchor's rightmost child meeting the window and a lo chain from its
    leftmost.

    A mass is the sum, from 0.0, of ``math.exp`` of the center's terms in
    the search's order: hi-chain terms, deepest generation first; then the
    anchor's children; then lo-chain terms, shallowest generation first;
    right to left inside one generation. The order comes from that
    structure, never from left endpoints, which tie once cells are shorter
    than their ulp. ``math.exp`` runs through ``map``, not numpy's SIMD
    ``exp``, and ``np.add.at`` adds the terms one at a time, not with a
    pairwise sum, so the kernel uses only IEEE ``+``, ``*``, comparisons and
    ``math.exp``: its bytes do not depend on numpy's CPU dispatch target.

    A center whose search still straddles a window edge at generation
    ``depth`` is truncated: it goes to ``ball_mass`` from its anchor, once
    and in order, and no other center does. Rounding can make siblings
    overlap, so a center's straddling nodes can leave the two-chain shape
    below the ulp; such a center, when not truncated, is finished by the same
    search without the call.
    """
    if depth > spec.depth_cap:
        raise TooDeep(f"depth {depth} exceeds depth_cap {spec.depth_cap}")
    xs = np.asarray(xs, dtype=float)
    out = np.empty(xs.size)
    for s in range(0, xs.size, BALL_CHUNK):
        x = xs[s:s + BALL_CHUNK]
        out[s:s + x.size] = _chunk_masses(spec, x, r, depth)
    return out


def _chunk_masses(spec: MoranSpec, x: np.ndarray, r: float, depth: int) -> np.ndarray:
    """``ball_masses`` of one chunk; every array here is freed with it."""
    family_index = spec.schedule.family_index
    # per family, the child table's columns, rightmost child first, so that
    # a row-major scan of a step's (child, node) arrays runs right to left
    columns = [tuple(np.array(col[::-1]) for col in zip(*rows)) for rows in spec.child_table]
    # the role of a straddling child, by [parent role, whether a child right
    # of it meets the window, whether one left of it does]
    next_role = np.array([[_PATH, _HI, _LO, _TANGLED], [_HI, _HI, _TANGLED, _TANGLED],
                          [_LO, _TANGLED, _LO, _TANGLED], [_TANGLED] * 4]).ravel()
    # fmax/fmin clamp a NaN edge as the search's max/min do
    lo = np.fmax(x - r, 0.0)
    hi = np.fmin(x + r, 1.0)
    mass = np.zeros(x.size)
    whole = (lo <= 0.0) & (1.0 <= hi)  # the root is inside the window
    mass[whole] = 1.0
    # the frontier: one entry per straddling node, with its center and role
    c = np.flatnonzero((lo < hi) & ~whole)
    left, length, logm = np.zeros(c.size), np.ones(c.size), np.zeros(c.size)
    role = np.zeros(c.size, dtype=np.intp)
    truncated = np.zeros(x.size, dtype=bool)
    tangled = np.zeros(x.size, dtype=bool)
    # (generation, centers, left, length, log mass) of the anchors found
    anchors = []
    # per role, one (centers, exp(log masses)) pair per generation, right to left
    terms = ([], [], [])
    g = 0
    while c.size and g < depth:
        g += 1
        offset, ratio, logp = columns[family_index(g)]
        a, b = lo[c], hi[c]
        child_left = offset[:, None] * length
        child_left += left
        child_right = ratio[:, None] * length
        child_right += child_left
        meets = child_left < b
        meets &= child_right > a
        inside = a <= child_left
        inside &= child_right <= b
        inside &= meets
        del a, b, child_left, child_right  # the step's largest arrays
        # seen[j]: a child right of row j meets the window; beyond[j]: a
        # child left of it does
        seen, beyond = np.zeros_like(meets), np.zeros_like(meets)
        for j in range(1, meets.shape[0]):
            seen[j] = seen[j - 1] | meets[j - 1]
            beyond[-1 - j] = beyond[-j] | meets[-j]
        anchored = (role == _PATH) & (meets.sum(axis=0) > 1)
        if anchored.any():
            anchors.append((g - 1, c[anchored], left[anchored], length[anchored], logm[anchored]))
        f = np.flatnonzero(inside)  # flat (row, node) indices, right to left
        if f.size:
            row, k = np.divmod(f, c.size)
            vals = np.fromiter(map(math.exp, memoryview(logm[k] + logp[row])), float, f.size)
            parent = role[k]
            for kind, pairs in enumerate(terms):
                sel = parent == kind
                pairs.append((c[k[sel]], vals[sel]))
        inside ^= meets  # now the straddling children
        f = np.flatnonzero(inside)
        row, k = np.divmod(f, c.size)
        role = next_role[4 * role[k] + 2 * seen.ravel()[f] + beyond.ravel()[f]]
        c, length = c[k], length[k]
        left, logm = left[k] + offset[row] * length, logm[k] + logp[row]
        length *= ratio[row]
        tangled[c[role == _TANGLED]] = True
    if c.size:  # straddling nodes at generation depth
        truncated[c] = True
        path = role == _PATH
        anchors.append((g, c[path], left[path], length[path], logm[path]))
    for idx, vals in reversed(terms[_HI]):
        np.add.at(mass, idx, vals)
    for idx, vals in terms[_PATH] + terms[_LO]:
        np.add.at(mass, idx, vals)
    del terms, c, left, length, logm, role  # before the anchor table
    calls = np.flatnonzero(truncated | tangled)
    if calls.size:
        start = np.empty((x.size, 4))  # a row per center: its anchor
        for ag, ac, *node in anchors:
            start[ac] = np.column_stack((np.full(ac.size, ag), *node))
        for i in calls.tolist():
            ag, al, an, am = start[i].tolist()
            anchor = (int(ag), al, an, am)
            if truncated[i]:
                mass[i] = ball_mass(spec, float(x[i]), r, depth, anchor)[0]
            else:
                mass[i] = _search(spec, float(x[i]), r, depth, anchor)[0]
    return mass


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _tilt_weights(rows: FamilyRows, q: float, t: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # NaN weights unless max(q log p + t log c) is finite
        logw = q * rows.log_probs + t * rows.log_ratios
        w = np.exp(logw - logw.max())
        return w / w.sum()


def sample_paths(spec: MoranSpec, q: float, t: float, depth: int, n: int, seed: int):
    """
    Draw ``n`` tilted addresses of length ``depth``: at generation j, child i
    is chosen with probability p_ji^q c_ji^t / sum_m p_jm^q c_jm^t. The draw
    is deterministic given ``seed``. (q, t) = (1, 0) samples from the measure
    itself; (0, 0) picks children uniformly.

    Returns a 1-based (n, depth) array of child indices and per-path
    log_mass and log_length arrays. The paths are stored in the narrowest
    signed integer dtype that holds the spec's largest arity (int8 up to
    arity 127), so ``tolist()`` still gives Python ints. Raises
    ParameterOutOfRange at the first generation whose weights are not finite.
    """
    if depth > spec.depth_cap:
        raise TooDeep(f"depth {depth} exceeds depth_cap {spec.depth_cap}")
    rng = np.random.default_rng(seed)
    # a signed type that holds -(arity + 1) also holds arity
    dtype = np.min_scalar_type(-max(fam.arity for fam in spec.families) - 1)
    paths = np.empty((n, depth), dtype=dtype)
    log_mass = np.zeros(n)
    log_len = np.zeros(n)
    rows = family_rows(spec)
    weights = [_tilt_weights(fam, q, t) for fam in rows]
    for g in range(1, depth + 1):
        f = spec.schedule.family_index(g)
        cum = np.cumsum(weights[f])
        if not math.isfinite(cum[-1]):
            raise ParameterOutOfRange(f"tilted weights at q={q!r}, t={t!r} are not finite at generation {g}")
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(n), side="right")
        paths[:, g - 1] = idx + 1
        log_mass += rows[f].log_probs[idx]
        log_len += rows[f].log_ratios[idx]
    return paths, log_mass, log_len


# ---------------------------------------------------------------------------
# Enumeration and scale matching
# ---------------------------------------------------------------------------

def _num_cells(spec: MoranSpec, k: int) -> int:
    n = 1
    for g in range(1, k + 1):
        n *= spec.family_at(g).arity
        if n > MAX_ENUM_CELLS:
            return n
    return n


def cells(spec: MoranSpec, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    All generation-k cells as ``(lefts, lengths, masses)`` arrays in
    left-to-right order. Exhaustive: guarded by MAX_ENUM_CELLS.
    """
    if k > spec.depth_cap:
        raise TooDeep(f"generation {k} exceeds depth_cap {spec.depth_cap}")
    if _num_cells(spec, k) > MAX_ENUM_CELLS:
        raise TooDeep(f"generation {k} has more than {MAX_ENUM_CELLS} cells")
    lefts = np.zeros(1)
    lengths = np.ones(1)
    masses = np.ones(1)
    for g in range(1, k + 1):
        f = spec.schedule.family_index(g)
        off, ratios, _ = np.array(spec.child_table[f]).T
        probs = np.asarray(spec.families[f].probs, dtype=float)
        lefts = (lefts[:, None] + lengths[:, None] * off[None, :]).ravel()
        masses = (masses[:, None] * probs[None, :]).ravel()
        lengths = (lengths[:, None] * ratios[None, :]).ravel()
    return lefts, lengths, masses


def max_length_at(spec: MoranSpec, k: int) -> float:
    out = 1.0
    for g in range(1, k + 1):
        out *= spec.family_at(g).max_ratio
    return out


def matched_generation(spec: MoranSpec, r: float) -> int:
    """
    Smallest generation whose largest cell is no longer than ``r`` (0 when
    r >= 1). Raises ScaleTooSmall when no generation within depth_cap is fine
    enough.
    """
    if r <= 0.0:
        raise ScaleTooSmall("radius must be positive")
    k = 0
    length = 1.0
    while length > r:
        k += 1
        if k > spec.depth_cap:
            raise ScaleTooSmall(f"radius {float(r)!r} is below generation {spec.depth_cap} resolution")
        length *= spec.family_at(k).max_ratio
    return k


def family_generation_counts(spec: MoranSpec, ks) -> np.ndarray:
    """
    Number of generations in 1..k assigned to each family, for every k in
    ``ks``; returns an (n_families, len(ks)) array. Closed-form per schedule,
    no per-generation scan.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=np.int64))
    n_fam = len(spec.families)
    out = np.zeros((n_fam, ks.size), dtype=np.int64)
    sched = spec.schedule
    if isinstance(sched, ConstantSchedule):
        out[sched.family] = ks
    elif isinstance(sched, PeriodicSchedule):
        pat = np.asarray(sched.pattern, dtype=np.int64)
        period = pat.size
        full, rem = np.divmod(ks, period)
        for f in range(n_fam):
            per_cycle = int(np.sum(pat == f))
            prefix = np.concatenate([[0], np.cumsum(pat == f)])
            out[f] = full * per_cycle + prefix[rem]
    else:
        b = list(sched.boundaries) + [np.iinfo(np.int64).max]
        for j, fam in enumerate(sched.families):
            inside = np.clip(np.minimum(ks, b[j + 1] - 1) - b[j] + 1, 0, None)
            out[fam] += inside
    return out


# ---------------------------------------------------------------------------
# JSON spec files
# ---------------------------------------------------------------------------

def _expect_keys(d, keys: tuple[str, ...], where: str) -> None:
    """``d`` must be a JSON object holding exactly ``keys``."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object, got {d!r}")
    unknown = set(d) - set(keys)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {where}")
    for key in keys:
        if key not in d:
            raise ValueError(f"missing key {key!r} in {where}")


def _int(v, where: str) -> int:
    """A JSON integer: no bool, no string, no float such as 4.0 or 4.7."""
    if type(v) is not int:
        raise ValueError(f"{where} must be an integer, got {v!r}")
    return v


def _number(v, where: str) -> float:
    """A finite JSON number: no bool, no string, no NaN, Infinity or 1e400."""
    if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
        raise ValueError(f"{where} must be a finite number, got {v!r}")
    return v


def _array(v, where: str, item) -> tuple:
    """A JSON array, each element read by ``item(element, where)``."""
    if not isinstance(v, list):
        raise ValueError(f"{where} must be a list, got {v!r}")
    return tuple(item(x, f"{where}[{i}]") for i, x in enumerate(v))


def schedule_from_dict(d: dict) -> Schedule:
    if not isinstance(d, dict) or "type" not in d:
        raise ValueError("schedule must be an object with a 'type' key")
    kind = d["type"]
    if kind == "constant":
        _expect_keys(d, ("type", "family"), "schedule")
        return ConstantSchedule(family=_int(d["family"], "schedule.family"))
    if kind == "periodic":
        _expect_keys(d, ("type", "pattern"), "schedule")
        return PeriodicSchedule(pattern=_array(d["pattern"], "schedule.pattern", _int))
    if kind == "blocks":
        _expect_keys(d, ("type", "boundaries", "families"), "schedule")
        return BlockSchedule(boundaries=_array(d["boundaries"], "schedule.boundaries", _int),
                             families=_array(d["families"], "schedule.families", _int))
    raise ValueError(f"unknown schedule type {kind!r}")


def _family_from_dict(d, where: str) -> GenerationFamily:
    _expect_keys(d, ("probs", "ratios"), where)
    return GenerationFamily(probs=_array(d["probs"], f"{where}.probs", _number),
                            ratios=_array(d["ratios"], f"{where}.ratios", _number))


def spec_from_dict(d: dict) -> MoranSpec:
    """
    Build a spec from parsed JSON. Unknown and missing keys are rejected at
    every level, and so is a value of the wrong JSON type: the dataclasses'
    own coercions (``int(4.7)``, ``float("0.5")``) serve Python callers only.
    """
    _expect_keys(d, ("families", "schedule", "gap_policy", "depth_cap"), "spec")
    return MoranSpec(
        families=_array(d["families"], "families", _family_from_dict),
        schedule=schedule_from_dict(d["schedule"]),
        gap_policy=GapPolicy(d["gap_policy"]),
        depth_cap=_int(d["depth_cap"], "depth_cap"),
    )


def load_spec(path) -> MoranSpec:
    """Read a spec file; a NaN or Infinity token is rejected like any non-finite number."""
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))
