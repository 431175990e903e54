"""
Acceptance-suite runners: one function per criterion, shared by the CLI
``verify`` command and the pytest acceptance module.

Each criterion is declared with ``@_criterion(cid, title, budget_s)`` and its
body only records checks. A result's ``details`` are deterministic JSON data (no
wall-clock values; runtimes stay on ``elapsed_s`` so artifact bytes stay
identical across runs with the same seed); its ``grid``, when set, becomes
``separators_c<cid>.csv``. The fixture measures here are also the tests' fixtures.

Fixture notes
-------------
The block-switched fixture uses boundary generations 4^(j(j-1)/2), whose
consecutive ratios grow 4, 16, 64, 256: the construction's distinct
liminf/limsup branches require block-length ratios growing without bound, and
a constant-ratio boundary sequence provably keeps the generation mixing
fraction inside [0.2, 0.8], which pins every beta_k at least 0.022 away from
the branch exponents at q = 2 (0.028 at q = -1, 0.078 at q = -2) no matter
how the envelope is sampled. The constant-ratio-4 variant is still measured
and reported in the details for reference.

The switching-binomial fixture uses boundaries (1, 64, 8192, 4^10), giving
mixing fractions within 0.008 of both endpoints, so both branch exponents
are approached within the stated 0.02.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field

from . import __version__
from ._np import np
from .oracles import (
    block_moran_bounds,
    brute_force_ball_moments,
    periodic_moran_beta,
    switching_alpha_interval,
    switching_binomial_tau,
    uniform_beta,
)
from .output import config_hash, csv_bytes, json_bytes, meta_line
from .scaling import (
    SeparatorGrid,
    separator_grid,
    separator_problems,
    slope_changes,
    solve_beta_stack,
    stack_by_shape,
)
from .spectrum import (
    alpha_bounds,
    coarse_spectrum,
    legendre_transform,
    mass_distribution,
    tilted_dimension_check,
)
from .specs import (
    BlockSchedule,
    ConstantSchedule,
    GapPolicy,
    GenerationFamily,
    MoranSpec,
    PeriodicSchedule,
    family_rows,
    max_length_at,
    validate_spec,
)
from .counting import ball_table, covering_moment, log_partition, packing_moment, sorted_distinct

K_DEEP = 4**10


# ---------------------------------------------------------------------------
# Fixture specs
# ---------------------------------------------------------------------------

def _spec(families, gap_policy, schedule=ConstantSchedule(0), depth_cap=4096) -> MoranSpec:
    """A validated fixture whose families are given as (probs, ratios) pairs.
    The one-family fixtures keep the constant schedule and depth cap."""
    return validate_spec(
        MoranSpec(
            families=tuple(GenerationFamily(probs, ratios) for probs, ratios in families),
            schedule=schedule,
            gap_policy=gap_policy,
            depth_cap=depth_cap,
        )
    )


def spec_uniform() -> MoranSpec:
    """Uniform dyadic measure on [0, 1]."""
    return _spec([((0.5, 0.5), (0.5, 0.5))], GapPolicy.NO_GAPS)


def spec_binomial() -> MoranSpec:
    """Dyadic binomial measure with child masses (1/4, 3/4)."""
    return _spec([((0.25, 0.75), (0.5, 0.5))], GapPolicy.NO_GAPS)


def spec_middle_thirds() -> MoranSpec:
    """Middle-thirds construction with equal child masses."""
    return _spec([((0.5, 0.5), (1 / 3, 1 / 3))], GapPolicy.EQUAL_GAPS)


# Each two-family closed form is bound to its fixture's constants once.
PERIODIC_P1 = (0.5, 0.5)
PERIODIC_R1 = 0.25
PERIODIC_P2 = (1 / 3, 1 / 3, 1 / 3)
PERIODIC_R2 = 0.125
periodic_beta = functools.partial(periodic_moran_beta, PERIODIC_P1, PERIODIC_R1, PERIODIC_P2, PERIODIC_R2)


def spec_periodic() -> MoranSpec:
    return _spec(
        families=[(PERIODIC_P1, (PERIODIC_R1,) * 2), (PERIODIC_P2, (PERIODIC_R2,) * 3)],
        gap_policy=GapPolicy.EQUAL_GAPS,
        schedule=PeriodicSchedule((0, 1)),
        depth_cap=8192,
    )


BLOCK_P1 = (0.25, 0.75)
BLOCK_R1 = 0.25
BLOCK_P2 = (1 / 3, 1 / 3, 1 / 3)
BLOCK_R2 = 1 / 9
BLOCK_BOUNDS_GROWING = (1, 4, 64, 4096, 1048576)       # ratios 4, 16, 64, 256
BLOCK_BOUNDS_CONSTANT = tuple(4**j for j in range(11))  # constant ratio 4
block_bounds = functools.partial(block_moran_bounds, BLOCK_P1, BLOCK_R1, BLOCK_P2, BLOCK_R2)


def spec_block(boundaries=BLOCK_BOUNDS_GROWING) -> MoranSpec:
    fams = tuple(j % 2 for j in range(len(boundaries)))
    return _spec(
        families=[(BLOCK_P1, (BLOCK_R1,) * 2), (BLOCK_P2, (BLOCK_R2,) * 3)],
        gap_policy=GapPolicy.EQUAL_GAPS,
        schedule=BlockSchedule(boundaries=boundaries, families=fams),
        depth_cap=1 << 21,
    )


SWITCHING_P = 0.2
SWITCHING_P_HAT = 0.4
SWITCHING_BOUNDS = (1, 64, 8192, 1048576)
switching_tau = functools.partial(switching_binomial_tau, SWITCHING_P, SWITCHING_P_HAT)


def spec_switching() -> MoranSpec:
    return _spec(
        families=[((p, 1 - p), (0.5, 0.5)) for p in (SWITCHING_P, SWITCHING_P_HAT)],
        gap_policy=GapPolicy.NO_GAPS,
        schedule=BlockSchedule(boundaries=SWITCHING_BOUNDS, families=(0, 1, 0, 1)),
        depth_cap=1 << 21,
    )


# ---------------------------------------------------------------------------
# Result plumbing
# ---------------------------------------------------------------------------

@dataclass
class CriterionResult:
    """One criterion's outcome. ``details`` holds JSON data only; a separator
    grid that becomes an artifact is kept on ``grid``."""

    cid: int
    title: str
    budget_s: float
    passed: bool = True
    elapsed_s: float = 0.0
    details: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    grid: SeparatorGrid | None = None

    def record(self, name: str, ok: bool, **info):
        if not ok:
            self.failures.append({"check": name, **info})
            self.passed = False

    def status_line(self) -> str:
        return (f"{'PASS' if self.passed else 'FAIL'} criterion {self.cid}: {self.title} "
                f"({self.elapsed_s:.2f}s / budget {self.budget_s:.0f}s)")


def _criterion(cid: int, title: str, budget_s: float):
    """Declare criterion ``cid``: ``criterion_N(seed=0, tol_scale=1.0)`` times
    ``body(res, seed, tol_scale)`` on a fresh passing result and returns it."""
    def declare(body):
        @functools.wraps(body)
        def run(seed: int = 0, tol_scale: float = 1.0) -> CriterionResult:
            res = CriterionResult(cid, title, budget_s)
            t0 = time.perf_counter()
            body(res, seed, tol_scale)
            res.elapsed_s = time.perf_counter() - t0
            return res

        return run

    return declare


def _random_spec(rng) -> MoranSpec:
    n_fam = int(rng.integers(1, 3))
    gap = GapPolicy.NO_GAPS if rng.random() < 0.5 else GapPolicy.EQUAL_GAPS
    fams = []
    for _ in range(n_fam):
        arity = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(arity) * 2.0)
        p = p / p.sum()
        raw = rng.dirichlet(np.ones(arity) * 2.0)
        if gap is GapPolicy.NO_GAPS:
            c = np.clip(raw / raw.sum(), 1e-4, 1 - 1e-9)
            c = c / c.sum()
        else:
            c = np.clip(raw * float(rng.uniform(0.3, 0.9)), 1e-4, 1 - 1e-9)
        fams.append((tuple(p), tuple(c)))
    kind = int(rng.integers(0, 3)) if n_fam > 1 else 0
    if kind == 0:
        sched = ConstantSchedule(0)
    elif kind == 1:
        length = int(rng.integers(2, 5))
        sched = PeriodicSchedule(tuple(int(rng.integers(0, n_fam)) for _ in range(length)))
    else:
        bounds = [1]
        while len(bounds) < 4:
            bounds.append(bounds[-1] + int(rng.integers(1, 30)))
        sched = BlockSchedule(tuple(bounds), tuple(int(rng.integers(0, n_fam)) for _ in bounds))
    return _spec(fams, gap, schedule=sched, depth_cap=256)


# ---------------------------------------------------------------------------
# Criteria 1..10
# ---------------------------------------------------------------------------

def _record_grid(res: CriterionResult, grid: SeparatorGrid) -> None:
    """Keep ``grid`` as the criterion's artifact and record its shape check."""
    problems = grid.check_invariants()
    res.record("grid invariants", not problems, problems=problems)
    res.grid = grid


def _envelope_error(grid: SeparatorGrid, target) -> float:
    """The largest |b - target| or |B - target| over the q of ``grid``."""
    return float(np.max(np.abs([grid.b - target, grid.B - target])))


@_criterion(1, "normalization root and residual bound", 5.0)
def criterion_1(res: CriterionResult, seed: int, tol_scale: float) -> None:
    """Normalization root: beta_k(1) = 0 and the solver residual bound, on
    200 random specs solved in one stack per family shape."""
    rng = np.random.default_rng(seed + 1)
    qs = np.arange(-3.0, 4.0)
    specs, ks = [], []
    for _ in range(200):
        specs.append(_random_spec(rng))
        ks.append(int(rng.integers(4, 97)))
    worst_b1 = 0.0
    worst_resid = 0.0
    # a max of non-negative values does not depend on the order of the specs
    for stack in stack_by_shape(specs, ks):
        betas = solve_beta_stack(stack, qs)
        resid, _ = log_partition(stack.families, qs, betas, stack.counts)
        for k, b, g in zip(stack.ks[:, 0].tolist(), betas, resid):
            worst_b1 = max(worst_b1, abs(float(b[qs == 1.0][0])))
            worst_resid = max(worst_resid, float(np.max(np.abs(g))) / k)
    res.record("beta_k(1) == 0", worst_b1 <= 1e-12 * tol_scale, worst=worst_b1)
    res.record("residual <= 1e-12 k", worst_resid <= 1e-12 * tol_scale, worst=worst_resid)
    res.details = {"worst_beta_at_1": worst_b1, "worst_residual_per_k": worst_resid, "specs": 200}


@_criterion(2, "uniform measure matches 1 - q", 1.0)
def criterion_2(res: CriterionResult, seed: int, tol_scale: float) -> None:
    """Uniform oracle: b = B = 1 - q to 1e-9."""
    qs = np.arange(-5.0, 5.0 + 0.25, 0.25)
    grid = separator_grid(spec_uniform(), qs, k_max=64)
    target = uniform_beta(qs)
    worst = _envelope_error(grid, target)
    res.record("max |estimate - (1-q)|", worst <= 1e-9 * tol_scale, worst=worst)
    _record_grid(res, grid)
    res.details = {"worst_abs_error": worst}


@_criterion(3, "periodic construction matches closed form", 1.0)
def criterion_3(res: CriterionResult, seed: int, tol_scale: float) -> None:
    """Alternating two-family construction matches its closed form to 1e-6."""
    qs = np.arange(-5.0, 5.0 + 0.25, 0.25)
    grid = separator_grid(spec_periodic(), qs, k_max=1000)
    target = np.array([periodic_beta(q) for q in qs])
    worst = _envelope_error(grid, target)
    gap = float(np.max(np.abs(grid.B - grid.b)))
    res.record("max |estimate - closed form|", worst <= 1e-6 * tol_scale, worst=worst)
    res.record("b == B (validating case)", gap <= 1e-9 * tol_scale, worst=gap)
    _record_grid(res, grid)
    res.details = {"worst_abs_error": worst, "max_b_B_gap": gap}


BLOCK_QS = (-2.0, -1.0, 0.25, 0.5, 0.75, 2.0)


def _branch_rows(res: CriterionResult, spec: MoranSpec, oracle, tol_scale: float) -> list[dict]:
    """Record the envelope of ``spec`` at each of BLOCK_QS within 0.02 of its
    (liminf, limsup) pair in ``oracle``; the per-q rows of the report."""
    grid = separator_grid(spec, BLOCK_QS, K_DEEP)
    per_q = []
    for q, b, B, (lo, hi) in zip(BLOCK_QS, grid.b.tolist(), grid.B.tolist(), oracle):
        lo_err, hi_err = abs(b - lo), abs(B - hi)
        per_q.append({"q": q, "oracle": [lo, hi], "estimate": [b, B], "errors": [lo_err, hi_err]})
        res.record(f"liminf error at q={q}", lo_err <= 0.02 * tol_scale, error=lo_err)
        res.record(f"limsup error at q={q}", hi_err <= 0.02 * tol_scale, error=hi_err)
    return per_q


@_criterion(4, "block construction liminf/limsup bounds", 10.0)
def criterion_4(res: CriterionResult, seed: int, tol_scale: float) -> None:
    """Block construction: envelope within 0.02 of the branch bounds; b < B."""
    per_q = _branch_rows(res, spec_block(), [block_bounds(q) for q in BLOCK_QS], tol_scale)
    b, B = per_q[BLOCK_QS.index(0.5)]["estimate"]
    res.record("strict gap b < B at q=0.5", b < B - 1e-6)

    # reference: the constant-ratio-4 boundary variant cannot reach the
    # branch exponents; record its envelope for the log, no assertion.
    const = separator_grid(spec_block(BLOCK_BOUNDS_CONSTANT), (-2.0, 0.5, 2.0), K_DEEP)
    const_ref = [
        {"q": float(q), "estimate": [float(b), float(B)]} for q, b, B in zip(const.q_grid, const.b, const.B)
    ]
    res.details = {"per_q": per_q, "constant_ratio_reference": const_ref}


@_criterion(5, "switching binomial branches and exponent interval", 30.0)
def criterion_5(res: CriterionResult, seed: int, tol_scale: float) -> None:
    """Switching binomial: branches within 0.02; admissible interval endpoints."""
    spec = spec_switching()
    per_q = _branch_rows(res, spec, [sorted(switching_tau(q)) for q in BLOCK_QS], tol_scale)
    qs = np.arange(-32.0, 32.0 + 0.5, 0.5)
    grid = separator_grid(spec, qs, K_DEEP)
    ab = alpha_bounds(grid)
    a_lo, a_hi = switching_alpha_interval(SWITCHING_P_HAT)
    for end, value, want in (("alpha_min", ab.alpha_min, a_lo), ("alpha_max", ab.alpha_max, a_hi)):
        res.record(f"{end} endpoint", abs(value - want) <= 0.02 * tol_scale, value=value, want=want)
    _record_grid(res, grid)
    res.details = {
        "per_q": per_q,
        "alpha_bounds": [ab.alpha_min, ab.alpha_max, ab.beta_min, ab.beta_max],
        "interval_oracle": [a_lo, a_hi],
    }


@_criterion(6, "structural invariants of grids and oracle curves", 30.0)
def criterion_6(res: CriterionResult, seed: int, tol_scale: float) -> None:
    """
    Shape check (``separator_problems``) on the block and switching grids at
    k_max 4^8 and on every closed form: the four limit exponents each as
    b = B, the block construction as (liminf, limsup). Criteria 2, 3 and 5
    check the grids they emit.
    """
    qs = np.arange(-5.0, 5.0 + 0.25, 0.25)
    for name, factory in (("block", spec_block), ("switching", spec_switching)):
        problems = separator_grid(factory(), qs, 4**8).check_invariants()
        res.record(f"grid invariants: {name}", not problems, problems=problems)
    qs = np.arange(-6.0, 6.0 + 0.25, 0.25)
    forms = {
        "uniform_beta": uniform_beta,
        "periodic_beta": periodic_beta,
        "switching_tau": lambda q: switching_tau(q)[0],
        "switching_tau_hat": lambda q: switching_tau(q)[1],
        "block_upper": lambda q: block_bounds(q)[1],
        "block_lower": lambda q: block_bounds(q)[0],
    }
    curves = {name: np.array([fn(float(q)) for q in qs]) for name, fn in forms.items()}
    not_finite = [name for name, values in curves.items() if not np.all(np.isfinite(values))]
    res.record("oracle curves finite", not not_finite, curves=not_finite)
    pairs = [(name, name) for name in ("uniform_beta", "periodic_beta", "switching_tau", "switching_tau_hat")]
    for lower, upper in [*pairs, ("block_lower", "block_upper")]:
        problems = separator_problems(qs, curves[lower], curves[upper])
        res.record(f"oracle curves: b = {lower}, B = {upper}", not problems, problems=problems)
    res.details = {"curves": list(curves)}


# specs and scales for the Legendre / coarse-spectrum gate
_SPECTRUM_CASES = (
    # name, spec factory, finest generation, k_max for separators, assert b* bound,
    # closed-form dimension D of a monofractal (None for the others)
    ("uniform", spec_uniform, 24, 256, True, lambda: uniform_beta(0.0)),
    ("binomial", spec_binomial, 24, 256, True, None),
    ("middle_thirds", spec_middle_thirds, 16, 256, True, lambda: math.log(2.0) / math.log(3.0)),
    ("periodic", spec_periodic, 24, 1000, True, lambda: periodic_beta(0.0)),
    ("block", spec_block, 24, K_DEEP, True, None),
    ("switching", spec_switching, 24, K_DEEP, False, None),
)


def _alpha_grid_for(spec: MoranSpec, k_fin: int) -> np.ndarray:
    """Alpha bins: a regular grid plus the pure-child exponents and the
    dominant cell exponent at the finest generation (so degenerate spectra
    get at least one genuinely comparable, non-boundary bin)."""
    base = np.round(np.arange(0.2, 2.4001, 0.05), 10)
    anchors = [lp / lc for rows in family_rows(spec) for lp, lc in zip(*rows)]
    dist = mass_distribution(spec, k_fin)
    dominant = float(dist.log_masses[int(np.argmax(dist.log_counts))])
    anchors.append(dominant / math.log(max_length_at(spec, k_fin)))
    return sorted_distinct(np.concatenate([base, np.asarray(anchors)]))


@_criterion(7, "legendre transform and coarse upper bounds", 60.0)
def criterion_7(res: CriterionResult, seed: int, tol_scale: float) -> None:
    """
    Legendre exactness, the shape of every transform and the coarse upper
    bounds. A monofractal's transform is unflagged only at its dimension D,
    where it equals D, so it records that point against the closed form; every
    other transform records concavity on the alpha grid plus the chord slopes
    of its curve, the kinks of the discrete transform.
    """
    qs = np.round(np.arange(-8.0, 8.0 + 0.25, 0.25), 10)
    case_details = []
    for name, factory, k_fin, k_max, assert_b, dimension in _SPECTRUM_CASES:
        spec = factory()
        grid = separator_grid(spec, qs, k_max)
        alpha = _alpha_grid_for(spec, k_fin)
        b_star, flag_b = legendre_transform(qs, grid.b, alpha)
        B_star, flag_B = legendre_transform(qs, grid.B, alpha)

        # brute-force oracle: same grid, plain loops, bitwise-identical floats
        oracle = np.array([min(a * q + phi for q, phi in zip(qs, grid.b)) for a in alpha])
        res.record(f"bitwise legendre oracle: {name}", bool(np.array_equal(b_star, oracle)))

        for label, phi, curve, flg in (("b*", grid.b, b_star, flag_b), ("B*", grid.B, B_star, flag_B)):
            if dimension is not None:
                av, vals = alpha[~flg], curve[~flg]
                worst = float(np.abs(np.concatenate([av, vals]) - dimension()).max()) if av.size else math.inf
                check, ok = f"{label} = D at alpha = D: {name}", worst <= 1e-12 * tol_scale
            else:
                av = sorted_distinct(np.concatenate([alpha, -np.diff(phi) / np.diff(qs)]))
                vals, fl = legendre_transform(qs, phi, av)
                av, vals = av[~fl], vals[~fl]
                second = slope_changes(av, vals)
                worst = float(second.max()) if second.size else math.inf
                check, ok = f"{label} concave: {name}", worst <= 1e-8
            res.record(check, ok, alphas=int(av.size), worst=worst)

        r = max_length_at(spec, k_fin)
        cs = coarse_spectrum(spec, [r], epsilon=0.05, alpha_grid=alpha)
        f = cs.f_hat[0]
        okB = ~np.isnan(f) & ~flag_B
        exB = float(np.max(f[okB] - B_star[okB])) if okB.any() else float("-inf")
        res.record(f"f_hat <= B* + 0.06: {name}", exB <= 0.06 * tol_scale, excess=exB)
        okb = ~np.isnan(f) & ~flag_b
        exb = float(np.max(f[okb] - b_star[okb])) if okb.any() else None
        if assert_b:
            res.record(
                f"f_hat <= b* + 0.06: {name}",
                exb is None or exb <= 0.06 * tol_scale,
                excess=exb,
            )
        case_details.append(
            {"name": name, "excess_b": exb, "excess_B": exB, "finest_generation": k_fin}
        )
    res.details = {"cases": case_details}


@_criterion(8, "binomial coarse spectrum peak and tails", 30.0)
def criterion_8(res: CriterionResult, seed: int, tol_scale: float) -> None:
    """
    Coarse spectrum of the quarter-weight binomial measure.

    The spectrum peak (height 1) sits at the uniform-tilt exponent
    -tau'(0) = (2 + log2(4/3)) / 2 = 1.20752. Exact bin counts at generation
    16 top out at 0.9106 (bin width 0.1), so the stated 0.05-of-1 peak check
    runs at the finest exact scale 2^-24 where the peak reaches 0.95316; the
    generation-16 histogram is still computed and cross-checked against the
    direct binomial-coefficient oracle.
    """
    spec = spec_binomial()
    alpha_peak = (2.0 + math.log2(4.0 / 3.0)) / 2.0
    alpha = np.round(np.arange(0.2, 2.4001, 0.05), 10)
    eps = 0.1
    details = {}
    for k in (16, 24):
        r = 2.0**-k
        cs = coarse_spectrum(spec, [r], epsilon=eps, alpha_grid=alpha)
        a_pk, f_pk = cs.peak(0)
        details[f"k{k}_peak"] = [a_pk, f_pk]
        # independent oracle: count cells directly from binomial coefficients
        log_r = math.log(r)
        heavy = math.log(0.75)
        light = math.log(0.25)
        oracle_ok = True
        for ai, a in enumerate(alpha):
            lo, hi = (a + eps) * log_r, (a - eps) * log_r
            total = 0.0
            for j in range(k + 1):
                lm = j * heavy + (k - j) * light
                if lo <= lm <= hi:
                    total += math.comb(k, j)
            got = math.exp(cs.log_counts[0, ai]) if np.isfinite(cs.log_counts[0, ai]) else 0.0
            if abs(got - total) > 1e-6 * max(1.0, total):
                oracle_ok = False
                res.record(f"count oracle k={k} alpha={a}", False, got=got, want=total)
        res.record(f"count oracle matched at k={k}", oracle_ok)
        # tails: bins outside the admissible band are empty
        outside = (alpha < 0.415037 - 0.1) | (alpha > 2.0 + 0.1)
        tails = cs.f_hat[0][outside]
        worst_tail = float(np.nanmax(tails)) if np.isfinite(tails).any() else float("-inf")
        res.record(f"tail f_hat <= 0.05 at k={k}", worst_tail <= 0.05 * tol_scale, worst=worst_tail)
        if k == 24:
            res.record("peak within 0.05 of 1", abs(1.0 - f_pk) <= 0.05 * tol_scale, peak=f_pk)
            res.record(
                "peak located at -tau'(0)",
                abs(a_pk - alpha_peak) <= eps,
                at=a_pk,
                want=alpha_peak,
            )
    res.details = details


@_criterion(9, "tilted sampling exponents", 30.0)
def criterion_9(res: CriterionResult, seed: int, tol_scale: float) -> None:
    """Tilted sampler recovers -beta'(q); uniform is exact with zero spread."""
    spec = spec_binomial()
    depth, n = 30, 10**4
    per_q = []
    for q in (0.0, 1.0, 2.0):
        tc = tilted_dimension_check(spec, q, depth, n, seed + 11)
        err = abs(tc.alpha_emp_mean - tc.alpha_hat_pred)
        per_q.append(asdict(tc))
        res.record(f"binomial tilt q={q}", err <= 0.02 * tol_scale, error=err)
    uni = spec_uniform()
    tc = tilted_dimension_check(uni, 2.0, depth, 2048, seed + 12)
    res.record("uniform tilt exact", tc.alpha_emp_mean == 1.0 and tc.alpha_emp_sd == 0.0)
    res.details = {"binomial": per_q, "uniform": asdict(tc)}


@_criterion(10, "greedy moments versus exact small-depth optima", 60.0)
def criterion_10(res: CriterionResult, seed: int, tol_scale: float) -> None:
    """Greedy ball moments stay inside the exact optima over the endpoint
    tables that ``moments`` builds, and equal them at q = 0."""
    rows = []
    for name, factory in (("uniform", spec_uniform), ("middle_thirds", spec_middle_thirds), ("binomial", spec_binomial)):
        spec = factory()
        base = max_length_at(spec, 12)
        for r in (base, 2.7 * base):
            table = ball_table(spec, r)
            for q in (-1.0, 0.0, 1.0, 2.0):
                bf = brute_force_ball_moments(table, q)
                g_cov, g_pak = covering_moment(table, q), packing_moment(table, q)
                tol = 1e-9 * max(1.0, abs(bf.covering), abs(bf.packing))
                res.record(f"cover >= optimum: {name} q={q} r={r:.3e}", g_cov >= bf.covering - tol,
                           greedy=g_cov, optimum=bf.covering)
                res.record(f"pack <= optimum: {name} q={q} r={r:.3e}", g_pak <= bf.packing + tol,
                           greedy=g_pak, optimum=bf.packing)
                if q == 0.0:  # the left-to-right sweeps are optimal within the class
                    res.record(f"cover == optimum at q=0: {name} r={r:.3e}", abs(g_cov - bf.covering) <= tol,
                               greedy=g_cov, optimum=bf.covering)
                    res.record(f"pack == optimum at q=0: {name} r={r:.3e}", abs(g_pak - bf.packing) <= tol,
                               greedy=g_pak, optimum=bf.packing)
                rows.append(
                    {"spec": name, "q": q, "r": r, "greedy_cover": g_cov,
                     "cover_opt": bf.covering, "greedy_pack": g_pak, "pack_opt": bf.packing}
                )
    res.details = {"rows": rows}


# ---------------------------------------------------------------------------
# Orchestration and artifacts
# ---------------------------------------------------------------------------

def run_criteria(seed: int = 0, tol_scale: float = 1.0) -> list[CriterionResult]:
    np.ndarray  # runs numpy's deferred import here, so that no criterion's time includes it
    # each criterion is looked up by its module-level name at call time, so a
    # wrapper installed over that name (a tracer) is the one that runs
    return [globals()[f"criterion_{cid}"](seed, tol_scale) for cid in range(1, 11)]


def build_artifacts(results: list[CriterionResult], seed: int, tol_scale: float) -> dict[str, bytes]:
    """Deterministic artifact bytes for a verify run (hash-compared by tests)."""
    cfg = config_hash({"seed": seed, "tol_scale": tol_scale, "version": __version__})
    meta = meta_line(__version__, cfg, seed)
    artifacts: dict[str, bytes] = {
        f"separators_c{r.cid}.csv": csv_bytes(r.grid.csv_columns, r.grid.rows_csv(), meta)
        for r in results
        if r.grid is not None
    }
    report = {
        "meta": {"version": __version__, "seed": seed, "tol_scale": tol_scale, "config": cfg},
        "criteria": [
            {
                "id": r.cid,
                "title": r.title,
                "passed": r.passed,
                "details": r.details,
                "failures": r.failures,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    artifacts["report.json"] = json_bytes(_sanitize(report))
    return artifacts


def _sanitize(obj):
    """Report data with each non-finite float written as "nan", "inf" or "-inf"."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def run_verify(seed: int = 0, tol_scale: float = 1.0):
    """Full verify pipeline: criterion results (each with its elapsed_s) and artifacts."""
    results = run_criteria(seed, tol_scale)
    return results, build_artifacts(results, seed, tol_scale)
