"""Closed-form reference curves and exact small-depth optima."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from hsmf import (
    ConstantSchedule,
    GapPolicy,
    GenerationFamily,
    MoranSpec,
    ParameterOutOfRange,
    block_moran_bounds,
    brute_force_ball_moments,
    covering_moment,
    packing_moment,
    periodic_moran_beta,
    switching_alpha_interval,
    switching_binomial_tau,
    uniform_beta,
    validate_spec,
)
from hsmf.oracles import midpoint_ball_masses
from hsmf.scaling import separator_problems
from hsmf.specs import max_length_at

FIXTURES = Path(__file__).parent / "fixtures"


def test_uniform_beta_values():
    assert uniform_beta(0.0) == 1.0
    assert uniform_beta(1.0) == 0.0
    assert uniform_beta(3.0) == -2.0


def test_periodic_beta_values():
    p1, r1 = (0.5, 0.5), 0.25
    p2, r2 = (1 / 3, 1 / 3, 1 / 3), 0.125
    assert periodic_moran_beta(p1, r1, p2, r2, 0.0) == pytest.approx(math.log2(6) / 5, abs=1e-12)
    assert periodic_moran_beta(p1, r1, p2, r2, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert periodic_moran_beta(p1, r1, p2, r2, 2.0) == pytest.approx(-math.log2(6) / 5, abs=1e-12)


def test_periodic_beta_parameter_domain():
    with pytest.raises(ParameterOutOfRange):
        periodic_moran_beta((0.5, 0.5), 0.6, (1 / 3, 1 / 3, 1 / 3), 0.125, 1.0)
    with pytest.raises(ParameterOutOfRange):
        periodic_moran_beta((0.5, 0.5), 0.25, (1 / 3, 1 / 3, 1 / 3), 0.4, 1.0)
    with pytest.raises(ParameterOutOfRange, match="^p1 must be a positive probability vector$"):
        periodic_moran_beta((0.5, 0.6), 0.25, (1 / 3, 1 / 3, 1 / 3), 0.125, 1.0)


def test_block_bounds_values():
    p1, r1 = (0.25, 0.75), 0.25
    p2, r2 = (1 / 3, 1 / 3, 1 / 3), 1 / 9
    # at q = 1/2 the liminf is family 1's exponent and the limsup family 2's
    liminf, limsup = block_moran_bounds(p1, r1, p2, r2, 0.5)
    want_lo = math.log(0.5 + math.sqrt(0.75)) / math.log(4.0)
    assert liminf == pytest.approx(want_lo, abs=1e-12)
    assert limsup == pytest.approx(0.25, abs=1e-12)
    assert block_moran_bounds(p1, r1, p2, r2, 1.0) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert block_moran_bounds(p1, r1, p2, r2, 0.0) == pytest.approx((0.5, 0.5), abs=1e-12)


def test_block_bounds_strict_gap_off_the_crossings():
    p1, r1 = (0.25, 0.75), 0.25
    p2, r2 = (1 / 3, 1 / 3, 1 / 3), 1 / 9
    for q in (-2.0, 0.5, 2.0):
        liminf, limsup = block_moran_bounds(p1, r1, p2, r2, q)
        assert liminf < limsup - 1e-6


def test_switching_tau_values():
    tau, tau_hat = switching_binomial_tau(0.2, 0.4, 0.5)
    assert tau == pytest.approx(math.log2(0.2**0.5 + 0.8**0.5), abs=1e-12)
    assert tau == pytest.approx(0.4240, abs=5e-4)
    assert tau_hat == pytest.approx(0.4927, abs=5e-4)
    t1, th1 = switching_binomial_tau(0.3, 0.45, 1.0)
    assert t1 == 0.0 and th1 == 0.0
    with pytest.raises(ParameterOutOfRange):
        switching_binomial_tau(0.4, 0.2, 1.0)


def test_switching_alpha_interval():
    lo, hi = switching_alpha_interval(0.4)
    assert lo == pytest.approx(-math.log2(0.6), abs=1e-12)
    assert hi == pytest.approx(-math.log2(0.4), abs=1e-12)
    assert (round(lo, 4), round(hi, 4)) == (0.7370, 1.3219)
    with pytest.raises(ParameterOutOfRange, match=r"^need 0 < p_hat <= 1/2$"):
        switching_alpha_interval(0.6)


def _block(q):
    return block_moran_bounds((0.25, 0.75), 0.25, (1 / 3,) * 3, 1 / 9, q)


def test_oracle_curves_satisfy_grid_invariants():
    """Each limit exponent as b = B, and the block construction as
    (liminf, limsup), passes the shape check the separator grids go through."""
    qs = np.arange(-6.0, 6.25, 0.25)

    def curve(fn):
        return np.array([fn(float(q)) for q in qs])

    limits = [
        uniform_beta,
        lambda q: periodic_moran_beta((0.5, 0.5), 0.25, (1 / 3,) * 3, 0.125, q),
        lambda q: switching_binomial_tau(0.2, 0.4, q)[0],
        lambda q: switching_binomial_tau(0.2, 0.4, q)[1],
    ]
    for fn in limits:
        values = curve(fn)
        assert np.all(np.isfinite(values))
        assert separator_problems(qs, values, values) == []
    liminf, limsup = curve(lambda q: _block(q)[0]), curve(lambda q: _block(q)[1])
    assert np.all(np.isfinite(liminf)) and np.all(np.isfinite(limsup))
    assert separator_problems(qs, liminf, limsup) == []


def test_block_lower_envelope_is_not_convex_at_crossing():
    """The block liminf is the min of two crossing convex branches, so it kinks
    concavely at q = 0 and fails the convexity asked of B."""
    qs = np.arange(-1.0, 1.25, 0.25)
    liminf = np.array([_block(float(q))[0] for q in qs])
    assert separator_problems(qs, liminf, liminf) == ["B not discretely convex"]


# ---------------------------------------------------------------------------
# CSV fixtures with provenance headers
# ---------------------------------------------------------------------------

def test_oracle_fixture_tables_match_closed_forms():
    path = FIXTURES / "oracle_curves.csv"
    with open(path, newline="") as fh:
        header = fh.readline()
        assert header.startswith("#") and "closed form" in header
        rows = list(csv.DictReader(fh))
    assert rows, "fixture table is empty"
    for row in rows:
        q = float(row["q"])
        got = float(row["value"])
        name = row["curve"]
        if name == "uniform_beta":
            want = uniform_beta(q)
        elif name == "periodic_beta":
            want = periodic_moran_beta((0.5, 0.5), 0.25, (1 / 3,) * 3, 0.125, q)
        elif name == "block_liminf":
            want = block_moran_bounds((0.25, 0.75), 0.25, (1 / 3,) * 3, 1 / 9, q)[0]
        elif name == "block_limsup":
            want = block_moran_bounds((0.25, 0.75), 0.25, (1 / 3,) * 3, 1 / 9, q)[1]
        elif name == "switching_tau":
            want = switching_binomial_tau(0.2, 0.4, q)[0]
        elif name == "switching_tau_hat":
            want = switching_binomial_tau(0.2, 0.4, q)[1]
        else:
            raise AssertionError(f"unknown curve {name}")
        assert got == pytest.approx(want, abs=1e-12), name


# ---------------------------------------------------------------------------
# brute force versus greedy
# ---------------------------------------------------------------------------

def test_brute_force_q0_reduces_to_counts(uniform_spec):
    r = 1 / 8
    bf = brute_force_ball_moments(midpoint_ball_masses(uniform_spec, r, 3), 0.0)
    # midpoint class at generation 3: 8 cells, all midpoints 1/8-separated
    assert bf.packing == 8
    assert bf.covering == 5


def test_brute_force_uniform_symmetry(uniform_spec):
    # aligned radius: all 2^k midpoints are r-separated and selectable; the
    # 2^k - 2 interior balls hold mass 2r, the two edge balls only 1.5r
    k = 6
    r = 2.0**-k
    bf = brute_force_ball_moments(midpoint_ball_masses(uniform_spec, r, k), 2.0)
    want = (2.0**k - 2) * (2.0 * r) ** 2 + 2 * (1.5 * r) ** 2
    assert bf.packing == pytest.approx(want, rel=1e-9)


def test_midpoint_table_caps(uniform_spec):
    from hsmf import TooDeep

    assert midpoint_ball_masses(uniform_spec, 2.0**-12, 12).points.size == 4096
    with pytest.raises(TooDeep, match="depth <= 12"):
        midpoint_ball_masses(uniform_spec, 2.0**-13, 13)
    ternary = validate_spec(MoranSpec((GenerationFamily((1 / 3,) * 3, (1 / 3,) * 3),),
                                      ConstantSchedule(0), GapPolicy.NO_GAPS, 64))
    with pytest.raises(TooDeep, match="capped at 8192 cells"):
        midpoint_ball_masses(ternary, 3.0**-9, 9)


@pytest.mark.parametrize("q", [-1.0, 0.5, 2.0])
def test_dp_optima_match_exhaustive_subsets(cantor_spec, binomial_spec, q):
    """Certify both dynamic programs against all-subset enumeration."""
    from itertools import combinations

    for spec in (cantor_spec, binomial_spec):
        depth = 3
        r = 1.4 * max_length_at(spec, depth)
        table = midpoint_ball_masses(spec, r, depth)
        bf = brute_force_ball_moments(table, q)
        mids, lefts, rights = table.points, table.lefts, table.rights
        w = table.ball_mass**q

        def covers(subset):
            # closed balls cover every piece of the depth-3 support
            segs = sorted((mids[i] - r, mids[i] + r) for i in subset)
            merged = []
            for a, b in segs:
                if merged and a <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], b))
                else:
                    merged.append((a, b))
            for a, b in zip(lefts, rights):
                if not any(s <= a and b <= e for s, e in merged):
                    return False
            return True

        n = mids.size
        best_pack = 0.0
        best_cover = float("inf")
        for size in range(n + 1):
            for subset in combinations(range(n), size):
                val = sum(w[i] for i in subset)
                if all(
                    abs(mids[i] - mids[j]) >= r
                    for a, i in enumerate(subset)
                    for j in subset[a + 1:]
                ):
                    best_pack = max(best_pack, val)
                if subset and covers(subset):
                    best_cover = min(best_cover, val)
        assert bf.packing == pytest.approx(best_pack, rel=1e-12)
        assert bf.covering == pytest.approx(best_cover, rel=1e-12)


@pytest.mark.parametrize("q", [-1.0, 0.0, 1.0, 2.0])
def test_greedy_within_certified_bracket(cantor_spec, q):
    depth = 9
    r = 1.9 * max_length_at(cantor_spec, depth)
    table = midpoint_ball_masses(cantor_spec, r, depth)
    bf = brute_force_ball_moments(table, q)
    g_cov = covering_moment(table, q)
    g_pak = packing_moment(table, q)
    tol = 1e-9 * max(1.0, abs(bf.covering), abs(bf.packing))
    assert g_cov >= bf.covering - tol
    assert g_pak <= bf.packing + tol


def test_brute_force_shares_the_greedy_ball_mass_table(monkeypatch, cantor_spec):
    """One midpoint ball table, read by the oracle and both greedy estimators
    as criterion 10 reads its tables, resolves its ball masses in one
    ``ball_masses`` column of one entry per midpoint between them."""
    import sys

    from hsmf import specs

    original = specs.ball_masses
    columns = []

    def counted(spec, xs, r, depth):
        columns.append(len(xs))
        return original(spec, xs, r, depth)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hsmf" and getattr(module, "ball_masses", None) is original:
            monkeypatch.setattr(module, "ball_masses", counted)
    depth = 7
    r = 1.9 * max_length_at(cantor_spec, depth)
    table = midpoint_ball_masses(cantor_spec, r, depth)
    for q in (-1.0, 0.0, 1.0, 2.0):
        brute_force_ball_moments(table, q)
        covering_moment(table, q)
        packing_moment(table, q)
    assert columns == [2**depth]
