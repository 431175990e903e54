"""
Correctness checks on ``hsmf`` output files, by value and by column name.

Each check returns a list of problems; an empty list means the output is
correct. Values are compared with ``TOL`` relative to max(1, |reference|):
loose enough for kernel rewrites that move results by a few 1e-13, tight
enough that a wrong envelope, moment or bin count is caught. Columns are
looked up by name, so an added column (say ``log_value``) does not break a
check, and a ``log_value`` column is itself checked when present.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from . import reference as ref

TOL = 1e-9
# Half-width of the band around a histogram bin edge inside which rounding may
# put a cell on either side of the edge.
EDGE_MARGIN = 1e-9
# Tilted-sampling mean exponent versus its prediction (acceptance criterion 9).
TILT_TOL = 0.02
# Observed child frequencies of 4096 x depth tilted draws versus their weights.
FREQ_TOL = 0.01
# The ``hsmf spectrum`` defaults that the workloads run with: the half-width of
# the alpha window of the tilted check and the k_max of its envelope.
SPECTRUM_EPSILON = 0.05
SPECTRUM_K_MAX = 1024


def close(x: float, expected: float) -> bool:
    return abs(x - expected) <= TOL * max(1.0, abs(expected))


def read_table(path: Path) -> list[dict]:
    """Rows of an ``hsmf`` CSV (``#`` header line skipped) as column -> text."""
    lines = [ln for ln in path.read_text(encoding="ascii").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path.name}: row has {len(cells)} cells, header has {len(header)}")
        rows.append(dict(zip(header, cells)))
    return rows


def _mismatch(what: str, got: float, expected: float) -> str:
    return f"{what}: got {got!r}, expected {expected!r}"


def check_validate(stdout: str, n_families: int) -> list[str]:
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return [f"validate printed no JSON: {stdout[-200:]!r}"]
    if result != {"families": n_families, "valid": True}:
        return [f"validate reported {result!r}"]
    return []


def check_separators(out: Path, expected: dict[float, tuple[float, float]]) -> list[str]:
    """separators.csv: b and B per q against reference (b, B) pairs."""
    rows = read_table(out / "separators.csv")
    problems = []
    if len(rows) != len(expected):
        problems.append(f"separators.csv: {len(rows)} rows, expected {len(expected)}")
    for row in rows:
        q = float(row["q"])
        if q not in expected:
            problems.append(f"separators.csv: unexpected q={q!r}")
            continue
        for col, want in zip(("b", "B"), expected[q]):
            got = float(row[col])
            if not close(got, want):
                problems.append(_mismatch(f"separators.csv {col}(q={q})", got, want))
    return problems


def envelope(spec: dict, qs: list[float], k_max: int) -> dict[float, tuple[float, float]]:
    """Reference (b, B) per q for k_max generations of a spec with a closed form."""
    if spec["schedule"]["type"] == "blocks":
        return {q: ref.block_envelope(spec, q, k_max) for q in qs}
    counts = ref.period_counts(spec)
    return {q: (ref.beta_closed(spec, counts, q),) * 2 for q in qs}


def newton_envelope(spec: dict, qs: list[float]) -> dict[float, tuple[float, float]]:
    """
    Reference (b, B) for a constant or periodic spec sampled at period-aligned
    generations: beta_k is then the root of the per-period partition sum.
    """
    counts = ref.period_counts(spec)
    return {q: (ref.beta_bisect(spec, counts, q),) * 2 for q in qs}


def check_spectrum(out: Path, spec: dict, r_octaves: int) -> list[str]:
    """
    legendre.csv, tilted.json and coarse.csv of ``hsmf spectrum`` with its
    default q grid, for a spec whose first r_octaves generations use one
    two-child family with a constant ratio.
    """
    qs = ref.q_grid(-8.0, 8.0, 0.25)
    env = envelope(spec, qs, min(SPECTRUM_K_MAX, spec["depth_cap"]))
    b = [env[q][0] for q in qs]
    B = [env[q][1] for q in qs]
    problems = []

    rows = read_table(out / "legendre.csv")
    if len(rows) != 101:
        problems.append(f"legendre.csv: {len(rows)} rows, expected 101")
    for row in rows:
        a = float(row["alpha"])
        for col, phi in (("b_star", b), ("B_star", B)):
            got, want = float(row[col]), ref.legendre(qs, phi, a)
            if not close(got, want):
                problems.append(_mismatch(f"legendre.csv {col}(alpha={a})", got, want))

    tilted = json.loads((out / "tilted.json").read_text(encoding="ascii"))
    for key, want in ref.alpha_bounds(qs, b, B).items():
        got = tilted["bounds"][key]
        if not close(got, want):
            problems.append(_mismatch(f"tilted.json bounds.{key}", got, want))
    depth = min(30, spec["depth_cap"])
    counts = ref.family_counts(spec, depth)
    h = 0.05
    for chk in tilted["checks"]:
        q = chk["q"]
        t = ref.beta_closed(spec, counts, q)
        pred = -(ref.beta_closed(spec, counts, q + h) - ref.beta_closed(spec, counts, q - h)) / (
            (q + h) - (q - h))
        for key, want in (("t", t), ("alpha_hat_pred", pred), ("legendre_value", q * pred + t)):
            if not close(chk[key], want):
                problems.append(_mismatch(f"tilted.json q={q} {key}", chk[key], want))
        if abs(chk["alpha_emp_mean"] - pred) > TILT_TOL:
            problems.append(_mismatch(f"tilted.json q={q} alpha_emp_mean", chk["alpha_emp_mean"], pred))
    if sorted(c["q"] for c in tilted["checks"]) != [0.0, 1.0, 2.0]:
        problems.append("tilted.json: expected checks at q = 0, 1, 2")

    want_r = {2.0 ** -j for j in range(max(4, r_octaves // 2), r_octaves + 1, 4)} | {2.0 ** -r_octaves}
    rows = read_table(out / "coarse.csv")
    if {float(row["r"]) for row in rows} != want_r or len(rows) != 101 * len(want_r):
        problems.append("coarse.csv: wrong scales or row count")
    for row in rows:
        r, a = float(row["r"]), float(row["alpha"])
        k = ref.matched_generation(spec, r)
        fams = {ref.family_at(spec, g) for g in range(1, k + 1)}
        fam = spec["families"][fams.pop()]
        if fams or len(fam["probs"]) != 2:
            raise ValueError("coarse.csv check needs one two-child family up to the finest scale")
        log_r = math.log(r)
        sure, maybe = ref.binomial_bins(
            tuple(sorted(math.log(p) for p in fam["probs"])), k,
            (a + SPECTRUM_EPSILON) * log_r, (a - SPECTRUM_EPSILON) * log_r, EDGE_MARGIN)
        count = float(row["count"])
        what = f"coarse.csv r={r!r} alpha={a}"
        if maybe == 0:
            if count != 0.0 or row["f_hat"] != "":
                problems.append(f"{what}: expected an empty bin, got count {count!r}")
            continue
        if not sure * (1.0 - TOL) <= count <= maybe * (1.0 + TOL):
            problems.append(_mismatch(f"{what} count", count, float(sure)))
            continue
        f_hat = float(row["f_hat"]) if row["f_hat"] else -math.inf
        f_lo = math.log(sure) / -log_r if sure else -math.inf
        f_hi = math.log(maybe) / -log_r
        if not f_lo - TOL <= f_hat <= f_hi + TOL:
            problems.append(_mismatch(f"{what} f_hat", f_hat, f_hi))
    return problems


def _scale_generation(spec: dict, r: float) -> int:
    for k in range(1, 256):
        if abs(ref.max_length(spec, k) - r) <= 1e-12 * r:
            return k
    raise ValueError(f"no generation has max cell length {r!r}")


def check_moments(out: Path, spec: dict, golden: list[list]) -> list[str]:
    """
    moments.csv: partition moments against the factorized sum; greedy counts
    and moments, which have no closed form, against ``golden`` rows
    ``[kind, q, r, value]`` recorded from a trusted build.
    """
    rows = read_table(out / "moments.csv")
    problems = []
    greedy = {}
    for row in rows:
        kind, q, r = row["kind"], float(row["q"]), float(row["r"])
        heuristic = kind in ("covering_moment", "packing_moment") and q < 0
        if row["flag"] != ("heuristic" if heuristic else ""):
            problems.append(f"moments.csv {kind} q={q} r={r!r}: flag {row['flag']!r}")
        if kind != "partition_moment":
            greedy[(kind, q, r)] = float(row["value"])
            continue
        k = _scale_generation(spec, r)
        want = ref.log_partition(spec, ref.family_counts(spec, k), q, 0.0)
        if "log_value" in row and not close(float(row["log_value"]), want):
            problems.append(_mismatch(f"moments.csv log_value(q={q}, k={k})", float(row["log_value"]), want))
        if "value" in row and not close(float(row["value"]) / math.exp(want), 1.0):
            problems.append(_mismatch(f"moments.csv value(q={q}, k={k})", float(row["value"]), math.exp(want)))
    expected = {(kind, float(q), float(r)): v for kind, q, r, v in golden}
    if set(greedy) != set(expected):
        problems.append(f"moments.csv: greedy rows differ from the recorded set "
                        f"({len(greedy)} vs {len(expected)})")
    for key in set(greedy) & set(expected):
        got, want = greedy[key], expected[key]
        if not abs(got - want) <= TOL * abs(want):
            problems.append(_mismatch(f"moments.csv {key}", got, want))
    return problems


def tilt_weights(fam: dict, q: float, t: float) -> list[float]:
    """Child probabilities p^q c^t / sum p^q c^t of a tilted draw."""
    norm = ref.log_sum_pow(fam, q, t)
    return [math.exp(q * math.log(p) + t * math.log(c) - norm)
            for p, c in zip(fam["probs"], fam["ratios"])]


def check_samples(out: Path, spec: dict, q: float, t: float, depth: int, count: int) -> list[str]:
    """samples.json: per-path log mass, log length and exponent, and child frequencies."""
    payload = json.loads((out / "samples.json").read_text(encoding="ascii"))
    records = payload["samples"]
    problems = []
    if len(records) != count:
        problems.append(f"samples.json: {len(records)} samples, expected {count}")
    fams = [ref.family_at(spec, g) for g in range(1, depth + 1)]
    logs = [[(math.log(p), math.log(c)) for p, c in zip(f["probs"], f["ratios"])]
            for f in spec["families"]]
    draws = [[0] * len(f["probs"]) for f in spec["families"]]
    for n, rec in enumerate(records):
        path = rec["path"]
        if len(path) != depth or not all(1 <= c <= len(logs[f]) for f, c in zip(fams, path)):
            problems.append(f"samples.json #{n}: path {path!r} does not fit the spec")
            continue
        for f, child in zip(fams, path):
            draws[f][child - 1] += 1
        log_mass = math.fsum(logs[f][c - 1][0] for f, c in zip(fams, path))
        log_len = math.fsum(logs[f][c - 1][1] for f, c in zip(fams, path))
        for key, want in (("log_mass", log_mass), ("log_length", log_len),
                          ("alpha_hat", log_mass / log_len)):
            if not close(rec[key], want):
                problems.append(_mismatch(f"samples.json #{n} {key}", rec[key], want))
    for f, seen in enumerate(draws):
        total = sum(seen)
        if total:
            for child, (n_seen, w) in enumerate(zip(seen, tilt_weights(spec["families"][f], q, t))):
                if abs(n_seen / total - w) > FREQ_TOL:
                    problems.append(f"samples.json: family {f} child {child + 1} drawn "
                                    f"{n_seen / total:.4f} of the time, weight {w:.4f}")
    return problems


def check_verify(out: Path) -> list[str]:
    report = json.loads((out / "report.json").read_text(encoding="ascii"))
    problems = []
    if report.get("all_passed") is not True:
        problems.append("report.json: all_passed is not true")
    failed = [c["id"] for c in report.get("criteria", []) if not c.get("passed")]
    if len(report.get("criteria", [])) != 10 or failed:
        problems.append(f"report.json: expected 10 passing criteria, failed {failed}")
    return problems
