"""
Independent reference values for checking ``hsmf`` outputs.

Nothing here imports ``hsmf``: every value is recomputed from the spec JSON
with the closed forms or the plain root-finding the outputs must agree with.
Specs are the parsed JSON dicts of the spec file schema.
"""

from __future__ import annotations

import math


def family_counts(spec: dict, k: int) -> list[int]:
    """Number of generations in 1..k that use each family."""
    out = [0] * len(spec["families"])
    sched = spec["schedule"]
    if sched["type"] == "constant":
        out[sched["family"]] = k
    elif sched["type"] == "periodic":
        pattern = sched["pattern"]
        full, rem = divmod(k, len(pattern))
        for i, f in enumerate(pattern):
            out[f] += full + (1 if i < rem else 0)
    elif sched["type"] == "blocks":
        ends = [t - 1 for t in sched["boundaries"][1:]] + [k]
        for start, end, f in zip(sched["boundaries"], ends, sched["families"]):
            out[f] += max(0, min(end, k) - start + 1)
    else:
        raise ValueError(f"unknown schedule type {sched['type']!r}")
    return out


def period_counts(spec: dict) -> list[int]:
    """Per-family generation counts over one schedule period (constant: 1)."""
    sched = spec["schedule"]
    if sched["type"] == "blocks":
        raise ValueError("block schedules have no period")
    return family_counts(spec, len(sched.get("pattern", [0])))


def log_sum_pow(fam: dict, q: float, t: float) -> float:
    """log sum_j p_j^q c_j^t for one family, shifted by the largest term."""
    terms = [q * math.log(p) + t * math.log(c) for p, c in zip(fam["probs"], fam["ratios"])]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(v - top) for v in terms))


def log_partition(spec: dict, counts: list[int], q: float, t: float) -> float:
    """log S(q, t) = sum_f n_f log sum_j p_fj^q c_fj^t (factorized partition sum)."""
    return math.fsum(
        n * log_sum_pow(fam, q, t) for fam, n in zip(spec["families"], counts) if n
    )


def beta_bisect(spec: dict, counts: list[int], q: float) -> float:
    """
    Root in t of log S(q, t) = 0 by plain bisection. Every c_j < 1, so the
    map is strictly decreasing in t and the root is unique.
    """
    lo, hi = -1.0, 1.0
    while log_partition(spec, counts, q, lo) < 0.0:
        lo *= 2.0
    while log_partition(spec, counts, q, hi) > 0.0:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if log_partition(spec, counts, q, mid) > 0.0:
            lo = mid
        else:
            hi = mid


def beta_closed(spec: dict, counts: list[int], q: float) -> float:
    """
    beta_k(q) when every used family contracts all children by one ratio:
    sum_f n_f log sum_j p_fj^q / sum_f n_f (-log c_f).
    """
    num = []
    den = []
    for fam, n in zip(spec["families"], counts):
        if not n:
            continue
        if len(set(fam["ratios"])) != 1:
            raise ValueError("closed form needs a constant ratio in every used family")
        num.append(n * log_sum_pow(fam, q, 0.0))
        den.append(-n * math.log(fam["ratios"][0]))
    return math.fsum(num) / math.fsum(den)


def envelope_generations(spec: dict, k_max: int) -> list[int]:
    """
    Generations where beta_k over [1, k_max] attains its min and max for a
    block schedule: 1, k_max, and T - 1, T for every block start T <= k_max.
    Within a block beta_k moves monotonically, so no other k can be extreme.
    """
    ks = {1, k_max}
    for t in spec["schedule"]["boundaries"]:
        ks.update(k for k in (t - 1, t) if 1 <= k <= k_max)
    return sorted(ks)


def block_envelope(spec: dict, q: float, k_max: int) -> tuple[float, float]:
    """(min, max) of the closed-form beta_k(q) over k in [1, k_max]."""
    vals = [beta_closed(spec, family_counts(spec, k), q) for k in envelope_generations(spec, k_max)]
    return min(vals), max(vals)


def max_length(spec: dict, k: int) -> float:
    """Largest generation-k cell length: the product of per-generation max ratios."""
    out = 1.0
    for g in range(1, k + 1):
        out *= max(spec["families"][family_at(spec, g)]["ratios"])
    return out


def family_at(spec: dict, g: int) -> int:
    """Family index used at generation g (1-based)."""
    sched = spec["schedule"]
    if sched["type"] == "constant":
        return sched["family"]
    if sched["type"] == "periodic":
        return sched["pattern"][(g - 1) % len(sched["pattern"])]
    block = max(j for j, t in enumerate(sched["boundaries"]) if t <= g)
    return sched["families"][block]


def matched_generation(spec: dict, r: float) -> int:
    """Smallest generation whose largest cell is no longer than r."""
    k = 0
    length = 1.0
    while length > r:
        k += 1
        length *= max(spec["families"][family_at(spec, k)]["ratios"])
    return k


def binomial_bins(
    log_p: tuple[float, float], k: int, lo: float, hi: float, margin: float
) -> tuple[int, int]:
    """
    Number of generation-k cells of a two-child measure whose log-mass
    a*log_p[0] + (k-a)*log_p[1] lies in [lo, hi], counted with binomial
    coefficients. Returns (surely inside, inside or within ``margin`` of an
    edge); the two differ only when rounding could decide membership.
    """
    sure = maybe = 0
    for a in range(k + 1):
        lm = a * log_p[0] + (k - a) * log_p[1]
        n = math.comb(k, a)
        if lo + margin <= lm <= hi - margin:
            sure += n
        if lo - margin <= lm <= hi + margin:
            maybe += n
    return sure, maybe


def legendre(q_grid: list[float], phi: list[float], alpha: float) -> float:
    """min over the grid of alpha*q + phi(q)."""
    return min(alpha * q + v for q, v in zip(q_grid, phi))


def alpha_bounds(q_grid: list[float], b: list[float], B: list[float]) -> dict:
    """Discrete exponent bounds from -b/q and -B/q over |q| >= 1/2."""
    pos = [i for i, q in enumerate(q_grid) if q >= 0.5]
    neg = [i for i, q in enumerate(q_grid) if q <= -0.5]
    return {
        "alpha_min": max(-b[i] / q_grid[i] for i in pos),
        "alpha_max": min(-b[i] / q_grid[i] for i in neg),
        "beta_min": max(-B[i] / q_grid[i] for i in pos),
        "beta_max": min(-B[i] / q_grid[i] for i in neg),
    }


def q_grid(q_min: float, q_max: float, step: float) -> list[float]:
    """The CLI's q grid: q_min + step * i for i = 0..n."""
    n = int(round((q_max - q_min) / step))
    return [q_min + step * i for i in range(n + 1)]
