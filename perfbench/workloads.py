"""
The four benchmark workloads: which ``hsmf`` commands each runs, on which
inputs, and how each command's outputs are checked.

Each workload makes one layer do most of its work and leaves another almost
idle, so that a change to that layer shows on one workload and not on the
others (see ``README.md`` for the table of layers per workload):

* ``envelope-block``: dense closed-form beta_k over 2^20 generations per q
  (scaling, specs.family_generation_counts, counting.partition_moment_table);
  no ball masses and no Newton solves.
* ``newton-mixed``: the safeguarded Newton solve of beta_k on specs with mixed
  contraction ratios, generated from the seed; few generations, no dense
  arrays, no ball masses.
* ``fixed-radius``: ball masses behind greedy covering/packing moments, cell
  enumeration, coarse spectra and tilted sampling; trivial beta solves.
* ``verify``: the acceptance suite, the only workload that reaches the
  brute-force oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import checks
from . import reference as ref

GOLDEN = Path(__file__).resolve().parent / "golden" / "moments.json"

K_DENSE = 1 << 20


@dataclass(frozen=True)
class Command:
    label: str                                 # unique within the workload
    args: tuple[str, ...]                      # hsmf arguments, without --out
    check: Callable[[Path], list[str]]         # problems found in the output directory


@dataclass
class Workload:
    name: str
    commands: list[Command]
    setup_spec: str                            # validated cold to measure setup_s
    generated: dict[str, dict] = field(default_factory=dict)  # spec file -> spec
    # (per-layer metric, operator, value) that a traced pass must satisfy, so
    # that the workload provably exercises or bypasses the layers it claims to
    expect: tuple[tuple[str, str, float], ...] = ()


def load(name: str) -> dict:
    return json.loads((Path("specs") / f"{name}.json").read_text(encoding="utf-8"))


def _grid_args(q_min: float, q_max: float, step: float) -> tuple[str, ...]:
    return ("--q-min", repr(q_min), "--q-max", repr(q_max), "--q-step", repr(step))


def envelope_block(seed: int, inputs: Path) -> Workload:
    qs = ref.q_grid(-8.0, 8.0, 0.25)
    commands = []
    for label, name in (("dims-block", "block_switched"), ("dims-switching", "switching_binomial")):
        spec = load(name)
        commands.append(Command(
            label,
            ("dims", "--spec", f"specs/{name}.json", *_grid_args(-8.0, 8.0, 0.25),
             "--k-max", str(K_DENSE), "--seed", str(seed)),
            lambda out, spec=spec: checks.check_separators(out, checks.envelope(spec, qs, K_DENSE)),
        ))
    switching = load("switching_binomial")
    commands.append(Command(
        "spectrum-switching",
        ("spectrum", "--spec", "specs/switching_binomial.json", "--r-octaves", "24",
         "--seed", str(seed)),
        lambda out: checks.check_spectrum(out, switching, 24),
    ))
    return Workload("envelope-block", commands, "specs/block_switched.json",
                    expect=(("specs.ball_mass.calls", "==", 0),
                            ("scaling.separator_grid.calls", ">", 0)))


# Shapes of the generated newton-mixed specs: per family (base probs, base
# ratios), the gap policy and the schedule pattern. The seed jitters the values
# but never the shape, so the amount of work stays the same from seed to seed.
# Patterns have length 1, 2 or 4, which divides k_max = 256, so every sampled
# generation is period-aligned.
NEWTON_SHAPES = (
    ((((0.3, 0.7), (0.4, 0.6)),), "no_gaps", (0,)),
    ((((0.2, 0.3, 0.5), (0.2, 0.3, 0.25)),), "equal_gaps", (0,)),
    ((((0.35, 0.65), (0.3, 0.45)), ((0.1, 0.2, 0.3, 0.4), (0.1, 0.15, 0.2, 0.25))),
     "equal_gaps", (0, 1)),
    ((((0.2, 0.3, 0.5), (0.25, 0.35, 0.4)), ((0.6, 0.4), (0.45, 0.55))), "no_gaps", (0, 0, 1, 1)),
)
NEWTON_K_MAX = 256
NEWTON_JITTER = 0.1


def newton_specs(seed: int) -> list[dict]:
    """The seed's newton-mixed specs: every family has non-constant ratios."""
    rng = np.random.default_rng(seed)
    specs = []
    for families, gaps, pattern in NEWTON_SHAPES:
        fams = []
        for probs, ratios in families:
            p = np.asarray(probs) * np.exp(NEWTON_JITTER * rng.standard_normal(len(probs)))
            c = np.asarray(ratios) * np.exp(NEWTON_JITTER * rng.standard_normal(len(ratios)))
            c *= math.fsum(ratios) / c.sum()  # keep the ratio sum: 1 for no_gaps, < 1 otherwise
            fams.append({"probs": (p / p.sum()).tolist(), "ratios": c.tolist()})
        schedule = ({"type": "constant", "family": 0} if len(pattern) == 1
                    else {"type": "periodic", "pattern": list(pattern)})
        specs.append({"families": fams, "schedule": schedule, "gap_policy": gaps,
                      "depth_cap": 4096})
    return specs


def newton_mixed(seed: int, inputs: Path) -> Workload:
    qs = ref.q_grid(-5.0, 5.0, 0.5)
    commands = []
    generated = {}
    for i, spec in enumerate(newton_specs(seed)):
        path = inputs / f"newton-mixed-seed{seed}-{i}.json"
        path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        generated[str(path)] = spec
        commands.append(Command(
            f"dims-mixed-{i}",
            ("dims", "--spec", str(path), *_grid_args(-5.0, 5.0, 0.5),
             "--k-max", str(NEWTON_K_MAX), "--seed", str(seed)),
            lambda out, spec=spec: checks.check_separators(out, checks.newton_envelope(spec, qs)),
        ))
    return Workload("newton-mixed", commands, next(iter(generated)), generated,
                    expect=(("scaling.solve_beta_k.calls", ">", 0),
                            ("specs.ball_mass.calls", "==", 0)))


def fixed_radius(seed: int, inputs: Path) -> Workload:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    commands = []
    for name, octaves in (("binomial_quarter", 15), ("middle_thirds", 10),
                          ("periodic_two_family", 16)):
        spec = load(name)
        commands.append(Command(
            f"moments-{name}",
            ("moments", "--spec", f"specs/{name}.json", "--r-octaves", str(octaves),
             "--seed", str(seed)),
            lambda out, spec=spec, name=name: checks.check_moments(out, spec, golden[name]),
        ))
    binomial = load("binomial_quarter")
    commands.append(Command(
        "spectrum-binomial",
        ("spectrum", "--spec", "specs/binomial_quarter.json", "--r-octaves", "16",
         "--seed", str(seed)),
        lambda out: checks.check_spectrum(out, binomial, 16),
    ))
    commands.append(Command(
        "sample-binomial",
        ("sample", "--spec", "specs/binomial_quarter.json", "--q", "2", "--t", "0",
         "--depth", "64", "--count", "4096", "--seed", str(seed)),
        lambda out: checks.check_samples(out, binomial, 2.0, 0.0, 64, 4096),
    ))
    return Workload("fixed-radius", commands, "specs/binomial_quarter.json",
                    expect=(("specs.ball_mass.calls", ">", 0),))


def verify(seed: int, inputs: Path) -> Workload:
    # The acceptance suite runs with its own fixed seed: its tolerances are
    # pinned for that seed, and the workload must not fail by construction.
    command = Command("verify", ("verify", "--fixtures", "specs"),
                      checks.check_verify)
    return Workload("verify", [command], "specs/binomial_quarter.json",
                    expect=(("oracles.brute_force_ball_moments.calls", ">", 0),))


WORKLOADS = {
    "envelope-block": envelope_block,
    "newton-mixed": newton_mixed,
    "fixed-radius": fixed_radius,
    "verify": verify,
}
