"""
Run one ``hsmf`` command in this interpreter with its public layer functions
wrapped in spans::

    python3 -m perfbench.traced_cli SPANS.json -- <hsmf arguments>

Every module of the package that imported a wrapped function by name gets
the wrapper, so calls are recorded whichever module makes them. The spans,
the statistics folded from return values and the exit code are written to
SPANS.json when the command ends; the command's own outputs are unchanged.
"""

from __future__ import annotations

import json
import sys

from .tracer import Recorder

WRAPPED = {
    "specs": ("family_generation_counts", "ball_mass", "cells", "load_spec", "validate_spec",
              "sample_paths"),
    "scaling": ("separator_grid", "beta_sequence", "sample_generations", "solve_beta_k",
                "theta_delta_from_moments"),
    "counting": ("log_partition_moment", "partition_moment_table", "counting_moment_table",
                 "covering_moment", "packing_moment"),
    "oracles": ("brute_force_ball_moments", "midpoint_ball_masses"),
    "spectrum": ("coarse_spectrum", "legendre_transform", "tilted_dimension_check",
                 "spectrum_result", "mass_distribution"),
    "output": ("csv_bytes", "json_bytes"),
    "verify": tuple(f"criterion_{i}" for i in range(1, 11)),
}


def _rel_err(result) -> float:
    mass, error = result
    return error / mass if mass > 0.0 else 0.0


# (metric, "sum" or "max", value taken from the return value) per wrapped function
RETURN_STATS = {
    "scaling.sample_generations": (("scaling.sample_generations.ks", "sum", len),),
    "specs.ball_mass": (("specs.ball_mass.max_rel_err", "max", _rel_err),),
    "specs.cells": (("specs.cells.cells", "sum", lambda r: len(r[0])),),
    "spectrum.mass_distribution": (("spectrum.mass_distribution.exact", "sum",
                                    lambda r: int(r.exact)),),
    "output.csv_bytes": (("output.bytes_out", "sum", len),),
    "output.json_bytes": (("output.bytes_out", "sum", len),),
}


def install(rec: Recorder) -> None:
    """Replace every wrapped function in every loaded ``hsmf`` module."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "hsmf" or name.startswith("hsmf.")]
    for layer, functions in WRAPPED.items():
        home = sys.modules.get(f"hsmf.{layer}")
        if home is None:  # hsmf.verify, outside the verify command
            continue
        for fname in functions:
            original = getattr(home, fname)
            name = f"{layer}.{fname}"
            wrapper = rec.wrap(name, original, RETURN_STATS.get(name, ()))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: python3 -m perfbench.traced_cli SPANS.json -- <hsmf arguments>",
              file=sys.stderr)
        return 2
    spans_path, hsmf_args = argv[0], argv[2:]
    rec = Recorder()
    with rec.span("cli.import"):
        import hsmf.cli
    if hsmf_args[:1] == ["verify"]:
        import hsmf.verify  # noqa: F401  (the CLI imports it lazily; load it before wrapping)

    install(rec)
    code = 1
    try:
        with rec.span("cli.main"):
            code = hsmf.cli.main(hsmf_args)
    finally:
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump({**rec.dump(), "exit": code}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
