"""
Deterministic command-line front end.

Commands: validate, dims, spectrum, moments, sample, verify.
Exit codes: 0 success, 1 invariant/criterion failure, 2 usage or parse error.
Identical configuration and seed produce byte-identical output files; every
file carries a header with the tool version, a config hash, and the seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .counting import counting_moment_table, partition_moment_table
from .errors import HsmfError, ScaleTooSmall, SpecValidationError
from .output import JsonStream, config_hash, csv_bytes, json_bytes, meta_line, write_json
from .scaling import separator_grid
from .specs import (
    _num_cells,
    check_spec,
    load_spec,
    matched_generation,
    sample_paths,
    validate_spec,
)
from .spectrum import spectrum_result

USAGE_ERROR = 2
FAILURE = 1
# samples.json records built and encoded at a time, which bounds the
# command's memory by its (count, depth) paths array
SAMPLE_BATCH = 512
# moments use a radius only when its matched generation has at most this many cells
MOMENT_MAX_CELLS = 1 << 16


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hsmf", description=__doc__)
    p.add_argument("--version", action="version", version=f"hsmf {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, formats=("csv", "json")):
        sp.add_argument("--spec", required=True, help="measure spec JSON file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=0)
        # The default stays "csv" even where csv is refused (sample): the
        # config hash that every artifact carries includes it.
        sp.add_argument("--format", choices=formats, default="csv")
        sp.add_argument("--force", action="store_true", help="overwrite existing outputs")

    sp = sub.add_parser("validate", help="check a spec file against all invariants")
    sp.add_argument("--spec", required=True)

    sp = sub.add_parser("dims", help="estimate separator functions over a q grid")
    common(sp)
    sp.add_argument("--q-min", type=float, default=-5.0)
    sp.add_argument("--q-max", type=float, default=5.0)
    sp.add_argument("--q-step", type=float, default=0.25)
    sp.add_argument("--k-max", type=int, default=1024)

    sp = sub.add_parser("spectrum", help="legendre transform, coarse spectrum, tilted checks")
    common(sp)
    sp.add_argument("--q-min", type=float, default=-8.0)
    sp.add_argument("--q-max", type=float, default=8.0)
    sp.add_argument("--q-step", type=float, default=0.25)
    sp.add_argument("--k-max", type=int, default=1024)
    sp.add_argument("--r-octaves", type=int, default=16, help="finest scale as 2^-octaves")
    sp.add_argument("--epsilon", type=float, default=0.05)

    sp = sub.add_parser("moments", help="moment tables over octave scales")
    common(sp)
    sp.add_argument("--q-min", type=float, default=-2.0)
    sp.add_argument("--q-max", type=float, default=2.0)
    sp.add_argument("--q-step", type=float, default=0.5)
    sp.add_argument("--r-octaves", type=int, default=10)

    sp = sub.add_parser("sample", help="draw tilted addresses")
    common(sp, formats=("json",))
    sp.add_argument("--q", type=float, default=1.0)
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--depth", type=int, default=16)
    sp.add_argument("--count", type=int, default=16)

    sp = sub.add_parser("verify", help="run the acceptance criteria end to end")
    sp.add_argument("--out", default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--force", action="store_true")
    sp.add_argument("--tol-scale", type=float, default=1.0,
                    help="scale all tolerances (0.1 tightens 10x)")
    sp.add_argument("--fixtures", default=None,
                    help="optional directory of spec fixtures to validate first")
    return p


def _q_grid(args) -> np.ndarray:
    if args.q_step <= 0 or args.q_min >= args.q_max:
        raise ValueError("need q_step > 0 and q_min < q_max")
    n = int(round((args.q_max - args.q_min) / args.q_step))
    return args.q_min + args.q_step * np.arange(n + 1)


def _require_at_least(args, low: int, *options: str) -> None:
    """Usage error naming the first of ``options`` whose value is below ``low``."""
    for option in options:
        value = getattr(args, option.replace("-", "_"))
        if value < low:
            raise ValueError(f"--{option} must be at least {low}, got {value}")


def _outdir(args) -> Path:
    out = Path(args.out) if args.out else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, data, force: bool) -> None:
    """
    Write ``data`` (bytes, or a function that writes to a binary file) to
    ``path`` through a temporary file in the same directory, so ``path``
    holds either its old contents or the whole new file.
    """
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            if isinstance(data, bytes):
                f.write(data)
            else:
                data(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _emit_table(out: Path, stem: str, columns, rows, meta: str, args) -> None:
    """One table as CSV or as a JSON record list, per --format."""
    rows = list(rows)
    if args.format == "json":
        payload = {"meta": meta.lstrip("# ").rstrip(), "columns": list(columns),
                   "rows": [list(r) for r in rows]}
        _write(out / f"{stem}.json", json_bytes(payload), args.force)
    else:
        _write(out / f"{stem}.csv", csv_bytes(columns, rows, meta), args.force)


def _config(args, spec=None) -> dict:
    """Hashable run configuration: numeric args plus spec content, not paths."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("command", "out", "force", "spec")}
    if spec is not None:
        cfg["spec"] = spec.as_dict()
    return cfg


def _meta(args, spec=None) -> str:
    return meta_line(__version__, config_hash(_config(args, spec)), getattr(args, "seed", 0))


def _json_meta(args, spec=None) -> dict:
    return {
        "version": __version__,
        "config": config_hash(_config(args, spec)),
        "seed": getattr(args, "seed", 0),
    }


def cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    violations = check_spec(spec)
    if violations:
        print(json.dumps([v.as_dict() for v in violations], sort_keys=True))
        return FAILURE
    print(json.dumps({"valid": True, "families": len(spec.families)}, sort_keys=True))
    return 0


def cmd_dims(args) -> int:
    _require_at_least(args, 1, "k-max")
    spec = validate_spec(load_spec(args.spec))
    qs = _q_grid(args)
    grid = separator_grid(spec, qs, min(args.k_max, spec.depth_cap))
    out = _outdir(args)
    meta = _meta(args, spec)
    _emit_table(out, "separators", grid.csv_columns, grid.rows_csv(), meta, args)
    diag = {
        "meta": _json_meta(args, spec),
        "per_q": grid.diagnostics,
        "schedule": spec.schedule.as_dict(),
    }
    if hasattr(spec.schedule, "boundary_ratios"):
        diag["boundary_ratios"] = list(spec.schedule.boundary_ratios)
    _write(out / "diagnostics.json", json_bytes(diag), args.force)
    problems = grid.check_invariants()
    if problems:
        print("invariant failures: " + "; ".join(problems), file=sys.stderr)
        return FAILURE
    return 0


def cmd_spectrum(args) -> int:
    _require_at_least(args, 1, "k-max", "r-octaves")
    spec = validate_spec(load_spec(args.spec))
    qs = _q_grid(args)
    grid = separator_grid(spec, qs, min(args.k_max, spec.depth_cap))
    octaves = sorted({*range(max(4, args.r_octaves // 2), args.r_octaves + 1, 4), args.r_octaves})
    # the histogram samples cells past its enumeration cap, so no cell cap here
    r_list = _usable_radii("spectrum skips", spec, octaves, math.inf)
    alpha = np.round(np.arange(0.0, 2.5001, 0.025), 10)
    result = spectrum_result(
        spec, grid, alpha, r_list, epsilon=args.epsilon, seed=args.seed
    )
    out = _outdir(args)
    meta = _meta(args, spec)
    _emit_table(out, "legendre", ("alpha", "b_star", "B_star", "boundary_flag"),
                result.legendre_rows_csv(), meta, args)
    _emit_table(out, "coarse", ("r", "alpha", "f_hat", "count"),
                result.coarse.rows_csv(), meta, args)
    tilted = {
        "meta": _json_meta(args, spec),
        "bounds": asdict(result.bounds),
        "checks": [asdict(t) for t in result.tilted],
    }
    _write(out / "tilted.json", json_bytes(tilted), args.force)
    problems = result.check_invariants()
    if problems:
        print("invariant failures: " + "; ".join(problems), file=sys.stderr)
        return FAILURE
    return 0


def cmd_moments(args) -> int:
    _require_at_least(args, 1, "r-octaves")
    spec = validate_spec(load_spec(args.spec))
    qs = _q_grid(args)
    r_list = _usable_radii("moments skip", spec, range(1, args.r_octaves + 1), MOMENT_MAX_CELLS)
    out = _outdir(args)
    meta = _meta(args, spec)
    rows = []
    ks = sorted({matched_generation(spec, r) for r in r_list} | {2, 4, 8})
    tables = [partition_moment_table(spec, qs, ks),
              *counting_moment_table(spec, qs, r_list)]
    for table in tables:
        problems = table.check_invariants()
        if problems:
            print("invariant failures: " + "; ".join(problems), file=sys.stderr)
            return FAILURE
        rows.extend(table.rows_csv())
    _emit_table(out, "moments", ("kind", "q", "r", "value", "flag"), rows, meta, args)
    return 0


def _usable_radii(skip_phrase, spec, octaves, max_cells) -> list[float]:
    """The radii 2^-j, j in ``octaves`` ascending, that ``_unmatchable``
    passes. The others are named in one stderr note, by reason."""
    r_list, skipped = [], {}  # reason -> octaves that cannot be used
    for j in octaves:
        reason = _unmatchable(spec, 2.0**-j, max_cells)
        if reason:
            skipped.setdefault(reason, []).append(j)
        else:
            r_list.append(2.0**-j)
    if skipped:
        print(f"note: {skip_phrase} " + "; ".join(
            f"r = {_octave_list(js)}: {reason}" for reason, js in skipped.items()), file=sys.stderr)
    return r_list


def _octave_list(js) -> str:
    """2^-a..2^-b for a run of consecutive octaves, else each one listed."""
    if len(js) > 1 and js[-1] - js[0] == len(js) - 1:
        return f"2^-{js[0]}..2^-{js[-1]}"
    return ", ".join(f"2^-{j}" for j in js)


def _unmatchable(spec, r, max_cells) -> str | None:
    """Why radius r cannot be used, or None when it can."""
    try:
        k = matched_generation(spec, r)
    except ScaleTooSmall:
        return f"no generation within depth_cap {spec.depth_cap} resolves them"
    if _num_cells(spec, k) > max_cells:
        return f"their matched generation has more than {max_cells} cells"
    return None


def cmd_sample(args) -> int:
    _require_at_least(args, 1, "depth")
    _require_at_least(args, 0, "count")
    spec = validate_spec(load_spec(args.spec))
    paths, log_mass, log_len = sample_paths(spec, args.q, args.t, args.depth, args.count, args.seed)
    out = _outdir(args)
    payload = {
        "meta": {**_json_meta(args, spec), "q": args.q, "t": args.t},
        "samples": JsonStream(_sample_records(paths, log_mass, log_len)),
    }
    _write(out / "samples.json", lambda f: write_json(payload, f.write), args.force)
    return 0


def _sample_records(paths, log_mass, log_len):
    """samples.json records, built SAMPLE_BATCH at a time from array slices."""
    for lo in range(0, len(paths), SAMPLE_BATCH):
        rows = slice(lo, lo + SAMPLE_BATCH)
        m, ln = log_mass[rows], log_len[rows]
        for path, mass, length, alpha in zip(paths[rows].tolist(), m.tolist(), ln.tolist(),
                                             (m / ln).tolist()):
            yield {"path": path, "log_mass": mass, "log_length": length, "alpha_hat": alpha}


def cmd_verify(args) -> int:
    from .verify import run_verify

    if args.fixtures is not None:
        fdir = Path(args.fixtures)
        if not fdir.is_dir():
            raise FileNotFoundError(f"fixture directory {fdir} not found")
        for f in sorted(fdir.glob("*.json")):
            validate_spec(load_spec(f))
    results, artifacts = run_verify(seed=args.seed, tol_scale=args.tol_scale)
    out = _outdir(args)
    for name, data in sorted(artifacts.items()):
        _write(out / name, data, args.force)
    for res in results:
        print(res.status_line(), file=sys.stderr)
    return 0 if all(res.passed for res in results) else FAILURE


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; pass --version/help through
        return int(e.code or 0)
    try:
        handler = {
            "validate": cmd_validate,
            "dims": cmd_dims,
            "spectrum": cmd_spectrum,
            "moments": cmd_moments,
            "sample": cmd_sample,
            "verify": cmd_verify,
        }[args.command]
        return handler(args)
    except SpecValidationError as e:
        print(json.dumps([v.as_dict() for v in e.violations], sort_keys=True))
        return FAILURE
    except (FileNotFoundError, FileExistsError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except HsmfError as e:
        print(f"error: {e}", file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
