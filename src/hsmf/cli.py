"""
Deterministic command-line front end.

Commands: validate, dims, spectrum, moments, sample, verify. Each returns the
problems it found (an empty list on success); ``main`` alone reports them and
maps them and errors to exit codes: 0 success, 1 spec violations, invariant or
criterion failures, 2 usage errors and malformed spec files.
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

from . import __version__
from ._np import np
from .counting import counting_moment_table, partition_moment_table
from .errors import HsmfError, ScaleTooSmall, SpecValidationError
from .output import config_hash, csv_bytes, json_bytes, meta_line, write_samples
from .scaling import separator_grid
from .specs import _num_cells, load_spec, matched_generation, sample_paths, validate_spec
from .spectrum import spectrum_result

USAGE_ERROR = 2
FAILURE = 1
# moments use a radius only when its matched generation has at most this many cells
MOMENT_MAX_CELLS = 1 << 16
# q grids longer than this are usage errors: dims and spectrum solve beta_k on
# a (q x generation) array, one generation per q unless the schedule has blocks
Q_GRID_MAX_POINTS = 1 << 12


def _finite_float(text: str) -> float:
    """argparse type of every float option: a number that is neither inf nor nan."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


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
    sp.add_argument("--q-min", type=_finite_float, default=-5.0)
    sp.add_argument("--q-max", type=_finite_float, default=5.0)
    sp.add_argument("--q-step", type=_finite_float, default=0.25)
    sp.add_argument("--k-max", type=int, default=1024)

    sp = sub.add_parser("spectrum", help="legendre transform, coarse spectrum, tilted checks")
    common(sp)
    sp.add_argument("--q-min", type=_finite_float, default=-8.0)
    sp.add_argument("--q-max", type=_finite_float, default=8.0)
    sp.add_argument("--q-step", type=_finite_float, default=0.25)
    sp.add_argument("--k-max", type=int, default=1024)
    sp.add_argument("--r-octaves", type=int, default=16, help="finest scale as 2^-octaves")
    sp.add_argument("--epsilon", type=_finite_float, default=0.05)

    sp = sub.add_parser("moments", help="moment tables over octave scales")
    common(sp)
    sp.add_argument("--q-min", type=_finite_float, default=-2.0)
    sp.add_argument("--q-max", type=_finite_float, default=2.0)
    sp.add_argument("--q-step", type=_finite_float, default=0.5)
    sp.add_argument("--r-octaves", type=int, default=10)

    sp = sub.add_parser("sample", help="draw tilted addresses")
    common(sp, formats=("json",))
    sp.add_argument("--q", type=_finite_float, default=1.0)
    sp.add_argument("--t", type=_finite_float, default=0.0)
    sp.add_argument("--depth", type=int, default=16)
    sp.add_argument("--count", type=int, default=16)

    sp = sub.add_parser("verify", help="run the acceptance criteria end to end")
    sp.add_argument("--out", default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--force", action="store_true")
    sp.add_argument("--tol-scale", type=_finite_float, default=1.0,
                    help="scale the accuracy tolerances (0.1 tightens 10x)")
    sp.add_argument("--fixtures", default=None,
                    help="optional directory of spec fixtures to validate first")
    return p


def _q_grid(args) -> np.ndarray:
    if args.q_step <= 0 or args.q_min >= args.q_max:
        raise ValueError("need q_step > 0 and q_min < q_max")
    steps = (args.q_max - args.q_min) / args.q_step  # inf when the span overflows
    # whole steps that fit, so no point passes q_max; 1e-9 absorbs a quotient's rounding
    points = math.floor(steps + 1e-9) + 1 if math.isfinite(steps) else math.inf
    if points > Q_GRID_MAX_POINTS:
        raise ValueError(f"--q-step {args.q_step} from --q-min {args.q_min} to --q-max {args.q_max} "
                         f"gives {points} q points; at most {Q_GRID_MAX_POINTS} are allowed")
    return args.q_min + args.q_step * np.arange(points)


def _require_at_least(args, low: int, *options: str) -> None:
    """Usage error naming the first of ``options`` whose value is below ``low``."""
    for option in options:
        value = getattr(args, option.replace("-", "_"))
        if value < low:
            raise ValueError(f"--{option} must be at least {low}, got {value}")


def _k_max(args, spec) -> int:
    """--k-max, or the spec's depth_cap in its place, said in one stderr note."""
    if args.k_max <= spec.depth_cap:
        return args.k_max
    print(f"note: {args.command} uses k_max {spec.depth_cap}, the spec's depth_cap, "
          f"instead of {args.k_max}", file=sys.stderr)
    return spec.depth_cap


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


def _emit_table(out: Path, stem: str, columns, rows, header: dict, args) -> None:
    """One table as CSV or as a JSON record list, per --format."""
    rows = list(rows)
    line = meta_line(header["version"], header["config"], header["seed"])
    if args.format == "json":
        payload = {"meta": line.removeprefix("# "), "columns": list(columns),
                   "rows": [list(r) for r in rows]}
        _write(out / f"{stem}.json", json_bytes(payload), args.force)
    else:
        _write(out / f"{stem}.csv", csv_bytes(columns, rows, line), args.force)


def _header(args, spec) -> dict:
    """Every artifact's header: the version, a hash of the run configuration
    (numeric args plus spec content, not paths) and the seed."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("command", "out", "force", "spec")}
    cfg["spec"] = spec.as_dict()
    return {"version": __version__, "config": config_hash(cfg), "seed": args.seed}


def cmd_validate(args) -> list[str]:
    spec = validate_spec(load_spec(args.spec))
    print(json.dumps({"valid": True, "families": len(spec.families)}, sort_keys=True))
    return []


def cmd_dims(args) -> list[str]:
    _require_at_least(args, 1, "k-max")
    spec = validate_spec(load_spec(args.spec))
    grid = separator_grid(spec, _q_grid(args), _k_max(args, spec))
    out, header = _outdir(args), _header(args, spec)
    _emit_table(out, "separators", grid.csv_columns, grid.rows_csv(), header, args)
    diag = {"meta": header, "per_q": grid.diagnostics, "schedule": spec.schedule.as_dict()}
    if hasattr(spec.schedule, "boundary_ratios"):
        diag["boundary_ratios"] = list(spec.schedule.boundary_ratios)
    _write(out / "diagnostics.json", json_bytes(diag), args.force)
    return grid.check_invariants()


def cmd_spectrum(args) -> list[str]:
    _require_at_least(args, 1, "k-max", "r-octaves")
    spec = validate_spec(load_spec(args.spec))
    if args.epsilon <= 0:  # before the grid solve; coarse_spectrum checks it for library callers
        raise ValueError("epsilon must be positive")
    grid = separator_grid(spec, _q_grid(args), _k_max(args, spec))
    octaves = sorted({*range(max(4, args.r_octaves // 2), args.r_octaves + 1, 4), args.r_octaves})
    # the histogram samples cells past its enumeration cap, so no cell cap here
    r_list = _usable_radii("spectrum skips", spec, octaves, math.inf)
    alpha = np.round(np.arange(0.0, 2.5001, 0.025), 10)
    result = spectrum_result(spec, grid, alpha, r_list, epsilon=args.epsilon, seed=args.seed)
    out, header = _outdir(args), _header(args, spec)
    _emit_table(out, "legendre", ("alpha", "b_star", "B_star", "boundary_flag"),
                result.legendre_rows_csv(), header, args)
    _emit_table(out, "coarse", ("r", "alpha", "f_hat", "count"), result.coarse.rows_csv(),
                header, args)
    tilted = {"meta": header, "bounds": asdict(result.bounds),
              "checks": [asdict(t) for t in result.tilted]}
    _write(out / "tilted.json", json_bytes(tilted), args.force)
    return result.check_invariants()


def cmd_moments(args) -> list[str]:
    _require_at_least(args, 1, "r-octaves")
    spec = validate_spec(load_spec(args.spec))
    qs = _q_grid(args)
    r_list = _usable_radii("moments skip", spec, range(1, args.r_octaves + 1), MOMENT_MAX_CELLS)
    out, header = _outdir(args), _header(args, spec)
    # partition rows at the matched generations and at 2, 4 and 8, none past depth_cap
    ks = {matched_generation(spec, r) for r in r_list} | {k for k in (2, 4, 8) if k <= spec.depth_cap}
    tables = [partition_moment_table(spec, qs, ks), *counting_moment_table(spec, qs, r_list)]
    # the first table that fails names the problems, and nothing is written
    problems = next((found for table in tables if (found := table.check_invariants())), [])
    if not problems:
        rows = [row for table in tables for row in table.rows_csv()]
        _emit_table(out, "moments", ("kind", "q", "r", "value", "flag"), rows, header, args)
    return problems


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


def cmd_sample(args) -> list[str]:
    _require_at_least(args, 1, "depth")
    _require_at_least(args, 0, "count")
    spec = validate_spec(load_spec(args.spec))
    if args.depth > spec.depth_cap:
        raise ValueError(f"--depth {args.depth} exceeds the spec's depth_cap {spec.depth_cap}")
    paths, log_mass, log_len = sample_paths(spec, args.q, args.t, args.depth, args.count, args.seed)
    meta = {**_header(args, spec), "q": args.q, "t": args.t}
    _write(_outdir(args) / "samples.json",
           lambda f: write_samples(meta, paths, log_mass, log_len, f.write), args.force)
    return []


def cmd_verify(args) -> list[str]:
    if args.tol_scale <= 0:
        raise ValueError(f"--tol-scale must be positive, got {args.tol_scale}")
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
    return [f"criterion {res.cid}" for res in results if not res.passed]


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; pass --version/help through
        return int(e.code or 0)
    try:
        problems = globals()[f"cmd_{args.command}"](args)  # looked up per call, so tests can patch
    except SpecValidationError as e:
        print(json.dumps([asdict(v) for v in e.violations], sort_keys=True))
        return FAILURE
    except (FileNotFoundError, FileExistsError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except HsmfError as e:
        print(f"error: {e}", file=sys.stderr)
        return FAILURE
    if problems:
        print("invariant failures: " + "; ".join(problems), file=sys.stderr)
        return FAILURE
    return 0


if __name__ == "__main__":
    sys.exit(main())
