"""
Benchmark runner: runs one workload through the real ``hsmf`` CLI, checks
every output and prints the metrics named in ``BENCHMARK.json``::

    python3 -m perfbench.run --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the program is taken from ``src/``. Every
command is a fresh interpreter, started one at a time from this process, with
the BLAS/OpenMP thread pools set to one thread. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record (samples, problems, provenance, generated
inputs) goes to ``.perfbench_out/<workload>-seed<N>-trace<T>/result.json``.

``--trace 0`` measures the end-to-end metrics: a few cold ``validate`` runs
for ``setup_s``, then whole passes over the workload's commands until
``--seconds`` have passed (at least two, so every command also runs twice and
its files must match byte for byte). ``--trace 1`` runs one plain pass and one
pass with every layer wrapped in spans, command by command in turn, and
reports the per-layer metrics and the tracing overhead. ``--workload all`` runs every workload and prints one
row each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from . import checks
from .tracer import aggregate
from .workloads import WORKLOADS, Workload

WORK_DIR = Path(".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 2
COMMAND_TIMEOUT_S = 150.0
SHOWN_PROBLEMS = 20
OPS = {"==": operator.eq, ">": operator.gt}


@dataclass
class Sample:
    label: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    out: Path


@dataclass
class Pass:
    wall_s: float
    samples: list[Sample]
    spans: list[Path]


def run_process(argv: list[str], env: dict, log: Path) -> tuple[float, float, float, int]:
    """
    Run ``argv`` to completion with stdout to ``log`` and stderr next to it.
    Returns (wall s, user+sys CPU s, max RSS MB, exit code); a process still
    running after COMMAND_TIMEOUT_S is killed.
    """
    lock = threading.Lock()
    done = False
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def kill():
            with lock:
                if not done:
                    proc.kill()

        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        # wait without reaping, so the timer can never signal a recycled pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            done = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


def run_passes(wl: Workload, lanes: list[tuple[Path, bool]], env: dict) -> list[Pass]:
    """
    One pass per ``(directory, traced)`` lane. Each command runs once in every
    lane before the next command starts, so that lanes compared with each
    other (plain against traced) see the same machine state. A pass's wall
    time is the sum of its commands' wall times.
    """
    passes = []
    for pass_dir, _ in lanes:
        pass_dir.mkdir(parents=True)
        passes.append(Pass(0.0, [], []))
    for cmd in wl.commands:
        for (pass_dir, traced), p in zip(lanes, passes):
            out = pass_dir / cmd.label
            if traced:
                p.spans.append(pass_dir / f"{cmd.label}.spans.json")
                argv = [sys.executable, "-m", "perfbench.traced_cli", str(p.spans[-1]), "--"]
            else:
                argv = [sys.executable, "-m", "hsmf.cli"]
            argv += [*cmd.args, "--out", str(out)]
            wall, cpu, rss, code = run_process(argv, env, pass_dir / f"{cmd.label}.log")
            p.samples.append(Sample(cmd.label, wall, cpu, rss, code, out))
            p.wall_s += wall
    return passes


def run_setup(wl: Workload, run_dir: Path, env: dict) -> tuple[list[Sample], int, list[str]]:
    """
    One warm-up and SETUP_REPEATS timed cold ``validate`` runs of the first
    spec: (samples, failed runs, problems).
    """
    n_families = len(json.loads(Path(wl.setup_spec).read_text(encoding="utf-8"))["families"])
    argv = [sys.executable, "-m", "hsmf.cli", "validate", "--spec", wl.setup_spec]
    samples = []
    failed = 0
    problems = []
    for i in range(SETUP_REPEATS + 1):
        log = run_dir / f"setup-{i}.log"
        wall, cpu, rss, code = run_process(argv, env, log)
        found = checks.check_validate(log.read_text(encoding="ascii", errors="replace"), n_families)
        if code:
            found.append(f"exit code {code}")
        failed += bool(found)
        problems += [f"setup validate #{i}: {p}" for p in found]
        samples.append(Sample(f"setup-{i}", wall, cpu, rss, code, log))
    return samples, failed, problems


def same_files(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files_a)


def judge(wl: Workload, passes: list[Pass]) -> tuple[int, list[str]]:
    """
    (failed command runs, problems). The first pass's outputs are checked by
    value; a later run fails when it exits non-zero or its files differ from
    the first pass's (the byte-determinism check), and it repeats any failure
    of the first pass.
    """
    failed = 0
    problems = []
    first_ok = {}
    for cmd, s in zip(wl.commands, passes[0].samples):
        found = [f"exit code {s.exit_code}"] if s.exit_code else []
        if not found:
            try:
                found = cmd.check(s.out)
            except Exception as e:  # a malformed output must count as a failure, not stop the run
                found = [f"check raised {type(e).__name__}: {e}"]
        first_ok[cmd.label] = not found
        failed += bool(found)
        problems += [f"{cmd.label} pass 1: {p}" for p in found]
    for n, later in enumerate(passes[1:], start=2):
        for s, s0 in zip(later.samples, passes[0].samples):
            if s.exit_code:
                problems.append(f"{s.label} pass {n}: exit code {s.exit_code}")
            elif first_ok[s.label] and not same_files(s0.out, s.out):
                problems.append(f"{s.label} pass {n}: files differ from pass 1")
            elif first_ok[s.label]:
                continue
            failed += 1
    return failed, problems


def end_to_end(setup: list[Sample], passes: list[Pass]) -> tuple[dict, dict]:
    """End-to-end metric values, plus the sample counts behind them."""
    commands = [s for p in passes for s in p.samples]
    timed_setup = [s.wall_s for s in setup[1:]]
    per_command = {s.label: statistics.median(p.samples[i].wall_s for p in passes)
                   for i, s in enumerate(passes[0].samples)}
    slowest = max(per_command, key=per_command.get)
    values = {
        "run_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(math.fsum(s.cpu_s for s in p.samples) for p in passes),
        # Runs hold 2 to 15 command samples, too few for a percentile with ten
        # samples beyond it. The tail is the slowest command by its median over
        # the passes; the pooled maximum spreads too much from run to run.
        "cmd_tail_s": per_command[slowest],
        "setup_s": statistics.median(timed_setup),
        "peak_rss_mb": max(s.rss_mb for s in setup + commands),
    }
    counts = {"passes": len(passes), "command_samples": len(commands),
              "slowest_command": slowest, "setup_samples": len(timed_setup)}
    return values, counts


def per_layer(names: list[str], plain: Pass, traced: Pass) -> tuple[dict, dict, list[str]]:
    """
    Per-layer metric values from the traced pass's spans, the full aggregate,
    and problems: a command that left no spans, left a span unclosed, or whose
    top-level spans (``cli.import`` and ``cli.main``) take longer than the
    command's own wall time, was traced wrongly.
    """
    dumps = []
    problems = []
    for sample, path in zip(traced.samples, traced.spans):
        if not path.is_file():
            problems.append(f"traced {sample.label}: no spans written")
            continue
        dump = json.loads(path.read_text(encoding="ascii"))
        if any(s[3] < s[2] for s in dump["spans"]):
            problems.append(f"traced {sample.label}: a span was never closed")
        top_s = math.fsum(s[3] - s[2] for s in dump["spans"] if s[1] < 0)
        if top_s > sample.wall_s:
            problems.append(f"traced {sample.label}: top-level spans take {top_s:.4f} s, "
                            f"the command {sample.wall_s:.4f} s")
        dumps.append(dump)
    agg = aggregate(dumps)
    wrapped_s = math.fsum(v for k, v in agg.items() if k.endswith(".s"))
    md_calls = agg.get("spectrum.mass_distribution.calls", 0)
    derived = {
        "trace.run_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        # interpreter start and exit, and the tracer's own imports and dump
        "trace.unwrapped_s": traced.wall_s - wrapped_s,
        "spectrum.mass_distribution.exact_ratio":
            agg.get("spectrum.mass_distribution.exact", 0) / md_calls if md_calls else 0.0,
    }
    values = {name: derived[name] if name in derived else agg.get(name, 0) for name in names}
    return values, agg, problems


def machine(seed: int) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted([*Path("src").rglob("*.py"), *Path("specs").glob("*.json")]):
        digest.update(str(path).encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


def git_commit() -> str | None:
    """HEAD's commit of the repository in the working directory; None outside one."""
    try:
        # --git-dir stops git from searching the parent directories for a repository
        done = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def self_checks(wl: Workload) -> list[str]:
    """Generated specs must pass the program's own validation and use the Newton path."""
    from hsmf import HsmfError, load_spec, validate_spec

    problems = []
    for path in wl.generated:
        try:
            spec = validate_spec(load_spec(path))
        except (HsmfError, ValueError) as e:
            problems.append(f"{path}: {e}")
            continue
        if all(f.constant_ratio for f in spec.families):
            problems.append(f"{path}: no family with non-constant ratios")
    return problems


def run_workload(name: str, seed: int, seconds: int, trace: bool, bench: dict) -> dict:
    run_dir = WORK_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    record = {"workload": name, "trace": int(trace), "machine": machine(seed)}
    wl = WORKLOADS[name](seed, inputs)
    record["generated_inputs"] = wl.generated
    problems = self_checks(wl)
    env = child_env(Path.cwd())

    setup = []
    failed = 0
    if trace:
        passes = run_passes(wl, [(run_dir / "pass-1", False), (run_dir / "pass-2", True)], env)
    else:
        setup, failed, setup_problems = run_setup(wl, run_dir, env)
        problems += setup_problems
        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes += run_passes(wl, [(run_dir / f"pass-{len(passes) + 1}", False)], env)
    run_failed, run_problems = judge(wl, passes)
    failed += run_failed
    problems += run_problems
    attempted = len(setup) + sum(len(p.samples) for p in passes)

    metric_defs = bench["per_layer"] if trace else bench["end_to_end"]
    if trace:
        values, agg, trace_problems = per_layer([m["name"] for m in metric_defs], *passes)
        problems += trace_problems
        for metric, op, want in wl.expect:
            if not OPS[op](agg.get(metric, 0), want):
                problems.append(f"traced pass: expected {metric} {op} {want}, got {agg.get(metric, 0)}")
        record["counts"] = {"passes": 2, "spans": sum(v for k, v in agg.items() if k.endswith(".calls"))}
    else:
        values, record["counts"] = end_to_end(setup, passes)
        values["pass_ratio"] = 1.0 - failed / attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_defs}
    record.update(
        correct=not problems and failed == 0, attempted=attempted, failed=failed,
        fail_ratio=failed / attempted, metrics=metrics, problems=problems,
        samples=[{"label": s.label, "wall_s": s.wall_s, "cpu_s": s.cpu_s, "rss_mb": s.rss_mb,
                  "exit_code": s.exit_code} for s in setup + [s for p in passes for s in p.samples]],
        pass_wall_s=[p.wall_s for p in passes],
    )
    record["machine"]["loadavg_end"] = os.getloadavg()
    if not problems:
        for p in run_dir.glob("pass-*"):
            shutil.rmtree(p)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                         encoding="utf-8")
    return record


def print_rows(records: list[dict]) -> None:
    for rec in records:
        print(f"== {rec['workload']} (trace {rec['trace']}): correct={rec['correct']} "
              f"attempted={rec['attempted']} failed={rec['failed']} "
              f"fail_ratio={rec['fail_ratio']:.4f}")
        m = rec["machine"]
        print(f"   nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
              f"numpy={m['numpy']} scipy={m['scipy']} commit={m['git_commit']} seed={m['seed']} "
              f"load={m['loadavg_start'][0]:.2f}->{m['loadavg_end'][0]:.2f} counts={rec['counts']}")
        for problem in rec["problems"][:SHOWN_PROBLEMS]:
            print(f"   problem: {problem}")
    names = list(records[0]["metrics"])
    if len(names) <= 8:
        print(" ".join([f"{'workload':<16}"] + [f"{n:>14}" for n in names]))
        print(" ".join([f"{'':<16}"] + [f"{'[' + records[0]['metrics'][n]['unit'] + ']':>14}"
                                         for n in names]))
        for rec in records:
            print(" ".join([f"{rec['workload']:<16}"]
                           + [f"{rec['metrics'][n]['value']:>14.6g}" for n in names]))
    else:
        for rec in records:
            for n, m in rec["metrics"].items():
                print(f"{rec['workload']:<16} {n:<44} {m['value']:>14.6g} {m['unit']}")


def main() -> int:
    p = argparse.ArgumentParser(prog="perfbench.run", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    missing = [f for f in ("src/hsmf/cli.py", "specs", "BENCHMARK.json") if not Path(f).exists()]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace), bench) for n in names]
    print_rows(records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
