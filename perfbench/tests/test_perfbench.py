"""Tests of the benchmark itself: span arithmetic, references and failure counting."""

import json
from pathlib import Path

import pytest

from perfbench import checks, reference
from perfbench.run import Pass, Sample, judge, per_layer
from perfbench.traced_cli import RETURN_STATS, WRAPPED
from perfbench.tracer import Recorder, aggregate, self_times
from perfbench.workloads import Command, Workload

UNIFORM = {
    "families": [{"probs": [0.5, 0.5], "ratios": [0.5, 0.5]}],
    "schedule": {"type": "constant", "family": 0},
    "gap_policy": "no_gaps",
    "depth_cap": 64,
}
QS = reference.q_grid(-2.0, 2.0, 0.5)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
    spans = [[0, -1, 0.0, 10.0, 0], [1, 0, 1.0, 4.0, 0], [2, 1, 2.0, 3.0, 1], [1, 0, 5.0, 9.0, 0]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    agg = aggregate([{"names": ["m.a", "m.b", "k.c"], "spans": spans, "stats": {}}])
    assert agg["m.a.s"] == 3.0 and agg["m.b.s"] == 6.0 and agg["k.c.s"] == 1.0
    assert agg["m.b.incl_s"] == 7.0 and agg["m.b.calls"] == 2
    assert agg["k.raised"] == 1 and agg["m.raised"] == 0


def test_recorder_nests_wrapped_calls_and_counts_raises():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("x.inner", lambda n: list(range(n)), (("x.items", "sum", len),))

    def outer(n):
        if n < 0:
            raise ValueError(n)
        return inner(n) + inner(n)

    outer = rec.wrap("x.outer", outer)
    assert outer(2) == [0, 1, 0, 1]
    with pytest.raises(ValueError):
        outer(-1)
    agg = aggregate([json.loads(json.dumps(rec.dump()))])
    assert agg["x.outer.calls"] == 2 and agg["x.inner.calls"] == 2
    assert agg["x.items"] == 4 and agg["x.raised"] == 1
    # each inner span lasts one tick; the first outer call lasts five
    assert agg["x.inner.s"] == 2.0 and agg["x.outer.s"] == (5.0 - 2.0) + 1.0


def test_bisection_reference_gives_one_minus_q_on_uniform_spec():
    for q in QS:
        assert reference.beta_bisect(UNIFORM, [1], q) == pytest.approx(1.0 - q, abs=1e-14)


def _write_separators(out: Path, rows):
    out.mkdir(parents=True)
    lines = ["# hsmf test", "q,b,B,Lambda,Theta,Delta,osc,converged"]
    lines += [f"{q!r},{b!r},{B!r},{B!r},0,0,0,true" for q, b, B in rows]
    (out / "separators.csv").write_text("\n".join(lines) + "\n", encoding="ascii")


def test_corrupted_or_nondeterministic_output_counts_as_failure(tmp_path):
    good = [(q, 1.0 - q, 1.0 - q) for q in QS]
    bad = [(q, b + (1e-6 if q == 0.5 else 0.0), B) for q, b, B in good]
    wl = Workload("t", [Command("dims", (), lambda out: checks.check_separators(
        out, checks.newton_envelope(UNIFORM, QS)))], "")

    def passes(case, first, second):
        for name, rows in (("p1", first), ("p2", second)):
            _write_separators(tmp_path / case / name, rows)
        return [Pass(1.0, [Sample("dims", 1.0, 1.0, 1.0, 0, tmp_path / case / p)], [])
                for p in ("p1", "p2")]

    assert judge(wl, passes("good", good, good)) == (0, [])
    failed, problems = judge(wl, passes("bad", bad, bad))
    assert failed == 2 and "b(q=0.5)" in problems[0]
    failed, problems = judge(wl, passes("drift", good, bad))
    assert failed == 1 and "differ" in problems[0]


def test_every_per_layer_metric_is_produced_by_the_tracer():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    spans = {f"{layer}.{fn}" for layer, fns in WRAPPED.items() for fn in fns} | {"cli.import", "cli.main"}
    stats = {metric for specs in RETURN_STATS.values() for metric, _, _ in specs}
    derived = {"trace.run_s", "trace.overhead_s", "trace.unwrapped_s",
               "spectrum.mass_distribution.exact_ratio"}
    layers = {name.split(".")[0] for name in spans}
    for m in bench["per_layer"]:
        name = m["name"]
        base, _, stat = name.rpartition(".")
        assert (name in derived or name in stats
                or (stat in ("s", "incl_s", "calls") and base in spans)
                or (stat == "raised" and base in layers)), name


def test_traced_pass_flags_missing_unclosed_or_overlong_spans(tmp_path):
    def dump(path, spans):
        path.write_text(json.dumps({"names": ["cli.import", "cli.main"], "spans": spans,
                                    "stats": {}, "exit": 0}), encoding="ascii")
        return path

    good = dump(tmp_path / "good.json", [[0, -1, 0.0, 0.5, 0], [1, -1, 0.5, 1.0, 0]])
    unclosed = dump(tmp_path / "unclosed.json", [[0, -1, 0.0, 0.5, 0], [1, -1, 0.5, 0.0, 0]])
    overlong = dump(tmp_path / "overlong.json", [[0, -1, 0.0, 0.5, 0], [1, -1, 0.5, 3.0, 0]])
    plain = Pass(4.0, [Sample(n, 1.0, 1.0, 1.0, 0, tmp_path) for n in "abcd"], [])
    traced = Pass(4.5, [Sample(n, 1.2, 1.0, 1.0, 0, tmp_path) for n in "abcd"],
                  [good, unclosed, overlong, tmp_path / "missing.json"])
    values, _, problems = per_layer(["cli.main.s", "trace.overhead_s"], plain, traced)
    assert values["trace.overhead_s"] == 0.5
    assert [p.split(":")[0] for p in problems] == ["traced b", "traced c", "traced d"]
    assert "never closed" in problems[0] and "3.0000 s" in problems[1] and "no spans" in problems[2]
