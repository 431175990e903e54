"""CLI behavior: exit codes, artifact formats, byte determinism."""

import argparse
import ast
import inspect
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_ball_mass import random_specs

from hsmf import GapPolicy, GenerationFamily, HsmfError, cli
from hsmf.output import json_bytes

VALID_SPEC = {
    "families": [{"probs": [0.25, 0.75], "ratios": [0.5, 0.5]}],
    "schedule": {"type": "constant", "family": 0},
    "gap_policy": "no_gaps",
    "depth_cap": 64,
}
SPECS = Path(__file__).resolve().parents[1] / "specs"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "hsmf.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(VALID_SPEC))
    return path


def test_version_and_usage_exit_codes():
    assert run_cli("--version").returncode == 0
    assert run_cli().returncode == 2          # missing subcommand
    assert run_cli("dims").returncode == 2    # missing --spec


def test_validate_ok(spec_file):
    proc = run_cli("validate", "--spec", str(spec_file))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


def test_validate_invariant_failure(tmp_path):
    bad = dict(VALID_SPEC, families=[{"probs": [0.5, 0.6], "ratios": [0.5, 0.5]}])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    proc = run_cli("validate", "--spec", str(path))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report[0]["code"] == "NonProbabilityVector"


def test_validate_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli("validate", "--spec", str(path))
    assert proc.returncode == 2


def test_validate_unknown_key_is_parse_error(tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(dict(VALID_SPEC, surprise=1)))
    proc = run_cli("validate", "--spec", str(path))
    assert proc.returncode == 2


def test_missing_spec_file_exits_2(tmp_path):
    proc = run_cli("dims", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path))
    assert proc.returncode == 2


def test_dims_outputs_and_determinism(spec_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["dims", "--spec", str(spec_file), "--q-min", "-2", "--q-max", "2",
            "--q-step", "0.5", "--k-max", "64", "--seed", "0"]
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    for name in ("separators.csv", "diagnostics.json"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, f"{name} not byte-identical"
    header = (out1 / "separators.csv").read_text().splitlines()
    assert header[0].startswith("# hsmf 0.1.0 config=")
    assert header[1] == "q,b,B,Lambda,Theta,Delta,osc,converged"


def test_dims_block_diagnostics_report_attainment(tmp_path):
    spec_path = Path(__file__).parent.parent / "specs" / "block_switched.json"
    out = tmp_path / "out"
    proc = run_cli("dims", "--spec", str(spec_path), "--q-min", "-1", "--q-max", "1",
                   "--q-step", "1", "--k-max", "1048576", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    per_q = json.loads((out / "diagnostics.json").read_text())["per_q"]
    endpoints = {1, 3, 4, 63, 64, 4095, 4096, 1048575, 1048576}
    assert len(per_q) == 3
    for d in per_q:
        assert d["window"] == [1, 1048576]
        assert d["generations"] == len(endpoints)
        assert d["k_b"] in endpoints and d["k_B"] in endpoints
    assert (out / "separators.csv").read_text().splitlines()[1] == (
        "q,b,B,Lambda,Theta,Delta,osc,converged"
    )


def test_dims_uniform_rows(tmp_path):
    spec = dict(VALID_SPEC, families=[{"probs": [0.5, 0.5], "ratios": [0.5, 0.5]}])
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    proc = run_cli("dims", "--spec", str(path), "--q-min", "-2", "--q-max", "2",
                   "--q-step", "1", "--out", str(out))
    assert proc.returncode == 0
    lines = (out / "separators.csv").read_text().splitlines()[2:]
    for line in lines:
        parts = line.split(",")
        q, b = float(parts[0]), float(parts[1])
        assert b == pytest.approx(1 - q, abs=1e-12)


def test_overwrite_requires_force(spec_file, tmp_path):
    out = tmp_path / "out"
    args = ["dims", "--spec", str(spec_file), "--out", str(out)]
    assert run_cli(*args).returncode == 0
    assert run_cli(*args).returncode == 2  # refuses to overwrite
    assert run_cli(*args, "--force").returncode == 0


def test_spectrum_outputs(spec_file, tmp_path):
    out = tmp_path / "spec_out"
    proc = run_cli(
        "spectrum", "--spec", str(spec_file), "--q-min", "-6", "--q-max", "6",
        "--q-step", "0.5", "--k-max", "64", "--r-octaves", "12", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("legendre.csv", "coarse.csv", "tilted.json"):
        assert (out / name).exists()
    tilted = json.loads((out / "tilted.json").read_text())
    assert {c["q"] for c in tilted["checks"]} == {0.0, 1.0, 2.0}
    # empty coarse bins keep an empty f_hat field, never a numeric sentinel
    rows = (out / "coarse.csv").read_text().splitlines()[2:]
    empties = [r for r in rows if r.split(",")[2] == ""]
    assert empties, "expected some empty bins"
    for r in empties:
        assert r.split(",")[3] == "0"


def test_moments_output(spec_file, tmp_path):
    out = tmp_path / "m"
    proc = run_cli("moments", "--spec", str(spec_file), "--r-octaves", "8", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[1] == "kind,q,r,value,flag"
    kinds = {line.split(",")[0] for line in lines[2:]}
    assert kinds == {
        "partition_moment", "covering_count", "packing_count",
        "covering_moment", "packing_moment",
    }
    flagged = [l for l in lines[2:] if l.endswith(",heuristic")]
    assert flagged and all(float(l.split(",")[1]) < 0 for l in flagged)


def test_sample_output_deterministic(spec_file, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["sample", "--spec", str(spec_file), "--q", "2", "--t", "0",
            "--depth", "10", "--count", "5", "--seed", "7"]
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert (out1 / "samples.json").read_bytes() == (out2 / "samples.json").read_bytes()
    payload = json.loads((out1 / "samples.json").read_text())
    assert len(payload["samples"]) == 5
    assert all(len(s["path"]) == 10 for s in payload["samples"])


def test_dims_json_format(spec_file, tmp_path):
    out = tmp_path / "j"
    proc = run_cli("dims", "--spec", str(spec_file), "--q-min", "-1", "--q-max", "1",
                   "--q-step", "1", "--format", "json", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((out / "separators.json").read_text())
    assert payload["columns"][0] == "q"
    assert len(payload["rows"]) == 3


@pytest.mark.parametrize("command, extra, stem", [
    ("dims", ("--q-min", "-1", "--q-max", "1", "--q-step", "1", "--k-max", "16"), "separators"),
    ("moments", ("--r-octaves", "4"), "moments"),
])
def test_json_format_holds_the_csv_table(spec_file, tmp_path, command, extra, stem):
    """--format json writes the CSV run's columns and rows and its meta line
    without "# ", under the JSON run's own config hash (the hash covers
    --format), and no CSV file."""
    from hsmf.specs import load_spec

    argv = [command, "--spec", str(spec_file), *extra]
    assert cli.main([*argv, "--out", str(tmp_path / "csv")]) == 0
    assert cli.main([*argv, "--format", "json", "--out", str(tmp_path / "json")]) == 0
    meta, columns, *rows = (tmp_path / "csv" / f"{stem}.csv").read_text().splitlines()
    payload = json.loads((tmp_path / "json" / f"{stem}.json").read_text())
    assert payload["columns"] == columns.split(",")
    assert payload["rows"] == [row.split(",") for row in rows]
    csv_hash, json_hash = (cli._header(cli._parser().parse_args(a), load_spec(spec_file))["config"]
                           for a in (argv, [*argv, "--format", "json"]))
    assert payload["meta"] == meta.removeprefix("# ").replace(csv_hash, json_hash)
    assert not list((tmp_path / "json").glob("*.csv"))


def test_validate_prints_the_violation_json(tmp_path, capsys):
    path = tmp_path / "empty_pattern.json"
    path.write_text(json.dumps(dict(VALID_SPEC, schedule={"type": "periodic", "pattern": []})))
    assert cli.main(["validate", "--spec", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == [{"code": "BadSchedule", "where": "schedule.pattern",
                                "message": "must be non-empty"}]


@pytest.fixture()
def no_criteria(monkeypatch):
    """``verify.run_verify`` replaced by one that fails the test: fixtures are
    checked before any criterion runs."""
    from hsmf import verify

    def run_verify(seed, tol_scale):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(verify, "run_verify", run_verify)


def test_verify_missing_fixture_dir_exits_2(tmp_path, capsys, no_criteria):
    missing = tmp_path / "missing"
    assert cli.main(["verify", "--out", str(tmp_path / "v"), "--fixtures", str(missing)]) == 2
    assert capsys.readouterr() == ("", f"error: fixture directory {missing} not found\n")
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("scale", ["0", "-1"])
def test_verify_refuses_a_non_positive_tol_scale(tmp_path, capsys, no_criteria, scale):
    out = tmp_path / "v"
    assert cli.main(["verify", f"--tol-scale={scale}", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: --tol-scale must be positive, got {float(scale)}\n")
    assert not out.exists()


def test_shipped_specs_validate():
    from hsmf import verify
    from hsmf.specs import load_spec

    specs_dir = Path(__file__).parent.parent / "specs"
    files = sorted(specs_dir.glob("*.json"))
    assert len(files) == 6
    for f in files:
        proc = run_cli("validate", "--spec", str(f))
        assert proc.returncode == 0, (f.name, proc.stdout, proc.stderr)
    # the benchmark and the CLI tests run on the acceptance suite's own measures
    factories = {"uniform": verify.spec_uniform, "binomial_quarter": verify.spec_binomial,
                 "middle_thirds": verify.spec_middle_thirds, "periodic_two_family": verify.spec_periodic,
                 "block_switched": verify.spec_block, "switching_binomial": verify.spec_switching}
    assert sorted(factories) == [f.stem for f in files]
    for name, factory in factories.items():
        assert load_spec(specs_dir / f"{name}.json") == factory(), name


def test_verify_invalid_fixture_exits_1(tmp_path, capsys, no_criteria):
    fdir = tmp_path / "fixtures"
    fdir.mkdir()
    (fdir / "bad.json").write_text(json.dumps(dict(VALID_SPEC, depth_cap=0)))
    assert cli.main(["verify", "--out", str(tmp_path / "v"), "--fixtures", str(fdir)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == [{"code": "BadSchedule", "where": "depth_cap",
                                "message": "must be a positive integer"}]
    assert not (tmp_path / "v").exists()


def test_dims_without_theta_delta_scales_keeps_b_and_B(tmp_path):
    # at k_max 8 a 0.95 ratio leaves the cross-check table less than 4
    # octaves wide: Theta/Delta are missing, the envelope route still reports
    spec = dict(VALID_SPEC, families=[{"probs": [0.5, 0.5], "ratios": [0.95, 0.05]}])
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    proc = run_cli("dims", "--spec", str(path), "--q-min", "-2", "--q-max", "2",
                   "--q-step", "1", "--k-max", "8", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = (out / "separators.csv").read_text().splitlines()[2:]
    assert len(rows) == 5
    for row in rows:
        _, b, B, _, theta, delta, _, _ = row.split(",")
        assert math.isfinite(float(b)) and math.isfinite(float(B))
        assert theta == delta == "nan"
    per_q = json.loads((out / "diagnostics.json").read_text())["per_q"]
    assert all(d["theta_delta"] == "scales must span at least 4 octaves" for d in per_q)


LOPSIDED = Path(__file__).resolve().parent / "fixtures" / "lopsided.json"


def test_dims_theta_delta_finite_at_wide_q(tmp_path):
    # S_k(-20, 0) passes the double range by generation 8; the cross-check
    # is taken from logs, so it still spans [k_max/16, k_max]
    out = tmp_path / "out"
    proc = run_cli("dims", "--spec", str(LOPSIDED), "--q-min", "-20", "--q-max", "20",
                   "--q-step", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = (out / "separators.csv").read_text().splitlines()[2:]
    assert len(rows) == 41
    for row in rows:
        _, _, _, _, theta, delta, _, _ = row.split(",")
        assert math.isfinite(float(theta)) and math.isfinite(float(delta))
    per_q = json.loads((out / "diagnostics.json").read_text())["per_q"]
    assert not any("theta_delta" in d for d in per_q)


def test_moments_past_double_range_write_inf(tmp_path):
    out = tmp_path / "m"
    proc = run_cli("moments", "--spec", str(LOPSIDED), "--q-min", "-50", "--q-max", "0",
                   "--q-step", "50", "--r-octaves", "4", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    values = [line.split(",")[3] for line in (out / "moments.csv").read_text().splitlines()[2:]
              if line.startswith("partition_moment,-50,")]
    assert len(values) == 4 and "inf" in values
    assert all(v == "inf" or float(v) < math.exp(700.0) for v in values)


def test_moments_overflowing_greedy_moments_write_inf_without_warning(tmp_path):
    out = tmp_path / "m"
    proc = run_cli("moments", "--spec", str(LOPSIDED), "--q-min", "-50", "--q-max", "50",
                   "--q-step", "50", "--r-octaves", "12", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    rows = [line.split(",") for line in (out / "moments.csv").read_text().splitlines()[2:]]
    for kind in ("covering_moment", "packing_moment"):
        assert any(r[0] == kind and r[3] == "inf" for r in rows)


def test_moments_name_the_scales_they_skip(tmp_path):
    # binomial_quarter has 2^17 cells at the generation matched to 2^-17
    out = tmp_path / "m"
    proc = run_cli("moments", "--spec", str(SPECS / "binomial_quarter.json"),
                   "--r-octaves", "20", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("note: moments skip r = 2^-17..2^-20: their matched generation "
                           "has more than 65536 cells\n")
    scales = {line.split(",")[2] for line in (out / "moments.csv").read_text().splitlines()[2:]
              if line.startswith("covering_count,")}
    assert min(map(float, scales)) == 2.0**-16
    # the fixed-radius benchmark setting skips nothing
    proc = run_cli("moments", "--spec", str(SPECS / "binomial_quarter.json"),
                   "--r-octaves", "15", "--out", str(tmp_path / "m15"))
    assert proc.returncode == 0 and proc.stderr == ""
    # below the depth_cap resolution
    shallow = tmp_path / "shallow.json"
    shallow.write_text(json.dumps(dict(VALID_SPEC, depth_cap=12)))
    proc = run_cli("moments", "--spec", str(shallow), "--r-octaves", "14",
                   "--out", str(tmp_path / "m14"))
    assert proc.returncode == 0
    assert proc.stderr == ("note: moments skip r = 2^-13..2^-14: no generation within "
                           "depth_cap 12 resolves them\n")


def test_spectrum_skips_the_radii_it_cannot_reach(tmp_path):
    spec = json.loads((SPECS / "uniform.json").read_text())
    shallow = tmp_path / "shallow.json"
    shallow.write_text(json.dumps(dict(spec, depth_cap=10)))
    out = tmp_path / "s"
    proc = run_cli("spectrum", "--spec", str(shallow), "--r-octaves", "16", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("note: spectrum uses k_max 10, the spec's depth_cap, instead of 1024\n"
                           "note: spectrum skips r = 2^-12, 2^-16: no generation within "
                           "depth_cap 10 resolves them\n")
    scales = {line.split(",")[0] for line in (out / "coarse.csv").read_text().splitlines()[2:]}
    assert scales == {"0.00390625"}
    assert (out / "legendre.csv").is_file() and (out / "tilted.json").is_file()
    # no radius reachable: a header-only coarse.csv, the rest as usual
    shallow.write_text(json.dumps(dict(spec, depth_cap=2)))
    out = tmp_path / "s2"
    proc = run_cli("spectrum", "--spec", str(shallow), "--r-octaves", "16", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("note: spectrum uses k_max 2, the spec's depth_cap, instead of 1024\n"
                           "note: spectrum skips r = 2^-8, 2^-12, 2^-16: no generation within "
                           "depth_cap 2 resolves them\n")
    assert (out / "coarse.csv").read_text().splitlines()[1:] == ["r,alpha,f_hat,count"]
    assert (out / "legendre.csv").is_file() and (out / "tilted.json").is_file()


@pytest.mark.parametrize("spec_name, q, depth, count", [
    pytest.param("binomial_quarter", 2.0, 64, 512, id="binomial_quarter-2.0-64"),
    pytest.param("block_switched", 0.5, 40, 512, id="block_switched-0.5-40"),
    pytest.param("binomial_quarter", 2.0, 64, 0, id="count-0"),
    pytest.param("binomial_quarter", 2.0, 64, 1, id="count-1"),
    pytest.param("block_switched", 0.5, 40, 2 * 512 + 37, id="count-off-batch"),
    pytest.param("binomial_quarter", 2.0, 1, 700, id="depth-1"),
    # child indices of two digits, and of three in int16 paths
    pytest.param("arity_12", 2.0, 16, 600, id="arity-12"),
    pytest.param("arity_300", 0.5, 8, 600, id="arity-300"),
])
def test_sample_json_equals_stdlib_encoding_of_per_element_records(tmp_path, tmp_path_factory,
                                                                    spec_name, q, depth, count):
    from hsmf import cli, output
    from hsmf.specs import load_spec, sample_paths

    assert output.SAMPLE_BATCH == 512  # the counts above straddle batch boundaries
    spec = SPECS / f"{spec_name}.json"
    if spec_name.startswith("arity_"):
        n = int(spec_name.removeprefix("arity_"))
        spec = tmp_path_factory.mktemp("spec") / f"{spec_name}.json"
        family = {"probs": [(i + 1) / (n * (n + 1) / 2) for i in range(n)], "ratios": [1 / n] * n}
        spec.write_text(json.dumps(dict(VALID_SPEC, families=[family])))
    seed = 3
    assert cli.main(["sample", "--spec", str(spec), "--q", str(q), "--t", "0", "--depth",
                     str(depth), "--count", str(count), "--seed", str(seed),
                     "--out", str(tmp_path)]) == 0
    written = (tmp_path / "samples.json").read_bytes()
    paths, log_mass, log_len = sample_paths(load_spec(spec), q, 0.0, depth, count, seed)
    records = [
        {
            "path": [int(i) for i in paths[j]],
            "log_mass": float(log_mass[j]),
            "log_length": float(log_len[j]),
            "alpha_hat": float(log_mass[j] / log_len[j]),
        }
        for j in range(count)
    ]
    payload = {"meta": json.loads(written)["meta"], "samples": records}
    oracle = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    assert written == oracle.encode("ascii")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["samples.json"]


def test_sample_default_format_keeps_config_hash(tmp_path):
    """The hash of a run without --format, as written before csv was refused on sample."""
    proc = run_cli("sample", "--spec", str(SPECS / "binomial_quarter.json"), "--q", "2",
                   "--t", "0", "--depth", "64", "--count", "0", "--seed", "11",
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "samples.json").read_text())["meta"]["config"] == "999261816d70"


@pytest.mark.parametrize("bad, message", [(("--depth", "0"), "--depth must be at least 1"),
                                          (("--depth", "-3"), "--depth must be at least 1"),
                                          (("--format", "csv"), "invalid choice: 'csv'"),
                                          (("--count", "-2"), "--count must be at least 0")],
                         ids=["depth-0", "depth-negative", "format-csv", "count-negative"])
def test_sample_usage_errors_write_nothing(spec_file, tmp_path, bad, message):
    out = tmp_path / "s"
    proc = run_cli("sample", "--spec", str(spec_file), "--count", "3", "--out", str(out), *bad)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Warning" not in proc.stderr
    assert not out.exists()


def test_sample_depth_past_depth_cap_is_a_usage_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cap4.json"
    path.write_text(json.dumps(dict(VALID_SPEC, depth_cap=4)))

    def no_sampling(*args):
        raise AssertionError("sample_paths ran")

    monkeypatch.setattr(cli, "sample_paths", no_sampling)
    out = tmp_path / "s"
    assert cli.main(["sample", "--spec", str(path), "--depth", "10", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: --depth 10 exceeds the spec's depth_cap 4\n")
    assert not out.exists()


def test_sample_with_no_finite_tilted_weight_exits_1(tmp_path, capsys):
    # q log p + t log c overflows to -inf at every child, so no weight is finite; the
    # draw once went on without a word and took child 1 at every generation
    out = tmp_path / "s"
    argv = ["sample", "--spec", str(SPECS / "middle_thirds.json"), "--q", "1.5e308", "--t", "1.5e308",
            "--depth", "4", "--count", "6", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    assert capsys.readouterr() == (
        "", "error: tilted weights at q=1.5e+308, t=1.5e+308 are not finite at generation 1\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "dims", "spectrum", "moments"])
def test_block_boundary_past_2_to_53_is_a_violation(tmp_path, capsys, command):
    # such a spec once validated, and dims, spectrum and moments died converting the
    # boundary to int64
    spec = json.loads((SPECS / "block_switched.json").read_text(encoding="utf-8"))
    spec["schedule"]["boundaries"][-1] = 10**30
    path = tmp_path / "far.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "o"
    assert cli.main([command, "--spec", str(path), *(["--out", str(out)] if command != "validate" else [])]) == 1
    assert json.loads(capsys.readouterr().out) == [
        {"code": "BadSchedule", "where": "schedule.boundaries", "message": "must be at most 2**53"}]
    assert not out.exists()


def test_depth_cap_past_2_to_53_is_a_violation(tmp_path, capsys):
    # dims once died casting the generations to int64
    spec = json.loads((SPECS / "binomial_quarter.json").read_text(encoding="utf-8"))
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(dict(spec, depth_cap=10**30)))
    assert cli.main(["dims", "--spec", str(path), "--k-max", str(10**20), "--out", str(tmp_path / "o")]) == 1
    assert json.loads(capsys.readouterr().out) == [
        {"code": "BadSchedule", "where": "depth_cap", "message": "must be at most 2**53"}]
    path.write_text(json.dumps(dict(spec, depth_cap=2**53)))
    assert cli.main(["validate", "--spec", str(path)]) == 0


@pytest.mark.parametrize("command, extra, stem", [("dims", (), "separators"),
                                                   ("spectrum", ("--r-octaves", "4"), "legendre")])
def test_k_max_past_depth_cap_is_noted(tmp_path, capsys, command, extra, stem):
    path = tmp_path / "cap4.json"
    path.write_text(json.dumps(dict(VALID_SPEC, depth_cap=4)))
    bodies = {}
    for k_max, note in (("100", f"note: {command} uses k_max 4, the spec's depth_cap, instead of 100\n"),
                        ("4", "")):
        out = tmp_path / k_max
        assert cli.main([command, "--spec", str(path), "--k-max", k_max, *extra, "--out", str(out)]) == 0
        assert capsys.readouterr().err == note
        bodies[k_max] = (out / f"{stem}.csv").read_text().splitlines()[1:]  # past the meta line
    # the note is the only difference: the run is the one at k_max = depth_cap
    assert bodies["100"] == bodies["4"]


def test_dims_periodic_envelope_is_exact_at_unaligned_k_max(tmp_path):
    # periodic_two_family has period 2: beta_1001 wobbles off beta_2, the limit
    out = tmp_path / "d"
    assert cli.main(["dims", "--spec", str(SPECS / "periodic_two_family.json"), "--k-max", "1001",
                     "--out", str(out)]) == 0
    lines = (out / "separators.csv").read_text().splitlines()[1:]
    columns = lines[0].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in lines[1:]]
    assert rows and all(r["osc"] == "0" and r["converged"] == "true" and r["b"] == r["B"] for r in rows)
    per_q = json.loads((out / "diagnostics.json").read_text())["per_q"]
    assert all(d["window"] == [2, 2] and d["oscillation"] == 0.0 and d["converged"] for d in per_q)


@pytest.mark.parametrize("command, bad, message", [
    ("dims", ("--k-max", "0"), "--k-max must be at least 1, got 0"),
    ("dims", ("--k-max", "-3"), "--k-max must be at least 1, got -3"),
    ("spectrum", ("--k-max", "0"), "--k-max must be at least 1, got 0"),
    ("spectrum", ("--r-octaves", "0"), "--r-octaves must be at least 1, got 0"),
    ("moments", ("--r-octaves", "0"), "--r-octaves must be at least 1, got 0"),
], ids=["dims-k-max-0", "dims-k-max-negative", "spectrum-k-max-0", "spectrum-r-octaves-0",
        "moments-r-octaves-0"])
def test_scale_usage_errors_write_nothing(tmp_path, command, bad, message):
    out = tmp_path / "s"
    proc = run_cli(command, "--spec", str(SPECS / "block_switched.json"), "--out", str(out), *bad)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not out.exists()


FLOAT_OPTIONS = [("dims", "--q-min"), ("dims", "--q-max"), ("dims", "--q-step"),
                 ("spectrum", "--q-min"), ("spectrum", "--q-max"), ("spectrum", "--q-step"),
                 ("spectrum", "--epsilon"),
                 ("moments", "--q-min"), ("moments", "--q-max"), ("moments", "--q-step"),
                 ("sample", "--q"), ("sample", "--t"),
                 ("verify", "--tol-scale")]


def test_float_options_are_the_listed_ones():
    subparsers = next(a for a in cli._parser()._actions if a.dest == "command")
    found = [(name, action.option_strings[0])
             for name, sp in subparsers.choices.items() for action in sp._actions
             if action.type in (float, cli._finite_float)]
    assert sorted(found) == sorted(FLOAT_OPTIONS)


@pytest.mark.parametrize("command, option", FLOAT_OPTIONS)
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_float_options_are_usage_errors(spec_file, tmp_path, capsys, command, option, value):
    out = tmp_path / "s"
    argv = [command, f"{option}={value}", "--out", str(out)]
    if command != "verify":
        argv += ["--spec", str(spec_file)]
    assert cli.main(argv) == 2
    assert f"argument {option}: must be finite, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["dims", "spectrum", "moments"])
@pytest.mark.parametrize("grid, points", [
    (["--q-min=-1e308", "--q-max=1e308"], "inf"),  # the span overflows
    (["--q-min=-5", "--q-max=5", "--q-step=1e-9"], "10000000001"),
], ids=["overflowing-span", "tiny-step"])
def test_q_grids_past_the_cap_are_usage_errors(spec_file, tmp_path, capsys, command, grid, points):
    out = tmp_path / "s"
    assert cli.main([command, "--spec", str(spec_file), "--out", str(out), *grid]) == 2
    err = capsys.readouterr().err
    assert "--q-step" in err and f"gives {points} q points; at most {cli.Q_GRID_MAX_POINTS}" in err
    assert not out.exists()


def test_spectrum_with_zero_epsilon_is_a_usage_error(spec_file, tmp_path, capsys):
    out = tmp_path / "s"
    argv = ["spectrum", "--spec", str(spec_file), "--k-max", "16", "--r-octaves", "6",
            "--epsilon", "0", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: epsilon must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["0", "-0.05"])
def test_spectrum_rejects_epsilon_before_solving_the_grid(spec_file, tmp_path, capsys, monkeypatch,
                                                          epsilon):
    def no_grid(*args, **kwargs):
        raise AssertionError("separator_grid called for a non-positive epsilon")

    monkeypatch.setattr(cli, "separator_grid", no_grid)
    argv = ["spectrum", "--spec", str(spec_file), f"--epsilon={epsilon}", "--out", str(tmp_path / "s")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: epsilon must be positive\n"


def test_q_grid_holds_at_most_the_stated_number_of_points():
    def grid(step):
        return cli._q_grid(argparse.Namespace(q_min=0.0, q_max=1.0, q_step=step))

    assert grid(1 / (cli.Q_GRID_MAX_POINTS - 1)).size == cli.Q_GRID_MAX_POINTS
    with pytest.raises(ValueError, match=f"gives {cli.Q_GRID_MAX_POINTS + 1} q points"):
        grid(1 / cli.Q_GRID_MAX_POINTS)


@pytest.mark.parametrize("q_min, q_max, q_step, points, last", [
    (0.0, 1.0, 0.35, 3, 0.7),      # a step that does not divide the span stops short of q_max
    (-2.0, 2.0, 0.3, 14, 1.9),
    (-5.0, 5.0, 0.25, 41, 5.0),    # a dividing step ends on q_max
    (0.0, 0.7, 0.007, 101, 0.7),   # so does one whose quotient rounds to 99.99999999999999
])
def test_q_grid_stays_inside_q_max(q_min, q_max, q_step, points, last):
    qs = cli._q_grid(argparse.Namespace(q_min=q_min, q_max=q_max, q_step=q_step))
    assert qs.size == points and qs[-1] == pytest.approx(last, rel=1e-12)


def test_sample_format_json_is_accepted(spec_file, tmp_path):
    proc = run_cli("sample", "--spec", str(spec_file), "--count", "3", "--format", "json",
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads((tmp_path / "samples.json").read_text())["samples"]) == 3


def test_failed_stream_leaves_no_file_and_keeps_the_old_one(spec_file, tmp_path, monkeypatch):
    from hsmf import cli

    real = cli.write_samples

    def fail_after_first_chunk(meta, paths, log_mass, log_len, sink):
        def write_then_fail(chunk):
            sink(chunk)
            raise OSError("disk full")
        real(meta, paths, log_mass, log_len, write_then_fail)

    out = tmp_path / "out"
    args = ["sample", "--spec", str(spec_file), "--depth", "20", "--count", "2000",
            "--out", str(out)]
    monkeypatch.setattr(cli, "write_samples", fail_after_first_chunk)
    with pytest.raises(OSError, match="disk full"):
        cli.main(args)
    assert list(out.iterdir()) == []

    monkeypatch.setattr(cli, "write_samples", real)
    assert cli.main(args) == 0
    before = (out / "samples.json").read_bytes()
    assert cli.main(args) == 2  # exists, no --force: refused before anything is written
    monkeypatch.setattr(cli, "write_samples", fail_after_first_chunk)
    with pytest.raises(OSError, match="disk full"):
        cli.main([*args, "--seed", "1", "--force"])
    assert (out / "samples.json").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["samples.json"]


def test_sample_peak_allocation_is_bounded_by_its_arrays(tmp_path):
    """
    Allocation guard, not a timing gate. At 4096 paths of depth 64, int64
    paths and the log arrays take 2.2 MB, the unit of the bound. Streaming
    samples.json kept the traced peak near 1.8x that with int64 paths, and
    near 0.95x with int8 ones; building the whole document first peaks past 4x.
    """
    from hsmf import cli

    count, depth = 4096, 64
    arrays = count * depth * 8 + 2 * count * 8
    tracemalloc.start()
    try:
        code = cli.main(["sample", "--spec", str(SPECS / "binomial_quarter.json"), "--q", "2",
                         "--t", "0", "--depth", str(depth), "--count", str(count),
                         "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2.5 * arrays, f"peak {peak / 1e6:.1f} MB for {arrays / 1e6:.1f} MB of arrays"


def test_spectrum_skips_skewed_radii_and_radius_error_prints_plain_float(tmp_path):
    import numpy as np

    from hsmf.errors import ScaleTooSmall
    from hsmf.specs import load_spec, matched_generation

    # ratio 0.95 leaves every default radius from 2^-8 down past depth_cap 64
    spec = dict(VALID_SPEC, families=[{"probs": [0.5, 0.5], "ratios": [0.95, 0.05]}])
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("spectrum", "--spec", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("note: spectrum uses k_max 64, the spec's depth_cap, instead of 1024\n"
                           "note: spectrum skips r = 2^-8, 2^-12, 2^-16: no generation within "
                           "depth_cap 64 resolves them\n")
    with pytest.raises(ScaleTooSmall) as e:
        matched_generation(load_spec(path), np.float64(2.0**-8))
    assert str(e.value) == "radius 0.00390625 is below generation 64 resolution"


def test_dims_reports_newton_non_convergence(tmp_path, monkeypatch, capsys):
    from hsmf import cli, scaling

    spec = dict(VALID_SPEC, gap_policy="equal_gaps",
                families=[{"probs": [0.2, 0.5, 0.3], "ratios": [0.2, 0.3, 0.25]}])
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(spec))
    args = ["dims", "--spec", str(path), "--q-min", "-1", "--q-max", "1", "--q-step", "1",
            "--k-max", "32"]
    assert cli.main([*args, "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(scaling, "_NEWTON_MAX_ITER", 1)
    assert cli.main([*args, "--out", str(tmp_path / "capped")]) == 1
    assert "did not converge in 1 Newton steps at q=-1.0" in capsys.readouterr().err


def test_dims_brackets_roots_past_the_old_doubling_cap(tmp_path):
    """beta_1(-20) is about 4.1e5 here, past the 2^18 that 13 doublings of
    [-64, 64] reach; the spec's own bound lets the bracket widen to it."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "families": [{"probs": [1e-9, 0.999999999], "ratios": [0.999, 0.001]}],
        "schedule": {"type": "constant", "family": 0}, "gap_policy": "no_gaps", "depth_cap": 64}))
    argv = ["dims", "--spec", str(path), "--q-min=-20", "--q-max", "20", "--q-step", "10",
            "--k-max", "64", "--out", str(tmp_path / "out")]
    code, error = _run_in_process(argv)
    assert (code, error) == (0, None)
    rows = (tmp_path / "out" / "separators.csv").read_text().splitlines()
    assert rows[2].startswith("-20,414258.0495245")


def test_cli_import_loads_no_scipy():
    # structural guard: scipy is a test-only dependency
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hsmf.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_that_compute_nothing_never_load_numpy(tmp_path):
    # structural guard, not a timing gate: hsmf defers numpy to its first use
    script = (
        "import sys\n"
        "from hsmf import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('numpy.')))\n"
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(VALID_SPEC, families=[{"probs": [0.5, 0.6], "ratios": [0.5, 0.5]}])))
    cases = [
        (["validate", "--spec", str(SPECS / "uniform.json")], 0),
        (["--version"], 0),
        (["dims", "--spec", str(SPECS / "uniform.json"), "--k-max", "0"], 2),
        (["validate", "--spec", str(bad)], 1),
    ]
    for argv, code in cases:
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{code} []", argv


def test_importing_verify_leaves_numpy_unexecuted():
    # structural guard, not a timing gate: no module-level array in hsmf.verify
    script = "import sys, hsmf.verify; print(sorted(m for m in sys.modules if m.startswith('numpy.')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


def test_verify_runs_numpy_before_criterion_1_starts():
    # numpy's deferred import once ran inside criterion 1, whose time then included it
    script = (
        "import sys\nfrom hsmf import verify\nseen = []\n"
        "def probe(seed, tol_scale):\n    seen.append(any(m.startswith('numpy.') for m in sys.modules))\n"
        "for cid in range(1, 11):\n    setattr(verify, f'criterion_{cid}', probe)\n"
        "verify.run_criteria()\nprint(seen[0])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout.strip()) == (0, "True"), proc.stderr


def test_moments_verify_and_sampled_masses_never_load_numpy_ma(tmp_path):
    # structural guard, not a timing gate: np.unique without return_counts
    # imports numpy.ma to ask whether its input is masked; the sampled
    # mass_distribution's np.unique(..., return_counts=True) never asks
    wide = {"families": [{"probs": [0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17, 0.23], "ratios": [0.125] * 8}],
            "schedule": {"type": "constant", "family": 0}, "gap_policy": "no_gaps", "depth_cap": 64}
    argv = ["moments", "--spec", str(SPECS / "binomial_quarter.json"), "--r-octaves", "6", "--out", str(tmp_path)]
    script = (
        "import sys\n"
        "from hsmf import cli, spec_from_dict, spectrum, validate_spec, verify\n"
        f"assert cli.main({argv!r}) == 0\n"
        "assert verify.criterion_7(0, 1.0).passed\n"
        f"spec = validate_spec(spec_from_dict({wide!r}))\n"
        "assert not spectrum.mass_distribution(spec, 40).exact\n"  # past MASS_MAX_TERMS
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


def test_np_is_the_numpy_module_whichever_is_imported_first():
    for script in ("import numpy, hsmf._np; print(hsmf._np.np is numpy)",
                   "import hsmf._np, numpy; print(hsmf._np.np is numpy and numpy.add(1, 2) == 3)"):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout.strip()) == (0, "True"), proc.stderr
    # without numpy, importing hsmf fails as a plain numpy import would
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.modules['numpy'] = None; import hsmf"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "ModuleNotFoundError: No module named 'numpy'" in proc.stderr


def test_nan_probability_is_a_usage_error_for_every_command(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(VALID_SPEC).replace("0.25", "NaN"))
    for command in ("validate", "dims", "spectrum", "moments", "sample"):
        out = ["--out", str(tmp_path / command)] if command != "validate" else []
        assert cli.main([command, "--spec", str(path), *out]) == 2
        assert capsys.readouterr() == ("", "error: families[0].probs[0] must be a finite number, got nan\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nan.json"]


def test_moments_writes_no_partition_rows_past_depth_cap(tmp_path, capsys):
    path = tmp_path / "cap4.json"
    path.write_text(json.dumps(dict(VALID_SPEC, depth_cap=4)))
    assert cli.main(["moments", "--spec", str(path), "--r-octaves", "6", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ("note: moments skip r = 2^-5..2^-6: no generation within "
                                       "depth_cap 4 resolves them\n")
    rows = [line.split(",") for line in (tmp_path / "moments.csv").read_text().splitlines()[2:]]
    # generations 1..4, matched to 2^-1..2^-4; generation 8 (r = 2^-8) is past the cap
    assert sorted({float(r[2]) for r in rows if r[0] == "partition_moment"}) == [2.0**-k for k in (4, 3, 2, 1)]


def test_verify_names_its_failed_criteria_last(tmp_path, capsys, monkeypatch):
    from hsmf import verify

    results = [verify.CriterionResult(1, "one", 1.0), verify.CriterionResult(4, "four", 1.0, passed=False),
               verify.CriterionResult(7, "seven", 1.0, passed=False)]
    monkeypatch.setattr(verify, "run_verify", lambda seed, tol_scale: (results, {"report.json": b"{}\n"}))
    assert cli.main(["verify", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[:3] == [r.status_line() for r in results]
    assert err[3:] == ["invariant failures: criterion 4; criterion 7"]
    results.pop(1), results.pop()
    assert cli.main(["verify", "--out", str(tmp_path), "--force"]) == 0
    assert capsys.readouterr().err.splitlines() == [results[0].status_line()]


def test_every_command_returns_its_problems_and_only_main_reports_them():
    # structural guard: the one place that prints "invariant failures" and picks exit codes
    for name in ("validate", "dims", "spectrum", "moments", "sample", "verify"):
        source = inspect.getsource(getattr(cli, f"cmd_{name}"))
        assert "invariant failures" not in source and "FAILURE" not in source, name
        returns = [n.value for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Return)]
        assert returns and not any(isinstance(v, ast.Constant) and isinstance(v.value, int)
                                   for v in returns), name


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10**400, -(10**400), 2**1024, 0, 1, -1, 0.5, "no_gaps", "constant"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_DELETE = object()
_SPEC_FIELDS = [
    (schedule, path)
    for schedule, paths in (
        ({"type": "constant", "family": 0},
         [(), ("families",), ("families", 0), ("families", 0, "probs"), ("families", 0, "probs", 0),
          ("families", 0, "ratios"), ("families", 0, "ratios", 1), ("schedule",),
          ("schedule", "type"), ("schedule", "family"), ("gap_policy",), ("depth_cap",)]),
        ({"type": "periodic", "pattern": [0, 0]},
         [("schedule", "pattern"), ("schedule", "pattern", 1)]),
        ({"type": "blocks", "boundaries": [1, 4], "families": [0, 0]},
         [("schedule", "boundaries"), ("schedule", "boundaries", 0), ("schedule", "families"),
          ("schedule", "families", 1)]),
    )
    for path in paths
]


@given(field=st.sampled_from(_SPEC_FIELDS), value=st.just(_DELETE) | _JSON_VALUES)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_no_json_value_in_a_spec_field_makes_validate_crash(tmp_path, capsys, field, value):
    """Any JSON value placed in (or a key deleted from) any spec field: validate exits 0,
    1 with a violation list, or 2 with one error line, and never raises."""
    schedule, path = field
    doc = json.loads(json.dumps(dict(VALID_SPEC, schedule=schedule)))
    if not path:
        doc = None if value is _DELETE else value
    else:
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code = cli.main(["validate", "--spec", str(spec)])
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code in (0, 1) and err == ""
        assert isinstance(json.loads(out), dict if code == 0 else list)


# ---------------------------------------------------------------------------
# fuzz: no valid spec fails a command
# ---------------------------------------------------------------------------

# HsmfError types a command may raise on a valid spec, each with the reason it can.
FUZZ_ALLOWED_ERRORS: dict[type, str] = {}


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _wide_families(draw, gap_policy):
    """Arity up to 6, probabilities down to 1e-9 and ratios from 1e-6 to 0.999,
    rescaled onto the gap policy's ratio sum."""
    arity = draw(st.integers(2, 6))
    weights = [draw(_log_uniform(1e-9, 1.0)) for _ in range(arity)]
    probs = tuple(w / math.fsum(weights) for w in weights)
    weights = [draw(_log_uniform(1e-6, 0.999)) for _ in range(arity)]
    total = math.fsum(weights)
    scale = 1.0 / total if gap_policy is GapPolicy.NO_GAPS else min(1.0, 0.999 / total)
    ratios = tuple(w * scale for w in weights)
    assume(max(ratios) <= 0.999)
    return GenerationFamily(probs, ratios)


def _run_in_process(argv):
    """``cli.main(argv)`` with warnings as errors: the exit code and the HsmfError
    the command raised, if any."""
    name = f"cmd_{argv[0]}"
    handler, raised = getattr(cli, name), []

    def recorded(args):
        try:
            return handler(args)
        except HsmfError as e:
            raised.append(e)
            raise

    with mock.patch.object(cli, name, recorded), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, raised[0] if raised else None


@given(
    spec=random_specs(_wide_families, st.sampled_from((8, 16, 64, 512))),
    q_min=st.floats(-20.0, -1.0),
    q_max=st.floats(1.0, 20.0),
    steps=st.integers(2, 6),
    q=st.floats(-20.0, 20.0),
)
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_no_valid_spec_fails_a_command(tmp_path, spec, q_min, q_max, steps, q):
    """Every command on a valid spec, at the widest valid ranges, exits 0 or
    names an allowed error; a warning is a failure. Ball tables cost the most,
    so moments run 4 octaves and skip scales past 4096 cells."""
    path = tmp_path / "spec.json"
    path.write_bytes(json_bytes(spec.as_dict()))
    common = ["--spec", str(path), "--out", str(tmp_path / "out"), "--force"]
    # "--q=-1e-05": argparse takes a separate "-1e-05" for an option
    grid = [f"--q-min={q_min!r}", f"--q-max={q_max!r}", f"--q-step={(q_max - q_min) / steps!r}"]
    for argv in (
        ["dims", *common, *grid, "--k-max", "64"],
        ["spectrum", *common, *grid, "--k-max", "64", "--r-octaves", "8"],
        ["moments", *common, *grid, "--r-octaves", "4"],
        ["sample", *common, f"--q={q!r}", "--depth", str(min(16, spec.depth_cap)), "--count", "8"],
    ):
        with mock.patch.object(cli, "MOMENT_MAX_CELLS", 1 << 12):
            code, error = _run_in_process(argv)
        assert code == 0 or (code == 1 and type(error) in FUZZ_ALLOWED_ERRORS), (argv[0], code, error)
