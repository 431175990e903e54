"""CLI behavior: exit codes, artifact formats, byte determinism."""

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

from hsmf import GapPolicy, GenerationFamily, HsmfError, NoBracket, cli, save_spec

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


def test_verify_missing_fixture_dir_exits_2(tmp_path):
    proc = run_cli("verify", "--out", str(tmp_path / "v"), "--fixtures",
                   str(tmp_path / "missing"))
    assert proc.returncode == 2


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


def test_verify_invalid_fixture_exits_1(tmp_path):
    fdir = tmp_path / "fixtures"
    fdir.mkdir()
    bad = dict(VALID_SPEC, families=[{"probs": [0.5, 0.6], "ratios": [0.5, 0.5]}])
    (fdir / "bad.json").write_text(json.dumps(bad))
    proc = run_cli("verify", "--out", str(tmp_path / "v"), "--fixtures", str(fdir))
    assert proc.returncode == 1
    assert "NonProbabilityVector" in proc.stdout


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
    assert proc.stderr == ("note: spectrum skips r = 2^-12, 2^-16: no generation within "
                           "depth_cap 10 resolves them\n")
    scales = {line.split(",")[0] for line in (out / "coarse.csv").read_text().splitlines()[2:]}
    assert scales == {"0.00390625"}
    assert (out / "legendre.csv").is_file() and (out / "tilted.json").is_file()
    # no radius reachable: a header-only coarse.csv, the rest as usual
    shallow.write_text(json.dumps(dict(spec, depth_cap=2)))
    out = tmp_path / "s2"
    proc = run_cli("spectrum", "--spec", str(shallow), "--r-octaves", "16", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("note: spectrum skips r = 2^-8, 2^-12, 2^-16: no generation within "
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
])
def test_sample_json_equals_stdlib_encoding_of_per_element_records(tmp_path, spec_name, q, depth,
                                                                    count):
    from hsmf import cli
    from hsmf.specs import load_spec, sample_paths

    assert cli.SAMPLE_BATCH == 512  # the counts above straddle batch boundaries
    spec = SPECS / f"{spec_name}.json"
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


def test_sample_format_json_is_accepted(spec_file, tmp_path):
    proc = run_cli("sample", "--spec", str(spec_file), "--count", "3", "--format", "json",
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads((tmp_path / "samples.json").read_text())["samples"]) == 3


def test_failed_stream_leaves_no_file_and_keeps_the_old_one(spec_file, tmp_path, monkeypatch):
    from hsmf import cli

    real = cli.write_json

    def fail_after_first_chunk(obj, sink):
        def write_then_fail(chunk):
            sink(chunk)
            raise OSError("disk full")
        real(obj, write_then_fail)

    out = tmp_path / "out"
    args = ["sample", "--spec", str(spec_file), "--depth", "20", "--count", "2000",
            "--out", str(out)]
    monkeypatch.setattr(cli, "write_json", fail_after_first_chunk)
    with pytest.raises(OSError, match="disk full"):
        cli.main(args)
    assert list(out.iterdir()) == []

    monkeypatch.setattr(cli, "write_json", real)
    assert cli.main(args) == 0
    before = (out / "samples.json").read_bytes()
    assert cli.main(args) == 2  # exists, no --force: refused before anything is written
    monkeypatch.setattr(cli, "write_json", fail_after_first_chunk)
    with pytest.raises(OSError, match="disk full"):
        cli.main([*args, "--seed", "1", "--force"])
    assert (out / "samples.json").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["samples.json"]


def test_sample_peak_allocation_is_bounded_by_its_arrays(tmp_path):
    """
    Allocation guard, not a timing gate. At 4096 paths of depth 64 the paths
    and log arrays take 2.2 MB. Streaming samples.json keeps the traced peak
    near 1.8x that; building the whole document first peaks past 4x.
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
    assert proc.stderr == ("note: spectrum skips r = 2^-8, 2^-12, 2^-16: no generation within "
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


def test_cli_import_loads_no_scipy():
    # structural guard: scipy is a test-only dependency
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hsmf.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# fuzz: no valid spec fails a command
# ---------------------------------------------------------------------------

# HsmfError types a command may raise on a valid spec, each with the reason it can.
FUZZ_ALLOWED_ERRORS = {
    NoBracket: "beta_k's bracket doubles 13 times from [-64, 64], so it holds roots up to "
               "|beta| = 2^18 only; a child of probability 1e-9 and ratio 0.999 puts beta_1(-20) "
               "near 4.1e5",
}


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
    save_spec(spec, path)
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
