"""Smoke test of the repo benchmark: same code path, tiny scenario.

Runs ``run.py --smoke --trace`` once as the user would (a subprocess from
the repo root) and checks the schema every later perf PR relies on: every
metric ``BENCHMARK.json`` names is reported by every workload, nothing
failed, and ``--compare`` flags a regression past a bound.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_py(*args, timeout=300):
    return subprocess.run(
        [sys.executable, str(RUN), *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    out = tmp / "smoke.json"
    proc = run_py("--smoke", "--trace", "--seed", 1, "--out", out, "--trace-out", tmp)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return tmp, json.loads(out.read_text(encoding="utf-8"))


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_workload_reports_every_named_metric(smoke):
    _, report = smoke
    assert list(report["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, result in report["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            assert list(result[section]) == [m["name"] for m in SPEC[section]], name
            for metric, spec in zip(result[section].values(), SPEC[section]):
                assert metric["unit"] == spec["unit"]
                assert isinstance(metric["value"], float)
        assert all(m["value"] > 0 for m in result["end_to_end"].values()), name


def test_nothing_failed_and_counts_add_up(smoke):
    _, report = smoke
    for name, result in report["workloads"].items():
        layer = {k: v["value"] for k, v in result["per_layer"].items()}
        assert layer["loadgen.sent"] == layer["loadgen.ok"] + layer["loadgen.failed"], name
        assert layer["loadgen.sent"] == result["attempted"] >= 1
        assert result["correct"] and result["failed"] == 0, result["errors"]
        assert result["error_share"] == 0.0
        assert layer["trace.rungs_failed"] == 0, name
        # the tiny smoke backbone is not a perfect classifier (README, "Scale")
        assert result["end_to_end"]["accuracy"]["value"] > 0.8, name


def test_env_block_and_spans(smoke):
    tmp, report = smoke
    env = report["env"]
    for key in ("cpu_count", "python", "numpy", "scipy", "blas_threads", "model",
                "window_len", "workloads", "seed", "scale"):
        assert key in env
    assert env["scale"] == "smoke"
    line = (tmp / "trace-edge_tick-seed1.jsonl").read_text(encoding="utf-8").splitlines()[0]
    assert set(json.loads(line)) == {
        "name", "layer", "workload", "tick_id", "parent", "start", "end"
    }


def test_compare_flags_a_regression_past_its_bound(smoke):
    tmp, report = smoke
    base = tmp / "smoke.json"
    assert run_py("--compare", base, base).returncode == 0
    report["workloads"]["edge_tick"]["end_to_end"]["tick_ms_p50"]["value"] *= 1.5
    slower = tmp / "slower.json"
    slower.write_text(json.dumps(report), encoding="utf-8")
    proc = run_py("--compare", base, slower)
    assert proc.returncode == 1
    assert "REGRESSION" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a tree holding only BENCHMARK.json and the benchmark: exit != 0."""
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for path in HERE.iterdir():
        if path.is_file():
            (bare / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "edge_tick", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
