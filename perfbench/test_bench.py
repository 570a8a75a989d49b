"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_bench.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench_trace
import bench_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(proc, declared):
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        # the human-readable table names every metric with its unit too
        line = next(l for l in proc.stdout.splitlines() if l.split()[:1] == [m["name"]])
        assert line.split()[2] == m["unit"]
    return result


def test_end_to_end_metrics_printed_with_units():
    proc = run_bench("--workload", "cli-sweep", "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--scale", "tiny")
    result = assert_metrics(proc, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 7
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "fail_ratio" in proc.stdout


def test_per_layer_metrics_printed_with_units(tmp_path):
    spans = tmp_path / "spans.npz"
    proc = run_bench("--workload", "cli-sweep", "--seed", "3", "--seconds", "0",
                     "--trace", "1", "--scale", "tiny", "--spans", str(spans))
    result = assert_metrics(proc, SPEC["per_layer"])
    assert result["correct"], proc.stderr
    assert result["metrics"]["vidal.vidal_probability.calls"]["value"] == 20
    with np.load(spans) as saved:
        names = list(saved["names"])
        assert str(saved["run_id"])
        assert len(saved["name"]) == len(saved["parent"]) == len(saved["start"])
        assert np.all(saved["end"] >= saved["start"])
        calls = np.sum(saved["name"] == names.index("vidal.vidal_probability"))
    assert calls == 20


def test_haar_trace_counts_samples():
    proc = run_bench("--workload", "haar-mc", "--seed", "3", "--seconds", "0",
                     "--trace", "1", "--scale", "tiny")
    result = result_of(proc)
    assert result["correct"], proc.stderr
    metrics = result["metrics"]
    assert metrics["sampling.mc_estimator.samples"]["value"] == 2 * 2000
    assert metrics["kraus.build_kraus.calls"]["value"] == 0


def test_corrupt_kraus_counts_as_failure():
    proc = run_bench("--workload", "verify", "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--corrupt-kraus")
    result = result_of(proc)
    assert not result["correct"]
    assert result["attempted"] == 1 and result["failed"] == 1
    assert "1/1 invocations failed" in proc.stdout
    assert "exit code 1, expected 0" in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = run_bench("--workload", "cli-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probe_pauses_are_left_out_of_wall_time(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    samples = [run.calibrate()]
    busy = "import time\nt = time.process_time()\nwhile time.process_time() - t < 2.5: pass"
    r = run.run_child([sys.executable, "-c", busy], {}, tmp_path / "out", samples)
    assert r["code"] == 0
    # one sample before, at least two while it ran, one after
    assert len(samples) >= 4
    # a single-threaded busy child runs whenever it is not paused
    assert abs(r["wall_s"] - r["cpu_s"]) < 0.5
    assert r["speed_factor"] == pytest.approx(run.CALIBRATION_REF_S / np.mean(samples))


def test_inputs_follow_the_seed(tmp_path):
    argv = lambda seed: [i.argv for i in bench_workloads.build("cli-sweep", seed, tmp_path)]
    assert argv(5) == argv(5)
    assert argv(5) != argv(6)


def test_patch_reaches_names_imported_by_other_modules():
    sys.path.insert(0, str(ROOT / "src"))
    from epp_lab import kraus, linalg, protocols

    original = protocols.lift_local_kraus
    tracer = bench_trace.Tracer("test")
    with bench_trace.patched(tracer):
        protocols.stage1(linalg.schmidt_state(0.6, 0.8), kraus.CANONICAL_PARAMS)
    assert protocols.lift_local_kraus is original
    agg = tracer.summarize()
    assert agg["kraus.lift_local_kraus"]["calls"] == 1
    assert agg["kraus.build_kraus"]["calls"] == 1
    assert tracer.counters["kraus.apply_kraus.states"] == 1
    assert tracer.counters["protocols.stage.states"] == 1
    stage = agg["protocols.stage1"]
    assert 0.0 < stage["self_s"] < stage["incl_s"]


@pytest.mark.parametrize("mangle", [
    lambda rows: rows[:-1],
    lambda rows: rows[:-1] + [rows[-1].replace(",0.", ",1.")],
])
def test_csv_checks_catch_wrong_rows(tmp_path, mangle):
    n = 5
    rows = ["lambda,p_vidal,p_universal"]
    for k in range(1, n + 1):
        lam = 0.5 + 0.5 * k / (n + 1)
        p_v = 1.0 if lam < 2**-0.5 else 2.0 * (1.0 - lam * lam)
        rows.append(f"{lam!r},{p_v!r},{2.0 * lam * (1.0 - lam)!r}")
    check = bench_workloads.check_vidal_curve("c.csv", n)
    assert check(0, b"", {"c.csv": "\n".join(rows).encode()}) is None
    assert check(0, b"", {"c.csv": "\n".join(mangle(rows)).encode()}) is not None
    assert check(2, b"", {"c.csv": "\n".join(rows).encode()}) is not None
