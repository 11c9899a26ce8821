"""Toy-size smoke tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench -q``.  Each
workload runs at toy size in seconds, traced and untraced, and every metric
BENCHMARK.json declares must come out with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# end-to-end metrics each workload prints in its report, beyond the declared ones
REPORTED = {
    "cv_text": {"wall_s": "s", "auc_sle": "auc", "auc_gap_sle_le": "auc",
                "peak_rss_mb": "MB", "failed_ratio": "ratio"},
    "sweep_dims": {"wall_s": "s", "auc_sle": "auc", "auc_gap_sle_le": "auc",
                   "peak_rss_mb": "MB", "failed_ratio": "ratio"},
    "train_predict": {"wall_s": "s", "train_s": "s", "predict_p50_ms": "ms",
                      "predict_p90_ms": "ms", "predict_samples": "count",
                      "predict_records_per_s": "1/s", "auc_predict": "auc",
                      "peak_rss_mb": "MB", "failed_ratio": "ratio"},
}
ENV_KEYS = {"python", "numpy", "blas", "blas_threads", "nproc", "seed"}


def run_bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--toy", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]

    report = json.loads(next(line for line in lines if line.startswith('{"report"')))["report"]
    assert ENV_KEYS <= set(report["env"]) and report["env"]["blas_threads"] in (1, None)
    assert len(report["sha256"]) == 64
    for name, unit in {"setup_s": "s", **REPORTED[workload]}.items():
        assert report["end_to_end"][name]["unit"] == unit, name
        assert f"{workload} {name} = " in proc.stdout
    if trace:
        assert "unattributed_s" in report["per_layer"]
        assert "tracing_overhead_s" in report["per_layer"]


def test_all_runs_every_workload():
    proc = run_bench("--workload", "all", "--toy", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    for workload in WORKLOADS:
        assert f"{workload}.wall_s" in result["metrics"]


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench("--workload", "cv_text", "--seed", "0", "--seconds", "1",
                         "--trace", "0", root=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()


def test_missing_traced_name_fails_loudly():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import tracing
        with pytest.raises(tracing.MissingLayer):
            tracing._resolve("slemap.evaluation:no_such_layer")
        tracer = tracing.Tracer()
        with pytest.raises(tracing.MissingLayer):
            tracer.require_called(["lsi.fit_lsi"])
    finally:
        del sys.path[:2]
