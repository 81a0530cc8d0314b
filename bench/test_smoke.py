"""Smoke test of the benchmark itself, at a tenth of the sample counts.

    python3 -m pytest bench/test_smoke.py -q

Checks that every workload emits every metric BENCHMARK.json names, with
its unit, that the stage metrics read nonzero where the workload runs the
stage, that the bypass counts are zero, and that the benchmark refuses to
run without the package. Takes under a minute; not part of the tier-1 run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Stages each workload runs; the others must read 0.
STAGES_RUN = {
    "paper-pipeline": {"generate_s", "train_dl_s", "run_s", "hybrid_s", "export_finetune_s"},
    "build-16k": {"generate_s", "train_dl_s"},
}
STAGES = {f"{stage}_s" for stage in workloads.STAGES}
BYPASSED = {
    "build-16k": ("promptkit.render_prompt.calls", "agents.complete.calls"),
}


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "42", "--seconds", "1", "--trace", str(trace), "--scale", "0.1"],
        capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload: str, trace: int) -> dict:
        if (workload, trace) not in cache:
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
            cache[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted(results, workload, trace):
    result = results(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_stage_metrics_apply_where_run(results, workload):
    values = {k: v["value"] for k, v in results(workload, 1)["metrics"].items()}
    for stage in STAGES:
        assert (values[stage] > 0) == (stage in STAGES_RUN[workload]), stage
    for name in BYPASSED.get(workload, ()):
        assert values[name] == 0, name


def test_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
