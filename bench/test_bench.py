"""Tests of the benchmark itself: smoke runs of every workload, self-time
arithmetic, and refusal to run without the package sources.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_emits_every_metric(workload, trace):
    proc = _bench("--smoke", "--workload", workload, "--trace", str(trace), "--seed", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_self_time_subtracts_direct_children():
    # root [0, 100) holds a [10, 40) and b [50, 60); a holds c [12, 20)
    names = ["root", "a", "b", "c"]
    spans = np.array(
        [[0, -1, -1, 0, 100], [1, 0, 0, 10, 40], [3, 1, 0, 12, 20], [2, 0, 1, 50, 60]],
        dtype=np.int64,
    )
    agg = tracing.aggregate(names, spans)
    assert agg["self_ns"] == {"root": 60.0, "a": 22.0, "b": 10.0, "c": 8.0}
    assert agg["calls"] == {"root": 1, "a": 1, "b": 1, "c": 1}
    assert agg["wall_ns"] == 100.0


def test_tracer_records_nesting_and_items(tmp_path):
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x)
    outer = tracer.wrap("classify.ensemble_state", lambda kind, seed, index: leaf(index))
    assert [outer("k", 0, i) for i in (4, 9)] == [4, 9]
    tracer.save(tmp_path / "s.npz", package="none")
    names, spans, _ = tracing.load(tmp_path / "s.npz")
    rows = [(names[r[0]], int(r[1]), int(r[2])) for r in spans]
    assert rows == [
        ("classify.ensemble_state", -1, 4),
        ("leaf", 0, 4),
        ("classify.ensemble_state", -1, 9),
        ("leaf", 2, 9),
    ]
    assert (spans[:, 4] >= spans[:, 3]).all()


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = _bench("--workload", SPEC["workloads"][0]["name"], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
