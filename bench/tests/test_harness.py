"""Smoke test of the benchmark harness at tiny input sizes.

    python3 -m pytest -q bench/tests

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, that a repetition whose output was corrupted is counted as failed,
that span bookkeeping nests, and that the harness refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_lists_match_the_harness():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if not line.startswith("#")}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]] == metric["unit"]
    assert printed["error_rate"] == "ratio"
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.nesting_violations"]["value"] == 0


def _corrupt(i, out):
    if i != 1:
        return
    if (out / "result.json").exists():  # graph job
        res = json.loads((out / "result.json").read_text())
        res["labels_fp"] = "0" * 64
        (out / "result.json").write_text(json.dumps(res))
    else:
        with open(out / "rank_table.csv", "a", encoding="utf-8") as fh:
            fh.write("corrupted\n")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_repetition_counts_in_error_rate(workload):
    result = run.run(workload, seed=3, seconds=0, trace=False, size="tiny",
                     tamper=_corrupt)["result"]
    assert result["attempted"] == run.MIN_REPS
    assert result["failed"] == 1
    assert not result["correct"]


def test_nesting_and_self_time():
    spans = [["root", 0.0, 10.0, -1, None],
             ["pipeline.stage.graph", 1.0, 5.0, 0, None],
             ["read.edge_csv", 1.5, 2.5, 1, None],
             ["graph.build", 2.0, 2.4, 2, {"nodes": 3, "edges": 2}]]
    assert layers.nesting_violations(spans) == 0
    values = layers.rep_metrics([{"spans": spans}])
    assert values["pipeline.stage.graph_s"] == 4.0
    assert values["pipeline.self_s"] == 3.0
    assert values["graph.read_s"] == 1.0
    assert values["graph.build_s"] == 0.0  # a build inside a read is the read's
    assert values["pipeline.intermediate_parses"] == 1
    assert layers.nesting_violations(spans + [["x", 0.0, 6.0, 1, None]]) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
