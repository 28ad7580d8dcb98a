"""Smoke test of the benchmark at a tiny size.

    python -m pytest benchmarks/test_bench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace, kind):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("cut", ["mid_row", "whole_rows"])
def test_truncated_record_csv_counts_as_failed_command(tmp_path, cut):
    steps = workloads.steps("records_pipeline", tmp_path, 7, workloads.SIZES["tiny"])
    records = tmp_path / "records.csv"

    def truncate(step):
        if step.name == "simulate":
            data = records.read_bytes()
            keep = len(data) // 2
            if cut == "whole_rows":
                keep = data.rindex(b"\n", 0, keep) + 1
            records.write_bytes(data[:keep])

    outcomes = run.run_iteration(steps, run.child_env(), tmp_path, after_step=truncate)
    assert [o.step for o in outcomes] == ["simulate", "audit"]
    assert outcomes[0].ok
    assert not outcomes[1].ok and outcomes[1].problems


def test_fails_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "benchmarks/run.py", "--workload", "sweep_pool", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
