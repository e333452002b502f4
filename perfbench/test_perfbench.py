"""Self-tests of the benchmark: failure accounting, trace closure and
neutrality, the process limit, and the exit path without sources.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_matches_the_workload_tables():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_grid_failures_land_in_the_failure_count(capsys):
    """Two good jobs plus a raising and an always-crashing job: two of
    four jobs fail, and every metric is still printed."""
    config = dict(
        run.WORKLOADS["paper_grid"],
        jobs=run.GRID_SLICE[:2],
        extra_jobs=[
            {"name": "selftest/fail", "target": "repro.harness._testjobs:job_fail"},
            {"name": "selftest/crash", "target": "repro.harness._testjobs:job_crash_always"},
        ],
    )
    record = run.benchmark("paper_grid", 1, seconds=1, trace=False, config=config)
    result = record["result"]
    runs = len(record["runs"])
    assert result["attempted"] == 4 * runs
    assert result["failed"] == 2 * runs
    assert result["correct"] is False
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(0.5)
    problems = [p for r in record["runs"] for p in r["problems"]]
    assert any(p.startswith("selftest/fail: failed") for p in problems)
    assert any(p.startswith("selftest/crash: failed") for p in problems)
    run.print_record(record, run.write_record(record))
    printed = last_json(capsys.readouterr().out)
    assert set(printed["metrics"]) == set(run.END_TO_END)
    assert printed["failed"] == result["failed"]


def test_fabric_crash_drill_lands_in_the_failure_count(capsys):
    config = dict(run.WORKLOADS["fabric_mixed"], duration=2e-3)
    config["kwargs"] = dict(config["kwargs"], fail_at_s=1e-3)
    record = run.benchmark("fabric_mixed", 1, seconds=1, trace=False, config=config)
    result = record["result"]
    assert result["attempted"] == len(record["runs"]) >= 1
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    problems = record["runs"][0]["problems"]
    assert any("injected partition failure" in p for p in problems)
    assert "run ledger status 'failed'" in problems
    run.print_record(record, run.write_record(record))
    assert set(last_json(capsys.readouterr().out)["metrics"]) == set(run.END_TO_END)


def test_traced_run_closes_and_keeps_the_digest():
    """A short fabric_udp run (no recorded digest, so the gate compares
    against a 2-shard run with the plane off): the traced digest must
    match, the layers must add up to the traced wall, and the bypass
    predictions must hold."""
    config = dict(run.WORKLOADS["fabric_udp"], duration=1e-3)
    record = run.benchmark("fabric_udp", 3, seconds=1, trace=True, config=config)
    result = record["result"]
    assert result["correct"], [r["problems"] for r in record["runs"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    attributed = sum(metrics[name] for name in tracer.LAYER_METRICS.values())
    assert attributed + metrics["unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9)
    assert metrics["shard.exported"] == 0
    assert metrics["transport.segments"] == 0
    assert metrics["core.aq_packets"] == 0
    assert metrics["runner.overhead_s"] == 0
    assert metrics["engine.events"] > 0
    assert record["spans"]


def test_refuses_more_worker_processes_than_cpus(monkeypatch, capsys):
    monkeypatch.setattr(run, "nproc", lambda: 1)
    code = run.main(["--workload", "fabric_mixed", "--seconds", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "worker processes" in captured.err
    assert captured.out == ""


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fabric_udp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
