#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fabric_udp --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats the workload (closed loop, one run in a fresh
interpreter at a time) for ``--seconds`` and reports the median of each
end-to-end metric over the runs that passed the correctness gate.
``--trace 1`` makes one traced run plus untraced runs for reference and
reports the per-layer account. Every metric is printed by name with its
unit; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record (host, seed,
per-run data, coarse spans) goes to ``.perfbench_out/``.

``--record`` re-records ``references.json`` (the digests the correctness
gate compares against); do that only in a change that means to alter
the simulated results. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
REFERENCES = os.path.join(HERE, "references.json")

#: Worker processes a workload may use; the benchmark refuses to run
#: when the host offers fewer CPUs.
PROCESSES = 2

#: The ``paper_grid`` slice of ``default_jobs()``: all four approaches
#: (fig7 at the smallest and largest VM counts) and every congestion
#: control of the table2 rows, each under pq and aq.
GRID_SLICE = [
    f"fig7/{approach}/{vms}vms"
    for approach in ("pq", "aq", "prl", "drl")
    for vms in (1, 8)
] + [
    f"table2/{approach}/{row}"
    for row in ("5cubic+5dctcp", "5newreno+5dctcp", "5illinois+5dctcp", "5dctcp+5swift")
    for approach in ("pq", "aq")
]

#: One configuration per workload, as ``operation.py`` takes it.
WORKLOADS = {
    "paper_grid": {"kind": "grid", "jobs": GRID_SLICE, "processes": PROCESSES},
    "fabric_mixed": {
        "kind": "fabric", "shards": 2, "inline": False, "duration": 8e-3,
        "plane": True,
        "kwargs": {"traffic": "mixed", "churn": True, "load": 0.25},
    },
    "fabric_udp": {
        "kind": "fabric", "shards": 1, "inline": True, "duration": 8e-3,
        "plane": True, "kwargs": {},
    },
}

#: The independent check for a fabric seed with no recorded digest: the
#: same scenario at another shard count with the observability plane
#: off, which must hash identically.
FALLBACK = {
    "fabric_mixed": {"shards": 1, "inline": True, "plane": False},
    "fabric_udp": {"shards": 2, "inline": True, "plane": False},
}

#: Seeds ``--record`` records fabric digests for.
RECORDED_SEEDS = range(0, 32)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "runner.overhead_s": "s",
    "runner.worker_busy_share": "ratio",
    "runner.retries": "count",
    "engine.events": "count",
    "engine.cancelled": "count",
    "engine.live_ratio": "ratio",
    "engine.compactions": "count",
    "engine.self_s": "s",
    "net.packets": "count",
    "net.self_s": "s",
    "queues.enqueues": "count",
    "queues.drops": "count",
    "queues.self_s": "s",
    "core.aq_packets": "count",
    "core.aq_marks": "count",
    "core.aq_drops": "count",
    "core.grant_ops": "count",
    "core.self_s": "s",
    "ratelimit.self_s": "s",
    "transport.segments": "count",
    "transport.retransmits": "count",
    "transport.timeouts": "count",
    "transport.goodput_ratio": "ratio",
    "transport.self_s": "s",
    "cc.self_s": "s",
    "obs.trace_events": "count",
    "obs.timewin_records": "count",
    "obs.self_s": "s",
    "obs.finalize_s": "s",
    "obs.artifact_bytes": "bytes",
    "shard.epochs": "count",
    "shard.exported": "count",
    "shard.encode_s": "s",
    "shard.decode_s": "s",
    "shard.self_s": "s",
    "shard.barrier_wait_s": "s",
    "shard.parallel_efficiency": "ratio",
    "topology.build_s": "s",
    "workloads.spec_s": "s",
    "stats.self_s": "s",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Per-run limit; with ``--seconds`` up to 60 a hung run still leaves the
#: benchmark inside its three-minute budget.
OP_TIMEOUT_S = 100.0


class BenchmarkError(Exception):
    """A configuration the benchmark refuses to run."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def processes_for(config: dict) -> int:
    if config["kind"] == "grid":
        return config["processes"]
    return 1 if config["inline"] else config["shards"]


def check_processes(config: dict, available: int) -> None:
    wanted = processes_for(config)
    if wanted > available:
        raise BenchmarkError(
            f"workload needs {wanted} worker processes but only "
            f"{available} CPUs are available"
        )


def load_references() -> dict:
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- one run ---------------------------------------------------------------------


def run_operation(config: dict, timeout: float = OP_TIMEOUT_S) -> Tuple[Optional[dict], str]:
    """Run ``operation.py`` once with ``config``; returns ``(report,
    error)``. The child gets its own session so a timeout can kill it
    and every worker it spawned."""
    os.makedirs(TMP_DIR, exist_ok=True)
    scratch = os.path.join(TMP_DIR, f"op-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(scratch)
    config = dict(config, scratch=scratch)
    # A fixed hash seed gives every run (and the workers it spawns) the
    # same dict and set layouts; results do not depend on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "operation.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(config), timeout=timeout)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return None, f"run timed out after {timeout:.0f}s"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"run exited {proc.returncode}: {err.strip()[-1500:]}"
    try:
        return json.loads(lines[-1]), ""
    except ValueError:
        return None, f"unreadable run report: {lines[-1][:200]}"


# -- correctness gate ------------------------------------------------------------


def gate_grid(config: dict, report: Optional[dict], refs: dict) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` for one grid run: a job fails
    unless it ran ``ok`` with the recorded digest."""
    names = list(config["jobs"]) + [e["name"] for e in config.get("extra_jobs", ())]
    if report is None:
        return len(names), len(names), ["run produced no report"]
    expected = refs["paper_grid"]["jobs"]
    problems = []
    for job in report["jobs"]:
        if job["status"] != "ok":
            problems.append(f"{job['name']}: {job['status']} {job.get('error') or ''}".strip())
        elif job["digest"] != expected.get(job["name"]):
            problems.append(f"{job['name']}: digest {job['digest'][:12]} differs from reference")
    failed = len(problems)
    if (
        not problems and "results_digest" in report
        and sorted(names) == sorted(expected)
        and report["results_digest"] != refs["paper_grid"]["results_digest"]
    ):
        problems.append("results_digest differs from reference")
        failed = 1
    return len(names), failed, problems


def gate_fabric(config: dict, report: Optional[dict], expected: Optional[str]) -> Tuple[int, int, List[str]]:
    """``(1, failed, problems)`` for one fabric run: the digest must match,
    the ledger must be complete, and every partition must have sent one
    heartbeat per epoch."""
    if report is None:
        return 1, 1, ["run produced no report"]
    problems = []
    if report.get("error"):
        problems.append(report["error"].strip().splitlines()[-1])
    if config["plane"] and report.get("manifest_status") != "complete":
        problems.append(f"run ledger status {report.get('manifest_status')!r}")
    if "digest" in report:
        if expected is None:
            problems.append("no reference digest")
        elif report["digest"] != expected:
            problems.append(f"digest {report['digest'][:12]} != reference {expected[:12]}")
        if config["plane"]:
            want = report["shards"] * report["epochs"]
            if report["heartbeat_frames"] != want:
                problems.append(f"{report['heartbeat_frames']} heartbeat frames, want {want}")
    return 1, 1 if problems else 0, problems


class Gate:
    """The correctness gate of one workload at one seed."""

    def __init__(self, name: str, config: dict, seed: int, refs: dict) -> None:
        self.name = name
        self.config = config
        self.refs = refs
        self.expected = None
        self.notes: List[str] = []
        if config["kind"] == "fabric":
            # Recorded digests hold for the workload's own configuration.
            standard = dict(WORKLOADS[name], seed=seed) == config
            if standard:
                self.expected = refs.get(name, {}).get("digests", {}).get(str(seed))
            if self.expected is None:
                self.expected = self._fallback_digest()

    def _fallback_digest(self) -> Optional[str]:
        fallback = dict(self.config, **FALLBACK[self.name])
        report, error = run_operation(fallback)
        if report is None or report.get("error") or "digest" not in report:
            self.notes.append(f"fallback reference run failed: {error or report.get('error')}")
            return None
        self.notes.append(
            f"no recorded digest for this seed; compared against a "
            f"{fallback['shards']}-shard inline run with the plane off"
        )
        return report["digest"]

    def check(self, report: Optional[dict]) -> Tuple[int, int, List[str]]:
        if self.config["kind"] == "grid":
            return gate_grid(self.config, report, self.refs)
        return gate_fabric(self.config, report, self.expected)


# -- measurement ------------------------------------------------------------------


def loop(config: dict, gate: Gate, seconds: float) -> List[dict]:
    """Closed loop: start the next run when the previous one returns,
    while another run of the median length still fits in ``seconds``.
    Always makes at least one run."""
    runs: List[dict] = []
    t0 = time.perf_counter()
    while True:
        started = time.perf_counter()
        report, error = run_operation(config)
        length = time.perf_counter() - started
        attempted, failed, problems = gate.check(report)
        if error:
            problems.insert(0, error)
        runs.append({
            "report": report, "attempted": attempted, "failed": failed,
            "problems": problems, "length_s": length,
        })
        elapsed = time.perf_counter() - t0
        typical = statistics.median(r["length_s"] for r in runs)
        if elapsed + typical > seconds:
            return runs


def run_events(name: str, report: dict, refs: dict) -> int:
    """Simulated events in one run. The fabric reports them; for the
    grid they are the recorded per-job counts of the jobs in the run."""
    if "events" in report:
        return report["events"]
    counts = refs["paper_grid"]["events"]
    return sum(counts.get(job["name"], 0) for job in report["jobs"])


def median_or_zero(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(name: str, runs: List[dict], refs: dict) -> dict:
    """Medians over the runs that passed the gate (``ok_frac`` counts all)."""
    good = [r["report"] for r in runs if r["failed"] == 0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "wall_s": median_or_zero([r["wall_s"] for r in good]),
        "setup_s": median_or_zero([r["setup_s"] for r in good]),
        "events_per_s": median_or_zero([
            run_events(name, r, refs) / (r["wall_s"] - r["setup_s"]) for r in good
        ]),
        "peak_rss_mb": median_or_zero([r["peak_rss_mb"] for r in good]),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(name: str, traced: Optional[dict], runs: List[dict]) -> dict:
    """The per-layer account: self times and counts from the traced run,
    runner and barrier figures from the untraced runs."""
    metrics = {key: 0.0 for key in PER_LAYER}
    good = [r["report"] for r in runs if r["failed"] == 0]
    untraced_wall = median_or_zero([r["wall_s"] for r in good])
    if traced is not None:
        trace = traced["trace"]
        counts = trace["counts"]
        layers = trace["layers"]
        for key, value in layers.items():
            if key in metrics:
                metrics[key] = value
        for key in (
            "engine.events", "engine.cancelled", "engine.compactions",
            "net.packets", "queues.enqueues", "queues.drops",
            "core.aq_packets", "core.aq_marks", "core.aq_drops", "core.grant_ops",
            "transport.segments", "transport.retransmits", "transport.timeouts",
            "obs.trace_events", "obs.timewin_records", "shard.exported",
        ):
            metrics[key] = counts.get(key, 0)
        fired = counts.get("engine.events", 0)
        cancelled = counts.get("engine.cancelled", 0)
        metrics["engine.live_ratio"] = fired / (fired + cancelled) if fired + cancelled else 0.0
        sent = counts.get("transport.sent_bytes", 0)
        metrics["transport.goodput_ratio"] = (
            counts.get("transport.delivered_bytes", 0) / sent if sent else 0.0
        )
        metrics["obs.artifact_bytes"] = traced.get("artifact_bytes", 0)
        metrics["shard.epochs"] = traced.get("epochs", 0)
        metrics["trace.wall_s"] = trace["wall_s"]
        metrics["trace.overhead_ratio"] = (
            trace["wall_s"] / untraced_wall if untraced_wall else 0.0
        )
    if WORKLOADS[name]["kind"] == "grid":
        overheads, shares = [], []
        for r in good:
            capacity = r["processes"] * r["wall_s"]
            busy = sum(job["wall_s"] for job in r["jobs"])
            overheads.append(capacity - busy)
            shares.append(busy / capacity)
        metrics["runner.overhead_s"] = median_or_zero(overheads)
        metrics["runner.worker_busy_share"] = median_or_zero(shares)
        metrics["runner.retries"] = sum(
            job["attempts"] - 1 for r in runs if r["report"] for job in r["report"]["jobs"]
        )
    else:
        waits, efficiencies = [], []
        for r in good:
            parts = r["partitions"]
            waits.append(sum(p["barrier_wait_s"] for p in parts))
            compute = sum(p["wall_s"] - p["barrier_wait_s"] for p in parts)
            efficiencies.append(compute / (len(parts) * r["wall_s"]))
        metrics["shard.barrier_wait_s"] = median_or_zero(waits)
        metrics["shard.parallel_efficiency"] = median_or_zero(efficiencies)
    return metrics


def host_record() -> dict:
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.harness.hotpath import host_fingerprint

    return host_fingerprint()


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              config: Optional[dict] = None) -> dict:
    """Run one workload and return the full record; ``record["result"]``
    is the line the benchmark prints. ``config`` overrides the
    workload's configuration (the self-tests use it)."""
    config = dict(config or WORKLOADS[name])
    if config["kind"] == "fabric":
        config["seed"] = seed
    available = nproc()
    check_processes(config, available)
    refs = load_references()
    gate = Gate(name, config, seed, refs)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host_record(), "nproc": available,
        "processes": processes_for(config), "config": config,
    }
    started = time.perf_counter()
    traced_run = None
    if trace:
        report, error = run_operation(dict(config, trace=True))
        attempted, failed, problems = gate.check(report)
        if error:
            problems.insert(0, error)
        traced_run = {"report": report, "attempted": attempted,
                      "failed": failed, "problems": problems}
        if report is not None and "trace" in report:
            layers = report["trace"]["layers"]
            if layers["closure_residual_s"] > 1e-3 or layers["unattributed_s"] < -1e-6:
                traced_run["failed"] = max(failed, 1)
                problems.append(f"trace does not close: {layers}")
    remaining = seconds - (time.perf_counter() - started)
    runs = loop(config, gate, remaining if trace else seconds)
    counted = runs + ([traced_run] if traced_run else [])
    attempted = sum(r["attempted"] for r in counted)
    failed = sum(r["failed"] for r in counted)
    if trace:
        good_trace = traced_run["report"] if traced_run["failed"] == 0 else None
        metrics = per_layer(name, good_trace, runs)
        units = PER_LAYER
    else:
        metrics = end_to_end(name, runs, refs)
        units = END_TO_END
    record["notes"] = gate.notes
    record["runs"] = [
        {key: value for key, value in r.items() if key != "report"}
        | {"report": strip_spans(r["report"])}
        for r in counted
    ]
    if traced_run and traced_run["report"] and "trace" in traced_run["report"]:
        record["spans"] = traced_run["report"]["trace"]["spans"]
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": units[key]} for key in units
        },
    }
    return record


def strip_spans(report: Optional[dict]) -> Optional[dict]:
    if not report or "trace" not in report:
        return report
    trace = {k: v for k, v in report["trace"].items() if k != "spans"}
    return dict(report, trace=trace)


def write_record(record: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR,
        f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json",
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def print_record(record: dict, path: str) -> None:
    result = record["result"]
    host = record["host"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}  runs {len(record['runs'])}")
    print(f"host {host['implementation']} {host['python']} on {host['platform']}  "
          f"nproc {record['nproc']}  worker processes {record['processes']}")
    for note in record["notes"]:
        print(f"note: {note}")
    for run in record["runs"]:
        for problem in run["problems"]:
            print(f"FAIL: {problem}")
    for key, metric in result["metrics"].items():
        print(f"  {key:28s} {metric['value']:>16.6f} {metric['unit']}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':28s} {fail_frac:>16.6f} ratio "
          f"({result['failed']} of {result['attempted']})")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))


# -- references ---------------------------------------------------------------------


def record_references() -> None:
    """Re-record ``references.json`` from the current tree."""
    refs = {}
    grid = WORKLOADS["paper_grid"]
    untraced, error = run_operation(grid)
    traced, traced_error = run_operation(dict(grid, trace=True))
    if untraced is None or traced is None:
        raise BenchmarkError(f"grid reference run failed: {error or traced_error}")
    digests = {job["name"]: job["digest"] for job in untraced["jobs"] if job["status"] == "ok"}
    if len(digests) != len(GRID_SLICE):
        raise BenchmarkError("grid reference run had failing jobs")
    if digests != {job["name"]: job["digest"] for job in traced["jobs"]}:
        raise BenchmarkError("traced and untraced grid digests differ")
    refs["paper_grid"] = {
        "results_digest": untraced["results_digest"],
        "jobs": digests,
        "events": traced["trace"]["job_events"],
    }
    for name in ("fabric_mixed", "fabric_udp"):
        refs[name] = {"digests": {}}
        for seed in RECORDED_SEEDS:
            report, error = run_operation(dict(WORKLOADS[name], seed=seed))
            if report is None or report.get("error") or report.get("manifest_status") != "complete":
                raise BenchmarkError(f"{name} seed {seed}: {error or report.get('error')}")
            refs[name]["digests"][str(seed)] = report["digest"]
            print(f"{name} seed {seed}: {report['digest']}", flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record references.json and exit")
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit so a running child and
    # its workers are killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    try:
        if args.record:
            record_references()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_record(record, write_record(record))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
