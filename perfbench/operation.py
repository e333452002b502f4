"""One benchmark operation, run in a fresh interpreter.

``run.py`` starts this script once per workload run, writes the run's
configuration as JSON to its stdin, and reads one JSON report from the
last line of its stdout. A fresh interpreter per run means every run
pays the imports a user of ``repro run-all`` or ``repro share-fabric``
pays, and its peak resident set is its own.

Report times are seconds from the moment this script starts, before it
imports ``repro``:

* ``wall_s`` -- until the entry point returns;
* ``setup_s`` -- until the first simulated event. For the runner this is
  the earliest job start (a job's landing time minus its own
  ``JobResult.wall_s``); for the fabric it is the earliest epoch-0
  heartbeat's arrival minus the frame's ``wall_s``, which the shard
  starts counting just before its first event.

With ``"trace": true`` the run executes in this process under
:class:`tracer.Tracer` (job targets through ``resolve_target``, the
fabric through the inline lockstep driver) and the report carries the
per-layer account.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def job_digest(name: str, status: str, result) -> str:
    """Hash of one job's deterministic payload, in the form
    ``results_digest`` hashes it."""
    from repro.harness.runner import deterministic_result

    blob = json.dumps(
        {"name": name, "status": status, "result": deterministic_result(result)},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def grid_specs(config: dict) -> list:
    """The slice of ``default_jobs()`` named by the config, in registry
    order, followed by any extra specs (the failure self-test adds
    failing jobs this way)."""
    from repro.harness.jobs import default_jobs
    from repro.harness.runner import JobSpec

    wanted = set(config["jobs"])
    specs = [spec for spec in default_jobs() if spec.name in wanted]
    missing = wanted - {spec.name for spec in specs}
    if missing:
        raise ValueError(f"jobs not in default_jobs(): {sorted(missing)}")
    for extra in config.get("extra_jobs", ()):
        specs.append(JobSpec(
            name=extra["name"], target=extra["target"],
            kwargs=extra.get("kwargs", {}),
            timeout_s=extra.get("timeout_s", 300.0),
        ))
    return specs


def run_grid(config: dict, t_start: float) -> dict:
    from repro.harness.runner import results_digest, run_jobs

    specs = grid_specs(config)
    landed = {}
    results = run_jobs(
        specs, jobs=config["processes"],
        on_result=lambda r: landed.__setitem__(r.name, time.perf_counter()),
    )
    t_end = time.perf_counter()
    starts = [landed[r.name] - r.wall_s for r in results if r.ok]
    return {
        "wall_s": t_end - t_start,
        "setup_s": min(starts) - t_start if starts else None,
        "processes": config["processes"],
        "jobs": [
            {
                "name": r.name, "status": r.status, "attempts": r.attempts,
                "wall_s": r.wall_s,
                "digest": job_digest(r.name, r.status, r.result),
                "error": (r.error or "")[-400:] or None,
            }
            for r in results
        ],
        "results_digest": results_digest(results),
    }


def run_grid_traced(config: dict, t_start: float) -> dict:
    """Every job target, in-process and in order, under the tracer. Each
    job is seeded as the runner's worker seeds it."""
    import random

    import numpy

    from repro.harness.runner import resolve_target

    import tracer as tracing

    specs = grid_specs(config)
    tracer = tracing.Tracer()
    tracer.install()
    jobs = []
    job_events = {}
    try:
        t0 = time.perf_counter()
        with tracer.coarse("operation"):
            for spec in specs:
                seed = spec.worker_seed()
                random.seed(seed)
                numpy.random.seed(seed % 2**32)
                with tracer.coarse(f"job:{spec.name}"):
                    result = resolve_target(spec.target)(**spec.kwargs)
                before = tracer.counts["engine.events"]
                tracer.harvest()
                job_events[spec.name] = tracer.counts["engine.events"] - before
                jobs.append({
                    "name": spec.name, "status": "ok", "attempts": 1,
                    "digest": job_digest(spec.name, "ok", result),
                })
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    return {
        "wall_s": time.perf_counter() - t_start,
        "processes": 1,
        "jobs": jobs,
        "trace": dict(trace_report(tracer, traced_wall), job_events=job_events),
    }


def run_fabric(config: dict, t_start: float, traced: bool = False) -> dict:
    from repro.harness.fabric import run_share_fabric

    tracer = None
    span = contextlib.nullcontext()
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        span = tracer.coarse("operation")
    run_dir = os.path.join(config["scratch"], "run") if config["plane"] else None
    frames = []
    inline = config["inline"] or traced
    report = None
    error = None
    try:
        t0 = time.perf_counter()
        try:
            with span:
                report = run_share_fabric(
                    config["shards"], config["duration"], inline=inline,
                    run_dir=run_dir, seed=config["seed"],
                    on_heartbeat=lambda f: frames.append((time.perf_counter(), f)),
                    **config["kwargs"],
                )
        except Exception:
            error = traceback.format_exc(limit=8)[-1500:]
        t_end = time.perf_counter()
        if tracer is not None:
            tracer.harvest()
    finally:
        if tracer is not None:
            tracer.restore()

    out = {
        "wall_s": t_end - t_start,
        "processes": 1 if inline else config["shards"],
        "error": error,
    }
    if run_dir is not None:
        out["manifest_status"] = manifest_status(run_dir)
        out["artifact_bytes"] = tree_bytes(run_dir)
    if report is None:
        return out
    first_epoch = [arrived - f["wall_s"] for arrived, f in frames if f["epoch"] == 0]
    last = {}
    for _, frame in frames:
        last[frame["partition"]] = frame
    out.update({
        "setup_s": min(first_epoch) - t_start if first_epoch else None,
        "digest": report["digest"],
        "events": report["results"]["events"],
        "epochs": report["epochs"],
        "shards": report["shards"],
        "heartbeat_frames": report.get("heartbeat_frames", 0),
        # Per partition: time since its first event, and how much of it
        # was spent blocked on barriers (cumulative, as of its last frame).
        "partitions": [
            {"wall_s": f["wall_s"], "barrier_wait_s": f["barrier_wait_s"]}
            for _, f in sorted(last.items())
        ],
    })
    if tracer is not None:
        out["trace"] = trace_report(tracer, t_end - t0)
    return out


def manifest_status(run_dir: str):
    from repro.errors import ConfigurationError
    from repro.obs.runledger import load_manifest

    try:
        return load_manifest(run_dir)[1].get("status")
    except ConfigurationError:
        return None


def tree_bytes(path: str) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


def trace_report(tracer, traced_wall: float) -> dict:
    return {
        "wall_s": traced_wall,
        "layers": tracer.layer_report(traced_wall),
        "counts": dict(tracer.counts),
        "spans": tracer.kept,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped, MiB
    (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> None:
    t_start = time.perf_counter()
    config = json.loads(sys.stdin.read())
    traced = bool(config.get("trace"))
    if config["kind"] == "grid":
        report = (run_grid_traced if traced else run_grid)(config, t_start)
    else:
        report = run_fabric(config, t_start, traced=traced)
    report["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write("\n" + json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
