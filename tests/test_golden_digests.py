"""Absolute behaviour pins: committed digests of real runs.

Relative checks (1 vs k shards, plane on vs off, packet vs packet at two
parallelisms) cannot see a change that moves every run the same way.
These pins can: each is the SHA-256 of a job's deterministic result
(``json.dumps(deterministic_result(r), sort_keys=True)``) or the
``fabric_digest`` of a short inline ``share-fabric`` run, recorded in
``tests/golden_digests.json``. The jobs cover the token bucket, the
transmitter, the physical FIFO, UDP senders and AQ; the fabric runs
cover the sharded fat-tree with UDP and with mixed TCP+AQ traffic and
churn. The ``trace`` pins hold the SHA-256 of a CLI run's whole JSONL
trace, so a change to observation alone (event order, fields, values)
moves a pin too.

The ``grid`` pins cover every ``default_jobs()`` entry outside
``engine/*`` (whose results are wall clocks). They take minutes, so
tier-1 checks only that the pin set matches the registry;
``tests/check_golden_grid.py`` runs them (CI job ``golden-grid``).

A pin is exact per interpreter version. Where a version computes a job
differently, its pin sits under ``python_overrides`` (CPython 3.12's
compensated float ``sum()`` moves the last bit of some reported means),
recorded from the same source as the default pin.

Re-pin rule: a refactor must leave every pin unchanged. A change that
*means* to alter behaviour re-pins in the same change (rewrite the
affected entries in ``golden_digests.json``) and says in CHANGES.md
which pins moved and why. Never re-pin to make an unexplained
difference go away.
"""

import hashlib
import json
import os
import sys

import pytest

from repro.cli import main
from repro.harness.fabric import run_share_fabric
from repro.harness.jobs import default_jobs
from repro.harness.runner import deterministic_result, resolve_target

with open(
    os.path.join(os.path.dirname(__file__), "golden_digests.json"),
    encoding="utf-8",
) as _fh:
    GOLDEN = json.load(_fh)

_SPECS = {spec.name: spec for spec in default_jobs()}
_VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"
_JOB_PINS = dict(
    GOLDEN["jobs"],
    **GOLDEN.get("python_overrides", {}).get(_VERSION, {}).get("jobs", {}),
)


@pytest.mark.parametrize("name", sorted(GOLDEN["jobs"]))
def test_job_digest_pinned(name):
    spec = _SPECS[name]
    result = resolve_target(spec.target)(**dict(spec.kwargs))
    blob = json.dumps(deterministic_result(result), sort_keys=True)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    assert digest == _JOB_PINS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN["fabric"]))
def test_fabric_digest_pinned(name):
    pin = GOLDEN["fabric"][name]
    kwargs = {"traffic": pin["traffic"]}
    if pin.get("churn"):
        kwargs["churn"] = True
    report = run_share_fabric(1, pin["duration_ms"] * 1e-3, inline=True, **kwargs)
    assert report["digest"] == pin["digest"]


@pytest.mark.parametrize("name", sorted(GOLDEN["trace"]))
def test_trace_digest_pinned(name, tmp_path, capsys):
    pin = GOLDEN["trace"][name]
    path = tmp_path / "trace.jsonl"
    assert main(pin["argv"] + ["--telemetry", str(path)]) == 0
    capsys.readouterr()
    blob = path.read_bytes()
    assert blob.count(b"\n") == pin["events"]
    assert hashlib.sha256(blob).hexdigest() == pin["sha256"]


def test_grid_pins_cover_every_deterministic_job():
    deterministic = {name for name in _SPECS if not name.startswith("engine/")}
    assert set(GOLDEN["grid"]) == deterministic
    for name, digest in GOLDEN["jobs"].items():
        assert GOLDEN["grid"][name] == digest
