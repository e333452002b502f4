"""Check every deterministic job against its pin in ``golden_digests.json``.

Runs each ``default_jobs()`` entry outside ``engine/*`` through
``run_jobs(jobs=2)`` and compares the SHA-256 of its deterministic result
with the ``grid`` pin. Exits 1 naming each job whose digest moved (or
that failed), 0 when all match. The pins were computed under CPython
3.11; see ``tests/test_golden_digests.py`` for the re-pin rule.

Usage: ``PYTHONPATH=src python tests/check_golden_grid.py``
"""

import hashlib
import json
import os
import sys

from repro.harness.jobs import default_jobs
from repro.harness.runner import deterministic_result, run_jobs


def main() -> int:
    with open(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json"),
        encoding="utf-8",
    ) as fh:
        pins = json.load(fh)["grid"]
    specs = [spec for spec in default_jobs() if not spec.name.startswith("engine/")]
    moved = sorted(set(pins) ^ {spec.name for spec in specs})
    for name in moved:
        print(f"{name}: in the registry or the pins, not both")
    for result in run_jobs(specs, jobs=2):
        blob = json.dumps(deterministic_result(result.result), sort_keys=True)
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        if not result.ok:
            moved.append(result.name)
            print(f"{result.name}: {result.status}")
        elif result.name in pins and digest != pins[result.name]:
            moved.append(result.name)
            print(f"{result.name}: digest {digest} != pin {pins[result.name]}")
    print(f"{len(specs)} jobs checked, {len(moved)} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
