#!/usr/bin/env python3
"""Regenerate ``reference.json``: the sha256 and row count of the CSV that
each CSV workload writes at every grid offset.

    python3 bench/make_reference.py

Run it only when a change to the CSV bytes is intended; the benchmark
counts every run whose CSV differs from these digests as failed.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run  # pins threads and drops MPQKD_SEED before numpy loads

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def main() -> int:
    workdir = run.ROOT / ".bench_run" / "reference"
    table: dict[str, dict[str, dict[str, object]]] = {}
    try:
        for name in ("sweep", "fig-parallel"):
            for offset in range(workloads.GRID_OFFSETS):
                prepared = workloads.prepare(name, offset, workdir)
                outcome = prepared.run()
                if outcome["code"] != 0:
                    print(f"{name} offset {offset}: exit code {outcome['code']}", file=sys.stderr)
                    return 1
                csv = outcome["csv"]
                rows = csv.count(b"\n") - 1
                expected = prepared.items if name == "sweep" else rows
                problems = workloads.check_csv(csv.decode(), expected)
                if problems:
                    print(f"{name} offset {offset}: {problems[0]}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(offset)] = {
                    "sha256": hashlib.sha256(csv).hexdigest(),
                    "rows": rows,
                }
                print(f"{name} offset {offset}: {rows} rows")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
