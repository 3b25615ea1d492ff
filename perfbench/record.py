"""Record the expected outputs the oracles compare against.

Run from the repository root at a commit whose outputs are trusted:

    python3 perfbench/record.py

It writes the five F_32 reference tables of ``ref-f32`` (seed-independent),
the digests of the ``walk-wide`` tables for the default seed, and the digests
of the two ``semigroup-queries`` enumerations into ``perfbench/expected``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys
import tempfile
import time

import run
import workloads
from oracles import DEFAULT_SEED, EXPECTED, chain_members, digest


def outputs(harness: run.Harness, workload: str) -> dict[str, bytes]:
    members = chain_members((11, 9), workloads.CHAIN_BOUND)
    out = {}
    for job in workloads.jobs_for(workload, DEFAULT_SEED, members):
        if job["kind"] != "cli":
            continue
        result = harness.spawn(job, False)
        if result is None or result["exit"] != 0:
            raise SystemExit(f"record: job {job['name']} failed")
        out[job["name"]] = result["output"]
    return out


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK))
    try:
        harness = run.Harness(workdir, deadline=time.monotonic() + 3600)
        tables = EXPECTED / "ref-f32"
        tables.mkdir(parents=True, exist_ok=True)
        for name, data in outputs(harness, "ref-f32").items():
            if name != "plane119":
                (tables / f"{name}.csv").write_bytes(data)
        for workload, file in (("walk-wide", "walk-wide-seed1.json"), ("semigroup-queries", "semigroup.json")):
            digests = {name: digest(data) for name, data in outputs(harness, workload).items()}
            (EXPECTED / file).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"record: wrote {EXPECTED}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
