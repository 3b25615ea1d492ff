"""Run one benchmark job in a fresh interpreter and write its result as JSON.

Usage: python3 perfbench/worker.py JOB.json RESULT.json TRACE

The harness starts one worker per job, so the library's process-wide caches
start empty every time.  The worker reports the monotonic clock right after
the library is imported (the harness subtracts its spawn time to get the
set-up time), the job's own wall time, its peak RSS and, with TRACE=1, the
per-module probe totals.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import deltacodes.cli  # noqa: E402
import deltacodes.minweight  # noqa: E402
import deltacodes.semigroup  # noqa: E402

READY = time.monotonic()


def run_cli(job: dict, workdir: pathlib.Path) -> dict:
    config = workdir / f"{job['name']}.cfg"
    out = workdir / f"{job['name']}.out"
    argv = job["argv"] + ["--config", str(config), "--out", str(out)]
    start = time.perf_counter()
    code = deltacodes.cli.main(argv)
    elapsed = time.perf_counter() - start
    return {"exit": code, "job_s": elapsed, "out": str(out)}


def run_represent(job: dict) -> dict:
    from fractions import Fraction

    from deltacodes.genesis import build_type_e
    from deltacodes.semigroup import RatValue

    start = time.perf_counter()
    delta = build_type_e(tuple(job["under"]), job["steps"])
    reps = [
        deltacodes.semigroup.represent(delta, RatValue(Fraction(v)))
        for v in job["values"]
    ]
    elapsed = time.perf_counter() - start
    answers = [{"exponents": list(r.exponents), "bounds": list(r.bounds)} for r in reps]
    return {"exit": 0, "job_s": elapsed, "answers": answers}


def run_kernel(job: dict) -> dict:
    """The random F_32 9 x 24 matrix of the kernel micro-benchmark
    (wmax 5), timed on every backend that imports."""
    import random

    from deltacodes.gf import FieldSpec, _tables

    q, r, n, wmax = 32, 9, 24, 5
    spec = FieldSpec(2, 5)
    rng = random.Random(job["seed"])
    cols = [rng.randrange(q) for _ in range(r * n)]
    t = _tables(spec)
    times, weights = {}, {}
    for backend in sorted(deltacodes.minweight.available_backends()):
        start = time.perf_counter()
        weights[backend] = deltacodes.minweight.min_dependent_columns(
            cols, r, n, q, t.mul, t.sub, t.inv, wmax, backend=backend
        )
        times[backend] = time.perf_counter() - start
    return {"exit": 0, "job_s": sum(times.values()), "backend_s": times, "weights": weights}


def peak_rss_kb() -> int:
    """This process's own peak RSS (VmHWM).  ``ru_maxrss`` would not do: Linux
    carries it over exec, so it would report the harness's RSS whenever that
    is larger."""
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    job_path, result_path, trace = sys.argv[1:4]
    job = json.loads(pathlib.Path(job_path).read_text())
    result: dict = {"ready": READY}
    probes = None
    if trace == "1":
        from probes import Probes

        probes = Probes()
        probes.install()
    kind = job["kind"]
    if kind == "cli":
        result.update(run_cli(job, pathlib.Path(job_path).parent))
    elif kind == "represent":
        result.update(run_represent(job))
    elif kind == "kernel":
        result.update(run_kernel(job))
    elif kind != "import":
        raise ValueError(f"unknown job kind {kind!r}")
    if probes is not None:
        result["probes"] = probes.totals()
    result["rss_kb"] = peak_rss_kb()
    pathlib.Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
