"""Pipeline benchmark for deltacodes: paper tables, a wide member walk and
semigroup queries, each job in a fresh interpreter.

Usage, from the repository root:

    python3 perfbench/run.py --workload ref-f32 --seed 1 --seconds 36 --trace 0

Workloads (see ``workloads.py``):

- ``ref-f32``: the extension-field reference tables (9 rows each) and the
  F_7 planar table; with the pure kernel the column search is almost all of
  the time.
- ``walk-wide``: two-row tables over 62 points, so the member walk up to the
  rank bound dominates and the search is cheap; one job is over F_256, the
  only place the field-table build costs anything.
- ``semigroup-queries``: two large enumerations through the CLI and ten
  ``represent`` queries on the rational chain, with no field or code at all.

One harness process starts one single-threaded worker at a time
(``worker.py``); a fresh interpreter per job keeps the library's process-wide
caches from turning a second job into cache hits.  Passes over the
workload's jobs repeat while the next one is expected to end no later than
half a pass after ``--seconds``; every pass checks every output
(``oracles.py``).

``--trace 0`` prints the end-to-end metrics, medians over the passes:
``setup_s`` (interpreter start until the library is imported, median over
several starts), ``wall_s`` (all jobs of a pass) and ``peak_rss_mb``
(largest worker peak RSS) are in the result line; ``slowest_job_s`` and
``error_rate`` (jobs failed or wrong over jobs attempted, also given as the
``failed`` / ``attempted`` pair of the result line) are printed by name only:
a single job's time spreads too much across runs on a shared machine to gate
on, and a rate that is 0 when all is well cannot be a gated metric.  ``--trace 1`` runs one untraced pass and two traced
passes with probes on the library's public functions (``probes.py``), checks
that every count repeats exactly between the traced passes, and prints the
per-module metrics, the traced time of each job, the kernel-only timing of a
random F_32 9 x 24 matrix, and the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the same metrics by name
with their units, and stamp the run with the kernel backend, the Python
version, the commit, ``nproc`` and the seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

sys.path.insert(0, str(BENCH))
import oracles  # noqa: E402
import workloads  # noqa: E402

IMPORT_SAMPLES = 5
# A run must end within 180 s after its build; no worker outlives this.
HARD_LIMIT_S = 165.0
KERNEL_SEED = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Job metric names, one per job of every workload.
JOB_METRICS = {
    "ref-f32": ("dz427", "dz53", "dz75", "dr75", "ch75", "plane119"),
    "walk-wide": ("dr_big_a", "ch_big", "dr75", "dz_big", "ch75", "ch75_f256"),
    "semigroup-queries": ("chain119", "dr_big_a", "represent"),
}
JOB_PREFIX = {"ref-f32": "ref", "walk-wide": "wide", "semigroup-queries": "sg"}


def _per_layer() -> dict[str, str]:
    units = {
        "minweight.search_s": "s",
        "minweight.search_max_s": "s",
        "minweight.calls": "count",
        "minweight.random_f32_s": "s",
        "codes.scan_s": "s",
        "codes.scan_self_s": "s",
        "codes.row_eval_s": "s",
        "codes.row_calls": "count",
        "codes.goppa_s": "s",
        "codes.rows_out": "count",
        "codes.search_per_row": "ratio",
        "semigroup.successor_s": "s",
        "semigroup.successor_calls": "count",
        "semigroup.compare_calls": "count",
        "quadratics.quadext_new": "count",
        "semigroup.enumerate_s": "s",
        "semigroup.enumerate_members": "count",
        "semigroup.represent_s": "s",
        "semigroup.represent_calls": "count",
        "genesis.extend_n_s": "s",
        "genesis.extend_n_calls": "count",
        "deltaseq.validate_n_s": "s",
        "deltaseq.members_below_s": "s",
        "deltaseq.members_below_calls": "count",
        "approximants.basis_element_s": "s",
        "approximants.basis_element_calls": "count",
        "approximants.build_s": "s",
        "gf.element_ops": "count",
        "gf.tables_s": "s",
    }
    for workload, names in JOB_METRICS.items():
        for name in names:
            units[f"cli.job.{JOB_PREFIX[workload]}.{name}_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# Every per-layer metric name with its unit.
PER_LAYER = _per_layer()


# --- building and spawning -------------------------------------------------------


def build() -> None:
    """Build the package in place once per checkout, so a compiled kernel is
    used whenever the repository's build can make one."""
    stamp = WORK / "built"
    if stamp.exists():
        return
    WORK.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: build failed:\n{proc.stderr}")
    stamp.write_text("")


class Harness:
    """Spawns workers one at a time and keeps what they report."""

    def __init__(self, workdir: pathlib.Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.setup_samples: list[float] = []

    def spawn(self, job: dict, trace: bool) -> dict | None:
        """Run one job in a fresh worker; None when the worker failed."""
        name = job["name"]
        job_path = self.workdir / f"{name}.json"
        result_path = self.workdir / f"{name}.result"
        job_path.write_text(json.dumps(job))
        if "config" in job:
            (self.workdir / f"{name}.cfg").write_text(job["config"])
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "worker.py"), str(job_path), str(result_path)]
        cmd.append("1" if trace else "0")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(1.0, self.deadline - start),
            )
        except subprocess.TimeoutExpired:
            print(f"perfbench: job {name} timed out", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result_path.exists():
            print(f"perfbench: job {name} failed:\n{proc.stderr}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
        self.setup_samples.append(result["ready"] - start)
        if "out" in result:
            result["output"] = pathlib.Path(result["out"]).read_bytes()
        return result


def check(workload: str, job: dict, result: dict, seed: int, members) -> list[str]:
    if result.get("exit") != 0:
        return [f"{job['name']}: exit status {result.get('exit')}"]
    if workload == "ref-f32":
        return oracles.check_ref(job, result["output"])
    if workload == "walk-wide":
        return oracles.check_walk(job, result["output"], seed)
    if job["kind"] == "represent":
        return oracles.check_represent(job, result["answers"])
    return oracles.check_enumeration(job, result["output"], members)


def run_pass(harness, workload, jobs, seed, members, trace=False, self_check=False):
    """One pass over the jobs: (job times, peak RSS in kB, failures, probes).

    With ``self_check`` every output is also checked once with a deliberate
    error in it, and a job whose error goes unnoticed counts as failed.
    """
    times, rss, failures, probes = {}, 0, 0, []
    for job in jobs:
        result = harness.spawn(job, trace)
        problems = ["worker failed"] if result is None else check(
            workload, job, result, seed, members
        )
        if self_check and not problems and not check(
            workload, job, oracles.flipped(result), seed, members
        ):
            problems = [f"{job['name']}: the oracle missed a flipped cell"]
        if problems:
            failures += 1
            print("perfbench: " + "; ".join(problems), file=sys.stderr)
        if result is None:
            continue
        times[job["name"]] = result["job_s"]
        rss = max(rss, result["rss_kb"])
        if trace:
            probes.append(result["probes"])
    return times, rss, failures, probes


# --- reporting -------------------------------------------------------------------


def stamp(seed: int) -> dict:
    """What the numbers depend on besides the benchmark's own code."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import json, deltacodes.minweight as m;"
        "print(json.dumps([m.BACKEND, sorted(m.available_backends())]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(SRC)], capture_output=True, text=True, check=True
    ).stdout
    backend, available = json.loads(out)
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ) if shutil.which("git") else None
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(path.read_bytes())
    return {
        "backend": backend,
        "available_backends": available,
        "python": platform.python_version(),
        "commit": commit.stdout.strip() if commit and commit.returncode == 0 else None,
        "source_sha256": sources.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def report(metrics, units, correct, attempted, failed, info, extra=None):
    """Print the stamp, every metric and ``extra`` (name: (value, unit)) by
    name, then the result line, which carries only ``metrics``."""
    print("# " + " ".join(f"{k}={json.dumps(v)}" for k, v in info.items()))
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    for name, (value, unit) in (extra or {}).items():
        print(f"{name} {value} {unit}")
    print(f"error_rate {failed / attempted} ratio")
    body = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": body}
        )
    )


def untraced(harness, workload, seed, seconds, members):
    """Passes for about ``seconds``; end-to-end metrics."""
    start = time.monotonic()
    walls, slowest, peaks = [], [], []
    attempted = failed = 0
    while True:
        jobs = workloads.jobs_for(workload, seed, members)
        pass_start = time.monotonic()
        times, rss, failures, _ = run_pass(
            harness, workload, jobs, seed, members, self_check=not walls
        )
        attempted += len(jobs)
        failed += failures
        if times:
            walls.append(sum(times.values()))
            slowest.append(max(times.values()))
            peaks.append(rss / 1024)
        # Start another pass while it would overrun by at most half a pass.
        now = time.monotonic()
        if failures or now + (now - pass_start) / 2 > start + seconds:
            break
        if now + (now - pass_start) > harness.deadline:
            break
    metrics = {
        "setup_s": statistics.median(harness.setup_samples),
        "wall_s": statistics.median(walls) if walls else 0.0,
        "peak_rss_mb": statistics.median(peaks) if peaks else 0.0,
    }
    slowest_job = {"slowest_job_s": (statistics.median(slowest) if slowest else 0.0, "s")}
    return metrics, attempted, failed, slowest_job


def _layer_metrics(workload: str, totals: list[dict], times: dict) -> dict:
    """Sum the probe totals of one traced pass into per-layer metrics."""
    summed: dict[str, float] = {}
    for probe in totals:
        for key, value in probe.items():
            if key.endswith("_max_s"):
                summed[key] = max(summed.get(key, 0.0), value)
            else:
                summed[key] = summed.get(key, 0) + value
    out = {name: value for name, value in summed.items() if name in PER_LAYER}
    rows = summed.get("codes.rows_with_d", 0)
    out["codes.search_per_row"] = summed.get("minweight.calls", 0) / rows if rows else 0.0
    for wl, names in JOB_METRICS.items():
        for name in names:
            out[f"cli.job.{JOB_PREFIX[wl]}.{name}_s"] = times.get(name, 0.0) if wl == workload else 0.0
    return out


def traced(harness, workload, seed, members, info):
    """One untraced pass, two traced passes and the kernel-only timing of the
    default backend (every built backend is timed and must agree)."""
    jobs = workloads.jobs_for(workload, seed, members)
    plain, _, failed, _ = run_pass(harness, workload, jobs, seed, members, self_check=True)
    passes = []
    for _ in range(2):
        times, _, failures, probes = run_pass(harness, workload, jobs, seed, members, trace=True)
        failed += failures
        passes.append((times, _layer_metrics(workload, probes, times)))
    attempted = 3 * len(jobs)
    first, second = passes[0][1], passes[1][1]
    unsteady = [
        name for name, unit in PER_LAYER.items()
        if unit == "count" and first.get(name) != second.get(name)
    ]
    if unsteady:
        print("perfbench: counts differ between traced passes: " + ", ".join(unsteady), file=sys.stderr)
    metrics = {
        name: statistics.median([first.get(name, 0), second.get(name, 0)])
        if unit != "count" else first.get(name, 0)
        for name, unit in PER_LAYER.items()
    }
    traced_wall = statistics.median([sum(t.values()) for t, _ in passes])
    metrics["trace.overhead_s"] = traced_wall - sum(plain.values())

    kernel = harness.spawn({"name": "random_f32", "kind": "kernel", "seed": KERNEL_SEED}, False)
    attempted += 1
    if kernel is None or len(set(kernel["weights"].values())) != 1:
        failed += 1
        print("perfbench: kernel backends disagree or failed", file=sys.stderr)
    else:
        metrics["minweight.random_f32_s"] = kernel["backend_s"][info["backend"]]
        info["random_f32_s"] = kernel["backend_s"]
    return metrics, attempted, failed, not unsteady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=oracles.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "deltacodes" / "__init__.py").is_file():
        print(f"perfbench: no deltacodes sources under {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind so that subprocess.run kills the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    deadline = time.monotonic() + HARD_LIMIT_S
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        harness = Harness(workdir, deadline)
        # The first start compiles the bytecode; it is not a set-up sample.
        harness.spawn({"name": "import", "kind": "import"}, False)
        harness.setup_samples.clear()
        for _ in range(IMPORT_SAMPLES):
            harness.spawn({"name": "import", "kind": "import"}, False)
        members = []
        if args.workload == "semigroup-queries":
            members = oracles.chain_members((11, 9), workloads.CHAIN_BOUND)
        info = stamp(args.seed)
        if args.trace:
            metrics, attempted, failed, steady = traced(
                harness, args.workload, args.seed, members, info
            )
            units, extra = PER_LAYER, None
        else:
            metrics, attempted, failed, extra = untraced(
                harness, args.workload, args.seed, args.seconds, members
            )
            steady = True
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(metrics, units, steady and failed == 0, attempted, failed, info, extra)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
