#!/usr/bin/env python3
"""Benchmark of the mpqkd package, run from the root of a source checkout.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, fig-parallel, verify, decoy (see ``workloads.py``).  The
package is imported from ``src/`` of the checkout; without it the benchmark
exits with code 2 and prints no result.

With ``--trace 0`` the run measures the end-to-end metrics: set-up time of
a fresh interpreter (median of five), the mean wall time of one
iteration of the workload body, items per second, peak resident memory of
this process and the failure ratio.  With ``--trace 1`` it alternates
untraced and traced iterations and reports the per-layer metrics of
``tracing.py`` together with the tracing overhead.  An iteration starts
only while a typical one (the median so far) still ends within
``--seconds``.

Human-readable lines come first; the last line of standard output is the
JSON result.
"""
from __future__ import annotations

import os

# Before numpy loads: one BLAS/OpenMP thread, so fig-parallel's two workers
# stay within two cores.  MPQKD_SEED would silently override the spec seed.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"
os.environ.pop("MPQKD_SEED", None)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.prepare(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
)
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment() -> dict[str, object]:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "timer": "time.perf_counter",
    }


def _setup_seconds(workload: str, seed: int, workdir: Path) -> list[float]:
    """Fresh interpreter: import mpqkd and build the workload's inputs."""
    times = []
    for k in range(SETUP_RUNS):
        argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH)]
        argv += [workload, str(seed), str(workdir / f"setup{k}")]
        start = perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT)
        times.append(perf_counter() - start)
    return times


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    usable = [q for q in PERCENTILES if n - n * q / 100.0 >= 10]
    if not usable:
        return f"n={n}, too few samples for a percentile with 10 beyond it"
    q = usable[-1]
    cut = statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]
    return f"n={n}, p{q:g}={cut:.6g}"


def run(args: argparse.Namespace) -> dict[str, object]:
    import tracing
    import workloads

    workdir = ROOT / ".bench_run" / str(os.getpid())
    try:
        prepared = workloads.prepare(args.workload, args.seed, workdir)
        setup = [] if args.trace else _setup_seconds(args.workload, args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        walls: list[float] = []
        traced_walls: list[float] = []
        layer_iterations = []
        attempted = failed = 0
        every: list[float] = []
        min_iterations = 2 if args.trace else 1
        started = perf_counter()
        # Start an iteration only if a typical one still ends within --seconds.
        while len(every) < min_iterations or (
            perf_counter() - started + statistics.median(every) <= args.seconds
        ):
            traced = tracer is not None and len(every) % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
                root = tracer.open("iteration")
            start = perf_counter()
            try:
                outcome = prepared.run()
            except Exception:
                traceback.print_exc()
                outcome = None
            finally:
                wall = perf_counter() - start
                if traced:
                    tracer.close(root)
                    tracer.uninstall()
            every.append(wall)
            problems = (
                prepared.check(outcome)
                if outcome is not None
                else ["exception"] * prepared.operations
            )
            for problem in problems:
                print(f"FAIL {args.workload}: {problem}", file=sys.stderr)
            attempted += prepared.operations
            failed += min(len(problems), prepared.operations)
            if traced:
                traced_walls.append(wall)
                if isinstance(outcome, dict) and "csv" in outcome:
                    tracer.counts["sweep.csv_bytes"] = len(outcome["csv"])
                layer_iterations.append(tracing.summarize(tracer))
            else:
                walls.append(wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# env {json.dumps(_environment())}")
    print(f"# workload {args.workload}, seed {args.seed}, closed loop, 1 client")
    print(f"# iteration walls (s): {' '.join(f'{w:.3f}' for w in every)}")
    print(f"fail_ratio     {failed / attempted:.6g} ({failed}/{attempted} operations)")
    if args.trace:
        metrics = tracing.layer_metrics(layer_iterations)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        print(
            f"# traced {len(traced_walls)} and untraced {len(walls)} iterations; "
            f"tracing overhead {metrics['trace.overhead_s']:.4g} s per iteration"
        )
        if args.workload == "fig-parallel":
            print("# spans of the forked pool workers are not collected: parent-side metrics only")
        for name, value in metrics.items():
            print(f"{name:<40} {value:.6g}")
        units = _units("per_layer")
    else:
        # Mean over the run, not the median of its 3-10 iterations: on a
        # shared 2-core machine CPU throughput switches between states that
        # last seconds to minutes, and a median of few iterations flips
        # between them.
        wall_s = statistics.fmean(walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "items_per_s": prepared.items / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        rates = [prepared.items / w for w in walls]
        print(f"setup_s        {metrics['setup_s']:.6g} s  (median; {_tail(setup)})")
        print(f"wall_s         {wall_s:.6g} s  (mean; median {statistics.median(walls):.6g}, {_tail(walls)})")
        for name in (f"{prepared.item}_per_s", "items_per_s"):
            print(
                f"{name:<14} {metrics['items_per_s']:.6g} 1/s  "
                f"(items / mean wall; median {statistics.median(rates):.6g}, {_tail(rates)})"
            )
        print(f"peak_rss_mb    {metrics['peak_rss_mb']:.6g} MB")
        units = _units("end_to_end")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mpqkd" / "__init__.py").is_file():
        print(f"error: no mpqkd package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mpqkd

    if Path(mpqkd.__file__).resolve().parent != SRC / "mpqkd":
        print(f"error: imported mpqkd from {mpqkd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
