"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload direct-2card --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` alternates untraced and traced jobs and
reports the per-layer metrics.  Both run the workload's output checks
first.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
name every metric with its unit, the host, and each check.

The run reads and writes only inside the checkout it lives in: build
artefacts (the native kernels' compile cache), span dumps, per-run
records and the exact-count ledger go to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"

#: Fixed for every run, before NumPy loads: the program under test must
#: not change with the caller's environment.  One BLAS/OpenMP thread,
#: because the sharded workload already runs one host thread per card.
PINNED_ENV = {
    "REPRO_NATIVE": "1",
    "REPRO_TT_ENGINE": "batched",
    "REPRO_SHARD_WORKERS": "thread",
    "REPRO_TRACE": "",
    "REPRO_LINT": "off",
    "REPRO_SANITIZE": "0",
    "REPRO_PAPER_SCALE": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def host_info() -> dict:
    """What the numbers were measured on, and which program ran."""
    import numpy

    from repro.nbody_tt._native import native_available

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ram_mb": (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
                   // (1 << 20)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # without a C compiler the engine silently falls back to NumPy,
        # which is a different program to measure
        "native_fp32_kernels": native_available(),
        "env": PINNED_ENV,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ.update(PINNED_ENV, TMPDIR=str(BUILD / "tmp"))
    sys.path.insert(0, str(src))

    import workloads  # noqa: E402 - imports NumPy, after the env is pinned

    host = host_info()  # also builds the native kernels, before timing
    print(f"host {json.dumps(host)}")
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    t0 = time.perf_counter()
    outcome = workloads.run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    problems = list(outcome.problems)
    if outcome.counts:
        key = (f"{args.workload}:seed{args.seed}:"
               f"{workloads.source_digest(ROOT)}")
        problems += workloads.check_ledger(BUILD / "counts.json", key,
                                           outcome.counts)
    missing = sorted(set(units) - set(outcome.metrics))
    if outcome.metrics and missing:
        problems.append(f"metrics not measured: {missing}")
    metrics = {
        name: {"value": outcome.metrics[name], "unit": unit}
        for name, unit in units.items() if name in outcome.metrics
    }
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']!r} {entry['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and bool(metrics)
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (BUILD / f"result-{tag}.json").write_text(json.dumps({
        **result, "host": host, "counts": outcome.counts,
        "problems": problems, "run_s": time.perf_counter() - t0,
    }, indent=1))
    if outcome.recorder is not None:
        outcome.recorder.write(BUILD / f"spans-{tag}.json")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
