"""Host wall-clock scaling of the sharded multi-card backend.

``ShardedTTBackend`` models concurrent cards, and on the host it runs
each card's shard on its own thread; the native kernels release the GIL,
so the cards overlap on a multi-core host.  This bench times functional
force evaluations at N = 32768 (fp32, 64 cores, 4 cards) under both
worker modes and on a single card in the same run, moving the positions
before every evaluation as every timestep does (so each evaluation
re-tilizes and re-uploads the position columns).  Every mode is asserted
bit-identical to the single-card batched engine, and the ``thread``
configuration is gated at >= 0.7 x min(cards, nproc) times the single
card's steady wall clock, where ``nproc`` is the number of CPUs this
process may run on.  Script mode records the numbers in
``BENCH_shards.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_sharded_scaling.py

Pytest collection (``pytest benchmarks/bench_sharded_scaling.py``)
re-runs the gate configuration live and cross-checks the committed JSON,
mirroring the ``BENCH_engine.json`` arrangement.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import plummer
from repro.backends import make_backend
from repro.bench import ExperimentReport

N_GATE = 32768
N_CORES = 64
N_CARDS = 4
GATE_WORKERS = "thread"
#: required speedup per card the host can actually run at once
GATE_EFFICIENCY = 0.7
WORKER_MODES = ("serial", "thread")
#: evaluations per configuration; the first pays the program builds
EVALS = 3
#: position shift between evaluations: enough to change every float32
#: position, as on a real timestep
POSITION_STEP = 1e-4

ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_shards.json"


def host_cpus() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def required_speedup(nproc: int, cards: int = N_CARDS) -> float:
    """The gate: thread steady time over the single card's."""
    return round(GATE_EFFICIENCY * min(cards, nproc), 2)


def _time_backend(backend, system, evals=EVALS):
    """(timings, last evaluation) over ``evals`` moving-position calls."""
    times = []
    ev = None
    for step in range(evals):
        pos = system.pos + POSITION_STEP * step
        t0 = time.perf_counter()
        ev = backend.compute(pos, system.vel, system.mass)
        times.append(time.perf_counter() - t0)
    steady = min(times[1:]) if len(times) > 1 else times[0]
    return {"first_s": round(times[0], 4), "steady_s": round(steady, 4)}, ev


def measure(n=N_GATE, modes=WORKER_MODES):
    """Single-card vs 4-card wall clock for each worker mode at one N.

    Every sharded result is asserted bit-identical to the single card's
    (same position sequence, so the last evaluations match) before any
    timing is reported — a faster wrong answer must never land in the
    JSON.
    """
    system = plummer(n, seed=42)
    single, single_ev = _time_backend(
        make_backend("tt", cores=N_CORES), system
    )
    results = {"single_card": single, "workers": {}}
    for mode in modes:
        backend = make_backend(
            "tt", cores=N_CORES, cards=N_CARDS, workers=mode
        )
        timing, ev = _time_backend(backend, system)
        assert np.array_equal(single_ev.acc, ev.acc, equal_nan=True), mode
        assert np.array_equal(single_ev.jerk, ev.jerk, equal_nan=True), mode
        timing["speedup"] = round(
            single["steady_s"] / timing["steady_s"], 2
        )
        results["workers"][mode] = timing
    return results


def report(results, nproc: int) -> ExperimentReport:
    rep = ExperimentReport(
        "SHARDS", "sharded multi-card host wall clock"
    )
    rep.add(
        f"N={N_GATE} single card (fp32, {N_CORES} cores)",
        "measured in the same run",
        f"{results['single_card']['steady_s']:.3f}s steady",
    )
    for mode, timing in results["workers"].items():
        rep.add(
            f"N={N_GATE}, {N_CARDS} cards, workers={mode}",
            f">= {required_speedup(nproc)}x vs single card "
            f"(workers={GATE_WORKERS}, nproc={nproc})",
            f"{timing['steady_s']:.3f}s ({timing['speedup']:.2f}x), "
            "bit-identical",
        )
    rep.note("positions move before every evaluation; modelled device "
             "time is unchanged by the host fan-out")
    return rep


@pytest.fixture(scope="module")
def gate_results():
    return measure(modes=(GATE_WORKERS,))


def test_committed_gate_passed():
    """The committed BENCH_shards.json must carry a passing gate."""
    payload = json.loads(BENCH_JSON.read_text())
    gate = payload["gate"]
    assert gate["n"] == N_GATE
    assert gate["cards"] == N_CARDS
    assert gate["workers"] == GATE_WORKERS
    assert gate["required_speedup"] == required_speedup(gate["nproc"])
    assert gate["passed"] is True
    assert gate["measured_speedup"] >= gate["required_speedup"]


def test_wall_clock_gate_live(benchmark, gate_results):
    """Re-run the gate configuration against a live single card."""
    results = benchmark.pedantic(lambda: gate_results, rounds=1, iterations=1)
    nproc = host_cpus()
    report(results, nproc).print()
    speedup = results["workers"][GATE_WORKERS]["speedup"]
    assert speedup >= required_speedup(nproc), (speedup, nproc)


def test_all_worker_modes_bit_identical(benchmark):
    """measure() asserts identity internally; exercise every mode small."""
    results = benchmark.pedantic(
        lambda: measure(n=4096, modes=WORKER_MODES), rounds=1, iterations=1
    )
    assert set(results["workers"]) == set(WORKER_MODES)


def main() -> None:
    nproc = host_cpus()
    results = measure()
    report(results, nproc).print()
    speedup = results["workers"][GATE_WORKERS]["speedup"]
    required = required_speedup(nproc)
    payload = {
        "benchmark": "bench_sharded_scaling",
        "config": {
            "fmt": "float32",
            "n_cores": N_CORES,
            "n_cards": N_CARDS,
            "n": N_GATE,
            "nproc": nproc,
            "evaluations": EVALS,
            "baseline": "single card measured in the same run",
            "note": "seconds of host wall clock per functional force "
                    "evaluation, positions moved before each one; every "
                    "mode asserted bit-identical to the single-card "
                    "batched engine before timing is recorded",
        },
        "single_card": results["single_card"],
        "workers": results["workers"],
        "gate": {
            "n": N_GATE,
            "cards": N_CARDS,
            "nproc": nproc,
            "workers": GATE_WORKERS,
            "required_speedup": required,
            "measured_speedup": speedup,
            "passed": speedup >= required,
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {BENCH_JSON}")


if __name__ == "__main__":
    main()
