"""E8 / Section 5 future work: multi-accelerator scaling over Ethernet.

The paper plans "to extend our benchmarks to MPI with multiple
accelerators ... which ultimately will enable us to perform both strong
and weak scalability tests".  The host of the paper's campaign carries
four n300 cards; this bench runs those tests on the simulator:

* strong scaling: fixed N = 102 400 over 1, 2, 4 devices — saturates at
  2 devices because 100 i-tiles over 128 cores already leave one tile per
  core (granularity), a real deployment consideration;
* strong scaling at 4x the particle count — near-linear through 4 devices;
* weak scaling: N per device fixed — time *grows* with device count since
  the all-pairs inner loop covers the global particle set (O(N^2) total
  work), the fundamental wall the paper's future work will face;
* functional verification that a 2-device run returns forces identical to
  a 1-device run;
* measured host wall clock next to the modelled device seconds, so the
  modelled concurrency claim can be compared against what the host
  actually delivers with one thread per card.
"""

import time

import numpy as np
import pytest

from repro import plummer
from repro.backends import make_backend
from repro.bench import ExperimentReport
from repro.config import PAPER_N_PARTICLES
from repro.nbody_tt import DeviceTimeModel

DEVICES = [1, 2, 4]


def test_strong_scaling(benchmark):
    def sweep():
        out = {}
        # 512 tiles divide evenly across 64, 128, and 256 cores, isolating
        # the interconnect term from tile-granularity effects
        for scale, n in (("paper", PAPER_N_PARTICLES),
                         ("512-tile", 512 * 1024)):
            out[scale] = {
                d: DeviceTimeModel(n_cores=64, n_devices=d).eval_seconds(n)
                for d in DEVICES
            }
        return out

    times = benchmark(sweep)
    report = ExperimentReport("E8a", "strong scaling, force evaluation")
    for scale, by_dev in times.items():
        base = by_dev[1]
        for d in DEVICES:
            report.add(
                f"N={scale} paper, {d} device(s)", "-",
                f"{by_dev[d]:.2f} s (speedup {base / by_dev[d]:.2f}x)",
            )
    report.note("at N=102400 the 100 tiles hit the one-tile-per-core floor "
                "at 2 devices; the 512-tile workload scales cleanly to 4")
    report.print()

    t1x = times["paper"]
    assert t1x[1] / t1x[2] == pytest.approx(2.0, rel=0.02)
    assert t1x[2] == pytest.approx(t1x[4], rel=0.02)  # granularity floor
    big = times["512-tile"]
    assert big[1] / big[4] == pytest.approx(4.0, rel=0.05)


def test_weak_scaling(benchmark):
    """Fixed N per device: all-pairs work grows as (d*N0)^2 / d = d*N0^2."""
    n0 = PAPER_N_PARTICLES

    def sweep():
        return {
            d: DeviceTimeModel(n_cores=64, n_devices=d).eval_seconds(d * n0)
            for d in DEVICES
        }

    times = benchmark(sweep)
    report = ExperimentReport("E8b", "weak scaling, N per device fixed")
    for d in DEVICES:
        report.add(f"{d} device(s), N={d * n0}", "time grows ~d",
                   f"{times[d]:.2f} s")
    report.note("O(N^2) all-pairs: doubling devices AND particles doubles "
                "the per-device work — direct codes do not weak-scale")
    report.print()

    assert times[2] / times[1] == pytest.approx(2.0, rel=0.1)
    assert times[4] / times[2] == pytest.approx(2.0, rel=0.1)


def test_multidevice_functional_equivalence(benchmark):
    """Two cards, each computing half the i-tiles, reproduce the
    single-card forces exactly (same tile math, same order)."""
    system = plummer(4096, seed=9)

    def run():
        single = make_backend("tt", cores=4).compute(
            system.pos, system.vel, system.mass
        )
        double = make_backend("tt", cores=4, cards=2).compute(
            system.pos, system.vel, system.mass
        )
        return single, double

    single, double = benchmark.pedantic(run, rounds=1, iterations=1)
    assert np.array_equal(single.acc, double.acc)
    assert np.array_equal(single.jerk, double.jerk)
    # the 2-device run reports an allgather segment over the QSFP fabric
    details = [s.detail for s in double.segments]
    assert "allgather" in details


def test_modelled_vs_measured_wall_clock(benchmark):
    """Modelled device seconds next to measured host wall clock, 1 vs 4
    cards, so the scaling claims above stay anchored to what the host's
    per-card threads actually deliver on this machine."""
    n = 8192
    system = plummer(n, seed=11)

    def sweep():
        out = {}
        for cards in (1, 4):
            options = {"cores": 64} if cards == 1 else {
                "cores": 64, "cards": cards,
            }
            backend = make_backend("tt", **options)
            backend.compute(system.pos, system.vel, system.mass)  # warm
            t0 = time.perf_counter()
            ev = backend.compute(system.pos, system.vel, system.mass)
            wall_s = time.perf_counter() - t0
            modelled_s = sum(
                s.seconds for s in ev.segments if s.tag == "device"
            )
            out[cards] = {"modelled_s": modelled_s, "wall_s": wall_s}
        return out

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = ExperimentReport(
        "E8c", "modelled device seconds vs measured host wall clock"
    )
    for cards, t in times.items():
        report.add(
            f"N={n}, {cards} card(s), 64 cores", "-",
            f"modelled {t['modelled_s']:.4f} s, "
            f"measured {t['wall_s']:.4f} s host wall clock",
        )
    report.note("modelled time prices the simulated Wormhole cards; "
                "measured time is this host driving one thread per card")
    report.print()

    for t in times.values():
        assert t["modelled_s"] > 0.0
        assert t["wall_s"] > 0.0
