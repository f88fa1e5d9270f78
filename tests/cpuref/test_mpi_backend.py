"""Tests for the MPI-like communicator and the CPU force backend."""

import numpy as np
import pytest

from repro.core import HostCostModel
from repro.core.forces import accel_jerk_reference
from repro.core.initial_conditions import plummer
from repro.cpuref.mpi import FakeComm, split_counts
from repro.cpuref.params import DEFAULT_CPU_COSTS
from repro.cpuref.reference import CPUForceBackend
from repro.errors import ConfigurationError


class TestSplitCounts:
    def test_balanced(self):
        assert split_counts(10, 3) == [4, 3, 3]
        assert split_counts(9, 3) == [3, 3, 3]
        assert sum(split_counts(102_400, 7)) == 102_400

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            split_counts(5, 0)


class TestFakeComm:
    def test_size_rank(self):
        comm = FakeComm(4, 2)
        assert comm.Get_size() == 4 and comm.Get_rank() == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FakeComm(0)
        with pytest.raises(ConfigurationError):
            FakeComm(2, 5)

    def test_allgatherv_places_data(self):
        comm = FakeComm(3, 1)
        counts = [2, 3, 2]
        recv = np.zeros((7, 3))
        send = np.ones((3, 3)) * 5.0
        comm.Allgatherv(send, recv, counts)
        assert np.all(recv[2:5] == 5.0)
        assert np.all(recv[:2] == 0.0) and np.all(recv[5:] == 0.0)

    def test_allgatherv_shape_checks(self):
        comm = FakeComm(2, 0)
        with pytest.raises(ConfigurationError):
            comm.Allgatherv(np.zeros((2, 3)), np.zeros((5, 3)), [2, 2])
        with pytest.raises(ConfigurationError):
            comm.Allgatherv(np.zeros((3, 3)), np.zeros((4, 3)), [2, 2])

    def test_collective_cost_accumulates(self):
        comm = FakeComm(4, 0)
        comm.Allgatherv(np.zeros((1, 3)), np.zeros((4, 3)), [1, 1, 1, 1])
        comm.Barrier()
        assert comm.collective_seconds > 0.0

    def test_single_rank_costs_nothing(self):
        comm = FakeComm(1, 0)
        recv = np.zeros((4, 3))
        comm.Allgatherv(np.ones((4, 3)), recv, [4])
        assert comm.collective_seconds == 0.0
        assert np.all(recv == 1.0)

    def test_bcast_root_validation(self):
        with pytest.raises(ConfigurationError):
            FakeComm(2, 0).Bcast(np.zeros(4), root=7)


class TestCPUForceBackend:
    def test_forces_match_simd_reference(self):
        s = plummer(200, seed=0)
        backend = CPUForceBackend(4, noisy=False)
        ev = backend.compute(s.pos, s.vel, s.mass)
        a64, j64 = accel_jerk_reference(s.pos, s.vel, s.mass)
        assert np.allclose(ev.acc, a64, rtol=1e-4, atol=1e-5)
        assert np.allclose(ev.jerk, j64, rtol=1e-3, atol=1e-4)

    def test_thread_count_does_not_change_results(self):
        s = plummer(150, seed=1)
        e1 = CPUForceBackend(1, noisy=False).compute(s.pos, s.vel, s.mass)
        e8 = CPUForceBackend(8, noisy=False).compute(s.pos, s.vel, s.mass)
        assert np.array_equal(e1.acc, e8.acc)
        assert np.array_equal(e1.jerk, e8.jerk)

    def test_timeline_segment_is_host_tagged(self):
        s = plummer(64, seed=2)
        ev = CPUForceBackend(2, noisy=False).compute(s.pos, s.vel, s.mass)
        assert len(ev.segments) == 1
        assert ev.segments[0].tag == "host"
        assert ev.model_seconds > 0

    def test_noise_is_per_job_and_bounded(self):
        rng = np.random.default_rng(0)
        factors = {
            CPUForceBackend(2, rng=rng).noise_factor for _ in range(10)
        }
        assert len(factors) == 10  # distinct per backend (per job)
        assert all(0.5 <= f <= 1.5 for f in factors)
        assert CPUForceBackend(2, noisy=False).noise_factor == 1.0

    def test_mpi_decomposition_matches_single_rank(self):
        s = plummer(100, seed=3)
        single = CPUForceBackend(2, noisy=False).compute(s.pos, s.vel, s.mass)
        # emulate 4 ranks and merge their slices as Allgatherv would
        from repro.cpuref.mpi import FakeComm, split_counts

        counts = split_counts(100, 4)
        acc = np.zeros((100, 3))
        jerk = np.zeros((100, 3))
        for rank in range(4):
            comm = FakeComm(4, rank)
            b = CPUForceBackend(2, comm=comm, noisy=False)
            ev = b.compute(s.pos, s.vel, s.mass)
            start = sum(counts[:rank])
            sl = slice(start, start + counts[rank])
            acc[sl] = ev.acc[sl]
            jerk[sl] = ev.jerk[sl]
        assert np.array_equal(acc, single.acc)
        assert np.array_equal(jerk, single.jerk)

    def test_host_cost_is_the_noisy_serial_section(self):
        """The host work a driver charges is the reference code's serial
        section, under the job's one noise factor."""
        costs = DEFAULT_CPU_COSTS
        b = CPUForceBackend(2, rng=np.random.default_rng(5))
        noise = b.noise_factor
        assert noise != 1.0
        assert b.host_cost == HostCostModel(
            costs.serial_seconds_per_particle * noise,
            init_seconds=costs.init_seconds,
            seconds_per_cycle=costs.serial_seconds_per_cycle * noise,
        )

    def test_backend_name(self):
        assert CPUForceBackend(32, noisy=False).name == "cpu-ref-omp32-mpi1"
