"""Pinning tests for profile_device's accumulation & merge semantics.

Scope absorbs the profiler's counters as per-core span attributes, so
the way counters accumulate across programs, stay isolated per device,
and behave on empty devices must not drift.  These tests freeze the
behaviour (including the explicit ``allow_empty`` escape hatch added
for ``repro simulate --profile``).
"""

import numpy as np
import pytest

from repro.backends import ShardedTTBackend
from repro.core import plummer
from repro.errors import ConfigurationError
from repro.metalium import (
    CoreRange,
    CreateBuffer,
    CreateCircularBuffer,
    CreateDevice,
    CreateKernel,
    CreateProgram,
    EnqueueProgram,
    EnqueueWriteBuffer,
    GetCommandQueue,
    SetRuntimeArgs,
)
from repro.nbody_tt import TTForceBackend
from repro.wormhole import tilize_1d
from repro.wormhole.riscv import RiscvRole
from repro.wormhole.profiler import profile_device


def run_forces(device, n=1024, cores=2, seed=5):
    s = plummer(n, seed=seed)
    TTForceBackend(device, n_cores=cores).compute(s.pos, s.vel, s.mass)


def square_tiles_program(device, n_tiles=2):
    """A minimal read->compute program over ``n_tiles`` tiles, one core."""
    buf = CreateBuffer(device, n_tiles)
    queue = GetCommandQueue(device)
    EnqueueWriteBuffer(queue, buf, tilize_1d(np.arange(n_tiles * 1024.0)))

    program = CreateProgram(CoreRange(0, 1))
    CreateCircularBuffer(program, 0, 2)

    def reader(core, args):
        cb = core.get_cb(0)
        for t in args["my_tiles"]:
            yield from cb.reserve_back(1)
            cb.write_page(buf.noc_read_tile(core.core_id, t))
            cb.push_back(1)

    def compute(core, args):
        cb = core.get_cb(0)
        for _ in args["my_tiles"]:
            yield from cb.wait_front(1)
            (t,) = cb.pop_front(1)
            core.sfpu.square(t)

    CreateKernel(program, "reader", RiscvRole.NC, "data_movement", reader)
    CreateKernel(program, "compute", RiscvRole.T1, "compute", compute)
    SetRuntimeArgs(program, 0, {"my_tiles": list(range(n_tiles))})
    return queue, program


class TestEmptyDevices:
    def test_fresh_device_raises_by_default(self):
        with pytest.raises(ConfigurationError, match="no accumulated work"):
            profile_device(CreateDevice(0))

    def test_allow_empty_returns_an_empty_profile(self):
        profile = profile_device(CreateDevice(0), allow_empty=True)
        assert profile.cores == ()
        assert profile.critical_path_seconds == 0.0
        assert profile.mean_utilisation == 0.0
        assert profile.active_cores == 0

    def test_empty_profile_table_renders_a_fallback_line(self):
        text = profile_device(CreateDevice(0), allow_empty=True).table()
        assert text == "(no per-core profiler records)"

    def test_allow_empty_is_transparent_on_a_busy_device(self):
        device = CreateDevice(0)
        run_forces(device)
        assert (profile_device(device, allow_empty=True)
                == profile_device(device))


class TestAccumulation:
    def test_counters_accumulate_across_enqueued_programs(self):
        """Re-enqueueing a program doubles every per-core counter."""
        device = CreateDevice(0)
        queue, program = square_tiles_program(device)
        EnqueueProgram(queue, program)
        first = profile_device(device)
        EnqueueProgram(queue, program)
        second = profile_device(device)

        assert second.critical_path_seconds == pytest.approx(
            2.0 * first.critical_path_seconds
        )
        for c1, c2 in zip(first.cores, second.cores):
            assert c2.compute_cycles == pytest.approx(2.0 * c1.compute_cycles)
            assert c2.datamove_cycles == pytest.approx(
                2.0 * c1.datamove_cycles
            )
            assert c2.busy_seconds == pytest.approx(2.0 * c1.busy_seconds)

    def test_force_backend_profiles_the_last_evaluation_only(self):
        """TTForceBackend clears counters per evaluation: the profile is a
        snapshot of the *last* compute(), not a running total (this is
        what `repro simulate --profile` titles "last force evaluation")."""
        device = CreateDevice(0)
        s = plummer(1024, seed=5)
        backend = TTForceBackend(device, n_cores=2)
        backend.compute(s.pos, s.vel, s.mass)
        first = profile_device(device)
        backend.compute(s.pos, s.vel, s.mass)
        second = profile_device(device)
        assert second == first

    def test_utilisation_is_relative_to_the_merged_critical_path(self):
        device = CreateDevice(0)
        run_forces(device)
        profile = profile_device(device)
        worst = max(c.busy_seconds for c in profile.cores)
        for core in profile.cores:
            assert core.utilisation == pytest.approx(
                core.busy_seconds / worst
            )

    def test_top_ops_sorted_by_count(self):
        device = CreateDevice(0)
        run_forces(device)
        busy = next(
            c for c in profile_device(device).cores if c.busy_seconds > 0
        )
        counts = [n for _, n in busy.top_ops]
        assert counts == sorted(counts, reverse=True)
        assert len(busy.top_ops) <= 5


class TestMultiDevice:
    def test_profiles_are_per_device(self):
        """Work on one card never leaks into another card's profile."""
        dev_a = CreateDevice(0)
        dev_b = CreateDevice(1)
        run_forces(dev_a)
        # dev_b carried nothing: its profile is still the empty one.
        with pytest.raises(ConfigurationError):
            profile_device(dev_b)
        assert profile_device(dev_b, allow_empty=True).active_cores == 0

        # And running different work on dev_b leaves dev_a untouched.
        before = profile_device(dev_a)
        run_forces(dev_b, n=2048, cores=4, seed=9)
        assert profile_device(dev_a) == before

    def test_multi_device_backend_splits_work_across_cards(self):
        devices = [CreateDevice(0), CreateDevice(1)]
        s = plummer(2048, seed=7)  # 2 tiles -> one i-tile per card
        ShardedTTBackend(2, n_cores=2, devices=devices).compute(
            s.pos, s.vel, s.mass
        )
        profiles = [profile_device(d) for d in devices]
        assert all(p.active_cores == 1 for p in profiles)
