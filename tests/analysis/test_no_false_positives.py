"""The shipped N-body programs must lint clean and run sanitized-clean."""

import pytest

from repro.analysis import ProgramLinter, SanitizerContext
from repro.core import plummer
from repro.metalium import CloseDevice, CreateDevice
from repro.nbody_tt import TTForceBackend
from repro.nbody_tt.tiling import assign_tiles_to_cores
from repro.wormhole.dtypes import DataFormat
from repro.wormhole.tile import tiles_needed


@pytest.fixture
def device():
    dev = CreateDevice(0)
    yield dev
    if dev.is_open:
        CloseDevice(dev)


@pytest.mark.parametrize("charge_only", [False, True],
                         ids=["per-block", "batched"])
@pytest.mark.parametrize("fmt", [DataFormat.FLOAT32, DataFormat.BFLOAT16])
def test_nbody_programs_lint_clean(device, charge_only, fmt):
    backend = TTForceBackend(device, n_cores=4, fmt=fmt)
    n_tiles = tiles_needed(256)
    backend._ensure_buffers(n_tiles)
    device_tiles = assign_tiles_to_cores(n_tiles, 1)[0]
    program = backend._program_for(
        device_tiles, n_tiles, charge_only=charge_only
    )
    report = ProgramLinter().lint(program, device=device)
    assert len(report) == 0, report.format()


def test_lint_leaves_device_accounting_untouched(device):
    backend = TTForceBackend(device, n_cores=4)
    n_tiles = tiles_needed(256)
    backend._ensure_buffers(n_tiles)
    device_tiles = assign_tiles_to_cores(n_tiles, 1)[0]
    program = backend._program_for(device_tiles, n_tiles)

    before = (
        device.dram.bytes_read,
        device.dram.bytes_written,
        [c.counter.busy_cycles() for c in device.cores],
    )
    ProgramLinter().lint(program, device=device)
    after = (
        device.dram.bytes_read,
        device.dram.bytes_written,
        [c.counter.busy_cycles() for c in device.cores],
    )
    assert before == after


@pytest.mark.parametrize("engine", ["per-block", "batched"])
def test_nbody_force_runs_sanitized_clean(device, engine):
    with SanitizerContext(halt=False) as ctx:
        backend = TTForceBackend(device, n_cores=4, engine=engine)
        system = plummer(128, seed=3)
        backend.compute(system.pos, system.vel, system.mass)
    assert ctx.report.ok, ctx.report.format()


def test_sanitized_run_matches_unsanitized_values(device):
    system = plummer(128, seed=5)
    backend = TTForceBackend(device, n_cores=4, engine="per-block")
    plain = backend.compute(system.pos, system.vel, system.mass)
    with SanitizerContext():
        checked = backend.compute(system.pos, system.vel, system.mass)
    assert (plain.acc == checked.acc).all()
    assert (plain.jerk == checked.jerk).all()
