"""One seeded hazard per sanitizer hazard class, plus mode mechanics."""

import pytest

from repro.analysis import HAZARD_KINDS, Hazard, SanitizerContext, hooks
from repro.errors import SanitizerError
from repro.metalium import (
    CBConfig,
    CoreRange,
    CreateBuffer,
    CreateDevice,
    CloseDevice,
    EnqueueProgram,
    EnqueueWriteBuffer,
    GetCommandQueue,
    KernelSpec,
    Program,
)
from repro.wormhole.dtypes import DataFormat
from repro.wormhole.riscv import RiscvRole
from repro.wormhole.tile import Tile


@pytest.fixture(autouse=True)
def _no_ambient_context():
    """Suspend any REPRO_SANITIZE ambient context: these tests manage
    their own contexts and assert on the uninstalled state.  ``ambient()``
    installs it first if no buffer or program has yet."""
    prev = hooks.ambient()
    if prev is not None:
        hooks.uninstall(prev)
    yield
    if prev is not None:
        hooks.install(prev)


@pytest.fixture
def device():
    dev = CreateDevice(0)
    yield dev
    if dev.is_open:
        CloseDevice(dev)


def _program(*specs, cbs=((0, 4),), cores=(0, 1)):
    program = Program(core_range=CoreRange(*cores))
    for cb_id, capacity in cbs:
        program.add_cb(CBConfig(cb_id, capacity))
    for spec in specs:
        program.add_kernel(spec)
    return program


def _consume(cb_id, n):
    def body(core, args):
        cb = core.get_cb(cb_id)
        for _ in range(n):
            yield from cb.wait_front(1)
            cb.pop_front(1)

    return body


class TestHazardClasses:
    def test_push_without_reserve(self, device):
        def bad(core, args):
            cb = core.get_cb(0)
            cb.write_page(Tile.zeros(DataFormat.FLOAT32))
            cb.push_back(1)
            yield

        program = _program(
            KernelSpec("bad", RiscvRole.NC, "data_movement", bad),
            KernelSpec("cons", RiscvRole.T1, "compute", _consume(0, 1)),
        )
        with pytest.raises(SanitizerError) as excinfo:
            EnqueueProgram(GetCommandQueue(device), program, sanitize=True)
        assert excinfo.value.hazard.kind == "push-without-reserve"
        assert excinfo.value.hazard.kernel == "bad"

    def test_pop_beyond_available(self, device):
        def bad(core, args):
            core.get_cb(0).pop_front(1)  # no wait_front, nothing pushed
            yield

        program = _program(KernelSpec("bad", RiscvRole.T1, "compute", bad))
        with pytest.raises(SanitizerError) as excinfo:
            EnqueueProgram(GetCommandQueue(device), program, sanitize=True)
        assert excinfo.value.hazard.kind == "pop-beyond-available"

    def test_cross_core_cb_access(self, device):
        stash = {}

        def leaky(core, args):
            if core.core_id == 0:
                stash["cb"] = core.get_cb(0)
            else:
                stash["cb"].try_wait_front(1)  # core 1 touches core 0's CB
            return
            yield

        program = _program(
            KernelSpec("leaky", RiscvRole.T1, "compute", leaky),
            cores=(0, 2),
        )
        with pytest.raises(SanitizerError) as excinfo:
            EnqueueProgram(GetCommandQueue(device), program, sanitize=True)
        hazard = excinfo.value.hazard
        assert hazard.kind == "cross-core-cb-access"
        assert hazard.core == 1 and hazard.cb_id == 0

    def test_dram_read_before_write(self, device):
        with SanitizerContext() as ctx:
            buffer = CreateBuffer(device, n_tiles=2)

            def reader(core, args):
                cb = core.get_cb(0)
                yield from cb.reserve_back(1)
                cb.write_page(buffer.noc_read_tile(core.core_id, 0))
                cb.push_back(1)

            program = _program(
                KernelSpec("read", RiscvRole.NC, "data_movement", reader),
                KernelSpec("cons", RiscvRole.T1, "compute", _consume(0, 1)),
            )
            with pytest.raises(SanitizerError) as excinfo:
                EnqueueProgram(GetCommandQueue(device), program)
        assert excinfo.value.hazard.kind == "dram-read-before-write"
        assert ctx.report.kinds() == {"dram-read-before-write"}

    def test_dram_read_after_host_write_is_clean(self, device):
        with SanitizerContext():
            buffer = CreateBuffer(device, n_tiles=2)
            queue = GetCommandQueue(device)
            EnqueueWriteBuffer(
                queue, buffer, [Tile.zeros(DataFormat.FLOAT32)] * 2
            )

            def reader(core, args):
                cb = core.get_cb(0)
                yield from cb.reserve_back(1)
                cb.write_page(buffer.noc_read_tile(core.core_id, 0))
                cb.push_back(1)

            program = _program(
                KernelSpec("read", RiscvRole.NC, "data_movement", reader),
                KernelSpec("cons", RiscvRole.T1, "compute", _consume(0, 1)),
            )
            EnqueueProgram(queue, program)
            assert queue.last_sanitizer_report.ok

    def test_l1_double_free(self, device):
        def bad(core, args):
            alloc = core.l1.allocate(4096)
            core.l1.free(alloc)
            core.l1.free(alloc)
            return
            yield

        program = _program(KernelSpec("bad", RiscvRole.T1, "compute", bad))
        with pytest.raises(SanitizerError) as excinfo:
            EnqueueProgram(GetCommandQueue(device), program, sanitize=True)
        assert excinfo.value.hazard.kind == "l1-double-free"

    def test_l1_leak(self, device):
        def bad(core, args):
            core.l1.allocate(4096)  # never freed
            return
            yield

        program = _program(KernelSpec("bad", RiscvRole.T1, "compute", bad))
        with pytest.raises(SanitizerError) as excinfo:
            EnqueueProgram(GetCommandQueue(device), program, sanitize=True)
        assert excinfo.value.hazard.kind == "l1-leak"


class TestModes:
    def test_non_halting_context_accumulates(self, device):
        def bad(core, args):
            cb = core.get_cb(0)
            cb.write_page(Tile.zeros(DataFormat.FLOAT32))
            cb.push_back(1)
            yield

        program = _program(
            KernelSpec("bad", RiscvRole.NC, "data_movement", bad),
            KernelSpec("cons", RiscvRole.T1, "compute", _consume(0, 1)),
        )
        with SanitizerContext(halt=False) as ctx:
            EnqueueProgram(GetCommandQueue(device), program)
        assert not ctx.report.ok
        assert "push-without-reserve" in ctx.report.kinds()

    def test_sanitize_false_overrides_installed_context(self, device):
        def bad(core, args):
            alloc = core.l1.allocate(4096)
            core.l1.free(alloc)
            core.l1.free(alloc)
            return
            yield

        program = _program(KernelSpec("bad", RiscvRole.T1, "compute", bad))
        with SanitizerContext() as ctx:
            # opt-out run: the hazard path isn't even instrumented, so
            # the underlying AllocationError surfaces instead
            with pytest.raises(Exception) as excinfo:
                EnqueueProgram(
                    GetCommandQueue(device), program, sanitize=False
                )
        assert not isinstance(excinfo.value, SanitizerError)
        assert ctx.report.ok

    def test_unsanitized_queue_has_no_report(self, device):
        def ok(core, args):
            return
            yield

        program = _program(KernelSpec("ok", RiscvRole.T1, "compute", ok))
        queue = GetCommandQueue(device)
        EnqueueProgram(queue, program)
        assert queue.last_sanitizer_report is None
        assert hooks.active() is None

    def test_context_uninstalls_on_exit(self):
        with SanitizerContext() as ctx:
            assert hooks.active() is ctx
        assert hooks.active() is None

    def test_nested_context_restores_previous(self):
        with SanitizerContext() as outer:
            with SanitizerContext() as inner:
                assert hooks.active() is inner
            assert hooks.active() is outer
        assert hooks.active() is None

    def test_hazard_kind_validated(self):
        with pytest.raises(ValueError, match="unknown hazard kind"):
            Hazard("made-up", "nope")

    def test_hazard_taxonomy_is_stable(self):
        assert set(HAZARD_KINDS) == {
            "push-without-reserve",
            "pop-beyond-available",
            "cross-core-cb-access",
            "dram-read-before-write",
            "l1-double-free",
            "l1-leak",
        }


class TestThreadedCards:
    def test_card_threads_share_one_context_without_false_hazards(self):
        """Each card thread runs its own program: which kernel and core
        range is running is per host thread, not per context."""
        from repro.backends import ShardedTTBackend
        from repro.core import plummer

        s = plummer(4096, seed=4)
        with SanitizerContext() as ctx:
            ShardedTTBackend(
                2, n_cores=2, engine="per-block", workers="thread"
            ).compute(s.pos, s.vel, s.mass)
        assert ctx.report.ok, ctx.report.format()
