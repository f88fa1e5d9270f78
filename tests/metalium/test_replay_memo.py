"""The charge-only replay memo behind ``CommandQueue.enqueue_program``.

A memoised enqueue must be indistinguishable from an executed one: the
same model time, queue phases and timeline, per-core cycles and op
counts, DRAM and NoC counters, scheduler rounds, spans, metrics and
Chrome trace — and the same errors.  ``command_queue._memo_enabled`` is
the private seam that switches the memo off for the comparison; every
test starts from an empty memo.
"""

import hashlib
from collections import OrderedDict

import numpy as np
import pytest

from repro.analysis.linter import ProgramLinter
from repro.backends import BackendSpec, RunSpec, make_backend
from repro.core import plummer
from repro.errors import DeviceMemoryError, DeviceNotOpenError, HostApiError
from repro.metalium import CommandQueue, command_queue
from repro.metalium.host_api import EnqueueProgram
from repro.observability import Trace, chrome_trace_events
from repro.service.scheduler import CardFarm

PM_SPEC = RunSpec(
    n=2048, cycles=2, seed=3,
    backend=BackendSpec("tt-pm", {"cores": 4, "mesh": 32, "cutoff": 2.5}),
    integrator="leapfrog", scenario="uniform_sphere",
)
TWO_CARDS = BackendSpec("tt", {"cores": 4, "cards": 2, "workers": "thread"})


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(command_queue, "_memo", OrderedDict())


@pytest.fixture
def memo_calls(monkeypatch):
    """Every memo lookup and store, as ("get" | "put", hit) records."""
    calls = []
    get, put = command_queue._memo_get, command_queue._memo_put

    def spy_get(key):
        outcome = get(key)
        calls.append(("get", outcome is not None))
        return outcome

    def spy_put(key, outcome):
        calls.append(("put", None))
        put(key, outcome)

    monkeypatch.setattr(command_queue, "_memo_get", spy_get)
    monkeypatch.setattr(command_queue, "_memo_put", spy_put)
    return calls


def _state(system) -> str:
    return hashlib.sha256(
        system.pos.tobytes() + system.vel.tobytes()
    ).hexdigest()


def _device_counters(backend):
    return [
        {
            "cores": [
                (c.counter.compute_cycles, c.counter.datamove_cycles,
                 dict(c.counter.ops.counts), c.events.events)
                for c in dev.cores
            ],
            "dram": (dev.dram.bytes_read, dev.dram.bytes_written),
            "noc": [
                (n.stats.transactions, n.stats.bytes_read,
                 n.stats.bytes_written, n.stats.total_hops)
                for n in dev.nocs
            ],
        }
        for dev in backend.devices
    ]


def _observe(spec, *, traced: bool):
    """Run ``spec`` once: everything a replay must reproduce."""
    system = spec.make_system()
    backend = spec.make_backend()
    trace = Trace() if traced else None
    result = spec.make_simulation(system, backend, trace=trace).run(
        spec.cycles
    )
    seen = {
        "model_s": result.model_seconds,
        "timeline": [(s.tag, s.seconds, s.detail) for s in result.timeline],
        "phases": [[(p.tag, p.duration_s, p.detail) for p in q.phases]
                   for q in backend.queues],
        "rounds": [dict(q.last_scheduler_rounds) for q in backend.queues],
        "devices": _device_counters(backend),
        "state": _state(system),
    }
    if traced:
        seen["span_tree"] = trace.spans  # Span carries its parent index
        seen["chrome"] = chrome_trace_events(trace)
        seen["metrics"] = trace.metrics.to_dict()
    return seen


def _memo_off_on(monkeypatch, run):
    """``run()`` with the memo off, then twice with it on (cold, warm)."""
    monkeypatch.setattr(command_queue, "_memo_enabled", False)
    off = run()
    assert not command_queue._memo
    monkeypatch.setattr(command_queue, "_memo_enabled", True)
    cold = run()
    assert command_queue._memo  # the programs were recorded
    warm = run()
    return off, cold, warm


class TestMemoChangesNothing:
    @pytest.mark.parametrize("options", [
        {"cb_buffering": 1},
        {"cb_buffering": 2, "softening": 0.01},
        {"cb_buffering": 3, "fmt": "bfloat16"},
        {"cb_buffering": 1, "fmt": "bfloat16", "softening": 0.01},
    ])
    def test_tt(self, monkeypatch, options):
        spec = RunSpec(n=1100, cycles=2, seed=4,
                       backend=BackendSpec("tt", {"cores": 2, **options}))
        off, cold, warm = _memo_off_on(
            monkeypatch, lambda: _observe(spec, traced=True)
        )
        assert cold == off
        assert warm == off

    def test_two_cards_on_threads(self, monkeypatch):
        spec = RunSpec(n=2100, cycles=2, seed=4, backend=TWO_CARDS)
        off, cold, warm = _memo_off_on(
            monkeypatch, lambda: _observe(spec, traced=False)
        )
        assert cold == off
        assert warm == off

    def test_two_cards_traced(self, monkeypatch):
        spec = RunSpec(n=2100, cycles=1, seed=4, backend=TWO_CARDS)
        off, cold, warm = _memo_off_on(
            monkeypatch, lambda: _observe(spec, traced=True)
        )
        assert cold == off
        assert warm == off

    def test_tt_pm(self, monkeypatch):
        off, cold, warm = _memo_off_on(
            monkeypatch, lambda: _observe(PM_SPEC, traced=True)
        )
        assert cold == off
        assert warm == off

    def test_functional_service_job(self, monkeypatch):
        spec = RunSpec(n=1100, cycles=2,
                       backend=BackendSpec("tt", {"cores": 2}))
        farm = CardFarm(1, mode="functional")
        off, cold, warm = _memo_off_on(
            monkeypatch, lambda: farm.execute(spec, card=0)
        )
        assert cold == off
        assert warm == off

    def test_pm_job_hits_every_program_after_the_first_evaluation(
        self, memo_calls
    ):
        _observe(PM_SPEC, traced=False)
        gets = [hit for kind, hit in memo_calls if kind == "get"]
        # 15 programs per evaluation; counters clear once per evaluation
        assert len(gets) == 45
        assert not any(gets[:15])
        assert all(gets[15:])


class TestHitsFailAsRunsFail:
    """A replay raises wherever an executed program would."""

    @pytest.fixture
    def recorded(self, memo_calls):
        """A backend whose charge-only program is in the memo."""
        backend = make_backend("tt", cores=2)
        system = plummer(1100, seed=1)
        backend.compute(system.pos, system.vel, system.mass)
        (program,) = [p for (charge_only, _), p in backend._programs.items()
                      if charge_only]
        queue = backend.queues[0]
        backend.devices[0].clear_counters()
        queue.enqueue_program(program)
        assert memo_calls[-1] == ("get", True)
        return backend, program, queue

    @pytest.mark.parametrize("memo", [True, False])
    def test_closed_device(self, monkeypatch, recorded, memo):
        backend, program, queue = recorded
        monkeypatch.setattr(command_queue, "_memo_enabled", memo)
        backend.devices[0].clear_counters()
        backend.devices[0].close()
        with pytest.raises(DeviceNotOpenError):
            queue.enqueue_program(program)

    @pytest.mark.parametrize("memo", [True, False])
    def test_deallocated_buffer(self, monkeypatch, recorded, memo):
        backend, program, queue = recorded
        monkeypatch.setattr(command_queue, "_memo_enabled", memo)
        backend.devices[0].clear_counters()
        program.replay_buffers[0].deallocate()
        with pytest.raises(HostApiError, match="deallocated"):
            queue.enqueue_program(program)

    @pytest.mark.parametrize("memo", [True, False])
    def test_freed_dram_allocation(self, monkeypatch, recorded, memo):
        backend, program, queue = recorded
        monkeypatch.setattr(command_queue, "_memo_enabled", memo)
        device = backend.devices[0]
        device.clear_counters()
        device.dram.free(program.replay_buffers[-1]._alloc)
        with pytest.raises(DeviceMemoryError):
            queue.enqueue_program(program)


class TestProgramsThatAlwaysExecute:
    def test_per_block_programs(self, memo_calls):
        backend = make_backend("tt", cores=2, engine="per-block")
        system = plummer(1100, seed=1)
        for _ in range(2):
            backend.compute(system.pos, system.vel, system.mass)
        assert memo_calls == []

    @pytest.mark.parametrize("checks", [
        {"sanitize": True}, {"lint": "warn"}, {"lint": "error"},
    ])
    def test_checked_enqueues(self, memo_calls, checks):
        backend = make_backend("tt", cores=2)
        system = plummer(1100, seed=1)
        backend.compute(system.pos, system.vel, system.mass)
        assert memo_calls == [("get", False), ("put", None)]
        del memo_calls[:]
        (program,) = backend._programs.values()
        backend.devices[0].clear_counters()
        EnqueueProgram(backend.queues[0], program, **checks)
        assert memo_calls == []

    def test_unkeyed_programs(self, memo_calls):
        backend = make_backend("tt", cores=2)
        system = plummer(1100, seed=1)
        backend.compute(system.pos, system.vel, system.mass)
        (program,) = backend._programs.values()
        program.replay_key = None
        backend.compute(system.pos, system.vel, system.mass)
        assert memo_calls == [("get", False), ("put", None)]


@pytest.mark.parametrize("backend", [
    BackendSpec("tt", {"cores": 2}),
    BackendSpec("tt", {"cores": 2, "cards": 2, "workers": "thread"}),
    BackendSpec("tt-pm", {"cores": 2, "mesh": 32}),
])
def test_spec_sanitize_and_lint_reach_every_enqueue(
    monkeypatch, memo_calls, backend
):
    """A spec's switches check every program, which then always runs."""
    enqueues, linted = [], []
    enqueue, lint = CommandQueue.enqueue_program, ProgramLinter.lint

    def spy_enqueue(queue, program, **kwargs):
        seconds = enqueue(queue, program, **kwargs)
        enqueues.append((kwargs, queue.last_sanitizer_report))
        return seconds

    def spy_lint(linter, program, **kwargs):
        linted.append(program)
        return lint(linter, program, **kwargs)

    monkeypatch.setattr(CommandQueue, "enqueue_program", spy_enqueue)
    monkeypatch.setattr(ProgramLinter, "lint", spy_lint)
    spec = RunSpec(n=256, cycles=1, backend=backend, sanitize=True,
                   lint="error")
    spec.make_simulation().run(1)
    assert enqueues
    assert len(linted) == len(enqueues)
    for kwargs, report in enqueues:
        assert kwargs == {"sanitize": True, "linted": True}
        assert report is not None and report.ok
    assert memo_calls == []


def test_two_card_thread_runs_repeat_exactly():
    """Twenty runs in one process, the memo shared by both card threads,
    give the same modelled time, device counters and state."""
    spec = RunSpec(n=2100, cycles=2, seed=6, backend=TWO_CARDS)
    runs = [_observe(spec, traced=False) for _ in range(20)]
    for run in runs[1:]:
        assert run == runs[0]


def test_memo_is_capped(monkeypatch):
    monkeypatch.setattr(command_queue, "_MEMO_MAX", 3)
    backend = make_backend("tt", cores=2)
    system = plummer(4096, seed=1)
    for targets in ([0], [1100], [2100], [3100], [0, 3100]):
        backend.compute_on_targets(system.pos, system.vel, system.mass,
                                   np.array(targets))
    assert len(command_queue._memo) == 3


def test_threads_sharing_the_memo_lose_nothing(monkeypatch):
    """More card threads than cores hammer a memo small enough to evict
    on nearly every store; each thread still sees exactly what an
    executed run gives it."""
    import sys
    import threading

    monkeypatch.setattr(command_queue, "_MEMO_MAX", 3)
    system = plummer(4096, seed=2)
    subsets = [np.array(t) for t in ([0], [1100], [2100, 3100], [0, 3100])]

    def evaluate(backend, log):
        for targets in subsets * 3:
            ev = backend.compute_on_targets(system.pos, system.vel,
                                            system.mass, targets)
            log.append((ev.segments, _device_counters(backend)))

    monkeypatch.setattr(command_queue, "_memo_enabled", False)
    want: list = []
    evaluate(make_backend("tt", cores=2), want)
    monkeypatch.setattr(command_queue, "_memo_enabled", True)

    logs = [[] for _ in range(6)]
    backends = [make_backend("tt", cores=2) for _ in logs]
    threads = [threading.Thread(target=evaluate, args=(b, log))
               for b, log in zip(backends, logs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(log == want for log in logs)
    assert len(command_queue._memo) <= 3
