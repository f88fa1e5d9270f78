"""The ForceBackend / TracedForceBackend contracts, pinned.

``accepts_trace`` replaces the ad-hoc ``hasattr(backend, "trace")``
checks that used to live in ``core/simulation.py``; these tests pin
which backends opt into tracing and that ``core`` re-exports the
protocol names it historically owned.
"""

import numpy as np

from repro.backends import BACKENDS, make_backend
from repro.core.protocol import (
    ForceBackend,
    ForceEvaluation,
    TimelineSegment,
    TracedForceBackend,
    accepts_trace,
)
from repro.observability import Trace


class TestProtocolMembership:
    def test_every_registered_backend_satisfies_force_backend(self):
        for name in BACKENDS.names():
            assert isinstance(make_backend(name), ForceBackend), name

    def test_tt_backends_are_traced(self):
        for backend in (
            make_backend("tt", cores=2),
            make_backend("tt", cores=2, cards=2),
        ):
            assert accepts_trace(backend)
            assert isinstance(backend, TracedForceBackend)

    def test_reference_and_cpu_are_not_traced(self):
        for name in ("reference", "cpu"):
            backend = make_backend(name)
            assert not accepts_trace(backend), name
            assert not isinstance(backend, TracedForceBackend), name


class TestSimulationUsesTheProtocol:
    def test_traced_backend_receives_the_simulation_trace(self):
        from repro.core import Simulation, plummer

        system = plummer(1024, seed=1)
        backend = make_backend("tt", cores=2)
        trace = Trace()
        Simulation(system, backend, dt=1e-3, trace=trace).run(1)
        assert backend.trace is trace
        assert trace.find("EnqueueProgram")

    def test_untraced_backend_segments_become_leaf_spans(self):
        from repro.core import Simulation, plummer

        system = plummer(128, seed=1)
        trace = Trace()
        Simulation(
            system, make_backend("cpu", threads=2), dt=1e-3, trace=trace
        ).run(1)
        assert trace.spans


class TestCoreReexports:
    def test_core_names_are_the_protocol_objects(self):
        from repro.core import simulation

        assert simulation.ForceBackend is ForceBackend
        assert simulation.ForceEvaluation is ForceEvaluation
        assert simulation.TimelineSegment is TimelineSegment

    def test_top_level_reexports(self):
        import repro

        assert repro.ForceEvaluation is ForceEvaluation
        assert repro.TimelineSegment is TimelineSegment


def test_force_evaluation_model_seconds_sums_segments():
    ev = ForceEvaluation(
        np.zeros((1, 3)), np.zeros((1, 3)),
        segments=(
            TimelineSegment("device", 1.0, "force"),
            TimelineSegment("pcie", 0.5, "writeback"),
        ),
    )
    assert ev.model_seconds == 1.5
