"""The driver loop's contract, pinned for every registered integrator.

Every scheme runs in :class:`~repro.core.simulation.Driver`'s one loop, so
each one, on each backend family (float64 reference, one card, two
sharded cards), must show the same run shape:

* tracing changes nothing: traced and untraced runs end bit-identical in
  state, timeline and cycle records, and the trace cursor equals the
  run's modelled seconds;
* one span tree: ``simulation.run`` > (``initialise`` > (``init``,
  ``force``), ``cycle`` > (``predict``, ``force``, ``correct``) ...);
* one timeline shape: each cycle is host ``predict`` (½·c·N), the
  backend's segments, host ``correct`` (½·c·N_active), and the cycle
  record's modelled seconds are their sum.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_backend
from repro.core import (
    INTEGRATORS,
    HostCostModel,
    ReferenceBackend,
    make_integrator,
    make_scenario,
    plummer,
)
from repro.observability import Trace

N = 256
DT = 1e-3
HOST = HostCostModel(seconds_per_particle_cycle=1e-7, init_seconds=0.25)

BACKEND_CASES = {
    "reference": ("reference", {}),
    "tt": ("tt", {"cores": 4}),
    "tt-2card": ("tt", {"cores": 4, "cards": 2}),
}


def _record_evaluations(backend) -> list[tuple]:
    """Shadow the backend's evaluation methods to log each result's segments."""
    log: list[tuple] = []
    for attr in ("compute", "compute_on_targets"):
        method = getattr(backend, attr, None)
        if method is None:
            continue

        def spy(*args, _method=method):
            evaluation = _method(*args)
            log.append(evaluation.segments)
            return evaluation

        setattr(backend, attr, spy)
    return log


def _run(integrator: str, backend_key: str, traced: bool) -> dict:
    name, options = BACKEND_CASES[backend_key]
    system = make_scenario("cluster_with_binary", N, 9)
    backend = make_backend(name, **options)
    evaluations = _record_evaluations(backend)
    trace = Trace() if traced else None
    sim = make_integrator(
        integrator, system, backend, dt=DT, host_cost=HOST, trace=trace
    )
    try:
        result = sim.run(2)
    finally:
        close = getattr(backend, "close", None)
        if close is not None:
            close()
    return {"system": system, "result": result, "trace": trace,
            "evaluations": evaluations, "sim": sim}


@pytest.fixture(
    scope="module",
    params=[(i, b) for i in INTEGRATORS.names() for b in BACKEND_CASES],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def runs(request):
    integrator, backend_key = request.param
    return (_run(integrator, backend_key, traced=False),
            _run(integrator, backend_key, traced=True))


class TestLoopContract:
    def test_traced_run_is_bit_identical(self, runs):
        plain, traced = runs
        for field in ("pos", "vel", "acc", "jerk"):
            assert np.array_equal(getattr(plain["system"], field),
                                  getattr(traced["system"], field))
        assert plain["system"].time == traced["system"].time
        assert plain["result"].timeline == traced["result"].timeline
        assert plain["result"].cycles == traced["result"].cycles

    def test_cursor_equals_model_seconds(self, runs):
        _, traced = runs
        assert traced["trace"].now == traced["result"].model_seconds

    def test_span_tree(self, runs):
        _, traced = runs
        trace, result = traced["trace"], traced["result"]
        sim_roots = [s for s in trace.roots() if s.category == "sim"]
        assert [s.name for s in sim_roots] == ["simulation.run"]
        children = trace.children_of(sim_roots[0])
        assert [s.name for s in children] == (
            ["initialise"] + ["cycle"] * len(result.cycles)
        )
        assert [s.name for s in trace.children_of(children[0])] == [
            "init", "force"
        ]
        for cycle in children[1:]:
            assert [s.name for s in trace.children_of(cycle)] == [
                "predict", "force", "correct"
            ]

    def test_cycle_timeline_and_records(self, runs):
        plain, _ = runs
        system, result = plain["system"], plain["result"]
        evaluations = list(plain["evaluations"])
        c = HOST.seconds_per_particle_cycle
        timeline = list(result.timeline)

        # initialise: host init, then the first evaluation's segments
        first = evaluations.pop(0)
        assert timeline[0].tag == "host" and timeline[0].detail == "init"
        assert timeline[0].seconds == HOST.init_seconds
        assert tuple(timeline[1:1 + len(first)]) == first
        rest = timeline[1 + len(first):]

        stats = getattr(plain["sim"], "stats", None)
        moved = 0
        assert len(evaluations) == len(result.cycles)
        for record, segments in zip(result.cycles, evaluations):
            predict, *middle, correct = rest[:len(segments) + 2]
            rest = rest[len(segments) + 2:]
            assert (predict.tag, predict.detail) == ("host", "predict")
            assert predict.seconds == 0.5 * c * system.n
            assert tuple(middle) == segments
            assert (correct.tag, correct.detail) == ("host", "correct")
            n_active = round(correct.seconds / (0.5 * c))
            assert 1 <= n_active <= system.n
            assert correct.seconds == 0.5 * c * n_active
            moved += n_active
            assert record.model_seconds == sum(
                s.seconds for s in [predict, *middle, correct]
            )
        assert rest == []
        expected = (stats.particle_updates if stats is not None
                    else system.n * len(result.cycles))
        assert moved == expected


class TestAdaptiveRestart:
    def test_run_calls_do_not_restart_the_startup_criterion(self):
        """Six run(1) calls take the same steps as one run(6)."""
        def run(calls):
            system = plummer(64, seed=3)
            sim = make_integrator(
                "hermite", system, ReferenceBackend(softening=0.01),
                adaptive=True,
            )
            dts = [c.dt for n in calls for c in sim.run(n).cycles]
            return system, dts

        whole, dts_whole = run([6])
        split, dts_split = run([1] * 6)
        assert dts_split == dts_whole
        assert split.time == whole.time
        assert np.array_equal(split.pos, whole.pos)
        assert np.array_equal(split.vel, whole.vel)
