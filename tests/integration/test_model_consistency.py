"""Consistency between the functional pipeline and the analytic models.

The campaign (E1-E3) runs on the analytic cost models; the accuracy
experiments run the functional kernels.  These tests pin the two against
each other so the campaign's numbers are guaranteed to describe the same
machine the functional pipeline simulates.
"""

import pytest

from repro.backends import BackendSpec, RunSpec
from repro.core import Simulation, plummer
from repro.metalium import CreateDevice
from repro.nbody_tt import DeviceTimeModel, TTForceBackend
from repro.observability import Trace
from repro.service import CardFarm
from repro.telemetry import Campaign, JobSpec
from repro.wormhole.params import HOST_INIT_S


class TestFunctionalVsAnalytic:
    @pytest.mark.parametrize("n,cores", [(1024, 1), (2048, 2), (4096, 4)])
    def test_device_eval_time(self, n, cores):
        s = plummer(n, seed=40)
        device = CreateDevice(0)
        backend = TTForceBackend(device, n_cores=cores)
        ev = backend.compute(s.pos, s.vel, s.mass)
        functional = sum(seg.seconds for seg in ev.segments
                         if seg.tag == "device")
        analytic = DeviceTimeModel(n_cores=cores).eval_seconds(n)
        assert functional == pytest.approx(analytic, rel=0.03)

    def test_full_job_time(self):
        """An end-to-end functional job (init + cycles, the host work
        priced by the backend itself) matches the analytic job projection
        that the campaign uses."""
        n, cycles, cores = 2048, 3, 2
        model = DeviceTimeModel(n_cores=cores)
        s = plummer(n, seed=41)
        device = CreateDevice(0)
        backend = TTForceBackend(device, n_cores=cores)
        sim = Simulation(s, backend, dt=1e-3)
        result = sim.run(cycles)
        functional_total = result.model_seconds
        analytic_total = model.job_seconds(n, cycles)
        assert functional_total == pytest.approx(analytic_total, rel=0.05)

    def test_phase_split_matches(self):
        """Host/device split of the functional timeline mirrors the
        analytic model's split (what the power trace generator consumes)."""
        n, cycles, cores = 2048, 2, 2
        model = DeviceTimeModel(n_cores=cores)
        s = plummer(n, seed=42)
        device = CreateDevice(0)
        backend = TTForceBackend(device, n_cores=cores)
        result = Simulation(s, backend, dt=1e-3).run(cycles)
        by_tag = result.seconds_by_tag()
        assert by_tag["device"] == pytest.approx(
            (cycles + 1) * model.eval_seconds(n), rel=0.03
        )
        assert by_tag["host"] == pytest.approx(
            HOST_INIT_S + cycles * model.host_cycle_seconds(n), rel=1e-6
        )

    def test_cpu_backend_vs_openmp_model(self):
        """The CPU backend's reported eval time equals the OpenMP model."""
        from repro.cpuref import CPUForceBackend, OpenMPModel

        n = 1536
        s = plummer(n, seed=43)
        backend = CPUForceBackend(4, noisy=False)
        ev = backend.compute(s.pos, s.vel, s.mass)
        assert ev.model_seconds == pytest.approx(
            OpenMPModel(4).force_eval_seconds(n)
        )


#: One spec per case: (backend, N); 3 cycles each.  ``tt-default`` sets
#: no cores: its 9 i-tiles outnumber the registry's 8 cores, so pricing
#: it on any other core count moves the campaign's device time.
ONE_CLOCK_CASES = {
    "tt-default": (BackendSpec("tt"), 9216),
    "tt-8cores": (BackendSpec("tt", {"cores": 8}), 1024),
    "tt-64cores": (BackendSpec("tt", {"cores": 64}), 8192),
    "cpu-8threads": (BackendSpec("cpu", {"threads": 8}), 1024),
}


class TestOneClock:
    """One spec reports the same modelled seconds from every entry point.

    ``RunSpec.make_simulation`` (``repro simulate``/``trace``, perfbench)
    and a functional service job integrate it; the campaign (modelled
    service jobs, E1-E3) prices it analytically.  Each backend prices its
    own host work, so all of them agree — the campaign to within the
    analytic device model's ~1e-6 difference from the charged replay.
    """

    @pytest.fixture(scope="class", params=sorted(ONE_CLOCK_CASES))
    def runs(self, request):
        backend, n = ONE_CLOCK_CASES[request.param]
        spec = RunSpec(n=n, cycles=3, seed=7, backend=backend)
        result = spec.make_simulation().run(spec.cycles)
        trace = Trace()
        traced = spec.make_simulation(trace=trace).run(spec.cycles)
        payload = CardFarm(1, mode="functional").execute(spec, 0)
        return spec, result, trace, traced, payload

    def test_simulate_and_service_agree_exactly(self, runs):
        _, result, _, _, payload = runs
        assert payload["model_seconds"] == result.model_seconds
        assert payload["seconds_by_tag"] == {
            tag: round(seconds, 6)
            for tag, seconds in sorted(result.seconds_by_tag().items())
        }

    def test_trace_spans_the_model_seconds(self, runs):
        _, result, trace, traced, _ = runs
        assert traced.model_seconds == result.model_seconds
        assert trace.duration_s == result.model_seconds

    def test_campaign_agrees_in_total_and_per_tag(self, runs):
        spec, result, _, _, _ = runs
        job = JobSpec.from_runspec(spec)
        campaign = Campaign(seed=0)
        segments = (
            campaign._accelerated_segments(job, 1.0) if job.accelerated
            else campaign._reference_segments(job, 1.0)
        )
        analytic: dict[str, float] = {}
        for seg in segments:
            analytic[seg.tag] = analytic.get(seg.tag, 0.0) + seg.seconds
        functional = result.seconds_by_tag()
        assert functional.keys() == analytic.keys()
        for tag, seconds in analytic.items():
            assert functional[tag] == pytest.approx(seconds, rel=1e-5), tag
        assert result.model_seconds == pytest.approx(
            sum(analytic.values()), rel=1e-5
        )
