"""CardFarm execution (modelled + functional) and the worker scheduler."""

import asyncio

import pytest

from repro.backends import BackendSpec, RunSpec
from repro.errors import ConfigurationError
from repro.service import (
    CardFarm,
    JobQueue,
    Job,
    QuotaLedger,
    QuotaPolicy,
    Scheduler,
)

SPEC = RunSpec(n=1024, cycles=2)


def _job(spec=SPEC, tenant="t"):
    return Job(tenant=tenant, spec=spec, spec_hash=spec.canonical_hash())


class TestCardFarm:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            CardFarm(mode="warp")

    def test_rejects_zero_cards(self):
        with pytest.raises(ConfigurationError):
            CardFarm(0)

    def test_modelled_payload_shape(self):
        payload = CardFarm(1).execute(SPEC, card=0)
        assert payload["mode"] == "modelled"
        assert payload["completed"] is True
        assert payload["time_to_solution_s"] > 0
        assert payload["energy_kj"] > 0
        assert payload["virtual_s"] > 0
        assert payload["events"], "trace spans must become progress events"

    def test_modelled_execution_is_deterministic(self):
        """Same spec, any card, any farm: identical payload (cache contract)."""
        a = CardFarm(2).execute(SPEC, card=0)
        b = CardFarm(4).execute(SPEC, card=3)
        assert a == b

    def test_distinct_specs_are_decorrelated(self):
        a = CardFarm(1).execute(SPEC, card=0)
        b = CardFarm(1).execute(RunSpec(n=1024, cycles=2, seed=9), card=0)
        assert a["time_to_solution_s"] != b["time_to_solution_s"]

    def test_functional_payload_shape(self):
        farm = CardFarm(1, mode="functional")
        spec = RunSpec(n=128, cycles=2, backend=BackendSpec("reference"))
        payload = farm.execute(spec, card=0)
        assert payload["mode"] == "functional"
        assert payload["completed"] is True
        # the reference backend has no modelled device timeline, so its
        # model_seconds is legitimately zero; drift is the quality gate
        assert payload["model_seconds"] >= 0
        assert abs(payload["energy_drift"]) < 1e-3

    def test_functional_device_backend_has_model_time(self):
        farm = CardFarm(1, mode="functional")
        spec = RunSpec(n=256, cycles=1,
                       backend=BackendSpec("tt", {"cores": 2}))
        payload = farm.execute(spec, card=0)
        assert payload["model_seconds"] > 0
        assert payload["seconds_by_tag"]
        assert payload["backend"].startswith("tt-wormhole")

    def test_functional_sharded_thread_job_completes(self):
        farm = CardFarm(1, mode="functional")
        spec = RunSpec(
            n=256, cycles=1,
            backend=BackendSpec(
                "tt", {"cores": 2, "cards": 2, "workers": "thread"}
            ),
        )
        payload = farm.execute(spec, card=0)
        assert payload["completed"] is True
        assert payload["backend"].startswith("tt-sharded-cards2")


class TestScheduler:
    @staticmethod
    def _make(n_cards=2, policy=None):
        queue = JobQueue()
        ledger = QuotaLedger(policy or QuotaPolicy())
        farm = CardFarm(n_cards)
        finished = []
        sched = Scheduler(farm, queue, ledger, on_finished=finished.append)
        return queue, ledger, sched, finished

    def test_runs_jobs_and_reports(self):
        async def main():
            queue, ledger, sched, finished = self._make()
            sched.start()
            jobs = []
            for seed in range(4):
                job = _job(RunSpec(n=512, cycles=1, seed=seed))
                ledger.admit(job.tenant)
                jobs.append(job)
                await queue.put(job)
            for job in jobs:
                await asyncio.wait_for(job.wait_finished(), timeout=30.0)
            await sched.stop()
            assert all(j.state == "done" for j in jobs)
            assert all(j.result["completed"] for j in jobs)
            assert all(j.card is not None for j in jobs)
            assert all(j.latency_s >= 0 for j in jobs)
            assert sched.jobs_done == 4
            assert len(finished) == 4
            assert sched.virtual_s_total > 0
            assert sum(sched.per_card_jobs.values()) == 4
            # quota fully released
            assert ledger.total_pending == 0
            # every job narrates: queued by server, started, spans, done
            states = [e["event"] for e in jobs[0].events]
            assert "started" in states and "done" in states
            assert "span" in states

        asyncio.run(main())

    def test_execution_failure_lands_on_the_job(self):
        async def main():
            queue, ledger, sched, _ = self._make(n_cards=1)

            def boom(spec, card):
                raise ConfigurationError("warp coil misaligned")

            sched.farm.execute = boom
            sched.start()
            bad = _job(RunSpec(n=64, cycles=1))
            ledger.admit(bad.tenant)
            await queue.put(bad)
            await asyncio.wait_for(bad.wait_finished(), timeout=30.0)
            await sched.stop()
            assert bad.state == "failed"
            assert bad.error_kind == "configuration"
            assert "warp" in bad.error
            assert sched.jobs_failed == 1
            assert ledger.total_pending == 0

        asyncio.run(main())

    def test_active_cap_respected(self):
        """A tenant at max_active never has more jobs running at once."""

        async def main():
            policy = QuotaPolicy(max_queued=64, max_active=1)
            queue, ledger, sched, _ = self._make(n_cards=4, policy=policy)
            peak = {"running": 0, "max": 0}

            original_mark = ledger.mark_active
            original_release = ledger.release

            def mark(tenant):
                original_mark(tenant)
                peak["running"] += 1
                peak["max"] = max(peak["max"], peak["running"])

            def release(tenant, **kwargs):
                original_release(tenant, **kwargs)
                peak["running"] -= 1

            ledger.mark_active = mark
            ledger.release = release
            sched.start()
            jobs = [_job(RunSpec(n=256, cycles=1, seed=s)) for s in range(6)]
            for job in jobs:
                ledger.admit(job.tenant)
                await queue.put(job)
            for job in jobs:
                await asyncio.wait_for(job.wait_finished(), timeout=30.0)
            await sched.stop()
            assert peak["max"] == 1

        asyncio.run(main())

    def test_drain_rate_estimates_from_completed_jobs(self):
        async def main():
            queue, ledger, sched, _ = self._make(n_cards=2)
            assert sched.drain_rate_s == 1.0  # before any job: the floor
            sched.start()
            job = _job()
            ledger.admit(job.tenant)
            await queue.put(job)
            await asyncio.wait_for(job.wait_finished(), timeout=30.0)
            await sched.stop()
            expected = job.result["virtual_s"] / 2  # one job over two cards
            assert sched.drain_rate_s == pytest.approx(expected)

        asyncio.run(main())

    def test_stop_returns_undispatched_jobs(self):
        async def main():
            queue, ledger, sched, _ = self._make(n_cards=1)
            # never start the workers: everything stays queued
            jobs = [_job(RunSpec(n=128, cycles=1, seed=s)) for s in range(3)]
            for job in jobs:
                await queue.put(job)
            leftover = await sched.stop()
            assert leftover == jobs

        asyncio.run(main())
