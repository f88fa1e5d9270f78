"""The job server: submission flow (cache/dedupe/quota) and the HTTP surface."""

import asyncio
import json
import multiprocessing
import urllib.error
import urllib.request

import pytest

from repro.backends import RunSpec
from repro.errors import JobNotFoundError, QuotaExceededError
from repro.service import (
    JobServer,
    QuotaPolicy,
    ServerConfig,
    ServiceClient,
    ServiceThread,
)
from tests.backends.test_runspec import OUT_OF_DOMAIN

SPEC = RunSpec(n=1024, cycles=2)


def run(coro):
    return asyncio.run(coro)


class TestSubmissionFlow:
    """JobServer.submit drives everything; HTTP is a thin skin over it."""

    def test_first_submission_executes_then_cache_serves(self):
        async def main():
            server = JobServer(ServerConfig(n_cards=2))
            await server.start()
            try:
                first = await server.submit("t", SPEC)
                await first.wait_finished()
                assert first.state == "done" and not first.cached

                again = await server.submit("t", SPEC)
                assert again.state == "done"
                assert again.cached
                assert again.result == first.result
                assert server.cache.hits == 1
            finally:
                await server.stop()

        run(main())

    def test_identical_inflight_submissions_dedupe(self):
        async def main():
            # one slow-ish modelled job; submit 3 identical before it runs
            server = JobServer(ServerConfig(n_cards=1))
            await server.start()
            try:
                jobs = [await server.submit("t", SPEC) for _ in range(3)]
                for job in jobs:
                    await asyncio.wait_for(job.wait_finished(), timeout=30.0)
                primary, followers = jobs[0], jobs[1:]
                assert all(f.deduped_from == primary.id for f in followers)
                assert all(f.result == primary.result for f in followers)
                # one execution total
                assert server.scheduler.jobs_done == 1
                assert server.deduped_served == 2
            finally:
                await server.stop()

        run(main())

    def test_equivalent_spellings_share_one_execution(self):
        """device-alias + explicit-default specs hit the same cache entry."""

        async def main():
            server = JobServer(ServerConfig(n_cards=1))
            await server.start()
            try:
                from repro.backends import BackendSpec

                a = RunSpec(n=512, backend=BackendSpec("tt"))
                b = RunSpec(n=512, backend=BackendSpec("device", {"cores": 8}))
                first = await server.submit("t", a)
                await first.wait_finished()
                second = await server.submit("t", b)
                assert second.cached
                assert second.result == first.result
            finally:
                await server.stop()

        run(main())

    def test_quota_rejection_carries_retry_after(self):
        async def main():
            server = JobServer(ServerConfig(
                n_cards=1,
                policy=QuotaPolicy(max_queued=2, max_active=1),
            ))
            await server.start()
            try:
                with pytest.raises(QuotaExceededError) as exc_info:
                    for seed in range(50):
                        await server.submit(
                            "spam", RunSpec(n=256, cycles=1, seed=seed)
                        )
                assert exc_info.value.retry_after_s >= 1.0
                assert sum(server.ledger.rejections.values()) == 1
            finally:
                await server.stop()

        run(main())

    def test_cached_answers_bypass_quota(self):
        """Duplicate submissions never burn a tenant's queue slots."""

        async def main():
            server = JobServer(ServerConfig(
                n_cards=1, policy=QuotaPolicy(max_queued=1, max_active=1),
            ))
            await server.start()
            try:
                first = await server.submit("t", SPEC)
                await first.wait_finished()
                for _ in range(10):  # far beyond max_queued
                    job = await server.submit("t", SPEC)
                    assert job.cached
            finally:
                await server.stop()

        run(main())

    def test_unknown_job_lookup_raises(self):
        async def main():
            server = JobServer(ServerConfig(n_cards=1))
            await server.start()
            try:
                with pytest.raises(JobNotFoundError):
                    server.get_job("job-999999")
            finally:
                await server.stop()

        run(main())

    def test_stop_fails_queued_jobs_and_settles_followers(self):
        async def main():
            server = JobServer(ServerConfig(n_cards=1))
            # don't start(): nothing will ever execute
            server.scheduler.start()
            await server.scheduler.stop()  # workers exit immediately
            server.scheduler._tasks = []
            job = await server.submit("t", SPEC)
            follower = await server.submit("t", SPEC)
            assert follower.deduped_from == job.id
            await server.stop()
            assert job.state == "failed"
            assert "shut down" in job.error
            assert follower.state == "failed"
            assert server.ledger.total_pending == 0

        run(main())

    def test_stats_shape(self):
        async def main():
            server = JobServer(ServerConfig(n_cards=2))
            await server.start()
            try:
                job = await server.submit("t", SPEC)
                await job.wait_finished()
                await (await server.submit("t", SPEC)).wait_finished()
                stats = server.stats()
                assert stats["jobs"]["submitted"] == 2
                assert stats["jobs"]["executed_ok"] == 1
                assert stats["jobs"]["cached"] == 1
                assert stats["cache"]["hit_rate"] == 0.5
                assert stats["latency"]["p50_s"] is not None
                assert stats["latency"]["p99_s"] is not None
                assert stats["queue"]["depth_peak"] >= 1
                json.dumps(stats)  # endpoint-serialisable
            finally:
                await server.stop()

        run(main())


class TestHttpSurface:
    """Real sockets end to end: ServiceThread + the urllib client."""

    @pytest.fixture()
    def service(self):
        thread = ServiceThread(ServerConfig(
            n_cards=2,
            policy=QuotaPolicy(max_queued=4, max_active=2),
        ))
        url = thread.start()
        yield ServiceClient(url)
        thread.stop()
        assert multiprocessing.active_children() == []

    def test_healthz(self, service):
        assert service.healthy()

    def test_submit_wait_and_fetch(self, service):
        job = service.submit(SPEC, tenant="alice")
        assert job["state"] in ("queued", "running", "done")
        done = service.wait(job["id"])
        assert done["state"] == "done"
        assert done["result"]["mode"] == "modelled"
        assert done["latency_s"] >= 0
        fetched = service.job(job["id"])
        assert fetched == done

    def test_duplicate_over_http_is_cached(self, service):
        first = service.submit_and_wait(SPEC, tenant="alice")
        second = service.submit(SPEC, tenant="bob")
        assert second["cached"] is True
        assert second["state"] == "done"
        assert second["result"] == first["result"]

    def test_events_stream_ndjson(self, service):
        job = service.submit_and_wait(SPEC)
        events = list(service.events(job["id"]))
        assert events[0]["event"] == "queued"
        assert events[-1]["event"] == "done"
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert any(e["event"] == "span" for e in events)

    def test_quota_rejection_is_429_with_retry_after(self):
        """Saturate a deliberately slow one-card farm: rejection is certain."""
        import time

        thread = ServiceThread(ServerConfig(
            n_cards=1, policy=QuotaPolicy(max_queued=2, max_active=1),
        ))
        url = thread.start()

        def slow_execute(spec, card):
            time.sleep(0.5)
            return {"mode": "modelled", "completed": True,
                    "virtual_s": 1.0, "events": []}

        thread.server.farm.execute = slow_execute
        client = ServiceClient(url)
        try:
            rejected = None
            for seed in range(8):
                try:
                    client.submit(RunSpec(n=256, cycles=1, seed=seed),
                                  tenant="spam")
                except QuotaExceededError as exc:
                    rejected = exc
                    break
            assert rejected is not None, "quota never rejected"
            assert rejected.retry_after_s >= 1.0
            # the farm is still wedged, so the raw response is observable:
            # a real 429 status with a Retry-After header
            req = urllib.request.Request(
                url + "/v1/jobs", method="POST",
                data=json.dumps({
                    "tenant": "spam",
                    "spec": RunSpec(n=64, cycles=1).to_dict(),
                }).encode(),
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(req)
            assert exc_info.value.code == 429
            assert int(exc_info.value.headers["Retry-After"]) >= 1
        finally:
            thread.stop()
        assert multiprocessing.active_children() == []

    def test_unknown_job_is_404(self, service):
        with pytest.raises(JobNotFoundError):
            service.job("job-424242")

    def test_malformed_spec_is_400(self, service):
        import urllib.error

        req = urllib.request.Request(
            service.url + "/v1/jobs", method="POST",
            data=json.dumps({"spec": {"wibble": 1}}).encode(),
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req)
        assert exc_info.value.code == 400

    @pytest.mark.parametrize("fields, match", OUT_OF_DOMAIN)
    def test_out_of_domain_spec_is_400(self, service, fields, match):
        """Rejected at submission, never queued to hold a card worker."""
        import urllib.error

        spec = {**RunSpec(n=64, cycles=1).to_dict(), **fields}
        req = urllib.request.Request(
            service.url + "/v1/jobs", method="POST",
            data=json.dumps({"spec": spec}).encode(),
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req)
        assert exc_info.value.code == 400
        assert match in json.loads(exc_info.value.read())["error"]

    def test_unknown_route_is_404(self, service):
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(service.url + "/nope")
        assert exc_info.value.code == 404

    def test_stats_over_http(self, service):
        service.submit_and_wait(SPEC)
        stats = service.stats()
        assert stats["jobs"]["submitted"] >= 1
        assert stats["n_cards"] == 2


def test_shutdown_endpoint_stops_the_service():
    thread = ServiceThread(ServerConfig(n_cards=1))
    url = thread.start()
    client = ServiceClient(url)
    job = client.submit_and_wait(SPEC)
    assert job["state"] == "done"
    assert client.shutdown()["stopping"] is True
    thread._thread.join(timeout=30.0)
    assert not thread._thread.is_alive()
    assert multiprocessing.active_children() == []


def test_cli_serve_and_submit(tmp_path):
    """``repro serve`` + ``repro submit`` round-trip over a real socket."""
    import socket
    import subprocess
    import sys
    import time

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", str(port), "--cards", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        client = ServiceClient(f"http://127.0.0.1:{port}")
        deadline = time.monotonic() + 30.0
        while not client.healthy():
            assert time.monotonic() < deadline, "server never came up"
            assert proc.poll() is None, proc.stdout.read()
            time.sleep(0.05)
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", "submit",
             "--url", f"http://127.0.0.1:{port}",
             "--n", "512", "--cycles", "2", "--tenant", "cli"],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        job = json.loads(out.stdout)
        assert job["state"] == "done"
        assert job["result"]["mode"] == "modelled"
        client.shutdown()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
