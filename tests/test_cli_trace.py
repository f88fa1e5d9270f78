"""Tests for the `repro trace` subcommand and the REPRO_TRACE env flow."""

import json

import pytest

from repro.cli import main
from repro.observability import validate_chrome_trace


def load_valid_trace(path):
    payload = json.loads(path.read_text())
    assert validate_chrome_trace(payload) == []
    return payload


class TestTraceCommand:
    def test_writes_trace_metrics_and_flamegraph(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(["trace", "--n", "512", "--cycles", "2", "--cores", "4",
                   "--out", str(out)])
        assert rc == 0

        payload = load_valid_trace(out)
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        # Host phases, a launch with per-core children, and sim structure.
        assert {"simulation.run", "initialise", "cycle", "predict",
                "correct", "EnqueueProgram", "device"} <= names
        cores = [e for e in spans if e["cat"] == "core"]
        assert len(cores) == 12  # 4 cores x (initialise + 2 cycles)

        metrics = json.loads((tmp_path / "trace.json.metrics.json")
                             .read_text())
        assert metrics["device0.programs"]["value"] == 3
        csv_text = (tmp_path / "trace.json.metrics.csv").read_text()
        assert csv_text.startswith("name,kind,value,count,sum")

        text = capsys.readouterr().out
        assert "modelled seconds by category" in text
        assert "simulation.run" in text       # the flamegraph
        assert "(total)" in text

    def test_host_phases_have_nonzero_time(self, tmp_path, capsys):
        """The device backend prices its host work, so the paper's full
        phase structure (host init + per-cycle host slices) shows."""
        out = tmp_path / "t.json"
        assert main(["trace", "--n", "256", "--cycles", "1",
                     "--out", str(out)]) == 0
        payload = load_valid_trace(out)
        host = [e for e in payload["traceEvents"]
                if e["ph"] == "X" and e["cat"] == "host"]
        assert sum(e["dur"] for e in host) > 0
        init = next(e for e in payload["traceEvents"]
                    if e.get("name") == "initialise")
        assert init["dur"] >= 2.0e6  # the 2 s init charge, in us

    def test_takes_every_simulate_flag(self, tmp_path, capsys):
        """``trace`` is ``simulate`` with a trace path: any backend,
        integrator and scenario, and the same modelled total."""
        out = tmp_path / "t.json"
        flags = ["--n", "64", "--cycles", "1", "--backend", "cpu",
                 "--threads", "2", "--integrator", "leapfrog",
                 "--scenario", "uniform_sphere", "--virial-ratio", "0.5"]
        assert main(["simulate", *flags]) == 0
        simulated = capsys.readouterr().out
        assert main(["trace", *flags, "--out", str(out)]) == 0
        traced = capsys.readouterr().out
        load_valid_trace(out)
        total = next(line for line in simulated.splitlines()
                     if "modelled total" in line)
        assert total in traced
        assert "cpu-ref-omp2" in traced and "leapfrog" in traced

    def test_min_share_prunes_flamegraph(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["trace", "--n", "256", "--cycles", "1",
                     "--out", str(out), "--min-share", "0.99"]) == 0
        text = capsys.readouterr().out
        flame = text[text.index("seconds"):]
        assert "predict" not in flame


class TestReproTraceEnv:
    def test_simulate_honours_repro_trace(self, tmp_path, monkeypatch,
                                          capsys):
        out = tmp_path / "sim.json"
        monkeypatch.setenv("REPRO_TRACE", str(out))
        rc = main(["simulate", "--n", "512", "--cycles", "2",
                   "--backend", "device", "--cores", "2"])
        assert rc == 0
        payload = load_valid_trace(out)
        names = {e["name"] for e in payload["traceEvents"]}
        assert "EnqueueProgram" in names
        assert (tmp_path / "sim.json.metrics.json").is_file()
        assert "trace written to" in capsys.readouterr().out

    def test_simulate_untraced_without_env(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--n", "256", "--cycles", "1",
                     "--backend", "device", "--cores", "2"]) == 0
        assert not list(tmp_path.glob("*.json"))
        assert "trace written" not in capsys.readouterr().out

    def test_campaign_honours_repro_trace(self, tmp_path, monkeypatch,
                                          capsys):
        out = tmp_path / "campaign.json"
        monkeypatch.setenv("REPRO_TRACE", str(out))
        rc = main(["campaign", "--accel-jobs", "2", "--ref-jobs", "1",
                   "--reset-failure-rate", "0.0"])
        assert rc == 0
        payload = load_valid_trace(out)
        jobs = [e for e in payload["traceEvents"]
                if e["ph"] == "X" and e["name"] == "job"]
        assert len(jobs) == 3
        metrics = json.loads(
            (tmp_path / "campaign.json.metrics.json").read_text()
        )
        assert metrics["campaign.jobs"]["value"] == 3


class TestProfileFallback:
    """`repro simulate --profile` must not crash on the batched engine."""

    def test_batched_engine_profile_exits_zero(self, capsys):
        rc = main(["simulate", "--n", "512", "--cycles", "1",
                   "--backend", "device", "--cores", "2", "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Device occupancy" in out

    def test_empty_counters_fall_back_to_aggregate_report(self):
        """A device whose counters were cleared after the last evaluation
        produces the aggregate fallback line, not a crash."""
        from repro.cli import _device_profile_text
        from repro.metalium import CreateDevice, GetCommandQueue
        from repro.nbody_tt import TTForceBackend
        from repro.core import plummer

        device = CreateDevice(0)
        s = plummer(512, seed=2)
        TTForceBackend(device, n_cores=2).compute(s.pos, s.vel, s.mass)
        device.clear_counters()   # no per-block records remain

        text = _device_profile_text(
            device, GetCommandQueue(device), "batched"
        )
        assert "no per-core profiler records" in text
        assert "aggregated by batch" in text
        assert "batched engine: charge-only replay" in text

    def test_per_block_engine_still_shows_core_table(self):
        from repro.backends import make_backend
        from repro.cli import _profile_report
        from repro.core import plummer

        backend = make_backend("tt", cores=2, engine="per-block")
        s = plummer(512, seed=2)
        backend.compute(s.pos, s.vel, s.mass)
        assert "critical path" in _profile_report(backend)
