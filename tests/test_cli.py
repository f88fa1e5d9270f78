"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestInfo:
    def test_prints_hardware(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Tensix cores: 64" in out
        assert "12 GiB GDDR6" in out
        assert "EPYC 9124" in out


class TestSimulate:
    def test_reference_backend(self, capsys):
        rc = main(["simulate", "--n", "128", "--cycles", "3",
                   "--backend", "reference"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "energy drift" in out
        assert "reference-f64" in out

    def test_device_backend_with_timeline(self, capsys):
        rc = main(["simulate", "--n", "1024", "--cycles", "2",
                   "--backend", "device", "--cores", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "modelled device" in out

    def test_cpu_backend_adaptive(self, capsys):
        rc = main(["simulate", "--n", "128", "--cycles", "2",
                   "--backend", "cpu", "--threads", "2", "--adaptive"])
        assert rc == 0
        assert "cpu-ref-omp2" in capsys.readouterr().out

    def test_unknown_backend_exits_2_without_traceback(self, capsys):
        rc = main(["simulate", "--n", "64", "--backend", "warp-drive"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "unknown backend 'warp-drive'" in captured.err
        assert "registered backends:" in captured.err
        assert "Traceback" not in captured.err

    def test_registry_backend_name_accepted(self, capsys):
        rc = main(["simulate", "--n", "512", "--cycles", "1",
                   "--backend", "cpu-pm"])
        assert rc == 0
        assert "cpu-pm-mesh32" in capsys.readouterr().out

    def test_multi_card_profile_shows_per_card_costs(self, capsys):
        rc = main(["simulate", "--n", "2048", "--cycles", "1",
                   "--backend", "tt", "--cores", "2", "--cards", "2",
                   "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tt-sharded-cards2" in out
        assert "Per-card cost accounting" in out
        assert "card 0:" in out and "card 1:" in out
        assert "-- card 0 --" in out and "-- card 1 --" in out

    def test_workers_flag_selects_executor(self, capsys):
        for workers in ("serial", "thread"):
            rc = main(["simulate", "--n", "2048", "--cycles", "1",
                       "--backend", "tt", "--cores", "2", "--cards", "2",
                       "--workers", workers, "--profile"])
            assert rc == 0
            out = capsys.readouterr().out
            assert "tt-sharded-cards2" in out
            assert "Per-card cost accounting" in out
        assert main(["simulate", "--n", "64", "--backend", "tt",
                     "--cards", "2", "--workers", "process"]) == 2

    def test_workers_flag_rejects_unknown_mode(self, capsys):
        assert main(["simulate", "--n", "64", "--backend", "tt",
                     "--cards", "2", "--workers", "turbo"]) == 2
        err = capsys.readouterr().err
        assert "option 'workers' must be one of" in err
        assert "Traceback" not in err

    def test_pm_profile_shows_residency(self, capsys):
        """tt-pm's Green's-function cache is the one cross-timestep cache;
        a direct tt run re-tilizes every evaluation and reports none."""
        rc = main(["simulate", "--n", "1024", "--cycles", "2",
                   "--backend", "tt-pm", "--cores", "2", "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Residency" in out and "green_cache_hits 2" in out
        rc = main(["simulate", "--n", "1024", "--cycles", "2",
                   "--backend", "device", "--cores", "2", "--profile"])
        assert rc == 0
        assert "Residency" not in capsys.readouterr().out

    def test_snapshot_written(self, tmp_path, capsys):
        path = tmp_path / "final.npz"
        rc = main(["simulate", "--n", "64", "--cycles", "1",
                   "--backend", "reference", "--snapshot", str(path)])
        assert rc == 0
        assert path.exists()
        from repro.core import load_npz

        snap = load_npz(path)
        assert snap.n == 64
        assert snap.time > 0


class TestValidate:
    def test_fp32_passes(self, capsys):
        rc = main(["validate", "--n", "1024", "--cores", "2"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_bf16_fails_with_nonzero_exit(self, capsys):
        rc = main(["validate", "--n", "1024", "--cores", "2",
                   "--format", "bfloat16"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestCampaign:
    def test_small_campaign(self, capsys):
        rc = main(["campaign", "--accel-jobs", "2", "--ref-jobs", "2",
                   "--n", "10240", "--cycles", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accelerated: 2/2 completed" in out
        assert "speedup" in out

    def test_csv_dir(self, tmp_path, capsys):
        rc = main(["campaign", "--accel-jobs", "1", "--ref-jobs", "1",
                   "--n", "10240", "--cycles", "1",
                   "--csv-dir", str(tmp_path)])
        assert rc == 0
        assert len(list(tmp_path.glob("*.csv"))) == 2

    def test_report_flag(self, tmp_path, capsys):
        path = tmp_path / "campaign.md"
        rc = main(["campaign", "--accel-jobs", "2", "--ref-jobs", "2",
                   "--n", "10240", "--cycles", "1",
                   "--report", str(path)])
        assert rc == 0
        assert path.exists()
        assert "## Summary" in path.read_text()

    def test_reset_failures_reported(self, capsys):
        rc = main(["campaign", "--accel-jobs", "10", "--ref-jobs", "1",
                   "--n", "10240", "--cycles", "1",
                   "--reset-failure-rate", "1.0"])
        assert rc == 0
        assert "accelerated: 0/10 completed" in capsys.readouterr().out

    def test_retries_recover_failed_resets(self, capsys):
        rc = main(["campaign", "--accel-jobs", "4", "--ref-jobs", "1",
                   "--n", "10240", "--cycles", "1", "--seed", "11",
                   "--reset-failure-rate", "0.48", "--retries", "8",
                   "--backoff", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accelerated: 4/4 completed" in out
        assert "reset attempts:" in out

    def test_cpu_failover_completes_jobs(self, capsys):
        rc = main(["campaign", "--accel-jobs", "2", "--ref-jobs", "1",
                   "--n", "10240", "--cycles", "1",
                   "--reset-failure-rate", "1.0", "--failover", "cpu"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accelerated: 2/2 completed" in out
        assert "failovers: cpu x2" in out

    def test_checkpoint_and_resume(self, tmp_path, capsys):
        path = tmp_path / "campaign.jsonl"
        rc = main(["campaign", "--accel-jobs", "2", "--ref-jobs", "2",
                   "--n", "10240", "--cycles", "1",
                   "--checkpoint", str(path)])
        assert rc == 0
        first = capsys.readouterr().out
        assert path.exists()
        rc = main(["campaign", "--resume", "--checkpoint", str(path)])
        assert rc == 0
        resumed = capsys.readouterr().out
        assert "4 jobs restored, 0 pending" in resumed
        # the resumed summary reproduces the original one exactly
        assert first.splitlines()[0] in resumed
        for line in first.splitlines():
            if "time-to-solution" in line:
                assert line in resumed

    def test_resume_requires_checkpoint(self, capsys):
        rc = main(["campaign", "--resume"])
        assert rc == 2
        assert "requires --checkpoint" in capsys.readouterr().err


class TestSmi:
    def test_table(self, capsys):
        rc = main(["smi", "--cards", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n300 (WH)" in out
        assert out.count("idle") == 4

    def test_custom_card_count(self, capsys):
        rc = main(["smi", "--cards", "2"])
        assert rc == 0
        assert capsys.readouterr().out.count("n300") == 2
