"""Tests for the virtual clock, stopwatch, and workload-scale config."""

import pytest

from repro.config import PAPER_N_CYCLES, PAPER_N_PARTICLES, paper_scale_enabled
from repro.errors import ConfigurationError
from repro.simclock import Stopwatch, VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_advance_and_sleep(self):
        clock = VirtualClock()
        clock.advance(5.0)
        clock.sleep(120.0)
        assert clock.now() == 125.0

    def test_never_backwards(self):
        clock = VirtualClock()
        with pytest.raises(ConfigurationError):
            clock.advance(-1.0)

    def test_custom_start(self):
        assert VirtualClock(100.0).now() == 100.0
        with pytest.raises(ConfigurationError):
            VirtualClock(-1.0)

    def test_zero_advance_allowed(self):
        clock = VirtualClock()
        clock.advance(0.0)
        assert clock.now() == 0.0

    def test_jump_to_for_checkpoint_resume(self):
        clock = VirtualClock()
        clock.advance(10.0)
        assert clock.jump_to(1234.5) == 1234.5
        assert clock.now() == 1234.5
        clock.jump_to(1234.5)  # jumping to the current time is a no-op

    def test_jump_backwards_rejected(self):
        clock = VirtualClock(100.0)
        with pytest.raises(ConfigurationError):
            clock.jump_to(99.9)


class TestStopwatch:
    def test_measures_interval_excluding_outside_time(self):
        clock = VirtualClock()
        clock.sleep(120.0)  # pre-run sleep: not measured
        watch = Stopwatch(clock)
        watch.start()
        clock.advance(301.4)
        elapsed = watch.stop()
        clock.sleep(120.0)  # post-run sleep: not measured
        assert elapsed == pytest.approx(301.4)
        assert watch.elapsed == pytest.approx(301.4)

    def test_double_start_rejected(self):
        watch = Stopwatch(VirtualClock())
        watch.start()
        with pytest.raises(ConfigurationError):
            watch.start()

    def test_stop_without_start(self):
        with pytest.raises(ConfigurationError):
            Stopwatch(VirtualClock()).stop()

    def test_running_flag(self):
        watch = Stopwatch(VirtualClock())
        assert not watch.running
        watch.start()
        assert watch.running
        watch.stop()
        assert not watch.running

    def test_reusable(self):
        clock = VirtualClock()
        watch = Stopwatch(clock)
        watch.start()
        clock.advance(1.0)
        watch.stop()
        watch.start()
        clock.advance(2.0)
        assert watch.stop() == pytest.approx(2.0)


class TestWorkloadScale:
    def test_paper_constants(self):
        assert PAPER_N_PARTICLES == 102_400
        assert PAPER_N_CYCLES == 10

    def test_default_is_bench_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert not paper_scale_enabled()

    def test_env_enables_paper_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert paper_scale_enabled()

    def test_zero_and_false_disable(self, monkeypatch):
        for value in ("0", "false", "False", ""):
            monkeypatch.setenv("REPRO_PAPER_SCALE", value)
            assert not paper_scale_enabled(), value


class TestEnvFlag:
    """The shared boolean-env parser every REPRO_* switch goes through.

    Historically each call site hand-rolled its own truthiness test, and
    the sanitizer's ("any non-empty value other than '0'") treated
    ``REPRO_SANITIZE=false`` as *on* — an explicit opt-out read as an
    opt-in.  These tests pin the shared spellings.
    """

    def test_unset_returns_default(self):
        from repro.config import env_flag

        assert env_flag(None) is False
        assert env_flag(None, default=True) is True

    @pytest.mark.parametrize("value", ["1", "true", "TRUE", "Yes", "on", "On"])
    def test_truthy_spellings(self, value):
        from repro.config import env_flag

        assert env_flag(value) is True
        assert env_flag(value, default=False) is True

    @pytest.mark.parametrize(
        "value", ["", "  ", "0", "false", "FALSE", "No", "off", "Off"]
    )
    def test_falsy_spellings(self, value):
        from repro.config import env_flag

        assert env_flag(value) is False
        # an explicit falsy spelling beats a truthy default (that is the
        # whole point: "off" must mean off)
        if value.strip():
            assert env_flag(value, default=True) is False
        else:
            # blank is "unset", which falls back to the default
            assert env_flag(value, default=True) is True

    def test_garbage_rejected_with_name(self):
        from repro.config import env_flag
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="REPRO_SANITIZE"):
            env_flag("maybe", name="REPRO_SANITIZE")

    def test_env_str_blank_is_none(self):
        from repro.config import env_str

        assert env_str({}, "X") is None
        assert env_str({"X": ""}, "X") is None
        assert env_str({"X": "   "}, "X") is None
        assert env_str({"X": " v "}, "X") == "v"
