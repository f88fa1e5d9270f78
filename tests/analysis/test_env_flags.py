"""The two raw-environ truthiness bugs Watcher-Host flagged (RH006).

Both gates read ``os.environ`` and compared against hand-picked
spellings: ``REPRO_SANITIZE not in ("", "0")`` made ``false``/``off``
*enable* the sanitizer, and ``REPRO_NATIVE != "0"`` made ``false`` keep
native kernels *on*.  Written to fail against those raw reads; the fix
routes both through :func:`repro.config.env_flag`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.hooks import env_sanitize_enabled
from repro.errors import ConfigurationError
from repro.native import native_enabled


class TestSanitizeFlag:
    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_spellings_enable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert env_sanitize_enabled() is True

    @pytest.mark.parametrize("value", ["0", "false", "False", "no", "off"])
    def test_falsy_spellings_disable(self, monkeypatch, value):
        """``REPRO_SANITIZE=false`` is an opt-out, not an opt-in."""
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert env_sanitize_enabled() is False

    def test_unset_and_empty_disable(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert env_sanitize_enabled() is False
        monkeypatch.setenv("REPRO_SANITIZE", "")
        assert env_sanitize_enabled() is False

    def test_garbage_is_rejected_not_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "maybe")
        with pytest.raises(ConfigurationError, match="REPRO_SANITIZE"):
            env_sanitize_enabled()


_SRC = Path(__file__).resolve().parents[2] / "src"


def _run_with_sanitize(value, *argv):
    """``python *argv`` in a child with ``REPRO_SANITIZE=value``."""
    env = dict(os.environ, REPRO_SANITIZE=value)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_SRC), os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *argv], env=env,
        capture_output=True, text=True, timeout=120,
    )


class TestSanitizeParsedAtFirstUse:
    """``REPRO_SANITIZE`` is parsed at the first DRAM buffer or program,
    not at import, so a malformed value cannot break ``import repro``."""

    def test_malformed_value_leaves_info_working(self):
        proc = _run_with_sanitize("maybe", "-m", "repro.cli", "info")
        assert proc.returncode == 0, proc.stderr

    def test_malformed_value_is_a_usage_error(self):
        proc = _run_with_sanitize(
            "maybe", "-m", "repro.cli", "simulate", "--backend",
            "reference", "--n", "64", "--cycles", "1",
        )
        assert proc.returncode == 2, proc.stderr
        assert "REPRO_SANITIZE" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_ambient_context_tracks_the_first_buffer(self):
        script = (
            "from repro.analysis import hooks\n"
            "from repro.errors import SanitizerError\n"
            "from repro.metalium import CreateBuffer, CreateDevice\n"
            "buffer = CreateBuffer(CreateDevice(0), 1)\n"
            "assert hooks.active() is not None and hooks.active().ambient\n"
            "try:\n"
            "    buffer.noc_read_tile(0, 0)\n"
            "except SanitizerError as exc:\n"
            "    assert 'dram-read-before-write' in str(exc), exc\n"
            "else:\n"
            "    raise SystemExit('a never-written tile was read')\n"
        )
        proc = _run_with_sanitize("1", "-c", script)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestNativeFlag:
    def test_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        assert native_enabled() is True

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy_spellings_enable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NATIVE", value)
        assert native_enabled() is True

    @pytest.mark.parametrize("value", ["0", "false", "FALSE", "no", "off"])
    def test_falsy_spellings_disable(self, monkeypatch, value):
        """``REPRO_NATIVE=false`` must actually turn native kernels off."""
        monkeypatch.setenv("REPRO_NATIVE", value)
        assert native_enabled() is False

    def test_empty_means_default_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "")
        assert native_enabled() is True

    def test_garbage_is_rejected_not_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "fast")
        with pytest.raises(ConfigurationError, match="REPRO_NATIVE"):
            native_enabled()
