"""The two raw-environ truthiness bugs Watcher-Host flagged (RH006).

Both gates read ``os.environ`` and compared against hand-picked
spellings: ``REPRO_SANITIZE not in ("", "0")`` made ``false``/``off``
*enable* the sanitizer, and ``REPRO_NATIVE != "0"`` made ``false`` keep
native kernels *on*.  Written to fail against those raw reads; the fix
routes both through :func:`repro.config.env_flag`.
"""

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
