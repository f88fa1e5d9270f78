"""Global configuration knobs shared across the repro package.

Only genuinely cross-cutting switches live here; subsystem parameters live
next to the subsystem (``repro.wormhole.params``, ``repro.cpuref.params``,
``repro.telemetry.params``).
"""

from __future__ import annotations

import os
from typing import Mapping

from .errors import ConfigurationError

__all__ = [
    "paper_scale_enabled",
    "PAPER_N_PARTICLES",
    "PAPER_N_CYCLES",
    "env_flag",
    "env_str",
    "TRUTHY_ENV_VALUES",
    "FALSY_ENV_VALUES",
]

#: Spellings accepted as "on" by boolean environment variables.
TRUTHY_ENV_VALUES = ("1", "true", "yes", "on")

#: Spellings accepted as "off".  The empty string counts as unset, so
#: ``REPRO_SANITIZE= repro simulate`` behaves like not exporting it.
FALSY_ENV_VALUES = ("", "0", "false", "no", "off")


def env_flag(value: str | None, *, name: str = "flag",
             default: bool = False) -> bool:
    """Parse one boolean environment value with the normalized spellings.

    ``1/true/yes/on`` enable, ``0/false/no/off`` (and unset or empty)
    disable — case-insensitive, surrounding whitespace ignored.  Anything
    else raises :class:`~repro.errors.ConfigurationError` naming the
    variable, instead of silently counting as enabled (the historical
    behaviour that made ``REPRO_SANITIZE=false`` turn the sanitizer *on*).
    """
    if value is None:
        return default
    text = value.strip().lower()
    if text in TRUTHY_ENV_VALUES:
        return True
    if text in FALSY_ENV_VALUES:
        return default if text == "" else False
    raise ConfigurationError(
        f"{name} expects a boolean value "
        f"({'/'.join(TRUTHY_ENV_VALUES)} or "
        f"{'/'.join(v for v in FALSY_ENV_VALUES if v)}), got {value!r}"
    )


def env_str(env: Mapping[str, str], name: str) -> str | None:
    """One string-valued environment variable, normalised.

    Returns the stripped value, or ``None`` when the variable is unset or
    blank — so ``VAR=" "`` behaves like not setting it at all, and every
    caller resolves emptiness the same way.
    """
    value = env.get(name)
    if value is None:
        return None
    value = value.strip()
    return value or None

#: Representative simulation from the paper's experimental campaign
#: (Section 4): "the representative simulation models 102400 particles
#: evolving over ten time cycles".
PAPER_N_PARTICLES = 102_400
PAPER_N_CYCLES = 10


def paper_scale_enabled() -> bool:
    """True when the benchmark suite should run the full paper workload.

    Controlled by the ``REPRO_PAPER_SCALE`` environment variable, parsed
    with the shared :func:`env_flag` spellings.
    """
    return env_flag(os.environ.get("REPRO_PAPER_SCALE"),
                    name="REPRO_PAPER_SCALE")
