"""The backend registry: one place that owns "which backend, with which
options".

Before this layer existed, backend construction was copy-pasted with
divergent defaults across ``cli.py``, ``telemetry/campaign.py`` and every
``benchmarks/bench_*.py``.  Now a :class:`BackendSpec` — a name plus typed
options — is the *declarative* form of a backend, :func:`make_backend`
turns it into a live :class:`~repro.backends.protocol.ForceBackend`, and
:func:`register_backend` lets new engines join the same machinery the
built-ins use (CLI choices, campaign schedules, parity tests, and the CI
backend matrix all iterate :func:`backend_names`).

Factories import their implementation lazily, so ``import repro.backends``
stays light and the import graph stays acyclic: the registry sits *above*
the competitors, while :mod:`repro.backends.protocol` sits below
``repro.core``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..errors import ConfigurationError, UnknownBackendError
from .protocol import ForceBackend
from .sharded import WORKER_MODES

__all__ = [
    "BackendSpec",
    "OptionSpec",
    "RegisteredBackend",
    "register_backend",
    "make_backend",
    "backend_names",
    "backend_entry",
    "backend_choices_help",
]


@dataclass(frozen=True)
class OptionSpec:
    """One typed option a registered backend (or integrator) accepts.

    ``validate`` is an optional domain check run *after* type coercion:
    it receives the coerced value and returns an error message (or
    ``None`` when the value is acceptable).  This is how per-option
    invariants — e.g. the block-Hermite ``dt_max`` must be a power of
    two — fail at spec-resolution time, before any simulation state is
    built.
    """

    name: str
    type: type
    default: Any
    help: str = ""
    validate: Callable[[Any], str | None] | None = None

    def coerce(self, value: Any) -> Any:
        """Validate (and gently coerce) one user-supplied option value.

        ints are accepted where floats are expected; strings are parsed
        for numeric and boolean options so env/CLI round-trips work; any
        other mismatch is a :class:`ConfigurationError`.
        """
        coerced = self._coerce_type(value)
        if coerced is not None and self.validate is not None:
            problem = self.validate(coerced)
            if problem:
                raise ConfigurationError(
                    f"option {self.name!r} {problem}, got {coerced!r}"
                )
        return coerced

    def _coerce_type(self, value: Any) -> Any:
        if value is None or isinstance(value, self.type):
            # bool is an int subclass: don't let True sneak into int options
            if not (self.type is int and isinstance(value, bool)):
                return value
        if self.type is float and isinstance(value, int) \
                and not isinstance(value, bool):
            return float(value)
        if self.type is str and isinstance(value, enum.Enum) \
                and isinstance(value.value, str):
            # enum-valued options (DataFormat) flatten to their string form
            return value.value
        if isinstance(value, str):
            try:
                if self.type is int:
                    return int(value)
                if self.type is float:
                    return float(value)
                if self.type is bool:
                    if value.lower() in ("1", "true", "yes", "on"):
                        return True
                    if value.lower() in ("0", "false", "no", "off"):
                        return False
                    raise ValueError(value)
            except ValueError:
                pass
        raise ConfigurationError(
            f"backend option {self.name!r} expects {self.type.__name__}, "
            f"got {value!r}"
        )


@dataclass(frozen=True)
class BackendSpec:
    """A backend, declaratively: registry name + option overrides.

    The JSON form (:meth:`to_json` / :meth:`from_json`) is what
    :class:`~repro.backends.runspec.RunSpec` persists; option values are
    validated against the registered :class:`OptionSpec` table when the
    spec is realised by :func:`make_backend`, not at construction, so a
    spec can be built for a backend registered later.
    """

    name: str
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", dict(self.options))

    def with_options(self, **overrides: Any) -> "BackendSpec":
        """A copy of this spec with extra/replaced options."""
        merged = dict(self.options)
        merged.update(overrides)
        return BackendSpec(self.name, merged)

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BackendSpec":
        if "name" not in data:
            raise ConfigurationError(f"backend spec needs a 'name': {data!r}")
        return cls(str(data["name"]), dict(data.get("options", {})))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BackendSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class RegisteredBackend:
    """One registry entry: factory, typed options, and help text."""

    name: str
    factory: Callable[..., ForceBackend]
    description: str
    options: tuple[OptionSpec, ...] = ()
    aliases: tuple[str, ...] = ()

    def resolve_options(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """Defaults merged with validated overrides; unknown keys raise."""
        table = {o.name: o for o in self.options}
        unknown = sorted(set(overrides) - set(table))
        if unknown:
            raise ConfigurationError(
                f"backend {self.name!r} does not accept option(s) "
                f"{unknown}; known: {sorted(table)}"
            )
        resolved = {o.name: o.default for o in self.options}
        for key, value in overrides.items():
            resolved[key] = table[key].coerce(value)
        return resolved


_REGISTRY: dict[str, RegisteredBackend] = {}
_ALIASES: dict[str, str] = {}


def register_backend(
    name: str,
    factory: Callable[..., ForceBackend],
    *,
    description: str = "",
    options: tuple[OptionSpec, ...] = (),
    aliases: tuple[str, ...] = (),
) -> RegisteredBackend:
    """Add a backend to the registry (idempotent per name).

    Re-registering an existing name replaces it — deliberate, so tests and
    downstream code can shadow a built-in with an instrumented double.
    """
    if not name:
        raise ConfigurationError("backend name must be non-empty")
    entry = RegisteredBackend(name, factory, description, options, aliases)
    # repro-lint: disable=RH010 - registration happens at import time,
    # before any shard thread starts; threads only read the registry.
    _REGISTRY[name] = entry
    for alias in aliases:
        # repro-lint: disable=RH010 - same import-time-only write as above
        _ALIASES[alias] = name
    return entry


def backend_names() -> tuple[str, ...]:
    """All registered (canonical) backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def backend_entry(name: str) -> RegisteredBackend:
    """Registry lookup by canonical name or alias."""
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        raise UnknownBackendError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(backend_names())}"
        ) from None


def backend_choices_help() -> str:
    """One-line-per-backend help text derived from the registry."""
    return "; ".join(
        f"{entry.name}: {entry.description}"
        for _, entry in sorted(_REGISTRY.items())
    )


def make_backend(spec: BackendSpec | str, **extra: Any) -> ForceBackend:
    """Realise a :class:`BackendSpec` (or bare name) into a live backend.

    ``extra`` options override the spec's — convenience for call sites
    that take a serialised spec but force one knob (e.g. softening).
    """
    if isinstance(spec, str):
        spec = BackendSpec(spec)
    entry = backend_entry(spec.name)
    overrides = dict(spec.options)
    overrides.update(extra)
    return entry.factory(**entry.resolve_options(overrides))


# --------------------------------------------------------------------------
# Built-in backends
# --------------------------------------------------------------------------
#
# Factories import lazily: the registry stays importable from anywhere in
# the stack, and `import repro.backends` does not drag in the simulator.

_SOFTENING = OptionSpec("softening", float, 0.0, "Plummer softening length")


def _make_reference(*, softening: float) -> ForceBackend:
    from ..core.simulation import ReferenceBackend

    return ReferenceBackend(softening=softening)


def _make_cpu(*, threads: int, softening: float, noisy: bool) -> ForceBackend:
    from ..cpuref.reference import CPUForceBackend

    return CPUForceBackend(threads, softening=softening, noisy=noisy)


def _tt_common(cores, cards, softening, fmt, cb_buffering, engine, workers):
    """Shared body of the ``tt`` / ``tt-per-block`` factories."""
    from ..wormhole.dtypes import DataFormat

    fmt = DataFormat(fmt) if not isinstance(fmt, DataFormat) else fmt
    if cards < 1:
        raise ConfigurationError(f"cards must be >= 1, got {cards}")
    if cards == 1:
        # a single card has no shard fan-out; `workers` is meaningless
        from ..metalium.host_api import CreateDevice
        from ..nbody_tt.offload import TTForceBackend

        return TTForceBackend(
            CreateDevice(0), n_cores=cores, softening=softening,
            fmt=fmt, cb_buffering=cb_buffering, engine=engine,
        )
    from .sharded import ShardedTTBackend

    return ShardedTTBackend(
        cards, n_cores=cores, softening=softening, fmt=fmt,
        cb_buffering=cb_buffering, engine=engine, workers=workers,
    )


def _make_tt(*, cores, cards, softening, fmt, cb_buffering, engine, workers):
    return _tt_common(cores, cards, softening, fmt, cb_buffering, engine,
                      workers)


def _make_tt_per_block(*, cores, cards, softening, fmt, cb_buffering, workers):
    return _tt_common(cores, cards, softening, fmt, cb_buffering, "per-block",
                      workers)


def _make_tt_ds(*, softening: float, cores: int) -> ForceBackend:
    from .variants import DSVariantBackend

    return DSVariantBackend(softening=softening, n_cores=cores)


def _make_tt_matmul(*, softening: float, cores: int) -> ForceBackend:
    from .variants import MatmulVariantBackend

    return MatmulVariantBackend(softening=softening, n_cores=cores)


def _make_tt_pm(*, mesh: int, cutoff: float, softening: float,
                cores: int) -> ForceBackend:
    from ..metalium.host_api import CreateDevice
    from ..nbody_pm.backend import PMForceBackend

    return PMForceBackend(
        CreateDevice(0), mesh=mesh, cutoff=cutoff, softening=softening,
        cores=cores,
    )


def _make_cpu_pm(*, mesh: int, cutoff: float, softening: float
                 ) -> ForceBackend:
    from ..nbody_pm.backend import PMForceBackend

    return PMForceBackend(
        mesh=mesh, cutoff=cutoff, softening=softening,
    )


def _validate_workers(mode: str) -> str | None:
    if mode not in WORKER_MODES:
        return f"must be one of {WORKER_MODES}"
    return None


#: Options shared by the Wormhole-offload family.  ``cores`` defaults to 8
#: — the single source of truth the CLI and every benchmark now share
#: (`repro simulate --cores` used 8 while benchmarks ranged 2..64).
_TT_OPTIONS = (
    OptionSpec("cores", int, 8, "Tensix cores per card"),
    OptionSpec("cards", int, 1, "n300 cards to shard i-blocks across"),
    _SOFTENING,
    OptionSpec("fmt", str, "float32", "device data format"),
    OptionSpec("cb_buffering", int, 2, "j-stream CB depth in page groups"),
    OptionSpec("workers", str, None,
               "host fan-out of the per-card shards when cards>1 "
               f"({' | '.join(WORKER_MODES)}; default: thread)",
               validate=_validate_workers),
)

register_backend(
    "reference", _make_reference,
    description="float64 golden reference (no modelled device time)",
    options=(_SOFTENING,),
)
register_backend(
    "cpu", _make_cpu,
    description="mixed-precision MPI+OpenMP+AVX-512 reference model",
    options=(
        OptionSpec("threads", int, 32, "OpenMP threads"),
        _SOFTENING,
        OptionSpec("noisy", bool, False,
                   "apply the per-run duration noise of the paper's host"),
    ),
)
register_backend(
    "tt", _make_tt,
    description="Wormhole offload, batched block-dispatch engine "
                "(cards>1 shards i-blocks over the QSFP-DD ring)",
    options=_TT_OPTIONS + (
        OptionSpec("engine", str, None,
                   "execution engine override (batched | per-block; "
                   "default: REPRO_TT_ENGINE or batched)"),
    ),
    aliases=("device",),  # the CLI's historical name for the offload
)
register_backend(
    "tt-per-block", _make_tt_per_block,
    description="Wormhole offload pinned to the original per-block "
                "in-band engine",
    options=_TT_OPTIONS,
)
register_backend(
    "tt-ds", _make_tt_ds,
    description="double-single ablation: every pairwise op in DS "
                "arithmetic, priced by DSCostModel",
    options=(
        _SOFTENING,
        OptionSpec("cores", int, 8, "Tensix cores the cost model assumes"),
    ),
)
#: Options shared by the particle-mesh family.  ``cutoff`` is in units of
#: the mesh spacing; 0 disables the short-range correction (pure PM, for
#: collisionless far-field runs).
_PM_OPTIONS = (
    OptionSpec("mesh", int, 32,
               "PM grid cells per axis (power of two in [32, 256])"),
    OptionSpec("cutoff", float, 5.0,
               "short-range cutoff in mesh spacings (0 = pure PM)"),
    _SOFTENING,
)

register_backend(
    "tt-pm", _make_tt_pm,
    description="particle-mesh far field on the Metalium FFT kernel set "
                "+ screened direct near field",
    options=_PM_OPTIONS + (
        OptionSpec("cores", int, 8, "Tensix cores per FFT pass"),
    ),
)
register_backend(
    "cpu-pm", _make_cpu_pm,
    description="particle-mesh reference: same split and grids, "
                "host-modelled FFT time",
    options=_PM_OPTIONS,
)
register_backend(
    "tt-matmul", _make_tt_matmul,
    description="tensor-FPU ablation: pair distances via Gram matmuls, "
                "priced by MatmulVariantModel",
    options=(
        _SOFTENING,
        OptionSpec("cores", int, 8, "Tensix cores the cost model assumes"),
    ),
)
