"""The backend registry: one place that owns "which backend, with which
options".

Before this layer existed, backend construction was copy-pasted with
divergent defaults across ``cli.py``, ``telemetry/campaign.py`` and every
``benchmarks/bench_*.py``.  Now a :class:`BackendSpec` — a name plus typed
options — is the *declarative* form of a backend, :func:`make_backend`
turns it into a live :class:`~repro.core.protocol.ForceBackend`, and
``BACKENDS.register`` lets new engines join the same machinery the
built-ins use (CLI choices, campaign schedules, parity tests, and the CI
backend matrix all iterate ``BACKENDS.names()``).

Factories import their implementation lazily, so ``import repro.backends``
stays light: the registry sits *above* the competitors it builds.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.protocol import ForceBackend
from ..core.registry import (
    OptionSpec,
    Registry,
    Spec,
    in_range,
    one_of,
)
from ..errors import UnknownBackendError
from ..wormhole.dtypes import DataFormat
from ..wormhole.params import WORMHOLE_N300
from .sharded import WORKER_MODES

__all__ = ["BACKENDS", "BackendSpec", "make_backend"]

#: A backend, declaratively: registry name + option overrides.
BackendSpec = Spec

BACKENDS = Registry("backend", UnknownBackendError)


def make_backend(spec: Spec | str | Mapping[str, Any],
                 **extra: Any) -> ForceBackend:
    """Realise a backend spec (a :class:`Spec`, bare name or mapping).

    ``extra`` options override the spec's — convenience for call sites
    that take a serialised spec but force one knob (e.g. softening).
    """
    entry, options = BACKENDS.resolve(spec, **extra)
    return entry.factory(**options)


# --------------------------------------------------------------------------
# Built-in backends
# --------------------------------------------------------------------------
#
# Factories import lazily: the registry stays importable from anywhere in
# the stack, and `import repro.backends` does not drag in the simulator.

_SOFTENING = OptionSpec("softening", float, 0.0, "Plummer softening length",
                        validate=in_range(0.0))
_CORES = in_range(1, WORMHOLE_N300.n_tensix_cores)


def _make_reference(*, softening: float) -> ForceBackend:
    from ..core.simulation import ReferenceBackend

    return ReferenceBackend(softening=softening)


def _make_cpu(*, threads: int, softening: float, noisy: bool) -> ForceBackend:
    from ..cpuref.reference import CPUForceBackend

    return CPUForceBackend(threads, softening=softening, noisy=noisy)


def _make_tt(*, cores, cards, softening, fmt, cb_buffering, engine, workers):
    fmt = DataFormat(fmt)
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


BACKENDS.register(
    "reference", _make_reference,
    description="float64 golden reference (no modelled device time)",
    options=(_SOFTENING,),
)
BACKENDS.register(
    "cpu", _make_cpu,
    description="mixed-precision MPI+OpenMP+AVX-512 reference model",
    options=(
        OptionSpec("threads", int, 32, "OpenMP threads",
                   validate=in_range(1)),
        _SOFTENING,
        OptionSpec("noisy", bool, False,
                   "apply the per-run duration noise of the paper's host"),
    ),
)
#: ``cores`` defaults to 8 — the single source of truth the CLI and every
#: benchmark share (`repro simulate --cores` used 8 while benchmarks
#: ranged 2..64).
BACKENDS.register(
    "tt", _make_tt,
    description="Wormhole offload, batched block-dispatch engine "
                "(cards>1 shards i-blocks over the QSFP-DD ring)",
    options=(
        OptionSpec("cores", int, 8, "Tensix cores per card",
                   validate=_CORES),
        OptionSpec("cards", int, 1, "n300 cards to shard i-blocks across",
                   validate=in_range(1)),
        _SOFTENING,
        OptionSpec("fmt", str, "float32", "device data format",
                   validate=one_of(*(f.value for f in DataFormat))),
        OptionSpec("cb_buffering", int, 2,
                   "j-stream CB depth in page groups", validate=in_range(1)),
        OptionSpec("workers", str, None,
                   "host fan-out of the per-card shards when cards>1 "
                   f"({' | '.join(WORKER_MODES)}; default: thread)",
                   validate=one_of(*WORKER_MODES)),
        OptionSpec("engine", str, None,
                   "execution engine (batched | per-block; default: "
                   "batched); per-block is the in-band oracle the batched "
                   "engine is bit-identical to",
                   validate=one_of("batched", "per-block")),
    ),
    aliases=("device",),  # the CLI's historical name for the offload
)
BACKENDS.register(
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
               "PM grid cells per axis (power of two in [32, 256])",
               validate=one_of(32, 64, 128, 256)),
    OptionSpec("cutoff", float, 5.0,
               "short-range cutoff in mesh spacings (0 = pure PM)",
               validate=in_range(0.0)),
    _SOFTENING,
)

BACKENDS.register(
    "tt-pm", _make_tt_pm,
    description="particle-mesh far field on the Metalium FFT kernel set "
                "+ screened direct near field",
    options=_PM_OPTIONS + (
        OptionSpec("cores", int, 8, "Tensix cores per FFT pass",
                   validate=_CORES),
    ),
)
BACKENDS.register(
    "cpu-pm", _make_cpu_pm,
    description="particle-mesh reference: same split and grids, "
                "host-modelled FFT time",
    options=_PM_OPTIONS,
)
BACKENDS.register(
    "tt-matmul", _make_tt_matmul,
    description="tensor-FPU ablation: pair distances via Gram matmuls, "
                "priced by MatmulVariantModel",
    options=(
        _SOFTENING,
        OptionSpec("cores", int, 8, "Tensix cores the cost model assumes"),
    ),
)
