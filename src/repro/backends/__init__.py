"""repro.backends — the layer that owns "which backend, with which options".

Three pieces:

* :mod:`~repro.backends.protocol` — :class:`ForceBackend`,
  :class:`ForceEvaluation`, :class:`TimelineSegment`, the explicit
  tracing contract, and the target-subset contract
  (:class:`TargetedForceBackend`, :func:`compute_on_targets`) used by
  block timestep schemes to evaluate forces on just the active block.  The *floor* of the layer: dependency-free, imported
  by ``repro.core`` and both competitors (and re-exported from
  ``repro.core.simulation`` for compatibility).
* :mod:`~repro.backends.registry` — :class:`BackendSpec`,
  :func:`register_backend`, :func:`make_backend`: the single construction
  path the CLI, the campaign, and every benchmark go through, with
  :class:`~repro.backends.runspec.RunSpec` as the declarative whole-run
  form.
* :mod:`~repro.backends.sharded` — :class:`ShardedTTBackend`, the
  multi-card composite that shards i-particle blocks across simulated
  n300 cards and gathers over the Ethernet ring, bit-identical to the
  single-card batched engine, running each card's shard on its own host
  thread.
"""

from .protocol import (
    ForceBackend,
    ForceEvaluation,
    TargetedForceBackend,
    TimelineSegment,
    TracedForceBackend,
    accepts_trace,
    compute_on_targets,
    normalize_targets,
    supports_targets,
)
from .registry import (
    BackendSpec,
    OptionSpec,
    RegisteredBackend,
    backend_choices_help,
    backend_entry,
    backend_names,
    make_backend,
    register_backend,
)
from .runspec import RunSpec
from .sharded import CardCost, ShardedTTBackend, shard_tiles
from .variants import DSVariantBackend, MatmulVariantBackend

__all__ = [
    "ForceBackend",
    "ForceEvaluation",
    "TargetedForceBackend",
    "TimelineSegment",
    "TracedForceBackend",
    "accepts_trace",
    "compute_on_targets",
    "normalize_targets",
    "supports_targets",
    "BackendSpec",
    "OptionSpec",
    "RegisteredBackend",
    "backend_choices_help",
    "backend_entry",
    "backend_names",
    "make_backend",
    "register_backend",
    "RunSpec",
    "CardCost",
    "ShardedTTBackend",
    "shard_tiles",
    "DSVariantBackend",
    "MatmulVariantBackend",
]
