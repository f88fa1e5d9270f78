"""repro.backends — the layer that owns "which backend, with which options".

Two pieces:

* :mod:`~repro.backends.registry` — ``BACKENDS`` (a
  :class:`~repro.core.registry.Registry`), :class:`BackendSpec` and
  :func:`make_backend`: the single construction path the CLI, the
  campaign, and every benchmark go through, with
  :class:`~repro.backends.runspec.RunSpec` as the declarative whole-run
  form.
* :mod:`~repro.backends.sharded` — :class:`ShardedTTBackend`, the
  multi-card composite that shards i-particle blocks across simulated
  n300 cards and gathers over the Ethernet ring, bit-identical to the
  single-card batched engine, running each card's shard on its own host
  thread.

The force-backend protocol they build against lives in
:mod:`repro.core.protocol`.
"""

from .registry import BACKENDS, BackendSpec, make_backend
from .runspec import RunSpec
from .sharded import CardCost, ShardedTTBackend, shard_tiles

__all__ = [
    "BACKENDS",
    "BackendSpec",
    "make_backend",
    "RunSpec",
    "CardCost",
    "ShardedTTBackend",
    "shard_tiles",
]
