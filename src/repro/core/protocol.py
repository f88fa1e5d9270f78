"""The force-backend protocol: the seam between the driver and the engines.

This module is deliberately dependency-free (NumPy only), so the driver,
the CPU reference, and the Wormhole and particle-mesh ports can all
implement or consume the protocol without cycles, while
:mod:`repro.backends` (registry, sharded composite) sits *above* the
competitors and composes them.

Tracing contract
----------------

A backend may expose an optional ``trace`` attribute (see
:class:`TracedForceBackend`).  Backends that have one narrate their own
Scope spans — Metalium dispatches, per-core device execution, per-card
fan-out — and :class:`repro.core.Simulation` hands its trace over instead
of converting the evaluation's timeline segments into leaf spans itself.
Backends without the attribute stay untraced and the driver narrates for
them.  Use :func:`accepts_trace` to test which side of the contract a
backend is on.

Target-subset contract
----------------------

A block-timestep integrator only needs new forces on the *active*
particles of a block, sourced by every particle.  Backends that can
exploit that expose ``compute_on_targets(pos, vel, mass, targets)``
(see :class:`TargetedForceBackend`): the returned acceleration and jerk
have one row per entry of ``targets``, aligned with it, and must be
**bit-identical** to the corresponding rows of a full :meth:`compute` on
the same state — a subset evaluation is a cost optimisation, never an
accuracy trade.  Use :func:`supports_targets` to probe a backend and
:func:`compute_on_targets` to dispatch with a masked-``compute``
fallback for backends that have not (yet) specialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "TimelineSegment",
    "ForceEvaluation",
    "ForceBackend",
    "TracedForceBackend",
    "TargetedForceBackend",
    "accepts_trace",
    "supports_targets",
    "normalize_targets",
    "compute_on_targets",
]


@dataclass(frozen=True)
class TimelineSegment:
    """One phase of modelled job time: tag in {host, device, pcie, launch}."""

    tag: str
    seconds: float
    detail: str = ""


@dataclass(frozen=True)
class ForceEvaluation:
    """Result of one force evaluation by a backend."""

    acc: np.ndarray
    jerk: np.ndarray
    segments: tuple[TimelineSegment, ...] = ()

    @property
    def model_seconds(self) -> float:
        """Total modelled seconds across this evaluation's segments."""
        return sum(s.seconds for s in self.segments)


@runtime_checkable
class ForceBackend(Protocol):
    """Anything that can evaluate accelerations and jerks."""

    name: str

    def compute(self, pos: np.ndarray, vel: np.ndarray,
                mass: np.ndarray) -> ForceEvaluation:
        """Evaluate accelerations and jerks for the given state."""
        ...


@runtime_checkable
class TracedForceBackend(ForceBackend, Protocol):
    """A backend that narrates its own Scope spans.

    The ``trace`` attribute is the *explicit* form of the contract the
    driver used to probe with ``hasattr``: backends that expose it
    (``TTForceBackend``, ``ShardedTTBackend``) receive the simulation's
    trace by assignment and open their own device/Metalium spans; the
    sharded composite additionally fans the trace out to its per-card
    children.  ``None`` means tracing is off.
    """

    trace: Any  # repro.observability.Trace | None


@runtime_checkable
class TargetedForceBackend(ForceBackend, Protocol):
    """A backend that can evaluate forces on a subset of particles.

    ``targets`` is a 1-D index vector into the particle arrays; the
    returned acceleration and jerk carry ``len(targets)`` rows aligned
    with it.  Every particle still *sources* the force — only the set of
    receivers shrinks — and the rows must match a full :meth:`compute`
    bit for bit.  Timeline segments are priced for the subset actually
    evaluated.
    """

    def compute_on_targets(self, pos: np.ndarray, vel: np.ndarray,
                           mass: np.ndarray,
                           targets: np.ndarray) -> ForceEvaluation:
        """Evaluate accelerations and jerks on ``targets`` only."""
        ...


def accepts_trace(backend: object) -> bool:
    """True when ``backend`` takes ownership of Scope narration.

    The runtime form of :class:`TracedForceBackend`: a backend that exposes
    a ``trace`` attribute will be handed the simulation's trace and is then
    responsible for its own spans.
    """
    return hasattr(backend, "trace")


def supports_targets(backend: object) -> bool:
    """True when ``backend`` implements native target-subset evaluation."""
    return callable(getattr(backend, "compute_on_targets", None))


def normalize_targets(targets: np.ndarray, n: int) -> np.ndarray:
    """Validate and canonicalise a target-index vector against ``n`` bodies.

    Shared by every ``compute_on_targets`` implementation so they agree on
    what a legal subset is: a non-empty 1-D integer vector with entries in
    ``[0, n)``.  Order and duplicates are preserved — results align with
    the vector as given.
    """
    idx = np.asarray(targets, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("targets must be a non-empty 1-D index vector")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"target indices out of range [0, {n})")
    return idx


def compute_on_targets(backend: ForceBackend, pos: np.ndarray,
                       vel: np.ndarray, mass: np.ndarray,
                       targets: np.ndarray) -> ForceEvaluation:
    """Subset evaluation through ``backend``, with a masked fallback.

    Dispatches to the backend's native ``compute_on_targets`` when it has
    one; otherwise runs a full :meth:`ForceBackend.compute` and slices the
    target rows out (correct by construction, but paying full cost — the
    fallback keeps third-party backends working, not fast).
    """
    idx = normalize_targets(targets, mass.shape[0])
    if supports_targets(backend):
        return backend.compute_on_targets(pos, vel, mass, idx)
    full = backend.compute(pos, vel, mass)
    return ForceEvaluation(full.acc[idx], full.jerk[idx], full.segments)
