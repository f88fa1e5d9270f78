"""Multi-card domain decomposition: one batched engine per n300, ring gather.

The paper's host carries four n300 cards but its campaign only ever drives
one, leaving the rest idling at 10-11 W.  :class:`ShardedTTBackend` is the
classic direct-summation decomposition (Belleman et al. 2008; Nitadori,
Makino & Hut 2006) applied to that idle capacity: the i-particle tile
blocks are split into contiguous shards, one per card, every card streams
the full replicated j-set (all-pairs needs it), and the per-card partial
results are exchanged over the QSFP-DD ring modelled by
:mod:`repro.wormhole.ethernet`.

Guarantees:

* **bit identity** — each card runs the same
  :class:`~repro.nbody_tt.engine.BatchedDispatchEngine` on its shard, and
  every i-tile's accumulation order over the j-stream is fixed and
  card-independent, so the merged result is bit-for-bit the single-card
  batched engine's (pinned by ``tests/backends/test_sharded.py``);
* **per-card accounting** — every child's queue phases come back as
  ``card<N>:`` timeline segments, :attr:`last_card_costs` carries the
  per-card phase/cost breakdown the CLI ``--profile`` report prints, and a
  traced run fans out one ``card`` span per child;
* **honest interconnect cost** — the result gather is priced as a ring
  allgather of the largest shard's contribution;
* **host concurrency** — each card's shard runs on its own host thread
  (the native kernels release the GIL, so the cards overlap), or on the
  calling thread with ``workers="serial"`` and whenever a Scope trace is
  attached; the merge walks cards in ascending order either way, so the
  result bits never depend on scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..core.protocol import ForceEvaluation, TimelineSegment, normalize_targets
from ..errors import ConfigurationError
from ..wormhole.dtypes import DataFormat
from ..wormhole.ethernet import EthernetFabric
from ..wormhole.tile import TILE_ELEMENTS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nbody_tt.offload import TTForceBackend

__all__ = ["ShardedTTBackend", "CardCost", "shard_tiles"]

#: Host fan-out of the per-card shards (the ``workers`` option): one
#: thread per card (``thread``, the default) or the cards one after
#: another on the calling thread (``serial``).
WORKER_MODES = ("serial", "thread")


def shard_tiles(n_tiles: int, n_cards: int) -> list[list[int]]:
    """Contiguous i-tile blocks, one per card, sizes within one tile.

    Contiguous (not round-robin) so each card owns a spatially coherent
    block of the particle ordering — the shape a real domain decomposition
    would hand out — while the leading cards absorb the remainder.
    """
    if n_tiles <= 0 or n_cards <= 0:
        raise ConfigurationError(
            f"need positive tile and card counts, got {n_tiles}, {n_cards}"
        )
    base, extra = divmod(n_tiles, n_cards)
    shards: list[list[int]] = []
    start = 0
    for card in range(n_cards):
        count = base + (1 if card < extra else 0)
        shards.append(list(range(start, start + count)))
        start += count
    return shards


@dataclass(frozen=True)
class CardCost:
    """Per-card cost accounting for one sharded force evaluation."""

    card: int
    n_tiles: int
    device_seconds: float
    gather_bytes: int
    seconds_by_tag: dict[str, float] = field(default_factory=dict)

    def format(self) -> str:
        """One table row for the ``--profile`` report."""
        tags = ", ".join(
            f"{tag} {seconds:.6f} s"
            for tag, seconds in sorted(self.seconds_by_tag.items())
        )
        return (
            f"card {self.card}: {self.n_tiles} i-tiles, "
            f"device {self.device_seconds:.6f} s, "
            f"gather {self.gather_bytes} B"
            + (f", {tags}" if tags else "")
        )


class ShardedTTBackend:
    """Force evaluation sharded across several (simulated) n300 cards."""

    def __init__(
        self,
        n_cards: int = 2,
        *,
        n_cores: int = 8,
        softening: float = 0.0,
        fmt: DataFormat | str = DataFormat.FLOAT32,
        cb_buffering: int = 2,
        engine: str | None = None,
        workers: str | None = None,
        devices=None,
        trace=None,
    ) -> None:
        # lazy imports keep `import repro.backends` light
        from ..metalium.host_api import CreateDevice
        from ..nbody_tt.offload import TTForceBackend

        if n_cards < 2:
            raise ConfigurationError(
                f"sharding needs at least 2 cards, got {n_cards}; "
                "use the plain tt backend for a single card"
            )
        if workers not in (None, *WORKER_MODES):
            raise ConfigurationError(
                f"unknown shard workers mode {workers!r}; "
                f"expected one of {WORKER_MODES}"
            )
        fmt = DataFormat(fmt) if not isinstance(fmt, DataFormat) else fmt
        if devices is None:
            devices = [CreateDevice(card) for card in range(n_cards)]
        if len(devices) != n_cards:
            raise ConfigurationError(
                f"got {len(devices)} devices for {n_cards} cards"
            )
        #: one single-card backend per shard
        self.children: list[TTForceBackend] = [
            TTForceBackend(
                device, n_cores=n_cores, softening=softening, fmt=fmt,
                cb_buffering=cb_buffering, engine=engine,
            )
            for device in devices
        ]
        self.n_cards = n_cards
        self.n_cores = n_cores
        self.softening = softening
        self.fmt = fmt
        self.engine = self.children[0].engine
        #: the cards share one host: its work is priced once, as one card's
        self.host_cost = self.children[0].host_cost
        #: host fan-out (serial | thread); traced runs always execute
        #: serially regardless of this setting
        self.workers = workers or "thread"
        self.fabric = EthernetFabric(n_cards, devices[0].chip)
        #: per-card accounting of the most recent evaluation
        self.last_card_costs: list[CardCost] = []
        self.name = (
            f"tt-sharded-cards{n_cards}-cores{n_cores}-{fmt.value}"
        )
        self._trace = None
        if trace is not None:
            self.trace = trace

    # -- observability -----------------------------------------------------

    @property
    def trace(self):
        """The Scope trace, fanned out to every per-card child.

        Assigning it (directly or via ``Simulation(trace=...)``) hands the
        same trace to each child backend — and through them to each card's
        command queue — so a traced sharded run shows one ``card`` span per
        shard with the child's Metalium/device spans underneath.
        """
        return self._trace

    @trace.setter
    def trace(self, trace) -> None:
        self._trace = trace
        for child in self.children:
            child.trace = trace

    def set_checks(self, *, lint: str = "off",
                   sanitize: bool | None = None) -> None:
        """Lint and/or sanitize every card's programs (see
        :meth:`~repro.nbody_tt.offload.TTForceBackend.set_checks`)."""
        for child in self.children:
            child.set_checks(lint=lint, sanitize=sanitize)

    # -- devices (profile / introspection) ---------------------------------

    @property
    def devices(self):
        """The per-card devices, in shard order (card 0 first)."""
        return [child.devices[0] for child in self.children]

    @property
    def queues(self):
        """The per-card command queues, in shard order."""
        return [child.queues[0] for child in self.children]

    # -- main entry --------------------------------------------------------

    def _evaluate_tiles(self, tiles, tile_list, detail="force", rows=None):
        """Shard a global i-tile list across cards and merge the partials.

        The common engine under :meth:`compute` (all tiles) and
        :meth:`compute_on_targets` (the active block's covering tiles):
        ``tile_list`` is split contiguously across cards, every card
        evaluates its shard against the same ``tiles`` (tilized once, on
        the calling thread) on its own thread unless the run is serial,
        and the merge below always walks cards in ascending index order —
        so segments, costs and result bits are independent of thread
        scheduling and of which subset is asked for.  ``rows`` (the
        target lanes per tile) goes to every card whole; each card reads
        only its own tiles' entries.  Returns the globally-indexed result
        tiles plus the merged timeline segments.
        """
        from ..nbody_tt.tiling import OUT_QUANTITIES

        shards = [
            [tile_list[k] for k in positions]
            for positions in shard_tiles(len(tile_list), self.n_cards)
        ]
        results = {q: [None] * tiles.n_tiles for q in OUT_QUANTITIES}
        segments: list[TimelineSegment] = []
        card_costs: list[CardCost] = []
        trace = self._trace
        worst_device_s = 0.0
        page_bytes = TILE_ELEMENTS * 4 * len(OUT_QUANTITIES)
        active = [card for card in range(self.n_cards) if shards[card]]

        def run(card):
            return self.children[card].compute_shard(
                tiles, shards[card], rows
            )

        if trace is not None or self.workers == "serial":
            # serial, in-line: traced runs must stay single-threaded (the
            # trace cursor is shared state), and get per-card spans
            outcomes = {}
            for card in active:
                child = self.children[card]
                span = (
                    trace.span(
                        "card", category="device", card=card,
                        n_tiles=len(shards[card]),
                        device=child.devices[0].device_id,
                    )
                    if trace is not None else nullcontext()
                )
                with span:
                    outcomes[card] = run(card)
        else:
            # one thread per card: each touches only its own child backend
            with ThreadPoolExecutor(max_workers=len(active)) as pool:
                outcomes = dict(zip(active, pool.map(run, active)))

        for card in range(self.n_cards):
            shard = shards[card]
            gather_bytes = len(shard) * page_bytes
            if not shard:
                card_costs.append(CardCost(card, 0, 0.0, 0))
                continue
            partial, child_segments, device_s = outcomes[card]
            worst_device_s = max(worst_device_s, device_s)
            by_tag: dict[str, float] = {"device": device_s}
            for seg in child_segments:
                segments.append(TimelineSegment(
                    seg.tag, seg.seconds, f"card{card}:{seg.detail or seg.tag}"
                ))
                by_tag[seg.tag] = by_tag.get(seg.tag, 0.0) + seg.seconds
            for q in OUT_QUANTITIES:
                for it in shard:
                    results[q][it] = partial[q][it]
            card_costs.append(CardCost(
                card, len(shard), device_s, gather_bytes, by_tag
            ))

        # cards run concurrently: the evaluation is bound by the slowest
        segments.append(TimelineSegment("device", worst_device_s, detail))

        # ring allgather of the per-card partials; each step is paced by
        # the largest contribution travelling the ring
        max_contribution = max(c.gather_bytes for c in card_costs)
        gather_s = self.fabric.allgather_seconds(max_contribution)
        segments.append(TimelineSegment("device", gather_s, "allgather"))
        if trace is not None:
            trace.add_span(
                "allgather", gather_s, category="device",
                n_cards=self.n_cards, bytes_per_card=max_contribution,
            )

        self.last_card_costs = card_costs
        return results, segments

    def compute(self, pos: np.ndarray, vel: np.ndarray,
                mass: np.ndarray) -> ForceEvaluation:
        """Evaluate all forces: shard i-tiles, compute per card, gather."""
        from ..nbody_tt.tiling import OUT_QUANTITIES, ParticleTiles

        tiles = ParticleTiles.from_arrays(pos, vel, mass, self.fmt)
        results, segments = self._evaluate_tiles(
            tiles, list(range(tiles.n_tiles))
        )
        acc, jerk = ParticleTiles.results_to_arrays(
            {q: results[q] for q in OUT_QUANTITIES}, tiles.n
        )
        return ForceEvaluation(acc, jerk, segments=tuple(segments))

    def compute_on_targets(self, pos: np.ndarray, vel: np.ndarray,
                           mass: np.ndarray,
                           targets: np.ndarray) -> ForceEvaluation:
        """Subset evaluation: shard the active block's covering i-tiles.

        The tiles covering ``targets`` are split contiguously across the
        cards exactly as a full evaluation splits the whole tile range,
        so each card's per-tile accumulation — and therefore the merged
        result — is bit-identical to a full :meth:`compute` sliced at the
        targets, serial or threaded; each card computes only the target
        rows of its tiles.  Device time, per-card costs and the ring
        allgather are priced for the covering tiles actually shipped.
        """
        from ..nbody_tt.tiling import (
            ParticleTiles,
            covering_tiles,
            subset_rows_from_tiles,
        )

        idx = normalize_targets(targets, mass.shape[0])
        tiles = ParticleTiles.from_arrays(pos, vel, mass, self.fmt)
        needed, rows = covering_tiles(idx)
        results, segments = self._evaluate_tiles(
            tiles, needed, detail=f"force-subset[{len(needed)}t]", rows=rows,
        )

        acc, jerk = subset_rows_from_tiles(results, idx)
        return ForceEvaluation(acc, jerk, segments=tuple(segments))
