"""MACH — the MAcroblock caCHe (paper Sec. 4).

One MACH is built *per frame* while that frame decodes: a 256-entry
4-way set-associative cache mapping a block digest to the address where
that block's bytes live in a frame buffer.  When the frame finishes,
its MACH freezes and joins a ring of the ``num_machs`` most recent
frames; lookups consult the current frame first (intra matches) and
then the frozen ring, newest first (inter matches).

The CO-MACH extension (Sec. 6.3) stores a CRC16 auxiliary field next to
each entry: a CRC32 tag hit with a CRC16 mismatch is a detected
collision, and the colliding entry is kept in a small side cache tagged
by the full 48-bit digest.  Without CO-MACH a CRC32 collision silently
reuses the wrong block — the tracker still counts those so Fig. 12d can
report them.

This module holds the frozen ring and the match statistics; the write
path (:mod:`repro.core.writeback`) models the current frame's MACH and
its CO-MACH side cache while it classifies a frame.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from ..config import MachConfig


@dataclass
class MachStats:
    """Running match statistics across a run."""

    intra: int = 0
    inter: int = 0
    none: int = 0
    detected_collisions: int = 0
    silent_collisions: int = 0
    co_mach_hits: int = 0
    #: Injected digest collisions (fault injection, not natural CRC32
    #: aliasing) and how the write path resolved them: a verified
    #: fallback stores the full block, an unverified one silently
    #: reuses the wrong content.
    injected_collisions: int = 0
    fallback_writes: int = 0
    match_counter: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return self.intra + self.inter + self.none

    @property
    def match_rate(self) -> float:
        if not self.total:
            return 0.0
        return (self.intra + self.inter) / self.total

    def record_batch(self, intra: int, inter: int, none: int,
                     matched_digests: np.ndarray) -> None:
        """Count one frame's intra, inter and unmatched (stored) blocks.

        ``matched_digests`` holds the digest of every matched block.
        """
        self.intra += intra
        self.inter += inter
        self.none += none
        if len(matched_digests):
            digests, counts = np.unique(matched_digests, return_counts=True)
            self.match_counter.update(
                dict(zip(digests.tolist(), counts.tolist())))

    def top_match_share(self, top_n: int = 1) -> float:
        """Fraction of all matches owned by the ``top_n`` digests (Fig. 9b)."""
        matches = self.intra + self.inter
        if not matches:
            return 0.0
        return sum(c for _, c in self.match_counter.most_common(top_n)) / matches


@dataclass(frozen=True)
class FrozenMach:
    """An immutable, finished per-frame MACH (what gets dumped)."""

    frame_index: int
    table: Dict[int, Tuple[int, int]]  # digest -> (address, aux)
    digests: np.ndarray  # uint64 array of resident digests
    #: ``(digests, addresses, aux)`` as aligned arrays, in ``table`` order.
    columns: Tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def entries(self) -> int:
        return len(self.table)


class MachRing:
    """The frozen ring of recent frames' MACHs, and the run's stats.

    The write path classifies each frame against the ring at once
    (:meth:`lookup_batch`) and hands the finished frame MACH back with
    :meth:`ingest_frozen`.
    """

    def __init__(self, config: MachConfig, unbounded: bool = False) -> None:
        self.config = config
        self.unbounded = unbounded
        self.stats = MachStats()
        self._frozen: Deque[FrozenMach] = deque(maxlen=max(config.num_machs - 1, 0))
        self._batch_view: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def ingest_frozen(self, frozen: FrozenMach) -> None:
        """Rotate a finished frame MACH into the ring."""
        if self._frozen.maxlen:
            self._frozen.append(frozen)
            self._batch_view = None

    def lookup_batch(
            self, digests: np.ndarray,
            aux: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Frozen-ring lookup of many digests at once, without stats.

        Returns ``(found, addresses, collisions)``, one entry per
        query, for a lookup that walks the ring newest frame first:

        * without CO-MACH the walk stops at the newest frame holding
          the digest; ``collisions`` is 1 where that entry's CRC16 aux
          differs from the query's (a silent match), else 0;
        * with CO-MACH it skips every frame whose entry carries another
          aux and stops at the newest one holding the (digest, aux)
          pair; ``collisions`` counts the skipped frames (detected
          collisions).

        ``found`` marks queries the walk matched and ``addresses`` holds
        the match address from the frame it stopped at.

        Pure: ring state and stats are untouched.
        """
        n = len(digests)
        addresses = np.zeros(n, dtype=np.int64)
        view = self._batch_view
        if view is None:
            parts_d, parts_a, parts_x = [], [], []
            # Newest first, so each digest's entries come out newest
            # first after the stable argsort below.
            for frozen in reversed(self._frozen):
                if not frozen.table:
                    continue
                dig, addr, auxes = frozen.columns
                parts_d.append(dig)
                parts_a.append(addr)
                parts_x.append(auxes)
            if parts_d:
                all_d = np.concatenate(parts_d)
                order = np.argsort(all_d, kind="stable")
                view = (all_d[order], np.concatenate(parts_a)[order],
                        np.concatenate(parts_x)[order])
            else:
                empty = np.empty(0, dtype=np.int64)
                view = (empty, empty, empty)
            self._batch_view = view
        ring_d, ring_a, ring_x = view
        if not len(ring_d):
            return (np.zeros(n, dtype=bool), addresses,
                    np.zeros(n, dtype=np.int64))
        first = np.searchsorted(ring_d, digests, side="left")
        if not self.config.co_mach:
            pos = np.minimum(first, len(ring_d) - 1)
            found = ring_d[pos] == digests
            hit_pos = pos[found]
            addresses[found] = ring_a[hit_pos]
            collisions = np.zeros(n, dtype=np.int64)
            collisions[found] = ring_x[hit_pos] != aux[found]
            return found, addresses, collisions
        # A frame holds a digest at most once, so the run of ring
        # entries for a digest has one entry per frame, newest first.
        end = np.searchsorted(ring_d, digests, side="right")
        match = np.full(n, -1, dtype=np.int64)
        for depth in range(int((end - first).max(initial=0))):
            pos = first + depth
            open_ = np.flatnonzero((match < 0) & (pos < end))
            same = ring_x[pos[open_]] == aux[open_]
            match[open_[same]] = pos[open_[same]]
        found = match >= 0
        addresses[found] = ring_a[match[found]]
        return found, addresses, np.where(found, match, end) - first
