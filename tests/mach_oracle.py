"""The per-block MACH walk: the oracle for the batched write path.

:class:`ScalarWalkEngine` classifies every block of a frame one at a
time against a :class:`FrameMach` — a real
:class:`~repro.cache.SetAssociativeCache` with its CO-MACH side cache —
and the frozen ring, exactly as the paper describes MACH.  The engine
in ``src/`` classifies a frame in one batch (the SoA kernel or the
set-local replay); the equivalence and golden suites hold it to this
walk, by comparing engines directly or by substituting
:func:`substitute_walk` into :func:`repro.simulate`.

:class:`CollidingEngine` and :class:`CollidingWalk` are the two engines
with digests narrowed so that CRC32 collisions with disagreeing CRC16
auxes become common.
"""

from __future__ import annotations

from contextlib import contextmanager
from enum import Enum
from typing import Dict, Iterator, Optional, Tuple

import numpy as np
import pytest

import repro.core.pipeline
from repro.cache import SetAssociativeCache
from repro.config import MachConfig
from repro.core.layout import LayoutMode, RecordKind
from repro.core.mach import FrozenMach, MachRing, MachStats
from repro.core.writeback import (
    FrameMatches,
    WritebackEngine,
    WritebackResult,
)
from repro.errors import SchedulingError
from repro.video.frame import DecodedFrame


class CollidingDigests:
    """Mixin for a :class:`~repro.core.writeback.WritebackEngine`:
    digests cut to 10 bits and CRC16 auxes to 2, so CRC32 matches with
    disagreeing auxes (silent matches, or CO-MACH detections and
    side-cache spills) become common instead of astronomically rare."""

    def _digest_frame(self, frame):
        tags, aux = super()._digest_frame(frame)
        return tags & 0x3FF, aux & 0x3


class MatchKind(Enum):
    """Where a block's content was found (Fig. 7b categories)."""

    INTRA = "intra"
    INTER = "inter"
    NONE = "none"


def record(stats: MachStats, kind: MatchKind, digest: int) -> None:
    """Count one block's match in ``stats``."""
    if kind is MatchKind.NONE:
        stats.none += 1
        return
    if kind is MatchKind.INTRA:
        stats.intra += 1
    else:
        stats.inter += 1
    stats.match_counter[digest] += 1


class FrameMach:
    """The MACH of the frame currently being decoded.

    ``unbounded=True`` replaces the set-associative structure with a
    plain dict — the capacity-free oracle used as the "optimal" bar in
    Fig. 9a.
    """

    def __init__(self, config: MachConfig, frame_index: int,
                 unbounded: bool = False) -> None:
        self.config = config
        self.frame_index = frame_index
        self.unbounded = unbounded
        if unbounded:
            self._dict: Optional[Dict[int, Tuple[int, int]]] = {}
            self._cache: Optional[SetAssociativeCache] = None
        else:
            self._dict = None
            self._cache = SetAssociativeCache(
                sets=config.sets_per_mach, ways=config.ways)
        self._co_mach: Optional[SetAssociativeCache] = None
        if config.co_mach and not unbounded:
            co_sets = max(1, config.co_mach_entries // config.ways)
            # Round the CO-MACH set count down to a power of two.
            co_sets = 1 << (co_sets.bit_length() - 1)
            self._co_mach = SetAssociativeCache(sets=co_sets, ways=config.ways)

    def lookup(self, digest: int, aux: int,
               stats: Optional[MachStats] = None) -> Optional[int]:
        """Find ``digest`` in this MACH; returns the block address or None.

        ``aux`` is the CRC16 auxiliary used for CO-MACH collision
        detection; pass 0 when the digest scheme has no aux bits.
        """
        if self._dict is not None:
            entry = self._dict.get(digest)
        else:
            assert self._cache is not None
            _, entry = self._cache.lookup(digest)
        if entry is not None:
            address, stored_aux = entry
            if stored_aux == aux or not self.config.co_mach:
                if stored_aux != aux and stats is not None:
                    stats.silent_collisions += 1
                return address
            # Detected CRC32 collision: fall back to CO-MACH.
            if stats is not None:
                stats.detected_collisions += 1
        if self._co_mach is not None:
            _, co_entry = self._co_mach.lookup((aux << 32) | digest)
            if co_entry is not None:
                if stats is not None:
                    stats.co_mach_hits += 1
                return int(co_entry)
        return None

    def insert(self, digest: int, address: int, aux: int) -> None:
        """Record that the block with ``digest`` now lives at ``address``."""
        if self._dict is not None:
            self._dict[digest] = (address, aux)
            return
        assert self._cache is not None
        if self.config.co_mach:
            existing = self._cache.peek(digest)
            if existing is not None and existing[1] != aux:
                # Collided with a resident entry: spill to CO-MACH.
                if self._co_mach is not None:
                    self._co_mach.insert((aux << 32) | digest, address)
                return
        self._cache.insert(digest, (address, aux))

    def freeze(self) -> FrozenMach:
        """Finish the frame: snapshot resident entries immutably."""
        if self._dict is not None:
            table = dict(self._dict)
        else:
            assert self._cache is not None
            table = {digest: value for digest, value in self._cache.items()}
        count = len(table)
        digests = np.fromiter(table.keys(), dtype=np.uint64, count=count)
        values = np.fromiter(
            (v for entry in table.values() for v in entry),
            dtype=np.int64, count=2 * count).reshape(count, 2)
        columns = (digests.astype(np.int64), values[:, 0].copy(),
                   values[:, 1].copy())
        return FrozenMach(self.frame_index, table, digests, columns)


class OracleRing(MachRing):
    """A :class:`~repro.core.mach.MachRing` with a current frame MACH
    that is looked up and filled one block at a time."""

    def __init__(self, config: MachConfig, unbounded: bool = False) -> None:
        super().__init__(config, unbounded)
        self._current: Optional[FrameMach] = None

    def begin_frame(self, frame_index: int) -> None:
        if self._current is not None:
            raise SchedulingError("previous frame was never ended")
        self._current = FrameMach(self.config, frame_index, self.unbounded)

    def lookup(self, digest: int, aux: int = 0) -> Tuple[MatchKind, Optional[int]]:
        """Search current-then-frozen; returns (kind, address)."""
        current = self._require_current()
        address = current.lookup(digest, aux, self.stats)
        if address is not None:
            return MatchKind.INTRA, address
        for frozen in reversed(self._frozen):  # newest frame first
            entry = frozen.table.get(digest)
            if entry is not None:
                stored_address, stored_aux = entry
                if stored_aux != aux and self.config.co_mach:
                    self.stats.detected_collisions += 1
                    continue
                if stored_aux != aux:
                    self.stats.silent_collisions += 1
                return MatchKind.INTER, stored_address
        return MatchKind.NONE, None

    def insert(self, digest: int, address: int, aux: int = 0) -> None:
        self._require_current().insert(digest, address, aux)

    def end_frame(self) -> FrozenMach:
        """Freeze the current frame's MACH and rotate it into the ring."""
        frozen = self._require_current().freeze()
        self._current = None
        self.ingest_frozen(frozen)
        return frozen

    def _require_current(self) -> FrameMach:
        if self._current is None:
            raise SchedulingError("no frame in progress; call begin_frame()")
        return self._current


class ScalarWalkEngine(WritebackEngine):
    """A write engine that walks every MACH frame block by block."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.ring is not None:
            self.ring = OracleRing(self.mach_config, self.ring.unbounded)

    def _process_mach(self, frame: DecodedFrame,
                      slot_base: int) -> WritebackResult:
        ring = self.ring
        assert isinstance(ring, OracleRing)
        tags, aux = self._digest_frame(frame)
        dcc_sizes = self._content.sizes if self.scheme.dcc else None
        n = frame.n_blocks
        block_bytes = frame.block_bytes
        table_base, bases_base, data_base = self._layout_bases(
            frame, slot_base)

        kinds = np.empty(n, dtype=np.uint8)
        pointers = np.empty(n, dtype=np.int64)
        digests_out = np.zeros(n, dtype=np.uint64)

        before = (ring.stats.intra, ring.stats.inter, ring.stats.none)
        ring.begin_frame(frame.index)
        cursor = data_base
        digest_mode = self._digest_layout is LayoutMode.POINTER_DIGEST
        fault_plan = self._fault_plan
        for i in range(n):
            digest = int(tags[i])
            kind, address = ring.lookup(digest, int(aux[i]))
            if (kind is not MatchKind.NONE and fault_plan is not None
                    and fault_plan.digest_collision(frame.index, i)):
                # Injected collision: the digest matched but the bytes
                # would not have.
                ring.stats.injected_collisions += 1
                if self._verify:
                    ring.stats.fallback_writes += 1
                    kind, address = MatchKind.NONE, None
                else:
                    ring.stats.silent_collisions += 1
            record(ring.stats, kind, digest)
            if kind is MatchKind.NONE:
                # Only stored (unique) blocks enter the frame's MACH.
                kinds[i] = int(RecordKind.STORED)
                pointers[i] = cursor
                ring.insert(digest, cursor, int(aux[i]))
                cursor += (int(dcc_sizes[i]) if dcc_sizes is not None
                           else block_bytes)
            elif kind is MatchKind.INTRA or not digest_mode:
                kinds[i] = int(RecordKind.POINTER)
                pointers[i] = address
            else:
                kinds[i] = int(RecordKind.DIGEST)
                pointers[i] = address  # kept for MACH-buffer miss fallback
                digests_out[i] = digest
        dump = ring.end_frame()
        after = (ring.stats.intra, ring.stats.inter, ring.stats.none)
        matches = FrameMatches(*(b - a for a, b in zip(before, after)))
        return self._finish_mach(
            frame, kinds, pointers, digests_out,
            table_base, bases_base, data_base,
            cursor - data_base, dump, matches)


class CollidingEngine(CollidingDigests, WritebackEngine):
    """The batched write engine on narrowed digests."""


class CollidingWalk(CollidingDigests, ScalarWalkEngine):
    """The per-block walk on narrowed digests."""


@contextmanager
def substitute_walk() -> Iterator[None]:
    """Run :func:`repro.simulate` with :class:`ScalarWalkEngine` as its
    write engine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.core.pipeline, "WritebackEngine",
                      ScalarWalkEngine)
        yield
