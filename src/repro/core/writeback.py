"""VD write path: content caching engine (paper Sec. 4).

For every decoded block the engine computes a digest (of the block or
of its gradient form), consults the MACH ring, and either

* stores the block (no match) — appending its bytes to the frame's
  compacted data region and inserting the digest into the current
  frame's MACH, or
* records a 4-byte pointer (intra match, or inter match in POINTER
  layout), or
* records the digest itself (inter match in POINTER_DIGEST layout),
  to be resolved by the display's MACH buffer.

The engine also emits the frame's line-granular write traffic
(coalesced or not) and the frozen MACH dump.

Per-block content work — the gradient transform, the digest and the
DCC size — runs only on blocks whose bytes changed since the previous
frame (:class:`ContentSnapshot`); every other block keeps its values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..compression.dcc import compressed_sizes
from ..config import MachConfig, SchemeConfig, VideoConfig
from ..faults import FaultPlan
from ..hashing.crc import crc_pair_blocks
from ..hashing.digest import get_scheme
from ..video.frame import DecodedFrame
from .coalesce import sequential_lines, uncoalesced_stream_lines
from .gradient import to_gradient
from .layout import FrameLayout, LayoutMode, RecordKind
from .mach import FrozenMach, MachRing, MachStats
from .soa import lru_touch_classify

_DUMP_ENTRY_BYTES = 8  # digest (4) + pointer (4)

#: Tags and CRC16 auxes of each row of a ``(n, k)`` block matrix.
DigestRows = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class FrameMatches:
    """Per-frame census of MACH outcomes."""

    intra: int
    inter: int
    none: int

    @property
    def total(self) -> int:
        return self.intra + self.inter + self.none

    @property
    def match_rate(self) -> float:
        return (self.intra + self.inter) / self.total if self.total else 0.0


@dataclass
class WritebackResult:
    """Everything one frame's writeback produced."""

    layout: FrameLayout
    write_lines: np.ndarray  # line addresses in write order
    matches: FrameMatches
    dump: Optional[FrozenMach]
    bytes_written: int


def slot_bytes_needed(video: VideoConfig, mach: MachConfig,
                      scheme: SchemeConfig) -> int:
    """Worst-case bytes one frame can occupy in its buffer slot."""
    n = video.blocks_per_frame
    size = video.frame_bytes  # all blocks stored, uncompacted
    if scheme.uses_mach:
        size += n * mach.pointer_bytes + (n + 7) // 8  # table + bitmap
        if scheme.content_cache == "gab":
            size += n * mach.base_bytes
        size += mach.entries_per_mach * _DUMP_ENTRY_BYTES
    return size


@dataclass(frozen=True)
class SetLocalReplay:
    """Result of :func:`set_local_replay`, in block coordinates."""

    hits: np.ndarray  # blocks whose current-MACH lookup hit, ascending
    providers: np.ndarray  # per hit: the stored block its entry held
    stored: np.ndarray  # blocks stored (and inserted), ascending
    resident: np.ndarray  # stored blocks left in the MACH, dump order
    detected: int  # tag hits whose CRC16 aux differed (CO-MACH)
    side_hits: int  # hits served by the CO-MACH side cache


def set_local_replay(keys: np.ndarray, found: np.ndarray,
                     store: np.ndarray, n_sets: int, ways: int,
                     aux: Optional[np.ndarray] = None,
                     side_sets: int = 0) -> SetLocalReplay:
    """Replay one frame's walk through its current MACH, exactly.

    Per block in order, the walk looks the digest up in the current
    MACH (a tag hit makes it most recent), then in the frozen ring
    (``found``).  A block that misses both is stored and inserted;
    ``store`` forces a store on a block that matched — inserted, or
    updated in place when already resident.  A plain dict per set
    (digest -> way slot, least recent first) stands in for an LRU
    set-associative cache: a full set hands its LRU victim's way slot
    to the new entry, so ``resident`` comes out in the cache's (set,
    way-slot) iteration order.  An unbounded MACH is one set with a
    way per block: it never evicts, and its slots count first
    insertions, which is a dict's order.

    CO-MACH (``aux`` given) keeps each entry's CRC16 aux: a tag hit
    whose aux differs is a detected collision, not a hit.  Such a
    lookup, and every lookup that misses the MACH, then probes the
    side cache — ``side_sets`` LRU sets of ``ways``, keyed by the deep
    tag ``(aux << 32) | digest`` — where a hit is an intra match.  A
    store whose digest is resident with another aux spills to the side
    cache; with no side cache (``side_sets=0``, an unbounded MACH) it
    overwrites the entry in place.  Side entries never reach
    ``resident``.

    ``found`` must be a property of the (digest, aux) pair, as it is
    while one frame decodes against a fixed frozen ring.  Then only
    blocks whose digest some block may store (one that misses the ring,
    or a forced store) can touch the current MACH or its side cache;
    every other block is a frozen-ring match and is skipped.
    """
    keys = np.asarray(keys, dtype=np.int64)
    walk_idx = np.flatnonzero(np.isin(keys, keys[~found | store]))
    co_mach = aux is not None
    auxes = aux.tolist() if co_mach else [0] * len(keys)

    set_mask = n_sets - 1
    side_mask = side_sets - 1
    lru: List[Dict[int, int]] = [{} for _ in range(n_sets)]
    side: List[Dict[int, int]] = [{} for _ in range(side_sets)]
    owner: Dict[int, int] = {}  # digest -> stored block its entry holds
    side_owner: Dict[int, int] = {}  # deep tag -> spilled block
    hits: List[int] = []
    providers: List[int] = []
    stored: List[int] = []
    detected = side_hits = 0
    for i, key, in_ring, forced in zip(
            walk_idx.tolist(), keys[walk_idx].tolist(),
            found[walk_idx].tolist(), store[walk_idx].tolist()):
        entries = lru[key & set_mask]
        slot = entries.pop(key, None)
        provider = None
        collided = False
        if slot is not None:
            entries[key] = slot  # now most recent
            provider = owner[key]
            if co_mach and auxes[provider] != auxes[i]:
                detected += 1
                collided = True
                provider = None
        if provider is None and side:
            deep = (auxes[i] << 32) | key
            side_entries = side[deep & side_mask]
            side_slot = side_entries.pop(deep, None)
            if side_slot is not None:
                side_entries[deep] = side_slot
                provider = side_owner[deep]
                side_hits += 1
        if provider is not None:
            hits.append(i)
            providers.append(provider)
            if not forced:
                continue
        elif in_ring and not forced:
            continue
        stored.append(i)
        if collided and side:
            deep = (auxes[i] << 32) | key
            _insert(side[deep & side_mask], deep, ways)
            side_owner[deep] = i
            continue
        if slot is None:
            _insert(entries, key, ways)
        owner[key] = i
    resident = [owner[key]
                for entries in lru
                for key, _ in sorted(entries.items(),
                                     key=lambda item: item[1])]
    return SetLocalReplay(
        np.array(hits, dtype=np.int64), np.array(providers, dtype=np.int64),
        np.array(stored, dtype=np.int64), np.array(resident, dtype=np.int64),
        detected, side_hits)


def _insert(entries: Dict[int, int], key: int, ways: int) -> None:
    """Make ``key`` the most recent entry of one LRU set.

    A resident key keeps its way slot; a new one takes a free slot or,
    in a full set, the least recent entry's.
    """
    slot = entries.pop(key, None)
    if slot is None:
        slot = (entries.pop(next(iter(entries))) if len(entries) == ways
                else len(entries))
    entries[key] = slot


def changed_rows(blocks: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``blocks`` that differ from ``previous``.

    Rows are compared as 8-byte words when the block length allows,
    byte by byte otherwise; both give the same mask.
    """
    if blocks.shape[1] % 8 == 0:
        blocks = np.ascontiguousarray(blocks).view(np.uint64)
        previous = np.ascontiguousarray(previous).view(np.uint64)
    return (blocks != previous).any(axis=1)


class ContentSnapshot:
    """The previous frame's bytes and the per-block values derived from them.

    :meth:`update` takes the next frame, finds the rows that changed,
    and runs the gradient transform, ``digest`` and the DCC sizing on
    those rows only; every other row keeps its previous values.  The
    first frame, or one of a new shape, changes every row.  The bytes
    are copied, so a source that reuses or later modifies its arrays
    cannot alias the snapshot.  ``tags``, ``aux`` and ``sizes`` are
    updated in place: they hold the latest frame's values until the
    next :meth:`update`.
    """

    def __init__(self, digest: Optional[DigestRows], gradient: bool,
                 dcc: bool) -> None:
        self._digest = digest
        self._gradient = gradient
        self._dcc = dcc
        self.blocks: Optional[np.ndarray] = None
        self.tags = np.zeros(0, dtype=np.int64)
        self.aux = np.zeros(0, dtype=np.int64)
        self.sizes = np.zeros(0, dtype=np.int64)

    def update(self, blocks: np.ndarray) -> None:
        """Bring the snapshot, and its per-block values, up to ``blocks``."""
        previous = self.blocks
        if previous is None or previous.shape != blocks.shape:
            n = len(blocks)
            self.blocks = content = np.array(blocks)
            self.tags = np.zeros(n, dtype=np.int64)
            self.aux = np.zeros(n, dtype=np.int64)
            self.sizes = np.zeros(n, dtype=np.int64)
            rows = np.arange(n)
        else:
            rows = np.flatnonzero(changed_rows(blocks, previous))
            if not len(rows):
                return
            content = blocks[rows]
            previous[rows] = content
        if self._gradient:
            content = to_gradient(content)[0]
        if self._digest is not None:
            self.tags[rows], self.aux[rows] = self._digest(content)
        if self._dcc:
            self.sizes[rows] = compressed_sizes(content)


class WritebackEngine:
    """Stateful per-video write path for one scheme.

    Every MACH frame is classified in one batch against the frozen
    ring: clean frames by the closed-form SoA kernel
    (:func:`repro.core.soa.lru_touch_classify`), every other frame —
    injected or natural digest collisions, CO-MACH included, or an
    ordered dump — by :func:`set_local_replay`.  Both are exact
    replays of the per-block walk the paper describes; the test suite
    keeps that walk as their oracle.
    """

    def __init__(self, video: VideoConfig, mach: MachConfig,
                 scheme: SchemeConfig, line_bytes: int = 64,
                 unbounded_mach: bool = False,
                 fault_plan: Optional[FaultPlan] = None,
                 ordered_dump: bool = False) -> None:
        self.video = video
        self.mach_config = mach
        self.scheme = scheme
        self.line_bytes = line_bytes
        #: The caller consumes the frozen dump's *iteration order* (the
        #: eager MACH-buffer prefetch).  The SoA kernel emits the dump
        #: in recency order; the replay reproduces the (set, way-slot)
        #: order, so such engines classify every frame with it.
        self.ordered_dump = ordered_dump
        self.ring: Optional[MachRing] = (
            MachRing(mach, unbounded=unbounded_mach)
            if scheme.uses_mach else None)
        self._scheme_obj = get_scheme(mach.digest_scheme)
        self._use_gradient = scheme.content_cache == "gab"
        self._digest_layout = (LayoutMode.POINTER_DIGEST
                               if scheme.display_caching else LayoutMode.POINTER)
        # Fault injection: a plan whose digest_collision rate is
        # non-zero turns some matches into hash collisions.  With
        # verification on, the engine compares the actual bytes (a
        # cheap on-chip compare the paper's CRC32 scheme omits),
        # detects the lie, and stores the full block instead of a
        # wrong pointer — content caching is never silently incorrect.
        self._fault_plan = (fault_plan if fault_plan is not None
                            and fault_plan.config.digest_collision > 0
                            else None)
        self._verify = (fault_plan.config.verify_digests
                        if fault_plan is not None else True)
        self._content = ContentSnapshot(
            self._digest_blocks if scheme.uses_mach else None,
            gradient=self._use_gradient, dcc=scheme.dcc)

    # -- public API -----------------------------------------------------------

    def process_frame(self, frame: DecodedFrame,
                      slot_base: int) -> WritebackResult:
        """Write one decoded frame into its buffer slot."""
        if self.ring is None:
            return self._process_raw(frame, slot_base)
        return self._process_mach(frame, slot_base)

    @property
    def stats(self) -> Optional[MachStats]:
        """Aggregate MACH statistics (None for raw schemes)."""
        return self.ring.stats if self.ring is not None else None

    # -- raw / DCC path ---------------------------------------------------------

    def _process_raw(self, frame: DecodedFrame,
                     slot_base: int) -> WritebackResult:
        n = frame.n_blocks
        if self.scheme.dcc:
            self._content.update(frame.blocks)
            sizes = self._content.sizes
            offsets = np.concatenate(
                [[0], np.cumsum(sizes[:-1], dtype=np.int64)])
            data_bytes = int(sizes.sum())
        else:
            offsets = np.arange(n, dtype=np.int64) * frame.block_bytes
            data_bytes = frame.decoded_bytes
        pointers = slot_base + offsets
        layout = FrameLayout(
            frame_index=frame.index,
            mode=LayoutMode.RAW,
            n_blocks=n,
            block_bytes=frame.block_bytes,
            kinds=np.zeros(n, dtype=np.uint8),
            pointers=pointers,
            digests=np.zeros(n, dtype=np.uint64),
            bases_present=False,
            table_base=slot_base,
            bases_base=slot_base,
            data_base=slot_base,
            data_bytes=data_bytes,
            dump_base=slot_base + data_bytes,
            dump_bytes=0,
        )
        write_lines = sequential_lines(slot_base, data_bytes, self.line_bytes)
        matches = FrameMatches(intra=0, inter=0, none=n)
        return WritebackResult(layout, write_lines, matches, None, data_bytes)

    # -- MACH path ---------------------------------------------------------------

    def _digest_blocks(self, tag_input: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Digests (+CRC16 aux where available) of some blocks' rows."""
        if self.mach_config.digest_scheme in ("crc32", "crc48"):
            crc32s, crc16s = crc_pair_blocks(tag_input)
            return crc32s.astype(np.int64), crc16s.astype(np.int64)
        tags = self._scheme_obj.digest_blocks(tag_input).astype(np.int64)
        return tags, np.zeros(len(tags), dtype=np.int64)

    def _digest_frame(self, frame: DecodedFrame) -> Tuple[np.ndarray, np.ndarray]:
        """Digests (+CRC16 aux where available) for every block.

        Brings the content snapshot up to ``frame`` (which also sizes
        its blocks for DCC), so only changed blocks are digested.
        """
        self._content.update(frame.blocks)
        return self._content.tags, self._content.aux

    def _process_mach(self, frame: DecodedFrame,
                      slot_base: int) -> WritebackResult:
        assert self.ring is not None
        tags, aux = self._digest_frame(frame)
        dcc_sizes = self._content.sizes if self.scheme.dcc else None
        found, addresses, collisions = self.ring.lookup_batch(tags, aux)
        forced = (self._fault_plan.digest_collision_mask(
            frame.index, frame.n_blocks)
            if self._fault_plan is not None else None)
        if (not self.ordered_dump and not collisions.any()
                and (forced is None or not forced.any())
                and self._aux_consistent(tags, aux)):
            return self._process_mach_kernel(
                frame, slot_base, tags, aux, dcc_sizes, found, addresses)
        return self._process_mach_replay(
            frame, slot_base, tags, aux, dcc_sizes, found, addresses,
            collisions, forced)

    @staticmethod
    def _aux_consistent(tags: np.ndarray, aux: np.ndarray) -> bool:
        """True when no digest appears with two different CRC16 auxes.

        A natural CRC32 collision inside the frame is a silent match
        or, with CO-MACH, a detected collision and a side-cache spill,
        which only the replay models.
        """
        if not aux.any():
            return True
        pair = np.sort((tags << np.int64(16)) | aux)
        same_tag = (pair[1:] >> np.int64(16)) == (pair[:-1] >> np.int64(16))
        return not np.any(same_tag & (pair[1:] != pair[:-1]))

    def _layout_bases(self, frame: DecodedFrame,
                      slot_base: int) -> Tuple[int, int, int]:
        n = frame.n_blocks
        mach = self.mach_config
        table_bytes = n * mach.pointer_bytes
        if self._digest_layout is LayoutMode.POINTER_DIGEST:
            table_bytes += (n + 7) // 8
        bases_bytes = n * mach.base_bytes if self._use_gradient else 0
        table_base = slot_base
        bases_base = table_base + table_bytes
        data_base = bases_base + bases_bytes
        return table_base, bases_base, data_base

    def _process_mach_kernel(self, frame: DecodedFrame, slot_base: int,
                             tags: np.ndarray, aux: np.ndarray,
                             dcc_sizes: Optional[np.ndarray],
                             found: np.ndarray,
                             addresses: np.ndarray) -> WritebackResult:
        """SoA classification of a whole frame at once.

        Preconditions (checked by the dispatcher): no injected
        collision in the frame, no CRC16 aux disagreement against the
        frozen ring or within the frame, and no consumer of the dump's
        order.  Under those, every block found in the frozen ring is
        INTER (a frozen digest can never also be resident in the
        current MACH), and the remaining blocks replay an LRU touch
        sequence that :func:`repro.core.soa.lru_touch_classify` solves
        in closed form — bit-identical to the per-block walk.
        """
        assert self.ring is not None
        mach = self.mach_config
        touch_idx = np.flatnonzero(~found)
        touch_keys = tags[touch_idx]
        if self.ring.unbounded:
            # Oracle MACH: first occurrence stores, the rest hit it.
            _, first_pos, inverse = np.unique(
                touch_keys, return_index=True, return_inverse=True)
            hits = np.ones(len(touch_idx), dtype=bool)
            hits[first_pos] = False
            provider_block = touch_idx[first_pos[inverse[hits]]]
            stored_idx = touch_idx[~hits]
            resident_idx = stored_idx  # insertion (= block) order
        else:
            cls = lru_touch_classify(
                touch_keys & np.int64(mach.sets_per_mach - 1),
                touch_keys, mach.ways)
            hits = cls.hits
            provider_block = touch_idx[cls.provider[hits]]
            stored_idx = touch_idx[~hits]
            resident_idx = touch_idx[cls.resident_touch]
        return self._commit_frame(
            frame, slot_base, tags, aux, dcc_sizes, addresses, stored_idx,
            touch_idx[hits], provider_block, np.flatnonzero(found),
            resident_idx)

    def _process_mach_replay(self, frame: DecodedFrame, slot_base: int,
                             tags: np.ndarray, aux: np.ndarray,
                             dcc_sizes: Optional[np.ndarray],
                             found: np.ndarray, addresses: np.ndarray,
                             collisions: np.ndarray,
                             forced: Optional[np.ndarray]
                             ) -> WritebackResult:
        """Classify a frame with :func:`set_local_replay`.

        Handles what the SoA kernel does not: injected collisions
        (``forced``), CRC16 disagreements — silent matches, or with
        CO-MACH detected collisions and the side cache — and the
        (set, way-slot) dump order.  Stats the walk counts per block
        are counted from the replay's arrays; ``collisions`` are the
        frozen ring's, charged to the blocks whose lookup reached it.
        """
        assert self.ring is not None
        ring = self.ring
        mach = self.mach_config
        n = frame.n_blocks
        if forced is None:
            forced = np.zeros(n, dtype=bool)
        # Verification turns an injected collision into a stored block;
        # without it the wrong match stands and only stats change.
        store = forced if self._verify else np.zeros(n, dtype=bool)
        n_sets, ways = ((1, n) if ring.unbounded
                        else (mach.sets_per_mach, mach.ways))
        side_sets = 0
        if mach.co_mach and not ring.unbounded:
            # CO-MACH side cache: co_mach_entries / ways sets, rounded
            # down to a power of two.
            side_sets = 1 << (
                max(1, mach.co_mach_entries // ways).bit_length() - 1)
        replay = set_local_replay(
            tags, found, store, n_sets, ways,
            aux if mach.co_mach else None, side_sets)
        hits = replay.hits
        is_hit = np.zeros(n, dtype=bool)
        is_hit[hits] = True

        stats = ring.stats
        injected = int(np.count_nonzero(forced & (found | is_hit)))
        stats.injected_collisions += injected
        if self._verify:
            stats.fallback_writes += injected
        else:
            stats.silent_collisions += injected
        ring_collisions = int(collisions[~is_hit].sum())
        if mach.co_mach:
            stats.detected_collisions += replay.detected + ring_collisions
            stats.co_mach_hits += replay.side_hits
        else:
            stats.silent_collisions += ring_collisions + int(
                np.count_nonzero(aux[replay.providers] != aux[hits]))
        kept = ~store[hits]
        return self._commit_frame(
            frame, slot_base, tags, aux, dcc_sizes, addresses,
            replay.stored, hits[kept], replay.providers[kept],
            np.flatnonzero(found & ~is_hit & ~store), replay.resident)

    def _commit_frame(self, frame: DecodedFrame, slot_base: int,
                      tags: np.ndarray, aux: np.ndarray,
                      dcc_sizes: Optional[np.ndarray],
                      addresses: np.ndarray, stored_idx: np.ndarray,
                      intra_idx: np.ndarray, provider_block: np.ndarray,
                      inter_idx: np.ndarray,
                      resident_idx: np.ndarray) -> WritebackResult:
        """Lay out one classified frame and rotate its MACH into the ring.

        Shared by the batched classifiers.  ``stored_idx`` (ascending)
        are the blocks written to the data region, ``intra_idx`` the
        current-MACH hits with the stored block each one points at in
        ``provider_block``, ``inter_idx`` the frozen-ring matches (at
        ``addresses``), and ``resident_idx`` the stored blocks left in
        the frame's MACH, in dump order.
        """
        assert self.ring is not None
        ring = self.ring
        n = frame.n_blocks
        table_base, bases_base, data_base = self._layout_bases(
            frame, slot_base)
        kinds = np.empty(n, dtype=np.uint8)
        pointers = np.empty(n, dtype=np.int64)
        digests_out = np.zeros(n, dtype=np.uint64)

        # Stored blocks pack into the data region in block order.
        stored_sizes = (dcc_sizes[stored_idx].astype(np.int64)
                        if dcc_sizes is not None
                        else np.full(len(stored_idx), frame.block_bytes,
                                     dtype=np.int64))
        ends = np.cumsum(stored_sizes)
        data_bytes = int(ends[-1]) if len(ends) else 0
        pointers[stored_idx] = data_base + ends - stored_sizes
        kinds[stored_idx] = int(RecordKind.STORED)

        kinds[intra_idx] = int(RecordKind.POINTER)
        pointers[intra_idx] = pointers[provider_block]

        pointers[inter_idx] = addresses[inter_idx]
        if self._digest_layout is LayoutMode.POINTER_DIGEST:
            kinds[inter_idx] = int(RecordKind.DIGEST)
            digests_out[inter_idx] = tags[inter_idx].astype(np.uint64)
        else:
            kinds[inter_idx] = int(RecordKind.POINTER)

        n_intra = len(intra_idx)
        n_inter = len(inter_idx)
        ring.stats.record_batch(
            n_intra, n_inter, len(stored_idx),
            tags[np.concatenate((intra_idx, inter_idx))])

        table = {
            int(digest): (int(address), int(auxv))
            for digest, address, auxv in zip(
                tags[resident_idx].tolist(),
                pointers[resident_idx].tolist(),
                aux[resident_idx].tolist())
        }
        # Fancy indexing copies, so no column aliases the layout arrays.
        dump = FrozenMach(
            frame.index, table,
            np.fromiter(table.keys(), dtype=np.uint64, count=len(table)),
            (tags[resident_idx], pointers[resident_idx], aux[resident_idx]))
        ring.ingest_frozen(dump)

        matches = FrameMatches(
            intra=n_intra, inter=n_inter, none=len(stored_idx))
        return self._finish_mach(
            frame, kinds, pointers, digests_out,
            table_base, bases_base, data_base, data_bytes, dump, matches)

    def _finish_mach(self, frame: DecodedFrame, kinds: np.ndarray,
                     pointers: np.ndarray, digests_out: np.ndarray,
                     table_base: int, bases_base: int, data_base: int,
                     data_bytes: int, dump: FrozenMach,
                     matches: FrameMatches) -> WritebackResult:
        dump_base = data_base + data_bytes
        dump_bytes = dump.entries * _DUMP_ENTRY_BYTES
        layout = FrameLayout(
            frame_index=frame.index,
            mode=self._digest_layout,
            n_blocks=frame.n_blocks,
            block_bytes=frame.block_bytes,
            kinds=kinds,
            pointers=pointers,
            digests=digests_out,
            bases_present=self._use_gradient,
            table_base=table_base,
            bases_base=bases_base,
            data_base=data_base,
            data_bytes=data_bytes,
            dump_base=dump_base,
            dump_bytes=dump_bytes,
            pointer_bytes=self.mach_config.pointer_bytes,
            base_bytes=self.mach_config.base_bytes,
        )
        write_lines = self._write_lines(layout)
        return WritebackResult(layout, write_lines, matches, dump,
                               layout.total_bytes)

    def _write_lines(self, layout: FrameLayout) -> np.ndarray:
        """Line-granular write addresses for the whole frame."""
        line = self.line_bytes
        if self.mach_config.coalescing:
            parts = [
                sequential_lines(layout.table_base, layout.table_bytes, line),
                sequential_lines(layout.bases_base, layout.bases_bytes, line),
                sequential_lines(layout.data_base, layout.data_bytes, line),
                sequential_lines(layout.dump_base, layout.dump_bytes, line),
            ]
            return np.concatenate(parts)
        # Uncoalesced ablation: one line write per pointer/base, and one
        # (or two, straddling) per stored block.
        stored = layout.mask(RecordKind.STORED)
        parts = [
            uncoalesced_stream_lines(
                layout.table_base, layout.pointer_bytes, layout.n_blocks, line),
            uncoalesced_stream_lines(
                layout.bases_base, layout.base_bytes,
                layout.n_blocks if layout.bases_present else 0, line),
        ]
        stored_addrs = layout.pointers[stored]
        if len(stored_addrs):
            first = (stored_addrs // line) * line
            last = ((stored_addrs + layout.block_bytes - 1) // line) * line
            parts.append(first)
            parts.append(last[last != first])
        parts.append(
            sequential_lines(layout.dump_base, layout.dump_bytes, line))
        return np.concatenate(parts)
