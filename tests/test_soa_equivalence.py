"""Property tests: the SoA kernels are bit-identical to their scalar
references.

The vectorized hot path (:mod:`repro.core.soa`, the batched CRC tables,
the array display cache, the SoA memory controller, and the batched
write engine) is accepted only on exact equivalence: Hypothesis draws
random touch sequences, frames, and cache shapes, and every drawn case
must reproduce the scalar replay byte for byte — hits, providers,
residents, stats, layouts, and full :class:`RunResult` payloads.
The set-local replay that handles faulted and eager-buffer frames is
held to the same standard against the
:class:`~repro.cache.SetAssociativeCache` walk.
"""

from __future__ import annotations

import dataclasses
import zlib
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import simulate
from repro.cache import SetAssociativeCache
from repro.config import (
    BASELINE,
    GAB,
    GAB_DCC,
    MAB,
    RACE_TO_SLEEP,
    DramConfig,
    FaultConfig,
    NetworkConfig,
    RealtimeConfig,
    SimulationConfig,
    ThermalConfig,
    VideoConfig,
)
from repro.core.soa import count_smaller_left, lru_touch_classify
from repro.core.writeback import WritebackEngine, set_local_replay
from repro.faults import FaultPlan
from repro.realtime import realtime_playback
from repro.realtime.chaos import CHAOS_REGIMES
from repro.units import MBPS
from repro.display import simulate_direct_mapped, simulate_direct_mapped_array
from repro.hashing.crc import crc16, crc32, crc16_blocks, crc32_blocks, crc_pair_blocks
from repro.memory.controller import MemoryController
from repro.memory.rowbuffer import RowBufferModel
from repro.video.synthesis import SyntheticVideo
from repro.video.workloads import workload

_TINY = SimulationConfig(video=VideoConfig(width=64, height=32))

_MACH_SCHEMES = {"MAB": MAB, "GAB": GAB, "GAB+DCC": GAB_DCC}

#: Injected digest collisions: none, or (rate, verify_digests).
_COLLISIONS = [None, (0.02, True), (0.3, True), (0.02, False), (0.3, False)]


def _faults(collisions, seed=0):
    if collisions is None:
        return FaultConfig()
    rate, verify = collisions
    return FaultConfig(block_bit_error=2e-4, digest_collision=rate,
                       verify_digests=verify, seed=seed)


def _assert_stats_equal(got, want):
    """Every MachStats field, plus the match counter's insertion order."""
    for field in dataclasses.fields(want):
        assert getattr(got, field.name) == getattr(want, field.name), (
            field.name)
    assert list(got.match_counter.items()) == list(
        want.match_counter.items())


def _assert_equal(a, b, path=""):
    """Recursive exact equality over dataclasses / arrays / containers."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert np.array_equal(np.asarray(a), np.asarray(b)), path
        return
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        assert type(a) is type(b), path
        for field in dataclasses.fields(a):
            _assert_equal(getattr(a, field.name), getattr(b, field.name),
                          f"{path}.{field.name}")
        return
    if isinstance(a, dict):
        assert set(a) == set(b), path
        for key in a:
            _assert_equal(a[key], b[key], f"{path}[{key!r}]")
        return
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_equal(x, y, f"{path}[{i}]")
        return
    assert a == b, (path, a, b)


class TestCountSmallerLeft:
    @given(st.lists(st.integers(0, 10_000), min_size=0, max_size=200,
                    unique=True))
    @settings(max_examples=40, deadline=None)
    def test_matches_quadratic_reference(self, values):
        arr = np.asarray(values, dtype=np.int64)
        expected = [int(np.sum(arr[:i] < arr[i])) for i in range(len(arr))]
        assert count_smaller_left(arr).tolist() == expected

    @given(st.permutations(range(97)))
    @settings(max_examples=20, deadline=None)
    def test_bound_variant_matches(self, perm):
        arr = np.asarray(perm, dtype=np.int64)
        assert np.array_equal(count_smaller_left(arr, bound=len(arr)),
                              count_smaller_left(arr))


def _lru_reference(sets, keys, ways):
    """Scalar insert-on-miss LRU replay (OrderedDict per set)."""
    state = {}
    hits, providers = [], []
    for i, (s, k) in enumerate(zip(sets, keys)):
        entries = state.setdefault(s, OrderedDict())
        if k in entries:
            hits.append(True)
            providers.append(entries[k])
            entries.move_to_end(k)
        else:
            hits.append(False)
            providers.append(-1)
            if len(entries) >= ways:
                entries.popitem(last=False)
            entries[k] = i
    resident_touch, resident_rank = [], []
    for s in sorted(state):
        for rank, insert_idx in enumerate(reversed(state[s].values())):
            resident_touch.append(insert_idx)
            resident_rank.append(rank)
    return hits, providers, resident_touch, resident_rank


class TestLruTouchClassify:
    @given(keys=st.lists(st.integers(0, 60), min_size=0, max_size=160),
           n_sets=st.sampled_from([1, 2, 4, 8]),
           ways=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_lru(self, keys, n_sets, ways):
        keys = np.asarray(keys, dtype=np.int64)
        sets = keys % n_sets  # a key maps to exactly one set
        got = lru_touch_classify(sets, keys, ways)
        hits, providers, res_touch, res_rank = _lru_reference(
            sets.tolist(), keys.tolist(), ways)
        assert got.hits.tolist() == hits
        assert got.provider.tolist() == providers
        assert got.resident_touch.tolist() == res_touch
        assert got.resident_rank.tolist() == res_rank


def _replay_reference(keys, found, store, n_sets, ways, unbounded):
    """The scalar walk's current-MACH side, on a real cache object."""
    cache = {} if unbounded else SetAssociativeCache(sets=n_sets, ways=ways)
    hits, providers, stored = [], [], []
    for i, (key, in_ring, forced) in enumerate(zip(keys, found, store)):
        value = cache.get(key) if unbounded else cache.lookup(key)[1]
        if value is not None:
            hits.append(i)
            providers.append(value)
            if not forced:
                continue
        elif in_ring and not forced:
            continue
        stored.append(i)
        if unbounded:
            cache[key] = i
        else:
            cache.insert(key, i)
    resident = list(cache.items())
    return hits, providers, stored, resident


class TestSetLocalReplay:
    @given(touches=st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                            min_size=0, max_size=160),
           in_ring=st.sets(st.integers(0, 40)),
           n_sets=st.sampled_from([1, 2, 4, 8]),
           ways=st.integers(1, 5),
           unbounded=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_set_associative_walk(self, touches, in_ring, n_sets,
                                          ways, unbounded):
        keys = np.asarray([t[0] for t in touches], dtype=np.int64)
        # The frozen ring is fixed while a frame decodes, so "found" is
        # a property of the key.
        found = np.isin(keys, list(in_ring))
        store = np.asarray([t[1] for t in touches], dtype=bool)
        # An unbounded MACH is one set with a way per touch.
        got = set_local_replay(
            keys, found, store, *((1, len(keys)) if unbounded
                                  else (n_sets, ways)))
        hits, providers, stored, resident = _replay_reference(
            keys.tolist(), found.tolist(), store.tolist(), n_sets, ways,
            unbounded)
        assert got.hits.tolist() == hits
        assert got.providers.tolist() == providers
        assert got.stored.tolist() == stored
        # Resident set and (set, way-slot) order, with their providers.
        assert [(int(keys[b]), int(b)) for b in got.resident] == resident

    @given(keys=st.lists(st.integers(0, 60), min_size=0, max_size=160),
           n_sets=st.sampled_from([1, 2, 4, 8]),
           ways=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_closed_form_kernel(self, keys, n_sets, ways):
        """Without frozen matches or forced stores, the replay and
        :func:`lru_touch_classify` are the same LRU (up to dump order)."""
        keys = np.asarray(keys, dtype=np.int64)
        none = np.zeros(len(keys), dtype=bool)
        got = set_local_replay(keys, none, none, n_sets, ways)
        cls = lru_touch_classify(keys & (n_sets - 1), keys, ways)
        assert got.hits.tolist() == np.flatnonzero(cls.hits).tolist()
        assert got.providers.tolist() == cls.provider[cls.hits].tolist()
        assert sorted(got.resident.tolist()) == sorted(
            cls.resident_touch.tolist())


class TestCrcBlocks:
    @given(rows=st.integers(0, 12), cols=st.integers(0, 80),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_blockwise_matches_scalar(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
        want32 = [crc32(row.tobytes()) for row in blocks]
        want16 = [crc16(row.tobytes()) for row in blocks]
        assert crc32_blocks(blocks).tolist() == want32
        assert crc16_blocks(blocks).tolist() == want16
        pair32, pair16 = crc_pair_blocks(blocks)
        assert pair32.tolist() == want32
        assert pair16.tolist() == want16
        # The scalar crc32 itself is zlib's.
        assert want32 == [zlib.crc32(row.tobytes()) for row in blocks]


class TestDisplayCacheArray:
    @given(windows=st.lists(
        st.lists(st.integers(0, 40), min_size=0, max_size=60),
        min_size=1, max_size=4),
        n_slots=st.sampled_from([4, 8, 16]))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_reference(self, windows, n_slots):
        state_arr = np.full(n_slots, -1, dtype=np.int64)
        state_dict = None
        for window in windows:
            keys = np.asarray(window, dtype=np.int64)
            hits_arr = simulate_direct_mapped_array(keys, n_slots, state_arr)
            hits_dict, state_dict = simulate_direct_mapped(
                keys, n_slots, state_dict)
            assert np.array_equal(hits_arr, hits_dict)
        for slot in range(n_slots):
            want = (state_dict or {}).get(slot)
            got = int(state_arr[slot])
            assert got == (-1 if want is None else want)


class TestMemoryControllerEquivalence:
    @given(n=st.integers(1, 120), seed=st.integers(0, 2**31 - 1),
           quantum_on=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_rowbuffer_replay(self, n, seed, quantum_on):
        dram = DramConfig()
        if not quantum_on:
            dram = dataclasses.replace(dram, scheduler_quantum=0.0)
        rng = np.random.default_rng(seed)
        times = rng.uniform(0.0, 0.05, size=n)
        lines = rng.integers(0, 1 << 22, size=n, dtype=np.int64) * 64
        writes = rng.integers(0, 2, size=n).astype(bool)
        ctrl = MemoryController(dram)
        # Replay the same scheduling order through the scalar per-bank
        # model; banks are independent, so any bank-grouped order that
        # is time-sorted inside each (bank, quantum, row) run gives the
        # canonical activation count.
        banks, rows = ctrl.mapper.map_lines(lines)
        if dram.scheduler_quantum > 0:
            quanta = (times / dram.scheduler_quantum).astype(np.int64)
            order = np.lexsort((times, rows, quanta, banks))
        else:
            order = np.lexsort((times, banks))
        scalar = RowBufferModel(dram)
        for i in order:
            scalar.access(int(banks[i]), int(rows[i]), float(times[i]))
        ctrl.process_window(times, lines, writes)
        assert ctrl.stats.activations == scalar.activations
        assert ctrl.stats.bursts == scalar.accesses


def _random_stream(cfg, profile_key, n_frames, seed):
    return list(SyntheticVideo(
        cfg.video, workload(profile_key), seed=seed, n_frames=n_frames,
        complexity_sigma=cfg.calibration.complexity_sigma))


class _CollidingEngine(WritebackEngine):
    """Digests cut to 10 bits and CRC16 auxes to 2: CRC32 matches with
    disagreeing auxes (silent matches, or CO-MACH detections) become
    common instead of astronomically rare."""

    def _digest_frame(self, frame):
        tags, aux = super()._digest_frame(frame)
        return tags & 0x3FF, aux & 0x3


class TestWritebackEquivalence:
    @given(scheme_name=st.sampled_from(sorted(_MACH_SCHEMES)),
           unbounded=st.booleans(),
           ordered=st.booleans(),
           collisions=st.sampled_from(_COLLISIONS),
           narrow=st.booleans(),
           co_mach=st.booleans(),
           profile_key=st.sampled_from(["V1", "V5", "V8"]),
           seed=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_kernel_matches_scalar_engine(self, scheme_name, unbounded,
                                          ordered, collisions, narrow,
                                          co_mach, profile_key, seed):
        scheme = _MACH_SCHEMES[scheme_name]
        cfg = _TINY
        mach = dataclasses.replace(cfg.mach, co_mach=co_mach)
        plan = FaultPlan.from_config(_faults(collisions, seed))
        engine = _CollidingEngine if narrow else WritebackEngine
        stream = _random_stream(cfg, profile_key, 6, seed)
        fast = engine(cfg.video, mach, scheme, cfg.dram.line_bytes,
                      unbounded_mach=unbounded, fault_plan=plan,
                      vectorized=True, ordered_dump=ordered)
        slow = engine(cfg.video, mach, scheme, cfg.dram.line_bytes,
                      unbounded_mach=unbounded, fault_plan=plan,
                      vectorized=False)
        base = 32 * 1024 * 1024
        for i, frame in enumerate(stream):
            slot = base + (i % 3) * 4 * 1024 * 1024
            got = fast.process_frame(frame, slot)
            want = slow.process_frame(frame, slot)
            _assert_equal(got.layout, want.layout, "layout")
            assert np.array_equal(got.write_lines, want.write_lines)
            _assert_equal(got.matches, want.matches, "matches")
            assert got.bytes_written == want.bytes_written
            if ordered or unbounded:
                assert list(got.dump.table.items()) == list(
                    want.dump.table.items())
                assert np.array_equal(got.dump.digests, want.dump.digests)
            else:
                # Clean frames may take the SoA kernel, which emits the
                # same entries in recency order; nothing reads it.
                assert dict(got.dump.table) == dict(want.dump.table)
        _assert_stats_equal(fast.ring.stats, slow.ring.stats)


    @pytest.mark.parametrize("scheme_name", sorted(_MACH_SCHEMES))
    def test_ordered_dump_keeps_scalar_order(self, scheme_name):
        """Clean frames included: an engine whose dump order is
        consumed never emits the kernel's recency order."""
        scheme = _MACH_SCHEMES[scheme_name]
        cfg = _TINY
        fast = WritebackEngine(cfg.video, cfg.mach, scheme,
                               cfg.dram.line_bytes, ordered_dump=True)
        slow = WritebackEngine(cfg.video, cfg.mach, scheme,
                               cfg.dram.line_bytes, vectorized=False)
        for i, frame in enumerate(_random_stream(cfg, "V8", 6, 0)):
            slot = 32 * 1024 * 1024 + (i % 3) * 4 * 1024 * 1024
            got = fast.process_frame(frame, slot).dump
            want = slow.process_frame(frame, slot).dump
            assert list(got.table.items()) == list(want.table.items())


class TestPipelineEquivalence:
    @given(scheme_name=st.sampled_from(sorted(_MACH_SCHEMES)),
           buffer_policy=st.sampled_from(["lazy", "eager"]),
           collisions=st.sampled_from(_COLLISIONS),
           unbounded=st.booleans(),
           seed=st.integers(0, 3))
    @settings(max_examples=16, deadline=None)
    def test_run_result_identical(self, scheme_name, buffer_policy,
                                  collisions, unbounded, seed):
        """Eager runs take the set-local replay, faulted ones too.

        At simulated resolutions the MACH buffer is scaled to hold the
        whole ring, so the dump order cannot reach the result; the
        engine test above checks that order directly.
        """
        scheme = _MACH_SCHEMES[scheme_name]
        config = dataclasses.replace(_TINY, faults=_faults(collisions, seed))
        kwargs = dict(n_frames=12, config=config, seed=seed,
                      buffer_policy=buffer_policy, unbounded_mach=unbounded)
        fast = simulate(workload("V8"), scheme, vectorized=True, **kwargs)
        slow = simulate(workload("V8"), scheme, vectorized=False, **kwargs)
        _assert_equal(fast, slow, "RunResult")
        assert fast.to_jsonable() == slow.to_jsonable()


class TestWritePathDispatch:
    """With ``vectorized=True`` the scalar walk is an oracle only: no
    impaired configuration reaches it (CO-MACH frames with a detected
    collision are the one remaining fallback)."""

    _FRAMES = 24

    def _impaired_runs(self):
        base = SimulationConfig()
        stall = dataclasses.replace(base, network=NetworkConfig(
            chunk_interval=3.0, preroll_frames=10))
        thermal = dataclasses.replace(base, thermal=ThermalConfig(
            enabled=True, seed=3, event_interval=0.25, cap_drop_rate=0.6,
            cap_drop_duty=0.6, delayed_transition_rate=0.5))
        faults = dataclasses.replace(base, faults=FaultConfig(
            block_bit_error=2e-4, digest_collision=0.02, seed=3))
        bursty = next(r for r in CHAOS_REGIMES if r.key == "bursty-loss")
        realtime = dataclasses.replace(base, realtime=bursty.apply(
            RealtimeConfig(enabled=True, seed=3, link_rate=1 * MBPS,
                           start_rate=1 * MBPS)))
        video = workload("V8")
        for config in (stall, thermal, faults):
            for scheme in (BASELINE, RACE_TO_SLEEP, GAB):
                yield lambda c=config, s=scheme: simulate(
                    video, s, n_frames=self._FRAMES, config=c, seed=3)
        for scheme in (MAB, GAB):
            yield lambda s=scheme: simulate(
                video, s, n_frames=self._FRAMES, config=base, seed=3,
                buffer_policy="eager")
        for scheme in (RACE_TO_SLEEP, GAB):
            yield lambda s=scheme: realtime_playback(
                s, realtime, n_frames=self._FRAMES, profile=video)

    def test_no_impaired_config_reaches_scalar_walk(self, monkeypatch):
        replayed = []

        def forbidden(*args, **kwargs):
            raise AssertionError("scalar write path reached")

        original = WritebackEngine._process_mach_replay

        def counting(engine, frame, *args):
            replayed.append(frame.index)
            return original(engine, frame, *args)

        monkeypatch.setattr(WritebackEngine, "_process_mach_scalar",
                            forbidden)
        monkeypatch.setattr(WritebackEngine, "_process_mach_replay",
                            counting)
        for run in self._impaired_runs():
            run()
        # Faulted and eager frames really took the replay.
        assert replayed
