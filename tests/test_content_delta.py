"""Delta content path: per-frame work on changed macroblocks only.

The write path keeps a snapshot of the previous frame and re-derives
tags, CRC16 auxes and DCC sizes for the rows that changed; the
synthesizer re-renders only rerolled rows.  These tests hold both to a
full per-frame recompute.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.dcc import compressed_sizes
from repro.config import (
    DCC_ONLY,
    GAB,
    GAB_DCC,
    MAB,
    SimulationConfig,
    VideoConfig,
)
from repro.core.gradient import to_gradient
from repro.core.writeback import WritebackEngine, changed_rows
from repro.faults import conceal_blocks
from repro.hashing.crc import crc_pair_blocks
from repro.hashing.digest import get_scheme
from repro.video import workload
from repro.video.frame import DecodedFrame
from repro.video.synthesis import SyntheticVideo

_SCHEMES = {"MAB": MAB, "GAB": GAB, "GAB_DCC": GAB_DCC, "DCC": DCC_ONLY}

#: 48-byte rows (uint64 compare) and 12-byte rows (byte compare).
_GEOMETRIES = {
    4: VideoConfig(width=64, height=32, block_size=4),
    2: VideoConfig(width=32, height=16, block_size=2),
}


def _synthetic(video: VideoConfig, key: str, seed: int,
               n_frames: int) -> List[DecodedFrame]:
    return list(SyntheticVideo(video, workload(key), seed=seed,
                               n_frames=n_frames))


def _reused(frames: List[DecodedFrame]) -> Iterator[DecodedFrame]:
    """Every frame in one ndarray, overwritten in place between yields."""
    buffer = frames[0].blocks.copy()
    for frame in frames:
        buffer[...] = frame.blocks
        yield replace(frame, blocks=buffer)


def _concealed(frames: List[DecodedFrame],
               seed: int) -> Iterator[DecodedFrame]:
    """Frames with lost blocks concealed from the previous frame."""
    rng = np.random.default_rng(seed)
    previous = None
    for frame in frames:
        blocks = frame.blocks.copy()
        lost = np.flatnonzero(rng.random(len(blocks)) < 0.2)
        conceal_blocks(blocks, lost, previous)
        previous = blocks
        yield replace(frame, blocks=blocks)


def _expected(blocks: np.ndarray, engine: WritebackEngine):
    """Tags, auxes and DCC sizes recomputed from the whole frame."""
    content = to_gradient(blocks)[0] if engine.scheme.content_cache == "gab" \
        else blocks
    name = engine.mach_config.digest_scheme
    if name in ("crc32", "crc48"):
        tags, aux = crc_pair_blocks(content)
    else:
        tags = get_scheme(name).digest_blocks(content)
        aux = np.zeros(len(tags), dtype=np.int64)
    return (tags.astype(np.int64), aux.astype(np.int64),
            compressed_sizes(content))


class TestDeltaDigests:
    @given(scheme_name=st.sampled_from(sorted(_SCHEMES)),
           block_size=st.sampled_from(sorted(_GEOMETRIES)),
           stream_kind=st.sampled_from(["fresh", "reused", "concealed"]),
           digest=st.sampled_from(["crc32", "md5"]),
           profile_key=st.sampled_from(["V1", "V5", "V8"]),
           seed=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_delta_equals_full_recompute(self, scheme_name, block_size,
                                         stream_kind, digest, profile_key,
                                         seed):
        base = SimulationConfig()
        video = _GEOMETRIES[block_size]
        mach = replace(base.mach, digest_scheme=digest)
        scheme = _SCHEMES[scheme_name]
        frames = _synthetic(video, profile_key, seed, 8)
        stream = {"fresh": iter(frames), "reused": _reused(frames),
                  "concealed": _concealed(frames, seed)}[stream_kind]
        engine = WritebackEngine(video, mach, scheme)
        for i, frame in enumerate(stream):
            blocks = frame.blocks.copy()
            engine.process_frame(frame, (i % 3) * 4 * 1024 * 1024)
            tags, aux, sizes = _expected(blocks, engine)
            content = engine._content
            assert np.array_equal(content.blocks, blocks)
            if scheme.uses_mach:
                assert np.array_equal(content.tags, tags)
                assert np.array_equal(content.aux, aux)
            if scheme.dcc:
                assert np.array_equal(content.sizes, sizes)

    def test_snapshot_does_not_alias_the_source(self):
        """A source reusing one buffer still gets every change digested:
        the engine copies the bytes it compares against."""
        video = _GEOMETRIES[4]
        frames = _synthetic(video, "V8", 1, 4)
        engine = WritebackEngine(video, SimulationConfig().mach, GAB)
        for frame in _reused(frames):
            engine.process_frame(frame, 0)
            assert engine._content.blocks is not frame.blocks
        assert np.array_equal(engine._content.tags,
                              _expected(frames[-1].blocks, engine)[0])

    def test_new_geometry_recomputes_every_row(self):
        engine = WritebackEngine(_GEOMETRIES[4], SimulationConfig().mach,
                                 MAB)
        for video in (_GEOMETRIES[4], _GEOMETRIES[2]):
            frame = _synthetic(video, "V5", 2, 1)[0]
            engine.process_frame(frame, 0)
            assert np.array_equal(engine._content.tags,
                                  _expected(frame.blocks, engine)[0])


class TestChangedRows:
    @pytest.mark.parametrize("block_bytes", [12, 16, 48])
    def test_word_and_byte_compares_agree(self, block_bytes):
        rng = np.random.default_rng(block_bytes)
        old = rng.integers(0, 256, size=(64, block_bytes), dtype=np.uint8)
        new = old.copy()
        rows = rng.choice(64, size=20, replace=False)
        cols = rng.integers(0, block_bytes, size=20)
        new[rows, cols] ^= np.uint8(1)
        want = np.zeros(64, dtype=bool)
        want[rows] = True
        assert np.array_equal(changed_rows(new, old), want)

    def test_non_contiguous_rows(self):
        old = np.zeros((8, 48), dtype=np.uint8)
        wide = np.zeros((8, 96), dtype=np.uint8)
        wide[3, 50] = 7  # outside the view
        wide[5, 2] = 1
        assert np.flatnonzero(changed_rows(wide[:, :48], old)).tolist() \
            == [5]


class TestSynthesisIsolation:
    def test_mutating_a_yielded_frame_leaves_later_frames(self):
        video = _GEOMETRIES[4]
        want = [frame.blocks.copy()
                for frame in SyntheticVideo(video, workload("V1"), seed=4,
                                            n_frames=12)]
        got = []
        for frame in SyntheticVideo(video, workload("V1"), seed=4,
                                    n_frames=12):
            got.append(frame.blocks.copy())
            frame.blocks[...] = 255
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
