"""Tests for CRC implementations and digest schemes."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hashing import (
    available_schemes,
    crc16,
    crc16_blocks,
    crc32,
    crc32_bitwise,
    crc32_blocks,
    get_scheme,
)
from repro.hashing.crc import crc_pair_blocks
from repro.hashing.digest import CollisionTracker


class TestCrc32:
    def test_empty_input(self):
        assert crc32(b"") == zlib.crc32(b"") == 0

    def test_known_vector(self):
        # The classic CRC-32 check value for "123456789".
        assert crc32(b"123456789") == 0xCBF43926

    def test_matches_zlib(self):
        for data in (b"a", b"hello", bytes(range(256)), b"\x00" * 100):
            assert crc32(data) == zlib.crc32(data)

    def test_bitwise_matches_table_driven(self):
        for data in (b"", b"x", b"macroblock", bytes(range(64))):
            assert crc32_bitwise(data) == crc32(data)

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_property_matches_zlib(self, data: bytes):
        assert crc32(data) == zlib.crc32(data)

    def test_vectorized_matches_scalar(self, random_blocks):
        vectorized = crc32_blocks(random_blocks)
        for i in range(len(random_blocks)):
            assert int(vectorized[i]) == zlib.crc32(
                random_blocks[i].tobytes())

    def test_row_counts_varying_between_calls(self):
        """The write path digests a different number of rows each
        frame; reused scratch buffers must not leak stale rows."""
        rng = np.random.default_rng(5)
        for rows, length in ((40, 48), (7, 48), (0, 48), (90, 48),
                             (12, 12), (33, 48)):
            blocks = rng.integers(0, 256, size=(rows, length),
                                  dtype=np.uint8)
            crc32s, crc16s = crc_pair_blocks(blocks)
            assert [int(c) for c in crc32s] == [
                zlib.crc32(row.tobytes()) for row in blocks]
            assert [int(c) for c in crc16s] == [
                crc16(row.tobytes()) for row in blocks]

    def test_vectorized_rejects_non_uint8(self):
        with pytest.raises(TypeError):
            crc32_blocks(np.zeros((2, 4), dtype=np.int32))

    def test_vectorized_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            crc32_blocks(np.zeros(8, dtype=np.uint8))


class TestCrc16:
    def test_known_vector(self):
        # CRC-16/X-25 (reflected CCITT, init/xorout 0xFFFF) check value.
        assert crc16(b"123456789") == 0x906E

    def test_vectorized_matches_scalar(self, random_blocks):
        vectorized = crc16_blocks(random_blocks)
        for i in range(0, len(random_blocks), 7):
            assert int(vectorized[i]) == crc16(random_blocks[i].tobytes())

    def test_distinct_from_crc32(self):
        data = b"payload"
        assert crc16(data) != (crc32(data) & 0xFFFF)


class TestDigestSchemes:
    def test_available_schemes(self):
        names = available_schemes()
        for expected in ("crc32", "crc48", "md5", "sha1", "weak-sum"):
            assert expected in names

    def test_unknown_scheme_raises(self):
        with pytest.raises(ConfigError):
            get_scheme("blake3")

    def test_crc48_composition(self, random_blocks):
        deep = get_scheme("crc48").digest_blocks(random_blocks)
        low = crc32_blocks(random_blocks)
        high = crc16_blocks(random_blocks)
        assert (deep & np.uint64(0xFFFFFFFF) == low.astype(np.uint64)).all()
        assert ((deep >> np.uint64(32)) == high.astype(np.uint64)).all()

    def test_md5_sha1_stable_and_distinct(self, random_blocks):
        md5 = get_scheme("md5").digest_blocks(random_blocks[:10])
        sha1 = get_scheme("sha1").digest_blocks(random_blocks[:10])
        assert (md5 == get_scheme("md5").digest_blocks(
            random_blocks[:10])).all()
        assert (md5 != sha1).any()

    def test_weak_sum_collides_on_permutation(self):
        scheme = get_scheme("weak-sum")
        a = np.arange(48, dtype=np.uint8).reshape(1, -1)
        b = a[:, ::-1].copy()
        assert scheme.digest_one(a[0]) == scheme.digest_one(b[0])
        assert get_scheme("crc32").digest_one(a[0]) != get_scheme(
            "crc32").digest_one(b[0])

    def test_digest_one_matches_batch(self, random_blocks):
        scheme = get_scheme("crc32")
        batch = scheme.digest_blocks(random_blocks[:5])
        for i in range(5):
            assert scheme.digest_one(random_blocks[i]) == int(batch[i])


class TestCollisionTracker:
    def test_no_collision_for_identical_content(self):
        tracker = CollisionTracker()
        assert not tracker.observe(1, b"same")
        assert not tracker.observe(1, b"same")
        assert tracker.collisions == 0

    def test_collision_detected(self):
        tracker = CollisionTracker()
        tracker.observe(1, b"first")
        assert tracker.observe(1, b"other")
        assert tracker.collisions == 1
        assert tracker.collision_rate == pytest.approx(0.5)

    def test_observe_frame(self, random_blocks):
        tracker = CollisionTracker()
        digests = np.zeros(len(random_blocks), dtype=np.uint64)  # all collide
        found = tracker.observe_frame(digests, random_blocks)
        # The first block sets the representative; all others collide
        # (random 48-byte blocks are unique with overwhelming probability).
        assert found == len(random_blocks) - 1
