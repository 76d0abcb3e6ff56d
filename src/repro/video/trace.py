"""Frame traces: capture, store, and replay decoded-block streams.

The paper gathers macroblock traces from real videos with FFmpeg + Pin;
this module is the equivalent interchange layer.  A
:class:`FrameTrace` holds a sequence of decoded frames in block-matrix
form plus their metadata, can be saved to / loaded from a compressed
``.npz`` file, and replays as the same iterator interface
:func:`repro.simulate` consumes — so externally produced content
(converted camera footage, codec output, real decoded video) can drive
every experiment in place of the synthetic generator.

Helpers are provided to build traces from raw image stacks and from
this package's own block codec.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..config import VideoConfig
from ..errors import GeometryError, InputError
from .block import split_blocks
from .frame import DecodedFrame, FrameType

_TYPE_CODES = {FrameType.I: 0, FrameType.P: 1, FrameType.B: 2}
_CODE_TYPES = {code: ftype for ftype, code in _TYPE_CODES.items()}

#: Trace container format version (stored in the file).
TRACE_VERSION = 1


@dataclass
class FrameTrace:
    """An in-memory stream of decoded frames with metadata."""

    width: int
    height: int
    block_size: int
    blocks: np.ndarray  # (n_frames, blocks_per_frame, block_bytes) uint8
    frame_types: np.ndarray  # (n_frames,) uint8 codes
    complexity: np.ndarray  # (n_frames,) float64
    encoded_bits: np.ndarray  # (n_frames,) int64

    def __post_init__(self) -> None:
        if self.blocks.ndim != 3 or self.blocks.dtype != np.uint8:
            raise GeometryError(
                "blocks must be (frames, n, k) uint8, got "
                f"{self.blocks.shape} {self.blocks.dtype}")
        n_frames = self.blocks.shape[0]
        for name in ("frame_types", "complexity", "encoded_bits"):
            if len(getattr(self, name)) != n_frames:
                raise GeometryError(f"{name} must have one entry per frame")
        expected_blocks = (self.width // self.block_size) * (
            self.height // self.block_size)
        if self.blocks.shape[1] != expected_blocks:
            raise GeometryError(
                f"{self.blocks.shape[1]} blocks per frame does not match "
                f"{self.width}x{self.height}/{self.block_size}")

    # -- stream interface ---------------------------------------------------

    def __len__(self) -> int:
        return int(self.blocks.shape[0])

    def __iter__(self) -> Iterator[DecodedFrame]:
        return self.frames()

    def frames(self) -> Iterator[DecodedFrame]:
        """Replay the trace as :class:`DecodedFrame` objects."""
        for index in range(len(self)):
            yield DecodedFrame(
                index=index,
                frame_type=_CODE_TYPES[int(self.frame_types[index])],
                blocks=self.blocks[index],
                complexity=float(self.complexity[index]),
                encoded_bits=int(self.encoded_bits[index]),
            )

    @property
    def video_config(self) -> VideoConfig:
        """A :class:`VideoConfig` matching the trace geometry."""
        return VideoConfig(width=self.width, height=self.height,
                           block_size=self.block_size)

    # -- persistence -----------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as a compressed ``.npz``."""
        np.savez_compressed(
            Path(path),
            version=np.asarray(TRACE_VERSION),
            geometry=np.asarray([self.width, self.height, self.block_size]),
            blocks=self.blocks,
            frame_types=self.frame_types,
            complexity=self.complexity,
            encoded_bits=self.encoded_bits,
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FrameTrace":
        """Read a trace written by :meth:`save`.

        A missing, unreadable or malformed file raises
        :class:`~repro.errors.InputError`.
        """
        try:
            with np.load(Path(path)) as data:
                version = int(data["version"])
                geometry = data["geometry"]
                arrays = {name: data[name] for name in (
                    "blocks", "frame_types", "complexity", "encoded_bits")}
        except OSError as exc:
            raise InputError(path, exc) from exc
        except (ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise InputError(path, "not a frame trace (.npz)") from exc
        if version != TRACE_VERSION:
            raise GeometryError(
                f"unsupported trace version {version} "
                f"(this build reads {TRACE_VERSION})")
        width, height, block_size = (int(v) for v in geometry)
        return cls(width=width, height=height, block_size=block_size,
                   **arrays)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_frames(cls, frames: Iterable[DecodedFrame], width: int,
                    height: int, block_size: int = 4) -> "FrameTrace":
        """Capture any DecodedFrame stream (e.g. the synthetic generator)."""
        collected: List[DecodedFrame] = list(frames)
        if not collected:
            raise GeometryError("cannot build a trace from zero frames")
        blocks = np.stack([frame.blocks for frame in collected])
        return cls(
            width=width, height=height, block_size=block_size,
            blocks=blocks,
            frame_types=np.asarray(
                [_TYPE_CODES[f.frame_type] for f in collected],
                dtype=np.uint8),
            complexity=np.asarray([f.complexity for f in collected]),
            encoded_bits=np.asarray([f.encoded_bits for f in collected],
                                    dtype=np.int64),
        )

    @classmethod
    def from_images(cls, images: Sequence[np.ndarray], block_size: int = 4,
                    frame_types: Optional[Sequence[FrameType]] = None,
                    bits_per_pixel: float = 0.6) -> "FrameTrace":
        """Build a trace from ``(H, W, 3)`` uint8 images.

        This is the adoption path for real content: decode frames with
        any external tool, load them as arrays, and feed them here.
        Complexity defaults to 1.0 (uniform decode work) and encoded
        size to a flat bits-per-pixel model; both can be refined by
        editing the arrays afterwards.
        """
        if not images:
            raise GeometryError("need at least one image")
        height, width = images[0].shape[:2]
        blocks = np.stack([split_blocks(image, block_size)
                           for image in images])
        if frame_types is None:
            types = np.ones(len(images), dtype=np.uint8)  # all P
            types[0] = 0  # leading I frame
        else:
            types = np.asarray([_TYPE_CODES[t] for t in frame_types],
                               dtype=np.uint8)
        bits = int(width * height * bits_per_pixel)
        return cls(
            width=width, height=height, block_size=block_size,
            blocks=blocks,
            frame_types=types,
            complexity=np.ones(len(images)),
            encoded_bits=np.full(len(images), bits, dtype=np.int64),
        )
