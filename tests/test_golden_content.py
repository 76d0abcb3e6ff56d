"""Golden content: synthesized block streams and RunResults, pinned.

The write path digests only the macroblocks that changed since the
previous frame, and the synthesizer re-renders only the rows a frame
rerolled.  Both are pure host-side optimisations, so the bytes they
produce must not move.  Each case hashes one fixed-seed stream or run
and compares it with the value recorded from the full-frame
implementation.

The run cases cover every write-path classifier: the SoA kernel (MAB,
GAB+DCC), the set-local replay (injected collisions, the eager MACH
buffer's ordered dump), the scalar walk (``vectorized=False``), the
raw DCC path, concealed frames (bit errors), and a
:class:`~repro.video.trace.FrameTrace` source whose frames are views
into one array.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Callable, Dict

import pytest

from repro.config import (
    DCC_ONLY,
    GAB,
    GAB_DCC,
    MAB,
    FaultConfig,
    SimulationConfig,
)
from repro.core.pipeline import simulate
from repro.core.results import RunResult
from repro.video import workload
from repro.video.synthesis import SyntheticVideo
from repro.video.trace import FrameTrace

#: (profile, frames): each stream crosses at least one scene cut.
STREAMS = {"V1": 160, "V8": 100, "V12": 100}

STREAM_GOLDEN: Dict[str, str] = {
    "V1":
        "d56504a3ee27622c738252b4823ad42b93a55d39f2380bfba78b6e121d794424",
    "V8":
        "d7d23047b604896e99cb300b78c62af7159a927c68b39b6b73c5613d8d04f4c9",
    "V12":
        "f294cd785ef3335274353df6500d4e0c0693fd5986e128023c329df494da649a",
}

_FAULTS = FaultConfig(block_bit_error=2e-4, digest_collision=0.02, seed=4)


def _trace_run() -> RunResult:
    cfg = SimulationConfig()
    trace = FrameTrace.from_frames(
        SyntheticVideo(cfg.video, workload("V5"), seed=2, n_frames=48),
        cfg.video.width, cfg.video.height, cfg.video.block_size)
    return simulate(trace, GAB, config=replace(cfg, faults=_FAULTS))


RUNS: Dict[str, Callable[[], RunResult]] = {
    "MAB": lambda: simulate(workload("V8"), MAB, n_frames=48),
    "GAB_DCC": lambda: simulate(workload("V12"), GAB_DCC, n_frames=48,
                                seed=1),
    "DCC": lambda: simulate(workload("V3"), DCC_ONLY, n_frames=48),
    "GAB_faulted": lambda: simulate(
        workload("V8"), GAB, n_frames=48,
        config=replace(SimulationConfig(), faults=_FAULTS)),
    "MAB_eager": lambda: simulate(workload("V1"), MAB, n_frames=48,
                                  buffer_policy="eager"),
    "GAB_scalar": lambda: simulate(workload("V8"), GAB, n_frames=48,
                                   vectorized=False),
    "GAB_trace": _trace_run,
}

RUN_GOLDEN: Dict[str, str] = {
    "MAB":
        "c283480793d365c8d5911eff05ba9cdc5d5b896434f4d421f9f255c9bb469044",
    "GAB_DCC":
        "47e12b2f9b4aa4969a955dc50f4da971ff6d98bc601bb379b6c019e9d8adcd6f",
    "DCC":
        "1e7977c55c74ae9f5c485dbec99bdc0800264fb742bbb82b881faa5d40e3ad8b",
    "GAB_faulted":
        "48458fc175eaca19f07a8d60eaad18b3d2cde1395136fd0d7eab00ef4e85bd42",
    "MAB_eager":
        "278f319293e895c4b90fe35275a94084e61482ac5a60f65913b8470749c7a029",
    "GAB_scalar":
        "0d94d72a0d24bd3112ce96d889147e9a969682d434196c971363c28ee2c13894",
    "GAB_trace":
        "700672972a9f2b3ffa3fd1ed1aef3e10fbeb64e7b886a39e87f347b41e8a4ec9",
}


def stream_hash(key: str) -> str:
    """sha256 over every frame's blocks, complexity and encoded size."""
    cfg = SimulationConfig()
    digest = hashlib.sha256()
    for frame in SyntheticVideo(cfg.video, workload(key), seed=3,
                                n_frames=STREAMS[key]):
        digest.update(frame.blocks.tobytes())
        digest.update(repr((frame.frame_type.value, frame.complexity,
                            frame.encoded_bits)).encode("utf-8"))
    return digest.hexdigest()


def run_hash(name: str) -> str:
    payload = RUNS[name]().to_jsonable()
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(STREAMS))
def test_stream_golden(key):
    assert stream_hash(key) == STREAM_GOLDEN[key]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_golden(name):
    assert run_hash(name) == RUN_GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(STREAM_GOLDEN) == sorted(STREAMS)
    assert sorted(RUN_GOLDEN) == sorted(RUNS)
