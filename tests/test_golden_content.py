"""Golden content: synthesized block streams and RunResults, pinned.

The write path digests only the macroblocks that changed since the
previous frame, and the synthesizer re-renders only the rows a frame
rerolled.  Both are pure host-side optimisations, so the bytes they
produce must not move.  Each case hashes one fixed-seed stream or run
and compares it with the value recorded from the full-frame
implementation.

The run cases cover every write-path classifier: the SoA kernel (MAB,
GAB+DCC), the set-local replay (injected collisions, the eager MACH
buffer's ordered dump), the per-block walk that is their oracle
(:mod:`tests.mach_oracle`, substituted for the write engine), the raw
DCC path, concealed frames (bit errors), and a
:class:`~repro.video.trace.FrameTrace` source whose frames are views
into one array.

The CO-MACH cases pin the write engine itself under narrowed digests,
where detected collisions, side-cache spills and side-cache hits are
common: every frame's layout, write lines and dump order, and the
run's :class:`~repro.core.mach.MachStats`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, replace
from typing import Callable, Dict, Tuple

import pytest

from repro.config import (
    DCC_ONLY,
    GAB,
    GAB_DCC,
    MAB,
    FaultConfig,
    SimulationConfig,
)
from repro.core.mach import MachStats
from repro.core.pipeline import simulate
from repro.core.results import RunResult
from repro.faults import FaultPlan
from repro.video import workload
from repro.video.synthesis import SyntheticVideo
from repro.video.trace import FrameTrace

from .mach_oracle import CollidingEngine, substitute_walk

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


def _walk_run() -> RunResult:
    with substitute_walk():
        return simulate(workload("V8"), GAB, n_frames=48)


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
    "GAB_scalar": _walk_run,
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


#: CO-MACH writeback cases: (scheme, unbounded MACH, faults).  Each
#: writes 24 frames of V8 through a narrowed engine.
COMACH_CASES = {
    "MAB": (MAB, False, FaultConfig()),
    "GAB_DCC": (GAB_DCC, False, FaultConfig()),
    "GAB_faulted": (GAB, False, _FAULTS),
    "GAB_unbounded": (GAB, True, FaultConfig()),
    "MAB_unbounded_unverified": (MAB, True, FaultConfig(
        digest_collision=0.05, verify_digests=False, seed=2)),
}

COMACH_GOLDEN: Dict[str, str] = {
    "GAB_DCC":
        "94ebee510997508be4927bf6f16e1c000f036f31432f0ae8d8be20679343ff92",
    "GAB_faulted":
        "047fa000fad4263b8406dd54cc59a28418b1f9047ac6fc7953c603f9d7f8db8e",
    "GAB_unbounded":
        "55f434acc59e23db76937a160bb164d00e4307629e744cd16b8a8a9c3db05acc",
    "MAB":
        "8e6fe9d2e9ad57614a10f57c7f66b712cca862044c5b6c5dcacb2d7df9e609b8",
    "MAB_unbounded_unverified":
        "7e055a5cc22ad64042485066be840bde7f696da0c5d58deda7e043cbcc6611d4",
}


def comach_run(name: str) -> Tuple[str, MachStats]:
    """sha256 over one CO-MACH case's frames and stats, and the stats."""
    scheme, unbounded, faults = COMACH_CASES[name]
    cfg = SimulationConfig()
    mach = replace(cfg.with_scheme_mach(scheme).scaled_for(cfg.video),
                   co_mach=True)
    engine = CollidingEngine(
        cfg.video, mach, scheme, cfg.dram.line_bytes,
        unbounded_mach=unbounded, fault_plan=FaultPlan.from_config(faults))
    digest = hashlib.sha256()
    frames = SyntheticVideo(cfg.video, workload("V8"), seed=5, n_frames=24)
    for i, frame in enumerate(frames):
        out = engine.process_frame(frame, (32 + 4 * (i % 3)) << 20)
        layout = out.layout
        for array in (layout.kinds, layout.pointers, layout.digests,
                      out.write_lines):
            digest.update(array.tobytes())
        digest.update(repr((
            layout.table_base, layout.bases_base, layout.data_base,
            layout.data_bytes, layout.dump_base, layout.dump_bytes,
            out.matches, out.bytes_written,
            list(out.dump.table.items()))).encode("utf-8"))
    stats = engine.stats
    assert stats is not None
    # The match counter is a multiset: its insertion order is not pinned.
    digest.update(repr((
        [(f.name, getattr(stats, f.name)) for f in fields(stats)
         if f.name != "match_counter"],
        sorted(stats.match_counter.items()))).encode("utf-8"))
    return digest.hexdigest(), stats


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


@pytest.mark.parametrize("name", sorted(COMACH_CASES))
def test_comach_golden(name):
    hexdigest, stats = comach_run(name)
    # The case really exercises CO-MACH: detected collisions, and
    # side-cache hits wherever there is a side cache.
    assert stats.detected_collisions > 0
    assert stats.co_mach_hits > 0 or COMACH_CASES[name][1]
    assert hexdigest == COMACH_GOLDEN[name]


def test_every_comach_case_is_pinned():
    assert sorted(COMACH_GOLDEN) == sorted(COMACH_CASES)
