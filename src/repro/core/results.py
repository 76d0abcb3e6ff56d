"""Run results and cross-scheme comparison containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Dict, List, Optional, Sequence

import numpy as np

from ..decoder.power import PowerState
from ..jsonable import FloatArray, Jsonable, jsonable
from ..memory.controller import AccessStats
from .energy import EnergyBreakdown
from .readpath import ReadStats
from .writeback import FrameMatches


@jsonable
@dataclass
class FrameTimeline(Jsonable):
    """Per-frame time/energy splits, the substance of Figs. 2 and 4.

    All arrays are indexed by frame.  Slack decisions made after a
    batch are attributed evenly to the batch's frames, which is how the
    paper presents per-frame transition overheads under batching.
    """

    decode_time: FloatArray  # s per frame
    exec_energy: FloatArray  # J per frame
    idle_time: FloatArray  # s per frame
    s1_time: FloatArray  # s per frame
    s3_time: FloatArray  # s per frame
    transition_time: FloatArray  # s per frame
    idle_energy: FloatArray  # J per frame
    s1_energy: FloatArray  # J per frame
    s3_energy: FloatArray  # J per frame
    transition_energy: FloatArray  # J per frame
    finish: FloatArray  # s, absolute decode-finish times
    deadline: FloatArray  # s, absolute display deadlines
    dropped: Annotated[np.ndarray, np.bool_]

    @classmethod
    def empty(cls, n: int) -> "FrameTimeline":
        zeros = lambda: np.zeros(n, dtype=np.float64)  # noqa: E731
        return cls(
            decode_time=zeros(), exec_energy=zeros(), idle_time=zeros(),
            s1_time=zeros(), s3_time=zeros(), transition_time=zeros(),
            idle_energy=zeros(), s1_energy=zeros(), s3_energy=zeros(),
            transition_energy=zeros(), finish=zeros(), deadline=zeros(),
            dropped=np.zeros(n, dtype=bool),
        )

    @property
    def total_time(self) -> np.ndarray:
        """Per-frame wall time across all accounted states."""
        return (self.decode_time + self.idle_time + self.s1_time
                + self.s3_time + self.transition_time)

    @property
    def total_energy(self) -> np.ndarray:
        return (self.exec_energy + self.idle_energy + self.s1_energy
                + self.s3_energy + self.transition_energy)


@jsonable
@dataclass
class RunResult(Jsonable):
    """Everything one (video, scheme) simulation produced.

    The matrix runner checkpoints finished jobs through
    :mod:`repro.jsonable`, so the JSON must round-trip bit-identically:
    field order is the wire format, and a new field needs a default so
    older checkpoints still load.
    """

    profile_key: str
    scheme_name: str
    n_frames: int
    elapsed: float
    energy: EnergyBreakdown
    drops: int
    residency: Dict[PowerState, float]
    transitions: int
    timeline: FrameTimeline
    matches: Optional[FrameMatches]  # aggregate census; None for raw schemes
    write_bytes: int  # total frame-buffer bytes written
    raw_write_bytes: int  # what RAW layout would have written
    read_stats: Optional[ReadStats]
    mem_stats: AccessStats
    peak_footprint_native_mb: float
    silent_collisions: int = 0
    detected_collisions: int = 0
    #: Fault-injection resilience counters (zero on clean runs).
    concealed_blocks: int = 0
    injected_collisions: int = 0
    fallback_writes: int = 0
    #: Thermal-pressure counters (zero when ThermalConfig is disabled).
    throttle_seconds: float = 0.0  # s of the run with boost revoked
    degradation_steps: int = 0  # summed ladder levels across wake plans
    frames_at_nominal: int = 0  # racing frames decoded at the low freq

    @property
    def activations(self) -> int:
        return self.mem_stats.activations

    @property
    def bursts(self) -> int:
        return self.mem_stats.bursts

    @property
    def drop_rate(self) -> float:
        return self.drops / self.n_frames if self.n_frames else 0.0

    @property
    def write_savings(self) -> float:
        """Fractional VD-side write saving vs RAW (Fig. 9a)."""
        if not self.raw_write_bytes:
            return 0.0
        return 1.0 - self.write_bytes / self.raw_write_bytes

    @property
    def read_savings(self) -> float:
        """Fractional DC-side access saving vs RAW (Fig. 10e)."""
        return self.read_stats.savings if self.read_stats else 0.0

    @property
    def deep_sleep_residency(self) -> float:
        return self.residency.get(PowerState.S3, 0.0)

    def summary(self) -> Dict[str, float]:
        """Flat dict of headline metrics (for tables and reports)."""
        return {
            "energy_mj_per_frame": self.energy.per_frame_mj(self.n_frames),
            "drop_rate": self.drop_rate,
            "s3_residency": self.deep_sleep_residency,
            "write_savings": self.write_savings,
            "read_savings": self.read_savings,
            "transitions": float(self.transitions),
        }


@dataclass
class SchemeComparison:
    """Results of several schemes on one video, baseline-normalized."""

    profile_key: str
    results: List[RunResult] = field(default_factory=list)

    @property
    def baseline(self) -> RunResult:
        return self.results[0]

    def normalized_energy(self) -> Dict[str, float]:
        """Total energy of each scheme relative to the first (baseline)."""
        base = self.baseline.energy.total
        return {r.scheme_name: r.energy.total / base for r in self.results}

    def normalized_components(self) -> Dict[str, Dict[str, float]]:
        """Per-component stacks relative to baseline total (Fig. 11 bars)."""
        base = self.baseline.energy
        return {
            r.scheme_name: r.energy.normalized_to(base) for r in self.results
        }

    def savings(self, scheme_name: str) -> float:
        normalized = self.normalized_energy()
        return 1.0 - normalized[scheme_name]


def compare_schemes(results: Sequence[RunResult]) -> SchemeComparison:
    """Bundle same-video results; the first result is the baseline."""
    if not results:
        raise ValueError("need at least one result")
    keys = {r.profile_key for r in results}
    if len(keys) != 1:
        raise ValueError(f"results span multiple videos: {sorted(keys)}")
    return SchemeComparison(profile_key=results[0].profile_key,
                            results=list(results))
