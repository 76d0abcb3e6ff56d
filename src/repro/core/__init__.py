"""The paper's contribution: MACH content caching, display caching, and
the Race-to-Sleep pipeline that ties every substrate together."""

from .energy import EnergyBreakdown
from .gradient import from_gradient, to_gradient
from .mach import FrozenMach, MachRing
from .pipeline import simulate
from .pipelines import RecordingPipeline, RenderPipeline
from .related_work import simulate_slack_dvfs
from .results import RunResult, SchemeComparison, compare_schemes
from .session import Pause, Play, SessionResult, simulate_session

__all__ = [
    "EnergyBreakdown",
    "from_gradient",
    "to_gradient",
    "FrozenMach",
    "MachRing",
    "simulate",
    "RecordingPipeline",
    "RenderPipeline",
    "simulate_slack_dvfs",
    "RunResult",
    "SchemeComparison",
    "compare_schemes",
    "Pause",
    "Play",
    "SessionResult",
    "simulate_session",
]
