"""The benchmark's workloads: operations, set-up and correctness checks.

Every workload is a cycle of *units*; a unit is a short list of
operations run back to back (a closed loop: each starts when the last
returns).  An operation is the call a user waits for:

* ``paper_matrix`` / ``impaired_playback`` — one session,
  ``simulate(...)`` (or ``realtime_playback(...)``) plus
  ``RunResult.to_jsonable()``, as ``repro run --json`` and
  ``run_matrix`` checkpoints pay it;
* ``fleet_population`` — one fleet study: serial ``run_fleet`` and
  ``run_fleet_supervised`` (2 workers, 2 shards) on the same spec,
  seed and size, each plus ``FleetResult.to_jsonable()``.

Inputs are a pure function of the benchmark seed.  Checks run outside
the timed interval: an operation fails if it raises, if its result
JSON does not round-trip byte-identically through ``from_jsonable``,
or (fleet) if the supervised result differs from the serial one.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import (
    BASELINE,
    FIG11_SCHEMES,
    GAB,
    GAB_DCC,
    MAB,
    RACE_TO_SLEEP,
    FaultConfig,
    NetworkConfig,
    RealtimeConfig,
    SchemeConfig,
    SimulationConfig,
    ThermalConfig,
)
from repro.core import pipeline
from repro.core.results import RunResult
from repro.fleet import engine, supervision, surrogate
from repro.fleet.engine import FleetResult
from repro.fleet.population import PopulationModel, default_population
from repro.fleet.supervision import SupervisorConfig
from repro.realtime import session as realtime_session
from repro.realtime.chaos import CHAOS_REGIMES
from repro.units import MBPS
from repro.video import PAPER_WORKLOADS, workload

#: Frames per exact-pipeline session: the length ``repro validate``
#: (and ``census``, ``thermal``) checks the Fig. 11 claims at.
SESSION_FRAMES = 96

#: Sessions per fleet run, serial and supervised alike.
FLEET_SESSIONS = 100_000

IMPAIRED_VIDEOS = ("V1", "V3", "V8", "V12")


@dataclass
class Outcome:
    """What one operation produced, timed part and checks apart."""

    label: str
    seconds: float  # host time of the timed call
    frames: int  # playback frames simulated
    text: str = ""  # result JSON
    error: Optional[str] = None
    stats: Dict[str, Any] = field(default_factory=dict)
    speed: float = 1.0  # host speed around the call (reference.py)

    @property
    def ref_seconds(self) -> float:
        """``seconds`` at reference host speed."""
        return self.seconds * self.speed


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[], Tuple[Any, Dict[str, Any]]]
    check: Callable[[Any, str], Tuple[Optional[str], Dict[str, Any]]]


def execute(op: Op, tracer: Any = None) -> Outcome:
    """Run ``op`` once: time the call, then check its output.

    With a ``tracer``, its wrappers are in place for the timed call
    only, so the checks leave no spans.
    """
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result, payload = op.run()
    except Exception:  # a failed operation is counted, not fatal
        return Outcome(op.label, time.perf_counter() - start, 0,
                       error=traceback.format_exc())
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    text = json.dumps(payload)
    error, stats = op.check(result, text)
    return Outcome(op.label, seconds, int(stats.get("frames", 0)), text,
                   error, stats)


# -- exact-pipeline sessions -------------------------------------------------


def _check_session(result: RunResult,
                   text: str) -> Tuple[Optional[str], Dict[str, Any]]:
    again = json.dumps(RunResult.from_jsonable(json.loads(text)).to_jsonable())
    error = None if again == text else "RunResult JSON round trip differs"
    stats: Dict[str, Any] = {
        "frames": result.n_frames,
        "scheme": result.scheme_name,
        "elapsed": result.elapsed,
        "tracked": float(result.timeline.total_time.sum()),
        "energy": result.energy.total,
        "drops": result.drops,
        "fallback_writes": result.fallback_writes,
        "bytes": len(text),
        "bursts": result.mem_stats.bursts,
        "activations": result.mem_stats.activations,
    }
    if result.matches is not None:
        stats["matched"] = result.matches.intra + result.matches.inter
        stats["blocks"] = result.matches.total
    if result.read_stats is not None:
        read = result.read_stats
        stats["raw_lines"] = read.raw_equivalent_lines
        stats["mem_reads"] = read.mem_reads
        stats["dc_hits"] = read.dc_hits
        stats["dc_requests"] = read.block_line_requests
    return error, stats


def session_op(label: str, source: Any, scheme: SchemeConfig,
               config: SimulationConfig, seed: int,
               **kwargs: Any) -> Op:
    def run() -> Tuple[RunResult, Dict[str, Any]]:
        result = pipeline.simulate(source, scheme, n_frames=SESSION_FRAMES,
                                   config=config, seed=seed, **kwargs)
        return result, result.to_jsonable()

    return Op(label, run, _check_session)


def realtime_op(label: str, profile: Any, scheme: SchemeConfig,
                config: SimulationConfig) -> Op:
    def run() -> Tuple[RunResult, Dict[str, Any]]:
        result = realtime_session.realtime_playback(scheme, config,
                                                    profile=profile)
        return result, result.to_jsonable()

    return Op(label, run, _check_session)


def content_seed(seed: int, index: int) -> int:
    """Per-video content seed; every scheme of a video shares it."""
    return (seed * 1009 + index) % (1 << 31)


def paper_matrix_units(seed: int) -> List[List[Op]]:
    """Table-1 videos x Fig. 11 schemes + GAB+DCC, clean config.

    A unit is one video under all seven schemes, so any whole number
    of units runs the same scheme mix.
    """
    config = SimulationConfig()
    schemes = FIG11_SCHEMES + (GAB_DCC,)
    return [[session_op(f"{profile.key}/{scheme.name}", profile, scheme,
                        config, content_seed(seed, index))
             for scheme in schemes]
            for index, profile in enumerate(PAPER_WORKLOADS)]


def impaired_configs(seed: int) -> Dict[str, SimulationConfig]:
    """The four impairments plus the lossy realtime timeline."""
    base = SimulationConfig()
    bursty = next(r for r in CHAOS_REGIMES if r.key == "bursty-loss")
    return {
        # The ROADMAP's stall config: the network, not the decoder,
        # paces playback, so the governor's batch < 1 branch runs.
        "stall": replace(base, network=NetworkConfig(
            chunk_interval=3.0, preroll_frames=10)),
        "thermal": replace(base, thermal=ThermalConfig(
            enabled=True, seed=seed, event_interval=0.25,
            cap_drop_rate=0.6, cap_drop_duty=0.6,
            delayed_transition_rate=0.5)),
        "faults": replace(base, faults=FaultConfig(
            block_bit_error=2e-4, digest_collision=0.02, seed=seed)),
        "realtime": replace(base, realtime=bursty.apply(RealtimeConfig(
            enabled=True, seed=seed, link_rate=1 * MBPS,
            start_rate=1 * MBPS))),
    }


def impaired_playback_units(seed: int) -> List[List[Op]]:
    """Baseline / Race-to-Sleep / GAB under stalls, thermal and faults,
    one eager MACH-buffer session and one lossy realtime playback.

    The eager scheme (MAB, GAB) and the realtime scheme
    (Race-to-Sleep, GAB) alternate from video to video, so a cycle
    holds each of them twice.
    """
    configs = impaired_configs(seed)
    base = SimulationConfig()
    units = []
    for index, key in enumerate(IMPAIRED_VIDEOS):
        profile = workload(key)
        cseed = content_seed(seed, index)
        unit = [session_op(f"{key}/{kind}/{scheme.name}", profile, scheme,
                           configs[kind], cseed)
                for kind in ("stall", "thermal", "faults")
                for scheme in (BASELINE, RACE_TO_SLEEP, GAB)]
        eager = (MAB, GAB)[index % 2]
        unit.append(session_op(f"{key}/eager/{eager.name}", profile, eager,
                               base, cseed, buffer_policy="eager"))
        live = (RACE_TO_SLEEP, GAB)[index % 2]
        unit.append(realtime_op(f"{key}/realtime/{live.name}", profile,
                                live, configs["realtime"]))
        units.append(unit)
    return units


# -- fleet studies ----------------------------------------------------------------


class Fleet:
    """The calibrated population behind ``fleet_population``."""

    def __init__(self, seed: int, n_sessions: int) -> None:
        self.spec = default_population()
        self.seed = seed
        self.n_sessions = n_sessions
        self.calibration = surrogate.calibrate(self.spec)
        self._frames: Dict[int, int] = {}

    def frames(self, n_sessions: int) -> int:
        """Playback frames one run of ``n_sessions`` prices: the engine
        plays ``rint(duration * fps)`` frames per session."""
        if n_sessions not in self._frames:
            fps = SimulationConfig().video.fps
            model = PopulationModel(self.spec, self.seed)
            total = 0
            for start in range(0, n_sessions, engine.SESSION_CHUNK):
                count = min(engine.SESSION_CHUNK, n_sessions - start)
                chunk = model.draw_chunk(start, count)
                total += int((chunk.duration_seconds * fps).round().sum())
            self._frames[n_sessions] = total
        return self._frames[n_sessions]

    def op(self, n_sessions: Optional[int] = None) -> Op:
        size = n_sessions or self.n_sessions

        def run() -> Tuple[Any, Dict[str, Any]]:
            start = time.perf_counter()
            serial = engine.run_fleet(self.spec, size, seed=self.seed,
                                      calibration=self.calibration)
            payload = serial.to_jsonable()
            middle = time.perf_counter()
            supervised = supervision.run_fleet_supervised(
                self.spec, size, seed=self.seed, shards=2,
                calibration=self.calibration,
                supervisor=SupervisorConfig(workers=2))
            twin = supervised.result.to_jsonable()
            end = time.perf_counter()
            return (twin, supervised.report, middle - start,
                    end - middle), payload

        def check(result: Any,
                  text: str) -> Tuple[Optional[str], Dict[str, Any]]:
            twin, report, serial_s, supervised_s = result
            error = None
            if json.dumps(twin) != text:
                error = "supervised FleetResult differs from serial"
            again = json.dumps(
                FleetResult.from_jsonable(json.loads(text)).to_jsonable())
            if again != text:
                error = "FleetResult JSON round trip differs"
            launches = sum(event.kind in ("launch", "speculate")
                           for event in report.events)
            stripes = len({(event.phase, event.stripe_id)
                           for event in report.events})
            return error, {
                "frames": 2 * self.frames(size),
                "sessions": size,
                "serial_s": serial_s,
                "supervised_s": supervised_s,
                "launches": launches,
                "stripes": stripes,
                "retries": report.retries,
            }

        return Op(f"fleet/{size}", run, check)


@dataclass
class Workload:
    """A named workload: its cycle of units and its warm-up operation."""

    name: str
    units: List[List[Op]]
    warmup: Op


WORKLOADS = ("paper_matrix", "impaired_playback", "fleet_population")


def build(name: str, seed: int) -> Workload:
    """Set up ``name`` for ``seed``; the fleet workload calibrates here."""
    if name == "fleet_population":
        fleet = Fleet(seed, FLEET_SESSIONS)
        return Workload(name, [[fleet.op()]], fleet.op(engine.SESSION_CHUNK))
    if name == "paper_matrix":
        make_units = paper_matrix_units
        warmup = f"{PAPER_WORKLOADS[0].key}/{GAB_DCC.name}"
    elif name == "impaired_playback":
        make_units = impaired_playback_units
        warmup = f"{IMPAIRED_VIDEOS[0]}/thermal/{GAB.name}"
    else:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    # The warm-up ignores the seed, so every run's set-up does the same
    # work.
    op = next(op for op in make_units(0)[0] if op.label == warmup)
    return Workload(name, make_units(seed), op)
