"""End-to-end playback simulation (the paper's Fig. 1b flow).

One :func:`simulate` call plays one video through one scheme:

1. the network model buffers encoded frames;
2. the Race-to-Sleep governor wakes the VD, which decodes a batch —
   generating encoded-stream reads, reference reads, and the content-
   caching write path's frame-buffer writes;
3. slack after each batch goes to the deepest profitable sleep state;
4. the display controller scans a frame out at every vsync through the
   display-caching read path, detecting drops;
5. every memory access (plus background masters) flows through the
   LPDDR3 row-buffer model;
6. the run is integrated into the nine-part energy breakdown.

Timing is event-driven at frame granularity; memory traffic carries
per-access timestamps so DRAM row interleaving is faithful.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import (
    SchemeConfig,
    SimulationConfig,
)
from ..decoder.power import (
    PowerState,
    PowerTracker,
    SleepDecision,
    plan_slack,
)
from ..decoder.vd import VideoDecoder
from ..display.controller import DisplayController
from ..faults import FaultPlan, conceal_blocks
from ..display.framebuffer import FrameBufferPool
from ..thermal import ThermalModel
from ..memory.address import RegionMap
from ..memory.controller import MemoryController
from ..memory.energy import memory_energy
from ..video.frame import DecodedFrame, FrameType
from ..video.synthesis import SyntheticVideo, VideoProfile
from ..video.trace import FrameTrace
from .batching import FrameSource, NetworkModel
from .energy import build_breakdown
from .race_to_sleep import AdaptiveRtSGovernor, RaceToSleepGovernor
from .readpath import DisplayReadEngine
from .results import FrameTimeline, RunResult
from .writeback import (
    FrameMatches,
    WritebackEngine,
    WritebackResult,
    slot_bytes_needed,
)

#: Refresh intervals between a frame's decode slot and its display: the
#: VD is called in slot f and the frame must be in the buffer by the
#: next vsync (paper Sec. 2.1 — a 16 ms decode budget per frame).
DISPLAY_LEAD = 1


def _uniform_times(rng: np.random.Generator, start: float, end: float,
                   count: int) -> np.ndarray:
    """Randomized arrival times over a window, order preserved.

    Per-macroblock decode times (and DC line-buffer refills) vary, so a
    stream's accesses drift across its window instead of marching on a
    fixed grid; using uniform order statistics keeps the stream's
    density while preventing artificial bank-sweep phase-lock between
    agents.
    """
    if count <= 0:
        return np.empty(0, dtype=np.float64)
    times = rng.uniform(start, end, size=count)
    times.sort()
    return times


class _TrafficLog:
    """Accumulates timestamped accesses from all agents."""

    def __init__(self) -> None:
        self._times: List[np.ndarray] = []
        self._addresses: List[np.ndarray] = []
        self._writes: List[np.ndarray] = []
        self._agents: List[str] = []

    def add(self, agent: str, times: np.ndarray, addresses: np.ndarray,
            is_write: bool) -> None:
        if len(times) == 0:
            return
        self._times.append(np.asarray(times, dtype=np.float64))
        self._addresses.append(np.asarray(addresses, dtype=np.int64))
        self._writes.append(
            np.full(len(times), is_write, dtype=bool))
        self._agents.append(agent)

    def drain(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                             Dict[str, np.ndarray]]:
        if not self._times:
            empty = np.empty(0)
            return empty, empty.astype(np.int64), empty.astype(bool), {}
        times = np.concatenate(self._times)
        addresses = np.concatenate(self._addresses)
        writes = np.concatenate(self._writes)
        masks: Dict[str, np.ndarray] = {}
        cursor = 0
        bounds: Dict[str, List[Tuple[int, int]]] = {}
        for agent, chunk in zip(self._agents, self._times):
            bounds.setdefault(agent, []).append((cursor, cursor + len(chunk)))
            cursor += len(chunk)
        for agent, spans in bounds.items():
            mask = np.zeros(len(times), dtype=bool)
            for start, end in spans:
                mask[start:end] = True
            masks[agent] = mask
        return times, addresses, writes, masks


def _resolve_source(
    source: VideoSource, cfg: SimulationConfig, n_frames: Optional[int],
    seed: int,
) -> Tuple[Iterable[DecodedFrame], int, str, SimulationConfig]:
    """Turn the ``source`` argument into (stream, count, key, config).

    Accepts a :class:`VideoProfile` (the synthetic generator path), a
    :class:`~repro.video.trace.FrameTrace` (recorded/real content — its
    geometry overrides the configured one), or any sized iterable of
    :class:`DecodedFrame`.
    """
    from ..video.trace import FrameTrace  # local: avoid import cycle

    if isinstance(source, VideoProfile):
        count = n_frames if n_frames is not None else source.n_frames
        stream = SyntheticVideo(
            cfg.video, source, seed=seed, n_frames=count,
            complexity_sigma=cfg.calibration.complexity_sigma)
        return stream, count, source.key, cfg
    if isinstance(source, FrameTrace):
        count = len(source)
        if n_frames is not None:
            count = min(count, n_frames)
        cfg = replace(cfg, video=source.video_config)
        return source, count, "trace", cfg
    # A generic sized iterable of DecodedFrame.
    count = len(source)
    if n_frames is not None:
        count = min(count, n_frames)
    key = getattr(source, "key", "stream")
    return source, count, key, cfg


#: What :func:`simulate` accepts as content: a Table-1 profile, a
#: captured trace, or any sized iterable of decoded frames.
VideoSource = Union[VideoProfile, FrameTrace, Sequence[DecodedFrame]]


def simulate(
    source: VideoSource,
    scheme: SchemeConfig,
    n_frames: Optional[int] = None,
    config: Optional[SimulationConfig] = None,
    seed: int = 0,
    unbounded_mach: bool = False,
    use_display_cache: bool = True,
    use_mach_buffer: bool = True,
    buffer_policy: str = "lazy",
    network_model: Optional[FrameSource] = None,
    block_loss_overlay: Optional[Mapping[int, np.ndarray]] = None,
) -> RunResult:
    """Simulate playback of ``source`` under ``scheme``.

    The write path classifies each frame's MACH lookups in one batch
    (:class:`~repro.core.writeback.WritebackEngine`); the test suite
    holds it bit-identical to the per-block walk of the paper's MACH.

    Args:
        source: what to play — a :class:`VideoProfile` (Table 1 entry
            or custom), a :class:`~repro.video.trace.FrameTrace`, or
            any sized iterable of :class:`DecodedFrame`.
        scheme: which technique stack to run (e.g. ``config.GAB``).
        n_frames: frames to play (defaults to the source's full count).
        config: simulation configuration (defaults are the paper's).
        seed: RNG seed for content and background traffic.
        unbounded_mach: replace MACH with the capacity-free oracle
            ("optimal" in Fig. 9a).
        use_display_cache / use_mach_buffer: ablation switches for the
            display read path (Fig. 10e's "original layout" bar).
        buffer_policy: MACH-buffer fill policy ('lazy' or 'eager').
        network_model: frame-arrival source; defaults to the chunked
            :class:`NetworkModel` stub from ``config.network``.  Pass
            a :class:`repro.network.DeliveredNetworkModel` to drive
            availability (and hence the Race-to-Sleep batch cap) from
            a trace-driven delivery run.
        block_loss_overlay: per-frame macroblock indices lost upstream
            of the decoder (the realtime mode's unrecovered packets,
            :meth:`repro.realtime.RealtimeResult.block_overlay`).
            They conceal through the same path as injected bit errors
            — the union of both sources, so composing them never
            reshuffles either schedule.  ``None`` (default) is inert.

    Returns:
        A :class:`RunResult` with the energy breakdown and statistics.
    """
    cfg = config or SimulationConfig()
    stream, count, profile_key, cfg = _resolve_source(
        source, cfg, n_frames, seed)
    video_cfg = cfg.video
    mach_cfg = cfg.with_scheme_mach(scheme)
    # Hardware power/overhead numbers use the paper-spec MACH; the
    # behavioural structures are capacity-scaled to the sim resolution.
    sim_mach_cfg = mach_cfg.scaled_for(video_cfg)

    # --- memory layout -----------------------------------------------------
    regions = RegionMap(cfg.dram)
    network_region = regions.add("network", 1 << 20)
    # Displayed frames stay resident while still referenced: as motion
    # references for the next frame's decode (all schemes), and as MACH
    # pointer donors for up to num_machs frames (MACH schemes).
    retention = mach_cfg.num_machs if scheme.uses_mach else 1
    slots = scheme.batch_size + 2 + retention
    slot_bytes = slot_bytes_needed(video_cfg, sim_mach_cfg, scheme)
    row_span = cfg.dram.row_bytes * cfg.dram.channels
    slot_bytes = (slot_bytes + row_span - 1) // row_span * row_span
    pool_span = slots * (slot_bytes
                         + row_span * FrameBufferPool.PHASE_SLOTS)
    fb_region = regions.add("framebuffers", pool_span)
    other_region = regions.add("other", 4 << 20)

    # The simulated traffic is a 1/scale sample of the native stream, so
    # the time-domain controller parameters (row-open timeout and the
    # FR-FCFS quantum) are stretched by the same factor to preserve the
    # interleaving statistics (DESIGN.md section 2).
    scale = video_cfg.scale_to_native
    dram_cfg = replace(
        cfg.dram,
        row_max_open=cfg.dram.row_max_open * scale,
        scheduler_quantum=cfg.dram.scheduler_quantum * scale,
    )
    memory = MemoryController(dram_cfg)

    # --- components -----------------------------------------------------------
    network = (network_model if network_model is not None
               else NetworkModel(cfg.network, video_cfg.fps, count))
    # Thermal pressure (inert by default): junction temperature, the
    # sustained-power cap, and injected throttle events can revoke the
    # boost frequency mid-session; the adaptive governor degrades
    # gracefully, the fixed one discovers the revocation at decode.
    thermal = ThermalModel(cfg.thermal) if cfg.thermal.enabled else None
    adaptive: Optional[AdaptiveRtSGovernor] = None
    if (thermal is not None and cfg.thermal.adaptive and scheme.racing
            and scheme.batch_size > 1):
        adaptive = AdaptiveRtSGovernor(scheme, cfg.decoder, network,
                                       video_cfg.frame_interval,
                                       DISPLAY_LEAD, thermal)
    governor: RaceToSleepGovernor = (
        adaptive if adaptive is not None
        else RaceToSleepGovernor(scheme, cfg.decoder, network,
                                 video_cfg.frame_interval, DISPLAY_LEAD))
    pool = FrameBufferPool(fb_region.base, slot_bytes, slots,
                           retention=retention, phase_span=row_span)
    vd = VideoDecoder(cfg.decoder, video_cfg, cfg.dram.line_bytes)
    # Fault injection (inert by default): bit errors conceal from the
    # previous frame, digest collisions trigger the MACH verify
    # fallback.  The plan is a pure function of the fault seed, so a
    # faulted run is exactly as deterministic as a clean one.
    fault_plan = FaultPlan.from_config(cfg.faults)
    # The eager MACH-buffer prefetch consumes the frozen dump's
    # iteration order, so the write path must emit it in the MACH's
    # (set, way-slot) order, which its set-local replay does.
    writeback = WritebackEngine(
        video_cfg, sim_mach_cfg, scheme, cfg.dram.line_bytes,
        unbounded_mach=unbounded_mach, fault_plan=fault_plan,
        ordered_dump=use_mach_buffer and buffer_policy == "eager")
    display = DisplayController(cfg.display, cfg.calibration.display_scan_duty)
    reader = DisplayReadEngine(
        cfg.display, sim_mach_cfg, video_cfg, cfg.dram.line_bytes,
        use_display_cache=use_display_cache,
        use_mach_buffer=use_mach_buffer,
        buffer_policy=buffer_policy,
    )
    tracker = PowerTracker(cfg.decoder.power_states)
    psc = cfg.decoder.power_states
    transition_scale = (psc.racing_transition_factor
                        if scheme.racing else 1.0)

    def slack_scale(at: float) -> float:
        """Transition-energy scale for a sleep entered around ``at``.

        Racing pays the inflated transition cost only while boost is
        actually granted; without a thermal model this is the static
        per-scheme factor (bit-identical to the pre-thermal path)."""
        if thermal is None:
            return transition_scale
        if scheme.racing and thermal.boost_available(at):
            return psc.racing_transition_factor
        return 1.0

    def advance_thermal_slack(decision: SleepDecision, upto: float) -> None:
        """Drive the thermal model over a slack decision's power mix."""
        if thermal is None:
            return
        total = decision.total_time
        if total <= 0:
            return
        if decision.state is PowerState.S1:
            sleep_power = psc.s1_power
        elif decision.state is PowerState.S3:
            sleep_power = psc.s3_power
        else:
            sleep_power = 0.0
        average = (decision.idle_time * psc.p_idle_power
                   + decision.sleep_time * sleep_power
                   + decision.transition_energy) / total
        thermal.advance_to(upto, average)
    traffic = _TrafficLog()
    rng = np.random.default_rng(seed + 0x5EED)
    timeline = FrameTimeline.empty(count)

    completed: Dict[int, WritebackResult] = {}
    finish_times: Dict[int, float] = {}
    skipped: set = set()
    state = {"display_cursor": 0, "last_shown": None}

    def deadline(index: int) -> float:
        return governor.deadline(index)

    raw_frame_lines = video_cfg.frame_bytes / cfg.dram.line_bytes

    def scan_window_for(vsync: float, line_count: int) -> Tuple[float, float]:
        """The DC fetches at its fixed line rate, so a compacted frame
        finishes early instead of stretching over the whole refresh."""
        full = video_cfg.frame_interval * cfg.calibration.display_scan_duty
        density = min(1.0, line_count / raw_frame_lines)
        return vsync, vsync + full * max(density, 0.05)

    def advance_display(upto: float) -> None:
        """Process every vsync whose refresh begins at or before ``upto``."""
        while state["display_cursor"] < count:
            v = state["display_cursor"]
            vsync = deadline(v)
            if vsync > upto + 1e-12:
                break
            window = (vsync, vsync
                      + video_cfg.frame_interval
                      * cfg.calibration.display_scan_duty)
            ready = v in finish_times and finish_times[v] <= vsync + 1e-12
            display.record_refresh(v, ready)
            if ready:
                scan = reader.scan(completed[v], window)
                burst_window = scan_window_for(vsync, scan.count)
                traffic.add("dc",
                            _uniform_times(rng, burst_window[0],
                                           burst_window[1], scan.count),
                            scan.addresses, is_write=False)
                pool.mark_displayed(v)
                state["last_shown"] = v
                timeline.dropped[v] = False
            else:
                timeline.dropped[v] = True
                if v in finish_times:
                    # Decoded too late to be shown: retire immediately.
                    pool.mark_displayed(v)
                else:
                    skipped.add(v)
                shown = state["last_shown"]
                if shown is not None:
                    rescan = reader.scan(completed[shown], window)
                    burst_window = scan_window_for(vsync, rescan.count)
                    traffic.add("dc",
                                _uniform_times(rng, burst_window[0],
                                               burst_window[1],
                                               rescan.count),
                                rescan.addresses, is_write=False)
            state["display_cursor"] += 1

    def batch_buffers_free_time(next_frame: int, now: float,
                                batch_size: Optional[int] = None) -> float:
        """When a ``batch_size`` batch's worth of slots will be free."""
        if batch_size is None:
            batch_size = scheme.batch_size
        free = pool.slots - pool.live_count
        need = min(batch_size, count - next_frame) - free
        if need <= 0:
            return now
        live = pool.live_indices
        if need > len(live):
            need = len(live)
        victim = live[need - 1]
        return deadline(victim + pool.retention)

    # --- main decode loop ---------------------------------------------------------
    frames_iter = iter(stream)
    now = 0.0
    next_frame = 0
    last_batch_size = 1
    raw_write_bytes = 0
    total_write_bytes = 0
    match_totals = [0, 0, 0]
    prev_blocks = None  # last decoded frame's content, for concealment
    concealed_total = 0
    frames_at_nominal = 0  # racing frames forced to the low frequency

    while next_frame < count:
        advance_display(now)
        if thermal is not None:
            # Catch up over stall jumps the tracker does not record.
            thermal.advance_to(now, psc.p_idle_power)
        if adaptive is not None:
            def buffers_free_for(candidate: int) -> float:
                return batch_buffers_free_time(next_frame, now, candidate)
            plan = adaptive.plan_wake_adaptive(now, next_frame,
                                               buffers_free_for)
            batch_cap = plan.batch_cap
            allow_s3 = plan.allow_s3
        else:
            plan = governor.plan_wake(
                now, next_frame, batch_buffers_free_time(next_frame, now))
            batch_cap = scheme.batch_size
            allow_s3 = True
        if plan.wake_time > now + 1e-12:
            slack = plan.wake_time - now
            decision = plan_slack(slack, cfg.decoder.power_states,
                                  slack_scale(now), allow_s3=allow_s3)
            tracker.record_slack(decision)
            _attribute_slack(timeline, decision, next_frame, cfg,
                             batch=last_batch_size)
            advance_thermal_slack(decision, plan.wake_time)
            now = plan.wake_time
            advance_display(now)
            if thermal is not None and decision.transition_time > 0:
                delay = thermal.wake_delay(now)
                if delay > 0:
                    # Injected slow frequency ramp out of sleep: the VD
                    # sits powered-on idle before decode can start.
                    # Both governors pay it; only the adaptive one
                    # planned its wake early enough to absorb it.
                    stall = SleepDecision(PowerState.SHORT_SLACK, 0.0,
                                          delay, 0.0, 0.0)
                    tracker.record_slack(stall)
                    _attribute_slack(timeline, stall, next_frame, cfg,
                                     batch=last_batch_size)
                    thermal.advance_to(now + delay, psc.p_idle_power)
                    now += delay
                    advance_display(now)

        available = network.frames_available(now) - next_frame
        free = pool.slots - pool.live_count
        batch = min(batch_cap, available, free, count - next_frame)
        if batch < 1:
            # Stalled on the network or on buffer drain: jump to the
            # earliest event that unblocks us.
            unblock = max(
                network.time_when_available(next_frame + 1),
                batch_buffers_free_time(next_frame, now, batch_cap)
                if free < 1 else now,
            )
            now = max(unblock, now + video_cfg.frame_interval / 4)
            continue

        for _ in range(batch):
            frame = next(frames_iter)
            index = frame.index
            start = now
            if scheme.batch_size == 1:
                start = max(start, governor.call_time(index))
                if start > now + 1e-12:
                    decision = plan_slack(start - now,
                                          cfg.decoder.power_states,
                                          slack_scale(now))
                    tracker.record_slack(decision)
                    _attribute_slack(timeline, decision, index, cfg)
                    advance_thermal_slack(decision, start)
            racing_now = scheme.racing
            if thermal is not None and scheme.racing:
                racing_now = thermal.boost_available(start)
                if not racing_now:
                    frames_at_nominal += 1
            duration = vd.decode_duration(frame, racing_now)
            power = cfg.decoder.active_power(racing_now)
            finish = start + duration
            if thermal is not None:
                thermal.advance_to(finish, power)
            slot = pool.admit(index)

            reference_base = None
            if frame.frame_type is not FrameType.I and index > 0:
                previous = index - 1
                if pool.is_live(previous):
                    reference_base = pool.slot(previous).base
            reads = vd.read_traffic(
                frame, start, finish,
                encoded_base=network_region.base
                + (index * 4096) % (network_region.size // 2),
                reference_base=reference_base,
                rng=rng,
            )
            traffic.add("vd_read", reads.times, reads.addresses,
                        is_write=False)

            if fault_plan is not None or block_loss_overlay is not None:
                corrupt = (fault_plan.corrupt_block_indices(
                    index, frame.n_blocks, frame.block_bytes)
                    if fault_plan is not None
                    else np.empty(0, dtype=np.int64))
                if block_loss_overlay is not None:
                    lost = block_loss_overlay.get(index)
                    if lost is not None and len(lost):
                        corrupt = np.union1d(
                            corrupt, np.asarray(lost, dtype=np.int64))
                if len(corrupt):
                    # Conceal into a pipeline-local frame: the caller
                    # owns the source frame and its buffer (a list may
                    # be replayed, a stream may derive later frames
                    # from it), and neither may inherit the receiver's
                    # damage.
                    frame = replace(frame, blocks=frame.blocks.copy())
                    concealed_total += conceal_blocks(
                        frame.blocks, corrupt, prev_blocks)
                    # Concealment re-reads each co-located block from
                    # the previous frame's buffer: extra memory
                    # traffic the fault-free path never pays.
                    if index > 0 and pool.is_live(index - 1):
                        conceal_base = pool.slot(index - 1).base
                        line = cfg.dram.line_bytes
                        conceal_addrs = (conceal_base
                                         + (corrupt * frame.block_bytes)
                                         // line * line)
                        traffic.add(
                            "vd_read",
                            _uniform_times(rng, start, finish,
                                           len(conceal_addrs)),
                            conceal_addrs, is_write=False)
            prev_blocks = frame.blocks

            result = writeback.process_frame(frame, slot.base)
            write_times = _uniform_times(rng, start, finish,
                                         len(result.write_lines))
            traffic.add("vd_write", write_times, result.write_lines,
                        is_write=True)
            pool.set_footprint(index, result.bytes_written)
            completed[index] = result
            finish_times[index] = finish
            raw_write_bytes += result.layout.raw_bytes
            total_write_bytes += result.bytes_written
            match_totals[0] += result.matches.intra
            match_totals[1] += result.matches.inter
            match_totals[2] += result.matches.none

            tracker.record_execution(duration, power)
            timeline.decode_time[index] = duration
            timeline.exec_energy[index] = duration * power
            timeline.finish[index] = finish
            timeline.deadline[index] = deadline(index)

            if index in skipped:
                pool.mark_displayed(index)  # stale frame: retire at once
            now = finish
            advance_display(now)
        next_frame += batch
        last_batch_size = batch

    # Flush the remaining display schedule and trailing slack.
    end_time = deadline(count - 1) + video_cfg.frame_interval
    if end_time > now:
        decision = plan_slack(end_time - now, cfg.decoder.power_states,
                              slack_scale(now))
        tracker.record_slack(decision)
        _attribute_slack(timeline, decision, count, cfg,
                         batch=last_batch_size)
        advance_thermal_slack(decision, end_time)
        now = end_time
    advance_display(end_time)

    # --- background masters ---------------------------------------------------------
    frame_lines = video_cfg.frame_bytes // cfg.dram.line_bytes
    bg_per_interval = (2 * frame_lines
                       * cfg.calibration.other_traffic_fraction)
    bg_count = int(bg_per_interval * end_time / video_cfg.frame_interval)
    if bg_count:
        # CPU/GPU masters fetch in short sequential runs (cache refills),
        # not isolated random lines.
        run = 16
        n_runs = max(1, bg_count // run)
        run_starts = np.sort(rng.uniform(0.0, end_time, size=n_runs))
        line_time = 8e-9 * scale  # back-to-back line transfers, scaled
        bg_times = (run_starts[:, None]
                    + np.arange(run)[None, :] * line_time).ravel()
        region_lines = other_region.size // cfg.dram.line_bytes
        bg_line_starts = rng.integers(0, region_lines - run, size=n_runs)
        bg_lines = (bg_line_starts[:, None] + np.arange(run)[None, :]).ravel()
        bg_addrs = other_region.base + bg_lines * cfg.dram.line_bytes
        traffic.add("other", bg_times, bg_addrs, is_write=False)

    # --- memory + energy integration ----------------------------------------------
    times, addresses, writes, masks = traffic.drain()
    memory.process_window(times, addresses, writes, masks)
    mem_energy = memory_energy(dram_cfg, memory.stats, end_time).scaled(
        video_cfg.scale_to_native)
    breakdown = build_breakdown(tracker, mem_energy, cfg.display, mach_cfg,
                                scheme, end_time)

    mach_stats = writeback.stats
    matches = FrameMatches(*match_totals) if scheme.uses_mach else None
    return RunResult(
        profile_key=profile_key,
        scheme_name=scheme.name,
        n_frames=count,
        elapsed=end_time,
        energy=breakdown,
        drops=display.stats.drops,
        residency={s: tracker.residency(s) for s in PowerState},
        transitions=tracker.transitions,
        timeline=timeline,
        matches=matches,
        write_bytes=total_write_bytes,
        raw_write_bytes=raw_write_bytes,
        read_stats=reader.stats if scheme.uses_mach else None,
        mem_stats=memory.stats,
        peak_footprint_native_mb=pool.peak_footprint
        * video_cfg.scale_to_native / (1 << 20),
        silent_collisions=mach_stats.silent_collisions if mach_stats else 0,
        detected_collisions=(mach_stats.detected_collisions
                             if mach_stats else 0),
        concealed_blocks=concealed_total,
        injected_collisions=(mach_stats.injected_collisions
                             if mach_stats else 0),
        fallback_writes=mach_stats.fallback_writes if mach_stats else 0,
        throttle_seconds=(thermal.throttle_seconds
                          if thermal is not None else 0.0),
        degradation_steps=(adaptive.degradation_steps
                           if adaptive is not None else 0),
        frames_at_nominal=frames_at_nominal,
    )


def _attribute_slack(timeline: FrameTimeline, decision: SleepDecision,
                     upto_frame: int, cfg: SimulationConfig,
                     batch: int = 1) -> None:
    """Attribute a slack decision across the batch just decoded.

    The paper presents per-frame overheads with a batch's slack and
    transition cost shared by its frames (Fig. 2d: "transition
    overheads per frame ... reduced by 16x"), so the decision is split
    evenly over the ``batch`` frames ending at ``upto_frame - 1``.
    """
    end = min(upto_frame, len(timeline.decode_time))
    start = max(0, end - max(batch, 1))
    if end <= start:
        return
    share = 1.0 / (end - start)
    psc = cfg.decoder.power_states
    indices = slice(start, end)
    if decision.state is PowerState.S1:
        timeline.s1_time[indices] += decision.sleep_time * share
        timeline.s1_energy[indices] += (
            decision.sleep_time * psc.s1_power * share)
    elif decision.state is PowerState.S3:
        timeline.s3_time[indices] += decision.sleep_time * share
        timeline.s3_energy[indices] += (
            decision.sleep_time * psc.s3_power * share)
    timeline.idle_time[indices] += decision.idle_time * share
    timeline.idle_energy[indices] += (
        decision.idle_time * psc.p_idle_power * share)
    timeline.transition_time[indices] += decision.transition_time * share
    timeline.transition_energy[indices] += decision.transition_energy * share
