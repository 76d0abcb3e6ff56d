"""Conformance suite: check this build against the paper's claims.

Encodes the paper's quantitative and qualitative claims as runnable
checks, each returning a :class:`ClaimCheck` with the measured value,
the paper's value, and a tolerance band.  ``repro validate`` runs them
from the command line; benchmarks assert a superset of these, but this
module is the compact, user-facing summary ("does my checkout still
reproduce the paper?").

Checks run on a small deterministic workload set, so the whole suite
finishes in about a minute at the default frame count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .analysis import content_census, region_mix, Region
from .config import (
    BASELINE,
    BATCHING,
    FIG11_SCHEMES,
    GAB,
    MAB,
    RACE_TO_SLEEP,
    RACING,
    SchemeConfig,
    SimulationConfig,
)
from .core.pipeline import simulate
from .core.results import RunResult
from .decoder.power import PowerState
from .video import SyntheticVideo, workload

#: Videos used by the validation suite (spanning the content classes).
_VIDEOS = ("V1", "V3", "V8", "V9", "V14")


@dataclass
class ClaimCheck:
    """One paper claim, measured."""

    claim: str
    paper: str
    measured: float
    passed: bool

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] {self.claim}: measured {self.measured:.3f} "
                f"(paper: {self.paper})")


class _Runs:
    """Lazily memoized simulation runs shared by the checks."""

    def __init__(self, frames: int, seed: int,
                 config: Optional[SimulationConfig]) -> None:
        self.frames = frames
        self.seed = seed
        self.config = config or SimulationConfig()
        self._cache: Dict[Tuple[str, str], RunResult] = {}

    def get(self, video: str, scheme: SchemeConfig) -> RunResult:
        key = (video, scheme.name)
        if key not in self._cache:
            self._cache[key] = simulate(workload(video), scheme,
                                        n_frames=self.frames,
                                        seed=self.seed, config=self.config)
        return self._cache[key]

    def normalized(self, scheme: SchemeConfig) -> float:
        values: List[float] = []
        for video in _VIDEOS:
            base = self.get(video, BASELINE).energy.total
            values.append(self.get(video, scheme).energy.total / base)
        return float(np.mean(values))


def validate_against_paper(
    frames: int = 96,
    seed: int = 7,
    config: Optional[SimulationConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[ClaimCheck]:
    """Run every claim check; returns the list of results."""
    runs = _Runs(frames, seed, config)
    cfg = runs.config
    checks: List[ClaimCheck] = []

    def report(name: str) -> None:
        if progress is not None:
            progress(name)

    def add(claim: str, paper: str, measured: float, ok: bool) -> None:
        checks.append(ClaimCheck(claim, paper, float(measured), bool(ok)))

    # --- Fig. 2b: baseline regions and drops -----------------------------
    report("regions")
    mixes = np.zeros(4)
    drop = 0.0
    for video in _VIDEOS:
        base = runs.get(video, BASELINE)
        mix = region_mix(base.timeline.decode_time,
                         cfg.video.frame_interval,
                         cfg.decoder.power_states)
        mixes += [mix[r] for r in Region]
        drop += base.drop_rate
    mixes /= len(_VIDEOS)
    drop /= len(_VIDEOS)
    add("baseline frame-drop rate", "~0.04", drop, 0.005 < drop < 0.10)
    add("region III+IV share (sleep-capable frames)", ">=0.7",
        mixes[2] + mixes[3], mixes[2] + mixes[3] >= 0.65)

    # --- Fig. 7b: content census -------------------------------------------
    report("census")
    intra = inter = none = 0.0
    for video in _VIDEOS:
        stream = SyntheticVideo(cfg.video, workload(video), seed=seed,
                                n_frames=min(frames, 64))
        census = content_census(stream)
        intra += census.intra_fraction / len(_VIDEOS)
        inter += census.inter_fraction / len(_VIDEOS)
        none += census.none_fraction / len(_VIDEOS)
    add("census: blocks matching (intra+inter)", "~0.57", intra + inter,
        0.45 < intra + inter < 0.70)
    add("census: no-match share", "~0.43", none, 0.30 < none < 0.55)

    # --- Race-to-Sleep behaviours --------------------------------------------
    report("race-to-sleep")
    rts_drops = sum(runs.get(v, RACE_TO_SLEEP).drops for v in _VIDEOS)
    add("Race-to-Sleep frame drops", "0", rts_drops, rts_drops == 0)
    s3 = float(np.mean([runs.get(v, RACE_TO_SLEEP)
                        .residency[PowerState.S3] for v in _VIDEOS]))
    add("Race-to-Sleep deep-sleep residency", "~0.60", s3, 0.45 < s3 < 0.75)
    trans_cut = float(np.mean(
        [1 - runs.get(v, BATCHING).energy.transition
         / max(runs.get(v, BASELINE).energy.transition, 1e-12)
         for v in _VIDEOS]))
    add("batching transition-energy cut", "~0.86", trans_cut,
        trans_cut > 0.7)
    act_cut = float(np.mean(
        [1 - runs.get(v, RACING).activations
         / runs.get(v, BASELINE).activations for v in _VIDEOS]))
    add("racing Act/Pre cut", "~0.20", act_cut, 0.05 < act_cut < 0.45)

    # --- MACH savings ------------------------------------------------------------
    report("mach")
    gab_wr = float(np.mean([runs.get(v, GAB).write_savings
                            for v in _VIDEOS]))
    mab_wr = float(np.mean([runs.get(v, MAB).write_savings
                            for v in _VIDEOS]))
    add("gab write-traffic savings", "~0.34", gab_wr, 0.2 < gab_wr < 0.5)
    add("mab write-traffic savings", "~0.13", mab_wr,
        -0.05 < mab_wr < gab_wr)
    gab_rd = float(np.mean([runs.get(v, GAB).read_savings
                            for v in _VIDEOS]))
    add("gab display read savings", "~0.335", gab_rd, 0.15 < gab_rd < 0.5)
    dig = float(np.mean([runs.get(v, GAB).read_stats.digest_fraction
                         for v in _VIDEOS]))
    add("digest-indexed record share", "~0.38", dig, 0.2 < dig < 0.55)

    # --- Fig. 11 ordering ---------------------------------------------------------
    report("fig11")
    normalized = {s.name: runs.normalized(s) for s in FIG11_SCHEMES}
    add("Racing-alone energy (normalized)", ">1.0 (~1.12)",
        normalized["Racing"], normalized["Racing"] > 1.0)
    add("Race-to-Sleep energy (normalized)", "~0.887",
        normalized["Race-to-Sleep"],
        0.85 < normalized["Race-to-Sleep"] < 0.97)
    add("MAB energy (normalized)", "~0.875", normalized["MAB"],
        0.80 < normalized["MAB"] < 0.95)
    add("GAB energy (normalized)", "~0.79", normalized["GAB"],
        0.72 < normalized["GAB"] < 0.90)
    gab_best = all(
        runs.get(v, GAB).energy.total  # repro-lint: disable=F001 exactness is the claim: GAB must literally be the min of the memoized totals
        == min(runs.get(v, s).energy.total for s in FIG11_SCHEMES)
        for v in _VIDEOS)
    add("GAB best on every video", "yes", float(gab_best), gab_best)
    v9 = ("V9" in _VIDEOS
          and runs.get("V9", MAB).energy.total
          > runs.get("V9", RACE_TO_SLEEP).energy.total)
    add("V9 MAB regression (MAB worse than RtS)", "yes", float(v9), v9)

    # --- delivery side: burst downloads race the radio to sleep -----------
    # (BurstLink's recipe, PAPERS.md — the delivery-side mirror of the
    # paper's Race-to-Sleep.)  Pure arithmetic, no pipeline run.
    report("network")
    from .network import deliver_for_config
    from dataclasses import replace as dc_replace

    net_cfg = dc_replace(cfg.network, mode="trace", trace_kind="lte",
                         abr="fixed", abr_fixed_rung=2, trace_seed=seed)
    deliveries = {
        mode: deliver_for_config(
            dc_replace(net_cfg, download_mode=mode), cfg.video,
            source=workload("V8"), n_frames=3600, seed=seed)
        for mode in ("steady", "burst")
    }
    same_stalls = (deliveries["burst"].stall_events
                   == deliveries["steady"].stall_events)
    ratio = (deliveries["burst"].radio.total
             / deliveries["steady"].radio.total)
    add("burst-vs-steady radio energy at equal stalls (BurstLink)",
        "<1.0", ratio, same_stalls and ratio < 1.0)

    # --- fault injection and resilience ------------------------------------
    report("faults")
    from .config import FaultConfig

    # 1. A faulted playback completes, conceals a bounded fraction of
    #    blocks, and never lets an injected digest collision reach the
    #    screen: every one is verified and falls back to a full store.
    fault_sim = dc_replace(cfg, faults=FaultConfig(
        block_bit_error=2e-5, digest_collision=1e-3))
    faulted = simulate(workload("V8"), GAB, n_frames=frames,
                       seed=seed, config=fault_sim)
    clean = runs.get("V8", GAB)
    total_blocks = faulted.n_frames * cfg.video.blocks_per_frame
    conceal_frac = faulted.concealed_blocks / total_blocks
    resilient = (faulted.concealed_blocks > 0
                 and conceal_frac < 0.05
                 and faulted.injected_collisions > 0
                 and faulted.fallback_writes == faulted.injected_collisions
                 and faulted.silent_collisions == clean.silent_collisions)
    add("faulted run: bounded concealment, zero wrong MACH blocks",
        "<0.05 concealed, 0 silent", conceal_frac, resilient)

    # 2. Retries are not free: on a constant link with a pinned rung
    #    (so ABR cannot mask the extra transfers), a lossy run's radio
    #    active energy must be at least the lossless run's.
    lossy_net = dc_replace(net_cfg, trace_kind="constant",
                           download_mode="burst")
    lossless_d = deliver_for_config(lossy_net, cfg.video,
                                    source=workload("V8"),
                                    n_frames=1800, seed=seed)
    lossy_d = deliver_for_config(lossy_net, cfg.video,
                                 source=workload("V8"),
                                 n_frames=1800, seed=seed,
                                 faults=FaultConfig(segment_loss=0.25,
                                                    seed=3))
    retry_ratio = (lossy_d.radio.active_energy
                   / max(lossless_d.radio.active_energy, 1e-12))
    add("lossy delivery pays for its retries (radio active energy)",
        ">=1.0", retry_ratio,
        lossy_d.retries > 0 and retry_ratio >= 1.0)

    # --- thermal pressure and the degradation ladder ----------------------
    report("thermal")
    from .config import ThermalConfig

    def thermal_sim(duty: float, adaptive: bool) -> RunResult:
        # Short pre-roll (just above the 27-frame chunk) keeps batch
        # formation deadline-bound, so a revoked boost actually bites.
        thermal = ThermalConfig(
            enabled=True, adaptive=adaptive, seed=seed,
            event_interval=1.0, cap_drop_rate=1.0, cap_drop_duty=duty,
            delayed_transition_rate=0.5)
        pressed = dc_replace(
            cfg, thermal=thermal,
            network=dc_replace(cfg.network, preroll_frames=30))
        return simulate(workload("V5"), RACE_TO_SLEEP, n_frames=frames,
                        seed=seed, config=pressed)

    # 1. Under a cap that revokes boost for most of the session, the
    #    adaptive governor must walk its ladder and keep drops strictly
    #    below the fixed-batch governor's (zero, for this workload),
    #    within 5% of the fixed governor's energy.
    adaptive_run = thermal_sim(0.55, True)
    fixed_run = thermal_sim(0.55, False)
    throttled_frac = adaptive_run.throttle_seconds / adaptive_run.elapsed
    energy_ratio = adaptive_run.energy.total / fixed_run.energy.total
    graceful = (throttled_frac >= 0.5
                and fixed_run.drops > 0
                and adaptive_run.drops == 0
                and adaptive_run.degradation_steps > 0
                and energy_ratio < 1.05)
    add("throttled run: adaptive ladder drops below fixed RtS",
        "0 vs >0 drops, <1.05x energy", float(adaptive_run.drops),
        graceful)

    # 2. Severity must price monotonically: revoking boost for longer
    #    can only stretch the active window, shrink deep sleep, and
    #    cost energy.
    sweep = [thermal_sim(0.0, True), adaptive_run, thermal_sim(1.0, True)]
    energies = [run.energy.total for run in sweep]
    throttles = [run.throttle_seconds for run in sweep]
    monotone = (all(a <= b for a, b in zip(energies, energies[1:]))
                and all(a <= b for a, b in zip(throttles, throttles[1:]))
                and throttles[-1] > 0)
    add("thermal severity: energy monotone in revoked-boost duty",
        "non-decreasing", energies[-1] / energies[0], monotone)

    # 3. A killed-and-resumed matrix is bit-identical to an
    #    uninterrupted one: the checkpoint holds exact results and the
    #    remaining jobs are deterministic.
    report("checkpoint")
    import os
    import tempfile

    from .runner import run_matrix

    ckpt_frames = min(frames, 32)
    ckpt_schemes = (BASELINE, GAB)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "matrix.json")
        run_matrix(videos=["V1"], schemes=ckpt_schemes,
                   n_frames=ckpt_frames, seed=seed, config=cfg,
                   processes=1, checkpoint=ckpt)  # the "killed" run
        resumed = run_matrix(videos=["V1", "V3"], schemes=ckpt_schemes,
                             n_frames=ckpt_frames, seed=seed, config=cfg,
                             processes=1, checkpoint=ckpt)
    fresh = run_matrix(videos=["V1", "V3"], schemes=ckpt_schemes,
                       n_frames=ckpt_frames, seed=seed, config=cfg,
                       processes=1)
    identical = (len(resumed.resumed) == len(ckpt_schemes)
                 and set(resumed) == set(fresh)
                 and all(resumed[k].energy.total == fresh[k].energy.total  # repro-lint: disable=F001 exactness is the claim: a JSON round trip must be bit-identical
                         and (resumed[k].timeline.finish
                              == fresh[k].timeline.finish).all()
                         for k in fresh))
    add("checkpoint-resumed matrix bit-identical to uninterrupted",
        "yes", float(identical), identical)

    # --- fleet: flow-level population engine ------------------------------
    report("fleet")
    from .fleet import (
        DeviceClass,
        LognormalComponent,
        PopulationSpec,
        RegionSpec,
        calibrate,
        run_fleet,
    )
    from .units import MBPS

    # A population whose every session plays exactly the calibration
    # frame count (zero duration spread) on an unconstrained link, so
    # the surrogate's per-title play energy is structurally the exact
    # pipeline's — any gap is the streaming aggregation itself.
    fleet_frames = min(frames, 32)
    fleet_titles = ("V1", "V8")
    pinned = fleet_frames / cfg.video.fps
    fleet_spec = PopulationSpec(
        device_classes=(DeviceClass(name="ref", scheme="gab"),),
        regions=(RegionSpec(
            name="dense", cells=3, cell_capacity=10 * MBPS,
            bandwidth=(LognormalComponent(median=8 * MBPS, sigma=0.3),),
        ),),
        titles=fleet_titles,
        zipf_exponent=0.9,
        duration_median_seconds=pinned,
        duration_sigma=0.0,
        duration_min_seconds=pinned / 2,
        duration_max_seconds=pinned * 2,
        arrival_window_seconds=2.0,
        epoch_seconds=0.5,
        calib_frames=fleet_frames,
        calib_seed=seed,
    )
    device_cfg = fleet_spec.device_classes[0].to_simulation_config(cfg)
    fleet_calib = calibrate(fleet_spec, config=cfg)

    # 1. Fleet online aggregates vs the exact matrix: the streamed
    #    per-title (and overall) mean play energy must match the
    #    run_matrix figures within the aggregation quantum.
    matrix = run_matrix(videos=list(fleet_titles), schemes=(GAB,),
                        n_frames=fleet_frames, seed=seed,
                        config=device_cfg, processes=1)
    exact = {video: matrix[(video, GAB.name)].energy.total
             for video in fleet_titles}
    surrogate_run = run_fleet(fleet_spec, 5000, seed=seed, shards=3,
                              contention=False,
                              calibration=fleet_calib, config=cfg)
    errors: List[float] = []
    weighted = 0.0
    for title in fleet_titles:
        cohort = surrogate_run.cohort(f"title:{title}")
        measured_mean = cohort.moments["play_energy"].mean
        errors.append(abs(measured_mean - exact[title]) / exact[title])
        weighted += cohort.count * exact[title]
    fleet_mean = surrogate_run.cohort("fleet").moments["play_energy"].mean
    weighted /= surrogate_run.n_sessions
    errors.append(abs(fleet_mean - weighted) / weighted)
    worst = max(errors)
    add("fleet online aggregates match exact run_matrix energies",
        "<0.5% relative", worst, worst < 5e-3)

    # 2. Shared cells must price congestion: at equal population the
    #    cell-contention fleet dominates the private-trace fleet in
    #    both stalls and energy (stall power + stretched radio windows).
    contended = run_fleet(fleet_spec, 5000, seed=seed, shards=2,
                          contention=True,
                          calibration=fleet_calib, config=cfg)
    private = run_fleet(fleet_spec, 5000, seed=seed, shards=2,
                        contention=False,
                        calibration=fleet_calib, config=cfg)
    contended_fleet = contended.cohort("fleet")
    private_fleet = private.cohort("fleet")
    energy_ratio = (contended_fleet.moments["total_energy"].mean
                    / private_fleet.moments["total_energy"].mean)
    stall_gap = (contended_fleet.moments["stall_seconds"].mean
                 - private_fleet.moments["stall_seconds"].mean)
    dominates = (contended.saturated_cell_epochs > 0
                 and energy_ratio > 1.0
                 and stall_gap > 0.0)
    add("cell-contention fleet dominates private-trace fleet",
        ">1.0x energy, more stalls", energy_ratio, dominates)

    # 3. Supervised shard execution under injected crashes, stalls,
    #    and corrupt partials must reproduce the undisturbed serial
    #    run bit for bit: retried, speculated, and re-delivered
    #    stripes fold into the result exactly once.
    import json as json_mod

    from .faults import ShardFaultConfig
    from .fleet import (
        SupervisedFleetRun,
        SupervisorConfig,
        run_fleet_supervised,
    )

    serial_ref = run_fleet(fleet_spec, 3000, seed=seed, shards=1,
                           contention=True,
                           calibration=fleet_calib, config=cfg)
    chaos_run = run_fleet_supervised(
        fleet_spec, 3000, seed=seed, shards=4, contention=True,
        calibration=fleet_calib, config=cfg,
        faults=ShardFaultConfig(crash_rate=0.35, stall_rate=0.1,
                                corrupt_rate=0.25,
                                max_faulty_attempts=2, seed=seed + 1),
        supervisor=SupervisorConfig(
            workers=2, lease_seconds=0.8, max_retries=6))
    absorbed = chaos_run.report.faults_absorbed
    identical = (json_mod.dumps(serial_ref.to_jsonable(), sort_keys=True)
                 == json_mod.dumps(chaos_run.result.to_jsonable(),
                                   sort_keys=True))
    add("supervised fleet under injected crashes matches serial run",
        "bit-identical JSON, faults absorbed", float(absorbed),
        identical and absorbed > 0)

    # 4. Speculative re-execution is a latency tool, not a result
    #    knob: under a seeded slow-worker distribution it must cut the
    #    p99 stripe completion time without changing a bit of the
    #    result.  (Slow workers sleep, so even a single-core CI box
    #    shows the win.)
    slow_faults = ShardFaultConfig(slow_rate=0.4, slow_seconds=2.0,
                                   max_faulty_attempts=1,
                                   seed=seed + 2)

    def speculation_run(speculate: bool) -> SupervisedFleetRun:
        return run_fleet_supervised(
            fleet_spec, 3000, seed=seed, shards=6, contention=False,
            calibration=fleet_calib, config=cfg, faults=slow_faults,
            supervisor=SupervisorConfig(
                workers=2, lease_seconds=4.0, max_retries=3,
                speculate=speculate, speculation_min_seconds=0.4))

    patient = speculation_run(False)
    eager = speculation_run(True)
    p99_patient = patient.report.p99_stripe_seconds("score")
    p99_eager = eager.report.p99_stripe_seconds("score")
    p99_ratio = p99_eager / max(p99_patient, 1e-9)
    same_bits = (json_mod.dumps(patient.result.to_jsonable(),
                                sort_keys=True)
                 == json_mod.dumps(eager.result.to_jsonable(),
                                   sort_keys=True))
    add("speculation cuts p99 stripe time without changing the result",
        "<0.7x p99, bit-identical", p99_ratio,
        same_bits and eager.report.speculations > 0
        and p99_ratio < 0.7)

    # --- realtime: emergent impairments, recovery, and the ladder ---------
    report("realtime")
    from .config import RealtimeConfig
    from .realtime import RealtimeResult, simulate_realtime
    from .units import MBPS

    # 1. FEC beats bounded retransmission on deadline-miss fraction when
    #    the RTT does not fit the latency budget, at comparable byte
    #    overhead.  One-way propagation of 70 ms against a 150 ms budget
    #    means any retransmission arrives a full RTT (~140 ms + queue)
    #    late, while XOR parity rides along with the first pass.  Loss
    #    backoff is disabled (loss_threshold=1) so the 20 % injected
    #    loss prices both modes identically and only the delay half of
    #    the controller shapes the send rate.
    rt_profile = workload("V8")
    rt_frames = max(frames, 240)

    def recovery_run(mode: str) -> RealtimeResult:
        rt = RealtimeConfig(
            enabled=True, propagation_delay=0.070, latency_budget=0.150,
            link_rate=6 * MBPS, start_rate=3 * MBPS, min_rate=1 * MBPS,
            max_rate=4 * MBPS, ladder=False, fec_group=6, max_retx=2,
            loss_threshold=1.0, recovery=mode, seed=seed)
        rt_cfg = dc_replace(cfg, realtime=rt,
                            faults=FaultConfig(packet_loss=0.20, seed=seed))
        return simulate_realtime(rt_cfg, n_frames=rt_frames,
                                 profile=rt_profile)

    fec_run = recovery_run("fec")
    retx_run = recovery_run("retx")
    overhead_ratio = fec_run.byte_overhead / max(retx_run.byte_overhead,
                                                 1e-12)
    miss_ratio = (fec_run.deadline_miss_fraction
                  / max(retx_run.deadline_miss_fraction, 1e-12))
    fec_wins = (retx_run.deadline_miss_fraction > 0
                and miss_ratio < 0.5
                and 1 / 1.5 < overhead_ratio < 1.5)
    add("FEC beats retx on deadline misses at high RTT (equal overhead)",
        "<0.5x misses, overhead within 1.5x", miss_ratio, fec_wins)

    # 2. The deadline ladder converts lateness into bounded degradation:
    #    under bandwidth cliffs it must strictly cut p99 frame lateness
    #    versus the same session with the ladder disabled, at no more
    #    than 5 % extra energy.
    cliff = ((3.0, 0.22), (6.0, 1.0), (9.0, 0.22), (12.0, 1.0))

    def ladder_run(ladder: bool) -> RealtimeResult:
        rt = RealtimeConfig(enabled=True, link_rate=6 * MBPS,
                            ladder=ladder, rate_schedule=cliff, seed=seed)
        return simulate_realtime(dc_replace(cfg, realtime=rt),
                                 n_frames=max(2 * frames, 480),
                                 profile=rt_profile)

    with_ladder = ladder_run(True)
    without_ladder = ladder_run(False)
    rt_energy_ratio = with_ladder.total_energy / without_ladder.total_energy
    ladder_helps = (without_ladder.p99_lateness() > 0
                    and with_ladder.p99_lateness()
                    < without_ladder.p99_lateness()
                    and with_ladder.degradation_steps > 0
                    and rt_energy_ratio <= 1.05)
    add("deadline ladder strictly cuts p99 lateness under cliffs",
        "lower p99, <=1.05x energy", rt_energy_ratio, ladder_helps)

    return checks


def summarize(checks: List[ClaimCheck]) -> str:
    """Human-readable report plus a verdict line."""
    lines = [str(check) for check in checks]
    passed = sum(check.passed for check in checks)
    lines.append(f"\n{passed}/{len(checks)} claims reproduced")
    return "\n".join(lines)
