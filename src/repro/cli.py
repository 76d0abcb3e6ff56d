"""Command-line interface: ``python -m repro`` / ``repro``.

Subcommands:

* ``run`` — simulate one video under one scheme and print the result;
* ``compare`` — run the Fig. 11 scheme comparison for selected videos;
* ``census`` — run the Fig. 7b content census;
* ``workloads`` — list the Table-1 video profiles;
* ``trace`` — capture a synthetic stream to a ``.npz`` trace, or run a
  saved trace (from any source) through a scheme;
* ``network`` — trace-driven delivery: stalls, ABR switches, and the
  radio's burst-vs-steady energy for a workload over a bandwidth
  trace;
* ``thermal`` — thermal-pressure drill: injected boost revocations,
  adaptive-ladder vs fixed-batch Race-to-Sleep governor;
* ``fleet`` — streaming population engine: score a heterogeneous
  session population (1M+ sessions, bounded memory) through the
  calibrated flow-level surrogate and report cohort distributions;
* ``realtime`` — emergent-impairment live session: bottleneck-queue
  link, delay-gradient congestion control, FEC/retransmission
  recovery, and the deadline degradation ladder;
* ``chaos`` — chaos campaign: sweep impairment regimes (bursty loss,
  RTT spikes, bandwidth cliffs) over the scheme matrix and the fleet
  population and score SLOs into exactly-mergeable aggregates.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis import comparison_report, content_census, format_table
from .config import (
    BASELINE,
    BATCHING,
    FIG11_SCHEMES,
    GAB,
    MAB,
    RACE_TO_SLEEP,
    RACING,
    SimulationConfig,
)
from .core.pipeline import simulate
from .core.results import compare_schemes
from .errors import ReproError
from .units import to_mj
from .video import PAPER_WORKLOADS, SyntheticVideo, workload

_SCHEMES = {s.name.lower(): s for s in
            (BASELINE, BATCHING, RACING, RACE_TO_SLEEP, MAB, GAB)}
_SCHEMES["rts"] = RACE_TO_SLEEP


def _parse_videos(spec: str) -> List[str]:
    if spec.lower() == "all":
        return [p.key for p in PAPER_WORKLOADS]
    return [key.strip().upper() for key in spec.split(",") if key.strip()]


def _cmd_run(args: argparse.Namespace) -> int:
    scheme = _SCHEMES[args.scheme.lower()]
    result = simulate(workload(args.video), scheme, n_frames=args.frames,
                      seed=args.seed)
    print(f"{args.video} under {scheme.name}: "
          f"{result.energy.per_frame_mj(result.n_frames):.2f} mJ/frame, "
          f"{result.drops} drops, "
          f"S3 residency {result.deep_sleep_residency:.1%}")
    rows = [[name, to_mj(value), value / result.energy.total]
            for name, value in result.energy.as_dict().items()]
    print(format_table(["component", "mJ", "fraction"], rows,
                       title="\nEnergy breakdown"))
    if result.matches is not None:
        m = result.matches
        print(f"\nMACH: intra {m.intra / m.total:.1%}, "
              f"inter {m.inter / m.total:.1%}, "
              f"write savings {result.write_savings:.1%}, "
              f"DC read savings {result.read_savings:.1%}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    comparisons = []
    for key in _parse_videos(args.videos):
        results = [simulate(workload(key), scheme, n_frames=args.frames,
                            seed=args.seed)
                   for scheme in FIG11_SCHEMES]
        comparisons.append(compare_schemes(results))
        print(f"  {key} done", file=sys.stderr)
    print(comparison_report(comparisons))
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    config = SimulationConfig()
    rows = []
    for key in _parse_videos(args.videos):
        stream = SyntheticVideo(config.video, workload(key), seed=args.seed,
                                n_frames=args.frames)
        census = content_census(stream)
        rows.append([key, census.intra_fraction, census.inter_fraction,
                     census.none_fraction])
    print(format_table(["video", "intra", "inter", "none"], rows,
                       title="Content census (paper avg: .42/.15/.43)"))
    return 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    rows = [[p.key, p.name, p.description, p.n_frames]
            for p in PAPER_WORKLOADS]
    print(format_table(["key", "name", "description", "#frames"], rows,
                       title="Table 1 workloads"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .video.trace import FrameTrace

    if args.action == "capture":
        config = SimulationConfig()
        stream = SyntheticVideo(config.video, workload(args.video),
                                seed=args.seed, n_frames=args.frames)
        trace = FrameTrace.from_frames(stream, config.video.width,
                                       config.video.height,
                                       config.video.block_size)
        trace.save(args.path)
        print(f"captured {len(trace)} frames of {args.video} "
              f"to {args.path}")
        return 0
    trace = FrameTrace.load(args.path)
    if args.action == "census":
        census = content_census(list(trace))
        print(f"{args.path}: {len(trace)} frames, "
              f"intra {census.intra_fraction:.1%} / "
              f"inter {census.inter_fraction:.1%} / "
              f"none {census.none_fraction:.1%}")
        return 0
    # action == "run"
    scheme = _SCHEMES[args.scheme.lower()]
    base = simulate(trace, BASELINE, seed=args.seed)
    result = simulate(trace, scheme, seed=args.seed)
    print(f"{args.path} under {scheme.name}: "
          f"{result.energy.total / base.energy.total:.3f}x baseline "
          f"energy, {result.drops} drops, "
          f"write savings {result.write_savings:.1%}")
    return 0


def _cmd_network(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from .config import NetworkConfig
    from .network import deliver_for_config
    from .units import MBPS

    base = NetworkConfig(
        mode="trace",
        trace_kind="file" if args.trace_file else args.trace,
        trace_path=args.trace_file,
        mean_bandwidth=args.bandwidth_mbps * MBPS,
        trace_seed=args.seed,
        abr=args.abr,
    )
    video = SimulationConfig().video
    modes = (("steady", "burst") if args.mode == "both" else (args.mode,))
    rows = []
    for mode in modes:
        network = dc_replace(base, download_mode=mode)
        delivery = deliver_for_config(network, video,
                                      source=workload(args.video),
                                      n_frames=args.frames, seed=args.seed)
        radio = delivery.radio
        rows.append([
            mode,
            delivery.startup_seconds,
            delivery.stall_seconds,
            delivery.stall_events,
            delivery.switches,
            delivery.mean_rate / MBPS,
            radio.active_energy, radio.tail_energy,
            radio.idle_energy + radio.promotion_energy,
            radio.total,
        ])
    if args.trace_file:
        trace_name, mean_note = args.trace_file, ""
    else:
        trace_name = args.trace
        mean_note = f"{args.bandwidth_mbps:g} Mbps mean, "
    print(format_table(
        ["mode", "startup s", "stall s", "stalls", "switches",
         "Mbps", "active J", "tail J", "idle+promo J", "radio J"],
        rows,
        title=f"{args.video} over {trace_name!r} "
              f"({mean_note}ABR={args.abr}, {args.frames} frames)"))
    if len(rows) == 2 and rows[1][-1] < rows[0][-1]:
        saving = 1 - rows[1][-1] / rows[0][-1]
        print(f"\nburst downloads cut radio energy by {saving:.1%} "
              "(the modem's race-to-sleep)")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from .config import FaultConfig, NetworkConfig
    from .core.session import Play, SessionSimulator
    from .units import MBPS

    scheme = _SCHEMES[args.scheme.lower()]
    network = NetworkConfig(
        mode="trace", trace_kind=args.trace,
        mean_bandwidth=args.bandwidth_mbps * MBPS,
        trace_seed=args.seed, abr=args.abr)
    faults = FaultConfig(
        segment_loss=args.loss,
        segment_corruption=args.corruption,
        segment_timeout_rate=args.timeout_rate,
        block_bit_error=args.ber,
        digest_collision=args.collisions,
        seed=args.fault_seed,
    )
    events = [Play(workload(args.video), n_frames=args.frames)]
    rows = []
    for label, fault_cfg in (("clean", FaultConfig()), ("faulty", faults)):
        cfg = dc_replace(SimulationConfig(), network=network,
                         faults=fault_cfg)
        session = SessionSimulator(scheme, cfg, seed=args.seed).run(events)
        delivery = session.deliveries[0] if session.deliveries else None
        run = session.segments[0]
        rows.append([
            label,
            session.stall_seconds,
            session.retries,
            delivery.failed_attempts if delivery else 0,
            session.abandoned_segments,
            session.concealed_blocks,
            run.injected_collisions,
            session.fallback_writes,
            session.network_energy,
            session.total_energy,
        ])
    print(format_table(
        ["run", "stall s", "retries", "failures", "abandoned",
         "concealed", "collisions", "fallbacks", "radio J", "total J"],
        rows,
        title=f"{args.video} under {scheme.name}, "
              f"loss={args.loss:g} corruption={args.corruption:g} "
              f"ber={args.ber:g} collisions={args.collisions:g} "
              f"({args.frames} frames)"))
    clean, faulty = rows
    extra = faulty[-1] - clean[-1]
    print(f"\nresilience cost: {extra:+.2f} J "
          f"({extra / clean[-1]:+.1%} vs clean) — zero silently-wrong "
          "blocks, every loss retried, concealed, or abandoned")
    return 0


def _cmd_thermal(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from .config import ThermalConfig
    from .core.race_to_sleep import LADDER_STEPS
    from .units import MS

    scheme = _SCHEMES[args.scheme.lower()]
    duties = [float(d) for d in args.duties.split(",") if d.strip()]
    rows = []
    pairs = {}
    for duty in duties:
        for label, adaptive in (("adaptive", True), ("fixed", False)):
            thermal = ThermalConfig(
                enabled=True, adaptive=adaptive, seed=args.thermal_seed,
                event_interval=args.interval, cap_drop_rate=args.rate,
                cap_drop_duty=duty,
                delayed_transition_rate=args.delay_rate,
                transition_delay=args.delay_ms * MS)
            cfg = dc_replace(SimulationConfig(), thermal=thermal)
            cfg = dc_replace(cfg, network=dc_replace(
                cfg.network, preroll_frames=args.preroll))
            result = simulate(workload(args.video), scheme,
                              n_frames=args.frames, seed=args.seed,
                              config=cfg)
            pairs[(duty, label)] = result
            throttled = (result.throttle_seconds / result.elapsed
                         if result.elapsed else 0.0)
            rows.append([f"{duty:g}", label, result.drops, throttled,
                         result.degradation_steps,
                         result.frames_at_nominal,
                         result.deep_sleep_residency,
                         result.energy.total])
    print(format_table(
        ["duty", "governor", "drops", "throttled", "deg steps",
         "@nominal", "S3", "energy J"],
        rows,
        title=f"{args.video} under {scheme.name} with injected thermal "
              f"caps (rate={args.rate:g}, interval={args.interval:g} s, "
              f"wake-delay rate={args.delay_rate:g}, "
              f"{args.frames} frames)"))
    worst = max(duties)
    adaptive_run = pairs[(worst, "adaptive")]
    fixed_run = pairs[(worst, "fixed")]
    delta = ((adaptive_run.energy.total - fixed_run.energy.total)
             / fixed_run.energy.total)
    print(f"\ndegradation ladder: {' -> '.join(LADDER_STEPS)}")
    print(f"at duty {worst:g}: adaptive drops {adaptive_run.drops} vs "
          f"fixed {fixed_run.drops}, energy {delta:+.1%}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from .faults import ShardFaultConfig
    from .fleet import (
        PopulationSpec,
        SupervisorConfig,
        calibrate,
        default_population,
        load_or_calibrate,
        load_population_spec,
        run_fleet,
        run_fleet_supervised,
    )

    if args.spec:
        spec = load_population_spec(args.spec)
    elif args.smoke:
        # A 1-device, 2-title population whose calibration runs in
        # seconds — the CI chaos-smoke target.
        from .fleet import DeviceClass, LognormalComponent, RegionSpec
        from .units import MBPS
        spec = PopulationSpec(
            device_classes=(DeviceClass(name="ref", scheme="gab"),),
            regions=(RegionSpec(
                name="town", cells=4, cell_capacity=40 * MBPS,
                bandwidth=(LognormalComponent(median=10 * MBPS,
                                              sigma=0.5),),
            ),),
            titles=("V1", "V8"),
            calib_frames=16,
            calib_seed=args.seed,
        )
    else:
        spec = default_population()
    sessions = min(args.sessions, 2000) if args.smoke else args.sessions
    shards = max(args.shards, 4) if args.chaos else args.shards

    def status(line: str) -> None:
        print(f"  {line} ...", file=sys.stderr)

    calibration = (load_or_calibrate(spec, args.calibration, progress=status)
                   if args.calibration else calibrate(spec, progress=status))

    supervised = args.chaos or args.workers is not None or args.checkpoint
    if not supervised:
        result = run_fleet(spec, sessions, seed=args.seed,
                           shards=shards,
                           contention=not args.no_contention,
                           calibration=calibration, progress=status)
        print(result.report())
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(result.to_jsonable(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
            print(f"\nwrote report to {args.json}")
        return 0

    faults = None
    if args.chaos:
        # A seeded kill/stall/corrupt schedule dense enough that a
        # typical stripe plan absorbs several of each; bounded to the
        # first two attempts so the run always completes.
        faults = ShardFaultConfig(
            crash_rate=0.25, stall_rate=0.1, corrupt_rate=0.2,
            slow_rate=0.1, slow_seconds=0.3, max_faulty_attempts=2,
            seed=args.chaos_seed)
    supervisor = SupervisorConfig(
        workers=args.workers if args.workers is not None else 2,
        lease_seconds=1.0, heartbeat_seconds=0.15,
        max_retries=6, backoff_base=0.02, backoff_cap=0.25,
        speculation_min_seconds=0.3)
    run = run_fleet_supervised(
        spec, sessions, seed=args.seed, shards=shards,
        contention=not args.no_contention, calibration=calibration,
        faults=faults, supervisor=supervisor,
        checkpoint=args.checkpoint, progress=status)
    report = run.report
    print(run.result.report())
    print(f"\nsupervision: {report.crashes} crashes, "
          f"{report.lease_revocations} lease revocations, "
          f"{report.corrupt_rejected} corrupt partials rejected, "
          f"{report.speculations} speculations, "
          f"{report.retries} retries, "
          f"{report.resumed_stripes} stripes resumed from checkpoint")

    identical = True
    if args.chaos:
        status("chaos verdict: re-running serial shards=1 reference")
        reference = run_fleet(spec, sessions, seed=args.seed, shards=1,
                              contention=not args.no_contention,
                              calibration=calibration)
        identical = (json.dumps(reference.to_jsonable(), sort_keys=True)
                     == json.dumps(run.result.to_jsonable(),
                                   sort_keys=True))
        verdict = ("bit-identical to the undisturbed serial run"
                   if identical else
                   "DIVERGED from the undisturbed serial run")
        print(f"chaos: absorbed {report.faults_absorbed} faults; "
              f"result {verdict}")
    if args.json:
        payload = {
            "identical_to_serial": identical if args.chaos else None,
            "supervision": report.to_jsonable(),
            "fleet": run.result.to_jsonable(),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote report to {args.json}")
    return 0 if identical else 1


def _cmd_realtime(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from .config import FaultConfig, RealtimeConfig
    from .realtime import simulate_realtime
    from .units import MBPS, MS

    rt = RealtimeConfig(
        enabled=True,
        link_rate=args.rate_mbps * MBPS,
        propagation_delay=args.prop_ms * MS,
        latency_budget=args.budget_ms * MS,
        recovery=args.recovery,
        ladder=not args.no_ladder,
        seed=args.rt_seed,
    )
    cfg = dc_replace(SimulationConfig(), realtime=rt)
    if args.loss > 0:
        cfg = dc_replace(cfg, faults=FaultConfig(packet_loss=args.loss,
                                                 seed=args.fault_seed))
    result = simulate_realtime(cfg, n_frames=args.frames,
                               profile=workload(args.video))
    late = result.lateness
    rows = [
        ["frames delivered", f"{int(result.delivered.sum())}"
                             f"/{result.n_frames}"],
        ["deadline misses", f"{int(result.miss.sum())} "
                            f"({result.deadline_miss_fraction:.2%})"],
        ["p99 lateness", f"{result.p99_lateness() / MS:.2f} ms"],
        ["mean lateness", f"{(late.mean() if len(late) else 0.0) / MS:.3f}"
                          f" ms"],
        ["concealed blocks", f"{int(result.lost_blocks.sum())} "
                             f"({result.concealed_fraction:.3%})"],
        ["ladder", f"{result.downscaled_frames} downscaled, "
                   f"{result.frozen_frames} frozen, "
                   f"{result.skipped_frames} skipped"],
        ["recovery", f"{result.fec_frames} FEC frames, "
                     f"{result.retx_frames} retx frames, "
                     f"overhead {result.byte_overhead:.2%}"],
        ["emergent drops", f"{result.overflow_drops} overflow, "
                           f"{result.red_drops} RED, "
                           f"{result.injected_drops} injected"],
        ["send rate", f"{result.send_rate[-1] / MBPS:.2f} Mbps final "
                      f"(mean {result.send_rate.mean() / MBPS:.2f})"],
        ["energy", f"decode {result.decode_energy:.2f} J, "
                   f"sleep {result.sleep_energy:.2f} J, "
                   f"radio {result.radio_energy:.2f} J "
                   f"(recovery {result.recovery_energy:.3f} J)"],
    ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"{args.video} realtime, {args.frames} frames @ "
              f"{args.rate_mbps:g} Mbps link, "
              f"{args.budget_ms:g} ms budget, "
              f"recovery={args.recovery}"))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .realtime import run_chaos

    if args.smoke:
        sessions, frames, cap = 6, 300, 420
    else:
        sessions, frames, cap = args.sessions, args.frames, args.frame_cap

    result = run_chaos(sessions=sessions, n_frames=frames,
                       fleet_frame_cap=cap, seed=args.seed,
                       shards=args.shards)
    print(result.report())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_jsonable(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"\nwrote campaign to {args.json}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import (
        Baseline,
        all_rules,
        lint_paths,
        load_baseline,
        render_sarif,
        write_baseline,
    )

    if args.list_rules:
        rows = [[r.id, r.name, r.scope, r.severity, r.family, r.description]
                for r in all_rules()]
        print(format_table(
            ["id", "name", "scope", "severity", "family", "guards"],
            rows, title="repro-lint rules"))
        return 0
    select = ([rule_id.strip().upper()
               for rule_id in args.select.split(",") if rule_id.strip()]
              if args.select else None)
    baseline = (load_baseline(args.baseline)
                if args.baseline and not args.update_baseline
                else Baseline.empty())
    jobs = args.jobs
    if jobs == 0:
        jobs = os.cpu_count() or 1
    report = lint_paths(args.paths or None, baseline=baseline,
                        select=select, cache_path=args.cache, jobs=jobs)
    if args.update_baseline:
        if not args.baseline:
            print("--update-baseline requires --baseline PATH",
                  file=sys.stderr)
            return 2
        write_baseline(Baseline.from_violations(report.violations),
                       args.baseline)
        print(f"wrote {len(report.violations)} finding(s) to "
              f"{args.baseline}")
        return 0
    if args.format == "json":
        output = report.render_json()
    elif args.format == "sarif":
        output = render_sarif(report)
    else:
        output = report.render_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(output + "\n")
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(render_sarif(report) + "\n")
    print(output)
    return 0 if report.ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validation import summarize, validate_against_paper

    checks = validate_against_paper(
        frames=args.frames, seed=args.seed,
        progress=lambda name: print(f"  checking {name} ...",
                                    file=sys.stderr))
    print(summarize(checks))
    return 0 if all(check.passed for check in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy simulator for 'Race-To-Sleep + Content "
                    "Caching + Display Caching' (MICRO-50 2017)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one video under one scheme")
    run.add_argument("video", help="workload key, e.g. V8")
    run.add_argument("scheme", choices=sorted(_SCHEMES),
                     help="scheme name (baseline/batching/racing/"
                          "race-to-sleep/mab/gab)")
    run.add_argument("--frames", type=int, default=180)
    run.add_argument("--seed", type=int, default=0)
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser("compare",
                             help="Fig. 11 comparison across schemes")
    compare.add_argument("--videos", default="V1,V8,V14",
                         help="comma-separated keys or 'all'")
    compare.add_argument("--frames", type=int, default=120)
    compare.add_argument("--seed", type=int, default=0)
    compare.set_defaults(func=_cmd_compare)

    census = sub.add_parser("census", help="Fig. 7b content census")
    census.add_argument("--videos", default="all")
    census.add_argument("--frames", type=int, default=96)
    census.add_argument("--seed", type=int, default=0)
    census.set_defaults(func=_cmd_census)

    workloads = sub.add_parser("workloads", help="list Table 1 profiles")
    workloads.set_defaults(func=_cmd_workloads)

    trace = sub.add_parser("trace", help="capture or replay frame traces")
    trace.add_argument("action", choices=("capture", "census", "run"))
    trace.add_argument("path", help="trace file (.npz)")
    trace.add_argument("--video", default="V8",
                       help="workload to capture (capture only)")
    trace.add_argument("--scheme", default="gab",
                       help="scheme for 'run' (default gab)")
    trace.add_argument("--frames", type=int, default=120)
    trace.add_argument("--seed", type=int, default=0)
    trace.set_defaults(func=_cmd_trace)

    network = sub.add_parser(
        "network", help="trace-driven delivery: stalls, ABR, radio energy")
    network.add_argument("--video", default="V8",
                         help="workload key (default V8)")
    network.add_argument("--frames", type=int, default=3600,
                         help="frames to stream (default 3600 = 60 s)")
    network.add_argument("--trace", default="lte",
                         choices=("constant", "lte", "step"),
                         help="synthetic bandwidth trace kind")
    network.add_argument("--trace-file", default=None,
                         help="timestamp,bytes_per_sec trace file "
                              "(overrides --trace)")
    network.add_argument("--bandwidth-mbps", type=float, default=24.0,
                         help="mean link rate for synthetic traces")
    network.add_argument("--abr", default="bba",
                         choices=("fixed", "rate", "bba"))
    network.add_argument("--mode", default="both",
                         choices=("steady", "burst", "both"),
                         help="download scheduling (default: compare both)")
    network.add_argument("--seed", type=int, default=1)
    network.set_defaults(func=_cmd_network)

    faults = sub.add_parser(
        "faults", help="fault-injection drill: lossy delivery, bit "
                       "errors, digest collisions — clean vs faulty")
    faults.add_argument("--video", default="V8")
    faults.add_argument("--frames", type=int, default=600)
    faults.add_argument("--scheme", default="gab",
                        choices=sorted(_SCHEMES))
    faults.add_argument("--loss", type=float, default=0.05,
                        help="per-attempt segment loss probability")
    faults.add_argument("--corruption", type=float, default=0.02,
                        help="per-attempt segment corruption probability")
    faults.add_argument("--timeout-rate", type=float, default=0.01,
                        help="per-attempt stuck-download probability")
    faults.add_argument("--ber", type=float, default=1e-6,
                        help="decoded-block bit error rate")
    faults.add_argument("--collisions", type=float, default=1e-4,
                        help="injected digest-collision probability")
    faults.add_argument("--trace", default="lte",
                        choices=("constant", "lte", "step"))
    faults.add_argument("--bandwidth-mbps", type=float, default=24.0)
    faults.add_argument("--abr", default="bba",
                        choices=("fixed", "rate", "bba"))
    faults.add_argument("--seed", type=int, default=1)
    faults.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the fault plan (content seed is "
                             "--seed)")
    faults.set_defaults(func=_cmd_faults)

    thermal = sub.add_parser(
        "thermal", help="thermal-pressure drill: injected boost "
                        "revocations, adaptive vs fixed RtS governor")
    thermal.add_argument("--video", default="V5")
    thermal.add_argument("--frames", type=int, default=96)
    thermal.add_argument("--scheme", default="race-to-sleep",
                         choices=sorted(_SCHEMES))
    thermal.add_argument("--duties", default="0.25,0.55,0.85",
                         help="comma list of cap-drop duty fractions")
    thermal.add_argument("--rate", type=float, default=1.0,
                         help="per-slot cap-drop probability")
    thermal.add_argument("--interval", type=float, default=1.0,
                         help="throttle-event slot length, s")
    thermal.add_argument("--delay-rate", type=float, default=0.5,
                         help="per-slot delayed-wake probability")
    thermal.add_argument("--delay-ms", type=float, default=8.0,
                         help="injected extra wake latency, ms")
    thermal.add_argument("--preroll", type=int, default=30,
                         help="startup pre-roll frames (small values "
                              "make batch formation deadline-bound)")
    thermal.add_argument("--seed", type=int, default=7)
    thermal.add_argument("--thermal-seed", type=int, default=7,
                         help="seed of the injected throttle plan "
                              "(content seed is --seed)")
    thermal.set_defaults(func=_cmd_thermal)

    fleet = sub.add_parser(
        "fleet", help="streaming population engine: cohort energy/"
                      "stall distributions for 1M+ sessions")
    fleet.add_argument("--spec", default=None,
                       help="population spec JSON (default: the "
                            "built-in reference population)")
    fleet.add_argument("--sessions", type=int, default=100_000,
                       help="population size (default 100000)")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--shards", type=int, default=1,
                       help="chunk stripes folded independently; the "
                            "report is bit-identical for any value")
    fleet.add_argument("--no-contention", action="store_true",
                       help="give every session its private drawn "
                            "bandwidth (skip the cell model)")
    fleet.add_argument("--calibration", default=None,
                       help="surrogate calibration cache file "
                            "(created/validated on use)")
    fleet.add_argument("--workers", type=int, default=None,
                       help="run under the supervised shard service "
                            "with this many worker processes (0 = "
                            "inline, pool-free)")
    fleet.add_argument("--checkpoint", default=None,
                       help="persist completed stripes to this JSON "
                            "file and resume from it on rerun")
    fleet.add_argument("--chaos", action="store_true",
                       help="inject a seeded crash/stall/corrupt/slow "
                            "schedule, then assert the result is "
                            "bit-identical to the serial run "
                            "(exit 1 if not)")
    fleet.add_argument("--chaos-seed", type=int, default=0,
                       help="seed of the injected fault schedule")
    fleet.add_argument("--smoke", action="store_true",
                       help="reduced population + cheap calibration "
                            "(the CI chaos-smoke configuration)")
    fleet.add_argument("--json", default=None,
                       help="also write the FleetResult JSON here")
    fleet.set_defaults(func=_cmd_fleet)

    realtime = sub.add_parser(
        "realtime", help="emergent-impairment live session: bottleneck "
                         "queue, congestion control, FEC/retx, ladder")
    realtime.add_argument("--video", default="V8")
    realtime.add_argument("--frames", type=int, default=600)
    realtime.add_argument("--rate-mbps", type=float, default=8.0,
                          help="bottleneck link rate")
    realtime.add_argument("--prop-ms", type=float, default=20.0,
                          help="one-way propagation delay")
    realtime.add_argument("--budget-ms", type=float, default=150.0,
                          help="per-frame latency budget")
    realtime.add_argument("--recovery", default="adaptive",
                          choices=("fec", "retx", "adaptive"))
    realtime.add_argument("--no-ladder", action="store_true",
                          help="disable the deadline degradation ladder")
    realtime.add_argument("--loss", type=float, default=0.0,
                          help="injected per-packet loss on top of the "
                               "emergent queue loss")
    realtime.add_argument("--rt-seed", type=int, default=0,
                          help="seed of the realtime link/source draws")
    realtime.add_argument("--fault-seed", type=int, default=0,
                          help="seed of the injected packet-loss plan")
    realtime.set_defaults(func=_cmd_realtime)

    chaos = sub.add_parser(
        "chaos", help="chaos campaign: impairment regimes over the "
                      "matrix and the fleet, SLO scoring")
    chaos.add_argument("--sessions", type=int, default=32,
                       help="fleet sessions per regime")
    chaos.add_argument("--frames", type=int, default=360,
                       help="frames per matrix session")
    chaos.add_argument("--frame-cap", type=int, default=480,
                       help="frame cap per fleet session")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--shards", type=int, default=1,
                       help="job stripes folded independently; the "
                            "campaign is bit-identical for any value")
    chaos.add_argument("--smoke", action="store_true",
                       help="tiny CI-sized campaign (6 sessions, "
                            "300 frames)")
    chaos.add_argument("--json", default=None,
                       help="also write the ChaosResult JSON here")
    chaos.set_defaults(func=_cmd_chaos)

    lint = sub.add_parser(
        "lint", help="whole-program invariant checks: determinism, "
                     "units/dimensions, taint, round-trip, error "
                     "policy, API contract")
    lint.add_argument("paths", nargs="*",
                      help="files/directories (default: the installed "
                           "repro package)")
    lint.add_argument("--baseline", default=None,
                      help="baseline JSON of acknowledged findings")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite --baseline with the current findings")
    lint.add_argument("--select", default=None,
                      help="comma-separated rule ids (default: all)")
    lint.add_argument("--format", default="text",
                      choices=("text", "json", "sarif"))
    lint.add_argument("--output", default=None,
                      help="also write the report to this file")
    lint.add_argument("--sarif", default=None,
                      help="also write a SARIF 2.1.0 report here")
    lint.add_argument("--cache", default=None,
                      help="incremental-analysis cache file (per-file "
                           "results keyed by content fingerprint)")
    lint.add_argument("--jobs", type=int, default=None,
                      help="analyze files in N worker processes "
                           "(0 = one per CPU)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.set_defaults(func=_cmd_lint)

    validate = sub.add_parser(
        "validate", help="check this build against the paper's claims")
    validate.add_argument("--frames", type=int, default=96)
    validate.add_argument("--seed", type=int, default=7)
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand; bad input exits 2 with a one-line message."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        message = " ".join(str(exc).split())
        print(f"{parser.prog}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
