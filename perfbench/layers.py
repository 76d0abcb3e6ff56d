"""Per-layer metrics of a traced run.

Span metrics (``.self_s`` and counts) are per cycle of the workload,
and span times are at reference host speed (``reference.py``):
the traced run covers whole cycles, each with the same inputs, so a
count repeats exactly from run to run.  Ratios come from the results
the traced operations returned.  Host-throughput figures (fleet
sessions per second, supervision overhead) come from the untraced
twin of each traced unit, at reference host speed like every
end-to-end time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Sequence

import numpy as np

from tracer import COUNT, NAME, OP, PARENT, Tracer

#: Layers reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "video.synthesis", "hashing.crc", "core.mach", "core.soa",
    "core.writeback", "core.readpath", "memory.controller", "decoder.vd",
    "core.race_to_sleep", "thermal", "faults", "realtime.session",
    "core.energy", "core.results", "core.pipeline", "fleet.population",
    "fleet.cell", "fleet.engine",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sum(outcomes: Sequence[Any], key: str) -> float:
    return sum(o.stats.get(key, 0) for o in outcomes)


def _per_cycle(total: float, cycles: int) -> float:
    value = total / cycles
    return int(value) if float(value).is_integer() else value


def _ref_sum(outcomes: Sequence[Any], key: str) -> float:
    """Sum of the host times under ``key``, at reference speed."""
    return sum(o.stats.get(key, 0) * o.speed for o in outcomes)


def _frames_per_s(outcomes: Sequence[Any]) -> float:
    return _ratio(sum(o.frames for o in outcomes),
                  sum(o.ref_seconds for o in outcomes))


def gab_energy_saving(outcomes: Sequence[Any]) -> float:
    """Mean GAB saving over Baseline, across every group (one video,
    one impairment) that ran both schemes — Fig. 11's headline."""
    energy: Dict[str, Dict[str, float]] = defaultdict(dict)
    for outcome in outcomes:
        if "scheme" in outcome.stats:
            group = outcome.label.rsplit("/", 1)[0]
            energy[group][outcome.stats["scheme"]] = outcome.stats["energy"]
    savings = [1.0 - schemes["GAB"] / schemes["Baseline"]
               for schemes in energy.values()
               if "GAB" in schemes and "Baseline" in schemes]
    return float(np.mean(savings)) if savings else 0.0


def per_layer(tracer: Tracer, plain: Sequence[Any], traced: Sequence[Any],
              cycles: int, checked: Sequence[Any],
              setup_speed: float) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``, by name.

    Span times are scaled to reference speed: by the speed of the
    traced operation they belong to, or by ``setup_speed`` for set-up.
    """
    spans = tracer.spans
    op = np.fromiter((s[OP] for s in spans), dtype=np.int64,
                     count=len(spans))
    in_loop = op >= 0
    speeds = np.append(np.array([o.speed for o in traced], dtype=float),
                       setup_speed)
    scale = speeds[np.where(in_loop, op, len(traced))]
    duration, self_time = (times * scale for times in tracer.self_times())
    by_layer: Dict[str, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        by_layer[span[NAME]].append(index)

    def rows(layer: str, loop_only: bool = True) -> np.ndarray:
        index = np.asarray(by_layer.get(layer, []), dtype=np.int64)
        return index[in_loop[index]] if loop_only else index

    def calls(layer: str) -> float:
        return _per_cycle(len(rows(layer)), cycles)

    def counted(layer: str) -> float:
        return _per_cycle(sum(spans[i][COUNT] for i in rows(layer)), cycles)

    def self_s(*layers: str, loop_only: bool = True) -> float:
        total = sum(float(self_time[rows(layer, loop_only)].sum())
                    for layer in layers)
        return total / (cycles if loop_only else 1)

    values: Dict[str, float] = {
        f"{layer}.self_s": self_s(layer) for layer in SELF_TIME_LAYERS}

    # A MACH frame reached the batched kernel when its process_frame
    # span is the parent of an lru_touch_classify span.
    mach_frames = {int(i) for i in rows("core.writeback")
                   if spans[i][COUNT] == 1}
    kernel_frames = {spans[i][PARENT] for i in rows("core.soa")} & mach_frames

    plain_fleet = [o for o in plain if "serial_s" in o.stats]
    serial_s = _ref_sum(plain_fleet, "serial_s")
    supervised_s = _ref_sum(plain_fleet, "supervised_s")
    values.update({
        "video.synthesis.frames": counted("video.synthesis"),
        "hashing.crc.calls": calls("hashing.crc"),
        "hashing.crc.blocks": counted("hashing.crc"),
        "core.mach.calls": calls("core.mach"),
        "core.mach.match_frac": _ratio(_sum(traced, "matched"),
                                       _sum(traced, "blocks")),
        "core.soa.calls": calls("core.soa"),
        "core.writeback.frames": calls("core.writeback"),
        "core.writeback.kernel_frac": _ratio(len(kernel_frames),
                                             len(mach_frames)),
        "core.writeback.fallback_writes": _per_cycle(
            _sum(traced, "fallback_writes"), cycles),
        "core.readpath.calls": calls("core.readpath"),
        "core.readpath.lines": counted("core.readpath"),
        "core.readpath.savings": 1.0 - _ratio(_sum(traced, "mem_reads"),
                                              _sum(traced, "raw_lines"))
        if _sum(traced, "raw_lines") else 0.0,
        "display.cache_hit_frac": _ratio(_sum(traced, "dc_hits"),
                                         _sum(traced, "dc_requests")),
        "memory.controller.accesses": counted("memory.controller"),
        "memory.controller.row_hit_frac": 1.0 - _ratio(
            _sum(traced, "activations"), _sum(traced, "bursts"))
        if _sum(traced, "bursts") else 0.0,
        "decoder.vd.calls": calls("decoder.vd"),
        "core.race_to_sleep.calls": calls("core.race_to_sleep"),
        "thermal.calls": calls("thermal"),
        "faults.blocks": counted("faults"),
        "realtime.session.calls": calls("realtime.session"),
        "core.results.bytes": _per_cycle(_sum(traced, "bytes"), cycles),
        "decoder.power.untracked_frac": 1.0 - _ratio(
            _sum(traced, "tracked"), _sum(traced, "elapsed"))
        if _sum(traced, "elapsed") else 0.0,
        # Calibration runs once, in set-up (operation -1).
        "fleet.surrogate.self_s": self_s("fleet.surrogate", loop_only=False),
        "fleet.surrogate.total_s": float(
            duration[rows("fleet.surrogate", False)].sum()),
        "fleet.population.sessions": counted("fleet.population"),
        "fleet.shard.merge_s": self_s("fleet.shard.merge"),
        "fleet.shard.codec_s": self_s("fleet.shard.codec"),
        "fleet.supervision.overhead_s": _ratio(
            supervised_s - serial_s, len(plain_fleet)),
        "fleet.supervision.attempts_per_stripe": _ratio(
            _sum(plain_fleet, "launches"), _sum(plain_fleet, "stripes")),
        "fleet.supervision.retries": _per_cycle(
            _sum(traced, "retries"), cycles),
        "fleet.serial_sessions_per_s": _ratio(
            _sum(plain_fleet, "sessions"), serial_s),
        "fleet.supervised_sessions_per_s": _ratio(
            _sum(plain_fleet, "sessions"), supervised_s),
        "model.gab_energy_saving": gab_energy_saving(traced),
        "model.drops": _per_cycle(_sum(traced, "drops"), cycles),
        "trace.untraced_frames_per_s": _frames_per_s(plain),
        "trace.traced_frames_per_s": _frames_per_s(traced),
        "trace.overhead_frac": 1.0 - _ratio(_frames_per_s(traced),
                                            _frames_per_s(plain)),
        "trace.spans": _per_cycle(int(in_loop.sum()), cycles),
        "host.speed": float(np.median([o.speed for o in plain])),
        "failed_op_frac": _ratio(sum(o.error is not None for o in checked),
                                 len(checked)),
    })
    return values
