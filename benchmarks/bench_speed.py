"""Pipeline speed benchmark: frames/sec over a reference session matrix.

The per-frame hot path (digest + MACH classification, write coalescing,
readpath scans, display-cache and DRAM accounting) runs as batched
structure-of-arrays kernels (:mod:`repro.core.soa`,
:func:`repro.hashing.crc.crc_pair_blocks`, ...).  This bench pins the
resulting throughput on a fixed matrix of configurations spanning the
raw, MACH, and display-cache write paths, with and without the thermal
governor and a trace-driven network model — the same axes the paper's
figures sweep.

Frame streams are pre-materialized (``simulate`` accepts any sized
iterable of :class:`DecodedFrame`), so the numbers measure the pipeline
itself rather than content synthesis.  Three reference points live in
``BENCH_speed.json``:

* ``full.configs`` — frames/sec per configuration;
* ``smoke.configs`` — the same at the CI smoke size;
* ``pre_pr`` — a frozen anchor measured on the pre-vectorization tree
  (regenerate with ``--emit-anchor`` from a checkout of that commit).

Run standalone::

    python benchmarks/bench_speed.py                     # full matrix
    python benchmarks/bench_speed.py --smoke --check BENCH_speed.json

The ``--smoke`` form is the CI gate: it re-measures the reduced matrix
and fails when any configuration regresses more than ``--tolerance``
(default 20%) below the checked-in smoke numbers — both in absolute
frames/sec and, so that runner speed does not decide pass or fail, as a
ratio to ``raw_baseline`` measured in the same run.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import simulate, workload
from repro.config import (
    BASELINE,
    GAB,
    GAB_DCC,
    MAB,
    RACE_TO_SLEEP,
    FaultConfig,
    SchemeConfig,
    SimulationConfig,
    ThermalConfig,
)
from repro.video.frame import DecodedFrame
from repro.video.synthesis import SyntheticVideo

try:  # pytest package-relative; absolute when run as a script
    from .conftest import BENCH_SEED
except ImportError:  # pragma: no cover - script mode
    BENCH_SEED = 7

#: Reference workload (Table 1) behind every configuration.
WORKLOAD = "V8"

#: Frame counts for the full matrix and the CI smoke sweep.
FULL_FRAMES = 240
SMOKE_FRAMES = 48

#: Best-of repeats behind every smoke number, checked-in and gated
#: alike: a smoke session lasts tens of milliseconds, so one
#: interrupted repeat must not decide the gate.
SMOKE_REPEATS = 5

#: Allowed fractional frames/sec drop before the CI gate fails.
DEFAULT_TOLERANCE = 0.20

#: Configuration every other one is normalized to in the same run.
NORMALIZE_TO = "raw_baseline"


@dataclass(frozen=True)
class MatrixEntry:
    """One benchmark configuration (scheme + pipeline toggles)."""

    name: str
    scheme: SchemeConfig
    thermal: bool = False
    network: bool = False
    faults: Optional[FaultConfig] = None
    buffer_policy: str = "lazy"


#: The reference session matrix: raw, MACH, and display-cache write
#: paths, plus the thermal governor, a delivered-network session,
#: injected digest collisions and the eager MACH-buffer prefetch (the
#: last two take the write path's set-local replay).
MATRIX = (
    MatrixEntry("raw_baseline", BASELINE),
    MatrixEntry("race_to_sleep", RACE_TO_SLEEP),
    MatrixEntry("mach_intra", MAB),
    MatrixEntry("mach_global", GAB),
    MatrixEntry("mach_display_cache", GAB_DCC),
    MatrixEntry("mach_global_thermal", GAB, thermal=True),
    MatrixEntry("mach_global_network", GAB, network=True),
    MatrixEntry("mach_global_faults", GAB, faults=FaultConfig(
        block_bit_error=2e-4, digest_collision=0.02)),
    MatrixEntry("mach_intra_eager", MAB, buffer_policy="eager"),
)


def _materialize(cfg: SimulationConfig, n_frames: int) -> List[DecodedFrame]:
    """Pre-decode the reference stream so timing excludes synthesis."""
    return list(SyntheticVideo(
        cfg.video, workload(WORKLOAD), seed=BENCH_SEED, n_frames=n_frames,
        complexity_sigma=cfg.calibration.complexity_sigma))


def _simulate_kwargs(entry: MatrixEntry, cfg: SimulationConfig,
                     n_frames: int) -> Dict[str, object]:
    kwargs: Dict[str, object] = {}
    if entry.buffer_policy != "lazy":
        kwargs["buffer_policy"] = entry.buffer_policy
    if entry.network:
        from repro.network import DeliveredNetworkModel, deliver_for_config

        delivery = deliver_for_config(
            cfg.network, cfg.video, source=workload(WORKLOAD),
            n_frames=n_frames, seed=BENCH_SEED)
        kwargs["network_model"] = DeliveredNetworkModel(delivery, n_frames)
    return kwargs


def _entry_config(entry: MatrixEntry, cfg: SimulationConfig) -> SimulationConfig:
    if entry.thermal:
        cfg = replace(cfg, thermal=ThermalConfig(enabled=True))
    if entry.faults is not None:
        cfg = replace(cfg, faults=entry.faults)
    return cfg


def _measure(entries: Sequence[MatrixEntry], stream: Sequence[DecodedFrame],
             cfg: SimulationConfig, n_frames: int,
             repeats: int) -> Dict[str, Dict[str, float]]:
    """Best-of-``repeats`` wall time per configuration.

    Repeats run round-robin over ``entries``, so every configuration's
    best sample comes from the same stretch of host time: a drift in
    host speed then moves all of them together, which keeps the ratios
    the normalized gate compares steady.
    """
    runs = []
    for entry in entries:
        run_cfg = _entry_config(entry, cfg)
        runs.append((entry, run_cfg, _simulate_kwargs(
            entry, run_cfg, n_frames)))
    best = {entry.name: math.inf for entry in entries}
    for _ in range(repeats):
        for entry, run_cfg, kwargs in runs:
            start = time.perf_counter()
            simulate(stream, entry.scheme, n_frames=n_frames,
                     config=run_cfg, seed=BENCH_SEED, **kwargs)
            best[entry.name] = min(best[entry.name],
                                   time.perf_counter() - start)
    return {
        name: {"frames_per_second": n_frames / seconds,
               "ms_per_frame": 1000.0 * seconds / n_frames}
        for name, seconds in best.items()
    }


def _measure_matrix(n_frames: int, repeats: int,
                    progress: Optional[Callable[[str], None]] = None,
                    ) -> Dict[str, Dict[str, float]]:
    cfg = SimulationConfig()
    stream = _materialize(cfg, n_frames)
    configs = _measure(MATRIX, stream, cfg, n_frames, repeats)
    if progress is not None:
        for name, row in configs.items():
            progress(f"  {name:22s} {row['frames_per_second']:8.0f} "
                     f"f/s  ({row['ms_per_frame']:.2f} ms/frame)")
    return configs


def _geomean(values: Sequence[float]) -> float:
    return float(np.exp(np.mean(np.log(values)))) if values else 0.0


def _speedups(fast: Dict[str, Dict[str, float]],
              slow: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    return {
        name: fast[name]["frames_per_second"] / row["frames_per_second"]
        for name, row in slow.items()
        if name in fast and row.get("frames_per_second")
    }


def _bench(repeats: int = 3,
           anchor: Optional[Dict[str, object]] = None,
           progress: Optional[Callable[[str], None]] = None,
           ) -> Dict[str, object]:
    """Measure the full matrix and assemble the JSON payload."""
    say = progress or (lambda _line: None)
    # Smoke first, from the same process state the ``--smoke`` gate
    # starts in: the full sessions warm memoized per-frame state that
    # would inflate the checked-in smoke numbers.
    say("smoke size:")
    smoke = _measure_matrix(SMOKE_FRAMES, SMOKE_REPEATS,
                            progress=progress)
    say("full:")
    full = _measure_matrix(FULL_FRAMES, repeats, progress=progress)
    payload: Dict[str, object] = {
        "schema": 1,
        "seed": BENCH_SEED,
        "workload": WORKLOAD,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "full": {"n_frames": FULL_FRAMES, "repeats": repeats,
                 "configs": full},
        "smoke": {"n_frames": SMOKE_FRAMES, "repeats": SMOKE_REPEATS,
                  "configs": smoke},
        "aggregate": {
            "geomean_fps": _geomean(
                [row["frames_per_second"] for row in full.values()]),
        },
    }
    if anchor is not None:
        vs_pre = _speedups(full, anchor["configs"])
        payload["pre_pr"] = anchor
        payload["speedup_vs_pre_pr"] = vs_pre
        payload["aggregate"]["geomean_speedup_vs_pre_pr"] = _geomean(
            list(vs_pre.values()))
    return payload


def check_regression(measured: Dict[str, Dict[str, float]],
                     reference: Dict[str, Dict[str, float]],
                     tolerance: float) -> List[str]:
    """Configurations whose frames/sec regressed beyond ``tolerance``."""
    failures = []
    for name, ref in reference.items():
        if name not in measured:
            failures.append(f"{name}: missing from measured matrix")
            continue
        got = measured[name]["frames_per_second"]
        want = ref["frames_per_second"]
        if got < (1.0 - tolerance) * want:
            failures.append(
                f"{name}: {got:.0f} f/s vs checked-in {want:.0f} f/s "
                f"({got / want - 1.0:+.1%}, tolerance -{tolerance:.0%})")
    return failures


def check_normalized(measured: Dict[str, Dict[str, float]],
                     reference: Dict[str, Dict[str, float]],
                     tolerance: float) -> List[str]:
    """Configurations whose frames/sec *relative to* ``NORMALIZE_TO``,
    both measured in the same run, regressed beyond ``tolerance``.

    A slower or faster runner moves every configuration together, so
    the ratio isolates regressions of one path against the others.
    """
    if NORMALIZE_TO not in measured or NORMALIZE_TO not in reference:
        return [f"{NORMALIZE_TO}: missing, cannot normalize"]
    got_base = measured[NORMALIZE_TO]["frames_per_second"]
    want_base = reference[NORMALIZE_TO]["frames_per_second"]
    failures = []
    for name, ref in reference.items():
        if name == NORMALIZE_TO or name not in measured:
            continue  # a missing entry already fails the absolute check
        got = measured[name]["frames_per_second"] / got_base
        want = ref["frames_per_second"] / want_base
        if got < (1.0 - tolerance) * want:
            failures.append(
                f"{name}: {got:.3f}x {NORMALIZE_TO} vs checked-in "
                f"{want:.3f}x ({got / want - 1.0:+.1%}, tolerance "
                f"-{tolerance:.0%})")
    return failures


def _main() -> None:  # pragma: no cover - script entry
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sweep for CI")
    parser.add_argument("--check", metavar="JSON",
                        help="fail on fps regression vs this checked-in "
                             "BENCH_speed.json")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed fractional fps drop (default 0.20)")
    parser.add_argument("--anchor", metavar="JSON",
                        help="frozen pre-PR numbers to embed (produced "
                             "by --emit-anchor on the pre-PR tree)")
    parser.add_argument("--emit-anchor", action="store_true",
                        help="measure this tree's default path and emit "
                             "an anchor JSON instead of the full payload")
    parser.add_argument("--out",
                        help="where to write the payload (default "
                             "BENCH_speed.json; a --smoke run writes "
                             "only when this is given)")
    args = parser.parse_args()
    out = args.out or "BENCH_speed.json"

    if args.emit_anchor:
        configs = _measure_matrix(FULL_FRAMES, 2, progress=print)
        anchor = {"n_frames": FULL_FRAMES, "configs": configs,
                  "note": "measured on the pre-vectorization tree with "
                          "this same bench file"}
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(anchor, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote anchor {out}")
        return

    if args.smoke:
        # Read the reference before anything is written: ``--out`` may
        # name the same file.
        reference = None
        if args.check:
            with open(args.check, "r", encoding="utf-8") as handle:
                reference = json.load(handle)
        print("smoke matrix:")
        configs = _measure_matrix(SMOKE_FRAMES, SMOKE_REPEATS,
                                  progress=print)
        payload: Dict[str, object] = {
            "schema": 1, "mode": "smoke", "seed": BENCH_SEED,
            "workload": WORKLOAD,
            "smoke": {"n_frames": SMOKE_FRAMES, "repeats": SMOKE_REPEATS,
                      "configs": configs},
        }
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.out}")
        if reference is not None:
            ref_configs = reference["smoke"]["configs"]
            failures = (
                check_regression(configs, ref_configs, args.tolerance)
                + check_normalized(configs, ref_configs, args.tolerance))
            if failures:
                raise SystemExit("fps regression vs " + args.check + ":\n  "
                                 + "\n  ".join(failures))
            print(f"no regression vs {args.check}, absolute or relative "
                  f"to {NORMALIZE_TO} (tolerance -{args.tolerance:.0%})")
        return

    anchor = None
    if args.anchor:
        with open(args.anchor, "r", encoding="utf-8") as handle:
            anchor = json.load(handle)
    payload = _bench(anchor=anchor, progress=print)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    agg = payload["aggregate"]
    line = f"wrote {out}: geomean {agg['geomean_fps']:,.0f} f/s"
    if "geomean_speedup_vs_pre_pr" in agg:
        line += f", {agg['geomean_speedup_vs_pre_pr']:.1f}x vs pre-PR"
    print(line)


if __name__ == "__main__":  # pragma: no cover - script entry
    _main()
