"""Shard supervision benchmark: overhead, chaos absorption, speculation.

``repro.fleet.shard`` + ``repro.fleet.supervision`` promise that fault
tolerance is *free at the result plane* (bit-identical merges no matter
the schedule) and *cheap at the time plane* (supervision costs a bounded
overhead on top of the serial fold).  This bench measures three claims:

* **overhead** — wall-clock ratio of an unfaulted supervised run
  (worker pool, leases, heartbeats) over the plain serial
  ``run_fleet`` fold on the same population;
* **chaos absorption** — a seeded crash/stall/corrupt schedule is
  absorbed (faults > 0) while the merged ``FleetResult`` stays
  bit-identical to the serial reference;
* **speculation** — under a seeded slow-worker distribution, enabling
  speculative re-execution cuts p99 stripe completion time without
  changing a bit of the result.

Run under pytest (``pytest benchmarks/bench_shard.py``) or standalone::

    python benchmarks/bench_shard.py            # reference numbers
    python benchmarks/bench_shard.py --smoke    # reduced CI sweep

both of which write the headline numbers to ``BENCH_shard.json``.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Optional

from repro.analysis import format_table
from repro.faults import ShardFaultConfig
from repro.fleet import (
    DeviceClass,
    FleetCalibration,
    LognormalComponent,
    PopulationSpec,
    RegionSpec,
    SupervisorConfig,
    calibrate,
    default_population,
    run_fleet,
    run_fleet_supervised,
)
from repro.units import MBPS

try:  # pytest package-relative; absolute when run as a script
    from .conftest import BENCH_SEED
except ImportError:  # pragma: no cover - script mode
    BENCH_SEED = 7

#: Population sizes for the overhead comparison.
REFERENCE_SESSIONS = 50_000
SMOKE_SESSIONS = 5_000

#: Supervised wall-clock allowed relative to the serial fold.  The
#: worker pool forks per stripe and ships partials over pipes, so some
#: overhead is structural; it must stay a small constant factor, not
#: scale with faults or population.
OVERHEAD_BUDGET = 25.0

#: p99 stripe-seconds ratio (speculation on / off) under the seeded
#: slow-worker distribution.  Mirrors the validate check's bar.
SPECULATION_BUDGET = 0.7


def _smoke_spec() -> PopulationSpec:
    """A 1-device, 2-title population whose calibration runs in <1 s."""
    return PopulationSpec(
        device_classes=(DeviceClass(name="ref", scheme="gab"),),
        regions=(RegionSpec(
            name="town", cells=4, cell_capacity=40 * MBPS,
            bandwidth=(LognormalComponent(median=10 * MBPS, sigma=0.5),),
        ),),
        titles=("V1", "V8"),
        calib_frames=16,
        calib_seed=BENCH_SEED,
    )


def _supervisor(**overrides: object) -> SupervisorConfig:
    base: Dict[str, object] = dict(
        workers=2, lease_seconds=2.0, max_retries=6,
        speculation_min_seconds=0.3)
    base.update(overrides)
    return SupervisorConfig(**base)  # type: ignore[arg-type]


def _overhead(spec: PopulationSpec, calibration: FleetCalibration,
              sessions: int, shards: int) -> Dict[str, object]:
    start = time.perf_counter()
    serial = run_fleet(spec, sessions, seed=BENCH_SEED, shards=1,
                       calibration=calibration)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    supervised = run_fleet_supervised(
        spec, sessions, seed=BENCH_SEED, shards=shards,
        calibration=calibration, supervisor=_supervisor())
    supervised_seconds = time.perf_counter() - start
    identical = (json.dumps(serial.to_jsonable(), sort_keys=True)
                 == json.dumps(supervised.result.to_jsonable(),
                               sort_keys=True))
    return {
        "sessions": float(sessions),
        "shards": float(shards),
        "serial_seconds": serial_seconds,
        "supervised_seconds": supervised_seconds,
        "overhead_ratio": supervised_seconds / serial_seconds,
        "identical_to_serial": identical,
    }


def _chaos(spec: PopulationSpec, calibration: FleetCalibration,
           sessions: int, shards: int) -> Dict[str, object]:
    serial = run_fleet(spec, sessions, seed=BENCH_SEED, shards=1,
                       calibration=calibration)
    faults = ShardFaultConfig(crash_rate=0.25, stall_rate=0.1,
                              corrupt_rate=0.2, slow_rate=0.1,
                              slow_seconds=0.3, max_faulty_attempts=2,
                              seed=BENCH_SEED)
    chaos = run_fleet_supervised(
        spec, sessions, seed=BENCH_SEED, shards=shards,
        calibration=calibration, faults=faults,
        supervisor=_supervisor(lease_seconds=1.0))
    identical = (json.dumps(serial.to_jsonable(), sort_keys=True)
                 == json.dumps(chaos.result.to_jsonable(),
                               sort_keys=True))
    return {
        "faults_absorbed": float(chaos.report.faults_absorbed),
        "crashes": float(chaos.report.crashes),
        "corrupt_rejected": float(chaos.report.corrupt_rejected),
        "lease_revocations": float(chaos.report.lease_revocations),
        "identical_to_serial": identical,
    }


def _speculation(spec: PopulationSpec, calibration: FleetCalibration,
                 sessions: int, shards: int) -> Dict[str, object]:
    slow = ShardFaultConfig(slow_rate=0.4, slow_seconds=2.0,
                            max_faulty_attempts=1, seed=BENCH_SEED + 2)

    def run(speculate: bool):
        return run_fleet_supervised(
            spec, sessions, seed=BENCH_SEED, shards=shards,
            contention=False, calibration=calibration, faults=slow,
            supervisor=_supervisor(lease_seconds=4.0,
                                   speculate=speculate,
                                   speculation_min_seconds=0.4))

    baseline = run(False)
    speculated = run(True)
    p99_off = baseline.report.p99_stripe_seconds("score")
    p99_on = speculated.report.p99_stripe_seconds("score")
    identical = (json.dumps(baseline.result.to_jsonable(), sort_keys=True)
                 == json.dumps(speculated.result.to_jsonable(),
                               sort_keys=True))
    return {
        "p99_off_seconds": p99_off,
        "p99_on_seconds": p99_on,
        "p99_ratio": p99_on / p99_off if p99_off else 1.0,
        "speculations": float(speculated.report.speculations),
        "identical": identical,
    }


def _bench(spec: PopulationSpec, sessions: int,
           shards: int) -> Dict[str, object]:
    calibration = calibrate(spec)
    return {
        "seed": BENCH_SEED,
        "spec_fingerprint": spec.fingerprint(),
        "overhead": _overhead(spec, calibration, sessions, shards),
        "chaos": _chaos(spec, calibration, sessions, shards),
        "speculation": _speculation(spec, calibration, sessions, 6),
    }


def _check(payload: Dict[str, object]) -> None:
    overhead = payload["overhead"]
    chaos = payload["chaos"]
    speculation = payload["speculation"]
    assert overhead["identical_to_serial"], (
        "supervised run diverged from the serial fold — the merge "
        "plane is not exact")
    assert overhead["overhead_ratio"] < OVERHEAD_BUDGET, (
        f"supervision overhead {overhead['overhead_ratio']:.1f}x over "
        "the serial fold — leases/heartbeats have stopped being cheap")
    assert chaos["identical_to_serial"], (
        "chaos run diverged from the serial fold despite completing")
    assert chaos["faults_absorbed"] > 0, (
        "chaos schedule injected no faults — the bench is vacuous")
    assert speculation["identical"], (
        "speculative re-execution changed the merged result")
    assert speculation["speculations"] > 0, (
        "no speculative attempts launched under the slow-worker plan")
    assert speculation["p99_ratio"] < SPECULATION_BUDGET, (
        f"speculation p99 ratio {speculation['p99_ratio']:.2f} — "
        "stragglers are not being cut")


def test_supervision_overhead_and_chaos(benchmark, emit):
    """Chaos absorbed bit-exactly; speculation cuts the p99 tail."""
    payload = benchmark.pedantic(
        _bench, rounds=1, iterations=1,
        args=(default_population(), REFERENCE_SESSIONS, 4))
    overhead = payload["overhead"]
    chaos = payload["chaos"]
    speculation = payload["speculation"]
    emit(format_table(
        ["metric", "value"],
        [["overhead ratio", overhead["overhead_ratio"]],
         ["faults absorbed", chaos["faults_absorbed"]],
         ["speculation p99 ratio", speculation["p99_ratio"]]],
        title="Shard supervision (bit-identical merges under chaos)"))
    _check(payload)


def _smoke(path: str = "BENCH_shard.json",
           spec: Optional[PopulationSpec] = None,
           sessions: int = SMOKE_SESSIONS) -> Dict[str, object]:
    """CI smoke: reduced population, headline JSON artifact."""
    payload = _bench(spec or _smoke_spec(), sessions, 4)
    _check(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


if __name__ == "__main__":  # pragma: no cover - CI smoke entry
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sweep for CI")
    parser.add_argument("--out", default="BENCH_shard.json")
    args = parser.parse_args()
    if args.smoke:
        result = _smoke(args.out)
    else:
        result = _smoke(args.out, spec=default_population(),
                        sessions=REFERENCE_SESSIONS)
    overhead = result["overhead"]
    chaos = result["chaos"]
    speculation = result["speculation"]
    print(f"wrote {args.out}: overhead "
          f"{overhead['overhead_ratio']:.1f}x, "
          f"{chaos['faults_absorbed']:.0f} faults absorbed "
          f"bit-exactly, speculation p99 ratio "
          f"{speculation['p99_ratio']:.2f}")
