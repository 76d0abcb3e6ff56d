"""Golden JSON payloads: the serialized bytes of every wire type, pinned.

Checkpoints, stripe checksums and the chaos bit-identity check all hash
the JSON these types emit, so a serializer change must not move a
single byte.  Each case below builds one fixed-seed instance, dumps
``x.to_jsonable()`` with ``json.dumps`` (default separators, key order
as emitted) and compares its sha256 against the value recorded when the
per-type encoders were hand-written.

One deliberate change is excluded: ``SupervisionReport`` no longer
emits its derived ``faults_absorbed`` key (callers read the property),
so its hash is taken over the payload without that key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict

import pytest

from repro.config import (
    GAB,
    FaultConfig,
    RealtimeConfig,
    SimulationConfig,
)
from repro.core.pipeline import simulate
from repro.fleet import (
    PHASE_SCORE,
    DeviceClass,
    LognormalComponent,
    PopulationModel,
    PopulationSpec,
    RegionSpec,
    ShardEvent,
    StripeTask,
    StripeWorld,
    SupervisionReport,
    calibrate,
    default_population,
    execute_stripe,
    run_fleet,
)
from repro.fleet.engine import compute_load_stripe
from repro.fleet.shard import plan_stripes
from repro.lint import Baseline, LintReport, Violation
from repro.realtime import CHAOS_REGIMES, run_chaos, simulate_realtime
from repro.units import MBPS
from repro.video import workload

REPO = Path(__file__).resolve().parents[1]

#: ``default_population().fingerprint()``, as recorded in BENCH_fleet.json.
DEFAULT_POPULATION_FINGERPRINT = "e1545988879c3d6b"

GOLDEN: Dict[str, str] = {
    "Baseline":
        "12a1e6534e9e1a915354a84dbfdd501cfe92547f0dd379d25d678dcf1ab3892d",
    "CalibEntry":
        "7eccd7045c1990b60d25f9d5ab8b364cfbd15d5ed5f11b6795b4c05b2bc503fa",
    "CellLoadAccumulator":
        "4547459c0c72a5f598f65c44b4dc14694018a018f7fee8d16fd0f0d58eb156b1",
    "ChaosResult":
        "e3a550dd74ac3ff5de62198c203c524b9387350460144ba30d23494edbe6a3da",
    "CohortAggregate":
        "468d01fabc1576d7cecc7f58b1c9c6ec7f1d675a82495c7f56baa419de2a07d1",
    "DeviceClass":
        "7768323a5944a546178350dde1f9bb9f96e86860c9e42aa3aab79720aa93b27e",
    "FleetCalibration":
        "1b5b0a51907becdb2874a61d73df9e5ad55cae7628d5e6d0bdc273c581bba2ac",
    "FleetResult":
        "0660e57ba3e1321e8f6c935bb9b0b9e44db9e00a537f1daed7af32048ef31db0",
    "FrameTimeline":
        "efe5f089041a5f0da8272fa8bae92196a7f037657ca907357dd81792f0b5d273",
    "HistogramSketch":
        "86d55f016324e8793d966b10a4238eb7dd8629daf06f9bfceac8848a0c5f1178",
    "LintReport":
        "8dbce07aab120d458b31785feae09d97bc1c51db03857d009adfd628c6346601",
    "LognormalComponent":
        "3499311d0ed85b343dd825e45605031958609d97886abc067d13191a9bff463d",
    "PopulationSpec":
        "10dac8ec35e22690c9a44958c8757eca4666128b50e526afce9fc22470a707da",
    "RealtimeResult":
        "6d35d9c51d21caae9a0757144d8d7f1ae5559c4fb0f2d1159b4470e8a5724b79",
    "RegimeSLO":
        "d007d288e9a7c6d4cc8b27d42fbb9112091d62af9a42a769976eeeb738dc011f",
    "RegionSpec":
        "830bc63df2ccd5793fa55998dcebdf1593574dd5993d2d828a205a239753cf68",
    "ReservoirSample":
        "f9a5d10d748fd97ee090dd0d46067fa73ead62043035ab3f2bfbaf1d5537d27e",
    "RunResult":
        "0d94d72a0d24bd3112ce96d889147e9a969682d434196c971363c28ee2c13894",
    "ShardEvent":
        "920ccf953dbf8ee2e7455c1895e6c4abb918dcdaeb2e23db4377bebff4099d23",
    "StreamingMoments":
        "4bd791c34c505d60019a1ed947b89f9d1957a5ec36be709ec3e7d1d0fb2f2afa",
    "StripePartial":
        "a913004b2c0683319323da68f6575e9d1e17190964785a7430a5743105c2fdac",
    "SupervisionReport":
        "152c9f7fd081559d802c64fd2370f20d44798f5457b85f9290f357204af1e9b8",
}


def _sha(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def _spec() -> PopulationSpec:
    return PopulationSpec(
        device_classes=(DeviceClass(name="ref", scheme="gab"),),
        regions=(RegionSpec(
            name="town", cells=2, cell_capacity=6 * MBPS,
            bandwidth=(LognormalComponent(median=5 * MBPS, sigma=0.4),),
        ),),
        titles=("V1", "V8"),
        duration_median_seconds=8.0, duration_sigma=0.3,
        duration_min_seconds=4.0, duration_max_seconds=20.0,
        arrival_window_seconds=30.0, epoch_seconds=2.0,
        calib_frames=16, calib_seed=3,
    )


def build_instances() -> Dict[str, Any]:
    """One fixed-seed instance of every serialized type."""
    run = simulate(workload("V8"), GAB, n_frames=48)
    spec = _spec()
    calib = calibrate(spec)
    fleet = run_fleet(spec, n_sessions=600, seed=5, calibration=calib)
    cohort = fleet.cohorts["fleet"]
    bounds, stripes = plan_stripes(600, 2)
    world = StripeWorld(spec=spec, seed=5, bounds=bounds,
                        tables=calib.coefficient_arrays(spec), fps=30.0)
    partial = execute_stripe(
        world, StripeTask(phase=PHASE_SCORE, stripe_id=1,
                          chunks=stripes[1]))
    load = compute_load_stripe(spec, PopulationModel(spec, 5), bounds,
                               stripes[0])
    population = default_population()
    chaos = run_chaos(regimes=CHAOS_REGIMES[:2], videos=("V1",),
                      sessions=2, n_frames=60, fleet_frame_cap=90,
                      seed=3)
    harsh = RealtimeConfig(
        enabled=True, seed=5, link_rate=3 * MBPS, queue_bytes=48_000,
        rate_schedule=((1.0, 0.12), (2.0, 1.0), (3.0, 0.12), (4.0, 1.0)))
    realtime = simulate_realtime(
        replace(SimulationConfig(), realtime=harsh,
                faults=FaultConfig(packet_loss=0.2, seed=3)),
        n_frames=120)
    events = [ShardEvent("crash", "load", 1, 0, "exit 3"),
              ShardEvent("done", "score", 0, 1)]
    report = SupervisionReport(
        workers=2, crashes=3, lease_revocations=1, corrupt_rejected=2,
        worker_errors=1, duplicates_dropped=4, speculations=1,
        retries=5, resumed_stripes=2, stale_stripes_ignored=1,
        events=events,
        checkpoint_quarantined={"f.ckpt.corrupt": "not valid JSON"},
        stripe_seconds={"load:1": 1.5, "score:0": 0.25})
    violations = [
        Violation("src/a.py", 3, 4, "D001", "unseeded rng", "rng()"),
        Violation("src/b.py", 9, 0, "UD101", "mixed scales", "a + b"),
    ]
    return {
        "FrameTimeline": run.timeline,
        "RunResult": run,
        "CohortAggregate": cohort,
        "FleetResult": fleet,
        "LognormalComponent": population.regions[0].bandwidth[0],
        "DeviceClass": population.device_classes[0],
        "RegionSpec": population.regions[0],
        "PopulationSpec": population,
        "StreamingMoments": cohort.moments["total_energy"],
        "HistogramSketch": cohort.hists["stall_seconds"],
        "ReservoirSample": cohort.sample,
        "ShardEvent": events[0],
        "SupervisionReport": report,
        "CalibEntry": calib.entry("ref", "V8"),
        "FleetCalibration": calib,
        "RegimeSLO": chaos.slo("bursty-loss", "fleet"),
        "ChaosResult": chaos,
        "RealtimeResult": realtime,
        "StripePartial": partial,
        "CellLoadAccumulator": load,
        "Baseline": Baseline.from_violations(violations + violations[:1]),
        "LintReport": LintReport(violations=violations, files_checked=7,
                                 baselined=1, suppressed=2,
                                 elapsed_seconds=0.125, cache_hits=3,
                                 cache_misses=4),
    }


@pytest.fixture(scope="module")
def instances() -> Dict[str, Any]:
    return build_instances()


#: Payload adjustments named in the module docstring.
_ADJUST: Dict[str, Callable[[Dict[str, Any]], None]] = {
    "SupervisionReport": lambda payload: payload.pop("faults_absorbed",
                                                     None),
}


def payload_hash(name: str, obj: Any) -> str:
    payload = obj.to_jsonable()
    _ADJUST.get(name, lambda p: None)(payload)
    return _sha(payload)


def test_every_wire_type_is_pinned(instances):
    assert len(instances) == 22
    assert sorted(GOLDEN) == sorted(instances)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_payload(instances, name):
    assert payload_hash(name, instances[name]) == GOLDEN[name]


def test_realtime_case_exercises_inf_and_spans(instances):
    """The RealtimeResult case covers the null-for-inf and int-keyed
    span encodings, or its hash would pin nothing interesting."""
    payload = instances["RealtimeResult"].to_jsonable()
    assert None in payload["completion"]
    assert payload["lost_spans"]


def test_default_population_fingerprint():
    assert default_population().fingerprint() \
        == DEFAULT_POPULATION_FINGERPRINT


def test_lint_baseline_redumps_identically():
    path = REPO / "lint-baseline.json"
    text = path.read_text(encoding="utf-8")
    baseline = Baseline.from_jsonable(json.loads(text))
    redumped = json.dumps(baseline.to_jsonable(), indent=2,
                          sort_keys=True) + "\n"
    assert redumped == text
