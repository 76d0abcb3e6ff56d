"""repro.fleet — streaming population engine for fleet-scale studies.

Turns the single-device simulator into a population tool: declarative
heterogeneous populations (:mod:`.population`), a flow-level surrogate
calibrated from the exact per-frame pipeline (:mod:`.surrogate`),
cell-level shared-bandwidth contention (:mod:`.cell`), and sharded
streaming execution over exact mergeable online aggregates
(:mod:`.sketches`, :mod:`.engine`).  Entry point:
:func:`~repro.fleet.engine.run_fleet` / the ``repro fleet`` CLI.
"""

from .cell import CellLoadAccumulator, ContentionField
from .engine import (
    HIST_METRICS,
    METRICS,
    SESSION_CHUNK,
    CohortAggregate,
    FleetResult,
    cohort_keys,
    run_fleet,
)
from .shard import (
    PHASE_LOAD,
    PHASE_SCORE,
    MergePlane,
    StripePartial,
    StripeTask,
    StripeWorld,
    execute_stripe,
    validate_partial,
)
from .supervision import (
    ShardEvent,
    SupervisedFleetRun,
    SupervisionReport,
    Supervisor,
    SupervisorConfig,
    run_fleet_supervised,
)
from .population import (
    DeviceClass,
    LognormalComponent,
    PopulationModel,
    PopulationSpec,
    RegionSpec,
    SessionChunk,
    default_population,
    load_population_spec,
)
from .sketches import (
    HistogramSketch,
    ReservoirSample,
    StreamingMoments,
    hash_u01_array,
    hash_u64_array,
)
from .surrogate import (
    CalibEntry,
    FleetCalibration,
    calibrate,
    load_or_calibrate,
)

__all__ = [
    "HIST_METRICS",
    "METRICS",
    "PHASE_LOAD",
    "PHASE_SCORE",
    "SESSION_CHUNK",
    "CalibEntry",
    "MergePlane",
    "ShardEvent",
    "StripePartial",
    "StripeTask",
    "StripeWorld",
    "SupervisedFleetRun",
    "SupervisionReport",
    "Supervisor",
    "SupervisorConfig",
    "CellLoadAccumulator",
    "CohortAggregate",
    "ContentionField",
    "DeviceClass",
    "FleetCalibration",
    "FleetResult",
    "HistogramSketch",
    "LognormalComponent",
    "PopulationModel",
    "PopulationSpec",
    "RegionSpec",
    "ReservoirSample",
    "SessionChunk",
    "StreamingMoments",
    "calibrate",
    "cohort_keys",
    "default_population",
    "load_population_spec",
    "execute_stripe",
    "hash_u01_array",
    "hash_u64_array",
    "load_or_calibrate",
    "run_fleet",
    "run_fleet_supervised",
    "validate_partial",
]
