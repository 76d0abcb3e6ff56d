"""Stripe tasks, validated partials, and the idempotent merge plane.

This module is the *data plane* of supervised fleet execution: what a
shard worker computes (:func:`execute_stripe`), how the result is
shipped home (:class:`StripePartial`, checksummed), how the parent
decides whether to trust it (:func:`validate_partial`), and how trusted
partials fold into a :class:`~repro.fleet.engine.FleetResult`
(:class:`MergePlane`).  The control plane — processes, leases,
heartbeats, retries, speculation — lives in
:mod:`repro.fleet.supervision`.

The design center is the bit-identity contract: a stripe that was
retried three times, speculated, and delivered twice must fold into the
result exactly once, and the folded result must equal the undisturbed
serial run byte for byte.  Three properties deliver that:

* **Stripe purity** — :func:`execute_stripe` is a pure function of
  ``(world, task)``; the population model re-draws chunks on demand, so
  any attempt by any process computes the identical partial.
* **Validation before merge** — a partial must match its task, carry a
  payload whose canonical-JSON sha256 equals its checksum, and satisfy
  the aggregate invariants (integer load diffs of the right shape,
  exactly the canonical cohort keys, the standard quantum, session
  counts that add up).  Corrupt partials are rejected *before* they can
  touch merge state.
* **Idempotent merging** — :class:`MergePlane` dedups by
  ``(phase, stripe id)``; duplicate deliveries are dropped, and because
  every aggregate merge is exactly commutative (integer state
  everywhere), arrival order cannot perturb a bit.

Stripe checkpoints reuse the runner's quarantine-on-corruption
discipline (:mod:`repro.checkpointing`): a checkpoint whose entries
fail their checksums is moved to ``<path>.corrupt`` and the run starts
fresh rather than trusting it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..checkpointing import load_checkpoint, save_checkpoint
from ..errors import FleetError, ShardError
from ..jsonable import Jsonable, decode, jsonable
from .cell import CellLoadAccumulator, ContentionField
from .engine import (
    CohortAggregate,
    FleetResult,
    cohort_keys,
    compute_load_stripe,
    compute_score_stripe,
)
from .engine import plan_stripes  # noqa: F401 — re-exported: tasks are cut from it
from .population import PopulationModel, PopulationSpec
from .sketches import DEFAULT_QUANTUM

#: The two stripe phases, in execution order: pass 1 accumulates cell
#: load, pass 2 scores sessions against the finalized field.
PHASE_LOAD = "load"
PHASE_SCORE = "score"

_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class StripeTask:
    """One unit of leased work: a phase and a stripe of chunk ids."""

    phase: str
    stripe_id: int
    chunks: Tuple[int, ...]


@dataclass(frozen=True)
class StripeWorld:
    """Everything a worker needs to execute any stripe of one run.

    Immutable and shared by every attempt; for :data:`PHASE_SCORE`
    tasks, ``field`` must be the *globally finalized* contention field
    (or ``None`` for contention-free runs) so throttle factors are
    shard-independent.
    """

    spec: PopulationSpec
    seed: int
    bounds: Tuple[Tuple[int, int], ...]
    tables: Dict[str, np.ndarray]
    fps: float
    field: Optional[ContentionField] = None

    def stripe_sessions(self, task: StripeTask) -> int:
        """How many sessions ``task``'s chunks cover."""
        return sum(self.bounds[chunk][1] for chunk in task.chunks)


def make_tasks(phase: str, stripes: Sequence[Tuple[int, ...]]
               ) -> List[StripeTask]:
    """One :class:`StripeTask` per stripe for ``phase``."""
    return [StripeTask(phase=phase, stripe_id=stripe_id, chunks=chunks)
            for stripe_id, chunks in enumerate(stripes)]


def payload_checksum(payload: Dict[str, object]) -> str:
    """sha256 of the canonical-JSON payload encoding."""
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@jsonable
@dataclass(frozen=True)
class StripePartial(Jsonable):
    """One stripe's result as shipped from worker to merge plane.

    ``checksum`` is computed *by the producer* over the canonical JSON
    of ``payload``; any mutation in flight (or in a checkpoint on
    disk) is detected by recomputing it at the consumer.
    """

    phase: str
    stripe_id: int
    n_sessions: int
    payload: Dict[str, object]
    checksum: str

    @classmethod
    def build(cls, phase: str, stripe_id: int, n_sessions: int,
              payload: Dict[str, object]) -> "StripePartial":
        """Seal a freshly computed payload under its checksum."""
        return cls(phase=phase, stripe_id=stripe_id,
                   n_sessions=n_sessions, payload=payload,
                   checksum=payload_checksum(payload))

    @classmethod
    def from_jsonable(cls, data: object) -> "StripePartial":
        """Inverse of :meth:`to_jsonable`; checksum-verified.

        Raises :class:`ValueError` on mismatch so checkpoint loading
        quarantines a tampered file instead of merging it.
        """
        if not isinstance(data, dict):
            raise TypeError(f"partial is {type(data).__name__}, "
                            "not an object")
        if not isinstance(data["payload"], dict):
            raise TypeError("partial payload is not an object")
        partial = decode(cls, data)
        if partial.checksum != payload_checksum(partial.payload):
            raise ValueError(
                f"stripe ({partial.phase}, {partial.stripe_id}) "
                "checksum mismatch")
        return partial


def execute_stripe(world: StripeWorld, task: StripeTask) -> StripePartial:
    """Compute one stripe — pure in ``(world, task)``.

    Safe to run in any process, any number of times: every attempt
    produces the byte-identical partial.
    """
    model = PopulationModel(world.spec, world.seed)
    if task.phase == PHASE_LOAD:
        accumulator = compute_load_stripe(world.spec, model,
                                          world.bounds, task.chunks)
        payload: Dict[str, object] = accumulator.to_jsonable()
    elif task.phase == PHASE_SCORE:
        partial = compute_score_stripe(world.spec, model, world.bounds,
                                       task.chunks, world.field,
                                       world.tables, world.fps,
                                       world.seed)
        payload = {"cohorts": {key: agg.to_jsonable()
                               for key, agg in partial.items()}}
    else:
        raise ShardError(f"unknown stripe phase {task.phase!r}")
    return StripePartial.build(task.phase, task.stripe_id,
                               world.stripe_sessions(task), payload)


def tamper_partial(partial: StripePartial) -> StripePartial:
    """A corrupted copy of ``partial`` (checksum left stale).

    The fault injector's CORRUPT arm: one integer in the payload is
    nudged *after* the checksum was sealed, modeling a worker whose
    result got damaged in flight.  Validation must catch it.
    """
    payload = json.loads(json.dumps(partial.payload))
    if partial.phase == PHASE_LOAD:
        payload["diff"][0][0] += 1
    else:
        moments = payload["cohorts"]["fleet"]["moments"]
        moments["total_energy"]["q_sum"] += 1
    return StripePartial(phase=partial.phase,
                         stripe_id=partial.stripe_id,
                         n_sessions=partial.n_sessions,
                         payload=payload, checksum=partial.checksum)


# -- validation ----------------------------------------------------------------


def _validate_load_payload(spec: PopulationSpec,
                           payload: Dict[str, object]) -> None:
    diff = payload.get("diff")
    array = np.asarray(diff)
    expected = (spec.total_cells, spec.epoch_count + 1)
    if array.shape != expected:
        raise FleetError(f"load diff has shape {array.shape}, spec "
                         f"wants {expected}")
    if not issubclass(array.dtype.type, np.integer):
        raise FleetError("load diff is not integer-valued — the cell "
                         "field's exactness contract requires integer "
                         "demand")


def _validate_score_payload(spec: PopulationSpec, n_sessions: int,
                            payload: Dict[str, object]) -> None:
    cohorts = payload.get("cohorts")
    if not isinstance(cohorts, dict):
        raise FleetError("score payload has no cohorts object")
    expected_keys = cohort_keys(spec)
    if sorted(cohorts) != sorted(expected_keys):
        missing = sorted(set(expected_keys) - set(cohorts))
        extra = sorted(set(cohorts) - set(expected_keys))
        raise FleetError(f"cohort keys diverge from the spec (missing "
                         f"{missing}, unexpected {extra})")
    for key, data in cohorts.items():
        if not isinstance(data, dict):
            raise FleetError(f"cohort {key!r} is not an object")
        moments = data.get("moments")
        if not isinstance(moments, dict):
            raise FleetError(f"cohort {key!r} has no moments")
        for metric, summary in moments.items():
            if not isinstance(summary, dict):
                raise FleetError(
                    f"cohort {key!r} metric {metric!r} is malformed")
            if not np.isclose(float(summary.get("quantum", 0.0)),  # type: ignore[arg-type]
                              DEFAULT_QUANTUM):
                raise FleetError(
                    f"cohort {key!r} metric {metric!r} uses quantum "
                    f"{summary.get('quantum')!r}, not the standard "
                    f"{DEFAULT_QUANTUM}")
            for field_name in ("count", "q_sum", "q_sum_sq"):
                if not isinstance(summary.get(field_name), int):
                    raise FleetError(
                        f"cohort {key!r} metric {metric!r} field "
                        f"{field_name!r} is not an exact integer")
            count = summary["count"]
            if not isinstance(count, int) or not (
                    0 <= count <= n_sessions):
                raise FleetError(
                    f"cohort {key!r} metric {metric!r} counts "
                    f"{count!r} sessions, stripe holds {n_sessions}")
    fleet_moments = cohorts["fleet"]["moments"]
    if "total_energy" not in fleet_moments:
        raise FleetError("fleet cohort is missing its total_energy "
                         "moments")
    fleet_count = fleet_moments["total_energy"]["count"]
    if fleet_count != n_sessions:
        raise FleetError(
            f"fleet cohort counts {fleet_count} sessions, stripe "
            f"holds {n_sessions} — sessions were lost or invented")


def validate_partial(world: StripeWorld, task: StripeTask,
                     partial: StripePartial) -> None:
    """Reject a partial that cannot be trusted into the merge plane.

    Raises :class:`~repro.errors.FleetError` naming the first violated
    invariant: task mismatch, checksum mismatch, or a payload that
    breaks the aggregates' exactness contract.
    """
    if (partial.phase, partial.stripe_id) != (task.phase,
                                              task.stripe_id):
        raise FleetError(
            f"partial ({partial.phase}, {partial.stripe_id}) does not "
            f"answer task ({task.phase}, {task.stripe_id})")
    expected_sessions = world.stripe_sessions(task)
    if partial.n_sessions != expected_sessions:
        raise FleetError(
            f"partial claims {partial.n_sessions} sessions, task "
            f"covers {expected_sessions}")
    if payload_checksum(partial.payload) != partial.checksum:
        raise FleetError(
            f"stripe ({task.phase}, {task.stripe_id}) payload does "
            "not match its checksum — corrupt partial")
    if task.phase == PHASE_LOAD:
        _validate_load_payload(world.spec, partial.payload)
    elif task.phase == PHASE_SCORE:
        _validate_score_payload(world.spec, partial.n_sessions,
                                partial.payload)
    else:
        raise FleetError(f"unknown stripe phase {task.phase!r}")


# -- merge plane ---------------------------------------------------------------


class MergePlane:
    """Idempotent fold of stripe partials into one fleet result.

    Dedups by ``(phase, stripe id)``: the first delivery of a stripe
    merges, every later one is dropped and counted.  Because all
    aggregate merges are exactly commutative, the folded state is
    independent of delivery order — retries, speculation, and resumes
    cannot perturb it.
    """

    def __init__(self, spec: PopulationSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.duplicates_dropped = 0
        self._seen: Set[Tuple[str, int]] = set()
        self._load: Optional[CellLoadAccumulator] = None
        self._field: Optional[ContentionField] = None
        self._cohorts: Optional[Dict[str, CohortAggregate]] = None

    def offer_load(self, stripe_id: int,
                   accumulator: CellLoadAccumulator) -> bool:
        """Fold one pass-1 partial; False = duplicate, dropped."""
        if (PHASE_LOAD, stripe_id) in self._seen:
            self.duplicates_dropped += 1
            return False
        self._seen.add((PHASE_LOAD, stripe_id))
        if self._load is None:
            self._load = accumulator
        else:
            self._load.merge(accumulator)
        return True

    def offer_score(self, stripe_id: int,
                    partial: Dict[str, CohortAggregate]) -> bool:
        """Fold one pass-2 partial; False = duplicate, dropped."""
        if (PHASE_SCORE, stripe_id) in self._seen:
            self.duplicates_dropped += 1
            return False
        self._seen.add((PHASE_SCORE, stripe_id))
        if self._cohorts is None:
            self._cohorts = partial
        else:
            self._cohorts = {key: self._cohorts[key].merge(agg)
                             for key, agg in partial.items()}
        return True

    def offer_partial(self, world: StripeWorld, task: StripeTask,
                      partial: StripePartial) -> bool:
        """Validate, decode, and fold one shipped partial.

        The supervised path's single entry point: raises
        :class:`~repro.errors.FleetError` on an untrustworthy partial
        (caller quarantines and retries the stripe), returns False on
        a duplicate delivery.
        """
        validate_partial(world, task, partial)
        if task.phase == PHASE_LOAD:
            return self.offer_load(
                task.stripe_id,
                CellLoadAccumulator.from_jsonable(self.spec,
                                                  partial.payload))
        cohorts_data = partial.payload["cohorts"]
        assert isinstance(cohorts_data, dict)
        decoded = {key: CohortAggregate.from_jsonable(data)
                   for key, data in cohorts_data.items()}
        return self.offer_score(task.stripe_id, decoded)

    def finalize_load(self) -> ContentionField:
        """Prefix-sum the merged load into the global throttle field."""
        if self._load is None:
            raise ShardError("no load partials were merged — cannot "
                             "finalize the contention field")
        self._field = self._load.finalize()
        return self._field

    def result(self, n_sessions: int, contention: bool) -> FleetResult:
        """The finished :class:`FleetResult` after all stripes folded."""
        if self._cohorts is None:
            raise ShardError("no score partials were merged — the run "
                             "did not complete")
        field = self._field
        return FleetResult(
            spec_fingerprint=self.spec.fingerprint(),
            n_sessions=n_sessions,
            seed=self.seed,
            contention=contention,
            cohorts=dict(sorted(self._cohorts.items())),
            saturated_cell_epochs=(field.saturated_cell_epochs
                                   if field is not None else 0),
            peak_cell_load=(field.peak_load
                            if field is not None else 0.0),
        )


# -- stripe checkpoints --------------------------------------------------------


def checkpoint_meta(spec: PopulationSpec, n_sessions: int, seed: int,
                    shards: int, contention: bool) -> Dict[str, object]:
    """Identity of a supervised run; a checkpoint from any other run
    (different spec, population, seed, or stripe layout) is
    quarantined, never merged."""
    return {
        "spec_fingerprint": spec.fingerprint(),
        "n_sessions": n_sessions,
        "seed": seed,
        "shards": shards,
        "contention": contention,
    }


def load_stripe_checkpoint(path: str, meta: Dict[str, object]
                           ) -> Tuple[List[StripePartial],
                                      Dict[str, str]]:
    """Completed stripe partials from ``path`` (empty if absent).

    Every entry re-verifies its payload checksum on the way in; one
    tampered entry quarantines the whole file (the writer is atomic,
    so partial validity means corruption).
    """
    return load_checkpoint(path, _CHECKPOINT_VERSION, meta,
                           StripePartial.from_jsonable, ShardError)


def save_stripe_checkpoint(path: str, meta: Dict[str, object],
                           partials: Sequence[StripePartial]) -> None:
    """Atomically persist completed stripes (tmp + rename)."""
    ordered = sorted(partials,
                     key=lambda p: (p.phase, p.stripe_id))
    save_checkpoint(path, _CHECKPOINT_VERSION, meta,
                    [partial.to_jsonable() for partial in ordered])
