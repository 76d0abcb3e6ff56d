"""Supervised shard execution: leases, retries, speculation.

The control plane over :mod:`repro.fleet.shard`'s data plane.  A
:class:`Supervisor`-driven run executes each stripe phase on a pool of
worker processes under a deterministic protocol:

* **Leases with heartbeat deadlines** — every attempt holds a lease
  that its heartbeats (every ``lease_seconds / 8``) keep renewing; a
  worker that stops heartbeating (wedged, stalled, swapped out) has its
  lease revoked, its process killed, and its stripe retried.  Crashes
  are detected directly from process exit.
* **Bounded retries with seeded backoff** — a failed stripe relaunches
  after :func:`repro.backoff.backoff_delay` (exponential + seeded
  jitter, shared with the matrix runner), and a stripe that fails more
  than ``max_retries`` times fails the run with a
  :class:`~repro.errors.ShardError` instead of livelocking.
* **Speculative re-execution** — once enough stripes have completed to
  establish a median duration, a straggler (running longer than
  three times the median, with a floor) gets a second attempt racing
  the first; whichever delivers first wins and the loser is killed.
  The merge plane dedups, so both finishing is harmless.
* **Validation + quarantine before merge** — every delivered partial
  passes :func:`~repro.fleet.shard.validate_partial`; a corrupt one is
  rejected (counted, evented) and its stripe retried.

With ``workers=0`` the same loop runs each attempt in-process instead
of forking it; only the fault shapes that need a process (CRASH,
STALL) differ, and those fail the attempt at once.

Timing here is deliberately *wall-clock*: leases and speculation react
to real elapsed time.  None of it can perturb the result — stripes are
pure and the merge plane is idempotent and exactly commutative — so
every duration lands only in the :class:`SupervisionReport`, never in
:class:`~repro.fleet.engine.FleetResult`.  That is the headline
invariant, enforced by the chaos harness: *for any seeded fault
schedule under which the run completes, the supervised result is
bit-identical to the undisturbed serial run.*
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Callable, Dict, List, Optional, Tuple

from ..backoff import SITE_STRIPE_RETRY, backoff_delay
from ..config import SimulationConfig
from ..errors import FleetError, ShardError
from ..faults import ShardFault, ShardFaultConfig, ShardFaultPlan
from ..jsonable import Jsonable, jsonable
from .engine import FleetResult, plan_fleet_run
from .population import PopulationSpec
from .shard import (
    PHASE_LOAD,
    PHASE_SCORE,
    MergePlane,
    StripePartial,
    StripeTask,
    StripeWorld,
    checkpoint_meta,
    execute_stripe,
    load_stripe_checkpoint,
    make_tasks,
    save_stripe_checkpoint,
    tamper_partial,
)
from .surrogate import FleetCalibration

#: Fork start method: workers inherit the (immutable) stripe world
#: without pickling and start in milliseconds.
_CTX = multiprocessing.get_context("fork")

#: Pause between two turns of the supervisor loop (seconds).
_POLL_SECONDS = 0.02
#: Retry backoff: seeded exponential delay from this base, capped.
_BACKOFF_BASE = 0.02
_BACKOFF_CAP = 0.25
#: A running attempt is a straggler once it has run this many times
#: the phase's median stripe time (and ``speculation_min_seconds``)...
_SPECULATION_FACTOR = 3.0
#: ...which needs at least this many completed stripes to measure.
_SPECULATION_MIN_COMPLETED = 2
#: Speculative attempts may over-commit the pool by this many slots.
#: A pool saturated with stragglers is exactly when speculation matters
#: most — and stragglers are (by definition) not making progress, so a
#: bounded spare is cheap.
_SPECULATION_SLACK = 1


def _now() -> float:
    """Wall-clock for lease/speculation bookkeeping only.

    Durations measured with this land exclusively in the
    :class:`SupervisionReport`; the result payload stays pure.
    """
    return time.monotonic()  # repro-lint: disable=D002 leases and straggler detection must see real elapsed time; it never reaches FleetResult


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the supervision protocol (all durations in seconds).

    ``workers=0`` runs every attempt in-process (no pool, so nothing to
    speculate with).  Heartbeats come every ``lease_seconds / 8``.
    """

    workers: int = 2
    lease_seconds: float = 2.0
    max_retries: int = 4
    speculate: bool = True
    speculation_min_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ShardError(f"workers must be >= 0, got {self.workers}")
        if self.lease_seconds <= 0.0:
            raise ShardError(
                f"lease_seconds must be > 0, got {self.lease_seconds}")
        if self.max_retries < 0:
            raise ShardError(
                f"max_retries must be >= 0, got {self.max_retries}")

    @property
    def heartbeat_seconds(self) -> float:
        """Heartbeat period: eight renewals per lease."""
        return self.lease_seconds / 8


@jsonable
@dataclass(frozen=True)
class ShardEvent(Jsonable):
    """One observed supervision event (for reports and debugging)."""

    kind: str
    phase: str
    stripe_id: int
    attempt: int
    detail: str = ""


@jsonable
@dataclass
class SupervisionReport(Jsonable):
    """What supervision observed: faults absorbed, work repeated.

    Deliberately *not* part of the result contract — two runs with
    different fault schedules produce different reports but identical
    :class:`~repro.fleet.engine.FleetResult` JSON.  The derived
    :attr:`faults_absorbed` is a property and stays out of the JSON.
    """

    workers: int = 0
    crashes: int = 0
    lease_revocations: int = 0
    corrupt_rejected: int = 0
    worker_errors: int = 0
    duplicates_dropped: int = 0
    speculations: int = 0
    retries: int = 0
    resumed_stripes: int = 0
    stale_stripes_ignored: int = 0
    checkpoint_quarantined: Dict[str, str] = field(default_factory=dict)
    #: Wall seconds from a stripe's first launch to its first accepted
    #: delivery, keyed ``"<phase>:<stripe id>"``.
    stripe_seconds: Dict[str, float] = field(default_factory=dict)
    events: List[ShardEvent] = field(default_factory=list)

    @property
    def faults_absorbed(self) -> int:
        """Fault deliveries the protocol survived."""
        return (self.crashes + self.lease_revocations
                + self.corrupt_rejected + self.worker_errors)

    def p99_stripe_seconds(self, phase: Optional[str] = None) -> float:
        """p99 of stripe completion times (optionally one phase)."""
        values = sorted(
            seconds for key, seconds in self.stripe_seconds.items()
            if phase is None or key.startswith(phase + ":"))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(0.99 * len(values)))]


def _run_attempt(world: StripeWorld, task: StripeTask, attempt: int,
                 plan: Optional[ShardFaultPlan],
                 fault: Optional[ShardFault]) -> Tuple[str, object]:
    """Compute one stripe attempt, shaped by its injected fault.

    A SLOW attempt sleeps first (a straggler, not a failure: speculation's
    prey), a CORRUPT one tampers with its sealed partial, and any
    exception becomes a ``("worker_error", text)`` message.  Returns the
    message the attempt delivers: ``("result", partial JSON)`` or the
    error.
    """
    try:
        if fault is ShardFault.SLOW and plan is not None:
            time.sleep(plan.slow_seconds(task.phase, task.stripe_id,
                                         attempt))
        partial = execute_stripe(world, task)
        if fault is ShardFault.CORRUPT:
            partial = tamper_partial(partial)
        return "result", partial.to_jsonable()
    except Exception as exc:  # repro-lint: disable=E002 isolation boundary: an attempt reports any failure as a message instead of dying silently
        return "worker_error", f"{type(exc).__name__}: {exc}"


def _worker_main(conn: Connection, world: StripeWorld, task: StripeTask,
                 attempt: int, plan: Optional[ShardFaultPlan],
                 fault: Optional[ShardFault],
                 heartbeat_seconds: float) -> None:
    """Entry point of one stripe attempt in a worker process.

    Heartbeats on a daemon thread renew the parent-side lease; the
    main thread runs :func:`_run_attempt` and ships its message.  A
    STALL attempt hangs and a CRASH attempt exits after the compute,
    exactly as the seeded plan dictates, independent of scheduling.
    """
    if fault is ShardFault.STALL:
        # A wedged worker: no heartbeats, no progress, no exit.  The
        # parent's lease revocation is the only way out (SIGKILL).
        while True:
            time.sleep(3600.0)
    send_lock = threading.Lock()
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(heartbeat_seconds):
            with send_lock:
                try:
                    conn.send(("heartbeat", attempt))
                except OSError:
                    return

    threading.Thread(target=_beat, daemon=True).start()
    message = _run_attempt(world, task, attempt, plan, fault)
    if fault is ShardFault.CRASH:
        # Dies *after* the compute, *before* the delivery — the
        # nastiest crash point: work done, result lost.
        os._exit(3)
    stop.set()
    with send_lock:
        try:
            conn.send(message)
        except OSError:
            pass


@dataclass
class _Attempt:
    """Parent-side handle on one live worker attempt."""

    index: int
    process: "multiprocessing.process.BaseProcess"
    conn: Connection
    started: float
    deadline: float


class _StripeState:
    """Supervision state of one stripe task."""

    def __init__(self, task: StripeTask) -> None:
        self.task = task
        self.done = False
        self.attempts: Dict[int, _Attempt] = {}
        self.next_attempt = 0
        self.failures = 0
        self.not_before = 0.0
        self.first_started: Optional[float] = None


class Supervisor:
    """Runs one phase's stripe tasks to completion under the protocol.

    Single-threaded event loop in the parent: drain worker pipes,
    detect deaths and expired leases, relaunch with seeded backoff,
    speculate on stragglers, and feed validated partials to the merge
    plane.  With ``workers=0`` the loop runs each attempt in-process
    as it launches; failures, backoff and retry exhaustion go through
    the same routines.  Raises :class:`~repro.errors.ShardError` when
    a stripe exhausts its retries.
    """

    def __init__(self, world: StripeWorld, tasks: List[StripeTask],
                 config: SupervisorConfig, plan: Optional[ShardFaultPlan],
                 plane: MergePlane, report: SupervisionReport,
                 on_complete: Callable[[StripePartial], None]) -> None:
        self.world = world
        self.config = config
        self.plan = plan
        self.plane = plane
        self.report = report
        self.on_complete = on_complete
        self.states = [_StripeState(task) for task in tasks]
        self.completed = 0

    # -- bookkeeping ----------------------------------------------------------

    def _event(self, kind: str, state: _StripeState, attempt: int,
               detail: str = "") -> None:
        self.report.events.append(ShardEvent(
            kind=kind, phase=state.task.phase,
            stripe_id=state.task.stripe_id, attempt=attempt,
            detail=detail))

    def _live_attempts(self) -> int:
        return sum(len(state.attempts) for state in self.states)

    # -- attempt lifecycle ----------------------------------------------------

    def _launch(self, state: _StripeState, now: float,
                speculative: bool = False) -> None:
        task = state.task
        index = state.next_attempt
        state.next_attempt += 1
        if state.first_started is None:
            state.first_started = now
        self._event("speculate" if speculative else "launch", state,
                    index)
        if speculative:
            self.report.speculations += 1
        fault = (self.plan.stripe_fault(task.phase, task.stripe_id, index)
                 if self.plan is not None else None)
        if self.config.workers == 0:
            # In-process: there is no process to crash and no lease
            # clock worth spinning on, so those faults fail at once.
            if fault is ShardFault.CRASH:
                message: Tuple[str, object] = ("crash", "injected")
            elif fault is ShardFault.STALL:
                message = ("lease_revoked", "injected")
            else:
                message = _run_attempt(self.world, task, index, self.plan,
                                       fault)
            self._receive(state, index, message, _now())
            return
        recv_conn, send_conn = _CTX.Pipe(duplex=False)
        process = _CTX.Process(
            target=_worker_main,
            args=(send_conn, self.world, task, index, self.plan, fault,
                  self.config.heartbeat_seconds),
            daemon=True)
        process.start()
        send_conn.close()
        state.attempts[index] = _Attempt(
            index=index, process=process, conn=recv_conn, started=now,
            deadline=now + self.config.lease_seconds)

    def _reap(self, attempt: _Attempt) -> None:
        if attempt.process.is_alive():
            attempt.process.kill()
        attempt.process.join(timeout=5.0)
        attempt.conn.close()

    def _receive(self, state: _StripeState, index: int,
                 message: Tuple[str, object], now: float) -> None:
        """Act on an attempt's final message: a result or a failure."""
        kind, body = message
        if kind == "result":
            self._deliver(state, index, body, now)
        else:
            self._fail_attempt(state, index, kind, str(body), now)

    def _fail_attempt(self, state: _StripeState, index: int, kind: str,
                      detail: str, now: float) -> None:
        attempt = state.attempts.pop(index, None)
        if attempt is not None:
            self._reap(attempt)
        self._event(kind, state, index, detail)
        state.failures += 1
        if kind == "crash":
            self.report.crashes += 1
        elif kind == "lease_revoked":
            self.report.lease_revocations += 1
        elif kind == "corrupt_rejected":
            self.report.corrupt_rejected += 1
        elif kind == "worker_error":
            self.report.worker_errors += 1
        if state.attempts or state.done:
            return  # a sibling attempt is still racing
        if state.failures > self.config.max_retries:
            raise ShardError(
                f"stripe ({state.task.phase}, {state.task.stripe_id}) "
                f"failed {state.failures} times (> max_retries="
                f"{self.config.max_retries}); last failure: {kind}: "
                f"{detail}")
        delay = backoff_delay(self.world.seed, SITE_STRIPE_RETRY,
                              state.task.stripe_id, state.failures - 1,
                              base=_BACKOFF_BASE, cap=_BACKOFF_CAP)
        state.not_before = now + delay
        self.report.retries += 1
        self._event("retry_scheduled", state, state.next_attempt,
                    f"after {delay:.3f}s backoff")

    def _deliver(self, state: _StripeState, index: int, payload: object,
                 now: float) -> None:
        try:
            partial = StripePartial.from_jsonable(payload)
            fresh = self.plane.offer_partial(self.world, state.task,
                                             partial)
        except (FleetError, ValueError, TypeError, KeyError) as exc:
            self._fail_attempt(state, index, "corrupt_rejected",
                               str(exc), now)
            return
        if index in state.attempts:
            self._reap(state.attempts.pop(index))
        if not fresh:
            self.report.duplicates_dropped += 1
            self._event("duplicate", state, index)
            return
        state.done = True
        self.completed += 1
        if state.first_started is not None:
            key = f"{state.task.phase}:{state.task.stripe_id}"
            self.report.stripe_seconds[key] = now - state.first_started
        self._event("result", state, index)
        self.on_complete(partial)
        # The race is decided; losers are dead weight on the pool.
        for loser_index in list(state.attempts):
            self._reap(state.attempts.pop(loser_index))
            self._event("sibling_killed", state, loser_index)

    def _drain(self, state: _StripeState, attempt: _Attempt,
               now: float) -> bool:
        """Process queued messages; False if the pipe is broken."""
        while True:
            try:
                if not attempt.conn.poll(0):
                    return True
                message = attempt.conn.recv()
            except (EOFError, OSError):
                return False
            if message[0] == "heartbeat":
                attempt.deadline = now + self.config.lease_seconds
            else:
                self._receive(state, attempt.index, message, now)
                return True

    # -- scheduling -----------------------------------------------------------

    def _poll_attempts(self, now: float) -> None:
        for state in self.states:
            if state.done:
                continue
            for index in list(state.attempts):
                attempt = state.attempts.get(index)
                if attempt is None:
                    continue
                intact = self._drain(state, attempt, now)
                if state.done or index not in state.attempts:
                    continue
                if not intact or not attempt.process.is_alive():
                    # One last drain: a worker that finished and
                    # exited may still have its result queued.
                    self._drain(state, attempt, now)
                    if state.done or index not in state.attempts:
                        continue
                    self._fail_attempt(
                        state, index, "crash",
                        f"worker exited with code "
                        f"{attempt.process.exitcode} before "
                        "delivering", now)
                elif now > attempt.deadline:
                    self._fail_attempt(
                        state, index, "lease_revoked",
                        f"no heartbeat within "
                        f"{self.config.lease_seconds}s", now)

    def _launch_pending(self, now: float) -> None:
        # In-process attempts finish inside _launch, so they never
        # hold a slot: every stripe out of backoff runs this turn.
        slots = (self.config.workers - self._live_attempts()
                 if self.config.workers else len(self.states))
        for state in self.states:
            if slots <= 0:
                return
            if (state.done or state.attempts
                    or state.not_before > now):
                continue
            self._launch(state, now)
            slots -= 1

    def _speculate(self, now: float) -> None:
        config = self.config
        if not config.speculate:
            return
        if self.completed < _SPECULATION_MIN_COMPLETED:
            return
        phase = self.states[0].task.phase
        durations = sorted(
            seconds for key, seconds
            in self.report.stripe_seconds.items()
            if key.startswith(phase + ":"))
        if not durations:
            return
        median = durations[len(durations) // 2]
        threshold = max(config.speculation_min_seconds,
                        _SPECULATION_FACTOR * median)
        slots = (config.workers + _SPECULATION_SLACK
                 - self._live_attempts())
        for state in self.states:
            if slots <= 0:
                return
            if state.done or len(state.attempts) != 1:
                continue
            attempt = next(iter(state.attempts.values()))
            if now - attempt.started > threshold:
                self._launch(state, now, speculative=True)
                slots -= 1

    def run(self) -> None:
        """Drive every stripe to completion (or raise ShardError)."""
        try:
            while self.completed < len(self.states):
                now = _now()
                self._poll_attempts(now)
                self._launch_pending(now)
                self._speculate(now)
                if self.completed < len(self.states):
                    time.sleep(_POLL_SECONDS)
        finally:
            for state in self.states:
                for index in list(state.attempts):
                    self._reap(state.attempts.pop(index))


@dataclass
class SupervisedFleetRun:
    """What a supervised run hands back: the result and the story."""

    result: FleetResult
    report: SupervisionReport


def run_fleet_supervised(
    spec: PopulationSpec, n_sessions: int, seed: int = 0,
    shards: int = 2, contention: bool = True,
    calibration: Optional[FleetCalibration] = None,
    config: Optional[SimulationConfig] = None,
    faults: Optional[ShardFaultConfig] = None,
    supervisor: Optional[SupervisorConfig] = None,
    checkpoint: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SupervisedFleetRun:
    """Run a fleet population under the supervised shard protocol.

    Same result contract as :func:`~repro.fleet.engine.run_fleet` with
    the same ``(spec, n_sessions, seed, contention)`` — bit-identical
    ``FleetResult.to_jsonable()`` — plus fault tolerance.  Both share
    one preamble (:func:`~repro.fleet.engine.plan_fleet_run`: argument
    checks, calibration, the stripe plan); here each stripe phase then
    runs under a :class:`Supervisor`.

    Args:
        spec / n_sessions / seed / shards / contention / calibration /
            config / progress: as in ``run_fleet``.
        faults: optional seeded :class:`~repro.faults.ShardFaultConfig`
            injecting worker crashes, stalls, corrupt partials, and
            slow workers (the chaos harness).  For guaranteed
            completion keep ``supervisor.max_retries >=
            faults.max_faulty_attempts``.
        supervisor: protocol knobs (:class:`SupervisorConfig`);
            ``workers=0`` runs every attempt in-process.
        checkpoint: JSON file persisting completed stripes; a rerun
            resumes from it (stale stripes ignored, corrupt files
            quarantined to ``<path>.corrupt``).

    Returns:
        :class:`SupervisedFleetRun` — the merged result plus the
        :class:`SupervisionReport` of faults absorbed along the way.
    """
    tables, fps, bounds, stripes = plan_fleet_run(
        spec, n_sessions, shards, calibration, config, progress)
    supervisor_config = supervisor or SupervisorConfig()
    plan = ShardFaultPlan.from_config(faults)
    plane = MergePlane(spec, seed)
    report = SupervisionReport(workers=supervisor_config.workers)

    meta = checkpoint_meta(spec, n_sessions, seed, shards, contention)
    wanted = {(PHASE_SCORE, stripe_id)
              for stripe_id in range(len(stripes))}
    if contention:
        wanted |= {(PHASE_LOAD, stripe_id)
                   for stripe_id in range(len(stripes))}
    completed: Dict[Tuple[str, int], StripePartial] = {}
    if checkpoint is not None:
        loaded, report.checkpoint_quarantined = load_stripe_checkpoint(
            checkpoint, meta)
        for partial in loaded:
            key = (partial.phase, partial.stripe_id)
            if key in wanted:
                completed[key] = partial
            else:
                report.stale_stripes_ignored += 1

    def on_complete(partial: StripePartial) -> None:
        completed[(partial.phase, partial.stripe_id)] = partial
        if checkpoint is not None:
            save_stripe_checkpoint(checkpoint, meta,
                                   list(completed.values()))

    def resume_phase(world: StripeWorld,
                     tasks: List[StripeTask]) -> List[StripeTask]:
        """Fold checkpointed stripes; return what still needs running."""
        still_pending: List[StripeTask] = []
        for task in tasks:
            partial = completed.get((task.phase, task.stripe_id))
            if partial is None:
                still_pending.append(task)
                continue
            try:
                plane.offer_partial(world, task, partial)
            except FleetError:
                # The checkpoint verified its checksums, but the
                # world disagrees (e.g. code drift): recompute.
                del completed[(task.phase, task.stripe_id)]
                still_pending.append(task)
                continue
            report.resumed_stripes += 1
            report.events.append(ShardEvent(
                kind="resumed", phase=task.phase,
                stripe_id=task.stripe_id, attempt=-1))
        return still_pending

    world = StripeWorld(spec=spec, seed=seed, bounds=bounds,
                        tables=tables, fps=fps, field=None)
    if contention:
        if progress is not None:
            progress(f"pass 1/2 (supervised): cell load over "
                     f"{len(bounds)} chunks, {len(stripes)} stripes")
        tasks = resume_phase(world, make_tasks(PHASE_LOAD, stripes))
        Supervisor(world, tasks, supervisor_config, plan, plane,
                   report, on_complete).run()
        world = StripeWorld(spec=spec, seed=seed, bounds=bounds,
                            tables=tables, fps=fps,
                            field=plane.finalize_load())
    if progress is not None:
        progress(f"pass 2/2 (supervised): scoring {n_sessions} "
                 f"sessions over {len(stripes)} stripes")
    tasks = resume_phase(world, make_tasks(PHASE_SCORE, stripes))
    Supervisor(world, tasks, supervisor_config, plan, plane, report,
               on_complete).run()
    return SupervisedFleetRun(
        result=plane.result(n_sessions=n_sessions,
                            contention=contention),
        report=report)
