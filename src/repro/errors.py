"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this package derive from
:class:`ReproError`, so callers can catch simulator problems without
swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro simulator."""


class ConfigError(ReproError):
    """A configuration value is inconsistent or out of range."""


class InputError(ConfigError):
    """A user-named input file is missing, unreadable or malformed."""

    def __init__(self, path: object, reason: object) -> None:
        if isinstance(reason, OSError) and reason.strerror:
            reason = reason.strerror
        super().__init__(f"cannot read {path}: {reason}")


class GeometryError(ReproError):
    """Frame/block geometry does not divide evenly or mismatches."""


class CacheError(ReproError):
    """Invalid cache parameterization (non-power-of-two sets, etc.)."""


class MemoryModelError(ReproError):
    """Invalid DRAM parameterization or address out of range."""


class SchedulingError(ReproError):
    """The frame scheduler was driven into an impossible state."""


class CodecError(ReproError):
    """Encoding/decoding failed or produced inconsistent structures."""


class LayoutError(ReproError):
    """A frame-buffer layout record is malformed."""


class NetworkError(ReproError):
    """The delivery scheduler was misconfigured or the link failed
    in a way the client cannot absorb (no bandwidth, bad mode, ...)."""


class FaultError(ReproError):
    """A fault-injection plan is inconsistent or was misapplied."""


class RunnerError(ReproError):
    """The experiment runner could not supervise a job (timeout,
    checkpoint mismatch, exhausted retries)."""


class ThermalError(ReproError):
    """A thermal/power-budget model was misconfigured or driven
    backwards in time."""


class FleetError(ReproError):
    """A fleet-scale population run was misconfigured or its online
    aggregates were merged inconsistently (mismatched sketch params,
    stale calibration, shard bookkeeping errors)."""


class ShardError(FleetError):
    """The supervised shard service could not complete a stripe
    (lease exhausted its retries, a worker pool failed to start, or
    the merge plane was driven inconsistently)."""


class RealtimeError(ReproError):
    """The realtime (live/interactive) mode was misconfigured or a
    chaos campaign's shards disagreed on their aggregation params."""


class LintError(ReproError):
    """The static-analysis pass was misconfigured or could not read
    a target (unknown rule id, unparseable file, bad baseline)."""
