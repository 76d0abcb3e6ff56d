"""Span tracing for the benchmark, installed from outside ``src/``.

The tracer wraps the public calls of each ``repro`` layer in place —
class attributes for methods, and every module-level binding of a
function, since the pipeline imports its collaborators by name — and
records one span per call: layer name, start, end, parent span and
the benchmark operation it belongs to.  Spans live in memory and are
written out as JSONL when the benchmark ends.

``Tracer.install`` and ``Tracer.uninstall`` swap the wrappers in and
out, so one process can run the same operation with and without
tracing and compare both timing and result bytes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter
from typing import Any, Callable, Iterator, List, Optional, Tuple

import numpy as np

#: Span record fields, in order.
NAME, START, END, PARENT, OP, COUNT = range(6)

#: Per-call work count, computed from (positional args, result).
Counter = Callable[[Tuple[Any, ...], Any], int]


def _len_arg(position: int) -> Counter:
    return lambda args, result: len(args[position])


#: (layer, "module:qualname", counter).  ``self`` is ``args[0]`` for
#: methods.  "gen" marks a generator whose every ``next`` is a span.
TARGETS: Tuple[Tuple[str, str, Any], ...] = (
    ("video.synthesis", "repro.video.synthesis:SyntheticVideo.frames",
     "gen"),
    ("hashing.crc", "repro.hashing.crc:crc_pair_blocks", _len_arg(0)),
    ("core.mach", "repro.core.mach:MachRing.lookup_batch", None),
    ("core.soa", "repro.core.soa:lru_touch_classify", None),
    # Count 1 for a MACH frame, 0 for a raw one.
    ("core.writeback",
     "repro.core.writeback:WritebackEngine.process_frame",
     lambda args, result: int(args[0].ring is not None)),
    ("core.readpath", "repro.core.readpath:DisplayReadEngine.scan",
     lambda args, result: result.count),
    ("memory.controller",
     "repro.memory.controller:MemoryController.process_window",
     _len_arg(1)),
    ("decoder.vd", "repro.decoder.vd:VideoDecoder.read_traffic", None),
    ("decoder.vd", "repro.decoder.vd:VideoDecoder.decode_duration", None),
    ("core.race_to_sleep",
     "repro.core.race_to_sleep:RaceToSleepGovernor.plan_wake", None),
    ("core.race_to_sleep",
     "repro.core.race_to_sleep:AdaptiveRtSGovernor.plan_wake_adaptive",
     None),
    ("thermal", "repro.thermal:ThermalModel.advance_to", None),
    ("faults", "repro.faults:conceal_blocks",
     lambda args, result: int(result)),
    ("realtime.session", "repro.realtime.session:simulate_realtime", None),
    ("core.energy", "repro.core.energy:build_breakdown", None),
    ("core.energy", "repro.memory.energy:memory_energy", None),
    ("core.results", "repro.core.results:RunResult.to_jsonable", None),
    ("core.pipeline", "repro.core.pipeline:simulate", None),
    ("fleet.surrogate", "repro.fleet.surrogate:calibrate", None),
    ("fleet.population",
     "repro.fleet.population:PopulationModel.draw_chunk",
     lambda args, result: result.size),
    ("fleet.cell", "repro.fleet.cell:CellLoadAccumulator.accumulate", None),
    ("fleet.cell", "repro.fleet.cell:ContentionField.mean_factor", None),
    ("fleet.engine", "repro.fleet.engine:compute_load_stripe", None),
    ("fleet.engine", "repro.fleet.engine:compute_score_stripe", None),
    ("fleet.shard.merge", "repro.fleet.shard:MergePlane.offer_load", None),
    ("fleet.shard.merge", "repro.fleet.shard:MergePlane.offer_score", None),
    ("fleet.shard.merge", "repro.fleet.shard:MergePlane.offer_partial",
     None),
    ("fleet.shard.merge", "repro.fleet.shard:MergePlane.finalize_load",
     None),
    ("fleet.shard.merge", "repro.fleet.shard:MergePlane.result", None),
    ("fleet.shard.merge", "repro.fleet.shard:validate_partial", None),
    ("fleet.shard.codec", "repro.fleet.shard:StripePartial.from_jsonable",
     None),
    ("fleet.shard.codec",
     "repro.fleet.cell:CellLoadAccumulator.from_jsonable", None),
    ("fleet.shard.codec", "repro.fleet.engine:CohortAggregate.from_jsonable",
     None),
)


class Tracer:
    """In-memory span recorder with swappable layer wrappers."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.op = -1  # operation the next spans belong to; -1 = set-up
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._installed = False

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> List[Any]:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def _close(self, record: List[Any]) -> None:
        record[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable[..., Any],
              counter: Optional[Counter]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if counter is not None:
                record[COUNT] = counter(args, result)
            return result

        return traced

    def _wrap_generator(self, name: str,
                        fn: Callable[..., Iterator[Any]]
                        ) -> Callable[..., Iterator[Any]]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            while True:
                record = tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(record)
                record[COUNT] = 1
                yield item

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; idempotent.

        The bindings are found once, on the first call, after the
        workload has imported everything it runs.
        """
        if self._installed:
            return
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self._installed = True

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._installed = False

    def _plan(self) -> List[Tuple[Any, str, Any, Any]]:
        patches: List[Tuple[Any, str, Any, Any]] = []
        for layer, target, counter in TARGETS:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(
                        self._wrap(layer, raw.__func__, counter))
                elif counter == "gen":
                    wrapped = self._wrap_generator(layer, raw)
                else:
                    wrapped = self._wrap(layer, raw, counter)
                patches.append((owner, attr, raw, wrapped))
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(layer, original, counter)
            # Rebind every module that imported the function by name.
            for name, loaded in list(sys.modules.items()):
                if name != "repro" and not name.startswith("repro."):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        patches.append((loaded, attr, original, wrapped))
        return patches

    # -- analysis -----------------------------------------------------------------

    def self_times(self) -> Tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per span, in seconds.

        Self time is a span's duration minus the part its direct
        children cover; calls nest on one thread, so children never
        overlap and their durations add.
        """
        if not self.spans:
            empty = np.zeros(0)
            return empty, empty
        start = np.fromiter((s[START] for s in self.spans), dtype=float)
        end = np.fromiter((s[END] for s in self.spans), dtype=float)
        parent = np.fromiter((s[PARENT] for s in self.spans), dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent],
                              weights=duration[has_parent],
                              minlength=len(duration))
        return duration, duration - covered

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "op": span[OP], "count": span[COUNT]}) + "\n")
