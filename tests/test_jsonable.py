"""Tests for repro.jsonable — the typed dataclass codec.

Two layers:

* the type rules, one small dataclass each (scalars and int->float
  coercion, Optional, List/Tuple, str/int/Enum-keyed dicts, nested
  dataclasses, dtype-annotated arrays with ``+inf`` as ``null``, pass-
  through ``object`` fields, defaults for missing keys);
* a hypothesis round-trip property over every class that carries a
  ``to_jsonable``/``from_jsonable`` pair — the 19 codec classes and the
  three explicit wire formats.  It draws values in every field and
  demands ``encode -> json -> decode -> encode`` is byte-identical and
  that every field comes back equal, so a field the payload drops or a
  decode that resets one fails here.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import (
    Annotated,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.config import RadioConfig
from repro.core.energy import EnergyBreakdown
from repro.core.readpath import ReadStats
from repro.core.results import FrameTimeline, RunResult
from repro.core.writeback import FrameMatches
from repro.decoder.power import PowerState
from repro.fleet import (
    CalibEntry,
    CellLoadAccumulator,
    CohortAggregate,
    DeviceClass,
    FleetCalibration,
    FleetResult,
    HistogramSketch,
    LognormalComponent,
    PopulationSpec,
    RegionSpec,
    ReservoirSample,
    ShardEvent,
    StreamingMoments,
    StripePartial,
    SupervisionReport,
)
from repro.fleet.population import SCHEMES_BY_NAME
from repro.jsonable import Jsonable, decode, encode, jsonable
from repro.lint import Baseline, LintReport, Violation
from repro.memory.controller import AccessStats
from repro.realtime import ChaosResult, RegimeSLO, RealtimeResult
from repro.units import MBPS

# --------------------------------------------------------------------------
# Type rules
# --------------------------------------------------------------------------


class Color(Enum):
    RED = "r"
    BLUE = "b"


@dataclass
class Leaf:
    x: float
    n: int = 0


@jsonable
@dataclass
class Shape(Jsonable):
    name: str
    ratio: float
    flag: bool
    maybe: Optional[int]
    tags: Tuple[str, ...]
    sizes: List[float]
    by_color: Dict[Color, float]
    by_index: Dict[int, List[Tuple[int, ...]]]
    leaves: Dict[str, Leaf]
    values: Annotated[np.ndarray, np.float64]
    counts: Annotated[np.ndarray, np.int32]
    blob: object = None
    extra: int = 7


def _shape() -> Shape:
    return Shape(
        name="s", ratio=0.5, flag=True, maybe=None, tags=("a", "b"),
        sizes=[1.5, 2.0], by_color={Color.BLUE: 1.0, Color.RED: 2.0},
        by_index={3: [(1, 2), (5, 8)]}, leaves={"k": Leaf(x=0.1, n=2)},
        values=np.array([1.0, math.inf, -2.5]),
        counts=np.array([1, 2], dtype=np.int32),
        blob={"any": [1, "thing"]})


class TestTypeRules:
    def test_payload_shape(self):
        payload = encode(_shape())
        assert list(payload) == [f.name for f in dataclasses.fields(Shape)]
        assert payload["tags"] == ["a", "b"]
        assert payload["by_color"] == {"BLUE": 1.0, "RED": 2.0}
        assert payload["by_index"] == {"3": [[1, 2], [5, 8]]}
        assert payload["leaves"] == {"k": {"x": 0.1, "n": 2}}
        assert payload["values"] == [1.0, None, -2.5]
        assert payload["counts"] == [1, 2]
        assert payload["blob"] == {"any": [1, "thing"]}

    def test_round_trip(self):
        shape = _shape()
        text = json.dumps(shape.to_jsonable())
        back = Shape.from_jsonable(json.loads(text))
        assert json.dumps(back.to_jsonable()) == text
        assert back.by_color == shape.by_color
        assert back.by_index == {3: [(1, 2), (5, 8)]}
        assert back.tags == ("a", "b")
        assert back.values.dtype == np.float64
        assert back.values[1] == math.inf
        assert back.counts.dtype == np.int32
        assert back.leaves["k"] == Leaf(x=0.1, n=2)

    def test_ints_decode_as_floats_in_float_fields(self):
        leaf = decode(Leaf, {"x": 3, "n": 4})
        assert type(leaf.x) is float and type(leaf.n) is int

    def test_missing_key_takes_default(self):
        assert decode(Leaf, {"x": 1.0}).n == 0
        with pytest.raises(KeyError):
            decode(Leaf, {"n": 1})

    def test_unknown_keys_are_ignored(self):
        assert decode(Leaf, {"x": 1.0, "gone": 5}) == Leaf(x=1.0)

    def test_methods_live_in_the_class_dict(self):
        assert "to_jsonable" in Shape.__dict__
        assert isinstance(Shape.__dict__["from_jsonable"], classmethod)
        assert isinstance(StripePartial.__dict__["from_jsonable"],
                          classmethod)

    def test_own_method_is_kept(self):
        # StripePartial verifies its checksum on load.
        partial = StripePartial.build("load", 0, 3, {"diff": [[1]]})
        data = partial.to_jsonable()
        data["checksum"] = "0" * 64
        with pytest.raises(ValueError, match="checksum"):
            StripePartial.from_jsonable(data)

    @pytest.mark.parametrize("annotation", [
        np.ndarray, set, Dict[float, int], Tuple[int, str],
        Union[int, str], Callable[[int], int],
    ])
    def test_unsupported_types_raise(self, annotation):
        bad = dataclasses.make_dataclass("Bad", [("v", annotation)])
        with pytest.raises(TypeError):
            encode(bad(v=None))

    def test_decorator_needs_a_dataclass(self):
        with pytest.raises(TypeError):
            jsonable(type("Plain", (), {}))


# --------------------------------------------------------------------------
# Round-trip property over every serialized class
# --------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e9)
big_ints = st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
names = st.text(min_size=1, max_size=6)
small = st.integers(min_value=0, max_value=6)


def _array(dtype: Any, size: int, elements: Any = None) -> Any:
    if elements is None:
        info = np.iinfo(dtype) if np.dtype(dtype).kind in "iu" else None
        elements = (st.booleans() if np.dtype(dtype).kind == "b"
                    else st.integers(int(info.min), int(info.max)))
    return arrays(dtype, size, elements=elements)


with_inf = st.one_of(finite, st.just(math.inf))


@st.composite
def frame_timelines(draw: Any) -> FrameTimeline:
    n = draw(small)
    floats = {f.name: draw(_array(np.float64, n, with_inf))
              for f in dataclasses.fields(FrameTimeline)
              if f.name != "dropped"}
    return FrameTimeline(dropped=draw(_array(np.bool_, n)), **floats)


def _dataclass_of(cls: Any, values: Any) -> Any:
    """All-field strategy for a flat dataclass of one scalar kind."""
    return st.builds(cls, **{f.name: values
                             for f in dataclasses.fields(cls)})


@st.composite
def run_results(draw: Any) -> RunResult:
    counters = st.integers(min_value=0, max_value=2 ** 40)
    return RunResult(
        profile_key=draw(names), scheme_name=draw(names),
        n_frames=draw(counters), elapsed=draw(finite),
        energy=draw(_dataclass_of(EnergyBreakdown, finite)),
        drops=draw(counters),
        residency=draw(st.dictionaries(st.sampled_from(PowerState),
                                       finite)),
        transitions=draw(counters), timeline=draw(frame_timelines()),
        matches=draw(st.none() | _dataclass_of(FrameMatches, counters)),
        write_bytes=draw(counters), raw_write_bytes=draw(counters),
        read_stats=draw(st.none() | _dataclass_of(ReadStats, counters)),
        mem_stats=AccessStats(
            activations=draw(counters), read_bursts=draw(counters),
            write_bursts=draw(counters),
            by_agent=draw(st.dictionaries(names, counters, max_size=3)),
            acts_by_agent=draw(st.dictionaries(names, counters,
                                               max_size=3))),
        peak_footprint_native_mb=draw(finite),
        silent_collisions=draw(counters),
        detected_collisions=draw(counters),
        concealed_blocks=draw(counters),
        injected_collisions=draw(counters),
        fallback_writes=draw(counters), throttle_seconds=draw(finite),
        degradation_steps=draw(counters),
        frames_at_nominal=draw(counters))


moments = st.builds(StreamingMoments, quantum=positive, count=big_ints,
                    q_sum=big_ints, q_sum_sq=big_ints,
                    q_min=st.none() | big_ints, q_max=st.none() | big_ints)


@st.composite
def histograms(draw: Any) -> HistogramSketch:
    bins = draw(st.integers(1, 3))
    lo = draw(st.integers(-4, 2))
    hi = lo + draw(st.integers(1, 3))
    counts = draw(_array(np.int64, (hi - lo) * bins + 2,
                         st.integers(0, 2 ** 40)))
    return HistogramSketch(bins_per_decade=bins, lo_exp=lo, hi_exp=hi,
                           counts=counts)


reservoirs = st.builds(
    ReservoirSample, capacity=st.integers(1, 100), seed=big_ints,
    uids=st.lists(big_ints, max_size=4),
    priorities=st.lists(st.integers(0, 2 ** 64 - 1), max_size=4),
    samples=st.lists(finite, max_size=4))

cohorts = st.builds(
    CohortAggregate, key=names,
    moments=st.dictionaries(names, moments, max_size=3),
    hists=st.dictionaries(names, histograms(), max_size=2),
    sample=reservoirs)

fleet_results = st.builds(
    FleetResult, spec_fingerprint=names, n_sessions=big_ints,
    seed=big_ints, contention=st.booleans(),
    cohorts=st.dictionaries(names, cohorts, max_size=3),
    saturated_cell_epochs=big_ints, peak_cell_load=finite)

components = st.builds(LognormalComponent, weight=positive,
                       median=positive, sigma=st.floats(0, 10))

devices = st.builds(
    DeviceClass, name=names, weight=positive,
    scheme=st.sampled_from(sorted(SCHEMES_BY_NAME)),
    soc_power_scale=positive, display_power=positive,
    thermal_resistance=positive, mach_entries=st.integers(4, 4096))

regions = st.builds(
    RegionSpec, name=names, weight=positive, cells=st.integers(1, 4),
    cell_capacity=positive,
    bandwidth=st.lists(components, min_size=1, max_size=3).map(tuple))


@st.composite
def radios(draw: Any) -> RadioConfig:
    idle, tail, active = sorted(draw(st.lists(positive, min_size=3,
                                              max_size=3)))
    return RadioConfig(active_power=active, tail_power=tail,
                       idle_power=idle, tail_seconds=draw(positive),
                       promotion_latency=draw(positive),
                       promotion_energy=draw(positive))


@st.composite
def population_specs(draw: Any) -> PopulationSpec:
    d_min = draw(st.floats(0.5, 10.0))
    buffer = draw(st.floats(1.0, 30.0))
    return PopulationSpec(
        device_classes=tuple(draw(st.lists(
            devices, min_size=1, max_size=2, unique_by=lambda d: d.name))),
        regions=tuple(draw(st.lists(
            regions, min_size=1, max_size=2, unique_by=lambda r: r.name))),
        titles=tuple(draw(st.lists(st.sampled_from(["V1", "V4", "V8"]),
                                   min_size=1, max_size=3, unique=True))),
        zipf_exponent=draw(st.floats(0, 3)),
        duration_median_seconds=draw(positive),
        duration_sigma=draw(st.floats(0, 3)),
        duration_min_seconds=d_min,
        duration_max_seconds=d_min + draw(st.floats(0, 3000)),
        arrival_window_seconds=draw(st.floats(1.0, 1000.0)),
        epoch_seconds=draw(st.floats(0.5, 10.0)),
        abr_safety=draw(st.floats(0.05, 1.0)),
        ladder=tuple(sorted(draw(st.lists(st.floats(1e4, 1e8), min_size=1,
                                          max_size=4, unique=True)))),
        preroll_seconds=draw(positive), buffer_seconds=buffer,
        watermark_seconds=buffer * draw(st.floats(0, 0.9)),
        radio=draw(radios()), calib_frames=draw(st.integers(8, 512)),
        calib_seed=draw(big_ints))


events = st.builds(ShardEvent, kind=names, phase=names,
                   stripe_id=big_ints, attempt=big_ints, detail=st.text())

reports = st.builds(
    SupervisionReport,
    **{f.name: big_ints for f in dataclasses.fields(SupervisionReport)
       if f.type in ("int", int)},
    checkpoint_quarantined=st.dictionaries(names, st.text(), max_size=2),
    stripe_seconds=st.dictionaries(names, finite, max_size=3),
    events=st.lists(events, max_size=3))

calib_entries = st.builds(
    CalibEntry, device=names, title=names, energy_per_frame=finite,
    stall_power=finite, throttle_fraction=finite, drop_rate=finite,
    calib_frames=big_ints)

calibrations = st.builds(
    FleetCalibration, fingerprint=names,
    entries=st.dictionaries(names, calib_entries, max_size=3))

slos = st.builds(
    RegimeSLO, regime=names, cohort=names,
    **{name: big_ints for name in (
        "sessions", "frames", "misses", "skipped", "frozen", "downscaled",
        "lost_blocks", "content_blocks")},
    lateness=histograms(), recovery_energy=moments, total_energy=moments)

chaos_results = st.builds(
    ChaosResult, seed=big_ints, n_jobs=big_ints,
    regimes=st.lists(names, max_size=3).map(tuple),
    slos=st.dictionaries(names, slos, max_size=2))


@st.composite
def realtime_results(draw: Any) -> RealtimeResult:
    n = draw(small)
    spans = st.lists(st.tuples(big_ints, big_ints), max_size=3)
    return RealtimeResult(
        n_frames=n, fps=draw(positive), latency_budget=draw(finite),
        blocks_per_frame=draw(big_ints),
        completion=draw(_array(np.float64, n, with_inf)),
        step=draw(_array(np.int8, n)), miss=draw(_array(np.bool_, n)),
        lost_blocks=draw(_array(np.int32, n)),
        send_rate=draw(_array(np.float64, n, finite)),
        queue_delay=draw(_array(np.float64, n, with_inf)),
        **{name: draw(big_ints) for name in (
            "data_bytes", "parity_bytes", "retx_bytes", "packets_sent",
            "overflow_drops", "red_drops", "injected_drops", "fec_frames",
            "retx_frames", "downscaled_frames", "frozen_frames",
            "skipped_frames", "degradation_steps")},
        **{name: draw(finite) for name in (
            "decode_energy", "sleep_energy", "radio_energy",
            "recovery_energy")},
        lost_spans=draw(st.dictionaries(big_ints, spans, max_size=3)))


json_values = st.recursive(
    st.none() | st.booleans() | big_ints | finite | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=8)

partials = st.builds(
    StripePartial.build, phase=names, stripe_id=big_ints,
    n_sessions=big_ints,
    payload=st.dictionaries(st.text(max_size=4), json_values, max_size=3))

#: CellLoadAccumulator's wire shape is fixed by its spec.
LOAD_SPEC = PopulationSpec(
    regions=(RegionSpec(name="r", cells=2, cell_capacity=6 * MBPS),),
    arrival_window_seconds=6.0, duration_max_seconds=6.0,
    epoch_seconds=2.0)

loads = _array(np.int64, (LOAD_SPEC.total_cells,
                          LOAD_SPEC.epoch_count + 1)).map(
    lambda diff: CellLoadAccumulator.from_jsonable(
        LOAD_SPEC, {"diff": diff.tolist()}))

violations = st.builds(Violation, path=names, line=big_ints, col=big_ints,
                       rule_id=st.sampled_from(["D001", "DT201", "A002"]),
                       message=st.text(), context=st.text())

baselines = st.builds(Baseline, entries=st.dictionaries(
    st.tuples(names, names, st.text()), st.integers(1, 50), max_size=3))

lint_reports = st.builds(
    LintReport, violations=st.lists(violations, max_size=3),
    files_checked=big_ints, baselined=big_ints, suppressed=big_ints,
    elapsed_seconds=finite, cache_hits=big_ints, cache_misses=big_ints)

#: name -> (strategy, decode) for every class with the pair.
CASES: Dict[str, Tuple[Any, Callable[[Any], Any]]] = {
    "FrameTimeline": (frame_timelines(), FrameTimeline.from_jsonable),
    "RunResult": (run_results(), RunResult.from_jsonable),
    "CohortAggregate": (cohorts, CohortAggregate.from_jsonable),
    "FleetResult": (fleet_results, FleetResult.from_jsonable),
    "LognormalComponent": (components, LognormalComponent.from_jsonable),
    "DeviceClass": (devices, DeviceClass.from_jsonable),
    "RegionSpec": (regions, RegionSpec.from_jsonable),
    "PopulationSpec": (population_specs(), PopulationSpec.from_jsonable),
    "StreamingMoments": (moments, StreamingMoments.from_jsonable),
    "HistogramSketch": (histograms(), HistogramSketch.from_jsonable),
    "ReservoirSample": (reservoirs, ReservoirSample.from_jsonable),
    "ShardEvent": (events, ShardEvent.from_jsonable),
    "SupervisionReport": (reports, SupervisionReport.from_jsonable),
    "CalibEntry": (calib_entries, CalibEntry.from_jsonable),
    "FleetCalibration": (calibrations, FleetCalibration.from_jsonable),
    "RegimeSLO": (slos, RegimeSLO.from_jsonable),
    "ChaosResult": (chaos_results, ChaosResult.from_jsonable),
    "RealtimeResult": (realtime_results(), RealtimeResult.from_jsonable),
    "StripePartial": (partials, StripePartial.from_jsonable),
    "CellLoadAccumulator": (
        loads, lambda data: CellLoadAccumulator.from_jsonable(LOAD_SPEC,
                                                              data)),
    "Baseline": (baselines, Baseline.from_jsonable),
    "LintReport": (lint_reports, LintReport.from_jsonable),
}

#: The wire formats that are not their class's field list.
EXPLICIT = {"CellLoadAccumulator", "Baseline", "LintReport"}


def _fields(obj: Any) -> Dict[str, Any]:
    if isinstance(obj, CellLoadAccumulator):
        return {"diff": obj._diff}
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def assert_same(a: Any, b: Any, where: str) -> None:
    """Field-by-field equality (arrays by value and dtype)."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype, where
        assert np.array_equal(a, b), where
    elif dataclasses.is_dataclass(a) or isinstance(a, CellLoadAccumulator):
        assert type(a) is type(b), where
        left, right = _fields(a), _fields(b)
        for name in left:
            assert_same(left[name], right[name], f"{where}.{name}")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            assert_same(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    else:
        assert type(a) is type(b) and a == b, f"{where}: {a!r} != {b!r}"


def test_every_class_with_the_pair_is_covered():
    assert len(CASES) == 22
    for name in set(CASES) - EXPLICIT:
        cls = CASES[name][1].__self__
        assert "to_jsonable" in cls.__dict__, name


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_round_trip_is_byte_identical(name, data):
    strategy, decode_fn = CASES[name]
    original = data.draw(strategy)
    payload = original.to_jsonable()
    if name not in EXPLICIT:
        assert list(payload) == list(_fields(original))
    text = json.dumps(payload)
    rebuilt = decode_fn(json.loads(text))
    assert json.dumps(rebuilt.to_jsonable()) == text
    assert_same(original, rebuilt, name)
