"""Tests of the benchmark itself: metrics emitted, tracing inert.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [row["name"] for row in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-B", str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_shortest_run_emits_every_metric(workload: str, trace: str) -> None:
    # --seconds 0 runs one unit untraced, or one cycle traced.
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    table = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == {
                row["name"]: row["unit"] for row in table}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_run_without_program_sources_fails(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "paper_matrix", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tracing_leaves_results_bit_identical() -> None:
    from repro.config import GAB_DCC, SimulationConfig
    from repro.core import pipeline
    from repro.fleet import engine, surrogate
    from repro.fleet.population import default_population
    from repro.video import workload

    spec = default_population()
    calibration = surrogate.calibrate(spec)

    def results() -> tuple:
        run = pipeline.simulate(workload("V8"), GAB_DCC, n_frames=32,
                                config=SimulationConfig(), seed=5)
        fleet = engine.run_fleet(spec, 9000, seed=2, calibration=calibration)
        return (json.dumps(run.to_jsonable()),
                json.dumps(fleet.to_jsonable()))

    original = pipeline.simulate
    plain = results()
    tracer = Tracer()
    tracer.install()
    try:
        traced = results()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert pipeline.simulate is original
    names = {span[0] for span in tracer.spans}
    assert {"core.pipeline", "hashing.crc", "core.soa", "fleet.engine",
            "fleet.population", "video.synthesis"} <= names


def test_self_time_subtracts_children() -> None:
    tracer = Tracer()
    # parent [0, 10] with children [1, 3] and [4, 8]; grandchild [5, 6]
    tracer.spans = [["a", 0.0, 10.0, -1, 0, 0], ["b", 1.0, 3.0, 0, 0, 0],
                    ["b", 4.0, 8.0, 0, 0, 0], ["c", 5.0, 6.0, 2, 0, 0]]
    duration, self_time = tracer.self_times()
    assert list(duration) == [10.0, 2.0, 4.0, 1.0]
    assert list(self_time) == [4.0, 2.0, 3.0, 1.0]


def test_statistics_weigh_a_partial_cycle_like_a_whole_one() -> None:
    from run import cycle_weights, frames_per_s, weighted_percentile
    from workloads import Outcome

    whole = [Outcome("a", 1.0, 10), Outcome("b", 4.0, 10)]
    partial = whole + [Outcome("a", 1.0, 10)]
    assert frames_per_s(partial) == frames_per_s(whole) == 4.0
    times = [o.seconds for o in partial]
    for q in (50.0, 90.0):
        assert weighted_percentile(times, cycle_weights(partial), q) == \
            weighted_percentile([1.0, 4.0], [1.0, 1.0], q)
    assert weighted_percentile(list(range(1, 11)), [1.0] * 10, 50.0) == 5
    assert weighted_percentile(list(range(1, 11)), [1.0] * 10, 90.0) == 9
