"""One benchmark command for the simulator, end to end and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_matrix --seed 1 \\
        --seconds 36 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``--trace 1`` runs every unit twice, untraced then traced,
prints the per-layer metrics and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Metric
names and units come from ``BENCHMARK.json``; see
``perfbench/README.md`` for what each one means.

The program under test is imported from ``src/`` of the checkout this
file sits in, never from anywhere else, and nothing is written next to
its sources (bytecode writing is off).
"""

from __future__ import annotations

import time

#: Set-up is timed from here, before numpy and ``repro`` are imported.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Sequence, Tuple  # noqa: E402

import reference  # noqa: E402
from layers import per_layer  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run behind ``setup_s``: this process plus fresh ones.
SETUP_PROBES = 2

#: Operations behind the p90, so at least ten samples lie beyond it.
MIN_P90_SAMPLES = 100


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the time and exit")
    return parser.parse_args(argv)


def load_program() -> Any:
    """Import the workloads (and with them ``repro``) from ``src/``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import workloads
    origin = Path(sys.modules["repro"].__file__ or "").resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"error: repro imported from {origin}, not {src}")
    return workloads


def setup(args: argparse.Namespace,
          tracer: Any = None) -> Tuple[Any, Any, float, float]:
    """Imports, workload set-up and one warm-up operation.

    Returns the workloads module, the workload, the set-up time since
    :data:`STARTED` in host seconds, and the host speed right after.
    With a tracer, the set-up (fleet calibration) is traced under
    operation -1.
    """
    workloads = load_program()
    if tracer is not None:
        tracer.install()
    try:
        load = workloads.build(args.workload, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    warmup = workloads.execute(load.warmup)
    if warmup.error is not None:
        raise SystemExit(f"error: warm-up {warmup.label} failed: "
                         f"{warmup.error}")
    took = time.perf_counter() - STARTED
    return workloads, load, took, reference.current_speed()


def probe_setups(args: argparse.Namespace) -> List[Tuple[float, float]]:
    """(host seconds, speed) of the set-ups of fresh processes, one
    after another."""
    command = [sys.executable, "-B", str(Path(__file__).resolve()),
               "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=150, check=False)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        times.append((probe["seconds"], probe["speed"]))
    return times


def cycle_weights(outcomes: Sequence[Any]) -> List[float]:
    """1 / (samples of the operation's label) for every outcome.

    A run ends inside a cycle, so its first units ran once more than
    the rest.  With these weights every operation of the cycle counts
    the same, and the statistics describe one cycle's mix whatever
    share of the last cycle the run reached.
    """
    counts = Counter(o.label for o in outcomes)
    return [1.0 / counts[o.label] for o in outcomes]


def weighted_percentile(values: Sequence[float], weights: Sequence[float],
                        q: float) -> float:
    """Smallest value whose cumulative weight reaches ``q`` % of the
    total (the inverted CDF), ``q`` in [0, 100]."""
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    target = total * q / 100.0 - 1e-9 * total
    cumulative = 0.0
    for value, weight in pairs:
        cumulative += weight
        if cumulative >= target:
            return value
    return pairs[-1][0]


def frames_per_s(outcomes: Sequence[Any]) -> float:
    """Simulated frames per host second at reference speed, over one
    cycle's mix of operations."""
    weights = cycle_weights(outcomes)
    seconds = sum(w * o.ref_seconds for w, o in zip(weights, outcomes))
    frames = sum(w * o.frames for w, o in zip(weights, outcomes))
    return frames / seconds if seconds else 0.0


def run_unit(workloads: Any, unit: Sequence[Any],
             tracer: Any = None) -> List[Any]:
    outcomes = []
    for op in unit:
        if tracer is not None:
            tracer.op += 1
        outcomes.append(workloads.execute(op, tracer))
    return outcomes


def measure(workloads: Any, load: Any, seconds: float) -> List[Any]:
    """The closed loop: whole units, in cycle order, until time is up;
    the reference kernel runs between units."""
    yardstick = reference.Yardstick()
    units: List[List[Any]] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not units:
        units.append(run_unit(workloads,
                              load.units[len(units) % len(load.units)]))
        yardstick.tick()
    yardstick.apply(units)
    return [outcome for unit in units for outcome in unit]


def measure_traced(workloads: Any, load: Any, seconds: float,
                   tracer: Any) -> Tuple[List[Any], List[Any], int]:
    """Whole cycles, each unit untraced then traced, until time is up.

    Returns (untraced, traced, cycles).  Every traced result must
    equal its untraced twin byte for byte.
    """
    yardstick = reference.Yardstick()
    units: List[List[Any]] = []
    cycles = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not cycles:
        for unit in load.units:
            units.append(run_unit(workloads, unit))
            yardstick.tick()
            units.append(run_unit(workloads, unit, tracer))
            yardstick.tick()
        cycles += 1
    yardstick.apply(units)
    plain = [outcome for unit in units[0::2] for outcome in unit]
    traced = [outcome for unit in units[1::2] for outcome in unit]
    for twin, outcome in zip(plain, traced):
        if outcome.error is None and outcome.text != twin.text:
            outcome.error = "traced result JSON differs from untraced"
    return plain, traced, cycles


def repeat_first(workloads: Any, load: Any, first: Any) -> Any:
    """Re-run the run's first operation; its bytes must not change."""
    again = workloads.execute(load.units[0][0])
    if again.error is None and again.text != first.text:
        again.error = "first operation repeated gives different bytes"
    return again


def end_to_end(outcomes: Sequence[Any],
               setups: Sequence[Tuple[float, float]],
               scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics, at reference speed or, with
    ``scaled=False``, in raw host time."""
    if not scaled:
        outcomes = [dataclasses.replace(o, speed=1.0) for o in outcomes]
    times_ms = [1000.0 * o.ref_seconds for o in outcomes]
    weights = cycle_weights(outcomes)
    return {
        "sim_frames_per_s": frames_per_s(outcomes),
        "op_ms_p50": weighted_percentile(times_ms, weights, 50.0),
        "op_ms_p90": weighted_percentile(times_ms, weights, 90.0),
        "setup_s": statistics.median(
            seconds * (speed if scaled else 1.0)
            for seconds, speed in setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        _, _, took, speed = setup(args)
        print(json.dumps({"seconds": took, "speed": speed}))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer() if args.trace else None
    workloads, load, took, speed = setup(args, tracer)

    if tracer is None:
        setups = [(took, speed)] + probe_setups(args)
        outcomes = measure(workloads, load, args.seconds)
        checked = outcomes + [repeat_first(workloads, load, outcomes[0])]
        values = end_to_end(outcomes, setups)
        raw = end_to_end(outcomes, setups, scaled=False)
        print("raw host time: " + ", ".join(
            f"{name}={raw[name]:.6g}" for name in
            ("sim_frames_per_s", "op_ms_p50", "op_ms_p90", "setup_s")),
            file=sys.stderr)
        table = spec["end_to_end"]
    else:
        plain, traced, cycles = measure_traced(
            workloads, load, args.seconds, tracer)
        checked = plain + traced + [repeat_first(workloads, load, plain[0])]
        values = per_layer(tracer, plain, traced, cycles, checked, speed)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write_jsonl(
            str(out / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        table = spec["per_layer"]

    failed = [o for o in checked if o.error is not None]
    for outcome in failed:
        print(f"FAILED {outcome.label}: {outcome.error}", file=sys.stderr)
    if tracer is None and len(outcomes) < MIN_P90_SAMPLES:
        print(f"note: op_ms_p90 rests on {len(outcomes)} operations, "
              f"fewer than {MIN_P90_SAMPLES}", file=sys.stderr)
    metrics = {row["name"]: {"value": values[row["name"]],
                             "unit": row["unit"]} for row in table}
    print(json.dumps({"correct": not failed, "attempted": len(checked),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
