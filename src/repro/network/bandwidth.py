"""Bandwidth traces: synthetic generators and trace-file loading.

The delivery simulator consumes a :class:`BandwidthTrace` — a
piecewise-constant link-capacity signal in the package's canonical
units (bytes per second over seconds).  Traces come from three places:

* **synthetic generators** (:func:`constant_trace`,
  :func:`lte_trace`, :func:`step_trace`) — seeded and deterministic,
  so a delivery run is reproducible bit-for-bit;
* **trace files** (:func:`load_trace`) in the two-column
  ``timestamp,bytes_per_sec`` format used by trace-driven network
  simulators (net-rl / Pensieve-style), one sample per line, comma or
  whitespace separated, ``#`` comments ignored;
* any code that builds the arrays directly.

The last sample's rate holds forever, so a trace shorter than the
session never runs out of signal (an explicit trailing 0-rate sample
models a dead link instead).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import ConfigError, InputError


@dataclass(frozen=True)
class BandwidthTrace:
    """A piecewise-constant link capacity signal.

    ``rates[i]`` (bytes/s) holds from ``timestamps[i]`` until
    ``timestamps[i + 1]`` (or forever, for the last sample).
    """

    timestamps: Tuple[float, ...]
    rates: Tuple[float, ...]
    name: str = "trace"

    def __post_init__(self) -> None:
        if not self.timestamps or len(self.timestamps) != len(self.rates):
            raise ConfigError("trace needs matching, non-empty samples")
        if self.timestamps[0] != 0.0:
            raise ConfigError("trace must start at t=0")
        if any(b <= a for a, b in zip(self.timestamps, self.timestamps[1:])):
            raise ConfigError("trace timestamps must strictly increase")
        if any(rate < 0 for rate in self.rates):
            raise ConfigError("trace rates must be non-negative")

    @property
    def duration(self) -> float:
        """Span covered by explicit samples (the last rate holds after)."""
        return self.timestamps[-1]

    @property
    def mean_rate(self) -> float:
        """Sample-duration-weighted mean rate over ``duration`` (bytes/s)."""
        if len(self.timestamps) == 1:
            return self.rates[0]
        spans = [b - a for a, b in zip(self.timestamps, self.timestamps[1:])]
        total = sum(spans)
        return sum(r * s for r, s in zip(self.rates, spans)) / total

    def rate_at(self, time: float) -> float:
        """Link capacity at ``time`` (bytes/s)."""
        if time <= 0.0:
            return self.rates[0]
        index = bisect.bisect_right(self.timestamps, time) - 1
        return self.rates[index]

    def bytes_between(self, start: float, end: float) -> float:
        """Bytes the link can carry over ``[start, end]``."""
        if end <= start:
            return 0.0
        total = 0.0
        cursor = start
        index = max(0, bisect.bisect_right(self.timestamps, start) - 1)
        while cursor < end:
            boundary = (self.timestamps[index + 1]
                        if index + 1 < len(self.timestamps) else math.inf)
            upto = min(end, boundary)
            total += self.rates[index] * (upto - cursor)
            cursor = upto
            index += 1
        return total

    def transfer_time(self, nbytes: float, start: float) -> float:
        """Wall-clock time at which a ``nbytes`` download starting at
        ``start`` completes, or ``inf`` if the link stays dead."""
        if nbytes <= 0:
            return start
        remaining = float(nbytes)
        cursor = max(0.0, start)
        index = max(0, bisect.bisect_right(self.timestamps, cursor) - 1)
        while True:
            rate = self.rates[index]
            boundary = (self.timestamps[index + 1]
                        if index + 1 < len(self.timestamps) else math.inf)
            if rate > 0:
                needed = remaining / rate
                if cursor + needed <= boundary:
                    return cursor + needed
                remaining -= rate * (boundary - cursor)
            elif boundary == math.inf:
                return math.inf
            cursor = boundary
            index += 1


# --- synthetic generators ----------------------------------------------


def constant_trace(bytes_per_sec: float, name: str = "constant",
                   ) -> BandwidthTrace:
    """A flat link (the sanity-check trace)."""
    return BandwidthTrace((0.0,), (float(bytes_per_sec),), name=name)


#: LTE-like Markov states as multipliers of the mean rate: deep fade,
#: weak cell edge, nominal, good, peak carrier-aggregation bursts.
_LTE_LEVELS = (0.08, 0.45, 1.0, 1.55, 2.3)

#: Sticky transition matrix over the five levels (rows sum to 1).
_LTE_TRANSITIONS = (
    (0.60, 0.30, 0.10, 0.00, 0.00),
    (0.10, 0.55, 0.30, 0.05, 0.00),
    (0.02, 0.13, 0.60, 0.20, 0.05),
    (0.00, 0.05, 0.30, 0.50, 0.15),
    (0.00, 0.02, 0.18, 0.30, 0.50),
)


def lte_trace(mean_bytes_per_sec: float, duration: float, seed: int = 1,
              step: float = 1.0, name: str = "lte") -> BandwidthTrace:
    """An LTE-like trace: a sticky Markov chain over capacity levels
    with per-step lognormal fading jitter.

    Deterministic for a given ``(mean, duration, seed, step)``; the
    realized mean is renormalized to ``mean_bytes_per_sec`` so traces
    with different seeds stay comparable.
    """
    if duration <= 0 or step <= 0:
        raise ConfigError("lte trace needs positive duration and step")
    rng = np.random.default_rng(seed)
    n = max(1, int(math.ceil(duration / step)))
    levels = np.empty(n, dtype=np.int64)
    levels[0] = 2  # start at the nominal level
    matrix = np.asarray(_LTE_TRANSITIONS)
    for i in range(1, n):
        levels[i] = rng.choice(len(_LTE_LEVELS), p=matrix[levels[i - 1]])
    jitter = rng.lognormal(mean=0.0, sigma=0.18, size=n)
    rates = np.asarray(_LTE_LEVELS)[levels] * jitter
    rates *= mean_bytes_per_sec / float(np.mean(rates))
    timestamps = tuple(i * step for i in range(n))
    return BandwidthTrace(timestamps, tuple(float(r) for r in rates),
                          name=f"{name}-s{seed}")


def step_trace(levels_bytes_per_sec: Sequence[float], period: float,
               repeats: int = 1, name: str = "step") -> BandwidthTrace:
    """Cycle through fixed capacity levels (a 0 level is an outage)."""
    if not levels_bytes_per_sec or period <= 0 or repeats < 1:
        raise ConfigError("step trace needs levels, a period, and repeats")
    timestamps = []
    rates = []
    for cycle in range(repeats):
        for i, level in enumerate(levels_bytes_per_sec):
            timestamps.append((cycle * len(levels_bytes_per_sec) + i)
                              * period)
            rates.append(float(level))
    return BandwidthTrace(tuple(timestamps), tuple(rates), name=name)


# --- trace files --------------------------------------------------------


def load_trace(path: str, name: str | None = None) -> BandwidthTrace:
    """Load a two-column ``timestamp,bytes_per_sec`` trace file."""
    timestamps = []
    rates = []
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(path, exc) from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.replace(",", " ").split()
        try:
            timestamp, rate = (float(part) for part in parts)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: expected 'timestamp,bytes_per_sec'"
            ) from None
        timestamps.append(timestamp)
        rates.append(rate)
    if not timestamps:
        raise ConfigError(f"{path}: empty trace file")
    if timestamps[0] != 0.0:
        # Re-anchor recorded traces that start mid-capture.
        base = timestamps[0]
        timestamps = [t - base for t in timestamps]
    return BandwidthTrace(tuple(timestamps), tuple(rates),
                          name=name or path)


def save_trace(trace: BandwidthTrace, path: str) -> None:
    """Write a trace in the ``timestamp,bytes_per_sec`` file format."""
    with open(path, "w") as handle:
        handle.write(f"# bandwidth trace: {trace.name}\n")
        for timestamp, rate in zip(trace.timestamps, trace.rates):
            handle.write(f"{timestamp:.6f},{rate:.3f}\n")
