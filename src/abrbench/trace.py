"""Downlink-throughput traces: representation, ingestion, synthesis, integration.

A trace is a piecewise-constant bandwidth function of time: each sample's
bandwidth holds from its timestamp until the next sample, and past the
final sample the trace repeats with a fixed period. All integration and
transfer-time math is exact under this interpolation (no numeric
quadrature).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError

# Mean-reversion factor of the synthetic log-AR(1) walk. Kept < 1 so the
# walk stays centred on the model mean.
_AR1_PERSISTENCE = 0.9
_CLAMP_LO = 0.05
_CLAMP_HI = 20.0
# A synthetic trace holds at most this many samples (a day of 1-s samples is 86,400).
MAX_SAMPLES = 100_000
# Seeds lie in [0, SEED_BOUND): numpy refuses a negative one, and a bounded one keeps the
# file names that carry it short.
SEED_BOUND = 2**63


def check_seed(seed: int) -> None:
    """Refuse a seed outside [0, ``SEED_BOUND``)."""
    if not 0 <= seed < SEED_BOUND:
        raise DomainError(f"seed must be in [0, {SEED_BOUND}), got {seed}")


@dataclass(frozen=True)
class TraceModel:
    """Parameters of the synthetic throughput generator."""

    mean_mbps: float = 3.0
    volatility: float = 0.3
    duration_s: float = 320.0
    step_s: float = 1.0

    def __post_init__(self):
        if self.mean_mbps <= 0.0:
            raise DomainError("mean bandwidth must be positive")
        if not (0.0 <= self.volatility < 1.0):
            raise DomainError("volatility must be in [0, 1)")
        if self.step_s <= 0.0:
            raise DomainError("step must be positive")
        if self.duration_s <= 0.0:
            raise DomainError("duration must be positive")
        if not self.duration_s / self.step_s <= MAX_SAMPLES:
            raise DomainError(f"{self.duration_s!r} s at {self.step_s!r}-s steps is more than "
                              f"{MAX_SAMPLES} samples")


@dataclass(frozen=True)
class Trace:
    """Immutable piecewise-constant downlink-throughput trace.

    samples: ordered ``(timestamp_s, bandwidth_mbps)`` pairs; timestamps
    strictly increasing and starting at 0, bandwidths strictly positive, and
    one period must carry a positive, finite volume.
    duration: the period in seconds with which the trace repeats. When
    omitted it defaults to the last timestamp plus the final inter-sample gap
    (1 s for single-sample traces, where the choice is immaterial because the
    function is constant).
    """

    samples: tuple[tuple[float, float], ...]
    id: str = "trace"
    duration: float | None = None

    def __post_init__(self):
        if not self.samples:
            raise DomainError("trace must contain at least one sample")
        ts = [float(t) for t, _ in self.samples]
        bw = [float(c) for _, c in self.samples]
        if not all(math.isfinite(x) for x in ts + bw):
            raise DomainError("trace samples must be finite")
        if ts[0] != 0.0:
            raise DomainError("timestamps must start at 0")
        for k in range(1, len(ts)):
            if ts[k] <= ts[k - 1]:
                raise DomainError("timestamps must be strictly increasing")
        if any(c <= 0.0 for c in bw):
            raise DomainError("bandwidth values must be positive")

        if self.duration is None:
            if len(ts) >= 2:
                period = ts[-1] + (ts[-1] - ts[-2])
            else:
                period = 1.0
        else:
            period = float(self.duration)
            if not math.isfinite(period) or period <= ts[-1]:
                raise DomainError("duration must be finite and exceed the last timestamp")

        # Cumulative megabits at each sample boundary; exact prefix sums make
        # integration additive by construction.
        cum = [0.0] * len(ts)
        for k in range(1, len(ts)):
            cum[k] = cum[k - 1] + bw[k - 1] * (ts[k] - ts[k - 1])
        period_mb = cum[-1] + bw[-1] * (period - ts[-1])
        if not 0.0 < period_mb < math.inf:  # it underflows or overflows: nothing can be timed
            raise DomainError(
                f"one period of the trace carries {period_mb!r} Mb, not a positive finite volume")

        object.__setattr__(self, "_ts", ts)
        object.__setattr__(self, "_bw", bw)
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_period", period)
        object.__setattr__(self, "_period_mb", period_mb)

    # -- internal cumulative-volume machinery ---------------------------------

    def _volume_to(self, t: float) -> float:
        """Megabits delivered over [0, t]."""
        k, r = divmod(t, self._period)
        i = bisect.bisect_right(self._ts, r) - 1
        return k * self._period_mb + (self._cum[i] + (r - self._ts[i]) * self._bw[i])

    def _time_of_volume(self, v: float) -> float:
        """Inverse of :meth:`_volume_to` (strictly increasing since bw > 0)."""
        try:
            k = math.floor(v / self._period_mb)
        except (OverflowError, ValueError):  # an infinite or NaN volume: the clock overflowed
            raise DomainError("transfer ends beyond the representable time range") from None
        r = v - k * self._period_mb
        if r >= self._period_mb:
            k += 1
            r -= self._period_mb
        if r < 0.0:
            r = 0.0
        i = bisect.bisect_right(self._cum, r) - 1
        return k * self._period + self._ts[i] + (r - self._cum[i]) / self._bw[i]

    def bandwidth_at(self, t: float) -> float:
        """Instantaneous bandwidth in Mbps at time ``t`` >= 0."""
        if t < 0.0:
            raise DomainError("time must be nonnegative")
        i = bisect.bisect_right(self._ts, math.fmod(t, self._period)) - 1
        return self._bw[i]

    def scaled(self, factor: float) -> "Trace":
        """Return a copy with every bandwidth multiplied by ``factor``."""
        if factor <= 0.0:
            raise DomainError("scale factor must be positive")
        return Trace(
            samples=tuple((t, c * factor) for t, c in self.samples),
            id=self.id,
            duration=self.duration,
        )


def integrate_throughput(trace: Trace, t0: float, d: float) -> float:
    """Megabits delivered over [t0, t0 + d] under piecewise-constant bandwidth."""
    if t0 < 0.0:
        raise DomainError("start time must be nonnegative")
    if d < 0.0:
        raise DomainError("duration must be nonnegative")
    return trace._volume_to(t0 + d) - trace._volume_to(t0)


def transfer_time(trace: Trace, t0: float, volume_mb: float, rtt_s: float = 0.0) -> float:
    """Seconds to deliver ``volume_mb`` starting at ``t0``.

    The round-trip time is modelled as dead time prepended to the data
    phase: no data flows during the first ``rtt_s`` seconds, then the trace
    delivers the volume. The returned duration includes the dead time.
    """
    if t0 < 0.0:
        raise DomainError("start time must be nonnegative")
    if volume_mb <= 0.0:
        raise DomainError("volume must be positive")
    if rtt_s < 0.0:
        raise DomainError("rtt must be nonnegative")
    start = t0 + rtt_s
    d = trace._time_of_volume(trace._volume_to(start) + volume_mb) - start
    return rtt_s + d


def load_trace(text: str, *, id: str = "trace") -> Trace:
    """Parse the trace CSV wire format: ``timestamp_seconds,bandwidth_mbps`` rows.

    No header, '.' decimal separator, LF line endings. Parse errors name the
    offending 1-based line. The trace wraps past its last sample.
    """
    rows: list[tuple[float, float]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'timestamp,bandwidth', got {line!r}")
        try:
            t = float(parts[0])
            c = float(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed number in {line!r}") from None
        if not (math.isfinite(t) and math.isfinite(c)):
            raise ParseError(f"line {lineno}: non-finite value")
        if c <= 0.0:
            raise ParseError(f"line {lineno}: bandwidth must be positive, got {c}")
        if rows and t <= rows[-1][0]:
            raise ParseError(f"line {lineno}: timestamps must be strictly increasing")
        if not rows and t != 0.0:
            raise ParseError(f"line {lineno}: first timestamp must be 0")
        rows.append((t, c))
    if not rows:
        raise ParseError("empty trace file")
    return Trace(samples=tuple(rows), id=id)


def save_trace(trace: Trace) -> str:
    """Serialize to the CSV wire format (inverse of :func:`load_trace`)."""
    return "".join(f"{t!r},{c!r}\n" for t, c in trace.samples)


def synth_trace(seed: int, model: TraceModel) -> Trace:
    """Deterministic synthetic trace: a log-space AR(1) walk around the mean.

    Bandwidths are clamped to [0.05 * mean, 20 * mean]. Identical seeds give
    byte-identical sample lists.
    """
    check_seed(seed)
    n = max(1, int(math.ceil(model.duration_s / model.step_s)))
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    lo = _CLAMP_LO * model.mean_mbps
    hi = _CLAMP_HI * model.mean_mbps

    samples = []
    x = 0.0
    for k in range(n):
        x = _AR1_PERSISTENCE * x + model.volatility * float(eps[k])
        bw = min(max(model.mean_mbps * math.exp(x), lo), hi)
        samples.append((k * model.step_s, bw))
    return Trace(
        samples=tuple(samples),
        id=f"synth-{seed}",
        duration=float(n * model.step_s),
    )
