"""Video manifests (per-chunk sizes across a bitrate ladder) and QoE weights.

Level indexing convention used across the package: a *level* is an integer
index into the ascending bitrate ladder, 0 = lowest bitrate and
``n_levels - 1`` = highest. The manifest itself stores the ladder in
descending order, mirroring the usual "R1 is the top rate" presentation;
helpers translate between the two views.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError

# The most chunks a manifest file may list: over 11 hours of video in 4-s chunks.
MAX_CHUNKS = 10_000
# The most bitrate levels a ladder may have. On a 48-chunk 3 Mbps session (2.1 GHz x86-64
# vCPU) the slowest horizon-8 expert label took 0.34 s at 32 levels and 7.2 s at 64, and
# the slowest horizon-5 RobustMPC decision 21 ms and 152 ms.
MAX_LEVELS = 32


@dataclass(frozen=True)
class QoEParams:
    """QoE weighting: per-second rebuffer penalty, switch penalty, caps."""

    alpha1: float
    alpha2: float
    buffer_cap_s: float = 60.0
    rtt_s: float = 0.0

    def __post_init__(self):
        weights = (self.alpha1, self.alpha2, self.buffer_cap_s, self.rtt_s)
        if not all(math.isfinite(x) for x in weights):
            raise DomainError("QoE weights, buffer cap and rtt must be finite")
        if self.alpha1 < 0.0 or self.alpha2 < 0.0:
            raise DomainError("penalty weights must be nonnegative")
        if self.buffer_cap_s <= 0.0:
            raise DomainError("buffer cap must be positive")
        if self.rtt_s < 0.0:
            raise DomainError("rtt must be nonnegative")


@dataclass(frozen=True)
class VideoManifest:
    """Chunked video description.

    bitrates_mbps: strictly decreasing ladder (top rate first).
    chunk_sizes_mb: one row per chunk, columns aligned with ``bitrates_mbps``.
    """

    bitrates_mbps: tuple[float, ...]
    chunk_duration_s: float
    chunk_sizes_mb: tuple[tuple[float, ...], ...]
    id: str = "manifest"

    def __post_init__(self):
        rates = self.bitrates_mbps
        values = (*rates, self.chunk_duration_s, *(s for row in self.chunk_sizes_mb for s in row))
        if not all(math.isfinite(x) for x in values):
            raise DomainError("bitrates, chunk duration and chunk sizes must be finite")
        if not 1 <= len(rates) <= MAX_LEVELS:
            raise DomainError(f"manifest needs 1 to {MAX_LEVELS} bitrate levels, got {len(rates)}")
        for k in range(1, len(rates)):
            if rates[k] >= rates[k - 1]:
                raise DomainError("bitrates must be strictly decreasing")
        if rates[-1] <= 0.0:
            raise DomainError("bitrates must be positive")
        if self.chunk_duration_s <= 0.0:
            raise DomainError("chunk duration must be positive")
        if len(self.chunk_sizes_mb) < 1:
            raise DomainError("manifest needs at least one chunk")
        for row in self.chunk_sizes_mb:
            if len(row) != len(rates):
                raise DomainError("chunk size row length must match the ladder")
            if any(s <= 0.0 for s in row):
                raise DomainError("chunk sizes must be positive")
            for k in range(1, len(row)):
                # columns follow the descending ladder, so sizes must decrease
                if row[k] >= row[k - 1]:
                    raise DomainError("chunk sizes must increase with bitrate")
        # ascending views used by the level-index convention
        object.__setattr__(self, "_rates_asc", tuple(reversed(rates)))
        object.__setattr__(
            self, "_sizes_asc", tuple(tuple(reversed(row)) for row in self.chunk_sizes_mb)
        )

    @property
    def chunk_count(self) -> int:
        return len(self.chunk_sizes_mb)

    @property
    def n_levels(self) -> int:
        return len(self.bitrates_mbps)

    @property
    def levels(self) -> tuple[float, ...]:
        """Bitrates in ascending order, indexed by level."""
        return self._rates_asc

    def rate_of(self, level: int) -> float:
        if not 0 <= level < self.n_levels:
            raise DomainError(f"level {level} out of range [0, {self.n_levels})")
        return self._rates_asc[level]

    def size_mb(self, chunk: int, level: int) -> float:
        """Size of 1-based ``chunk`` at ascending ``level``."""
        if not 1 <= chunk <= self.chunk_count:
            raise DomainError(f"chunk {chunk} out of range [1, {self.chunk_count}]")
        if not 0 <= level < self.n_levels:
            raise DomainError(f"level {level} out of range [0, {self.n_levels})")
        return self._sizes_asc[chunk - 1][level]

    def chunk_sizes_asc(self, chunk: int) -> tuple[float, ...]:
        """All level sizes of 1-based ``chunk`` in ascending level order."""
        if not 1 <= chunk <= self.chunk_count:
            raise DomainError(f"chunk {chunk} out of range [1, {self.chunk_count}]")
        return self._sizes_asc[chunk - 1]


def cbr_manifest(
    bitrates_mbps, chunk_duration_s: float, chunk_count: int, id: str = "manifest"
) -> VideoManifest:
    """Constant-bitrate manifest: every chunk's size is rate * duration."""
    rates = tuple(sorted((float(r) for r in bitrates_mbps), reverse=True))
    if chunk_count < 1:
        raise DomainError("chunk count must be at least 1")
    row = tuple(r * chunk_duration_s for r in rates)
    return VideoManifest(
        bitrates_mbps=rates,
        chunk_duration_s=float(chunk_duration_s),
        chunk_sizes_mb=tuple(row for _ in range(chunk_count)),
        id=id,
    )


def with_vbr_sizes(manifest: VideoManifest, seed: int, spread: float = 0.2) -> VideoManifest:
    """Perturb each chunk's sizes by a seeded factor in [1-spread, 1+spread].

    One factor per chunk (applied to every level) so the size-vs-bitrate
    ordering is preserved for any ladder.
    """
    if not 0.0 <= spread < 1.0:
        raise DomainError("spread must be in [0, 1)")
    rng = np.random.default_rng(seed)
    factors = 1.0 + spread * (2.0 * rng.random(manifest.chunk_count) - 1.0)
    sizes = tuple(
        tuple(s * float(f) for s in row)
        for row, f in zip(manifest.chunk_sizes_mb, factors)
    )
    return VideoManifest(
        bitrates_mbps=manifest.bitrates_mbps,
        chunk_duration_s=manifest.chunk_duration_s,
        chunk_sizes_mb=sizes,
        id=f"{manifest.id}-vbr{seed}",
    )


# Built-in presets (bitrate ladders, chunk counts, and QoE weights of the two
# standard evaluation videos; 60 s client buffer for both).
_PRESETS = {
    "pensieve": dict(
        bitrates=(4.3, 2.85, 1.85, 1.2, 0.75, 0.3),
        chunk_duration_s=4.0,
        chunk_count=48,
        alpha1=4.3,
        alpha2=1.0,
        rtt_s=0.08,
    ),
    "a2br-5g": dict(
        bitrates=(160.0, 110.0, 80.0, 60.0, 40.0, 20.0),
        chunk_duration_s=4.0,
        chunk_count=39,
        alpha1=160.0,
        alpha2=1.0,
        rtt_s=0.104,
    ),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(name: str, chunk_count: int | None = None) -> tuple[VideoManifest, QoEParams]:
    """Resolve a built-in preset by name, optionally overriding the chunk count."""
    try:
        spec = _PRESETS[name]
    except KeyError:
        raise DomainError(f"unknown preset {name!r}; known: {', '.join(preset_names())}") from None
    manifest = cbr_manifest(
        spec["bitrates"],
        spec["chunk_duration_s"],
        chunk_count if chunk_count is not None else spec["chunk_count"],
        id=name,
    )
    params = QoEParams(
        alpha1=spec["alpha1"],
        alpha2=spec["alpha2"],
        buffer_cap_s=60.0,
        rtt_s=spec["rtt_s"],
    )
    return manifest, params


def load_manifest(text: str, id: str = "manifest") -> tuple[VideoManifest, QoEParams]:
    """Parse the manifest JSON wire format.

    Keys: bitrates_mbps (strictly monotone either direction; normalized to descending),
    chunk_duration_s, chunk_count, chunk_sizes_mb (null selects the CBR rule),
    alpha1, alpha2, buffer_cap_s, rtt_s.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("manifest document must be a JSON object")
    required = (
        "bitrates_mbps",
        "chunk_duration_s",
        "chunk_count",
        "chunk_sizes_mb",
        "alpha1",
        "alpha2",
        "buffer_cap_s",
        "rtt_s",
    )
    missing = [k for k in required if k not in doc]
    if missing:
        raise ParseError(f"manifest missing keys: {', '.join(missing)}")

    def field(key, convert):
        try:
            return convert(doc[key])
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"manifest field {key!r} is malformed: {doc[key]!r}") from None

    rates = field("bitrates_mbps", lambda v: [float(r) for r in v])
    if len(rates) > MAX_LEVELS:  # before null sizes expand to chunk_count x levels floats
        raise ParseError(f"bitrates_mbps must list at most {MAX_LEVELS} levels, got {len(rates)}")

    duration = field("chunk_duration_s", float)
    count = field("chunk_count", int)
    if count > MAX_CHUNKS:
        raise ParseError(f"chunk_count must be at most {MAX_CHUNKS}, got {count}")
    if doc["chunk_sizes_mb"] is None:
        sizes = [[r * duration for r in rates] for _ in range(count)]
    else:
        sizes = field("chunk_sizes_mb", lambda v: [[float(s) for s in row] for row in v])
        if len(sizes) != count:
            raise ParseError(f"chunk_sizes_mb has {len(sizes)} rows, chunk_count is {count}")
    if rates and rates[0] < rates[-1]:  # ascending; VideoManifest refuses a ladder out of order
        rates = rates[::-1]
        sizes = [row[::-1] for row in sizes]

    try:
        manifest = VideoManifest(
            bitrates_mbps=tuple(rates),
            chunk_duration_s=duration,
            chunk_sizes_mb=tuple(tuple(row) for row in sizes),
            id=id,
        )
        params = QoEParams(
            alpha1=field("alpha1", float),
            alpha2=field("alpha2", float),
            buffer_cap_s=field("buffer_cap_s", float),
            rtt_s=field("rtt_s", float),
        )
    except DomainError as exc:
        raise ParseError(str(exc)) from None
    return manifest, params


def dump_manifest(manifest: VideoManifest, params: QoEParams) -> str:
    """Serialize to the manifest JSON wire format (inverse of load_manifest)."""
    doc = {
        "bitrates_mbps": list(manifest.bitrates_mbps),
        "chunk_duration_s": manifest.chunk_duration_s,
        "chunk_count": manifest.chunk_count,
        "chunk_sizes_mb": [list(row) for row in manifest.chunk_sizes_mb],
        "alpha1": params.alpha1,
        "alpha2": params.alpha2,
        "buffer_cap_s": params.buffer_cap_s,
        "rtt_s": params.rtt_s,
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
