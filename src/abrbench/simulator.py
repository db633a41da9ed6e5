"""Deterministic chunk-by-chunk DASH session engine.

Per chunk: the client downloads the selected copy (download time comes from
the trace integral plus RTT dead time), the playback buffer drains while the
download runs, rebuffering is the unmet drain, a full buffer makes the client
sleep, and the per-chunk reward is quality minus rebuffer and switch
penalties. ``advance`` is the one place these rules are written; rewards
summed over a session in chunk order (undiscounted) are the session QoE.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, UsageError
from .media import QoEParams, VideoManifest
from .trace import Trace, transfer_time

# Normalization constants of the observation vector (keeps entries O(1)).
DOWNLOAD_TIME_SCALE_S = 10.0
OBS_CLAMP = 20.0

# QoE scores of candidate level sequences within this margin count as tied
# and resolve to the lexicographically smallest sequence (lowest bitrates
# first). Shared by every sequence search in the package so tie decisions
# agree across solvers despite last-ulp float noise.
TIE_EPS = 1e-10
# The longest throughput history an observation or a prediction may span, in chunks.
MAX_HISTORY_K = 1000


@dataclass(frozen=True)
class SessionState:
    """Client state before downloading chunk ``next_chunk`` (1-based)."""

    next_chunk: int
    clock_s: float
    buffer_s: float
    last_level: int | None
    history: tuple[tuple[float, float], ...]  # (download_time_s, throughput_mbps), oldest first
    history_k: int
    chunk_count: int
    buffer_cap_s: float

    @property
    def remaining(self) -> int:
        return self.chunk_count - self.next_chunk + 1

    @property
    def terminal(self) -> bool:
        return self.next_chunk > self.chunk_count


@dataclass(frozen=True)
class StepOutcome:
    """Everything that happened while fetching one chunk."""

    chunk: int
    level: int
    bitrate_mbps: float
    download_time_s: float
    rebuffer_s: float
    sleep_s: float
    throughput_mbps: float
    rebuffer_penalty: float
    switch_penalty: float
    reward: float


@dataclass(frozen=True)
class SessionLog:
    steps: tuple[StepOutcome, ...]
    total_qoe: float
    trace_id: str
    policy_id: str
    seed: int


def advance(
    trace: Trace,
    params: QoEParams,
    chunk_duration_s: float,
    buffer_cap_s: float,
    clock_s: float,
    buffer_s: float,
    size_mb: float,
    quality: float,
    prev_quality: float | None,
) -> tuple[float, float, float, float, float, float, float, float, float]:
    """One chunk's dynamics and reward; the simulator, the expert replay and
    the trace-exact solvers all call it.

    Returns (download_time, rebuffer, sleep, next_buffer, next_clock,
    measured_throughput, rebuffer_penalty, switch_penalty, reward). Measured
    throughput excludes the RTT dead time. reward = quality - alpha1 *
    rebuffer - alpha2 * |quality - prev_quality|, left to right, with no
    switch term when ``prev_quality`` is None (a session's first chunk).
    """
    tau = transfer_time(trace, clock_s, size_mb, params.rtt_s)
    rebuffer = tau - buffer_s if tau > buffer_s else 0.0
    post = (buffer_s - tau if buffer_s > tau else 0.0) + chunk_duration_s
    if post > buffer_cap_s:
        sleep = post - buffer_cap_s
        post = buffer_cap_s
    else:
        sleep = 0.0
    try:
        throughput = size_mb / (tau - params.rtt_s)
    except ZeroDivisionError:  # the data time rounds to nothing next to the clock or the RTT
        raise DomainError(f"a {size_mb} Mb chunk downloads in no measurable time") from None
    rebuffer_penalty = params.alpha1 * rebuffer
    switch_penalty = 0.0 if prev_quality is None else params.alpha2 * abs(quality - prev_quality)
    reward = quality - rebuffer_penalty - switch_penalty
    return (tau, rebuffer, sleep, post, clock_s + tau + sleep, throughput,
            rebuffer_penalty, switch_penalty, reward)


def check_history_k(history_k: int) -> None:
    """Refuse a history length outside [1, ``MAX_HISTORY_K``]; the session owns the history."""
    if not 1 <= history_k <= MAX_HISTORY_K:
        raise DomainError(f"history length (history_k) must be at least 1 and at most "
                          f"{MAX_HISTORY_K}, got {history_k}")


def initial_state(
    manifest: VideoManifest,
    params: QoEParams,
    history_k: int = 8,
    start_offset_s: float = 0.0,
) -> SessionState:
    check_history_k(history_k)
    if start_offset_s < 0.0:
        raise DomainError("start offset must be nonnegative")
    return SessionState(
        next_chunk=1,
        clock_s=start_offset_s,
        buffer_s=0.0,
        last_level=None,
        history=(),
        history_k=history_k,
        chunk_count=manifest.chunk_count,
        buffer_cap_s=params.buffer_cap_s,
    )


def step(
    state: SessionState,
    trace: Trace,
    manifest: VideoManifest,
    params: QoEParams,
    level: int,
) -> tuple[StepOutcome, SessionState]:
    """Download one chunk at ``level`` and return (outcome, next state)."""
    if state.terminal:
        raise UsageError("cannot step a finished session")
    rate = manifest.rate_of(level)  # a chunk's quality is its bitrate
    prev = None if state.last_level is None else manifest.rate_of(state.last_level)
    tau, rebuffer, sleep, buf, clock, throughput, rebuf_pen, switch_pen, reward = advance(
        trace, params, manifest.chunk_duration_s, state.buffer_cap_s, state.clock_s,
        state.buffer_s, manifest.size_mb(state.next_chunk, level), rate, prev)
    outcome = StepOutcome(
        chunk=state.next_chunk,
        level=level,
        bitrate_mbps=rate,
        download_time_s=tau,
        rebuffer_s=rebuffer,
        sleep_s=sleep,
        throughput_mbps=throughput,
        rebuffer_penalty=rebuf_pen,
        switch_penalty=switch_pen,
        reward=reward,
    )
    history = (state.history + ((tau, throughput),))[-state.history_k:]
    next_state = SessionState(
        next_chunk=state.next_chunk + 1,
        clock_s=clock,
        buffer_s=buf,
        last_level=level,
        history=history,
        history_k=state.history_k,
        chunk_count=state.chunk_count,
        buffer_cap_s=state.buffer_cap_s,
    )
    return outcome, next_state


def observation_size(manifest: VideoManifest, history_k: int = 8) -> int:
    return 2 * history_k + manifest.n_levels + 3


def observe(state: SessionState, manifest: VideoManifest) -> np.ndarray:
    """Fixed-length observation vector. Layout (k = history length, R = levels):

    [0, k)          past measured throughputs / top bitrate, oldest first,
                    left-padded with zeros, clamped to 20
    [k, 2k)         past download times / 10 s, same ordering and clamp
    [2k, 2k + R)    next chunk's level sizes / that chunk's largest size,
                    ascending level order (zeros once the video ended)
    [2k + R]        last quality / top quality (0 before the first chunk)
    [2k + R + 1]    buffer occupancy / buffer cap
    [2k + R + 2]    remaining chunks / total chunks
    """
    k = state.history_k
    n = manifest.n_levels
    obs = np.zeros(2 * k + n + 3, dtype=np.float64)
    top_rate = manifest.levels[-1]

    pad = k - len(state.history)
    for j, (tau, throughput) in enumerate(state.history):
        obs[pad + j] = min(throughput / top_rate, OBS_CLAMP)
        obs[k + pad + j] = min(tau / DOWNLOAD_TIME_SCALE_S, OBS_CLAMP)

    if not state.terminal:
        sizes = manifest.chunk_sizes_asc(state.next_chunk)
        top_size = sizes[-1]
        for lvl in range(n):
            obs[2 * k + lvl] = sizes[lvl] / top_size

    if state.last_level is not None:
        obs[2 * k + n] = manifest.rate_of(state.last_level) / top_rate
    obs[2 * k + n + 1] = state.buffer_s / state.buffer_cap_s
    obs[2 * k + n + 2] = state.remaining / state.chunk_count if not state.terminal else 0.0
    return obs


Policy = Callable[[SessionState, np.ndarray | None], int]


def run_session(
    policy: Policy,
    trace: Trace,
    manifest: VideoManifest,
    params: QoEParams,
    start_offset_s: float = 0.0,
    history_k: int = 8,
    policy_id: str = "policy",
    seed: int = 0,
    observed: bool = True,
) -> SessionLog:
    """Play the whole video under ``policy`` and return the session log. With
    ``observed=False`` no observation is built and the policy gets None instead."""
    state = initial_state(manifest, params, history_k=history_k, start_offset_s=start_offset_s)
    steps: list[StepOutcome] = []
    total = 0.0
    while not state.terminal:
        level = policy(state, observe(state, manifest) if observed else None)
        outcome, state = step(state, trace, manifest, params, level)
        steps.append(outcome)
        total += outcome.reward
    if not math.isfinite(total):  # finite weights times seconds can still overflow
        raise DomainError("session QoE is not finite; check the QoE weights and the manifest")
    return SessionLog(
        steps=tuple(steps),
        total_qoe=total,
        trace_id=trace.id,
        policy_id=policy_id,
        seed=seed,
    )


def jsonl(records) -> str:
    """JSON-lines text: each record on one line, keys sorted, NaN and infinities refused."""
    return "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n" for r in records)


def session_to_jsonl(log: SessionLog, config: dict | None = None) -> str:
    """JSON-lines wire format: one step record per line plus a summary record."""
    summary = {
        "record": "summary",
        "trace_id": log.trace_id,
        "policy_id": log.policy_id,
        "seed": log.seed,
        "chunks": len(log.steps),
        "total_qoe": log.total_qoe,
        "config": config or {},
    }
    return jsonl([{"record": "step", **asdict(s)} for s in log.steps] + [summary])
