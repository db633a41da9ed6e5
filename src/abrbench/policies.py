"""Online ABR baselines behind a single decision interface.

Levels are ascending bitrate indices (0 = lowest). All deciders are pure
functions of (state, config); the random policy keeps a private seeded RNG,
so use one instance per session.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, UsageError
from .media import QoEParams, VideoManifest
from .simulator import MAX_HISTORY_K, TIE_EPS, Policy, SessionState, check_history_k
from .trace import check_seed

POLICY_KINDS = ("buffer_based", "robust_mpc", "fixed", "random")
# The longest horizon a search may look ahead, in chunks. The branch and bound's worst case
# is exponential in it, and it takes a stack frame per chunk: RobustMPC decisions on the
# pensieve ladder took up to 0.9 s at 24 chunks and 4.9 s at 48 (two 3 Mbps sessions,
# volatility 0.3, one CPU of a 2-vCPU x86-64 VM).
MAX_HORIZON = 24


@dataclass(frozen=True)
class PolicyConfig:
    kind: str = "buffer_based"
    mpc_horizon: int = 5
    history_k: int = 8
    reservoir_s: float = 5.0
    cushion_s: float = 10.0
    fixed_level: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise DomainError(f"unknown policy kind {self.kind!r}")
        check_horizon(self.mpc_horizon, "mpc horizon")
        check_history_k(self.history_k)
        check_seed(self.seed)
        if self.cushion_s <= 0.0:
            raise DomainError("cushion must be positive")
        if self.reservoir_s < 0.0:
            raise DomainError("reservoir must be nonnegative")


def check_horizon(horizon: int, name: str = "horizon") -> None:
    """Refuse a horizon outside [1, ``MAX_HORIZON``]."""
    if not 1 <= horizon <= MAX_HORIZON:
        raise DomainError(f"{name} must be at least 1 and at most {MAX_HORIZON}, got {horizon}")


def _positive_samples(samples) -> list:
    """``samples`` as a list; refuses an empty or a non-positive sample set."""
    samples = list(samples)
    if not samples:
        raise DomainError("harmonic mean of an empty sample set")
    if any(x <= 0.0 for x in samples):
        raise DomainError("harmonic mean requires positive samples")
    return samples


def harmonic_mean(samples) -> float:
    """n / sum(1/x). Undefined for empty or non-positive samples."""
    samples = _positive_samples(samples)
    return len(samples) / sum(1.0 / x for x in samples)


def decide_buffer_based(state: SessionState, manifest: VideoManifest, cfg: PolicyConfig) -> int:
    """Map buffer occupancy onto the ladder.

    Below the reservoir pick the lowest level; above reservoir + cushion the
    highest; in between pick the largest level whose quality does not exceed
    the linear interpolation between the extremes across the cushion.
    """
    if state.terminal:
        raise UsageError("cannot decide for a finished session")
    if cfg.reservoir_s + cfg.cushion_s > state.buffer_cap_s:
        raise DomainError("reservoir + cushion exceeds the buffer cap")
    b = state.buffer_s
    top = manifest.n_levels - 1
    if b <= cfg.reservoir_s:
        return 0
    if b >= cfg.reservoir_s + cfg.cushion_s:
        return top
    q_lo = manifest.levels[0]
    q_hi = manifest.levels[-1]
    target = q_lo + (b - cfg.reservoir_s) * (q_hi - q_lo) / cfg.cushion_s
    level = 0
    for lvl in range(manifest.n_levels):
        if manifest.levels[lvl] <= target:
            level = lvl
    return level


def mpc_throughput_prediction(history_mbps) -> float:
    """Harmonic-mean throughput estimate with robustness discounting.

    The discount divides by 1 + max relative error of the retrospective
    harmonic-mean predictions over the history window (0 until at least two
    samples exist).
    """
    samples = _positive_samples(history_mbps)
    err = 0.0
    # 1/x summed from the int 0 as sum() does, so m / inv is harmonic_mean(samples[:m]) to
    # the bit, and the whole sum gives the harmonic mean of the window in the same pass
    inv = 0
    for m, x in enumerate(samples):
        if m:
            e = abs(m / inv - x) / x
            if e > err:
                err = e
        inv = inv + 1.0 / x
    return len(samples) / inv / (1.0 + err)


@lru_cache(maxsize=64)
def _ladder_tables(qv: tuple[float, ...], alpha2: float, N: int):
    """The switch penalties and prune bounds of ``solve_horizon``, which depend
    only on the ladder ``qv``, ``alpha2`` and the horizon ``N``.

    ``penalty[prev][lvl]`` charges a switch from level ``prev`` to ``lvl``; the
    extra last row (index -1) is the start with no previous level, where nothing
    is charged. ``rests[j][lvl]`` bounds the QoE of the ``R = N - j - 1`` chunks
    after chunk ``j`` at level ``lvl``: with top quality ``q`` they score at most
    ``R * q``, less ``alpha2 * (q - qv[lvl])`` for the climb when ``q`` is higher,
    and rebuffering only lowers that.
    """
    penalty = tuple(tuple(alpha2 * abs(q - p) for q in qv) for p in qv)
    rests = tuple(
        tuple(max(R * q - alpha2 * (q - p if q > p else 0.0) for q in qv) for p in qv)
        for R in range(N - 1, 0, -1)
    )
    return penalty + ((0.0,) * len(qv),), rests


def fixed_level_bound(N: int, q: float, switch: float) -> float:
    """The most ``N`` chunks at one level of quality ``q`` can score: ``N * q`` less
    the first switch ``switch`` (rebuffering only lowers it, and later switches
    cost 0), plus a relative margin for the rounding of a replay's sums."""
    gain = N * q
    return gain - switch + 1e-9 * (gain + switch)


def _best_seed(evaluate, qv, N: int, switch, warm_start) -> float:
    """The best ``evaluate`` value among ``solve_horizon``'s seed sequences: the
    warm start (if any) and each fixed level.

    The warm start is scored first, then the fixed levels from the top down. A
    level whose ``fixed_level_bound`` cannot exceed the best seed so far is
    skipped: it could not raise the maximum, which is therefore the same float
    as a scan of every seed gives.
    """
    best = -math.inf
    if warm_start is not None:
        value = evaluate(warm_start)
        if value > best:
            best = value
    for lvl in range(len(qv) - 1, -1, -1):
        if fixed_level_bound(N, qv[lvl], switch[lvl]) <= best:
            continue
        value = evaluate((lvl,) * N)
        if value > best:
            best = value
    return best


def solve_horizon(
    state: SessionState,
    manifest: VideoManifest,
    params: QoEParams,
    rates,
    warm_start=None,
) -> tuple[tuple[int, ...], float]:
    """Exact horizon optimum when chunk ``state.next_chunk + j`` downloads at
    the known average rate ``rates[j]``; the horizon is ``len(rates)``.

    Download times are then fixed per (chunk, level), so the horizon QoE of a
    level sequence follows from the simulator's buffer/sleep rules without a
    trace. Depth-first branch and bound over level sequences: node value is
    the accrued QoE and the admissible bound adds the most the remaining
    chunks can score, their count times their top quality less the switch
    penalty of climbing there (rebuffering dropped). A child that passes it
    meets a second bound, the rebuffering budget: if the ``R`` chunks left
    download in ``T`` seconds in total, a child with buffer ``nb`` leaves them
    ``B = nb + R*L - min(cap, L)`` seconds of it (each step gains at most ``L``
    plus its rebuffer, and the last buffer is at least ``min(cap, L)``), so
    they rebuffer at least ``T - B``; their qualities sum to at most
    ``rho*T``, with ``rho`` the largest quality per download second among
    them. When ``rho < alpha1`` they score at most ``rho*B`` if ``B`` lies
    within their lowest- and top-level totals ``[Tmin, Tmax)``, and
    ``rho*Tmin - alpha1*(Tmin - B)`` below it, plus a relative rounding
    margin; ``rho``, ``Tmin`` and ``Tmax`` are suffixes built once per call,
    so the test costs O(1) per child. Children are explored in
    ascending level order with three prunes: strictly-below-seed bounds
    (seeds are the fixed-level sequences plus an optional warm start, which
    must be ``N`` levels on the ladder; ``_best_seed`` skips a fixed level
    whose no-rebuffer bound cannot raise their maximum, which stays the same
    float), bounds not exceeding the best discovered leaf, and dominated prefixes.
    A prefix is dominated when an earlier-expanded prefix of the same length
    and last level has at least its buffer and at least its value: every
    completion gains at least as much from more buffer (each step is
    monotone in the buffer, rounding included), and that earlier subtree has
    already raised the best leaf to at least each of its completions, so the
    dominated subtree could change neither the best value nor the returned
    sequence. Equal-objective ties therefore resolve to the
    lexicographically smallest level sequence, the shared ``TIE_EPS`` rule.
    In equal-value plateaus a reward-greedy exploration order cannot honor
    that tie rule, so lexical order is used instead. Per (length, last
    level) the expanded prefixes are kept as a Pareto frontier, ascending in
    buffer and descending in value, created when the first such prefix is
    expanded; memory grows with the frontiers and time is exponential in the
    horizon in the worst case. Switch penalties and bounds are read from
    tables built once per ladder, ``alpha2`` and horizon (``_ladder_tables``).
    A chunk whose sizes and rate equal the previous chunk's shares its row of
    (level, download time, quality), as every chunk of a constant-rate
    RobustMPC horizon over a constant-bitrate manifest does, and the budget
    suffixes scan a shared row once. The last chunk's children are scored in
    a loop of their own, which has no prunes to test. Returns the sequence
    and its objective.
    """
    rates = list(rates)
    N = len(rates)
    if N < 1:
        raise DomainError("horizon must be at least 1")
    # written so that NaN fails too
    if not all(0.0 < c < math.inf for c in rates):
        raise DomainError("chunk-average throughputs must be positive and finite")

    n = manifest.n_levels
    first = state.next_chunk
    qv = manifest.levels
    alpha1 = params.alpha1
    L = manifest.chunk_duration_s
    cap = state.buffer_cap_s
    b0 = state.buffer_s
    # keyed by the ladder, not the manifest, whose hash would cover every chunk size
    penalty, rests = _ladder_tables(qv, params.alpha2, N)
    if state.last_level is None:
        prev0 = -1
    else:
        manifest.rate_of(state.last_level)  # refuses a level off the ladder
        prev0 = state.last_level
    if warm_start is not None:
        warm_start = tuple(warm_start)
        if len(warm_start) != N or min(warm_start) < 0 or max(warm_start) >= n:
            raise DomainError(f"a warm start must be {N} levels in [0, {n}), got {warm_start!r}")
    # download times are fixed per (chunk, level) once the rates are fixed;
    # rows[j] holds (level, download time, quality) for chunk j, and a chunk whose
    # sizes and rate equal the previous chunk's shares its row
    rows = []
    row = sizes = rate = None
    for j, c in enumerate(rates):
        chunk_sizes = manifest.chunk_sizes_asc(first + j)
        if c != rate or chunk_sizes != sizes:
            sizes, rate = chunk_sizes, c
            row = [(lvl, size / c, qv[lvl]) for lvl, size in enumerate(sizes)]
        rows.append(row)

    def evaluate(levels) -> float:
        # same expression shapes as the DFS so values agree bit-for-bit
        b, prev, value = b0, prev0, 0.0
        for j, lvl in enumerate(levels):
            _lvl, t_dl, q = rows[j][lvl]
            value = value + q - alpha1 * (t_dl - b if t_dl > b else 0.0) - penalty[prev][lvl]
            prev = lvl
            b = (b - t_dl if b > t_dl else 0.0) + L
            if b > cap:
                b = cap
        return value

    # budget[j] = (rho, tmin, tmax, slack, scale) of the R = N - j - 1 chunks after chunk j:
    # their largest quality per download second, the suffix sums of their lowest- and
    # top-level download times, R*L - min(cap, L), and the magnitude of their quality and
    # rebuffer terms. tmax is -inf where the rebuffering-budget bound does not apply. The
    # rounding of the search's own sums stays far below 1e-9 of the scale, |child| and
    # alpha1*B, which make the bound's margin.
    budget = [None] * N
    rho = tmin = tmax = 0.0
    floor = L if L < cap else cap  # the least buffer a download leaves
    scanned = None
    for j in range(N - 1, 0, -1):
        row = rows[j]
        if row is not scanned:  # a row shared with the next chunk is in rho already
            scanned = row
            if row[0][1] > 0.0:  # the lowest level's is the shortest download
                for _lvl, t_dl, q in row:
                    ratio = q / t_dl
                    if ratio > rho:
                        rho = ratio
            else:
                rho = math.inf
        tmin += row[0][1]
        tmax += row[-1][1]
        budget[j - 1] = (rho, tmin, tmax if rho < alpha1 else -math.inf,
                         (N - j) * L - floor, (rho + alpha1) * tmax)

    seed_val = _best_seed(evaluate, qv, N, penalty[prev0], warm_start)

    # Seeds only prune (bounds strictly below seed value, with an ulp-scale
    # slack for rounding); the lexicographic DFS always rediscovers the
    # optimum itself, which keeps the tie rule exact.
    seed_cut = seed_val - 1e-9
    best_val = -math.inf
    best_seq: tuple[int, ...] | None = None
    seq = [0] * N
    # frontier[j][lvl]: buffers (ascending) and values (descending) of the
    # expanded prefixes of length j + 1 that end in level lvl; None until the
    # first such prefix is expanded
    frontier = [[None] * n for _ in range(N - 1)]
    leaf_row = rows[N - 1]

    def leaf(_j: int, b: float, prev: int, value: float) -> None:
        nonlocal best_val, best_seq
        pen = penalty[prev]
        for lvl, t_dl, q in leaf_row:
            child = value + q - alpha1 * (t_dl - b if t_dl > b else 0.0) - pen[lvl]
            if child > best_val + TIE_EPS:
                seq[N - 1] = lvl
                best_seq = tuple(seq)
                best_val = child
            elif child > best_val:
                best_val = child  # within-tie drift: keep the lex-first sequence

    def visit(j: int, b: float, prev: int, value: float) -> None:
        pen = penalty[prev]
        rem = rests[j]
        fronts = frontier[j]
        down = leaf if j == N - 2 else visit
        rho, tmin, tmax, slack, scale = budget[j]
        for lvl, t_dl, q in rows[j]:
            child = value + q - alpha1 * (t_dl - b if t_dl > b else 0.0) - pen[lvl]
            bound = child + rem[lvl]
            if bound < seed_cut or bound <= best_val - TIE_EPS:
                continue
            nb = (b - t_dl if b > t_dl else 0.0) + L
            if nb > cap:
                nb = cap
            B = nb + slack
            if B < tmax:  # the rebuffering budget binds
                gain = rho * B if B >= tmin else rho * tmin - alpha1 * (tmin - B)
                bound = child + gain + 1e-9 * (abs(child) + scale + alpha1 * B)
                if bound < seed_cut or bound <= best_val - TIE_EPS:
                    continue
            front = fronts[lvl]
            if front is None:
                fronts[lvl] = ([nb], [child])
            else:
                bufs, vals = front
                i = bisect_left(bufs, nb)
                if i < len(bufs) and vals[i] >= child:
                    continue  # dominated by an earlier, finished subtree
                # drop the entries the new prefix dominates: a run ending at i
                # (buffers <= nb, the run of values <= child)
                k = i + 1 if i < len(bufs) and bufs[i] == nb else i
                lo = k
                while lo > 0 and vals[lo - 1] <= child:
                    lo -= 1
                bufs[lo:k] = [nb]
                vals[lo:k] = [child]
            seq[j] = lvl
            down(j + 1, nb, lvl, child)

    (visit if N > 1 else leaf)(0, b0, prev0, 0.0)
    # visit refers to itself through its closure; break that reference cycle
    # so the frontiers are freed now, not at the next cyclic collection
    del visit
    if best_seq is None or not math.isfinite(best_val):
        raise DomainError("horizon objective is not finite; check the QoE weights and the manifest")
    if best_val < seed_val - 1e-9:
        raise RuntimeError("branch and bound returned less than its seed sequences")
    return best_seq, best_val


def decide_robust_mpc(
    state: SessionState,
    manifest: VideoManifest,
    params: QoEParams,
    cfg: PolicyConfig,
) -> int:
    """Receding-horizon search under a constant throughput prediction.

    Predicts one throughput for every chunk of the horizon (robust harmonic
    mean of the recent history), finds the horizon-QoE-optimal level sequence
    under the simulator's exact buffer/sleep rules with the branch and bound
    of ``solve_horizon``, and returns its first level. Near-ties within
    ``TIE_EPS`` go to the lexicographically smallest sequence, so to the
    lower bitrate first. The worst-case time grows exponentially with
    ``cfg.mpc_horizon``, which ``MAX_HORIZON`` bounds.
    """
    if state.terminal:
        raise UsageError("cannot decide for a finished session")
    hist = [p for _, p in state.history]
    if not hist:
        return 0
    chat = mpc_throughput_prediction(hist[-cfg.history_k:])
    horizon = min(cfg.mpc_horizon, state.remaining)
    levels, _value = solve_horizon(state, manifest, params, [chat] * horizon)
    return levels[0]


def make_policy(
    cfg: PolicyConfig, manifest: VideoManifest, params: QoEParams
) -> tuple[str, Policy]:
    """Build a per-session decision callback and its identifier string."""
    if cfg.kind == "buffer_based":
        return "buffer_based", lambda state, obs: decide_buffer_based(state, manifest, cfg)
    if cfg.kind == "robust_mpc":
        return "robust_mpc", lambda state, obs: decide_robust_mpc(state, manifest, params, cfg)
    if cfg.kind == "fixed":
        if not 0 <= cfg.fixed_level < manifest.n_levels:
            raise DomainError(f"fixed level {cfg.fixed_level} out of range")
        return f"fixed:{cfg.fixed_level}", lambda state, obs: cfg.fixed_level
    rng = np.random.default_rng(cfg.seed)  # PolicyConfig admits no other kind than random
    return f"random:{cfg.seed}", lambda state, obs: int(rng.integers(manifest.n_levels))
