"""Offline expert demonstrations: the horizon-N bitrate problem with full
future trace knowledge.

Three solvers share one problem description:

* ``solve_expert_ao``   - alternating optimization: solve the bitrate problem
  under fixed per-chunk average throughputs (branch and bound), re-estimate
  the averages by replaying the chosen sequence on the true trace, repeat
  until the estimate stops moving, the level sequence repeats (the
  alternation cycles), or the iteration cap. Every iterate is scored on the
  true trace and the best one is returned.
* ``solve_expert_enum`` - exhaustive enumeration on the true trace (exact,
  budget-limited ground truth).
* ``solve_expert_dp``   - value iteration over a discretized (buffer, clock)
  grid (approximate comparison baseline).

Solutions report the horizon QoE of the returned sequence as replayed on the
true trace, so the objective is always achievable in the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetError, DomainError
from .media import QoEParams, VideoManifest
from .policies import harmonic_mean, solve_horizon
from .simulator import TIE_EPS, SessionState, advance
from .trace import Trace

ENUM_LEAF_BUDGET = 2_000_000
AO_MAX_ITERATIONS = 20
AO_TOLERANCE = 1e-6


def _prefer(cand_val, cand_seq, best_val, best_seq) -> bool:
    """Shared comparison rule: strictly better beats, near-ties go lexical."""
    if best_seq is None or cand_val > best_val + TIE_EPS:
        return True
    return cand_val > best_val - TIE_EPS and tuple(cand_seq) < tuple(best_seq)


@dataclass(frozen=True)
class ExpertProblem:
    """Horizon-N bitrate selection from a session state, future trace known."""

    state: SessionState
    horizon: int
    trace: Trace
    manifest: VideoManifest
    params: QoEParams

    def __post_init__(self):
        if self.horizon < 1:
            raise DomainError("horizon must be at least 1")
        if self.state.terminal:
            raise DomainError("cannot build a problem from a finished session")
        if self.state.next_chunk + self.horizon - 1 > self.manifest.chunk_count:
            raise DomainError("horizon extends past the end of the video")


@dataclass(frozen=True)
class ExpertSolution:
    levels: tuple[int, ...]
    objective: float
    iterations: int
    stop: str  # "converged" | "cycle" | "cap"

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


def problem_from_state(
    state: SessionState,
    trace: Trace,
    manifest: VideoManifest,
    params: QoEParams,
    horizon: int,
) -> ExpertProblem:
    """Build a problem, truncating the horizon at the end of the video."""
    return ExpertProblem(
        state=state,
        horizon=min(horizon, state.remaining),
        trace=trace,
        manifest=manifest,
        params=params,
    )


def _replay(problem: ExpertProblem, levels) -> dict:
    """Replay a level sequence on the true trace with full session semantics.

    Returns its horizon QoE (``"objective"``, the sum in chunk order of the
    rewards ``simulator.advance`` gives, so it equals the sum of ``step``
    rewards along the same levels) and the per-chunk average throughputs,
    RTT dead time excluded (``"cbar"``): given the levels, the download
    windows are fixed by the trace, so the AO throughput estimate is a
    replay rather than an optimization.
    """
    man, par, tr = problem.manifest, problem.params, problem.trace
    qv = man.levels  # a chunk's quality is its bitrate
    last = problem.state.last_level
    prev_q = None if last is None else man.rate_of(last)
    L, cap = man.chunk_duration_s, problem.state.buffer_cap_s
    t = problem.state.clock_s
    b = problem.state.buffer_s
    first = problem.state.next_chunk
    cbar = []
    objective = 0.0
    for j, lvl in enumerate(levels):
        size = man.size_mb(first + j, lvl)
        _tau, _rebuf, _sleep, b, t, throughput, _rp, _sp, reward = advance(
            tr, par, L, cap, t, b, size, qv[lvl], prev_q
        )
        cbar.append(throughput)
        objective += reward
        prev_q = qv[lvl]
    return {"cbar": tuple(cbar), "objective": objective}


def score_on_trace(problem: ExpertProblem, levels) -> float:
    """Horizon QoE of a level sequence replayed on the true trace."""
    return _replay(problem, levels)["objective"]


def solve_fixed_throughput(
    problem: ExpertProblem, cbar, warm_start=None
) -> tuple[tuple[int, ...], float]:
    """Exact horizon optimum when chunk j downloads at a known average rate
    ``cbar[j]``: the AO inner step, solved by the branch and bound of
    ``policies.solve_horizon`` (the trace is not consulted). Returns the
    lexicographically smallest optimal sequence and its objective.
    """
    cbar = list(cbar)
    if len(cbar) != problem.horizon:
        raise DomainError("cbar length must match the horizon")
    return solve_horizon(problem.state, problem.manifest, problem.params, cbar, warm_start)


def solve_expert_ao(problem: ExpertProblem) -> ExpertSolution:
    """Alternating optimization between bitrate selection and throughput
    estimation.

    The throughput estimate starts from the harmonic mean of the state's
    measured history (or, with no history, from the lowest level's true
    chunk throughputs) and the loop stops when the re-estimate changes by at
    most ``AO_TOLERANCE`` relative (``stop == "converged"``), when an
    iterate repeats an earlier level sequence (``"cycle"``), or after
    ``AO_MAX_ITERATIONS`` (``"cap"``). From the second iteration on, each
    iterate is a function of the previous one alone (its replay gives the
    next estimate, and the branch and bound returns the same optimum with or
    without the warm start), so after a repeat the iterates run around the
    same cycle until the cap. The rest of those rounds is compared from the
    recorded replays without solving, so the result is the one the loop
    would reach at the cap. The best-scoring iterate on the true trace is
    returned; the constant (fixed-level) sequences are screened as extra
    candidates so the result never falls below the best fixed-level
    demonstration (near-ties follow the shared rule); a level whose
    no-rebuffer bound cannot win is skipped without a replay.
    """
    N = problem.horizon
    hist = [p for _, p in problem.state.history]
    if hist:
        cbar = [harmonic_mean(hist)] * N
    else:
        cbar = list(_replay(problem, [0] * N)["cbar"])

    best_obj = -math.inf
    best_levels: tuple[int, ...] | None = None
    iterations = 0
    stop = "cap"
    levels = None
    iterates: list[tuple[tuple[int, ...], float]] = []  # (levels, objective)
    index: dict[tuple[int, ...], int] = {}  # level sequence -> first iteration (0-based)
    while iterations < AO_MAX_ITERATIONS:
        iterations += 1
        levels, _inner = solve_fixed_throughput(problem, cbar, warm_start=levels)
        replay = _replay(problem, levels)
        objective = replay["objective"]
        if _prefer(objective, levels, best_obj, best_levels):
            best_obj, best_levels = objective, levels
        cstar = replay["cbar"]
        if max(abs(cs - c) / c for cs, c in zip(cstar, cbar)) <= AO_TOLERANCE:
            stop = "converged"
            break
        if levels in index:
            stop = "cycle"
            # The tie rule is not transitive, so a later round of the cycle
            # can still move the best iterate: finish the rounds up to the
            # cap from the recorded replays.
            start = index[levels]
            period = len(iterates) - start
            for m in range(iterations, AO_MAX_ITERATIONS):
                seq, value = iterates[start + (m - start) % period]
                if _prefer(value, seq, best_obj, best_levels):
                    best_obj, best_levels = value, seq
            break
        index[levels] = len(iterates)
        iterates.append((levels, objective))
        cbar = list(cstar)

    # A fixed level scores at most N * q minus the first switch (no
    # rebuffering). When that bound, with a relative margin for the replay's
    # rounding, cannot reach the tie margin below the best objective,
    # _prefer cannot pick the level, so it is not replayed.
    qv = problem.manifest.levels
    last = problem.state.last_level
    alpha2 = problem.params.alpha2
    for lvl, q in enumerate(qv):
        gain = N * q
        switch = 0.0 if last is None else alpha2 * abs(q - qv[last])
        if gain - switch + 1e-9 * (gain + switch) <= best_obj - TIE_EPS:
            continue
        fixed = (lvl,) * N
        objective = _replay(problem, fixed)["objective"]
        if _prefer(objective, fixed, best_obj, best_levels):
            best_obj, best_levels = objective, fixed

    return ExpertSolution(levels=best_levels, objective=best_obj, iterations=iterations, stop=stop)


def solve_expert_enum(problem: ExpertProblem) -> ExpertSolution:
    """Exact optimum by enumerating every level sequence on the true trace.

    Refuses instances beyond ``ENUM_LEAF_BUDGET`` leaves. Depth-first traversal
    shares prefixes; children are visited in ascending level order and only
    improvements beyond the shared tie margin replace the incumbent, so
    near-tied objectives resolve to the lexicographically smallest sequence
    (the same rule the other solvers follow).
    """
    man, par, tr = problem.manifest, problem.params, problem.trace
    n = man.n_levels
    N = problem.horizon
    if n**N > ENUM_LEAF_BUDGET:
        raise BudgetError(f"{n}^{N} sequences exceed the enumeration budget of {ENUM_LEAF_BUDGET}")

    qv = man.levels
    L = man.chunk_duration_s
    cap = problem.state.buffer_cap_s
    first = problem.state.next_chunk
    sizes = [man.chunk_sizes_asc(first + j) for j in range(N)]

    best_val = -math.inf
    best_seq: tuple[int, ...] | None = None
    seq = [0] * N

    def visit(j: int, t: float, b: float, prev_q: float | None, value: float) -> None:
        nonlocal best_val, best_seq
        if j == N:
            if value > best_val + TIE_EPS:
                best_val = value
                best_seq = tuple(seq)
            elif value > best_val:
                best_val = value  # within-tie drift: keep the lex-first sequence
            return
        row = sizes[j]
        for lvl in range(n):
            _tau, _rebuf, _sleep, nb, nt, _p, _rp, _sp, reward = advance(
                tr, par, L, cap, t, b, row[lvl], qv[lvl], prev_q
            )
            seq[j] = lvl
            visit(j + 1, nt, nb, qv[lvl], value + reward)

    last = problem.state.last_level
    prev_q = None if last is None else man.rate_of(last)
    visit(0, problem.state.clock_s, problem.state.buffer_s, prev_q, 0.0)
    assert best_seq is not None
    return ExpertSolution(
        levels=best_seq, objective=score_on_trace(problem, best_seq), iterations=1, stop="converged"
    )


def solve_expert_dp(problem: ExpertProblem, buffer_grid_s: float) -> ExpertSolution:
    """Approximate optimum by value iteration on a discretized state space.

    States are (chunk offset, last level, buffer bucket, clock bucket); both
    continuous coordinates are snapped to ``buffer_grid_s``. The start state
    is kept exact so a single-chunk horizon stays exact regardless of the
    grid. Values within ``TIE_EPS`` follow the shared tie rule, both where
    two paths meet in one grid state and in the final pick. The best
    sequence is replayed exactly for the reported objective.
    """
    if buffer_grid_s <= 0.0:
        raise DomainError("grid step must be positive")
    man, par, tr = problem.manifest, problem.params, problem.trace
    n = man.n_levels
    N = problem.horizon
    g = buffer_grid_s
    qv = man.levels
    L = man.chunk_duration_s
    cap = problem.state.buffer_cap_s
    first = problem.state.next_chunk

    # layer maps (last level, buffer bucket, clock bucket) -> (value, b, t, seq)
    start_key = (-1 if problem.state.last_level is None else problem.state.last_level, 0, 0)
    layer = {
        start_key: (0.0, problem.state.buffer_s, problem.state.clock_s, ())
    }
    for j in range(N):
        sizes = man.chunk_sizes_asc(first + j)
        nxt: dict = {}
        for (prev_lvl, _bk, _tk), (value, b, t, seq) in layer.items():
            prev_q = None if prev_lvl < 0 else qv[prev_lvl]
            for lvl in range(n):
                _tau, _rebuf, _sleep, nb, nt, _p, _rp, _sp, reward = advance(
                    tr, par, L, cap, t, b, sizes[lvl], qv[lvl], prev_q
                )
                try:
                    bk, tk = round(nb / g), round(nt / g)
                except OverflowError:  # nb / g or nt / g is infinite
                    raise DomainError(
                        f"grid step {g!r} is too small to index the buffer and clock"
                    ) from None
                key = (lvl, bk, tk)
                cand = (value + reward, bk * g, tk * g, seq + (lvl,))
                held = nxt.get(key)
                if held is None or _prefer(cand[0], cand[3], held[0], held[3]):
                    nxt[key] = cand
        layer = nxt

    best_val, levels = -math.inf, None
    for value, _b, _t, seq in layer.values():
        if _prefer(value, seq, best_val, levels):
            best_val, levels = value, seq
    return ExpertSolution(
        levels=levels, objective=score_on_trace(problem, levels), iterations=1, stop="converged"
    )
