"""Offline expert solvers: branch and bound, alternating optimization,
exhaustive enumeration, and the DP baseline."""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from abrbench import (
    BudgetError,
    DomainError,
    QoEParams,
    Trace,
    TraceModel,
    VideoManifest,
    cbr_manifest,
    initial_state,
    preset,
    problem_from_state,
    solve_expert_ao,
    solve_expert_dp,
    solve_expert_enum,
    solve_fixed_throughput,
    step,
    synth_trace,
    transfer_time,
)
from abrbench import expert
from abrbench.expert import AO_MAX_ITERATIONS, AO_TOLERANCE, ExpertProblem, score_on_trace
from abrbench.policies import MAX_HORIZON, harmonic_mean, solve_horizon
from abrbench.simulator import TIE_EPS, SessionState


def brute_force_fixed(problem, cbar, tie_eps=1e-10):
    """Independent oracle for the fixed-throughput problem: full scan in
    lexicographic order under the package's documented tie rule (near-ties
    within 1e-10 keep the lexicographically first sequence)."""
    man, par = problem.manifest, problem.params
    n = man.n_levels
    best_val, best_seq = -math.inf, None
    for seq in itertools.product(range(n), repeat=problem.horizon):
        b = problem.state.buffer_s
        prev = (
            None
            if problem.state.last_level is None
            else man.rate_of(problem.state.last_level)
        )
        val = 0.0
        for j, lvl in enumerate(seq):
            tau = man.size_mb(problem.state.next_chunk + j, lvl) / cbar[j]
            val += man.levels[lvl] - par.alpha1 * max(0.0, tau - b)
            if prev is not None:
                val -= par.alpha2 * abs(man.levels[lvl] - prev)
            prev = man.levels[lvl]
            b = min(max(b - tau, 0.0) + man.chunk_duration_s, problem.state.buffer_cap_s)
        if val > best_val + tie_eps:
            best_val, best_seq = val, seq
        elif val > best_val:
            best_val = val
    return best_seq, best_val


def ao_reference(problem):
    """Reference alternating optimization without the cycle stop: iterate
    until the estimate converges or the cap, keeping the best iterate under
    the shared tie rule, then screen the fixed-level sequences. Returns
    (levels, objective, iterations)."""
    N = problem.horizon
    hist = [p for _, p in problem.state.history]
    if hist:
        cbar = [harmonic_mean(hist)] * N
    else:
        cbar = list(expert._replay(problem, [0] * N)["cbar"])
    best_obj, best_levels = -math.inf, None
    iterations, levels = 0, None
    while iterations < AO_MAX_ITERATIONS:
        iterations += 1
        levels, _ = expert.solve_fixed_throughput(problem, cbar, warm_start=levels)
        replay = expert._replay(problem, levels)
        if expert._prefer(replay["objective"], levels, best_obj, best_levels):
            best_obj, best_levels = replay["objective"], levels
        cstar = replay["cbar"]
        if max(abs(cs - c) / c for cs, c in zip(cstar, cbar)) <= AO_TOLERANCE:
            break
        cbar = list(cstar)
    for lvl in range(problem.manifest.n_levels):
        fixed = (lvl,) * N
        objective = expert._replay(problem, fixed)["objective"]
        if expert._prefer(objective, fixed, best_obj, best_levels):
            best_obj, best_levels = objective, fixed
    return best_levels, best_obj, iterations


def ao_replaying_every_iterate(problem):
    """``solve_expert_ao`` as it was before a repeated iterate stopped it unreplayed:
    every iterate is replayed, and the re-estimate alone detects convergence.
    Returns ((levels, objective.hex(), iterations, stop), the number of replays,
    whether the last iterate repeated the one before it)."""
    N = problem.horizon
    replays = 0

    def replay(levels):
        nonlocal replays
        replays += 1
        return expert._replay(problem, levels)

    hist = [p for _, p in problem.state.history]
    cbar = [harmonic_mean(hist)] * N if hist else list(replay([0] * N)["cbar"])
    best_obj, best_levels = -math.inf, None
    iterations, stop, levels, previous, seen = 0, "cap", None, None, set()
    while iterations < AO_MAX_ITERATIONS:
        iterations += 1
        previous = levels
        levels, _ = expert.solve_fixed_throughput(problem, cbar, warm_start=levels)
        replayed = replay(levels)
        if expert._prefer(replayed["objective"], levels, best_obj, best_levels):
            best_obj, best_levels = replayed["objective"], levels
        cstar = replayed["cbar"]
        if max(abs(cs - c) / c for cs, c in zip(cstar, cbar)) <= AO_TOLERANCE:
            stop = "converged"
            break
        if levels in seen:
            stop = "cycle"
            break
        seen.add(levels)
        cbar = list(cstar)
    qv, last, alpha2 = problem.manifest.levels, problem.state.last_level, problem.params.alpha2
    for lvl, q in enumerate(qv):
        gain = N * q
        switch = 0.0 if last is None else alpha2 * abs(q - qv[last])
        if gain - switch + 1e-9 * (gain + switch) <= best_obj - TIE_EPS:
            continue
        fixed = (lvl,) * N
        objective = replay(fixed)["objective"]
        if expert._prefer(objective, fixed, best_obj, best_levels):
            best_obj, best_levels = objective, fixed
    return (best_levels, best_obj.hex(), iterations, stop), replays, levels == previous


def check_feasible(problem, solution, tol=1e-9):
    """Independent feasibility recheck of a solution: the trajectory of
    ``solution.levels`` is rebuilt from the trace integral (transfer times,
    minimal rebuffer slack, buffer recursion with the cap, clock
    bookkeeping) and its QoE must equal the reported objective."""
    man, par, tr = problem.manifest, problem.params, problem.trace
    assert len(solution.levels) == problem.horizon
    assert all(0 <= lvl < man.n_levels for lvl in solution.levels)
    t = problem.state.clock_s
    b = problem.state.buffer_s
    prev = None if problem.state.last_level is None else man.rate_of(problem.state.last_level)
    total = 0.0
    for j, lvl in enumerate(solution.levels):
        size = man.size_mb(problem.state.next_chunk + j, lvl)
        tau = transfer_time(tr, t, size, par.rtt_s)
        assert tau >= par.rtt_s and math.isfinite(tau)
        q = man.rate_of(lvl)
        total += q - par.alpha1 * max(0.0, tau - b)
        if prev is not None:
            total -= par.alpha2 * abs(q - prev)
        prev = q
        b_post = max(0.0, b - tau) + man.chunk_duration_s
        sleep = max(0.0, b_post - problem.state.buffer_cap_s)
        b = b_post - sleep
        assert 0.0 <= b <= problem.state.buffer_cap_s
        t = t + tau + sleep
    assert abs(solution.objective - total) <= 1e-6
    assert abs(solution.objective - score_on_trace(problem, solution.levels)) <= tol


MAN4 = cbr_manifest((1.85, 1.2, 0.75, 0.3), 4.0, 48, id="ladder4")
PAR4 = QoEParams(alpha1=1.85, alpha2=1.0, buffer_cap_s=60.0, rtt_s=0.08)


def make_state(**kwargs):
    defaults = dict(
        next_chunk=1,
        clock_s=0.0,
        buffer_s=0.0,
        last_level=None,
        history=(),
        history_k=8,
        chunk_count=48,
        buffer_cap_s=60.0,
    )
    defaults.update(kwargs)
    return SessionState(**defaults)


def random_problem(rng, manifest=MAN4, params=PAR4, horizon=6, volatility=0.35,
                   mean_range=(0.4, 4.0), warmup_max=7):
    mean = float(rng.uniform(*mean_range))
    trace = synth_trace(
        int(rng.integers(1 << 30)),
        TraceModel(mean_mbps=mean, volatility=volatility, duration_s=400.0),
    )
    state = initial_state(manifest, params)
    for _ in range(int(rng.integers(0, warmup_max))):
        _, state = step(state, trace, manifest, params, int(rng.integers(manifest.n_levels)))
    return problem_from_state(state, trace, manifest, params, horizon)


class TestSolveFixedThroughput:
    def test_single_chunk_reduction(self):
        # huge throughput and buffer: picks the level maximizing
        # q - alpha2 * |q - q_prev|, no rebuffer possible
        state = make_state(buffer_s=50.0, last_level=1)
        problem = ExpertProblem(state, 1, Trace(((0.0, 100.0),), id="f"), MAN4, PAR4)
        levels, obj = solve_fixed_throughput(problem, [1000.0])
        want = max(
            range(4),
            key=lambda l: MAN4.levels[l] - PAR4.alpha2 * abs(MAN4.levels[l] - MAN4.levels[1]),
        )
        assert levels == (want,)

    def test_two_chunk_hand_instance(self):
        # two levels {2, 1} Mbps, CBR with 1 s chunks, cbar = 1, buffer 2 s,
        # previous level 1: staying low wins with objective 2.0
        manifest = cbr_manifest((2.0, 1.0), 1.0, 4)
        params = QoEParams(alpha1=4.3, alpha2=1.0, buffer_cap_s=60.0, rtt_s=0.0)
        state = make_state(buffer_s=2.0, last_level=0, chunk_count=4)
        problem = ExpertProblem(state, 2, Trace(((0.0, 1.0),), id="c"), manifest, params)
        levels, obj = solve_fixed_throughput(problem, [1.0, 1.0])
        assert levels == (0, 0)
        assert obj == pytest.approx(2.0, abs=1e-12)

    def test_penalties_off_all_top(self):
        params = QoEParams(alpha1=0.0, alpha2=0.0, buffer_cap_s=60.0, rtt_s=0.0)
        state = make_state()
        problem = ExpertProblem(state, 6, Trace(((0.0, 1.0),), id="c"), MAN4, params)
        levels, _ = solve_fixed_throughput(problem, [0.2] * 6)
        assert levels == (3, 3, 3, 3, 3, 3)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            problem = random_problem(rng, horizon=int(rng.integers(2, 8)))
            cbar = [float(rng.uniform(0.2, 5.0)) for _ in range(problem.horizon)]
            seq, val = solve_fixed_throughput(problem, cbar)
            oracle_seq, oracle_val = brute_force_fixed(problem, cbar)
            assert val == pytest.approx(oracle_val, abs=1e-9)
            assert seq == oracle_seq

    def test_invalid_cbar(self):
        problem = ExpertProblem(make_state(), 2, Trace(((0.0, 1.0),), id="c"), MAN4, PAR4)
        with pytest.raises(DomainError):
            solve_fixed_throughput(problem, [1.0])
        with pytest.raises(DomainError):
            solve_fixed_throughput(problem, [1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_non_positive_cbar(self, bad):
        problem = ExpertProblem(make_state(), 3, Trace(((0.0, 1.0),), id="c"), MAN4, PAR4)
        with pytest.raises(DomainError):
            solve_fixed_throughput(problem, [bad] * 3)
        with pytest.raises(DomainError):
            solve_fixed_throughput(problem, [1.0, bad, 1.0])


class TestEstimateChunkThroughput:
    """AO's throughput estimate: the per-chunk averages of a replay."""

    def test_constant_trace_any_levels(self):
        trace = Trace(((0.0, 3.0),), id="c3")
        params = QoEParams(alpha1=1.0, alpha2=1.0, buffer_cap_s=60.0, rtt_s=0.0)
        problem = ExpertProblem(make_state(), 4, trace, MAN4, params)
        for levels in ([0, 1, 2, 3], [3, 3, 3, 3], [2, 0, 2, 0]):
            cbar = expert._replay(problem, levels)["cbar"]
            assert list(cbar) == pytest.approx([3.0] * 4, rel=1e-12)

    def test_two_phase_trace_fine_step_oracle(self):
        trace = Trace(((0.0, 2.0), (1.0, 1.0)), id="p", duration=1e6)
        manifest = cbr_manifest((4.0, 1.0), 1.0, 4)  # 4 Mb top chunks
        params = QoEParams(alpha1=1.0, alpha2=1.0, buffer_cap_s=60.0, rtt_s=0.0)
        problem = ExpertProblem(make_state(chunk_count=4), 1, trace, manifest, params)
        cbar = expert._replay(problem, [1])["cbar"]
        tau = transfer_time(trace, 0.0, 4.0, 0.0)  # checked against the
        assert tau == pytest.approx(3.0)  # fine-step oracle in test_trace
        assert cbar[0] == pytest.approx(4.0 / tau)

    def test_rtt_excluded_from_average(self):
        trace = Trace(((0.0, 1.0),), id="c1")
        manifest = cbr_manifest((1.0, 0.5), 1.0, 4)
        params = QoEParams(alpha1=1.0, alpha2=1.0, buffer_cap_s=60.0, rtt_s=0.1)
        problem = ExpertProblem(make_state(chunk_count=4), 1, trace, manifest, params)
        cbar = expert._replay(problem, [1])["cbar"]  # 1 Mb chunk
        assert cbar[0] == pytest.approx(1.0, rel=1e-12)


class TestReplayIsTheSimulator:
    def test_score_equals_the_step_reward_sum(self):
        # the replay sums the simulator's own chunk rewards in chunk order,
        # so it agrees with a session stepped along the same levels to the bit
        rng = np.random.default_rng(59)
        for (manifest, params), mean_range in (
            (preset("pensieve"), (0.4, 4.0)), (preset("a2br-5g"), (15.0, 150.0))
        ):
            for _ in range(150):
                problem = random_problem(rng, manifest, params, horizon=int(rng.integers(1, 6)),
                                         volatility=0.3, mean_range=mean_range)
                levels = [int(x) for x in rng.integers(manifest.n_levels, size=problem.horizon)]
                state, total = problem.state, 0.0
                for lvl in levels:
                    outcome, state = step(state, problem.trace, manifest, params, lvl)
                    total += outcome.reward
                assert score_on_trace(problem, levels) == total

    @pytest.mark.parametrize("levels", [
        [0] * 5, [0], [], [0, 0], [0, 0, 0, 0],  # a sequence of another length
        [0, 0, 6], [0, -1, 0],  # a level off the six-level ladder
    ])
    def test_refuses_all_but_horizon_levels_on_the_ladder(self, levels):
        manifest, params = preset("pensieve")
        problem = problem_from_state(initial_state(manifest, params),
                                     Trace(((0.0, 2.0),), id="c"), manifest, params, 3)
        with pytest.raises(DomainError, match=r"3 levels in \[0, 6\)"):
            score_on_trace(problem, levels)


class TestSolveExpertAo:
    def test_constant_trace_exact_and_fast(self):
        rng = np.random.default_rng(31)
        params = QoEParams(alpha1=1.85, alpha2=1.0, buffer_cap_s=60.0, rtt_s=0.0)
        for _ in range(30):
            c = float(rng.uniform(0.3, 5.0))
            trace = Trace(((0.0, c),), id="c")
            state = initial_state(MAN4, params)
            for _ in range(int(rng.integers(0, 5))):
                _, state = step(state, trace, MAN4, params, int(rng.integers(4)))
            problem = problem_from_state(state, trace, MAN4, params, 6)
            ao = solve_expert_ao(problem)
            enum = solve_expert_enum(problem)
            assert ao.objective == enum.objective
            assert ao.levels == enum.levels
            assert ao.iterations <= 2
            assert ao.converged

    def test_horizon_one_equals_level_scan(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            problem = random_problem(rng, horizon=1, volatility=0.25)
            ao = solve_expert_ao(problem)
            best = max(
                range(MAN4.n_levels), key=lambda l: score_on_trace(problem, [l])
            )
            assert ao.objective == pytest.approx(
                score_on_trace(problem, [best]), abs=1e-12
            )

    def test_objective_is_true_trace_replay(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            problem = random_problem(rng)
            ao = solve_expert_ao(problem)
            assert ao.objective == pytest.approx(
                score_on_trace(problem, ao.levels), abs=1e-6
            )
            check_feasible(problem, ao)

    def test_dominates_fixed_level_sequences(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            problem = random_problem(rng)
            ao = solve_expert_ao(problem)
            for lvl in range(MAN4.n_levels):
                fixed = score_on_trace(problem, [lvl] * problem.horizon)
                assert ao.objective >= fixed - 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(47)
        problem = random_problem(rng)
        a = solve_expert_ao(problem)
        b = solve_expert_ao(problem)
        assert a == b

    def test_matches_reference_without_cycle_stop(self):
        rng = np.random.default_rng(53)
        # the four-level ladder, then both presets with their own RTTs
        inputs = [(MAN4, PAR4, (0.4, 4.0), 12)]
        inputs += [(*preset("pensieve"), (0.4, 4.0), 8), (*preset("a2br-5g"), (15.0, 150.0), 8)]
        stops = []
        for manifest, params, mean_range, count in inputs:
            for horizon in range(4, 9):
                for _ in range(count):
                    problem = random_problem(rng, manifest, params, horizon=horizon,
                                             volatility=0.3, mean_range=mean_range)
                    stops.append(self._check_against_reference(problem))
        assert "cycle" in stops

    @staticmethod
    def _check_against_reference(problem):
        ao = solve_expert_ao(problem)
        levels, objective, iterations = ao_reference(problem)
        assert (ao.levels, ao.objective) == (levels, objective)
        assert ao.iterations <= iterations
        assert (ao.stop == "cap") == (ao.iterations == AO_MAX_ITERATIONS)
        assert ao.converged == (ao.stop == "converged")
        return ao.stop

    def test_a_repeated_iterate_converges_without_its_replay(self, monkeypatch):
        replays = []
        replay = expert._replay

        def counted(problem, levels):
            replays.append(tuple(levels))
            return replay(problem, levels)

        rng = np.random.default_rng(59)
        repeats = 0
        for name, mean_range in (("pensieve", (0.4, 4.0)), ("a2br-5g", (15.0, 150.0))):
            manifest, params = preset(name)
            for k in range(160):
                problem = random_problem(rng, manifest, params, horizon=4 + k % 5,
                                         volatility=0.3, mean_range=mean_range)
                want, want_replays, repeated = ao_replaying_every_iterate(problem)
                replays.clear()
                monkeypatch.setattr(expert, "_replay", counted)
                got = solve_expert_ao(problem)
                monkeypatch.setattr(expert, "_replay", replay)
                assert (got.levels, got.objective.hex(), got.iterations, got.stop) == want
                assert len(replays) == want_replays - repeated
                repeats += repeated
        assert repeats > 100  # most converged solves end on a repeated iterate

    def test_screen_keeps_a_tied_fixed_level(self):
        # One chunk, levels 1 and 2 Mbps, 1 s chunks, 1.5 s of buffer, RTT
        # 0.5 s on a constant 1 Mbps trace. Both AO iterates pick level 1:
        # the fixed-rate model leaves out the RTT, so it sees level 1 win by
        # about 0.5. On the trace, level 1 rebuffers 1 s and scores
        # 2 - alpha1 = 1 + 2**-40, and level 0 scores exactly 1 with no
        # rebuffering: a tie within TIE_EPS that the lexically smaller fixed
        # level wins. Its no-rebuffer bound is 1, below the best objective,
        # so a screen that skipped levels with a bound under the best
        # objective would return (1,).
        manifest = cbr_manifest((2.0, 1.0), 1.0, 4)
        params = QoEParams(alpha1=1.0 - 2.0**-40, alpha2=0.0, buffer_cap_s=60.0, rtt_s=0.5)
        state = make_state(buffer_s=1.5, history=((0.5, 4.0),), chunk_count=4)
        problem = ExpertProblem(state, 1, Trace(((0.0, 1.0),), id="c1"), manifest, params)
        assert score_on_trace(problem, (1,)) == 1.0 + 2.0**-40
        assert score_on_trace(problem, (0,)) == 1.0
        assert [solve_fixed_throughput(problem, [c])[0] for c in (4.0, 1.0)] == [(1,), (1,)]
        ao = solve_expert_ao(problem)
        assert (ao.levels, ao.objective) == ((0,), 1.0)
        assert ao_reference(problem)[:2] == (ao.levels, ao.objective)

    def test_cycle_stops_at_the_first_repeat(self, monkeypatch):
        # Scripted iterates X -> Y -> Z -> X with objectives 0, -0.6 and -1.2
        # TIE_EPS and Z < Y < X lexically: Y beats X and Z beats Y on the
        # tie rule, X beats Z strictly, so the best iterate rotates with the
        # cycle. Running on to the cap would end on Y (iteration 20); AO
        # stops at the repeat of X, which beats Z, the best before it.
        X, Y, Z = (1, 1, 0), (1, 0, 1), (0, 1, 1)
        after = {None: X, X: Y, Y: Z, Z: X}
        objective = {X: 0.0, Y: -0.6 * TIE_EPS, Z: -1.2 * TIE_EPS}
        rate = {X: 1.0, Y: 2.0, Z: 3.0}

        def replay(problem, levels):
            levels = tuple(levels)
            return {
                "cbar": (rate.get(levels, 4.0),) * 3,
                "objective": objective.get(levels, -100.0),
            }

        monkeypatch.setattr(expert, "_replay", replay)
        monkeypatch.setattr(
            expert, "solve_fixed_throughput",
            lambda problem, cbar, warm_start=None: (after[warm_start], 0.0),
        )
        problem = random_problem(np.random.default_rng(3), horizon=3)
        ao = solve_expert_ao(problem)
        assert ao_reference(problem) == (Y, objective[Y], AO_MAX_ITERATIONS)
        assert (ao.levels, ao.objective) == (X, objective[X])
        assert (ao.stop, ao.iterations) == ("cycle", 4)


class TestSolveExpertEnum:
    def test_budget_refusal(self):
        manifest, params = preset("pensieve")
        problem = ExpertProblem(
            make_state(), 20, Trace(((0.0, 1.0),), id="c"), manifest, params
        )
        with pytest.raises(BudgetError):
            solve_expert_enum(problem)

    def test_agrees_with_fixed_solver_on_constant_trace(self):
        params = QoEParams(alpha1=1.85, alpha2=1.0, buffer_cap_s=60.0, rtt_s=0.0)
        trace = Trace(((0.0, 2.0),), id="c2")
        problem = ExpertProblem(make_state(buffer_s=8.0, last_level=2), 5, trace, MAN4, params)
        enum = solve_expert_enum(problem)
        levels, val = solve_fixed_throughput(problem, [2.0] * 5)
        assert enum.levels == levels
        assert enum.objective == pytest.approx(val, abs=1e-9)

    def test_dominates_ao(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            problem = random_problem(rng)
            assert (
                solve_expert_enum(problem).objective
                >= solve_expert_ao(problem).objective - 1e-9
            )

    def test_feasibility(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            problem = random_problem(rng)
            check_feasible(problem, solve_expert_enum(problem))


class TestSolveExpertDp:
    @pytest.mark.parametrize("horizon,grid,expected", [(1, 0.01, (0,)), (2, 10.0, (0, 1))])
    def test_near_ties_follow_the_shared_rule(self, horizon, grid, expected):
        # Starting at level 1 leads by 2**-36 (about 1.5e-11, inside TIE_EPS),
        # so the lexicographically smaller sequence must win: at horizon 1 in
        # the final pick, at horizon 2 where both paths meet in one coarse
        # grid state.
        manifest = VideoManifest(
            bitrates_mbps=(2.0, 1.0),
            chunk_duration_s=4.0,
            chunk_sizes_mb=((1.5 - 2.0**-36, 0.5), (0.2, 0.1)),
        )
        params = QoEParams(alpha1=1.0, alpha2=0.0, buffer_cap_s=60.0, rtt_s=0.0)
        trace = Trace(((0.0, 1.0),), id="c")
        state = initial_state(manifest, params)
        problem = problem_from_state(state, trace, manifest, params, horizon)
        assert solve_expert_enum(problem).levels == expected
        assert solve_expert_dp(problem, buffer_grid_s=grid).levels == expected
        if horizon == 1:
            assert solve_expert_ao(problem).levels == expected

    def test_fine_grid_close_to_enum(self):
        trace = Trace(((0.0, 1.5),), id="c")
        params = QoEParams(alpha1=1.85, alpha2=1.0, buffer_cap_s=60.0, rtt_s=0.0)
        problem = ExpertProblem(make_state(buffer_s=4.0), 4, trace, MAN4, params)
        dp = solve_expert_dp(problem, buffer_grid_s=0.01)
        enum = solve_expert_enum(problem)
        assert abs(dp.objective - enum.objective) <= 0.05

    def test_single_chunk_exact_any_grid(self):
        rng = np.random.default_rng(61)
        for grid in (0.01, 1.0, 7.0):
            problem = random_problem(rng, horizon=1)
            dp = solve_expert_dp(problem, buffer_grid_s=grid)
            enum = solve_expert_enum(problem)
            assert dp.objective == pytest.approx(enum.objective, abs=1e-12)

    def test_coarser_grid_runs_faster(self):
        trace = synth_trace(71, TraceModel(mean_mbps=2.0, volatility=0.3))
        problem = ExpertProblem(make_state(), 5, trace, MAN4, PAR4)

        def best_time(grid):
            runs = []
            for _ in range(3):
                t0 = time.perf_counter()
                solve_expert_dp(problem, buffer_grid_s=grid)
                runs.append(time.perf_counter() - t0)
            return min(runs)

        assert best_time(5.0) < best_time(0.005)

    def test_a_layer_beyond_the_state_budget_is_refused(self, monkeypatch):
        # a grid this fine merges no states: chunk j's layer holds 4**j of them
        trace = synth_trace(71, TraceModel(mean_mbps=2.0, volatility=0.3))
        problem = ExpertProblem(make_state(), 3, trace, MAN4, PAR4)
        monkeypatch.setattr(expert, "DP_STATE_BUDGET", 4**3)
        assert len(solve_expert_dp(problem, buffer_grid_s=1e-6).levels) == 3
        monkeypatch.setattr(expert, "DP_STATE_BUDGET", 4**3 - 1)
        with pytest.raises(BudgetError, match="DP layer 3 exceeds the budget of 63"):
            solve_expert_dp(problem, buffer_grid_s=1e-6)

    def test_never_beats_enum(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            problem = random_problem(rng, horizon=4)
            dp = solve_expert_dp(problem, buffer_grid_s=0.1)
            enum = solve_expert_enum(problem)
            assert dp.objective <= enum.objective + 1e-9
            check_feasible(problem, dp)


class TestProblemConstruction:
    def test_horizon_truncated_at_video_end(self):
        state = make_state(next_chunk=46, chunk_count=48)
        trace = Trace(((0.0, 1.0),), id="c")
        problem = problem_from_state(state, trace, MAN4, PAR4, 8)
        assert problem.horizon == 3

    def test_invalid_horizon(self):
        trace = Trace(((0.0, 1.0),), id="c")
        with pytest.raises(DomainError):
            ExpertProblem(make_state(), 0, trace, MAN4, PAR4)
        with pytest.raises(DomainError):
            ExpertProblem(make_state(next_chunk=48), 2, trace, MAN4, PAR4)
        with pytest.raises(DomainError, match="at most"):
            ExpertProblem(make_state(), MAX_HORIZON + 1, trace, MAN4, PAR4)

    def test_max_horizon_on_one_level(self):
        # one level: a single sequence, searched one stack frame per chunk
        manifest = cbr_manifest((1.0,), 4.0, 2 * MAX_HORIZON)
        trace = synth_trace(5, TraceModel(mean_mbps=2.0, volatility=0.3, duration_s=60.0))
        state = initial_state(manifest, PAR4)
        problem = problem_from_state(state, trace, manifest, PAR4, MAX_HORIZON)
        assert problem.horizon == MAX_HORIZON
        for solve in (solve_expert_ao, solve_expert_enum):
            assert solve(problem).levels == (0,) * MAX_HORIZON
        assert solve_horizon(state, manifest, PAR4, [2.0] * MAX_HORIZON)[0] == (0,) * MAX_HORIZON


class TestObjectiveIsFinite:
    @pytest.fixture
    def overflowing(self):
        # a chunk takes longer than the empty buffer, and alpha1 * rebuffer overflows
        manifest, params = preset("pensieve", chunk_count=8)
        params = dataclasses.replace(params, alpha1=1e308)
        state = initial_state(manifest, params)
        return problem_from_state(state, Trace(((0.0, 0.68),), id="c"), manifest, params, 3)

    @pytest.mark.parametrize("solve", [
        solve_expert_ao, solve_expert_enum, lambda problem: solve_expert_dp(problem, 0.5)
    ], ids=["ao", "enum", "dp"])
    def test_every_solver_refuses_a_non_finite_objective(self, overflowing, solve):
        with pytest.raises(DomainError, match="expert objective"):
            solve(overflowing)

    @pytest.mark.parametrize("objective", [-math.inf, math.inf, math.nan])
    def test_a_solution_holds_a_finite_objective(self, objective):
        with pytest.raises(DomainError, match="not finite"):
            expert.ExpertSolution(levels=(0,), objective=objective, iterations=1, stop="converged")
