"""Buffer-based heuristic, harmonic-mean prediction, and the MPC decider."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abrbench import (
    DomainError,
    PolicyConfig,
    decide_buffer_based,
    decide_robust_mpc,
    harmonic_mean,
    make_policy,
    mpc_throughput_prediction,
    preset,
    run_session,
    synth_trace,
)
from abrbench import QoEParams, Trace, TraceModel, VideoManifest, cbr_manifest, with_vbr_sizes
from abrbench import policies
from abrbench.expert import problem_from_state, solve_fixed_throughput
from abrbench.policies import solve_horizon
from abrbench.simulator import TIE_EPS, SessionState, initial_state, step


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


def mpc_oracle(state, manifest, params, horizon, chat):
    """Exhaustive reference search over all level sequences, independent of
    the production enumeration (plain Python, lexicographic scan)."""
    n = manifest.n_levels
    best_score, best_seq = None, None
    for seq in itertools.product(range(n), repeat=horizon):
        b = state.buffer_s
        prev = None if state.last_level is None else manifest.rate_of(state.last_level)
        score = 0.0
        for j, lvl in enumerate(seq):
            size = manifest.size_mb(state.next_chunk + j, lvl)
            rate = manifest.rate_of(lvl)
            tau = size / chat
            score += rate - params.alpha1 * max(0.0, tau - b)
            if prev is not None:
                score -= params.alpha2 * abs(rate - prev)
            b = min(max(b - tau, 0.0) + manifest.chunk_duration_s, params.buffer_cap_s)
            prev = rate
        if best_score is None or score > best_score:
            best_score, best_seq = score, seq
    return best_seq[0]


def dense_mpc_reference(state, manifest, params, cfg):
    """Reference RobustMPC decision: score every level sequence at once in
    dense numpy arrays (n**horizon rows in lexicographic order) and take the
    first row within TIE_EPS of the maximum."""
    hist = [p for _, p in state.history]
    if not hist:
        return 0
    chat = mpc_throughput_prediction(hist[-cfg.history_k:])

    horizon = min(cfg.mpc_horizon, state.remaining)
    n = manifest.n_levels
    count = n**horizon
    rates = np.array(manifest.levels)
    ids = np.arange(count)
    seqs = np.empty((count, horizon), dtype=np.int64)
    for j in range(horizon):
        seqs[:, j] = (ids // n ** (horizon - 1 - j)) % n

    alpha1, alpha2 = params.alpha1, params.alpha2
    cap = state.buffer_cap_s
    L = manifest.chunk_duration_s
    buf = np.full(count, state.buffer_s)
    score = np.zeros(count)
    prev_q = (
        None
        if state.last_level is None
        else np.full(count, manifest.rate_of(state.last_level))
    )
    for j in range(horizon):
        lv = seqs[:, j]
        sizes = np.array(manifest.chunk_sizes_asc(state.next_chunk + j))[lv]
        q = rates[lv]
        tau = sizes / chat
        rebuf = np.maximum(tau - buf, 0.0)
        buf = np.minimum(np.maximum(buf - tau, 0.0) + L, cap)
        score += q - alpha1 * rebuf
        if prev_q is not None:
            score -= alpha2 * np.abs(q - prev_q)
        prev_q = q
    best = int(np.argmax(score > float(score.max()) - TIE_EPS))
    return int(seqs[best, 0])


def sequence_value(state, manifest, params, rates, levels) -> float:
    """Horizon QoE of ``levels`` when chunk ``j`` downloads at ``rates[j]``, in
    the expression shapes of ``dfs_reference``'s DFS, so the two agree to the bit."""
    qv = manifest.levels
    L = manifest.chunk_duration_s
    cap = state.buffer_cap_s
    b = state.buffer_s
    prev_q = None if state.last_level is None else manifest.rate_of(state.last_level)
    value = 0.0
    for j, lvl in enumerate(levels):
        t_dl = manifest.chunk_sizes_asc(state.next_chunk + j)[lvl] / rates[j]
        q = qv[lvl]
        value = value + q - params.alpha1 * (t_dl - b if t_dl > b else 0.0)
        if prev_q is not None:
            d = q - prev_q
            value -= params.alpha2 * (d if d >= 0.0 else -d)
        prev_q = q
        b = (b - t_dl if b > t_dl else 0.0) + L
        if b > cap:
            b = cap
    return value


def dfs_reference(
    state: SessionState,
    manifest: VideoManifest,
    params: QoEParams,
    rates,
    warm_start=None,
) -> tuple[tuple[int, ...], float]:
    """Reference horizon optimum: the branch and bound without dominance
    pruning (seed and bound prunes only, lexical DFS, shared TIE_EPS rule),
    as ``policies.solve_horizon`` ran before it kept prefix frontiers."""
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
    q_top = qv[-1]
    alpha1, alpha2 = params.alpha1, params.alpha2
    L = manifest.chunk_duration_s
    cap = state.buffer_cap_s
    b0 = state.buffer_s
    prev_q0 = None if state.last_level is None else manifest.rate_of(state.last_level)
    # download times are fixed per (chunk, level) once the rates are fixed
    tau = [[size / c for size in manifest.chunk_sizes_asc(first + j)] for j, c in enumerate(rates)]

    seed_val = -math.inf
    seeds = [(lvl,) * N for lvl in range(n)]
    if warm_start is not None:
        seeds.append(tuple(warm_start))
    for candidate in seeds:
        value = sequence_value(state, manifest, params, rates, candidate)
        if value > seed_val:
            seed_val = value

    # Seeds only prune (bounds strictly below seed value, with an ulp-scale
    # slack for rounding); the lexicographic DFS always rediscovers the
    # optimum itself, which keeps the tie rule exact.
    seed_cut = seed_val - 1e-9
    best_val = -math.inf
    best_seq: tuple[int, ...] | None = None
    seq = [0] * N

    def visit(j: int, b: float, prev_q: float | None, value: float) -> None:
        nonlocal best_val, best_seq
        tau_j = tau[j]
        last = j == N - 1
        rem = (N - j - 1) * q_top
        for lvl in range(n):
            t_dl = tau_j[lvl]
            q = qv[lvl]
            child = value + q - alpha1 * (t_dl - b if t_dl > b else 0.0)
            if prev_q is not None:
                d = q - prev_q
                child -= alpha2 * (d if d >= 0.0 else -d)
            if last:
                if child > best_val + TIE_EPS:
                    seq[j] = lvl
                    best_seq = tuple(seq)
                    best_val = child
                elif child > best_val:
                    best_val = child  # within-tie drift: keep the lex-first sequence
                continue
            bound = child + rem
            if bound < seed_cut or bound <= best_val - TIE_EPS:
                continue
            nb = (b - t_dl if b > t_dl else 0.0) + L
            if nb > cap:
                nb = cap
            seq[j] = lvl
            visit(j + 1, nb, q, child)

    visit(0, b0, prev_q0, 0.0)
    if best_seq is None or not math.isfinite(best_val):
        raise DomainError("horizon objective is not finite; check the QoE weights and the manifest")
    if best_val < seed_val - 1e-9:
        raise RuntimeError("branch and bound returned less than its seed sequences")
    return best_seq, best_val


def session_states(name, mean_mbps, trace_seeds, seed):
    """Every undecided state of random-level sessions on a preset."""
    manifest, params = preset(name)
    rng = np.random.default_rng(seed)
    states = []
    for trace_seed in trace_seeds:
        trace = synth_trace(trace_seed, TraceModel(mean_mbps=mean_mbps, volatility=0.3))
        state = initial_state(manifest, params)
        while not state.terminal:
            states.append(state)
            _, state = step(state, trace, manifest, params, int(rng.integers(manifest.n_levels)))
    return manifest, params, states


class TestHarmonicMean:
    def test_constant(self):
        assert harmonic_mean([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_two_point(self):
        assert harmonic_mean([1.0, 2.0]) == pytest.approx(4.0 / 3.0)

    def test_three_point(self):
        assert harmonic_mean([0.5, 2.0, 8.0]) == pytest.approx(3.0 / 2.625)

    def test_errors(self):
        with pytest.raises(DomainError):
            harmonic_mean([])
        with pytest.raises(DomainError):
            harmonic_mean([1.0, 0.0])

    def test_never_exceeds_arithmetic_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            xs = rng.uniform(0.01, 20.0, size=int(rng.integers(1, 9)))
            assert harmonic_mean(xs) <= np.mean(xs) + 1e-12


class TestBufferBased:
    def setup_method(self):
        self.manifest, _ = preset("pensieve")
        self.cfg = PolicyConfig(kind="buffer_based", reservoir_s=5.0, cushion_s=10.0)

    def test_empty_buffer_lowest(self):
        assert decide_buffer_based(make_state(buffer_s=0.0), self.manifest, self.cfg) == 0

    def test_full_buffer_highest(self):
        state = make_state(buffer_s=60.0)
        assert decide_buffer_based(state, self.manifest, self.cfg) == 5

    def test_interpolation_midpoint(self):
        # halfway through the cushion: target quality 2.3 -> 1.85 level
        state = make_state(buffer_s=10.0)
        level = decide_buffer_based(state, self.manifest, self.cfg)
        assert self.manifest.rate_of(level) == 1.85

    def test_reservoir_boundary(self):
        assert decide_buffer_based(make_state(buffer_s=5.0), self.manifest, self.cfg) == 0
        state = make_state(buffer_s=15.0)
        assert decide_buffer_based(state, self.manifest, self.cfg) == 5

    def test_reservoir_cushion_must_fit_cap(self):
        cfg = PolicyConfig(kind="buffer_based", reservoir_s=50.0, cushion_s=20.0)
        with pytest.raises(DomainError):
            decide_buffer_based(make_state(buffer_s=1.0), self.manifest, cfg)


class TestPrediction:
    def test_no_history_no_discount_effect(self):
        assert mpc_throughput_prediction([5.0]) == pytest.approx(5.0)

    def test_discount_uses_max_relative_error(self):
        # retrospective predictions: hm(3)=3 for actual 6 -> error 0.5
        samples = [3.0, 6.0]
        assert mpc_throughput_prediction(samples) == pytest.approx(
            harmonic_mean(samples) / 1.5
        )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=12))
    def test_equals_the_prefix_formula_to_the_bit(self, samples):
        err = 0.0
        for m in range(1, len(samples)):
            pred = harmonic_mean(samples[:m])
            err = max(err, abs(pred - samples[m]) / samples[m])
        want = harmonic_mean(samples) / (1.0 + err)
        assert mpc_throughput_prediction(samples).hex() == want.hex()

    @pytest.mark.parametrize("samples", [[], [0.0], [2.0, -1.0, 3.0], [1.0, 2.0, 0.0]])
    def test_refuses_what_the_harmonic_mean_refuses(self, samples):
        with pytest.raises(DomainError):
            mpc_throughput_prediction(samples)


class TestRobustMpc:
    def setup_method(self):
        self.manifest, self.params = preset("pensieve")

    def test_empty_history_lowest(self):
        cfg = PolicyConfig(kind="robust_mpc")
        assert decide_robust_mpc(make_state(), self.manifest, self.params, cfg) == 0

    def test_high_throughput_picks_top(self):
        cfg = PolicyConfig(kind="robust_mpc", mpc_horizon=5)
        history = tuple((1.72, 10.0) for _ in range(8))
        state = make_state(buffer_s=30.0, history=history, last_level=5)
        assert decide_robust_mpc(state, self.manifest, self.params, cfg) == 5

    def test_matches_enumeration_oracle(self):
        cfg = PolicyConfig(kind="robust_mpc", mpc_horizon=3)
        rng = np.random.default_rng(7)
        for trial in range(25):
            c = float(rng.uniform(0.3, 6.0))
            history = tuple((1.0, c) for _ in range(int(rng.integers(1, 8))))
            state = make_state(
                buffer_s=float(rng.uniform(0.0, 40.0)),
                history=history,
                last_level=int(rng.integers(0, 6)) if rng.random() < 0.8 else None,
                next_chunk=int(rng.integers(1, 40)),
            )
            got = decide_robust_mpc(state, self.manifest, self.params, cfg)
            chat = mpc_throughput_prediction([p for _, p in history])
            want = mpc_oracle(state, self.manifest, self.params, 3, chat)
            assert got == want

    def test_tie_breaks_to_lower_bitrate(self):
        # alpha weights zero and identical-cost levels cannot happen (sizes
        # differ), so craft a tie via a quality-free objective: alpha1=0,
        # alpha2=0 makes the score equal to the quality sum, maximized by the
        # top level only; instead check the documented rule on equal scores
        # via a single-level ladder where every sequence ties.
        manifest = cbr_manifest((2.0,), 4.0, 10)
        params = QoEParams(alpha1=1.0, alpha2=1.0)
        cfg = PolicyConfig(kind="robust_mpc", mpc_horizon=4)
        state = make_state(history=((1.0, 2.0),), chunk_count=10, buffer_s=10.0)
        assert decide_robust_mpc(state, manifest, params, cfg) == 0

    def test_long_horizon_memory_stays_small(self):
        # a dense n**h search would hold 6**8 x 8 int64 level sequences alone
        # (about 107 MB); the branch and bound keeps O(horizon) state
        manifest, params = preset("pensieve")
        trace = synth_trace(5, TraceModel(mean_mbps=3.0, volatility=0.3))
        state = initial_state(manifest, params)
        for level in (0, 1, 2, 3, 2, 3, 4):
            _, state = step(state, trace, manifest, params, level)
        cfg = PolicyConfig(kind="robust_mpc", mpc_horizon=8)
        tracemalloc.start()
        try:
            decide_robust_mpc(state, manifest, params, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_non_finite_objective_rejected(self):
        # NaN weights make every horizon score NaN; no sequence may be chosen.
        # QoEParams refuses NaN itself, so set it past the validator to reach
        # the solver's own guard.
        params = QoEParams(alpha1=1.0, alpha2=1.0)
        object.__setattr__(params, "alpha1", float("nan"))
        cfg = PolicyConfig(kind="robust_mpc", mpc_horizon=3)
        state = make_state(history=((1.0, 2.0),), last_level=2, buffer_s=8.0)
        with pytest.raises(DomainError):
            decide_robust_mpc(state, self.manifest, params, cfg)

    def test_horizon_truncated_near_video_end(self):
        cfg = PolicyConfig(kind="robust_mpc", mpc_horizon=5)
        state = make_state(next_chunk=47, history=((1.0, 2.0),), chunk_count=48)
        level = decide_robust_mpc(state, self.manifest, self.params, cfg)
        assert 0 <= level < 6

    def test_rescaling_invariance_of_argmax(self):
        # scaling all qualities and penalty weights together preserves the argmax
        cfg = PolicyConfig(kind="robust_mpc", mpc_horizon=3)
        base_man = cbr_manifest((4.0, 2.0, 1.0), 2.0, 20)
        base_par = QoEParams(alpha1=3.0, alpha2=1.0)
        # quality scales with the ladder, so alpha1 (per second of rebuffer)
        # must scale too while the dimensionless alpha2 stays put
        scaled_man = cbr_manifest((40.0, 20.0, 10.0), 2.0, 20)
        scaled_par = QoEParams(alpha1=30.0, alpha2=1.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = float(rng.uniform(0.5, 6.0))
            hist = tuple((1.0, c) for _ in range(4))
            state = make_state(buffer_s=float(rng.uniform(0, 30)), history=hist, chunk_count=20)
            small = decide_robust_mpc(state, base_man, base_par, cfg)
            hist10 = tuple((1.0, 10.0 * c) for _ in range(4))
            state10 = make_state(
                buffer_s=state.buffer_s, history=hist10, chunk_count=20
            )
            big = decide_robust_mpc(state10, scaled_man, scaled_par, cfg)
            assert small == big

    def test_matches_expert_given_same_constant_throughput(self):
        # full-horizon MPC on a constant trace equal to its own prediction
        # reproduces the fixed-throughput expert's sequence choice
        manifest, params = preset("pensieve", chunk_count=5)
        params = QoEParams(alpha1=params.alpha1, alpha2=params.alpha2,
                           buffer_cap_s=params.buffer_cap_s, rtt_s=0.0)
        rng = np.random.default_rng(11)
        for trial in range(10):
            c = float(rng.uniform(0.4, 8.0))
            trace = Trace(((0.0, c),), id="c")
            state = make_state(chunk_count=5, history=((1.0, c),) * 3,
                               buffer_s=float(rng.uniform(0.0, 20.0)))
            cfg = PolicyConfig(kind="robust_mpc", mpc_horizon=5)
            mpc_level = decide_robust_mpc(state, manifest, params, cfg)
            problem = problem_from_state(state, trace, manifest, params, 5)
            levels, _ = solve_fixed_throughput(problem, [c] * 5)
            assert mpc_level == levels[0]


# (margin by which the level-1-first sequence leads, expected first level)
TIE_CASES = [
    (0.0, 0),  # exact tie: the lower first level wins
    (2.0**-36, 0),  # ahead by 1.5e-11 < TIE_EPS: still a tie
    (-(2.0**-36), 0),  # behind inside the margin
    (2.0**-30, 1),  # ahead by 9.3e-10 > TIE_EPS: a strict win
]


class TestRobustMpcReference:
    """RobustMPC against the dense reference, including constructed ties."""

    @pytest.mark.parametrize("horizon", [1, 3, 5])
    @pytest.mark.parametrize("name,mean_mbps", [("pensieve", 3.0), ("a2br-5g", 100.0)])
    def test_matches_dense_reference_on_sessions(self, name, mean_mbps, horizon):
        manifest, params, states = session_states(name, mean_mbps, (21, 22), seed=horizon)
        cfg = PolicyConfig(kind="robust_mpc", mpc_horizon=horizon)
        for state in states:
            want = dense_mpc_reference(state, manifest, params, cfg)
            assert decide_robust_mpc(state, manifest, params, cfg) == want

    @staticmethod
    def tie_instance(delta):
        """Two chunks, ladder (1, 2) Mbps, throughput prediction 8 Mbps, empty
        buffer, alpha1 = 2, alpha2 = 0. Level 1 first costs its whole download
        as rebuffer, level 0 first half as much, and either way chunk 2 fits
        in the refilled buffer. So (0, 1) scores exactly 2 and (1, 1) scores
        2 + delta: chunk 1's level-1 size is 8 - 4 * delta. Every quantity is
        dyadic, so both scores are exact in floating point."""
        manifest = VideoManifest(
            bitrates_mbps=(2.0, 1.0),
            chunk_duration_s=4.0,
            chunk_sizes_mb=((8.0 - 4.0 * delta, 4.0), (8.0, 4.0)),
        )
        params = QoEParams(alpha1=2.0, alpha2=0.0)
        state = make_state(history=((1.0, 8.0),), chunk_count=2)
        return state, manifest, params

    @pytest.mark.parametrize("delta,want", TIE_CASES)
    def test_constructed_ties(self, delta, want):
        state, manifest, params = self.tie_instance(delta)
        cfg = PolicyConfig(kind="robust_mpc", mpc_horizon=2)
        assert dense_mpc_reference(state, manifest, params, cfg) == want
        assert decide_robust_mpc(state, manifest, params, cfg) == want

    @pytest.mark.parametrize("delta,want", TIE_CASES)
    def test_constructed_ties_with_switch_penalty(self, delta, want):
        # three chunks after a level-1 chunk, alpha1 = alpha2 = 1: (0, 1, 1)
        # pays two switches and scores exactly 2.5; (1, 1, 1) pays 3.5 s of
        # rebuffer on chunk 1 (28 Mb at 8 Mbps) and scores 2.5 + delta when
        # that chunk is 28 - 8 * delta Mb
        manifest = VideoManifest(
            bitrates_mbps=(2.0, 1.0),
            chunk_duration_s=4.0,
            chunk_sizes_mb=((28.0 - 8.0 * delta, 4.0), (8.0, 4.0), (8.0, 4.0)),
        )
        params = QoEParams(alpha1=1.0, alpha2=1.0)
        state = make_state(history=((1.0, 8.0),), chunk_count=3, last_level=1)
        cfg = PolicyConfig(kind="robust_mpc", mpc_horizon=3)
        assert dense_mpc_reference(state, manifest, params, cfg) == want
        assert decide_robust_mpc(state, manifest, params, cfg) == want


class TestSolveHorizonReference:
    """The dominance-pruned branch and bound against the archive-free DFS."""

    @pytest.mark.parametrize("horizon", range(1, 9))
    @pytest.mark.parametrize("name,mean_mbps", [("pensieve", 3.0), ("a2br-5g", 100.0)])
    def test_matches_reference_on_mpc_states(self, name, mean_mbps, horizon):
        manifest, params, states = session_states(name, mean_mbps, (23, 24), seed=horizon)
        for state in states:
            hist = [p for _, p in state.history]
            if not hist:
                continue
            chat = mpc_throughput_prediction(hist[-8:])
            rates = [chat] * min(horizon, state.remaining)
            want = dfs_reference(state, manifest, params, rates)
            assert solve_horizon(state, manifest, params, rates) == want

    @pytest.mark.parametrize("name,scale", [("a2br-5g", 4.0), ("pensieve", 0.05)])
    def test_matches_reference_with_shared_buffers(self, name, scale):
        # a2br-5g at four times its top bitrate pins the buffer at the cap;
        # pensieve at a twentieth of its lowest bitrate rebuffers on every
        # chunk, so every prefix ends at one chunk duration of buffer
        manifest, params = preset(name)
        rng = np.random.default_rng(17)
        top = manifest.levels[-1] if scale > 1.0 else manifest.levels[0]
        for _ in range(30):
            horizon = int(rng.integers(3, 7))
            state = make_state(
                next_chunk=int(rng.integers(1, manifest.chunk_count - horizon + 2)),
                buffer_s=params.buffer_cap_s if scale > 1.0 else manifest.chunk_duration_s,
                last_level=int(rng.integers(manifest.n_levels)),
                chunk_count=manifest.chunk_count,
                buffer_cap_s=params.buffer_cap_s,
            )
            rates = [top * scale * float(rng.uniform(0.8, 1.25)) for _ in range(horizon)]
            warm = tuple(int(x) for x in rng.integers(manifest.n_levels, size=horizon))
            for warm_start in (None, warm):
                want = dfs_reference(state, manifest, params, rates, warm_start)
                assert solve_horizon(state, manifest, params, rates, warm_start) == want

    @pytest.mark.parametrize("alpha2", [0.0, 0.3, 2.5, 10.0, 300.0])
    @pytest.mark.parametrize("name", ["pensieve", "a2br-5g"])
    def test_matches_reference_across_switch_weights(self, name, alpha2):
        # both presets weigh switches by 1, so only other weights show a bound that
        # charges a climb the wrong multiple of alpha2; a climb pays while alpha2 is
        # below the chunks left, and never at 10 or 300 within seven chunks
        base, preset_params = preset(name)
        manifest = with_vbr_sizes(base, seed=int(alpha2 * 10) + 1)
        params = QoEParams(alpha1=preset_params.alpha1, alpha2=alpha2)
        rng = np.random.default_rng(int(alpha2 * 10) + 2)
        levels = manifest.levels
        for horizon in range(1, 8):
            for _ in range(10):
                last = int(rng.integers(-1, manifest.n_levels))
                state = make_state(
                    next_chunk=int(rng.integers(1, manifest.chunk_count - horizon + 2)),
                    buffer_s=float(rng.uniform(0.0, params.buffer_cap_s)),
                    last_level=None if last < 0 else last,
                    chunk_count=manifest.chunk_count,
                    buffer_cap_s=params.buffer_cap_s,
                )
                rates = [levels[int(rng.integers(manifest.n_levels))] * float(rng.uniform(0.5, 2.0))
                         for _ in range(horizon)]
                warm = tuple(int(x) for x in rng.integers(manifest.n_levels, size=horizon))
                for warm_start in (None, warm):
                    want = dfs_reference(state, manifest, params, rates, warm_start)
                    assert solve_horizon(state, manifest, params, rates, warm_start) == want

    @pytest.mark.parametrize("cap_over_L", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("sizes", ["cbr-constant-rate", "vbr-varying-rates"])
    def test_matches_reference_under_the_rebuffering_budget(self, cap_over_L, sizes):
        # the rebuffering budget applies where the largest quality per download second of
        # the chunks left, rho, is below alpha1: alpha1 at 0, one ulp either side of the
        # root's rho and at random, with buffers empty, random and full
        rng = np.random.default_rng(int(cap_over_L * 10) + len(sizes))
        for buffer, alpha_kind, _ in itertools.product(
                ("empty", "random", "full"), ("zero", "below", "above", "random"), range(3)):
            n = int(rng.integers(2, 6))
            L = float(rng.choice([1.0, 2.0, 4.0]))
            ladder = sorted(rng.uniform(0.2, 5.0, size=n), reverse=True)
            manifest = cbr_manifest(ladder, L, 12)
            if sizes.startswith("vbr"):
                manifest = with_vbr_sizes(manifest, seed=int(rng.integers(1000)), spread=0.5)
            horizon = int(rng.integers(2, 8))
            mean = float(rng.uniform(ladder[-1], ladder[0]))
            if sizes.startswith("cbr"):
                rates = [mean] * horizon
            else:
                rates = [mean * float(rng.uniform(0.3, 2.0)) for _ in range(horizon)]
            first = int(rng.integers(1, 12 - horizon + 2))
            rho = max(q * c / size for j, c in enumerate(rates) if j >= 1
                      for q, size in zip(manifest.levels, manifest.chunk_sizes_asc(first + j)))
            alpha1 = {"zero": 0.0, "below": math.nextafter(rho, 0.0),
                      "above": math.nextafter(rho, math.inf),
                      "random": float(rng.uniform(0.0, 3.0 * rho))}[alpha_kind]
            params = QoEParams(alpha1=alpha1, alpha2=float(rng.choice([0.0, 0.5, 1.0])))
            cap = cap_over_L * L
            last = int(rng.integers(-1, n))
            state = make_state(
                next_chunk=first,
                buffer_s={"empty": 0.0, "random": float(rng.uniform(0.0, cap)), "full": cap}[buffer],
                last_level=None if last < 0 else last,
                chunk_count=12,
                buffer_cap_s=cap,
            )
            warm = tuple(int(x) for x in rng.integers(n, size=horizon))
            for warm_start in (None, warm):
                want = dfs_reference(state, manifest, params, rates, warm_start)
                assert solve_horizon(state, manifest, params, rates, warm_start) == want

    def test_rebuffering_budget_attained_exactly(self):
        # ladder (1, 2, 4) Mbps, 1 s chunks, 2 Mbps, 1 s of buffer, cap 4 s, alpha1 = 4,
        # alpha2 = 1: every level downloads at rho = 2 quality per second, below alpha1.
        # Level 1 throughout keeps 1 s of buffer and scores 6, the budget of the root,
        # rho * (1 + 3*1 - 1); at level 1, (1,) and (1, 1) meet their budget bound exactly
        # (2 + 2*2 and 4 + 2*1), so a margin of the wrong sign prunes the optimum.
        # (0, 0, 2) also fits 3 s of downloads without rebuffering but pays a switch of 3.
        # Every quantity is dyadic.
        manifest = cbr_manifest((4.0, 2.0, 1.0), 1.0, 3)
        params = QoEParams(alpha1=4.0, alpha2=1.0, buffer_cap_s=4.0)
        state = make_state(buffer_s=1.0, chunk_count=3, buffer_cap_s=4.0)
        rates = [2.0] * 3
        got = solve_horizon(state, manifest, params, rates)
        assert got == ((1, 1, 1), 6.0)
        assert got == dfs_reference(state, manifest, params, rates)

    @pytest.mark.parametrize("size_mb", [1e-20, 1e-10, 1.0])
    def test_download_times_that_underflow(self, size_mb):
        # at 1e308 Mbps a 1e-20 Mb chunk downloads in 0 s and a 1e-10 or 1 Mb chunk in a
        # subnormal time: the quality per download second is infinite or overflows
        ladder = (2.0 * size_mb, size_mb)
        manifest = cbr_manifest(ladder, 1.0, 6)
        params = QoEParams(alpha1=4.3, alpha2=1.0)
        for buffer_s in (0.0, 2.5):
            state = make_state(buffer_s=buffer_s, chunk_count=6, last_level=0)
            for rates in ([1e308] * 4, [1e308, 1.0, 1e308, 2.0]):
                got = solve_horizon(state, manifest, params, rates)
                assert got == dfs_reference(state, manifest, params, rates)

    @pytest.mark.parametrize("delta,want", TIE_CASES)
    def test_constructed_ties_between_dominance_candidates(self, delta, want):
        # ladder (1, 2) Mbps, 8 Mbps, empty buffer, alpha1 = 2, alpha2 = 0:
        # chunk 1 scores 0 at level 0 and delta at level 1 (its size is
        # 8 - 4 * delta Mb), both leave 4 s of buffer, and chunk 2 at level 1
        # downloads without rebuffer. So the prefixes (0, 1) and (1, 1) share
        # last level and buffer and differ in value by delta: at delta <= 0
        # the first one dominates the second. Every quantity is dyadic.
        manifest = VideoManifest(
            bitrates_mbps=(2.0, 1.0),
            chunk_duration_s=4.0,
            chunk_sizes_mb=((8.0 - 4.0 * delta, 4.0), (8.0, 4.0), (8.0, 4.0)),
        )
        params = QoEParams(alpha1=2.0, alpha2=0.0)
        state = make_state(chunk_count=3)
        got = solve_horizon(state, manifest, params, [8.0] * 3)
        assert got == dfs_reference(state, manifest, params, [8.0] * 3)
        assert got == ((want, 1, 1), 4.0 + max(delta, 0.0))

    @pytest.mark.parametrize("shared", ["sizes-and-rate", "sizes-not-rate", "rate-not-sizes"])
    @pytest.mark.parametrize("name", ["pensieve", "a2br-5g"])
    def test_matches_reference_on_shared_rows(self, name, shared):
        # a chunk shares the previous chunk's row only when both its sizes and its rate
        # are equal: RobustMPC's constant rate over a CBR manifest shares every row, AO's
        # per-chunk rates share the sizes but not the rate (here in runs that come back to
        # an earlier rate), and a VBR manifest at one rate shares the rate but not the sizes
        manifest, params = preset(name)
        if shared == "rate-not-sizes":
            manifest = with_vbr_sizes(manifest, seed=len(name))
        rng = np.random.default_rng(len(name) + len(shared))
        levels = manifest.levels
        for _ in range(40):
            horizon = int(rng.integers(2, 9))
            last = int(rng.integers(-1, manifest.n_levels))
            state = make_state(
                next_chunk=int(rng.integers(1, manifest.chunk_count - horizon + 2)),
                buffer_s=float(rng.uniform(0.0, params.buffer_cap_s)),
                last_level=None if last < 0 else last,
                chunk_count=manifest.chunk_count,
                buffer_cap_s=params.buffer_cap_s,
            )
            pool = [levels[int(rng.integers(manifest.n_levels))] * float(rng.uniform(0.5, 2.0))
                    for _ in range(2)]
            rates = [pool[0]] * horizon
            if shared == "sizes-not-rate":
                rates = [pool[k] for k in rng.integers(2, size=horizon)]
            warm = tuple(int(x) for x in rng.integers(manifest.n_levels, size=horizon))
            for warm_start in (None, warm):
                want = dfs_reference(state, manifest, params, rates, warm_start)
                assert solve_horizon(state, manifest, params, rates, warm_start) == want

    @pytest.mark.parametrize("rates", [[1e308] * 5, [1.0, 1.0, 1e308, 1e308, 1e308],
                                       [1e308, 1e308, 1.0, 1.0, 1.0]])
    def test_shared_rows_whose_download_times_underflow(self, rates):
        # at 1e308 Mbps a 1e-20 Mb chunk downloads in 0 s, so its quality per download
        # second is infinite; a run of such chunks shares one row, and the budget suffix
        # must read rho as infinite whether that run comes before or after finite rows
        manifest = cbr_manifest((2e-20, 1e-20), 1.0, 6)
        params = QoEParams(alpha1=4.3, alpha2=1.0)
        for buffer_s in (0.0, 2.5):
            state = make_state(buffer_s=buffer_s, chunk_count=6, last_level=0)
            for warm_start in (None, (1, 0, 1, 0, 1)):
                want = dfs_reference(state, manifest, params, rates, warm_start)
                assert solve_horizon(state, manifest, params, rates, warm_start) == want

    @staticmethod
    def screened_seeds(state, manifest, params, rates, warm_start=None):
        """The seeds ``policies._best_seed`` scores on this instance, in order, and the
        maximum it returns, with ``sequence_value`` as the replay."""
        qv = manifest.levels
        last = state.last_level
        switch = tuple(0.0 if last is None else params.alpha2 * abs(q - qv[last]) for q in qv)
        scored = []

        def evaluate(levels):
            scored.append(levels)
            return sequence_value(state, manifest, params, rates, levels)

        return scored, policies._best_seed(evaluate, qv, len(rates), switch, warm_start)

    def check_seed_screen(self, state, manifest, params, rates, warm_start, scored):
        want = dfs_reference(state, manifest, params, rates, warm_start)
        assert solve_horizon(state, manifest, params, rates, warm_start) == want
        seeds = [(lvl,) * len(rates) for lvl in range(manifest.n_levels)]
        seeds += [] if warm_start is None else [warm_start]
        # the screened maximum is the full scan's to the bit
        full = max(sequence_value(state, manifest, params, rates, seed) for seed in seeds)
        got_scored, best = self.screened_seeds(state, manifest, params, rates, warm_start)
        assert best.hex() == full.hex()
        assert got_scored == scored

    def test_seed_screen_when_the_lowest_level_is_best(self):
        # pensieve at 0.05 Mbps rebuffers at every level, the most at the top: each
        # fixed level's bound exceeds the values above it, so all six are scored, top down
        manifest, params = preset("pensieve")
        state = make_state(buffer_s=30.0)
        self.check_seed_screen(state, manifest, params, [0.05] * 6, None,
                               [(lvl,) * 6 for lvl in range(5, -1, -1)])
        assert solve_horizon(state, manifest, params, [0.05] * 6)[0] == (0,) * 6

    def test_seed_screen_when_the_top_level_is_best(self):
        # ladder (1, 3, 4) Mbps, 1 s chunks at 4 Mbps, empty buffer, no previous level:
        # the top level rebuffers 1 s once and scores 8 - alpha1, and alpha1 = 8 - X makes
        # that exactly X, the bound of level 1 (2*3 plus its margin). A bound equal to the
        # best seed cannot exceed it, so only the top level is scored.
        X = 6.0 - 0.0 + 1e-9 * (6.0 + 0.0)
        manifest = cbr_manifest((4.0, 3.0, 1.0), 1.0, 2)
        params = QoEParams(alpha1=8.0 - X, alpha2=1.0)
        state = make_state(chunk_count=2)
        self.check_seed_screen(state, manifest, params, [4.0] * 2, None, [(2, 2)])
        assert solve_horizon(state, manifest, params, [4.0] * 2) == ((2, 2), X)

    def test_seed_screen_when_the_warm_start_is_best(self):
        # ladder (1, 2, 4) Mbps, 1 s chunks at 2 Mbps, 2 s of buffer, alpha1 = 4,
        # alpha2 = 0.5: (2, 1, 1) scores 7, above every fixed level (3, 6 and 4), so once it
        # is scored only the top level's bound, 12, exceeds it
        manifest = cbr_manifest((4.0, 2.0, 1.0), 1.0, 3)
        params = QoEParams(alpha1=4.0, alpha2=0.5)
        state = make_state(buffer_s=2.0, chunk_count=3)
        self.check_seed_screen(state, manifest, params, [2.0] * 3, (2, 1, 1),
                               [(2, 1, 1), (2, 2, 2)])

    def test_seed_screen_when_a_level_meets_its_bound_exactly(self):
        # the same ladder and rate with 1 s of buffer, alpha1 = 4, alpha2 = 1: the top level
        # rebuffers 1 s per chunk and scores 0, and level 1 downloads each chunk in exactly
        # the 1 s of buffer it has, so it scores 6 = 3*2, its no-rebuffer bound, exactly
        manifest = cbr_manifest((4.0, 2.0, 1.0), 1.0, 3)
        params = QoEParams(alpha1=4.0, alpha2=1.0)
        state = make_state(buffer_s=1.0, chunk_count=3)
        self.check_seed_screen(state, manifest, params, [2.0] * 3, None, [(2, 2, 2), (1, 1, 1)])
        assert sequence_value(state, manifest, params, [2.0] * 3, (1, 1, 1)) == 3 * 2.0

    def test_seed_screen_margin_covers_the_replay_rounding(self):
        # six chunks of 0.6 Mbps sum to 3.6 left to right, one ulp above 6*0.6; after a
        # 0.6 Mbps chunk, alpha2 = 6 makes the top level (1.5 Mbps, one switch) score 6*0.6
        # exactly. Without the margin, level 1's bound would tie that and skip the best seed.
        manifest = cbr_manifest((1.5, 0.6, 0.25), 1.0, 6)
        params = QoEParams(alpha1=1.0, alpha2=6.0)
        state = make_state(buffer_s=30.0, chunk_count=6, last_level=1)
        rates = [100.0] * 6
        assert sequence_value(state, manifest, params, rates, (2,) * 6) == 6 * 0.6
        assert sequence_value(state, manifest, params, rates, (1,) * 6) > 6 * 0.6
        self.check_seed_screen(state, manifest, params, rates, None, [(2,) * 6, (1,) * 6])


class TestWarmStart:
    """``solve_horizon`` refuses a warm start that is not one level per chunk on the ladder."""

    # pensieve at 30 s of buffer and 0.05 Mbps: every level rebuffers, and the optimum
    # is the lowest level throughout, about -402.4
    @pytest.mark.parametrize("warm_start", [(), (0,), (0,) * 5, (0,) * 7, (6,) * 6,
                                            (0, 0, 0, -1, 0, 0), (0, 0, 0, 0, 0, 99)])
    def test_a_malformed_warm_start_is_refused(self, warm_start):
        manifest, params = preset("pensieve")
        state = make_state(buffer_s=30.0)
        rates = [0.05] * 6
        levels, value = solve_horizon(state, manifest, params, rates, (0,) * 6)
        assert levels == (0,) * 6 and value == pytest.approx(-402.4)
        with pytest.raises(DomainError, match="warm start"):
            solve_horizon(state, manifest, params, rates, warm_start)
        problem = problem_from_state(state, Trace(((0.0, 0.05),), id="c"), manifest, params, 6)
        with pytest.raises(DomainError, match="warm start"):
            solve_fixed_throughput(problem, rates, warm_start)


class TestDominancePremise:
    """Dominance pruning rests on the float chunk rule being monotone in the buffer. On a
    one-level ladder ``solve_horizon``'s value is that rule's alone, so more buffer, at 0
    and at the cap included, must never lower it."""

    buffer_share = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        rates=st.integers(1, 3).flatmap(
            lambda n: st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)),
        bitrate=st.floats(1e-2, 200.0),
        alpha1=st.one_of(st.just(0.0), st.floats(0.0, 500.0)),
        chunk_s=st.floats(0.1, 20.0),
        cap=st.floats(0.1, 120.0),
        shares=st.tuples(buffer_share, buffer_share),
        started=st.booleans(),
    )
    def test_more_buffer_never_lowers_the_value(self, rates, bitrate, alpha1, chunk_s, cap,
                                                shares, started):
        manifest = cbr_manifest([bitrate], chunk_s, len(rates))
        params = QoEParams(alpha1=alpha1, alpha2=1.0, buffer_cap_s=cap)

        def value(buffer_s):
            state = make_state(buffer_s=buffer_s, buffer_cap_s=cap, chunk_count=len(rates),
                               last_level=0 if started else None)
            levels, objective = solve_horizon(state, manifest, params, rates)
            assert levels == (0,) * len(rates)
            return objective

        assert value(max(shares) * cap) >= value(min(shares) * cap)


class TestMakePolicy:
    def test_fixed_policy(self):
        manifest, params = preset("pensieve")
        pid, policy = make_policy(PolicyConfig(kind="fixed", fixed_level=3), manifest, params)
        assert pid == "fixed:3"
        assert policy(make_state(), None) == 3

    def test_fixed_level_validated(self):
        manifest, params = preset("pensieve")
        with pytest.raises(DomainError):
            make_policy(PolicyConfig(kind="fixed", fixed_level=6), manifest, params)

    def test_random_policy_seeded(self):
        manifest, params = preset("pensieve")
        trace = synth_trace(3, TraceModel(mean_mbps=2.0, volatility=0.3))

        def roll():
            pid, policy = make_policy(PolicyConfig(kind="random", seed=9), manifest, params)
            return run_session(policy, trace, manifest, params, policy_id=pid)

        assert roll() == roll()

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            PolicyConfig(kind="oracle")

    def test_history_length_and_seed_bounded(self):
        assert PolicyConfig(history_k=policies.MAX_HISTORY_K).history_k == policies.MAX_HISTORY_K
        for bad in (0, policies.MAX_HISTORY_K + 1):
            with pytest.raises(DomainError, match="history length"):
                PolicyConfig(history_k=bad)
        with pytest.raises(DomainError, match="seed"):
            PolicyConfig(kind="random", seed=-1)

    def test_mpc_horizon_bounded(self):
        assert PolicyConfig(mpc_horizon=policies.MAX_HORIZON).mpc_horizon == policies.MAX_HORIZON
        for bad in (0, policies.MAX_HORIZON + 1):
            with pytest.raises(DomainError, match="mpc horizon"):
                PolicyConfig(mpc_horizon=bad)
