"""Session engine: buffer dynamics, rewards, observations, full sessions."""

import dataclasses
import json

import numpy as np
import pytest

from abrbench import (
    DomainError,
    QoEParams,
    Trace,
    TraceModel,
    UsageError,
    VideoManifest,
    cbr_manifest,
    initial_state,
    observation_size,
    observe,
    preset,
    run_session,
    session_to_jsonl,
    step,
    synth_trace,
    transfer_time,
)
from abrbench.simulator import SessionState


def hand_session(policy_levels, trace, manifest, params):
    """Independent step-by-step oracle: replays the chunk recursion directly."""
    b, t = 0.0, 0.0
    prev_rate = None
    total = 0.0
    rebuffers, buffers = [], []
    for i, lvl in enumerate(policy_levels, start=1):
        rate = manifest.rate_of(lvl)
        size = manifest.size_mb(i, lvl)
        tau = transfer_time(trace, t, size, params.rtt_s)
        e = max(0.0, tau - b)
        b = max(0.0, b - tau) + manifest.chunk_duration_s
        sleep = max(0.0, b - params.buffer_cap_s)
        b = min(b, params.buffer_cap_s)
        t = t + tau + sleep
        reward = rate - params.alpha1 * e
        if prev_rate is not None:
            reward -= params.alpha2 * abs(rate - prev_rate)
        prev_rate = rate
        total += reward
        rebuffers.append(e)
        buffers.append(b)
    return total, rebuffers, buffers


CONST_10 = Trace(((0.0, 10.0),), id="c10")
CONST_1 = Trace(((0.0, 1.0),), id="c1")


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


class TestStep:
    def setup_method(self):
        self.manifest, self.params = preset("pensieve")

    def test_no_rebuffer_branch(self):
        # b=10, tau=4: no rebuffer, buffer refills to its prior value
        manifest = cbr_manifest((10.0, 1.0), 4.0, 4)
        params = QoEParams(alpha1=1.0, alpha2=1.0, buffer_cap_s=60.0, rtt_s=0.0)
        state = make_state(buffer_s=10.0, chunk_count=4)
        outcome, nxt = step(state, CONST_10, manifest, params, 1)  # 40 Mb at 10 Mbps
        assert outcome.download_time_s == pytest.approx(4.0)
        assert outcome.rebuffer_s == 0.0
        assert nxt.buffer_s == pytest.approx(10.0)

    def test_positive_part_branch(self):
        # b=2, tau=5  ->  e=3, b'=4
        manifest = cbr_manifest((5.0, 1.0), 4.0, 4)
        params = QoEParams(alpha1=1.0, alpha2=1.0, buffer_cap_s=60.0, rtt_s=0.0)
        state = make_state(buffer_s=2.0, chunk_count=4)
        outcome, nxt = step(state, CONST_1, manifest, params, 0)  # 4 Mb at 1 Mbps
        assert outcome.download_time_s == pytest.approx(4.0)
        assert outcome.rebuffer_s == pytest.approx(2.0)
        assert nxt.buffer_s == pytest.approx(4.0)

    def test_sleep_clamp(self):
        # b=59, tau=1 (4 Mb at 4 Mbps), L=4, B=60: pre-clamp 62 -> sleep 2 s
        manifest = cbr_manifest((10.0, 1.0), 4.0, 4)
        params = QoEParams(alpha1=1.0, alpha2=1.0, buffer_cap_s=60.0, rtt_s=0.0)
        state = make_state(buffer_s=59.0, chunk_count=4)
        outcome, nxt = step(state, Trace(((0.0, 4.0),), id="c4"), manifest, params, 0)
        assert outcome.download_time_s == pytest.approx(1.0)
        assert outcome.sleep_s == pytest.approx(2.0)
        assert nxt.buffer_s == pytest.approx(60.0)
        assert nxt.clock_s == pytest.approx(0.0 + 1.0 + 2.0)

    def test_terminal_state_rejected(self):
        state = make_state(next_chunk=49)
        with pytest.raises(UsageError):
            step(state, CONST_10, self.manifest, self.params, 0)

    def test_first_chunk_has_no_switch_penalty(self):
        state = make_state()
        outcome, _ = step(state, CONST_10, self.manifest, self.params, 3)
        assert outcome.switch_penalty == 0.0

    def test_switch_penalty_uses_last_level(self):
        state = make_state(last_level=0)
        outcome, _ = step(state, CONST_10, self.manifest, self.params, 5)
        assert outcome.switch_penalty == pytest.approx(self.params.alpha2 * (4.3 - 0.3))

    def test_measured_throughput_excludes_rtt(self):
        state = make_state()
        outcome, _ = step(state, CONST_10, self.manifest, self.params, 5)
        assert outcome.throughput_mbps == pytest.approx(10.0)

    def test_reward_recomposes_from_fields(self):
        rng = np.random.default_rng(0)
        trace = synth_trace(3, TraceModel(mean_mbps=2.0, volatility=0.4))
        state = initial_state(self.manifest, self.params)
        for _ in range(20):
            outcome, state = step(
                state, trace, self.manifest, self.params, int(rng.integers(6))
            )
            assert outcome.reward == pytest.approx(
                outcome.bitrate_mbps - outcome.rebuffer_penalty - outcome.switch_penalty
            )
            assert outcome.rebuffer_s >= 0.0 and outcome.sleep_s >= 0.0
            assert 0.0 <= state.buffer_s <= self.params.buffer_cap_s

    def test_unmeasurable_chunk_rejected(self):
        # 5e-324 Mb next to an 80 ms RTT: the data time rounds to zero
        manifest = VideoManifest(
            bitrates_mbps=(2.0, 1.0), chunk_duration_s=4.0, chunk_sizes_mb=((1e-323, 5e-324),)
        )
        params = QoEParams(alpha1=1.0, alpha2=1.0, rtt_s=0.08)
        with pytest.raises(DomainError, match="no measurable time"):
            step(initial_state(manifest, params), CONST_10, manifest, params, 0)


class TestConservation:
    def test_buffer_recursion_exact(self):
        manifest, params = preset("pensieve")
        rng = np.random.default_rng(1)
        for seed in range(5):
            trace = synth_trace(seed, TraceModel(mean_mbps=2.0, volatility=0.4))
            state = initial_state(manifest, params)
            while not state.terminal:
                before = state.buffer_s
                outcome, state = step(state, trace, manifest, params, int(rng.integers(6)))
                drained = max(0.0, before - outcome.download_time_s)
                assert state.buffer_s == pytest.approx(
                    drained + manifest.chunk_duration_s - outcome.sleep_s, abs=1e-12
                )

    def test_monotone_bandwidth_never_slower(self):
        manifest, params = preset("pensieve")
        rng = np.random.default_rng(2)
        levels = [int(rng.integers(6)) for _ in range(manifest.chunk_count)]
        trace = synth_trace(5, TraceModel(mean_mbps=1.5, volatility=0.4))
        faster = trace.scaled(1.5)

        def taus(tr):
            state = initial_state(manifest, params)
            out = []
            for lvl in levels:
                outcome, state = step(state, tr, manifest, params, lvl)
                out.append(outcome.download_time_s)
            return out

        # pointwise-faster trace cannot lengthen any single download window
        # that starts at the same clock; compare chunk 1 plus a same-clock probe
        t_slow = taus(trace)
        t_fast = taus(faster)
        assert t_fast[0] <= t_slow[0]
        for t0 in np.linspace(0.0, 200.0, 23):
            assert transfer_time(faster, float(t0), 5.0, 0.0) <= transfer_time(
                trace, float(t0), 5.0, 0.0
            )


class TestObserve:
    def test_fresh_session_layout(self):
        manifest, params = preset("pensieve")
        state = initial_state(manifest, params, history_k=8)
        obs = observe(state, manifest)
        assert obs.shape == (observation_size(manifest, 8),)
        assert np.all(obs[:16] == 0.0)  # empty history
        assert obs[16 + 6] == 0.0  # no last quality
        assert obs[16 + 6 + 1] == 0.0  # empty buffer
        assert obs[16 + 6 + 2] == 1.0  # all chunks remain
        # CBR sizes: size ratio equals rate ratio
        assert obs[16:22] == pytest.approx([r / 4.3 for r in manifest.levels])

    def test_history_ring_semantics(self):
        manifest, params = preset("pensieve")
        state = initial_state(manifest, params, history_k=4)
        for _ in range(6):
            _, state = step(state, CONST_10, manifest, params, 0)
        obs = observe(state, manifest)
        assert len(state.history) == 4
        assert obs[:4] == pytest.approx([obs[0]] * 4, rel=1e-12)  # equal throughputs

    def test_bounds_fuzz(self):
        manifest, params = preset("pensieve")
        rng = np.random.default_rng(4)
        for seed in range(30):
            trace = synth_trace(
                seed, TraceModel(mean_mbps=float(rng.uniform(0.2, 30.0)), volatility=0.5)
            )
            state = initial_state(manifest, params)
            while not state.terminal:
                obs = observe(state, manifest)
                assert np.all(np.isfinite(obs))
                assert np.all(obs >= 0.0) and np.all(obs <= 20.0)
                _, state = step(state, trace, manifest, params, int(rng.integers(6)))
            assert np.all(observe(state, manifest) <= 20.0)


class TestRunSession:
    def test_fixed_lowest_on_fast_constant_trace(self):
        # download is fast, so the only QoE loss is the chunk-1 startup
        # rebuffer of tau_1 = 1.2/10 + 0.08 = 0.2 s (charged per the reward rule)
        manifest, params = preset("pensieve")
        log = run_session(lambda s, o: 0, CONST_10, manifest, params, policy_id="fixed:0")
        expected, rebufs, _ = hand_session([0] * 48, CONST_10, manifest, params)
        assert log.total_qoe == pytest.approx(expected, abs=1e-9)
        assert log.total_qoe == pytest.approx(48 * 0.3 - 4.3 * 0.2, abs=1e-9)
        assert sum(s.rebuffer_s for s in log.steps) == pytest.approx(0.2)
        assert sum(s.switch_penalty for s in log.steps) == 0.0

    def test_fixed_highest_on_slow_trace_rebuffers_every_chunk(self):
        manifest, params = preset("pensieve")
        log = run_session(lambda s, o: 5, CONST_1, manifest, params, policy_id="fixed:5")
        # each chunk needs 17.2 s + rtt while adding only 4 s of content
        assert all(s.rebuffer_s > 0.0 for s in log.steps)
        expected, rebufs, _ = hand_session([5] * 48, CONST_1, manifest, params)
        assert log.total_qoe == pytest.approx(expected, abs=1e-9)
        assert log.steps[1].rebuffer_s == pytest.approx(17.28 - 4.0)

    def test_total_equals_sum_of_rewards(self):
        manifest, params = preset("pensieve")
        trace = synth_trace(9, TraceModel(mean_mbps=2.0, volatility=0.4))
        rng = np.random.default_rng(5)
        log = run_session(
            lambda s, o: int(rng.integers(6)), trace, manifest, params, policy_id="random"
        )
        assert log.total_qoe == pytest.approx(sum(s.reward for s in log.steps), rel=1e-12)

    def test_qoe_decomposition(self):
        manifest, params = preset("pensieve")
        trace = synth_trace(10, TraceModel(mean_mbps=2.5, volatility=0.3))
        log = run_session(lambda s, o: s.next_chunk % 6, trace, manifest, params)
        total = (
            sum(s.bitrate_mbps for s in log.steps)
            - sum(s.rebuffer_penalty for s in log.steps)
            - sum(s.switch_penalty for s in log.steps)
        )
        assert log.total_qoe == pytest.approx(total, abs=1e-9)

    def test_deterministic(self):
        manifest, params = preset("pensieve")
        trace = synth_trace(11, TraceModel(mean_mbps=2.0, volatility=0.4))
        a = run_session(lambda s, o: 2, trace, manifest, params, policy_id="fixed:2")
        b = run_session(lambda s, o: 2, trace, manifest, params, policy_id="fixed:2")
        assert session_to_jsonl(a) == session_to_jsonl(b)

    def test_overflowing_qoe_rejected(self):
        # a finite but huge rebuffer weight: the first chunk's penalty overflows
        manifest, _ = preset("pensieve", chunk_count=2)
        params = QoEParams(alpha1=1e308, alpha2=1.0, rtt_s=0.08)
        slow = Trace(((0.0, 0.5),), id="slow")
        with pytest.raises(DomainError, match="not finite"):
            run_session(lambda s, o: 5, slow, manifest, params)

    def test_start_offset_shifts_trace_window(self):
        manifest, params = preset("pensieve")
        trace = Trace(((0.0, 10.0), (30.0, 0.5)), id="drop", duration=1e6)
        fast = run_session(lambda s, o: 5, trace, manifest, params)
        slow = run_session(lambda s, o: 5, trace, manifest, params, start_offset_s=30.0)
        assert slow.total_qoe < fast.total_qoe


class TestWireFormat:
    def test_jsonl_round_trip(self):
        manifest, params = preset("pensieve")
        trace = synth_trace(12, TraceModel(mean_mbps=2.0, volatility=0.3))
        log = run_session(lambda s, o: 1, trace, manifest, params, policy_id="fixed:1", seed=7)
        lines = session_to_jsonl(log, config={"policy": "fixed:1"}).splitlines()
        for line, step_outcome in zip(lines, log.steps):
            assert json.loads(line) == {"record": "step", **dataclasses.asdict(step_outcome)}
        summary = json.loads(lines[-1])
        assert len(lines) == len(log.steps) + 1
        assert summary["total_qoe"] == log.total_qoe
        assert summary["config"] == {"policy": "fixed:1"}

    def test_summary_record_present(self):
        manifest, params = preset("pensieve")
        log = run_session(lambda s, o: 0, CONST_10, manifest, params)
        lines = session_to_jsonl(log).strip().split("\n")
        assert len(lines) == manifest.chunk_count + 1
        assert '"record": "summary"' in lines[-1]
