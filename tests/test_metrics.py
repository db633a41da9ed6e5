"""QoE decomposition, trace-wise ranking points, and report aggregation."""

import dataclasses

import pytest

from abrbench import (
    TraceModel,
    UsageError,
    compare,
    make_policy,
    preset,
    rank_points,
    run_session,
    session_metrics,
    synth_trace,
)
from abrbench.metrics import REPORT_HEADER, PLOT_HEADER, plot_csv, report_csv
from abrbench.policies import PolicyConfig
from abrbench.simulator import SessionLog, StepOutcome


def outcome(chunk, utility, rebuffer_penalty, switch_penalty):
    reward = utility - rebuffer_penalty - switch_penalty
    return StepOutcome(
        chunk=chunk,
        level=0,
        bitrate_mbps=utility,
        download_time_s=1.0,
        rebuffer_s=rebuffer_penalty,
        sleep_s=0.0,
        throughput_mbps=1.0,
        rebuffer_penalty=rebuffer_penalty,
        switch_penalty=switch_penalty,
        reward=reward,
    )


def fake_log(trace_id, policy_id, outcomes, seed=0):
    total = sum(s.reward for s in outcomes)
    return SessionLog(
        steps=tuple(outcomes),
        total_qoe=total,
        trace_id=trace_id,
        policy_id=policy_id,
        seed=seed,
    )


class TestSessionMetrics:
    def test_two_chunk_plugin(self):
        log = fake_log("t", "p", [outcome(1, 1.0, 0.0, 0.0), outcome(2, 2.0, 0.0, 1.0)])
        comp = session_metrics(log)
        assert comp.utility == 3.0
        assert comp.switch_penalty == 1.0
        assert comp.total == 2.0

    def test_rebuffer_penalty_weighting(self):
        # adding 0.5 s of rebuffer at alpha1 = 4.3 drops the total to -0.15
        log = fake_log(
            "t", "p", [outcome(1, 1.0, 4.3 * 0.5, 0.0), outcome(2, 2.0, 0.0, 1.0)]
        )
        comp = session_metrics(log)
        assert comp.total == pytest.approx(2.0 - 2.15)

    def test_single_chunk_no_switch_sum(self):
        log = fake_log("t", "p", [outcome(1, 1.5, 0.0, 0.0)])
        assert session_metrics(log).switch_penalty == 0.0

    def test_matches_simulator_totals(self):
        manifest, params = preset("pensieve", chunk_count=12)
        trace = synth_trace(5, TraceModel(mean_mbps=2.0, volatility=0.3))
        pid, policy = make_policy(PolicyConfig(kind="buffer_based"), manifest, params)
        log = run_session(policy, trace, manifest, params, policy_id=pid)
        comp = session_metrics(log)
        assert comp.total == pytest.approx(log.total_qoe, abs=1e-9)


class TestRankPoints:
    def test_strict_order_gets_full_scheme(self):
        matrix = {"t1": {"A": 6.0, "B": 5.0, "C": 4.0, "D": 3.0, "E": 2.0, "F": 1.0}}
        ranking = rank_points(matrix)
        assert [ranking[p]["points"] for p in "ABCDEF"] == [25, 18, 15, 12, 10, 8]
        assert ranking["A"]["avg_rank"] == 1.0
        assert ranking["F"]["avg_rank"] == 6.0

    def test_all_tied_share_first(self):
        matrix = {"t1": {"A": 1.0, "B": 1.0, "C": 1.0}}
        ranking = rank_points(matrix)
        for p in "ABC":
            assert ranking[p]["points"] == 25
            assert ranking[p]["avg_rank"] == 1.0

    def test_reversed_orders_symmetric(self):
        matrix = {"t1": {"A": 2.0, "B": 1.0}, "t2": {"A": 1.0, "B": 2.0}}
        ranking = rank_points(matrix)
        assert ranking["A"]["points"] == ranking["B"]["points"] == 43
        assert ranking["A"]["avg_rank"] == ranking["B"]["avg_rank"] == 1.5

    def test_points_strictly_decrease_with_rank(self):
        matrix = {"t1": {"A": 3.0, "B": 2.0, "C": 1.0}}
        ranking = rank_points(matrix)
        points = [ranking[p]["points"] for p in "ABC"]
        assert points == sorted(points, reverse=True)
        assert len(set(points)) == 3

    def test_shift_invariance(self):
        base = {"t1": {"A": 3.0, "B": 2.0}, "t2": {"A": 0.5, "B": 0.9}}
        shifted = {t: {p: q + 100.0 for p, q in row.items()} for t, row in base.items()}
        assert rank_points(base) == rank_points(shifted)

    def test_tie_free_points_sum_constant(self):
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(20):
            matrix = {
                f"t{k}": {p: float(rng.standard_normal()) for p in "ABCD"}
                for k in range(5)
            }
            ranking = rank_points(matrix)
            assert sum(r["points"] for r in ranking.values()) == 5 * (25 + 18 + 15 + 12)

    def test_histogram_percentages(self):
        matrix = {"t1": {"A": 2.0, "B": 1.0}, "t2": {"A": 2.0, "B": 1.0}}
        ranking = rank_points(matrix)
        assert ranking["A"]["rank_histogram_pct"] == [100.0, 0.0]
        assert ranking["B"]["rank_histogram_pct"] == [0.0, 100.0]

    def test_missing_cells_rejected(self):
        with pytest.raises(UsageError):
            rank_points({"t1": {"A": 1.0, "B": 2.0}, "t2": {"A": 1.0}})

    def test_too_many_policies_rejected(self):
        row = {chr(65 + k): float(k) for k in range(7)}
        with pytest.raises(UsageError):
            rank_points({"t1": row})


class TestCompare:
    def test_single_cell_equals_session_metrics(self):
        log = fake_log("t1", "p1", [outcome(1, 1.0, 0.2, 0.0), outcome(2, 2.0, 0.0, 1.0)])
        report = compare([log])
        row = report["policies"]["p1"]
        comp = session_metrics(log)
        assert row["avg_qoe"] == pytest.approx(comp.total)
        assert row["avg_bitrate_utility"] == pytest.approx(comp.utility)
        assert row["avg_rebuffer_penalty"] == pytest.approx(comp.rebuffer_penalty)
        assert row["avg_switch_penalty"] == pytest.approx(comp.switch_penalty)
        assert row["points"] == 25
        # a simulated session whose component sums round differently from
        # its step rewards: the cell is the simulator's total to the bit
        manifest, params = preset("pensieve", chunk_count=12)
        trace = synth_trace(1, TraceModel(mean_mbps=2.0, volatility=0.3))
        pid, policy = make_policy(PolicyConfig(kind="robust_mpc"), manifest, params)
        log = run_session(policy, trace, manifest, params, policy_id=pid)
        assert compare([log])["matrix"][trace.id][pid] == log.total_qoe

    def test_seed_extremes_bracket_mean(self):
        manifest, params = preset("pensieve", chunk_count=10)
        trace = synth_trace(8, TraceModel(mean_mbps=2.0, volatility=0.3))
        random_logs = []
        for seed in range(5):
            pid, policy = make_policy(
                PolicyConfig(kind="random", seed=seed), manifest, params
            )
            random_logs.append(
                run_session(policy, trace, manifest, params, policy_id="random", seed=seed)
            )
        # one session per trace under three seed labels: the average and the
        # extremes sum the same totals in different orders
        manifest, params = preset("pensieve")
        mpc_logs = []
        for k in range(3):
            trace = synth_trace(7 + k, TraceModel(volatility=0.3, duration_s=300.0))
            _, policy = make_policy(PolicyConfig(kind="robust_mpc"), manifest, params)
            log = run_session(policy, trace, manifest, params, policy_id="robust_mpc")
            mpc_logs += [dataclasses.replace(log, seed=seed) for seed in range(3)]
        for logs in (random_logs, mpc_logs):
            (row,) = compare(logs)["policies"].values()
            assert row["min_qoe_across_seeds"] <= row["avg_qoe"] <= row["max_qoe_across_seeds"]

    def test_csv_headers_exact(self):
        log = fake_log("t1", "p1", [outcome(1, 1.0, 0.0, 0.0)])
        report = compare([log])
        assert report_csv(report).splitlines()[0] == REPORT_HEADER
        assert (
            REPORT_HEADER
            == "policy,avg_qoe,avg_bitrate_utility,avg_rebuffer_penalty,avg_switch_penalty,avg_rank,points"
        )
        assert plot_csv(report).splitlines()[0] == PLOT_HEADER == "trace_id,policy,qoe"

    def test_plot_rows_per_trace(self):
        logs = [
            fake_log("t1", "A", [outcome(1, 1.0, 0.0, 0.0)]),
            fake_log("t2", "A", [outcome(1, 2.0, 0.0, 0.0)]),
        ]
        lines = plot_csv(compare(logs)).strip().splitlines()
        assert lines[1:] == ["t1,A,1.0", "t2,A,2.0"]

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            compare([])
        with pytest.raises(UsageError):
            compare(iter([]))

    def test_one_pass_over_an_iterator(self):
        logs = [
            fake_log(trace_id, policy_id, [outcome(1, q, 0.1 * seed, 0.0)], seed=seed)
            for trace_id, q in (("t1", 1.0), ("t2", 3.0))
            for policy_id in ("A", "B")
            for seed in (0, 1)
        ]
        assert compare(iter(logs)) == compare(logs)
