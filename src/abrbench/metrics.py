"""QoE metrics over sessions: decomposition, aggregation, trace-wise ranking."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import DomainError, UsageError
from .simulator import SessionLog

# Placement points for ranks 1..6 (Formula-One style scheme).
RANK_POINTS = (25, 18, 15, 12, 10, 8)

REPORT_HEADER = "policy,avg_qoe,avg_bitrate_utility,avg_rebuffer_penalty,avg_switch_penalty,avg_rank,points"
PLOT_HEADER = "trace_id,policy,qoe"


@dataclass(frozen=True)
class QoEComponents:
    """One session's ids and the sums of its step components; ``total`` is the
    session's ``total_qoe`` (its step rewards summed in chunk order)."""

    trace_id: str
    policy_id: str
    seed: int
    utility: float
    rebuffer_penalty: float
    switch_penalty: float
    total: float


def session_metrics(log: SessionLog) -> QoEComponents:
    """Decompose a session log into QoE components."""
    return QoEComponents(
        trace_id=log.trace_id,
        policy_id=log.policy_id,
        seed=log.seed,
        utility=sum(s.bitrate_mbps for s in log.steps),
        rebuffer_penalty=sum(s.rebuffer_penalty for s in log.steps),
        switch_penalty=sum(s.switch_penalty for s in log.steps),
        total=log.total_qoe,
    )


def check_policy_set(policies) -> None:
    """Refuse a policy set that cannot be ranked: one with no policy, a repeated id
    or more policies than ``RANK_POINTS`` has places."""
    policies = list(policies)
    if not policies:
        raise UsageError("no policies to rank")
    repeated = sorted({p for p in policies if policies.count(p) > 1})
    if repeated:
        raise UsageError(f"policy ids must be distinct; repeated: {', '.join(repeated)}")
    if len(policies) > len(RANK_POINTS):
        raise UsageError(f"at most {len(RANK_POINTS)} policies can be ranked")


def rank_points(matrix) -> dict:
    """Trace-wise ranking statistics of a {trace_id: {policy: qoe}} matrix.

    The matrix must be a non-empty object whose rows are non-empty objects of
    finite numbers, each naming the same policies. Per trace, policies are
    ranked by QoE descending; ties share the better rank and its points.
    Returns per policy: summed points, average rank, and a rank histogram in
    percent (index 0 = rank 1).
    """
    if not isinstance(matrix, dict) or not matrix:
        raise DomainError("no QoE matrix: expected a non-empty {trace: {policy: qoe}} object")
    first = next(iter(matrix.values()))
    for trace_id, row in matrix.items():
        # JSON integers are exact and floats may be NaN or infinite; true is not a number
        if not isinstance(row, dict) or not row or not all(
                type(q) is int or isinstance(q, float) and math.isfinite(q) for q in row.values()):
            raise DomainError(f"QoE row of trace {trace_id!r} is not a non-empty object of finite numbers")
        if set(row) != set(first):
            raise DomainError(f"QoE row of trace {trace_id!r} names other policies than the first")
    policies = sorted(first)
    check_policy_set(policies)

    points = {p: 0 for p in policies}
    ranks = {p: [] for p in policies}
    for row in matrix.values():
        for p in policies:
            # competition ranking: 1 + number of strictly better policies
            rank = 1 + sum(1 for other in policies if row[other] > row[p])
            ranks[p].append(rank)
            points[p] += RANK_POINTS[rank - 1]

    n_traces = len(matrix)
    result = {}
    for p in policies:
        histogram = [0.0] * len(policies)
        for r in ranks[p]:
            histogram[r - 1] += 100.0 / n_traces
        result[p] = {
            "points": points[p],
            "avg_rank": sum(ranks[p]) / n_traces,
            "rank_histogram_pct": histogram,
        }
    return result


def compare(sessions: Iterable[QoEComponents]) -> dict:
    """Aggregate sessions' QoE components, read in one pass, into a comparison report.

    Per (trace, policy) cell the QoE and components are averaged across
    seeds; per policy the report carries trace-averaged QoE and components,
    the max/min across seeds of the per-seed trace average, and the ranking
    statistics of the seed-averaged matrix. The trace-averaged QoE is clamped
    into the across-seed range, which on a complete trace-by-seed grid only
    undoes the rounding of summing in another order.
    """
    cells: dict[tuple[str, str], list[QoEComponents]] = {}
    by_policy_seed: dict[str, dict[int, list[float]]] = {}
    for comp in sessions:
        cells.setdefault((comp.trace_id, comp.policy_id), []).append(comp)
        by_policy_seed.setdefault(comp.policy_id, {}).setdefault(comp.seed, []).append(comp.total)
    if not cells:
        raise UsageError("no sessions to compare")

    matrix: dict[str, dict[str, float]] = {}
    components: dict[str, dict[str, list[float]]] = {}
    for (trace_id, policy_id), comps in sorted(cells.items()):
        mean_total = sum(c.total for c in comps) / len(comps)
        matrix.setdefault(trace_id, {})[policy_id] = mean_total
        acc = components.setdefault(
            policy_id, {"qoe": [], "utility": [], "rebuffer": [], "switch": []}
        )
        acc["qoe"].append(mean_total)
        acc["utility"].append(sum(c.utility for c in comps) / len(comps))
        acc["rebuffer"].append(sum(c.rebuffer_penalty for c in comps) / len(comps))
        acc["switch"].append(sum(c.switch_penalty for c in comps) / len(comps))

    policies = {}
    for policy_id in sorted(components):
        acc = components[policy_id]
        seed_avgs = [
            sum(values) / len(values) for values in by_policy_seed[policy_id].values()
        ]
        lo, hi = min(seed_avgs), max(seed_avgs)
        policies[policy_id] = {
            "avg_qoe": min(max(sum(acc["qoe"]) / len(acc["qoe"]), lo), hi),
            "avg_bitrate_utility": sum(acc["utility"]) / len(acc["utility"]),
            "avg_rebuffer_penalty": sum(acc["rebuffer"]) / len(acc["rebuffer"]),
            "avg_switch_penalty": sum(acc["switch"]) / len(acc["switch"]),
            "max_qoe_across_seeds": hi,
            "min_qoe_across_seeds": lo,
        }
    # finite session totals can still overflow when summed
    aggregates = [v for row in matrix.values() for v in row.values()]
    aggregates += [v for row in policies.values() for v in row.values()]
    if not all(math.isfinite(v) for v in aggregates):
        raise DomainError("an aggregate QoE is not finite; check the QoE weights")
    for policy_id, stats in rank_points(matrix).items():
        policies[policy_id].update(stats)
    return {"policies": policies, "matrix": matrix}


def report_csv(report: dict) -> str:
    """Fixed-header per-policy CSV view of a comparison report."""
    lines = [REPORT_HEADER]
    for policy_id, row in sorted(report["policies"].items()):
        lines.append(
            f"{policy_id},{row['avg_qoe']!r},{row['avg_bitrate_utility']!r},"
            f"{row['avg_rebuffer_penalty']!r},{row['avg_switch_penalty']!r},"
            f"{row['avg_rank']!r},{row['points']}"
        )
    return "\n".join(lines) + "\n"


def plot_csv(report: dict) -> str:
    """Per-trace QoE series (plot-ready) of a comparison report."""
    lines = [PLOT_HEADER]
    for trace_id in sorted(report["matrix"]):
        for policy_id in sorted(report["matrix"][trace_id]):
            lines.append(f"{trace_id},{policy_id},{report['matrix'][trace_id][policy_id]!r}")
    return "\n".join(lines) + "\n"
