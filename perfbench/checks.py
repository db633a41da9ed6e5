"""Output checks, quality figures and determinism digests for each workload.

Every check returns the keys of the ops it found wrong, so a corrupted
artifact costs exactly the ops it touches: a bad label fails its state, a
missing matrix cell fails its session, an unreadable checkpoint fails the
whole training run. The reference values are recomputed through the
library's public functions from the same inputs the CLI received.

The digests cover decision outputs only: label levels and objectives (not
AO iteration counts, which a solver change may alter on purpose), the
evaluate QoE matrix, and the checkpoint bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from abrbench.expert import problem_from_state, score_on_trace
from abrbench.learner import load_checkpoint
from abrbench.metrics import PLOT_HEADER, REPORT_HEADER
from abrbench.policies import PolicyConfig, decide_robust_mpc
from abrbench.simulator import initial_state, observe, step

# A label may fall short of the best fixed-level sequence only by rounding.
OBJECTIVE_SLACK = 1e-9
HISTOGRAM_SLACK = 1e-6


@dataclass
class CheckResult:
    failed: set = field(default_factory=set)
    qoe: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def fail(self, keys, why: str) -> None:
        self.failed.update(keys)
        if len(self.problems) < 20:
            self.problems.append(why)

    def merge(self, other: "CheckResult") -> None:
        self.failed |= other.failed
        self.qoe += other.qoe
        self.problems += other.problems[: max(0, 20 - len(self.problems))]


def label_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            if rec.get("record") == "label":
                fields = (rec["chunk"], rec["expert_level"], rec["adverse_level"], rec["objective"])
                h.update(repr(fields).encode())
    return h.hexdigest()


def matrix_digest(report_paths) -> str:
    h = hashlib.sha256()
    for path in report_paths:
        h.update(json.dumps(json.loads(path.read_text())["matrix"], sort_keys=True).encode())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def all_finite(value) -> bool:
    """True when every number nested in a decoded JSON value is finite."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(all_finite(v) for v in value)
    return False


def _read_json(path: Path):
    """Decoded JSON document, or None when the file is missing or malformed."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_level(value, n_levels: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < n_levels


# -- label -------------------------------------------------------------------------


def check_labels(
    path: Path, trace, manifest, params, horizon: int, history_k: int, behaviour=None
) -> CheckResult:
    """Labels of one ``solve-expert`` trace, op key ``(trace id, chunk)``.

    The visited states are rebuilt by replaying the behaviour policy on the
    trace (``behaviour(state, observation) -> level``; RobustMPC when None).
    Each label must carry that state's observation and RobustMPC level, and
    its objective must reach the best fixed-level sequence's replayed score.
    """
    result = CheckResult()
    chunks = range(1, manifest.chunk_count + 1)
    keys = [(trace.id, c) for c in chunks]
    try:
        lines = path.read_text().splitlines()
    except OSError:
        result.fail(keys, f"{path.name}: missing")
        return result

    labels: dict[int, dict] = {}
    summaries = stray = 0
    for line in lines:
        try:
            rec = json.loads(line)
        except ValueError:
            continue  # its chunk then counts as missing
        if not isinstance(rec, dict):
            continue
        if rec.get("record") == "summary":
            summaries += 1
            if rec.get("trace_id") != trace.id:
                result.fail(keys, f"{path.name}: summary names trace {rec.get('trace_id')!r}")
        elif rec.get("record") == "label":
            chunk = rec.get("chunk")
            if not (_is_level(chunk, manifest.chunk_count + 1) and chunk >= 1):
                stray += 1
                continue
            if chunk in labels:
                result.fail([(trace.id, chunk)], f"{path.name}: chunk {chunk} labelled twice")
            labels[chunk] = rec
    if summaries != 1 or stray:
        result.fail(keys, f"{path.name}: {summaries} summary records, {stray} labels outside the video")

    mpc = PolicyConfig(kind="robust_mpc", history_k=history_k)
    n_levels = manifest.n_levels
    state = initial_state(manifest, params, history_k=history_k)
    for chunk in chunks:
        key = (trace.id, chunk)
        mpc_level = decide_robust_mpc(state, manifest, params, mpc)
        rec = labels.get(chunk)
        if rec is None:
            result.fail([key], f"{path.name}: no label for chunk {chunk}")
        else:
            why = _label_problem(rec, state, trace, manifest, params, horizon, mpc_level, n_levels)
            if why:
                result.fail([key], f"{path.name} chunk {chunk}: {why}")
            else:
                result.qoe.append(rec["objective"])
        level = mpc_level if behaviour is None else behaviour(state, observe(state, manifest))
        _outcome, state = step(state, trace, manifest, params, level)
    return result


def _label_problem(rec, state, trace, manifest, params, horizon, mpc_level, n_levels) -> str:
    if not all_finite(rec):
        return "non-finite number"
    if not (_is_level(rec.get("expert_level"), n_levels) and _is_level(rec.get("adverse_level"), n_levels)):
        return "level out of range"
    objective = rec.get("objective")
    if not _is_number(objective):
        return "objective is not a number"
    if rec.get("observation") != [float(x) for x in observe(state, manifest)]:
        return "observation differs from the replayed state"
    if rec["adverse_level"] != mpc_level:
        return "adverse level differs from RobustMPC on the replayed state"
    problem = problem_from_state(state, trace, manifest, params, horizon)
    best_fixed = max(
        score_on_trace(problem, (lvl,) * problem.horizon) for lvl in range(n_levels)
    )
    if objective < best_fixed - OBJECTIVE_SLACK:
        return f"objective {objective!r} below best fixed level {best_fixed!r}"
    return ""


# -- evaluate ------------------------------------------------------------------------


def check_evaluation(eval_dir: Path, rank_dir: Path | None, trace_ids, policy_ids) -> CheckResult:
    """One ``evaluate`` run and, when ``rank_dir`` is given, the ``rank`` run
    over its report; op key ``(trace id, policy id)``."""
    result = CheckResult()
    cells = [(t, p) for t in trace_ids for p in policy_ids]

    def policy_cells(policy):
        return [(t, policy) for t in trace_ids]

    report = _read_json(eval_dir / "report.json")
    if not isinstance(report, dict) or not isinstance(report.get("matrix"), dict):
        result.fail(cells, f"{eval_dir}: report.json unreadable or has no matrix")
        return result
    matrix = report["matrix"]
    good = {}
    for trace_id, policy in cells:
        row = matrix.get(trace_id)
        value = row.get(policy) if isinstance(row, dict) else None
        if not _is_number(value):
            result.fail([(trace_id, policy)], f"matrix cell {trace_id}/{policy} is {value!r}")
        else:
            good[(trace_id, policy)] = value
    extra = set(matrix) - set(trace_ids)
    if extra:
        result.fail(cells, f"matrix has unexpected traces {sorted(extra)[:3]}")

    policies = report.get("policies")
    for policy in policy_ids:
        row = policies.get(policy) if isinstance(policies, dict) else None
        if not isinstance(row, dict) or not all_finite(row):
            result.fail(policy_cells(policy), f"report policy row {policy} missing or non-finite")

    plot_rows = _csv_rows(eval_dir / "plot.csv", PLOT_HEADER)
    plotted = {(r[0], r[1]): r[2] for r in plot_rows if len(r) == 3}
    for cell, value in good.items():
        if plotted.get(cell) != repr(value):
            result.fail([cell], f"plot.csv row for {cell} missing or differs")
    report_rows = {r[0] for r in _csv_rows(eval_dir / "report.csv", REPORT_HEADER)}
    for policy in policy_ids:
        if policy not in report_rows:
            result.fail(policy_cells(policy), f"report.csv has no row for {policy}")

    if rank_dir is not None:
        doc = _read_json(rank_dir / "ranking.json")
        ranking = doc.get("ranking") if isinstance(doc, dict) else None
        for policy in policy_ids:
            entry = ranking.get(policy) if isinstance(ranking, dict) else None
            hist = entry.get("rank_histogram_pct") if isinstance(entry, dict) else None
            if (not isinstance(hist, list) or not all(_is_number(h) for h in hist)
                    or abs(sum(hist) - 100.0) > HISTOGRAM_SLACK):
                result.fail(policy_cells(policy), f"ranking histogram of {policy} is {hist!r}")

    result.qoe = [good[c] for c in cells if c in good and c not in result.failed]
    return result


def _csv_rows(path: Path, header: str) -> list[list[str]]:
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return []
    if not lines or lines[0] != header:
        return []
    return [line.split(",") for line in lines[1:]]


# -- train ---------------------------------------------------------------------------


def check_training(out_dir: Path, epochs: int, obs_dim: int, n_levels: int, ops) -> CheckResult:
    """One ``train`` run; any defect fails all of its ops (one per chunk)."""
    result = CheckResult()
    try:
        raw = (out_dir / "checkpoint.json").read_bytes()
        theta, _config = load_checkpoint(raw.decode())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.fail(ops, f"checkpoint unreadable: {type(exc).__name__}: {exc}")
        return result
    if (theta.obs_dim, theta.n_levels) != (obs_dim, n_levels):
        result.fail(ops, f"checkpoint shape {(theta.obs_dim, theta.n_levels)}")
    if not all(np.isfinite(w).all() for w in theta.weights()):
        result.fail(ops, "checkpoint holds non-finite weights")

    report = _read_json(out_dir / "report.json")
    if not isinstance(report, dict) or not all_finite(report):
        result.fail(ops, "report.json unreadable or non-finite")
    else:
        loss, agreement = report.get("loss_ema"), report.get("expert_agreement")
        if report.get("epochs") != epochs or not isinstance(loss, list) or not isinstance(agreement, list):
            result.fail(ops, "report.json lacks per-epoch curves")
        elif len(loss) != epochs or len(agreement) != epochs:
            result.fail(ops, f"report.json has {len(loss)}/{len(agreement)} epochs, expected {epochs}")
        elif not all(_is_number(x) for x in loss) or not all(
            _is_number(a) and 0.0 <= a <= 1.0 for a in agreement
        ):
            result.fail(ops, "non-numeric loss, or expert agreement outside [0, 1]")
    return result
