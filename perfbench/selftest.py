"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each workload once at a tiny size, confirms the clean outputs pass,
then feeds every check one corrupted copy of an artifact and confirms that
the corruption costs at least one failed op. A check that never fires
measures nothing. Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy loads


def _edit_lines(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _set_label_field(field: str, value):
    """Edit the fifth label line of a label file (JSON text, so NaN survives)."""

    def edit(lines):
        rec = json.loads(lines[4])
        rec[field] = value(rec) if callable(value) else value
        lines[4] = json.dumps(rec)
        return lines

    return edit


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    from workloads import Evaluate, Label, Train

    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    outcomes = []

    def case(name, workload, clean: Path, corrupt):
        copy = clean.with_name(clean.name + "-corrupt")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(clean, copy)
        corrupt(copy)
        failed = len(workload.check(copy).failed)
        outcomes.append((failed > 0, f"{workload.name}: {name} -> {failed} failed ops"))
        shutil.rmtree(copy)

    def clean_round(workload) -> Path:
        workload.set_up()
        out = workload.work / "round0"
        _wall, _corrected, failed = run._run_round(workload, out, run.SpeedClock())
        result = workload.check(out)
        ok = not failed and not result.failed and result.qoe
        outcomes.append((bool(ok), f"{workload.name}: clean outputs -> {len(result.failed)} failed ops"))
        return out

    try:
        label = Label(1, 1, work / "label")
        out = clean_round(label)
        first = sorted((out / "pensieve").glob("labels_*.jsonl"))[0].relative_to(out)
        case("NaN objective", label, out, lambda d: _edit_lines(d / first, _set_label_field("objective", float("nan"))))
        case("dropped label line", label, out, lambda d: _edit_lines(d / first, lambda ls: ls[:4] + ls[5:]))
        case("level out of range", label, out, lambda d: _edit_lines(d / first, _set_label_field("expert_level", 6)))
        case("objective below best fixed level", label, out,
             lambda d: _edit_lines(d / first, _set_label_field("objective", lambda r: r["objective"] - 50.0)))
        case("observation of another state", label, out,
             lambda d: _edit_lines(d / first, _set_label_field("observation", lambda r: r["observation"][::-1])))
        case("summary record missing", label, out, lambda d: _edit_lines(d / first, lambda ls: ls[:-1]))
        case("extra label past the video", label, out,
             lambda d: _edit_lines(d / first, lambda ls: ls[:-1] + [ls[-2].replace('"chunk": 48', '"chunk": 49')] + ls[-1:]))

        digest = label.digest(out)
        rounds = [(1.0, 1.0, set(), digest), (1.0, 1.0, set(), "other")]
        keys = [k for _argv, ks in label.commands(out) for k in ks]
        failed = run.count_failed(rounds, keys, 0, set(), [])
        outcomes.append((failed == len(keys), f"label: round digest differs -> {failed} failed ops"))
        store_dir = run.WORK
        run.WORK = work
        stored = run._stored_digest_agrees("k", "a") and not run._stored_digest_agrees("k", "b")
        run.WORK = store_dir
        outcomes.append((stored, "label: digest differs from a stored run of the same code and inputs"))

        sorted((label.inputs / "a2br-5g").glob("*.csv"))[0].write_text("0,fast\n")
        _wall, _corrected, failed = run._run_round(label, work / "label" / "bad-input", run.SpeedClock())
        outcomes.append((len(failed) > 0, f"label: command exits non-zero -> {len(failed)} failed ops"))

        evaluate = Evaluate(1, 1, work / "evaluate")
        out = clean_round(evaluate)
        trace_id = sorted((evaluate.inputs / "pensieve").glob("*.csv"))[0].stem
        report = Path("pensieve/eval/report.json")
        case("missing matrix cell", evaluate, out,
             lambda d: _edit_json(d / report, lambda doc: doc["matrix"][trace_id].pop("robust_mpc")))
        case("NaN matrix cell", evaluate, out,
             lambda d: _edit_json(d / report, lambda doc: doc["matrix"][trace_id].update(buffer_based=float("nan"))))
        case("ranking histogram off 100%", evaluate, out,
             lambda d: _edit_json(d / "pensieve/rank/ranking.json",
                                  lambda doc: doc["ranking"]["random:1"]["rank_histogram_pct"].append(5.0)))
        case("dropped plot row", evaluate, out,
             lambda d: _edit_lines(d / "pensieve/eval/plot.csv", lambda ls: ls[:-1]))
        case("ranking entry not a number", evaluate, out,
             lambda d: _edit_json(d / "pensieve/rank/ranking.json",
                                  lambda doc: doc["ranking"]["robust_mpc"]["rank_histogram_pct"].__setitem__(0, "x")))

        train = Train(1, 1, work / "train")
        out = clean_round(train)
        case("NaN weight", train, out,
             lambda d: _edit_json(d / "model/checkpoint.json",
                                  lambda doc: doc["weights"]["dec_b2"].__setitem__(0, float("nan"))))
        case("loss curve one epoch short", train, out,
             lambda d: _edit_json(d / "model/report.json", lambda doc: doc["loss_ema"].pop()))
        case("agreement above 1", train, out,
             lambda d: _edit_json(d / "model/report.json", lambda doc: doc["expert_agreement"].__setitem__(0, 1.5)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for ok, line in outcomes:
        print(("PASS " if ok else "FAIL ") + line)
    return 0 if all(ok for ok, _line in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
