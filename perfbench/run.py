"""abrbench benchmark: one workload per run, driven in-process through the CLI.

    python3 perfbench/run.py --workload {label,train,evaluate} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it uses the ``src/`` tree next to
this directory and writes only under ``.perfbench-work/`` at the checkout
root. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The lines before it
record the environment and the determinism digest of the run.

``--trace 0`` reports the end-to-end metrics (set-up time, ops per second,
peak RSS, mean QoE). ``--trace 1`` runs the same round once untraced and
once with every cross-layer call wrapped, and reports the per-layer
figures plus the tracing overhead; spans are written to
``.perfbench-work/spans-<workload>-seed<seed>.jsonl``.

Seeds: 1 is the default and the seed to tune against; 4242 is held out for
confirming a claim (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from clock import SpeedClock
from tracer import Tracer

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # must precede the first numpy import

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench-work")  # relative to ROOT, which becomes the cwd
DEFAULT_SEED = 1
HELD_OUT_SEED = 4242
SETUP_REPEATS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("label", "train", "evaluate"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _set_up_once(workload) -> None:
    """``import abrbench.cli`` in a fresh interpreter, then write the inputs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", "import abrbench.cli"], env=env, timeout=120, check=True)
    workload.set_up()


def _tree_hash(root: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _environment(args, src_hash: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    role = {DEFAULT_SEED: "default", HELD_OUT_SEED: "held-out"}.get(args.seed, "other")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_role": role,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": _git_rev(),
        "src_sha256": src_hash,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


def _run_command(argv, tracer, op_id) -> int:
    from abrbench import cli

    try:
        if tracer is None:
            return cli.main(argv)
        return tracer.call("cli.main", op_id, cli.main, argv)
    except SystemExit as exc:  # argparse rejects bad flags by exiting
        return exc.code if isinstance(exc.code, int) else 2


def _run_round(workload, out: Path, clock, tracer=None):
    """Run every command once; returns (wall seconds, corrected seconds, keys
    of the ops whose command failed)."""
    failed = set()
    wall = corrected = 0.0
    for op_id, (argv, keys) in enumerate(workload.commands(out)):
        code, wall_s, corrected_s = clock.time(_run_command, argv, tracer, op_id)
        wall += wall_s
        corrected += corrected_s
        if code != 0:
            print(f"command exited {code}: abrbench {' '.join(argv)}", file=sys.stderr)
            failed.update(keys)
    return wall, corrected, failed


def _digest(workload, out: Path) -> str | None:
    try:
        return workload.digest(out)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _stored_digest_agrees(key: str, digest: str | None) -> bool:
    """Compare with the digest an earlier run of the same code and inputs stored."""
    store = WORK / "digests.json"
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known:
        return known[key] == digest
    if digest is not None:
        known[key] = digest
        tmp = store.with_name(store.name + ".tmp")
        tmp.write_text(json.dumps(known, sort_keys=True, indent=1) + "\n")
        os.replace(tmp, store)
    return True


def count_failed(rounds, all_keys, checked_index: int, checked_failed: set, problems: list) -> int:
    """Failed ops over all rounds: a command's non-zero exit fails its ops, a
    failed check fails the checked round's ops it names, and a round whose
    digest differs from the first round's (or is unreadable) fails every op."""
    total = 0
    first_digest = rounds[0][-1]
    for index, (_wall, _corrected, failed, digest) in enumerate(rounds):
        if digest is None or digest != first_digest:
            failed = set(all_keys)
            problems.append(f"round {index}: outputs differ from the first round")
        if index == checked_index:
            failed = failed | checked_failed
        total += len(failed)
    return total


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "abrbench" / "__init__.py").is_file():
        print(f"perfbench: no abrbench sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.seconds, WORK / args.workload)
    try:
        return _bench(args, workload)
    finally:
        shutil.rmtree(workload.work, ignore_errors=True)


def _bench(args, workload) -> int:
    clock = SpeedClock()
    setup_times = [clock.time(_set_up_once, workload)[2] for _ in range(SETUP_REPEATS)]

    all_keys = [k for _argv, keys in workload.commands(workload.work / "round0") for k in keys]
    ops = len(set(all_keys))
    rounds = []  # (wall seconds, corrected seconds, failed keys, digest)
    tracer = None
    if args.trace:
        reference = workload.work / "reference"
        rounds.append((*_run_round(workload, reference, clock), _digest(workload, reference)))
        with Tracer() as tracer:
            traced = _run_round(workload, workload.work / "round0", clock, tracer)
        rounds.append((*traced, _digest(workload, workload.work / "round0")))
    else:
        spent = 0.0
        while not rounds or spent + rounds[-1][0] <= args.seconds:
            out = workload.work / f"round{len(rounds)}"
            rounds.append((*_run_round(workload, out, clock), _digest(workload, out)))
            spent += rounds[-1][0]
            if len(rounds) > 1:
                shutil.rmtree(out)

    checked = workload.check(workload.work / "round0")
    problems = list(checked.problems)
    # the traced round is the one written to round0/
    failed_ops = count_failed(rounds, all_keys, 1 if args.trace else 0, checked.failed, problems)
    first_digest = rounds[0][-1]

    src_hash = _tree_hash(SRC / "abrbench", "*.py")
    argv_hash = hashlib.sha256(json.dumps([a for a, _k in workload.commands(Path("out"))]).encode())
    key = (f"{args.workload} src={src_hash[:16]} inputs={_tree_hash(workload.inputs, '*')[:16]}"
           f" argv={argv_hash.hexdigest()[:16]}")
    agrees = _stored_digest_agrees(key, first_digest)
    if not agrees:
        problems.append("digest differs from an earlier run of the same code and seed")
        failed_ops = ops * len(rounds)
    correct = failed_ops == 0 and agrees

    if args.trace:
        layer = tracer.layer_metrics()
        if layer["expert.solve_fixed_throughput.calls"] != layer["expert.ao.iterations"]:
            correct = False
            problems.append("solve_fixed_throughput calls differ from AO iterations")
        layer["tracing_overhead_frac"] = rounds[1][1] / rounds[0][1] - 1.0
        units = {"calls": "count", "iterations": "count", "cap_stops": "count",
                 "converged_frac": "ratio", "tracing_overhead_frac": "ratio"}
        metrics = {name: {"value": value, "unit": units.get(name.rpartition(".")[2], "ms")}
                   for name, value in layer.items()}
        tracer.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": ops * len(rounds) / sum(r[1] for r in rounds), "unit": "ops/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "qoe_mean": {"value": statistics.fmean(checked.qoe) if checked.qoe else 0.0,
                         "unit": "qoe"},
        }

    print(json.dumps({"env": _environment(args, src_hash)}, sort_keys=True))
    print(json.dumps({"digest": first_digest, "rounds": len(rounds), "problems": problems[:20],
                      "round_wall_s": [r[0] for r in rounds],
                      "round_corrected_s": [r[1] for r in rounds],
                      "setup_corrected_s": setup_times}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": ops * len(rounds), "failed": failed_ops,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
