"""Command-line entry point: reproducible simulate / solve / train / evaluate runs.

Every command resolves its configuration from defaults, an optional JSON
config file (``--config``), and explicit flags (highest precedence), writes
its artifacts atomically into ``--out``, and embeds the resolved config (in
JSON artifacts inline, for CSV artifacts via the ``run_config.json``
sidecar) so any artifact can be regenerated bit-identically.

Exit codes: 0 success, 2 usage, 3 data, 4 internal. Failures emit a
single-line JSON error record on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import metrics
from .errors import DomainError, ParseError, UsageError
from .expert import problem_from_state, solve_expert_ao, solve_expert_dp, solve_expert_enum
from .learner import TrainConfig, act, label_state, load_checkpoint, save_checkpoint, train
from .media import load_manifest, preset, preset_names
from .policies import PolicyConfig, make_policy
from .simulator import initial_state, observation_size, observe, run_session, session_to_jsonl, step
from .trace import TraceModel, load_trace, save_trace, synth_trace


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _load_manifest_arg(spec: str):
    if spec in preset_names():
        return preset(spec)
    path = Path(spec)
    if not path.exists():
        raise DomainError(f"manifest {spec!r} is neither a preset nor a file")
    return load_manifest(path.read_text(), id=path.stem)


def _trace_paths(spec: str) -> list[Path]:
    path = Path(spec)
    if path.is_dir():
        found = sorted(path.glob("*.csv"))
        if not found:
            raise DomainError(f"no *.csv traces under {spec!r}")
        return found
    if path.is_file():
        return [path]
    raise DomainError(f"trace path {spec!r} does not exist")


def _load_traces(spec: str):
    return [load_trace(p.read_text(), id=p.stem) for p in _trace_paths(spec)]


def _policy_factory(spec: str, manifest, params, knobs: dict):
    """Translate a policy spec string into a fresh-per-session policy factory."""
    kind, sep, arg = spec.partition(":")
    if kind == "actor":
        if not arg:
            raise UsageError("actor policy needs a checkpoint path: actor:<path>")
        theta, _cfg = load_checkpoint(Path(arg).read_text())
        history_k = knobs["history_k"]
        needed = (observation_size(manifest, history_k), manifest.n_levels)
        if (theta.obs_dim, theta.n_levels) != needed:
            raise ParseError(
                f"checkpoint has obs_dim {theta.obs_dim} and n_levels {theta.n_levels}; the "
                f"manifest at history length {history_k} needs {needed[0]} and {needed[1]}")
        policy_id = f"actor:{Path(arg).stem}"
        return lambda: (policy_id, lambda state, obs: act(theta, obs, "greedy"))
    if kind in ("fixed", "random"):
        try:
            number = int(arg or 0)
        except ValueError:
            raise UsageError(f"policy spec {spec!r} needs an integer after ':'") from None
        knobs = {**knobs, ("fixed_level" if kind == "fixed" else "seed"): number}
    elif kind not in ("buffer_based", "robust_mpc") or sep:
        raise UsageError(f"unknown policy spec {spec!r}: expected buffer_based, robust_mpc, "
                         "fixed:<level>, random:<seed> or actor:<checkpoint>")
    cfg = PolicyConfig(kind=kind, **knobs)
    return lambda: make_policy(cfg, manifest, params)


# option name -> PolicyConfig field, for the options simulate and evaluate share
_KNOBS = {"history_k": "history_k", "mpc_horizon": "mpc_horizon",
          "reservoir": "reservoir_s", "cushion": "cushion_s"}
_POLICY_DEFAULTS = {
    "start_offset": 0.0,
    **{option: getattr(PolicyConfig(), name) for option, name in _KNOBS.items()},
}


def _policy_knobs(cfg: dict) -> dict:
    return {name: cfg[option] for option, name in _KNOBS.items()}


def _session(factory, trace, manifest, params, cfg: dict, seed: int):
    """One session of a fresh policy from ``factory`` under the resolved ``cfg``."""
    policy_id, policy = factory()
    return run_session(policy, trace, manifest, params, start_offset_s=cfg["start_offset"],
                       history_k=cfg["history_k"], policy_id=policy_id, seed=seed)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


_WORKER_JOB = None  # (fn, traces) inside a forked worker of _per_trace


def _start_worker(fn, traces) -> None:
    global _WORKER_JOB
    _WORKER_JOB = fn, traces


def _run_worker_job(index: int):
    fn, traces = _WORKER_JOB
    return fn(traces[index])


def _per_trace(fn, traces):
    """Yield ``fn(trace)`` for each trace, in input order.

    With two or more traces and two or more usable CPUs, the traces run in a
    pool of forked processes, one per CPU up to one per trace, handed out one
    at a time because per-trace cost is heavy-tailed. Workers inherit ``fn``
    and the traces through fork: only an index goes out and only that trace's
    result comes back. Since results arrive in input order, the caller writes
    the same bytes as a serial loop, and on an error the same files. Left early
    (an error, a Ctrl-C, a closed generator), it ends its workers before the
    pool shuts down, so no trace handed out runs on. A dead worker breaks the pool.
    Fork, not spawn, lets the workers inherit closures over parsed inputs;
    the CLI starts no thread, and from Python 3.11 a fork-context executor
    forks every worker before it starts its own.
    """
    processes = min(len(traces), _usable_cpus())
    if processes < 2:
        yield from map(fn, traces)
        return
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    with ProcessPoolExecutor(processes, multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=(fn, traces)) as pool:
        # not pool.map, whose cancelled futures break Python 3.11's pool when left early;
        # as in map, each future is dropped once read, so results do not pile up
        futures = {index: pool.submit(_run_worker_job, index) for index in range(len(traces))}
        try:
            yield from (futures.pop(index).result() for index in range(len(traces)))
        except BaseException as exc:
            for process in list(pool._processes.values()):  # 3.14 adds terminate_workers
                process.terminate()
            if isinstance(exc, BrokenProcessPool):
                raise RuntimeError("a worker process died") from None
            raise


def _ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _names(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


# -- resolved-config plumbing ---------------------------------------------------


def _option_type(default) -> type:
    """Every value of an option has its default's type (text when it has none)."""
    return str if default is None else type(default)


def _coerce(key: str, value, default):
    """A config-file value as its option's type; lossy, boolean and non-scalar ones are refused."""
    kind = _option_type(default)
    try:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise TypeError
        coerced = kind(value)
        # 2.5 as int and 2.0 as text are lossy; _resolve refuses a non-finite float
        if isinstance(value, float) and kind is not float and coerced != value:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"config key {key!r} needs a {kind.__name__}, got {value!r}") from None
    return coerced


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags, each value of its option's type.

    An option whose default is None is required, and a float must be finite.
    """
    resolved = dict(defaults)
    if getattr(args, "config", None):
        doc = json.loads(Path(args.config).read_text())
        if not isinstance(doc, dict):
            raise ParseError("config file must hold a JSON object")
        for key, value in doc.items():
            if key == "command":
                continue
            if key not in defaults:
                raise UsageError(f"unknown config key {key!r}")
            resolved[key] = _coerce(key, value, defaults[key])
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    for key, value in resolved.items():
        if defaults[key] is None and not value:
            raise UsageError(f"{args.command} needs --{key}")
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{key} must be finite, got {value!r}")
    return resolved


def _emit_run_config(out: Path, command: str, resolved: dict) -> dict:
    # the output directory is where the artifact lives, not part of the
    # experiment identity, so it stays out of the embedded config
    doc = {"command": command, **{k: v for k, v in resolved.items() if k != "out"}}
    _write_atomic(out / "run_config.json", _dump_json(doc))
    return doc


# -- subcommands ----------------------------------------------------------------

_SIMULATE_DEFAULTS = {
    "trace": None,
    "manifest": "pensieve",
    "policy": "buffer_based",
    "seed": 0,
    **_POLICY_DEFAULTS,
    "out": "out",
}


def _cmd_simulate(args) -> int:
    cfg = _resolve(args, _SIMULATE_DEFAULTS)
    manifest, params = _load_manifest_arg(cfg["manifest"])
    knobs = _policy_knobs(cfg)
    factory = _policy_factory(cfg["policy"], manifest, params, knobs)
    traces = _load_traces(cfg["trace"])
    out = Path(cfg["out"])
    run_config = _emit_run_config(out, "simulate", cfg)

    def session_file(trace):
        log = _session(factory, trace, manifest, params, cfg, cfg["seed"])
        name = f"session_{trace.id}_{log.policy_id.replace(':', '-')}_{cfg['seed']}.jsonl"
        return name, session_to_jsonl(log, config=run_config)

    for name, text in _per_trace(session_file, traces):
        _write_atomic(out / name, text)
    return 0


_SYNTH_DEFAULTS = {
    "count": 1,
    "seed": 0,
    "mean": 3.0,
    "volatility": 0.3,
    "duration": 320.0,
    "step": 1.0,
    "out": "out",
}


def _cmd_synth(args) -> int:
    cfg = _resolve(args, _SYNTH_DEFAULTS)
    out = Path(cfg["out"])
    _emit_run_config(out, "synth", cfg)
    model = TraceModel(
        mean_mbps=cfg["mean"],
        volatility=cfg["volatility"],
        duration_s=cfg["duration"],
        step_s=cfg["step"],
    )
    for k in range(cfg["count"]):
        trace = synth_trace(cfg["seed"] + k, model)
        _write_atomic(out / f"{trace.id}.csv", save_trace(trace))
    return 0


_SOLVE_DEFAULTS = {
    "trace": None,
    "manifest": "pensieve",
    "horizon": 8,
    "behavior": "robust_mpc",
    "history_k": 8,
    "out": "out",
}


def _cmd_solve_expert(args) -> int:
    cfg = _resolve(args, _SOLVE_DEFAULTS)
    manifest, params = _load_manifest_arg(cfg["manifest"])
    # the behaviour gets the labels' history length, so a robust_mpc
    # behaviour is the adverse expert and steps with the adverse label
    factory = _policy_factory(cfg["behavior"], manifest, params, {"history_k": cfg["history_k"]})
    traces = _load_traces(cfg["trace"])
    out = Path(cfg["out"])
    run_config = _emit_run_config(out, "solve-expert", cfg)

    def label_file(trace):
        behavior_id, behavior = factory()
        state = initial_state(manifest, params, history_k=cfg["history_k"])
        lines = []
        while not state.terminal:
            obs = observe(state, manifest)
            solution, adverse = label_state(state, trace, manifest, params, cfg["horizon"])
            lines.append(
                json.dumps(
                    {
                        "record": "label",
                        "chunk": state.next_chunk,
                        "observation": list(obs),
                        "expert_level": solution.levels[0],
                        "adverse_level": adverse,
                        "objective": solution.objective,
                        "iterations": solution.iterations,
                        "stop": solution.stop,
                    },
                    sort_keys=True,
                )
            )
            level = adverse if behavior_id == "robust_mpc" else behavior(state, obs)
            _outcome, state = step(state, trace, manifest, params, level)
        lines.append(
            json.dumps(
                {"record": "summary", "trace_id": trace.id, "config": run_config},
                sort_keys=True,
            )
        )
        return "\n".join(lines) + "\n"

    for trace, text in zip(traces, _per_trace(label_file, traces)):
        _write_atomic(out / f"labels_{trace.id}.jsonl", text)
    return 0


_BENCH_DEFAULTS = {
    "n_values": "5,6,7,8",
    "instances": 5,
    "manifest": "pensieve",
    "mean": 3.0,
    "volatility": 0.3,
    "seed": 0,
    "solvers": "ao,enum",
    "dp_grid": 0.5,
    "out": "out",
}


def _cmd_bench_expert(args) -> int:
    cfg = _resolve(args, _BENCH_DEFAULTS)
    manifest, params = _load_manifest_arg(cfg["manifest"])
    solvers = _names(cfg["solvers"])
    unknown = set(solvers) - {"ao", "enum", "dp"}
    if unknown:
        raise UsageError(f"unknown solvers: {', '.join(sorted(unknown))}")
    out = Path(cfg["out"])
    _emit_run_config(out, "bench-expert", cfg)

    model = TraceModel(mean_mbps=cfg["mean"], volatility=cfg["volatility"])
    rows = ["solver,n,mean_ms,objective_gap"]
    for n in _ints(cfg["n_values"]):
        problems = []
        for k in range(cfg["instances"]):
            trace = synth_trace(cfg["seed"] + 1000 * n + k, model)
            state = initial_state(manifest, params)
            problems.append(problem_from_state(state, trace, manifest, params, n))
        results: dict[str, list[tuple[float, float]]] = {name: [] for name in solvers}
        for problem in problems:
            for name in solvers:
                begin = time.perf_counter()
                if name == "ao":
                    solution = solve_expert_ao(problem)
                elif name == "enum":
                    solution = solve_expert_enum(problem)
                else:
                    solution = solve_expert_dp(problem, cfg["dp_grid"])
                elapsed = (time.perf_counter() - begin) * 1000.0
                results[name].append((elapsed, solution.objective))
        best = [max(results[name][k][1] for name in solvers) for k in range(len(problems))]
        for name in solvers:
            mean_ms = sum(t for t, _ in results[name]) / len(problems)
            gap = sum(best[k] - results[name][k][1] for k in range(len(problems))) / len(problems)
            rows.append(f"{name},{n},{mean_ms:.3f},{gap!r}")
    _write_atomic(out / "bench.csv", "\n".join(rows) + "\n")
    return 0


_TRAIN_DEFAULTS = {
    "traces": None,
    "manifest": "pensieve",
    **asdict(TrainConfig()),
    # 1 labels states in the training process; 2 or more label them in one helper process
    # while it trains, given two usable CPUs; the recorded value is the only byte it changes
    "workers": 2,
    "out": "out",
}


def _cmd_train(args) -> int:
    cfg = _resolve(args, _TRAIN_DEFAULTS)
    if cfg["workers"] < 1:
        raise DomainError("workers must be at least 1")
    train_cfg = TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})
    manifest, params = _load_manifest_arg(cfg["manifest"])
    traces = _load_traces(cfg["traces"])
    out = Path(cfg["out"])
    run_config = _emit_run_config(out, "train", cfg)
    helper = cfg["workers"] >= 2 and _usable_cpus() >= 2
    theta, report = train(traces, manifest, params, train_cfg, helper=helper)
    _write_atomic(out / "checkpoint.json", save_checkpoint(theta, config=run_config))
    _write_atomic(out / "report.json", _dump_json({"config": run_config, **report}))
    return 0


_EVAL_DEFAULTS = {
    "traces": None,
    "manifest": "pensieve",
    "policies": "buffer_based,robust_mpc",
    "seeds": "0",
    **_POLICY_DEFAULTS,
    "out": "out",
}


def _cmd_evaluate(args) -> int:
    cfg = _resolve(args, _EVAL_DEFAULTS)
    manifest, params = _load_manifest_arg(cfg["manifest"])
    seeds = _ints(cfg["seeds"])
    if not seeds:
        raise UsageError("evaluate needs at least one seed")
    traces = _load_traces(cfg["traces"])
    knobs = _policy_knobs(cfg)
    factories = [_policy_factory(spec, manifest, params, knobs) for spec in _names(cfg["policies"])]
    out = Path(cfg["out"])
    run_config = _emit_run_config(out, "evaluate", cfg)

    def sessions(trace):
        return [_session(factory, trace, manifest, params, cfg, seed)
                for factory in factories for seed in seeds]

    report = metrics.compare(log for logs in _per_trace(sessions, traces) for log in logs)
    _write_atomic(out / "report.json", _dump_json({"config": run_config, **report}))
    _write_atomic(out / "report.csv", metrics.report_csv(report))
    _write_atomic(out / "plot.csv", metrics.plot_csv(report))
    return 0


_RANK_DEFAULTS = {"report": None, "out": "out"}

_RANK_HEADER = "policy,avg_rank,points,r1_pct,r2_pct,r3_pct,r4_pct,r5_pct,r6_pct"


def _cmd_rank(args) -> int:
    cfg = _resolve(args, _RANK_DEFAULTS)
    doc = json.loads(Path(cfg["report"]).read_text())
    matrix = doc.get("matrix") if isinstance(doc, dict) else None
    if not isinstance(matrix, dict) or not matrix:
        raise ParseError("report file has no QoE matrix")
    for trace_id, row in matrix.items():
        # JSON integers are exact and floats may be NaN or infinite; true is not a number
        if not isinstance(row, dict) or not all(
                type(q) is int or isinstance(q, float) and math.isfinite(q) for q in row.values()):
            raise ParseError(f"QoE row of trace {trace_id!r} is not an object of finite numbers")
        if not row:
            raise ParseError(f"QoE row of trace {trace_id!r} is empty")
        if set(row) != set(next(iter(matrix.values()))):
            raise ParseError(f"QoE row of trace {trace_id!r} names other policies than the first row")
    ranking = metrics.rank_points(matrix)
    out = Path(cfg["out"])
    run_config = _emit_run_config(out, "rank", cfg)
    rows = [_RANK_HEADER]
    for policy_id in sorted(ranking):
        stats = ranking[policy_id]
        hist = list(stats["rank_histogram_pct"]) + [0.0] * (6 - len(stats["rank_histogram_pct"]))
        hist_cols = ",".join(f"{h:.1f}" for h in hist[:6])
        rows.append(f"{policy_id},{stats['avg_rank']!r},{stats['points']},{hist_cols}")
    _write_atomic(out / "ranking.csv", "\n".join(rows) + "\n")
    _write_atomic(out / "ranking.json", _dump_json({"config": run_config, "ranking": ranking}))
    return 0


# -- argument parsing -----------------------------------------------------------


_COMMANDS = (
    ("simulate", "run sessions under an online policy", _SIMULATE_DEFAULTS, _cmd_simulate),
    ("synth", "generate synthetic trace CSVs", _SYNTH_DEFAULTS, _cmd_synth),
    ("solve-expert", "emit offline expert labels for visited states", _SOLVE_DEFAULTS,
     _cmd_solve_expert),
    ("bench-expert", "time the expert solvers on an instance suite", _BENCH_DEFAULTS,
     _cmd_bench_expert),
    ("train", "train the imitation actor", _TRAIN_DEFAULTS, _cmd_train),
    ("evaluate", "compare policies across traces and seeds", _EVAL_DEFAULTS, _cmd_evaluate),
    ("rank", "trace-wise ranking points from an evaluate report", _RANK_DEFAULTS, _cmd_rank),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abrbench",
        description="Trace-driven adaptive-bitrate workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, defaults, func in _COMMANDS:
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", help="JSON config file; explicit flags override it")
        for key, default in defaults.items():
            s.add_argument("--" + key.replace("_", "-"), dest=key, type=_option_type(default),
                           default=None, help=f"default: {default!r}")
        s.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # finiteness checks report overflow and NaN as one JSON line; numpy would warn too
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except (ParseError, DomainError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
