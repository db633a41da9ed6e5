"""Command-line entry point: reproducible simulate / solve / train / evaluate runs.

``main`` resolves a command's configuration from defaults, an optional JSON
config file (``--config``), and explicit flags (highest precedence). A command
yields its artifacts as (file name, text) pairs and embeds the resolved config,
less ``--out``, in its JSON artifacts, so any artifact can be regenerated
bit-identically. ``main`` is the only writer: once the first artifact is ready
it writes that config into ``--out`` as ``run_config.json`` (the CSV artifacts'
sidecar), then each artifact atomically as it comes. A command that fails before
its first artifact leaves nothing behind.

Exit codes: 0 success, 2 usage, 3 data, 4 internal. Every failure, a malformed
command line included, emits a single-line JSON error record on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import ExitStack, closing
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import metrics
from .errors import DomainError, ParseError, UsageError
from .expert import problem_from_state, solve_expert_ao, solve_expert_dp, solve_expert_enum
from .learner import TrainConfig, act, label_state, load_checkpoint, save_checkpoint, train
from .media import load_manifest, preset, preset_names
from .policies import PolicyConfig, check_horizon, make_policy
from .simulator import initial_state, jsonl, observation_size, run_session, session_to_jsonl
from .trace import TraceModel, check_seed, load_trace, save_trace, synth_trace
from .workers import Worker, one_blas_thread


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


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


def _read_trace(path: Path):
    return load_trace(path.read_text(), id=path.stem)


def _load_traces(spec: str):
    return [_read_trace(p) for p in _trace_paths(spec)]


def _policy_factory(spec: str, manifest, params, knobs: dict):
    """Translate a policy spec string into a factory of fresh-per-session
    (policy id, policy, observed) triples; only the actor reads the observation."""
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
        return lambda: (policy_id, lambda state, obs: act(theta, obs, "greedy"), True)
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
    return lambda: (*make_policy(cfg, manifest, params), False)


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
    policy_id, policy, observed = factory()
    return run_session(policy, trace, manifest, params, start_offset_s=cfg["start_offset"],
                       history_k=cfg["history_k"], policy_id=policy_id, seed=seed,
                       observed=observed)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _per_trace(fn, items):
    """Yield ``fn(item)`` for each item, in input order.

    The commands hand it trace paths, and ``fn`` reads and parses the trace it runs,
    so the parent holds no fanned-out trace. With two or more items and usable CPUs,
    one forked worker per CPU (up to one per item) runs them, each taking its next
    item when it answers, because per-trace cost is heavy-tailed. Results, and errors
    ``fn`` raised, come back in input order, so the caller writes the same files as a
    serial loop: a trace that does not parse fails in its turn, after the files of the
    traces before it. A worker ends as soon as no item is left to hand it, rather than
    poll until the slowest trace finishes; leaving early ends them all. Fork is safe:
    the only threads are the BLAS's, whose pool OpenBLAS shuts down before each fork.
    """
    processes = min(len(items), _usable_cpus())
    if processes < 2:
        yield from map(fn, items)
        return
    from multiprocessing.connection import wait

    indices = iter(range(len(items)))
    busy, done = {}, {}  # worker -> the index it runs; index -> its result or error
    with ExitStack() as stack:
        ready = [stack.enter_context(Worker(lambda i: fn(items[i]))) for _ in range(processes)]
        for index in range(len(items)):
            while index not in done:
                for worker in ready:  # each its next trace; one with none left ends
                    following = next(indices, None)
                    if following is None:
                        worker.close()
                    else:
                        worker.send(following)
                        busy[worker] = following
                ready = wait(list(busy))
                for worker in ready:
                    done[busy.pop(worker)] = worker.recv()
            result = done.pop(index)
            if isinstance(result, Exception):
                raise result
            yield result


def _items(text: str, kind: type = str) -> list:
    """A comma-separated option's entries as ``kind``: at least one, none repeated."""
    try:
        items = [kind(x.strip()) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"expected comma-separated {kind.__name__} values, got {text!r}") from None
    if not items or len(set(items)) < len(items):
        raise UsageError(f"expected one or more distinct comma-separated values, got {text!r}")
    return items


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
    """The command's name, then defaults < config file < explicit flags, each value of
    its option's type.

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
    return {"command": args.command, **resolved}


# -- subcommands ----------------------------------------------------------------

_SIMULATE_DEFAULTS = {
    "trace": None,
    "manifest": "pensieve",
    "policy": "buffer_based",
    "seed": 0,
    **_POLICY_DEFAULTS,
    "out": "out",
}


def _cmd_simulate(cfg: dict):
    check_seed(cfg["seed"])  # it names the session files
    manifest, params = _load_manifest_arg(cfg["manifest"])
    knobs = _policy_knobs(cfg)
    factory = _policy_factory(cfg["policy"], manifest, params, knobs)
    paths = _trace_paths(cfg["trace"])

    def session_file(path):
        trace = _read_trace(path)
        log = _session(factory, trace, manifest, params, cfg, cfg["seed"])
        name = f"session_{trace.id}_{log.policy_id.replace(':', '-')}_{cfg['seed']}.jsonl"
        return name, session_to_jsonl(log, config=cfg)

    yield from _per_trace(session_file, paths)


_SYNTH_DEFAULTS = {
    "count": 1,
    "seed": 0,
    "mean": 3.0,
    "volatility": 0.3,
    "duration": 320.0,
    "step": 1.0,
    "out": "out",
}
_MAX_SYNTH_COUNT = 10_000


def _cmd_synth(cfg: dict):
    if not 1 <= cfg["count"] <= _MAX_SYNTH_COUNT:
        raise DomainError(f"count must be in [1, {_MAX_SYNTH_COUNT}], got {cfg['count']}")
    check_seed(cfg["seed"] + cfg["count"] - 1)  # the last trace's
    model = TraceModel(cfg["mean"], cfg["volatility"], cfg["duration"], cfg["step"])
    for k in range(cfg["count"]):
        trace = synth_trace(cfg["seed"] + k, model)
        yield f"{trace.id}.csv", save_trace(trace)


_SOLVE_DEFAULTS = {
    "trace": None,
    "manifest": "pensieve",
    "horizon": 8,
    "behavior": "robust_mpc",
    "history_k": 8,
    "out": "out",
}


def _cmd_solve_expert(cfg: dict):
    check_horizon(cfg["horizon"])
    manifest, params = _load_manifest_arg(cfg["manifest"])
    # the behaviour gets the labels' history length, so a robust_mpc
    # behaviour is the adverse expert and steps with the adverse label
    factory = _policy_factory(cfg["behavior"], manifest, params, {"history_k": cfg["history_k"]})
    paths = _trace_paths(cfg["trace"])

    def label_file(path):
        trace = _read_trace(path)
        behavior_id, behavior, _ = factory()  # the labels record every observation
        records = []

        def labelled(state, obs):
            solution, adverse = label_state(state, trace, manifest, params, cfg["horizon"])
            records.append({
                "record": "label",
                "chunk": state.next_chunk,
                "observation": list(obs),
                "expert_level": solution.levels[0],
                "adverse_level": adverse,
                "objective": solution.objective,
                "iterations": solution.iterations,
                "stop": solution.stop,
            })
            return adverse if behavior_id == "robust_mpc" else behavior(state, obs)

        run_session(labelled, trace, manifest, params, history_k=cfg["history_k"])
        records.append({"record": "summary", "trace_id": trace.id, "config": cfg})
        return f"labels_{trace.id}.jsonl", jsonl(records)

    yield from _per_trace(label_file, paths)


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


def _cmd_bench_expert(cfg: dict):
    manifest, params = _load_manifest_arg(cfg["manifest"])
    solvers = _items(cfg["solvers"])
    solve = {"ao": solve_expert_ao, "enum": solve_expert_enum,
             "dp": lambda problem: solve_expert_dp(problem, cfg["dp_grid"])}
    unknown = set(solvers) - set(solve)
    if unknown:
        raise UsageError(f"unknown solvers: {', '.join(sorted(unknown))}")
    model = TraceModel(mean_mbps=cfg["mean"], volatility=cfg["volatility"])
    if not 1 <= cfg["instances"] <= _MAX_SYNTH_COUNT:
        raise DomainError(f"instances must be in [1, {_MAX_SYNTH_COUNT}], got {cfg['instances']}")
    n_values = _items(cfg["n_values"], int)
    for n in n_values:
        check_horizon(n, "n value")

    rows = ["solver,n,mean_ms,objective_gap"]
    for n in n_values:
        problems = []
        for k in range(cfg["instances"]):
            trace = synth_trace(cfg["seed"] + 1000 * n + k, model)
            state = initial_state(manifest, params)
            problems.append(problem_from_state(state, trace, manifest, params, n))
        results: dict[str, list[tuple[float, float]]] = {name: [] for name in solvers}
        for problem in problems:
            for name in solvers:
                begin = time.perf_counter()
                solution = solve[name](problem)
                elapsed = (time.perf_counter() - begin) * 1000.0
                results[name].append((elapsed, solution.objective))
        best = [max(results[name][k][1] for name in solvers) for k in range(len(problems))]
        for name in solvers:
            mean_ms = sum(t for t, _ in results[name]) / len(problems)
            gap = sum(best[k] - results[name][k][1] for k in range(len(problems))) / len(problems)
            rows.append(f"{name},{n},{mean_ms:.3f},{gap!r}")
    yield "bench.csv", "\n".join(rows) + "\n"


_TRAIN_DEFAULTS = {
    "traces": None,
    "manifest": "pensieve",
    **asdict(TrainConfig()),
    # 1 labels states in the training process; 2 or more label them in one helper process
    # while it trains, given two usable CPUs; the recorded value is the only byte it changes
    "workers": 2,
    "out": "out",
}


def _cmd_train(cfg: dict):
    if cfg["workers"] < 1:
        raise DomainError("workers must be at least 1")
    train_cfg = TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})
    manifest, params = _load_manifest_arg(cfg["manifest"])
    traces = _load_traces(cfg["traces"])
    helper = cfg["workers"] >= 2 and _usable_cpus() >= 2
    theta, report = train(traces, manifest, params, train_cfg, helper=helper)
    yield "checkpoint.json", save_checkpoint(theta, config=cfg)
    yield "report.json", _dump_json({"config": cfg, **report})


_EVAL_DEFAULTS = {
    "traces": None,
    "manifest": "pensieve",
    "policies": "buffer_based,robust_mpc",
    "seeds": "0",
    **_POLICY_DEFAULTS,
    "out": "out",
}


def _cmd_evaluate(cfg: dict):
    manifest, params = _load_manifest_arg(cfg["manifest"])
    seeds = _items(cfg["seeds"], int)
    for seed in seeds:
        check_seed(seed)
    paths = _trace_paths(cfg["traces"])
    knobs = _policy_knobs(cfg)
    factories = [_policy_factory(spec, manifest, params, knobs) for spec in _items(cfg["policies"])]
    metrics.check_policy_set(factory()[0] for factory in factories)

    def sessions(path):  # a worker sends back each session's QoE components, not its log
        trace = _read_trace(path)
        return [metrics.session_metrics(_session(factory, trace, manifest, params, cfg, seed))
                for factory in factories for seed in seeds]

    report = metrics.compare(comp for comps in _per_trace(sessions, paths) for comp in comps)
    yield "report.json", _dump_json({"config": cfg, **report})
    yield "report.csv", metrics.report_csv(report)
    yield "plot.csv", metrics.plot_csv(report)


_RANK_DEFAULTS = {"report": None, "out": "out"}

_RANK_HEADER = "policy,avg_rank,points,r1_pct,r2_pct,r3_pct,r4_pct,r5_pct,r6_pct"


def _cmd_rank(cfg: dict):
    doc = json.loads(Path(cfg["report"]).read_text())
    ranking = metrics.rank_points(doc.get("matrix") if isinstance(doc, dict) else None)
    rows = [_RANK_HEADER]
    for policy_id in sorted(ranking):
        stats = ranking[policy_id]
        pad = [0.0] * (len(metrics.RANK_POINTS) - len(stats["rank_histogram_pct"]))
        hist_cols = ",".join(f"{h:.1f}" for h in stats["rank_histogram_pct"] + pad)
        rows.append(f"{policy_id},{stats['avg_rank']!r},{stats['points']},{hist_cols}")
    yield "ranking.csv", "\n".join(rows) + "\n"
    yield "ranking.json", _dump_json({"config": cfg, "ranking": ranking})


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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error through ``main``'s error path rather than exiting itself."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="abrbench",
        description="Trace-driven adaptive-bitrate workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, defaults, _ in _COMMANDS:
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", help="JSON config file; explicit flags override it")
        for key, default in defaults.items():
            s.add_argument("--" + key.replace("_", "-"), dest=key, type=_option_type(default),
                           default=None, help=f"default: {default!r}")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        defaults, command = {name: (d, f) for name, _, d, f in _COMMANDS}[args.command]
        cfg = _resolve(args, defaults)
        # where the artifacts live is not part of the experiment, so the embedded config omits it
        out = Path(cfg.pop("out"))
        # finiteness checks report overflow and NaN as one JSON line; numpy would warn too
        with np.errstate(all="ignore"), one_blas_thread(), closing(command(cfg)) as artifacts:
            for count, (name, text) in enumerate(artifacts):
                if count == 0:
                    _write_atomic(out / "run_config.json", _dump_json(cfg))
                _write_atomic(out / name, text)
        return 0
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}, allow_nan=False),
              file=sys.stderr)
        if isinstance(exc, UsageError):
            return 2
        # an input file that is not text fails to decode: a data error too
        data_errors = (ParseError, DomainError, OSError, json.JSONDecodeError, UnicodeDecodeError)
        return 3 if isinstance(exc, data_errors) else 4


if __name__ == "__main__":
    sys.exit(main())
