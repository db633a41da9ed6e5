"""CLI commands: artifacts, determinism, config embedding, exit codes."""

import json
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from abrbench import (
    PolicyConfig,
    TraceModel,
    TrainConfig,
    decide_robust_mpc,
    dump_manifest,
    init_actor,
    initial_state,
    learner,
    load_trace,
    make_policy,
    observation_size,
    observe,
    policies,
    preset,
    save_checkpoint,
    save_trace,
    simulator,
    step,
    synth_trace,
)
from abrbench import cli, expert
from abrbench.cli import _TRAIN_DEFAULTS, main
from abrbench.errors import DomainError
from abrbench.media import MAX_CHUNKS, MAX_LEVELS
from abrbench.metrics import REPORT_HEADER


def read(path: Path) -> str:
    return path.read_text()


def tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture()
def trace_dir(tmp_path):
    out = tmp_path / "traces"
    rc = main([
        "synth", "--count", "3", "--seed", "100", "--mean", "2.0",
        "--volatility", "0.3", "--duration", "60", "--out", str(out),
    ])
    assert rc == 0
    return out


class TestSynth:
    def test_writes_trace_csvs_and_config(self, tmp_path):
        out = tmp_path / "o"
        assert main(["synth", "--count", "2", "--seed", "5", "--out", str(out)]) == 0
        assert (out / "synth-5.csv").exists()
        assert (out / "synth-6.csv").exists()
        config = json.loads(read(out / "run_config.json"))
        assert config["command"] == "synth"
        assert config["seed"] == 5

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["synth", "--count", "2", "--seed", "3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)


class TestSimulate:
    def test_session_log_artifact(self, tmp_path, trace_dir):
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--trace", str(trace_dir / "synth-100.csv"),
            "--policy", "buffer_based", "--manifest", "pensieve",
            "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        text = read(out / "session_synth-100_buffer_based_1.jsonl")
        lines = [json.loads(line) for line in text.strip().splitlines()]
        assert lines[-1]["record"] == "summary"
        assert lines[-1]["config"]["command"] == "simulate"
        assert len(lines) == 49  # 48 chunks + summary

    def test_deterministic_across_runs(self, tmp_path, trace_dir):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            rc = main([
                "simulate", "--trace", str(trace_dir), "--policy", "random:4",
                "--manifest", "pensieve", "--seed", "4", "--out", str(out),
            ])
            assert rc == 0
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]

    def test_regenerate_from_embedded_config(self, tmp_path, trace_dir):
        first = tmp_path / "first"
        rc = main([
            "simulate", "--trace", str(trace_dir / "synth-101.csv"),
            "--policy", "robust_mpc", "--manifest", "pensieve", "--out", str(first),
        ])
        assert rc == 0
        second = tmp_path / "second"
        rc = main([
            "simulate", "--config", str(first / "run_config.json"), "--out", str(second),
        ])
        assert rc == 0
        assert tree_bytes(first) == tree_bytes(second)

    def test_missing_trace_is_usage_error(self, tmp_path, capsys):
        # every command whose input option has no default
        for command, flag in (("simulate", "trace"), ("solve-expert", "trace"),
                              ("train", "traces"), ("evaluate", "traces"), ("rank", "report")):
            out = tmp_path / command
            capsys.readouterr()
            assert main([command, "--out", str(out)]) == 2
            assert json.loads(capsys.readouterr().err)["message"] == f"{command} needs --{flag}"
            assert not out.exists()

    def test_bad_trace_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,-2.0\n")
        rc = main([
            "simulate", "--trace", str(bad), "--policy", "buffer_based",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 3

    def test_unknown_flag_rejected(self, tmp_path, capsys):
        capsys.readouterr()
        assert main(["simulate", "--nonsense", "1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "--nonsense" in json.loads(err[0])["message"]
        assert not (tmp_path / "o").exists()


def count_observations(monkeypatch) -> list:
    """Observation vectors the sessions build, in order, through ``simulator.observe``."""
    built = []
    observe_ = simulator.observe
    monkeypatch.setattr(simulator, "observe",
                        lambda state, manifest: built.append(observe_(state, manifest)) or built[-1])
    return built


class TestObservationOnDemand:
    """A session builds the observation vector only for a policy that reads it:
    the actor, and solve-expert's labels, which record it."""

    @pytest.mark.parametrize("policy", ["buffer_based", "robust_mpc", "fixed:2", "random:3"])
    def test_a_policy_that_ignores_it_builds_none(self, tmp_path, trace_dir, monkeypatch, policy):
        built = count_observations(monkeypatch)
        assert main(["simulate", "--trace", str(trace_dir / "synth-100.csv"), "--policy", policy,
                     "--out", str(tmp_path / "o")]) == 0
        assert built == []

    def test_the_actor_builds_one_per_chunk(self, tmp_path, trace_dir, monkeypatch):
        built = count_observations(monkeypatch)
        actor = f"actor:{actor_checkpoint(tmp_path)}"
        assert main(["evaluate", "--traces", str(trace_dir / "synth-100.csv"),
                     "--policies", f"buffer_based,robust_mpc,random:1,{actor}",
                     "--seeds", "0,1", "--out", str(tmp_path / "o")]) == 0
        assert len(built) == 2 * 48  # the actor's two sessions of 48 pensieve chunks

    def test_labels_record_each_observation(self, tmp_path, trace_dir, monkeypatch):
        built = count_observations(monkeypatch)
        out = tmp_path / "o"
        assert main(["solve-expert", "--trace", str(trace_dir / "synth-100.csv"),
                     "--horizon", "2", "--behavior", "buffer_based", "--out", str(out)]) == 0
        lines = [json.loads(line) for line in read(out / "labels_synth-100.jsonl").splitlines()]
        assert [r["observation"] for r in lines if r["record"] == "label"] == [
            [float(x) for x in obs] for obs in built]
        assert len(built) == 48


class TestSolveExpert:
    def test_label_lines(self, tmp_path, trace_dir):
        out = tmp_path / "labels"
        rc = main([
            "solve-expert", "--trace", str(trace_dir / "synth-100.csv"),
            "--manifest", "pensieve", "--horizon", "4", "--out", str(out),
        ])
        assert rc == 0
        lines = [json.loads(l) for l in read(out / "labels_synth-100.jsonl").strip().splitlines()]
        labels = [l for l in lines if l["record"] == "label"]
        assert len(labels) == 48
        first = labels[0]
        assert set(first) >= {"observation", "expert_level", "adverse_level", "objective", "iterations"}
        assert len(first["observation"]) == 2 * 8 + 6 + 3
        assert 0 <= first["expert_level"] < 6
        assert 0 <= first["adverse_level"] < 6

    def test_adverse_labels_use_the_history_length(self, tmp_path, trace_dir):
        out = tmp_path / "labels"
        trace_path = trace_dir / "synth-101.csv"
        rc = main([
            "solve-expert", "--trace", str(trace_path), "--manifest", "pensieve",
            "--horizon", "3", "--history-k", "3", "--behavior", "fixed:2", "--out", str(out),
        ])
        assert rc == 0
        lines = [json.loads(l) for l in read(out / "labels_synth-101.jsonl").strip().splitlines()]
        labels = [l for l in lines if l["record"] == "label"]
        manifest, params = preset("pensieve")
        trace = load_trace(read(trace_path), id="synth-101")
        mpc_cfg = PolicyConfig(kind="robust_mpc", history_k=3)
        state = initial_state(manifest, params, history_k=3)
        for label in labels:
            assert label["observation"] == list(observe(state, manifest))
            assert label["adverse_level"] == decide_robust_mpc(state, manifest, params, mpc_cfg)
            _, state = step(state, trace, manifest, params, 2)
        assert state.terminal

    def test_robust_mpc_behaviour_uses_the_history_length(self, tmp_path):
        # at --history-k 12 a window-8 RobustMPC behaviour leaves this path
        trace = synth_trace(5, TraceModel(3.0, 0.3))
        trace_path = tmp_path / f"{trace.id}.csv"
        trace_path.write_text(save_trace(trace))
        out = tmp_path / "labels"
        rc = main([
            "solve-expert", "--trace", str(trace_path), "--manifest", "pensieve",
            "--horizon", "3", "--history-k", "12", "--behavior", "robust_mpc",
            "--out", str(out),
        ])
        assert rc == 0
        lines = [json.loads(l) for l in read(out / f"labels_{trace.id}.jsonl").strip().splitlines()]
        labels = [l for l in lines if l["record"] == "label"]
        manifest, params = preset("pensieve")
        mpc_cfg = PolicyConfig(kind="robust_mpc", history_k=12)
        state = initial_state(manifest, params, history_k=12)
        for label in labels:
            assert label["observation"] == list(observe(state, manifest))
            level = decide_robust_mpc(state, manifest, params, mpc_cfg)
            assert label["adverse_level"] == level
            _, state = step(state, trace, manifest, params, level)
        assert state.terminal

    @pytest.mark.parametrize("behavior", ["robust_mpc", "fixed:2", "buffer_based"])
    def test_one_robust_mpc_solve_per_state(self, tmp_path, trace_dir, monkeypatch, behavior):
        # A robust_mpc behaviour steps with the adverse label; other
        # behaviours still make their own decisions.
        calls = {"decide_robust_mpc": 0, "decide_buffer_based": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(learner, "decide_robust_mpc")
        counted(policies, "decide_robust_mpc")
        counted(policies, "decide_buffer_based")
        out = tmp_path / "labels"
        trace_path = trace_dir / "synth-102.csv"
        rc = main([
            "solve-expert", "--trace", str(trace_path), "--manifest", "pensieve",
            "--horizon", "2", "--behavior", behavior, "--out", str(out),
        ])
        assert rc == 0
        monkeypatch.undo()
        lines = [json.loads(l) for l in read(out / "labels_synth-102.jsonl").strip().splitlines()]
        labels = [l for l in lines if l["record"] == "label"]
        assert len(labels) == 48
        assert calls["decide_robust_mpc"] == len(labels)
        assert calls["decide_buffer_based"] == (len(labels) if behavior == "buffer_based" else 0)

        manifest, params = preset("pensieve")
        trace = load_trace(read(trace_path), id="synth-102")
        _, decide = make_policy(PolicyConfig(kind=behavior.partition(":")[0], fixed_level=2),
                                manifest, params)
        state = initial_state(manifest, params)
        for label in labels:
            obs = observe(state, manifest)
            assert label["observation"] == list(obs)
            _, state = step(state, trace, manifest, params, decide(state, obs))
        assert state.terminal


class TestTrainEvaluateRank:
    def test_pipeline(self, tmp_path, trace_dir):
        train_out = tmp_path / "train"
        rc = main([
            "train", "--traces", str(trace_dir), "--manifest", "pensieve",
            "--epochs", "2", "--horizon", "3", "--latent-dim", "4",
            "--hidden-dim", "8", "--seed", "2", "--out", str(train_out),
        ])
        assert rc == 0
        checkpoint = train_out / "checkpoint.json"
        report = json.loads(read(train_out / "report.json"))
        assert len(report["loss_ema"]) == 2
        assert report["config"]["epochs"] == 2

        eval_out = tmp_path / "eval"
        rc = main([
            "evaluate", "--traces", str(trace_dir), "--manifest", "pensieve",
            "--policies", f"buffer_based,fixed:0,actor:{checkpoint}",
            "--seeds", "0,1", "--out", str(eval_out),
        ])
        assert rc == 0
        assert read(eval_out / "report.csv").splitlines()[0] == REPORT_HEADER
        report = json.loads(read(eval_out / "report.json"))
        assert set(report["matrix"]) == {"synth-100", "synth-101", "synth-102"}

        rank_out = tmp_path / "rank"
        rc = main(["rank", "--report", str(eval_out / "report.json"), "--out", str(rank_out)])
        assert rc == 0
        lines = read(rank_out / "ranking.csv").splitlines()
        assert lines[0].startswith("policy,avg_rank,points")
        ranking = json.loads(read(rank_out / "ranking.json"))["ranking"]
        assert sum(r["points"] for r in ranking.values()) == 3 * (25 + 18 + 15)

    def test_run_config_is_written_first_and_once_per_command(self, tmp_path, trace_dir,
                                                                monkeypatch):
        written = []
        write = cli._write_atomic
        monkeypatch.setattr(cli, "_write_atomic",
                            lambda path, text: written.append(path) or write(path, text))
        traces, model, report = str(trace_dir), tmp_path / "train", tmp_path / "eval"
        for argv in (["synth", "--count", "2", "--duration", "20"],
                     ["simulate", "--trace", traces],
                     ["solve-expert", "--trace", traces, "--horizon", "2"],
                     ["bench-expert", "--n-values", "2", "--instances", "1"],
                     ["train", "--traces", traces, *SMALL_TRAIN, "--out", str(model)],
                     ["evaluate", "--traces", traces,
                      "--policies", f"buffer_based,actor:{model / 'checkpoint.json'}"],
                     ["rank", "--report", str(report / "report.json")]):
            out = report if argv[0] == "evaluate" else tmp_path / argv[0]
            assert main(argv + ["--out", str(out)]) == 0
        by_command = {}
        for path in written:
            by_command.setdefault(path.parent.name, []).append(path.name)
        assert len(by_command) == 7
        for names in by_command.values():
            assert names[0] == "run_config.json" and names.count("run_config.json") == 1
            assert len(names) > 1

    def test_train_deterministic_and_worker_invariant(self, tmp_path, trace_dir, monkeypatch):
        usable_cpus(monkeypatch, 2)  # two or more workers label states in a helper process
        outs = []
        for name, workers in (("w1", "1"), ("w1b", "1"), ("w2", "2"), ("w4", "4")):
            out = tmp_path / name
            rc = main([
                "train", "--traces", str(trace_dir / "synth-100.csv"),
                "--manifest", "pensieve", "--epochs", "2", "--horizon", "3",
                "--latent-dim", "4", "--hidden-dim", "8", "--seed", "2",
                "--workers", workers, "--out", str(out),
            ])
            assert rc == 0
            tree = tree_bytes(out)
            del tree["run_config.json"]  # workers field legitimately differs
            # strip the embedded config's workers entry as well
            checkpoint = json.loads(tree.pop("checkpoint.json"))
            report = json.loads(tree.pop("report.json"))
            checkpoint["config"].pop("workers")
            report["config"].pop("workers")
            outs.append((checkpoint, report))
            assert multiprocessing.active_children() == []
        assert outs[0] == outs[1] == outs[2] == outs[3]


# a short train run; with two usable CPUs it labels its states in a helper process
SMALL_TRAIN = ["--epochs", "2", "--horizon", "2", "--latent-dim", "4", "--hidden-dim", "8"]


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def start_marked_train(tmp_path, trace_dir, stderr):
    """A long ``train`` in its own process group, which an interrupt reaches as a
    terminal's Ctrl-C would. Each process other than the parent that labels a state
    leaves a file named by its pid in the returned directory. The child raises
    KeyboardInterrupt on SIGINT even where the test runner was started with SIGINT
    ignored, which a child would otherwise inherit."""
    marks = tmp_path / "marks"
    marks.mkdir()
    script = "\n".join([
        "import os, signal, sys",
        "from abrbench import cli, learner",
        "signal.signal(signal.SIGINT, signal.default_int_handler)",
        "parent, label_state = os.getpid(), learner.label_state",
        "def marked(*args):",
        "    if os.getpid() != parent:",
        f"        open(os.path.join({str(marks)!r}, str(os.getpid())), 'w').close()",
        "    return label_state(*args)",
        "learner.label_state = marked",
        "sys.exit(cli.main(sys.argv[1:]))",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = ["train", "--traces", str(trace_dir), "--epochs", "100000", "--horizon", "6",
            "--out", str(tmp_path / "o")]
    proc = subprocess.Popen([sys.executable, "-c", script, *argv], env=env, stderr=stderr,
                            text=True, start_new_session=True)
    return proc, marks


def wait_for_helper(proc, marks) -> int:
    """The pid of the process labelling ``proc``'s states, once it has labelled one."""
    deadline = time.monotonic() + 60.0
    while not os.listdir(marks):
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.05)
    (pid,) = os.listdir(marks)
    return int(pid)


def end_group(proc) -> None:
    """Kill whatever is left of ``proc``'s process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def actor_checkpoint(tmp_path, output_bias=None):
    manifest, _ = preset("pensieve")
    theta = init_actor(observation_size(manifest, 8), manifest.n_levels, latent_dim=4,
                       hidden_dim=8, seed=3)
    text = save_checkpoint(theta)
    if output_bias is not None:  # save_checkpoint refuses NaN, which JSON text can still hold
        doc = json.loads(text)
        doc["weights"]["dec_b2"] = [output_bias] * manifest.n_levels
        text = json.dumps(doc)
    path = tmp_path / "actor.json"
    path.write_text(text)
    return path


# a thread that dies while a command runs fails the test
@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
class TestFanOut:
    """With two or more usable CPUs, simulate, solve-expert and evaluate run
    their traces in forked processes, and train labels its states in one forked
    helper; nothing they write may depend on it."""

    @pytest.mark.parametrize("name", ["simulate", "solve-expert", "solve-expert-actor", "evaluate"])
    def test_artifacts_do_not_depend_on_the_cpu_count(self, tmp_path, trace_dir, monkeypatch,
                                                      name):
        actor = f"actor:{actor_checkpoint(tmp_path)}"
        argv = {
            "simulate": ["simulate", "--trace", str(trace_dir), "--policy", "robust_mpc"],
            "solve-expert": ["solve-expert", "--trace", str(trace_dir), "--horizon", "3"],
            "solve-expert-actor": ["solve-expert", "--trace", str(trace_dir), "--horizon", "3",
                                   "--behavior", actor],
            "evaluate": ["evaluate", "--traces", str(trace_dir), "--policies",
                         f"random:4,{actor}", "--seeds", "0,1"],
        }[name]
        pools = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: pools.append(method) or get_context(method))
        trees = []
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(argv + ["--out", str(out)]) == 0
            trees.append(tree_bytes(out))
            assert multiprocessing.active_children() == []
        assert pools == ["fork", "fork"]  # one per worker: only the two-CPU run forked
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("case", ["actor-probabilities", "second-trace", "train-label",
                                      "train-diverged-step", "malformed-trace-simulate",
                                      "malformed-trace-solve-expert", "malformed-trace-evaluate"])
    def test_a_failing_worker_fails_as_the_serial_loop_does(self, tmp_path, trace_dir, monkeypatch,
                                                            capsys, case):
        error = "DomainError"
        workers_parse = False  # whether the two-CPU run checks that its parent parses no trace
        if case.startswith("malformed-trace"):
            # the second trace, sorted, does not parse: it fails in its turn, when a worker
            # (or the serial loop) reads it, after the first trace's files are written
            (trace_dir / "synth-101.csv").write_text("0,fast\n")
            command = case.removeprefix("malformed-trace-")
            argv = {
                "simulate": ["simulate", "--trace", str(trace_dir)],
                "solve-expert": ["solve-expert", "--trace", str(trace_dir), "--horizon", "2"],
                "evaluate": ["evaluate", "--traces", str(trace_dir)],
            }[command]
            written = {
                "simulate": ["run_config.json", "session_synth-100_buffer_based_0.jsonl"],
                "solve-expert": ["labels_synth-100.jsonl", "run_config.json"],
                "evaluate": None,
            }[command]
            error, workers_parse = "ParseError", True
        elif case == "actor-probabilities":
            # every decision of this actor fails, on every trace
            actor = actor_checkpoint(tmp_path, output_bias=float("nan"))
            argv = ["simulate", "--trace", str(trace_dir), "--policy", f"actor:{actor}"]
            written = None  # no --out directory
        elif case == "train-label":
            # with two CPUs the label helper inherits the patched label_state through fork
            label_state = learner.label_state

            def failing(state, *rest):
                if state.next_chunk == 3:
                    raise DomainError("no labels at chunk 3")
                return label_state(state, *rest)

            monkeypatch.setattr(learner, "label_state", failing)
            argv = ["train", "--traces", str(trace_dir), *SMALL_TRAIN]
            written = None
        elif case == "train-diverged-step":
            # the first SGD step diverges and the next state's labels fail: a one-process
            # run reaches the step first, so both runs report the divergence
            label_state = learner.label_state

            def failing(state, *rest):
                if state.next_chunk == 2:
                    raise DomainError("no labels at chunk 2")
                return label_state(state, *rest)

            monkeypatch.setattr(learner, "label_state", failing)
            monkeypatch.setattr(learner, "_sgd_step", lambda *args: float("nan"))
            argv = ["train", "--traces", str(trace_dir), *SMALL_TRAIN]
            written = None
        else:
            # the worker inherits the patched label_state through fork
            label_state = cli.label_state

            def failing(state, trace, *rest):
                if trace.id == "synth-101":
                    raise DomainError("no labels for synth-101")
                return label_state(state, trace, *rest)

            monkeypatch.setattr(cli, "label_state", failing)
            argv = ["solve-expert", "--trace", str(trace_dir), "--horizon", "2"]
            written = ["labels_synth-100.jsonl", "run_config.json"]
        results = []
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            if cpus == 2 and workers_parse:
                load_trace, parent = cli.load_trace, os.getpid()

                def worker_only(*args, **kwargs):
                    assert os.getpid() != parent, "the parent parsed a fanned-out trace"
                    return load_trace(*args, **kwargs)

                monkeypatch.setattr(cli, "load_trace", worker_only)
            out = tmp_path / f"cpus{cpus}"
            capsys.readouterr()
            code = main(argv + ["--out", str(out)])
            tree = tree_bytes(out) if out.exists() else None
            results.append((code, capsys.readouterr().err, tree))
            assert multiprocessing.active_children() == []
        assert results[0] == results[1]
        code, err, tree = results[0]
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == error
        assert ("diverged" in json.loads(err)["message"]) == (case == "train-diverged-step")
        assert (None if tree is None else sorted(tree)) == written

    def test_a_killed_worker_ends_the_command(self, tmp_path, trace_dir, monkeypatch, capsys):
        label_state = cli.label_state
        parent = os.getpid()

        def dying(state, trace, *rest):
            if trace.id == "synth-101" and os.getpid() != parent:
                os._exit(9)
            return label_state(state, trace, *rest)

        monkeypatch.setattr(cli, "label_state", dying)
        usable_cpus(monkeypatch, 2)
        out = tmp_path / "o"
        capsys.readouterr()
        code = main(["solve-expert", "--trace", str(trace_dir), "--horizon", "2", "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 4
        assert len(err) == 1 and "worker process died" in json.loads(err[0])["message"]
        assert not (out / "labels_synth-101.jsonl").exists()
        assert multiprocessing.active_children() == []

    def test_a_failed_write_ends_the_workers(self, tmp_path, monkeypatch, capsys):
        traces = tmp_path / "traces"
        assert main(["synth", "--count", "6", "--duration", "20", "--out", str(traces)]) == 0
        write = cli._write_atomic
        raised = []  # its traceback keeps main's locals, the command's generator among them

        def failing(path, text):
            if path.name.startswith("session_"):
                raised.append(OSError(f"cannot write {path.name}"))
                raise raised[-1]
            write(path, text)

        monkeypatch.setattr(cli, "_write_atomic", failing)
        usable_cpus(monkeypatch, 2)
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["simulate", "--trace", str(traces), "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "OSError"
        alive = multiprocessing.active_children()
        raised.clear()  # so that a generator left open is closed now, not at exit
        assert alive == []
        assert os.listdir(out) == ["run_config.json"]

    def test_a_killed_label_helper_ends_train(self, tmp_path, trace_dir, monkeypatch, capsys):
        label_state = learner.label_state
        parent = os.getpid()

        def dying(state, *rest):
            if state.next_chunk == 3 and os.getpid() != parent:
                os._exit(9)
            return label_state(state, *rest)

        monkeypatch.setattr(learner, "label_state", dying)
        usable_cpus(monkeypatch, 2)
        out = tmp_path / "o"
        capsys.readouterr()
        code = main(["train", "--traces", str(trace_dir), *SMALL_TRAIN, "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 4
        assert len(err) == 1 and "worker process died" in json.loads(err[0])["message"]
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_every_worker_forks_while_the_parent_has_one_thread(self, tmp_path, trace_dir,
                                                                monkeypatch):
        # a fork while another thread runs may copy a lock that thread holds
        threads = []
        fork = os.fork

        def counted_fork():
            threads.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        usable_cpus(monkeypatch, 2)
        assert main(["simulate", "--trace", str(trace_dir), "--out", str(tmp_path / "o")]) == 0
        assert main(["train", "--traces", str(trace_dir), *SMALL_TRAIN,
                     "--out", str(tmp_path / "t")]) == 0
        assert threads == [1, 1, 1]  # two fan-out workers, then train's label helper
        assert multiprocessing.active_children() == []

    def test_a_failing_first_trace_cancels_the_traces_not_yet_handed_out(self, tmp_path,
                                                                        monkeypatch, capsys):
        traces = tmp_path / "traces"
        assert main(["synth", "--count", "8", "--duration", "20", "--out", str(traces)]) == 0
        started = tmp_path / "started"
        started.mkdir()
        session = cli._session

        def slow(factory, trace, *rest):
            (started / trace.id).touch()
            if trace.id == "synth-0":
                raise DomainError("no session for synth-0")
            time.sleep(0.5)
            return session(factory, trace, *rest)

        monkeypatch.setattr(cli, "_session", slow)
        usable_cpus(monkeypatch, 2)
        capsys.readouterr()
        assert main(["simulate", "--trace", str(traces), "--out", str(tmp_path / "o")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
        assert "synth-0" in os.listdir(started)
        assert len(os.listdir(started)) < 8
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(cli._usable_cpus() < 2, reason="the fan-out needs two usable CPUs")
    def test_an_interrupt_ends_the_workers_at_once(self, tmp_path):
        traces = tmp_path / "traces"
        assert main(["synth", "--count", "8", "--duration", "20", "--out", str(traces)]) == 0
        started = tmp_path / "started"
        started.mkdir()
        # a session that marks its trace, then outlasts the test; a Ctrl-C raises
        # KeyboardInterrupt even if the runner was started with SIGINT ignored
        script = "\n".join([
            "import signal, sys, time",
            "from abrbench import cli",
            "signal.signal(signal.SIGINT, signal.default_int_handler)",
            "def slow(factory, trace, *rest):",
            f"    open({str(started)!r} + '/' + trace.id, 'w').close()",
            "    time.sleep(60)",
            "cli._session = slow",
            "sys.exit(cli.main(sys.argv[1:]))",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        argv = ["simulate", "--trace", str(traces), "--out", str(tmp_path / "o")]
        # its own process group, which the interrupt reaches as a terminal's Ctrl-C would
        proc = subprocess.Popen([sys.executable, "-c", script, *argv], env=env,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            deadline = time.monotonic() + 60.0
            while len(os.listdir(started)) < min(8, cli._usable_cpus()):  # every worker is busy
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            begin = time.monotonic()
            os.killpg(proc.pid, signal.SIGINT)
            err = proc.communicate(timeout=30.0)[1]
            elapsed = time.monotonic() - begin
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert proc.returncode == -signal.SIGINT  # an uncaught KeyboardInterrupt, as before
        assert err.rstrip().endswith("KeyboardInterrupt") and "Exception in thread" not in err
        assert elapsed < 5.0
        with pytest.raises(ProcessLookupError):  # no worker outlived the command
            os.killpg(proc.pid, 0)
        assert not (tmp_path / "o").exists()  # no session had finished

    @pytest.mark.skipif(cli._usable_cpus() < 2, reason="the label helper needs two usable CPUs")
    def test_an_interrupt_ends_train_and_its_helper_at_once(self, tmp_path, trace_dir):
        proc, marks = start_marked_train(tmp_path, trace_dir, subprocess.PIPE)
        try:
            helper = wait_for_helper(proc, marks)
            os.kill(helper, signal.SIGINT)  # the helper ignores a Ctrl-C; had it died, train
            time.sleep(0.2)                 # would have exited 4 at once
            assert proc.poll() is None
            begin = time.monotonic()
            os.killpg(proc.pid, signal.SIGINT)
            err = proc.communicate(timeout=30.0)[1]
            elapsed = time.monotonic() - begin
        finally:
            end_group(proc)
        assert proc.returncode == -signal.SIGINT
        # one traceback, the parent's: the helper ignores SIGINT and is ended by its parent
        assert err.count("Traceback") == 1 and err.rstrip().endswith("KeyboardInterrupt")
        assert elapsed < 2.0
        with pytest.raises(ProcessLookupError):  # the helper did not outlive the command
            os.killpg(proc.pid, 0)

    @pytest.mark.skipif(cli._usable_cpus() < 2 or not Path("/proc/self/stat").exists(),
                        reason="the label helper needs two usable CPUs; the check reads /proc")
    def test_a_killed_train_leaves_no_helper(self, tmp_path, trace_dir):
        proc, marks = start_marked_train(tmp_path, trace_dir, subprocess.DEVNULL)
        try:
            helper = wait_for_helper(proc, marks)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30.0)
            deadline = time.monotonic() + 1.0  # the helper sees the pipe's end close
            while running(helper) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not running(helper)
        finally:
            end_group(proc)

    @pytest.mark.skipif(cli._usable_cpus() < 2 or not Path("/proc/self/stat").exists(),
                        reason="the fan-out needs two usable CPUs; the check reads /proc")
    def test_a_killed_fan_out_leaves_no_worker(self, tmp_path):
        traces = tmp_path / "traces"
        assert main(["synth", "--count", "8", "--duration", "20", "--out", str(traces)]) == 0
        marks = tmp_path / "marks"
        marks.mkdir()
        sleep_s = 3.0
        # a session that marks its worker, then sleeps before it runs
        script = "\n".join([
            "import os, sys, time",
            "from abrbench import cli",
            "session = cli._session",
            "def slow(*args):",
            f"    open(os.path.join({str(marks)!r}, str(os.getpid())), 'w').close()",
            f"    time.sleep({sleep_s})",
            "    return session(*args)",
            "cli._session = slow",
            "sys.exit(cli.main(sys.argv[1:]))",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        argv = ["simulate", "--trace", str(traces), "--out", str(tmp_path / "o")]
        proc = subprocess.Popen([sys.executable, "-c", script, *argv], env=env,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            deadline = time.monotonic() + 60.0
            while len(os.listdir(marks)) < min(8, cli._usable_cpus()):  # every worker is busy
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30.0)
            # each worker ends its current trace, sees the pipe's end close and exits
            deadline = time.monotonic() + sleep_s + 1.0
            workers = [int(pid) for pid in os.listdir(marks)]
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not any(map(running, workers))
        finally:
            end_group(proc)

    def test_traces_go_out_one_at_a_time_and_come_back_in_order(self, monkeypatch):
        def run(index):
            time.sleep(1.0 if index == 0 else 0.02)  # per-trace cost is heavy-tailed
            return index, os.getpid()

        usable_cpus(monkeypatch, 2)
        results = list(cli._per_trace(run, list(range(8))))
        assert [index for index, _pid in results] == list(range(8))
        first = results[0][1]
        assert first != os.getpid()
        assert first not in {pid for _index, pid in results[1:]}  # its worker ran no other
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(cli._usable_cpus() < 2, reason="the fan-out needs two usable CPUs")
    def test_a_worker_with_no_trace_left_ends_at_once(self, monkeypatch):
        def cpu_s():
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)  # joined workers only
            return usage.ru_utime + usage.ru_stime

        usable_cpus(monkeypatch, 2)
        before = cpu_s()
        assert list(cli._per_trace(time.sleep, [0.1, 1.5])) == [None, None]
        # the first worker idles for 1.4 s; had it polled until the end, that is its CPU time
        assert cpu_s() - before < 0.5
        assert multiprocessing.active_children() == []

    def test_train_without_a_cpu_to_spare_starts_no_process(self, tmp_path, trace_dir,
                                                            monkeypatch):
        def no_process(*args):
            raise AssertionError("train started a process without a CPU to spare")

        monkeypatch.setattr(multiprocessing, "get_context", no_process)
        monkeypatch.setattr(os, "fork", no_process)
        argv = ["train", "--traces", str(trace_dir), *SMALL_TRAIN]
        usable_cpus(monkeypatch, 2)
        assert main(argv + ["--workers", "1", "--out", str(tmp_path / "one-worker")]) == 0
        usable_cpus(monkeypatch, 1)
        assert main(argv + ["--out", str(tmp_path / "one-cpu")]) == 0

    def test_import_leaves_the_environment_unchanged(self):
        # the BLAS cap is set at run time, so importing the package changes nothing a
        # subprocess of the caller would inherit
        script = """if True:
            import json, os
            before = dict(os.environ)
            import abrbench
            print(json.dumps(dict(os.environ) == before))
        """
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert json.loads(done.stdout) is True

    @pytest.mark.skipif(cli._usable_cpus() < 2 or not Path("/proc/self/task").exists(),
                        reason="OpenBLAS starts no extra thread on one CPU; the check reads /proc")
    def test_a_fan_out_worker_runs_one_thread(self, tmp_path, trace_dir):
        # numpy imported first starts a BLAS thread per CPU; under main's cap, and with
        # OpenBLAS shutting its pool down over the fork, each worker runs one thread alone
        script = """if True:
            import json, os, sys
            import numpy
            from abrbench import cli, workers
            blas = workers._loaded_blas()
            if blas is None:
                print(json.dumps(None))
                sys.exit()

            def threads(log, config):  # run in the worker, in place of the session file
                seen = [os.getpid(), len(os.listdir("/proc/self/task")), blas[1]()]
                return json.dumps(seen)

            cli.session_to_jsonl = threads
            before = blas[1]()
            assert cli.main(sys.argv[1:]) == 0
            print(json.dumps({"parent": os.getpid(), "before": before, "after": blas[1]()}))
        """
        two = tmp_path / "two"
        two.mkdir()
        for path in sorted(trace_dir.glob("*.csv"))[:2]:
            (two / path.name).write_text(path.read_text())
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        out = tmp_path / "o"
        done = subprocess.run([sys.executable, "-c", script, "simulate", "--trace", str(two),
                               "--out", str(out)], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        got = json.loads(done.stdout.splitlines()[-1])
        if got is None:
            pytest.skip("no BLAS with a known thread-count entry point is loaded")
        assert got["before"] > 1  # numpy came first, so its BLAS runs a thread per CPU
        assert got["after"] == got["before"]
        seen = [json.loads(path.read_text()) for path in sorted(out.glob("session_*.jsonl"))]
        assert len(seen) == 2
        for pid, tasks, blas_threads in seen:
            assert pid != got["parent"]
            assert (tasks, blas_threads) == (1, 1)

    @pytest.mark.skipif(cli._usable_cpus() < 2, reason="train starts its helper on 2 CPUs only")
    def test_train_caps_a_blas_loaded_before_the_package(self, tmp_path, trace_dir):
        # numpy imported first keeps a BLAS thread per CPU; main caps it at one for the SGD
        # steps, with or without the helper, and restores it after; the weights do not change
        script = """if True:
            import json, sys
            import numpy
            from abrbench import cli, learner, workers
            blas = workers._loaded_blas()
            if blas is None:
                print(json.dumps(None))
                sys.exit()
            get_threads = blas[1]
            before = get_threads()
            seen = {}
            sgd_step = learner._sgd_step

            def counted(*args):
                seen[workers_arg] = seen.get(workers_arg, set()) | {get_threads()}
                return sgd_step(*args)

            learner._sgd_step = counted
            for workers_arg in ("2", "1"):
                argv = [*sys.argv[1:], "--workers", workers_arg, "--out", "out" + workers_arg]
                assert cli.main(argv) == 0
            print(json.dumps({"before": before, "after": get_threads(),
                              **{w: sorted(counts) for w, counts in seen.items()}}))
        """
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", script, "train", "--traces", str(trace_dir),
                               *SMALL_TRAIN], env=env, cwd=tmp_path, capture_output=True,
                              text=True, timeout=120, check=True)
        got = json.loads(done.stdout.splitlines()[-1])
        if got is None:
            pytest.skip("no BLAS with a known thread-count entry point is loaded")
        assert got["before"] > 1  # numpy came first, so its BLAS runs a thread per CPU
        assert got["2"] == [1]
        assert got["1"] == [1]
        assert got["after"] == got["before"]
        weights = [json.loads((tmp_path / f"out{w}" / "checkpoint.json").read_text())["weights"]
                   for w in "21"]
        assert weights[0] == weights[1]

    def test_one_trace_or_one_cpu_starts_no_process(self, tmp_path, trace_dir, monkeypatch):
        def no_process(*args):
            raise AssertionError("a one-trace or one-CPU command started a process")

        monkeypatch.setattr(multiprocessing, "get_context", no_process)
        monkeypatch.setattr(os, "fork", no_process)

        def run(trace, label):
            for argv in (["simulate", "--trace", trace],
                         ["solve-expert", "--trace", trace, "--horizon", "2"],
                         ["evaluate", "--traces", trace]):
                assert main(argv + ["--out", str(tmp_path / label / argv[0])]) == 0

        usable_cpus(monkeypatch, 2)
        run(str(trace_dir / "synth-100.csv"), "one-trace")
        usable_cpus(monkeypatch, 1)
        run(str(trace_dir), "one-cpu")
        monkeypatch.delattr(os, "sched_getaffinity")  # platforms without CPU affinity
        run(str(trace_dir), "no-affinity")


class TestBenchExpert:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "bench"
        rc = main([
            "bench-expert", "--n-values", "2,3", "--instances", "2",
            "--manifest", "pensieve", "--solvers", "ao,enum,dp",
            "--dp-grid", "1.0", "--out", str(out),
        ])
        assert rc == 0
        lines = read(out / "bench.csv").strip().splitlines()
        assert lines[0] == "solver,n,mean_ms,objective_gap"
        assert len(lines) == 1 + 3 * 2
        for line in lines[1:]:
            solver, n, mean_ms, gap = line.split(",")
            assert solver in {"ao", "enum", "dp"}
            assert float(mean_ms) >= 0.0
        # enumeration is the ground truth: zero gap
        enum_rows = [l for l in lines[1:] if l.startswith("enum,")]
        assert all(float(row.split(",")[3]) == 0.0 for row in enum_rows)

    def test_deterministic_apart_from_timings(self, tmp_path):
        def normalized(root):
            rows = read(root / "bench.csv").strip().splitlines()
            return [",".join(c for i, c in enumerate(r.split(",")) if i != 2) for r in rows]

        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["bench-expert", "--n-values", "2", "--instances", "2", "--solvers", "ao,enum"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert normalized(a) == normalized(b)
        assert read(a / "run_config.json") == read(b / "run_config.json")

    def test_dp_beyond_its_state_budget_exits_2_and_writes_nothing(self, tmp_path, monkeypatch,
                                                                    capsys):
        # no states merge on this grid, so the 6-level ladder's third layer holds 216 of them;
        # the n = 2 instance solves first, and still nothing is written
        monkeypatch.setattr(expert, "DP_STATE_BUDGET", 100)
        out = tmp_path / "bench"
        capsys.readouterr()
        assert main(["bench-expert", "--solvers", "ao,dp", "--dp-grid", "1e-6",
                     "--n-values", "2,4", "--instances", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "BudgetError"
        assert "DP layer 3 exceeds the budget of 100" in json.loads(err[0])["message"]
        assert not out.exists()


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"count": 1, "seed": 50, "out": str(tmp_path / "ignored")}))
        out = tmp_path / "actual"
        rc = main(["synth", "--config", str(config), "--seed", "60", "--out", str(out)])
        assert rc == 0
        assert (out / "synth-60.csv").exists()
        resolved = json.loads(read(out / "run_config.json"))
        assert resolved["seed"] == 60
        assert resolved["count"] == 1

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"bogus": 1}))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


def _nan_weight_manifest(tmp_path):
    manifest, params = preset("pensieve", chunk_count=6)
    doc = json.loads(dump_manifest(manifest, params))
    doc["alpha1"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    return path


def _text_ladder_manifest(tmp_path):
    manifest, params = preset("pensieve", chunk_count=6)
    doc = json.loads(dump_manifest(manifest, params))
    doc["bitrates_mbps"] = "abc"
    path = tmp_path / "text.json"
    path.write_text(json.dumps(doc))
    return path


def _weightless_checkpoint(tmp_path):
    doc = json.loads(save_checkpoint(init_actor(25, 6, latent_dim=2, hidden_dim=2)))
    del doc["weights"]
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(doc))
    return path


def _nan_duration_manifest(tmp_path):
    manifest, params = preset("pensieve", chunk_count=6)
    doc = json.loads(dump_manifest(manifest, params))  # explicit chunk_sizes_mb
    doc["chunk_duration_s"] = float("nan")
    path = tmp_path / "nan-duration.json"
    path.write_text(json.dumps(doc))
    return path


def _huge_weight_manifest(tmp_path):
    manifest, params = preset("pensieve", chunk_count=1)
    doc = json.loads(dump_manifest(manifest, params))
    doc["alpha1"] = 1.3e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return path


def _constant_trace(tmp_path):
    path = tmp_path / "constant.csv"
    path.write_text("0,1.1\n100,1.1\n")
    return path


def _overflow_manifest(tmp_path):
    """Eight pensieve chunks where any rebuffering costs 1e308 a second: a chunk that takes
    longer than the buffer holds makes the expert's objective -inf."""
    manifest, params = preset("pensieve", chunk_count=8)
    doc = json.loads(dump_manifest(manifest, params))
    doc["alpha1"] = 1e308
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    return path


def _slow_constant_trace(tmp_path):
    path = tmp_path / "slow.csv"
    path.write_text("0,0.68\n")
    return path


def _actor_only(tmp_path, command, history_k):
    """``command`` with an actor alone, whose checkpoint fits four pensieve chunks at
    ``history_k``, so no policy config sees the history length."""
    manifest, params = preset("pensieve", chunk_count=4)
    manifest_path = tmp_path / "four.json"
    manifest_path.write_text(dump_manifest(manifest, params))
    theta = init_actor(observation_size(manifest, history_k), manifest.n_levels, latent_dim=2,
                       hidden_dim=2)
    checkpoint = tmp_path / "wide.json"
    checkpoint.write_text(save_checkpoint(theta))
    trace = str(_constant_trace(tmp_path))
    inputs = ["--trace", trace, "--policy"] if command == "simulate" else ["--traces", trace,
                                                                         "--policies"]
    return [command, *inputs, f"actor:{checkpoint}", "--manifest", str(manifest_path),
            "--history-k", str(history_k)]


def _history_4_checkpoint(tmp_path):
    manifest, _ = preset("pensieve")
    theta = init_actor(observation_size(manifest, 4), manifest.n_levels, latent_dim=2, hidden_dim=2)
    path = tmp_path / "k4.json"
    path.write_text(save_checkpoint(theta))
    return path


def _edited_checkpoint(tmp_path, edit):
    """A pensieve-sized checkpoint (latent 4, hidden 16) whose JSON text ``edit`` changed."""
    manifest, _ = preset("pensieve")
    theta = init_actor(observation_size(manifest, 8), manifest.n_levels, latent_dim=4,
                       hidden_dim=16)
    path = tmp_path / "edited.json"
    path.write_text(edit(save_checkpoint(theta)))
    return path


def _edit_weight(name, value):
    def edit(text):
        doc = json.loads(text)
        doc["weights"][name] = value(doc["weights"][name])
        return json.dumps(doc)
    return edit


def _json_file(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))  # NaN is written as the JSON extension NaN
    return path


def _not_utf8(tmp_path, name, data=b'{"id": "\xff"}'):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def _huge_chunk_count_manifest(tmp_path):
    manifest, params = preset("pensieve", chunk_count=6)
    doc = json.loads(dump_manifest(manifest, params))
    doc["chunk_count"], doc["chunk_sizes_mb"] = 1e14, None
    return _json_file(tmp_path, doc)


def _too_many_levels_manifest(tmp_path):
    """A ladder one level longer than allowed, null sizes and the most chunks allowed."""
    manifest, params = preset("pensieve", chunk_count=6)
    doc = json.loads(dump_manifest(manifest, params))
    doc["bitrates_mbps"] = [0.1 * (k + 1) for k in range(MAX_LEVELS + 1)]
    doc["chunk_count"], doc["chunk_sizes_mb"] = MAX_CHUNKS, None
    return _json_file(tmp_path, doc)


def _ladder_manifest(tmp_path, rates):
    """The pensieve manifest with the comma-separated ladder ``rates`` and null sizes."""
    manifest, params = preset("pensieve", chunk_count=6)
    doc = json.loads(dump_manifest(manifest, params))
    doc["bitrates_mbps"] = [float(r) for r in rates.split(",")]
    doc["chunk_sizes_mb"] = None
    return _json_file(tmp_path, doc)


def _long_one_level_manifest(tmp_path):
    """One level and more chunks than Python's recursion limit: no horizon is truncated
    below it, and a horizon search is cheap until it recurses once per chunk."""
    manifest, params = preset("pensieve", chunk_count=6)
    doc = json.loads(dump_manifest(manifest, params))
    doc["bitrates_mbps"] = doc["bitrates_mbps"][:1]
    doc["chunk_count"], doc["chunk_sizes_mb"] = sys.getrecursionlimit() + 200, None
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    return path


class TestMalformedInput:
    @pytest.mark.parametrize("case,code,needle", [
        ("policy-spec", 2, "fixed:x"),
        ("policy-spec", 2, "buffer_based:junk"),
        ("policy-spec", 2, "robust_mpc:7"),
        ("manifest-field", 3, "bitrates_mbps"),
        ("nan-weight", 3, "finite"),
        ("checkpoint-weights", 3, "weights"),
        ("config-type", 2, "epochs"),
        ("config-bool", 2, "got True"),
        ("workers-zero", 3, "workers"),
        ("seed-list", 2, "x,1"),
        ("nan-duration-simulate", 3, "finite"),
        ("nan-duration-solve", 3, "finite"),
        ("train-nan-learning-rate", 3, "finite"),
        ("train-nan-beta", 3, "finite"),
        ("train-negative-learning-rate", 3, "learning rate"),
        ("evaluate-nan-reservoir", 3, "finite"),
        ("evaluate-inf-start-offset", 3, "finite"),
        ("simulate-nan-start-offset", 3, "finite"),
        ("simulate-inf-cushion", 3, "finite"),
        ("synth-nan-mean", 3, "finite"),
        ("bench-nan-dp-grid", 3, "finite"),
        ("bench-inf-mean", 3, "finite"),
        ("bench-unknown-solver", 2, "foo"),
        ("config-infinity", 3, "finite"),
        ("config-nan", 3, "finite"),
        ("checkpoint-shape", 3, "obs_dim 17"),
        ("checkpoint-short-rows", 3, "enc_w1"),
        ("checkpoint-scalar-bias", 3, "enc_b1"),
        ("checkpoint-overflowing-seed", 3, "seed"),
        ("checkpoint-non-number-weights", 3, "'enc_b1' must hold only numbers"),
        ("rank-row", 3, "trace 't'"),
        ("rank-cell", 3, "trace 't'"),
        ("rank-list", 3, "no QoE matrix"),
        ("rank-nan", 3, "trace 't'"),
        ("rank-empty-matrix", 3, "no QoE matrix"),
        ("rank-empty-row", 3, "trace 't'"),
        ("rank-other-policies", 3, "trace 't'"),
        ("rank-seven-policies", 2, "at most 6"),
        ("rank-report-directory", 3, "Is a directory"),
        ("synth-config-directory", 3, "Is a directory"),
        # sizes beyond their maxima fail before anything is allocated or written
        ("synth-huge-duration", 3, "100000 samples"),
        ("synth-huge-count", 3, "count"),
        ("synth-negative-count", 3, "count"),
        ("train-huge-history", 3, "history_k"),
        ("train-huge-hidden-dim", 3, "layer sizes"),
        ("train-huge-latent-dim", 3, "layer sizes"),
        ("train-huge-minibatch", 3, "minibatch"),
        ("simulate-huge-history", 3, "history length"),
        ("evaluate-huge-history", 3, "history length"),
        # an actor alone builds no policy config: the session refuses the history length
        ("simulate-actor-history", 3, "history length"),
        ("evaluate-actor-history", 3, "history length"),
        ("manifest-huge-chunk-count", 3, "chunk_count"),
        ("manifest-too-many-levels", 3, "bitrates_mbps"),
        # a repeated or out-of-order rate, ascending or descending
        ("ladder-3,2,2", 3, "bitrate"),
        ("ladder-1,1,2", 3, "bitrate"),
        ("ladder-1,3,2", 3, "bitrate"),
        # horizons beyond the bound, and seeds a command would use outside [0, 2**63)
        ("simulate-huge-mpc-horizon", 3, "mpc horizon"),
        ("solve-huge-horizon", 3, "horizon"),
        ("bench-huge-n-value", 3, "n value"),
        ("train-huge-horizon", 3, "horizon"),
        ("synth-negative-seed", 3, "seed"),
        ("synth-huge-seed", 3, "seed"),
        ("bench-negative-seed", 3, "seed"),
        ("bench-zero-instances", 3, "instances"),
        ("simulate-huge-seed", 3, "seed"),
        ("evaluate-negative-seed", 3, "seed"),
        ("evaluate-huge-seed", 3, "seed"),
        ("simulate-huge-random-seed", 3, "seed"),
        ("train-huge-seed", 3, "seed"),
        # a list option needs one or more entries, none repeated
        ("bench-no-solvers", 2, "distinct"),
        ("bench-no-n-values", 2, "distinct"),
        ("bench-repeated-solver", 2, "ao,ao,enum"),
        ("evaluate-no-policies", 2, "distinct"),
        ("evaluate-repeated-seed", 2, "0,0"),
        # every solver's objective is -inf; the expert refuses it before bench.csv exists
        ("bench-overflow-ao", 3, "expert objective"),
        ("bench-overflow-enum", 3, "expert objective"),
        ("bench-overflow-dp", 3, "expert objective"),
        ("train-overflow", 3, "expert objective"),
        # every input file the CLI reads: one that is not UTF-8 text is a data error
        ("non-utf8-trace", 3, "0xff"),
        ("non-utf8-manifest", 3, "0xff"),
        ("non-utf8-config", 3, "0xff"),
        ("non-utf8-report", 3, "0xff"),
        ("non-utf8-checkpoint", 3, "0xff"),
    ])
    def test_exit_code_and_one_json_line(self, tmp_path, trace_dir, capsys, case, code, needle):
        trace = str(trace_dir / "synth-100.csv")
        out = tmp_path / "o"

        def rank(report):
            return ["rank", "--report", str(_json_file(tmp_path, report))]

        def actor(edit):
            return ["evaluate", "--traces", trace,
                    "--policies", f"actor:{_edited_checkpoint(tmp_path, edit)}"]

        argv = {
            "policy-spec": lambda: ["simulate", "--trace", trace, "--policy", needle],
            "manifest-field": lambda: ["simulate", "--trace", trace,
                                       "--manifest", str(_text_ladder_manifest(tmp_path))],
            "nan-weight": lambda: ["simulate", "--trace", trace, "--policy", "buffer_based",
                                   "--manifest", str(_nan_weight_manifest(tmp_path))],
            "checkpoint-weights": lambda: [
                "evaluate", "--traces", trace,
                "--policies", f"actor:{_weightless_checkpoint(tmp_path)}",
            ],
            "config-type": lambda: ["train", "--traces", trace,
                                    "--config", str(_json_file(tmp_path, {"epochs": "abc"}))],
            "config-bool": lambda: ["train", "--traces", trace,
                                    "--config", str(_json_file(tmp_path, {"epochs": True}))],
            "workers-zero": lambda: ["train", "--traces", trace, "--workers", "0"],
            "seed-list": lambda: ["evaluate", "--traces", trace, "--seeds", "x,1"],
            "nan-duration-simulate": lambda: [
                "simulate", "--trace", trace, "--policy", "robust_mpc",
                "--manifest", str(_nan_duration_manifest(tmp_path)),
            ],
            "nan-duration-solve": lambda: [
                "solve-expert", "--trace", trace, "--horizon", "2",
                "--manifest", str(_nan_duration_manifest(tmp_path)),
            ],
            "train-nan-learning-rate": lambda: ["train", "--traces", trace,
                                                "--learning-rate", "nan"],
            "train-nan-beta": lambda: ["train", "--traces", trace, "--beta", "nan"],
            "train-negative-learning-rate": lambda: ["train", "--traces", trace,
                                                     "--learning-rate", "-1"],
            "evaluate-nan-reservoir": lambda: ["evaluate", "--traces", trace, "--reservoir", "nan"],
            "evaluate-inf-start-offset": lambda: ["evaluate", "--traces", trace,
                                                  "--start-offset", "inf"],
            "simulate-nan-start-offset": lambda: ["simulate", "--trace", trace,
                                                  "--start-offset", "nan"],
            "simulate-inf-cushion": lambda: ["simulate", "--trace", trace, "--cushion", "inf"],
            "synth-nan-mean": lambda: ["synth", "--mean", "nan"],
            "bench-nan-dp-grid": lambda: ["bench-expert", "--solvers", "dp", "--dp-grid", "nan"],
            "bench-inf-mean": lambda: ["bench-expert", "--mean", "inf"],
            "bench-unknown-solver": lambda: ["bench-expert", "--solvers", "ao,foo"],
            "config-infinity": lambda: [  # json writes inf as the JSON extension Infinity
                "synth", "--config", str(_json_file(tmp_path, {"mean": float("inf")}))],
            "config-nan": lambda: [
                "synth", "--config", str(_json_file(tmp_path, {"duration": float("nan")}))],
            "checkpoint-shape": lambda: [
                "evaluate", "--traces", trace,
                "--policies", f"actor:{_history_4_checkpoint(tmp_path)}",
            ],
            # arrays numpy would broadcast, or run as a malformed network, and an overflowing seed
            "checkpoint-short-rows": lambda: actor(_edit_weight("enc_w1",
                                                                lambda w: [r[:8] for r in w])),
            "checkpoint-scalar-bias": lambda: actor(_edit_weight("enc_b1", lambda b: 5)),
            "checkpoint-overflowing-seed": lambda: actor(
                lambda text: text.replace('"seed": 0', '"seed": 1e999')),
            # numpy reads null as NaN and "1.5" or true as numbers
            "checkpoint-non-number-weights": lambda: actor(_edit_weight("enc_b1",
                                                                        lambda b: [None, "1.5", True])),
            "rank-row": lambda: rank({"matrix": {"t": 5}}),
            "rank-cell": lambda: rank({"matrix": {"t": {"a": 1.0, "b": "x"}}}),
            "rank-list": lambda: rank(["matrix"]),
            "rank-nan": lambda: rank({"matrix": {"t": {"a": float("nan"), "b": 1.0}}}),
            "rank-empty-matrix": lambda: rank({"matrix": {}}),
            "rank-empty-row": lambda: rank({"matrix": {"t": {}}}),
            "rank-other-policies": lambda: rank({"matrix": {"s": {"a": 1.0}, "t": {"b": 1.0}}}),
            "rank-seven-policies": lambda: rank({"matrix": {"t": dict.fromkeys("abcdefg", 1.0)}}),
            "rank-report-directory": lambda: ["rank", "--report", str(trace_dir)],
            "synth-config-directory": lambda: ["synth", "--config", str(trace_dir)],
            "synth-huge-duration": lambda: ["synth", "--duration", "1e18"],
            "synth-huge-count": lambda: ["synth", "--count", "1000000000000"],
            "synth-negative-count": lambda: ["synth", "--count", "-3"],
            "train-huge-history": lambda: ["train", "--traces", trace,
                                           "--history-k", "1000000000000"],
            "train-huge-hidden-dim": lambda: ["train", "--traces", trace,
                                              "--hidden-dim", "10000000000"],
            "train-huge-latent-dim": lambda: ["train", "--traces", trace,
                                              "--latent-dim", "10000000000"],
            "train-huge-minibatch": lambda: ["train", "--traces", trace,
                                             "--minibatch", "1000000000000000"],
            "simulate-huge-history": lambda: ["simulate", "--trace", trace,
                                              "--history-k", "1000000000000"],
            "evaluate-huge-history": lambda: ["evaluate", "--traces", trace,
                                              "--history-k", "1000000000000"],
            "simulate-actor-history": lambda: _actor_only(tmp_path, "simulate", 1001),
            "evaluate-actor-history": lambda: _actor_only(tmp_path, "evaluate", 1001),
            "manifest-huge-chunk-count": lambda: [
                "simulate", "--trace", trace,
                "--manifest", str(_huge_chunk_count_manifest(tmp_path))],
            "manifest-too-many-levels": lambda: [
                "simulate", "--trace", trace,
                "--manifest", str(_too_many_levels_manifest(tmp_path))],
            **{f"ladder-{rates}": lambda rates=rates: [
                "simulate", "--trace", trace,
                "--manifest", str(_ladder_manifest(tmp_path, rates))]
               for rates in ("3,2,2", "1,1,2", "1,3,2")},
            "simulate-huge-mpc-horizon": lambda: [
                "simulate", "--trace", trace, "--manifest", str(_long_one_level_manifest(tmp_path)),
                "--policy", "robust_mpc", "--mpc-horizon", "1200"],
            "solve-huge-horizon": lambda: [
                "solve-expert", "--trace", trace,
                "--manifest", str(_long_one_level_manifest(tmp_path)), "--horizon", "1200"],
            "bench-huge-n-value": lambda: [
                "bench-expert", "--manifest", str(_long_one_level_manifest(tmp_path)),
                "--n-values", "2000", "--solvers", "ao"],
            "train-huge-horizon": lambda: [
                "train", "--traces", trace, "--manifest", str(_long_one_level_manifest(tmp_path)),
                "--horizon", "1200", "--epochs", "1"],
            "synth-negative-seed": lambda: ["synth", "--seed", "-1"],
            # a trace file name would exceed 255 bytes
            "synth-huge-seed": lambda: ["synth",
                                        "--config", str(_json_file(tmp_path, {"seed": 1e300}))],
            # the first instance's seed is seed + 1000 * n
            "bench-negative-seed": lambda: ["bench-expert", "--seed", "-3000", "--n-values", "2"],
            "bench-zero-instances": lambda: ["bench-expert", "--instances", "0", "--n-values", "2"],
            # a session file name would exceed 255 bytes
            "simulate-huge-seed": lambda: [
                "simulate", "--trace", trace,
                "--config", str(_json_file(tmp_path, {"seed": 1e300}))],
            "evaluate-negative-seed": lambda: ["evaluate", "--traces", trace, "--seeds=-1"],
            "evaluate-huge-seed": lambda: ["evaluate", "--traces", trace,
                                           "--seeds", f"0,{2**63}"],
            # the policy id names the session file, which would exceed 255 bytes
            "simulate-huge-random-seed": lambda: ["simulate", "--trace", trace,
                                                  "--policy", "random:" + "9" * 300],
            "train-huge-seed": lambda: ["train", "--traces", trace,
                                        "--seed", "99999999999999999999999"],
            "bench-no-solvers": lambda: ["bench-expert", "--solvers", ""],
            "bench-no-n-values": lambda: ["bench-expert", "--n-values", ""],
            "bench-repeated-solver": lambda: ["bench-expert", "--solvers", "ao,ao,enum",
                                              "--n-values", "3", "--instances", "3"],
            "evaluate-no-policies": lambda: ["evaluate", "--traces", trace, "--policies", ""],
            "evaluate-repeated-seed": lambda: ["evaluate", "--traces", trace, "--seeds", "0,0"],
            **{f"bench-overflow-{solver}": lambda solver=solver: [
                "bench-expert", "--manifest", str(_overflow_manifest(tmp_path)), "--mean", "0.4",
                "--solvers", solver, "--n-values", "2", "--instances", "1",
            ] for solver in ("ao", "enum", "dp")},
            "train-overflow": lambda: [
                "train", "--traces", str(_slow_constant_trace(tmp_path)),
                "--manifest", str(_overflow_manifest(tmp_path)), "--epochs", "1", "--horizon", "3",
                "--latent-dim", "2", "--hidden-dim", "2", "--minibatch", "4"],
            "non-utf8-trace": lambda: [
                "simulate", "--trace", str(_not_utf8(tmp_path, "t.csv", b"0,1\n\xff\xfe,2\n"))],
            "non-utf8-manifest": lambda: ["simulate", "--trace", trace,
                                          "--manifest", str(_not_utf8(tmp_path, "m.json"))],
            "non-utf8-config": lambda: ["synth", "--config", str(_not_utf8(tmp_path, "c.json"))],
            "non-utf8-report": lambda: ["rank", "--report", str(_not_utf8(tmp_path, "r.json"))],
            "non-utf8-checkpoint": lambda: [
                "evaluate", "--traces", trace,
                "--policies", f"actor:{_not_utf8(tmp_path, 'checkpoint.json')}"],
        }[case]()
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert needle in json.loads(err[0])["message"]
        assert not out.exists()

    @pytest.mark.parametrize("case,needle", [
        ("overflowing-aggregate", "aggregate"),
        ("tiny-dp-grid", "grid step"),
    ])
    def test_late_failure_writes_nothing(self, tmp_path, capsys, case, needle):
        # these fail after every session or solve has run, but before the first artifact
        out = tmp_path / "o"
        argv = {
            # each session total is finite (about -1.4e308 for fixed:0), but
            # the sum of two before averaging overflows
            "overflowing-aggregate": lambda: [
                "evaluate", "--traces", str(_constant_trace(tmp_path)),
                "--manifest", str(_huge_weight_manifest(tmp_path)),
                "--policies", "fixed:0,buffer_based", "--seeds", "0,1,2",
            ],
            "tiny-dp-grid": lambda: ["bench-expert", "--solvers", "dp", "--dp-grid", "1e-320",
                                     "--n-values", "2", "--instances", "1"],
        }[case]()
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert needle in json.loads(err[0])["message"]
        assert not out.exists()

    @pytest.mark.parametrize("case,needle", [
        ("seven-policies", "at most 6"),
        ("one-actor-id-twice", "actor:actor"),
    ])
    def test_evaluate_refuses_an_unrankable_policy_set_before_any_session(
            self, tmp_path, trace_dir, monkeypatch, capsys, case, needle):
        if case == "seven-policies":
            policies = "buffer_based,robust_mpc,fixed:0,fixed:1,fixed:2,random:1,random:2"
        else:  # two checkpoints of one file name, so one policy id
            paths = []
            for name in "ab":
                (tmp_path / name).mkdir()
                paths.append(actor_checkpoint(tmp_path / name))
            policies = ",".join(f"actor:{path}" for path in paths)
        sessions = []
        session = cli._session
        monkeypatch.setattr(cli, "_session", lambda *args: sessions.append(args) or session(*args))
        out = tmp_path / "o"
        capsys.readouterr()
        argv = ["evaluate", "--traces", str(trace_dir), "--policies", policies, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and needle in json.loads(err[0])["message"]
        assert sessions == []
        assert not out.exists()

    @pytest.mark.parametrize("argv,needle", [
        (["train", "--epochs", "x"], "--epochs"),
        (["simulate", "--nonsense", "1"], "--nonsense"),
        ([], "command"),
    ])
    def test_usage_errors_return_2_and_write_nothing(self, tmp_path, monkeypatch, capsys, argv,
                                                     needle):
        # argparse's own errors take main's error path; main returns 2 rather than exiting
        monkeypatch.chdir(tmp_path)  # where the default --out would land
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert needle in json.loads(err[0])["message"]
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self, capsys):
        for argv in (["--help"], ["train", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: abrbench")


class TestDivergedTraining:
    def test_exit_3_one_line_no_checkpoint(self, tmp_path, trace_dir, capsys):
        out = tmp_path / "o"
        argv = [
            "train", "--traces", str(trace_dir / "synth-100.csv"), "--epochs", "2",
            "--horizon", "2", "--latent-dim", "4", "--hidden-dim", "8",
            "--learning-rate", "1e300", "--out", str(out),
        ]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be a second stderr line
            assert main(argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "not finite" in json.loads(err[0])["message"]
        assert not out.exists()


class TestTrainDefaults:
    def test_every_train_config_field_is_an_option_with_its_default(self):
        for f in fields(TrainConfig):
            assert f.name in _TRAIN_DEFAULTS
            assert _TRAIN_DEFAULTS[f.name] == getattr(TrainConfig(), f.name)
            assert type(_TRAIN_DEFAULTS[f.name]) is type(getattr(TrainConfig(), f.name))

    def test_train_flags_reach_the_config(self, tmp_path, trace_dir):
        out = tmp_path / "o"
        rc = main([
            "train", "--traces", str(trace_dir / "synth-100.csv"), "--epochs", "0",
            "--latent-dim", "3", "--hidden-dim", "5", "--history-k", "2", "--seed", "7",
            "--out", str(out),
        ])
        assert rc == 0
        checkpoint = json.loads(read(out / "checkpoint.json"))
        assert (checkpoint["latent_dim"], checkpoint["hidden_dim"], checkpoint["seed"]) == (3, 5, 7)
        assert checkpoint["obs_dim"] == 2 * 2 + 6 + 3


class TestConfigTypes:
    def test_config_values_take_the_option_type(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"count": 1, "seed": "5", "mean": 2, "duration": 20}))
        out = tmp_path / "o"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        resolved = json.loads(read(out / "run_config.json"))
        assert (resolved["seed"], resolved["mean"], resolved["duration"]) == (5, 2.0, 20.0)
        assert isinstance(resolved["mean"], float)
        assert (out / "synth-5.csv").exists()

    @pytest.mark.parametrize("value", [2.5, "two", None, [1], float("nan")])
    def test_lossy_or_non_scalar_values_rejected(self, tmp_path, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"count": value}))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
