"""CLI commands: artifacts, determinism, config embedding, exit codes."""

import json
import multiprocessing
import os
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
    step,
    synth_trace,
)
from abrbench import cli
from abrbench.cli import _TRAIN_DEFAULTS, main
from abrbench.errors import DomainError
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
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--nonsense", "1"])
        assert exc.value.code == 2


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
    leaves a file named by its pid in the returned directory."""
    marks = tmp_path / "marks"
    marks.mkdir()
    script = "\n".join([
        "import os, sys",
        "from abrbench import cli, learner",
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
    if output_bias is not None:
        theta.dec_b2[:] = output_bias
    path = tmp_path / "actor.json"
    path.write_text(save_checkpoint(theta))
    return path


# a pool thread that dies, as Python 3.11's does on a cancelled future, fails the test
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
        assert pools == ["fork"]  # only the two-CPU run fanned out
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("case", ["actor-probabilities", "second-trace", "train-label",
                                      "train-diverged-step"])
    def test_a_failing_worker_fails_as_the_serial_loop_does(self, tmp_path, trace_dir, monkeypatch,
                                                            capsys, case):
        if case == "actor-probabilities":
            # every decision of this actor fails, on every trace
            actor = actor_checkpoint(tmp_path, output_bias=float("nan"))
            argv = ["simulate", "--trace", str(trace_dir), "--policy", f"actor:{actor}"]
            written = ["run_config.json"]
        elif case == "train-label":
            # with two CPUs the label helper inherits the patched label_state through fork
            label_state = learner.label_state

            def failing(state, *rest):
                if state.next_chunk == 3:
                    raise DomainError("no labels at chunk 3")
                return label_state(state, *rest)

            monkeypatch.setattr(learner, "label_state", failing)
            argv = ["train", "--traces", str(trace_dir), *SMALL_TRAIN]
            written = ["run_config.json"]
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
            written = ["run_config.json"]
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
            out = tmp_path / f"cpus{cpus}"
            capsys.readouterr()
            code = main(argv + ["--out", str(out)])
            results.append((code, capsys.readouterr().err, tree_bytes(out)))
            assert multiprocessing.active_children() == []
        assert results[0] == results[1]
        code, err, tree = results[0]
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "DomainError"
        assert ("diverged" in json.loads(err)["message"]) == (case == "train-diverged-step")
        assert sorted(tree) == written

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
        assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]
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
        assert threads == [1, 1, 1]  # two pool workers, then train's label helper
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
        # a session that marks its trace, then outlasts the test
        script = "\n".join([
            "import sys, time",
            "from abrbench import cli",
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
        assert os.listdir(tmp_path / "o") == ["run_config.json"]

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

    @pytest.mark.skipif(cli._usable_cpus() < 2 or not Path("/proc/self/task").exists(),
                        reason="OpenBLAS starts no extra thread on one CPU; the check reads /proc")
    def test_numpy_imported_by_the_package_runs_one_blas_thread(self):
        # a second BLAS thread would take the CPU that train's label helper runs on
        script = "import abrbench, os; print(len(os.listdir('/proc/self/task')))"
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])

        def threads(**pins):
            done = subprocess.run([sys.executable, "-c", script], env={**env, **pins},
                                  capture_output=True, text=True, timeout=60, check=True)
            return int(done.stdout)

        assert threads() == 1
        assert threads(OPENBLAS_NUM_THREADS="2") == 2  # a count the user sets stands

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
    def test_late_failure_writes_only_the_run_config(self, tmp_path, capsys, case, needle):
        # these fail after the run config is written, but before any result
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
        assert sorted(p.name for p in out.iterdir()) == ["run_config.json"]


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
        assert (out / "run_config.json").exists()
        assert not (out / "checkpoint.json").exists()
        assert not (out / "report.json").exists()


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
