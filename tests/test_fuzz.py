"""Property-based fuzzing of the CLI input contract.

Random manifest field values, random trace CSV text, random ``train`` numbers,
random actor checkpoint fields and random ``--config`` objects must either
succeed or exit 2 (usage) / 3 (data) with exactly one JSON line on stderr, and
no artifact may hold a non-finite number (``NaN`` / ``Infinity`` in JSON, a cell
such as ``nan`` or ``inf`` in CSV).
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from abrbench import dump_manifest, init_actor, observation_size, preset, save_checkpoint
from abrbench.cli import main

FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

ODD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e308, 5e-324])
NUMBERS = st.one_of(ODD_NUMBERS, st.floats(-10.0, 10.0), st.integers(-3, 8))
SCALARS = st.one_of(NUMBERS, st.text(max_size=3), st.none(), st.booleans())
VALUES = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=4), st.lists(st.lists(NUMBERS, max_size=7), max_size=4)
)
# beyond every bound: 1,000 history chunks, 4,096 units a layer or minibatch, 10,000 chunks
# or traces, 100,000 trace samples; the checks refuse them before anything is allocated
OVERSIZED = st.sampled_from([10_001, 100_001, 10**12, 10**18, 1e18, 1e300])
# the chunk count sizes the work: small counts run, oversized ones must be refused
COUNTS = st.one_of(
    st.integers(-2, 4), OVERSIZED, st.sampled_from([math.nan, math.inf, 2.5, "3", "x", None, [2]])
)
MANIFEST_FIELDS = (
    "bitrates_mbps", "chunk_duration_s", "chunk_sizes_mb",
    "alpha1", "alpha2", "buffer_cap_s", "rtt_s",
)


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    argv = ["synth", "--count", "1", "--seed", "3", "--duration", "40", "--out", str(out)]
    assert main(argv) == 0
    return out / "synth-3.csv"


SMALL_MANIFEST = dump_manifest(*preset("pensieve", chunk_count=3))


@st.composite
def manifest_docs(draw):
    """The small manifest with one to three fields, or entries of them, replaced."""
    doc = json.loads(SMALL_MANIFEST)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(MANIFEST_FIELDS))
        target, index = doc, key
        while isinstance(target[index], list) and target[index] and draw(st.booleans()):
            target, index = target[index], draw(st.integers(0, len(target[index]) - 1))
        target[index] = draw(VALUES)
    count = draw(st.one_of(st.none(), COUNTS))
    if count is not None:
        doc["chunk_count"] = count
    return doc


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("manifest") / "small.json"
    path.write_text(SMALL_MANIFEST)
    return path


def run_cli(argv, out: Path, capsys) -> int:
    capsys.readouterr()
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        assert err == []
    else:
        assert len(err) == 1
        assert set(json.loads(err[0])) == {"error", "message"}
    if out.exists():
        for path in out.rglob("*"):
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text, path.name
            if path.suffix == ".csv":
                for cell in text.replace("\n", ",").split(","):
                    assert not _non_finite(cell), (path.name, cell)
    return code


def _non_finite(cell: str) -> bool:
    try:
        return not math.isfinite(float(cell))
    except ValueError:
        return False


# eight pensieve chunks where a second of rebuffering costs 1e308: the expert objective is -inf
OVERFLOW_MANIFEST = {**json.loads(dump_manifest(*preset("pensieve", chunk_count=8))),
                     "alpha1": 1e308}


@FUZZ
@given(doc=manifest_docs(),
       command=st.sampled_from(["buffer_based", "robust_mpc", "solve-expert", "bench-expert"]))
@example(doc=OVERFLOW_MANIFEST, command="bench-expert")
def test_manifest_fields(trace_file, capsys, doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "m.json"
        manifest.write_text(json.dumps(doc))
        if command == "solve-expert":
            argv = ["solve-expert", "--trace", str(trace_file), "--horizon", "2"]
        elif command == "bench-expert":
            # a slow trace, so that chunks rebuffer and an overflowing weight shows
            argv = ["bench-expert", "--solvers", "ao,enum,dp", "--n-values", "2",
                    "--instances", "1", "--mean", "0.4"]
        else:
            argv = ["simulate", "--trace", str(trace_file), "--policy", command]
        run_cli(argv + ["--manifest", str(manifest)], Path(tmp) / "out", capsys)


FLOATS = st.one_of(ODD_NUMBERS, st.floats(allow_nan=True, allow_infinity=True))
SMALL = st.integers(-2, 3)


@FUZZ
@given(
    floats=st.fixed_dictionaries(
        {}, optional={"beta": FLOATS, "eta": FLOATS, "learning-rate": FLOATS}
    ),
    ints=st.fixed_dictionaries(
        {"epochs": st.integers(-1, 2)},
        optional={
            "minibatch": SMALL, "horizon": SMALL, "history-k": SMALL, "latent-dim": SMALL,
            "hidden-dim": SMALL, "seed": st.integers(-2, 2**40), "workers": SMALL,
        },
    ),
)
def test_train_numbers(trace_file, small_manifest, capsys, floats, ints):
    flags = [f"--{key}={value!r}" for key, value in {**floats, **ints}.items()]
    argv = ["train", "--traces", str(trace_file), "--manifest", str(small_manifest),
            "--latent-dim=2", "--hidden-dim=3", "--horizon=2", *flags]
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(argv, Path(tmp) / "out", capsys)


# an actor that fits SMALL_MANIFEST at the default history length of 8
SMALL_ACTOR_MANIFEST = preset("pensieve", chunk_count=3)[0]
SMALL_CHECKPOINT = save_checkpoint(init_actor(
    observation_size(SMALL_ACTOR_MANIFEST, 8), SMALL_ACTOR_MANIFEST.n_levels, latent_dim=2,
    hidden_dim=3))
CHECKPOINT_SIZES = ("obs_dim", "n_levels", "latent_dim", "hidden_dim", "seed")


@st.composite
def checkpoint_docs(draw):
    """The small checkpoint with one to three size fields or weights, or entries of them,
    replaced."""
    doc = json.loads(SMALL_CHECKPOINT)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(CHECKPOINT_SIZES + tuple(doc["weights"])))
        target, index = (doc, key) if key in CHECKPOINT_SIZES else (doc["weights"], key)
        while isinstance(target[index], list) and target[index] and draw(st.booleans()):
            target, index = target[index], draw(st.integers(0, len(target[index]) - 1))
        target[index] = draw(st.one_of(VALUES, st.integers(-2, 30)))
    return doc


@FUZZ
@given(doc=checkpoint_docs())
def test_checkpoint_fields(trace_file, small_manifest, capsys, doc):
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "actor.json"
        checkpoint.write_text(json.dumps(doc))
        argv = ["evaluate", "--traces", str(trace_file), "--manifest", str(small_manifest),
                "--policies", f"actor:{checkpoint}"]
        run_cli(argv, Path(tmp) / "out", capsys)


EXTREMES = st.sampled_from([5e-324, 1e-9, 1e308])
CELLS = st.one_of(NUMBERS, st.text(max_size=3))
# in the order they are applied: timestamps first, blank lines last
TRACE_FAULTS = ("repeat", "down", "offset", "missing", "extra", "text", "odd", "blank")


@st.composite
def trace_csvs(draw):
    """A valid trace CSV, in half the cases with extreme gaps and bandwidths, with up to
    three faults: a blank line, a missing or extra column, a text or odd cell, or a
    timestamp that repeats, goes down or does not start at 0."""
    positive = st.floats(0.05, 50.0)
    if draw(st.booleans()):
        positive |= EXTREMES
    times = [0.0]
    for _ in range(draw(st.integers(0, 5))):
        times.append(times[-1] + draw(positive))
    rows = [[t, draw(positive)] for t in times]
    faults = draw(st.lists(st.sampled_from(TRACE_FAULTS), max_size=3))
    for fault in sorted(faults, key=TRACE_FAULTS.index):
        k = draw(st.integers(0, len(rows) - 1))
        row = rows[k]
        if fault in ("repeat", "down") and k > 0:
            drop = draw(st.floats(0.0, 3.0, exclude_min=True)) if fault == "down" else 0.0
            row[:1] = [times[k - 1] - drop]
        elif fault == "offset":
            rows[0][:1] = [draw(st.one_of(st.floats(-2.0, 5.0), st.just(1), ODD_NUMBERS))]
        elif fault == "missing":
            del row[draw(st.integers(0, len(row))):]
        elif fault == "extra":
            row += draw(st.lists(CELLS, min_size=1, max_size=2))
        elif fault in ("text", "odd") and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.text(max_size=4) if fault == "text" else ODD_NUMBERS)
        elif fault == "blank":
            rows.insert(k, [draw(st.sampled_from(["", " ", "\t"]))])
    text = "\n".join(",".join(repr(c) if isinstance(c, float) else str(c) for c in row)
                     for row in rows)
    return text + draw(st.sampled_from(["", "\n", "\n\n"]))


@FUZZ
@given(text=trace_csvs(), policy=st.sampled_from(["buffer_based", "robust_mpc"]))
def test_trace_csv(small_manifest, capsys, text, policy):
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "t.csv"
        trace.write_text(text)
        argv = ["simulate", "--trace", str(trace), "--manifest", str(small_manifest),
                "--policy", policy]
        run_cli(argv, Path(tmp) / "out", capsys)


INT_VALUES = st.one_of(st.integers(-2, 8), OVERSIZED, st.sampled_from([2.5, 3.0, "4", math.nan]))
FLOAT_VALUES = st.one_of(st.floats(0.0, 10.0), st.integers(0, 8), ODD_NUMBERS, OVERSIZED)
POLICY_SPECS = st.sampled_from(["buffer_based", "robust_mpc", "fixed:1", "random:-1", "random:2"])
# the keys each command's config file may set and their values, less the input paths, --out
# and the epoch count (an epoch count is not bounded, so a random one could run for hours)
CONFIG_KEYS = {
    "synth": {"count": INT_VALUES, "seed": INT_VALUES, "mean": FLOAT_VALUES,
              "volatility": FLOAT_VALUES, "duration": FLOAT_VALUES, "step": FLOAT_VALUES},
    "simulate": {"policy": POLICY_SPECS, "seed": INT_VALUES, "start_offset": FLOAT_VALUES,
                 "history_k": INT_VALUES, "mpc_horizon": INT_VALUES,
                 "reservoir": FLOAT_VALUES, "cushion": FLOAT_VALUES},
    "train": {"beta": FLOAT_VALUES, "eta": FLOAT_VALUES, "learning_rate": FLOAT_VALUES,
              "minibatch": INT_VALUES, "horizon": INT_VALUES, "history_k": INT_VALUES,
              "seed": INT_VALUES, "latent_dim": INT_VALUES, "hidden_dim": INT_VALUES,
              "workers": INT_VALUES},
}
# a config each command runs quickly with, which the drawn keys then override
SMALL_CONFIGS = {
    "synth": {"duration": 20.0},
    "simulate": {},
    "train": {"horizon": 2, "latent_dim": 2, "hidden_dim": 3},
}


@st.composite
def config_docs(draw, command):
    """The small config with one to three known keys set to numbers (finite or not, lossy
    or oversized) or policy specs; in a quarter of the cases a known or unknown key set to
    text, null, a boolean or a list; in half a ``command`` key, which is ignored."""
    known = CONFIG_KEYS[command]
    doc = dict(SMALL_CONFIGS[command])
    for key in draw(st.lists(st.sampled_from(sorted(known)), min_size=1, max_size=3)):
        doc[key] = draw(known[key])
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.one_of(st.sampled_from(sorted(known)), st.text(max_size=5)))
        doc[key] = draw(st.one_of(SCALARS, st.lists(SCALARS, max_size=2)))
    if draw(st.booleans()):
        doc["command"] = draw(SCALARS)
    return doc


@FUZZ
@given(data=st.data(), command=st.sampled_from(sorted(CONFIG_KEYS)))
def test_config_files(trace_file, small_manifest, capsys, data, command):
    doc = data.draw(config_docs(command))
    inputs = {
        "synth": [],
        "simulate": ["--trace", str(trace_file), "--manifest", str(small_manifest)],
        "train": ["--traces", str(trace_file), "--manifest", str(small_manifest),
                  "--epochs", "1"],
    }[command]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))  # NaN and Infinity as their JSON extensions
        run_cli([command, *inputs, "--config", str(config)], Path(tmp) / "out", capsys)


# the horizon keys and a config each command runs one long session with
HORIZON_CONFIGS = {
    "simulate": ("mpc_horizon", {"policy": "robust_mpc"}),
    "train": ("horizon", {"epochs": 1, "latent_dim": 2, "hidden_dim": 3, "minibatch": 1}),
}


@settings(FUZZ, max_examples=20)
@given(command=st.sampled_from(sorted(HORIZON_CONFIGS)), horizon=INT_VALUES)
def test_horizons_on_a_long_manifest(trace_file, capsys, command, horizon):
    key, doc = HORIZON_CONFIGS[command]
    # one level and more chunks than the recursion limit in force, which Hypothesis raises
    # while a test runs: a horizon search is cheap until it recurses once per chunk
    long = {**json.loads(SMALL_MANIFEST), "bitrates_mbps": [0.3], "chunk_sizes_mb": None,
            "chunk_count": sys.getrecursionlimit() + 200}
    with tempfile.TemporaryDirectory() as tmp:
        manifest, config = Path(tmp) / "long.json", Path(tmp) / "config.json"
        manifest.write_text(json.dumps(long))
        config.write_text(json.dumps({**doc, key: horizon}))
        inputs = "--trace" if command == "simulate" else "--traces"
        run_cli([command, inputs, str(trace_file), "--manifest", str(manifest),
                 "--config", str(config)], Path(tmp) / "out", capsys)
