"""Property-based fuzzing of the CLI input contract.

Random manifest field values and random ``train`` numbers must either
succeed or exit 2 (usage) / 3 (data) with exactly one JSON line on stderr,
and no artifact may hold a non-finite number (``NaN`` / ``Infinity``).
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from abrbench import dump_manifest, preset
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
# the chunk count sizes the work, and bounding it is a separate matter: keep it small
COUNTS = st.one_of(
    st.integers(-2, 4), st.sampled_from([math.nan, math.inf, 2.5, "3", "x", None, [2]])
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
    return code


@FUZZ
@given(doc=manifest_docs(), command=st.sampled_from(["buffer_based", "robust_mpc", "solve-expert"]))
def test_manifest_fields(trace_file, capsys, doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "m.json"
        manifest.write_text(json.dumps(doc))
        if command == "solve-expert":
            argv = ["solve-expert", "--trace", str(trace_file), "--horizon", "2"]
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
