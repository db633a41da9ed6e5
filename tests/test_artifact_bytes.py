"""Every CLI artifact of one fixed small pipeline keeps the bytes recorded in
``artifact_digests.json``.

Criterion 11 compares two runs of the same code; this test compares a run with
the digests a past run recorded, so a change of bytes between versions shows.
The pipeline: ``synth``; ``train`` at ``--workers 1`` and ``2``, and once at the
default minibatch, latent and hidden sizes on a 16-chunk manifest for enough
epochs that the gradient clip fires (3 of its 128 steps); ``simulate``
with ``robust_mpc`` and with the trained actor; ``solve-expert``;
``bench-expert`` with its wall-time column masked; ``evaluate`` of four
policies at two seeds; ``rank``.

Checkpoint and report floats pass through numpy's BLAS, so the digests hold
for the Python, numpy and BLAS recorded beside them; under another
environment the test fails and names the difference. A change that alters
bytes on purpose rewrites the file and names the changed artifacts:

    PYTHONPATH=src python tests/test_artifact_bytes.py
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from abrbench.cli import main
from abrbench.media import dump_manifest, preset

DIGESTS = Path(__file__).with_name("artifact_digests.json")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _masked_bench(data: bytes) -> bytes:
    """bench.csv without its mean_ms column, the one wall-time field."""
    rows = data.decode().splitlines()
    return "\n".join(",".join(c for i, c in enumerate(r.split(",")) if i != 2)
                     for r in rows).encode()


def pipeline_digests(root: Path) -> dict:
    """Run the pipeline under ``root`` and return {command/file: sha256} of every artifact."""
    traces = root / "synth"
    manifest = root / "pensieve-16.json"
    manifest.write_text(dump_manifest(*preset("pensieve", chunk_count=16)))
    actor = f"actor:{root / 'train-w1' / 'checkpoint.json'}"
    train = ["train", "--traces", str(traces), "--epochs", "3", "--horizon", "3",
             "--latent-dim", "8", "--hidden-dim", "16", "--seed", "6"]
    commands = {
        "synth": ["synth", "--count", "2", "--seed", "40", "--duration", "80", "--mean", "2.0"],
        "train-w1": train + ["--workers", "1"],
        "train-w2": train + ["--workers", "2"],
        "train-default": ["train", "--traces", str(traces), "--manifest", str(manifest),
                          "--epochs", "8", "--horizon", "3", "--seed", "6", "--workers", "1"],
        "simulate-robust_mpc": ["simulate", "--trace", str(traces), "--policy", "robust_mpc"],
        "simulate-actor": ["simulate", "--trace", str(traces), "--policy", actor],
        "solve-expert": ["solve-expert", "--trace", str(traces), "--horizon", "3"],
        "bench-expert": ["bench-expert", "--n-values", "2,3", "--instances", "2",
                         "--solvers", "ao,enum,dp", "--dp-grid", "1.0"],
        "evaluate": ["evaluate", "--traces", str(traces), "--seeds", "0,1",
                     "--policies", f"buffer_based,robust_mpc,random:1,{actor}"],
        "rank": ["rank", "--report", str(root / "evaluate" / "report.json")],
    }
    digests = {}
    for name, argv in commands.items():
        out = root / name
        assert main(argv + ["--out", str(out)]) == 0, name
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            if path.name == "bench.csv":
                data = _masked_bench(data)
            # run_config.json and the embedded configs name the temporary directory
            data = data.replace(str(root).encode(), b"<root>")
            digests[f"{name}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return digests


def test_artifacts_keep_their_recorded_bytes(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    here = environment()
    assert recorded["environment"] == here, (
        f"digests were recorded under {recorded['environment']}, this is {here}; "
        "floats that pass through BLAS may differ, so run the test where they were recorded")
    digests = pipeline_digests(tmp_path)
    changed = sorted(k for k in recorded["digests"].keys() | digests.keys()
                     if recorded["digests"].get(k) != digests.get(k))
    assert not changed, f"artifacts whose bytes changed: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"environment": environment(), "digests": pipeline_digests(Path(tmp))}
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(doc['digests'])} digests to {DIGESTS}", file=sys.stderr)
