"""Golden output digests: a small fixed chain's outputs, byte for byte.

Both front ends (speech-pitch/wpca-norm and mel/tri) run in-process on the
session small corpus through extract, train-ubm, enroll, score and evaluate,
then fratio over the two filterbanks and a fused evaluate. The sha256 of every
output file and of each command's stdout is compared with golden_digests.json,
and a failure names the first output that differs. The corpus is digested on
its own, so a change in tests/synth.py or scipy shows as a change to the corpus.

The digests hold only where they were recorded: one SAD frame that flips moves
every later output, so no tolerance would help. The file records the numpy and
scipy versions, numpy's BLAS configuration, the machine and numpy's SIMD
features; elsewhere the tests skip and name the first field that differs.

Rewrite the file, after a change that is meant to move an output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from warpfilt.cli import main

GOLDEN = Path(__file__).with_name("golden_digests.json")
REWRITE = "PYTHONPATH=src python tests/test_golden.py"
# (name, learn-scale --scale, learn-filterbank --shape) of each front end.
FRONT_ENDS = [("speech-pitch-wpca-norm", "speech-pitch", "wpca-norm"), ("mel-tri", "mel", "tri")]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint() -> dict:
    """What the outputs' last bits can depend on besides the code."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 only prints it; blas and simd then read as unknown, so the tests skip
        config = {}
    simd = config.get("SIMD Extensions", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas", {}).get("openblas configuration", "unknown"),
        "machine": platform.machine(),
        "simd": sorted(simd.get("baseline", []) + simd.get("found", [])),
    }


def corpus_digests(corpus) -> dict:
    root = corpus["root"]
    paths = sorted((root / "wav").glob("*.wav")) + [corpus[k] for k in ("manifest", "enroll", "trials")]
    return {p.relative_to(root).as_posix(): sha256(p.read_bytes()) for p in paths}


def chain_digests(corpus, out: Path) -> dict:
    """{output name: sha256} in the order the chain writes them: each command's stdout, then its files."""
    digests = {}

    def run(label, *argv, files=()):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = main([str(a) for a in argv])
        assert rc == 0, f"{label} exited with {rc}"
        digests[f"{label}: stdout"] = sha256(stdout.getvalue().encode())
        for path in files:
            for p in sorted(path.glob("*")) if path.is_dir() else [path]:
                digests[p.relative_to(out).as_posix()] = sha256(p.read_bytes())

    m, enroll, trials = corpus["manifest"], corpus["enroll"], corpus["trials"]
    for name, scale_flag, shape in FRONT_ENDS:
        d = out / name
        d.mkdir(parents=True)
        run(f"{name} learn-scale", "learn-scale", "--manifest", m, "--scale", scale_flag, "--out", d / "scale.json", files=[d / "scale.json"])
        run(
            f"{name} learn-filterbank", "learn-filterbank", "--manifest", m, "--scale-doc", d / "scale.json",
            "--shape", shape, "--out", d / "fb.json", files=[d / "fb.json"],
        )
        run(f"{name} extract", "extract", "--manifest", m, "--filterbank", d / "fb.json", "--out", d / "feats", files=[d / "feats"])
        run(
            f"{name} train-ubm", "train-ubm", "--features", d / "feats", "--ubm-components", 8, "--out", d / "ubm.json",
            files=[d / "ubm.json"],
        )
        run(
            f"{name} enroll", "enroll", "--manifest", enroll, "--features", d / "feats", "--ubm", d / "ubm.json",
            "--out", d / "models", files=[d / "models"],
        )
        run(
            f"{name} score", "score", "--trials", trials, "--models", d / "models", "--ubm", d / "ubm.json",
            "--features", d / "feats", "--out", d / "scores.tsv", files=[d / "scores.tsv"],
        )
        run(f"{name} evaluate", "evaluate", "--scores", d / "scores.tsv", "--det-out", d / "det.tsv", files=[d / "det.tsv"])
    a, b = (out / name for name, _, _ in FRONT_ENDS)
    run("fratio", "fratio", "--manifest", m, "--filterbanks", b / "fb.json", a / "fb.json", "--out", out / "fratio.tsv", files=[out / "fratio.tsv"])
    run(
        "evaluate --fuse-with", "evaluate", "--scores", a / "scores.tsv", "--fuse-with", b / "scores.tsv",
        "--det-out", out / "fused_det.tsv", files=[out / "fused_det.tsv"],
    )
    return digests


def first_difference(expected: dict, actual: dict):
    """The first name, in expected's order and then actual's, whose digest differs or that only one side has."""
    for name in [*expected, *(n for n in actual if n not in expected)]:
        if expected.get(name) != actual.get(name):
            return name
    return None


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = fingerprint()
    for field, value in recorded["fingerprint"].items():
        if here.get(field) != value:
            pytest.skip(
                f"golden digests were recorded with {field} {value!r}, this environment has {here.get(field)!r}; "
                f"to compare here, rewrite them with `{REWRITE}`"
            )
    return recorded


def test_corpus_matches_golden_digests(golden, small_corpus):
    name = first_difference(golden["corpus"], corpus_digests(small_corpus))
    assert name is None, f"the small corpus changed (tests/synth.py or scipy): first differing file {name}"


def test_chain_outputs_match_golden_digests(golden, small_corpus, tmp_path):
    name = first_difference(golden["outputs"], chain_digests(small_corpus, tmp_path))
    assert name is None, f"first differing output: {name} (if the change is meant, rewrite with `{REWRITE}`)"


def rewrite():
    from conftest import SMALL_CORPUS
    from synth import build_corpus

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "corpus"
        manifest, enroll, trials = build_corpus(root, **SMALL_CORPUS)
        corpus = {"root": root, "manifest": manifest, "enroll": enroll, "trials": trials}
        record = {
            "rewrite": REWRITE,
            "fingerprint": fingerprint(),
            "corpus": corpus_digests(corpus),
            "outputs": chain_digests(corpus, Path(tmp) / "out"),
        }
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(record['corpus'])} corpus and {len(record['outputs'])} output digests to {GOLDEN}")


if __name__ == "__main__":
    rewrite()
