import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from synth import build_corpus

# The small corpus's build_corpus arguments; tests/test_golden.py rebuilds it from these.
SMALL_CORPUS = dict(n_speakers=3, n_utterances=4, duration_s=1.0, n_enroll=2, seed=11)


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """3 speakers x 4 utterances; enough for fast CLI round trips."""
    root = tmp_path_factory.mktemp("small_corpus")
    full, enroll, trials = build_corpus(root, **SMALL_CORPUS)
    return {"root": root, "manifest": full, "enroll": enroll, "trials": trials}


@pytest.fixture(scope="session")
def desk_corpus(tmp_path_factory):
    """The 8-speaker, 20-utterance corpus used by the end-to-end acceptance run."""
    root = tmp_path_factory.mktemp("desk_corpus")
    full, enroll, trials = build_corpus(
        root, n_speakers=8, n_utterances=20, duration_s=2.0, n_enroll=4, seed=0
    )
    return {"root": root, "manifest": full, "enroll": enroll, "trials": trials}
