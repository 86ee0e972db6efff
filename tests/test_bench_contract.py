"""The names and parameters of warpfilt that the benchmark's tracer wraps.

bench/tracer.py is loaded as a plain module, so its TARGETS and HOOKS can be read
without Tracer.install, which would patch warpfilt for the rest of the session. A
name the tracer cannot find is reported under `missing` and its metric reads 0,
so a rename in src/ would go unnoticed without these checks.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()
TARGETS = [f"{module}.{name}" for module, names in TRACER.TARGETS.items() for name in names]


def resolve(target):
    module, name = target.split(".")
    return getattr(importlib.import_module(f"warpfilt.{module}"), name, None)


def test_every_target_resolves():
    missing = [target for target in TARGETS if not callable(resolve(target))]
    assert missing == [], "traced names absent from warpfilt"


def hook_arguments(hook):
    """The argument names a hook reads from the bound arguments, as args["name"]."""
    return set(re.findall(r'args\["(\w+)"\]', inspect.getsource(hook)))


def test_hooks_read_the_expected_arguments():
    # Guards the source scan above: if the hooks stop reading args["..."], the
    # parameter test below would pass without checking anything.
    read = set().union(*(hook_arguments(hook) for hook in TRACER.HOOKS.values()))
    assert read == {"path", "energies", "model", "avg_ltas"}


def test_hooked_functions_have_the_parameters_their_hooks_read():
    for target, hook in TRACER.HOOKS.items():
        assert target in TARGETS, f"{target} has a hook but is not traced"
        fn = resolve(target)
        assert fn is not None, f"warpfilt.{target} is hooked but does not exist"
        parameters = inspect.signature(fn).parameters
        for name in hook_arguments(hook):
            assert name in parameters, f"warpfilt.{target} has no parameter {name!r}, which its hook reads"


def hooked_calls(tmp_path):
    """(target, arguments) for a tiny real call of every hooked function, writers before readers."""
    from warpfilt import backend, scale, store
    from warpfilt.dsp import AudioSegment
    from warpfilt.features import FeatureMatrix

    wav = tmp_path / "u.wav"
    store.write_wav(wav, AudioSegment(np.full(400, 0.25), 16000))
    doc = store.scale_document(scale.mel_warping_scale(4000.0), 8000, 256)
    fm = FeatureMatrix(np.ones((3, 2)), np.array([True, False, True]))
    tone = np.sin(2 * np.pi * 150.0 * np.arange(2 * 320) / 16000).reshape(2, 320)
    model = backend.GmmModel(np.array([0.5, 0.5]), np.zeros((2, 3)), np.ones((2, 3)))
    ltas = scale.Ltas(np.linspace(1.0, 2.0, 9), 1000.0)
    return [
        ("store.load_wav", (wav,)),
        ("store.save_model", (doc, tmp_path / "s.json")),
        ("store.load_model", (tmp_path / "s.json",)),
        ("store.write_features", (fm, tmp_path / "u.wflt")),
        ("store.read_features", (tmp_path / "u.wflt",)),
        ("sad.bi_gaussian_sad", (np.r_[np.full(10, -20.0), np.full(10, -2.0)],)),
        ("sad.track_pitch", (np.vstack([tone, np.zeros((2, 320))]), 16000)),
        ("backend.component_log_densities", (model, np.zeros((5, 3)))),
        ("scale.equal_area_partition", (ltas, 3)),
    ]


def test_every_hook_reads_the_real_result(tmp_path):
    # Each hook runs as Tracer.install would run it, on an uninstalled Tracer, so a
    # change to a result attribute a hook reads (.voiced, .areas, .shape) fails here.
    tracer = TRACER.Tracer([])
    calls = hooked_calls(tmp_path)
    assert sorted(target for target, _ in calls) == sorted(TRACER.HOOKS)
    for target, args in calls:
        tracer._wrap(target, resolve(target), TRACER.HOOKS[target])(*args)
    assert [span[0] for span in tracer.spans] == [target for target, _ in calls]
    counters = dict(tracer.counters)
    spread = counters.pop("scale.partition_spread_over_bin")
    assert 0.0 <= spread <= 1.0
    size = {name: (tmp_path / name).stat().st_size for name in ("u.wav", "s.json", "u.wflt")}
    assert counters == {
        "store.load_wav.bytes": size["u.wav"],
        "store.save_model.bytes": size["s.json"],
        "store.load_model.bytes": size["s.json"],
        "store.write_features.bytes": size["u.wflt"],
        "store.read_features.bytes": size["u.wflt"],
        "sad.frames_in": 20,
        "sad.frames_kept": 10,
        "sad.pitch_frames": 4,
        "sad.voiced_frames": 2,
        "backend.component_log_densities.evals": 10,
        "backend.component_log_densities.flops_computed": 4 * 5 * 2 * 3,
        "backend.component_log_densities.bytes_computed": 8 * (5 * 3 + 2 * 2 * 3 + 5 * 2),
    }
