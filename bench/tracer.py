"""Span tracer for one warpfilt subcommand process, built from outside the package.

`Tracer.install` wraps the public functions listed in TARGETS and puts each
wrapper in every `warpfilt.*` namespace that holds the original, so calls made
through `from .x import y` names are traced as well as calls through module
attributes. A span is [name, start, end, parent]: times come from
time.monotonic() and parent is the index of the enclosing span, or of the
root span `cli.<command>` for calls made on pool threads. Spans stay in memory
and are written by the child process when it exits.

Counters are recorded at the same boundaries by small per-function hooks.
"""

import functools
import inspect
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

TARGETS = {
    "store": (
        "load_wav", "load_model", "save_model", "read_features", "write_features",
        "load_manifest", "read_trials", "read_scores", "write_scores",
    ),
    "dsp": ("pre_emphasize", "frame_signal", "power_spectrum", "dct_ii_ortho"),
    "sad": (
        "frame_log_energy", "fit_two_gaussians", "bi_gaussian_sad",
        "normalized_autocorrelation", "track_pitch", "voiced_mask",
    ),
    "scale": (
        "compute_ltas", "average_ltas", "equal_area_partition", "build_warping_scale",
        "mel_warping_scale",
    ),
    "filterbank": (
        "place_filter_edges", "triangular_responses", "subband_covariance",
        "pca_first_basis", "learn_pca_filterbank",
    ),
    "features": (
        "utterance_spectra", "extract_features", "filterbank_log_energies", "cepstra",
        "rasta_filter", "append_deltas", "cmvn",
    ),
    "analysis": ("f_ratio", "f_ratio_report"),
    "backend": (
        "component_log_densities", "log_likelihoods", "train_ubm", "map_adapt_means",
        "score_trial", "det_curve", "eer", "min_dcf",
    ),
}

FLOAT_BYTES = 8


class Tracer:
    def __init__(self, argv):
        self.argv = list(argv)
        self.spans = []
        self.counters = Counter()
        self.missing = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ubm_means = None

    # --- recording -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, hook):
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                idx = len(self.spans)
                self.spans.append([name, 0.0, 0.0, stack[-1] if stack else 0])
            stack.append(idx)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                self.spans[idx][1:3] = [start, end]
            if hook is not None:
                bound = sig.bind(*args, **kwargs).arguments
                with self._lock:
                    hook(self, bound, result)
            return result

        return traced

    def run_main(self, main, argv):
        """Call cli.main(argv) under the root span `cli.<command>`."""
        self.spans.append([f"cli.{argv[0] if argv else '?'}", 0.0, 0.0, None])
        self._stack().append(0)
        start = time.monotonic()
        try:
            return main(argv)
        finally:
            self.spans[0][1:3] = [start, time.monotonic()]
            self._stack().pop()

    # --- installation --------------------------------------------------------

    def install(self):
        import warpfilt.store as store

        if self.argv[:1] == ["score"] and "--ubm" in self.argv:
            path = self.argv[self.argv.index("--ubm") + 1]
            try:
                self._ubm_means = store.gmm_from_document(store.load_model(path, expect_kind="gmm")).means
            except (OSError, ValueError):
                self._ubm_means = None  # cli.main reports the bad file itself
        replace = {}
        for module_name, names in TARGETS.items():
            module = sys.modules[f"warpfilt.{module_name}"]
            for fn_name in names:
                fn = getattr(module, fn_name, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{fn_name}")
                    continue
                hook = HOOKS.get(f"{module_name}.{fn_name}")
                replace[id(fn)] = (fn, self._wrap(f"{module_name}.{fn_name}", fn, hook))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "warpfilt" and not mod_name.startswith("warpfilt."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def finish(self):
        """Counters that need the whole run; call after cli.main returns."""
        if self._ubm_means is not None and "--trials" in self.argv and "--features" in self.argv:
            import warpfilt.store as store

            trials = store.read_trials(self.argv[self.argv.index("--trials") + 1]).trials
            feature_dir = Path(self.argv[self.argv.index("--features") + 1])
            for test_id in sorted({t.test_id for t in trials}):
                fm = store.read_features(feature_dir / f"{test_id}.wflt")
                self.counters["backend.test_segment_frames"] += int(fm.speech_frames.shape[0])

    def record(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters), "missing": self.missing}


# --- counter hooks: (tracer, bound arguments, result) ----------------------------

def _file_bytes(key):
    def hook(tracer, args, result):
        tracer.counters[key] += Path(args["path"]).stat().st_size

    return hook


def _bi_gaussian_sad(tracer, args, result):
    tracer.counters["sad.frames_in"] += int(np.size(args["energies"]))
    tracer.counters["sad.frames_kept"] += int(np.count_nonzero(result))


def _track_pitch(tracer, args, result):
    voiced = result.voiced
    tracer.counters["sad.pitch_frames"] += int(voiced.size)
    tracer.counters["sad.voiced_frames"] += int(np.count_nonzero(voiced))


def _component_log_densities(tracer, args, result):
    n, c = result.shape
    d = args["model"].means.shape[1]
    tracer.counters["backend.component_log_densities.evals"] += n * c
    # The diagonal quadratic form costs a subtract, a square, a divide and an add
    # per frame, component and dimension; bytes read x, means and variances once
    # and write the (N, C) result.
    tracer.counters["backend.component_log_densities.flops_computed"] += 4 * n * c * d
    tracer.counters["backend.component_log_densities.bytes_computed"] += FLOAT_BYTES * (n * d + 2 * c * d + n * c)
    ubm = tracer._ubm_means
    means = args["model"].means
    if ubm is not None and means.shape == ubm.shape and np.array_equal(means, ubm):
        tracer.counters["backend.ubm_frames_evaluated"] += n


def _equal_area_partition(tracer, args, result):
    from warpfilt.scale import AREA_SHIFT

    log_v = np.log(np.maximum(args["avg_ltas"].values, np.finfo(np.float64).tiny))
    one_bin = float(log_v.max() - log_v.min()) + AREA_SHIFT
    spread = float(result.areas.max() - result.areas.min())
    key = "scale.partition_spread_over_bin"
    tracer.counters[key] = max(tracer.counters.get(key, 0.0), spread / one_bin)


HOOKS = {
    "store.load_wav": _file_bytes("store.load_wav.bytes"),
    "store.load_model": _file_bytes("store.load_model.bytes"),
    "store.read_features": _file_bytes("store.read_features.bytes"),
    "store.save_model": _file_bytes("store.save_model.bytes"),
    "store.write_features": _file_bytes("store.write_features.bytes"),
    "sad.bi_gaussian_sad": _bi_gaussian_sad,
    "sad.track_pitch": _track_pitch,
    "backend.component_log_densities": _component_log_densities,
    "scale.equal_area_partition": _equal_area_partition,
}


# --- aggregation (parent side) ------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_stats(spans) -> dict:
    """Per span name: calls and self_s (duration minus the union of its child spans)."""
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    stats = {}
    for i, (name, start, end, _) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children[i] if e > start and s < end]
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - _covered(clipped)
    return stats
