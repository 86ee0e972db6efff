"""Command-line pipeline: scale and filterbank learning, feature extraction,
F-ratio analysis, and GMM-UBM verification with DET/EER/minDCF reporting."""

import argparse
import ctypes
import dataclasses
import logging
import math
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, backend, filterbank, sad, scale, store
from .dsp import FeatureConfig, _brief, ms_to_samples, next_pow2
from .features import extract_features, filterbank_log_energies, utterance_spectra

logger = logging.getLogger("warpfilt.cli")  # not __name__, which is "__main__" under python -m

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# glibc mallopt parameters (malloc.h) and the values main() gives them: 32 MiB
# is glibc's own ceiling for its dynamic mmap threshold on 64-bit.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20


@dataclass
class RunConfig(FeatureConfig):
    """Pipeline settings, FeatureConfig's among them; file values are overridden by flags."""

    n_filters: int = 20
    scale: str = "mel"
    shape: str = "tri"
    ubm_components: int = 64
    em_iters: int = 10
    relevance: float = 14.0
    seed: int = 0
    jobs: int = 1
    cost_preset: str = "nist-sre"

    def __post_init__(self):
        super().__post_init__()
        if self.scale not in scale.SCALE_KINDS:
            raise ValueError(f"unknown scale {_brief(self.scale)}")
        if self.shape not in filterbank.SHAPE_KINDS:
            raise ValueError(f"unknown shape {_brief(self.shape)}")
        if self.cost_preset not in backend.COST_PRESETS:
            raise ValueError(f"unknown cost preset {_brief(self.cost_preset)}")
        for name in ("jobs", "ubm_components", "em_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {_brief(getattr(self, name))}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {_brief(self.seed)}")
        # Comparisons written so that a NaN fails them.
        if not 0.0 <= self.relevance < math.inf:
            raise ValueError(f"relevance must be finite and >= 0, got {_brief(self.relevance)}")


def load_config(path: str | Path | None, overrides: dict) -> RunConfig:
    """RunConfig from an optional JSON file plus flag overrides (flags win)."""
    values = {}
    if path is not None:
        obj = store.read_json(path)
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
        unknown = set(obj) - set(types)
        if unknown:
            raise ValueError(f"{path}: unknown config keys {_brief(sorted(unknown))}")
        for name, value in obj.items():
            # JSON has one number type: an int is accepted for a float, but a bool is no int.
            expected = types[name]
            accepted = (int, float) if expected is float else expected
            if isinstance(value, bool) != (expected is bool) or not isinstance(value, accepted):
                raise ValueError(
                    f"{path}: field '{name}' must be {expected.__name__}, got {type(value).__name__}"
                )
            if expected is float and isinstance(value, int) and abs(value) > sys.float_info.max:
                raise ValueError(f"{path}: field '{name}' must be float, got int {_brief(value)} beyond the float range")
        values.update(obj)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)


# The fields each command reads, some only for some scales or shapes (README's "Config file"
# table); they make its flags and the provenance of the documents it writes.
_FRONT_END = ("frame_ms", "hop_ms", "preemph")
READS = {
    "learn-scale": ("scale", *_FRONT_END, "n_filters", "jobs", "pitch_f_min_hz", "pitch_f_max_hz", "voicing_threshold"),
    "learn-filterbank": ("shape", "n_filters", *_FRONT_END, "jobs"),
    "extract": (*_FRONT_END, "n_ceps", "rasta_enabled", "cmvn_enabled", "jobs"),
    "fratio": (*_FRONT_END, "jobs"),
    "train-ubm": ("ubm_components", "em_iters", "seed"),
    "enroll": ("relevance",),
    "score": ("jobs",),
    "evaluate": ("cost_preset",),
}

# The fields with a flag, --name-with-dashes, and its argparse options.
_FLAGS = {
    "scale": dict(choices=sorted(scale.SCALE_KINDS)),
    "shape": dict(choices=sorted(filterbank.SHAPE_KINDS)),
    "cost_preset": dict(choices=sorted(backend.COST_PRESETS)),
    **dict.fromkeys(["n_filters", "ubm_components", "em_iters"], dict(type=int)),
    "relevance": dict(type=float),
    "seed": dict(type=int, help=f"seed of the UBM's k-means initialization (default {RunConfig.seed})"),
    "jobs": dict(type=int, help=f"parallel workers over utterances or test segments (>= 1, default {RunConfig.jobs})"),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _printable(message) -> str:
    """str(message) with each non-printable character escaped as repr escapes it, so it stays one line."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(message))


def _setup_logging():
    level = os.environ.get("WARPFILT_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        stream=sys.stderr,
        level=levels.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _keep_freed_memory():
    """Keep memory that numpy frees on the heap instead of returning it to the kernel.

    glibc unmaps a freed block above its dynamic mmap threshold, and trims a
    heap top above its trim threshold, so the next temporary of the same size
    is faulted back in page by page: most of a subcommand's system time. Pinning
    both thresholds high lets same-sized temporaries reuse the freed pages. A
    caller who set glibc's own malloc settings keeps them. Only the command-line
    entry point does this: a library import must not change the host process's
    allocator.
    """
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if any(k.startswith("MALLOC_") for k in os.environ) or "glibc.malloc." in tunables:
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


class _ItemError(ValueError):
    """A ValueError of one item of a corpus pass, already prefixed with that item's name."""


@contextmanager
def _named(source):
    """Prefix a ValueError raised in the block with source, unless it already names its item."""
    try:
        yield
    except _ItemError:
        raise
    except ValueError as err:
        raise ValueError(f"{source}: {err}") from err


def _map_ordered(fn, items, jobs: int, name):
    """Yield fn(item) in item order, on `jobs` threads: the one per-item runner.

    A ValueError from fn(item) is prefixed with name(item) and raised as an _ItemError
    when the consumer reaches that item. At most 2 * jobs items run ahead of the consumer.
    """

    def one(item):
        try:
            return fn(item)
        except ValueError as err:
            raise _ItemError(f"{name(item)}: {err}") from err

    if jobs <= 1:
        yield from map(one, items)
        return
    pool = ThreadPoolExecutor(max_workers=jobs)
    pending = deque()
    try:
        for item in items:
            if len(pending) == 2 * jobs:
                yield pending.popleft().result()
            pending.append(pool.submit(one, item))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


@contextmanager
def _directory_lock(outdir: Path):
    lock = outdir / ".warpfilt.lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ValueError(f"{outdir} is in use by another run (remove {lock} if stale)") from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        lock.unlink(missing_ok=True)


def _refuse_existing(paths, overwrite: bool):
    """Refuse to replace any of a command's outputs (None: one not asked for) unless overwrite."""
    for path in paths:
        if path is not None and not overwrite and Path(path).exists():
            raise ValueError(f"{path} exists; pass --overwrite to replace it")


def _utterance_pass(entries, sample_rate_hz: int, jobs: int, fn):
    """_map_ordered of fn(segment) over manifest entries, named by utterance id; each WAV must have the manifest's rate."""

    def one(entry):
        seg = store.load_wav(entry.path)
        if seg.sample_rate_hz != sample_rate_hz:
            raise ValueError(f"sample rate {seg.sample_rate_hz} differs from manifest rate {sample_rate_hz}")
        return fn(seg)

    return _map_ordered(one, entries, jobs, lambda entry: f"utterance {entry.utterance_id}")


def _frame_length(cfg: RunConfig, sample_rate_hz: int, reads) -> int:
    """The frame length in samples at the manifest rate, checked once per command before any audio.

    A frame, a hop and the longest pitch period, of those whose fields are in reads, must each
    span a finite number of samples that rounds to at least one, and the n_fft that
    holds a frame must obey the document rule; a ValueError names the field that does not.
    """
    sr = sample_rate_hz
    spans = {
        "frame_ms": ("a frame", sr * cfg.frame_ms / 1000.0),
        "hop_ms": ("a hop", sr * cfg.hop_ms / 1000.0),
        "pitch_f_min_hz": ("the longest pitch period", sr / cfg.pitch_f_min_hz),
    }
    for field, (what, samples) in spans.items():
        if field in reads and not 0.5 < samples < math.inf:
            raise ValueError(
                f"{field} {_brief(getattr(cfg, field))} at {sr} Hz: {what} spans {samples!r} samples; "
                "need a finite count that rounds to at least 1"
            )
    frame_len = ms_to_samples(cfg.frame_ms, sr)
    try:
        store.check_n_fft(next_pow2(frame_len))
    except ValueError as err:
        raise ValueError(f"frame_ms {cfg.frame_ms} at {sr} Hz: {err}") from None
    return frame_len


def _check_documents(docs, sample_rate_hz: int, cfg: RunConfig, command: str) -> int:
    """The n_fft of model documents [(path, ModelDocument)] to be applied to a corpus.

    Each must have the manifest's sample rate and the first document's n_fft, and
    that n_fft must hold a frame; a ValueError names the first document that does not.
    """
    first, first_doc = docs[0]
    frame_len = _frame_length(cfg, sample_rate_hz, READS[command])
    for path, doc in docs:
        if doc.sample_rate_hz != sample_rate_hz:
            raise ValueError(f"{path}: sample_rate_hz {doc.sample_rate_hz} differs from manifest rate {sample_rate_hz}")
        if doc.n_fft != first_doc.n_fft:
            raise ValueError(f"{path}: n_fft {doc.n_fft} differs from n_fft {first_doc.n_fft} of {first}")
        if doc.n_fft < frame_len:
            raise ValueError(f"{path}: n_fft {doc.n_fft} is shorter than a frame of {frame_len} samples")
    return first_doc.n_fft


def _provenance(cfg: RunConfig, command: str, manifest_path: str | None) -> dict:
    # The fields the command reads, without jobs, which changes no result: a document is the same bytes at any --jobs.
    prov = {"config": {k: getattr(cfg, k) for k in READS[command] if k != "jobs"}}
    if manifest_path is not None:
        prov["manifest_sha256"] = store.file_digest(manifest_path)
    return prov


# --- Subcommands ---------------------------------------------------------------

def cmd_learn_scale(args, cfg: RunConfig) -> int:
    out = Path(args.out)
    _refuse_existing([out], args.overwrite)
    manifest = store.load_manifest(args.manifest)
    sr = manifest.sample_rate_hz
    kind = scale.SCALE_KINDS[cfg.scale]
    # A mel scale reads only the frame length; a speech scale reads no pitch field.
    reads = {"mel": ("frame_ms",), "speech-based": ("frame_ms", "hop_ms")}.get(kind, READS["learn-scale"])
    frame_len = _frame_length(cfg, sr, reads)
    n_fft = next_pow2(frame_len)
    if kind == "mel":
        warping = scale.mel_warping_scale(sr / 2.0)
    else:
        if cfg.n_filters < 2:
            raise ValueError(f"n_filters {_brief(cfg.n_filters)}: need at least two bands")
        filterbank.check_n_filters(cfg.n_filters, n_fft)
        if kind == "speech-based-pitch":
            lag_min, lag_max = sad.pitch_lags(frame_len, sr, cfg)
            if lag_min > lag_max:
                raise ValueError(
                    f"frame_ms {_brief(cfg.frame_ms)} at {sr} Hz: the pitch band pitch_f_min_hz {_brief(cfg.pitch_f_min_hz)} "
                    f"to pitch_f_max_hz {_brief(cfg.pitch_f_max_hz)} leaves no lag to search in a frame of {frame_len} "
                    f"samples: lag_min {lag_min} > lag_max {lag_max}"
                )

        def ltas(seg):
            return scale.compute_ltas(utterance_spectra(seg, cfg, n_fft, kind == "speech-based-pitch"), sr / n_fft)

        avg = scale.average_ltas(_utterance_pass(manifest.entries, sr, cfg.jobs, ltas))
        partition = scale.equal_area_partition(avg, cfg.n_filters)
        warping = scale.build_warping_scale(partition, avg.bin_hz, sr / 2.0, kind)
    doc = store.scale_document(warping, sr, n_fft, _provenance(cfg, "learn-scale", args.manifest))
    store.save_model(doc, out)
    for f_hz, w in zip(warping.knots_hz, warping.knots_warped):
        print(f"{float(f_hz)!r}\t{float(w)!r}")
    logger.info("wrote %s scale with %d knots to %s", kind, warping.knots_hz.size, out)
    return EXIT_OK


def cmd_learn_filterbank(args, cfg: RunConfig) -> int:
    shape_kind = filterbank.SHAPE_KINDS[cfg.shape]
    if shape_kind != "triangular" and args.manifest is None:
        raise UsageError("PCA filter shapes need --manifest for the corpus pass")
    out = Path(args.out)
    _refuse_existing([out], args.overwrite)
    if shape_kind != "triangular":
        manifest = store.load_manifest(args.manifest)
    scale_doc, warping = store.load_document(args.scale_doc, "warping-scale")
    n_fft = scale_doc.n_fft
    layout = filterbank.place_filter_edges(warping, cfg.n_filters, n_fft, scale_doc.sample_rate_hz)
    if shape_kind == "triangular":
        fb = filterbank.triangular_responses(layout)
    else:
        _check_documents([(args.scale_doc, scale_doc)], manifest.sample_rate_hz, cfg, "learn-filterbank")

        def speech_log_spectra(seg):
            return np.log(utterance_spectra(seg, cfg, n_fft) + sad.ENERGY_EPS)

        # Yielded in manifest order, so the filterbank does not depend on --jobs.
        log_spectra = _utterance_pass(manifest.entries, manifest.sample_rate_hz, cfg.jobs, speech_log_spectra)
        with _named(args.manifest):
            fb = filterbank.learn_pca_filterbank(log_spectra, layout, shape_kind)
    manifest_path = args.manifest if shape_kind != "triangular" else None
    store.save_model(store.filterbank_document(fb, _provenance(cfg, "learn-filterbank", manifest_path)), out)
    print(f"filters\t{fb.n_filters}")
    print(f"shape\t{fb.shape_kind}")
    logger.info("wrote %s filterbank to %s", fb.shape_kind, out)
    return EXIT_OK


def cmd_extract(args, cfg: RunConfig) -> int:
    manifest = store.load_manifest(args.manifest)
    outdir = Path(args.out)
    targets = {e.utterance_id: outdir / f"{e.utterance_id}.wflt" for e in manifest.entries}
    _refuse_existing(targets.values(), args.overwrite)
    fb_doc, fb = store.load_document(args.filterbank, "filterbank")
    _check_documents([(args.filterbank, fb_doc)], manifest.sample_rate_hz, cfg, "extract")
    if cfg.n_ceps > fb.n_filters - 1:
        raise ValueError(f"{args.filterbank}: n_ceps {_brief(cfg.n_ceps)} must be <= n_filters - 1 = {fb.n_filters - 1}")
    outdir.mkdir(parents=True, exist_ok=True)

    def features(seg):
        return extract_features(seg, fb, cfg)

    # Written here, not on the workers, so a failure leaves exactly the files whose lines were printed.
    with _directory_lock(outdir):
        for entry, fm in zip(manifest.entries, _utterance_pass(manifest.entries, manifest.sample_rate_hz, cfg.jobs, features)):
            store.write_features(fm, targets[entry.utterance_id])
            print(f"{entry.utterance_id}\t{fm.n_frames}\t{float(fm.mask.mean()) * 100.0:.1f}")
    return EXIT_OK


def cmd_fratio(args, cfg: RunConfig) -> int:
    _refuse_existing([args.out], args.overwrite)
    manifest = store.load_manifest(args.manifest)
    speakers = manifest.speakers()
    if len(speakers) < 2:
        raise ValueError(f"{args.manifest}: need speaker_ids for at least two speakers")
    loaded = [(path, *store.load_document(path, "filterbank")) for path in args.filterbanks]
    first = args.filterbanks[0]
    if len(loaded) < 2:
        raise ValueError(f"{first}: need a second filterbank to compare with")
    n_fft = _check_documents([(path, doc) for path, doc, _ in loaded], manifest.sample_rate_hz, cfg, "fratio")
    fbs = [fb for _, _, fb in loaded]
    for path, _, fb in loaded:
        if fb.n_filters != fbs[0].n_filters:
            raise ValueError(f"{path}: n_filters {fb.n_filters} differs from n_filters {fbs[0].n_filters} of {first}")

    # One front-end pass per utterance, shared by every filterbank.
    def speech_log_energies(seg):
        spec = utterance_spectra(seg, cfg, n_fft)
        return [filterbank_log_energies(spec, fb) for fb in fbs]

    # One pass in manifest order, so a failure is named as every other command names it. Each
    # filterbank's rows go to its speaker's list, which is stacked once, and dropped, below.
    entries = [e for e in manifest.entries if e.speaker_id is not None]
    groups = [{speaker: [] for speaker in speakers} for _ in fbs]
    for entry, energies in zip(entries, _utterance_pass(entries, manifest.sample_rate_hz, cfg.jobs, speech_log_energies)):
        for group, rows in zip(groups, energies):
            group[entry.speaker_id].append(rows)
    variants = {}
    for doc_path, group in zip(args.filterbanks, groups):
        stem = label = Path(doc_path).stem
        copy = 2
        while label in variants:
            label, copy = f"{stem}#{copy}", copy + 1
        variants[label] = {speaker: np.vstack(group.pop(speaker)) for speaker in speakers}
    with _named(args.manifest):
        report = analysis.f_ratio_report(variants)
    print(report.to_text())
    if args.out is not None:
        store.write_text(args.out, report.to_tsv())
    return EXIT_OK


def _feature_files(features_dir: str, ids=(), what: str = "") -> dict:
    """{id: path} of the .wflt files in features_dir; a ValueError names the first of ids (a `what`) without one."""
    files = {p.stem: p for p in sorted(Path(features_dir).glob("*.wflt"))}
    if not files:
        raise ValueError(f"no feature files in {features_dir}")
    for i in ids:
        if i not in files:
            raise ValueError(f"{features_dir}: no features for {what} {i}")
    return files


def _speech_frames(paths) -> np.ndarray:
    """The speech frames of the feature files at paths, stacked; a ValueError names a file of another dimension.

    The one place where train-ubm, enroll and score read feature files and apply their masks.
    """
    rows = []
    for path in paths:
        frames = store.read_features(path).speech_frames
        if rows and frames.shape[1] != rows[0].shape[1]:
            raise ValueError(f"{path}: dim {frames.shape[1]} differs from dim {rows[0].shape[1]} of {paths[0]}")
        rows.append(frames)
    return np.vstack(rows)


def cmd_train_ubm(args, cfg: RunConfig) -> int:
    out = Path(args.out)
    _refuse_existing([out], args.overwrite)
    frames = _speech_frames(list(_feature_files(args.features).values()))
    with _named(args.features):
        model, history = backend.train_ubm(frames, cfg.ubm_components, cfg.em_iters, cfg.seed)
    prov = _provenance(cfg, "train-ubm", None)
    prov["em_log_likelihoods"] = [float(v) for v in history]
    store.save_model(store.gmm_document(model, prov), out)
    print(f"components\t{model.n_components}")
    print(f"frames\t{frames.shape[0]}")
    print(f"final_log_likelihood\t{float(history[-1])!r}")
    return EXIT_OK


def cmd_enroll(args, cfg: RunConfig) -> int:
    manifest = store.load_manifest(args.manifest)
    speakers = manifest.speakers()
    if not speakers:
        raise ValueError(f"{args.manifest}: no speaker_ids")
    outdir = Path(args.out)
    _refuse_existing([outdir / f"{speaker}.json" for speaker in speakers], args.overwrite)
    feature_files = _feature_files(args.features, [e.utterance_id for es in speakers.values() for e in es], "utterance")
    _, ubm = store.load_document(args.ubm, "gmm")

    def adapt(speaker):
        frames = _speech_frames([feature_files[e.utterance_id] for e in speakers[speaker]])
        return speaker, backend.map_adapt_means(ubm, frames, cfg.relevance), frames.shape[0]

    # Every speaker adapts before any model is written; only the C x D models are kept.
    adapted = list(_map_ordered(adapt, sorted(speakers), 1, "speaker {}".format))
    prov = _provenance(cfg, "enroll", args.manifest)
    outdir.mkdir(parents=True, exist_ok=True)
    with _directory_lock(outdir):
        for speaker, model, n_frames in adapted:
            store.save_model(store.gmm_document(model, prov), outdir / f"{speaker}.json")
            print(f"{speaker}\t{n_frames}")
    return EXIT_OK


def cmd_score(args, cfg: RunConfig) -> int:
    out = Path(args.out)
    _refuse_existing([out], args.overwrite)
    trials = store.read_trials(args.trials)
    if not trials.trials:
        raise ValueError(f"{args.trials}: no trials")
    by_test = {}  # test_id -> indices of its trials, in trial-list order
    for i, t in enumerate(trials.trials):
        by_test.setdefault(t.test_id, []).append(i)
    feature_files = _feature_files(args.features, by_test, "test segment")
    _, ubm = store.load_document(args.ubm, "gmm")
    enroll_models = {}
    for t in trials.trials:
        if t.enroll_id not in enroll_models:
            path = Path(args.models) / f"{t.enroll_id}.json"
            if not path.exists():
                raise ValueError(f"{args.models}: no enrolled model for {t.enroll_id}")
            _, model = store.load_document(path, "gmm")
            # Mean-only MAP copies the UBM's weights and variances, exactly through the JSON round trip.
            if not (
                model.means.shape == ubm.means.shape
                and np.array_equal(model.weights, ubm.weights)
                and np.array_equal(model.variances, ubm.variances)
            ):
                raise ValueError(f"{path}: not adapted from {args.ubm}: its component count, weights or variances differ")
            enroll_models[t.enroll_id] = model

    def one(test_id):
        models = [enroll_models[trials.trials[i].enroll_id] for i in by_test[test_id]]
        return backend.score_segment(models, ubm, _speech_frames([feature_files[test_id]]))

    scores = {}
    for test_id, values in zip(by_test, _map_ordered(one, by_test, cfg.jobs, "test segment {}".format)):
        scores.update(zip(by_test[test_id], values))
    scored = backend.TrialScoreSet(
        [dataclasses.replace(t, score=scores[i]) for i, t in enumerate(trials.trials)]
    )
    store.write_scores(scored, out)
    print(f"trials\t{len(scored.trials)}")
    return EXIT_OK


def cmd_evaluate(args, cfg: RunConfig) -> int:
    _refuse_existing([args.det_out], args.overwrite)
    scores = store.read_scores(args.scores)
    if args.fuse_with is not None:
        other = store.read_scores(args.fuse_with)
        with _named(f"{args.scores} and {args.fuse_with}"):
            scores = backend.fuse_scores(scores, other)
    with _named(args.scores):
        curve = backend.det_curve(scores)
    c_miss, c_fa, p_tar = backend.COST_PRESETS[cfg.cost_preset]
    eer_value = backend.eer(curve)
    dcf_value = backend.min_dcf(curve, c_miss, c_fa, p_tar)
    print(f"eer_percent\t{100.0 * eer_value:.4f}")
    print(f"min_dcf_x100\t{100.0 * dcf_value:.4f}")
    if args.det_out is not None:
        from statistics import NormalDist  # deferred: it loads decimal and fractions, and only --det-out needs it

        # The standard normal quantile; -inf at 0 and inf at 1, as norm.ppf gives.
        inv_cdf = NormalDist().inv_cdf
        lines = ["threshold\tp_miss\tp_fa\tprobit_miss\tprobit_fa"]
        for row in zip(curve.thresholds, curve.p_miss, curve.p_fa):
            probits = [-math.inf if p == 0.0 else math.inf if p == 1.0 else inv_cdf(p) for p in map(float, row[1:])]
            lines.append("\t".join(repr(float(v)) for v in (*row, *probits)))
        store.write_text(args.det_out, "\n".join(lines) + "\n")
    return EXIT_OK


# --- Parser --------------------------------------------------------------------

def _config_from_args(args) -> RunConfig:
    """RunConfig from --config and the subcommand's flags; load_config skips a flag not given (None)."""
    return load_config(args.config, {name: getattr(args, name) for name in READS[args.command] if name in _FLAGS})


def _build_parser() -> _Parser:
    parser = _Parser(prog="warpfilt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("learn-scale", cmd_learn_scale, "learn a frequency warping scale from a corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)

    p = command("learn-filterbank", cmd_learn_filterbank, "place filters on a scale; learn PCA shapes")
    p.add_argument("--manifest", help="corpus manifest (required for PCA shapes)")
    p.add_argument("--scale-doc", required=True, help="warping-scale document")
    p.add_argument("--out", required=True)

    p = command("extract", cmd_extract, "extract cepstral features for every utterance")
    p.add_argument("--manifest", required=True)
    p.add_argument("--filterbank", required=True)
    p.add_argument("--out", required=True, help="output directory for .wflt files")

    p = command("fratio", cmd_fratio, "per-filter F-ratio comparison of filterbank variants")
    p.add_argument("--manifest", required=True, help="manifest with speaker_ids")
    p.add_argument("--filterbanks", nargs="+", required=True)
    p.add_argument("--out", help="optional TSV output path")

    p = command("train-ubm", cmd_train_ubm, "train the universal background model")
    p.add_argument("--features", required=True, help="directory of .wflt files")
    p.add_argument("--out", required=True)

    p = command("enroll", cmd_enroll, "MAP-adapt a model per speaker")
    p.add_argument("--manifest", required=True, help="manifest with speaker_ids")
    p.add_argument("--features", required=True)
    p.add_argument("--ubm", required=True)
    p.add_argument("--out", required=True, help="output directory for speaker models")

    p = command("score", cmd_score, "score a trial list with enrolled models")
    p.add_argument("--trials", required=True)
    p.add_argument("--models", required=True, help="directory of enrolled speaker models")
    p.add_argument("--ubm", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="score file to write")

    p = command("evaluate", cmd_evaluate, "EER / minDCF / DET points from a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--fuse-with", dest="fuse_with", help="second score file for equal-weight fusion")
    p.add_argument("--det-out", dest="det_out", help="write DET sweep points here")

    for name, p in sub.choices.items():
        p.add_argument("--config", help="JSON config file; flags override its values")
        for field in (f for f in READS[name] if f in _FLAGS):
            p.add_argument("--" + field.replace("_", "-"), **_FLAGS[field])
        p.add_argument("--overwrite", action="store_true", help="replace existing outputs")
    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, _config_from_args(args))
    except UsageError as err:
        print(f"usage error: {_printable(err)}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as err:
        print(f"error: {_printable(err)}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as err:
        print(f"error: out of memory: {_printable(err)}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
