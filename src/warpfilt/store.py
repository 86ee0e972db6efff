"""Persistence and interchange: WAV ingestion, model documents, feature files,
corpus manifests, trial lists, and score files."""

import hashlib
import json
import os
import struct
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .backend import IMPOSTOR, TARGET, GmmModel, Trial, TrialScoreSet
from .dsp import AudioSegment, _brief
from .filterbank import Filterbank, FilterbankLayout
from .scale import WarpingScale

SCHEMA_VERSION = 1

MAX_N_FFT = 1 << 16
# The largest sample rate a WAV header's 32-bit field holds; it bounds every sample rate and header integer.
MAX_HEADER_INT = (1 << 32) - 1

FEATURE_MAGIC = b"WFLT"
FEATURE_VERSION = 1
FEATURE_HEADER = struct.Struct("<4sIII")  # a .wflt file's magic, version, n_frames and dim

WAVE_FORMAT_PCM = 1
WAVE_FORMAT_IEEE_FLOAT = 3
WAVE_FORMAT_EXTENSIBLE = 0xFFFE


def _atomic_write(path: str | Path, data: bytes):
    """Write to a temporary file of this writer's own, then rename it over `path`."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # mode as open() gives it
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str):
    """Write text as UTF-8, atomically: every text file the package writes goes through here."""
    _atomic_write(path, text.encode("utf-8"))


def _read_text(path: str | Path) -> str:
    """The UTF-8 text of a file; a ValueError names the file when it is no UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None


def read_json(path: str | Path):
    """The JSON value of a UTF-8 file; a ValueError names the file when it holds none."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:  # a syntax error, an oversized integer, or nesting too deep
        raise ValueError(f"{path}: {err}") from None


# --- WAV ---------------------------------------------------------------------

def load_wav(path: str | Path) -> AudioSegment:
    """Read a mono RIFF/WAVE file (16-bit PCM or 32-bit IEEE float) scaled to [-1, 1].

    A WAVE_FORMAT_EXTENSIBLE header is read by the format tag that starts its
    sub-format GUID. Every error names the file, and a chunk id is echoed as a
    Python literal. Float samples must be finite.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack("<I", raw[pos + 4 : pos + 8])
        body = raw[pos + 8 : pos + 8 + chunk_size]
        if chunk_id != b"data" and len(body) < chunk_size:
            raise ValueError(f"{path}: truncated chunk {chunk_id.decode('latin-1')!r} at byte {pos}")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise ValueError(f"{path}: malformed fmt chunk")
            fmt = struct.unpack("<HHIIHH", body[:16])
            if fmt[0] == WAVE_FORMAT_EXTENSIBLE and chunk_size >= 40:
                fmt = struct.unpack("<H", body[24:26]) + fmt[1:]
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise ValueError(f"{path}: truncated data chunk")
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)
    if fmt is None:
        raise ValueError(f"{path}: missing fmt chunk")
    if data is None:
        raise ValueError(f"{path}: missing data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels != 1:
        raise ValueError(f"{path}: unsupported channel count {channels} (mono required)")
    dtype = {(WAVE_FORMAT_PCM, 16): "<i2", (WAVE_FORMAT_IEEE_FLOAT, 32): "<f4"}.get((audio_format, bits))
    if dtype is None:
        raise ValueError(
            f"{path}: unsupported codec (format tag {audio_format}, {bits} bits);"
            " need 16-bit PCM or 32-bit IEEE float"
        )
    if sample_rate == 0:
        raise ValueError(f"{path}: sample rate must be positive")
    if len(data) % (bits // 8):
        raise ValueError(f"{path}: data chunk of {len(data)} bytes is not a multiple of {bits // 8}-byte samples")
    if not data:
        raise ValueError(f"{path}: empty signal")
    samples = np.frombuffer(data, dtype=dtype).astype(np.float64)
    if audio_format == WAVE_FORMAT_PCM:
        samples /= 32768.0
    elif not np.isfinite(samples).all():
        raise ValueError(f"{path}: non-finite sample at index {np.flatnonzero(~np.isfinite(samples))[0]}")
    return AudioSegment(samples, sample_rate, Path(path).stem)


def write_wav(path: str | Path, segment: AudioSegment, fmt: str = "pcm16"):
    """Write mono 16-bit PCM or 32-bit IEEE float WAV."""
    if fmt == "pcm16":
        format_tag, bits = WAVE_FORMAT_PCM, 16
        clipped = np.clip(segment.samples, -1.0, 32767.0 / 32768.0)
        payload = (np.rint(clipped * 32768.0).astype("<i2")).tobytes()
    elif fmt == "float32":
        format_tag, bits = WAVE_FORMAT_IEEE_FLOAT, 32
        payload = segment.samples.astype("<f4").tobytes()
    else:
        raise ValueError(f"unknown wav format: {fmt!r}")
    byte_rate = segment.sample_rate_hz * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, format_tag, 1, segment.sample_rate_hz, byte_rate, bits // 8, bits
    )
    header += b"data" + struct.pack("<I", len(payload))
    _atomic_write(path, header + payload)


# --- Model documents ---------------------------------------------------------

@dataclass
class ModelDocument:
    """Versioned serialized model with provenance; its fields are the document's top-level keys."""

    kind: str
    sample_rate_hz: int
    n_fft: int
    payload: dict
    provenance: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION


DOCUMENT_KEYS = {f.name for f in fields(ModelDocument)}


def _payload_digest(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def save_model(doc: ModelDocument, path: str | Path):
    """Write a model document as UTF-8 JSON with a payload checksum."""
    if not isinstance(doc.kind, str) or doc.kind not in DECODERS:
        raise ValueError(f"unknown model kind: {doc.kind!r}")
    provenance = {**doc.provenance, "payload_sha256": _payload_digest(doc.payload)}
    write_text(path, json.dumps({**vars(doc), "provenance": provenance}, indent=1, sort_keys=True) + "\n")


def load_model(path: str | Path, expect_kind: str | None = None) -> ModelDocument:
    """Read and validate a model document; checks keys, version, kind (expect_kind's, if given), and checksum."""
    obj = read_json(path)
    if not isinstance(obj, dict) or set(obj) != DOCUMENT_KEYS:
        raise ValueError(f"{path}: unexpected document keys")
    if type(obj["schema_version"]) is not int or obj["schema_version"] != SCHEMA_VERSION:  # true and 1.0 equal 1
        raise ValueError(f"{path}: unsupported schema version {_brief(obj['schema_version'])}")
    if not isinstance(obj["kind"], str) or obj["kind"] not in DECODERS:  # an unhashable list or object too
        raise ValueError(f"{path}: unknown model kind {_brief(obj['kind'])}")
    for part in ("payload", "provenance"):
        if not isinstance(obj[part], dict):
            raise ValueError(f"{path}: {part} must be an object")
    provenance = dict(obj["provenance"])
    stored = provenance.pop("payload_sha256", None)
    if stored != _payload_digest(obj["payload"]):
        raise ValueError(f"{path}: checksum mismatch")
    if expect_kind is not None and obj["kind"] != expect_kind:
        raise ValueError(f"{path}: expected kind {expect_kind!r}, found {obj['kind']!r}")
    return ModelDocument(**{**obj, "provenance": provenance})


def _header_int(doc: ModelDocument, name: str, minimum: int) -> int:
    value = getattr(doc, name)
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {_brief(value)}")
    if value > MAX_HEADER_INT:
        raise ValueError(f"{name} must be <= {MAX_HEADER_INT}, got {_brief(value)}")
    return value


def check_n_fft(n_fft) -> int:
    """The n_fft rule of scale and filterbank documents: a power of two no larger than MAX_N_FFT."""
    if type(n_fft) is not int or not 0 < n_fft <= MAX_N_FFT or n_fft & (n_fft - 1):
        raise ValueError(f"n_fft must be a power of two <= {MAX_N_FFT}, got {_brief(n_fft)}")
    return n_fft


def _payload_array(payload: dict, name: str, ndim: int, integer: bool = False) -> np.ndarray:
    """payload[name] as an array: ndim levels of nested JSON lists of numbers, or of integers.

    A missing field, a level that is no list, an element of another type (a bool
    among them), ragged rows or no elements at all raise a ValueError naming the field.
    """
    value = payload.get(name)
    element = (int,) if integer else (int, float)

    def conforms(v, depth):
        if depth == 0:
            return type(v) in element
        return isinstance(v, list) and all(conforms(item, depth - 1) for item in v)

    what = "integers" if integer else "numbers"
    if not conforms(value, ndim):
        raise ValueError(f"{name} must be a list of {'lists of ' * (ndim - 1)}{what}")
    try:
        array = np.asarray(value, dtype=np.int64 if integer else np.float64)
    except (ValueError, OverflowError):
        raise ValueError(f"{name} must be a rectangular array of {what} within range") from None
    if array.size == 0:
        raise ValueError(f"{name} must not be empty")
    return array


def scale_document(
    scale: WarpingScale, sample_rate_hz: int, n_fft: int, provenance: dict | None = None
) -> ModelDocument:
    payload = {
        "scale_kind": scale.kind,
        "knots_hz": scale.knots_hz.tolist(),
        "knots_warped": scale.knots_warped.tolist(),
    }
    return ModelDocument("warping-scale", sample_rate_hz, n_fft, payload, provenance or {})


def scale_from_document(doc: ModelDocument) -> WarpingScale:
    p = doc.payload
    rate = _header_int(doc, "sample_rate_hz", 1)
    check_n_fft(doc.n_fft)
    # WarpingScale validates monotonicity, catching hand-edited documents.
    warping = WarpingScale(_payload_array(p, "knots_hz", 1), _payload_array(p, "knots_warped", 1), p.get("scale_kind"))
    if warping.nyquist_hz != rate / 2:
        raise ValueError(f"knots_hz must end at sample_rate_hz / 2 = {rate / 2!r}, got {_brief(warping.nyquist_hz)}")
    return warping


def filterbank_document(fb: Filterbank, provenance: dict | None = None) -> ModelDocument:
    payload = {
        "shape_kind": fb.shape_kind,
        "boundary_bins": fb.layout.boundary_bins.tolist(),
        "responses": fb.responses.tolist(),
    }
    return ModelDocument(
        "filterbank", fb.layout.sample_rate_hz, fb.layout.n_fft, payload, provenance or {}
    )


def filterbank_from_document(doc: ModelDocument) -> Filterbank:
    p = doc.payload
    rate, n_fft = _header_int(doc, "sample_rate_hz", 1), check_n_fft(doc.n_fft)
    layout = FilterbankLayout(_payload_array(p, "boundary_bins", 1, integer=True), rate, n_fft)
    return Filterbank(layout, _payload_array(p, "responses", 2), p.get("shape_kind"))


def gmm_document(model: GmmModel, provenance: dict | None = None) -> ModelDocument:
    """A GMM models cepstra, not spectra, so its document's sample_rate_hz and n_fft are 0."""
    payload = {
        "weights": model.weights.tolist(),
        "means": model.means.tolist(),
        "variances": model.variances.tolist(),
    }
    return ModelDocument("gmm", 0, 0, payload, provenance or {})


def gmm_from_document(doc: ModelDocument) -> GmmModel:
    p = doc.payload
    _header_int(doc, "sample_rate_hz", 0)
    _header_int(doc, "n_fft", 0)
    return GmmModel(_payload_array(p, "weights", 1), _payload_array(p, "means", 2), _payload_array(p, "variances", 2))


# The model kinds, each with the decoder of its payload.
DECODERS = {"warping-scale": scale_from_document, "filterbank": filterbank_from_document, "gmm": gmm_from_document}


def load_document(path: str | Path, kind: str) -> tuple[ModelDocument, object]:
    """The model document of `kind` at path and its decoded object; another kind or a decoding error names the file."""
    doc = load_model(path, expect_kind=kind)
    try:
        return doc, DECODERS[kind](doc)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


# --- Feature files -----------------------------------------------------------

def write_features(fm, path: str | Path):
    """Binary layout: FEATURE_HEADER, packed mask, float64 rows."""
    header = FEATURE_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, fm.n_frames, fm.dim)
    mask_bytes = np.packbits(fm.mask, bitorder="little").tobytes()
    payload = fm.vectors.astype("<f8").tobytes()
    _atomic_write(path, header + mask_bytes + payload)


def read_features(path: str | Path):
    """Read a feature file written by write_features; rejects corrupt headers and dimension 0."""
    from .features import FeatureMatrix

    raw = Path(path).read_bytes()
    if len(raw) < FEATURE_HEADER.size or not raw.startswith(FEATURE_MAGIC):
        raise ValueError(f"{path}: bad feature-file magic")
    _, version, n_frames, dim = FEATURE_HEADER.unpack_from(raw)
    if version != FEATURE_VERSION:
        raise ValueError(f"{path}: unsupported feature-file version {version}")
    if dim == 0:
        raise ValueError(f"{path}: feature dimension must be >= 1, got 0")
    rows_at = FEATURE_HEADER.size + (n_frames + 7) // 8
    if len(raw) != rows_at + n_frames * dim * 8:
        raise ValueError(f"{path}: truncated feature file")
    mask_bits = np.frombuffer(raw[FEATURE_HEADER.size : rows_at], dtype=np.uint8)
    mask = np.unpackbits(mask_bits, bitorder="little")[:n_frames].astype(bool)
    vectors = np.frombuffer(raw[rows_at:], dtype="<f8").reshape(n_frames, dim)
    # The Gaussian backend squares every value, so a value whose square overflows is refused here, by file.
    with np.errstate(over="ignore"):
        if not np.isfinite(np.square(vectors)).all():
            raise ValueError(f"{path}: feature values must have finite squares")
    return FeatureMatrix(vectors.copy(), mask, Path(path).stem)


# --- Trials and scores -------------------------------------------------------

# The usual file-name limit (NAME_MAX, 255 bytes) less the 5-byte '.wflt' or '.json' an id gets.
MAX_ID_BYTES = 250


def _id_problem(name: str) -> str | None:
    """Why an id cannot name a file and be one stdout field, or None if it can."""
    if name in ("", ".", "..") or not name.isprintable() or any(c in name for c in "/\\"):
        return "must be one path component"
    if len(name.encode("utf-8")) > MAX_ID_BYTES:
        return f"must be <= {MAX_ID_BYTES} bytes"
    return None


def _trial_lines(path: str | Path, n_fields: int, what: str):
    """('path:line', fields) of each non-blank line: n_fields tab-separated fields, label third, no trial twice."""
    seen = set()
    for lineno, line in enumerate(_read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != n_fields or parts[2] not in (TARGET, IMPOSTOR):
            raise ValueError(f"{path}:{lineno}: malformed {what} line")
        key = (parts[0], parts[1])
        if key in seen:
            raise ValueError(f"{path}:{lineno}: duplicate trial {_brief(key)}")
        seen.add(key)
        yield f"{path}:{lineno}", parts


def read_trials(path: str | Path) -> TrialScoreSet:
    """Parse 'enroll<TAB>test<TAB>target|impostor' lines; each id must be able to name a file."""
    trials = []
    for where, parts in _trial_lines(path, 3, "trial"):
        for field, value in zip(("enroll_id", "test_id"), parts):
            if problem := _id_problem(value):
                raise ValueError(f"{where}: field {field!r} {problem}, got {_brief(value)}")
        trials.append(Trial(*parts))
    return TrialScoreSet(trials)


def write_scores(scores: TrialScoreSet, path: str | Path):
    """Write trial lines with a trailing decimal score column."""
    lines = []
    for t in scores.trials:
        if t.score is None:
            raise ValueError("cannot write unscored trials")
        lines.append(f"{t.enroll_id}\t{t.test_id}\t{t.label}\t{float(t.score)!r}")
    write_text(path, "\n".join(lines) + "\n")


def read_scores(path: str | Path) -> TrialScoreSet:
    """Parse score files written by write_scores."""
    trials = []
    for where, parts in _trial_lines(path, 4, "score"):
        try:
            value = float(parts[3])
        except ValueError:
            raise ValueError(f"{where}: malformed score value") from None
        if not np.isfinite(value):
            raise ValueError(f"{where}: non-finite score")
        trials.append(Trial(*parts[:3], value))
    return TrialScoreSet(trials)


# --- Corpus manifests --------------------------------------------------------

@dataclass
class ManifestEntry:
    utterance_id: str
    path: Path
    speaker_id: str | None = None


@dataclass
class CorpusManifest:
    entries: list[ManifestEntry]
    sample_rate_hz: int

    def speakers(self) -> dict[str, list[ManifestEntry]]:
        groups: dict[str, list[ManifestEntry]] = {}
        for e in self.entries:
            if e.speaker_id is not None:
                groups.setdefault(e.speaker_id, []).append(e)
        return groups


def load_manifest(path: str | Path) -> CorpusManifest:
    """Read a JSON corpus manifest; ids must be unique and able to name files, and paths must name files.

    No entries, or a field of the wrong type or value, raises a ValueError naming
    the manifest (and the entry and the field).
    """
    path = Path(path)
    obj = read_json(path)
    if not isinstance(obj, dict) or "entries" not in obj or "sample_rate_hz" not in obj:
        raise ValueError(f"{path}: manifest needs 'sample_rate_hz' and 'entries'")
    rate = obj["sample_rate_hz"]
    if type(rate) is not int or rate <= 0:
        raise ValueError(f"{path}: field 'sample_rate_hz' must be a positive integer")
    if rate > MAX_HEADER_INT:
        raise ValueError(f"{path}: field 'sample_rate_hz' must be <= {MAX_HEADER_INT}, got {_brief(rate)}")
    if not isinstance(obj["entries"], list):
        raise ValueError(f"{path}: field 'entries' must be a list")
    if not obj["entries"]:
        raise ValueError(f"{path}: no utterances")
    entries = []
    seen = set()
    for i, item in enumerate(obj["entries"]):
        if not isinstance(item, dict):
            raise ValueError(f"{path}: entry {i} must be an object")
        for key in ("utterance_id", "path"):
            if key not in item:
                raise ValueError(f"{path}: entry {i} lacks {key!r}")
        for key in ("utterance_id", "path", "speaker_id"):
            value = item.get(key)
            if (value is not None or key != "speaker_id") and not (isinstance(value, str) and value):
                raise ValueError(f"{path}: entry {i} field {key!r} must be a non-empty string")
            if key != "path" and value is not None and (problem := _id_problem(value)):
                raise ValueError(f"{path}: entry {i} field {key!r} {problem}, got {_brief(value)}")
        utt = item["utterance_id"]
        if utt in seen:
            raise ValueError(f"{path}: duplicate utterance id {utt!r}")
        seen.add(utt)
        wav = Path(item["path"])
        if not wav.is_absolute():
            wav = path.parent / wav
        try:
            is_file = wav.is_file()
        except OSError:  # a name the file system cannot hold, too long for example
            is_file = False
        if not is_file:
            raise ValueError(f"{path}: missing audio file {wav}")
        entries.append(ManifestEntry(utt, wav, item.get("speaker_id")))
    return CorpusManifest(entries, rate)


def save_manifest(manifest: CorpusManifest, path: str | Path):
    path = Path(path)
    base = path.resolve().parent

    def encode(p: Path) -> str:
        # Paths are stored relative to the manifest so corpus trees stay movable;
        # load_manifest resolves them against the manifest location.
        try:
            return os.path.relpath(Path(p).resolve(), base)
        except ValueError:
            return str(Path(p).resolve())

    obj = {
        "sample_rate_hz": manifest.sample_rate_hz,
        "entries": [
            {
                "utterance_id": e.utterance_id,
                "path": encode(e.path),
                **({"speaker_id": e.speaker_id} if e.speaker_id is not None else {}),
            }
            for e in manifest.entries
        ],
    }
    write_text(path, json.dumps(obj, indent=1) + "\n")


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
