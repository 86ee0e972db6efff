"""Synthetic speaker corpus: formant-like filtered impulse-train excitations.

Utterances are deliberately non-stationary (formant glides, f0 glides, and
syllable-rate amplitude modulation) so speaker cues survive RASTA filtering.
The package only reads WAVs and manifests; the writers of both live here.
"""

import json
import os
import struct
from pathlib import Path

import numpy as np
import scipy.signal

from warpfilt.dsp import AudioSegment
from warpfilt.store import WAVE_FORMAT_IEEE_FLOAT, WAVE_FORMAT_PCM, CorpusManifest, ManifestEntry

BLOCK_S = 0.02  # resonator coefficients update every 20 ms


def riff_bytes(fmt_body: bytes, payload: bytes) -> bytes:
    """A RIFF/WAVE file of one fmt chunk and one data chunk (padded to even length)."""
    head = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body + b"data" + struct.pack("<I", len(payload))
    pad = b"\x00" * (len(payload) & 1)
    return b"".join([b"RIFF", struct.pack("<I", len(head) + len(payload) + len(pad)), head, payload, pad])


def write_wav(path, segment: AudioSegment, fmt: str = "pcm16"):
    """Write mono WAV: fmt "pcm16" clips the samples to [-1, 1) and rounds them, "float32" is 32-bit IEEE float."""
    rate = segment.sample_rate_hz
    if fmt == "pcm16":
        payload = np.rint(np.clip(segment.samples, -1.0, 32767.0 / 32768.0) * 32768.0).astype("<i2").tobytes()
        fmt_body = struct.pack("<HHIIHH", WAVE_FORMAT_PCM, 1, rate, 2 * rate, 2, 16)
    else:
        payload = segment.samples.astype("<f4").tobytes()
        fmt_body = struct.pack("<HHIIHH", WAVE_FORMAT_IEEE_FLOAT, 1, rate, 4 * rate, 4, 32)
    Path(path).write_bytes(riff_bytes(fmt_body, payload))


def save_manifest(manifest: CorpusManifest, path):
    """Write a manifest whose entry paths are relative to it, so a corpus tree stays movable."""
    path = Path(path)
    entries = []
    for e in manifest.entries:
        entry = {"utterance_id": e.utterance_id, "path": os.path.relpath(Path(e.path).resolve(), path.resolve().parent)}
        entries.append(entry if e.speaker_id is None else {**entry, "speaker_id": e.speaker_id})
    obj = {"sample_rate_hz": manifest.sample_rate_hz, "entries": entries}
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def _speaker_traits(speaker_idx: int, seed: int):
    rng = np.random.default_rng([seed, speaker_idx])
    f0 = 95.0 + 22.0 * speaker_idx + rng.uniform(-5.0, 5.0)
    formants = np.array(
        [
            330.0 + 70.0 * speaker_idx + rng.uniform(-20.0, 20.0),
            950.0 + 155.0 * speaker_idx + rng.uniform(-40.0, 40.0),
            2300.0 + 200.0 * speaker_idx + rng.uniform(-60.0, 60.0),
        ]
    )
    bandwidths = np.array([90.0, 110.0, 160.0])
    return f0, formants, bandwidths


def synth_utterance(
    speaker_idx: int,
    utt_idx: int,
    sample_rate_hz: int = 16000,
    duration_s: float = 1.2,
    seed: int = 0,
    voiced_fraction: float = 0.8,
) -> np.ndarray:
    """One utterance of a synthetic speaker with slowly gliding formants and f0."""
    rng = np.random.default_rng([seed, speaker_idx, utt_idx])
    f0_base, formants, bandwidths = _speaker_traits(speaker_idx, seed)
    n = int(duration_s * sample_rate_hz)
    voiced_len = int(voiced_fraction * n)

    # Glottal-like excitation with a slow f0 glide.
    glide_rate = rng.uniform(0.8, 1.6)
    glide_phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(voiced_len) / sample_rate_hz
    f0_track = f0_base * (1.0 + 0.06 * np.sin(2.0 * np.pi * glide_rate * t + glide_phase))
    phase = np.cumsum(f0_track / sample_rate_hz)
    excitation = np.zeros(voiced_len)
    excitation[np.diff(np.floor(phase), prepend=0.0) > 0.0] = 1.0
    excitation += 0.003 * rng.standard_normal(voiced_len)

    # Block-wise time-varying resonator cascade (formants glide +/-6%).
    drift_rate = rng.uniform(0.6, 1.4)
    drift_phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
    block = int(BLOCK_S * sample_rate_hz)
    voiced = np.zeros(voiced_len)
    states = [np.zeros(2) for _ in formants]
    for start in range(0, voiced_len, block):
        stop = min(start + block, voiced_len)
        mid_t = (start + stop) / (2.0 * sample_rate_hz)
        chunk = excitation[start:stop]
        for i, (f_center, bw) in enumerate(zip(formants, bandwidths)):
            f_now = f_center * (1.0 + 0.06 * np.sin(2.0 * np.pi * drift_rate * mid_t + drift_phase[i]))
            r = np.exp(-np.pi * bw / sample_rate_hz)
            a = [1.0, -2.0 * r * np.cos(2.0 * np.pi * f_now / sample_rate_hz), r * r]
            chunk, states[i] = scipy.signal.lfilter([1.0], a, chunk, zi=states[i])
        voiced[start:stop] = chunk

    # Syllable-rate amplitude modulation inside RASTA's passband.
    syllable_rate = rng.uniform(3.0, 5.0)
    envelope = 0.35 + 0.65 * 0.5 * (1.0 - np.cos(2.0 * np.pi * syllable_rate * t + rng.uniform(0.0, 2.0 * np.pi)))
    voiced *= envelope

    head = np.zeros((n - voiced_len) // 2)
    tail = np.zeros(n - voiced_len - head.size)
    samples = np.concatenate([head, voiced, tail])
    samples += 1e-5 * rng.standard_normal(n)
    return 0.4 * samples / np.abs(samples).max()


def build_corpus(
    root: Path,
    n_speakers: int = 8,
    n_utterances: int = 20,
    sample_rate_hz: int = 16000,
    duration_s: float = 1.2,
    seed: int = 0,
    n_enroll: int = 3,
):
    """Write WAVs plus full/enroll manifests and a trial list under root.

    Returns (full_manifest, enroll_manifest, trials) paths. The first n_enroll
    utterances per speaker enroll that speaker; the rest are test segments.
    """
    root = Path(root)
    wav_dir = root / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    enroll_entries = []
    trial_lines = []
    test_ids = []
    for s in range(n_speakers):
        speaker = f"spk{s}"
        for u in range(n_utterances):
            utt = f"{speaker}_u{u:02d}"
            samples = synth_utterance(s, u, sample_rate_hz, duration_s, seed)
            write_wav(wav_dir / f"{utt}.wav", AudioSegment(samples, sample_rate_hz))
            entry = ManifestEntry(utt, wav_dir / f"{utt}.wav", speaker)
            entries.append(entry)
            if u < n_enroll:
                enroll_entries.append(entry)
            else:
                test_ids.append((speaker, utt))
    for s in range(n_speakers):
        model = f"spk{s}"
        for owner, utt in test_ids:
            label = "target" if owner == model else "impostor"
            trial_lines.append(f"{model}\t{utt}\t{label}")
    full_manifest = root / "corpus.json"
    enroll_manifest = root / "enroll.json"
    trials = root / "trials.tsv"
    save_manifest(CorpusManifest(entries, sample_rate_hz), full_manifest)
    save_manifest(CorpusManifest(enroll_entries, sample_rate_hz), enroll_manifest)
    trials.write_text("\n".join(trial_lines) + "\n", encoding="utf-8")
    return full_manifest, enroll_manifest, trials
