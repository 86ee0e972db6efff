import numpy as np
import pytest

from warpfilt.dsp import (
    AudioSegment,
    dct_ii_ortho,
    frame_signal,
    hamming_window,
    next_pow2,
    power_spectrum,
    pre_emphasize,
)


def seg(samples, sr=16000):
    return AudioSegment(np.asarray(samples, dtype=float), sr)


class TestPreEmphasize:
    def test_difference_equation(self):
        out = pre_emphasize(seg([1.0, 1.0, 1.0]), 0.97)
        assert np.allclose(out.samples, [1.0, 0.03, 0.03], atol=1e-12)

    def test_zero_input(self):
        out = pre_emphasize(seg([0.0, 0.0, 0.0, 0.0]), 0.5)
        assert np.array_equal(out.samples, np.zeros(4))

    def test_alpha_zero_is_identity(self):
        x = np.random.default_rng(0).normal(size=50)
        out = pre_emphasize(seg(x), 0.0)
        assert np.array_equal(out.samples, x)

    def test_empty_signal(self):
        with pytest.raises(ValueError, match="empty signal"):
            pre_emphasize(seg([]), 0.97)


class TestFrameSignal:
    def test_16k_framing_arithmetic(self):
        frames = frame_signal(seg(np.arange(960.0)), 20.0, 10.0)
        assert frames.shape == (5, 320)
        assert np.array_equal(frames[1], np.arange(160.0, 480.0))  # hop 160

    def test_8k_framing_arithmetic(self):
        frames = frame_signal(seg(np.arange(400.0), sr=8000), 20.0, 10.0)
        assert frames.shape == (4, 160)
        assert np.array_equal(frames[1], np.arange(80.0, 240.0))  # hop 80

    def test_exactly_one_frame(self):
        assert frame_signal(seg(np.zeros(320)), 20.0, 10.0).shape == (1, 320)

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            frame_signal(seg(np.zeros(100)), 20.0, 10.0)

    def test_rows_are_exact_slices(self):
        x = np.random.default_rng(1).normal(size=1000)
        frames = frame_signal(seg(x), 20.0, 10.0)
        assert frames.shape == (5, 320)
        for i in range(frames.shape[0]):
            assert np.array_equal(frames[i], x[i * 160 : i * 160 + 320])

    @pytest.mark.parametrize("n", [320, 479, 480, 1000, 16001])
    def test_read_only_view_equals_gathered_copy(self, n):
        s = seg(np.random.default_rng(n).normal(size=n))
        frames = frame_signal(s, 20.0, 10.0)
        n_frames = (n - 320) // 160 + 1
        idx = np.arange(n_frames)[:, None] * 160 + np.arange(320)[None, :]
        gathered = s.samples[idx]
        assert frames.shape == gathered.shape == (n_frames, 320)
        assert frames.tobytes() == gathered.tobytes()
        assert np.shares_memory(frames, s.samples)
        assert not frames.flags.writeable
        with pytest.raises(ValueError):
            frames[0, 0] = 1.0


class TestHammingWindow:
    def test_degenerate(self):
        assert np.array_equal(hamming_window(1), [1.0])

    def test_n3(self):
        assert np.allclose(hamming_window(3), [0.08, 1.0, 0.08], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 32, 321])
    def test_symmetry(self, n):
        w = hamming_window(n)
        assert np.allclose(w, w[::-1], atol=0)

    def test_zero_length(self):
        with pytest.raises(ValueError):
            hamming_window(0)


class TestPowerSpectrum:
    def test_unit_impulse_flat(self):
        frames = np.zeros((1, 8))
        frames[0, 0] = 1.0
        spec = power_spectrum(frames, 8, np.ones(8))
        assert np.allclose(spec[0], np.ones(5), atol=1e-12)

    def test_zero_frame(self):
        spec = power_spectrum(np.zeros((2, 8)), 8, np.ones(8))
        assert np.array_equal(spec, np.zeros((2, 5)))

    def test_on_bin_cosine(self):
        n_fft = 64
        k0 = 5
        n = np.arange(n_fft)
        frames = np.cos(2 * np.pi * k0 * n / n_fft)[None, :]
        spec = power_spectrum(frames, n_fft, np.ones(n_fft))
        peak = spec[0, k0]
        others = np.delete(spec[0], k0)
        assert peak > 0
        assert np.max(others) / peak < 1e-9

    def test_fft_too_short(self):
        with pytest.raises(ValueError, match="fft too short"):
            power_spectrum(np.zeros((1, 320)), 256, np.ones(320))

    def test_parseval_rectangular(self):
        rng = np.random.default_rng(2)
        frame = rng.normal(size=64)
        spec = power_spectrum(frame[None, :], 64, np.ones(64))
        bins = spec[0]
        total = bins[0] + 2 * bins[1:-1].sum() + bins[-1]
        energy = np.sum(frame**2)
        assert abs(total / 64 - energy) / energy < 1e-6

    def test_bins_zero_to_nyquist(self):
        spec = power_spectrum(np.zeros((3, 320)), 512, np.ones(320))
        assert spec.shape == (3, 257)
        assert spec.dtype == np.float64


def dct_matrix(q):
    """Independent orthonormal DCT-II matrix straight from the definition."""
    g = np.zeros((q, q))
    for p in range(q):
        s = np.sqrt(1.0 / q) if p == 0 else np.sqrt(2.0 / q)
        for m in range(q):
            g[p, m] = s * np.cos(np.pi * p * (m + 0.5) / q)
    return g


class TestDctIIOrtho:
    def test_constant_vector(self):
        c = dct_ii_ortho(np.ones(4))
        assert np.allclose(c, [2.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_zeros(self):
        assert np.array_equal(dct_ii_ortho(np.zeros(6)), np.zeros(6))

    def test_matches_definition(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=20)
        assert np.allclose(dct_ii_ortho(v), dct_matrix(20) @ v, atol=1e-12)

    def test_matrix_orthonormal(self):
        g = dct_matrix(16)
        assert np.abs(g.T @ g - np.eye(16)).max() < 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=12)
        c = dct_ii_ortho(v)
        assert np.abs(dct_matrix(12).T @ c - v).max() < 1e-9

    def test_n_out_too_large(self):
        with pytest.raises(ValueError):
            dct_ii_ortho(np.ones(4), 5)

    def test_truncation(self):
        v = np.random.default_rng(5).normal(size=10)
        assert np.array_equal(dct_ii_ortho(v, 3), dct_ii_ortho(v)[:3])

    @pytest.mark.parametrize("q", [1, 2, 3, 20, 40, 128])
    def test_matches_scipy(self, q):
        import scipy.fft

        v = np.random.default_rng(q).normal(size=(7, q))
        expected = scipy.fft.dct(v, type=2, norm="ortho", axis=-1)
        assert np.abs(dct_ii_ortho(v) - expected).max() <= 1e-12
        assert np.abs(dct_ii_ortho(v, min(q, 20)) - expected[:, : min(q, 20)]).max() <= 1e-12


def test_next_pow2():
    assert [next_pow2(n) for n in (1, 2, 3, 320, 512)] == [1, 2, 4, 512, 512]
