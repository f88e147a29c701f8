import struct

import numpy as np
import pytest

from keyecho.audio import (MAX_WAV_RATE, AudioSignal, load_wav,
                           ms_to_samples, write_wav)
from keyecho.errors import WavFormatError

from conftest import make_wav_bytes, pcm_frames


def _write(tmp_path, raw, name="t.wav"):
    path = tmp_path / name
    path.write_bytes(raw)
    return path


def _pcm_codes(bits):
    """Every 8- and 16-bit code; random and extreme 24- and 32-bit ones."""
    full = 1 << (bits - 1)
    if bits <= 16:
        return np.arange(-full, full)
    rng = np.random.default_rng(bits)
    return np.concatenate([[-full, -full + 1, -1, 0, 1, full - 1],
                           rng.integers(-full, full, 20000)])


class TestLoadWav:
    def test_16bit_mono_scaling(self, tmp_path):
        frames = struct.pack("<3h", 0, 16384, -32768)
        sig = load_wav(_write(tmp_path, make_wav_bytes(frames)))
        assert sig.samples.tolist() == [0.0, 0.5, -1.0]
        assert sig.sample_rate == 44100

    def test_stereo_downmix_mean(self, tmp_path):
        frames = struct.pack("<2h", 1000, 3000)
        sig = load_wav(_write(tmp_path, make_wav_bytes(frames, channels=2)))
        assert sig.samples.tolist() == [0.06103515625]  # (1000+3000)/2/32768

    def test_downmix_channel_order_invariant(self, tmp_path):
        rng = np.random.default_rng(1)
        left = rng.integers(-32768, 32767, 50)
        right = rng.integers(-32768, 32767, 50)
        lr = np.empty(100, dtype="<i2")
        lr[0::2], lr[1::2] = left, right
        rl = np.empty(100, dtype="<i2")
        rl[0::2], rl[1::2] = right, left
        a = load_wav(_write(tmp_path, make_wav_bytes(lr.tobytes(), channels=2), "a.wav"))
        b = load_wav(_write(tmp_path, make_wav_bytes(rl.tobytes(), channels=2), "b.wav"))
        assert np.array_equal(a.samples, b.samples)

    def test_truncated_data_chunk(self, tmp_path):
        frames = struct.pack("<2h", 1, 2)
        raw = make_wav_bytes(frames, declared_size=100)
        with pytest.raises(WavFormatError, match="declares 100 bytes"):
            load_wav(_write(tmp_path, raw))

    def test_not_riff(self, tmp_path):
        with pytest.raises(WavFormatError, match="not a RIFF/WAVE file"):
            load_wav(_write(tmp_path, b"OggS" + b"\0" * 40))

    def test_missing_data_chunk(self, tmp_path):
        raw = make_wav_bytes(b"")[:36]  # header + fmt only
        with pytest.raises(WavFormatError, match="missing data chunk"):
            load_wav(_write(tmp_path, raw))

    def test_zero_frames(self, tmp_path):
        with pytest.raises(WavFormatError, match="zero data frames"):
            load_wav(_write(tmp_path, make_wav_bytes(b"")))

    def test_compressed_codec_rejected(self, tmp_path):
        raw = make_wav_bytes(struct.pack("<2h", 0, 0), audio_format=0x55)  # mp3
        with pytest.raises(WavFormatError, match="compressed WAV"):
            load_wav(_write(tmp_path, raw))

    def test_8bit_offset_binary(self, tmp_path):
        frames = bytes([128, 255, 0])
        sig = load_wav(_write(tmp_path, make_wav_bytes(frames, bits=8)))
        assert sig.samples.tolist() == [0.0, 127 / 128, -1.0]

    def test_24bit(self, tmp_path):
        frames = b"\x00\x00\x40" + b"\x00\x00\x80"  # 2^22, -2^23
        sig = load_wav(_write(tmp_path, make_wav_bytes(frames, bits=24)))
        assert sig.samples.tolist() == [0.5, -1.0]

    def test_32bit_int(self, tmp_path):
        frames = struct.pack("<2i", 1 << 30, -(1 << 31))
        sig = load_wav(_write(tmp_path, make_wav_bytes(frames, bits=32)))
        assert sig.samples.tolist() == [0.5, -1.0]

    def test_float32(self, tmp_path):
        frames = struct.pack("<3f", 0.25, -0.5, 1.5)
        raw = make_wav_bytes(frames, bits=32, audio_format=3)
        sig = load_wav(_write(tmp_path, raw))
        assert sig.samples.tolist() == [0.25, -0.5, 1.0]  # clipped

    @pytest.mark.parametrize("bits", [8, 16, 24, 32])
    def test_pcm_scaling_matches_division(self, tmp_path, bits):
        ints = _pcm_codes(bits)
        raw = pcm_frames(ints, bits)
        sig = load_wav(_write(tmp_path, make_wav_bytes(raw, bits=bits)))
        want = ints.astype(np.float64) / float(1 << (bits - 1))
        assert np.array_equal(sig.samples.view(np.uint64),
                              want.view(np.uint64))

    @pytest.mark.parametrize("bits,channels,grid", [
        (8, 1, 7), (16, 1, 15), (24, 1, 23),
        (8, 2, 8), (16, 2, 16), (24, 2, 24),
        (32, 1, None), (32, 2, None)])
    def test_grid_bits_recorded(self, tmp_path, bits, channels, grid):
        # Stereo pairs up consecutive codes; their mean halves the step.
        raw = make_wav_bytes(pcm_frames(_pcm_codes(bits), bits),
                             bits=bits, channels=channels)
        sig = load_wav(_write(tmp_path, raw))
        assert sig.grid_bits == grid
        if grid is not None:  # every sample times 2^grid is whole
            scaled = np.ldexp(sig.samples, grid)
            assert np.array_equal(scaled, np.floor(scaled))

    @pytest.mark.parametrize("channels", [1, 2])
    def test_float32_has_no_grid(self, tmp_path, channels):
        frames = np.array([0.25, -0.5, 0.5, 1.0], dtype="<f4").tobytes()
        raw = make_wav_bytes(frames, bits=32, audio_format=3,
                             channels=channels)
        assert load_wav(_write(tmp_path, raw)).grid_bits is None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_float32_non_finite_rejected(self, tmp_path, bad):
        frames = struct.pack("<3f", 0.25, bad, -0.5)
        raw = make_wav_bytes(frames, bits=32, audio_format=3)
        with pytest.raises(WavFormatError, match="NaN or infinite"):
            load_wav(_write(tmp_path, raw))

    def test_roundtrip_16bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        ints = rng.integers(-32768, 32768, 500).astype(np.int64)
        sig = AudioSignal(ints / 32768.0, 22050)
        path = tmp_path / "rt.wav"
        write_wav(path, sig)
        back = load_wav(path)
        assert back.sample_rate == 22050
        assert np.array_equal(back.samples, sig.samples)

    def test_full_scale_sample_does_not_wrap(self, tmp_path):
        # +1.0 scales to 32768, one past int16: it is written as 32767.
        path = tmp_path / "loud.wav"
        write_wav(path, AudioSignal(np.array([1.0, -1.0, 0.0]), 8000))
        assert np.frombuffer(path.read_bytes()[44:], "<i2").tolist() == \
               [32767, -32768, 0]

    def test_one_hertz_is_a_rate(self, tmp_path):
        raw = make_wav_bytes(struct.pack("<3h", 0, 100, -100), rate=1)
        assert load_wav(_write(tmp_path, raw)).sample_rate == 1

    def test_rate_past_the_header_byte_rate_is_rejected(self, tmp_path):
        # The byte rate, 2 * rate, must fit in 32 unsigned bits.
        path = tmp_path / "max.wav"
        write_wav(path, AudioSignal(np.array([0.5]), MAX_WAV_RATE))
        assert load_wav(path).sample_rate == MAX_WAV_RATE == 2**31 - 1
        with pytest.raises(WavFormatError, match="sample rate"):
            write_wav(tmp_path / "over.wav", AudioSignal(np.array([0.5]),
                                                         2**31))
        assert not (tmp_path / "over.wav").exists()


class TestMsToSamples:
    @pytest.mark.parametrize("ms,rate,expected", [
        (100, 44100, 4410),
        (0, 44100, 0),
        (100, 1000, 100),
        (1.5, 1000, 2),
    ])
    def test_values(self, ms, rate, expected):
        assert ms_to_samples(ms, rate) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ms_to_samples(-1, 1000)


class TestAudioSignal:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AudioSignal(np.array([0.0, 1.5]), 1000)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            AudioSignal(np.array([0.0, bad, 0.5]), 1000)

    def test_grid_is_not_an_argument_nor_compared(self, tmp_path):
        sig = AudioSignal(np.array([0.5]), 1000)
        assert sig.grid_bits is None
        assert repr(sig) == "AudioSignal(sample_rate=1000)"
        with pytest.raises(TypeError):
            AudioSignal(np.array([0.5]), 1000, 15)
        with pytest.raises(TypeError):
            AudioSignal(np.array([0.5]), 1000, grid_bits=15)
        frames = struct.pack("<h", 16384)
        loaded = load_wav(_write(tmp_path, make_wav_bytes(frames, rate=1000)))
        assert loaded.grid_bits == 15
        assert repr(loaded) == repr(sig)
        # Signals compare by identity; equal arrays raise nothing.
        a, b = AudioSignal(np.zeros(2), 1), AudioSignal(np.zeros(2), 1)
        assert a == a and a != b and loaded != sig
