"""WAV loading and the in-memory audio representation.

Only uncompressed RIFF/WAVE files are accepted: PCM integers (8/16/24/32
bit) or 32-bit float, mono or stereo. Stereo is down-mixed by averaging
the channels. No resampling happens anywhere; millisecond parameters are
converted per file with ms_to_samples().

load_wav records the grid that PCM samples of up to 24 bits lie on
(AudioSignal.grid_bits), on which the energy scan's plain prefix sums are
exact.
"""

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import WavFormatError

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


@dataclass(frozen=True, eq=False)
class AudioSignal:
    """Mono signal with samples normalized to [-1, +1].

    grid_bits is q when every sample is a whole multiple of 2^-q, which
    load_wav records for 8-, 16- and 24-bit PCM: q = bits - 1, one more
    after the stereo mean. 32-bit PCM, float WAVs and signals built
    directly carry None. It is not an __init__ argument, so no caller can
    claim a grid on trust, and it is not in the repr. Signals compare by
    identity, as numpy arrays have no single truth value.
    """

    samples: np.ndarray = field(repr=False)
    sample_rate: int
    grid_bits: int | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        # Written so that NaN, which fails every comparison, is rejected.
        if samples.size and not (samples.min() >= -1.0
                                 and samples.max() <= 1.0):
            raise ValueError("samples must be finite and lie in [-1, +1]")

    def __len__(self) -> int:
        return len(self.samples)


# The longest a WAV can play: 2^32 samples at 1 Hz. A frame or gap this
# long exceeds every recording, and is still a finite number of samples
# at any rate a WAV header can declare (below 2^32 Hz). It also bounds a
# training interval, so that squared deviations stay finite.
MAX_MS = 1000.0 * 2**32

# The highest rate write_wav can store: the header's 32-bit byte rate
# field holds 2 bytes per sample times the rate.
MAX_WAV_RATE = (2**32 - 1) // 2


def ms_to_samples(t_ms: float, rate: int) -> int:
    """Round a millisecond duration to a whole number of samples."""
    if t_ms < 0:
        raise ValueError(f"duration must be nonnegative, got {t_ms}")
    if rate <= 0:
        raise ValueError(f"sample rate must be positive, got {rate}")
    return int(t_ms * rate / 1000.0 + 0.5)


def _parse_fmt(path, body: bytes):
    if len(body) < 16:
        raise WavFormatError(f"{path}: fmt chunk shorter than 16 bytes")
    (audio_format, channels, sample_rate, _byte_rate,
     block_align, bits) = struct.unpack("<HHIIHH", body[:16])
    if audio_format == _WAVE_FORMAT_EXTENSIBLE:
        # Sub-format GUID starts with the ordinary format tag.
        if len(body) < 26:
            raise WavFormatError(f"{path}: extensible fmt chunk truncated")
        audio_format = struct.unpack("<H", body[24:26])[0]
    return audio_format, channels, sample_rate, block_align, bits


def _decode(path, raw: bytes, audio_format: int, bits: int) -> np.ndarray:
    if audio_format == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise WavFormatError(f"{path}: {bits}-bit float WAV not supported")
        samples = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        if not np.isfinite(samples).all():
            raise WavFormatError(
                f"{path}: float WAV holds NaN or infinite samples")
        return np.clip(samples, -1.0, 1.0)
    if audio_format != _WAVE_FORMAT_PCM:
        raise WavFormatError(
            f"{path}: compressed WAV (format tag 0x{audio_format:04x})")
    # Each full scale is a power of two, so multiplying the integers by its
    # exact reciprocal converts and scales in one step, with the same bits
    # as converting first and dividing.
    if bits == 8:
        # 8-bit PCM is unsigned with a 128 offset.
        return (np.frombuffer(raw, dtype=np.uint8) - 128.0) * (1 / 128)
    if bits == 16:
        return np.frombuffer(raw, dtype="<i2") * (1 / 32768)
    if bits == 24:
        b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
        vals = (b[:, 0].astype(np.int32)
                | (b[:, 1].astype(np.int32) << 8)
                | (b[:, 2].astype(np.int32) << 16))
        vals = np.where(vals >= 1 << 23, vals - (1 << 24), vals)
        return vals * (1 / (1 << 23))
    if bits == 32:
        return np.frombuffer(raw, dtype="<i4") * (1 / (1 << 31))
    raise WavFormatError(f"{path}: {bits}-bit PCM not supported")


def load_wav(path) -> AudioSignal:
    """Read a PCM or float WAV file as a normalized mono AudioSignal."""
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4:pos + 8])
        body = data[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise WavFormatError(
                f"{path}: chunk {chunk_id!r} declares {size} bytes, "
                f"{len(body)} present"
            )
        if chunk_id == b"fmt ":
            fmt = _parse_fmt(path, body)
        elif chunk_id == b"data":
            raw = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if raw is None:
        raise WavFormatError(f"{path}: missing data chunk")

    audio_format, channels, sample_rate, block_align, bits = fmt
    if sample_rate <= 0:
        raise WavFormatError(f"{path}: nonsensical sample rate {sample_rate}")
    if channels not in (1, 2):
        raise WavFormatError(f"{path}: {channels} channels (want 1 or 2)")
    bytes_per_sample = bits // 8
    if bits % 8 != 0 or bytes_per_sample == 0:
        raise WavFormatError(f"{path}: {bits}-bit samples")
    frame_size = bytes_per_sample * channels
    if block_align not in (0, frame_size):
        raise WavFormatError(
            f"{path}: block align {block_align} != frame size {frame_size}"
        )
    if len(raw) % frame_size != 0:
        raise WavFormatError(f"{path}: data size not a multiple of frame size")
    if len(raw) == 0:
        raise WavFormatError(f"{path}: zero data frames")

    samples = _decode(path, raw, audio_format, bits)
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    signal = AudioSignal(samples=samples, sample_rate=sample_rate)
    if audio_format == _WAVE_FORMAT_PCM and bits <= 24:
        # PCM codes are k / 2^(bits - 1); the stereo mean halves the step.
        object.__setattr__(signal, "grid_bits", bits - 1 + (channels == 2))
    return signal


def write_wav(path, signal: AudioSignal) -> None:
    """Write a 16-bit PCM mono WAV. Inverse of load_wav for 16-bit input."""
    rate = signal.sample_rate
    if rate > MAX_WAV_RATE:
        raise WavFormatError(f"{path}: sample rate {rate} Hz is above "
                             f"the {MAX_WAV_RATE} Hz a 16-bit WAV holds")
    clipped = np.clip(signal.samples, -1.0, 1.0)
    ints = np.clip(np.round(clipped * 32768.0), -32768, 32767).astype("<i2")
    raw = ints.tobytes()
    header = b"".join([
        b"RIFF", struct.pack("<I", 36 + len(raw)), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHH", 16, _WAVE_FORMAT_PCM, 1, rate,
                             rate * 2, 2, 16),
        b"data", struct.pack("<I", len(raw)),
    ])
    Path(path).write_bytes(header + raw)
