"""Keystroke onset detection via sliding-window energy.

The detector sums |amplitude| over a sliding window (default 100 ms, hop
of one sample), then repeatedly takes the loudest remaining window as the
next onset and zeroes its neighborhood so one keystroke cannot be found
twice. The picked window itself is always zeroed, even with no gap.
Intervals between consecutive onsets feed the timing model.

Each window is a difference of two prefix sums, taken in blocks of
_ENERGY_BLOCK windows (or one frame, if longer), so that no rounding error
builds up along them. There are two paths, chosen by the input's encoding:

- Grid path: a signal whose samples are all whole multiples of 2^-q with
  q <= 26 (load_wav's 8-, 16- and 24-bit PCM, mono or stereo) sums |x|
  directly. For a frame under 2^26 samples a block reads fewer than 2^27
  samples of at most 1, so every prefix sum is a multiple of 2^-q below
  2^27, which a double holds exactly: every energy is exact.
- Split path: any other signal (float WAVs, 32-bit PCM, signals built in
  memory) has |x| scaled by 2^26 and split into its integer part and its
  fraction, both exactly. The integer parts are whole numbers below 2^26,
  so their prefix sums stay exact below 2^53; the fractions are below 1,
  so theirs round by well under 1e-12 in sample units.

Picking keeps the maximum of every block of _PICK_BLOCK windows, so a
pick reads the block maxima and one block instead of the whole array,
and zeroing recomputes only the blocks it touches: O(n + k * (n /
_PICK_BLOCK + _PICK_BLOCK)) for n windows and k picks, not O(n * k).
"""

from dataclasses import dataclass, field

import numpy as np

from .audio import AudioSignal, ms_to_samples
from .errors import FrameOutOfRange, NotEnoughPeaks

# Windows per block of energy's prefix sums, or frame_len if longer, so
# the overlap each block re-reads costs at most one block: O(n) in all.
# A block reads fewer than 2 * max(_ENERGY_BLOCK, frame_len) samples, so
# the split path's integer sums stay exact (below 2^53) and the grid
# path's sums below 2^27 for any frame under 2^26 samples, and the
# buffers stay near a megabyte.
_ENERGY_BLOCK = 32768

# The split path scales |x| by this power of two before the
# integer/fraction split. A signal on a grid at least this coarse has no
# fraction at this scale, and takes the grid path instead.
_GRID_BITS = 26
_SCALE = 2.0 ** _GRID_BITS

# Windows per block of the maxima pick_onsets keeps. Each pick scans the
# n / _PICK_BLOCK block maxima and one block, so 1024 keeps both scans
# near a thousand values on a 60 s 8 kHz capture (474k windows).
_PICK_BLOCK = 1024


@dataclass(frozen=True)
class EnergyArray:
    """Window energies f_i = sum of |samples| over one frame per index."""

    values: np.ndarray = field(repr=False)
    frame_len: int
    sample_rate: int

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class OnsetList:
    """Detected keystroke onsets, ascending sample indices."""

    onsets: tuple
    frame_len: int
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "onsets", tuple(int(b) for b in self.onsets))
        if any(b2 <= b1 for b1, b2 in zip(self.onsets, self.onsets[1:])):
            raise ValueError(f"onsets not strictly ascending: {self.onsets}")

    def __len__(self) -> int:
        return len(self.onsets)

    @property
    def onsets_ms(self) -> tuple:
        return tuple(b * 1000.0 / self.sample_rate for b in self.onsets)


@dataclass(frozen=True)
class IntervalSequence:
    """Inter-onset gaps in milliseconds; length is one less than onsets."""

    deltas: tuple

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        if any(d <= 0 for d in self.deltas):
            raise ValueError(f"intervals must be positive: {self.deltas}")

    def __len__(self) -> int:
        return len(self.deltas)


def energy(signal: AudioSignal, frame_len: int) -> EnergyArray:
    """Sliding-window sum of absolute amplitude, one window per sample.

    In blocks of max(_ENERGY_BLOCK, frame_len) windows, each window is a
    difference of the block's prefix sums. When signal.grid_bits is at
    most 26 (PCM up to 24 bits) those are plain sums of |x|, all below
    2^27, and every value is exact for any frame under 2^26 samples. Else
    each window is (dW + dF) / 2^26, where dW and dF are differences of
    the prefix sums of floor(|x| * 2^26) and of its remainder; dW is exact,
    and dF and the final addition keep each value within 1e-9 of direct
    summation for any frame under 2^22 samples.
    """
    n = len(signal)
    if frame_len <= 0:
        raise FrameOutOfRange(f"frame of {frame_len} samples at "
                              f"{signal.sample_rate} Hz; need at least 1")
    if frame_len > n:
        raise FrameOutOfRange(f"frame_len {frame_len} exceeds signal length {n}")

    # |x| of the whole signal at once, so the frame_len - 1 samples each
    # block shares with the next are not converted twice.
    a = np.abs(signal.samples)
    n_windows = n - frame_len + 1
    # After |x|: out first cost 3,215 minor faults a 60 s 8 kHz capture, not 0.
    out = np.empty(n_windows, dtype=np.float64)
    block = max(_ENERGY_BLOCK, frame_len)
    span = min(block, n_windows) + frame_len - 1
    prefix = np.zeros(span + 1)  # prefix-sum row reused by every block
    blocks = [(start, min(start + block, n_windows))
              for start in range(0, n_windows, block)]
    if signal.grid_bits is not None and signal.grid_bits <= _GRID_BITS:
        for start, stop in blocks:
            _window_sums(a[start:stop + frame_len - 1], frame_len, prefix,
                         out=out[start:stop])
    else:
        a *= _SCALE
        whole, frac = np.empty(span), np.empty(span)
        for start, stop in blocks:
            scaled = a[start:stop + frame_len - 1]
            w = np.floor(scaled, out=whole[:len(scaled)])
            f = np.subtract(scaled, w, out=frac[:len(scaled)])
            _window_sums(w, frame_len, prefix, out=out[start:stop])
            out[start:stop] += _window_sums(f, frame_len, prefix)
        out *= 1.0 / _SCALE
    return EnergyArray(values=out, frame_len=frame_len,
                       sample_rate=signal.sample_rate)


def _window_sums(values, frame_len, prefix, out=None):
    """Sums of every frame_len run of values, as prefix-sum differences.

    prefix is scratch of at least len(values) + 1 entries, the first 0.
    """
    end = len(values) + 1
    np.cumsum(values, out=prefix[1:end])
    return np.subtract(prefix[frame_len:end], prefix[:end - frame_len],
                       out=out)


def pick_onsets(energy_arr: EnergyArray, k: int, min_gap: int) -> OnsetList:
    """Locate the k loudest non-overlapping windows as keystroke onsets.

    Each round takes the argmax of the remaining energies (ties go to the
    smallest index), then zeroes every index i with
    argmax - max(min_gap, 1) < i < argmax + frame_len + min_gap.
    The argmax is found from per-block maxima: the first block holding the
    largest maximum, then the first index inside it holding that value,
    which is the smallest index overall. Cost O(n + k * (n / 1024 + 1024)).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if min_gap < 0:
        raise ValueError(f"min_gap must be >= 0, got {min_gap}")

    remaining = energy_arr.values.copy()
    frame_len = energy_arr.frame_len
    starts = np.arange(0, len(remaining), _PICK_BLOCK)
    block_max = np.maximum.reduceat(remaining, starts)
    found = []
    for n in range(k):
        base = int(block_max.argmax()) * _PICK_BLOCK
        idx = base + int(remaining[base:base + _PICK_BLOCK].argmax())
        if remaining[idx] <= 0.0:
            raise NotEnoughPeaks(
                f"only {n} nonzero peaks available, {k} keystrokes requested"
            )
        found.append(idx)
        lo = max(0, idx + 1 - max(min_gap, 1))
        hi = min(len(remaining), idx + frame_len + min_gap)
        remaining[lo:hi] = 0.0
        b_lo, b_hi = lo // _PICK_BLOCK, (hi - 1) // _PICK_BLOCK + 1
        block_max[b_lo:b_hi] = np.maximum.reduceat(
            remaining[b_lo * _PICK_BLOCK:b_hi * _PICK_BLOCK],
            starts[:b_hi - b_lo])
    return OnsetList(onsets=tuple(sorted(found)), frame_len=frame_len,
                     sample_rate=energy_arr.sample_rate)


def find_onsets(signal: AudioSignal, k: int, frame_ms: float,
                min_gap_ms: float) -> OnsetList:
    """pick_onsets over the energy of a signal, with lengths in ms."""
    rate = signal.sample_rate
    energies = energy(signal, ms_to_samples(frame_ms, rate))
    return pick_onsets(energies, k, ms_to_samples(min_gap_ms, rate))


def intervals(onsets: OnsetList) -> IntervalSequence:
    """Milliseconds between the starting points of consecutive onsets;
    none for fewer than two onsets."""
    scale = 1000.0 / onsets.sample_rate
    deltas = tuple((b2 - b1) * scale
                   for b1, b2 in zip(onsets.onsets, onsets.onsets[1:]))
    return IntervalSequence(deltas=deltas)


def extract_segments(signal: AudioSignal, onsets: OnsetList) -> list:
    """Half-open sample ranges [onset, onset + frame_len), clipped at the end."""
    n = len(signal)
    return [(b, min(b + onsets.frame_len, n)) for b in onsets.onsets]
