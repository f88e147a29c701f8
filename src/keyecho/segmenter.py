"""Keystroke onset detection via sliding-window energy.

The detector sums |amplitude| over a sliding window (default 100 ms, hop
of one sample), then repeatedly takes the loudest remaining window as the
next onset and zeroes its neighborhood so one keystroke cannot be found
twice. The picked window itself is always zeroed, even with no gap.
Intervals between consecutive onsets feed the timing model.

Picking keeps the maximum of every block of _PICK_BLOCK windows, so a
pick reads the block maxima and one block instead of the whole array,
and zeroing recomputes only the blocks it touches: O(n + k * (n /
_PICK_BLOCK + _PICK_BLOCK)) for n windows and k picks, not O(n * k).
"""

from dataclasses import dataclass, field

import numpy as np

from .audio import AudioSignal
from .errors import FrameTooLong, NotEnoughPeaks, TooFewOnsets

# Windows per block before the running sum is re-anchored with a fresh
# exact summation. 1024 keeps the worst-case float drift below 1e-9 even
# for all-ones signals.
_RESYNC_WINDOWS = 1024

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

    Uses a running sum re-anchored every _RESYNC_WINDOWS windows so each
    value matches direct summation to within 1e-9 absolute.
    """
    n = len(signal)
    if frame_len <= 0:
        raise ValueError(f"frame_len must be positive, got {frame_len}")
    if frame_len > n:
        raise FrameTooLong(f"frame_len {frame_len} exceeds signal length {n}")

    a = np.abs(signal.samples)
    n_windows = n - frame_len + 1
    out = np.empty(n_windows, dtype=np.float64)
    for start in range(0, n_windows, _RESYNC_WINDOWS):
        stop = min(start + _RESYNC_WINDOWS, n_windows)
        base = float(np.sum(a[start:start + frame_len]))
        out[start] = base
        if stop - start > 1:
            added = np.cumsum(a[start + frame_len:stop - 1 + frame_len])
            removed = np.cumsum(a[start:stop - 1])
            out[start + 1:stop] = base + added - removed
    return EnergyArray(values=out, frame_len=frame_len,
                       sample_rate=signal.sample_rate)


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


def intervals(onsets: OnsetList) -> IntervalSequence:
    """Milliseconds between the starting points of consecutive onsets."""
    if len(onsets) < 2:
        raise TooFewOnsets(f"need >= 2 onsets, got {len(onsets)}")
    scale = 1000.0 / onsets.sample_rate
    deltas = tuple((b2 - b1) * scale
                   for b1, b2 in zip(onsets.onsets, onsets.onsets[1:]))
    return IntervalSequence(deltas=deltas)


def extract_segments(signal: AudioSignal, onsets: OnsetList) -> list:
    """Half-open sample ranges [onset, onset + frame_len), clipped at the end."""
    n = len(signal)
    return [(b, min(b + onsets.frame_len, n)) for b in onsets.onsets]
