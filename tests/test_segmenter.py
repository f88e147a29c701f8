import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyecho.audio import AudioSignal, load_wav
from keyecho.errors import FrameOutOfRange, NotEnoughPeaks
from keyecho.segmenter import (EnergyArray, OnsetList, energy,
                               extract_segments, intervals, pick_onsets)

from conftest import make_wav_bytes, pcm_frames


def argmax_loop_onsets(values, frame_len, k, min_gap):
    """Reference picker: one full-array argmax per onset (min_gap >= 1).

    Returns the sorted onsets, or the NotEnoughPeaks message.
    """
    remaining = np.array(values, dtype=np.float64)
    found = []
    for n in range(k):
        idx = int(np.argmax(remaining))
        if remaining[idx] <= 0.0:
            return f"only {n} nonzero peaks available, {k} keystrokes requested"
        found.append(idx)
        lo = max(0, idx - min_gap + 1)
        hi = min(len(remaining), idx + frame_len + min_gap)
        remaining[lo:hi] = 0.0
    return tuple(sorted(found))


def block_picker_onsets(values, frame_len, k, min_gap):
    arr = EnergyArray(np.array(values, dtype=np.float64), frame_len, 1000)
    try:
        return pick_onsets(arr, k, min_gap).onsets
    except NotEnoughPeaks as exc:
        return str(exc)


@st.composite
def energy_cases(draw):
    """Tie-heavy integer energies with zero runs, sized near block edges."""
    if draw(st.booleans()):
        values = np.array(draw(st.lists(st.integers(0, 4), min_size=1,
                                        max_size=64)), dtype=float)
    else:
        n = draw(st.one_of(
            st.sampled_from([1023, 1024, 1025, 2047, 2048, 2049, 3072, 3073]),
            st.integers(65, 3500)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = rng.integers(0, draw(st.integers(1, 4)) + 1, n).astype(float)
        for _ in range(draw(st.integers(0, 4))):
            start = int(rng.integers(0, n))
            values[start:start + int(rng.integers(1, 1500))] = 0.0
    frame_len = draw(st.integers(1, 1200))
    min_gap = draw(st.integers(1, 1200))
    k = draw(st.integers(1, 40))
    return values, frame_len, k, min_gap


def direct_energy(samples, frame_len):
    """Independent oracle: per-window summation, no running sum."""
    a = np.abs(np.asarray(samples, dtype=np.float64))
    windows = np.lib.stride_tricks.sliding_window_view(a, frame_len)
    return windows.sum(axis=1)


def resync_loop_energy(samples, frame_len):
    """Reference energy: a running sum re-anchored every 1024 windows.

    Exact on 16- and 24-bit PCM grids, whose partial sums all fit in a
    double; energy() must give the same bits there.
    """
    a = np.abs(np.asarray(samples, dtype=np.float64))
    n_windows = len(a) - frame_len + 1
    out = np.empty(n_windows, dtype=np.float64)
    for start in range(0, n_windows, 1024):
        stop = min(start + 1024, n_windows)
        base = float(np.sum(a[start:start + frame_len]))
        out[start] = base
        if stop - start > 1:
            added = np.cumsum(a[start + frame_len:stop - 1 + frame_len])
            removed = np.cumsum(a[start:stop - 1])
            out[start + 1:stop] = base + added - removed
    return out


# Lengths and frames at and around energy's 32768-window block edges.
EDGE_SIZES = [1, 2, 1023, 32767, 32768, 32769, 40000, 65535, 65536, 65537,
              70000]


def _length_and_frame(draw, max_direct_work=None):
    n = draw(st.one_of(st.integers(1, 3000), st.sampled_from(EDGE_SIZES)))
    frames = [st.sampled_from([f for f in EDGE_SIZES + [n - 1, n]
                               if 1 <= f <= n]),
              st.integers(1, n)]
    if max_direct_work is not None:
        # Direct summation costs n * frame_len: keep frames short, or so
        # long that few windows remain.
        span = max(1, min(n, max_direct_work // n))
        frames = [st.integers(1, span), st.integers(max(1, n - span + 1), n)]
    return n, draw(st.one_of(*frames))


def pcm_codes(seed, n, bits, channels, sparse):
    """n frames of signed PCM codes, full scale included, as (n, channels)."""
    full = 1 << (bits - 1)
    rng = np.random.default_rng(seed)
    ints = rng.integers(-full, full, (n, channels))
    if sparse:  # sparse loud clicks over quiet noise
        ints //= 256 if bits > 8 else 16
        ints[rng.integers(0, n, max(1, n // 5000))] = -full
    return ints


@st.composite
def pcm_signals(draw):
    """Codes on the 8-, 16- or 24-bit PCM grid, mono or stereo."""
    n, frame_len = _length_and_frame(draw)
    bits = draw(st.sampled_from([8, 16, 24]))
    channels = draw(st.sampled_from([1, 2]))
    ints = pcm_codes(draw(st.integers(0, 2**32 - 1)), n, bits, channels,
                     draw(st.booleans()))
    return ints, bits, frame_len


@st.composite
def float_signals(draw):
    """Arbitrary doubles in [-1, 1], with runs of ±1 and of tiny values."""
    n, frame_len = _length_and_frame(draw, max_direct_work=30_000_000)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1, 1, n)
    for value in draw(st.lists(st.sampled_from([1.0, -1.0, 1e-300, 2.0**-30,
                                                 1 - 2.0**-53]),
                               max_size=3)):
        start = int(rng.integers(0, n))
        x[start:start + int(rng.integers(1, 5000))] = value
    return x, frame_len


class TestEnergy:
    def test_single_spike(self):
        sig = AudioSignal(np.array([0, 0, 1, 0, 0], dtype=float), 1000)
        assert energy(sig, 2).values.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_all_zero(self):
        sig = AudioSignal(np.zeros(20), 1000)
        assert energy(sig, 5).values.tolist() == [0.0] * 16

    def test_identity_window(self):
        sig = AudioSignal(np.array([0.5]), 1000)
        assert energy(sig, 1).values.tolist() == [0.5]

    def test_frame_too_long(self):
        sig = AudioSignal(np.zeros(10), 1000)
        with pytest.raises(FrameOutOfRange, match="exceeds signal length"):
            energy(sig, 11)

    def test_window_count(self):
        sig = AudioSignal(np.zeros(100), 1000)
        assert len(energy(sig, 30)) == 71

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_direct_summation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 10_000))
        frame_len = int(rng.integers(1, min(n, 512) + 1))
        sig = AudioSignal(rng.uniform(-1, 1, n), 44100)
        got = energy(sig, frame_len).values
        want = direct_energy(sig.samples, frame_len)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_matches_direct_across_32768_window_block_edges(self):
        # Three blocks of prefix sums; windows on both sides of each edge.
        rng = np.random.default_rng(99)
        sig = AudioSignal(rng.uniform(-1, 1, 70000), 44100)
        got = energy(sig, 64).values
        want = direct_energy(sig.samples, 64)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_empty_frame_is_a_pipeline_error(self):
        sig = AudioSignal(np.zeros(10), 8000)
        with pytest.raises(FrameOutOfRange, match="0 samples at 8000 Hz"):
            energy(sig, 0)

    @settings(max_examples=80, deadline=None)
    @given(case=pcm_signals())
    # Around 32768 windows, and frames longer than a block.
    @example(case=(pcm_codes(1, 65536, 16, 1, False), 16, 32769))
    @example(case=(pcm_codes(2, 65537, 24, 2, True), 24, 32768))
    @example(case=(pcm_codes(3, 98305, 8, 2, False), 8, 32768))
    @example(case=(pcm_codes(4, 70000, 24, 1, False), 24, 40000))
    @example(case=(pcm_codes(5, 70000, 16, 2, True), 16, 70000))
    def test_bit_identical_to_resync_loop_on_pcm_grids(self, case,
                                                       tmp_path_factory):
        ints, bits, frame_len = case
        samples = ints.mean(axis=1) / (1 << (bits - 1))
        want = resync_loop_energy(samples, frame_len)
        # The same codes built in memory (no grid: the split path) and
        # read back from a WAV by load_wav (the grid path).
        path = tmp_path_factory.getbasetemp() / "pcm_grid.wav"
        path.write_bytes(make_wav_bytes(pcm_frames(ints, bits), bits=bits,
                                        channels=ints.shape[1]))
        loaded = load_wav(path)
        assert loaded.grid_bits == bits - 1 + (ints.shape[1] == 2)
        assert np.array_equal(loaded.samples, samples)
        for sig in (AudioSignal(samples, 44100), loaded):
            got = energy(sig, frame_len).values
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("bits,audio_format", [(32, 1), (32, 3)])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_wavs_off_a_grid_within_1e9_of_direct(self, tmp_path, bits,
                                                  audio_format, channels):
        # 32-bit PCM and float32 WAVs carry no grid: the split path.
        rng = np.random.default_rng(channels)
        if audio_format == 3:
            frames = rng.uniform(-1, 1, 40000 * channels).astype("<f4")
        else:
            frames = rng.integers(-2**31, 2**31, 40000 * channels,
                                  dtype="<i4")
        path = tmp_path / "w.wav"
        path.write_bytes(make_wav_bytes(frames.tobytes(), channels=channels,
                                        bits=bits, audio_format=audio_format))
        sig = load_wav(path)
        assert sig.grid_bits is None
        for frame_len in (64, 4410):
            got = energy(sig, frame_len).values
            want = direct_energy(sig.samples, frame_len)
            assert np.max(np.abs(got - want)) < 1e-9

    @settings(max_examples=80, deadline=None)
    @given(float_signals())
    # Plain prefix sums of this constant drift by about 2^-41 a sample once
    # past 2^12, 4e-9 over the frame; the split sums are exact on it.
    @example(case=(np.full(70000, 1 - 2.0**-40), 4410))
    def test_float_signals_within_1e9_of_direct(self, case):
        samples, frame_len = case
        got = energy(AudioSignal(samples, 44100), frame_len).values
        want = direct_energy(samples, frame_len)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_long_float_signal_within_1e9_of_direct(self):
        # 3M samples (68 s at 44.1 kHz). Checked against exactly rounded
        # sums at every block edge and at random windows.
        rng = np.random.default_rng(2024)
        samples = rng.uniform(-1, 1, 3_000_000)
        frame_len = 4410
        got = energy(AudioSignal(samples, 44100), frame_len).values
        edges = np.arange(0, len(got), 32768)
        idx = np.unique(np.concatenate([
            edges, edges[1:] - 1, rng.integers(0, len(got), 2000),
            [len(got) - 1]]))
        a = np.abs(samples)
        want = np.array([math.fsum(a[i:i + frame_len]) for i in idx])
        assert np.max(np.abs(got[idx] - want)) < 1e-9

    @pytest.mark.parametrize("frame_len", [1, 4410, 40000, 3_000_000])
    def test_all_ones_is_exactly_frame_len(self, frame_len):
        got = energy(AudioSignal(np.ones(3_000_000), 44100), frame_len).values
        assert len(got) == 3_000_000 - frame_len + 1
        assert (got == frame_len).all()


class TestPickOnsets:
    def test_hand_simulated_loop(self):
        arr = EnergyArray(np.array([0, 5, 3, 0, 0, 0, 9, 0], dtype=float),
                          frame_len=1, sample_rate=1000)
        onsets = pick_onsets(arr, k=2, min_gap=2)
        assert onsets.onsets == (1, 6)

    def test_single_spike(self):
        arr = EnergyArray(np.array([0, 0, 7, 0], dtype=float), 2, 1000)
        assert pick_onsets(arr, k=1, min_gap=0).onsets == (2,)

    def test_not_enough_peaks(self):
        arr = EnergyArray(np.zeros(3), 1, 1000)
        with pytest.raises(NotEnoughPeaks):
            pick_onsets(arr, k=1, min_gap=0)

    def test_ties_break_to_smallest_index(self):
        arr = EnergyArray(np.array([0, 4, 0, 0, 0, 4, 0], dtype=float), 1, 1000)
        assert pick_onsets(arr, k=1, min_gap=1).onsets == (1,)

    def test_zeroing_prevents_close_repeats(self):
        # Second-highest value sits inside the first peak's zeroed range.
        arr = EnergyArray(np.array([0, 0, 9, 8, 0, 0, 0, 0, 5, 0], dtype=float),
                          frame_len=2, sample_rate=1000)
        onsets = pick_onsets(arr, k=2, min_gap=2)
        assert onsets.onsets == (2, 8)

    def test_planted_bursts_recovered(self):
        rng = np.random.default_rng(3)
        frame, gap = 100, 100
        starts = [250, 600, 1100, 1500]
        sig = np.zeros(2000)
        env = np.linspace(1.0, 0.1, frame)
        for s in starts:
            sig[s:s + frame] = env
        sig += rng.normal(0, 0.01, 2000)
        np.clip(sig, -1, 1, out=sig)
        onsets = pick_onsets(energy(AudioSignal(sig, 1000), frame),
                             k=4, min_gap=gap)
        assert all(abs(b - s) <= frame // 10
                   for b, s in zip(onsets.onsets, starts))

    def test_zero_min_gap_zeroes_the_picked_window(self):
        arr = EnergyArray(np.array([0, 5, 0, 3, 0], dtype=float), 1, 1000)
        assert pick_onsets(arr, k=2, min_gap=0).onsets == (1, 3)

    def test_zero_min_gap_runs_out_of_peaks(self):
        arr = EnergyArray(np.array([0, 5, 4, 0], dtype=float), 2, 1000)
        with pytest.raises(NotEnoughPeaks, match="only 1 nonzero peaks"):
            pick_onsets(arr, k=2, min_gap=0)

    @pytest.mark.xfail(strict=True, reason=(
        "close keystrokes: the later click is reported at the edge of the "
        "first pick's zeroed span; see the pick_onsets FOUND line in "
        "CHANGES.md"))
    def test_close_keystrokes_keep_their_onsets(self):
        rate, frame = 8000, 800
        sig = np.zeros(rate)
        for start, amp in [(800, 0.9), (2000, 0.5)]:  # 100 ms and 250 ms
            sig[start:start + frame] = np.linspace(amp, amp / 10, frame)
        onsets = pick_onsets(energy(AudioSignal(sig, rate), frame),
                             k=2, min_gap=frame)
        assert onsets.onsets_ms == (100.0, 250.0)

    @settings(max_examples=300, deadline=None)
    @given(energy_cases())
    def test_matches_argmax_loop(self, case):
        values, frame_len, k, min_gap = case
        assert block_picker_onsets(values, frame_len, k, min_gap) == \
            argmax_loop_onsets(values, frame_len, k, min_gap)

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 2048, 4097])
    def test_matches_argmax_loop_across_block_edges(self, n):
        # Equal peaks on both sides of every block edge, with spans that
        # cross the edges, so ties and partial-block updates are exercised.
        values = np.zeros(n)
        for edge in range(0, n, 1024):
            values[max(0, edge - 3):edge + 3] = 7.0
        values[n // 3] = 7.0
        for frame_len, min_gap in [(1, 1), (3, 2), (5, 1000), (1100, 1)]:
            for k in (1, 4, 12):
                assert block_picker_onsets(values, frame_len, k, min_gap) == \
                    argmax_loop_onsets(values, frame_len, k, min_gap)

    @settings(max_examples=100, deadline=None)
    @given(energy_cases())
    def test_zero_min_gap_never_repeats_an_onset(self, case):
        values, frame_len, k, _ = case
        got = block_picker_onsets(values, frame_len, k, 0)
        if isinstance(got, str):
            assert got.endswith(f"{k} keystrokes requested")
        else:
            assert len(got) == len(set(got)) == k
            assert all(values[b] > 0 for b in got)

    def test_onsets_separated_by_more_than_frame(self):
        rng = np.random.default_rng(11)
        arr = EnergyArray(rng.uniform(0, 1, 3000), frame_len=50,
                          sample_rate=1000)
        onsets = pick_onsets(arr, k=10, min_gap=25)
        gaps = np.diff(onsets.onsets)
        assert (gaps > 50).all()


class TestIntervals:
    @pytest.mark.parametrize("onsets,rate,expected", [
        ((100, 400, 800), 1000, (300.0, 400.0)),
        ((0, 4410), 44100, (100.0,)),
        ((10, 20, 30), 1000, (10.0, 10.0)),
    ])
    def test_conversion(self, onsets, rate, expected):
        lst = OnsetList(onsets, frame_len=1, sample_rate=rate)
        assert intervals(lst).deltas == expected

    def test_too_few(self):
        lst = OnsetList((5,), frame_len=1, sample_rate=1000)
        assert intervals(lst).deltas == ()

    def test_deltas_sum_to_span(self):
        rng = np.random.default_rng(5)
        onsets = tuple(np.cumsum(rng.integers(10, 500, 20)))
        lst = OnsetList(onsets, frame_len=1, sample_rate=44100)
        seq = intervals(lst)
        span_ms = (onsets[-1] - onsets[0]) * 1000.0 / 44100
        assert all(d > 0 for d in seq.deltas)
        assert sum(seq.deltas) == pytest.approx(span_ms, abs=1e-9)


class TestExtractSegments:
    def test_direct_ranges(self):
        sig = AudioSignal(np.zeros(1000), 1000)
        lst = OnsetList((100, 400), frame_len=100, sample_rate=1000)
        assert extract_segments(sig, lst) == [(100, 200), (400, 500)]

    def test_clipped_at_end(self):
        sig = AudioSignal(np.zeros(1000), 1000)
        lst = OnsetList((950,), frame_len=100, sample_rate=1000)
        assert extract_segments(sig, lst) == [(950, 1000)]

    def test_empty(self):
        sig = AudioSignal(np.zeros(10), 1000)
        lst = OnsetList((), frame_len=5, sample_rate=1000)
        assert extract_segments(sig, lst) == []
