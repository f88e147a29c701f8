import math

import numpy as np
import pytest

from keyecho.keylog import CODE, session_to_pairs
from keyecho.model import train
from keyecho.segmenter import energy, pick_onsets
from keyecho.synth import (MAX_PAIR_MS, TypistProfile, synth_audio,
                           synth_session, word_audio)


def basic_profile(std=0.0, **kwargs):
    return TypistProfile(
        pair_means={("t", "o"): 300.0, ("o", "p"): 400.0},
        std_ms=std,
        **kwargs,
    )


class TestSynthSession:
    def test_zero_variance_presses(self):
        syn = synth_session(basic_profile(), ["top"])
        assert syn.word_onsets_ms[0] == (0.0, 300.0, 700.0)
        letters = [e for e in syn.events if e.key in CODE]
        assert [e.key for e in letters] == ["t", "o", "p"]
        assert [e.press_ms for e in letters] == [0.0, 300.0, 700.0]

    def test_deterministic_for_seed(self):
        profile = basic_profile(std=25.0, seed=9)
        a = synth_session(profile, ["top", "top"])
        b = synth_session(profile, ["top", "top"])
        assert a == b
        c = synth_session(profile, ["top", "top"], task=1)
        assert c != a

    def test_unknown_pair(self):
        with pytest.raises(ValueError, match=r"pair \(o,x\) not in profile"):
            synth_session(basic_profile(), ["tox"])

    def test_words_separated_by_space(self):
        syn = synth_session(basic_profile(), ["top", "top"])
        keys = [e.key for e in syn.events]
        assert keys == ["t", "o", "p", "SPACE", "t", "o", "p", "SPACE"]
        assert session_to_pairs(syn.events) == [
            ("t", "o", 300.0), ("o", "p", 400.0),
            ("t", "o", 300.0), ("o", "p", 400.0),
        ]

    def test_truncation_is_rare_and_reported(self):
        profile = basic_profile(std=80.0, seed=3)
        syn = synth_session(profile, ["top"] * 500)
        deltas = [d for _, _, d in session_to_pairs(syn.events)]
        # Press-time differences round, so a clamped interval reads back
        # within a hair of burst_ms + 1.
        floor = profile.burst_ms + 1
        clamped = sum(abs(d - floor) < 1e-6 for d in deltas)
        assert 0 < clamped < 0.01 * len(deltas)
        assert min(deltas) >= floor

    def test_profile_invariants(self):
        # Every pair mean must exceed the 100 ms click.
        for mean in (50.0, 100.0):
            with pytest.raises(ValueError, match="burst 100.0 ms"):
                TypistProfile(pair_means={("a", "b"): mean})
        # The click is a class constant, not a setting.
        with pytest.raises(TypeError):
            TypistProfile(pair_means={}, burst_ms=50.0)
        for std in (-1.0, MAX_PAIR_MS + 1, float("nan")):
            with pytest.raises(ValueError, match="std_ms"):
                basic_profile(std=std)
        for noise in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise_std"):
                basic_profile(noise_std=noise)


class TestSynthAudio:
    def test_support_exactly_at_onsets(self):
        sig = synth_audio([0.0, 300.0, 700.0], basic_profile(), 1000, 1000.0)
        nonzero = np.flatnonzero(sig.samples)
        expected = np.concatenate([np.arange(0, 100), np.arange(300, 400),
                                   np.arange(700, 800)])
        assert np.array_equal(nonzero, expected)

    def test_peak_amplitude_at_onset(self):
        sig = synth_audio([100.0], basic_profile(), 1000, 400.0)
        assert sig.samples[100] == 0.9
        assert np.max(np.abs(sig.samples)) == 0.9

    def test_empty_onsets_is_silence(self):
        sig = synth_audio([], basic_profile(), 1000, 500.0)
        assert not sig.samples.any()

    def test_onset_out_of_range(self):
        with pytest.raises(ValueError, match="onset 950.0 ms"):
            synth_audio([950.0], basic_profile(), 1000, 1000.0)
        with pytest.raises(ValueError, match="onset -1.0 ms"):
            synth_audio([-1.0], basic_profile(), 1000, 1000.0)

    def test_noise_is_seeded(self):
        profile = basic_profile(noise_std=0.05, seed=4)
        a = synth_audio([100.0], profile, 1000, 400.0)
        b = synth_audio([100.0], profile, 1000, 400.0)
        assert np.array_equal(a.samples, b.samples)
        c = synth_audio([100.0], profile, 1000, 400.0, task=1)
        assert not np.array_equal(a.samples, c.samples)

    def test_word_audio_ends_200_ms_after_the_last_click(self):
        profile = basic_profile(noise_std=0.05, seed=4)
        sig = word_audio([0.0, 300.0], profile, 1000, task=2)
        assert len(sig.samples) == 300 + 100 + 200
        assert np.array_equal(
            sig.samples, synth_audio([0.0, 300.0], profile, 1000, 600.0,
                                     task=2).samples)


class TestRoundTrips:
    def test_onset_recovery_noiseless(self):
        # Burst length equals the analysis frame, so window sums peak
        # exactly at the planted onset.
        profile = basic_profile()
        syn = synth_session(profile, ["top"])
        onsets_ms = syn.word_onsets_ms[0]
        sig = synth_audio(onsets_ms, profile, 1000, onsets_ms[-1] + 300.0)
        found = pick_onsets(energy(sig, 100), k=3, min_gap=100)
        planted = [round(ms) for ms in onsets_ms]
        assert all(abs(b - p) <= 1 for b, p in zip(found.onsets, planted))

    def test_trained_model_converges_to_profile(self):
        n = 200
        std = 20.0
        profile = basic_profile(std=std, seed=12)
        syn = synth_session(profile, ["top"] * n)
        model = train(session_to_pairs(syn.events))
        bound = 3 * std / math.sqrt(n)
        for pair, mean in profile.pair_means.items():
            stats = model.stats[pair]
            assert stats.count == n
            assert abs(stats.mean_ms - mean) < bound
