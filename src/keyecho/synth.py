"""Synthetic typist: keystroke logs and click audio with known ground truth.

A TypistProfile holds per-pair interval means, one interval std shared
by every pair, and the background noise level. Every click has one fixed
shape, the class constants TypistProfile.burst_ms and burst_amp.
Everything is seeded; the same seed and task index give byte-identical
output, so end-to-end runs are reproducible. Generated files use the
same keylog CSV and 16-bit WAV formats as real captures.
"""

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .audio import AudioSignal, ms_to_samples
from .keylog import SPACE, KeystrokeEvent

# Key hold time written into synthetic logs; only press times matter.
_RELEASE_MS = 60.0
# Silence inserted between words in a multi-word session.
_WORD_GAP_MS = 1000.0
# Silence after the last click of a synthesized word, ms.
_TAIL_MS = 200.0
# Largest pair mean and interval std, ms. No typist pauses 10 s inside a
# word, and the bound keeps every drawn interval and recording length finite.
MAX_PAIR_MS = 10_000.0
# profile_for_words' default smallest pair mean and step between means, ms.
# synth's --base-ms and --spacing-ms default to them too, so synth and eval
# type with the same pair means.
BASE_MS = 200.0
SPACING_MS = 5.0


@dataclass(frozen=True)
class TypistProfile:
    pair_means: dict = field(repr=False)   # (key_a, key_b) -> mean interval ms
    std_ms: float = 0.0                    # interval std of every pair
    noise_std: float = 0.0
    seed: int = 0
    # Every click: length ms and peak amplitude at its onset.
    burst_ms: ClassVar[float] = 100.0
    burst_amp: ClassVar[float] = 0.9

    def __post_init__(self):
        # Written so that NaN, which fails every comparison, is rejected.
        if not 0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be finite and nonnegative, "
                             f"got {self.noise_std}")
        for pair, mean in self.pair_means.items():
            if not self.burst_ms < mean <= MAX_PAIR_MS:
                raise ValueError(
                    f"pair {pair} mean {mean} ms must exceed burst "
                    f"{self.burst_ms} ms and be at most {MAX_PAIR_MS} ms"
                )
        if not 0 <= self.std_ms <= MAX_PAIR_MS:
            raise ValueError(f"std_ms must be in [0, {MAX_PAIR_MS}] ms, "
                             f"got {self.std_ms}")


@dataclass(frozen=True)
class SessionSynthesis:
    events: tuple              # KeystrokeEvents, as parse_keylog returns
    word_onsets_ms: tuple      # per word, onsets relative to the word start


def profile_for_words(words, base_ms: float = BASE_MS,
                      spacing_ms: float = SPACING_MS,
                      **kwargs) -> TypistProfile:
    """Profile whose pair means sit on an evenly spaced grid.

    Every ordered pair occurring in `words` gets a distinct mean
    base_ms + i * spacing_ms (pairs in sorted order), so interval-to-pair
    matching is unambiguous whenever the tolerance stays under half the
    spacing. Other keywords are TypistProfile fields.
    """
    pairs = sorted({(a, b) for w in words for a, b in zip(w, w[1:])})
    means = {p: base_ms + i * spacing_ms for i, p in enumerate(pairs)}
    return TypistProfile(pair_means=means, **kwargs)


def synth_session(profile: TypistProfile, words, task: int = 0) -> SessionSynthesis:
    """Generate press/release events for `words`, one seeded draw per pair.

    Intervals are gaussian per the profile, clamped below at burst_ms + 1
    so clicks never overlap; words are separated by a SPACE event and a
    fixed gap. Deterministic for a fixed (seed, task).
    """
    rng = np.random.default_rng([profile.seed, 0, task])
    events = []
    word_onsets = []
    cursor = 0.0
    for word in words:
        onsets = [0.0]
        t = cursor
        events.append(KeystrokeEvent(word[0], t, t + _RELEASE_MS))
        for key_a, key_b in zip(word, word[1:]):
            if (key_a, key_b) not in profile.pair_means:
                raise ValueError(f"pair ({key_a},{key_b}) not in profile")
            draw = rng.normal(profile.pair_means[(key_a, key_b)],
                              profile.std_ms)
            t += max(draw, profile.burst_ms + 1)
            onsets.append(t - cursor)
            events.append(KeystrokeEvent(key_b, t, t + _RELEASE_MS))
        word_onsets.append(tuple(onsets))
        t += _WORD_GAP_MS
        events.append(KeystrokeEvent(SPACE, t, t + _RELEASE_MS))
        cursor = t + _WORD_GAP_MS

    return SessionSynthesis(events=tuple(events),
                            word_onsets_ms=tuple(word_onsets))


def word_audio(onsets_ms, profile: TypistProfile, sample_rate: int,
               task: int = 0) -> AudioSignal:
    """synth_audio of one word, ending _TAIL_MS after its last click ends."""
    total_ms = onsets_ms[-1] + profile.burst_ms + _TAIL_MS
    return synth_audio(onsets_ms, profile, sample_rate, total_ms, task=task)


def synth_audio(onsets_ms, profile: TypistProfile, sample_rate: int,
                total_ms: float, task: int = 0) -> AudioSignal:
    """Clicks at the given onsets over optional gaussian background noise.

    Each click lasts burst_ms with a linear envelope from burst_amp down to
    0.1 * burst_amp, loudest at the onset.
    """
    n = ms_to_samples(total_ms, sample_rate)
    burst_len = max(1, ms_to_samples(profile.burst_ms, sample_rate))
    for onset in onsets_ms:
        if onset < 0 or onset + profile.burst_ms > total_ms:
            raise ValueError(
                f"onset {onset} ms + burst {profile.burst_ms} ms "
                f"outside [0, {total_ms}] ms"
            )

    if profile.noise_std > 0:
        rng = np.random.default_rng([profile.seed, 1, task])
        samples = rng.normal(0.0, profile.noise_std, n)
    else:
        samples = np.zeros(n)

    envelope = np.linspace(profile.burst_amp, 0.1 * profile.burst_amp,
                           burst_len)
    for onset in onsets_ms:
        start = ms_to_samples(onset, sample_rate)
        samples[start:start + burst_len] += envelope[:n - start]
    np.clip(samples, -1.0, 1.0, out=samples)
    return AudioSignal(samples=samples, sample_rate=sample_rate)
