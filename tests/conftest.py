import struct
from pathlib import Path

import numpy as np
import pytest

from keyecho import synth
from keyecho.keylog import PAIRS
from keyecho.lexicon import load_lexicon
from keyecho.model import train

REPO_ROOT = Path(__file__).resolve().parent.parent
LEXICON_PATH = REPO_ROOT / "data" / "lexicon_small.txt"

# Common-word test set with varied lengths, used across the eval tests.
STUDY_WORDS = [
    "work", "love", "life", "like", "night", "world", "table", "they",
    "have", "teacher", "book", "buy", "credit", "paper", "order", "mobile",
    "mother", "cat", "run", "house", "bill",
]


@pytest.fixture(scope="session")
def study_words():
    return list(STUDY_WORDS)


@pytest.fixture(scope="session")
def small_lexicon():
    return load_lexicon(LEXICON_PATH)


@pytest.fixture(scope="session")
def dense_keystroke():
    """(model, signal, word): a dense typist's model and a noise-free 1 kHz
    recording of "keystroke" typed at the typist's pair means.

    The typist has every ordered pair, with means drawn from U[250, 450] ms
    (seed 7); the model is trained on 20 observations of each pair at std
    10 ms. The word's 8 intervals admit more than 10^7 candidate words.
    """
    rng = np.random.default_rng(7)
    means = dict(zip(PAIRS, rng.uniform(250, 450, len(PAIRS))))
    model = train((a, b, d) for (a, b), m in means.items()
                  for d in rng.normal(m, 10, 20))
    word = "keystroke"
    onsets = np.cumsum([0.0] + [means[p] for p in zip(word, word[1:])])
    signal = synth.word_audio(onsets.tolist(), synth.TypistProfile(means),
                              1000)
    return model, signal, word


def make_wav_bytes(frames: bytes, *, channels=1, bits=16, rate=44100,
                   audio_format=1, declared_size=None) -> bytes:
    """Hand-rolled WAV container so tests control every header field."""
    byte_rate = rate * channels * bits // 8
    block_align = channels * bits // 8
    data_size = len(frames) if declared_size is None else declared_size
    return b"".join([
        b"RIFF", struct.pack("<I", 36 + len(frames)), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHH", 16, audio_format, channels, rate,
                             byte_rate, block_align, bits),
        b"data", struct.pack("<I", data_size), frames,
    ])


def pcm_frames(ints, bits) -> bytes:
    """Signed PCM codes as WAV frame bytes: 8-bit offset, else little-endian.

    A 2-D (frames, channels) array comes out interleaved.
    """
    if bits == 8:
        return (ints + 128).astype(np.uint8).tobytes()
    return (ints.astype("<i8").view(np.uint8).reshape(-1, 8)
            [:, :bits // 8].tobytes())
