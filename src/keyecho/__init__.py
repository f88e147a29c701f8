"""Inter-keystroke timing attack toolkit.

Trains a per-user timing model from keystroke logs and recovers typed
words from audio recordings of typing via sliding-window onset detection,
candidate search over per-interval key pairs, and dictionary filtering.
"""

from .audio import AudioSignal, load_wav, ms_to_samples, write_wav
from .errors import KeyEchoError
from .keylog import KeystrokeEvent, parse_keylog, session_to_pairs
from .lexicon import Lexicon, load_lexicon
from .model import TimingModel, load_model, save_model, train
from .predictor import PredictSettings, PredictionResult, predict
from .segmenter import energy, extract_segments, intervals, pick_onsets
from .synth import TypistProfile, profile_for_words, synth_audio, synth_session

__version__ = "0.1.0"

__all__ = [
    "AudioSignal", "KeyEchoError", "KeystrokeEvent", "Lexicon",
    "PredictSettings", "PredictionResult", "TimingModel", "TypistProfile",
    "energy", "extract_segments", "intervals", "load_lexicon",
    "load_model", "load_wav", "ms_to_samples", "parse_keylog", "pick_onsets",
    "predict", "profile_for_words", "save_model", "session_to_pairs",
    "synth_audio", "synth_session", "train", "write_wav",
]
