"""Exception hierarchy shared across the toolkit.

A class exists only when some caller handles it differently from its
siblings; a bad argument to a function is a ValueError.
"""


class KeyEchoError(Exception):
    """Base class for all toolkit errors."""


class PipelineFailure(KeyEchoError):
    """The input was read, but no answer can be computed from it.

    The CLI exits 4 for this family and 2 for any other KeyEchoError.
    """


# --- audio ---

class WavFormatError(KeyEchoError):
    """A WAV that load_wav cannot read, or a rate a 16-bit WAV header
    cannot hold."""


# --- segmenter ---

class FrameOutOfRange(PipelineFailure):
    """Sliding-window frame shorter than one sample at the signal's rate,
    or longer than the signal."""


class NotEnoughPeaks(PipelineFailure):
    """Fewer distinguishable energy peaks than requested keystrokes."""


# --- keylog and model rows ---

class MalformedRow(KeyEchoError):
    """A keystroke-log row or training observation that cannot be used."""


# --- model files ---

class SchemaMismatch(KeyEchoError):
    """Model file with a missing field, an unknown version, a value of the
    wrong type, or an observation that train cannot use."""


class ConsistencyFailure(KeyEchoError):
    """Stored analysis table disagrees with its raw observations."""


# --- predictor ---

class NoCandidates(PipelineFailure):
    """Some interval matched no model pair; the word cannot be represented."""

    def __init__(self, step: int, delta_ms: float, t_f: float):
        self.step = step
        self.delta_ms = delta_ms
        self.t_f = t_f
        super().__init__(
            f"no candidate pairs for interval #{step} "
            f"({delta_ms:.3f} ms, tolerance {t_f:.3f} ms)"
        )


class CandidateExplosion(PipelineFailure):
    """More candidate words than predictor.enumerate_words will build.

    Raised only there, before any word is built.
    """


# --- lexicon ---

class EmptyLexicon(KeyEchoError):
    """Word list contained no usable entries."""
