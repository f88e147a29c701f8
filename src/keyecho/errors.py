"""Exception hierarchy shared across the toolkit."""


class KeyEchoError(Exception):
    """Base class for all toolkit errors."""


class PipelineFailure(KeyEchoError):
    """The input was read, but no answer can be computed from it.

    The CLI exits 4 for this family and 2 for any other KeyEchoError.
    """


# --- audio ---

class MalformedContainer(KeyEchoError):
    """WAV file has a broken RIFF/fmt/data structure."""


class UnsupportedEncoding(KeyEchoError):
    """WAV file uses a codec or layout we do not accept."""


class EmptySignal(KeyEchoError):
    """WAV file contains zero data frames."""


# --- segmenter ---

class FrameTooLong(PipelineFailure):
    """Sliding-window frame exceeds the signal length."""


class FrameTooShort(PipelineFailure):
    """Sliding-window frame rounds to no samples at the signal's rate."""


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
    """The intervals admit more candidate words than the search will build.

    Counted over the pruned lattice, before any word is built.
    """


# --- lexicon ---

class EmptyLexicon(KeyEchoError):
    """Word list contained no usable entries."""


# --- synth ---

class UnknownPair(KeyEchoError):
    """Requested word uses a key pair absent from the typist profile."""


class OnsetOutOfRange(KeyEchoError):
    """Requested click onset does not fit inside the output signal."""
