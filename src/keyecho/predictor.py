"""Candidate search: intervals in, a lattice of candidate words out.

For each observed interval the model yields the key pairs whose mean lies
within the tolerance window, held as one 26 x 26 bool mask: mask[a, b] is
set when the keys coded a and b match. The candidate words are exactly
the chains of keys through the successive masks. A backward pass drops
the pairs that cannot reach the last interval and counts the complete
words, saturating one past MAX_WORDS, without building any word. Only
enumerate_words, which builds them, refuses a lattice past that cap.

The dictionary filter works from the lexicon's side: it takes the
lexicon words whose first pair is set in the first mask as ranges of the
sorted length index, then looks up each survivor's later pairs, by pair
code, in the later masks. Its cost follows the words that survive the
first interval, not the whole lexicon or the candidate count. The
candidate words are built only when a result's words_all is first read.
"""

import json
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import segmenter
from .audio import MAX_MS, AudioSignal
from .errors import CandidateExplosion, NoCandidates
from .keylog import ALPHABET
from .lexicon import Lexicon
from .model import TimingModel, candidates, tolerance

# Candidate words enumerate_words will build; word_count saturates one past.
MAX_WORDS = 10_000_000


@dataclass(frozen=True, eq=False)
class CandidateLattice:
    """One 26 x 26 bool mask per interval, indexed by key codes [a, b].

    Every set pair lies on some complete word; word_count is the number
    of complete words, exact up to MAX_WORDS and saturated at MAX_WORDS + 1.
    """
    masks: tuple
    word_count: int


@dataclass(frozen=True)
class PredictSettings:
    frame_ms: float = 100.0
    min_gap_ms: float = 100.0
    tolerance_pct: float = 0.05
    std_coeff: float = 1.0
    lexicon: Lexicon = None

    def __post_init__(self):
        # Written so that NaN, which fails every comparison, is rejected.
        # Up to MAX_MS, a duration is a finite number of samples at any rate.
        if not 0 < self.frame_ms <= MAX_MS:
            raise ValueError(f"frame_ms must be in (0, {MAX_MS:.0f}] ms, "
                             f"got {self.frame_ms}")
        if not 0 <= self.min_gap_ms <= MAX_MS:
            raise ValueError(f"min_gap_ms must be in [0, {MAX_MS:.0f}] ms, "
                             f"got {self.min_gap_ms}")
        for name in ("tolerance_pct", "std_coeff"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative, "
                                 f"got {getattr(self, name)}")

    def as_dict(self) -> dict:
        """Every field by name, in order; the lexicon, even empty, as source."""
        params = {f.name: getattr(self, f.name) for f in fields(self)}
        params["lexicon"] = getattr(self.lexicon, "source", None)
        return params


@dataclass(frozen=True)
class PredictionResult:
    lattice: CandidateLattice
    words_dict: tuple
    onsets_ms: tuple
    deltas_ms: tuple
    params: dict

    @cached_property
    def words_all(self) -> tuple:
        """Every candidate word, sorted; enumerated on the first read."""
        return tuple(enumerate_words(self.lattice))

    def to_json(self) -> str:
        return json.dumps({
            "words_all": list(self.words_all),
            "words_dict": list(self.words_dict),
            "onsets_ms": list(self.onsets_ms),
            "deltas_ms": list(self.deltas_ms),
            "params": self.params,
        }, indent=2)


def build_tree(model: TimingModel, deltas: segmenter.IntervalSequence,
               pct: float, std_coeff: float) -> CandidateLattice:
    """Mask each interval's candidate pairs, then prune the masks to words.

    The first interval's pairs start from any key; each later interval
    only from a second key of the one before. Raises NoCandidates if an
    interval matches nothing. No word is built, however many there are.
    """
    if len(deltas) < 1:
        raise ValueError("need at least one interval")

    masks = []
    reach = np.ones(26, dtype=bool)
    for i, delta_ms in enumerate(deltas.deltas, start=1):
        t_f = tolerance(model, delta_ms, pct, std_coeff)
        codes = candidates(model, delta_ms, t_f, reach)
        if not codes.size:
            raise NoCandidates(step=i, delta_ms=delta_ms, t_f=t_f)
        masks.append(np.zeros((26, 26), dtype=bool))
        masks[-1].flat[codes] = True
        reach = masks[-1].any(axis=0)

    # Backward pass: completions[key] is the number of ways to finish a word
    # from key, capped at MAX_WORDS + 1 to stay cheap on long dense inputs.
    # The cap keeps every sum below 26 * (MAX_WORDS + 1): no int64 overflow.
    completions = np.ones(26, dtype=np.int64)
    for mask in reversed(masks):
        mask &= completions > 0
        completions = np.minimum(mask @ completions, MAX_WORDS + 1)
    # Exact below the cap, where no count saturated; MAX_WORDS + 1 past it.
    word_count = min(int(completions.sum()), MAX_WORDS + 1)
    return CandidateLattice(masks=tuple(masks), word_count=word_count)


def enumerate_words(lattice: CandidateLattice) -> list:
    """Every chain through the lattice as a word, lexicographically sorted.

    The one place candidate words are built, and the one place that
    raises CandidateExplosion: past MAX_WORDS words, before building any.
    predict calls it only when no lexicon is given; otherwise a result
    calls it on the first read of its words_all, so a run that reads only
    words_dict or the lattice's word_count builds none, and never fails
    on their number. Keys are letters (train rejects any other key), so a
    word's last character is its last key. Words grow from sorted one-key
    prefixes along each mask's set pairs, read row by row in ascending
    code order, so each step keeps them sorted.
    """
    if lattice.word_count > MAX_WORDS:
        raise CandidateExplosion(f"more than {MAX_WORDS} candidate words over "
                                 f"{len(lattice.masks)} intervals")
    words = list(ALPHABET)
    for mask in lattice.masks:
        nexts = {}
        for a, b in np.argwhere(mask).tolist():
            nexts.setdefault(ALPHABET[a], []).append(ALPHABET[b])
        words = [w + b for w in words for b in nexts.get(w[-1], ())]
    return words


def filter_dictionary(lattice: CandidateLattice, lexicon: Lexicon) -> list:
    """The lexicon words that are chains through the lattice, sorted.

    Equal to the lexicon's intersection with enumerate_words(lattice),
    but no candidate word is built or hashed: a word survives if its i-th
    adjacent pair is set in mask i for every i, each pair looked up by its
    pair code. Model keys and lexicon words are both letters a-z, so every
    word pair has its place in the masks. The first mask's set codes
    pick ranges of the sorted length index (LengthIndex.first), and each
    later mask is looked up for the survivors only, so the cost follows
    the words that survive the first interval, not the lexicon. The
    survivors keep the index's order, which is sorted.
    """
    index = lexicon.of_length(len(lattice.masks) + 1)
    codes = np.flatnonzero(lattice.masks[0])
    starts = index.first[codes]
    sizes = index.first[codes + 1] - starts
    # Every position in every range starts[i]:starts[i] + sizes[i], in order.
    sel = np.repeat(starts - sizes.cumsum() + sizes, sizes)
    sel += np.arange(len(sel))
    for mask, pair_codes in zip(lattice.masks[1:], index.pair_codes[1:]):
        sel = sel[mask.ravel()[pair_codes[sel]]]
    return [index.words[i] for i in sel.tolist()]


def predict(model: TimingModel, signal: AudioSignal, k: int,
            settings: PredictSettings) -> PredictionResult:
    """Full pipeline: energy, onsets, intervals, lattice, dictionary filter."""
    if k < 2:
        raise ValueError(f"need k >= 2 keystrokes, got {k}")
    onsets = segmenter.find_onsets(signal, k, settings.frame_ms,
                                   settings.min_gap_ms)
    deltas = segmenter.intervals(onsets)
    lattice = build_tree(model, deltas, settings.tolerance_pct,
                         settings.std_coeff)
    if settings.lexicon is not None:
        words_dict = filter_dictionary(lattice, settings.lexicon)
    else:
        words_dict = enumerate_words(lattice)

    params = settings.as_dict()
    params["k"] = k
    params["sample_rate"] = signal.sample_rate
    return PredictionResult(
        lattice=lattice,
        words_dict=tuple(words_dict),
        onsets_ms=onsets.onsets_ms,
        deltas_ms=deltas.deltas,
        params=params,
    )
