"""Candidate search: intervals in, a lattice of candidate words out.

For each observed interval the model yields the key pairs whose mean lies
within the tolerance window. Those pairs form one successor map per
interval, {key_a: [key_b, ...]}, and the candidate words are exactly the
chains of keys through the successive maps. A backward pass drops the
edges that cannot reach the last interval and counts the complete words,
so the search knows how many candidates there are, and gives up on an
oversized set, without building any word.

The dictionary filter works from the lexicon's side: it checks each
lexicon word of the right length against one table of allowed key pairs
per interval, so its cost follows the lexicon, not the candidate count.
The candidate words themselves are built only when a result's words_all
is first read.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import segmenter
from .audio import AudioSignal
from .errors import CandidateExplosion, NoCandidates
from .keylog import LETTERS
from .lexicon import Lexicon, pair_mask
from .model import TimingModel, candidates, tolerance

# Candidate words allowed before build_tree gives up.
MAX_WORDS = 10_000_000


@dataclass(frozen=True)
class CandidateLattice:
    """One {key_a: [key_b, ...]} map per interval, successor lists sorted.

    Every listed edge lies on some complete word; word_count is the number
    of complete words, len(enumerate_words(lattice)).
    """
    successors: tuple
    word_count: int


@dataclass(frozen=True)
class PredictSettings:
    frame_ms: float = 100.0
    min_gap_ms: float = 100.0
    tolerance_pct: float = 0.05
    std_coeff: float = 1.0
    lexicon: Lexicon = None

    def as_dict(self) -> dict:
        return {
            "frame_ms": self.frame_ms,
            "min_gap_ms": self.min_gap_ms,
            "tolerance_pct": self.tolerance_pct,
            "std_coeff": self.std_coeff,
            "lexicon": self.lexicon.source if self.lexicon else None,
        }


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
    """Chain each interval's candidate pairs into a pruned successor lattice.

    The first interval's pairs start from any letter; each later interval
    only from a second key of the one before. Raises NoCandidates if an
    interval matches nothing, and CandidateExplosion if the lattice holds
    more than MAX_WORDS complete words. No word is built either way.
    """
    if len(deltas) < 1:
        raise ValueError("need at least one interval")

    steps = []
    reach = LETTERS
    for i, delta_ms in enumerate(deltas.deltas, start=1):
        t_f = tolerance(model, delta_ms, pct, std_coeff)
        cands = candidates(model, delta_ms, t_f, reach)
        if not cands:
            raise NoCandidates(step=i, delta_ms=delta_ms, t_f=t_f)
        succ = {}
        for key_a, key_b, _ in cands:
            succ.setdefault(key_a, []).append(key_b)
        steps.append(succ)
        reach = frozenset(key_b for _, key_b, _ in cands)

    # Backward pass: completions[key] is the number of ways to finish a word
    # from key, saturated so that long dense inputs stay cheap to count.
    cap = MAX_WORDS + 1
    completions = dict.fromkeys(reach, 1)
    for i in reversed(range(len(steps))):
        kept, counts = {}, {}
        for key_a, keys_b in steps[i].items():
            live = [key_b for key_b in keys_b if key_b in completions]
            if live:
                kept[key_a] = live
                counts[key_a] = min(cap, sum(completions[b] for b in live))
        steps[i] = kept
        completions = counts
    # Below the cap no count saturated, so the sum is exact.
    word_count = sum(completions.values())
    if word_count > MAX_WORDS:
        raise CandidateExplosion(
            f"more than {MAX_WORDS} candidate words over "
            f"{len(steps)} intervals"
        )
    return CandidateLattice(successors=tuple(steps), word_count=word_count)


def enumerate_words(lattice: CandidateLattice) -> list:
    """Every chain through the lattice as a word, lexicographically sorted.

    The one place candidate words are built. predict calls it only when
    no lexicon is given; otherwise a result calls it on the first read of
    its words_all, so a run that reads only words_dict or the lattice's
    word_count builds none. Keys are letters (train rejects any other
    key), so a word's last character is its last key. The order comes
    from the construction: words of one length grow from sorted prefixes
    along sorted successor lists, so each step keeps them sorted.
    """
    words = sorted(lattice.successors[0])
    for succ in lattice.successors:
        words = [w + b for w in words for b in succ[w[-1]]]
    return words


def filter_dictionary(lattice: CandidateLattice, lexicon: Lexicon) -> list:
    """The lexicon words that are chains through the lattice, sorted.

    Equal to the lexicon's intersection with enumerate_words(lattice),
    but no candidate word is built or hashed. For interval i, a mask over
    the 26 x 26 letter pairs marks the lattice's (key_a, key_b) edges; a
    word survives if its i-th adjacent pair is marked for every i. Model
    keys and lexicon words are both letters a-z, so every edge and every
    word pair has its place in the mask.
    """
    index = lexicon.of_length(len(lattice.successors) + 1)
    keep = np.ones(len(index.words), dtype=bool)
    for succ, pair_codes in zip(lattice.successors, index.pair_codes):
        keep &= pair_mask(succ)[pair_codes]
    return sorted(index.words[i] for i in np.flatnonzero(keep).tolist())


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
