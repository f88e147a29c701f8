"""Word list used for the dictionary-filtering step: words of letters a-z."""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyLexicon
from .keylog import is_word as _is_word, pair_codes


@dataclass(frozen=True, eq=False)
class LengthIndex:
    """The lexicon's words of one length, sorted, with their pairs coded.

    `pair_codes` is keylog.pair_codes(words, n): row j codes each word's
    pair (word[j], word[j + 1]). As the words are sorted, `pair_codes[0]`
    ascends, and the words whose first pair has code c are
    `words[first[c]:first[c + 1]]`, with 677 bounds first[c] =
    searchsorted(pair_codes[0], c). The order depends on the words alone,
    not on PYTHONHASHSEED as the lexicon's frozenset iteration order does.
    """
    words: tuple
    pair_codes: np.ndarray
    first: np.ndarray


@dataclass(frozen=True)
class Lexicon:
    """make_lexicon's words, indexed by length on first use of each length.

    The index is a cache: it takes no part in equality, hashing or repr,
    and nothing is built at load.
    """
    words: frozenset = field(repr=False)
    source: str = ""
    _by_length: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def of_length(self, n: int) -> LengthIndex:
        """The LengthIndex of the words of n >= 2 letters, cached."""
        index = self._by_length.get(n)
        if index is None:
            words = tuple(sorted(w for w in self.words if len(w) == n))
            codes = pair_codes(words, n)
            first = np.searchsorted(codes[0], np.arange(26 * 26 + 1))
            index = self._by_length[n] = LengthIndex(words, codes, first)
        return index


def make_lexicon(entries, source: str = "") -> Lexicon:
    """The entries, stripped and lowercased, that are words of letters a-z;
    every other entry is dropped."""
    words = (entry.strip().lower() for entry in entries)
    # _is_word is private: perfbench traces public names per call.
    return Lexicon(words=frozenset(filter(_is_word, words)), source=source)


def load_lexicon(path) -> Lexicon:
    """One word per line of UTF-8 text, which may start with a byte-order
    mark; each kept or dropped as make_lexicon does."""
    path = Path(path)
    lexicon = make_lexicon(path.read_text(encoding="utf-8-sig").splitlines(),
                           source=str(path))
    if not lexicon.words:
        raise EmptyLexicon(f"{path}: no usable words")
    return lexicon
