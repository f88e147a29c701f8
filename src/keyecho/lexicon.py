"""Word list used for the dictionary-filtering step: words of letters a-z."""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyLexicon
from .keylog import ALPHABET


@dataclass(frozen=True, eq=False)
class LengthIndex:
    """The lexicon's words of one length, sorted, with their pairs coded.

    `pair_codes[j]` holds, for every word in `words` order, the uint16
    code of the letter pair (word[j], word[j + 1]) made by _pair_codes.
    As the words are sorted, `pair_codes[0]` ascends, and the words whose
    first pair has code c are `words[first[c]:first[c + 1]]`: `first`
    has 677 entries, first[c] = searchsorted(pair_codes[0], c). The
    order depends on the words alone, not on PYTHONHASHSEED as the
    lexicon's frozenset iteration order does.
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
    dropped: int = 0
    source: str = ""
    _by_length: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.words

    def of_length(self, n: int) -> LengthIndex:
        """The LengthIndex of the words of n >= 2 letters, cached."""
        index = self._by_length.get(n)
        if index is None:
            words = tuple(sorted(w for w in self.words if len(w) == n))
            pair_codes = _pair_codes(words, n)
            first = np.searchsorted(pair_codes[0], np.arange(26 * 26 + 1))
            index = self._by_length[n] = LengthIndex(words, pair_codes, first)
        return index


# Each ASCII letter's key code; uint16, as the pair codes run to 675.
_KEY_CODE = np.zeros(128, dtype=np.uint16)
_KEY_CODE[np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)] = range(26)


def _pair_codes(words, n: int) -> np.ndarray:
    """Row j: the pair code (see keylog.ALPHABET) of (w[j], w[j + 1]) for
    each word w of n letters."""
    codes = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)
    codes = _KEY_CODE[codes].reshape(-1, n)
    return np.ascontiguousarray((codes[:, :-1] * 26 + codes[:, 1:]).T)


def make_lexicon(entries, source: str = "") -> Lexicon:
    """The entries, stripped and lowercased, that are words of letters a-z.

    Blank entries are skipped; every other entry is dropped and counted.
    """
    words = set()
    dropped = 0
    for entry in entries:
        word = entry.strip().lower()
        # Lowercased ASCII letters are exactly a-z.
        if word.isascii() and word.isalpha():
            words.add(word)
        elif word:    # a blank entry is skipped, not dropped
            dropped += 1
    return Lexicon(words=frozenset(words), dropped=dropped, source=source)


def load_lexicon(path) -> Lexicon:
    """One word per line, kept or dropped as make_lexicon does."""
    path = Path(path)
    lexicon = make_lexicon(path.read_text(encoding="utf-8").splitlines(),
                           source=str(path))
    if not lexicon.words:
        raise EmptyLexicon(f"{path}: no usable words")
    return lexicon
