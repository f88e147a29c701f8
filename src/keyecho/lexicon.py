"""Word list used for the dictionary-filtering step."""

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyLexicon

_WORD_RE = re.compile(r"^[a-z]+$")


@dataclass(frozen=True, eq=False)
class LengthIndex:
    """The lexicon's words of one length, with their adjacent pairs coded.

    `alphabet` maps each character of these words to a code below
    size = len(alphabet); `pair_codes[j]` holds, for every word in `words`
    order, code(word[j]) * size + code(word[j + 1]) in the smallest
    unsigned dtype that fits.
    """
    words: tuple
    alphabet: dict
    pair_codes: np.ndarray


@dataclass(frozen=True)
class Lexicon:
    """A set of words, indexed by length on first use of each length.

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

    def contains(self, word: str) -> bool:
        return word.lower() in self.words

    def __contains__(self, word: str) -> bool:
        return self.contains(word)

    def of_length(self, n: int) -> LengthIndex:
        """The LengthIndex of the words of n >= 2 characters, cached."""
        index = self._by_length.get(n)
        if index is None:
            index = self._by_length[n] = _index_words(
                tuple(w for w in self.words if len(w) == n), n)
        return index


def _index_words(words: tuple, n: int) -> LengthIndex:
    # UTF-32 gives one code point per character; surrogatepass keeps any
    # str encodable, so every entry make_lexicon accepts can be indexed.
    points = np.frombuffer("".join(words).encode("utf-32-le", "surrogatepass"),
                           dtype="<u4")
    # Code points are mapped through a table, not np.unique, to keep the
    # transient memory at a few bytes per character.
    present = np.zeros(int(points.max(initial=0)) + 1, dtype=bool)
    present[points] = True
    letters = np.flatnonzero(present)
    size = len(letters)
    dtype = np.min_scalar_type(max(size * size - 1, 0))
    lookup = np.zeros(len(present), dtype=dtype)
    lookup[letters] = np.arange(size)
    codes = lookup[points].reshape(len(words), n)
    return LengthIndex(
        words=words,
        alphabet={chr(c): i for i, c in enumerate(letters.tolist())},
        pair_codes=np.ascontiguousarray((codes[:, :-1] * size + codes[:, 1:]).T),
    )


def make_lexicon(entries, dropped: int = 0, source: str = "") -> Lexicon:
    return Lexicon(words=frozenset(entries), dropped=dropped, source=source)


def load_lexicon(path) -> Lexicon:
    """One word per line; entries are lowercased, non-letter lines dropped."""
    path = Path(path)
    kept = set()
    dropped = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        word = line.strip().lower()
        if not word:
            continue
        if _WORD_RE.match(word):
            kept.add(word)
        else:
            dropped += 1
    if not kept:
        raise EmptyLexicon(f"{path}: no usable words")
    return make_lexicon(kept, dropped=dropped, source=str(path))
