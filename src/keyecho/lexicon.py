"""Word list used for the dictionary-filtering step."""

import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EmptyLexicon

_WORD_RE = re.compile(r"^[a-z]+$")


@dataclass(frozen=True)
class Lexicon:
    words: frozenset = field(repr=False)
    dropped: int = 0
    source: str = ""

    def __len__(self) -> int:
        return len(self.words)

    def contains(self, word: str) -> bool:
        return word.lower() in self.words

    def __contains__(self, word: str) -> bool:
        return self.contains(word)


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
