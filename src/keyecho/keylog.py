"""Keystroke log ingestion, and every fact about how keys are coded.

Logs are CSV with header ``key,press_ms,release_ms,virtual_code,scan_code,
caps,shift``; one row per keypress, timestamps in milliseconds from session
start. Capture tools that dump TimeSpan-style records can be converted by
writing the press/release TimeSpans as total milliseconds, and the key name
in the ``key`` column (or just the virtual code, which is mapped here). A
log is a tuple of KeystrokeEvents. The caps and shift columns are not
read; write_keylog writes them as 0, and every time exactly: in %g form
where that reads back to the same float, and in full otherwise.
"""

import csv
import math
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import MAX_MS
from .errors import MalformedRow

SPACE = "SPACE"
ENTER = "ENTER"
OTHER = "OTHER"

# The keys in code order: a key's code is its place here, and the pair
# (a, b) has pair code 26 * CODE[a] + CODE[b], so PAIRS[code] == (a, b).
ALPHABET = string.ascii_lowercase
CODE = {key: code for code, key in enumerate(ALPHABET)}
PAIR_CODE = {(a, b): 26 * CODE[a] + CODE[b] for a in ALPHABET for b in ALPHABET}
PAIRS = tuple(PAIR_CODE)

# Key code by ASCII byte, 0 for no key; uint16, as pair codes run to 675.
_BYTE_CODE = np.zeros(128, dtype=np.uint16)
_BYTE_CODE[[ord(key) for key in CODE]] = list(CODE.values())

# Windows virtual-key codes; any other key is written as 0 and read as OTHER.
_VIRTUAL_CODE = {**{key: ord(key.upper()) for key in ALPHABET},
                SPACE: 0x20, ENTER: 0x0D}
_VIRTUAL_KEY = {code: key for key, code in _VIRTUAL_CODE.items()}

HEADER = ["key", "press_ms", "release_ms", "virtual_code", "scan_code",
          "caps", "shift"]

# Key-column names of the keys that are not letters, stripped and lowercased.
_KEY_NAMES = {"space": SPACE, "enter": ENTER, "return": ENTER}


def is_word(text: str) -> bool:
    """True exactly when text is one or more of the letters a-z."""
    # ASCII letters are all cased, so islower() means every one is a-z.
    return text.isascii() and text.isalpha() and text.islower()


def pair_codes(words, n: int) -> np.ndarray:
    """The uint16 pair codes of words of n letters a-z: row j holds the
    code of (w[j], w[j + 1]) for each word w, in order."""
    codes = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)
    codes = _BYTE_CODE[codes].reshape(-1, n)
    return np.ascontiguousarray((codes[:, :-1] * 26 + codes[:, 1:]).T)


@dataclass(frozen=True)
class KeystrokeEvent:
    key: str          # 'a'..'z', SPACE, ENTER, or OTHER
    press_ms: float
    release_ms: float


def _canonical_key(key_field: str, virtual_code: int) -> str:
    key = key_field.strip().lower()
    if not key:
        return _VIRTUAL_KEY.get(virtual_code, OTHER)
    return key if key in CODE else _KEY_NAMES.get(key, OTHER)


def parse_keylog(path) -> tuple:
    """Read a keystroke CSV, UTF-8 with or without a byte-order mark, as a
    tuple of KeystrokeEvents sorted by press time; the caps and shift
    columns are not read. Every time lies in [0, MAX_MS], so each interval
    of session_to_pairs is one train takes. Every error names the file and,
    except for an empty file, the line the CSV reader stopped on."""
    path = Path(path)
    events = []
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise MalformedRow(f"{path}: empty file, expected header row")
            if [h.strip().lower() for h in header] != HEADER:
                raise ValueError(f"bad header {header!r}, expected {HEADER}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(HEADER):
                    raise ValueError(
                        f"{len(row)} columns, expected {len(HEADER)}")
                press_ms = float(row[1])
                release_ms = float(row[2])
                virtual_code = int(row[3]) if row[3].strip() else 0
                if row[4].strip():
                    int(row[4])  # scan code: validated, not used
                if not (math.isfinite(press_ms) and math.isfinite(release_ms)):
                    raise ValueError("non-finite time")
                if max(press_ms, release_ms) > MAX_MS:
                    raise ValueError(f"time above {MAX_MS:.0f} ms")
                if press_ms < 0:
                    raise ValueError("negative press time")
                if release_ms < press_ms:
                    raise ValueError(
                        f"release {release_ms} before press {press_ms}")
                events.append(KeystrokeEvent(
                    key=_canonical_key(row[0], virtual_code),
                    press_ms=press_ms,
                    release_ms=release_ms,
                ))
        except UnicodeDecodeError:
            raise  # not a bad row: the CLI reports the file as unreadable
        except (ValueError, csv.Error) as exc:  # e.g. a field over csv's limit
            raise MalformedRow(f"{path}:{reader.line_num}: {exc}") from None
    events.sort(key=lambda e: e.press_ms)
    return tuple(events)


def _ms_text(t_ms: float) -> str:
    """t_ms as %g text when that reads back exactly, else in full; repr is
    taken of a float, as a numpy scalar's repr reads np.float64(...)."""
    text = f"{t_ms:g}"
    return text if float(text) == t_ms else repr(float(t_ms))


def write_keylog(path, events) -> None:
    """Emit the CSV format parse_keylog reads, caps and shift as 0."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        for ev in events:
            writer.writerow([ev.key, _ms_text(ev.press_ms),
                             _ms_text(ev.release_ms),
                             _VIRTUAL_CODE.get(ev.key, 0), 0, 0, 0])


def session_to_pairs(events) -> list:
    """Adjacent-letter intervals (key_a, key_b, delta_ms).

    A non-letter event (space, enter, anything else) resets adjacency, so
    pairs never span word boundaries. Zero-length intervals are dropped.
    """
    pairs = []
    prev = None
    for ev in events:
        if ev.key not in CODE:
            prev = None
            continue
        if prev is not None:
            delta = ev.press_ms - prev.press_ms
            if delta > 0:
                pairs.append((prev.key, ev.key, delta))
        prev = ev
    return pairs
