"""Per-user inter-keystroke timing model.

The model keeps the raw interval observations alongside a per-ordered-pair
summary (mean, sample std, count) and the average standard deviation (ASD)
over pairs seen at least twice. ASD is the consistency proxy: careful,
even typists have a small ASD and are easier to attack.
"""

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (ConsistencyFailure, NonFiniteDelta, NonLetterKey,
                     NonPositiveDelta, SchemaMismatch)
from .keylog import ALPHABET, LETTERS

MODEL_VERSION = 1


@dataclass(frozen=True)
class PairStats:
    key_a: str
    key_b: str
    mean_ms: float
    std_ms: float
    count: int


@dataclass(frozen=True)
class TimingModel:
    observations: tuple                  # raw (key_a, key_b, delta_ms) rows
    stats: dict = field(repr=False)      # (key_a, key_b) -> PairStats
    asd_ms: float = 0.0

    @property
    def pair_count(self) -> int:
        return len(self.stats)

    @cached_property
    def pair_means(self) -> np.ndarray:
        """mean_ms by pair code (see keylog.ALPHABET), NaN if never seen."""
        means = np.full(26 * 26, np.nan)
        for (a, b), s in self.stats.items():
            means[26 * ALPHABET.index(a) + ALPHABET.index(b)] = s.mean_ms
        return means


def train(pairs) -> TimingModel:
    """Group interval observations by ordered key pair and summarize.

    Means and stds use math.fsum, so the result is exactly invariant under
    permutation of the input. Std is the n-1 sample form, 0 for singletons.
    Every interval must be positive and finite, and every key one of
    LETTERS (NonLetterKey), so a model's pairs are letter pairs.
    """
    observations = []
    groups = {}
    for key_a, key_b, delta_ms in pairs:
        delta_ms = float(delta_ms)
        if not 0 < delta_ms < math.inf:
            error = NonPositiveDelta if delta_ms <= 0 else NonFiniteDelta
            raise error(f"pair ({key_a},{key_b}) has interval {delta_ms} ms")
        observations.append((key_a, key_b, delta_ms))
        groups.setdefault((key_a, key_b), []).append(delta_ms)
    for key_a, key_b in groups:   # at most 26 * 26 groups once all pass
        if key_a not in LETTERS or key_b not in LETTERS:
            raise NonLetterKey(f"pair ({key_a!r}, {key_b!r}) has a key "
                               f"that is not a letter a-z")

    stats = {}
    for (key_a, key_b), deltas in sorted(groups.items()):
        n = len(deltas)
        mean = math.fsum(deltas) / n
        if n > 1:
            std = math.sqrt(math.fsum((d - mean) ** 2 for d in deltas) / (n - 1))
        else:
            std = 0.0
        stats[(key_a, key_b)] = PairStats(key_a, key_b, mean, std, n)

    repeated = [s.std_ms for s in stats.values() if s.count >= 2]
    asd = math.fsum(repeated) / len(repeated) if repeated else 0.0
    return TimingModel(observations=tuple(observations), stats=stats, asd_ms=asd)


def tolerance(model: TimingModel, delta_ms: float, pct: float,
              std_coeff: float) -> float:
    """Matching half-width: pct of the interval plus std_coeff times ASD."""
    if delta_ms <= 0:
        raise ValueError(f"interval must be positive, got {delta_ms}")
    if pct < 0 or std_coeff < 0:
        raise ValueError("pct and std_coeff must be nonnegative")
    return pct * delta_ms + std_coeff * model.asd_ms


def candidates(model: TimingModel, delta_ms: float, t_f: float,
               allowed_first) -> np.ndarray:
    """Ascending codes of the pairs whose mean lies within t_f of the interval
    and whose first key's flag is set in allowed_first, 26 bools."""
    if t_f < 0:
        raise ValueError(f"t_f must be nonnegative, got {t_f}")
    means = model.pair_means.reshape(26, 26)   # NaN compares False
    match = (means - t_f <= delta_ms) & (delta_ms <= means + t_f)
    return np.flatnonzero(match & np.asarray(allowed_first)[:, None])


def save_model(model: TimingModel, path) -> None:
    doc = {
        "version": MODEL_VERSION,
        "observations": [
            {"a": a, "b": b, "delta_ms": d} for a, b, d in model.observations
        ],
        "analysis": [
            {"a": s.key_a, "b": s.key_b, "mean_ms": s.mean_ms,
             "std_ms": s.std_ms, "count": s.count}
            for s in model.stats.values()
        ],
        "asd_ms": model.asd_ms,
    }
    text = json.dumps(doc, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _non_finite(literal):
    raise ValueError(f"non-finite number {literal}")


def _json_numbers(rows, key, types=(int, float)):
    """TypeError unless JSON parsed row[key] as one of types in every row."""
    wrong = {type(row[key]) for row in rows}.difference(types)
    if wrong:
        raise TypeError(f"a {key} is a {wrong.pop().__name__}, not "
                        f"{' or '.join(t.__name__ for t in types)}")


def load_model(path) -> TimingModel:
    """Read a model file and verify its analysis against the raw rows.

    Every number must be a JSON number, count and version integers; NaN
    and Infinity, which JSON itself does not allow, are a SchemaMismatch.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text, parse_constant=_non_finite)
    except ValueError as exc:
        raise SchemaMismatch(f"{path}: not valid JSON: {exc}") from None
    del text    # 7 MB for 10^5 observations; not needed past parsing
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"{path}: not a JSON object")
    for fld in ("version", "observations", "analysis", "asd_ms"):
        if fld not in doc:
            raise SchemaMismatch(f"{path}: missing field {fld!r}")
    if type(doc["version"]) is not int or doc["version"] != MODEL_VERSION:
        raise SchemaMismatch(f"{path}: unsupported version {doc['version']!r}")
    try:
        for rows, key in ((doc["observations"], "delta_ms"),
                          (doc["analysis"], "mean_ms"),
                          (doc["analysis"], "std_ms"), ([doc], "asd_ms")):
            _json_numbers(rows, key)
        _json_numbers(doc["analysis"], "count", (int,))
        observations = [(row["a"], row["b"], float(row["delta_ms"]))
                        for row in doc["observations"]]
        stored = {(row["a"], row["b"]): PairStats(
                      row["a"], row["b"], float(row["mean_ms"]),
                      float(row["std_ms"]), row["count"])
                  for row in doc["analysis"]}
        asd_ms = float(doc["asd_ms"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaMismatch(f"{path}: malformed row: {exc!r}") from None
    try:
        rebuilt = train(observations)
    except (TypeError, NonLetterKey) as exc:  # unhashable, or not a letter
        raise SchemaMismatch(
            f"{path}: malformed observation key: {exc}") from None
    if stored != rebuilt.stats:
        raise ConsistencyFailure(
            f"{path}: analysis table disagrees with recomputation from observations"
        )
    if asd_ms != rebuilt.asd_ms:
        raise ConsistencyFailure(
            f"{path}: asd_ms {doc['asd_ms']} != recomputed {rebuilt.asd_ms}"
        )
    return rebuilt
