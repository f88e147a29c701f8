"""Per-user inter-keystroke timing model.

The model keeps the raw interval observations alongside a per-ordered-pair
summary (mean, sample std, count) and the average standard deviation (ASD)
over pairs seen at least twice. ASD is the consistency proxy: careful,
even typists have a small ASD and are easier to attack. train builds all
of it in one pass, a mean table by pair code too; load_model calls train.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import MAX_MS
from .errors import ConsistencyFailure, MalformedRow, SchemaMismatch
from .keylog import PAIR_CODE, PAIRS

MODEL_VERSION = 1


@dataclass(frozen=True)
class PairStats:
    mean_ms: float
    std_ms: float
    count: int


@dataclass(frozen=True)
class TimingModel:
    observations: tuple                  # raw (key_a, key_b, delta_ms) rows
    stats: dict = field(repr=False)      # (key_a, key_b) -> PairStats
    asd_ms: float
    # mean_ms by pair code (see keylog.PAIR_CODE), NaN if never seen
    pair_means: np.ndarray = field(compare=False, repr=False)


def train(pairs) -> TimingModel:
    """Group interval observations by pair code and summarize, in one pass.

    Means and stds use math.fsum, so the result is exactly invariant under
    permutation of the input. Std is the n-1 sample form, 0 for singletons.
    A row is used only when both keys are letters a-z and its interval
    lies in (0, MAX_MS], which keeps every square below 2e25; the first
    row that is not raises MalformedRow, naming that row.
    """
    observations = []
    groups = {}
    for key_a, key_b, delta_ms in pairs:
        try:
            code = PAIR_CODE[key_a, key_b]
        except KeyError:
            raise MalformedRow(f"observation ({key_a!r}, {key_b!r}, "
                               f"{delta_ms!r}): a key is not a letter a-z"
                               ) from None
        delta_ms = float(delta_ms)
        if not 0 < delta_ms <= MAX_MS:
            raise MalformedRow(f"observation ({key_a!r}, {key_b!r}, "
                               f"{delta_ms!r}): interval not in "
                               f"(0, {MAX_MS:.0f}] ms")
        observations.append((key_a, key_b, delta_ms))
        groups.setdefault(code, []).append(delta_ms)

    stats = {}
    pair_means = np.full(26 * 26, np.nan)
    for code, deltas in sorted(groups.items()):   # codes in (a, b) order
        n = len(deltas)
        mean = math.fsum(deltas) / n
        squares = math.fsum((d - mean) ** 2 for d in deltas)
        std = math.sqrt(squares / (n - 1)) if n > 1 else 0.0
        stats[PAIRS[code]] = PairStats(mean, std, n)
        pair_means[code] = mean

    repeated = [s.std_ms for s in stats.values() if s.count >= 2]
    asd = math.fsum(repeated) / len(repeated) if repeated else 0.0
    return TimingModel(tuple(observations), stats, asd, pair_means)


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
    match = np.abs(means - delta_ms) <= t_f
    return np.flatnonzero(match & np.asarray(allowed_first)[:, None])


def save_model(model: TimingModel, path) -> None:
    doc = {
        "version": MODEL_VERSION,
        "observations": [
            {"a": a, "b": b, "delta_ms": d} for a, b, d in model.observations
        ],
        "analysis": [
            {"a": a, "b": b, "mean_ms": s.mean_ms, "std_ms": s.std_ms,
             "count": s.count}
            for (a, b), s in model.stats.items()
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
    An observation that train cannot use is a SchemaMismatch. A pair that
    the analysis lists twice is a ConsistencyFailure, even when both rows
    agree. Every error names the file.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text, parse_constant=_non_finite)
    except (ValueError, RecursionError) as exc:  # or nested too deep
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
        stored = {}
        for row in doc["analysis"]:
            pair = row["a"], row["b"]
            if pair in stored:
                raise ConsistencyFailure(
                    f"{path}: analysis table lists pair {pair} twice")
            stored[pair] = PairStats(float(row["mean_ms"]),
                                     float(row["std_ms"]), row["count"])
        asd_ms = float(doc["asd_ms"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaMismatch(f"{path}: malformed row: {exc!r}") from None
    # A key missing, unhashable or not a letter, an interval out of range,
    # or an integer delta_ms past float range.
    try:
        rebuilt = train((row["a"], row["b"], row["delta_ms"])
                        for row in doc["observations"])
    except (KeyError, TypeError, OverflowError, MalformedRow) as exc:
        raise SchemaMismatch(f"{path}: malformed observation key or "
                             f"interval: {exc!r}") from None
    if stored != rebuilt.stats:
        raise ConsistencyFailure(
            f"{path}: analysis table disagrees with recomputation from observations"
        )
    if asd_ms != rebuilt.asd_ms:
        raise ConsistencyFailure(
            f"{path}: asd_ms {doc['asd_ms']} != recomputed {rebuilt.asd_ms}"
        )
    return rebuilt
