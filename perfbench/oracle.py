"""Checks of keyecho's outputs, computed apart from the program.

Nothing here calls keyecho. Candidate words are recomputed from 26x26
boolean match masks M_i[a, b] = |mu_ab - delta_i| <= t_f with
t_f = tolerance_pct * delta_i + std_coeff * asd_ms: the number of
candidate words is the integer product 1' M_1 ... M_{k-1} 1, and the
dictionary words are the lexicon words of length k whose every adjacent
pair is allowed by its mask. Each function returns a list of problems;
an empty list means the output passed.
"""

import math
import re

import numpy as np

LETTERS = "abcdefghijklmnopqrstuvwxyz"
ONSET_TOLERANCE = 3     # samples between a detected onset and its click


def means_matrix(pair_means: dict) -> np.ndarray:
    """{(a, b): mean_ms} as a 26x26 array, nan for pairs never seen."""
    m = np.full((26, 26), np.nan)
    for (a, b), mean in pair_means.items():
        m[LETTERS.index(a), LETTERS.index(b)] = mean
    return m


def match_masks(means: np.ndarray, deltas_ms, pct: float, coeff: float,
                asd_ms: float) -> list:
    with np.errstate(invalid="ignore"):
        return [np.abs(means - d) <= pct * d + coeff * asd_ms for d in deltas_ms]


def count_words(masks) -> int:
    """Number of letter strings whose every adjacent pair is allowed."""
    v = np.ones(26, dtype=object)
    for m in masks:
        v = v @ m.astype(object)
    return int(v.sum())


class LexiconIndex:
    """A word list stored as per-length arrays of letter codes."""

    def __init__(self, words):
        by_len = {}
        for w in words:
            by_len.setdefault(len(w), []).append(w)
        self.words = {k: sorted(ws) for k, ws in by_len.items()}
        self.codes = {
            k: np.frombuffer("".join(ws).encode("ascii"), dtype=np.uint8)
                 .reshape(len(ws), k).astype(np.intp) - ord("a")
            for k, ws in self.words.items()
        }

    @classmethod
    def read(cls, path):
        """One word per line, lowercased; lines that are not a-z dropped."""
        with open(path, encoding="utf-8") as fh:
            words = {line.strip().lower() for line in fh}
        return cls(w for w in words if re.fullmatch(r"[a-z]+", w))

    def matching(self, masks) -> list:
        """Sorted words of length len(masks) + 1 allowed by every mask."""
        k = len(masks) + 1
        if k not in self.codes:
            return []
        codes = self.codes[k]
        ok = np.ones(len(codes), dtype=bool)
        for i, m in enumerate(masks):
            ok &= m[codes[:, i], codes[:, i + 1]]
        return [w for w, keep in zip(self.words[k], ok) if keep]


def check_onsets(detected, planted, tol: int = ONSET_TOLERANCE) -> list:
    """Every detected onset (samples) lies within tol of its planted click."""
    detected = list(detected)
    planted = list(planted)
    if len(detected) != len(planted):
        return [f"{len(detected)} onsets detected, {len(planted)} planted"]
    far = [(d, p) for d, p in zip(sorted(detected), planted) if abs(d - p) > tol]
    if far:
        return [f"{len(far)} onsets more than {tol} samples from their "
                f"click, first detected {far[0][0]} for planted {far[0][1]}"]
    return []


def check_intervals(deltas_ms, onsets, rate: int) -> list:
    """Reported intervals are the gaps between the reported onsets."""
    want = [(b - a) * 1000.0 / rate for a, b in zip(onsets, onsets[1:])]
    if len(want) != len(deltas_ms) or any(
            abs(w - d) > 1e-9 for w, d in zip(want, deltas_ms)):
        return ["intervals do not match the onset gaps"]
    return []


def check_prediction(words_all, words_dict, onsets_ms, deltas_ms, *,
                     word: str, planted, rate: int, means: np.ndarray,
                     asd_ms: float, pct: float, coeff: float,
                     lexicon: LexiconIndex) -> list:
    """One predict() result against its recording's ground truth."""
    onsets = [int(round(t * rate / 1000.0)) for t in onsets_ms]
    problems = check_onsets(onsets, planted)
    problems += check_intervals(deltas_ms, onsets, rate)
    masks = match_masks(means, deltas_ms, pct, coeff, asd_ms)
    want_all = count_words(masks)
    if len(words_all) != want_all:
        problems.append(f"{len(words_all)} candidate words, masks give {want_all}")
    want_dict = lexicon.matching(masks)
    if list(words_dict) != want_dict:
        extra = sorted(set(words_dict) - set(want_dict))[:3]
        missing = sorted(set(want_dict) - set(words_dict))[:3]
        problems.append(f"words_dict differs: extra {extra}, missing {missing}")
    if word not in words_dict:
        problems.append(f"typed word {word!r} not in words_dict")
    return problems


def check_eval(report, words, pair_std: float) -> list:
    """Properties of one run_eval report over trials of `words`."""
    trials = report.per_trial
    problems = []
    if [t.true_word for t in trials] != list(words):
        problems.append("per_trial does not follow the trial order")
    for t in trials:
        if t.hit != (t.true_word in t.words_dict):
            problems.append(f"hit={t.hit} for {t.true_word!r} disagrees "
                            f"with words_dict")
            break
    n = len(trials)
    hits = sum(t.true_word in t.words_dict for t in trials)
    if not math.isclose(report.success_rate, hits / n, abs_tol=1e-12):
        problems.append(f"success_rate {report.success_rate} != {hits}/{n}")
    by_len = {}
    for t in trials:
        got, seen = by_len.get(len(t.true_word), (0, 0))
        by_len[len(t.true_word)] = (got + (t.true_word in t.words_dict), seen + 1)
    want = {k: got / seen for k, (got, seen) in by_len.items()}
    if set(report.by_length) != set(want) or any(
            not math.isclose(report.by_length[k], v, abs_tol=1e-12)
            for k, v in want.items()):
        problems.append(f"by_length {report.by_length} != recount {want}")
    if pair_std == 0.0 and report.success_rate != 1.0:
        problems.append(f"success_rate {report.success_rate} at pair_std 0")
    return problems


def check_pearson(r: float, points) -> list:
    """The sweep correlation of (asd_ms, success_rate) points."""
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    if np.ptp(xs) == 0:
        return [] if math.isnan(r) else [f"pearson_r {r} with constant ASD"]
    want = 0.0 if np.ptp(ys) == 0 else float(np.corrcoef(xs, ys)[0, 1])
    if not math.isclose(r, want, abs_tol=1e-9):
        return [f"pearson_r {r} != numpy.corrcoef {want}"]
    return []
