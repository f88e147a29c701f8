"""Desk-scale evaluation: success rate, word-length effect, ASD sweep."""

import csv
import json
import statistics
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import predictor, synth
from .errors import NoCandidates, NotEnoughPeaks
from .keylog import session_to_pairs
from .lexicon import Lexicon
from .model import TimingModel, train
from .predictor import PredictSettings
from .synth import TypistProfile

# The pipeline failures a trial counts as a miss, by report.json's kind name.
_MISS_KINDS = {NoCandidates: "no_candidates",
               NotEnoughPeaks: "not_enough_peaks"}


# The two records declare report.json: its keys are their fields, in order.
@dataclass(frozen=True)
class TrialRecord:
    true_word: str
    hit: bool
    words_all_count: int     # MAX_WORDS + 1 for more than MAX_WORDS
    words_dict: tuple
    failure: str = ""        # "" for a trial that ran, else a _MISS_KINDS name


@dataclass(frozen=True)
class EvalReport:
    per_trial: tuple         # written last, as "trials"
    success_rate: float
    by_length: dict          # word length -> success fraction
    asd_ms: float
    ambiguity: float         # mean |words_dict| over all trials
    failures: dict           # failure kind -> count, in first-seen order
    params: dict = field(default_factory=dict)


def _run_trial(model: TimingModel, signal, true_word: str,
               settings: PredictSettings) -> TrialRecord:
    try:
        result = predictor.predict(model, signal, len(true_word), settings)
    except tuple(_MISS_KINDS) as exc:
        return TrialRecord(true_word, False, 0, (), _MISS_KINDS[type(exc)])
    return TrialRecord(true_word, true_word in result.words_dict,
                       result.lattice.word_count, result.words_dict)


def run_eval(model: TimingModel, lexicon: Lexicon, trials,
             settings: PredictSettings, *, jobs: int = 1) -> EvalReport:
    """Predict every (AudioSignal, true_word) trial in order and aggregate.

    Pipeline failures count as misses and are tallied per kind rather than
    raised. `jobs` is accepted and ignored, because the benchmark's
    perfbench/worker.py and perfbench/baselines.py still pass it.
    """
    settings = replace(settings, lexicon=lexicon)
    records = [_run_trial(model, signal, word, settings)
               for signal, word in trials]
    n = len(records)
    hits_by_length = {}
    for r in records:
        hits_by_length.setdefault(len(r.true_word), []).append(r.hit)
    return EvalReport(
        per_trial=tuple(records),
        success_rate=sum(r.hit for r in records) / n if n else 0.0,
        by_length={k: sum(hits) / len(hits)
                   for k, hits in sorted(hits_by_length.items())},
        asd_ms=model.asd_ms,
        ambiguity=(sum(len(r.words_dict) for r in records) / n) if n else 0.0,
        # A plain dict: asdict would rebuild a Counter from its items.
        failures=dict(Counter(r.failure for r in records if r.failure)),
        params=settings.as_dict(),
    )


@dataclass(frozen=True)
class SweepSettings:
    """How much synthetic data to generate per profile, and how to predict."""
    words: tuple
    train_reps: int = 20        # times each word is typed for training
    trials_per_word: int = 3
    sample_rate: int = 1000
    predict: PredictSettings = field(default_factory=PredictSettings)


def make_trials(profile: TypistProfile, words, sample_rate: int,
                reps: int = 1) -> list:
    """Fresh (AudioSignal, word) pairs, one derived RNG stream per trial."""
    trials = []
    # Task 0 is train_from_profile's session; trial i uses task i + 1.
    for task, word in enumerate(list(words) * reps, start=1):
        syn = synth.synth_session(profile, [word], task=task)
        signal = synth.word_audio(syn.word_onsets_ms[0], profile,
                                  sample_rate, task=task)
        trials.append((signal, word))
    return trials


def train_from_profile(profile: TypistProfile, words,
                       reps: int) -> TimingModel:
    """Train a model from one long synthetic session of `words` x reps."""
    syn = synth.synth_session(profile, list(words) * reps)
    return train(session_to_pairs(syn.events))


def evaluate_profile(profile: TypistProfile, lexicon: Lexicon,
                     settings: SweepSettings) -> EvalReport:
    """Train a model on one typist, then score fresh trials of its words."""
    model = train_from_profile(profile, settings.words, settings.train_reps)
    trials = make_trials(profile, settings.words, settings.sample_rate,
                         reps=settings.trials_per_word)
    return run_eval(model, lexicon, trials, settings.predict)


@dataclass(frozen=True)
class SweepResult:
    points: tuple        # (asd_ms, success_rate), ascending asd
    pearson_r: float     # nan if undefined, 0.0 when rates have no variance


def _pearson(xs, ys) -> float:
    """Pearson's r; nan when the xs are all equal, which includes fewer than
    two, and 0.0 when the ys are all equal."""
    if len(set(xs)) < 2:
        return float("nan")
    if len(set(ys)) < 2:
        return 0.0
    return statistics.correlation(xs, ys)


def asd_sweep(profiles, lexicon: Lexicon,
              settings: SweepSettings) -> SweepResult:
    """Evaluate one model per profile; relate ASD to success."""
    if len(profiles) < 2:
        raise ValueError("need at least two profiles to sweep")
    reports = [evaluate_profile(p, lexicon, settings) for p in profiles]
    points = sorted(((r.asd_ms, r.success_rate) for r in reports),
                    key=lambda p: p[0])
    r = _pearson([p[0] for p in points], [p[1] for p in points])
    return SweepResult(points=tuple(points), pearson_r=r)


# --- report emission ---

def report_to_dict(report: EvalReport) -> dict:
    """EvalReport's fields in order, with per_trial moved last as "trials"."""
    doc = asdict(report)
    doc["trials"] = doc.pop("per_trial")
    return doc


def _write_csv(path: Path, header, rows) -> None:
    """Write a header row and then `rows`, creating the directory first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_report(report: EvalReport, out_dir) -> None:
    """Emit report.json plus by_length.csv for external plotting."""
    out_dir = Path(out_dir)
    _write_csv(out_dir / "by_length.csv", ["length", "success"],
               report.by_length.items())
    (out_dir / "report.json").write_text(
        json.dumps(report_to_dict(report), indent=2) + "\n", encoding="utf-8")


def write_sweep(result: SweepResult, out_dir) -> None:
    """Emit asd_sweep.csv, one (asd_ms, success_rate) row per profile."""
    _write_csv(Path(out_dir) / "asd_sweep.csv", ["asd_ms", "success_rate"],
               result.points)
