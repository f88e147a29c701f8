"""Desk-scale evaluation: success rate, word-length effect, ASD sweep."""

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import predictor, synth
from .errors import CandidateExplosion, NoCandidates, NotEnoughPeaks
from .keylog import session_to_pairs
from .lexicon import Lexicon
from .model import TimingModel, train
from .predictor import PredictSettings
from .synth import TypistProfile


@dataclass(frozen=True)
class TrialRecord:
    true_word: str
    words_all_count: int
    words_dict: tuple
    hit: bool
    failure: str = ""  # "", "no_candidates", "not_enough_peaks", "explosion"


@dataclass(frozen=True)
class EvalReport:
    per_trial: tuple
    success_rate: float
    by_length: dict          # word length -> success fraction
    asd_ms: float
    ambiguity: float         # mean |words_dict| over all trials
    failures: dict           # failure kind -> count
    params: dict = field(default_factory=dict)


def _run_trial(model: TimingModel, signal, true_word: str,
               settings: PredictSettings) -> TrialRecord:
    try:
        result = predictor.predict(model, signal, len(true_word), settings)
    except NoCandidates:
        return TrialRecord(true_word, 0, (), False, failure="no_candidates")
    except NotEnoughPeaks:
        return TrialRecord(true_word, 0, (), False, failure="not_enough_peaks")
    except CandidateExplosion:
        return TrialRecord(true_word, 0, (), False, failure="explosion")
    return TrialRecord(
        true_word=true_word,
        words_all_count=len(result.words_all),
        words_dict=result.words_dict,
        hit=true_word in result.words_dict,
    )


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
    length_totals = {}
    failures = {}
    for r in records:
        got, seen = length_totals.get(len(r.true_word), (0, 0))
        length_totals[len(r.true_word)] = (got + r.hit, seen + 1)
        if r.failure:
            failures[r.failure] = failures.get(r.failure, 0) + 1
    by_length = {k: got / seen for k, (got, seen) in sorted(length_totals.items())}
    return EvalReport(
        per_trial=tuple(records),
        success_rate=sum(r.hit for r in records) / n if n else 0.0,
        by_length=by_length,
        asd_ms=model.asd_ms,
        ambiguity=(sum(len(r.words_dict) for r in records) / n) if n else 0.0,
        failures=failures,
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
                reps: int = 1, first_task: int = 1) -> list:
    """Fresh (AudioSignal, word) pairs, one derived RNG stream per trial."""
    trials = []
    task = first_task
    for _ in range(reps):
        for word in words:
            syn = synth.synth_session(profile, [word], task=task)
            onsets = syn.word_onsets_ms[0]
            total_ms = onsets[-1] + profile.burst_ms + 200.0
            signal = synth.synth_audio(onsets, profile, sample_rate, total_ms,
                                       task=task)
            trials.append((signal, word))
            task += 1
    return trials


def train_from_profile(profile: TypistProfile, words, reps: int,
                       task: int = 0) -> TimingModel:
    """Train a model from one long synthetic session of `words` x reps."""
    syn = synth.synth_session(profile, list(words) * reps, task=task)
    return train(session_to_pairs(syn.session))


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
    n = len(xs)
    if n < 2:
        return float("nan")
    mx = sum(xs) / n
    my = sum(ys) / n
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0.0:
        return float("nan")
    if vy == 0.0:
        return 0.0
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return cov / math.sqrt(vx * vy)


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
    return {
        "success_rate": report.success_rate,
        "by_length": {str(k): v for k, v in report.by_length.items()},
        "asd_ms": report.asd_ms,
        "ambiguity": report.ambiguity,
        "failures": report.failures,
        "params": report.params,
        "trials": [
            {"true_word": r.true_word, "hit": r.hit,
             "words_all_count": r.words_all_count,
             "words_dict": list(r.words_dict), "failure": r.failure}
            for r in report.per_trial
        ],
    }


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
