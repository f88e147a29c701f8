"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run pytest -s to see them)."""

import itertools
import json
import time

import numpy as np
import pytest

from keyecho import evaluation, synth
from keyecho.audio import AudioSignal
from keyecho.errors import (ConsistencyFailure, NoCandidates, NotEnoughPeaks)
from keyecho.lexicon import load_lexicon
from keyecho.model import load_model, save_model, tolerance, train
from keyecho.predictor import PredictSettings, build_tree, enumerate_words, predict
from keyecho.segmenter import IntervalSequence, energy, pick_onsets

from conftest import LEXICON_PATH, STUDY_WORDS

SAMPLE_RATE = 1000  # 1 sample per ms keeps synthetic timing exact


def check(num, name, ok, detail=""):
    print(f"\n[acceptance] criterion {num} ({name}): "
          f"{'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def grid_profile(words, std_ms=0.0, seed=0, base_ms=250.0, **kwargs):
    return synth.profile_for_words(words, base_ms=base_ms, spacing_ms=5.0,
                                   std_ms=std_ms, seed=seed, **kwargs)


def test_criterion_1_energy_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(512, 10_001))
        frame_len = int(rng.integers(1, 513))
        sig = AudioSignal(rng.uniform(-1, 1, n), 44100)
        got = energy(sig, frame_len).values
        windows = np.lib.stride_tricks.sliding_window_view(
            np.abs(sig.samples), frame_len)
        worst = max(worst, float(np.max(np.abs(got - windows.sum(axis=1)))))
    elapsed = time.monotonic() - start
    check(1, "energy oracle", worst < 1e-9 and elapsed < 5.0,
          f"max abs error {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_planted_onset_recovery():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    frame = gap = 100
    burst = np.linspace(1.0, 0.1, frame)
    # SNR 25 dB against the burst RMS (criterion floor is 20 dB).
    noise_std = float(np.sqrt(np.mean(burst ** 2))) / 10 ** (25 / 20)
    trials = 1000
    good = 0
    for _ in range(trials):
        k = int(rng.integers(3, 9))
        gaps = rng.integers(frame + gap + 1, frame + gap + 400, k)
        starts = 50 + np.cumsum(gaps) - gaps[0]
        n = int(starts[-1] + frame + 200)
        sig = rng.normal(0, noise_std, n)
        for s in starts:
            sig[s:s + frame] += burst
        np.clip(sig, -1, 1, out=sig)
        onsets = pick_onsets(energy(AudioSignal(sig, SAMPLE_RATE), frame),
                             k=k, min_gap=gap)
        if all(abs(b - s) <= frame // 10
               for b, s in zip(onsets.onsets, starts)):
            good += 1
    elapsed = time.monotonic() - start
    check(2, "planted-onset recovery",
          good >= 0.999 * trials and elapsed < 30.0,
          f"{good}/{trials} recovered, {elapsed:.1f}s")


def test_criterion_3_tree_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    alphabet = "abcde"
    mismatches = 0
    for _ in range(500):
        pairs = []
        for a, b in itertools.product(alphabet, repeat=2):
            if rng.random() < 0.5:
                mean = float(rng.integers(100, 500))
                for _ in range(int(rng.integers(1, 3))):
                    pairs.append((a, b, mean + float(rng.normal(0, 5))))
        model = train(pairs or [("a", "b", 200.0)])
        k = int(rng.integers(2, 6))
        deltas = tuple(float(rng.integers(100, 500)) for _ in range(k - 1))
        pct = float(rng.uniform(0.0, 0.25))
        std_coeff = float(rng.choice([0.0, 1.0, 3.0]))
        try:
            got = enumerate_words(
                build_tree(model, IntervalSequence(deltas), pct, std_coeff))
        except NoCandidates:
            got = []

        t_fs = [tolerance(model, d, pct, std_coeff) for d in deltas]
        ok_pairs = [
            {pair for pair, s in model.stats.items()
             if s.mean_ms - t_f <= delta <= s.mean_ms + t_f}
            for delta, t_f in zip(deltas, t_fs)
        ]
        want = sorted(
            "".join(w) for w in itertools.product(alphabet, repeat=k)
            if all((w[i], w[i + 1]) in ok_pairs[i] for i in range(k - 1))
        )
        if got != want:
            mismatches += 1
    elapsed = time.monotonic() - start
    check(3, "tree oracle equivalence",
          mismatches == 0 and elapsed < 30.0,
          f"{mismatches} mismatches over 500 cases, {elapsed:.1f}s")


def test_criterion_4_deterministic_end_to_end():
    start = time.monotonic()
    profile = grid_profile(STUDY_WORDS, std_ms=0.0, seed=404)
    max_mean = max(profile.pair_means.values())
    # Keep pair means >= 3 * t_f apart on the 5 ms grid.
    pct = 5.0 / (3.0 * max_mean) * 0.99
    model = evaluation.train_from_profile(profile, STUDY_WORDS, reps=2)
    trials = evaluation.make_trials(profile, STUDY_WORDS, SAMPLE_RATE)
    lexicon = load_lexicon(LEXICON_PATH)
    settings = PredictSettings(tolerance_pct=pct, std_coeff=1.0)
    report = evaluation.run_eval(model, lexicon, trials, settings)
    elapsed = time.monotonic() - start
    check(4, "deterministic end-to-end",
          report.success_rate == 1.0 and report.ambiguity == 1.0
          and elapsed < 10.0,
          f"success {report.success_rate}, ambiguity {report.ambiguity}, "
          f"{elapsed:.1f}s")


def _jitter_setup(seed):
    profile = grid_profile(STUDY_WORDS, std_ms=10.0, seed=seed)
    model = evaluation.train_from_profile(profile, STUDY_WORDS, reps=30)
    return profile, model


def test_criterion_5_jitter_robustness():
    start = time.monotonic()
    profile, model = _jitter_setup(505)
    trials = evaluation.make_trials(profile, STUDY_WORDS, SAMPLE_RATE,
                                    reps=24)[:500]
    settings = PredictSettings(tolerance_pct=0.05, std_coeff=3.0)
    covered = 0
    for signal, word in trials:
        try:
            result = predict(model, signal, len(word), settings)
        except (NoCandidates, NotEnoughPeaks):
            continue
        if word in result.words_all:
            covered += 1
    elapsed = time.monotonic() - start
    check(5, "jitter robustness",
          covered >= 0.98 * len(trials) and elapsed < 60.0,
          f"{covered}/{len(trials)} words covered pre-dictionary, "
          f"{elapsed:.1f}s")


def test_criterion_6_tolerance_monotonicity():
    start = time.monotonic()
    profile, model = _jitter_setup(606)
    trials = evaluation.make_trials(profile, STUDY_WORDS, SAMPLE_RATE,
                                    reps=5)[:100]
    counterexamples = 0
    for signal, word in trials:
        words = {}
        for pct in (0.05, 0.10):
            try:
                result = predict(model, signal, len(word),
                                 PredictSettings(tolerance_pct=pct,
                                                 std_coeff=1.0))
                words[pct] = set(result.words_all)
            except (NoCandidates, NotEnoughPeaks):
                words[pct] = set()
        if not words[0.05] <= words[0.10]:
            counterexamples += 1
    elapsed = time.monotonic() - start
    check(6, "tolerance monotonicity", counterexamples == 0,
          f"{counterexamples} counterexamples over 100 trials, {elapsed:.1f}s")


def test_criterion_7_asd_trend():
    start = time.monotonic()
    profiles = [grid_profile(STUDY_WORDS, std_ms=std, seed=700 + i)
                for i, std in enumerate([0.0, 10.0, 20.0, 40.0])]
    lexicon = load_lexicon(LEXICON_PATH)
    settings = evaluation.SweepSettings(
        words=tuple(STUDY_WORDS), train_reps=15, trials_per_word=2,
        sample_rate=SAMPLE_RATE,
        predict=PredictSettings(tolerance_pct=0.10, std_coeff=0.0,
                                min_gap_ms=50.0))
    result = evaluation.asd_sweep(profiles, lexicon, settings)
    rates = [rate for _, rate in result.points]
    monotone = all(r1 >= r2 for r1, r2 in zip(rates, rates[1:]))
    elapsed = time.monotonic() - start
    check(7, "ASD trend",
          monotone and result.pearson_r <= -0.8,
          f"rates {['%.3f' % r for r in rates]}, "
          f"pearson {result.pearson_r:.3f}, {elapsed:.1f}s")


def test_criterion_8_model_roundtrip_and_tamper(tmp_path):
    model = train([("t", "o", 300.0), ("t", "o", 310.0), ("o", "p", 400.0)])
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    roundtrip_ok = (back.observations == model.observations
                    and back.stats == model.stats
                    and back.asd_ms == model.asd_ms)
    doc = json.loads(path.read_text())
    doc["analysis"][0]["mean_ms"] = 999.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ConsistencyFailure):
        load_model(path)
    check(8, "model round-trip and consistency", roundtrip_ok,
          "exact field equality and tamper detection")
