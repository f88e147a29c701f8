"""Self-tests of the benchmark oracle: it accepts keyecho's own output on a
generated recording and rejects that output with one word dropped, one
word added or one onset shifted.

    python3 -m pytest perfbench/test_oracle.py
"""

import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
from keyecho import audio, evaluation, lexicon, model, predictor, synth  # noqa: E402

RATE = 1000


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    """A dense model, one recording of a 3-letter word, and its prediction."""
    out = tmp_path_factory.mktemp("case")
    rng = np.random.default_rng(7)
    pairs = [(a, b) for a in gen.LETTERS for b in gen.LETTERS]
    means = {p: float(rng.uniform(250.0, 450.0)) for p in pairs}
    gen.write_model(out / "model.json",
                    gen._observations(rng, means, dict.fromkeys(pairs, 4.0), 6))
    word = "cab"
    planted = gen._recording(out / "r.wav",
                             [round(means[p]) for p in zip(word, word[1:])],
                             RATE, rng, 0.002, 300.0)
    words = {"".join(rng.choice(list(gen.LETTERS), 3)) for _ in range(3000)}
    (out / "lexicon.txt").write_text("\n".join(sorted(words | {word})) + "\n")
    m = model.load_model(out / "model.json")
    settings = predictor.PredictSettings(
        lexicon=lexicon.load_lexicon(out / "lexicon.txt"))
    result = predictor.predict(m, audio.load_wav(out / "r.wav"), 3, settings)
    truth = dict(word=word, planted=planted, rate=RATE,
                 means=oracle.means_matrix({p: s.mean_ms
                                            for p, s in m.stats.items()}),
                 asd_ms=m.asd_ms, pct=settings.tolerance_pct,
                 coeff=settings.std_coeff,
                 lexicon=oracle.LexiconIndex.read(out / "lexicon.txt"))
    return result, truth


def check(result, truth, **changes):
    fields = dict(words_all=result.words_all, words_dict=result.words_dict,
                  onsets_ms=result.onsets_ms, deltas_ms=result.deltas_ms)
    fields.update(changes)
    return oracle.check_prediction(**fields, **truth)


def test_accepts_program_output(case):
    result, truth = case
    assert len(result.words_dict) > 1
    assert check(result, truth) == []


def test_masks_match_brute_force(case):
    result, truth = case
    masks = oracle.match_masks(truth["means"], result.deltas_ms, truth["pct"],
                               truth["coeff"], truth["asd_ms"])
    t_f = [truth["pct"] * d + truth["coeff"] * truth["asd_ms"]
           for d in result.deltas_ms]
    idx = gen.LETTERS.index
    brute = ["".join(w) for w in itertools.product(gen.LETTERS, repeat=3)
             if all(abs(truth["means"][idx(a), idx(b)] - d) <= t
                    for (a, b), d, t in zip(zip(w, w[1:]), result.deltas_ms, t_f))]
    assert oracle.count_words(masks) == len(brute)
    assert oracle.LexiconIndex(brute + ["zz"]).matching(masks) == brute


def test_rejects_dropped_word(case):
    result, truth = case
    assert check(result, truth, words_all=result.words_all[1:])
    dropped = [w for w in result.words_dict if w != truth["word"]][0]
    assert check(result, truth, words_dict=tuple(
        w for w in result.words_dict if w != dropped))


def test_rejects_added_word(case):
    result, truth = case
    outside = next(w for w in truth["lexicon"].words[3]
                   if w not in result.words_dict)
    assert check(result, truth, words_all=result.words_all + ("zzz",))
    assert check(result, truth,
                 words_dict=tuple(sorted(result.words_dict + (outside,))))


def test_rejects_missing_typed_word(case):
    result, truth = case
    absent = next(w for w in truth["lexicon"].words[3]
                  if w not in result.words_dict)
    assert check(result, dict(truth, word=absent))


def test_rejects_shifted_onset(case):
    result, truth = case
    shift = (oracle.ONSET_TOLERANCE + 1) * 1000.0 / RATE
    onsets = (result.onsets_ms[0] + shift,) + result.onsets_ms[1:]
    assert check(result, truth, onsets_ms=onsets)
    samples = [int(round(t * RATE / 1000.0)) for t in result.onsets_ms]
    samples[-1] -= oracle.ONSET_TOLERANCE + 1
    assert oracle.check_onsets(samples, truth["planted"])


def test_eval_checks():
    words = ["work", "love", "cat"]
    lex = lexicon.load_lexicon(HERE.parent / "data" / "lexicon_small.txt")
    profile = synth.profile_for_words(words, seed=3)
    m = evaluation.train_from_profile(profile, words, 3)
    trials = evaluation.make_trials(profile, words, RATE, reps=2)
    report = evaluation.run_eval(m, lex, trials, predictor.PredictSettings())
    assert oracle.check_eval(report, words * 2, 0.0) == []
    miss = dataclasses.replace(report.per_trial[0], hit=False)
    assert oracle.check_eval(dataclasses.replace(
        report, per_trial=(miss,) + report.per_trial[1:]), words * 2, 0.0)
    assert oracle.check_eval(dataclasses.replace(report, success_rate=0.5),
                             words * 2, 5.0)
    assert oracle.check_eval(dataclasses.replace(report, by_length={4: 0.5, 3: 1.0}),
                             words * 2, 5.0)
    points = [(1.0, 1.0), (2.0, 0.5), (3.0, 0.5)]
    r = float(np.corrcoef([p[0] for p in points], [p[1] for p in points])[0, 1])
    assert oracle.check_pearson(r, points) == []
    assert oracle.check_pearson(r + 0.01, points)
