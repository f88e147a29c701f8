import json
import math
from dataclasses import replace

import numpy as np
import pytest

from keyecho import predictor, synth
from keyecho.audio import AudioSignal
from keyecho.evaluation import (_MISS_KINDS, SweepSettings, TrialRecord,
                                asd_sweep, make_trials, run_eval,
                                train_from_profile, write_report,
                                write_sweep, _pearson)
from keyecho.lexicon import make_lexicon
from keyecho.model import train
from keyecho.predictor import PredictSettings

WORDS = ["top", "work", "cat"]


@pytest.fixture(scope="module")
def clean_profile():
    return synth.profile_for_words(WORDS, base_ms=250, spacing_ms=20,
                                   std_ms=0.0, seed=5)


@pytest.fixture(scope="module")
def clean_setup(clean_profile):
    model = train_from_profile(clean_profile, WORDS, reps=2)
    trials = make_trials(clean_profile, WORDS, sample_rate=1000)
    lexicon = make_lexicon(set(WORDS) | {"bat", "word"})
    return model, trials, lexicon


class TestRunEval:
    def test_perfect_on_clean_synthetic(self, clean_setup):
        model, trials, lexicon = clean_setup
        report = run_eval(model, lexicon, trials, PredictSettings())
        assert report.success_rate == 1.0
        assert report.ambiguity >= 1.0
        assert report.failures == {}
        assert all(r.hit for r in report.per_trial)

    def test_zero_trials(self, clean_setup):
        model, _, lexicon = clean_setup
        report = run_eval(model, lexicon, [], PredictSettings())
        assert report.success_rate == 0.0
        assert report.by_length == {}
        assert report.ambiguity == 0.0

    def test_lexicon_without_truths(self, clean_setup):
        model, trials, _ = clean_setup
        lexicon = make_lexicon({"zzz"})
        report = run_eval(model, lexicon, trials, PredictSettings())
        assert report.success_rate == 0.0
        assert report.ambiguity == 0.0

    def test_order_invariant(self, clean_setup):
        model, trials, lexicon = clean_setup
        a = run_eval(model, lexicon, trials, PredictSettings())
        b = run_eval(model, lexicon, list(reversed(trials)), PredictSettings())
        assert a.success_rate == b.success_rate
        assert a.by_length == b.by_length

    def test_by_length_weighted_mean_is_overall(self, clean_setup):
        model, trials, lexicon = clean_setup
        report = run_eval(model, lexicon, trials, PredictSettings())
        counts = {}
        for _, word in trials:
            counts[len(word)] = counts.get(len(word), 0) + 1
        weighted = sum(report.by_length[k] * c for k, c in counts.items())
        assert weighted / len(trials) == pytest.approx(report.success_rate)

    def test_jobs_is_accepted_and_ignored(self, clean_setup):
        model, trials, lexicon = clean_setup
        one = run_eval(model, lexicon, trials, PredictSettings(), jobs=1)
        two = run_eval(model, lexicon, trials, PredictSettings(), jobs=2)
        assert one == two

    def test_failures_tallied_not_raised(self, clean_setup):
        _, trials, lexicon = clean_setup
        bad_model = train([("x", "y", 5000.0)])
        report = run_eval(bad_model, lexicon, trials, PredictSettings())
        assert report.success_rate == 0.0
        assert report.failures.get("no_candidates") == len(trials)

    def test_counts_candidates_without_building_them(self, clean_setup,
                                                      monkeypatch):
        model, trials, lexicon = clean_setup
        settings = PredictSettings(tolerance_pct=0.3)
        want = [len(predictor.predict(model, signal, len(word),
                                      replace(settings, lexicon=lexicon)
                                      ).words_all)
                for signal, word in trials]

        def refuse(lattice):
            raise AssertionError("eval built the candidate words")

        monkeypatch.setattr(predictor, "enumerate_words", refuse)
        report = run_eval(model, lexicon, trials, settings)
        assert [r.words_all_count for r in report.per_trial] == want
        assert max(want) > 1

    def test_trial_past_the_cap_is_scored(self, dense_keystroke):
        # More than MAX_WORDS candidates: eval counts them and filters the
        # lexicon, so the trial runs instead of failing.
        model, signal, word = dense_keystroke
        lexicon = make_lexicon({word, "keyboards"})
        report = run_eval(model, lexicon, [(signal, word)], PredictSettings())
        assert report.per_trial == (
            TrialRecord(word, True, predictor.MAX_WORDS + 1, (word,)),)
        assert report.failures == {}
        assert sorted(_MISS_KINDS.values()) == ["no_candidates",
                                                "not_enough_peaks"]

    def test_report_files(self, clean_setup, tmp_path):
        model, trials, lexicon = clean_setup
        report = run_eval(model, lexicon, trials, PredictSettings())
        write_report(report, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["success_rate"] == 1.0
        lines = (tmp_path / "by_length.csv").read_text().splitlines()
        assert lines[0] == "length,success"
        assert len(lines) == 1 + len(report.by_length)


class TestReportSchema:
    """report.json's key order is the record types' field order."""

    @staticmethod
    def misses(clean_profile):
        """A missed trial of 'top' per kind: onsets 3 s apart match no model
        pair, and silence has no keystrokes."""
        unmatched = synth.word_audio([0.0, 3000.0, 6000.0], clean_profile,
                                     1000)
        return {"no_candidates": (unmatched, "top"),
                "not_enough_peaks": (AudioSignal(np.zeros(3000), 1000), "top")}

    def test_key_order(self, clean_setup, clean_profile, tmp_path):
        model, trials, lexicon = clean_setup
        miss = self.misses(clean_profile)
        trials = trials[:1] + [miss["no_candidates"], miss["not_enough_peaks"],
                               miss["no_candidates"]]
        report = run_eval(model, lexicon, trials, PredictSettings())
        write_report(report, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert list(doc) == ["success_rate", "by_length", "asd_ms",
                             "ambiguity", "failures", "params", "trials"]
        for trial in doc["trials"]:
            assert list(trial) == ["true_word", "hit", "words_all_count",
                                   "words_dict", "failure"]
        assert [t["failure"] for t in doc["trials"]] == [
            "", "no_candidates", "not_enough_peaks", "no_candidates"]
        assert doc["trials"][0]["hit"] is True
        assert doc["trials"][1] == {"true_word": "top", "hit": False,
                                    "words_all_count": 0, "words_dict": [],
                                    "failure": "no_candidates"}
        assert list(doc["failures"].items()) == [("no_candidates", 2),
                                                 ("not_enough_peaks", 1)]

    def test_failures_in_first_seen_order(self, clean_setup, clean_profile):
        model, _, lexicon = clean_setup
        miss = self.misses(clean_profile)
        trials = [miss["not_enough_peaks"], miss["no_candidates"],
                  miss["not_enough_peaks"]]
        report = run_eval(model, lexicon, trials, PredictSettings())
        assert list(report.failures.items()) == [("not_enough_peaks", 2),
                                                 ("no_candidates", 1)]


class TestPearson:
    def test_single_point_is_nan(self):
        assert math.isnan(_pearson([1.0], [1.0]))

    def test_identical_x_is_nan(self):
        assert math.isnan(_pearson([2.0, 2.0], [0.1, 0.9]))

    def test_constant_y_is_zero_by_convention(self):
        assert _pearson([1.0, 2.0, 3.0], [0.5, 0.5, 0.5]) == 0.0

    def test_two_distinct_xs_are_enough(self):
        assert _pearson([1.0, 2.0], [0.2, 0.8]) == pytest.approx(1.0)

    def test_two_distinct_ys_are_enough(self):
        assert _pearson([1.0, 2.0, 3.0], [0.0, 0.0, 1.0]) == \
               pytest.approx(math.sqrt(3) / 2)

    def test_perfect_negative(self):
        assert _pearson([0, 1, 2], [2, 1, 0]) == pytest.approx(-1.0)

    # sum([0.1] * 3) / 3 is not 0.1, so the float variance of [0.1] * 3
    # is not 0.
    def test_identical_x_with_inexact_mean_is_nan(self):
        assert math.isnan(_pearson([0.1] * 3, [0.2, 0.5, 0.9]))

    def test_constant_y_with_inexact_mean_is_zero(self):
        assert _pearson([0.2, 0.5, 0.9], [0.1] * 3) == 0.0


class TestAsdSweep:
    def test_noisier_typist_scores_no_better(self, tmp_path):
        lexicon = make_lexicon(set(WORDS))
        profiles = [
            synth.profile_for_words(WORDS, base_ms=250, spacing_ms=20,
                                    std_ms=std, seed=21 + i)
            for i, std in enumerate([0.0, 40.0])
        ]
        settings = SweepSettings(words=tuple(WORDS), train_reps=10,
                                 trials_per_word=4, sample_rate=1000,
                                 predict=PredictSettings(std_coeff=0.0))
        result = asd_sweep(profiles, lexicon, settings)
        (asd_lo, rate_lo), (asd_hi, rate_hi) = result.points
        assert asd_lo < asd_hi
        assert rate_lo >= rate_hi
        write_sweep(result, tmp_path)
        lines = (tmp_path / "asd_sweep.csv").read_text().splitlines()
        assert lines[0] == "asd_ms,success_rate"
        assert len(lines) == 3

    def test_requires_two_profiles(self, clean_profile):
        with pytest.raises(ValueError):
            asd_sweep([clean_profile], make_lexicon({"top"}),
                      SweepSettings(words=("top",)))
