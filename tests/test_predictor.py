import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyecho import synth
from keyecho.audio import MAX_MS, AudioSignal
from keyecho.errors import CandidateExplosion, FrameOutOfRange, NoCandidates
from keyecho.keylog import ALPHABET
from keyecho.lexicon import make_lexicon
from keyecho.model import tolerance, train
from keyecho.predictor import (MAX_WORDS, PredictSettings, build_tree,
                               enumerate_words, filter_dictionary, predict)
from keyecho.segmenter import IntervalSequence

# Model keys, and the characters of random lexicon entries: make_lexicon
# keeps z, lowercases Z, and drops every entry with a digit, an
# apostrophe, é, a NUL or a character outside the Basic Multilingual Plane.
MODEL_KEYS = ["a", "b", "c", "x", "y", "z"]
LEXICON_CHARS = "abcz1'éZ\x00\U0001d538"


def naive_words(model, deltas, pct, std_coeff, alphabet):
    """Oracle: filter the full Cartesian product on adjacent-pair matching."""
    def pair_ok(a, b, delta):
        s = model.stats.get((a, b))
        if s is None:
            return False
        return abs(s.mean_ms - delta) <= tolerance(model, delta, pct,
                                                   std_coeff)

    k = len(deltas) + 1
    return sorted(
        "".join(w) for w in itertools.product(alphabet, repeat=k)
        if all(pair_ok(w[i], w[i + 1], deltas[i]) for i in range(k - 1))
    )


@st.composite
def lattice_inputs(draw, model_keys=MODEL_KEYS):
    """Model pairs over a few model_keys, and k - 1 intervals for them."""
    keys = draw(st.lists(st.sampled_from(model_keys), min_size=2,
                         max_size=6, unique=True), label="keys")
    means = draw(st.lists(st.sampled_from([200.0, 300.0, 400.0]),
                          min_size=len(keys) ** 2, max_size=len(keys) ** 2),
                 label="means")
    present = draw(st.lists(st.booleans(), min_size=len(keys) ** 2,
                            max_size=len(keys) ** 2), label="present")
    pairs = [(a, b, m) for (a, b), m, p in
             zip(itertools.product(keys, keys), means, present) if p]
    k = draw(st.integers(2, 5), label="k")
    deltas = draw(st.lists(st.sampled_from([200.0, 300.0, 400.0]),
                           min_size=k - 1, max_size=k - 1), label="deltas")
    return pairs or [("a", "b", 200.0)], deltas


def tree_words(model, deltas, pct, std_coeff):
    try:
        tree = build_tree(model, IntervalSequence(deltas), pct, std_coeff)
    except NoCandidates:
        return []
    return enumerate_words(tree)


class TestBuildTree:
    def test_single_chain(self):
        model = train([("t", "o", 300), ("t", "o", 310),
                       ("b", "o", 475), ("b", "o", 485),
                       ("o", "p", 400)])
        words = tree_words(model, (300, 400), pct=0.05, std_coeff=0.0)
        assert words == ["top"]

    def test_second_branch_survives(self):
        model = train([("t", "o", 305), ("b", "o", 300), ("o", "p", 400)])
        words = tree_words(model, (300, 400), pct=0.05, std_coeff=0.0)
        assert words == ["bop", "top"]

    def test_dead_branch_pruned(self):
        # (b,a) matches the first interval but nothing continues from 'a'.
        model = train([("t", "o", 300), ("b", "a", 305), ("o", "p", 400)])
        words = tree_words(model, (300, 400), pct=0.05, std_coeff=0.0)
        assert words == ["top"]

    def test_no_candidates_raises_with_step(self):
        model = train([("t", "o", 300)])
        with pytest.raises(NoCandidates) as exc:
            build_tree(model, IntervalSequence((300, 900)), 0.05, 0.0)
        assert exc.value.step == 2

    def test_explosion_guard(self, monkeypatch):
        # 216 words past a cap of 10: counted to 11, refused only when listed.
        monkeypatch.setattr("keyecho.predictor.MAX_WORDS", 10)
        pairs = [(a, b, 300) for a in "abcdef" for b in "abcdef"]
        model = train(pairs)
        lattice = build_tree(model, IntervalSequence((300, 300)), 0.05, 0.0)
        assert lattice.word_count == 11
        with pytest.raises(CandidateExplosion, match="more than 10 "):
            enumerate_words(lattice)
        lex = make_lexicon({"abc", "fed", "xyz", "ab"})
        assert filter_dictionary(lattice, lex) == ["abc", "fed"]

    @pytest.mark.parametrize("k", [6, 20])
    def test_packed_model_explodes_before_building(self, k):
        # 26**k words (308,915,776 at k=6): the cap is met by a saturating
        # count, and enumerate_words refuses the lattice before building a
        # word, while the lexicon filter still answers.
        model = train([(a, b, 300.0) for a in ALPHABET for b in ALPHABET])
        lex = make_lexicon(["q" * k, "q" * (k + 1)])
        tracemalloc.start()
        start = time.perf_counter()
        try:
            lattice = build_tree(model, IntervalSequence((300.0,) * (k - 1)),
                                 0.05, 0.0)
            with pytest.raises(CandidateExplosion) as exc:
                enumerate_words(lattice)
            words = filter_dictionary(lattice, lex)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 10 * 2**20
        assert lattice.word_count == MAX_WORDS + 1
        assert str(MAX_WORDS) in str(exc.value)
        assert words == ["q" * k]

    def test_cap_counts_complete_words(self, monkeypatch):
        # 36 pairs match the first interval, past the cap of 10, but only
        # the 6 words ending in "az" complete.
        monkeypatch.setattr("keyecho.predictor.MAX_WORDS", 10)
        pairs = [(a, b, 300.0) for a in "abcdef" for b in "abcdef"]
        model = train(pairs + [("a", "z", 500.0)])
        words = tree_words(model, (300.0, 500.0), 0.05, 0.0)
        assert words == naive_words(model, (300.0, 500.0), 0.05, 0.0,
                                    "abcdefz")
        assert words == [x + "az" for x in "abcdef"]

    @settings(max_examples=200, deadline=None)
    @given(lattice_inputs(), st.integers(0, 60) | st.just(MAX_WORDS))
    def test_word_count_matches_naive_oracle(self, inputs, cap):
        # A small cap, or the real one: word_count saturates one past it,
        # and enumerate_words lists the words exactly when it does not.
        pairs, deltas = inputs
        model = train(pairs)
        keys = sorted({key for pair in model.stats for key in pair})
        words = naive_words(model, deltas, 0.05, 0.0, keys)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("keyecho.predictor.MAX_WORDS", cap)
            try:
                lattice = build_tree(model, IntervalSequence(deltas), 0.05,
                                     0.0)
            except NoCandidates:
                assert words == []
                return
            assert lattice.word_count == min(len(words), cap + 1)
            if len(words) > cap:
                with pytest.raises(CandidateExplosion):
                    enumerate_words(lattice)
            else:
                assert enumerate_words(lattice) == words

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        alphabet = "abcde"
        pairs = []
        for a in alphabet:
            for b in alphabet:
                if rng.random() < 0.5:
                    mean = float(rng.integers(100, 500))
                    reps = int(rng.integers(1, 3))
                    for _ in range(reps):
                        pairs.append((a, b, mean + float(rng.normal(0, 5))))
        if not pairs:
            pairs = [("a", "b", 200.0)]
        model = train(pairs)
        k = int(rng.integers(2, 6))
        deltas = tuple(float(rng.integers(100, 500)) for _ in range(k - 1))
        pct = float(rng.uniform(0.0, 0.3))
        std_coeff = float(rng.choice([0.0, 1.0, 3.0]))
        assert tree_words(model, deltas, pct, std_coeff) == \
               naive_words(model, deltas, pct, std_coeff, alphabet)

    @pytest.mark.parametrize("seed", range(10))
    def test_widening_tolerance_only_adds_words(self, seed):
        rng = np.random.default_rng(1000 + seed)
        pairs = [(a, b, float(rng.integers(150, 400)))
                 for a in "abcd" for b in "abcd" if rng.random() < 0.7]
        if not pairs:
            pairs = [("a", "b", 200.0)]
        model = train(pairs)
        deltas = tuple(float(rng.integers(150, 400)) for _ in range(3))
        narrow = set(tree_words(model, deltas, 0.05, 0.0))
        wide = set(tree_words(model, deltas, 0.10, 0.0))
        assert narrow <= wide

    def test_soundness_of_every_word(self):
        rng = np.random.default_rng(42)
        pairs = [(a, b, float(rng.integers(150, 400)))
                 for a in "abcde" for b in "abcde"]
        model = train(pairs)
        deltas = (200.0, 250.0, 300.0)
        pct = 0.15
        words = tree_words(model, deltas, pct, 0.0)
        assert words
        for word in words:
            for i, (a, b) in enumerate(zip(word, word[1:])):
                t_f = tolerance(model, deltas[i], pct, 0.0)
                assert abs(model.stats[(a, b)].mean_ms - deltas[i]) <= t_f


class TestEnumerateWords:
    def test_single_chain(self):
        model = train([("t", "o", 300), ("o", "p", 400)])
        assert tree_words(model, (300, 400), 0.0, 0.0) == ["top"]

    def test_sorted_output(self):
        model = train([("t", "o", 300), ("b", "o", 300), ("o", "p", 400)])
        assert tree_words(model, (300, 400), 0.05, 0.0) == ["bop", "top"]


def lattice_of(pairs, deltas, pct=0.05):
    return build_tree(train(pairs), IntervalSequence(deltas), pct, 0.0)


def reference_filter(lattice, lex):
    return sorted(set(lex.words) & set(enumerate_words(lattice)))


# Words "bop" and "top".
TOP_PAIRS = [("t", "o", 300), ("b", "o", 300), ("o", "p", 400)]

# Every word of 2 to 5 letters over MODEL_KEYS (7,776 of five letters), so
# many words share each first pair and the survivors cross range edges.
DENSE_LEXICON = make_lexicon("".join(w) for n in range(2, 6)
                             for w in itertools.product(MODEL_KEYS, repeat=n))


class TestFilterDictionary:
    def test_membership(self):
        lattice = lattice_of(TOP_PAIRS, (300, 400))
        lex = make_lexicon({"top", "work", "tip"})
        assert filter_dictionary(lattice, lex) == ["top"] == \
               reference_filter(lattice, lex)

    def test_empty_input(self):
        # No lexicon word has the lattice's length.
        lattice = lattice_of(TOP_PAIRS, (300, 400))
        assert filter_dictionary(lattice, make_lexicon({"to", "work"})) == []

    def test_all_absent(self):
        lattice = lattice_of(TOP_PAIRS, (300, 400))
        lex = make_lexicon({"zzz", "pot", "tob"})
        assert filter_dictionary(lattice, lex) == []

    def test_two_keystrokes(self):
        lattice = lattice_of(TOP_PAIRS, (300,))
        lex = make_lexicon({"to", "bo", "ot", "top"})
        assert filter_dictionary(lattice, lex) == ["bo", "to"]

    def test_results_are_sorted_not_set_ordered(self):
        pairs = [(a, b, 300) for a in "abcdef" for b in "abcdef"]
        lattice = lattice_of(pairs, (300, 300))
        lex = make_lexicon({"fed", "abc", "cab", "bad", "dab", "ace"})
        assert filter_dictionary(lattice, lex) == sorted(lex.words)

    @settings(max_examples=200, deadline=None)
    @given(lattice_inputs(), st.data())
    def test_equals_intersection_with_words_all(self, inputs, data):
        try:
            lattice = lattice_of(*inputs)
        except NoCandidates:
            return
        words_all = enumerate_words(lattice)
        assert words_all == sorted(words_all)
        hits = data.draw(st.lists(st.sampled_from(words_all), max_size=5),
                         label="hits")
        others = data.draw(st.lists(st.text(LEXICON_CHARS, max_size=6),
                                    max_size=20), label="others")
        lex = make_lexicon(hits + others)
        assert filter_dictionary(lattice, lex) == reference_filter(lattice,
                                                                   lex)

    @settings(max_examples=200, deadline=None)
    # Model keys d and q are in no word of the lexicon.
    @given(lattice_inputs(MODEL_KEYS + ["d", "q"]))
    # The first mask holds codes no word has (d-b, q-b) beside one it has.
    @example(([("d", "b", 300), ("q", "b", 300), ("a", "b", 300),
               ("b", "c", 400)], [300, 400]))
    # Six keystrokes: no word of the lexicon has that length.
    @example(([("a", "b", 200), ("b", "a", 200)], [200] * 5))
    # Every pair at one mean: all 7,776 five-letter words survive.
    @example(([(a, b, 200) for a in MODEL_KEYS for b in MODEL_KEYS],
              [200] * 4))
    # Two keystrokes: one interval, so the ranges alone decide.
    @example(([("a", "b", 200), ("x", "a", 200), ("d", "q", 200)], [200]))
    def test_dense_lexicon_equals_reference(self, inputs):
        try:
            lattice = lattice_of(*inputs)
        except NoCandidates:
            return
        assert filter_dictionary(lattice, DENSE_LEXICON) == \
               reference_filter(lattice, DENSE_LEXICON)


class TestLexiconIndex:
    def test_cache_leaves_equality_hash_and_repr(self):
        used, fresh = make_lexicon({"top", "bop"}), make_lexicon({"top", "bop"})
        before = hash(used), repr(used)
        lattice = lattice_of(TOP_PAIRS, (300, 400))
        assert filter_dictionary(lattice, used) == ["bop", "top"]
        assert used == fresh
        assert (hash(used), repr(used)) == before == (hash(fresh), repr(fresh))

    def test_built_once_per_length(self):
        lex = make_lexicon({"top", "work", "at"})
        assert lex.of_length(3) is lex.of_length(3)
        assert lex.of_length(3).words == ("top",)
        assert lex.of_length(5).words == ()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text("abcxyz", min_size=2, max_size=4), max_size=30),
           st.integers(2, 4))
    def test_words_sorted_and_first_bounds_each_first_pair(self, entries, n):
        index = make_lexicon(entries).of_length(n)
        assert list(index.words) == sorted(index.words)
        assert index.first.shape == (26 * 26 + 1,)
        for c in range(26 * 26):
            pair = ALPHABET[c // 26] + ALPHABET[c % 26]
            assert index.words[index.first[c]:index.first[c + 1]] == \
                   tuple(w for w in index.words if w[:2] == pair)

    def test_empty_length_has_zero_bounds_and_empty_rows(self):
        index = make_lexicon({"top", "work"}).of_length(5)
        assert index.words == ()
        assert not index.first.any()
        assert index.pair_codes.shape == (4, 0)

    def test_every_letter_pair_round_trips(self):
        # Word a+b+a holds the pair (a, b) at j = 0 and (b, a) at j = 1.
        letters = ALPHABET
        index = make_lexicon({a + b + a for a in letters
                              for b in letters}).of_length(3)
        assert len(index.words) == 26 * 26
        assert index.pair_codes.dtype == np.uint16
        for j in range(2):
            codes = index.pair_codes[j].tolist()
            assert sorted(codes) == list(range(26 * 26))
            for word, code in zip(index.words, codes):
                assert letters[code // 26] + letters[code % 26] == \
                       word[j:j + 2]


class TestPredict:
    @pytest.fixture()
    def setup(self):
        profile = synth.profile_for_words(["top"], base_ms=250,
                                          spacing_ms=100, std_ms=0.0)
        syn = synth.synth_session(profile, ["top"])
        onsets = syn.word_onsets_ms[0]
        signal = synth.synth_audio(onsets, profile, 1000,
                                   onsets[-1] + 300.0)
        from keyecho.keylog import session_to_pairs
        model = train(session_to_pairs(syn.events))
        lex = make_lexicon({"top", "work"})
        return model, signal, lex

    def test_end_to_end(self, setup):
        model, signal, lex = setup
        settings = PredictSettings(lexicon=lex)
        result = predict(model, signal, 3, settings)
        assert result.words_dict == ("top",)
        assert result.params["k"] == 3
        assert len(result.onsets_ms) == 3
        assert len(result.deltas_ms) == 2

    def test_exact_match_mode(self, setup):
        model, signal, lex = setup
        settings = PredictSettings(tolerance_pct=0.0, std_coeff=0.0,
                                   lexicon=lex)
        result = predict(model, signal, 3, settings)
        assert result.words_dict == ("top",)

    def test_unmodeled_pair(self, setup):
        _, signal, lex = setup
        other = train([("x", "y", 5000)])
        with pytest.raises(NoCandidates):
            predict(other, signal, 3, PredictSettings(lexicon=lex))

    def test_json_serialization(self, setup):
        import json
        model, signal, lex = setup
        result = predict(model, signal, 3, PredictSettings(lexicon=lex))
        doc = json.loads(result.to_json())
        assert doc["words_dict"] == ["top"]
        assert doc["params"]["tolerance_pct"] == 0.05

    def test_lexicon_run_builds_no_words(self, setup, monkeypatch):
        model, signal, lex = setup

        def refuse(lattice):
            raise AssertionError("predict built the candidate words")

        monkeypatch.setattr("keyecho.predictor.enumerate_words", refuse)
        result = predict(model, signal, 3, PredictSettings(lexicon=lex))
        assert result.words_dict == ("top",)
        monkeypatch.undo()
        assert result.lattice.word_count == len(result.words_all)

    @staticmethod
    def ambiguous(model):
        """The model with "b" beside "t" and "p": bob, bop, tob and top."""
        to, op = model.stats["t", "o"].mean_ms, model.stats["o", "p"].mean_ms
        return train([("t", "o", to), ("b", "o", to),
                      ("o", "p", op), ("o", "b", op)])

    def test_words_all_is_built_once_on_first_read(self, setup, monkeypatch):
        model, signal, lex = setup
        result = predict(self.ambiguous(model), signal, 3,
                         PredictSettings(lexicon=lex))
        calls = []

        def counting(lattice):
            calls.append(lattice)
            return enumerate_words(lattice)

        monkeypatch.setattr("keyecho.predictor.enumerate_words", counting)
        words = result.words_all
        assert type(words) is tuple
        assert words == tuple(enumerate_words(result.lattice))
        assert words == ("bob", "bop", "tob", "top")
        assert result.lattice.word_count == 4
        assert result.words_all is words
        assert calls == [result.lattice]

    def test_without_lexicon_keeps_every_word(self, setup):
        model, signal, _ = setup
        result = predict(self.ambiguous(model), signal, 3, PredictSettings())
        assert result.words_dict == result.words_all == \
               ("bob", "bop", "tob", "top")

    def test_empty_lexicon_is_recorded_by_its_source(self, setup):
        model, signal, _ = setup
        empty = make_lexicon([], source="empty.txt")
        result = predict(model, signal, 3, PredictSettings(lexicon=empty))
        assert result.words_dict == ()
        assert result.params["lexicon"] == "empty.txt"
        assert PredictSettings().as_dict()["lexicon"] is None

    def test_k_too_small(self, setup):
        model, signal, lex = setup
        with pytest.raises(ValueError):
            predict(model, signal, 1, PredictSettings(lexicon=lex))

    def test_two_keystrokes_are_enough(self, setup):
        model, _, _ = setup
        to = model.stats["t", "o"].mean_ms
        two = synth.word_audio([0.0, to], synth.TypistProfile(
            {("t", "o"): to}), 1000)
        result = predict(model, two, 2,
                         PredictSettings(lexicon=make_lexicon({"to"})))
        assert result.words_dict == ("to",)

    def test_lexicon_counts_past_the_cap(self, dense_keystroke):
        # A dense typist's 9 keystrokes: more than MAX_WORDS candidates,
        # yet the lexicon filter answers; only listing them fails.
        model, signal, word = dense_keystroke
        lex = make_lexicon({word, "keyboards", "ke"})
        result = predict(model, signal, len(word),
                         PredictSettings(lexicon=lex))
        assert result.words_dict == (word,)
        assert result.lattice.word_count == MAX_WORDS + 1
        with pytest.raises(CandidateExplosion, match=str(MAX_WORDS)):
            result.to_json()
        with pytest.raises(CandidateExplosion, match=str(MAX_WORDS)):
            predict(model, signal, len(word), PredictSettings())


class TestPredictSettings:
    """Every tuning field is checked where the settings are made, so a
    bad value is a ValueError, not a failure deep in the pipeline."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       0.0, -1.0])
    def test_frame_ms_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="frame_ms"):
            PredictSettings(frame_ms=value)
        assert PredictSettings(frame_ms=1e-3).frame_ms == 1e-3

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_min_gap_ms_finite_and_nonnegative(self, value):
        with pytest.raises(ValueError, match="min_gap_ms"):
            PredictSettings(min_gap_ms=value)
        assert PredictSettings(min_gap_ms=0.0).min_gap_ms == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_tolerance_pct_finite_and_nonnegative(self, value):
        with pytest.raises(ValueError, match="tolerance_pct"):
            PredictSettings(tolerance_pct=value)
        assert PredictSettings(tolerance_pct=0.0).tolerance_pct == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_std_coeff_finite_and_nonnegative(self, value):
        with pytest.raises(ValueError, match="std_coeff"):
            PredictSettings(std_coeff=value)
        assert PredictSettings(std_coeff=0.0).std_coeff == 0.0

    @pytest.mark.parametrize("name", ["frame_ms", "min_gap_ms"])
    def test_durations_at_most_max_ms(self, name):
        # 1e308 ms overflows to inf samples; MAX_MS is whole at any rate.
        with pytest.raises(ValueError, match=name):
            PredictSettings(**{name: 1e308})
        assert getattr(PredictSettings(**{name: MAX_MS}), name) == MAX_MS

    def test_longest_frame_is_too_long_not_an_overflow(self):
        model = train([("a", "b", 200.0)])
        signal = AudioSignal(np.zeros(1000), 1000)
        with pytest.raises(FrameOutOfRange, match="exceeds signal length"):
            predict(model, signal, 3, PredictSettings(frame_ms=MAX_MS))
