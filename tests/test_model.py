import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyecho.audio import MAX_MS
from keyecho.errors import ConsistencyFailure, MalformedRow, SchemaMismatch
from keyecho.keylog import ALPHABET, CODE
from keyecho.model import (PairStats, TimingModel, candidates, load_model,
                           save_model, tolerance, train)

pair_lists = st.lists(
    st.tuples(st.sampled_from("abct"), st.sampled_from("opxz"),
              st.floats(min_value=1.0, max_value=2000.0,
                        allow_nan=False, allow_infinity=False)),
    max_size=40,
)
# Pairs over the whole alphabet, so every pair code can occur.
alphabet_pair_lists = st.lists(
    st.tuples(st.sampled_from(ALPHABET), st.sampled_from(ALPHABET),
              st.floats(min_value=1.0, max_value=2000.0)),
    max_size=80,
)


def train_by_key_pair(pairs):
    """train's summary built another way: grouped by sorted (a, b) tuples,
    with pair_means filled from stats through ALPHABET.index."""
    groups = {}
    for key_a, key_b, delta_ms in pairs:
        groups.setdefault((key_a, key_b), []).append(float(delta_ms))
    stats = {}
    for (key_a, key_b), deltas in sorted(groups.items()):
        n = len(deltas)
        mean = math.fsum(deltas) / n
        std = (math.sqrt(math.fsum((d - mean) ** 2 for d in deltas) / (n - 1))
               if n > 1 else 0.0)
        stats[(key_a, key_b)] = PairStats(mean, std, n)
    means = np.full(26 * 26, np.nan)
    for (key_a, key_b), s in stats.items():
        means[26 * ALPHABET.index(key_a) + ALPHABET.index(key_b)] = s.mean_ms
    repeated = [s.std_ms for s in stats.values() if s.count >= 2]
    asd = math.fsum(repeated) / len(repeated) if repeated else 0.0
    return stats, asd, means


class TestTrain:
    def test_hand_computed_stats(self):
        model = train([("t", "o", 300), ("t", "o", 310), ("o", "p", 400)])
        to = model.stats[("t", "o")]
        assert to.mean_ms == 305
        assert to.std_ms == pytest.approx(7.0710678, abs=1e-6)
        assert to.count == 2
        op = model.stats[("o", "p")]
        assert (op.mean_ms, op.std_ms, op.count) == (400, 0.0, 1)
        assert model.asd_ms == pytest.approx(7.0710678, abs=1e-6)

    def test_empty(self):
        model = train([])
        assert model.stats == {}
        assert model.asd_ms == 0.0

    def test_singleton_excluded_from_asd(self):
        model = train([("a", "b", 200)])
        assert model.stats[("a", "b")].std_ms == 0.0
        assert model.asd_ms == 0.0

    def test_non_positive_delta(self):
        with pytest.raises(MalformedRow, match="interval not in"):
            train([("a", "b", 0.0)])
        with pytest.raises(MalformedRow, match="interval not in"):
            train([("a", "b", -5.0)])

    @pytest.mark.parametrize("delta", [math.nan, math.inf, "inf", "nan"])
    def test_non_finite_delta(self, delta):
        with pytest.raises(MalformedRow, match="interval not in"):
            train([("a", "b", 200.0), ("b", "c", delta)])
        with pytest.raises(MalformedRow, match="interval not in"):
            train([("a", "b", -math.inf)])

    @pytest.mark.parametrize("delta", [math.nextafter(MAX_MS, math.inf),
                                       1.7e308])
    def test_delta_above_max_ms(self, delta):
        # The bound keeps (delta - mean)**2 finite; 1.7e308 overflowed it.
        with pytest.raises(MalformedRow, match="interval not in"):
            train([("a", "b", delta), ("a", "b", 1.0)])

    @pytest.mark.parametrize("key", ["1", "A", "é", "sh", "", 5])
    def test_non_letter_key(self, key):
        for pair in [(key, "b", 100), ("a", key, 100)]:
            with pytest.raises(MalformedRow, match="not a letter a-z"):
                train([("a", "b", 100), pair])

    def test_first_bad_row_decides_the_error(self):
        with pytest.raises(MalformedRow, match=r"\('A', 'b', 100\)"):
            train([("A", "b", 100), ("a", "b", -5)])
        with pytest.raises(MalformedRow, match=r"\('a', 'b', -5.0\)"):
            train([("a", "b", -5), ("A", "b", 100)])

    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from(ALPHABET), st.text(max_size=2)),
        st.sampled_from(ALPHABET),
        st.one_of(st.floats(), st.sampled_from(
            [1.79e308, 1.7e308, MAX_MS, math.nextafter(MAX_MS, math.inf)]))),
        max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_trains_or_raises_malformed_row(self, pairs):
        # Any floats, near the float maximum too: a model or MalformedRow,
        # and MalformedRow exactly when some row breaks the rule.
        usable = all(a in CODE and 0 < d <= MAX_MS for a, _, d in pairs)
        try:
            model = train(pairs)
        except MalformedRow:
            assert not usable
        else:
            assert usable
            assert math.isfinite(model.asd_ms)

    @given(st.one_of(pair_lists, alphabet_pair_lists))
    @settings(max_examples=100, deadline=None)
    def test_matches_grouping_by_key_pair(self, pairs):
        stats, asd, means = train_by_key_pair(pairs)
        model = train(pairs)
        assert model.observations == tuple((a, b, float(d))
                                           for a, b, d in pairs)
        assert list(model.stats.items()) == list(stats.items())
        assert model.asd_ms == asd
        assert model.pair_means.tobytes() == means.tobytes()
        seen = {26 * ALPHABET.index(a) + ALPHABET.index(b)
                for a, b, _ in pairs}
        assert set(np.flatnonzero(np.isnan(model.pair_means))) == \
               set(range(26 * 26)) - seen

    @given(pair_lists, st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_order_invariant(self, pairs, rnd):
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        a, b = train(pairs), train(shuffled)
        assert a.stats == b.stats
        assert a.asd_ms == b.asd_ms

    @given(pair_lists, st.floats(min_value=0.1, max_value=8.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_consistent(self, pairs, c):
        base = train(pairs)
        scaled = train([(a, b, d * c) for a, b, d in pairs])
        for key, s in base.stats.items():
            assert scaled.stats[key].mean_ms == pytest.approx(s.mean_ms * c, rel=1e-12)
            assert scaled.stats[key].std_ms == pytest.approx(s.std_ms * c, rel=1e-9, abs=1e-9)
        assert scaled.asd_ms == pytest.approx(base.asd_ms * c, rel=1e-9, abs=1e-9)


class TestTolerance:
    def test_bare_five_percent(self):
        model = train([])
        assert tolerance(model, 300, 0.05, 0.0) == 15.0

    def test_asd_term(self):
        model = train([("t", "o", 300), ("t", "o", 310)])  # asd = sqrt(50)
        t_f = tolerance(model, 300, 0.05, 1.0)
        assert t_f == pytest.approx(15.0 + math.sqrt(50), abs=1e-9)

    def test_exact_match_mode(self):
        model = train([("t", "o", 300), ("t", "o", 310)])
        assert tolerance(model, 123, 0.0, 0.0) == 0.0

    def test_sub_millisecond_interval(self):
        assert tolerance(train([]), 0.5, 0.05, 0.0) == 0.025


def pair_code(key_a, key_b):
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    return 26 * alphabet.index(key_a) + alphabet.index(key_b)


def first_keys(keys):
    """26 flags, one per letter a-z, set for the letters in keys."""
    return [c in keys for c in "abcdefghijklmnopqrstuvwxyz"]


class TestCandidates:
    @pytest.fixture()
    def model(self):
        return train([("t", "o", 305), ("b", "o", 500)])

    def test_single_match(self, model):
        full = first_keys("abcdefghijklmnopqrstuvwxyz")
        assert candidates(model, 300, 10, full).tolist() == \
               [pair_code("t", "o")]

    def test_huge_tolerance_saturates(self, model):
        full = first_keys("abcdefghijklmnopqrstuvwxyz")
        assert candidates(model, 400, 1e6, full).tolist() == \
               [pair_code("b", "o"), pair_code("t", "o")]

    def test_empty_filter(self, model):
        assert candidates(model, 305, 1e6, first_keys("")).tolist() == []

    def test_first_key_filter(self, model):
        assert candidates(model, 400, 1e6, first_keys("b")).tolist() == \
               [pair_code("b", "o")]

    @given(pair_lists,
           st.floats(min_value=1, max_value=2000),
           st.floats(min_value=0, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, pairs, delta, t_f):
        model = train(pairs)
        allowed = set("abct")
        got = candidates(model, delta, t_f, first_keys(allowed))
        want = sorted(
            pair_code(a, b) for (a, b), s in model.stats.items()
            if a in allowed and abs(s.mean_ms - delta) <= t_f
        )
        assert got.tolist() == want

    @given(st.floats(min_value=0.1, max_value=2000),
           st.floats(min_value=0, max_value=500),
           st.sampled_from([-1.0, 1.0]), st.integers(-2, 2))
    # |0.1 - 0.30000000000000004| = 0.20000000000000004, past t_f = 0.2.
    @example(mean=0.1, t_f=0.2, sign=1.0, steps=0)
    @settings(max_examples=200, deadline=None)
    def test_window_edge_is_the_absolute_difference(self, mean, t_f, sign,
                                                    steps):
        # The interval at fl(mean +- t_f) and its neighbouring floats, where
        # |mean - delta| <= t_f and mean - t_f <= delta <= mean + t_f
        # can round differently.
        delta = mean + sign * t_f
        for _ in range(abs(steps)):
            delta = math.nextafter(delta, math.copysign(math.inf, steps))
        got = candidates(train([("t", "o", mean)]), delta, t_f,
                         first_keys(ALPHABET))
        want = [pair_code("t", "o")] if abs(mean - delta) <= t_f else []
        assert got.tolist() == want


def model_with_literal(tmp_path, field, literal):
    """A saved one-pair model with `field`'s first value written as `literal`."""
    path = tmp_path / "model.json"
    save_model(train([("a", "b", 100.0), ("a", "b", 110.0)]), path)
    doc = json.loads(path.read_text())
    row = {"delta_ms": doc["observations"][0], "asd_ms": doc}.get(
        field, doc["analysis"][0])
    row[field] = "@"
    path.write_text(json.dumps(doc).replace('"@"', literal))
    return path


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        model = train([("t", "o", 300), ("t", "o", 310), ("o", "p", 400)])
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.observations == model.observations
        assert back.stats == model.stats
        assert back.asd_ms == model.asd_ms

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.json"
        save_model(train([]), path)
        back = load_model(path)
        assert back.stats == {} and back.asd_ms == 0.0

    def test_tampered_mean_detected(self, tmp_path):
        model = train([("t", "o", 305)])
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["analysis"][0]["mean_ms"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ConsistencyFailure):
            load_model(path)

    def test_tampered_asd_detected(self, tmp_path):
        model = train([("t", "o", 300), ("t", "o", 310)])
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["asd_ms"] = 0.5
        path.write_text(json.dumps(doc))
        with pytest.raises(ConsistencyFailure):
            load_model(path)

    def test_pair_listed_twice_detected(self, tmp_path):
        # A disagreeing row for ab before the true one.
        path = tmp_path / "model.json"
        save_model(train([("a", "b", 100.0), ("a", "b", 110.0)]), path)
        doc = json.loads(path.read_text())
        doc["analysis"].insert(0, dict(doc["analysis"][0], mean_ms=999,
                                       count=7))
        path.write_text(json.dumps(doc))
        with pytest.raises(ConsistencyFailure, match=r"\('a', 'b'\) twice"):
            load_model(path)

    @given(pairs=alphabet_pair_lists.filter(bool), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_analysis_rows_load_in_any_order_but_each_once(
            self, tmp_path_factory, pairs, data):
        model = train(pairs)
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        rows = doc["analysis"] = data.draw(st.permutations(doc["analysis"]))
        path.write_text(json.dumps(doc))
        back = load_model(path)
        assert (back.stats, back.asd_ms) == (model.stats, model.asd_ms)

        # One row again, with any of its numbers changed or none, placed
        # before or after the original.
        row = data.draw(st.sampled_from(rows))
        changes = data.draw(st.fixed_dictionaries({}, optional={
            "mean_ms": st.floats(1.0, 2000.0), "std_ms": st.floats(0.0, 100.0),
            "count": st.integers(1, 9)}))
        rows.insert(data.draw(st.integers(0, len(rows))), {**row, **changes})
        path.write_text(json.dumps(doc))
        with pytest.raises(ConsistencyFailure, match="twice"):
            load_model(path)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("version"),
        lambda d: d.pop("observations"),
        lambda d: d.pop("analysis"),
        lambda d: d.pop("asd_ms"),
        lambda d: d.update(version=99),
        # Numbers of the wrong JSON type, each equal to the right value.
        lambda d: d.update(version=True),
        lambda d: d.update(version=1.0),
        lambda d: d.update(version="1"),
        lambda d: d["analysis"][0].update(count=1.9),
        lambda d: d["analysis"][0].update(count=1.0),
        lambda d: d["analysis"][0].update(count="1"),
        lambda d: d["analysis"][0].update(count=True),
        lambda d: d["analysis"][0].update(mean_ms="100"),
        lambda d: d["analysis"][0].update(std_ms="0"),
        lambda d: d["observations"][0].update(delta_ms="100"),
        lambda d: d.update(asd_ms="0"),
        lambda d: d.update(asd_ms=False),
    ])
    def test_schema_mismatch(self, tmp_path, mutate):
        path = tmp_path / "model.json"
        save_model(train([("a", "b", 100)]), path)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch):
            load_model(path)

    def test_save_refuses_non_finite(self, tmp_path):
        # Only a hand-built model can hold one; train rejects them.
        model = TimingModel(observations=(("a", "b", math.nan),), stats={},
                            asd_ms=math.inf,
                            pair_means=np.full(26 * 26, np.nan))
        with pytest.raises(ValueError, match="JSON compliant"):
            save_model(model, tmp_path / "model.json")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["delta_ms", "mean_ms", "std_ms",
                                       "asd_ms"])
    def test_non_finite_literal_is_schema_mismatch(self, tmp_path, field,
                                                   literal):
        path = model_with_literal(tmp_path, field, literal)
        with pytest.raises(SchemaMismatch, match=f"non-finite number {literal}"):
            load_model(path)

    @pytest.mark.parametrize("field,literal,error", [
        ("delta_ms", "1e999", SchemaMismatch),
        ("delta_ms", "1" + "0" * 400, SchemaMismatch),
        ("mean_ms", "1e999", ConsistencyFailure),
        ("mean_ms", "1" + "0" * 400, SchemaMismatch)])
    def test_overflowing_number_is_rejected(self, tmp_path, field, literal,
                                            error):
        with pytest.raises(error):
            load_model(model_with_literal(tmp_path, field, literal))

    @pytest.mark.parametrize("text", ["5", "[]", '{"version": 1, '
                                      '"observations": [], "analysis": [], '
                                      '"asd_ms": "x"}'])
    def test_malformed_document(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(SchemaMismatch):
            load_model(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json")
        with pytest.raises(SchemaMismatch):
            load_model(path)

    def test_nesting_too_deep_for_json(self, tmp_path):
        # json gives up on this with RecursionError, not a ValueError.
        path = tmp_path / "model.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(SchemaMismatch, match="not valid JSON"):
            load_model(path)

    @pytest.mark.parametrize("rows", [
        [{"a": "a", "b": [], "delta_ms": 1}],           # unhashable
        [{"a": "a", "b": "b", "delta_ms": 1},
         {"a": 1, "b": "b", "delta_ms": 1}],            # not a string
        [{"b": "b", "delta_ms": 1}],                    # no "a"
        [{"a": "a", "delta_ms": 1}]])                   # no "b"
    def test_observation_key_train_cannot_group(self, tmp_path, rows):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"version": 1, "observations": rows,
                                    "analysis": [], "asd_ms": 0}))
        with pytest.raises(SchemaMismatch, match="observation key"):
            load_model(path)

    @pytest.mark.parametrize("key", ["sh", "", 5, "1", "A", "é"])
    def test_key_not_one_character(self, tmp_path, key):
        # Written by hand, as train makes no model with such a key.
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "version": 1,
            "observations": [{"a": key, "b": "b", "delta_ms": 100.0}],
            "analysis": [{"a": key, "b": "b", "mean_ms": 100.0,
                          "std_ms": 0.0, "count": 1}],
            "asd_ms": 0.0}))
        with pytest.raises(SchemaMismatch):
            load_model(path)
