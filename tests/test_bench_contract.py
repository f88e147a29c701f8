"""The benchmark's side of keyecho's API, checked from keyecho's side.

perfbench/tracing.py wraps keyecho's public functions by module attribute
and takes counts from their results. A renamed function silently drops its
per-layer metric from every traced run, and a counter that no longer works
on a result ends the run without a result line. These tests load
tracing.py as it is, change nothing under perfbench/, and fail instead.
"""

import importlib
import importlib.util
import inspect
import json

import pytest

from conftest import REPO_ROOT
from keyecho import audio, lexicon, model, predictor, synth


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
SPANS = sorted({span for _, _, span, _ in tracing.TIMED}
               | {span for span, _ in tracing.COUNTERS.values()})
PER_LAYER = [m["name"] for m in
             json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.mark.parametrize("span", SPANS)
def test_every_traced_span_is_a_public_keyecho_function(span):
    module_name, name = span.split(".")
    fn = getattr(importlib.import_module(f"keyecho.{module_name}"), name, None)
    assert inspect.isfunction(fn), f"keyecho.{span} is not a function"
    assert not name.startswith("_")
    assert fn.__module__ == f"keyecho.{module_name}"
    assert span in tracing.Tracer().functions


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    """A WAV of "top", a model that also admits bob, bop and tob, a lexicon."""
    profile = synth.profile_for_words(["top"], base_ms=250, spacing_ms=100)
    onsets = synth.synth_session(profile, ["top"]).word_onsets_ms[0]
    path = tmp_path_factory.mktemp("bench") / "top.wav"
    audio.write_wav(path, synth.synth_audio(onsets, profile, 1000,
                                            onsets[-1] + 300.0))
    to, op = onsets[1] - onsets[0], onsets[2] - onsets[1]
    m = model.train([("t", "o", to), ("b", "o", to),
                     ("o", "p", op), ("o", "b", op)])
    return path, m, lexicon.make_lexicon({"top", "bob", "work"})


def test_traced_predict_gives_every_per_layer_metric(recording):
    path, m, lex = recording
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        result = predictor.predict(m, audio.load_wav(path), 3,
                                   predictor.PredictSettings(lexicon=lex))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1)
    # The worker adds the overhead, from its untraced and traced rounds.
    assert sorted(metrics) == sorted(set(PER_LAYER) - {"trace.overhead_pct"})
    assert metrics["predictor.words_all"]["value"] == 4
    assert metrics["predictor.words_dict"]["value"] == 2
    assert metrics["predictor.dict_yield"]["value"] == 0.5
    # One candidates call per interval, and the pairs it matched: (b, o)
    # and (t, o), then (o, b) and (o, p). A mask would count 26 per call.
    assert metrics["model.candidates.calls"]["value"] == 2
    assert metrics["model.pairs_matched"]["value"] == 4
    assert result.words_dict == ("bob", "top")
    for span in ("predictor.build_tree", "predictor.filter_dictionary",
                 "segmenter.energy", "audio.load_wav"):
        assert metrics[f"{span}.ms"]["value"] > 0.0


def test_counters_and_oracle_read_a_real_prediction(recording):
    path, m, lex = recording
    result = predictor.predict(m, audio.load_wav(path), 3,
                               predictor.PredictSettings(lexicon=lex))
    counts = {metric: count(result)
              for metric, (span, count) in tracing.COUNTERS.items()
              if span == "predictor.predict"}
    assert counts == {"predictor.words_all": 4, "predictor.words_dict": 2}
    # perfbench/test_oracle.py slices words_all and adds a tuple to it.
    assert type(result.words_all) is tuple
    assert result.words_all[1:] + ("zzz",) == ("bop", "tob", "top", "zzz")
