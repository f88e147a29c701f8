"""Fuzzing of the three file loaders: each input loads or is a KeyEchoError;
a WAV that does not load is a WavFormatError, and a model file a
SchemaMismatch or a ConsistencyFailure, that names the file. A keylog that
loads always trains.

Anything else (a TypeError, a struct.error, a csv.Error ...) would end a
CLI run in a traceback instead of a documented exit code.
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from keyecho.audio import MAX_MS, AudioSignal, load_wav
from keyecho.errors import (ConsistencyFailure, KeyEchoError, MalformedRow,
                            SchemaMismatch, WavFormatError)
from keyecho.keylog import HEADER, KeystrokeEvent, parse_keylog, session_to_pairs
from keyecho.model import TimingModel, load_model, save_model, train

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _load_or_keyecho_error(loader, path):
    try:
        return loader(path)
    except KeyEchoError:
        return None


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# --- load_wav ---

u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)


@st.composite
def chunks(draw, chunk_id, body):
    """One chunk; its declared size is usually, not always, the body's."""
    size = draw(st.one_of(st.just(len(body)), u32, st.integers(0, 64)))
    pad = b"\0" if len(body) & 1 and draw(st.booleans()) else b""
    return chunk_id + struct.pack("<I", size) + body + pad


@st.composite
def fmt_bodies(draw):
    audio_format = draw(st.one_of(st.sampled_from([1, 3, 0xFFFE]), u16))
    channels = draw(st.one_of(st.integers(0, 3), u16))
    bits = draw(st.one_of(st.sampled_from([0, 4, 8, 12, 16, 24, 32, 64]),
                          u16))
    frame = channels * bits // 8
    block_align = draw(st.one_of(st.sampled_from([frame & 0xFFFF, 0]), u16))
    rate = draw(st.one_of(st.sampled_from([0, 1, 8000, 44100]), u32))
    body = struct.pack("<HHIIHH", audio_format, channels, rate, draw(u32),
                       block_align, bits)
    if draw(st.booleans()):  # WAVE_FORMAT_EXTENSIBLE tail: sub-format tag
        body += (struct.pack("<HHI", 22, bits, 0)
                 + struct.pack("<H", draw(st.one_of(st.sampled_from([1, 3]),
                                                    u16)))
                 + bytes(14))
    if draw(st.booleans()):
        body = body[:draw(st.integers(0, len(body)))]
    return body


@st.composite
def wav_files(draw):
    parts = draw(st.lists(st.one_of(
        fmt_bodies().flatmap(lambda b: chunks(b"fmt ", b)),
        st.binary(max_size=96).flatmap(lambda b: chunks(b"data", b)),
        st.tuples(st.binary(min_size=4, max_size=4), st.binary(max_size=9))
          .flatmap(lambda t: chunks(*t))), max_size=4))
    head = (draw(st.sampled_from([b"RIFF", b"RIFX"]))
            + struct.pack("<I", draw(u32))
            + draw(st.sampled_from([b"WAVE", b"AVI "])))
    raw = head + b"".join(parts)
    if draw(st.booleans()):
        raw = raw[:draw(st.integers(0, len(raw)))]
    return raw


@FUZZ
@given(raw=wav_files())
def test_load_wav_loads_or_raises_keyecho_error(fuzz_dir, raw):
    path = fuzz_dir / "f.wav"
    path.write_bytes(raw)
    try:
        sig = load_wav(path)
    except WavFormatError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert isinstance(sig, AudioSignal) and len(sig) > 0
    if sig.grid_bits is not None:
        scaled = np.ldexp(sig.samples, sig.grid_bits)
        assert np.array_equal(scaled, np.floor(scaled))


# --- parse_keylog ---

fields = st.one_of(
    st.sampled_from(["", "a", "Z", "space", "enter", " ", "0", "-1", "1e3",
                     "nan", "inf", "-inf", "1_0", "0x41", "65", "true",
                     "\"", "\"a,b\"", "9" * 5000, "1" * 131073]),
    st.text(max_size=6))
rows = st.lists(fields, min_size=0, max_size=9).map(",".join)


@st.composite
def keylog_texts(draw):
    header = draw(st.one_of(st.just(",".join(HEADER)),
                            st.just(",".join(HEADER).upper()), rows))
    lines = [header] + draw(st.lists(rows, max_size=6))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines)
    return draw(st.one_of(st.just(text), st.text(max_size=60)))


@FUZZ
@given(text=keylog_texts())
def test_parse_keylog_loads_or_raises_keyecho_error(fuzz_dir, text):
    path = fuzz_dir / "log.csv"
    path.write_text(text, encoding="utf-8", newline="")
    events = _load_or_keyecho_error(parse_keylog, path)
    if events is not None:
        assert isinstance(events, tuple)
        assert all(isinstance(ev, KeystrokeEvent) for ev in events)


times = st.one_of(
    st.sampled_from([0.0, MAX_MS, math.nextafter(MAX_MS, math.inf), 5e12,
                     1.7e308, 1.79e308, 1.7976931348623157e308]),
    st.floats(0, MAX_MS), st.floats(min_value=MAX_MS), st.floats())
timed_rows = st.tuples(st.sampled_from(["a", "b", "space"]), times,
                       st.one_of(st.just(0.0), times)).map(
    lambda r: f"{r[0]},{r[1]!r},{r[1] + r[2]!r},0,0,0,0")


@FUZZ
@given(lines=st.lists(timed_rows, max_size=6))
def test_a_keylog_that_parses_trains(fuzz_dir, lines):
    path = fuzz_dir / "timed.csv"
    path.write_text("\n".join([",".join(HEADER)] + lines), encoding="utf-8")
    try:
        events = parse_keylog(path)
    except MalformedRow:
        return
    assert all(0 <= t <= MAX_MS for ev in events
               for t in (ev.press_ms, ev.release_ms))
    assert isinstance(train(session_to_pairs(events)), TimingModel)


# --- load_model ---

scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(), st.text(max_size=3))
json_values = st.recursive(
    scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
keys = st.one_of(st.sampled_from("abc"), json_values)
numbers = st.one_of(st.integers(-5, 2000), st.floats(), json_values)
obs_rows = st.one_of(
    st.fixed_dictionaries({"a": keys, "b": keys, "delta_ms": numbers}),
    json_values)
analysis_rows = st.one_of(
    st.fixed_dictionaries({"a": keys, "b": keys, "mean_ms": numbers,
                           "std_ms": numbers, "count": numbers}),
    json_values)
documents = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"version": st.one_of(st.just(1), json_values),
         "observations": st.one_of(st.lists(obs_rows, max_size=4),
                                   json_values),
         "analysis": st.one_of(st.lists(analysis_rows, max_size=4),
                               json_values),
         "asd_ms": numbers}),
)
pair_lists = st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from("ab"),
                                st.floats(1.0, 500.0)), max_size=6)


@st.composite
def model_texts(draw):
    """Random JSON, near-schema documents, and saved models, some with an
    interval replaced by any float or integer, some cut short."""
    kind = draw(st.sampled_from(["document", "saved", "text"]))
    if kind == "document":
        return json.dumps(draw(documents))
    if kind == "saved":
        model = train(draw(pair_lists))
        doc = {"version": 1,
               "observations": [{"a": a, "b": b, "delta_ms": d}
                                for a, b, d in model.observations],
               "analysis": [{"a": a, "b": b, "mean_ms": s.mean_ms,
                             "std_ms": s.std_ms, "count": s.count}
                            for (a, b), s in model.stats.items()],
               "asd_ms": model.asd_ms}
        if doc["observations"] and draw(st.booleans()):
            row = draw(st.sampled_from(doc["observations"]))
            row["delta_ms"] = draw(st.one_of(st.floats(), st.integers()))
        text = json.dumps(doc)
        if draw(st.booleans()):
            text = text[:draw(st.integers(0, len(text)))]
        return text
    return draw(st.text(max_size=40))


@FUZZ
@given(text=model_texts())
def test_load_model_loads_or_raises_keyecho_error(fuzz_dir, text):
    path = fuzz_dir / "model.json"
    path.write_text(text, encoding="utf-8")
    try:
        model = load_model(path)
    except (SchemaMismatch, ConsistencyFailure) as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert isinstance(model, TimingModel)
    save_model(model, fuzz_dir / "again.json")
    assert load_model(fuzz_dir / "again.json") == model
