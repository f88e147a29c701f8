import errno
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import LEXICON_PATH, make_wav_bytes
from keyecho import cli, errors, predictor, synth
from keyecho.audio import write_wav
from keyecho.model import save_model

CLI = [sys.executable, "-m", "keyecho.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run(CLI + [str(a) for a in args],
                          capture_output=True, text=True, **kwargs)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic fixture: audio + keylog for 'top' and 'work', plus a model."""
    root = tmp_path_factory.mktemp("cli")
    synth_dir = root / "synth"
    res = run_cli("synth", "--words", "top,work", "--seed", "7",
                  "--out", synth_dir)
    assert res.returncode == 0, res.stderr
    model = root / "model.json"
    res = run_cli("train", synth_dir / "keylog.csv", "--out", model)
    assert res.returncode == 0, res.stderr
    return {"root": root, "synth": synth_dir, "model": model}


class TestTrain:
    def test_reports_pairs_and_asd(self, workspace):
        out = workspace["root"] / "model2.json"
        res = run_cli("train", workspace["synth"] / "keylog.csv", "--out", out)
        assert res.returncode == 0
        assert "pairs: 5" in res.stdout
        assert "asd_ms:" in res.stdout

    def test_pair_counts_accumulate_across_words(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text(
            "key,press_ms,release_ms,virtual_code,scan_code,caps,shift\n"
            "t,0,50,84,0,0,0\n"
            "o,300,350,79,0,0,0\n"
            "p,700,750,80,0,0,0\n"
            "SPACE,1000,1050,32,0,0,0\n"
            "t,2000,2050,84,0,0,0\n"
            "o,2310,2360,79,0,0,0\n"
        )
        out = tmp_path / "m.json"
        res = run_cli("train", log, "--out", out)
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        to = [row for row in doc["analysis"]
              if (row["a"], row["b"]) == ("t", "o")]
        assert to[0]["count"] == 2

    def test_no_inputs_is_usage_error(self):
        res = run_cli("train", "--out", "/tmp/nope.json")
        assert res.returncode == 64

    def test_unreadable_path(self, tmp_path):
        missing = tmp_path / "missing.csv"
        res = run_cli("train", missing, "--out", tmp_path / "m.json")
        assert res.returncode == 2
        assert str(missing) in res.stderr

    def test_non_utf8_keylog_exit_two(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_bytes(b"key,press_ms\n\xff\xfe\n")
        res = run_cli("train", log, "--out", tmp_path / "m.json")
        assert res.returncode == 2
        assert str(log) in res.stderr
        assert "Traceback" not in res.stderr

    def test_keylog_field_over_csv_limit_exit_two(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("key,press_ms,release_ms,virtual_code,scan_code,caps,"
                       "shift\nt," + "1" * 131073 + ",80,84,20,0,0\n")
        res = run_cli("train", log, "--out", tmp_path / "m.json")
        assert res.returncode == 2
        assert "field limit" in res.stderr
        assert "Traceback" not in res.stderr

    def test_directory_keylog_exit_two(self, tmp_path):
        res = run_cli("train", tmp_path, "--out", tmp_path / "m.json")
        assert res.returncode == 2
        assert "Traceback" not in res.stderr

    def test_echoes_run_config(self, workspace):
        out = workspace["root"] / "model3.json"
        keylog = workspace["synth"] / "keylog.csv"
        res = run_cli("train", keylog, "--out", out)
        line = next(l for l in res.stderr.splitlines() if "run_config" in l)
        assert json.loads(line) == {"run_config": {
            "command": "train", "keylogs": [str(keylog)], "out": str(out)}}


class TestPredict:
    def test_recovers_word(self, workspace):
        wav = workspace["synth"] / "word_000_top.wav"
        res = run_cli("predict", wav, "--model", workspace["model"],
                      "--lexicon", LEXICON_PATH, "--k", "3")
        # "top" is not in the shipped lexicon, so use --json to see words_all
        res = run_cli("predict", wav, "--model", workspace["model"],
                      "--lexicon", LEXICON_PATH, "--k", "3", "--json")
        doc = json.loads(res.stdout)
        assert "top" in doc["words_all"]

    def test_dictionary_word_exit_zero(self, workspace):
        wav = workspace["synth"] / "word_001_work.wav"
        res = run_cli("predict", wav, "--model", workspace["model"],
                      "--lexicon", LEXICON_PATH, "--k", "4")
        assert res.returncode == 0
        assert res.stdout.strip() == "work"

    def test_empty_dictionary_result_exit_three(self, workspace, tmp_path):
        lex = tmp_path / "mini.txt"
        lex.write_text("unrelated\n")
        wav = workspace["synth"] / "word_001_work.wav"
        res = run_cli("predict", wav, "--model", workspace["model"],
                      "--lexicon", lex, "--k", "4")
        assert res.returncode == 3
        assert res.stdout.strip() == ""

    def test_too_many_keystrokes_exit_four(self, workspace):
        wav = workspace["synth"] / "word_001_work.wav"
        res = run_cli("predict", wav, "--model", workspace["model"],
                      "--lexicon", LEXICON_PATH, "--k", "40")
        assert res.returncode == 4

    def test_frame_longer_than_audio_exit_four(self, workspace):
        wav = workspace["synth"] / "word_001_work.wav"
        res = run_cli("predict", wav, "--model", workspace["model"],
                      "--lexicon", LEXICON_PATH, "--k", "4",
                      "--frame-ms", "100000")
        assert res.returncode == 4
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("k", ["1", "0"])
    def test_k_below_two_is_usage_error(self, workspace, k):
        wav = workspace["synth"] / "word_001_work.wav"
        res = run_cli("predict", wav, "--model", workspace["model"],
                      "--lexicon", LEXICON_PATH, "--k", k)
        assert res.returncode == 64
        assert "Traceback" not in res.stderr

    def test_zero_min_gap_recovers_word(self, workspace):
        wav = workspace["synth"] / "word_001_work.wav"
        res = run_cli("predict", wav, "--model", workspace["model"],
                      "--lexicon", LEXICON_PATH, "--k", "4",
                      "--min-gap-ms", "0")
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "work"

    @pytest.mark.parametrize("which", ["audio", "model", "lexicon"])
    def test_directory_input_exit_two(self, workspace, tmp_path, which):
        paths = {"audio": workspace["synth"] / "word_001_work.wav",
                 "model": workspace["model"], "lexicon": LEXICON_PATH}
        paths[which] = tmp_path
        res = run_cli("predict", paths["audio"], "--model", paths["model"],
                      "--lexicon", paths["lexicon"], "--k", "4")
        assert res.returncode == 2
        assert f"cannot read {tmp_path}" in res.stderr
        assert "Traceback" not in res.stderr

    def test_unhashable_model_key_exit_two(self, workspace, tmp_path):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({
            "version": 1, "analysis": [], "asd_ms": 0,
            "observations": [{"a": "a", "b": [], "delta_ms": 1}]}))
        res = run_cli("predict", workspace["synth"] / "word_001_work.wav",
                      "--model", model, "--lexicon", LEXICON_PATH, "--k", "4")
        assert res.returncode == 2
        assert "observation key" in res.stderr
        assert "Traceback" not in res.stderr

    def test_json_output(self, workspace):
        wav = workspace["synth"] / "word_001_work.wav"
        res = run_cli("predict", wav, "--model", workspace["model"],
                      "--lexicon", LEXICON_PATH, "--k", "4", "--json")
        doc = json.loads(res.stdout)
        assert doc["words_dict"] == ["work"]
        assert doc["params"]["k"] == 4
        assert len(doc["onsets_ms"]) == 4

    def test_dense_typist_word_is_predicted_not_refused(self, dense_keystroke,
                                                        tmp_path):
        # More than 10^7 candidate words: the lexicon filter answers, and
        # only --json, which lists them all, exits 4.
        model, signal, word = dense_keystroke
        save_model(model, tmp_path / "model.json")
        write_wav(tmp_path / "word.wav", signal)
        (tmp_path / "lexicon.txt").write_text(f"{word}\nkeyboards\n")
        argv = ["predict", tmp_path / "word.wav", "--model",
                tmp_path / "model.json", "--lexicon", tmp_path / "lexicon.txt",
                "--k", "9"]
        res = run_cli(*argv)
        assert (res.returncode, res.stdout) == (0, f"{word}\n"), res.stderr
        res = run_cli(*argv, "--json")
        assert (res.returncode, res.stdout) == (4, "")
        assert "Error: more than 10000000 candidate words" in res.stderr
        assert "Traceback" not in res.stderr


class TestSegment:
    def test_writes_onsets_csv(self, workspace, tmp_path):
        wav = workspace["synth"] / "word_000_top.wav"
        out = tmp_path / "onsets.csv"
        res = run_cli("segment", wav, "--k", "3", "--out", out,
                      "--segments-dir", tmp_path / "segs")
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,onset_sample,onset_ms,delta_ms"
        assert len(lines) == 4
        assert len(list((tmp_path / "segs").glob("segment_*.wav"))) == 3

    def test_impossible_k_exit_four(self, workspace, tmp_path):
        wav = workspace["synth"] / "word_000_top.wav"
        res = run_cli("segment", wav, "--k", "99",
                      "--out", tmp_path / "x.csv")
        assert res.returncode == 4


    def test_k_zero_is_usage_error(self, workspace, tmp_path):
        wav = workspace["synth"] / "word_000_top.wav"
        res = run_cli("segment", wav, "--k", "0", "--out", tmp_path / "x.csv")
        assert res.returncode == 64
        assert "Traceback" not in res.stderr

    def test_zero_min_gap_picks_distinct_onsets(self, workspace, tmp_path):
        wav = workspace["synth"] / "word_000_top.wav"
        out = tmp_path / "onsets.csv"
        res = run_cli("segment", wav, "--k", "3", "--out", out,
                      "--min-gap-ms", "0")
        assert res.returncode == 0, res.stderr
        samples = [int(l.split(",")[1]) for l in
                   out.read_text().splitlines()[1:]]
        assert len(samples) == 3 and samples == sorted(set(samples))


# Option values outside their documented range, per command. segment
# takes no --tolerance-pct or --std-coeff: its rows are unknown options.
BAD_OPTIONS = [
    ("segment", "--frame-ms", "0"),
    ("segment", "--frame-ms", "-1"),
    ("segment", "--min-gap-ms", "-5"),
    ("predict", "--frame-ms", "0"),
    ("predict", "--min-gap-ms", "-5"),
    ("predict", "--tolerance-pct", "-1"),
    ("predict", "--std-coeff", "-1"),
    ("predict", "--tolerance-pct", "nan"),
    ("eval", "--frame-ms", "0"),
    ("eval", "--min-gap-ms", "-5"),
    ("eval", "--tolerance-pct", "-1"),
    ("eval", "--std-coeff", "-1"),
    ("eval", "--std-coeff", "inf"),
    ("eval", "--sample-rate", "0"),
    ("eval", "--trials-per-word", "0"),
    ("eval", "--train-reps", "0"),
    ("eval", "--pair-std", "-5"),
    ("eval", "--pair-std", "nan"),
    ("eval", "--pair-std", "1e300"),
    ("eval", "--seed", "-1"),
    ("eval", "--words", "x"),
    ("eval", "--words", "can't"),
    ("synth", "--sample-rate", "0"),
    ("synth", "--sample-rate", "2147483648"),   # past a 16-bit WAV header
    ("synth", "--pair-std", "-5"),
    ("synth", "--pair-std", "inf"),
    ("synth", "--pair-std", "1e300"),
    ("synth", "--noise-std", "-1"),
    ("synth", "--noise-std", "nan"),
    ("synth", "--base-ms", "50"),
    ("synth", "--base-ms", "nan"),
    ("synth", "--base-ms", "1e308"),
    ("synth", "--spacing-ms", "-100"),
    ("synth", "--spacing-ms", "1e308"),
    ("synth", "--spacing-ms", "inf"),
    ("synth", "--seed", "-1"),
    ("synth", "--words", "x"),
    ("synth", "--words", "can't"),
    ("synth", "--words", "\u00e9"),
] + [(command, option, value)
     for command in ("segment", "predict", "eval")
     for option, value in [("--frame-ms", "nan"), ("--frame-ms", "inf"),
                           ("--frame-ms", "1e308"),
                           ("--min-gap-ms", "nan"), ("--min-gap-ms", "inf"),
                           ("--min-gap-ms", "1e308")]]


def reject_constant(name):
    raise ValueError(f"run_config holds {name}, which is not JSON")


def base_args(workspace, tmp_path, command):
    wav = workspace["synth"] / "word_001_work.wav"
    return {
        "segment": ["segment", wav, "--k", "4", "--out", tmp_path / "x.csv"],
        "predict": ["predict", wav, "--model", workspace["model"],
                    "--lexicon", LEXICON_PATH, "--k", "4"],
        "eval": ["eval", "--words", "work", "--lexicon", LEXICON_PATH,
                 "--out", tmp_path / "report"],
        "synth": ["synth", "--words", "top", "--out", tmp_path / "report"],
    }[command]


@pytest.mark.parametrize("command,option,value", BAD_OPTIONS)
def test_out_of_range_option_is_usage_error(workspace, tmp_path, command,
                                            option, value):
    res = run_cli(*base_args(workspace, tmp_path, command), option, value)
    assert res.returncode == 64
    assert option in res.stderr
    assert "No such option" not in res.stderr   # the row tests a real option
    assert "Traceback" not in res.stderr
    for line in res.stderr.splitlines():
        if line.startswith('{"run_config"'):     # strict JSON: no NaN
            json.loads(line, parse_constant=reject_constant)
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("command", ["segment", "predict", "eval"])
def test_frame_below_one_sample_is_pipeline_error(workspace, tmp_path,
                                                  command):
    # 0.01 ms is 0.08 samples at the fixture's 8 kHz, 0.01 at eval's 1 kHz.
    res = run_cli(*base_args(workspace, tmp_path, command),
                  "--frame-ms", "0.01")
    assert res.returncode == 4
    assert "frame of 0 samples" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("command", ["segment", "train", "synth", "eval"])
def test_unwritable_output_exit_two(workspace, tmp_path, command):
    # A directory where a file is written, or a file where a directory is.
    target = tmp_path / "taken"
    if command in ("segment", "train"):
        target.mkdir()
    else:
        target.write_text("")
    args = {
        "segment": ["segment", workspace["synth"] / "word_001_work.wav",
                    "--k", "4"],
        "train": ["train", workspace["synth"] / "keylog.csv"],
        "synth": ["synth", "--words", "top"],
        "eval": ["eval", "--words", "work", "--lexicon", LEXICON_PATH],
    }[command]
    res = run_cli(*args, "--out", target)
    assert res.returncode == 2
    assert f"cannot write {target}" in res.stderr
    assert "Traceback" not in res.stderr


def test_segments_dir_that_is_a_file_exit_two(workspace, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    res = run_cli("segment", workspace["synth"] / "word_001_work.wav",
                  "--k", "4", "--out", tmp_path / "x.csv",
                  "--segments-dir", taken)
    assert res.returncode == 2
    assert f"cannot write {taken}" in res.stderr
    assert "Traceback" not in res.stderr


def test_segment_at_a_rate_no_16_bit_wav_stores_exit_two(tmp_path):
    # load_wav reads any 32-bit rate; write_wav's byte rate, twice the
    # rate, overflows past 2^31 - 1 Hz.
    frames = np.linspace(0, 16000, 100).astype("<i2").tobytes()
    raw = bytearray(make_wav_bytes(frames, rate=1000))
    raw[24:28] = (3_000_000_000).to_bytes(4, "little")
    wav = tmp_path / "hi.wav"
    wav.write_bytes(raw)
    res = run_cli("segment", wav, "--k", "1", "--frame-ms", "0.00001",
                  "--min-gap-ms", "0", "--out", tmp_path / "o.csv",
                  "--segments-dir", tmp_path / "segs")
    assert res.returncode == 2
    assert "Error: " in res.stderr and "3000000000 Hz" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("name", ["keylog.csv", "ground_truth.json",
                                  "word_000_top.wav"])
def test_synth_file_that_is_a_directory_exit_two(tmp_path, name):
    taken = tmp_path / "out" / name
    taken.mkdir(parents=True)
    res = run_cli("synth", "--words", "top", "--out", tmp_path / "out")
    assert res.returncode == 2
    assert f"Error: cannot write {taken}: " in res.stderr
    assert "Traceback" not in res.stderr


def test_write_error_naming_no_file_exit_two(workspace, tmp_path,
                                             monkeypatch, capsys):
    # A full disk fails inside write(), where the OS names no file.
    def disk_full(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "save_model", disk_full)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["train", str(workspace["synth"] / "keylog.csv"),
                  "--out", str(tmp_path / "m.json")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"Error: cannot write: {os.strerror(errno.ENOSPC)}")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "segment", "eval",
                                     "model-inspect"])
def test_directory_as_any_input_exit_two(tmp_path, command):
    # Every read goes through cli._load, which names the file it cannot
    # read; main() takes any other OSError for an output.
    folder = tmp_path / "folder"
    folder.mkdir()
    args = {
        "train": ["train", folder, "--out", tmp_path / "m.json"],
        "segment": ["segment", folder, "--k", "4",
                    "--out", tmp_path / "x.csv"],
        "eval": ["eval", "--words", "work", "--lexicon", folder,
                 "--out", tmp_path / "report"],
        "model-inspect": ["model-inspect", "--model", folder],
    }[command]
    res = run_cli(*args)
    assert res.returncode == 2
    assert f"cannot read {folder}: " in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command", ["segment", "predict"])
def test_float_wav_with_nan_exit_two(workspace, tmp_path, command):
    frames = np.zeros(800, dtype="<f4")
    frames[100] = np.nan
    wav = tmp_path / "nan.wav"
    wav.write_bytes(make_wav_bytes(frames.tobytes(), bits=32, rate=8000,
                                   audio_format=3))
    args = base_args(workspace, tmp_path, command)
    args[1] = wav
    res = run_cli(*args)
    assert res.returncode == 2
    assert "NaN or infinite" in res.stderr
    assert "Traceback" not in res.stderr


def _wav_with_fmt(fmt: bytes) -> bytes:
    """A RIFF/WAVE file of one fmt chunk holding fmt and 8 data bytes."""
    chunks = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
              + b"data" + struct.pack("<I", 8) + bytes(8))
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


@pytest.mark.parametrize("fmt,reason", [
    (struct.pack("<HHIIHH", 0x55, 1, 8000, 16000, 2, 16),
     "compressed WAV (format tag 0x0055)"),
    (struct.pack("<HHIIHH", 3, 1, 8000, 64000, 8, 64),
     "64-bit float WAV not supported"),
    (bytes(14), "fmt chunk shorter than 16 bytes"),
    (struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 12), "12-bit samples"),
    (struct.pack("<HHIIHHH", 0xFFFE, 1, 8000, 16000, 2, 16, 22),
     "extensible fmt chunk truncated"),
], ids=["compressed", "float64", "short-fmt", "pcm12", "extensible-short"])
def test_unreadable_wav_format_names_the_file(tmp_path, fmt, reason):
    wav = tmp_path / "x.wav"
    wav.write_bytes(_wav_with_fmt(fmt))
    res = run_cli("segment", wav, "--k", "1", "--out", tmp_path / "o.csv")
    assert res.returncode == 2
    assert f"Error: {wav}: {reason}" in res.stderr
    assert "Traceback" not in res.stderr


def test_keylog_intervals_near_the_float_maximum_exit_two(tmp_path):
    # Times whose intervals' squared deviations would overflow a float in
    # train; parse_keylog rejects the first time above MAX_MS.
    log = tmp_path / "log.csv"
    log.write_text("key,press_ms,release_ms,virtual_code,scan_code,caps,shift\n"
                   "a,0,0,65,0,0,0\n"
                   "b,1.7e308,1.7e308,66,0,0,0\n"
                   "SPACE,1.7e308,1.7e308,32,0,0,0\n"
                   "a,1.7e308,1.7e308,65,0,0,0\n"
                   "b,1.79e308,1.79e308,66,0,0,0\n")
    res = run_cli("train", log, "--out", tmp_path / "m.json")
    assert res.returncode == 2
    assert f"Error: {log}:3: time above" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("delta", ["-5", "1e999", "4294967296001"])
def test_model_observation_interval_out_of_range_exit_two(tmp_path, delta):
    model = tmp_path / "model.json"
    model.write_text(
        '{"version": 1, "asd_ms": 0, "analysis": [], "observations": '
        f'[{{"a": "a", "b": "b", "delta_ms": {delta}}}]}}')
    res = run_cli("model-inspect", "--model", model)
    assert res.returncode == 2
    assert f"Error: {model}: malformed observation" in res.stderr
    assert "Traceback" not in res.stderr


def test_keylog_with_non_finite_time_exit_two(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text("key,press_ms,release_ms,virtual_code,scan_code,caps,shift\n"
                   "t,0,50,84,0,0,0\n"
                   "o,nan,350,79,0,0,0\n")
    res = run_cli("train", log, "--out", tmp_path / "m.json")
    assert res.returncode == 2
    assert "non-finite time" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "m.json").exists()


def test_keylog_time_above_max_ms_exit_two(tmp_path):
    # No pair to train: the time alone is what is rejected.
    log = tmp_path / "late.csv"
    log.write_text("key,press_ms,release_ms,virtual_code,scan_code,caps,shift\n"
                   "a,5e12,5e12,65,0,0,0\n")
    res = run_cli("train", log, "--out", tmp_path / "m.json")
    assert res.returncode == 2
    assert f"Error: {log}:2: time above 4294967296000 ms" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_model_with_non_finite_number_exit_two(workspace, tmp_path, literal):
    model = tmp_path / "model.json"
    model.write_text(workspace["model"].read_text().replace(
        '"asd_ms": ', f'"asd_ms": {literal}, "was": ', 1))
    res = run_cli(*base_args(workspace, tmp_path, "predict")[:2],
                  "--model", model, "--lexicon", LEXICON_PATH, "--k", "4")
    assert res.returncode == 2
    assert f"non-finite number {literal}" in res.stderr
    assert "Traceback" not in res.stderr


def test_model_nested_too_deep_exit_two(tmp_path):
    model = tmp_path / "model.json"
    model.write_text("[" * 200_000 + "]" * 200_000)
    res = run_cli("model-inspect", "--model", model)
    assert res.returncode == 2
    assert "not valid JSON" in res.stderr
    assert "Traceback" not in res.stderr


class TestSynth:
    def test_deterministic_outputs(self, tmp_path):
        for d in ("a", "b"):
            res = run_cli("synth", "--words", "top,cat", "--seed", "11",
                          "--noise-std", "0.02", "--out", tmp_path / d)
            assert res.returncode == 0
        for name in ["keylog.csv", "ground_truth.json", "word_000_top.wav",
                     "word_001_cat.wav"]:
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_two_letter_word_is_accepted(self):
        assert cli._word_list(None, None, "to, cat") == ["to", "cat"]

    def test_words_are_lower_cased(self, tmp_path):
        res = run_cli("synth", "--words", " Top ", "--out", tmp_path)
        assert res.returncode == 0, res.stderr
        doc = json.loads((tmp_path / "ground_truth.json").read_text())
        assert [w["word"] for w in doc["words"]] == ["top"]

    def test_ground_truth_records_run_config_without_out(self, workspace):
        doc = json.loads((workspace["synth"] / "ground_truth.json").read_text())
        assert doc["run_config"] == {
            "words": ["top", "work"], "seed": 7, "pair_std": 0.0,
            "noise_std": 0.0, "base_ms": 200.0, "spacing_ms": 5.0,
            "sample_rate": 8000}

    def test_pair_means_are_the_eval_typists(self, workspace):
        # eval builds its typist with profile_for_words' defaults; synth's
        # --base-ms/--spacing-ms defaults must give the same pair means.
        doc = json.loads((workspace["synth"] / "ground_truth.json").read_text())
        means = synth.profile_for_words(["top", "work"]).pair_means
        assert doc["pair_means"] == {a + b: m for (a, b), m in means.items()}

    def test_ground_truth_matches_words(self, workspace):
        doc = json.loads((workspace["synth"] / "ground_truth.json").read_text())
        assert [w["word"] for w in doc["words"]] == ["top", "work"]
        assert all(Path(workspace["synth"], w["wav"]).exists()
                   for w in doc["words"])


class TestEval:
    def test_clean_eval_is_perfect(self, tmp_path):
        out = tmp_path / "report"
        res = run_cli("eval", "--words", "work,cat,book", "--lexicon",
                      LEXICON_PATH, "--out", out, "--seed", "3",
                      "--trials-per-word", "2")
        assert res.returncode == 0, res.stderr
        doc = json.loads((out / "report.json").read_text())
        assert doc["success_rate"] == 1.0
        assert (out / "by_length.csv").exists()

    def test_sweep_mode(self, tmp_path):
        out = tmp_path / "sweep"
        res = run_cli("eval", "--words", "work,cat", "--lexicon", LEXICON_PATH,
                      "--out", out, "--pair-std", "0", "--pair-std", "30",
                      "--trials-per-word", "2", "--train-reps", "10",
                      "--std-coeff", "0")
        assert res.returncode == 0, res.stderr
        lines = (out / "asd_sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert "pearson_r" in res.stdout


class TestModelInspect:
    def test_prints_table(self, workspace):
        res = run_cli("model-inspect", "--model", workspace["model"])
        assert res.returncode == 0
        assert "asd_ms:" in res.stdout
        assert "to" in res.stdout.split()

    def test_unknown_command_usage(self):
        res = run_cli("frobnicate")
        assert res.returncode == 64


# SHA-256 of every output of the README quick start run with no random
# draw (--pair-std 0, --noise-std 0), so numpy releases cannot differ,
# plus segment's per-keystroke WAVs and a two-level sweep at std 0.
QUICK_START_DIGESTS = {
    "demo/ground_truth.json":
        "adef19a5aac124a4944f3b035067331ef99b76d1074b96984c252216e3f11ea5",
    "demo/keylog.csv":
        "cd741100c1cd8d568e0f694c4b750340d62fe2543a62df5d148e2b27b2a2cc7d",
    "demo/model.json":
        "76105e6ecc8582dadd075a750f9b2ad0e665cb05622b972f38831e5e2876fb1e",
    "demo/onsets.csv":
        "2e87ec6ff912979a4f017fcd386f6d5b6852c875a1f6d871b63a9e8a4f0e4047",
    "demo/report/by_length.csv":
        "2092e51931f5997fd6e2756f24991ae3201658408f0329ea0447b39a74f21e12",
    "demo/report/report.json":
        "56a0acfa3d19050b65f68a1c6ac4a3c6c32709d2f8614b51d0750ec3ea2fa38c",
    "demo/segments/segment_000.wav":
        "e244234c11ab2b5b1ad4043a6ab6f7abc12fb731bf73a103ba5d5cea63c5d4a5",
    "demo/segments/segment_001.wav":
        "e244234c11ab2b5b1ad4043a6ab6f7abc12fb731bf73a103ba5d5cea63c5d4a5",
    "demo/segments/segment_002.wav":
        "e244234c11ab2b5b1ad4043a6ab6f7abc12fb731bf73a103ba5d5cea63c5d4a5",
    "demo/segments/segment_003.wav":
        "e244234c11ab2b5b1ad4043a6ab6f7abc12fb731bf73a103ba5d5cea63c5d4a5",
    "demo/sweep/asd_sweep.csv":
        "a5b8d860c81ac0a6c5fb442b2f8fe8306cec838bf54be40b1abf6ad99814cbc0",
    "demo/word_000_work.wav":
        "89e7f2fbc08a0a186a38f76d9ece7b435f99a52facca5e567ce912a69beda2bc",
    "demo/word_001_mother.wav":
        "d3bad89aa14c7fc884d5d40ecb8db402730ca54c68994ebf503f8dc21e8079cb",
    "demo/word_002_credit.wav":
        "60dc18af87f65a28fcf7bc59f1a9e55cf3e8aa85af31d1ecc570e105cdbfb983",
    "stdout of train":
        "3462b48839947c74743a309444bd55331b1176ea2a20618064b8e4a6688323fb",
    "stdout of predict":
        "4c7a03f2c9a663a0678eef8293f7609a609c92a6b3bccb2e556301f8b290c7f2",
    "stdout of predict --json":
        "0726eb76bb44543c8639d96606c30fa13eff9bd4234d59b55f2c669a3b2646ed",
    "stdout of model-inspect":
        "f27d3061efc3e2e7f5104854361905c4e5d38ae5af13bab06e3b0940b59688ef",
}


def test_quick_start_outputs_are_byte_identical(tmp_path):
    # Every path is relative to tmp_path: predict --json and report.json
    # record the lexicon's path as given.
    shutil.copy(LEXICON_PATH, tmp_path / "lexicon.txt")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))

    def stdout_of(*args):
        res = run_cli(*args, cwd=tmp_path, env=env)
        assert res.returncode == 0, res.stderr
        return res.stdout

    predict = ["predict", "demo/word_000_work.wav", "--model",
               "demo/model.json", "--lexicon", "lexicon.txt", "--k", "4"]
    stdout_of("synth", "--words", "work,mother,credit", "--seed", "7",
              "--pair-std", "0", "--noise-std", "0", "--out", "demo")
    stdouts = {
        "train": stdout_of("train", "demo/keylog.csv",
                           "--out", "demo/model.json"),
        "predict": stdout_of(*predict),
        "predict --json": stdout_of(*predict, "--json"),
        "model-inspect": stdout_of("model-inspect",
                                   "--model", "demo/model.json"),
    }
    stdout_of("segment", "demo/word_000_work.wav", "--k", "4",
              "--out", "demo/onsets.csv", "--segments-dir", "demo/segments")
    stdout_of("eval", "--words", "work,love,cat,book", "--lexicon",
              "lexicon.txt", "--out", "demo/report", "--pair-std", "0",
              "--seed", "3")
    stdout_of("eval", "--words", "work,love,cat,book", "--lexicon",
              "lexicon.txt", "--out", "demo/sweep", "--pair-std", "0",
              "--pair-std", "0", "--seed", "3")
    digests = {f"stdout of {name}": hashlib.sha256(text.encode()).hexdigest()
               for name, text in stdouts.items()}
    for path in (tmp_path / "demo").rglob("*.*"):
        digests[path.relative_to(tmp_path).as_posix()] = \
            hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == QUICK_START_DIGESTS


# SHA-256 of a synth with interval jitter and background noise, so each of
# its two seeded random streams is pinned. numpy keeps Generator streams
# stable in practice, though it does not promise to across releases.
NOISY_SYNTH_DIGESTS = {
    "ground_truth.json":
        "d4f5a88b8b95652b42eb63e7c329212bc4e703cd151b0510e5e4d2771d97b73c",
    "keylog.csv":
        "bba32fe71ff6259793b45cc23d91e56ac0ba9bc571567db6c13c6069b48435d3",
    "word_000_work.wav":
        "63dd9fb9badbec371609cf44faa327739450192b6bc025d8f5186f24e6d805c9",
    "word_001_mother.wav":
        "b7394ac43f57cc41252330f86a0d1e7fe8a97b10851d960933f908c7c8e77dd7",
}


def test_jittered_noisy_synth_is_byte_identical(tmp_path):
    res = run_cli("synth", "--words", "work,mother", "--seed", "7",
                  "--pair-std", "10", "--noise-std", "0.05",
                  "--sample-rate", "8000", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == NOISY_SYNTH_DIGESTS


PREDICT_DEFAULTS = {"frame_ms": 100.0, "min_gap_ms": 100.0,
                    "tolerance_pct": 0.05, "std_coeff": 1.0}


def run_config_cases(workspace, out):
    """(argv, the run_config it must echo) for each of the six commands."""
    keylog, model = workspace["synth"] / "keylog.csv", workspace["model"]
    wav = workspace["synth"] / "word_001_work.wav"
    lexicon = str(LEXICON_PATH)
    return {
        "train": (["train", keylog, "--out", out],
                  {"keylogs": [str(keylog)], "out": str(out)}),
        "segment": (["segment", wav, "--k", "4", "--out", out,
                     "--frame-ms", "90"],
                    {"audio": str(wav), "k": 4, "out": str(out),
                     "segments_dir": None, "frame_ms": 90.0,
                     "min_gap_ms": 100.0}),
        "predict": (["predict", wav, "--model", model, "--lexicon", lexicon,
                     "--k", "4", "--json"],
                    {"audio": str(wav), "model": str(model),
                     "lexicon": lexicon, "k": 4, "json": True,
                     **PREDICT_DEFAULTS}),
        "synth": (["synth", "--words", " Top,cat", "--out", out,
                   "--pair-std", "2", "--sample-rate", "1000"],
                  {"words": ["top", "cat"], "out": str(out), "seed": 0,
                   "pair_std": 2.0, "noise_std": 0.0, "base_ms": 200.0,
                   "spacing_ms": 5.0, "sample_rate": 1000}),
        "eval": (["eval", "--words", "work,cat", "--lexicon", lexicon,
                  "--out", out, "--pair-std", "0", "--pair-std", "4",
                  "--train-reps", "2", "--trials-per-word", "1",
                  "--std-coeff", "0"],
                 {"words": ["work", "cat"], "lexicon": lexicon,
                  "out": str(out), "seed": 0, "pair_stds": [0.0, 4.0],
                  "train_reps": 2, "trials_per_word": 1, "sample_rate": 1000,
                  **PREDICT_DEFAULTS, "std_coeff": 0.0}),
        "model-inspect": (["model-inspect", "--model", model],
                          {"model": str(model)}),
    }


@pytest.mark.parametrize("command", ["train", "segment", "predict", "synth",
                                     "eval", "model-inspect"])
def test_run_config_lists_every_parameter(workspace, tmp_path, capsys,
                                          command):
    """Each command echoes every parameter once, and main() exits 0."""
    argv, params = run_config_cases(workspace, tmp_path / "out")[command]
    with pytest.raises(SystemExit) as exit_info:
        cli.main([str(a) for a in argv])
    assert exit_info.value.code == 0
    lines = [l for l in capsys.readouterr().err.splitlines()
             if "run_config" in l]
    assert [json.loads(l) for l in lines] == [
        {"run_config": {"command": command, **params}}]


@pytest.mark.parametrize("argv", [["--help"], ["predict", "--help"]])
def test_help_exits_zero_without_run_config(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert "Usage:" in out
    assert "run_config" not in out + err


@pytest.mark.parametrize("level,code", [("bogus", 64), ("", 64),
                                        ("debug", 0), ("Warning", 0)])
def test_keyecho_log_level(workspace, level, code):
    res = run_cli("model-inspect", "--model", workspace["model"],
                  env=dict(os.environ, KEYECHO_LOG=level))
    assert res.returncode == code
    assert "Traceback" not in res.stderr
    assert ("KEYECHO_LOG" in res.stderr) == (code == 64)


# The classes whose failures exit 4; every other KeyEchoError exits 2. A
# new error class has to join one of these two lists.
PIPELINE_FAILURES = {
    errors.FrameOutOfRange, errors.NotEnoughPeaks, errors.NoCandidates,
    errors.CandidateExplosion,
}
INPUT_ERRORS = {
    errors.WavFormatError, errors.MalformedRow, errors.SchemaMismatch,
    errors.ConsistencyFailure, errors.EmptyLexicon,
}


def test_every_error_class_has_one_exit_family():
    classes = {c for c in vars(errors).values() if isinstance(c, type)
               and issubclass(c, errors.KeyEchoError)}
    family = {c for c in classes if issubclass(c, errors.PipelineFailure)}
    assert family - {errors.PipelineFailure} == PIPELINE_FAILURES
    assert classes - family - {errors.KeyEchoError} == INPUT_ERRORS


@pytest.mark.parametrize("exc,code", [
    (errors.NotEnoughPeaks("only 1 nonzero peaks available"), 4),
    (errors.NoCandidates(step=2, delta_ms=250.0, t_f=12.5), 4),
    (errors.SchemaMismatch("model.json: missing field 'version'"), 2),
    (errors.WavFormatError("x.wav: zero data frames"), 2),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_exit_code_follows_the_error_family(workspace, tmp_path, monkeypatch,
                                            capsys, exc, code):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(predictor, "predict", fail)
    with pytest.raises(SystemExit) as exit_info:
        cli.main([str(a) for a in base_args(workspace, tmp_path, "predict")])
    assert exit_info.value.code == code
    err = capsys.readouterr().err
    assert f"Error: {exc}\n" in err
    assert "Traceback" not in err
