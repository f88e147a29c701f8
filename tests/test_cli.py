import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import LEXICON_PATH, make_wav_bytes

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

    def test_directory_keylog_exit_two(self, tmp_path):
        res = run_cli("train", tmp_path, "--out", tmp_path / "m.json")
        assert res.returncode == 2
        assert "Traceback" not in res.stderr

    def test_echoes_run_config(self, workspace):
        out = workspace["root"] / "model3.json"
        res = run_cli("train", workspace["synth"] / "keylog.csv", "--out", out)
        line = next(l for l in res.stderr.splitlines() if "run_config" in l)
        cfg = json.loads(line)["run_config"]
        assert cfg["command"] == "train"


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

    def test_json_output(self, workspace):
        wav = workspace["synth"] / "word_001_work.wav"
        res = run_cli("predict", wav, "--model", workspace["model"],
                      "--lexicon", LEXICON_PATH, "--k", "4", "--json")
        doc = json.loads(res.stdout)
        assert doc["words_dict"] == ["work"]
        assert doc["params"]["k"] == 4
        assert len(doc["onsets_ms"]) == 4


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


# Option values outside their documented range, per command.
BAD_OPTIONS = [
    ("segment", "--frame-ms", "0"),
    ("segment", "--frame-ms", "-1"),
    ("segment", "--min-gap-ms", "-5"),
    ("segment", "--tolerance-pct", "-1"),
    ("segment", "--std-coeff", "-0.5"),
    ("predict", "--frame-ms", "0"),
    ("predict", "--min-gap-ms", "-5"),
    ("predict", "--tolerance-pct", "-1"),
    ("predict", "--std-coeff", "-1"),
    ("eval", "--jobs", "0"),
    ("eval", "--jobs", "-2"),
    ("eval", "--frame-ms", "0"),
    ("eval", "--tolerance-pct", "-1"),
    ("eval", "--sample-rate", "0"),
    ("eval", "--trials-per-word", "0"),
    ("eval", "--train-reps", "0"),
    ("eval", "--pair-std", "-5"),
    ("eval", "--pair-std", "nan"),
    ("eval", "--seed", "-1"),
    ("eval", "--words", "x"),
    ("eval", "--words", "can't"),
    ("synth", "--sample-rate", "0"),
    ("synth", "--pair-std", "-5"),
    ("synth", "--pair-std", "inf"),
    ("synth", "--noise-std", "-1"),
    ("synth", "--noise-std", "nan"),
    ("synth", "--base-ms", "50"),
    ("synth", "--base-ms", "nan"),
    ("synth", "--spacing-ms", "-100"),
    ("synth", "--seed", "-1"),
] + [(command, option, value)
     for command in ("segment", "predict", "eval")
     for option, value in [("--frame-ms", "nan"), ("--frame-ms", "inf"),
                           ("--min-gap-ms", "nan"), ("--min-gap-ms", "inf")]]


def base_args(workspace, tmp_path, command):
    wav = workspace["synth"] / "word_001_work.wav"
    return {
        "segment": ["segment", wav, "--k", "4", "--out", tmp_path / "x.csv"],
        "predict": ["predict", wav, "--model", workspace["model"],
                    "--lexicon", LEXICON_PATH, "--k", "4"],
        "eval": ["eval", "--words", "work", "--lexicon", LEXICON_PATH,
                 "--out", tmp_path / "report", "--jobs", "1"],
        "synth": ["synth", "--words", "top", "--out", tmp_path / "report"],
    }[command]


@pytest.mark.parametrize("command,option,value", BAD_OPTIONS)
def test_out_of_range_option_is_usage_error(workspace, tmp_path, command,
                                            option, value):
    res = run_cli(*base_args(workspace, tmp_path, command), option, value)
    assert res.returncode == 64
    assert option in res.stderr
    assert "Traceback" not in res.stderr
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
        "eval": ["eval", "--words", "work", "--lexicon", LEXICON_PATH,
                 "--jobs", "1"],
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
                      "--trials-per-word", "2", "--jobs", "1")
        assert res.returncode == 0, res.stderr
        doc = json.loads((out / "report.json").read_text())
        assert doc["success_rate"] == 1.0
        assert (out / "by_length.csv").exists()

    def test_sweep_mode(self, tmp_path):
        out = tmp_path / "sweep"
        res = run_cli("eval", "--words", "work,cat", "--lexicon", LEXICON_PATH,
                      "--out", out, "--pair-std", "0", "--pair-std", "30",
                      "--trials-per-word", "2", "--train-reps", "10",
                      "--std-coeff", "0", "--jobs", "1")
        assert res.returncode == 0, res.stderr
        lines = (out / "asd_sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert "pearson_r" in res.stdout

    def test_jobs_is_an_ignored_hidden_option(self, tmp_path):
        # eval runs serially: no --jobs, or any --jobs, writes what --jobs 1 does.
        args = ["eval", "--words", "work,cat,book", "--lexicon", LEXICON_PATH,
                "--seed", "3", "--trials-per-word", "2"]
        for name, jobs in [("one", ["--jobs", "1"]), ("default", []),
                           ("three", ["--jobs", "3"])]:
            res = run_cli(*args, "--out", tmp_path / name, *jobs)
            assert res.returncode == 0, res.stderr
        for name in ["report.json", "by_length.csv"]:
            one = (tmp_path / "one" / name).read_bytes()
            assert (tmp_path / "default" / name).read_bytes() == one
            assert (tmp_path / "three" / name).read_bytes() == one
        res = run_cli("eval", "--help")
        assert res.returncode == 0
        assert "--jobs" not in res.stdout


class TestModelInspect:
    def test_prints_table(self, workspace):
        res = run_cli("model-inspect", "--model", workspace["model"])
        assert res.returncode == 0
        assert "asd_ms:" in res.stdout
        assert "to" in res.stdout.split()

    def test_unknown_command_usage(self):
        res = run_cli("frobnicate")
        assert res.returncode == 64
