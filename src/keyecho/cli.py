"""Command-line entry point.

Exit codes are stable API: 0 success, 3 empty result, 4 pipeline failure
(no candidates, not enough peaks, too many candidates, frame longer than
the audio or shorter than one sample), 2 I/O or parse error (unreadable
input, unwritable output), 64 usage error (including nan or inf options).
Set KEYECHO_LOG=DEBUG (or INFO, WARNING, ...) for log verbosity.
"""

import csv
import json
import logging
import math
import os
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from . import evaluation, predictor, segmenter, synth
from .audio import AudioSignal, load_wav, ms_to_samples, write_wav
from .errors import KeyEchoError
from .keylog import parse_keylog, session_to_pairs, write_keylog
from .lexicon import load_lexicon
from .model import load_model, save_model, train
from .predictor import PredictSettings

EXIT_OK = 0
EXIT_IO = 2
EXIT_EMPTY = 3
EXIT_PIPELINE = 4
EXIT_USAGE = 64

log = logging.getLogger("keyecho")


def _echo_config(command: str, **params) -> None:
    """Emit the fully resolved run configuration for reproducibility."""
    doc = {"run_config": {"command": command, **params}}
    click.echo(json.dumps(doc, sort_keys=True), err=True)


def _finite(ctx, param, value):
    """Reject nan and inf, which pass click's range checks."""
    for v in value if param.multiple else (value,):
        if not math.isfinite(v):
            raise click.BadParameter(f"{v} is not a finite number")
    return value


def _tolerance_options(fn):
    for opt in reversed([
        click.option("--frame-ms", default=100.0, show_default=True,
                     type=click.FloatRange(min=0, min_open=True),
                     callback=_finite,
                     help="Sliding-window frame length in ms."),
        click.option("--min-gap-ms", default=100.0, show_default=True,
                     type=click.FloatRange(min=0), callback=_finite,
                     help="Extra zeroed margin around each detected peak, ms."),
        click.option("--tolerance-pct", default=0.05, show_default=True,
                     type=click.FloatRange(min=0), callback=_finite,
                     help="Interval-matching range as a fraction of the interval."),
        click.option("--std-coeff", default=1.0, show_default=True,
                     type=click.FloatRange(min=0), callback=_finite,
                     help="Weight of the model ASD in the matching range."),
    ]):
        fn = opt(fn)
    return fn


def _word_list(words: str) -> list:
    """Split comma-separated --words into lower-case words; none is an error."""
    word_list = [w.strip().lower() for w in words.split(",") if w.strip()]
    if not word_list:
        raise click.UsageError("--words produced an empty list")
    return word_list


@click.group()
def cli():
    """Recover typed words from keyboard audio using timing models."""
    logging.basicConfig(level=os.environ.get("KEYECHO_LOG", "WARNING").upper())


@cli.command("train")
@click.argument("keylogs", nargs=-1, required=True,
                type=click.Path(exists=False))
@click.option("--out", required=True, type=click.Path(),
              help="Where to write the model JSON.")
def cmd_train(keylogs, out):
    """Train a timing model from one or more keystroke log CSVs."""
    _echo_config("train", keylogs=list(keylogs), out=out)
    pairs = []
    for path in keylogs:
        pairs.extend(session_to_pairs(_load(parse_keylog, path)))
    model = train(pairs)
    with _writing(out):
        save_model(model, out)
    click.echo(f"pairs: {model.pair_count}  observations: "
               f"{len(model.observations)}  asd_ms: {model.asd_ms:.4f}")
    sys.exit(EXIT_OK)


@cli.command("segment")
@click.argument("audio", type=click.Path())
@click.option("--k", required=True, type=click.IntRange(min=1),
              help="Number of keystrokes.")
@click.option("--out", required=True, type=click.Path(),
              help="Onsets CSV output path.")
@click.option("--segments-dir", type=click.Path(), default=None,
              help="Optionally dump one WAV per keystroke segment here.")
@_tolerance_options
def cmd_segment(audio, k, out, segments_dir, frame_ms, min_gap_ms,
                tolerance_pct, std_coeff):
    """Locate keystroke onsets in a WAV file and write them as CSV."""
    _echo_config("segment", audio=audio, k=k, out=out,
                 segments_dir=segments_dir, frame_ms=frame_ms,
                 min_gap_ms=min_gap_ms)
    signal = _load(load_wav, audio)
    frame_len = ms_to_samples(frame_ms, signal.sample_rate)
    min_gap = ms_to_samples(min_gap_ms, signal.sample_rate)
    with _pipeline("segmentation"):
        energies = segmenter.energy(signal, frame_len)
        onsets = segmenter.pick_onsets(energies, k, min_gap)
    with _writing(out), open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "onset_sample", "onset_ms", "delta_ms"])
        prev_ms = None
        for i, (b, ms) in enumerate(zip(onsets.onsets, onsets.onsets_ms)):
            delta = "" if prev_ms is None else f"{ms - prev_ms:.6f}"
            writer.writerow([i, b, f"{ms:.6f}", delta])
            prev_ms = ms
    if segments_dir is not None:
        seg_dir = Path(segments_dir)
        with _writing(seg_dir):
            seg_dir.mkdir(parents=True, exist_ok=True)
            for i, (lo, hi) in enumerate(
                    segmenter.extract_segments(signal, onsets)):
                chunk = AudioSignal(signal.samples[lo:hi], signal.sample_rate)
                write_wav(seg_dir / f"segment_{i:03d}.wav", chunk)
    click.echo(f"wrote {len(onsets)} onsets to {out}")
    sys.exit(EXIT_OK)


@cli.command("predict")
@click.argument("audio", type=click.Path())
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--lexicon", "lexicon_path", required=True, type=click.Path())
@click.option("--k", required=True, type=click.IntRange(min=2),
              help="Number of keystrokes.")
@click.option("--json", "as_json", is_flag=True, help="Emit full JSON result.")
@_tolerance_options
def cmd_predict(audio, model_path, lexicon_path, k, as_json, frame_ms,
                min_gap_ms, tolerance_pct, std_coeff):
    """Predict the typed word from a WAV recording of k keystrokes."""
    _echo_config("predict", audio=audio, model=model_path,
                 lexicon=lexicon_path, k=k, frame_ms=frame_ms,
                 min_gap_ms=min_gap_ms, tolerance_pct=tolerance_pct,
                 std_coeff=std_coeff, json=as_json)
    model = _load(load_model, model_path)
    lexicon = _load(load_lexicon, lexicon_path)
    signal = _load(load_wav, audio)
    settings = PredictSettings(frame_ms=frame_ms, min_gap_ms=min_gap_ms,
                               tolerance_pct=tolerance_pct,
                               std_coeff=std_coeff, lexicon=lexicon)
    with _pipeline("prediction"):
        result = predictor.predict(model, signal, k, settings)
    if as_json:
        click.echo(result.to_json())
    else:
        for word in result.words_dict:
            click.echo(word)
    sys.exit(EXIT_OK if result.words_dict else EXIT_EMPTY)


@cli.command("synth")
@click.option("--words", required=True,
              help="Comma-separated words to synthesize.")
@click.option("--out", required=True, type=click.Path(),
              help="Output directory.")
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@click.option("--pair-std", default=0.0, show_default=True,
              type=click.FloatRange(min=0), callback=_finite,
              help="Interval std in ms for every key pair.")
@click.option("--noise-std", default=0.0, show_default=True,
              type=click.FloatRange(min=0), callback=_finite,
              help="Gaussian background noise sigma.")
@click.option("--base-ms", default=200.0, show_default=True, callback=_finite,
              help="Smallest pair mean interval, ms; must exceed the "
                   "100 ms click.")
@click.option("--spacing-ms", default=5.0, show_default=True,
              callback=_finite,
              help="Spacing between distinct pair means, ms.")
@click.option("--sample-rate", default=8000, show_default=True,
              type=click.IntRange(min=1))
def cmd_synth(words, out, seed, pair_std, noise_std, base_ms, spacing_ms,
              sample_rate):
    """Generate synthetic typing audio, keylog, and ground truth."""
    word_list = _word_list(words)
    cfg = dict(words=word_list, out=out, seed=seed, pair_std=pair_std,
               noise_std=noise_std, base_ms=base_ms, spacing_ms=spacing_ms,
               sample_rate=sample_rate)
    _echo_config("synth", **cfg)
    try:
        profile = synth.profile_for_words(word_list, base_ms=base_ms,
                                          spacing_ms=spacing_ms,
                                          std_ms=pair_std,
                                          noise_std=noise_std, seed=seed)
    except ValueError as exc:   # a pair mean at or below the click length
        raise click.UsageError(f"--base-ms/--spacing-ms: {exc}")
    out_dir = Path(out)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    syn = synth.synth_session(profile, word_list)
    write_keylog(out_dir / "keylog.csv", syn.session)
    # Recorded config omits the output path so identical seeds give
    # byte-identical artifacts regardless of destination.
    truth = {"run_config": {k: v for k, v in cfg.items() if k != "out"},
             "pair_means": {f"{a}{b}": m for (a, b), m in
                            sorted(profile.pair_means.items())},
             "words": []}
    for i, (word, onsets) in enumerate(zip(word_list, syn.word_onsets_ms)):
        total_ms = onsets[-1] + profile.burst_ms + 200.0
        signal = synth.synth_audio(onsets, profile, sample_rate, total_ms,
                                   task=i)
        wav_name = f"word_{i:03d}_{word}.wav"
        write_wav(out_dir / wav_name, signal)
        truth["words"].append({"word": word, "wav": wav_name,
                               "onsets_ms": list(onsets)})
    (out_dir / "ground_truth.json").write_text(
        json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    click.echo(f"wrote {len(word_list)} words to {out_dir}")
    sys.exit(EXIT_OK)


@cli.command("eval")
@click.option("--words", required=True,
              help="Comma-separated words to synthesize and score.")
@click.option("--lexicon", "lexicon_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path(),
              help="Report output directory.")
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@click.option("--pair-std", "pair_stds", multiple=True,
              type=click.FloatRange(min=0), callback=_finite,
              default=(0.0,), show_default=True,
              help="Interval std in ms; repeat the flag to run an ASD sweep.")
@click.option("--train-reps", default=20, show_default=True,
              type=click.IntRange(min=1),
              help="Times each word is typed in the training session.")
@click.option("--trials-per-word", default=3, show_default=True,
              type=click.IntRange(min=1))
@click.option("--sample-rate", default=1000, show_default=True,
              type=click.IntRange(min=1))
@click.option("--jobs", type=click.IntRange(min=1), hidden=True,
              expose_value=False,
              help="Accepted and ignored: eval runs serially.")
@_tolerance_options
def cmd_eval(words, lexicon_path, out, seed, pair_stds, train_reps,
             trials_per_word, sample_rate, frame_ms, min_gap_ms,
             tolerance_pct, std_coeff):
    """Synthesize typists, train, predict, and report success rates."""
    word_list = _word_list(words)
    for word in word_list:
        # The lexicon keeps only [a-z]+ words, and one letter has no interval.
        if not re.fullmatch("[a-z]{2,}", word):
            raise click.UsageError(
                f"--words: {word!r} is not 2 or more letters a-z")
    _echo_config("eval", words=word_list, lexicon=lexicon_path, out=out,
                 seed=seed, pair_stds=list(pair_stds), train_reps=train_reps,
                 trials_per_word=trials_per_word, sample_rate=sample_rate,
                 frame_ms=frame_ms, min_gap_ms=min_gap_ms,
                 tolerance_pct=tolerance_pct, std_coeff=std_coeff)
    lexicon = _load(load_lexicon, lexicon_path)
    settings = evaluation.SweepSettings(
        words=tuple(word_list), train_reps=train_reps,
        trials_per_word=trials_per_word, sample_rate=sample_rate,
        predict=PredictSettings(frame_ms=frame_ms, min_gap_ms=min_gap_ms,
                                tolerance_pct=tolerance_pct,
                                std_coeff=std_coeff))
    profiles = [
        synth.profile_for_words(word_list, std_ms=std, seed=seed + i)
        for i, std in enumerate(pair_stds)
    ]
    if len(profiles) == 1:
        with _pipeline("eval"):
            report = evaluation.evaluate_profile(profiles[0], lexicon,
                                                 settings)
        with _writing(out):
            evaluation.write_report(report, out)
        click.echo(f"success_rate: {report.success_rate:.4f}  "
                   f"ambiguity: {report.ambiguity:.2f}  "
                   f"asd_ms: {report.asd_ms:.4f}")
    else:
        with _pipeline("eval"):
            result = evaluation.asd_sweep(profiles, lexicon, settings)
        with _writing(out):
            evaluation.write_sweep(result, out)
        for asd, rate in result.points:
            click.echo(f"asd_ms: {asd:.4f}  success_rate: {rate:.4f}")
        click.echo(f"pearson_r: {result.pearson_r:.4f}")
    sys.exit(EXIT_OK)


@cli.command("model-inspect")
@click.option("--model", "model_path", required=True, type=click.Path())
def cmd_model_inspect(model_path):
    """Print the per-pair analysis table of a trained model."""
    _echo_config("model-inspect", model=model_path)
    model = _load(load_model, model_path)
    click.echo(f"{'pair':>6}  {'mean_ms':>10}  {'std_ms':>10}  {'count':>6}")
    for (a, b), s in sorted(model.stats.items()):
        click.echo(f"{a + b:>6}  {s.mean_ms:>10.3f}  {s.std_ms:>10.3f}  "
                   f"{s.count:>6}")
    click.echo(f"asd_ms: {model.asd_ms:.4f}  pairs: {model.pair_count}")
    sys.exit(EXIT_OK)


def _load(loader, path):
    """Run a file loader; unreadable, undecodable or invalid input exits 2."""
    try:
        return loader(path)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise click.ClickException(f"cannot read {path}: {reason}")
    except KeyEchoError as exc:
        raise click.ClickException(str(exc))


@contextmanager
def _writing(path):
    """Guard writes to an output path; one that cannot be written exits 2."""
    try:
        yield
    except OSError as exc:
        reason = exc.strerror or exc
        raise click.ClickException(f"cannot write {path}: {reason}")


@contextmanager
def _pipeline(stage):
    """Guard pipeline steps; a KeyEchoError from them exits 4."""
    try:
        yield
    except KeyEchoError as exc:
        click.echo(f"{stage} failed: {exc}", err=True)
        sys.exit(EXIT_PIPELINE)


def main(argv=None) -> int:
    """Run the CLI with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        exc.show()
        sys.exit(EXIT_USAGE)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_IO)
    except click.exceptions.Abort:
        sys.exit(EXIT_IO)
    return EXIT_OK


if __name__ == "__main__":
    main()
