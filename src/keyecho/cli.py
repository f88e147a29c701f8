"""Command-line entry point.

Exit codes are stable API: 0 success, 3 empty result, 4 pipeline failure
(an errors.PipelineFailure), 2 I/O or parse error (unreadable input,
unwritable output, any other KeyEchoError), 64 usage error (including nan
or inf options). A command returns its non-zero code (predict's 3), or
nothing for 0; main() alone maps an error's class to 4 or 2, and main()
alone calls sys.exit. Every read goes through _load, which names the file
it cannot read; any other OSError comes from an output, and main() alone
maps it to 2, so no write site needs a guard of its own.
Each command echoes its parsed parameters, under their parameter names,
as a JSON run_config line on stderr before it runs.
KEYECHO_LOG (DEBUG, INFO, WARNING, ...) sets the logging level, though
nothing logs yet; a name that is not a level is a usage error.
"""

import csv
import json
import logging
import math
import os
import sys
from pathlib import Path

import click

from . import evaluation, predictor, segmenter, synth
from .audio import MAX_MS, MAX_WAV_RATE, AudioSignal, load_wav, write_wav
from .errors import KeyEchoError, PipelineFailure
from .evaluation import SweepSettings
from .keylog import is_word, parse_keylog, session_to_pairs, write_keylog
from .lexicon import load_lexicon
from .model import load_model, save_model, train
from .predictor import PredictSettings
from .synth import TypistProfile

EXIT_OK = 0
EXIT_IO = 2
EXIT_EMPTY = 3
EXIT_PIPELINE = 4
EXIT_USAGE = 64

log = logging.getLogger("keyecho")


class _Command(click.Command):
    """A command that echoes its parsed parameters before it runs."""

    def invoke(self, ctx):
        doc = {"run_config": {"command": self.name, **ctx.params}}
        click.echo(json.dumps(doc, sort_keys=True), err=True)
        return super().invoke(ctx)


class _Group(click.Group):
    command_class = _Command


class _FiniteRange(click.FloatRange):
    """A float range that also rejects nan and inf, which pass its bounds."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value} is not a finite number", param, ctx)
        return value

    def _describe_range(self):
        """Help text; click would print an unbounded range as "x<=None"."""
        if self.min is None and self.max is None:
            return "finite"
        return super()._describe_range()


def _segment_options(fn):
    """Add --frame-ms and --min-gap-ms; click lists the last added first."""
    fn = click.option("--min-gap-ms", default=PredictSettings.min_gap_ms,
                      show_default=True, type=_FiniteRange(min=0, max=MAX_MS),
                      help="Extra zeroed margin around each detected peak, ms.")(fn)
    return click.option("--frame-ms", default=PredictSettings.frame_ms,
                        show_default=True,
                        type=_FiniteRange(min=0, max=MAX_MS, min_open=True),
                        help="Sliding-window frame length in ms.")(fn)


def _tolerance_options(fn):
    """Add the segment options, then --tolerance-pct and --std-coeff."""
    fn = click.option("--std-coeff", default=PredictSettings.std_coeff,
                      show_default=True, type=_FiniteRange(min=0),
                      help="Weight of the model ASD in the matching range.")(fn)
    fn = click.option("--tolerance-pct",
                      default=PredictSettings.tolerance_pct,
                      show_default=True, type=_FiniteRange(min=0),
                      help="Interval-matching range as a fraction of the interval.")(fn)
    return _segment_options(fn)


def _word_list(ctx, param, words: str) -> list:
    """Split comma-separated --words into lower-case words of 2 or more
    letters a-z; none, or any other word, is a usage error."""
    word_list = [w.strip().lower() for w in words.split(",") if w.strip()]
    if not word_list:
        raise click.UsageError("--words produced an empty list")
    for word in word_list:
        # A lexicon keeps only words of letters; one letter has no interval.
        if len(word) < 2 or not is_word(word):
            raise click.UsageError(
                f"--words: {word!r} is not 2 or more letters a-z")
    return word_list


@click.group(cls=_Group)
def cli():
    """Recover typed words from keyboard audio using timing models."""
    level = os.environ.get("KEYECHO_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):  # not a level name
        raise click.UsageError(f"KEYECHO_LOG: unknown log level {level!r}")
    logging.basicConfig(level=level)


@cli.command("train")
@click.argument("keylogs", nargs=-1, required=True,
                type=click.Path(exists=False))
@click.option("--out", required=True, type=click.Path(),
              help="Where to write the model JSON.")
def cmd_train(keylogs, out):
    """Train a timing model from one or more keystroke log CSVs."""
    pairs = []
    for path in keylogs:
        pairs.extend(session_to_pairs(_load(parse_keylog, path)))
    model = train(pairs)
    save_model(model, out)
    click.echo(f"pairs: {len(model.stats)}  observations: "
               f"{len(model.observations)}  asd_ms: {model.asd_ms:.4f}")


@cli.command("segment")
@click.argument("audio", type=click.Path())
@click.option("--k", required=True, type=click.IntRange(min=1),
              help="Number of keystrokes.")
@click.option("--out", required=True, type=click.Path(),
              help="Onsets CSV output path.")
@click.option("--segments-dir", type=click.Path(), default=None,
              help="Optionally dump one WAV per keystroke segment here.")
@_segment_options
def cmd_segment(audio, k, out, segments_dir, frame_ms, min_gap_ms):
    """Locate keystroke onsets in a WAV file and write them as CSV."""
    signal = _load(load_wav, audio)
    onsets = segmenter.find_onsets(signal, k, frame_ms, min_gap_ms)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "onset_sample", "onset_ms", "delta_ms"])
        deltas = segmenter.intervals(onsets).deltas
        for i, (b, ms) in enumerate(zip(onsets.onsets, onsets.onsets_ms)):
            delta = f"{deltas[i - 1]:.6f}" if i else ""
            writer.writerow([i, b, f"{ms:.6f}", delta])
    if segments_dir is not None:
        seg_dir = Path(segments_dir)
        seg_dir.mkdir(parents=True, exist_ok=True)
        for i, (lo, hi) in enumerate(
                segmenter.extract_segments(signal, onsets)):
            chunk = AudioSignal(signal.samples[lo:hi], signal.sample_rate)
            write_wav(seg_dir / f"segment_{i:03d}.wav", chunk)
    click.echo(f"wrote {len(onsets)} onsets to {out}")


@cli.command("predict")
@click.argument("audio", type=click.Path())
@click.option("--model", required=True, type=click.Path())
@click.option("--lexicon", required=True, type=click.Path())
@click.option("--k", required=True, type=click.IntRange(min=2),
              help="Number of keystrokes.")
@click.option("--json", is_flag=True, help="Emit full JSON result.")
@_tolerance_options
def cmd_predict(audio, model, lexicon, k, json, frame_ms, min_gap_ms,
                tolerance_pct, std_coeff):
    """Predict the typed word from a WAV recording of k keystrokes."""
    timing_model = _load(load_model, model)
    lex = _load(load_lexicon, lexicon)
    signal = _load(load_wav, audio)
    settings = PredictSettings(frame_ms=frame_ms, min_gap_ms=min_gap_ms,
                               tolerance_pct=tolerance_pct,
                               std_coeff=std_coeff, lexicon=lex)
    result = predictor.predict(timing_model, signal, k, settings)
    if json:
        click.echo(result.to_json())
    else:
        for word in result.words_dict:
            click.echo(word)
    return EXIT_OK if result.words_dict else EXIT_EMPTY


@cli.command("synth")
@click.option("--words", required=True, callback=_word_list,
              help="Comma-separated words to synthesize.")
@click.option("--out", required=True, type=click.Path(),
              help="Output directory.")
@click.option("--seed", default=TypistProfile.seed, show_default=True,
              type=click.IntRange(min=0))
@click.option("--pair-std", default=TypistProfile.std_ms, show_default=True,
              type=_FiniteRange(min=0, max=synth.MAX_PAIR_MS),
              help="Interval std in ms for every key pair.")
@click.option("--noise-std", default=TypistProfile.noise_std,
              show_default=True, type=_FiniteRange(min=0),
              help="Gaussian background noise sigma.")
@click.option("--base-ms", default=synth.BASE_MS, show_default=True,
              type=_FiniteRange(),
              help=f"Smallest pair mean interval, ms; each mean must exceed "
                   f"the {TypistProfile.burst_ms:g} ms click and not "
                   f"{synth.MAX_PAIR_MS:g} ms.")
@click.option("--spacing-ms", default=synth.SPACING_MS, show_default=True,
              type=_FiniteRange(),
              help="Spacing between distinct pair means, ms.")
@click.option("--sample-rate", default=8000, show_default=True,
              type=click.IntRange(min=1, max=MAX_WAV_RATE))
@click.pass_context
def cmd_synth(ctx, words, out, seed, pair_std, noise_std, base_ms, spacing_ms,
              sample_rate):
    """Generate synthetic typing audio, keylog, and ground truth."""
    try:
        profile = synth.profile_for_words(words, base_ms=base_ms,
                                          spacing_ms=spacing_ms,
                                          std_ms=pair_std,
                                          noise_std=noise_std, seed=seed)
    except ValueError as exc:   # a pair mean out of (click, MAX_PAIR_MS]
        raise click.UsageError(f"--base-ms/--spacing-ms: {exc}")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    syn = synth.synth_session(profile, words)
    write_keylog(out_dir / "keylog.csv", syn.events)
    # Recorded config omits the output path so identical seeds give
    # byte-identical artifacts regardless of destination.
    truth = {"run_config": {k: v for k, v in ctx.params.items() if k != "out"},
             "pair_means": {f"{a}{b}": m for (a, b), m in
                            sorted(profile.pair_means.items())},
             "words": []}
    for i, (word, onsets) in enumerate(zip(words, syn.word_onsets_ms)):
        signal = synth.word_audio(onsets, profile, sample_rate, task=i)
        wav_name = f"word_{i:03d}_{word}.wav"
        write_wav(out_dir / wav_name, signal)
        truth["words"].append({"word": word, "wav": wav_name,
                               "onsets_ms": list(onsets)})
    (out_dir / "ground_truth.json").write_text(
        json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    click.echo(f"wrote {len(words)} words to {out_dir}")


@cli.command("eval")
@click.option("--words", required=True, callback=_word_list,
              help="Comma-separated words to synthesize and score.")
@click.option("--lexicon", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path(),
              help="Report output directory.")
@click.option("--seed", default=TypistProfile.seed, show_default=True,
              type=click.IntRange(min=0))
@click.option("--pair-std", "pair_stds", multiple=True,
              type=_FiniteRange(min=0, max=synth.MAX_PAIR_MS),
              default=(TypistProfile.std_ms,), show_default=True,
              help="Interval std in ms; repeat the flag to run an ASD sweep.")
@click.option("--train-reps", default=SweepSettings.train_reps,
              show_default=True, type=click.IntRange(min=1),
              help="Times each word is typed in the training session.")
@click.option("--trials-per-word", default=SweepSettings.trials_per_word,
              show_default=True, type=click.IntRange(min=1))
@click.option("--sample-rate", default=SweepSettings.sample_rate,
              show_default=True, type=click.IntRange(min=1))
@_tolerance_options
def cmd_eval(words, lexicon, out, seed, pair_stds, train_reps,
             trials_per_word, sample_rate, frame_ms, min_gap_ms,
             tolerance_pct, std_coeff):
    """Synthesize typists, train, predict, and report success rates."""
    lex = _load(load_lexicon, lexicon)
    settings = SweepSettings(
        words=tuple(words), train_reps=train_reps,
        trials_per_word=trials_per_word, sample_rate=sample_rate,
        predict=PredictSettings(frame_ms=frame_ms, min_gap_ms=min_gap_ms,
                                tolerance_pct=tolerance_pct,
                                std_coeff=std_coeff))
    profiles = [
        synth.profile_for_words(words, std_ms=std, seed=seed + i)
        for i, std in enumerate(pair_stds)
    ]
    if len(profiles) == 1:
        report = evaluation.evaluate_profile(profiles[0], lex, settings)
        evaluation.write_report(report, out)
        click.echo(f"success_rate: {report.success_rate:.4f}  "
                   f"ambiguity: {report.ambiguity:.2f}  "
                   f"asd_ms: {report.asd_ms:.4f}")
    else:
        result = evaluation.asd_sweep(profiles, lex, settings)
        evaluation.write_sweep(result, out)
        for asd, rate in result.points:
            click.echo(f"asd_ms: {asd:.4f}  success_rate: {rate:.4f}")
        click.echo(f"pearson_r: {result.pearson_r:.4f}")


@cli.command("model-inspect")
@click.option("--model", required=True, type=click.Path())
def cmd_model_inspect(model):
    """Print the per-pair analysis table of a trained model."""
    timing_model = _load(load_model, model)
    click.echo(f"{'pair':>6}  {'mean_ms':>10}  {'std_ms':>10}  {'count':>6}")
    for (a, b), s in sorted(timing_model.stats.items()):
        click.echo(f"{a + b:>6}  {s.mean_ms:>10.3f}  {s.std_ms:>10.3f}  "
                   f"{s.count:>6}")
    click.echo(f"asd_ms: {timing_model.asd_ms:.4f}  "
               f"pairs: {len(timing_model.stats)}")


def _load(loader, path):
    """Run a file loader; an unreadable or undecodable file exits 2."""
    try:
        return loader(path)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise click.ClickException(f"cannot read {path}: {reason}")


def main(argv=None):
    """Run the CLI and exit with the documented exit-code contract."""
    try:
        code = cli.main(args=argv, standalone_mode=False) or EXIT_OK
    except click.UsageError as exc:
        exc.show()
        code = EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        code = EXIT_IO
    except click.exceptions.Abort:
        code = EXIT_IO
    except KeyEchoError as exc:
        click.echo(f"Error: {exc}", err=True)
        code = EXIT_PIPELINE if isinstance(exc, PipelineFailure) else EXIT_IO
    except OSError as exc:   # _load turns every failed read into its own error
        target = "" if exc.filename is None else f" {exc.filename}"
        click.echo(f"Error: cannot write{target}: {exc.strerror or exc}",
                   err=True)
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    main()
