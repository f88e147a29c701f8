"""Stage timings that ROADMAP.md quotes as baselines, measured again.

    python3 perfbench/baselines.py

Prints, as the minimum of 5 runs: predict() on one 7-letter word at 1, 8
and 44.1 kHz; energy() and pick_onsets(k=200) on 60 s at 44.1 kHz;
load_model() and train() on 101k observations; run_eval() over 105
trials, serially and with 2 jobs. Inputs come from gen.py's renderer and
model writer, or from keyecho.synth where the baseline was taken that way.
"""

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
from keyecho import evaluation, lexicon, model, predictor, segmenter, synth  # noqa: E402
from keyecho.audio import AudioSignal  # noqa: E402

REPEATS = 5


def best_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


def main() -> None:
    root = HERE.parent
    words = gen.study_words(root)
    lex = lexicon.load_lexicon(root / "data" / "lexicon_small.txt")
    settings = predictor.PredictSettings(lexicon=lex)
    profile = synth.profile_for_words(words, seed=1)
    m = evaluation.train_from_profile(profile, words, 20)
    word = "teacher"
    onsets = synth.synth_session(profile, [word], task=1).word_onsets_ms[0]
    for rate in (1000, 8000, 44100):
        signal = synth.synth_audio(onsets, profile, rate,
                                   onsets[-1] + profile.burst_ms + 200.0)
        ms = best_ms(lambda: predictor.predict(m, signal, len(word), settings))
        print(f"predict, 7-letter word at {rate} Hz: {ms:.2f} ms")

    rng = np.random.default_rng(1)
    rate = 44100
    starts = 300 + np.cumsum(np.full(200, 280.0)) - 280.0
    clicks = [int(t * rate / 1000) for t in starts]
    signal = AudioSignal(gen.render(clicks, 60 * rate, rate, rng, 0.01), rate)
    frame = int(0.1 * rate)
    energies = segmenter.energy(signal, frame)
    print(f"energy, 60 s at 44.1 kHz: "
          f"{best_ms(lambda: segmenter.energy(signal, frame)):.1f} ms")
    print(f"pick_onsets, k=200, 60 s at 44.1 kHz: "
          f"{best_ms(lambda: segmenter.pick_onsets(energies, 200, frame)):.1f} ms")

    pairs = sorted({(a, b) for w in words for a, b in zip(w, w[1:])})
    per_pair = -(-101_000 // len(pairs))
    obs = gen._observations(rng, {p: 300.0 for p in pairs},
                            {p: 8.0 for p in pairs}, per_pair)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        gen.write_model(path, obs)
        size = path.stat().st_size / 1e6
        print(f"load_model, {len(obs)} observations ({size:.1f} MB): "
              f"{best_ms(lambda: model.load_model(path)):.1f} ms")
    print(f"train, {len(obs)} observations: {best_ms(lambda: model.train(obs)):.1f} ms")

    trials = evaluation.make_trials(profile, words, 1000, reps=5)
    for jobs in (1, 2):
        ms = best_ms(lambda: evaluation.run_eval(m, lex, trials, settings, jobs=jobs))
        print(f"run_eval, {len(trials)} trials, jobs={jobs}: {ms:.1f} ms")


if __name__ == "__main__":
    main()
