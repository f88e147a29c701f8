"""Seeded input generator for the keyecho benchmark.

Everything a workload reads is made here, before the measured process
starts: WAV recordings rendered by our own numpy click generator (not
keyecho.synth), model files written in keyecho's JSON model format, word
lists (a copy of data/lexicon_small.txt, or a seeded one), and a plan.json that names the files and records the ground truth
(planted click positions, typed words) for the oracle. The same
(workload, seed) always gives byte-identical files.

Inputs are cached under <checkout>/.perfbench/cache/, keyed by workload,
seed and a hash of this file, so editing the generator invalidates them.
"""

import hashlib
import json
import math
import os
import shutil
import struct
from pathlib import Path

import numpy as np

LETTERS = "abcdefghijklmnopqrstuvwxyz"
WORKLOADS = ("attack_44k", "dense_1k", "long_8k", "eval_sweep")

# A click lasts one default frame (100 ms), so the energy window peaks on
# the onset itself. Its envelope decays to a tenth, which keeps each
# neighbouring window clearly lower than the peak even under noise.
CLICK_MS = 100.0
# Planted intervals stay above frame_ms + min_gap_ms (200 ms at the
# defaults): closer clicks are misplaced by pick_onsets (see CHANGES.md).
MIN_INTERVAL_MS = 210.0
CACHE_KEEP = 4          # cached seeds kept per workload
SMALL_LEXICON = "data/lexicon_small.txt"   # copied in for attack_44k, eval_sweep

# attack_44k: the study typist.
ATTACK_RATE = 44100
ATTACK_OBSERVATIONS = 100_000
ATTACK_REPS = 3         # recordings of each study word per round
ATTACK_NOISE = 0.01
ATTACK_JITTER_MS = 2.0

# dense_1k: every ordered pair, means packed into 250-450 ms.
DENSE_RATE = 1000
DENSE_OBS_PER_PAIR = 6
DENSE_LEXICON_WORDS = 100_000
# One round: (target |words_all|, recordings at that target). Costs are
# heavy-tailed from 60 to 100,000 candidate words, with two wide blocks
# of alike recordings: 30-70 % of the round at 2,500 words and 85-95 %
# at 50,000. The p50 and p90 of whole rounds fall inside them, so the
# few operations that a garbage collection slows past their neighbours
# cannot move either onto the next step of the ladder.
DENSE_ROUND = ([(float(t), 1) for t in np.geomspace(60, 1000, 12)]
               + [(2500.0, 16)]
               + [(float(t), 1) for t in np.geomspace(5000, 25000, 6)]
               + [(50_000.0, 4), (100_000.0, 2)])
DENSE_DRAWS = 2000      # random words of length k tried per target
DENSE_NOISE = 0.002

# long_8k: 60 s captures.
LONG_RATE = 8000
LONG_SECONDS = 60.0
LONG_KS = (160, 180, 200, 220, 240)  # one capture per k per round
LONG_NOISE = 0.01

# eval_sweep: the study words typed at several pair_std levels.
EVAL_LEVELS = (0.0, 5.0, 10.0, 20.0, 40.0)
EVAL_TRAIN_REPS = 5
EVAL_TRIALS_PER_WORD = 3
EVAL_RATE = 1000


def gen_hash() -> str:
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]


def study_words(root: Path) -> list:
    """The 21-word study list: the first lines of the shipped lexicon."""
    lines = (root / SMALL_LEXICON).read_text().split()
    return lines[:21]


def ensure(workload: str, seed: int, root: Path, cache: Path) -> Path:
    """Return the plan.json for (workload, seed), generating it if needed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    final = cache / f"{workload}-s{seed}-{gen_hash()}"
    plan = final / "plan.json"
    if plan.is_file():
        os.utime(final)
        return plan
    tmp = cache / f".tmp-{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    doc = GENERATORS[workload](rng, tmp, root)
    doc.update(workload=workload, seed=seed)
    (tmp / "plan.json").write_text(json.dumps(doc) + "\n")
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    _prune(cache, workload, keep=final)
    return plan


def _prune(cache: Path, workload: str, keep: Path) -> None:
    dirs = sorted((d for d in cache.glob(f"{workload}-s*") if d != keep),
                  key=lambda d: d.stat().st_mtime, reverse=True)
    for d in dirs[CACHE_KEEP - 1:]:
        shutil.rmtree(d, ignore_errors=True)


# --- file writers, independent of keyecho ---

def write_wav16(path: Path, samples: np.ndarray, rate: int) -> None:
    """16-bit PCM mono RIFF/WAVE."""
    ints = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    raw = ints.tobytes()
    header = b"".join([
        b"RIFF", struct.pack("<I", 36 + len(raw)), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16),
        b"data", struct.pack("<I", len(raw)),
    ])
    path.write_bytes(header + raw)


def render(onsets, n: int, rate: int, rng, noise_std: float) -> np.ndarray:
    """Noise-burst clicks at the given sample indices over gaussian noise."""
    x = rng.normal(0.0, noise_std, n)
    length = int(round(CLICK_MS * rate / 1000.0))
    envelope = np.linspace(1.0, 0.1, length)
    for onset in onsets:
        amp = rng.uniform(0.5, 0.9)
        signs = rng.choice((-1.0, 1.0), length)
        x[onset:onset + length] += amp * envelope * signs
    return np.clip(x, -1.0, 1.0)


def write_model(path: Path, observations) -> tuple:
    """keyecho's version-1 model file: raw rows plus their analysis table.

    load_model recomputes the table and demands exact equality, so the
    summary follows the documented definitions: fsum mean, n-1 sample std
    (0 for singletons), ASD over pairs seen at least twice. Returns the
    pair means as a 26x26 array (nan where unseen) and the ASD.
    """
    groups = {}
    for a, b, d in observations:
        groups.setdefault((a, b), []).append(d)
    analysis = []
    for (a, b), ds in sorted(groups.items()):
        n = len(ds)
        mean = math.fsum(ds) / n
        std = (math.sqrt(math.fsum((d - mean) ** 2 for d in ds) / (n - 1))
               if n > 1 else 0.0)
        analysis.append({"a": a, "b": b, "mean_ms": mean, "std_ms": std,
                         "count": n})
    repeated = [row["std_ms"] for row in analysis if row["count"] >= 2]
    asd = math.fsum(repeated) / len(repeated) if repeated else 0.0
    doc = {
        "version": 1,
        "observations": [{"a": a, "b": b, "delta_ms": d}
                         for a, b, d in observations],
        "analysis": analysis,
        "asd_ms": asd,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    means = np.full((26, 26), np.nan)
    for row in analysis:
        means[LETTERS.index(row["a"]), LETTERS.index(row["b"])] = row["mean_ms"]
    return means, asd


def _observations(rng, means: dict, stds: dict, per_pair: int) -> list:
    obs = []
    for (a, b), mu in sorted(means.items()):
        for d in np.round(rng.normal(mu, stds[(a, b)], per_pair), 3):
            obs.append((a, b, float(d)))
    return obs


def _recording(path: Path, intervals_ms, rate: int, rng, noise: float,
               lead_ms: float, tail_ms: float = 300.0) -> list:
    """Render clicks separated by intervals_ms; return onset samples."""
    starts = lead_ms + np.concatenate([[0.0], np.cumsum(intervals_ms)])
    onsets = [int(round(t * rate / 1000.0)) for t in starts]
    n = onsets[-1] + int(round((CLICK_MS + tail_ms) * rate / 1000.0))
    write_wav16(path, render(onsets, n, rate, rng, noise), rate)
    return onsets


# --- workloads ---

def gen_attack(rng, out: Path, root: Path) -> dict:
    words = study_words(root)
    pairs = sorted({(a, b) for w in words for a, b in zip(w, w[1:])})
    # Seeds deal the same grid of means and stds out to the pairs, so the
    # total recorded time and the ASD are alike across seeds.
    means = dict(zip(pairs, rng.permutation(np.linspace(230.0, 600.0, len(pairs))).tolist()))
    stds = dict(zip(pairs, rng.permutation(np.linspace(4.0, 12.0, len(pairs))).tolist()))
    write_model(out / "model.json",
                _observations(rng, means, stds, ATTACK_OBSERVATIONS // len(pairs)))
    recs = []
    for _ in range(ATTACK_REPS):
        for word in words:
            jitter = np.clip(rng.normal(0.0, ATTACK_JITTER_MS, len(word) - 1),
                             -3 * ATTACK_JITTER_MS, 3 * ATTACK_JITTER_MS)
            intervals = [means[p] + j for p, j in zip(zip(word, word[1:]), jitter)]
            name = f"r{len(recs):03d}.wav"
            onsets = _recording(out / name, intervals, ATTACK_RATE, rng,
                                ATTACK_NOISE, float(rng.uniform(150, 400)))
            recs.append({"wav": name, "word": word, "k": len(word),
                         "rate": ATTACK_RATE, "onsets": onsets})
    shutil.copy(root / SMALL_LEXICON, out / "lexicon.txt")
    return {"model": "model.json", "lexicon": "lexicon.txt", "recordings": recs}


def path_counts(means: np.ndarray, asd: float, deltas: np.ndarray) -> np.ndarray:
    """Paths through the match masks, one row of deltas per word."""
    v = np.ones((len(deltas), 26), dtype=np.int64)
    for i in range(deltas.shape[1]):
        d = deltas[:, i, None, None]
        masks = np.abs(means[None] - d) <= 0.05 * d + asd
        v = np.einsum("na,nab->nb", v, masks.astype(np.int64))
    return v.sum(axis=1)


def gen_dense(rng, out: Path, root: Path) -> dict:
    pairs = [(a, b) for a in LETTERS for b in LETTERS]
    means = {p: float(rng.uniform(250.0, 450.0)) for p in pairs}
    stds = {p: 4.0 for p in pairs}
    # Ladder steps are chosen against the trained means, which are what
    # the program matches intervals to.
    trained, asd = write_model(
        out / "model.json", _observations(rng, means, stds, DENSE_OBS_PER_PAIR))
    mu = np.array([[means[(a, b)] for b in LETTERS] for a in LETTERS])

    recs = []
    typed = set()
    for target, copies in DENSE_ROUND:
        # The word length whose candidate counts reach the target.
        k = int(np.searchsorted([200, 1200, 7000, 40000], target)) + 2
        codes = rng.integers(0, 26, (DENSE_DRAWS, k))
        jitter = np.clip(rng.normal(0.0, 2.0, (DENSE_DRAWS, k - 1)), -6, 6)
        all_deltas = np.round(mu[codes[:, :-1], codes[:, 1:]] + jitter)
        counts = path_counts(trained, asd, all_deltas)
        # The `copies` distinct words whose mask-product count is closest.
        chosen = []
        for i in np.argsort(np.abs(np.log(counts) - math.log(target)),
                            kind="stable"):
            word = "".join(LETTERS[c] for c in codes[i])
            if word not in typed:
                typed.add(word)
                chosen.append((word, all_deltas[i]))
            if len(chosen) == copies:
                break
        for word, deltas in chosen:
            name = f"r{len(recs):03d}.wav"
            onsets = _recording(out / name, deltas, DENSE_RATE, rng,
                                DENSE_NOISE, float(rng.integers(200, 400)))
            recs.append({"wav": name, "word": word, "k": len(word),
                         "rate": DENSE_RATE, "onsets": onsets})
    lengths = rng.integers(2, 8, DENSE_LEXICON_WORDS)
    lexicon = {"".join(LETTERS[c] for c in rng.integers(0, 26, n)) for n in lengths}
    lexicon |= typed
    (out / "lexicon.txt").write_text("\n".join(sorted(lexicon)) + "\n")
    return {"model": "model.json", "lexicon": "lexicon.txt", "recordings": recs}


def gen_long(rng, out: Path, root: Path) -> dict:
    recs = []
    lead_ms, tail_ms = 300.0, 200.0
    room = LONG_SECONDS * 1000.0 - lead_ms - CLICK_MS - tail_ms
    for k in LONG_KS:
        # Spread the slack over the intervals: 210 ms plus a uniform share.
        share = rng.uniform(0.0, 1.0, k - 1)
        slack = room * 0.99 - MIN_INTERVAL_MS * (k - 1)
        intervals = MIN_INTERVAL_MS + share / share.sum() * slack
        name = f"r{len(recs):03d}.wav"
        onsets = _recording(out / name, intervals, LONG_RATE, rng, LONG_NOISE,
                            lead_ms, tail_ms)
        recs.append({"wav": name, "k": k, "rate": LONG_RATE, "onsets": onsets})
    return {"recordings": recs}


def gen_eval(rng, out: Path, root: Path) -> dict:
    levels = [{"pair_std": std, "seed": int(s)}
              for std, s in zip(EVAL_LEVELS, rng.integers(0, 2**31, len(EVAL_LEVELS)))]
    shutil.copy(root / SMALL_LEXICON, out / "lexicon.txt")
    return {"lexicon": "lexicon.txt",
            "words": study_words(root), "levels": levels,
            "train_reps": EVAL_TRAIN_REPS,
            "trials_per_word": EVAL_TRIALS_PER_WORD, "sample_rate": EVAL_RATE}


GENERATORS = {"attack_44k": gen_attack, "dense_1k": gen_dense,
              "long_8k": gen_long, "eval_sweep": gen_eval}
