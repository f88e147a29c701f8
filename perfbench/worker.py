"""The measured process: set up, run whole rounds of operations, check them.

Started by run.py with the checkout's src/ on PYTHONPATH. It prints
"READY" once keyecho is imported and the workload's model and lexicon are
loaded, then (unless --setup-only) runs rounds of the workload's
operations until --seconds have passed, checks every output with the
oracle, and prints one JSON line with the timings.

With --trace 1 rounds alternate between untraced and traced, so the
tracing overhead is measured against the same work; the per-layer
metrics come from the traced rounds.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent


class Recordings:
    """attack_44k and dense_1k: load_wav + predict per recording."""

    def __init__(self, plan, base: Path):
        from keyecho import lexicon, model, predictor
        self.base = base
        self.model = model.load_model(base / plan["model"])
        self.settings = predictor.PredictSettings(
            lexicon=lexicon.load_lexicon(base / plan["lexicon"]))
        self.ops = plan["recordings"]
        self._lex_path = base / plan["lexicon"]
        self._truth = None

    def run(self, op):
        from keyecho import audio, predictor
        signal = audio.load_wav(self.base / op["wav"])
        return predictor.predict(self.model, signal, op["k"], self.settings)

    def recordings(self, op) -> int:
        return 1

    def check(self, op, result) -> list:
        # Built at the first check, after READY, so that setup_s holds
        # only keyecho's own loading.
        if self._truth is None:
            self._truth = (
                oracle.means_matrix({p: s.mean_ms
                                     for p, s in self.model.stats.items()}),
                oracle.LexiconIndex.read(self._lex_path))
        means, lexicon = self._truth
        s = self.settings
        return oracle.check_prediction(
            result.words_all, result.words_dict, result.onsets_ms,
            result.deltas_ms, word=op["word"], planted=op["onsets"],
            rate=op["rate"], means=means, asd_ms=self.model.asd_ms,
            pct=s.tolerance_pct, coeff=s.std_coeff, lexicon=lexicon)


class Segment:
    """long_8k: what `keyecho segment` does, at its default settings."""

    FRAME_MS = 100.0
    MIN_GAP_MS = 100.0

    def __init__(self, plan, base: Path):
        import keyecho  # noqa: F401  (set-up cost: the import)
        self.base = base
        self.ops = plan["recordings"]

    def run(self, op):
        from keyecho import audio, segmenter
        signal = audio.load_wav(self.base / op["wav"])
        frame_len = audio.ms_to_samples(self.FRAME_MS, signal.sample_rate)
        min_gap = audio.ms_to_samples(self.MIN_GAP_MS, signal.sample_rate)
        energies = segmenter.energy(signal, frame_len)
        onsets = segmenter.pick_onsets(energies, op["k"], min_gap)
        return onsets, segmenter.intervals(onsets)

    def recordings(self, op) -> int:
        return 1

    def check(self, op, result) -> list:
        onsets, deltas = result
        return (oracle.check_onsets(onsets.onsets, op["onsets"])
                + oracle.check_intervals(deltas.deltas, onsets.onsets,
                                         op["rate"]))


class EvalSweep:
    """eval_sweep: one single-typist eval per pair_std level."""

    def __init__(self, plan, base: Path):
        from keyecho import lexicon, predictor
        self.plan = plan
        self.lexicon = lexicon.load_lexicon(base / plan["lexicon"])
        self.settings = predictor.PredictSettings(lexicon=self.lexicon)
        self.words = plan["words"]
        self.ops = plan["levels"]

    def run(self, op):
        from keyecho import evaluation, synth
        p = self.plan
        profile = synth.profile_for_words(self.words, std_ms=op["pair_std"],
                                          seed=op["seed"])
        model = evaluation.train_from_profile(profile, self.words,
                                              p["train_reps"])
        trials = evaluation.make_trials(profile, self.words, p["sample_rate"],
                                        reps=p["trials_per_word"])
        # Serial, not the CLI's default pool: with the pool, timings followed
        # how much of the second CPU a shared host lent (see README.md).
        return evaluation.run_eval(model, self.lexicon, trials, self.settings,
                                   jobs=1)

    def recordings(self, op) -> int:
        return len(self.words) * self.plan["trials_per_word"]

    def check(self, op, report) -> list:
        return oracle.check_eval(report, self.words * self.plan["trials_per_word"],
                                 op["pair_std"])

    def end_round(self, reports) -> list:
        """The sweep over the round's levels, aggregated as asd_sweep does."""
        from keyecho import evaluation
        points = sorted((r.asd_ms, r.success_rate) for r in reports)
        r = evaluation._pearson([p[0] for p in points], [p[1] for p in points])
        return oracle.check_pearson(r, points)


WORKLOADS = {"attack_44k": Recordings, "dense_1k": Recordings,
             "long_8k": Segment, "eval_sweep": EvalSweep}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    plan = json.loads(args.plan.read_text())

    import keyecho
    src = (ROOT / "src").resolve()
    if src not in Path(keyecho.__file__).resolve().parents:
        print(f"keyecho imported from {keyecho.__file__}, not {src}",
              file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    work = WORKLOADS[plan["workload"]](plan, args.plan.parent)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if tracer:
        tracer.uninstall()

    # Warm-up: one untimed operation, so lazy set-up is not timed.
    problems = []
    try:
        problems += work.check(work.ops[0], work.run(work.ops[0]))
    except Exception as exc:  # counted when the timed rounds repeat it
        print(f"warm-up operation failed: {exc!r}", file=sys.stderr)

    lat = {False: [], True: []}     # per operation, by traced or not
    recs = {False: 0, True: 0}
    attempted = failed = 0
    traced = False
    sweep = hasattr(work, "end_round")   # checks made over a whole round
    deadline = time.perf_counter() + args.seconds
    while True:
        results = []
        for op in work.ops:
            if traced:
                tracer.op = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = work.run(op)
            except Exception as exc:  # an operation failed: count it, go on
                failed += 1
                print(f"operation {op.get('wav', op)} failed: {exc!r}",
                      file=sys.stderr)
                continue
            lat[traced].append(time.perf_counter() - t0)
            recs[traced] += work.recordings(op)
            problems += work.check(op, result)
            if sweep:
                results.append(result)
            del result
        if sweep and len(results) == len(work.ops):
            problems += work.end_round(results)
        del results
        if tracer:
            traced = not traced
            (tracer.install if traced else tracer.uninstall)()
        if time.perf_counter() >= deadline and (not tracer or not traced):
            break
    if tracer:
        tracer.uninstall()

    for p in problems[:20]:
        print(f"oracle: {p}", file=sys.stderr)
    if not lat[False] or (tracer and not lat[True]):
        print("no operation succeeded", file=sys.stderr)
        return 4
    out = {"correct": not problems, "attempted": attempted, "failed": failed}
    if tracer:
        metrics = tracer.metrics(len(lat[True]))
        base = sum(lat[False]) / len(lat[False])
        metrics["trace.overhead_pct"] = {
            "value": (sum(lat[True]) / len(lat[True]) / base - 1.0) * 100.0,
            "unit": "%"}
        if args.trace_out:
            tracer.dump(args.trace_out)
    else:
        import numpy as np
        p50, p90 = np.percentile(lat[False], [50, 90])
        metrics = {
            "recordings_per_s": {"value": recs[False] / sum(lat[False]),
                                 "unit": "1/s"},
            "latency_ms.p50": {"value": p50 * 1e3, "unit": "ms"},
            "latency_ms.p90": {"value": p90 * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        print(f"{len(lat[False])} operations timed", file=sys.stderr)
    out["metrics"] = metrics
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
