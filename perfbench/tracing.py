"""Span tracing of keyecho from the outside.

Tracer.install() replaces every public keyecho function at its module
attributes, including names one module imported from another (so
predictor.candidates, a binding of model.candidates, is wrapped too).
Because predict() reaches segmenter, model and its own stages through
those attributes, their spans nest under its span. Spans are kept in
memory as (name, start, end, parent, op) and written out at the end.
Work done inside run_eval's pool workers is not traced.
"""

import importlib
import inspect
import json
import time

MODULES = ("audio", "segmenter", "keylog", "lexicon", "model", "predictor",
           "synth", "evaluation")

# Counts taken from a traced function's result: metric -> (span, function).
COUNTERS = {
    "audio.samples": ("audio.load_wav", len),
    "segmenter.windows": ("segmenter.energy", len),
    "segmenter.onsets": ("segmenter.pick_onsets", len),
    "model.pairs_matched": ("model.candidates", len),
    "predictor.words_all": ("predictor.predict", lambda r: len(r.words_all)),
    "predictor.words_dict": ("predictor.predict", lambda r: len(r.words_dict)),
}

# Per-layer metrics: (name, unit, span, kind). "ms" is the span's
# inclusive time, "self_ms" its time minus its child spans, "calls" the
# number of spans; all are per traced operation, except for the loaders
# in SETUP, which report their total while the process set up.
SETUP = ("model.load_model", "lexicon.load_lexicon")
TIMED = [
    ("audio.load_wav.ms", "ms", "audio.load_wav", "ms"),
    ("segmenter.energy.ms", "ms", "segmenter.energy", "ms"),
    ("segmenter.pick_onsets.ms", "ms", "segmenter.pick_onsets", "ms"),
    ("model.load_model.ms", "ms", "model.load_model", "ms"),
    ("lexicon.load_lexicon.ms", "ms", "lexicon.load_lexicon", "ms"),
    ("model.candidates.ms", "ms", "model.candidates", "ms"),
    ("model.candidates.calls", "count", "model.candidates", "calls"),
    ("predictor.predict.self_ms", "ms", "predictor.predict", "self_ms"),
    ("predictor.build_tree.ms", "ms", "predictor.build_tree", "ms"),
    ("predictor.enumerate_words.ms", "ms", "predictor.enumerate_words", "ms"),
    ("predictor.filter_dictionary.ms", "ms", "predictor.filter_dictionary", "ms"),
    ("model.train.ms", "ms", "model.train", "ms"),
    ("keylog.session_to_pairs.ms", "ms", "keylog.session_to_pairs", "ms"),
    ("synth.synth_session.ms", "ms", "synth.synth_session", "ms"),
    ("synth.synth_audio.ms", "ms", "synth.synth_audio", "ms"),
    ("evaluation.run_eval.self_ms", "ms", "evaluation.run_eval", "self_ms"),
]
SETUP_OP = -1


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op)
        self.counts = {}         # metric -> total over operations
        self.op = SETUP_OP
        self._stack = []
        self._patches = []       # (module, attribute, original, wrapper)
        self.functions = set()   # span names of every wrapped function
        for short in MODULES:
            mod = importlib.import_module(f"keyecho.{short}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("keyecho.")):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                self.functions.add(name)
                self._patches.append((mod, attr, obj, self._wrap(name, obj)))

    def _wrap(self, name, fn):
        counters = [(m, f) for m, (span, f) in COUNTERS.items() if span == name]
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if self.op != SETUP_OP:
                for metric, count in counters:
                    counts[metric] = counts.get(metric, 0) + count(result)
            return result

        return traced

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics over the traced operations."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        per = {}                 # (span, kind, in setup) -> total
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            setup = op == SETUP_OP
            for kind, value in (("ms", (end - start) * 1e3),
                                ("self_ms", (end - start - child_s[i]) * 1e3),
                                ("calls", 1)):
                key = (name, kind, setup)
                per[key] = per.get(key, 0) + value
        out = {}
        for metric, unit, span, kind in TIMED:
            if span not in self.functions:
                continue
            if span in SETUP:
                value = per.get((span, kind, True), 0.0)
            else:
                value = per.get((span, kind, False), 0) / n_ops
            out[metric] = {"value": value, "unit": unit}
        for metric, (span, _) in COUNTERS.items():
            if span in self.functions:
                out[metric] = {"value": self.counts.get(metric, 0) / n_ops,
                               "unit": "count"}
        if "predictor.predict" in self.functions:
            words = self.counts.get("predictor.words_all", 0)
            out["predictor.dict_yield"] = {
                "value": self.counts.get("predictor.words_dict", 0) / words
                if words else 0.0, "unit": "ratio"}
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first;
        parent is the 0-based line of the parent span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "op": op}) + "\n")
