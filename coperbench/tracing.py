"""Span tracing from outside the program.

`Tracer.install` replaces the public functions of coper's modules, and a few
methods, with wrappers that record a span per call: name, start, end, parent
span, and for some calls a measured value (records built, real and padded
token counts, records and tokens decoded).  Spans stay in memory until
`write`.  Nothing under `src/` knows about the tracer; `uninstall` puts every
original back.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

import numpy as np

from coper import autodiff, dataset, evaluation, model, training
from coper.codec import PAD_ID

MODULES = (dataset, training, model, autodiff, evaluation)
METHODS = (
    (model.Transformer, "forward", "model.forward"),
    (model.Transformer, "generate_greedy", "model.generate"),
    (autodiff.Tape, "backward", "autodiff.backward"),
    (training.AdamW, "step", "training.adamw"),
)
OPS = ("matmul", "softmax", "gelu", "rmsnorm", "rope_rotate", "scale", "add",
       "split_heads", "merge_heads", "transpose_last", "embedding", "cross_entropy")


def _padding_counts(result):
    inputs = result[0]
    return int(np.count_nonzero(inputs != PAD_ID)), int(inputs.size)


# Values recorded with a span, computed from the wrapped call's result.
MEASURES = {
    "dataset.build_dataset": lambda manifest: sum(manifest.counts.values()),
    "training.batch_arrays": _padding_counts,
    "evaluation.decode_records": lambda pairs: (len(pairs), sum(len(p) for _, p in pairs)),
}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, value]
        self._stack = []
        self._patched = []     # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        measure = MEASURES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[4] = measure(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of MODULES wherever a coper module binds it."""
        owners = [m for n, m in sys.modules.items() if n == "coper" or n.startswith("coper.")]
        for module in MODULES:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{short}.{attr}", fn)
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patched.append((owner, key, value))
                            setattr(owner, key, traced)
        for cls, attr, name in METHODS:
            fn = vars(cls)[attr]
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]] for s in self.spans]
        path.write_text(json.dumps({"names": names,
                                    "columns": ["name", "start", "end", "parent", "value"],
                                    "spans": rows}, separators=(",", ":")) + "\n")


def _ancestors(spans, i):
    parent = spans[i][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def pass_metrics(spans: list, lo: int, hi: int) -> dict:
    """Per-layer figures of one pass, from the spans with index in [lo, hi)."""
    total, self_s, calls = {}, {}, {}
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if parent >= lo:
            self_s[spans[parent][0]] -= dur

    def ratio(num, den):
        return num / den if den else 0.0

    train_pad = [0, 0]
    tf_pad = [0, 0]
    step_times = []
    step_start = None
    train_ops = 0
    decoded = [0, 0]
    decode_forwards = 0
    for i in range(lo, hi):
        name, start, end, parent, value = spans[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "training.batch_arrays":
            pad = train_pad if parent_name == "training.train" else tf_pad
            pad[0] += value[0]
            pad[1] += value[1]
            if parent_name == "training.train":
                step_start = start
        elif name == "training.adamw" and step_start is not None:
            step_times.append(end - step_start)
            step_start = None
        elif name == "evaluation.decode_records":
            decoded[0] += value[0]
            decoded[1] += value[1]
        elif name == "model.forward" and parent_name == "model.generate":
            decode_forwards += 1
        if name.startswith("autodiff.") and name[9:] in OPS:
            up = list(_ancestors(spans, i))
            if "training.train" in up and "training.teacher_forced_metrics" not in up:
                train_ops += 1

    steps = calls.get("training.adamw", 0)
    decode_batches = calls.get("model.generate", 0)
    out = {
        "dataset.load_s": total.get("dataset.load_records", 0.0),
        "training.train_s": total.get("training.train", 0.0),
        "training.steps": steps,
        "training.step_s.p50": statistics.median(step_times) if step_times else 0.0,
        "training.adamw_s": total.get("training.adamw", 0.0),
        "training.encode_s": total.get("training.encode_records", 0.0),
        "training.batch_arrays_s": total.get("training.batch_arrays", 0.0),
        "training.train_real_token_ratio": ratio(*train_pad),
        "training.tf_eval_s": total.get("training.teacher_forced_metrics", 0.0),
        "training.tf_real_token_ratio": ratio(*tf_pad),
        "model.forward.self_s": self_s.get("model.forward", 0.0),
        "model.forward.calls": calls.get("model.forward", 0),
        "model.generate.self_s": self_s.get("model.generate", 0.0),
        "model.generate.calls": decode_batches,
        "autodiff.backward_s": total.get("autodiff.backward", 0.0),
        "autodiff.ops_per_step": ratio(train_ops, steps),
        "evaluation.evaluate_s": total.get("evaluation.evaluate", 0.0),
        "evaluation.decode.self_s": self_s.get("evaluation.decode_records", 0.0),
        "evaluation.decode_batches": decode_batches,
        "evaluation.records_per_decode_batch": ratio(decoded[0], decode_batches),
        "evaluation.forward_calls_per_answer_token": ratio(decode_forwards, decoded[1]),
    }
    for op in OPS:
        out[f"autodiff.{op}.self_s"] = self_s.get(f"autodiff.{op}", 0.0)
        out[f"autodiff.{op}.calls"] = calls.get(f"autodiff.{op}", 0)
    return out


def setup_metrics(spans: list, lo: int, hi: int) -> dict:
    """Corpus figures of one set-up, from the spans with index in [lo, hi)."""
    out = {"dataset.build_s": 0.0, "dataset.verify_s": 0.0, "dataset.records": 0}
    for name, start, end, _, value in spans[lo:hi]:
        if name == "dataset.build_dataset":
            out["dataset.build_s"] += end - start
            out["dataset.records"] += value
        elif name == "dataset.verify_dataset":
            out["dataset.verify_s"] += end - start
    return out
