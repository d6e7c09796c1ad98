"""Correctness checks every benchmark run makes, outside its timed passes.

Each check recomputes what the program reports by a route that shares no
code with it: targets from the record text in plain Python, losses as a
float64 log-softmax over raw `Transformer.forward` logits, gradients by
central differences, and greedy decoding one full forward per token.  Every
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

from coper import autodiff as ad
from coper.codec import BOS_ID, encode

LOSS_RTOL = 1e-4       # float32 forward, batched vs one record at a time
GRAD_EPS = 1e-5        # central-difference step on the float64 model copy
GRAD_ATOL = 1e-7
GRAD_RTOL = 1e-4
TIE_MARGIN = 1e-4      # top-two logit gap under which a decode flip is a tie


def reference_target(input_text: str, answer_len: int) -> str | None:
    """The target a record's input implies, or None if the input has no known form.

    'a+b=' is position-wise addition mod 10 of two equal-length periodic
    operands; an all-digit input is continued by its shortest repeating unit.
    """
    if input_text.endswith("=") and input_text.count("+") == 1:
        s1, s2 = input_text[:-1].split("+")
        if len(s1) != len(s2) or not (s1 + s2).isdigit():
            return None
        n = len(s1)
        return "".join(str((int(s1[t % n]) + int(s2[t % n])) % 10) for t in range(answer_len))
    if input_text.isdigit():
        n = len(input_text)
        unit = next(d for d in range(1, n + 1)
                    if all(input_text[i] == input_text[i - d] for i in range(d, n)))
        return "".join(input_text[(n + i) % unit] for i in range(answer_len))
    return None


def target_failures(records, answer_cap: int | None) -> list:
    """Every target must equal its recomputation; composite answers are min(lcm, cap) long."""
    failures = []
    for rec in records:
        if "+" in rec.input_text and answer_cap is not None:
            lcm = len(rec.input_text[:-1].split("+")[0])
            if len(rec.target_text) != min(lcm, answer_cap):
                failures.append(f"({rec.p1},{rec.p2}) seed_id {rec.seed_id}: target length "
                                f"{len(rec.target_text)} != min({lcm}, {answer_cap})")
                continue
        expect = reference_target(rec.input_text, len(rec.target_text))
        if expect != rec.target_text:
            failures.append(f"({rec.p1},{rec.p2}) seed_id {rec.seed_id}: target "
                            f"{rec.target_text!r} != recomputed {expect!r}")
    return failures


def _ids(rec) -> list:
    return [BOS_ID, *encode(rec.input_text), *encode(rec.target_text)]


def _answer_nll(logits: np.ndarray, ids: list, answer_start: int) -> np.ndarray:
    """Float64 negative log-likelihood of ids[answer_start:] under (S, V) logits."""
    z = np.asarray(logits, dtype=np.float64)
    top = z.max(axis=-1, keepdims=True)
    logp = z - top - np.log(np.exp(z - top).sum(axis=-1, keepdims=True))
    positions = np.arange(answer_start - 1, len(ids) - 1)
    return -logp[positions, np.asarray(ids)[positions + 1]]


def reference_tf_loss(model, records) -> float:
    """Mean answer-token loss, one record per forward, so no padding is involved."""
    total, count = 0.0, 0
    for rec in records:
        ids = _ids(rec)
        logits = model.forward(np.asarray([ids[:-1]])).data[0]
        nll = _answer_nll(logits, ids, 1 + len(rec.input_text))
        total += float(nll.sum())
        count += nll.size
    return total / count


def loss_failures(model, records_by_split: dict, reported: dict) -> list:
    """Each reported split loss must match the float64 recomputation."""
    failures = []
    for split, loss in reported.items():
        ref = reference_tf_loss(model, records_by_split[split])
        if not abs(loss - ref) <= LOSS_RTOL * max(1.0, abs(ref)):
            failures.append(f"{split} teacher-forced loss {loss!r} != recomputed {ref!r}")
    return failures


def learning_failures(initial_id_loss: float, final_id_loss: float) -> list:
    if final_id_loss < initial_id_loss:
        return []
    return [f"ID loss {final_id_loss!r} is not below the initial model's {initial_id_loss!r}"]


def float64_copy(model):
    """An independent float64 replica of `model` (same config and weights)."""
    replica = type(model)(model.config)
    for name, t in replica.state_tensors().items():
        t.data = model.state_tensors()[name].data.copy()
    return replica.astype(np.float64)


def gradient_failures(model, records, rng: np.random.Generator, n_coords: int = 6) -> list:
    """Tape gradient vs central differences of a float64 loss on a few coordinates.

    `records` must share one sequence length, so the batch needs no padding.
    """
    m64 = float64_copy(model)
    rows = [_ids(r) for r in records]
    answer_start = 1 + len(records[0].input_text)
    tokens = np.asarray(rows)
    inputs, labels = tokens[:, :-1], tokens[:, 1:]
    mask = np.zeros(labels.shape)
    mask[:, answer_start - 1:] = 1.0

    params = m64.parameters()
    for t in params.values():
        t.grad = None
    with ad.Tape() as tape:
        loss = ad.cross_entropy(m64.forward(inputs), labels, mask)
    tape.backward(loss)

    def numeric_loss() -> float:
        logits = m64.forward(inputs).data
        return float(np.mean(np.concatenate(
            [_answer_nll(logits[i], row, answer_start) for i, row in enumerate(rows)])))

    failures = []
    names = sorted(params)
    for _ in range(n_coords):
        name = names[int(rng.integers(len(names)))]
        flat = params[name].data.reshape(-1)
        i = int(rng.integers(flat.size))
        orig = flat[i]
        flat[i] = orig + GRAD_EPS
        f_plus = numeric_loss()
        flat[i] = orig - GRAD_EPS
        f_minus = numeric_loss()
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2 * GRAD_EPS)
        analytic = float(params[name].grad.reshape(-1)[i])
        if not abs(analytic - numeric) <= GRAD_ATOL + GRAD_RTOL * abs(numeric):
            failures.append(f"d loss / d {name}[{i}]: tape {analytic!r} != central difference {numeric!r}")
    return failures


def reference_greedy(model, input_text: str, n: int) -> tuple[list, float]:
    """Greedy continuation by one full forward per token; returns ids and the smallest top-two gap."""
    ids = [BOS_ID, *encode(input_text)]
    out, margin = [], math.inf
    for _ in range(n):
        logits = model.forward(np.asarray([ids])).data[0, -1].astype(np.float64)
        best = int(np.argmax(logits))
        runner_up = np.max(np.delete(logits, best))
        margin = min(margin, float(logits[best] - runner_up))
        out.append(best)
        ids.append(best)
    return out, margin


def decode_failures(model, records, hits: dict) -> tuple[list, list]:
    """Per-(P1, P2) hit counts vs the reference decoder: (failures, ties).

    `hits` maps a cell to the correct-token count the program reported for
    `records` of that cell.  A disagreement where the reference's top-two
    logit gap fell under TIE_MARGIN is a tie, not a failure.
    """
    ref_hits, margins = {}, {}
    for rec in records:
        cell = (rec.p1, rec.p2)
        target = encode(rec.target_text)
        pred, margin = reference_greedy(model, rec.input_text, len(target))
        ref_hits[cell] = ref_hits.get(cell, 0) + sum(p == t for p, t in zip(pred, target))
        margins[cell] = min(margins.get(cell, math.inf), margin)
    failures, ties = [], []
    for cell, ref in sorted(ref_hits.items()):
        got = hits.get(cell)
        if got == ref:
            continue
        msg = f"cell {cell}: reported {got} hits, reference decoder {ref} (top-two gap {margins[cell]:.2e})"
        (ties if margins[cell] < TIE_MARGIN else failures).append(msg)
    return failures, ties
