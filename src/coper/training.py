"""Optimization loop: AdamW with decoupled weight decay, deterministic
length-bucketed batching, per-epoch ID/OOD loss logging, divergence guard.

All randomness flows from the config seed through named SeedSequence
streams, so two runs with the same seed produce bit-identical parameters,
logs, and checkpoints.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .codec import BOS_ID, PAD_ID, encode
from .dataset import TEST_SPLITS, SampleRecord, Split, load_records
from .model import Transformer, save_checkpoint, write_atomic


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss, gradient or parameter; carries the last good parameters."""

    def __init__(self, epoch: int, state: dict, what: str):
        super().__init__(f"non-finite {what} at epoch {epoch}")
        self.epoch = epoch
        self.state = state


class LossRegion(str, Enum):
    ANSWER_ONLY = "answer_only"
    FULL_SEQUENCE = "full_sequence"


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 3e-4
    weight_decay: float = 0.01
    epochs: int = 30
    loss_region: LossRegion = LossRegion.ANSWER_ONLY
    eval_every: int = 3
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "loss_region", LossRegion(self.loss_region))
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0
                and np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"learning_rate must be finite and > 0 and weight_decay finite and >= 0, "
                             f"got {self.learning_rate} and {self.weight_decay}")
        if self.epochs < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("epochs, batch_size, and eval_every must be >= 1")


@dataclass
class EncodedSample:
    tokens: np.ndarray      # [BOS] + input ids + target ids
    answer_start: int       # index of the first target token in `tokens`


def encode_record(rec: SampleRecord) -> EncodedSample:
    ids = (BOS_ID,) + encode(rec.input_text) + encode(rec.target_text)
    return EncodedSample(np.asarray(ids, dtype=np.int16), 1 + len(rec.input_text))


def encode_records(records: list[SampleRecord]) -> list[EncodedSample]:
    return [encode_record(r) for r in records]


def batch_arrays(samples: list[EncodedSample], loss_region: LossRegion):
    """Right-padded (inputs, labels, mask) arrays for one batch.

    inputs[t] predicts labels[t]; the mask selects which label positions
    contribute to the loss (the answer region, or every real token).
    """
    max_len = max(len(s.tokens) for s in samples)
    b = len(samples)
    tokens = np.full((b, max_len), PAD_ID, dtype=np.int16)
    mask = np.zeros((b, max_len - 1), dtype=np.float32)
    extents, firsts = read_window(samples, loss_region)
    for i, s in enumerate(samples):
        tokens[i, :len(s.tokens)] = s.tokens
        mask[i, firsts[i]:extents[i]] = 1.0
    return tokens[:, :-1], tokens[:, 1:].astype(np.int64), mask


def read_window(samples: list[EncodedSample], loss_region: LossRegion) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's (extent, first) in its `batch_arrays` inputs, the window
    `Transformer.forward` and `decode` take: its real length, and its first
    position whose prediction the loss mask selects (for an answer-only
    loss, its prompt's last token)."""
    extents = np.array([len(s.tokens) - 1 for s in samples])
    if loss_region is LossRegion.ANSWER_ONLY:
        return extents, np.array([s.answer_start - 1 for s in samples])
    return extents, np.zeros(len(samples), dtype=np.int64)


def _epoch_batches(samples, batch_size: int, rng: np.random.Generator):
    """Shuffle, then stable-sort by length so batches pad minimally."""
    n = len(samples)
    perm = rng.permutation(n)
    lengths = np.array([len(samples[i].tokens) for i in perm])
    order = perm[np.argsort(lengths, kind="stable")]
    chunks = [order[i:i + batch_size] for i in range(0, n, batch_size)]
    for ci in rng.permutation(len(chunks)):
        yield [samples[i] for i in chunks[ci]]


@dataclass
class EvalPoint:
    epoch: int
    train_loss: float
    split_loss: dict
    split_accuracy: dict

    @property
    def id_loss(self):
        return self.split_loss.get(Split.TEST_ID.value)


@dataclass
class RunLog:
    points: list = field(default_factory=list)

    def append(self, point: EvalPoint) -> None:
        if self.points and point.epoch <= self.points[-1].epoch:
            raise ValueError("eval epochs must be strictly increasing")
        self.points.append(point)

    @property
    def final(self) -> EvalPoint:
        return self.points[-1]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["epoch", "split", "loss", "accuracy"])
        for pt in self.points:
            writer.writerow([pt.epoch, "train", f"{pt.train_loss:.6f}", ""])
            for split, loss in sorted(pt.split_loss.items()):
                acc = pt.split_accuracy.get(split)
                writer.writerow([pt.epoch, split, f"{loss:.6f}",
                                 "" if acc is None else f"{acc:.6f}"])
        return buf.getvalue()

    def save(self, out_dir: Path) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_atomic(out_dir / "runlog.csv", self.to_csv_text())
        write_atomic(out_dir / "runlog.json", json.dumps(asdict(self), sort_keys=True, indent=2) + "\n")


# AdamW's moment decay rates and the guard added to its denominator.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamW:
    """Adam with decoupled weight decay (decay hits weights, not moments).

    `weight_decay` shrinks every tensor in `params`; `train` passes every
    trainable tensor of the model, so the RMSNorm gains and the head are
    decayed as the projections and feed-forward weights are.  The frozen
    embedding is not trained, so it is not decayed.
    """

    def __init__(self, params: dict, config: TrainConfig):
        self._items = sorted(params.items())
        self._cfg = config
        self._m = {name: np.zeros_like(t.data) for name, t in self._items}
        self._v = {name: np.zeros_like(t.data) for name, t in self._items}
        self._t = 0

    def step(self) -> None:
        cfg = self._cfg
        self._t += 1
        bc1 = 1.0 - ADAM_BETA1**self._t
        bc2 = 1.0 - ADAM_BETA2**self._t
        for name, p in self._items:
            g = p.grad
            if g is None:
                continue
            m, v = self._m[name], self._v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            p.data -= cfg.learning_rate * (update + cfg.weight_decay * p.data)
            p.grad = None


# Test records per forward pass of teacher-forced scoring and decoding.
TF_BATCH_SIZE = 128


def length_batches(samples) -> list:
    """Indices of `samples` in length-sorted batches of TF_BATCH_SIZE.

    The one batching rule of test-split scoring and decoding: each batch
    pads only to the longest of similar lengths.
    """
    order = sorted(range(len(samples)), key=lambda i: len(samples[i].tokens))
    return [order[i:i + TF_BATCH_SIZE] for i in range(0, len(order), TF_BATCH_SIZE)]


@dataclass
class TokenScore:
    """Running next-token loss and argmax accuracy over the masked region of batches."""

    loss: float = 0.0
    correct: int = 0
    count: int = 0

    def add(self, logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> None:
        self.loss += float((ad.token_nll(logits, labels)[0] * mask).sum())
        self.correct += int(((logits.argmax(axis=-1) == labels) * mask).sum())
        self.count += int(mask.sum())

    def result(self) -> tuple[float, float, int]:
        """(mean loss, accuracy, token count)."""
        return self.loss / self.count, self.correct / self.count, self.count


def teacher_forced_metrics(model: Transformer, samples, loss_region: LossRegion) -> tuple[float, float, int]:
    """Mean next-token loss, accuracy and token count over the masked region
    (no decoding).

    Samples are scored in `length_batches`; the totals do not depend on the
    batching.
    """
    score = TokenScore()
    for batch in length_batches(samples):
        rows = [samples[i] for i in batch]
        inputs, labels, mask = batch_arrays(rows, loss_region)
        score.add(model.forward(inputs, *read_window(rows, loss_region)).data, labels, mask)
    return score.result()


def ood_weighted(scores: dict) -> tuple[dict, dict]:
    """Per-split (loss, accuracy) as (losses, accuracies) keyed by split value.

    `scores` maps each scored test Split to its answer-only (loss, accuracy,
    token count); the losses also carry "ood", the OOD splits' losses
    weighted by their answer tokens.
    """
    split_loss = {split.value: loss for split, (loss, _, _) in scores.items()}
    split_acc = {split.value: acc for split, (_, acc, _) in scores.items()}
    ood = [scores[s] for s in (Split.TEST_HOLLOW, Split.TEST_EXTRAPOLATION) if s in scores]
    ood_total = sum(n for _, _, n in ood)
    if ood_total:
        split_loss["ood"] = sum(loss * n for loss, _, n in ood) / ood_total
    return split_loss, split_acc


def split_metrics(model: Transformer, eval_sets: dict) -> tuple[dict, dict]:
    """Answer-only teacher-forced (losses, accuracies) of every test split in
    `eval_sets`, with "ood" (see `ood_weighted`)."""
    return ood_weighted({split: teacher_forced_metrics(model, samples, LossRegion.ANSWER_ONLY)
                         for split, samples in eval_sets.items()})


def _all_finite(arrays) -> bool:
    # min and max carry any NaN or inf without allocating a mask per array.
    return all(np.isfinite(a.min()) and np.isfinite(a.max()) for a in arrays)


def _snapshot(model: Transformer) -> dict:
    return {name: t.data.copy() for name, t in model.state_tensors().items()}


def train(
    model: Transformer,
    data_dir: Path,
    config: TrainConfig,
    out_dir: Path | None = None,
    verbose: bool = False,
) -> tuple[Transformer, RunLog]:
    """Run the full protocol; returns the trained model and its RunLog.

    Deterministic given config.seed.  The training loss is cross-entropy
    masked to the configured region; every eval_every epochs every test
    record is scored by `split_metrics` (decoded accuracy is the evaluator's
    job).
    """
    train_records = load_records(data_dir, Split.TRAIN)
    if not train_records:
        raise ValueError(f"no training records under {data_dir}")
    train_samples = encode_records(train_records)
    eval_sets = {}
    for split in TEST_SPLITS:
        records = load_records(data_dir, split)
        if records:
            eval_sets[split] = encode_records(records)

    embedding_before = model.embedding.data.copy()
    params = list(model.parameters().values())
    opt = AdamW(model.parameters(), config)
    runlog = RunLog()
    last_good = _snapshot(model)
    steps = 0

    for epoch in range(1, config.epochs + 1):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, epoch)))
        epoch_loss = 0.0
        n_batches = 0
        for batch in _epoch_batches(train_samples, config.batch_size, rng):
            inputs, labels, mask = batch_arrays(batch, config.loss_region)
            with ad.Tape() as tape:
                logits = model.forward(inputs, *read_window(batch, config.loss_region))
                loss = ad.cross_entropy(logits, labels, mask)
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise DivergenceError(epoch, last_good, "loss")
            tape.backward(loss)
            if not _all_finite(p.grad for p in params if p.grad is not None):
                raise DivergenceError(epoch, last_good, "gradient")
            opt.step()
            epoch_loss += loss_val
            n_batches += 1
            steps += 1

        if epoch % config.eval_every == 0 or epoch == config.epochs:
            # A finite gradient can still step a weight past float32's range.
            if not _all_finite(p.data for p in params):
                raise DivergenceError(epoch, last_good, "parameters")
            split_loss, split_acc = split_metrics(model, eval_sets)
            point = EvalPoint(epoch, epoch_loss / max(n_batches, 1), split_loss, split_acc)
            runlog.append(point)
            last_good = _snapshot(model)
            if verbose:
                print(f"epoch {epoch}: train {point.train_loss:.4f} "
                      + " ".join(f"{k} {v:.4f}" for k, v in sorted(split_loss.items())))

    if not np.array_equal(model.embedding.data, embedding_before):
        raise RuntimeError("frozen embedding moved during training")

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(model, out_dir / "model.ckpt", step=steps, master_seed=config.seed)
        runlog.save(out_dir)
    return model, runlog
