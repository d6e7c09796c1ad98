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
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .codec import BOS_ID, PAD_ID, encode
from .dataset import SampleRecord, Split, load_records
from .model import ModelConfig, Transformer, save_checkpoint


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss; carries the last good parameters."""

    def __init__(self, epoch: int, state: dict):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch
        self.state = state


class LossRegion(str, Enum):
    ANSWER_ONLY = "answer_only"
    FULL_SEQUENCE = "full_sequence"


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 1e-5
    weight_decay: float = 0.01
    epochs: int = 450
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    loss_region: LossRegion = LossRegion.ANSWER_ONLY
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.weight_decay < 0 or self.eps <= 0:
            raise ValueError("rates must be positive")
        if self.epochs < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("epochs, batch_size, and eval_every must be >= 1")

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        """Small-model budget: a 64-wide transformer needs a larger step size
        than the full-scale defaults are tuned for."""
        base = dict(batch_size=64, learning_rate=3e-4, epochs=40, eval_every=2)
        base.update(overrides)
        return cls(**base)

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["loss_region"] = self.loss_region.value
        return d


@dataclass
class EncodedSample:
    tokens: np.ndarray      # [BOS] + input ids + target ids
    answer_start: int       # index of the first target token in `tokens`
    p1: int
    p2: int


def encode_record(rec: SampleRecord) -> EncodedSample:
    ids = (BOS_ID,) + encode(rec.input_text) + encode(rec.target_text)
    return EncodedSample(np.asarray(ids, dtype=np.int16), 1 + len(rec.input_text), rec.p1, rec.p2)


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
    for i, s in enumerate(samples):
        n = len(s.tokens)
        tokens[i, :n] = s.tokens
        start = s.answer_start if loss_region is LossRegion.ANSWER_ONLY else 1
        mask[i, start - 1:n - 1] = 1.0
    return tokens[:, :-1], tokens[:, 1:].astype(np.int64), mask


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

    @property
    def ood_loss(self):
        return self.split_loss.get("ood")


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

    def to_dict(self) -> dict:
        return {
            "points": [
                {"epoch": pt.epoch, "train_loss": pt.train_loss,
                 "split_loss": pt.split_loss, "split_accuracy": pt.split_accuracy}
                for pt in self.points
            ]
        }

    @classmethod
    def from_csv_text(cls, text: str) -> "RunLog":
        rows = list(csv.reader(io.StringIO(text)))
        by_epoch: dict[int, EvalPoint] = {}
        for epoch_s, split, loss_s, acc_s in rows[1:]:
            epoch = int(epoch_s)
            pt = by_epoch.setdefault(epoch, EvalPoint(epoch, float("nan"), {}, {}))
            if split == "train":
                pt.train_loss = float(loss_s)
            else:
                pt.split_loss[split] = float(loss_s)
                if acc_s:
                    pt.split_accuracy[split] = float(acc_s)
        log = cls()
        for epoch in sorted(by_epoch):
            log.append(by_epoch[epoch])
        return log

    def save(self, out_dir: Path, stem: str = "runlog") -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{stem}.csv").write_text(self.to_csv_text())
        (out_dir / f"{stem}.json").write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")


class AdamW:
    """Adam with decoupled weight decay (decay hits weights, not moments)."""

    def __init__(self, params: dict, config: TrainConfig):
        self._items = sorted(params.items())
        self._cfg = config
        self._m = {name: np.zeros_like(t.data) for name, t in self._items}
        self._v = {name: np.zeros_like(t.data) for name, t in self._items}
        self._t = 0

    def step(self) -> None:
        cfg = self._cfg
        self._t += 1
        bc1 = 1.0 - cfg.beta1**self._t
        bc2 = 1.0 - cfg.beta2**self._t
        for name, p in self._items:
            g = p.grad
            if g is None:
                continue
            m, v = self._m[name], self._v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
            p.data -= cfg.learning_rate * (update + cfg.weight_decay * p.data)
            p.grad = None


def teacher_forced_metrics(model: Transformer, samples, loss_region: LossRegion,
                           batch_size: int = 128) -> tuple[float, float]:
    """Mean next-token loss and accuracy over the masked region (no decoding).

    Samples are batched in length order, so each batch pads only to the
    longest of similar lengths; the totals do not depend on the batching.
    """
    samples = sorted(samples, key=lambda s: len(s.tokens))
    total_loss = 0.0
    total_correct = 0
    total = 0
    for i in range(0, len(samples), batch_size):
        inputs, labels, mask = batch_arrays(samples[i:i + batch_size], loss_region)
        logits = model.forward(inputs).data
        shifted = logits - logits.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=-1, dtype=np.float64))
        picked = np.take_along_axis(shifted, labels[..., None], axis=-1)[..., 0]
        total_loss += float(((lse - picked) * mask).sum())
        pred = logits.argmax(axis=-1)
        total_correct += int(((pred == labels) * mask).sum())
        total += int(mask.sum())
    return total_loss / total, total_correct / total


def _snapshot(model: Transformer) -> dict:
    return {name: t.data.copy() for name, t in model.state_tensors().items()}


def train(
    model: Transformer,
    data_dir: Path,
    config: TrainConfig,
    out_dir: Path | None = None,
    eval_max_samples: int = 512,
    verbose: bool = False,
) -> tuple[Transformer, RunLog]:
    """Run the full protocol; returns the trained model and its RunLog.

    Deterministic given config.seed.  Losses use cross-entropy masked to the
    configured region; every eval_every epochs the ID and OOD test splits
    are scored teacher-forced (decoded accuracy is the evaluator's job).
    """
    train_records = load_records(data_dir, Split.TRAIN)
    if not train_records:
        raise ValueError(f"no training records under {data_dir}")
    train_samples = encode_records(train_records)
    eval_sets = {}
    for split in (Split.TEST_ID, Split.TEST_HOLLOW, Split.TEST_EXTRAPOLATION):
        records = load_records(data_dir, split)
        if records:
            eval_sets[split] = encode_records(records[:eval_max_samples])

    embedding_before = model.embedding.data.copy()
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
                loss = ad.cross_entropy(model.forward(inputs), labels, mask)
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise DivergenceError(epoch, last_good)
            tape.backward(loss)
            opt.step()
            epoch_loss += loss_val
            n_batches += 1
            steps += 1

        if epoch % config.eval_every == 0 or epoch == config.epochs:
            split_loss, split_acc = {}, {}
            ood_loss_sum, ood_n = 0.0, 0
            for split, samples in eval_sets.items():
                loss_v, acc_v = teacher_forced_metrics(model, samples, config.loss_region)
                split_loss[split.value] = loss_v
                split_acc[split.value] = acc_v
                if split is not Split.TEST_ID:
                    ood_loss_sum += loss_v * len(samples)
                    ood_n += len(samples)
            if ood_n:
                split_loss["ood"] = ood_loss_sum / ood_n
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


@dataclass
class MultiSeedReport:
    seeds: list
    per_seed: list          # final-point metric dicts, one per seed
    mean: dict              # elementwise mean of those metrics
    runlogs: list

    def to_dict(self) -> dict:
        return {"seeds": self.seeds, "per_seed": self.per_seed, "mean": self.mean}


def _final_metrics(runlog: RunLog) -> dict:
    pt = runlog.final
    out = {"train_loss": pt.train_loss}
    for split, loss in pt.split_loss.items():
        out[f"loss/{split}"] = loss
    for split, acc in pt.split_accuracy.items():
        out[f"accuracy/{split}"] = acc
    return out


def multi_seed(
    model_config: ModelConfig,
    data_dir: Path,
    config: TrainConfig,
    seeds: list,
    out_dir: Path | None = None,
) -> MultiSeedReport:
    """Train once per seed (seed drives init and batching) and average."""
    if not seeds:
        raise ValueError("need at least one seed")
    per_seed, runlogs = [], []
    for seed in seeds:
        model = Transformer(replace(model_config, init_seed=seed))
        seed_dir = None if out_dir is None else Path(out_dir) / f"seed_{seed}"
        _, runlog = train(model, data_dir, replace(config, seed=seed), seed_dir)
        per_seed.append(_final_metrics(runlog))
        runlogs.append(runlog)
    keys = sorted(set().union(*per_seed))
    mean = {k: float(np.mean([m[k] for m in per_seed if k in m])) for k in keys}
    report = MultiSeedReport(list(seeds), per_seed, mean, runlogs)
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "summary.json").write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    return report
