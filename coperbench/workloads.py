"""The benchmark's workloads: corpus make-up, set-up and one timed pass.

Every workload builds its corpus with `dataset.build_dataset` from the run's
seed, checks it with `verify_dataset`, and then keeps a fixed number of
records per (P1, P2) cell.  Sequence length is a function of the cell alone
for the composite tasks, so the kept corpus has the same length make-up, and
so the same work per pass, for every seed; only the digits change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from coper import autodiff as ad
from coper import dataset, evaluation, model, profiles, training
from coper.codec import BOS_ID, encode
from coper.dataset import Split

import checks

TEST_SPLITS = (Split.TEST_ID, Split.TEST_HOLLOW, Split.TEST_EXTRAPOLATION)
# The batch order is fixed for every seed: the order in which batches of
# different shapes are freed decides heap fragmentation, which moved the peak
# RSS of one corpus make-up between 550 and 770 MB from seed to seed.
BATCH_ORDER_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    pe: model.PeKind
    kind: str              # "train": one `training.train` epoch; "decode": one `evaluate`
    build_counts: dict     # Split -> records generated per set-up
    keep: dict             # Split -> (records kept per cell, keep every n-th cell)


# Build counts give every kept cell an expected 20+ records for its quota of
# at most 4 (Poisson tail per cell below 1e-7), so the quota is met on every
# seed; single-period uses its desk counts, which already do.
WORKLOADS = {w.name: w for w in (
    # Long, varied mod-add sequences: attention (S^2), GEMMs and padding dominate.
    Workload(
        "pair-train", "coper-default", model.PeKind.ROPE, "train",
        {Split.TRAIN: 1200, Split.TEST_ID: 1000, Split.TEST_HOLLOW: 40,
         Split.TEST_EXTRAPOLATION: 1050},
        {Split.TRAIN: (4, 1), Split.TEST_ID: (1, 1), Split.TEST_HOLLOW: (4, 1),
         Split.TEST_EXTRAPOLATION: (1, 1)}),
    # Short continuation sequences without a rotary op: per-op overhead dominates.
    Workload(
        "single-train", "single-period", model.PeKind.SINPE, "train",
        {Split.TRAIN: 2000, Split.TEST_ID: 600, Split.TEST_HOLLOW: 400,
         Split.TEST_EXTRAPOLATION: 600},
        {Split.TRAIN: (64, 1), Split.TEST_ID: (16, 1), Split.TEST_HOLLOW: (16, 1),
         Split.TEST_EXTRAPOLATION: (16, 1)}),
    # Tape-free greedy decoding in many small length groups, no backward pass.
    Workload(
        "pair-decode", "coper-default", model.PeKind.ROPE, "decode",
        {Split.TEST_ID: 1000, Split.TEST_HOLLOW: 40, Split.TEST_EXTRAPOLATION: 1050},
        {Split.TEST_ID: (1, 4), Split.TEST_HOLLOW: (2, 1), Split.TEST_EXTRAPOLATION: (1, 4)}),
)}


class QuotaError(RuntimeError):
    """A built corpus holds fewer records of a cell than the workload keeps."""


def keep_cells(records: list, per_cell: int, stride: int) -> list:
    """The first `per_cell` records of every `stride`-th (P1, P2) cell, in file order."""
    cells = sorted({(r.p1, r.p2) for r in records})[::stride]
    taken = {cell: 0 for cell in cells}
    kept = []
    for rec in records:
        cell = (rec.p1, rec.p2)
        if cell in taken and taken[cell] < per_cell:
            taken[cell] += 1
            kept.append(rec)
    short = [cell for cell, n in taken.items() if n < per_cell]
    if short:
        raise QuotaError(f"cells {short} hold fewer than {per_cell} records")
    return kept


def write_kept(built_dir: Path, out_dir: Path, keep: dict) -> dict:
    """Write the kept records of each split as a dataset directory; returns them."""
    manifest = dataset.DatasetManifest.load(built_dir / "manifest.json")
    out_dir.mkdir(parents=True, exist_ok=True)
    kept = {}
    for split, (per_cell, stride) in keep.items():
        kept[split] = keep_cells(dataset.load_records(built_dir, split), per_cell, stride)
        lines = [json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")) for r in kept[split]]
        (out_dir / manifest.files[split]).write_text("\n".join(lines) + "\n")
    manifest.counts = {split: len(recs) for split, recs in kept.items()}
    manifest.files = {split: manifest.files[split] for split in kept}
    manifest.save(out_dir / "manifest.json")
    return kept


@dataclass
class Prepared:
    """What one set-up leaves for the timed passes and the checks."""

    workload: Workload
    seed: int
    settings: profiles.ProfileSettings
    built_dir: Path
    data_dir: Path
    records: dict          # Split -> kept records
    model: model.Transformer

    def train_config(self) -> training.TrainConfig:
        return replace(self.settings.train, epochs=1, eval_every=1, seed=BATCH_ORDER_SEED)

    def tokens_per_pass(self) -> int:
        """Real tokens a pass trains on, or answer tokens a pass decodes."""
        if self.workload.kind == "train":
            return sum(len(r.input_text) + len(r.target_text) for r in self.records[Split.TRAIN])
        return sum(len(r.target_text) for s in TEST_SPLITS for r in self.records.get(s, []))


def seeded_model(settings: profiles.ProfileSettings, pe: model.PeKind, seed: int) -> model.Transformer:
    return model.Transformer(replace(settings.model, pe_kind=pe, init_seed=seed))


def set_up(workload: Workload, seed: int, work_dir: Path) -> Prepared:
    """Build and verify the corpus, keep the fixed make-up, build and warm the model."""
    profile = profiles.get_profile(workload.profile)
    settings = profile.settings("desk")
    built_dir = work_dir / "built"
    dataset.build_dataset(profile.rule, settings.policy, workload.build_counts, seed, built_dir,
                          answer_policy=settings.answer_policy, task_params=settings.task_params)
    report = dataset.verify_dataset(built_dir)
    if not report.passed:
        first = report.first_failure()
        raise RuntimeError(f"corpus failed verification at {first.file}:{first.line_no}: {first.reason}")
    data_dir = work_dir / "data"
    records = write_kept(built_dir, data_dir, workload.keep)
    prepared = Prepared(workload, seed, settings, built_dir, data_dir, records,
                        seeded_model(settings, workload.pe, seed))
    _warm_up(prepared)
    return prepared


def _warm_up(p: Prepared) -> None:
    """One step's worth of the pass's largest shapes, so first-touch costs leave the passes."""
    if p.workload.kind == "train":
        samples = training.encode_records(p.records[Split.TRAIN])
        longest = sorted(samples, key=lambda s: len(s.tokens))[-p.train_config().batch_size:]
        inputs, labels, mask = training.batch_arrays(longest, p.train_config().loss_region)
        with ad.Tape() as tape:
            loss = ad.cross_entropy(p.model.forward(inputs), labels, mask)
        tape.backward(loss)
        for t in p.model.parameters().values():
            t.grad = None
    else:
        rec = max(p.records[Split.TEST_EXTRAPOLATION], key=lambda r: len(r.input_text))
        p.model.generate_greedy(np.asarray([(BOS_ID,) + encode(rec.input_text)]), 1)


def run_pass(p: Prepared):
    """One timed operation: a one-epoch `train` call, or one `evaluate` call."""
    if p.workload.kind == "train":
        return training.train(p.model, p.data_dir, p.train_config())
    return evaluation.evaluate(p.model, p.data_dir)


def check(p: Prepared, result) -> tuple[list, list]:
    """Every check of checks.py that applies to the workload: (failures, ties)."""
    built = [r for s in p.workload.build_counts for r in dataset.load_records(p.built_dir, s)]
    failures = checks.target_failures(built, p.settings.answer_policy.max_len)
    tests = {s.value: p.records[s] for s in TEST_SPLITS if s in p.records}
    if p.workload.kind == "train":
        _, runlog = result
        reported = {k: v for k, v in runlog.final.split_loss.items() if k in tests}
        failures += checks.loss_failures(p.model, tests, reported)
        initial = seeded_model(p.settings, p.workload.pe, p.seed)
        failures += checks.learning_failures(
            checks.reference_tf_loss(initial, tests[Split.TEST_ID.value]), runlog.final.id_loss)
        grad_records = p.records[Split.TRAIN]
    else:
        failures += checks.loss_failures(p.model, tests, result.split_tf_loss)
        grad_records = p.records[Split.TEST_ID]
    first = grad_records[0]
    same_length = [r for r in grad_records if len(r.input_text) + len(r.target_text)
                   == len(first.input_text) + len(first.target_text)][:4]
    failures += checks.gradient_failures(p.model, same_length, np.random.default_rng(p.seed))
    ties = []
    if p.workload.kind == "decode":
        # A fixed subset of cells: the first, middle and last of each split.
        for split in TEST_SPLITS:
            cells = sorted({(r.p1, r.p2) for r in p.records[split]})
            chosen = {cells[0], cells[len(cells) // 2], cells[-1]}
            hits = {cell: result.grids[split].cells[cell][0] for cell in chosen}
            f, t = checks.decode_failures(
                p.model, [r for r in p.records[split] if (r.p1, r.p2) in chosen], hits)
            failures += f
            ties += t
    return failures, ties
