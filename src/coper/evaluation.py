"""Decoded evaluation and report emission.

Greedy-decodes every test sample, scores token-wise accuracy into a
per-(P1, P2) grid, summarizes the three categories, and renders the
results as CSV plus self-contained SVG (heatmap, category bars, loss
curves).  Each length-sorted test batch takes one forward over its
teacher-forced tokens: that forward gives the answer-only loss and fills
the key/value cache that greedy decoding continues from
(`Transformer.decode`), and each decoded answer is scored against the
labels the loss reads.  Output bytes are deterministic: fixed float
formatting, no timestamps, no external assets.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .codec import VOCAB_SIZE
from .dataset import TEST_SPLITS, Split, load_records
from .model import ConfigError, Transformer, write_atomic
from .training import (LossRegion, TokenScore, batch_arrays, encode_records, length_batches,
                       ood_weighted, read_window)


@dataclass
class PairAccuracyGrid:
    """(p1, p2) -> [correct token count, total token count]."""

    cells: dict = field(default_factory=dict)

    def add(self, pair, correct: int, total: int) -> None:
        cell = self.cells.setdefault(tuple(pair), [0, 0])
        cell[0] += int(correct)
        cell[1] += int(total)

    def accuracy(self, pair) -> float | None:
        cell = self.cells.get(tuple(pair))
        if cell is None or cell[1] == 0:
            return None
        return cell[0] / cell[1]


@dataclass
class CategoryReport:
    """Table-shaped summary: ID/OOD losses plus per-category decoded accuracy.

    A value is None when the dataset lacks its splits.
    """

    id_loss: float | None
    ood_loss: float | None
    id_accuracy: float | None
    hollow_accuracy: float | None
    extrapolation_accuracy: float | None

    @property
    def average(self) -> float | None:
        """Mean accuracy of the categories present."""
        present = [a for a in (self.id_accuracy, self.hollow_accuracy, self.extrapolation_accuracy)
                   if a is not None]
        return sum(present) / len(present) if present else None

    def to_dict(self) -> dict:
        return {**asdict(self), "average": self.average}


@dataclass
class EvalResult:
    grids: dict                 # Split -> PairAccuracyGrid
    report: CategoryReport
    split_accuracy: dict        # Split.value -> decoded accuracy
    split_tf_loss: dict         # Split.value -> teacher-forced loss

    def to_dict(self) -> dict:
        """The report.json schema."""
        return {"report": self.report.to_dict(), "split_accuracy": self.split_accuracy,
                "split_tf_loss": self.split_tf_loss}

    def combined_grid(self) -> PairAccuracyGrid:
        merged = PairAccuracyGrid()
        for grid in self.grids.values():
            for pair, (c, t) in grid.cells.items():
                merged.add(pair, c, t)
        return merged


def greedy_predictor(model: Transformer):
    """A `decode_records` predictor: the model's greedy continuation."""
    return model.generate_greedy


def decode_records(records, predictor):
    """Greedy-decode records through `predictor` in the scorer's `length_batches`.

    The predictor gets each batch's prompts as a list of 1-D id arrays and
    the batch's longest answer length; each row is then cut to its own
    answer length.  Returns (record, predicted ids) in the original record
    order.
    """
    samples = encode_records(records)
    out = [None] * len(records)
    for batch in length_batches(samples):
        prompts = [samples[j].tokens[:samples[j].answer_start].astype(np.int64) for j in batch]
        preds = predictor(prompts, max(len(records[j].target_text) for j in batch))
        for row, j in enumerate(batch):
            out[j] = tuple(int(v) for v in preds[row][:len(records[j].target_text)])
    return list(zip(records, out))


def _decode_and_score(model: Transformer, samples) -> tuple[list, tuple[float, float, int]]:
    """Each of `samples`' greedy answer hits, in order, and their answer-only
    (loss, accuracy, token count).

    One `Transformer.decode` per length-sorted batch: its forward over the
    teacher-forced tokens is scored exactly as `teacher_forced_metrics`
    scores it, and decoding continues from that forward's cache.  A row's
    hits are the answer positions where the decoded id equals the label
    that the answer-only loss reads there.
    """
    score = TokenScore()
    hits = [0] * len(samples)
    for batch in length_batches(samples):
        rows = [samples[j] for j in batch]
        inputs, labels, mask = batch_arrays(rows, LossRegion.ANSWER_ONLY)
        extents, firsts = read_window(rows, LossRegion.ANSWER_ONLY)
        logits, decoded = model.decode(inputs, extents, firsts)
        score.add(logits, labels, mask)
        for row, j in enumerate(batch):
            n = extents[row] - firsts[row]
            hits[j] = np.count_nonzero(decoded[row, :n] == labels[row, firsts[row]:extents[row]])
    return hits, score.result()


def evaluate(model: Transformer, data_dir: Path) -> EvalResult:
    """Decoded accuracy per (P1, P2) pair and per category, plus the
    answer-only teacher-forced losses that `training.split_metrics` reports.

    Each test batch is scored and decoded from one forward
    (`_decode_and_score`).  Loading each split rejects a dataset whose
    manifest has a foreign format or vocabulary.
    """
    if model.config.vocab_size != VOCAB_SIZE:
        raise ConfigError(f"model vocab {model.config.vocab_size} != codec vocab {VOCAB_SIZE}")

    grids: dict = {}
    split_accuracy: dict = {}
    scores: dict = {}
    for split in TEST_SPLITS:
        records = load_records(data_dir, split)
        if not records:
            continue
        hits, scores[split] = _decode_and_score(model, encode_records(records))
        grid = PairAccuracyGrid()
        for rec, n in zip(records, hits):
            grid.add((rec.p1, rec.p2), n, len(rec.target_text))
        grids[split] = grid
        cells = grid.cells.values()
        split_accuracy[split.value] = sum(c for c, _ in cells) / sum(t for _, t in cells)

    split_tf_loss, _ = ood_weighted(scores)
    ood_loss = split_tf_loss.pop("ood", None)
    report = CategoryReport(
        id_loss=split_tf_loss.get(Split.TEST_ID.value),
        ood_loss=ood_loss,
        id_accuracy=split_accuracy.get(Split.TEST_ID.value),
        hollow_accuracy=split_accuracy.get(Split.TEST_HOLLOW.value),
        extrapolation_accuracy=split_accuracy.get(Split.TEST_EXTRAPOLATION.value),
    )
    return EvalResult(grids, report, split_accuracy, split_tf_loss)


# ---------------------------------------------------------------------------
# Deterministic CSV + SVG emission
# ---------------------------------------------------------------------------

_DARK = (13, 35, 57)      # accuracy 0
_LIGHT = (237, 246, 252)  # accuracy 1


def _color(acc: float) -> str:
    acc = min(max(acc, 0.0), 1.0)
    r, g, b = (round(d + (l - d) * acc) for d, l in zip(_DARK, _LIGHT))
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg(width: int, height: int, body: list) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">')
    return head + "\n" + "\n".join(body) + "\n</svg>\n"


def _legend(x: int, y: int, height: int) -> list:
    body = [f'<text x="{x}" y="{y - 6}">acc</text>']
    steps = 24
    for i in range(steps):
        frac = 1.0 - i / (steps - 1)
        body.append(f'<rect x="{x}" y="{y + i * height // steps}" width="14" '
                    f'height="{height // steps + 1}" fill="{_color(frac)}"/>')
    for frac, label in ((1.0, "1.0"), (0.5, "0.5"), (0.0, "0.0")):
        yy = y + round((1.0 - frac) * height)
        body.append(f'<text x="{x + 18}" y="{yy + 4}">{label}</text>')
    return body


def emit_heatmap(grid: PairAccuracyGrid, csv_path: Path, svg_path: Path) -> None:
    """Row-major CSV plus an SVG grid; never-sampled pairs stay blank."""
    rows = sorted(grid.cells)
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["p1", "p2", "correct", "total", "accuracy"])
    for pair in rows:
        c, t = grid.cells[pair]
        writer.writerow([pair[0], pair[1], c, t, f"{c / t:.6f}" if t else ""])
    write_atomic(csv_path, fh.getvalue())

    if rows:
        p1_lo = min(p for p, _ in rows)
        p1_hi = max(p for p, _ in rows)
        p2_lo = min(p for _, p in rows)
        p2_hi = max(p for _, p in rows)
    else:
        p1_lo = p1_hi = p2_lo = p2_hi = 0
    cell = 26
    left, top = 46, 34
    ncols = p1_hi - p1_lo + 1
    nrows = p2_hi - p2_lo + 1
    body = [f'<text x="{left}" y="16">accuracy</text>']
    for (p1, p2) in rows:
        acc = grid.accuracy((p1, p2))
        x = left + (p1 - p1_lo) * cell
        y = top + (p2 - p2_lo) * cell
        body.append(f'<rect x="{x}" y="{y}" width="{cell - 2}" height="{cell - 2}" '
                    f'fill="{_color(acc)}"><title>({p1},{p2}) {acc:.3f}</title></rect>')
    for p1 in range(p1_lo, p1_hi + 1):
        body.append(f'<text x="{left + (p1 - p1_lo) * cell + 4}" '
                    f'y="{top + nrows * cell + 14}">{p1}</text>')
    for p2 in range(p2_lo, p2_hi + 1):
        body.append(f'<text x="{left - 24}" y="{top + (p2 - p2_lo) * cell + 16}">{p2}</text>')
    body.append(f'<text x="{left + max(ncols, 1) * cell // 2 - 6}" '
                f'y="{top + nrows * cell + 30}">p1</text>')
    body.append(f'<text x="10" y="{top + nrows * cell // 2}">p2</text>')
    body += _legend(left + ncols * cell + 16, top, max(nrows * cell - 4, 40))
    width = left + ncols * cell + 90
    height = top + nrows * cell + 40
    write_atomic(svg_path, _svg(width, height, body))


def _cell(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def emit_category_bar(named_reports: list, csv_path: Path, svg_path: Path) -> None:
    """named_reports: [(name, CategoryReport), ...] -> CSV + grouped bars.

    A category the dataset lacks is a blank cell and draws no bar.
    """
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["model", "split", "loss", "accuracy"])
    for name, rep in named_reports:
        writer.writerow([name, "id", _cell(rep.id_loss), _cell(rep.id_accuracy)])
        writer.writerow([name, "hollow", "", _cell(rep.hollow_accuracy)])
        writer.writerow([name, "extrapolation", "", _cell(rep.extrapolation_accuracy)])
        writer.writerow([name, "ood", _cell(rep.ood_loss), ""])
        writer.writerow([name, "average", "", _cell(rep.average)])
    write_atomic(csv_path, fh.getvalue())

    bar_w, gap, group_gap, top, bottom, left = 34, 6, 30, 30, 46, 40
    chart_h = 160
    colors = {"id": "#2f6f9f", "hollow": "#c07f2d", "extrapolation": "#9f2f4f"}
    body = []
    x = left
    for name, rep in named_reports:
        for split, acc in (("id", rep.id_accuracy), ("hollow", rep.hollow_accuracy),
                           ("extrapolation", rep.extrapolation_accuracy)):
            if acc is not None:
                h = round(acc * chart_h)
                body.append(f'<rect x="{x}" y="{top + chart_h - h}" width="{bar_w}" height="{h}" '
                            f'fill="{colors[split]}"><title>{name} {split} {acc:.3f}</title></rect>')
            body.append(f'<text x="{x}" y="{top + chart_h + 14}" font-size="9">{split[:3]}</text>')
            x += bar_w + gap
        body.append(f'<text x="{x - 3 * (bar_w + gap)}" y="{top + chart_h + 28}">{name}</text>')
        x += group_gap
    for frac in (0.0, 0.5, 1.0):
        y = top + chart_h - round(frac * chart_h)
        body.append(f'<line x1="{left - 4}" y1="{y}" x2="{x}" y2="{y}" '
                    f'stroke="#999" stroke-dasharray="2,3"/>')
        body.append(f'<text x="6" y="{y + 4}">{frac:.1f}</text>')
    write_atomic(svg_path, _svg(x + 20, top + chart_h + bottom, body))


def emit_loss_curves(runlog, csv_path: Path, svg_path: Path) -> None:
    """CSV (epoch, split, loss) and an SVG line chart of ID vs OOD losses."""
    series: dict = {}
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["epoch", "split", "loss"])
    for pt in runlog.points:
        writer.writerow([pt.epoch, "train", f"{pt.train_loss:.6f}"])
        series.setdefault("train", []).append((pt.epoch, pt.train_loss))
        for split, loss in sorted(pt.split_loss.items()):
            writer.writerow([pt.epoch, split, f"{loss:.6f}"])
            series.setdefault(split, []).append((pt.epoch, loss))
    write_atomic(csv_path, fh.getvalue())

    width, height, left, top = 420, 220, 46, 16
    chart_w, chart_h = width - left - 110, height - top - 36
    all_pts = [v for pts in series.values() for _, v in pts]
    all_ep = [e for pts in series.values() for e, _ in pts]
    if not all_pts:
        write_atomic(svg_path, _svg(width, height, ['<text x="10" y="20">no data</text>']))
        return
    lo, hi = min(all_pts), max(all_pts)
    e_lo, e_hi = min(all_ep), max(all_ep)
    span = (hi - lo) or 1.0
    e_span = (e_hi - e_lo) or 1

    def xy(epoch, loss):
        x = left + (epoch - e_lo) / e_span * chart_w
        y = top + (1.0 - (loss - lo) / span) * chart_h
        return f"{x:.1f},{y:.1f}"

    palette = ["#2f6f9f", "#c07f2d", "#9f2f4f", "#3f8f5f", "#555555"]
    body = []
    for i, (name, pts) in enumerate(sorted(series.items())):
        color = palette[i % len(palette)]
        path = " ".join(xy(e, v) for e, v in pts)
        body.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        body.append(f'<text x="{width - 100}" y="{top + 14 + 14 * i}" fill="{color}">{name}</text>')
    body.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + chart_h}" stroke="#333"/>')
    body.append(f'<line x1="{left}" y1="{top + chart_h}" x2="{left + chart_w}" '
                f'y2="{top + chart_h}" stroke="#333"/>')
    body.append(f'<text x="6" y="{top + 8}">{hi:.2f}</text>')
    body.append(f'<text x="6" y="{top + chart_h}">{lo:.2f}</text>')
    body.append(f'<text x="{left}" y="{height - 8}">epoch {e_lo}..{e_hi}</text>')
    write_atomic(svg_path, _svg(width, height, body))
