import json
import math

import numpy as np
import pytest

from coper import evaluation, training
from coper.codec import BOS_ID, VOCAB_SIZE, encode
from coper.composers import AnswerLenPolicy, ComposeRule, InvalidSpec
from coper.dataset import SampleRecord, Split, SplitPolicy, TaskParams, build_dataset, load_records
from coper.evaluation import (
    CategoryReport,
    EvalResult,
    PairAccuracyGrid,
    decode_records,
    emit_category_bar,
    emit_heatmap,
    emit_loss_curves,
    evaluate,
)
from coper.model import ConfigError, LengthError, ModelConfig, PeKind, Transformer
from coper.training import EvalPoint, RunLog

POLICY = SplitPolicy(2, 4, 2, 5, hollow=frozenset({(3, 3)}))


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    path = tmp_path_factory.mktemp("evaldata")
    build_dataset(
        ComposeRule.MOD_ADD, POLICY,
        {Split.TRAIN: 4, Split.TEST_ID: 12, Split.TEST_HOLLOW: 12, Split.TEST_EXTRAPOLATION: 12},
        23, path, answer_policy=AnswerLenPolicy(12), task_params=TaskParams())
    return path


def token_hits(pred, target) -> int:
    """The reference hit count: aligned positions where pred matches target."""
    return sum(p == t for p, t in zip(pred, target))


class AnswerModel:
    """Stands in for a `Transformer` in `evaluate`: `decode` returns zero
    logits and, for each row, `choose(prompt ids, answer length)`."""

    config = ModelConfig()

    def __init__(self, choose):
        self.choose = choose

    def decode(self, tokens, extents, firsts):
        answers = np.zeros((len(tokens), (extents - firsts).max()), dtype=np.int64)
        for row, (extent, first) in enumerate(zip(extents, firsts)):
            answers[row, :extent - first] = self.choose(tuple(tokens[row, :first + 1].tolist()),
                                                        extent - first)
        return np.zeros((*tokens.shape, VOCAB_SIZE), dtype=np.float32), answers


class TestGrid:
    def test_weighted_accuracy(self):
        grid = PairAccuracyGrid()
        grid.add((2, 3), 3, 4)
        grid.add((2, 3), 1, 4)
        assert grid.accuracy((2, 3)) == 0.5
        assert grid.accuracy((9, 9)) is None

    def test_category_average(self):
        rep = CategoryReport(0.1, 2.0, 0.9, 0.3, 0.3)
        assert rep.average == pytest.approx(0.5)

    def test_missing_category_is_left_out_of_the_average(self):
        rep = CategoryReport(0.1, 2.0, 0.9, None, 0.3)
        assert rep.average == pytest.approx(0.6)
        assert rep.to_dict()["hollow_accuracy"] is None


class TestEvaluate:
    def test_echo_predictor_scores_one_everywhere(self, data):
        targets = {}
        for split in (Split.TEST_ID, Split.TEST_HOLLOW, Split.TEST_EXTRAPOLATION):
            for rec in load_records(data, split):
                targets[(BOS_ID,) + encode(rec.input_text)] = encode(rec.target_text)

        def echo(prompt, n):
            assert n == len(targets[prompt])
            return targets[prompt]

        result = evaluate(AnswerModel(echo), data)
        assert result.report.id_accuracy == 1.0
        assert result.report.hollow_accuracy == 1.0
        assert result.report.extrapolation_accuracy == 1.0
        assert result.report.average == 1.0
        # zero logits: every answer token costs log(vocabulary size)
        assert result.report.id_loss == pytest.approx(math.log(VOCAB_SIZE))
        assert result.report.ood_loss == pytest.approx(math.log(VOCAB_SIZE))
        for grid in result.grids.values():
            for pair in grid.cells:
                assert grid.accuracy(pair) == 1.0

    def test_decode_records_batches_mixed_lengths_in_record_order(self, data, monkeypatch):
        records = [r for split in (Split.TEST_ID, Split.TEST_HOLLOW, Split.TEST_EXTRAPOLATION)
                   for r in load_records(data, split)]
        answer_len = {(BOS_ID,) + encode(r.input_text): len(r.target_text) for r in records}
        calls = []

        def repeat_prompt(prompts, n):
            calls.append(([tuple(int(v) for v in p) for p in prompts], n))
            return np.stack([np.resize(p, n) for p in prompts])

        monkeypatch.setattr(training, "TF_BATCH_SIZE", 16)
        pairs = decode_records(records, repeat_prompt)
        assert [rec for rec, _ in pairs] == records
        for rec, pred in pairs:
            prompt = (BOS_ID,) + encode(rec.input_text)
            assert pred == tuple(int(v) for v in np.resize(prompt, len(rec.target_text)))
        assert len(calls) == -(-len(records) // 16)
        assert any(len({len(p) for p in prompts}) > 1 for prompts, _ in calls)
        for prompts, n in calls:
            assert n == max(answer_len[p] for p in prompts)
        lengths = [len(p) for prompts, _ in calls for p in prompts]
        assert lengths == sorted(lengths)
        full = [len(p) + answer_len[p] for prompts, _ in calls for p in prompts]
        assert full == sorted(full)  # the scorer's rule: whole teacher-forced length

    def test_uniform_random_digits_score_near_chance(self, data):
        rng = np.random.default_rng(0)
        result = evaluate(AnswerModel(lambda prompt, n: rng.integers(0, 10, size=n)), data)
        merged = result.combined_grid()
        correct = sum(c for c, _ in merged.cells.values())
        total = sum(t for _, t in merged.cells.values())
        assert total >= 1000 * 0.1  # enough tokens for the binomial bound below
        assert abs(correct / total - 0.1) < 0.03

    def test_model_evaluation_is_deterministic(self, data):
        model = Transformer(ModelConfig(d_model=16, n_heads=2, n_layers=1, ffn_mult=2, max_seq_len=64))
        r1 = evaluate(model, data)
        r2 = evaluate(model, data)
        assert r1.report.to_dict() == r2.report.to_dict()
        assert r1.split_tf_loss == r2.split_tf_loss

    def test_evaluation_does_not_mutate_checkpoint(self, data):
        model = Transformer(ModelConfig(d_model=16, n_heads=2, n_layers=1, ffn_mult=2, max_seq_len=64))
        before = {k: t.data.copy() for k, t in model.state_tensors().items()}
        evaluate(model, data)
        for k, t in model.state_tensors().items():
            assert np.array_equal(t.data, before[k])

    def test_foreign_vocabulary_rejected(self, data, tmp_path):
        for name in ("manifest.json", "test_id.jsonl"):
            (tmp_path / name).write_bytes((data / name).read_bytes())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["files"] = {"test_id": "test_id.jsonl"}
        manifest["counts"] = {"test_id": manifest["counts"]["test_id"]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        model = Transformer(ModelConfig(d_model=16, n_heads=2, n_layers=1, ffn_mult=2, max_seq_len=64))
        assert evaluate(model, tmp_path).split_accuracy.keys() == {"test_id"}
        manifest["vocab"] = {"0": 0, "x": 1}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(InvalidSpec, match="vocabulary"):
            evaluate(model, tmp_path)

    def test_model_vocab_must_match_codec(self, data):
        model = Transformer(ModelConfig(d_model=16, n_heads=2, n_layers=1, vocab_size=18, max_seq_len=64))
        with pytest.raises(ConfigError, match="vocab"):
            evaluate(model, data)

    def test_category_matches_weighted_cells(self, data):
        rng = np.random.default_rng(1)
        result = evaluate(AnswerModel(lambda prompt, n: rng.integers(0, 10, size=n)), data)
        for split, grid in result.grids.items():
            correct = sum(c for c, _ in grid.cells.values())
            total = sum(t for _, t in grid.cells.values())
            assert result.split_accuracy[split.value] == pytest.approx(correct / total)


def _write_split(src, dst, records):
    """A dataset directory at `dst` whose only split is test_id = `records`."""
    manifest = json.loads((src / "manifest.json").read_text())
    manifest["files"] = {"test_id": "test_id.jsonl"}
    manifest["counts"] = {"test_id": len(records)}
    (dst / "manifest.json").write_text(json.dumps(manifest))
    (dst / "test_id.jsonl").write_text("".join(json.dumps(r.to_dict()) + "\n" for r in records))


def _record(input_text, target_text, cell):
    return SampleRecord(input_text, target_text, *cell, Split.TEST_ID, ComposeRule.MOD_ADD, 0)


class TestFusedEvaluate:
    """`evaluate` with a model scores and decodes each batch from one forward."""

    @pytest.mark.parametrize("kind", list(PeKind))
    def test_one_forward_per_batch_gives_the_decoded_hits_and_the_scorer_losses(
            self, data, monkeypatch, kind):
        model = Transformer(ModelConfig(d_model=16, n_heads=2, n_layers=2, ffn_mult=2,
                                        max_seq_len=64, pe_kind=kind, init_seed=4))
        splits = (Split.TEST_ID, Split.TEST_HOLLOW, Split.TEST_EXTRAPOLATION)
        records = {split: load_records(data, split) for split in splits}
        for split in (Split.TEST_ID, Split.TEST_EXTRAPOLATION):  # hollow holds one cell
            assert len({len(r.input_text) for r in records[split]}) > 1
            assert len({len(r.target_text) for r in records[split]}) > 1
        monkeypatch.setattr(training, "TF_BATCH_SIZE", 5)
        full_forwards = []
        prefill_extents = []
        prefill_firsts = []
        run = Transformer._run

        def counting(self, tokens, extents, firsts, offsets, cache=None):
            if not cache:  # a prefill: decoding steps pass the filled cache
                full_forwards.append(tokens.shape)
                prefill_extents.append(extents.tolist())
                prefill_firsts.append(firsts.tolist())
            return run(self, tokens, extents, firsts, offsets, cache)

        monkeypatch.setattr(Transformer, "_run", counting)
        result = evaluate(model, data)
        teacher_forced = []  # (rows, width) of each batch's [BOS] + input + target[:-1]
        real = []  # each batch's extents: the real length of every row
        read = []  # each batch's answer_start - 1: the first position the answer-only score reads
        for recs in records.values():
            samples = sorted(training.encode_records(recs), key=lambda s: len(s.tokens))
            lengths = [len(s.tokens) - 1 for s in samples]
            teacher_forced += [(len(lengths[i:i + 5]), lengths[i:i + 5][-1])
                               for i in range(0, len(lengths), 5)]
            real += [lengths[i:i + 5] for i in range(0, len(lengths), 5)]
            read += [[s.answer_start - 1 for s in samples[i:i + 5]] for i in range(0, len(samples), 5)]
        assert len(teacher_forced) > len(records)
        assert full_forwards == teacher_forced
        assert prefill_extents == real
        assert prefill_firsts == read
        assert any(len(set(batch)) > 1 for batch in real)
        assert any(len(set(batch)) > 1 for batch in read)

        monkeypatch.setattr(Transformer, "_run", run)
        for split, recs in records.items():
            expected = PairAccuracyGrid()
            for rec, pred in decode_records(recs, evaluation.greedy_predictor(model)):
                target = encode(rec.target_text)
                expected.add((rec.p1, rec.p2), token_hits(pred, target), len(target))
            assert result.grids[split].cells == expected.cells
        split_loss, _ = training.split_metrics(
            model, {split: training.encode_records(recs) for split, recs in records.items()})
        assert result.report.ood_loss == split_loss.pop("ood")
        assert result.split_tf_loss == split_loss

    def test_a_batch_of_records_that_each_fit_decodes(self, data, tmp_path):
        model = Transformer(ModelConfig(d_model=16, n_heads=2, n_layers=1, ffn_mult=2, max_seq_len=64))
        long_prompt = _record("1" * 48 + "=", "12345", (2, 2))        # prompt 50 + answer 5
        long_answer = _record("1234+567=", "0123456789" * 3, (3, 3))  # prompt 10 + answer 30
        _write_split(data, tmp_path, [long_prompt, long_answer])
        result = evaluate(model, tmp_path)
        for rec in (long_prompt, long_answer):
            prompt = np.asarray((BOS_ID,) + encode(rec.input_text))
            alone = model.generate_greedy([prompt], len(rec.target_text))[0]
            hits = token_hits(alone.tolist(), encode(rec.target_text))
            assert result.grids[Split.TEST_ID].cells[(rec.p1, rec.p2)] == [hits, len(rec.target_text)]

    def test_a_record_that_does_not_fit_raises(self, data, tmp_path):
        model = Transformer(ModelConfig(d_model=16, n_heads=2, n_layers=1, ffn_mult=2, max_seq_len=64))
        fits = _record("1234+567=", "0123456789", (3, 3))
        too_long = _record("1" * 38 + "=", "1" * 25, (2, 2))  # prompt 40 + answer 25 > 64
        _write_split(data, tmp_path, [fits, too_long])
        with pytest.raises(LengthError, match="40 \\+ 25"):
            evaluate(model, tmp_path)


class TestEmission:
    def grid(self):
        g = PairAccuracyGrid()
        g.add((2, 2), 4, 4)
        g.add((2, 3), 0, 4)
        g.add((3, 2), 2, 4)
        g.add((3, 3), 1, 4)
        return g

    def test_heatmap_csv_rows(self, tmp_path):
        emit_heatmap(self.grid(), tmp_path / "h.csv", tmp_path / "h.svg")
        rows = (tmp_path / "h.csv").read_text().splitlines()
        assert rows[0] == "p1,p2,correct,total,accuracy"
        assert len(rows) == 5
        assert rows[1] == "2,2,4,4,1.000000"

    def test_heatmap_blank_cells_not_rendered_as_zero(self, tmp_path):
        g = PairAccuracyGrid()
        g.add((2, 2), 1, 2)
        g.add((4, 4), 1, 2)  # (2,4),(4,2),(3,*) never sampled
        emit_heatmap(g, tmp_path / "h.csv", tmp_path / "h.svg")
        svg = (tmp_path / "h.svg").read_text()
        assert svg.count("<rect") >= 2
        # only sampled pairs get cells (legend swatches aside)
        assert svg.count("<title>") == 2

    def test_heatmap_deterministic_bytes(self, tmp_path):
        emit_heatmap(self.grid(), tmp_path / "a.csv", tmp_path / "a.svg")
        emit_heatmap(self.grid(), tmp_path / "b.csv", tmp_path / "b.svg")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_category_bar(self, tmp_path):
        reports = [("rope", CategoryReport(0.2, 2.2, 0.95, 0.4, 0.2)),
                   ("sinpe", CategoryReport(0.3, 2.5, 0.93, 0.2, 0.1))]
        emit_category_bar(reports, tmp_path / "c.csv", tmp_path / "c.svg")
        rows = (tmp_path / "c.csv").read_text().splitlines()
        assert rows[0] == "model,split,loss,accuracy"
        assert len(rows) == 11
        assert (tmp_path / "c.svg").read_text().count("<rect") == 6

    def test_loss_curves(self, tmp_path):
        log = RunLog()
        log.append(EvalPoint(1, 2.0, {"test_id": 2.1, "ood": 2.4}, {"test_id": 0.2}))
        log.append(EvalPoint(2, 1.0, {"test_id": 1.4, "ood": 2.2}, {"test_id": 0.5}))
        emit_loss_curves(log, tmp_path / "l.csv", tmp_path / "l.svg")
        rows = (tmp_path / "l.csv").read_text().splitlines()
        assert rows[0] == "epoch,split,loss"
        assert len(rows) == 7
        svg = (tmp_path / "l.svg").read_text()
        assert svg.count("<polyline") == 3
