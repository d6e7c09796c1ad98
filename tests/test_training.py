import numpy as np
import pytest

from coper import training
from coper.composers import AnswerLenPolicy, ComposeRule
from coper.dataset import SampleRecord, Split, SplitPolicy, build_dataset, load_records
from coper.model import ModelConfig, Transformer, load_checkpoint
from coper.training import (
    LossRegion,
    RunLog,
    TrainConfig,
    batch_arrays,
    encode_record,
    encode_records,
    multi_seed,
    teacher_forced_metrics,
    train,
)

TINY_MODEL = ModelConfig(d_model=16, n_heads=2, n_layers=1, ffn_mult=2, max_seq_len=64)
POLICY = SplitPolicy(2, 4, 2, 5, hollow=frozenset({(3, 3)}))


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    build_dataset(
        ComposeRule.MOD_ADD, POLICY,
        {Split.TRAIN: 24, Split.TEST_ID: 8, Split.TEST_HOLLOW: 8, Split.TEST_EXTRAPOLATION: 8},
        11, path, answer_policy=AnswerLenPolicy.capped(12))
    return path


class TestEncoding:
    def test_layout(self):
        rec = SampleRecord("12+34=", "46", 2, 2, Split.TRAIN, ComposeRule.MOD_ADD, 0)
        enc = encode_record(rec)
        assert enc.tokens.tolist() == [15, 1, 2, 10, 3, 4, 12, 4, 6]
        assert enc.answer_start == 7

    def test_answer_only_mask_selects_answer(self):
        rec = SampleRecord("12+34=", "46", 2, 2, Split.TRAIN, ComposeRule.MOD_ADD, 0)
        inputs, labels, mask = batch_arrays([encode_record(rec)], LossRegion.ANSWER_ONLY)
        # Active label positions should be exactly the two answer tokens.
        active = labels[0][mask[0] == 1.0].tolist()
        assert active == [4, 6]
        assert inputs.shape[1] == labels.shape[1] == mask.shape[1]

    def test_full_sequence_mask_covers_real_tokens(self):
        rec = SampleRecord("12+34=", "46", 2, 2, Split.TRAIN, ComposeRule.MOD_ADD, 0)
        _, labels, mask = batch_arrays([encode_record(rec)], LossRegion.FULL_SEQUENCE)
        assert mask[0].sum() == 8  # all tokens after BOS

    def test_padding_masked_out(self):
        recs = [
            SampleRecord("12+34=", "46", 2, 2, Split.TRAIN, ComposeRule.MOD_ADD, 0),
            SampleRecord("1+1=", "2", 1, 1, Split.TRAIN, ComposeRule.MOD_ADD, 1),
        ]
        inputs, labels, mask = batch_arrays(encode_records(recs), LossRegion.ANSWER_ONLY)
        assert inputs.shape == (2, 8)
        assert mask[1].sum() == 1.0

    def test_prompt_label_perturbation_never_changes_loss(self):
        from coper import autodiff as ad

        rec = SampleRecord("12+34=", "46", 2, 2, Split.TRAIN, ComposeRule.MOD_ADD, 0)
        inputs, labels, mask = batch_arrays([encode_record(rec)], LossRegion.ANSWER_ONLY)
        model = Transformer(TINY_MODEL)
        logits = model.forward(inputs)
        base = float(ad.cross_entropy(logits, labels, mask).data)
        labels2 = labels.copy()
        labels2[0, :5] = (labels2[0, :5] + 3) % 17  # prompt-region labels only
        after = float(ad.cross_entropy(logits, labels2, mask).data)
        assert base == after


class TestTraining:
    def test_overfits_eight_samples(self, tmp_path):
        build_dataset(ComposeRule.MOD_ADD, POLICY, {Split.TRAIN: 8}, 5, tmp_path,
                      answer_policy=AnswerLenPolicy.capped(12))
        model = Transformer(TINY_MODEL)
        config = TrainConfig(batch_size=8, learning_rate=3e-3, weight_decay=0.0,
                             epochs=200, eval_every=200, seed=0)
        _, runlog = train(model, tmp_path, config)
        assert runlog.final.train_loss < 0.05

    def test_deterministic_runs(self, tiny_data, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            model = Transformer(TINY_MODEL)
            train(model, tiny_data,
                  TrainConfig(batch_size=8, learning_rate=1e-3, epochs=3, eval_every=1, seed=4),
                  out_dir=out)
        assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()
        assert (out_a / "runlog.csv").read_bytes() == (out_b / "runlog.csv").read_bytes()
        assert (out_a / "runlog.json").read_bytes() == (out_b / "runlog.json").read_bytes()

    def test_embedding_stays_frozen(self, tiny_data):
        model = Transformer(TINY_MODEL)
        before = model.embedding.data.copy()
        train(model, tiny_data, TrainConfig(batch_size=8, learning_rate=1e-3, epochs=2, seed=1))
        assert np.array_equal(model.embedding.data, before)

    def test_moved_embedding_raises(self, tiny_data, monkeypatch):
        model = Transformer(TINY_MODEL)
        step = training.AdamW.step

        def step_and_nudge(opt):
            step(opt)
            model.embedding.data[0, 0] += 1.0

        monkeypatch.setattr(training.AdamW, "step", step_and_nudge)
        with pytest.raises(RuntimeError, match="frozen embedding"):
            train(model, tiny_data, TrainConfig(batch_size=8, learning_rate=1e-3, epochs=1, seed=1))

    def test_runlog_contents(self, tiny_data):
        model = Transformer(TINY_MODEL)
        _, runlog = train(model, tiny_data,
                          TrainConfig(batch_size=8, learning_rate=1e-3, epochs=4, eval_every=2, seed=2))
        assert [pt.epoch for pt in runlog.points] == [2, 4]
        pt = runlog.final
        assert set(pt.split_loss) == {"test_id", "test_hollow", "test_extrapolation", "ood"}
        assert pt.id_loss is not None and pt.ood_loss is not None

    def test_checkpoint_reload_matches(self, tiny_data, tmp_path):
        model = Transformer(TINY_MODEL)
        train(model, tiny_data,
              TrainConfig(batch_size=8, learning_rate=1e-3, epochs=2, seed=3), out_dir=tmp_path)
        loaded, _, _ = load_checkpoint(tmp_path / "model.ckpt")
        tokens = np.arange(12, dtype=np.int64).reshape(1, 12) % 17
        assert np.array_equal(model.forward(tokens).data, loaded.forward(tokens).data)

    def test_weight_decay_is_decoupled(self):
        # With zero gradient, AdamW still shrinks weights by lr * wd * w and
        # the moment estimates stay exactly zero.
        from coper import autodiff as ad
        from coper.training import AdamW

        p = ad.Tensor(np.full(4, 2.0, dtype=np.float32), requires_grad=True)
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5, epochs=1)
        opt = AdamW({"w": p}, cfg)
        p.grad = np.zeros(4, dtype=np.float32)
        opt.step()
        assert np.allclose(p.data, 2.0 - 0.1 * 0.5 * 2.0)
        assert np.all(opt._m["w"] == 0) and np.all(opt._v["w"] == 0)


class TestTeacherForcedMetrics:
    def test_batches_are_length_sorted_and_totals_unchanged(self, tiny_data, monkeypatch):
        samples = encode_records(load_records(tiny_data, Split.TEST_EXTRAPOLATION))
        assert len({len(s.tokens) for s in samples}) > 2
        model = Transformer(TINY_MODEL)
        one_batch = teacher_forced_metrics(model, samples, LossRegion.ANSWER_ONLY,
                                           batch_size=len(samples))
        batches = []

        def recording(batch, region):
            batches.append([len(s.tokens) for s in batch])
            return batch_arrays(batch, region)

        monkeypatch.setattr(training, "batch_arrays", recording)
        loss, acc = teacher_forced_metrics(model, samples, LossRegion.ANSWER_ONLY, batch_size=3)
        lengths = [n for batch in batches for n in batch]
        assert lengths == sorted(len(s.tokens) for s in samples)
        assert acc == one_batch[1]
        assert loss == pytest.approx(one_batch[0], rel=1e-9)


class TestRunLog:
    def test_csv_round_trip(self, tiny_data):
        model = Transformer(TINY_MODEL)
        _, runlog = train(model, tiny_data,
                          TrainConfig(batch_size=8, learning_rate=1e-3, epochs=2, seed=5))
        parsed = RunLog.from_csv_text(runlog.to_csv_text())
        assert [pt.epoch for pt in parsed.points] == [pt.epoch for pt in runlog.points]
        assert parsed.final.split_loss.keys() == runlog.final.split_loss.keys()

    def test_epochs_strictly_increasing(self):
        from coper.training import EvalPoint

        log = RunLog()
        log.append(EvalPoint(1, 0.5, {}, {}))
        with pytest.raises(ValueError):
            log.append(EvalPoint(1, 0.4, {}, {}))


class TestMultiSeed:
    def test_single_seed_mean_equals_run(self, tiny_data):
        report = multi_seed(TINY_MODEL, tiny_data,
                            TrainConfig(batch_size=8, learning_rate=1e-3, epochs=2, seed=0), [9])
        assert report.mean == report.per_seed[0]

    def test_identical_seeds_average_to_each(self, tiny_data):
        report = multi_seed(TINY_MODEL, tiny_data,
                            TrainConfig(batch_size=8, learning_rate=1e-3, epochs=2, seed=0), [3, 3, 3])
        for m in report.per_seed:
            assert m == report.per_seed[0]
        for k, v in report.mean.items():
            assert v == pytest.approx(report.per_seed[0][k])

    def test_three_seeds_three_checkpoints(self, tiny_data, tmp_path):
        report = multi_seed(TINY_MODEL, tiny_data,
                            TrainConfig(batch_size=8, learning_rate=1e-3, epochs=2, seed=0),
                            [1, 2, 3], out_dir=tmp_path)
        blobs = [(tmp_path / f"seed_{s}" / "model.ckpt").read_bytes() for s in (1, 2, 3)]
        assert len({b for b in blobs}) == 3
        assert (tmp_path / "summary.json").exists()
        assert len(report.per_seed) == 3

    def test_no_seeds_rejected(self, tiny_data):
        with pytest.raises(ValueError):
            multi_seed(TINY_MODEL, tiny_data, TrainConfig(epochs=1), [])
