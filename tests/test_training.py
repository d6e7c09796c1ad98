import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from coper import autodiff as ad
from coper import training
from coper.cli import main
from coper.composers import AnswerLenPolicy, ComposeRule
from coper.dataset import SampleRecord, Split, SplitPolicy, TaskParams, build_dataset, load_records
from coper.model import ModelConfig, Transformer, load_checkpoint
from coper.profiles import get_profile
from coper.training import (
    DivergenceError,
    LossRegion,
    RunLog,
    TrainConfig,
    batch_arrays,
    encode_record,
    encode_records,
    teacher_forced_metrics,
    train,
)

TINY_MODEL = ModelConfig(d_model=16, n_heads=2, n_layers=1, ffn_mult=2, max_seq_len=64)
POLICY = SplitPolicy(2, 4, 2, 5, hollow=frozenset({(3, 3)}))
# A `coper run-experiment --config` file for the same grid, model and sizes.
TINY_EXPERIMENT = {
    "policy": asdict(POLICY),
    "answer_cap": 12,
    "counts": {"train": 24, "test_id": 8, "test_hollow": 8, "test_extrapolation": 8},
    "model": {"d_model": 16, "n_heads": 2, "n_layers": 1, "ffn_mult": 2, "max_seq_len": 64},
    "train": {"batch_size": 8, "learning_rate": 1e-3, "epochs": 2, "eval_every": 1},
}


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    build_dataset(
        ComposeRule.MOD_ADD, POLICY,
        {Split.TRAIN: 24, Split.TEST_ID: 8, Split.TEST_HOLLOW: 8, Split.TEST_EXTRAPOLATION: 8},
        11, path, answer_policy=AnswerLenPolicy(12), task_params=TaskParams())
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

    def test_loss_region_given_as_its_string(self):
        rec = SampleRecord("12+34=", "46", 2, 2, Split.TRAIN, ComposeRule.MOD_ADD, 0)
        region = TrainConfig(loss_region="answer_only").loss_region
        assert region is LossRegion.ANSWER_ONLY
        _, _, mask = batch_arrays([encode_record(rec)], region)
        _, _, expect = batch_arrays([encode_record(rec)], LossRegion.ANSWER_ONLY)
        assert np.array_equal(mask, expect)

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
    def test_defaults_are_the_desk_recipe(self):
        assert TrainConfig() == get_profile("coper-default").desk.train

    def test_overfits_eight_samples(self, tmp_path):
        build_dataset(ComposeRule.MOD_ADD, POLICY, {Split.TRAIN: 8}, 5, tmp_path,
                      answer_policy=AnswerLenPolicy(12), task_params=TaskParams())
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
        train(model, tiny_data, TrainConfig(batch_size=8, learning_rate=1e-3, epochs=2, eval_every=1, seed=1))
        assert np.array_equal(model.embedding.data, before)

    def test_moved_embedding_raises(self, tiny_data, monkeypatch):
        model = Transformer(TINY_MODEL)
        step = training.AdamW.step

        def step_and_nudge(opt):
            step(opt)
            model.embedding.data[0, 0] += 1.0

        monkeypatch.setattr(training.AdamW, "step", step_and_nudge)
        with pytest.raises(RuntimeError, match="frozen embedding"):
            train(model, tiny_data, TrainConfig(batch_size=8, learning_rate=1e-3, epochs=1, eval_every=1, seed=1))

    def test_runlog_contents(self, tiny_data):
        model = Transformer(TINY_MODEL)
        _, runlog = train(model, tiny_data,
                          TrainConfig(batch_size=8, learning_rate=1e-3, epochs=4, eval_every=2, seed=2))
        assert [pt.epoch for pt in runlog.points] == [2, 4]
        pt = runlog.final
        assert set(pt.split_loss) == {"test_id", "test_hollow", "test_extrapolation", "ood"}
        assert pt.id_loss is not None and pt.split_loss["ood"] is not None

    def test_non_finite_loss_raises_with_last_eval_point_state(self, tiny_data, monkeypatch):
        config = TrainConfig(batch_size=8, learning_rate=1e-3, epochs=3, eval_every=1, seed=6)
        after_epoch_1 = Transformer(TINY_MODEL)
        train(after_epoch_1, tiny_data, replace(config, epochs=1))
        batches_per_epoch = -(-len(load_records(tiny_data, Split.TRAIN)) // config.batch_size)
        exact = ad.cross_entropy
        calls = []

        def nan_from_epoch_2(logits, labels, mask):
            calls.append(1)
            loss = exact(logits, labels, mask)
            if len(calls) > batches_per_epoch:
                loss.data = np.full_like(loss.data, np.nan)
            return loss

        monkeypatch.setattr(ad, "cross_entropy", nan_from_epoch_2)
        with pytest.raises(DivergenceError) as info:
            train(Transformer(TINY_MODEL), tiny_data, config)
        assert info.value.epoch == 2
        expected = after_epoch_1.state_tensors()
        assert info.value.state.keys() == expected.keys()
        for name, t in expected.items():
            assert np.array_equal(info.value.state[name], t.data), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_raises_before_the_update(self, tiny_data, tmp_path, monkeypatch, bad):
        config = TrainConfig(batch_size=8, learning_rate=1e-3, epochs=2, eval_every=1, seed=6)
        after_epoch_1 = Transformer(TINY_MODEL)
        train(after_epoch_1, tiny_data, replace(config, epochs=1))
        steps = config.epochs * -(-len(load_records(tiny_data, Split.TRAIN)) // config.batch_size)
        model = Transformer(TINY_MODEL)
        backward = ad.Tape.backward
        calls = []

        def bad_on_the_last_step(tape, loss):
            backward(tape, loss)
            calls.append(1)
            if len(calls) == steps:
                model.parameters()["head"].grad[0, 0] = bad

        monkeypatch.setattr(ad.Tape, "backward", bad_on_the_last_step)
        out = tmp_path / "run"
        with pytest.raises(DivergenceError, match="gradient") as info:
            train(model, tiny_data, config, out_dir=out)
        assert len(calls) == steps
        assert info.value.epoch == 2
        expected = after_epoch_1.state_tensors()
        assert info.value.state.keys() == expected.keys()
        for name, t in expected.items():
            assert np.array_equal(info.value.state[name], t.data), name
        assert np.isfinite(model.parameters()["head"].data).all()  # the update never ran
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_non_finite_parameters_raise_at_the_eval_point_before_any_save(self, tiny_data, tmp_path):
        # One batch: its gradient is finite, but a 1e39 step takes weights past
        # float32's range, and no later loss or gradient would show it.
        model = Transformer(TINY_MODEL)
        initial = {name: t.data.copy() for name, t in model.state_tensors().items()}
        out = tmp_path / "run"
        with pytest.raises(DivergenceError, match="non-finite parameters at epoch 1") as info:
            train(model, tiny_data, TrainConfig(batch_size=24, learning_rate=1e39, epochs=1, seed=6),
                  out_dir=out)
        assert not all(np.isfinite(t.data).all() for t in model.parameters().values())
        assert info.value.epoch == 1
        assert info.value.state.keys() == initial.keys()
        for name, data in initial.items():
            assert np.array_equal(info.value.state[name], data), name
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", np.nan), ("learning_rate", np.inf), ("learning_rate", 0.0),
        ("weight_decay", np.nan), ("weight_decay", np.inf), ("weight_decay", -0.01),
    ])
    def test_rates_it_cannot_run_rejected(self, field, value):
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            TrainConfig(**{field: value})

    def test_checkpoint_reload_matches(self, tiny_data, tmp_path):
        model = Transformer(TINY_MODEL)
        train(model, tiny_data,
              TrainConfig(batch_size=8, learning_rate=1e-3, epochs=2, eval_every=1, seed=3), out_dir=tmp_path)
        loaded, _, _ = load_checkpoint(tmp_path / "model.ckpt")
        tokens = np.arange(12, dtype=np.int64).reshape(1, 12) % 17
        assert np.array_equal(model.forward(tokens).data, loaded.forward(tokens).data)

    def test_a_padded_step_with_extents_updates_bit_identically(self, tiny_data, monkeypatch):
        samples = sorted(encode_records(load_records(tiny_data, Split.TRAIN)), key=lambda s: len(s.tokens))
        batch = samples[::3]
        extents, _ = training.read_window(batch, LossRegion.FULL_SEQUENCE)
        assert len(set(extents.tolist())) > 1
        inputs, labels, mask = batch_arrays(batch, LossRegion.FULL_SEQUENCE)
        # Three (row, head) pairs per attention block: blocks straddle rows.
        monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", 3 * inputs.shape[1] ** 2 * 4)
        after = []
        for given in (None, extents):
            model = Transformer(replace(TINY_MODEL, d_model=32))  # 16-wide heads, as in the model test
            opt = training.AdamW(model.parameters(), TrainConfig(learning_rate=1e-2))
            with ad.Tape() as tape:
                loss = ad.cross_entropy(model.forward(inputs, given), labels, mask)
            tape.backward(loss)
            opt.step()
            after.append({name: t.data for name, t in model.parameters().items()})
        for name, data in after[0].items():
            assert np.array_equal(after[1][name], data), name

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
        monkeypatch.setattr(training, "TF_BATCH_SIZE", len(samples))
        one_batch = teacher_forced_metrics(model, samples, LossRegion.ANSWER_ONLY)
        batches = []

        def recording(batch, region):
            batches.append([len(s.tokens) for s in batch])
            return batch_arrays(batch, region)

        monkeypatch.setattr(training, "batch_arrays", recording)
        monkeypatch.setattr(training, "TF_BATCH_SIZE", 3)
        loss, acc, count = teacher_forced_metrics(model, samples, LossRegion.ANSWER_ONLY)
        lengths = [n for batch in batches for n in batch]
        assert lengths == sorted(len(s.tokens) for s in samples)
        assert (acc, count) == one_batch[1:]
        assert count == sum(len(s.tokens) - s.answer_start for s in samples)
        assert loss == pytest.approx(one_batch[0], rel=1e-9)


class TestRunLog:
    def test_epochs_strictly_increasing(self):
        from coper.training import EvalPoint

        log = RunLog()
        log.append(EvalPoint(1, 0.5, {}, {}))
        with pytest.raises(ValueError):
            log.append(EvalPoint(1, 0.4, {}, {}))


class TestMultiSeed:
    """Multi-seed runs go through `coper run-experiment --seeds`."""

    def run(self, tmp_path, seeds):
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(TINY_EXPERIMENT))
        out = tmp_path / "exp"
        code = main(["run-experiment", "coper-default", "--seeds", seeds,
                     "--out", str(out), "--config", str(config)])
        return code, out

    @staticmethod
    def reports(out, seeds):
        return [json.loads((out / f"seed_{s}" / "report.json").read_text())["report"] for s in seeds]

    def test_single_seed_mean_equals_run(self, tmp_path):
        code, out = self.run(tmp_path, "9")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seeds"] == [9]
        assert summary["mean"] == self.reports(out, [9])[0]

    def test_duplicate_seeds_rejected(self, tmp_path, capsys):
        # Three runs of seed 3 would report a three-seed mean over one seed.
        code, out = self.run(tmp_path, "3,3,3")
        assert code == 1
        assert "argument --seeds: seeds must be distinct, got '3,3,3'" in capsys.readouterr().err
        assert not out.exists()

    def test_three_seeds_three_checkpoints(self, tmp_path):
        code, out = self.run(tmp_path, "1,2,3")
        assert code == 0
        blobs = [(out / f"seed_{s}" / "model.ckpt").read_bytes() for s in (1, 2, 3)]
        assert len(set(blobs)) == 3
        mean = json.loads((out / "summary.json").read_text())["mean"]
        reports = self.reports(out, [1, 2, 3])
        for k, v in mean.items():
            assert v == pytest.approx(np.mean([r[k] for r in reports]), rel=1e-12, abs=1e-15)

    def test_no_seeds_rejected(self, tmp_path):
        code, out = self.run(tmp_path, ",")
        assert code == 1
        assert not out.exists()
