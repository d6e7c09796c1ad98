"""Each benchmark check passes on the program's own output and fails on a corruption.

    python3 -m pytest coperbench -q
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from coper import autodiff as ad  # noqa: E402
from coper.codec import encode  # noqa: E402
from coper import dataset, evaluation, profiles, training  # noqa: E402
from coper.dataset import Split  # noqa: E402
from coper.model import ModelConfig, PeKind, Transformer  # noqa: E402

SMALL = ModelConfig(d_model=16, n_heads=2, n_layers=1, max_seq_len=320, pe_kind=PeKind.ROPE, init_seed=3)


def _corpus(tmp_path, profile_name, counts):
    profile = profiles.get_profile(profile_name)
    s = profile.settings("desk")
    dataset.build_dataset(profile.rule, s.policy, counts, 5, tmp_path,
                          answer_policy=s.answer_policy, task_params=s.task_params)
    return {split: dataset.load_records(tmp_path, split) for split in counts}


@pytest.fixture(scope="module")
def pair_corpus(tmp_path_factory):
    return _corpus(tmp_path_factory.mktemp("pair"), "coper-default",
                   {Split.TRAIN: 40, Split.TEST_ID: 12, Split.TEST_EXTRAPOLATION: 12})


@pytest.fixture(scope="module")
def single_corpus(tmp_path_factory):
    return _corpus(tmp_path_factory.mktemp("single"), "single-period", {Split.TRAIN: 40})


def _flip(digit: str) -> str:
    return str((int(digit) + 1) % 10)


@pytest.mark.parametrize("corpus", ["pair_corpus", "single_corpus"])
def test_targets_pass_and_corrupted_target_fails(corpus, request):
    records = request.getfixturevalue(corpus)[Split.TRAIN]
    assert checks.target_failures(records, 40) == []
    rec = records[7]
    bad = replace(rec, target_text=rec.target_text[:-1] + _flip(rec.target_text[-1]))
    failures = checks.target_failures(records[:7] + [bad] + records[8:], 40)
    assert len(failures) == 1 and f"seed_id {rec.seed_id}" in failures[0]


def test_truncated_composite_target_fails(pair_corpus):
    rec = next(r for r in pair_corpus[Split.TRAIN] if len(r.target_text) > 3)
    assert checks.target_failures([replace(rec, target_text=rec.target_text[:-1])], 40)


def test_reported_losses_pass_and_corrupted_loss_fails(pair_corpus):
    model = Transformer(SMALL)
    tests = {s.value: pair_corpus[s] for s in (Split.TEST_ID, Split.TEST_EXTRAPOLATION)}
    reported = {name: training.teacher_forced_metrics(
        model, training.encode_records(recs), training.LossRegion.ANSWER_ONLY)[0]
        for name, recs in tests.items()}
    assert checks.loss_failures(model, tests, reported) == []
    reported[Split.TEST_ID.value] += 1e-2
    failures = checks.loss_failures(model, tests, reported)
    assert len(failures) == 1 and Split.TEST_ID.value in failures[0]


def test_learning_check_needs_a_lower_loss():
    assert checks.learning_failures(2.5, 1.0) == []
    assert checks.learning_failures(2.5, 2.5)


def _same_length(records):
    n = len(records[0].input_text) + len(records[0].target_text)
    return [r for r in records if len(r.input_text) + len(r.target_text) == n][:3]


def test_gradient_check_passes_and_corrupted_gradient_fails(pair_corpus, monkeypatch):
    model = Transformer(SMALL)
    records = _same_length(pair_corpus[Split.TRAIN])
    assert checks.gradient_failures(model, records, np.random.default_rng(0)) == []
    exact = ad.cross_entropy
    monkeypatch.setattr(ad, "cross_entropy", lambda *a: ad.scale(exact(*a), 1.01))
    assert checks.gradient_failures(model, records, np.random.default_rng(0))


def test_decode_hits_pass_and_corrupted_hit_count_fails(pair_corpus):
    model = Transformer(SMALL)
    records = pair_corpus[Split.TEST_EXTRAPOLATION][:6]
    hits = {}
    for rec, pred in evaluation.decode_records(records, evaluation.greedy_predictor(model)):
        cell = (rec.p1, rec.p2)
        hits[cell] = hits.get(cell, 0) + sum(p == t for p, t in zip(pred, encode(rec.target_text)))
    failures, ties = checks.decode_failures(model, records, hits)
    assert failures == []
    assert ties == []

    cell = next(iter(hits))
    margin = min(checks.reference_greedy(model, r.input_text, len(r.target_text))[1]
                 for r in records if (r.p1, r.p2) == cell)
    assert margin >= checks.TIE_MARGIN  # so a disagreement there cannot be a tie
    hits[cell] += 1
    failures, ties = checks.decode_failures(model, records, hits)
    assert len(failures) == 1 and str(cell) in failures[0]
