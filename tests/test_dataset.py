import json
import re

import numpy as np
import pytest

from coper.cli import main
from coper.composers import AnswerLenPolicy, ComposeRule, InvalidSpec
from coper.cycles import minimal_period
from coper.dataset import (
    DatasetManifest,
    InfeasiblePolicy,
    OutOfRange,
    PairClass,
    SampleRecord,
    Split,
    SplitPolicy,
    TaskParams,
    build_dataset,
    classify_pair,
    load_records,
    sample_cycle,
    verify_dataset,
)

SMALL_POLICY = SplitPolicy(3, 6, 2, 8, hollow=frozenset({(4, 5), (5, 5)}))


class TestClassifyPair:
    def test_default_policy_examples(self):
        policy = SplitPolicy.default()
        assert classify_pair(8, 9, policy) is PairClass.HOLLOW
        assert classify_pair(4, 14, policy) is PairClass.ID
        assert classify_pair(2, 16, policy) is PairClass.EXTRAPOLATION

    def test_dense_profile_hollow(self):
        policy = SplitPolicy(2, 11, 2, 16, hollow=frozenset({(6, 7), (7, 7)}))
        assert classify_pair(6, 7, policy) is PairClass.HOLLOW
        assert classify_pair(7, 6, policy) is PairClass.ID

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            classify_pair(1, 5, SplitPolicy.default())

    def test_default_partition_matches_published_table(self):
        # Train pairs = [4,14]^2 minus [8,11]^2; hollow = [8,11]^2;
        # extrapolation = anything with a coordinate outside [4,14].
        policy = SplitPolicy.default()
        for p1 in range(2, 17):
            for p2 in range(2, 17):
                got = classify_pair(p1, p2, policy)
                if 8 <= p1 <= 11 and 8 <= p2 <= 11:
                    assert got is PairClass.HOLLOW
                elif 4 <= p1 <= 14 and 4 <= p2 <= 14:
                    assert got is PairClass.ID
                else:
                    assert got is PairClass.EXTRAPOLATION

    def test_hollow_must_sit_inside_training_range(self):
        with pytest.raises(InfeasiblePolicy):
            SplitPolicy(4, 6, 2, 8, hollow=frozenset({(7, 7)}))


class TestSampleCycle:
    def test_exact_period(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            period = int(rng.integers(1, 11))
            c = sample_cycle(period, 10, rng)
            assert minimal_period(c) == period

    def test_deterministic_given_seed(self):
        a = sample_cycle(6, 10, np.random.default_rng(42))
        b = sample_cycle(6, 10, np.random.default_rng(42))
        assert a == b


def build_tiny(tmp_path, rule=ComposeRule.MOD_ADD, counts=None, seed=7, **kw):
    counts = counts or {Split.TRAIN: 30, Split.TEST_ID: 10, Split.TEST_HOLLOW: 10, Split.TEST_EXTRAPOLATION: 10}
    return build_dataset(rule, SMALL_POLICY, counts, seed, tmp_path,
                         answer_policy=AnswerLenPolicy(24), **kw)


class TestBuildDataset:
    def test_counts_match_files(self, tmp_path):
        manifest = build_tiny(tmp_path)
        for split, name in manifest.files.items():
            n = sum(1 for line in (tmp_path / name).read_text().splitlines() if line.strip())
            assert n == manifest.counts[split]

    def test_tiny_build_labels_are_disjoint(self, tmp_path):
        counts = {s: 1 for s in Split}
        build_tiny(tmp_path, counts=counts)
        train = {(r.p1, r.p2) for r in load_records(tmp_path, Split.TRAIN)}
        hollow = {(r.p1, r.p2) for r in load_records(tmp_path, Split.TEST_HOLLOW)}
        extra = {(r.p1, r.p2) for r in load_records(tmp_path, Split.TEST_EXTRAPOLATION)}
        assert train & hollow == set()
        assert train & extra == set()
        assert hollow & extra == set()

    def test_split_pair_sets_disjoint_by_class(self, tmp_path):
        build_tiny(tmp_path)
        train_pairs = {(r.p1, r.p2) for r in load_records(tmp_path, Split.TRAIN)}
        for pair in train_pairs:
            assert classify_pair(*pair, SMALL_POLICY) is PairClass.ID
        for r in load_records(tmp_path, Split.TEST_HOLLOW):
            assert classify_pair(r.p1, r.p2, SMALL_POLICY) is PairClass.HOLLOW
        for r in load_records(tmp_path, Split.TEST_EXTRAPOLATION):
            assert classify_pair(r.p1, r.p2, SMALL_POLICY) is PairClass.EXTRAPOLATION

    def test_byte_identical_rebuild(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        build_tiny(d1)
        build_tiny(d2)
        for name in ["manifest.json", "train.jsonl", "test_id.jsonl", "test_hollow.jsonl", "test_extrapolation.jsonl"]:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_different_seed_changes_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        build_tiny(d1, seed=7)
        build_tiny(d2, seed=8)
        assert (d1 / "train.jsonl").read_bytes() != (d2 / "train.jsonl").read_bytes()

    def test_infeasible_policy(self, tmp_path):
        policy = SplitPolicy(3, 6, 3, 6)  # no extrapolation pairs exist
        with pytest.raises(InfeasiblePolicy):
            build_dataset(ComposeRule.MOD_ADD, policy,
                          {Split.TRAIN: 1, Split.TEST_EXTRAPOLATION: 1}, 0, tmp_path)

    def test_record_operands_have_declared_periods(self, tmp_path):
        build_tiny(tmp_path)
        for split in Split:
            for rec in load_records(tmp_path, split):
                s1, s2 = rec.input_text[:-1].split("+")
                assert len(s1) == len(s2)
                c1 = tuple(int(ch) for ch in s1[:rec.p1])
                assert all(int(s1[i]) == c1[i % rec.p1] for i in range(len(s1)))

    def test_manifest_round_trip(self, tmp_path):
        manifest = build_tiny(tmp_path)
        loaded = DatasetManifest.load(tmp_path / "manifest.json")
        assert loaded == manifest
        assert loaded.to_dict() == manifest.to_dict()

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["task_params"].update(prompt_len=3),
         "'task_params' lacks fields [] and has unknown fields ['prompt_len']"),
        (lambda m: m["policy"].update(hollw=[]),
         "'policy' lacks fields [] and has unknown fields ['hollw']"),
        (lambda m: m.pop("answer_len_policy"), "manifest lacks sections ['answer_len_policy']"),
        (lambda m: m["answer_len_policy"].update(max_len=0),
         "'answer_len_policy' is invalid: answer cap must be >= 1"),
        (lambda m: m.update(counts=[1, 2]), "manifest section 'counts' is not an object"),
        (lambda m: m["counts"].update(train=None), "manifest section 'counts' maps 'train' to None"),
        (lambda m: m.update(files=["train.jsonl"]), "manifest section 'files' is not an object"),
    ], ids=["unknown_task_param", "unknown_policy_field", "missing_answer_policy", "zero_answer_cap",
            "counts_list", "null_count", "files_list"])
    def test_bad_manifest_section_rejected(self, tmp_path, capsys, edit, message):
        build_tiny(tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            verify_dataset(tmp_path)
        assert main(["verify", "--data", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err


class TestSingleSequenceBuilds:
    def test_single_period_uses_diagonal(self, tmp_path):
        policy = SplitPolicy(4, 10, 2, 12, hollow=frozenset({(7, 7)}))
        build_dataset(ComposeRule.SINGLE_PERIOD, policy,
                      {Split.TRAIN: 20, Split.TEST_HOLLOW: 5}, 3, tmp_path,
                      task_params=TaskParams(prompt_len_lo=25, prompt_len_hi=30, answer_len=8))
        for rec in load_records(tmp_path, Split.TRAIN):
            assert rec.p1 == rec.p2
            assert rec.p1 in {4, 5, 6, 8, 9, 10}
            assert len(rec.target_text) == 8
        for rec in load_records(tmp_path, Split.TEST_HOLLOW):
            assert rec.p1 == 7

    def test_scaled_build_verifies(self, tmp_path):
        policy = SplitPolicy(4, 10, 2, 12, hollow=frozenset({(7, 7)}))
        build_dataset(ComposeRule.SCALED_SINGLE, policy,
                      {Split.TRAIN: 20, Split.TEST_HOLLOW: 5}, 3, tmp_path)
        report = verify_dataset(tmp_path)
        assert report.passed, report.failures

    def test_sine_build(self, tmp_path):
        build_dataset(ComposeRule.SINE, None,
                      {Split.TRAIN: 20, Split.TEST_ID: 5, Split.TEST_EXTRAPOLATION: 5}, 3, tmp_path)
        report = verify_dataset(tmp_path)
        assert report.passed, report.failures
        for rec in load_records(tmp_path, Split.TEST_EXTRAPOLATION):
            x = float(rec.input_text[:-1])
            assert abs(x) > 3 * np.pi

    def test_sine_rejects_hollow(self, tmp_path):
        with pytest.raises(InfeasiblePolicy):
            build_dataset(ComposeRule.SINE, None, {Split.TRAIN: 2, Split.TEST_HOLLOW: 1}, 0, tmp_path)


class TestVerifyDataset:
    @pytest.mark.parametrize("rule", [ComposeRule.MOD_ADD, ComposeRule.ADD_SUB_ALT, ComposeRule.CIRC_CONV])
    def test_fresh_build_passes(self, tmp_path, rule):
        build_tiny(tmp_path, rule=rule)
        report = verify_dataset(tmp_path)
        assert report.passed, report.failures
        assert report.records_checked == 60

    def test_corrupted_digit_fails_at_line(self, tmp_path):
        build_tiny(tmp_path)
        path = tmp_path / "train.jsonl"
        lines = path.read_text().splitlines()
        rec = json.loads(lines[4])
        digit = rec["target"][0]
        rec["target"] = ("1" if digit != "1" else "2") + rec["target"][1:]
        lines[4] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        report = verify_dataset(tmp_path)
        assert not report.passed
        assert report.first_failure().line_no == 5
        assert "oracle" in report.first_failure().reason

    def test_hollow_pair_in_train_fails(self, tmp_path):
        build_tiny(tmp_path)
        hollow_line = (tmp_path / "test_hollow.jsonl").read_text().splitlines()[0]
        rec = json.loads(hollow_line)
        rec["split"] = "train"
        train_path = tmp_path / "train.jsonl"
        train_lines = train_path.read_text().splitlines()
        train_lines[0] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        train_path.write_text("\n".join(train_lines) + "\n")
        report = verify_dataset(tmp_path)
        assert not report.passed
        assert "hollow" in report.first_failure().reason

    def test_malformed_line_reports_parse_error(self, tmp_path):
        build_tiny(tmp_path)
        path = tmp_path / "test_id.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        report = verify_dataset(tmp_path)
        assert not report.passed
        bad = [f for f in report.failures if f.line_no == 3]
        assert bad and "parse error" in bad[0].reason

    def test_count_mismatch_fails(self, tmp_path):
        build_tiny(tmp_path)
        path = tmp_path / "test_id.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        report = verify_dataset(tmp_path)
        assert not report.passed
        assert any("declares" in f.reason for f in report.failures)

    def test_foreign_vocabulary_rejected(self, tmp_path):
        build_tiny(tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["vocab"] = {"0": 0, "x": 1}
        path.write_text(json.dumps(manifest))
        with pytest.raises(InvalidSpec, match="vocabulary"):
            verify_dataset(tmp_path)
        del manifest["vocab"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(InvalidSpec, match="vocabulary"):
            verify_dataset(tmp_path)


def test_record_round_trip():
    rec = SampleRecord("12+34=", "46", 2, 2, Split.TRAIN, ComposeRule.MOD_ADD, 0)
    assert SampleRecord.from_dict(rec.to_dict()) == rec


class TestRelativePrompts:
    def test_prompt_tracks_period(self, tmp_path):
        policy = SplitPolicy(4, 10, 2, 12, hollow=frozenset({(7, 7)}))
        build_dataset(ComposeRule.SINGLE_PERIOD, policy,
                      {Split.TRAIN: 40}, 5, tmp_path,
                      task_params=TaskParams(prompt_tracks_period=True, answer_len=8))
        for rec in load_records(tmp_path, Split.TRAIN):
            n = len(rec.input_text)
            assert 2 * rec.p1 + 1 <= n <= 3 * rec.p1
        assert verify_dataset(tmp_path).passed
