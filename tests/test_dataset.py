import hashlib
import json
import math
import re

import numpy as np
import pytest

from coper.cli import main
from coper.composers import AnswerLenPolicy, ComposeRule, InvalidSpec
from coper.cycles import minimal_period
from coper.profiles import PROFILES
from coper.dataset import (
    DatasetManifest,
    InfeasiblePolicy,
    OutOfRange,
    PairClass,
    SampleRecord,
    Split,
    SplitPolicy,
    TaskParams,
    _oracle_circconv,
    build_dataset,
    classify_pair,
    load_records,
    sample_cycle,
    verify_dataset,
)

SMALL_POLICY = SplitPolicy(3, 6, 2, 8, hollow=frozenset({(4, 5), (5, 5)}))
# The published pair grid: training periods [4, 14] inside [2, 16], hollow block [8, 11]^2.
PUBLISHED_POLICY = SplitPolicy(4, 14, 2, 16, hollow=[(a, b) for a in range(8, 12) for b in range(8, 12)])


class TestClassifyPair:
    def test_default_policy_examples(self):
        policy = PUBLISHED_POLICY
        assert classify_pair(8, 9, policy) is PairClass.HOLLOW
        assert classify_pair(4, 14, policy) is PairClass.ID
        assert classify_pair(2, 16, policy) is PairClass.EXTRAPOLATION

    def test_dense_profile_hollow(self):
        policy = SplitPolicy(2, 11, 2, 16, hollow=frozenset({(6, 7), (7, 7)}))
        assert classify_pair(6, 7, policy) is PairClass.HOLLOW
        assert classify_pair(7, 6, policy) is PairClass.ID

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            classify_pair(1, 5, PUBLISHED_POLICY)

    def test_default_partition_matches_published_table(self):
        # Train pairs = [4,14]^2 minus [8,11]^2; hollow = [8,11]^2;
        # extrapolation = anything with a coordinate outside [4,14].
        policy = PUBLISHED_POLICY
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
    # The digit tasks draw from [0, 9], the scaled task from [1, value_hi].
    RANGES = [(0, 9), (1, 4)]

    def test_exact_period(self):
        rng = np.random.default_rng(0)
        for lo, hi in self.RANGES:
            for _ in range(2000):
                period = int(rng.integers(1, 11))
                c = sample_cycle(period, lo, hi, rng)
                assert minimal_period(c) == period
                assert c.base == hi + 1 and lo <= min(c.values) and max(c.values) <= hi

    def test_deterministic_given_seed(self):
        for lo, hi in self.RANGES:
            a = sample_cycle(6, lo, hi, np.random.default_rng(42))
            b = sample_cycle(6, lo, hi, np.random.default_rng(42))
            assert a == b

    def test_one_value_allows_only_period_one(self):
        assert sample_cycle(1, 1, 1, np.random.default_rng(0)).values == (1,)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(InvalidSpec, match=re.escape("no cycle of minimal period 2 draws its values from [1, 1]")):
            sample_cycle(2, 1, 1, rng)
        assert rng.bit_generator.state == before  # raised before any draw

    def test_period_one_makes_one_scalar_draw(self):
        # A period-1 cycle is the value and generator state of one scalar
        # `integers` draw, so corpora whose policy includes period 1 keep
        # their bytes.
        for lo, hi in self.RANGES:
            for seed in range(200):
                rng, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
                cycle = sample_cycle(1, lo, hi, rng)
                assert cycle.values == (int(scalar.integers(lo, hi + 1)),)
                assert rng.bit_generator.state == scalar.bit_generator.state


class TestTaskParams:
    @pytest.mark.parametrize("fields, rule", [
        ({"prompt_blocks": 4}, "1 <= prompt_blocks < repeats"),
        ({"prompt_blocks": 5}, "1 <= prompt_blocks < repeats"),
        ({"prompt_blocks": 0}, "1 <= prompt_blocks < repeats"),
        ({"prompt_len_lo": 40, "prompt_len_hi": 30}, "prompt_len_lo <= prompt_len_hi"),
        ({"value_hi": 0}, "value_hi >= 1"),
        ({"answer_len": 0}, "answer_len >= 1"),
        ({"repeats": 1}, "repeats >= 2"),
        ({"factor": 1}, "factor >= 2"),
        ({"factor": 0}, "factor >= 2"),
        ({"x_id_bound": 0.0}, "x_id_bound > 0"),
        ({"x_ood_bound": 1.0}, "x_ood_bound > x_id_bound"),
        ({"x_id_bound": 2.0, "x_ood_bound": 2.0}, "x_ood_bound > x_id_bound"),
        ({"x_ood_bound": 200.0}, "x_ood_bound in the 10-char sine format"),
        ({"x_ood_bound": 99.9999996}, "x_ood_bound in the 10-char sine format"),
    ], ids=["prompt_blocks_at_repeats", "prompt_blocks_past_repeats", "no_prompt_blocks",
            "prompt_len_range_reversed", "zero_value_hi", "zero_answer_len", "one_repeat",
            "factor_one", "factor_zero", "zero_id_bound", "ood_bound_below_id_bound",
            "ood_bound_at_id_bound", "ood_bound_past_format", "ood_bound_rounding_past_format"])
    def test_rejects_values_no_task_builds_from(self, fields, rule):
        with pytest.raises(InvalidSpec, match=re.escape(f"task_params need {rule}, got ")) as info:
            TaskParams(**fields)
        assert all(f"'{name}': {value}" in str(info.value) for name, value in fields.items())


def build_tiny(tmp_path, rule=ComposeRule.MOD_ADD, counts=None, seed=7, **kw):
    counts = counts or {Split.TRAIN: 30, Split.TEST_ID: 10, Split.TEST_HOLLOW: 10, Split.TEST_EXTRAPOLATION: 10}
    return build_dataset(rule, SMALL_POLICY, counts, seed, tmp_path,
                         answer_policy=AnswerLenPolicy(24), task_params=TaskParams(), **kw)


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
                          {Split.TRAIN: 1, Split.TEST_EXTRAPOLATION: 1}, 0, tmp_path,
                          answer_policy=AnswerLenPolicy(), task_params=TaskParams())

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
        (lambda m: m["task_params"].update(prompt_blocks=4),
         "'task_params' is invalid: task_params need 1 <= prompt_blocks < repeats"),
    ], ids=["unknown_task_param", "unknown_policy_field", "missing_answer_policy", "zero_answer_cap",
            "counts_list", "null_count", "files_list", "prompt_blocks_at_repeats"])
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
                      {Split.TRAIN: 20, Split.TEST_HOLLOW: 5}, 3, tmp_path, answer_policy=AnswerLenPolicy(),
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
                      {Split.TRAIN: 20, Split.TEST_HOLLOW: 5}, 3, tmp_path,
                      answer_policy=AnswerLenPolicy(), task_params=TaskParams())
        report = verify_dataset(tmp_path)
        assert report.passed, report.failures

    def test_sine_build(self, tmp_path):
        build_dataset(ComposeRule.SINE, None,
                      {Split.TRAIN: 20, Split.TEST_ID: 5, Split.TEST_EXTRAPOLATION: 5}, 3, tmp_path,
                      answer_policy=AnswerLenPolicy(), task_params=TaskParams())
        report = verify_dataset(tmp_path)
        assert report.passed, report.failures
        for rec in load_records(tmp_path, Split.TEST_EXTRAPOLATION):
            x = float(rec.input_text[:-1])
            assert abs(x) > 3 * np.pi

    def test_sine_rejects_hollow(self, tmp_path):
        with pytest.raises(InfeasiblePolicy):
            build_dataset(ComposeRule.SINE, None, {Split.TRAIN: 2, Split.TEST_HOLLOW: 1}, 0, tmp_path,
                          answer_policy=AnswerLenPolicy(), task_params=TaskParams())


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
                      {Split.TRAIN: 40}, 5, tmp_path, answer_policy=AnswerLenPolicy(),
                      task_params=TaskParams(prompt_tracks_period=True, answer_len=8))
        for rec in load_records(tmp_path, Split.TRAIN):
            n = len(rec.input_text)
            assert 2 * rec.p1 + 1 <= n <= 3 * rec.p1
        assert verify_dataset(tmp_path).passed


def edit_record(path, index, edit):
    """Rewrite record `index` of a split file as `edit` leaves its dict; returns
    (the record before, the record after)."""
    lines = path.read_text().splitlines()
    before = json.loads(lines[index])
    after = dict(before)
    edit(after)
    lines[index] = json.dumps(after, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    return before, after


def first_reason(data_dir, line_no):
    report = verify_dataset(data_dir)
    assert not report.passed
    first = report.first_failure()
    assert first.line_no == line_no
    return first.reason


def change_digit(text, i):
    i %= len(text)
    return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]


class TestVerifyRejects:
    """Each verify branch rejects its corrupted record, at its line, with its reason string."""

    OPERANDS = "input text is not two aligned exact-period operands"
    # '⁵'.isdigit() holds, but the codec cannot encode it.
    FOREIGN = "character '⁵' at offset 0 is not in the vocabulary"

    def test_an_operand_of_a_smaller_minimal_period(self, tmp_path):
        build_tiny(tmp_path)

        def edit(rec):
            s1, s2 = rec["input"][:-1].split("+")
            rec["input"] = f"{'0' * len(s1)}+{s2}="

        edit_record(tmp_path / "train.jsonl", 3, edit)
        assert first_reason(tmp_path, 4) == self.OPERANDS

    def test_a_superscript_digit_in_an_operand(self, tmp_path):
        build_tiny(tmp_path)

        def edit(rec):
            s1, s2 = rec["input"][:-1].split("+")
            rec["input"] = f"{s1.replace(s1[0], '⁵')}+{s2}="

        edit_record(tmp_path / "train.jsonl", 3, edit)
        assert first_reason(tmp_path, 4) == self.FOREIGN

    def test_a_superscript_digit_in_a_continuation(self, tmp_path):
        # Renamed alike in prompt and target, the record keeps every period.
        build_tiny(tmp_path, rule=ComposeRule.SINGLE_PERIOD)

        def edit(rec):
            digit = rec["input"][0]
            rec["input"], rec["target"] = (rec[k].replace(digit, "⁵") for k in ("input", "target"))

        edit_record(tmp_path / "test_id.jsonl", 2, edit)
        assert first_reason(tmp_path, 3) == self.FOREIGN

    def test_operands_longer_than_the_lcm(self, tmp_path):
        build_tiny(tmp_path)

        def edit(rec):
            s1, s2 = rec["input"][:-1].split("+")
            rec["input"] = f"{s1 * 2}+{s2 * 2}="

        edit_record(tmp_path / "train.jsonl", 3, edit)
        assert first_reason(tmp_path, 4) == self.OPERANDS

    @pytest.mark.parametrize("rule", [ComposeRule.MOD_ADD, ComposeRule.ADD_SUB_ALT, ComposeRule.CIRC_CONV])
    def test_a_target_one_digit_too_long(self, tmp_path, rule):
        build_tiny(tmp_path, rule=rule)
        before, _ = edit_record(tmp_path / "test_id.jsonl", 2, lambda rec: rec.update(target=rec["target"] + "0"))
        n = len(before["target"])
        assert first_reason(tmp_path, 3) == f"target length {n + 1} != expected {n}"

    @pytest.mark.parametrize("rule, position", [(ComposeRule.CIRC_CONV, 0), (ComposeRule.CIRC_CONV, -1),
                                                (ComposeRule.ADD_SUB_ALT, 0), (ComposeRule.ADD_SUB_ALT, 1)])
    def test_one_changed_target_digit(self, tmp_path, rule, position):
        build_tiny(tmp_path, rule=rule)
        before, after = edit_record(tmp_path / "test_extrapolation.jsonl", 1,
                                    lambda rec: rec.update(target=change_digit(rec["target"], position)))
        assert first_reason(tmp_path, 2) == f"target {after['target']!r} != oracle {before['target']!r}"

    def test_a_prompt_that_breaks_periodicity(self, tmp_path):
        build_tiny(tmp_path, rule=ComposeRule.SINGLE_PERIOD)
        edit_record(tmp_path / "train.jsonl", 5, lambda rec: rec.update(input=change_digit(rec["input"], -1)))
        assert first_reason(tmp_path, 6) == "prompt is not a periodic extension of its first cycle"

    @pytest.mark.parametrize("position", [0, -1])
    def test_a_wrong_continuation_digit(self, tmp_path, position):
        build_tiny(tmp_path, rule=ComposeRule.SINGLE_PERIOD)
        before, after = edit_record(tmp_path / "test_hollow.jsonl", 0,
                                    lambda rec: rec.update(target=change_digit(rec["target"], position)))
        assert first_reason(tmp_path, 1) == f"target {after['target']!r} != continuation {before['target']!r}"


# sha256 of every file of `build_golden`'s corpus for each profile: a build
# is byte-identical for a seed, so any change to a generated byte fails here.
GOLDEN_SHA256 = {
    "addsub": {
        "manifest.json": "745cd09cf5fe215fc25dd18160343281544e0904cac7a668124aa03680f7a791",
        "test_extrapolation.jsonl": "7f0753411216ec8a5c25ce83ae0f828e2e4986c5fddeef66b92f871b831fa856",
        "test_hollow.jsonl": "83acab1893bc71b7ca2b85bfc6d6f3a24fa4e5e3461b6e5546fd13e5572f720f",
        "test_id.jsonl": "fba714e0cda393007555b0ae095a17b20d79a24f8a1f26c6388edfcf6f70b567",
        "train.jsonl": "b6a51f990eb7bd5a855adf9be531e56eff7a06dcf21542c854277cbea0af4be3",
    },
    "circconv": {
        "manifest.json": "64075dbe51fcc503fb99e1e40406ec4d59e48f9bdc4e59058d1f8147b6091c18",
        "test_extrapolation.jsonl": "d3f2d17fd52bee74661f07f1d6f34455dd7ef518b1c70c6c5bf4f870f85e7959",
        "test_hollow.jsonl": "99cd9b4aa9dfed642a20ce41e4c57045dc6349df0bdbcbe6b527bf3e3ce389fc",
        "test_id.jsonl": "1e6ac8cc72a054ef9fb2f44222a7313dcd86882997b975369e8992a63dba01ba",
        "train.jsonl": "1fd4b3a48ed296fb3567fa27a645780f312dffa8d48235e97e27456a6dc492f2",
    },
    "coper-default": {
        "manifest.json": "ca92823a4ed48b3d81f2aeaaf567c9c74ff7535ecceca05d409e95fa73f04211",
        "test_extrapolation.jsonl": "b246342f78f93ab0f1684d77dc4d891dcb5e9ebc8f5197ed261faf30677903cd",
        "test_hollow.jsonl": "ba65d8bd2d181d1bcde3e0c4bf50e06d8ca6807a4abbd7896d903533eeb7fd59",
        "test_id.jsonl": "7da665e1ef13e2f76620e2d98a4a686d5c3c535c6c1fd72c3ee3a7012d01fae5",
        "train.jsonl": "ed22def8370053c131cc821f16a002fde89033c6f0f71b0c63c7d4fac294441c",
    },
    "coper-dense": {
        "manifest.json": "395cc4358e135acf203c85b9be0b9b02971411afacf0fba3fa8de4aafe76b35a",
        "test_extrapolation.jsonl": "b246342f78f93ab0f1684d77dc4d891dcb5e9ebc8f5197ed261faf30677903cd",
        "test_hollow.jsonl": "a1c1fe4c2b549a8f192ca1f622b94287ab2d9516e4e844f52ca5603168df5664",
        "test_id.jsonl": "b1227f8d3169a310f96660e6d33d5f3c6259acc5cc4617aba2a83f45d40d5722",
        "train.jsonl": "8d1db1b4ed31c047c97c34ba24934b748fb6c5fb202ef1701348b1ce882abed1",
    },
    "sine": {
        "manifest.json": "28e272b738015b50c863620ca062c20190e145e4aa085685e7423335eb1284bf",
        "test_extrapolation.jsonl": "22f4c97bcc0219fb74c014921a5d9c442b89e69c83dc9e798b2ccd931f2d75a7",
        "test_id.jsonl": "a72792be4788a3c1772575e26e0e61e93e7097dd21ef2ccbeb04a483f86a6f60",
        "train.jsonl": "29ffd17d22d33c5d15d21d71f4594c42217d21d60b2a89fe4b38f5951b003a32",
    },
    "single-period": {
        "manifest.json": "1a4a315818257134e34ce5bedf21c7d3d033c2433ca4bfa49239cf13f79bd87c",
        "test_extrapolation.jsonl": "0f15abefa79702e40a599bdbe7405d0886c01cead0d60e5a02d15cb3c5240889",
        "test_hollow.jsonl": "96e1bb609edc1036b39045d1f9b5994b12260d926a826106ab6f30c0a24c3926",
        "test_id.jsonl": "e9dc09e2ce12c45e18cce26514dac1791a3b8def1eea0d0e14e1ce8443bff994",
        "train.jsonl": "ab4efffda6e5efc9e2ebc6313285c2abe3b84c59cb1abc69c0d2df7b67944e33",
    },
    "single-period-scaled": {
        "manifest.json": "2f26af9143ecb48ec33b2603ecd7efdffeaf3386fdcda80bbf08510348a86f85",
        "test_extrapolation.jsonl": "749a3eb463f83bace9dae531ec0c748c6b7d03c49a993ce16c42a9e3cc97613b",
        "test_hollow.jsonl": "a8deb35b0c8cd8e2adf843cb775464fe6ab736d012f67312de11fbf6ee506045",
        "test_id.jsonl": "0198655f574441fab20059dafbe9d28a542ca9895936bcc45c4c80b260ec2232",
        "train.jsonl": "12f1ff2792169af227912f7f954227d05bcd2da479f761e53f048cb0fad80bc8",
    },
}


def build_golden(name, out_dir):
    profile = PROFILES[name]
    settings = profile.desk
    counts = {Split.TRAIN: 12, Split.TEST_ID: 4, Split.TEST_HOLLOW: 4, Split.TEST_EXTRAPOLATION: 4}
    if settings.policy is None:  # sine has no hollow split
        del counts[Split.TEST_HOLLOW]
    build_dataset(profile.rule, settings.policy, counts, 5, out_dir,
                  answer_policy=settings.answer_policy, task_params=settings.task_params)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_every_profile_builds_its_golden_bytes(tmp_path, name):
    assert sorted(GOLDEN_SHA256) == sorted(PROFILES)
    build_golden(name, tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == GOLDEN_SHA256[name]


def test_closed_form_circconv_oracle_is_the_direct_sum():
    rng = np.random.default_rng(11)
    for p1 in range(2, 17):
        for p2 in range(2, 17):
            a, b = rng.integers(0, 10, size=p1), rng.integers(0, 10, size=p2)
            n = p1 * p2 // math.gcd(p1, p2)
            m = np.arange(n)
            length = 2 * n + 3  # past one period, as a too-long target would be
            direct = "".join(str(int(a[m % p1] @ b[(t - m) % p2]) % 10) for t in range(length))
            assert _oracle_circconv(a.tolist(), b.tolist(), length, 10) == direct, (p1, p2)
