import json
import shlex
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from coper.cli import build_parser, main
from coper.profiles import PROFILES, get_profile


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MICRO_CONFIG = {
    "counts": {"train": 40, "test_id": 12, "test_hollow": 12, "test_extrapolation": 12},
    "model": {"d_model": 16, "n_heads": 2, "n_layers": 1, "ffn_mult": 2, "max_seq_len": 384},
    "train": {"batch_size": 16, "learning_rate": 1e-3, "epochs": 2, "eval_every": 1},
}


@pytest.fixture()
def micro_config(tmp_path):
    path = tmp_path / "micro.json"
    path.write_text(json.dumps(MICRO_CONFIG))
    return str(path)


class TestProfiles:
    def test_registry_names(self):
        assert set(PROFILES) == {
            "coper-default", "coper-dense", "single-period",
            "single-period-scaled", "circconv", "addsub", "sine",
        }

    def test_every_profile_resolves_desk_settings_only(self):
        for name in PROFILES:
            profile = get_profile(name)
            settings = profile.desk
            assert profile.settings("desk") is settings
            assert settings.model.d_model >= 16
            assert settings.train.epochs >= 1
            assert sum(settings.counts.values()) > 0
            with pytest.raises(ValueError, match="paper"):
                profile.settings("paper")

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            get_profile("nope")


class TestGenVerify:
    def test_gen_writes_manifest_and_splits(self, tmp_path, capsys, micro_config):
        out = tmp_path / "d"
        code, _, _ = run(capsys, "gen", "--profile", "coper-default", "--seed", "7",
                         "--out", str(out), "--config", micro_config)
        assert code == 0
        assert (out / "manifest.json").exists()
        for name in ("train.jsonl", "test_id.jsonl", "test_hollow.jsonl", "test_extrapolation.jsonl"):
            assert (out / name).exists()
        assert (out / "stamp.json").exists()

    def test_gen_deterministic_across_invocations(self, tmp_path, capsys, micro_config):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "gen", "--profile", "coper-default", "--seed", "3", "--out", str(a),
            "--config", micro_config)
        run(capsys, "gen", "--profile", "coper-default", "--seed", "3", "--out", str(b),
            "--config", micro_config)
        assert (a / "train.jsonl").read_bytes() == (b / "train.jsonl").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_verify_pass_and_fail(self, tmp_path, capsys, micro_config):
        out = tmp_path / "d"
        run(capsys, "gen", "--profile", "coper-default", "--out", str(out),
            "--config", micro_config)
        code, stdout, _ = run(capsys, "verify", "--data", str(out))
        assert code == 0 and "PASS" in stdout
        lines = (out / "train.jsonl").read_text().splitlines()
        rec = json.loads(lines[0])
        rec["target"] = ("3" if rec["target"][0] != "3" else "4") + rec["target"][1:]
        lines[0] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        (out / "train.jsonl").write_text("\n".join(lines) + "\n")
        code, stdout, _ = run(capsys, "verify", "--data", str(out))
        assert code == 1 and "FAIL" in stdout

    def test_verify_rejects_foreign_vocabulary(self, tmp_path, capsys, micro_config):
        out = tmp_path / "d"
        run(capsys, "gen", "--profile", "coper-default", "--out", str(out),
            "--config", micro_config)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["vocab"] = {"0": 0, "x": 1}
        (out / "manifest.json").write_text(json.dumps(manifest))
        code, _, err = run(capsys, "verify", "--data", str(out))
        assert code == 1
        assert "vocabulary" in err

    def test_stamp_records_the_arguments_main_parsed(self, tmp_path, capsys, micro_config):
        argv = ["gen", "--profile", "coper-default", "--seed", "7", "--out", str(tmp_path / "d"),
                "--config", micro_config]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads((tmp_path / "d" / "stamp.json").read_text())["command"] == " ".join(argv)

    @pytest.mark.parametrize("flag", ["--paper", "--desk", "--nested"])
    def test_deleted_gen_flag_exits_one(self, tmp_path, capsys, flag):
        code, _, err = run(capsys, "gen", "--out", str(tmp_path / "d"), flag)
        assert code == 1 and flag in err
        assert not (tmp_path / "d").exists()

    def test_unknown_profile_exits_one(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--profile", "bogus", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "unknown profile" in err


class TestAnalyze:
    def test_counterexample_json(self, capsys):
        code, stdout, _ = run(capsys, "analyze", "rope-counterexample")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["rule_diff_near"] == -1
        assert payload["rule_diff_far"] == 2
        assert payload["verdict"] == "not representable"

    def test_invariance_json(self, capsys):
        code, stdout, _ = run(capsys, "analyze", "rope-invariance", "--trials", "20",
                              "--max-period", "8")
        payload = json.loads(stdout)
        assert code == 0
        assert payload["max_deviation"] < 1e-9
        assert len(payload["per_period"]) == 8

    def test_invariance_trials_follow_seed(self, capsys):
        outputs = [run(capsys, "analyze", "rope-invariance", "--trials", "5", "--max-period", "4",
                       "--seed", seed)[1] for seed in ("0", "0", "1")]
        assert outputs[0] == outputs[1] != outputs[2]

    def test_scaled_premise_json(self, capsys):
        code, stdout, _ = run(capsys, "analyze", "scaled-premise", "--trials", "5")
        payload = json.loads(stdout)
        assert code == 0
        assert payload["all_violate"] is True

    @pytest.mark.parametrize("target, flag, value", [
        ("scaled-premise", "--trials", "0"),
        ("scaled-premise", "--trials", "-3"),
        ("rope-invariance", "--trials", "0"),
        ("rope-invariance", "--max-period", "0"),
        ("rope-invariance", "--max-period", "-3"),
    ])
    def test_non_positive_counts_are_rejected_before_any_work(self, capsys, target, flag, value):
        # At zero, scaled-premise would print a vacuous "all_violate" over no
        # cases, and rope-invariance would fail on an empty max().
        code, stdout, err = run(capsys, "analyze", target, flag, value)
        assert code == 1 and stdout == ""
        assert f"argument {flag}: must be a positive integer, got '{value}'" in err


class TestEndToEnd:
    def test_run_experiment_micro(self, tmp_path, capsys, micro_config):
        out = tmp_path / "exp"
        code, stdout, err = run(
            capsys, "run-experiment", "coper-default", "--seed", "1",
            "--out", str(out), "--config", micro_config)
        assert code == 0, err
        assert (out / "data" / "manifest.json").exists()
        seed_dir = out / "seed_1"
        for name in ("model.ckpt", "runlog.csv", "runlog.json", "curves.svg",
                     "heatmap.csv", "heatmap.svg", "report.json"):
            assert (seed_dir / name).exists(), name
        assert (out / "summary.json").exists()
        assert (out / "categories.csv").exists()
        assert (out / "stamp.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary.keys() == {"profile", "seeds", "mean"}
        assert summary["profile"] == "coper-default" and summary["seeds"] == [1]
        assert "id_accuracy" in summary["mean"]

    def test_runlog_and_report_losses_agree(self, tmp_path, capsys, micro_config):
        out = tmp_path / "exp"
        code, _, err = run(capsys, "run-experiment", "coper-default", "--seed", "2",
                           "--out", str(out), "--config", micro_config)
        assert code == 0, err
        final = json.loads((out / "seed_2" / "runlog.json").read_text())["points"][-1]["split_loss"]
        report = json.loads((out / "seed_2" / "report.json").read_text())
        assert {k: v for k, v in final.items() if k.startswith("test_")} == report["split_tf_loss"]
        assert final["test_id"] == report["report"]["id_loss"]
        assert final["ood"] == report["report"]["ood_loss"]

    def test_missing_category_is_null_not_zero(self, tmp_path, capsys):
        config = dict(MICRO_CONFIG, counts={"train": 40, "test_id": 12, "test_extrapolation": 12})
        (tmp_path / "c.json").write_text(json.dumps(config))
        out = tmp_path / "exp"
        code, stdout, err = run(capsys, "run-experiment", "coper-default", "--seed", "1",
                                "--out", str(out), "--config", str(tmp_path / "c.json"))
        assert code == 0, err
        assert "hollow n/a" in stdout
        rep = json.loads((out / "seed_1" / "report.json").read_text())["report"]
        assert rep["hollow_accuracy"] is None
        assert rep["average"] == (rep["id_accuracy"] + rep["extrapolation_accuracy"]) / 2
        mean = json.loads((out / "summary.json").read_text())["mean"]
        assert mean["hollow_accuracy"] is None and mean["average"] == rep["average"]
        assert "coper-default-seed1,hollow,,\n" in (out / "categories.csv").read_text()
        svg = (out / "categories.svg").read_text()
        assert " hollow " not in svg and svg.count("<rect") == 2

    def test_run_experiment_rejects_a_profile_flag(self, tmp_path, capsys, micro_config):
        out = tmp_path / "exp"
        code, _, _ = run(capsys, "run-experiment", "single-period", "--profile", "coper-default",
                         "--out", str(out), "--config", micro_config)
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--seeds", "2,-1"], "argument --seeds: seed must be a non-negative integer, got '-1'"),
        (["--seed", "-1"], "argument --seed: seed must be a non-negative integer, got '-1'"),
    ], ids=["negative_in_list", "negative"])
    def test_run_experiment_rejects_bad_seeds_before_any_work(self, tmp_path, capsys, micro_config,
                                                              argv, message):
        out = tmp_path / "exp"
        code, _, err = run(capsys, "run-experiment", "coper-default", *argv,
                           "--out", str(out), "--config", micro_config)
        assert code == 1 and message in err
        assert not out.exists()

    def test_run_experiment_is_byte_deterministic(self, tmp_path, capsys, micro_config):
        trees = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, err = run(capsys, "run-experiment", "coper-default", "--seed", "4",
                               "--out", str(out), "--config", micro_config)
            assert code == 0, err
            trees.append({p.relative_to(out).as_posix(): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        a, b = trees
        assert a.keys() == b.keys()
        assert {"data/train.jsonl", "data/manifest.json", "seed_4/model.ckpt", "seed_4/runlog.csv",
                "seed_4/runlog.json", "seed_4/report.json", "seed_4/heatmap.svg",
                "categories.csv", "summary.json"} <= a.keys()
        assert [k for k in a if a[k] != b[k] and k != "stamp.json"] == []

    def test_gen_train_eval_match_run_experiment(self, tmp_path, capsys, micro_config):
        code, _, err = run(capsys, "run-experiment", "coper-default", "--seed", "4",
                           "--out", str(tmp_path / "exp"), "--config", micro_config)
        assert code == 0, err
        data, train_out, eval_out = tmp_path / "d", tmp_path / "t", tmp_path / "e"
        for argv in (["gen", "--seed", "4", "--out", str(data), "--config", micro_config],
                     ["train", "--data", str(data), "--out", str(train_out), "--seed", "4",
                      "--config", micro_config],
                     ["eval", "--ckpt", str(train_out / "model.ckpt"), "--data", str(data),
                      "--out", str(eval_out)]):
            code, _, err = run(capsys, *argv)
            assert code == 0, err
        exp = tmp_path / "exp"
        assert (data / "train.jsonl").read_bytes() == (exp / "data" / "train.jsonl").read_bytes()
        seed_dir = exp / "seed_4"
        for name in ("model.ckpt", "runlog.csv", "runlog.json", "curves.csv", "curves.svg"):
            assert (train_out / name).read_bytes() == (seed_dir / name).read_bytes(), name
        for name in ("heatmap.csv", "heatmap.svg", "report.json"):
            assert (eval_out / name).read_bytes() == (seed_dir / name).read_bytes(), name

    def test_deleted_plot_command_exits_one(self, tmp_path, capsys):
        code, _, err = run(capsys, "plot", "--runlog", str(tmp_path / "runlog.csv"),
                           "--out", str(tmp_path / "p"))
        assert code == 1 and "invalid choice: 'plot'" in err
        assert not (tmp_path / "p").exists()

    def test_readme_quick_start_parses(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("## Quick start", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("coper ")]
        assert len(lines) >= 5
        parser = build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README quick start line does not parse: {line}")

    def test_flag_overrides_beat_config_file(self, tmp_path, capsys, micro_config):
        out = tmp_path / "exp"
        code, _, err = run(
            capsys, "run-experiment", "coper-default", "--seed", "1", "--out", str(out),
            "--config", micro_config, "--pe", "sinpe", "--layers", "1", "--epochs", "1")
        assert code == 0, err
        stamp = json.loads((out / "stamp.json").read_text())
        assert stamp["model"]["pe_kind"] == "sinpe"
        assert stamp["train"]["epochs"] == 1

    def test_stamp_records_each_stages_wall_clock(self, tmp_path, capsys, micro_config):
        out = tmp_path / "exp"
        code, _, err = run(capsys, "run-experiment", "coper-default", "--seeds", "1,3",
                           "--out", str(out), "--config", micro_config, "--epochs", "1")
        assert code == 0, err
        stamp = json.loads((out / "stamp.json").read_text())
        assert stamp["gen_s"] > 0 and stamp["verify_s"] > 0
        for stage in ("train_s", "eval_s"):
            assert stamp[stage].keys() == {"1", "3"}
            assert all(s > 0 for s in stamp[stage].values())

    @pytest.mark.parametrize("flag, message", [("--epochs", "epochs"), ("--layers", "n_layers")])
    def test_zero_override_fails_validation(self, tmp_path, capsys, flag, message):
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "d"),
                           "--out", str(tmp_path / "t"), flag, "0")
        assert code == 1 and message in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("section, field", [("model", "d_modle"), ("train", "epoch"),
                                                ("policy", "hollw"), ("task_params", "answer_length")])
    def test_misspelt_config_field_fails_validation(self, tmp_path, capsys, section, field):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({section: {field: 32}}))
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "d"),
                           "--out", str(tmp_path / "t"), "--config", str(config))
        assert code == 1
        assert f"config section '{section}'" in err and field in err

    @pytest.mark.parametrize("field", ["beta1", "beta2", "eps"])
    def test_removed_adamw_field_fails_before_any_file(self, tmp_path, capsys, micro_config, field):
        # As a settable beta1, 1.0 divides the bias correction by 1 - 1.0**t = 0
        # and trains to non-finite weights.
        data = tmp_path / "d"
        run(capsys, "gen", "--out", str(data), "--config", micro_config)
        config = tmp_path / "adam.json"
        config.write_text(json.dumps({**MICRO_CONFIG, "train": {**MICRO_CONFIG["train"], field: 1.0}}))
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(tmp_path / "t"),
                           "--config", str(config))
        assert code == 1
        assert "config section 'train'" in err and field in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("field, value", [("learning_rate", float("nan")),
                                              ("learning_rate", float("inf")),
                                              ("weight_decay", float("nan")),
                                              ("weight_decay", float("inf"))])
    def test_non_finite_rate_fails_before_any_file(self, tmp_path, capsys, micro_config, field, value):
        data = tmp_path / "d"
        run(capsys, "gen", "--out", str(data), "--config", micro_config)
        config = tmp_path / "rate.json"
        config.write_text(json.dumps({**MICRO_CONFIG, "train": {**MICRO_CONFIG["train"], field: value}}))
        assert ("NaN" if value != value else "Infinity") in config.read_text()
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(tmp_path / "t"),
                           "--config", str(config))
        assert code == 1
        assert "config section 'train'" in err and field in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_parameters_a_step_made_non_finite_are_never_saved(self, tmp_path, capsys, micro_config):
        # One batch of the 40 training records, whose finite gradient a
        # 1e39 learning rate turns into weights past float32's range.
        data, out = tmp_path / "d", tmp_path / "t"
        run(capsys, "gen", "--out", str(data), "--config", micro_config)
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({**MICRO_CONFIG, "train": {
            **MICRO_CONFIG["train"], "batch_size": 64, "learning_rate": 1e39, "epochs": 1}}))
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(out), "--config", str(config))
        assert code == 2
        assert "DivergenceError: non-finite parameters at epoch 1" in err
        assert not [f for f in ("model.ckpt", "runlog.csv", "runlog.json") if (out / f).exists()]

    @pytest.mark.parametrize("config", [{"counts": [1, 2]}, {"counts": {"train": None}},
                                        {"answer_cap": [3]}, {"model": {"n_heads": 0}},
                                        {"model": {"n_heads": -4}}, {"model": {"d_model": 0}},
                                        {"model": {"rope_base": 0}}, {"model": {"rope_base": -1.0}}],
                             ids=["counts_list", "null_count", "answer_cap_list", "zero_heads",
                                  "negative_heads", "zero_width", "zero_rope_base",
                                  "negative_rope_base"])
    def test_malformed_config_value_fails_validation(self, tmp_path, capsys, config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code, _, err = run(capsys, "gen", "--out", str(tmp_path / "d"), "--config", str(path))
        assert code == 1
        assert f"config section '{next(iter(config))}'" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("profile, task_params, message", [
        ("single-period-scaled", {"prompt_blocks": 4}, "task_params need 1 <= prompt_blocks < repeats"),
        ("single-period-scaled", {"value_hi": 0}, "task_params need value_hi >= 1"),
        ("single-period", {"prompt_len_lo": 40, "prompt_len_hi": 30},
         "task_params need prompt_len_lo <= prompt_len_hi"),
        ("single-period-scaled", {"value_hi": 1}, "no cycle of minimal period"),
    ], ids=["prompt_blocks_at_repeats", "zero_value_hi", "prompt_len_range_reversed", "one_value"])
    def test_task_params_no_task_builds_from_fail_validation(self, tmp_path, capsys, profile,
                                                            task_params, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"task_params": task_params}))
        code, _, err = run(capsys, "gen", "--profile", profile, "--out", str(tmp_path / "d"),
                           "--config", str(path))
        assert code == 1 and message in err
        assert not list((tmp_path / "d").glob("*.jsonl"))

    @pytest.mark.parametrize("argv", [
        ["verify", "--data", "{missing}"],
        ["eval", "--ckpt", "{missing}", "--data", "{missing}", "--out", "{out}"],
        ["train", "--data", "{missing}", "--out", "{out}"],
    ], ids=["verify", "eval", "train"])
    def test_flag_naming_a_missing_file_fails_validation(self, tmp_path, capsys, argv):
        missing, out = tmp_path / "missing", tmp_path / "out"
        code, _, err = run(capsys, *[a.format(missing=missing, out=out) for a in argv])
        assert code == 1
        assert "No such file or directory" in err and str(missing) in err

    def test_config_section_overrides_only_the_fields_it_names(self, tmp_path, capsys):
        config = tmp_path / "partial.json"
        config.write_text(json.dumps({**MICRO_CONFIG, "policy": {"total_hi": 12},
                                      "task_params": {"answer_len": 7}}))
        code, _, err = run(capsys, "gen", "--profile", "coper-default", "--out", str(tmp_path / "d"),
                           "--config", str(config))
        assert code == 0, err
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        desk = get_profile("coper-default").desk
        assert manifest["policy"] == json.loads(json.dumps(asdict(replace(desk.policy, total_hi=12))))
        assert manifest["task_params"] == asdict(replace(desk.task_params, answer_len=7))

    def test_config_section_the_profile_lacks_fails_validation(self, tmp_path, capsys):
        config = tmp_path / "sine.json"
        policy = {"train_lo": 3, "train_hi": 9, "total_lo": 2, "total_hi": 11, "hollow": []}
        config.write_text(json.dumps({"policy": policy}))
        code, _, err = run(capsys, "gen", "--profile", "sine", "--out", str(tmp_path / "d"),
                           "--config", str(config))
        assert code == 1
        assert "config section 'policy' does not apply" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("profile, task_params, rule", [
        ("sine", {"x_ood_bound": 200}, "x_ood_bound in the 10-char sine format"),
        ("sine", {"x_ood_bound": 1}, "x_ood_bound > x_id_bound"),
        ("single-period-scaled", {"factor": 1}, "factor >= 2"),
        ("single-period-scaled", {"factor": 0}, "factor >= 2"),
    ], ids=["sine_ood_bound_200", "sine_ood_bound_1", "scaled_factor_1", "scaled_factor_0"])
    def test_task_params_no_task_builds_from_fail_before_any_file(self, tmp_path, capsys,
                                                                  profile, task_params, rule):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"task_params": task_params}))
        code, _, err = run(capsys, "gen", "--profile", profile, "--out", str(tmp_path / "d"),
                           "--config", str(config))
        assert code == 1
        assert f"task_params need {rule}" in err
        assert not (tmp_path / "d").exists()

    def test_runtime_shape_error_exits_two(self, tmp_path, capsys, monkeypatch):
        from coper import evaluation
        from coper.autodiff import ShapeError
        from coper.model import ModelConfig, Transformer, save_checkpoint

        def broken(*args, **kwargs):
            raise ShapeError("cannot matmul shapes (2, 3) and (4, 5)")

        monkeypatch.setattr(evaluation, "evaluate", broken)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(Transformer(ModelConfig(d_model=16, n_heads=2, n_layers=1)), ckpt)
        code, _, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(tmp_path),
                           "--out", str(tmp_path / "e"))
        assert code == 2
        assert "runtime failure: ShapeError" in err
