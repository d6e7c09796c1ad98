import json
from dataclasses import asdict, replace

import pytest

from coper.cli import main
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

    def test_train_then_eval_then_plot(self, tmp_path, capsys, micro_config):
        data = tmp_path / "d"
        run(capsys, "gen", "--profile", "coper-default", "--out", str(data),
            "--config", micro_config)
        train_out = tmp_path / "t"
        code, _, err = run(capsys, "train", "--profile", "coper-default", "--data", str(data),
                           "--out", str(train_out), "--config", micro_config, "--seed", "2")
        assert code == 0, err
        eval_out = tmp_path / "e"
        code, stdout, err = run(capsys, "eval", "--ckpt", str(train_out / "model.ckpt"),
                                "--data", str(data), "--out", str(eval_out))
        assert code == 0, err
        assert "avg" in stdout
        plot_out = tmp_path / "p"
        code, _, err = run(capsys, "plot", "--runlog", str(train_out / "runlog.csv"),
                           "--heatmap", str(eval_out / "heatmap.csv"), "--out", str(plot_out))
        assert code == 0, err
        assert (plot_out / "curves.svg").exists()
        assert (plot_out / "heatmap.svg").exists()

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

    @pytest.mark.parametrize("config", [{"counts": [1, 2]}, {"counts": {"train": None}},
                                        {"answer_cap": [3]}],
                             ids=["counts_list", "null_count", "answer_cap_list"])
    def test_malformed_config_value_fails_validation(self, tmp_path, capsys, config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code, _, err = run(capsys, "gen", "--out", str(tmp_path / "d"), "--config", str(path))
        assert code == 1
        assert f"config section '{next(iter(config))}'" in err
        assert not (tmp_path / "d").exists()

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

    def test_plot_without_inputs_fails_validation(self, tmp_path, capsys):
        code, _, err = run(capsys, "plot", "--out", str(tmp_path / "p"))
        assert code == 1

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
