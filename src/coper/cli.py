"""Command-line pipeline: gen, verify, train, eval, and the one-shot
run-experiment, which runs the gen, train and eval stages of the single
commands.

Exit codes: 0 success, 1 validation problem (bad flags or config fields,
a flag naming a missing file, unknown profile, failed dataset
verification), 2 runtime failure.  train, eval and run-experiment verify
the corpus they read before they train or decode, so a bad record fails
with its file and line.  The COPER_THREADS cap is applied when the `coper`
package is imported, before this module runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from .autodiff import ShapeError


class ValidationFailure(Exception):
    """Maps to exit code 1."""


def _write_json(path: Path, obj: dict) -> None:
    from .model import write_atomic

    write_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_stamp(out_dir: Path, args: argparse.Namespace, extra: dict | None = None) -> None:
    """Reproducibility stamp; the only artifact that carries a timestamp."""
    from . import __version__

    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = {
        "version": __version__,
        "command": " ".join(args.argv),
        "profile": getattr(args, "profile", None),
        "seed": getattr(args, "seed", None),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra:
        stamp.update(extra)
    _write_json(out_dir / "stamp.json", stamp)


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise ValidationFailure(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationFailure(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationFailure("config file must hold a JSON object")
    return cfg


def _config_section(current, name: str, section):
    """`current` with the fields `section` names replaced; an unknown field,
    or a section the profile has no record for, is bad input."""
    if current is None:
        raise ValidationFailure(f"config section {name!r} does not apply: the profile has no {name}")
    try:
        return replace(current, **section)
    except (TypeError, ValueError) as exc:
        raise ValidationFailure(f"config section {name!r}: {exc}") from exc


def _resolve(args: argparse.Namespace):
    """Profile + config file + flags -> (profile, ProfileSettings).

    Precedence (lowest to highest): profile defaults, config file sections
    ('policy', 'counts', 'task_params', 'answer_cap', 'model', 'train'),
    then command-line flags.  A 'policy', 'task_params', 'model' or 'train'
    section overrides only the fields it names.
    """
    from .composers import AnswerLenPolicy
    from .dataset import Split
    from .profiles import get_profile

    try:
        profile = get_profile(args.profile)
    except KeyError as exc:
        raise ValidationFailure(str(exc)) from exc
    settings = profile.desk
    cfg = _load_config_file(getattr(args, "config", None))

    for name in ("policy", "task_params", "model", "train"):
        if name in cfg:
            section = _config_section(getattr(settings, name), name, cfg[name])
            settings = replace(settings, **{name: section})
    if "counts" in cfg:
        if not isinstance(cfg["counts"], dict):
            raise ValidationFailure("config section 'counts' is not an object")
        for split, n in cfg["counts"].items():
            if type(n) is not int or n < 0:  # bool is an int subclass, and is no count
                raise ValidationFailure(f"config section 'counts': {split} {n!r} is not an integer >= 0")
        try:
            counts = {Split(k): v for k, v in cfg["counts"].items()}
        except ValueError as exc:
            raise ValidationFailure(f"config section 'counts': {exc}") from exc
        settings = replace(settings, counts=counts)
    if "answer_cap" in cfg:
        cap = cfg["answer_cap"]
        if cap is not None and type(cap) is not int:
            raise ValidationFailure(f"config section 'answer_cap': {cap!r} is neither null nor an integer")
        try:
            policy = AnswerLenPolicy(cap)
        except ValueError as exc:
            raise ValidationFailure(f"config section 'answer_cap': {exc}") from exc
        settings = replace(settings, answer_policy=policy)

    model, train_cfg = settings.model, settings.train
    if getattr(args, "pe", None):
        model = replace(model, pe_kind=args.pe)
    if getattr(args, "layers", None) is not None:
        model = replace(model, n_layers=args.layers)
    if getattr(args, "epochs", None) is not None:
        train_cfg = replace(train_cfg, epochs=args.epochs)

    return profile, replace(settings, model=model, train=train_cfg)


def _verify(data_dir: Path) -> None:
    """Raise ValidationFailure at the first record of `data_dir` that fails
    `verify_dataset`, named by file and line."""
    from .dataset import verify_dataset

    report = verify_dataset(data_dir)
    if not report.passed:
        first = report.first_failure()
        raise ValidationFailure(f"dataset failed verification at {first.file}:{first.line_no}: {first.reason}")


def _build(profile, settings, seed: int, out: Path):
    """The gen stage: build the profile's corpus from the resolved settings into `out`."""
    from .dataset import build_dataset

    return build_dataset(profile.rule, settings.policy, settings.counts, seed, out,
                         answer_policy=settings.answer_policy, task_params=settings.task_params)


def _train_seed(settings, seed: int, data_dir: Path, out: Path, verbose: bool):
    """The train stage: one model at `seed`, which writes `model.ckpt`,
    `runlog.*` and `curves.*` into `out`."""
    from .evaluation import emit_loss_curves
    from .model import Transformer
    from .training import train

    model = Transformer(replace(settings.model, init_seed=seed))
    _, runlog = train(model, data_dir, replace(settings.train, seed=seed), out_dir=out, verbose=verbose)
    emit_loss_curves(runlog, out / "curves.csv", out / "curves.svg")
    return model, runlog


def _evaluate_model(model, data_dir: Path, out: Path):
    """The eval stage: decode `data_dir`'s test splits, which writes
    `heatmap.*` and `report.json` into `out`."""
    from .evaluation import emit_heatmap, evaluate

    out.mkdir(parents=True, exist_ok=True)
    result = evaluate(model, data_dir)
    emit_heatmap(result.combined_grid(), out / "heatmap.csv", out / "heatmap.svg")
    _write_json(out / "report.json", result.to_dict())
    return result


def _cmd_gen(args) -> int:
    profile, settings = _resolve(args)
    out = Path(args.out)
    manifest = _build(profile, settings, args.seed, out)
    _write_stamp(out, args)
    total = sum(manifest.counts.values())
    print(f"wrote {total} records across {len(manifest.files)} splits to {out}")
    return 0


def _cmd_verify(args) -> int:
    from .dataset import verify_dataset

    report = verify_dataset(Path(args.data))
    if report.passed:
        print(f"PASS: {report.records_checked} records verified")
        return 0
    first = report.first_failure()
    print(f"FAIL: {len(report.failures)} problem(s); first at {first.file}:{first.line_no}: {first.reason}")
    return 1


def _cmd_train(args) -> int:
    _, settings = _resolve(args)
    _verify(Path(args.data))
    out = Path(args.out)
    model, runlog = _train_seed(settings, args.seed, Path(args.data), out, args.verbose)
    train_cfg = replace(settings.train, seed=args.seed)
    _write_stamp(out, args, {"model": asdict(model.config), "train": asdict(train_cfg)})
    print(f"trained {train_cfg.epochs} epochs; final train loss {runlog.final.train_loss:.4f}")
    return 0


def _cmd_eval(args) -> int:
    from .evaluation import emit_category_bar
    from .model import load_checkpoint

    model, _, _ = load_checkpoint(Path(args.ckpt))
    _verify(Path(args.data))
    out = Path(args.out)
    result = _evaluate_model(model, Path(args.data), out)
    emit_category_bar([(args.name, result.report)], out / "categories.csv", out / "categories.svg")
    _write_stamp(out, args)
    rep = result.report
    print(f"id {_fmt(rep.id_accuracy)} hollow {_fmt(rep.hollow_accuracy)} "
          f"extrapolation {_fmt(rep.extrapolation_accuracy)} avg {_fmt(rep.average)}")
    return 0


def _cmd_run_experiment(args) -> int:
    from .evaluation import emit_category_bar

    profile, settings = _resolve(args)
    seeds = args.seeds or [args.seed]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_dir = out / "data"
    # Wall clock per stage, for stamp.json: the one artifact allowed to differ
    # between same-seed runs.
    clock = time.perf_counter
    start = clock()
    _build(profile, settings, args.seed, data_dir)
    times = {"gen_s": clock() - start, "train_s": {}, "eval_s": {}}
    start = clock()
    _verify(data_dir)
    times["verify_s"] = clock() - start

    named_reports = []
    for seed in seeds:
        seed_dir = out / f"seed_{seed}"
        start = clock()
        model, _ = _train_seed(settings, seed, data_dir, seed_dir, args.verbose)
        times["train_s"][str(seed)] = clock() - start
        start = clock()
        result = _evaluate_model(model, data_dir, seed_dir)
        times["eval_s"][str(seed)] = clock() - start
        named_reports.append((f"{profile.name}-seed{seed}", result.report))

    # Per-key mean over the seeds; a category the dataset lacks stays None.
    reports = [rep.to_dict() for _, rep in named_reports]
    mean_acc = {}
    for key in reports[0]:
        vals = [r[key] for r in reports if r[key] is not None]
        mean_acc[key] = sum(v / len(vals) for v in vals) if vals else None
    emit_category_bar(named_reports, out / "categories.csv", out / "categories.svg")
    _write_json(out / "summary.json",
                {"profile": profile.name, "seeds": seeds, "mean": mean_acc})
    _write_stamp(out, args, {"model": asdict(settings.model), "train": asdict(settings.train), **times})
    print(f"profile {profile.name}: mean id {_fmt(mean_acc['id_accuracy'])} "
          f"hollow {_fmt(mean_acc['hollow_accuracy'])} "
          f"extrapolation {_fmt(mean_acc['extrapolation_accuracy'])}")
    return 0


def _seed(text: str) -> int:
    """argparse type of a seed: a non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _seed_list(text: str) -> list[int]:
    """argparse type of a comma-separated list of distinct seeds."""
    seeds = [_seed(s) for s in text.split(",")]
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"seeds must be distinct, got {text!r}")
    return seeds


def _add_profile_flags(p: argparse.ArgumentParser, profile_flag: bool = True):
    if profile_flag:
        p.add_argument("--profile", default="coper-default", help="experiment profile name")
    p.add_argument("--config", help="JSON file overriding profile fields; flags beat the file")
    p.add_argument("--pe", choices=["rope", "sinpe", "none"], help="positional encoding override")
    p.add_argument("--layers", type=int, help="layer-count override")
    p.add_argument("--epochs", type=int, help="epoch-count override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coper",
        description="Composite-periodicity benchmark: generate corpora, and train and "
                    "evaluate small transformers on them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build a dataset from a profile")
    _add_profile_flags(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="re-derive every record of a built dataset")
    p.add_argument("--data", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("train", help="train one model on a built dataset")
    _add_profile_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="decode a checkpoint over a dataset's test splits")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name", default="model", help="label used in category outputs")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("run-experiment", help="gen + verify + train + eval, one command")
    p.add_argument("profile", help="experiment profile name")
    _add_profile_flags(p, profile_flag=False)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--seeds", type=_seed_list, help="comma-separated seed list (overrides --seed)")
    p.add_argument("--out", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_run_experiment)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    args.argv = argv  # what the stamp records
    try:
        return args.fn(args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ShapeError as exc:  # a ValueError, but raised by the run, not by its inputs
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
