"""Named experiment recipes, each fully resolving to dataset, model, and
training configs at two scales.

`desk` keeps every run within single-core CPU budgets (small model, small
corpus, large step size); `paper` mirrors the full published protocol
(hidden size 896, 50k samples, lr 1e-5, 450 epochs) and exists for fidelity
runs on real hardware, not for the acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .composers import AnswerLenPolicy, ComposeRule
from .dataset import Split, SplitPolicy, TaskParams
from .model import ModelConfig, PeKind
from .training import TrainConfig


@dataclass(frozen=True)
class ProfileSettings:
    policy: SplitPolicy | None
    counts: dict
    answer_policy: AnswerLenPolicy
    task_params: TaskParams
    model: ModelConfig
    train: TrainConfig


@dataclass(frozen=True)
class ExperimentProfile:
    name: str
    rule: ComposeRule
    desk: ProfileSettings
    paper: ProfileSettings

    def settings(self, scale: str = "desk") -> ProfileSettings:
        if scale not in ("desk", "paper"):
            raise ValueError(f"scale must be 'desk' or 'paper', got {scale!r}")
        return self.desk if scale == "desk" else self.paper


def _counts(train, test_id, hollow, extra) -> dict:
    return {Split.TRAIN: train, Split.TEST_ID: test_id,
            Split.TEST_HOLLOW: hollow, Split.TEST_EXTRAPOLATION: extra}


# Reduced pair grid used by every desk-scale composite task: periods [3, 9]
# for training with hollows {(5,6), (6,6)}, extrapolation out to [2, 11].
_DESK_PAIR_POLICY = SplitPolicy(3, 9, 2, 11, hollow=((5, 6), (6, 6)))
_DESK_PAIR_MODEL = ModelConfig(d_model=64, n_heads=4, n_layers=2, max_seq_len=384)
_DESK_PAIR_TRAIN = TrainConfig(batch_size=64, learning_rate=3e-4, epochs=30, eval_every=3)
_DESK_PAIR_COUNTS = _counts(8000, 400, 400, 400)
_DESK_CAP = AnswerLenPolicy(40)

_PAPER_PAIR_MODEL = ModelConfig(d_model=896, n_heads=14, n_layers=3, max_seq_len=1024)
_PAPER_PAIR_TRAIN = TrainConfig(batch_size=32, learning_rate=1e-5, weight_decay=0.01,
                                epochs=450, eval_every=10)
_PAPER_COUNTS = _counts(50_000, 1000, 1000, 1000)

# Single-period continuation: train periods {4..10} minus hollow 7,
# extrapolation {2, 3, 11, 12}; prompts always hold at least two cycles.
_SINGLE_POLICY = SplitPolicy(4, 10, 2, 12, hollow=((7, 7),))
_SINGLE_PARAMS = TaskParams(prompt_len_lo=25, prompt_len_hi=32, answer_len=10)
_DESK_SINGLE_MODEL = ModelConfig(d_model=64, n_heads=4, n_layers=2, max_seq_len=128)
_DESK_SINGLE_TRAIN = TrainConfig(batch_size=64, learning_rate=3e-4, epochs=30, eval_every=3)

_SCALED_PARAMS = TaskParams(repeats=4, prompt_blocks=2, value_hi=4, factor=2)

_SINE_PARAMS = TaskParams(x_id_bound=3 * math.pi, x_ood_bound=6 * math.pi)


def _pair_profile(name: str, rule: ComposeRule, desk_policy=_DESK_PAIR_POLICY,
                  paper_policy: SplitPolicy | None = None) -> ExperimentProfile:
    return ExperimentProfile(
        name=name,
        rule=rule,
        desk=ProfileSettings(desk_policy, _DESK_PAIR_COUNTS, _DESK_CAP, TaskParams(),
                             _DESK_PAIR_MODEL, _DESK_PAIR_TRAIN),
        paper=ProfileSettings(paper_policy or SplitPolicy.default(), _PAPER_COUNTS,
                              AnswerLenPolicy(), TaskParams(),
                              _PAPER_PAIR_MODEL, _PAPER_PAIR_TRAIN),
    )


PROFILES: dict[str, ExperimentProfile] = {}
for _profile in [
    _pair_profile("coper-default", ComposeRule.MOD_ADD),
    _pair_profile(
        "coper-dense", ComposeRule.MOD_ADD,
        desk_policy=SplitPolicy(3, 9, 2, 11, hollow=((6, 7), (7, 7))),
        paper_policy=SplitPolicy(2, 11, 2, 16, hollow=((6, 7), (7, 7)))),
    _pair_profile("circconv", ComposeRule.CIRC_CONV),
    _pair_profile("addsub", ComposeRule.ADD_SUB_ALT),
    ExperimentProfile(
        name="single-period",
        rule=ComposeRule.SINGLE_PERIOD,
        desk=ProfileSettings(_SINGLE_POLICY, _counts(2000, 600, 400, 600),
                             AnswerLenPolicy(), _SINGLE_PARAMS,
                             _DESK_SINGLE_MODEL, _DESK_SINGLE_TRAIN),
        paper=ProfileSettings(_SINGLE_POLICY, _counts(10_000, 1000, 1000, 1000),
                              AnswerLenPolicy(), _SINGLE_PARAMS,
                              _PAPER_PAIR_MODEL,
                              replace(_PAPER_PAIR_TRAIN, epochs=100)),
    ),
    ExperimentProfile(
        name="single-period-scaled",
        rule=ComposeRule.SCALED_SINGLE,
        desk=ProfileSettings(_SINGLE_POLICY, _counts(2000, 400, 300, 400),
                             AnswerLenPolicy(), _SCALED_PARAMS,
                             replace(_DESK_SINGLE_MODEL, max_seq_len=192),
                             _DESK_SINGLE_TRAIN),
        paper=ProfileSettings(_SINGLE_POLICY, _counts(10_000, 1000, 1000, 1000),
                              AnswerLenPolicy(), _SCALED_PARAMS,
                              _PAPER_PAIR_MODEL,
                              replace(_PAPER_PAIR_TRAIN, epochs=100)),
    ),
    ExperimentProfile(
        name="sine",
        rule=ComposeRule.SINE,
        desk=ProfileSettings(None, _counts(8000, 800, 0, 800),
                             AnswerLenPolicy(), _SINE_PARAMS,
                             ModelConfig(d_model=64, n_heads=4, n_layers=2, max_seq_len=64),
                             TrainConfig(batch_size=64, learning_rate=1e-3, epochs=120,
                                         eval_every=10)),
        paper=ProfileSettings(None, _counts(50_000, 1000, 0, 1000),
                              AnswerLenPolicy(), _SINE_PARAMS,
                              _PAPER_PAIR_MODEL, _PAPER_PAIR_TRAIN),
    ),
]:
    PROFILES[_profile.name] = _profile


def get_profile(name: str) -> ExperimentProfile:
    if name not in PROFILES:
        known = ", ".join(sorted(PROFILES))
        raise KeyError(f"unknown profile {name!r}; known profiles: {known}")
    return PROFILES[name]
