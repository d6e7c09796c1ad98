"""Named experiment recipes, each fully resolving to dataset, model, and
training configs at desk scale: a small model, a small corpus and a large
step size, so that every run fits a single-core CPU budget.

The published protocol is kept here as reference numbers only; no code
builds it.  In pure numpy its per-token GEMM work is about 294x the desk
model's, and with 6.25x the samples and 15x the epochs a pair run would
take on the order of 200+ days per seed on a 2-core CPU.

    model (every profile)  d_model 896, 14 heads, 3 layers, max_seq_len 1024
    train                  batch 32, lr 1e-5, weight decay 0.01, 450 epochs
                           (100 for the two single-period profiles), eval every 10
    answers                the full lcm(P1, P2), never capped

    profile                 train / test_id / hollow / extrapolation   pair grid
    coper-default, circconv,
      addsub                50,000 / 1,000 / 1,000 / 1,000             train [4, 14] in [2, 16],
                                                                       hollow [8, 11]^2
    coper-dense             50,000 / 1,000 / 1,000 / 1,000             train [2, 11] in [2, 16],
                                                                       hollow (6,7), (7,7)
    single-period,
      single-period-scaled  10,000 / 1,000 / 1,000 / 1,000             the desk grid
    sine                    50,000 / 1,000 / 0 / 1,000                 none
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .composers import AnswerLenPolicy, ComposeRule
from .dataset import Split, SplitPolicy, TaskParams
from .model import ModelConfig
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

    def settings(self, scale: str) -> ProfileSettings:
        """The settings at `scale`; "desk" is the only scale.  Kept for the
        benchmark harness, which asks for its settings by scale name."""
        if scale != "desk":
            raise ValueError(f"scale must be 'desk', got {scale!r}")
        return self.desk


def _counts(train, test_id, hollow, extra) -> dict:
    return {Split.TRAIN: train, Split.TEST_ID: test_id,
            Split.TEST_HOLLOW: hollow, Split.TEST_EXTRAPOLATION: extra}


# Every task runs TaskParams' defaults: 25-32 digit continuation prompts
# with 10-digit answers, 4 scaled blocks of values in [1, 4] doubling each
# block, and sine inputs with |x| <= 3 pi in distribution, up to 6 pi beyond.
_DESK_MODEL = ModelConfig(d_model=64, n_heads=4, n_layers=2)
_DESK_TRAIN = TrainConfig(batch_size=64, learning_rate=3e-4, epochs=30, eval_every=3)

# Reduced pair grid used by every desk-scale composite task: periods [3, 9]
# for training with hollows {(5,6), (6,6)}, extrapolation out to [2, 11].
_DESK_PAIR_POLICY = SplitPolicy(3, 9, 2, 11, hollow=((5, 6), (6, 6)))

# Single-period continuation: train periods {4..10} minus hollow 7,
# extrapolation {2, 3, 11, 12}; prompts always hold at least two cycles.
_SINGLE_POLICY = SplitPolicy(4, 10, 2, 12, hollow=((7, 7),))


def _pair_profile(name: str, rule: ComposeRule, policy=_DESK_PAIR_POLICY) -> ExperimentProfile:
    return ExperimentProfile(name, rule, ProfileSettings(
        policy, _counts(8000, 400, 400, 400), AnswerLenPolicy(40), TaskParams(),
        replace(_DESK_MODEL, max_seq_len=384), _DESK_TRAIN))


def _single_profile(name: str, rule: ComposeRule, counts: dict, max_seq_len: int) -> ExperimentProfile:
    return ExperimentProfile(name, rule, ProfileSettings(
        _SINGLE_POLICY, counts, AnswerLenPolicy(), TaskParams(),
        replace(_DESK_MODEL, max_seq_len=max_seq_len), _DESK_TRAIN))


PROFILES: dict[str, ExperimentProfile] = {profile.name: profile for profile in [
    _pair_profile("coper-default", ComposeRule.MOD_ADD),
    _pair_profile("coper-dense", ComposeRule.MOD_ADD,
                  SplitPolicy(3, 9, 2, 11, hollow=((6, 7), (7, 7)))),
    _pair_profile("circconv", ComposeRule.CIRC_CONV),
    _pair_profile("addsub", ComposeRule.ADD_SUB_ALT),
    _single_profile("single-period", ComposeRule.SINGLE_PERIOD, _counts(2000, 600, 400, 600), 128),
    _single_profile("single-period-scaled", ComposeRule.SCALED_SINGLE,
                    _counts(2000, 400, 300, 400), 192),
    ExperimentProfile("sine", ComposeRule.SINE, ProfileSettings(
        None, _counts(8000, 800, 0, 800), AnswerLenPolicy(), TaskParams(),
        replace(_DESK_MODEL, max_seq_len=64),
        replace(_DESK_TRAIN, learning_rate=1e-3, epochs=120, eval_every=10))),
]}


def get_profile(name: str) -> ExperimentProfile:
    if name not in PROFILES:
        known = ", ".join(sorted(PROFILES))
        raise KeyError(f"unknown profile {name!r}; known profiles: {known}")
    return PROFILES[name]
