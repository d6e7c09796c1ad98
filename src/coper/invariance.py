"""Numerical witnesses for what rotary phase encoding can and cannot carry.

Three executable checks: (1) phase products depend only on position
differences, (2) a positionally periodic value rule whose period differs
from the phase period is *not* determined by those differences (concrete
counterexample), and (3) a sequence transformation that rescales across
periods violates the difference-invariance premise outright.

These are algebraic facts about the encoding; whether a trained model
inherits the corresponding failures is measured empirically elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycles import InvalidPeriod


@dataclass(frozen=True)
class PhaseConfig:
    """Implicit period T with phase map t -> (2*pi / T) * t."""

    period: int

    def __post_init__(self):
        if self.period < 1:
            raise InvalidPeriod(f"period must be >= 1, got {self.period}")

    def phase(self, t) -> float:
        return (2.0 * math.pi / self.period) * t


def check_relative_invariance(cfg: PhaseConfig, trials: int, seed: int = 0) -> float:
    """Max deviation of phased products from their relative-position form.

    For random complex x_m, x_n and positions m, n, shift d, verifies both
    (x_m e^{i th m})(conj(x_n e^{i th n})) == x_m conj(x_n) e^{i th (m-n)}
    and invariance of that product under (m, n) -> (m+d, n+d).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    theta = 2.0 * math.pi / cfg.period
    worst = 0.0
    for _ in range(trials):
        xm = complex(rng.standard_normal(), rng.standard_normal())
        xn = complex(rng.standard_normal(), rng.standard_normal())
        m, n, d = (int(v) for v in rng.integers(0, 64, size=3))
        product = (xm * np.exp(1j * theta * m)) * np.conj(xn * np.exp(1j * theta * n))
        relative = xm * np.conj(xn) * np.exp(1j * theta * (m - n))
        shifted = (xm * np.exp(1j * theta * (m + d))) * np.conj(xn * np.exp(1j * theta * (n + d)))
        worst = max(worst, abs(product - relative), abs(product - shifted))
    return worst


@dataclass(frozen=True)
class CounterexampleWitness:
    phase_diff_near: float     # phase(a) - phase(b)
    phase_diff_far: float      # phase(a + shift) - phase(b + shift)
    rule_diff_near: int        # rule(a) - rule(b)
    rule_diff_far: int         # rule(a + shift) - rule(b + shift)
    representable: bool

    @property
    def verdict(self) -> str:
        return "representable" if self.representable else "not representable"

    def to_dict(self) -> dict:
        return {
            "phase_diff_near": self.phase_diff_near,
            "phase_diff_far": self.phase_diff_far,
            "rule_diff_near": self.rule_diff_near,
            "rule_diff_far": self.rule_diff_far,
            "verdict": self.verdict,
        }


def rule_periodicity_counterexample(rule_period: int = 3) -> CounterexampleWitness:
    """Equal phase differences, unequal rule differences.

    With phase period 4 and the value rule t -> t mod 3, positions (0, 1)
    and (8, 9) share one phase difference yet the rule differences are
    -1 and 2: no function of the phase difference alone reproduces the
    rule.  Choosing rule_period equal to the phase period makes the
    differences agree and flips the verdict.
    """
    phase_period, a, b = 4, 0, 1
    cfg = PhaseConfig(phase_period)
    shift = 2 * phase_period
    phase_near = cfg.phase(a) - cfg.phase(b)
    phase_far = cfg.phase(a + shift) - cfg.phase(b + shift)
    rule_near = (a % rule_period) - (b % rule_period)
    rule_far = ((a + shift) % rule_period) - ((b + shift) % rule_period)
    representable = (abs(phase_near - phase_far) < 1e-9) and (rule_near == rule_far)
    return CounterexampleWitness(phase_near, phase_far, rule_near, rule_far, representable)


@dataclass(frozen=True)
class PremiseWitness:
    holds: bool
    violation: tuple | None    # first (a, b) with f(a)-f(b) != f(a+T)-f(b+T)


def invariance_premise_test(seq, period: int) -> PremiseWitness:
    """Exhaustively check f(a) - f(b) == f(a + T) - f(b + T) over a sequence."""
    seq = list(seq)
    if period < 1 or period >= len(seq):
        raise InvalidPeriod(f"period {period} out of range for length {len(seq)}")
    limit = len(seq) - period
    for a in range(limit):
        for b in range(limit):
            if seq[a] - seq[b] != seq[a + period] - seq[b + period]:
                return PremiseWitness(False, (a, b))
    return PremiseWitness(True, None)
