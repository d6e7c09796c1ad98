"""Generators for every periodic task family in the benchmark.

Two-input composers combine a pair of cycles position-wise (modular
addition, alternating add/subtract, circular convolution); single-input
generators produce continuation prompts, geometrically scaled sequences,
and fixed-width sine pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cycles import InvalidPeriod, PeriodicCycle

# Cycle values of the digit tasks, and their composed answers, live in [0, MODULUS).
MODULUS = 10


class InvalidSpec(ValueError):
    """Task parameters that cannot produce a well-formed sample."""


class FormatOverflow(ValueError):
    """A real value does not fit the fixed-width decimal format."""


class ComposeRule(str, Enum):
    MOD_ADD = "mod_add"
    ADD_SUB_ALT = "add_sub_alt"
    CIRC_CONV = "circ_conv"
    SCALED_SINGLE = "scaled_single"
    SINGLE_PERIOD = "single_period"
    SINE = "sine"


TWO_CYCLE_RULES = frozenset({ComposeRule.MOD_ADD, ComposeRule.ADD_SUB_ALT, ComposeRule.CIRC_CONV})


@dataclass(frozen=True)
class AnswerLenPolicy:
    """How long a composed answer is: the full combined period, or capped."""

    max_len: int | None = None  # None = always the full lcm

    def __post_init__(self):
        if self.max_len is not None and self.max_len < 1:
            raise InvalidSpec(f"answer cap must be >= 1, got {self.max_len}")

    def answer_len(self, full_len: int) -> int:
        return full_len if self.max_len is None else min(full_len, self.max_len)

    @property
    def kind(self) -> str:
        return "full_lcm" if self.max_len is None else "capped"


def _check_operands(c1: PeriodicCycle, c2: PeriodicCycle, out_len: int) -> None:
    if out_len < 1:
        raise InvalidPeriod(f"output length must be >= 1, got {out_len}")
    for cycle in (c1, c2):
        if max(cycle.values) >= MODULUS:
            raise InvalidSpec(f"cycle values must be < modulus {MODULUS}: {cycle.values}")


def _extended(cycle: PeriodicCycle, length: int) -> tuple[int, ...]:
    """The first `length` values of the cycle's infinite repetition."""
    return (cycle.values * -(-length // len(cycle)))[:length]


def compose_modadd(c1: PeriodicCycle, c2: PeriodicCycle, out_len: int) -> tuple[int, ...]:
    """out[t] = (c1[t mod P1] + c2[t mod P2]) mod MODULUS."""
    _check_operands(c1, c2, out_len)
    return tuple([(a + b) % MODULUS for a, b in zip(_extended(c1, out_len), _extended(c2, out_len))])


def compose_addsub(c1: PeriodicCycle, c2: PeriodicCycle, out_len: int) -> tuple[int, ...]:
    """out[t] = (c1[t mod P1] + (-1)^t * c2[t mod P2]) mod MODULUS.

    The mod is the mathematical one, mapping into [0, MODULUS).
    """
    _check_operands(c1, c2, out_len)
    e1, e2 = _extended(c1, out_len), _extended(c2, out_len)
    return tuple([(e1[t] - e2[t] if t & 1 else e1[t] + e2[t]) % MODULUS for t in range(out_len)])


def compose_circconv(c1: PeriodicCycle, c2: PeriodicCycle, out_len: int) -> tuple[int, ...]:
    """out[t] = (sum_{n < N} c1[n mod P1] * c2[(t - n) mod P2]) mod MODULUS,
    with N = lcm(P1, P2); the reduction makes it fit the digit vocabulary.

    With f1 = c1 over N positions and f2 = c2 over 2N, entry N + t of their
    linear convolution sums f1[n] * f2[N + t - n] over every n < N, and
    N + t - n = t - n (mod P2): that is out[t] for t < N, and out has
    period N.
    """
    _check_operands(c1, c2, out_len)
    n_total = math.lcm(len(c1), len(c2))
    full = np.convolve(_extended(c1, n_total), _extended(c2, 2 * n_total))
    return tuple(np.resize(full[n_total:2 * n_total] % MODULUS, out_len).tolist())


def gen_scaled_single(c: PeriodicCycle, repeats: int, factor: int = 2) -> tuple[int, ...]:
    """Geometric block repetition: block r equals factor^r * cycle, unreduced.

    Values grow across blocks, deliberately breaking the shift invariance
    that plain periodic repetition has.
    """
    if repeats < 2:
        raise InvalidSpec(f"repeats must be >= 2, got {repeats}")
    if any(v < 1 for v in c.values):
        raise InvalidSpec(f"scaled cycles need values >= 1, got {c.values}")
    out: list[int] = []
    for r in range(repeats):
        out.extend(v * factor**r for v in c.values)
    return tuple(out)


def gen_single_continuation(c: PeriodicCycle, prompt_len: int, answer_len: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Periodic continuation task: prompt of >= two cycles, then the next tokens."""
    if prompt_len < 2 * len(c):
        raise InvalidSpec(f"prompt_len {prompt_len} shorter than two cycles of length {len(c)}")
    if answer_len < 1:
        raise InvalidSpec(f"answer_len must be >= 1, got {answer_len}")
    seq = _extended(c, prompt_len + answer_len)
    return seq[:prompt_len], seq[prompt_len:]


def format_fixed10(v: float) -> str:
    """Render a real as exactly 10 chars: sign, integer digits, '.', fraction.

    |v| < 10 gets 7 fractional digits, 10 <= |v| < 100 gets 6; the width
    stays 10 either way so token positions align across samples.
    """
    if not math.isfinite(v) or abs(v) >= 100:
        raise FormatOverflow(f"value {v!r} does not fit the 10-char format")
    s = f"{v:+.7f}"
    if len(s) == 10:
        return s
    s = f"{v:+.6f}"
    if len(s) == 10:
        return s
    raise FormatOverflow(f"value {v!r} rounds outside the 10-char format")


def gen_sine_pair(x: float) -> tuple[str, str]:
    """Fixed-width (x, sin x) text pair, e.g. ('+3.1415926', '+0.0000000').

    The sine is taken of the value the text actually encodes (x quantized
    to its serialized precision), so any reader of the pair can reproduce
    the target exactly from the input text alone.
    """
    x_text = format_fixed10(x)
    return x_text, format_fixed10(math.sin(float(x_text)))
