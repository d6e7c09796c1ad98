"""Fundamental periodic cycles and their minimal periods.

A cycle is the length-P list of values whose infinite repetition defines a
periodic sequence.
"""

from __future__ import annotations

from dataclasses import dataclass


class InvalidCycle(ValueError):
    """Cycle is empty or carries values outside its base."""


class InvalidPeriod(ValueError):
    """A period or length that must be positive is not."""


@dataclass(frozen=True)
class PeriodicCycle:
    """One fundamental cycle: integer values in [0, base)."""

    values: tuple[int, ...]
    base: int = 10

    def __post_init__(self):
        values = tuple(map(int, self.values))
        object.__setattr__(self, "values", values)
        if len(values) == 0:
            raise InvalidCycle("cycle must contain at least one value")
        if self.base < 2:
            raise InvalidCycle(f"base must be >= 2, got {self.base}")
        if min(values) < 0 or max(values) >= self.base:
            bad = next(v for v in values if not 0 <= v < self.base)
            raise InvalidCycle(f"value {bad} outside [0, {self.base})")

    def __len__(self) -> int:
        return len(self.values)


def minimal_period(cycle: PeriodicCycle) -> int:
    """Smallest d dividing len(cycle) with values[i] == values[i mod d].

    That holds exactly when the cycle equals itself shifted by d.
    """
    values = cycle.values
    n = len(values)
    for d in range(1, n + 1):
        if n % d == 0 and values[d:] == values[:n - d]:
            return d
    return n  # unreachable: d == n always matches

