import math

import numpy as np
import pytest

from coper.composers import AnswerLenPolicy, ComposeRule, InvalidSpec, compose_modadd
from coper.cycles import InvalidCycle, InvalidPeriod, PeriodicCycle, minimal_period
from coper.dataset import Split, TaskParams, make_record


def naive_period(values):
    """Independent oracle: smallest d whose cyclic shift fixes the extension."""
    ext = list(values) * 3
    n = len(values)
    for d in range(1, n + 1):
        if all(ext[i] == ext[i + d] for i in range(len(ext) - d)):
            return d
    return n


class TestPeriodicCycle:
    def test_rejects_empty(self):
        with pytest.raises(InvalidCycle):
            PeriodicCycle(())

    def test_rejects_out_of_base(self):
        with pytest.raises(InvalidCycle):
            PeriodicCycle((0, 10))
        with pytest.raises(InvalidCycle):
            PeriodicCycle((-1,))

    def test_small_base(self):
        with pytest.raises(InvalidCycle):
            PeriodicCycle((0,), base=1)


class TestMinimalPeriod:
    @pytest.mark.parametrize(
        "values,expected",
        [((1, 2, 1, 2), 2), ((9, 5, 5, 8, 8, 4), 6), ((7, 7, 7), 1)],
    )
    def test_examples(self, values, expected):
        assert minimal_period(PeriodicCycle(values)) == expected

    def test_divides_length_and_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            values = tuple(int(v) for v in rng.integers(0, 10, size=n))
            c = PeriodicCycle(values)
            d = minimal_period(c)
            assert n % d == 0
            assert d == naive_period(values)

    def test_extension_fixed_by_period_shift(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            c = PeriodicCycle(tuple(int(v) for v in rng.integers(0, 10, size=n)))
            d = minimal_period(c)
            ext = compose_modadd(c, PeriodicCycle((0,)), 3 * d)
            assert np.roll(ext, d).tolist() == list(ext)


class TestLcm:
    """Each operand of a two-cycle record spans N = lcm(P1, P2) digits."""

    @staticmethod
    def operand_length(a, b):
        rec = make_record(ComposeRule.MOD_ADD, Split.TRAIN, (a, b), 0, np.random.default_rng(a * 100 + b),
                          AnswerLenPolicy(), TaskParams())
        s1, s2 = rec.input_text[:-1].split("+")
        assert len(s1) == len(s2) == len(rec.target_text)
        return len(s1)

    @pytest.mark.parametrize("a,b,expected", [(3, 2, 6), (4, 4, 4), (13, 16, 208)])
    def test_examples(self, a, b, expected):
        assert self.operand_length(a, b) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSpec, match="period must be >= 1"):
            self.operand_length(0, 3)
        with pytest.raises(InvalidSpec, match="period must be >= 1"):
            self.operand_length(3, -1)

    def test_gcd_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = (int(v) for v in rng.integers(1, 17, size=2))
            assert self.operand_length(a, b) == self.operand_length(b, a)
            assert self.operand_length(a, b) * math.gcd(a, b) == a * b


class TestExtend:
    """A cycle's extension, as the generators build it: adding the all-zero
    cycle modulo 10 leaves out[t] = values[t mod P]."""

    @pytest.mark.parametrize(
        "values,length,expected",
        [
            ((1, 2, 3), 6, (1, 2, 3, 1, 2, 3)),
            ((1, 2), 5, (1, 2, 1, 2, 1)),
            ((5,), 3, (5, 5, 5)),
        ],
    )
    def test_examples(self, values, length, expected):
        assert compose_modadd(PeriodicCycle(values), PeriodicCycle((0,)), length) == expected

    def test_rejects_bad_length(self):
        with pytest.raises(InvalidPeriod):
            compose_modadd(PeriodicCycle((1,)), PeriodicCycle((0,)), 0)
