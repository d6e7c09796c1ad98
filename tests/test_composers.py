import math

import numpy as np
import pytest

from coper.composers import (
    AnswerLenPolicy,
    ComposeRule,
    FormatOverflow,
    InvalidSpec,
    compose_addsub,
    compose_circconv,
    compose_modadd,
    format_fixed10,
    gen_scaled_single,
    gen_sine_pair,
    gen_single_continuation,
)
from coper.cycles import PeriodicCycle, minimal_period
from coper.dataset import Split, SplitPolicy, TaskParams, build_dataset


def random_cycle(rng, max_len=8, base=10):
    n = int(rng.integers(1, max_len + 1))
    return PeriodicCycle(tuple(int(v) for v in rng.integers(0, base, size=n)))


class TestModAdd:
    def test_worked_example(self):
        assert compose_modadd(PeriodicCycle((1, 2, 3)), PeriodicCycle((1, 2)), 6) == (2, 4, 4, 3, 3, 5)

    def test_zero_second_operand(self):
        assert compose_modadd(PeriodicCycle((1, 2, 3)), PeriodicCycle((0, 0)), 6) == (1, 2, 3, 1, 2, 3)

    def test_digitwise_addition(self):
        assert compose_modadd(PeriodicCycle((3, 4, 2)), PeriodicCycle((1, 1, 7)), 3) == (4, 5, 9)

    def test_rejects_values_at_modulus(self):
        for fn in (compose_modadd, compose_addsub, compose_circconv):
            with pytest.raises(InvalidSpec, match="must be < modulus 10"):
                fn(PeriodicCycle((1,)), PeriodicCycle((10,), base=11), 3)

    def test_commutative(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            c1, c2 = random_cycle(rng), random_cycle(rng)
            n = int(rng.integers(1, 30))
            assert compose_modadd(c1, c2, n) == compose_modadd(c2, c1, n)

    def test_matches_pointwise_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            c1, c2 = random_cycle(rng), random_cycle(rng)
            n = int(rng.integers(1, 40))
            got = compose_modadd(c1, c2, n)
            expect = tuple(
                (c1.values[t % len(c1)] + c2.values[t % len(c2)]) % 10 for t in range(n))
            assert got == expect


class TestAddSub:
    def test_worked_example(self):
        assert compose_addsub(PeriodicCycle((1, 2, 3)), PeriodicCycle((1, 2)), 6) == (2, 0, 4, 9, 3, 1)

    def test_zero_second_operand(self):
        assert compose_addsub(PeriodicCycle((5, 5)), PeriodicCycle((0, 0)), 4) == (5, 5, 5, 5)

    def test_sign_alternation_wraps_into_range(self):
        assert compose_addsub(PeriodicCycle((0, 0)), PeriodicCycle((1, 1)), 4) == (1, 9, 1, 9)


class TestPeriodDividesLcm:
    @pytest.mark.parametrize("fn", [compose_modadd, compose_addsub])
    def test_two_cycle_rules(self, fn):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            c1, c2 = random_cycle(rng, 6), random_cycle(rng, 6)
            n = math.lcm(len(c1), len(c2))
            out = fn(c1, c2, n)
            d = minimal_period(PeriodicCycle(out))
            assert n % d == 0

    def test_circconv(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            c1, c2 = random_cycle(rng, 6), random_cycle(rng, 6)
            n = math.lcm(len(c1), len(c2))
            out = compose_circconv(c1, c2, n)
            assert len(out) == n
            assert n % minimal_period(PeriodicCycle(out)) == 0


class TestCircConv:
    def test_zero_factor_annihilates(self):
        assert compose_circconv(PeriodicCycle((1, 2)), PeriodicCycle((0, 0, 0)), 6) == (0, 0, 0, 0, 0, 0)

    def test_constant_factor(self):
        assert compose_circconv(PeriodicCycle((1, 2)), PeriodicCycle((1, 1, 1)), 6) == (9, 9, 9, 9, 9, 9)

    def test_matches_double_loop_oracle(self):
        # The definition, summed over n < N for every t < out_len: lengths
        # below, at and beyond N = lcm(P1, P2) all follow it.
        rng = np.random.default_rng(14)
        for _ in range(200):
            c1, c2 = random_cycle(rng, 5), random_cycle(rng, 5)
            n = math.lcm(len(c1), len(c2))
            out_len = int(rng.integers(1, 2 * n + 1))
            expect = tuple(
                sum(c1.values[m % len(c1)] * c2.values[(t - m) % len(c2)] for m in range(n)) % 10
                for t in range(out_len))
            assert compose_circconv(c1, c2, out_len) == expect

    def test_rotation_equivariance(self):
        # Rotating the first cycle by k rotates the output period by k.
        rng = np.random.default_rng(15)
        for _ in range(1000):
            c1, c2 = random_cycle(rng, 6), random_cycle(rng, 6)
            n = math.lcm(len(c1), len(c2))
            k = int(rng.integers(-10, 11))
            rotated_in = PeriodicCycle(np.roll(c1.values, k))
            lhs = compose_circconv(rotated_in, c2, n)
            rhs = np.roll(compose_circconv(c1, c2, n), k)
            assert list(lhs) == rhs.tolist()


class TestScaledSingle:
    @pytest.mark.parametrize(
        "values,repeats,expected",
        [
            ((1, 2), 3, (1, 2, 2, 4, 4, 8)),
            ((3,), 3, (3, 6, 12)),
            ((1, 1, 1), 2, (1, 1, 1, 2, 2, 2)),
        ],
    )
    def test_examples(self, values, repeats, expected):
        assert gen_scaled_single(PeriodicCycle(values), repeats) == expected

    def test_rejects_too_few_repeats(self):
        with pytest.raises(InvalidSpec):
            gen_scaled_single(PeriodicCycle((1,)), 1)

    def test_rejects_zero_values(self):
        with pytest.raises(InvalidSpec):
            gen_scaled_single(PeriodicCycle((0, 1)), 2)

    def test_breaks_shift_invariance(self):
        # For every nonzero cycle some pair (a, b) violates
        # f(a) - f(b) == f(a + T) - f(b + T).
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            c = PeriodicCycle(tuple(int(v) for v in rng.integers(1, 5, size=n)), base=5)
            seq = gen_scaled_single(c, 3)
            t = len(c)
            limit = len(seq) - t
            violated = any(
                seq[a] - seq[b] != seq[a + t] - seq[b + t]
                for a in range(limit) for b in range(limit)
            )
            assert violated


class TestSingleContinuation:
    def test_worked_example(self):
        prompt, answer = gen_single_continuation(PeriodicCycle((9, 5, 5, 8, 8, 4)), 13, 11)
        assert "".join(map(str, prompt)) == "9558849558849"
        assert "".join(map(str, answer)) == "55884955884"

    def test_tiny(self):
        assert gen_single_continuation(PeriodicCycle((1, 2)), 4, 2) == ((1, 2, 1, 2), (1, 2))

    def test_constant(self):
        assert gen_single_continuation(PeriodicCycle((7,)), 3, 3) == ((7, 7, 7), (7, 7, 7))

    def test_rejects_short_prompt(self):
        with pytest.raises(InvalidSpec):
            gen_single_continuation(PeriodicCycle((1, 2, 3)), 5, 2)


class TestSinePairs:
    def test_x_formatting(self):
        x_text, _ = gen_sine_pair(3.1415926)
        assert x_text == "+3.1415926"

    def test_sin_zero(self):
        assert gen_sine_pair(0.0)[1] == "+0.0000000"

    def test_sin_right_angle(self):
        assert gen_sine_pair(math.pi / 2)[1] == "+1.0000000"

    def test_width_is_always_ten(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            x = float(rng.uniform(-99.9, 99.9))
            x_text, y_text = gen_sine_pair(x)
            assert len(x_text) == 10 and len(y_text) == 10

    def test_round_trip_to_seven_digits(self):
        rng = np.random.default_rng(18)
        for _ in range(1000):
            x = float(rng.uniform(-9.9, 9.9))
            assert float(format_fixed10(x)) == pytest.approx(x, abs=5e-8)

    def test_overflow(self):
        with pytest.raises(FormatOverflow):
            format_fixed10(100.0)

    def test_two_digit_regime(self):
        assert format_fixed10(12.345678901) == "+12.345679"
        assert format_fixed10(-18.8495559) == "-18.849556"


class TestComposeSpec:
    def test_cap_must_cover_periods(self, tmp_path):
        policy = SplitPolicy(2, 4, 2, 6)
        with pytest.raises(InvalidSpec, match="shorter than the largest period 6"):
            build_dataset(ComposeRule.MOD_ADD, policy, {Split.TRAIN: 1}, 0, tmp_path,
                          answer_policy=AnswerLenPolicy(5), task_params=TaskParams())

    def test_policy_lengths(self):
        assert AnswerLenPolicy().answer_len(77) == 77
        assert AnswerLenPolicy(40).answer_len(77) == 40
        assert AnswerLenPolicy(40).answer_len(12) == 12

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_cap_below_one_rejected(self, max_len):
        with pytest.raises(InvalidSpec, match="answer cap must be >= 1"):
            AnswerLenPolicy(max_len)
