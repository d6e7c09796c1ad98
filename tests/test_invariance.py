import math

import pytest

from coper.composers import gen_scaled_single
from coper.cycles import InvalidPeriod, PeriodicCycle
from coper.invariance import (
    PhaseConfig,
    check_relative_invariance,
    invariance_premise_test,
    rule_periodicity_counterexample,
)


class TestRelativeInvariance:
    def test_tight_for_small_period(self):
        assert check_relative_invariance(PhaseConfig(4), 1000) < 1e-9

    def test_tight_across_periods(self):
        for period in range(1, 65):
            assert check_relative_invariance(PhaseConfig(period), 50) < 1e-9

    def test_rejects_bad_period(self):
        with pytest.raises(InvalidPeriod):
            PhaseConfig(0)

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            check_relative_invariance(PhaseConfig(2), 0)


class TestCounterexample:
    def test_published_values(self):
        w = rule_periodicity_counterexample()
        assert abs(w.phase_diff_near - w.phase_diff_far) < 1e-12
        assert w.phase_diff_near == pytest.approx(-math.pi / 2)
        assert (w.rule_diff_near, w.rule_diff_far) == (-1, 2)
        assert not w.representable
        assert w.verdict == "not representable"

    def test_matched_periods_flip_the_verdict(self):
        w = rule_periodicity_counterexample(rule_period=4)
        assert w.rule_diff_near == w.rule_diff_far
        assert w.representable

    def test_dict_shape(self):
        d = rule_periodicity_counterexample().to_dict()
        assert d["verdict"] == "not representable"
        assert d["rule_diff_near"] == -1 and d["rule_diff_far"] == 2


class TestPremise:
    def test_true_periodicity_passes(self):
        seq = gen_scaled_single(PeriodicCycle((1, 2, 3)), 4, factor=1)  # plain repetition
        assert invariance_premise_test(seq, 3).holds

    def test_scaled_sequence_violates(self):
        seq = gen_scaled_single(PeriodicCycle((1, 2)), 3)
        w = invariance_premise_test(seq, 2)
        assert not w.holds
        a, b = w.violation
        assert seq[a] - seq[b] != seq[a + 2] - seq[b + 2]

    def test_constant_sequence_passes(self):
        for period in (1, 2, 3):
            assert invariance_premise_test((5,) * 9, period).holds

    def test_period_out_of_range(self):
        with pytest.raises(InvalidPeriod):
            invariance_premise_test((1, 2, 3), 3)
        with pytest.raises(InvalidPeriod):
            invariance_premise_test((1, 2, 3), 0)
