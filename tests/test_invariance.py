"""The shift-invariance premise, checked on the model's rotary code and on the scaled task."""
import numpy as np

from coper import autodiff as ad
from coper.composers import gen_scaled_single
from coper.cycles import PeriodicCycle
from coper.model import rope_tables


class TestRelativeInvariance:
    def test_tight_across_periods(self):
        # Shifting query and key together by any whole period T leaves the
        # rotated score unchanged, for every T from 1 to 64.
        cos, sin = rope_tables(16, 320, 10000.0)
        rng = np.random.default_rng(3)
        q = rng.standard_normal((50, 1, 16)).astype(np.float32)
        k = rng.standard_normal((50, 1, 16)).astype(np.float32)
        m, n = rng.integers(0, 256, size=(2, 50, 1))

        def score(qpos, kpos):
            rq = ad.rope_rotate(ad.Tensor(q), cos[qpos], sin[qpos]).data
            rk = ad.rope_rotate(ad.Tensor(k), cos[kpos], sin[kpos]).data
            return (rq * rk).sum(axis=(1, 2))

        base = score(m, n)
        for period in range(1, 65):
            assert np.abs(base - score(m + period, n + period)).max() < 1e-5


class TestPremise:
    def test_scaled_sequence_violates(self):
        # (1, 2) scaled over three repeats is 1 2 2 4 4 8: differences one
        # period apart double, so f(a) - f(b) == f(a + 2) - f(b + 2) fails.
        seq = gen_scaled_single(PeriodicCycle((1, 2)), 3)
        limit = len(seq) - 2
        violations = [(a, b) for a in range(limit) for b in range(limit)
                      if seq[a] - seq[b] != seq[a + 2] - seq[b + 2]]
        assert violations
        a, b = violations[0]
        assert (a, b) == (0, 1)
        assert (seq[a] - seq[b], seq[a + 2] - seq[b + 2]) == (-1, -2)
