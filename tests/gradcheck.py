"""The tests' reference gradient checker: central differences against the tape.

Not a test module; test files import it as `gradcheck` with this directory
on sys.path.
"""

import numpy as np

from coper.autodiff import Tape


class NumericalError(RuntimeError):
    """Non-finite values where finite ones are required."""


def grad_check(f, params, epsilon: float = 1e-3) -> float:
    """Max relative disagreement between analytic and central-difference grads.

    `f` is a closure returning a scalar Tensor from the current values of
    `params`.  The analytic pass runs once under a tape; the numeric pass
    re-evaluates f tape-free with each parameter element nudged by epsilon.
    """
    if not 1e-5 <= epsilon <= 1e-2:
        raise ValueError(f"epsilon must be in [1e-5, 1e-2], got {epsilon}")
    params = list(params)
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = f()
    if not np.isfinite(loss.data).all():
        raise NumericalError("loss is not finite")
    tape.backward(loss)

    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(analytic).all():
            raise NumericalError("analytic gradient is not finite")
        flat = p.data.reshape(-1)
        ga = np.asarray(analytic, dtype=np.float64).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = float(f().data)
            flat[i] = orig - epsilon
            f_minus = float(f().data)
            flat[i] = orig
            gn = (f_plus - f_minus) / (2.0 * epsilon)
            if not np.isfinite(gn):
                raise NumericalError("numeric gradient is not finite")
            rel = abs(ga[i] - gn) / (abs(ga[i]) + abs(gn) + 1e-8)
            worst = max(worst, rel)
    return worst
