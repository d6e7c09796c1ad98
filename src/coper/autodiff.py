"""Reverse-mode automatic differentiation over dense rank-<=3 float arrays.

Just enough machinery for a small decoder transformer: a Tensor wrapper, a
Tape that records operations in execution order, and analytic backward
rules for each primitive.  Ops run tape-free (pure numpy forward) when no
tape is active, which is how inference and generation stay cheap.

Gradient flow is single-threaded per tape; reductions that feed losses
(softmax normalizers, norms, cross-entropy) accumulate in float64 while the
bulk matmuls stay in the array dtype so BLAS runs at full speed.

Attention is one fused primitive.  Its forward walks the (batch * heads)
axis in blocks whose score tile is about _ATTENTION_BLOCK_BYTES, builds the
masked softmax in place in one buffer with float64 row sums, and keeps only
the per-row log-sum-exp; its backward recomputes each block's probabilities
from q, k and that log-sum-exp rather than storing the (B*H, S, S) tensor.
GELU likewise keeps only tanh of its inner polynomial and recomputes x*x in
backward.  No primitive writes into its inputs' arrays.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes that a primitive cannot combine."""


class NumericalError(RuntimeError):
    """Non-finite values where finite ones are required."""


class Tensor:
    """Dense float array (rank <= 3) with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        if arr.ndim > 3:
            raise ShapeError(f"tensors are rank <= 3, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


_TAPES: list["Tape"] = []


class Tape:
    """Execution-ordered operation record; backward walks it once, reversed.

    Nodes are appended as ops execute, so the list is already a topological
    order of the forward graph.
    """

    def __init__(self):
        self._nodes = []
        self._produced = set()

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()
        return False

    def _record(self, out: Tensor, inputs: tuple, backward_fn) -> None:
        self._nodes.append((out, inputs, backward_fn))
        self._produced.add(id(out))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into .grad of every requiring leaf."""
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        grads = {id(loss): np.ones_like(loss.data)}
        holders = {id(loss): loss}
        for out, inputs, backward_fn in reversed(self._nodes):
            g = grads.pop(id(out), None)
            holders.pop(id(out), None)
            if g is None:
                continue
            for inp, gi in zip(inputs, backward_fn(g)):
                if gi is None or not inp.requires_grad:
                    continue
                key = id(inp)
                if key in grads:
                    grads[key] = grads[key] + gi
                else:
                    grads[key] = gi
                holders[key] = inp
        for key, t in holders.items():
            if key in self._produced:
                continue
            g = grads.get(key)
            if g is not None:
                t.grad = g if t.grad is None else t.grad + g


def _active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def _wrap(data, inputs: tuple, backward_fn) -> Tensor:
    tape = _active_tape()
    needs = tape is not None and any(i.requires_grad for i in inputs)
    out = Tensor(data, requires_grad=needs)
    if needs:
        tape._record(out, inputs, backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back down to a broadcast operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _swap_last(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; supports 2D @ 2D, 3D @ 2D, and batched 3D @ 3D.

    3D @ 2D runs forward and backward as single 2-D GEMMs over the
    (batch * length) rows, which BLAS does much faster than a stack of
    per-batch products.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2 or ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"cannot matmul shapes {ad.shape} and {bd.shape}")
    if ad.ndim == 3 and bd.ndim == 3 and ad.shape[0] != bd.shape[0]:
        raise ShapeError(f"batch sizes differ: {ad.shape} vs {bd.shape}")
    a_shape = ad.shape
    flat = ad.ndim == 3 and bd.ndim == 2
    if flat:
        ad = ad.reshape(-1, a_shape[-1])
    data = (ad @ bd).reshape(*a_shape[:-1], bd.shape[-1])

    def backward(g):
        if flat:
            g = g.reshape(-1, g.shape[-1])
        ga = gb = None
        if a.requires_grad:
            ga = (g @ _swap_last(bd)).reshape(a_shape)
        if b.requires_grad:
            gb = _swap_last(ad) @ g
        return ga, gb

    return _wrap(data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    try:
        data = ad + bd
    except ValueError as exc:
        raise ShapeError(f"cannot add shapes {ad.shape} and {bd.shape}") from exc

    def backward(g):
        ga = _unbroadcast(g, ad.shape) if a.requires_grad else None
        gb = _unbroadcast(g, bd.shape) if b.requires_grad else None
        return ga, gb

    return _wrap(data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        return (g * s,)

    return _wrap(a.data * s, (a,), backward)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    try:
        data = ad * bd
    except ValueError as exc:
        raise ShapeError(f"cannot multiply shapes {ad.shape} and {bd.shape}") from exc

    def backward(g):
        ga = _unbroadcast(g * bd, ad.shape) if a.requires_grad else None
        gb = _unbroadcast(g * ad, bd.shape) if b.requires_grad else None
        return ga, gb

    return _wrap(data, (a, b), backward)


_GELU_C = 0.7978845608028654  # sqrt(2 / pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU; the backward differentiates the approximation.

    Powers are spelled as products: numpy's float32 pow ufunc takes a scalar
    libm path that is orders of magnitude slower than multiplication.  The
    forward builds tanh(C * x * (1 + A * x^2)) in one temporary, using the
    output array as scratch, and keeps only that tanh for backward.
    """
    xd = x.data
    t = xd * xd
    t *= _GELU_A
    t += 1.0
    data = np.multiply(xd, _GELU_C)
    t *= data
    np.tanh(t, out=t)
    np.add(t, 1.0, out=data)
    data *= xd
    data *= 0.5

    def backward(g):
        dx = t * t
        np.subtract(1.0, dx, out=dx)
        tmp = xd * xd
        tmp *= 3.0 * _GELU_C * _GELU_A
        tmp += _GELU_C
        dx *= tmp
        dx *= xd
        dx += np.add(t, 1.0, out=tmp)
        dx *= np.multiply(g, 0.5, out=tmp)
        return (dx,)

    return _wrap(data, (x,), backward)


# Bytes of one block's (rows, S, S) score tile in `attention`.  About 1 MiB
# bounds the op's score memory to two such tiles whatever the batch and
# length, while a block still holds enough rows (7 at S = 187, float32)
# that the per-block Python overhead stays small.
_ATTENTION_BLOCK_BYTES = 1 << 20


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
              additive_mask: np.ndarray | None = None) -> Tensor:
    """softmax(scale * q @ k^T + mask) @ v over (N, S, D) operands, as one op.

    The mask broadcasts against the (S, S) scores and may contain -inf to
    zero positions out entirely (each row must keep at least one finite
    entry).  Rows of the leading axis are processed in blocks; the
    probabilities are never stored, only each score row's log-sum-exp, and
    backward recomputes them block by block.
    """
    qd, kd, vd = q.data, k.data, v.data
    if qd.ndim != 3 or kd.shape != qd.shape or vd.shape[:2] != qd.shape[:2]:
        raise ShapeError(f"cannot attend with q {qd.shape}, k {kd.shape}, v {vd.shape}")
    n, s, _ = qd.shape
    dtype = qd.dtype
    scale = float(scale)
    step = max(1, _ATTENTION_BLOCK_BYTES // (s * s * dtype.itemsize))
    buf = np.empty((min(step, n), s, s), dtype=dtype)
    out = np.empty((n, s, vd.shape[-1]), dtype=dtype)
    lse = np.empty((n, s, 1), dtype=dtype)

    def scores(lo, hi):
        sc = buf[:hi - lo]
        np.matmul(qd[lo:hi], _swap_last(kd[lo:hi]), out=sc)
        sc *= scale
        if additive_mask is not None:
            sc += additive_mask
        return sc

    for lo in range(0, n, step):
        hi = min(lo + step, n)
        p = scores(lo, hi)
        m = p.max(axis=-1, keepdims=True)
        p -= m
        np.exp(p, out=p)
        denom = p.sum(axis=-1, keepdims=True, dtype=np.float64)  # 64-bit accumulation
        p *= np.asarray(1.0 / denom, dtype=dtype)
        np.matmul(p, vd[lo:hi], out=out[lo:hi])
        lse[lo:hi] = m + np.log(denom)

    def backward(g):
        dq = np.empty_like(qd) if q.requires_grad else None
        dk = np.empty_like(kd) if k.requires_grad else None
        dv = np.empty_like(vd) if v.requires_grad else None
        dbuf = np.empty_like(buf)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            p = scores(lo, hi)
            p -= lse[lo:hi]
            np.exp(p, out=p)
            gb = g[lo:hi]
            if dv is not None:
                np.matmul(_swap_last(p), gb, out=dv[lo:hi])
            # dS = P * (dP - rowsum(dP * P)), and rowsum(dP * P) = rowsum(dO * O).
            ds = dbuf[:hi - lo]
            np.matmul(gb, _swap_last(vd[lo:hi]), out=ds)
            ds -= (gb * out[lo:hi]).sum(axis=-1, keepdims=True, dtype=np.float64).astype(dtype)
            ds *= p
            if dq is not None:
                np.matmul(ds, kd[lo:hi], out=dq[lo:hi])
            if dk is not None:
                np.matmul(_swap_last(ds), qd[lo:hi], out=dk[lo:hi])
        for d in (dq, dk):
            if d is not None:
                d *= scale
        return dq, dk, dv

    return _wrap(out, (q, k, v), backward)


def rmsnorm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """Root-mean-square normalization over the last axis with a learned gain."""
    xd = x.data
    if gain.data.shape != (xd.shape[-1],):
        raise ShapeError(f"gain shape {gain.data.shape} does not match feature dim {xd.shape[-1]}")
    x64 = xd.astype(np.float64)
    ms = (x64 * x64).mean(axis=-1, keepdims=True)
    inv = np.asarray(1.0 / np.sqrt(ms + eps), dtype=xd.dtype)
    xhat = xd * inv
    data = xhat * gain.data

    def backward(g):
        gx = ggain = None
        if x.requires_grad:
            gg = g * gain.data
            dot = (gg * xhat).sum(axis=-1, keepdims=True, dtype=np.float64).astype(xd.dtype)
            n = xd.shape[-1]
            gx = inv * (gg - xhat * (dot / n))
        if gain.requires_grad:
            ggain = (g * xhat).reshape(-1, xd.shape[-1]).sum(axis=0, dtype=np.float64).astype(gain.data.dtype)
        return gx, ggain

    return _wrap(data, (x, gain), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather from an embedding table; backward is a scatter-add."""
    ids = np.asarray(ids)
    if ids.min() < 0 or ids.max() >= table.data.shape[0]:
        raise ShapeError(f"ids outside table of {table.data.shape[0]} rows")
    data = table.data[ids]

    def backward(g):
        if not table.requires_grad:
            return (None,)
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, g.shape[-1]))
        return (gt,)

    return _wrap(data, (table,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean token cross-entropy over the unmasked positions (float64 scalar)."""
    ld = logits.data
    targets = np.asarray(targets)
    mask = np.asarray(mask)
    if targets.shape != ld.shape[:-1] or mask.shape != ld.shape[:-1]:
        raise ShapeError(
            f"targets {targets.shape} / mask {mask.shape} do not match logits {ld.shape}")
    m = mask.astype(np.float64)
    n_active = m.sum()
    if n_active <= 0:
        raise ShapeError("cross_entropy needs at least one unmasked position")

    shifted = ld - ld.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, dtype=np.float64))
    picked = np.take_along_axis(shifted, targets[..., None], axis=-1)[..., 0]
    losses = lse - picked
    loss = (losses * m).sum() / n_active

    def backward(g):
        p = np.exp(shifted - lse[..., None].astype(ld.dtype))
        p[(*np.indices(targets.shape), targets)] -= 1.0
        w = (m / n_active * float(g)).astype(ld.dtype)
        return (p * w[..., None],)

    return _wrap(np.float64(loss), (logits,), backward)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    old = x.data.shape

    def backward(g):
        return (g.reshape(old),)

    return _wrap(x.data.reshape(shape), (x,), backward)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(B, S, D) -> (B * H, S, D / H), keeping head blocks contiguous."""
    b, s, d = x.data.shape
    if d % n_heads != 0:
        raise ShapeError(f"d_model {d} not divisible by {n_heads} heads")
    dh = d // n_heads
    data = x.data.reshape(b, s, n_heads, dh).transpose(0, 2, 1, 3).reshape(b * n_heads, s, dh)

    def backward(g):
        return (g.reshape(b, n_heads, s, dh).transpose(0, 2, 1, 3).reshape(b, s, d),)

    return _wrap(data, (x,), backward)


def merge_heads(x: Tensor, n_heads: int) -> Tensor:
    """(B * H, S, D / H) -> (B, S, D); inverse of split_heads."""
    bh, s, dh = x.data.shape
    if bh % n_heads != 0:
        raise ShapeError(f"leading dim {bh} not divisible by {n_heads} heads")
    b = bh // n_heads
    data = x.data.reshape(b, n_heads, s, dh).transpose(0, 2, 1, 3).reshape(b, s, n_heads * dh)

    def backward(g):
        return (g.reshape(b, s, n_heads, dh).transpose(0, 2, 1, 3).reshape(bh, s, dh),)

    return _wrap(data, (x,), backward)


def rope_rotate(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate adjacent coordinate pairs by position-dependent angles.

    cos/sin have shape (S, d/2) and broadcast over the leading batch axis;
    the backward rotates the gradient by the opposite angles (rotations are
    orthogonal, so no extra terms appear).
    """
    xd = x.data
    if xd.shape[-1] % 2 != 0:
        raise ShapeError(f"rotary pairs need an even last dim, got {xd.shape}")
    x1, x2 = xd[..., 0::2], xd[..., 1::2]
    data = np.empty_like(xd)
    data[..., 0::2] = x1 * cos - x2 * sin
    data[..., 1::2] = x1 * sin + x2 * cos

    def backward(g):
        g1, g2 = g[..., 0::2], g[..., 1::2]
        gx = np.empty_like(g)
        gx[..., 0::2] = g1 * cos + g2 * sin
        gx[..., 1::2] = -g1 * sin + g2 * cos
        return (gx,)

    return _wrap(data, (x,), backward)


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
