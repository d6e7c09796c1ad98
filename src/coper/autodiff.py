"""Reverse-mode automatic differentiation over dense rank-<=3 float arrays.

Just enough machinery for a small decoder transformer: a Tensor wrapper, a
Tape that records operations in execution order, and analytic backward
rules for each primitive.  Ops run tape-free (pure numpy forward) when no
tape is active, which is how inference and generation stay cheap.

Primitives take only the forms the model runs: `matmul` is (B, S, D) @
(D, F), `add` sums two tensors of one shape, and `attention` is always
given its window.  Constants, such as the model's frozen embedding rows and
its sinusoid rows, stay in numpy and enter as plain Tensors, never as ops.
The backward walk adds each leaf's gradient straight into .grad.

The tape holds what backward reads and nothing longer than it is needed:
each op's backward closure, and of its inputs only the leaves whose .grad
backward writes.  An op's output carries its (tape serial, node index)
instead of being held, so an array no backward rule reads (the q, k and v
projections, rope's outputs, the wo and feed-forward outputs, the residual
stream) is freed as soon as the forward drops it, and backward drops each
node once it has run it, freeing what its closure captured.  No op's
forward scratch (attention's score tile, the feed-forward's blocks) reaches
its closure, and `rmsnorm`'s backward makes x's gradient and one other
array of x's shape.  A tape runs backward once.  Desk `coper-default`
`run-experiment --epochs 1` peaked at 190-194 MB this way, against 323 MB
when the tape held every op's inputs, output and closure until the step
ended; at 142 MB once the feed-forward kept no hidden array, at 133-135 MB
once it made none (below), and at 126 MB once it normed its own rows and
the model dropped each layer's arrays after their last read.

The model runs its per-token ops on a packed (1, T, D) tensor of the T real
tokens of a right-padded batch.  `split_heads` and `merge_heads` are the
only moves between that layout and the zero-padded (N, S, D / H) head
tiles that attention works on: a scatter and a gather by a per-token index.

Gradient flow is single-threaded per tape; reductions that feed losses
(softmax normalizers, norms, cross-entropy) accumulate in float64 while the
bulk matmuls stay in the array dtype so BLAS runs at full speed.

Attention is one fused primitive, and causal only: it derives both the
mask, from each query's key slot, and the 1/sqrt(d) scale, from q's last
dim, so no caller builds either.  Its forward walks the (batch * heads)
axis in blocks whose score tile is about _ATTENTION_BLOCK_BYTES, builds the
masked softmax in place in one buffer with float64 row sums, and keeps only
the per-row log-sum-exp, and that only when a tape records the op; its
backward recomputes each block's probabilities from q, k and that
log-sum-exp, in a buffer of its own, rather than storing the (B*H, Sq, Sk)
tensor.
Every call describes its rows by one window: each row's offset, the key
slot of its first query, which lets a decoding step attend over its
key/value cache; its extent, the real length of a right-padded row; and its
first, the first query whose output is read.  A block's tile covers only
the query rows [min first, max extent) and the keys [0, max offset + max
extent) of its rows: the read positions are unchanged, and the query rows
outside that window get zero output and zero gradient.
The pre-norm feed-forward GELU(rmsnorm(x, gain) @ w1) @ w2 is one fused
primitive too.  Its (T, F) hidden activations, F = ffn_mult * d_model, are
the largest a layer computes, and matmul, GELU and matmul as three taped
ops kept three (T, F) arrays, x @ w1, the tanh and the GELU, from forward
to backward; a separate norm op kept the normed rows, and the op after it
their gain-scaled copy, two more (T, D) arrays.  `feed_forward` keeps only
x and its rows' (T, 1) inverse norms and makes no (T, F) array at all:
forward and backward walk the T rows in blocks of about
_FEED_FORWARD_BLOCK_BYTES of hidden units, normalize each block into block
scratch, and the backward recomputes each block's hidden units.  It holds
three such blocks at most in the forward and five in the backward, beside
(rows, D) norm blocks.  The weight gradients are summed block by block,
which moves their last bits; the gain's is one float64 sum in row order, as
the norm op's was; the output and x's gradient move only where BLAS rounds
a block's rows unlike the whole array's, which float32 at desk shapes never
did.  No primitive writes into its inputs' arrays.
"""

from __future__ import annotations

import itertools

import numpy as np


class ShapeError(ValueError):
    """Operand shapes that a primitive cannot combine."""


class Tensor:
    """Dense float array (rank <= 3) with an optional gradient slot."""

    # `_node` is (tape serial, node index) on the output of a taped op, else
    # None; it names the node without holding the tape.
    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        if arr.ndim > 3:
            raise ShapeError(f"tensors are rank <= 3, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


_TAPES: list["Tape"] = []
_TAPE_SERIALS = itertools.count()


class Tape:
    """Execution-ordered operation record; backward walks it once, reversed.

    Nodes are appended as ops execute, so the list is already a topological
    order of the forward graph.  A node holds its backward closure and one
    link per input: the input's node index if this tape produced it, the
    input Tensor itself if it is a leaf whose .grad backward writes, else
    None.
    """

    def __init__(self):
        self._serial = next(_TAPE_SERIALS)
        self._nodes = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()
        return False

    def _link(self, inp: Tensor):
        if not inp.requires_grad:
            return None
        if inp._node is not None and inp._node[0] == self._serial:
            return inp._node[1]
        return inp

    def _record(self, out: Tensor, inputs: tuple, backward_fn) -> None:
        out._node = (self._serial, len(self._nodes))
        self._nodes.append((tuple(self._link(inp) for inp in inputs), backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Add d(loss)/d(leaf) into .grad of each requiring leaf as the walk reaches it.

        Each node is dropped as the walk passes it, so the arrays its
        closure holds are freed once its gradient has moved on; a tape runs
        backward once.  A loss this tape did not record changes no .grad.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if self._nodes is None:
            raise RuntimeError("this tape already ran backward")
        nodes, self._nodes = self._nodes, None
        grads = {}
        if loss._node is not None and loss._node[0] == self._serial:
            grads[loss._node[1]] = np.ones_like(loss.data)
        while nodes:
            links, backward_fn = nodes.pop()
            g = grads.pop(len(nodes), None)
            if g is None:
                continue
            for link, gi in zip(links, backward_fn(g)):
                if gi is None or link is None:
                    continue
                if isinstance(link, Tensor):
                    link.grad = gi if link.grad is None else link.grad + gi
                elif link in grads:
                    grads[link] = grads[link] + gi
                else:
                    grads[link] = gi


def _recording_tape(inputs: tuple) -> Tape | None:
    """The active tape if it records an op on `inputs`: one of them needs a gradient."""
    if _TAPES and any(i.requires_grad for i in inputs):
        return _TAPES[-1]
    return None


def _wrap(data, inputs: tuple, backward_fn) -> Tensor:
    tape = _recording_tape(inputs)
    out = Tensor(data, requires_grad=tape is not None)
    if tape is not None:
        tape._record(out, inputs, backward_fn)
    return out


def _swap_last(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(B, S, D) @ (D, F), forward and backward as single 2-D GEMMs over the
    B * S rows, which BLAS runs much faster than a stack of per-batch products."""
    ad, bd = a.data, b.data
    if ad.ndim != 3 or bd.ndim != 2 or ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul takes (B, S, D) @ (D, F), got {ad.shape} and {bd.shape}")
    a_shape = ad.shape
    ad = ad.reshape(-1, a_shape[-1])
    data = (ad @ bd).reshape(*a_shape[:-1], bd.shape[-1])

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        ga = (g @ bd.T).reshape(a_shape) if a.requires_grad else None
        gb = ad.T @ g if b.requires_grad else None
        return ga, gb

    return _wrap(data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"cannot add shapes {a.data.shape} and {b.data.shape}")

    def backward(g):
        return g, g

    return _wrap(a.data + b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        return (g * s,)

    return _wrap(a.data * s, (a,), backward)


_GELU_C = 0.7978845608028654  # sqrt(2 / pi)
_GELU_A = 0.044715
# Bytes of one block of rows of the hidden array in `feed_forward`.  About
# 256 KiB keeps a block and GELU's scratch (five such blocks at most, in the
# backward) in cache and small beside the (T, F) array that the op never
# makes, while a block still holds 256 rows at F = 256 in float32.
_FEED_FORWARD_BLOCK_BYTES = 1 << 18


def _gelu_rows(h: np.ndarray, act: np.ndarray | None = None) -> None:
    """Overwrite the block h with tanh-GELU(h); given `act`, write GELU(h)
    into it and overwrite h with GELU'(h).

    Powers are spelled as products: numpy's float32 pow ufunc takes a scalar
    libm path that is orders of magnitude slower than multiplication.  The
    derivative is that of the approximation, ((1 - t^2) * (3CA h^2 + C)) * h
    + (t + 1), where t = tanh(C h (1 + A h^2)) and GELU(h) = (t + 1) * h / 2.
    """
    t, u = np.multiply(h, h), np.multiply(h, _GELU_C)
    t *= _GELU_A
    t += 1.0
    t *= u
    np.tanh(t, out=t)
    if act is None:
        t += 1.0
        h *= t
        h *= 0.5
        return
    np.multiply(t, t, out=u)
    np.subtract(1.0, u, out=u)
    t += 1.0
    np.multiply(t, h, out=act)
    act *= 0.5
    w = np.multiply(h, h)
    w *= 3.0 * _GELU_C * _GELU_A
    w += _GELU_C
    u *= w
    u *= h
    np.add(u, t, out=h)


def feed_forward(x: Tensor, gain: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """GELU(rmsnorm(x, gain) @ w1) @ w2 for x (B, S, D), gain (D,), w1 (D, F)
    and w2 (F, D'), as one op.

    It walks the B * S rows in blocks of about _FEED_FORWARD_BLOCK_BYTES of
    hidden units, so neither the (B * S, F) hidden array nor a normed copy
    of x is made; the tape keeps only x and its rows' (B * S, 1) inverse
    norms.  The forward normalizes each block into one block buffer, puts
    its @ w1 in another, takes the GELU in place and multiplies by w2
    straight into the block's output rows.  The backward normalizes each
    block again, recomputes its x @ w1, GELU and GELU', adds the block's
    products into w1's and w2's gradients and takes the norm's backward over
    the block's rows: it writes their rows of x's gradient and carries the
    gain's gradient as one float64 sum in row order, as the norm op summed
    every row.  Each elementwise step has the order of the four ops rmsnorm,
    matmul, GELU, matmul, so a block's rows of the output and of x's
    gradient, and the gain's gradient over those rows, are what those ops
    give for the block alone.  The weight gradients are sums over the
    blocks, which moves their last bits (about 5e-7 of the largest entry in
    float32).
    """
    xd, gd, w1d, w2d = x.data, gain.data, w1.data, w2.data
    if (xd.ndim != 3 or gd.shape != xd.shape[-1:] or w1d.ndim != 2 or w2d.ndim != 2
            or xd.shape[-1] != w1d.shape[0] or w1d.shape[1] != w2d.shape[0]):
        raise ShapeError(f"feed_forward takes (B, S, D), (D,), (D, F), (F, D'), got {xd.shape}, {gd.shape}, "
                         f"{w1d.shape} and {w2d.shape}")
    x_shape = xd.shape
    xd = xd.reshape(-1, x_shape[-1])
    n, (d, f) = len(xd), w1d.shape
    dtype = np.result_type(xd, gd, w1d)
    step = max(1, _FEED_FORWARD_BLOCK_BYTES // (f * dtype.itemsize))
    inv = _inv_rms(xd)
    normed, hidden = np.empty((min(step, n), d), dtype=dtype), np.empty((min(step, n), f), dtype=dtype)
    data = None
    # At least one block, so that an empty x still gets its empty output.
    for lo in range(0, max(n, 1), step):
        xb = xd[lo:lo + step]
        nb = np.multiply(xb, inv[lo:lo + step], out=normed[:len(xb)])
        nb *= gd
        hb = np.matmul(nb, w1d, out=hidden[:len(xb)])
        _gelu_rows(hb)
        if data is None:  # made once GELU's scratch is freed, so a one-block call never holds both
            data = np.empty((n, w2d.shape[1]), dtype=np.result_type(hb, w2d))
        np.matmul(hb, w2d, out=data[lo:lo + step])

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        rows = min(step, n)
        xhat, normed, tmp = np.empty((3, rows, d), dtype=dtype)
        h, a = np.empty((2, rows, f), dtype=dtype)
        gx = np.empty((n, d), dtype=dtype) if x.requires_grad else None
        # Row 0 carries the gain's gradient in float64; each block's terms follow it.
        gsum = np.zeros((rows + 1, d)) if gain.requires_grad else None
        gw1 = np.zeros((d, f), dtype=dtype) if w1.requires_grad else None
        gw2 = np.zeros(w2d.shape, dtype=np.result_type(dtype, g)) if w2.requires_grad else None
        for lo in range(0, n, step):
            xb, gb = xd[lo:lo + step], g[lo:lo + step]
            k = len(xb)
            xh, nb, hb, ab = xhat[:k], normed[:k], h[:k], a[:k]
            np.multiply(xb, inv[lo:lo + step], out=xh)
            np.multiply(xh, gd, out=nb)
            np.matmul(nb, w1d, out=hb)
            _gelu_rows(hb, ab)
            if gw2 is not None:
                gw2 += ab.T @ gb
            np.matmul(gb, w2d.T, out=ab)
            ab *= 0.5
            hb *= ab
            if gw1 is not None:
                gw1 += nb.T @ hb
            if gx is None and gsum is None:
                continue
            gn = np.matmul(hb, w1d.T, out=nb)  # the normed rows' gradient
            if gx is not None:
                _rmsnorm_rows_grad(gn, xh, inv[lo:lo + step], gd, tmp[:k], gx[lo:lo + step])
            if gsum is not None:
                np.multiply(gn, xh, out=gsum[1:k + 1])
                gsum[0] = gsum[:k + 1].sum(axis=0)
        ggain = None if gsum is None else gsum[0].astype(gd.dtype)
        return None if gx is None else gx.reshape(x_shape), ggain, gw1, gw2

    return _wrap(data.reshape(*x_shape[:-1], w2d.shape[1]), (x, gain, w1, w2), backward)


# Bytes of one block's (rows, S, S) score tile in `attention`.  About 1 MiB
# bounds the op's score memory to two such tiles whatever the batch and
# length, while a block still holds enough rows (7 at S = 187, float32)
# that the per-block Python overhead stays small.
_ATTENTION_BLOCK_BYTES = 1 << 20


def attention(q: Tensor, k: Tensor, v: Tensor, offsets: np.ndarray, extents: np.ndarray,
              firsts: np.ndarray) -> Tensor:
    """Causal softmax(q @ k^T / sqrt(D) + mask) @ v as one op.

    q is (N, Sq, D); k and v are (N, Sk, D) and (N, Sk, Dv) with Sk >= Sq.
    Every call describes its rows by one window of three (N,) int arrays:
    query j of row i sits at key slot offsets[i] + j and sees the keys at
    slots up to its own, its queries from extents[i] on are right padding,
    and those before firsts[i] are unread.  Each offset must be in [0, Sk -
    Sq], each extent in [1, Sq] and each first in [0, its row's extent -
    1].  The mask and the scale 1 / sqrt(D) are derived here, never passed
    in.  Rows of the leading axis are processed in blocks, and each block's
    tile covers only the query rows [min first, max extent) against the
    keys [0, max offset + max extent) of its rows.  The output and gradients of every read query
    are unchanged as long as the loss reads no padded or unread query;
    output rows and dq outside a block's query rows are zero, and so are dk
    and dv past its keys.  The probabilities are never stored, only each
    score row's log-sum-exp, and backward recomputes them block by block.
    """
    qd, kd, vd = q.data, k.data, v.data
    if (qd.ndim != 3 or kd.ndim != 3 or kd.shape[0] != qd.shape[0] or kd.shape[2] != qd.shape[2]
            or kd.shape[1] < qd.shape[1] or vd.ndim != 3 or vd.shape[:2] != kd.shape[:2]):
        raise ShapeError(f"cannot attend with q {qd.shape}, k {kd.shape}, v {vd.shape}")
    n, sq, _ = qd.shape
    sk = kd.shape[1]
    rules = (f"offsets must be {n} values in [0, {sk - sq}]", f"extents must be {n} values in [1, {sq}]",
             f"firsts must be {n} values, each in [0, its row's extent - 1]")
    for a, rule in zip((offsets, extents, firsts), rules):
        if a.shape != (n,):
            raise ShapeError(rule)
    dtype = qd.dtype
    step = max(1, _ATTENTION_BLOCK_BYTES // (sq * sk * dtype.itemsize))
    # Per block of rows [lo, lo + step): the smallest first, the largest
    # extent and the largest offset among its rows.
    los = np.arange(0, n, step)
    fq, eq, top = (np.minimum.reduceat(firsts, los).tolist(), np.maximum.reduceat(extents, los).tolist(),
                   np.maximum.reduceat(offsets, los).tolist())
    if offsets.min() < 0 or max(top) > sk - sq:
        raise ShapeError(rules[0])
    if extents.min() < 1 or max(eq) > sq:
        raise ShapeError(rules[1])
    if min(fq) < 0 or (firsts >= extents).any():
        raise ShapeError(rules[2])
    # (lo, hi, fq, eq, ek): each block's rows, its tile's query rows [fq, eq)
    # and its keys [0, ek).
    blocks = [(lo, min(lo + step, n), f, e, o + e) for lo, f, e, o in zip(los.tolist(), fq, eq, top)]
    scale = float(1.0 / np.sqrt(qd.shape[-1]))
    slot, own = np.arange(sk), np.arange(sq)[:, None]  # key slots; each query's own at offset 0
    # Zero offsets share one additive 0 / -inf tile; adding it costs less
    # than masking each row's tile by its own offset.
    shared = max(top) == 0
    if shared:
        mask = np.where(slot > own, -np.inf, 0.0).astype(dtype)
    size = min(step, n) * sq * sk  # one block's score tile; the forward and backward each make their own
    out = np.empty((n, sq, vd.shape[-1]), dtype=dtype)
    taped = _recording_tape((q, k, v)) is not None
    lse = np.empty((n, sq, 1), dtype=dtype) if taped else None  # only a backward reads it

    def scores(buf, lo, hi, fq, eq, ek):
        sc = buf[:(hi - lo) * (eq - fq) * ek].reshape(hi - lo, eq - fq, ek)
        np.matmul(qd[lo:hi, fq:eq], _swap_last(kd[lo:hi, :ek]), out=sc)
        sc *= scale
        if shared:
            sc += mask[fq:eq, :ek]
        else:  # query j of row i sees the keys up to slot offsets[i] + j
            np.copyto(sc, -np.inf, where=slot[:ek] > offsets[lo:hi, None, None] + own[fq:eq])
        return sc

    buf = np.empty(size, dtype=dtype)
    for lo, hi, fq, eq, ek in blocks:
        p = scores(buf, lo, hi, fq, eq, ek)
        m = p.max(axis=-1, keepdims=True)
        p -= m
        np.exp(p, out=p)
        denom = p.sum(axis=-1, keepdims=True, dtype=np.float64)  # 64-bit accumulation
        p *= np.asarray(1.0 / denom, dtype=dtype)
        np.matmul(p, vd[lo:hi, :ek], out=out[lo:hi, fq:eq])
        out[lo:hi, :fq] = 0.0
        out[lo:hi, eq:] = 0.0
        if taped:
            lse[lo:hi, fq:eq] = m + np.log(denom)

    def backward(g):
        dq = np.empty_like(qd) if q.requires_grad else None
        dk = np.empty_like(kd) if k.requires_grad else None
        dv = np.empty_like(vd) if v.requires_grad else None
        buf, dbuf = np.empty((2, size), dtype=dtype)
        for lo, hi, fq, eq, ek in blocks:
            p = scores(buf, lo, hi, fq, eq, ek)
            p -= lse[lo:hi, fq:eq]
            np.exp(p, out=p)
            gb = g[lo:hi, fq:eq]
            if dv is not None:
                np.matmul(_swap_last(p), gb, out=dv[lo:hi, :ek])
                dv[lo:hi, ek:] = 0.0
            # dS = P * (dP - rowsum(dP * P)), and rowsum(dP * P) = rowsum(dO * O).
            ds = dbuf[:p.size].reshape(p.shape)
            np.matmul(gb, _swap_last(vd[lo:hi, :ek]), out=ds)
            ds -= (gb * out[lo:hi, fq:eq]).sum(axis=-1, keepdims=True, dtype=np.float64).astype(dtype)
            ds *= p
            if dq is not None:
                np.matmul(ds, kd[lo:hi, :ek], out=dq[lo:hi, fq:eq])
                dq[lo:hi, :fq] = 0.0
                dq[lo:hi, eq:] = 0.0
            if dk is not None:
                np.matmul(_swap_last(ds), qd[lo:hi, fq:eq], out=dk[lo:hi, :ek])
                dk[lo:hi, ek:] = 0.0
        for d in (dq, dk):
            if d is not None:
                d *= scale
        return dq, dk, dv

    return _wrap(out, (q, k, v), backward)


_RMS_EPS = 1e-6


def _inv_rms(xd: np.ndarray) -> np.ndarray:
    """Each row's 1 / sqrt(mean(x^2) + eps), shape (..., 1), accumulated in float64."""
    ms = np.einsum("...i,...i->...", xd, xd, dtype=np.float64)[..., None]
    ms /= xd.shape[-1]
    ms += _RMS_EPS
    np.sqrt(ms, out=ms)
    return np.asarray(np.divide(1.0, ms, out=ms), dtype=xd.dtype)


def _rmsnorm_rows_grad(g, xhat, inv, gain, tmp, gx) -> None:
    """Write RMSNorm's x gradient, inv * (g * gain - xhat * rowsum(g * gain
    * xhat) / D), into gx from the output gradient g, the normed rows xhat
    and their inverse norms inv, with tmp of xhat's shape as scratch.  The
    rule is row by row, so a block of rows gets what the whole array gets."""
    np.multiply(g, gain, out=gx)
    np.multiply(gx, xhat, out=tmp)
    dot = tmp.sum(axis=-1, keepdims=True, dtype=np.float64).astype(gx.dtype)  # 64-bit accumulation
    np.multiply(xhat, dot / xhat.shape[-1], out=tmp)
    gx -= tmp
    gx *= inv


def rmsnorm(x: Tensor, gain: Tensor) -> Tensor:
    """Root-mean-square normalization over the last axis with a learned gain.

    The tape keeps the normed rows and their inverse norms; the backward
    makes x's gradient and at most one other array of x's shape."""
    xd = x.data
    if gain.data.shape != (xd.shape[-1],):
        raise ShapeError(f"gain shape {gain.data.shape} does not match feature dim {xd.shape[-1]}")
    inv = _inv_rms(xd)
    xhat = xd * inv
    taped = _recording_tape((x, gain)) is not None
    data = xhat * gain.data if taped else np.multiply(xhat, gain.data, out=xhat)

    x_grad = x.requires_grad  # the closure holds neither x nor its data

    def backward(g):
        gx = ggain = None
        tmp = np.empty_like(xhat, dtype=np.result_type(g, xhat))
        if x_grad:
            gx = np.empty_like(tmp)
            _rmsnorm_rows_grad(g, xhat, inv, gain.data, tmp, gx)
        if gain.requires_grad:
            np.multiply(g, xhat, out=tmp)
            ggain = tmp.reshape(-1, xhat.shape[-1]).sum(axis=0, dtype=np.float64).astype(gain.data.dtype)
        return gx, ggain

    return _wrap(data, (x, gain), backward)


def token_nll(logits: np.ndarray, targets: np.ndarray):
    """Per-position negative log-likelihood of integer `targets` under `logits`.

    Returns (nll, shifted, lse): the float64 losses, the max-shifted logits
    and their float64 log-sum-exp, which cross_entropy's backward reuses.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, dtype=np.float64))
    picked = np.take_along_axis(shifted, targets[..., None], axis=-1)[..., 0]
    return lse - picked, shifted, lse


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

    losses, shifted, lse = token_nll(ld, targets)
    loss = (losses * m).sum() / n_active

    def backward(g):
        p = np.exp(shifted - lse[..., None].astype(ld.dtype))
        p[(*np.indices(targets.shape), targets)] -= 1.0
        w = (m / n_active * float(g)).astype(ld.dtype)
        return (p * w[..., None],)

    return _wrap(np.float64(loss), (logits,), backward)


def _rows(a: np.ndarray) -> np.ndarray:
    """A C-contiguous 2-D array as a 1-D view, one opaque element per row.

    np.put moves such elements as whole rows, at about half the cost of
    assigning the rows through an integer index.
    """
    return a.reshape(-1).view(f"V{a.shape[1] * a.itemsize}")


def split_heads(x: Tensor, slots: np.ndarray, tile: tuple[int, int]) -> Tensor:
    """Packed (1, T, D) tokens -> zero-padded (N, S, D / H) head tiles.

    `slots` (T, H) holds, for token t and head j, the flat index n * S + s
    of the tile row n and slot s that receive features [j * D / H, (j + 1)
    * D / H) of token t; `tile` is (N, S).  Slots that no token names stay
    zero.  With one head it scatters packed tokens back to (B, S, D) rows.
    """
    t, h = slots.shape
    n, s = tile
    xd = x.data
    if xd.shape[:2] != (1, t) or xd.shape[2] % h != 0:
        raise ShapeError(f"cannot split {xd.shape} into {h} heads of {t} tokens")
    dh = xd.shape[2] // h
    flat = slots.reshape(-1)
    data = np.zeros((n * s, dh), dtype=xd.dtype)
    np.put(_rows(data), flat, _rows(np.ascontiguousarray(xd).reshape(t * h, dh)))

    def backward(g):
        return (np.take(g.reshape(n * s, dh), flat, axis=0).reshape(1, t, h * dh),)

    return _wrap(data.reshape(n, s, dh), (x,), backward)


def merge_heads(x: Tensor, slots: np.ndarray) -> Tensor:
    """(N, S, D / H) head tiles -> packed (1, T, D); inverse of split_heads.

    Only the slots that `slots` names are read, so the padding of the
    tiles never reaches the packed tokens.
    """
    n, s, dh = x.data.shape
    t, h = slots.shape
    flat = slots.reshape(-1)
    data = np.take(x.data.reshape(n * s, dh), flat, axis=0).reshape(1, t, h * dh)

    def backward(g):
        gx = np.zeros((n * s, dh), dtype=g.dtype)
        np.put(_rows(gx), flat, _rows(np.ascontiguousarray(g).reshape(t * h, dh)))
        return (gx.reshape(n, s, dh),)

    return _wrap(data, (x,), backward)


def rope_rotate(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate adjacent coordinate pairs by position-dependent angles.

    cos/sin broadcast against the pairs x[..., 0::2].  The model passes one
    (T, D/2) row per packed token, tiled over heads; no pair straddles two
    heads because D / H is even.  The backward rotates the gradient by the
    opposite angles (rotations are orthogonal, so no extra terms appear).
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
