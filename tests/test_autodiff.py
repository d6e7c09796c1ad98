import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from coper import autodiff as ad

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gradcheck  # noqa: E402


def t64(arr, grad=True):
    return ad.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def rand64(rng, *shape, grad=True):
    return t64(rng.standard_normal(shape), grad=grad)


def attend(q, k, v, offsets=None, extents=None, firsts=None):
    """ad.attention with the window parts a test leaves out filled in: zero
    offsets, every query real (extent Sq) and every query read (first 0)."""
    n, sq = q.shape[:2]
    return ad.attention(q, k, v, np.zeros(n, int) if offsets is None else offsets,
                        np.full(n, sq) if extents is None else extents,
                        np.zeros(n, int) if firsts is None else firsts)


def attention_probs(q, k):
    """The softmax inside `attention`, read out by attending to identity values."""
    n, s, _ = q.shape
    eye = ad.Tensor(np.broadcast_to(np.eye(s, dtype=q.dtype), (n, s, s)).copy())
    return attend(q, k, eye).data


def reference_attention(q, k, v, offsets=None):
    """softmax(q k^T / sqrt(D) + causal) v in float64; query j of row i sits
    at key slot offsets[i] + j, or at slot j without offsets."""
    n, sq, d = q.shape
    own = np.zeros(n, int)[:, None] if offsets is None else np.asarray(offsets)[:, None]
    hidden = np.arange(k.shape[1]) > (own + np.arange(sq))[..., None]
    scores = q.astype(np.float64) @ k.astype(np.float64).transpose(0, 2, 1) / np.sqrt(d)
    scores[hidden] = -np.inf
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True) @ v.astype(np.float64)


class TestTensor:
    def test_rejects_rank_4(self):
        with pytest.raises(ad.ShapeError):
            ad.Tensor(np.zeros((1, 1, 1, 1)))

    def test_int_input_becomes_float32(self):
        t = ad.Tensor([1, 2, 3])
        assert t.dtype == np.float32


class TestBackwardBasics:
    def test_square_derivative(self):
        x = t64(3.0)
        with ad.Tape() as tape:
            y = ad.add(x, x)
        tape.backward(y)
        assert float(x.grad) == pytest.approx(2.0)

    def test_no_tape_means_no_graph(self):
        x = t64(3.0)
        y = ad.add(x, x)
        assert not y.requires_grad and x.grad is None

    def test_constant_function_zero_grads(self):
        x = t64(1.5)
        with ad.Tape() as tape:
            z = ad.scale(ad.add(x, x), 0.0)
        tape.backward(z)
        assert float(x.grad) == 0.0
        assert gradcheck.grad_check(lambda: ad.scale(ad.add(x, x), 0.0), [x]) == 0.0

    def test_leaf_gradients_sum_and_intermediates_keep_none(self):
        x, w = t64(2.0), t64(3.0)
        with ad.Tape() as tape:
            y = ad.add(x, w)
            z = ad.add(ad.add(y, x), ad.scale(y, 2.0))
        tape.backward(z)
        assert float(x.grad) == pytest.approx(4.0) and float(w.grad) == pytest.approx(3.0)
        assert y.grad is None and z.grad is None

    def test_grad_accumulates_across_tapes(self):
        x = t64(2.0)
        for _ in range(2):
            with ad.Tape() as tape:
                y = ad.add(x, x)
            tape.backward(y)
        assert float(x.grad) == pytest.approx(4.0)


class TestTapeLifetime:
    """The tape holds only what backward reads, and only until backward has read it."""

    def setup_method(self):
        rng = np.random.default_rng(0)
        self.x, self.w = rand64(rng, 1, 4, 6, grad=False), rand64(rng, 6, 6)
        self.gain, self.w1, self.w2 = rand64(rng, 6), rand64(rng, 6, 5), rand64(rng, 5, 6)
        angles = rng.standard_normal((4, 3))
        self.cos, self.sin = np.cos(angles), np.sin(angles)
        self.targets, self.mask = np.array([[0, 1, 2, 3]]), np.ones((1, 4), bool)

    def test_an_input_no_backward_reads_dies_in_mid_forward(self):
        with ad.Tape() as tape:
            h = ad.matmul(self.x, self.w)
            probe = weakref.ref(h.data)
            rotated = ad.rope_rotate(h, self.cos, self.sin)
            del h
            assert probe() is None
            loss = ad.cross_entropy(rotated, self.targets, self.mask)
        tape.backward(loss)
        assert self.w.grad is not None and np.abs(self.w.grad).sum() > 0

    def test_arrays_only_closures_hold_are_freed_by_backward(self):
        with ad.Tape() as tape:
            h = ad.matmul(self.x, self.w)
            probe = weakref.ref(h.data)
            loss = ad.cross_entropy(ad.feed_forward(h, self.gain, self.w1, self.w2), self.targets, self.mask)
            del h
        assert probe() is not None  # feed_forward's backward reads its input
        tape.backward(loss)
        assert probe() is None  # though the caller still holds tape and loss

    def test_a_second_backward_raises_and_changes_no_grad(self):
        with ad.Tape() as tape:
            loss = ad.cross_entropy(ad.matmul(self.x, self.w), self.targets, self.mask)
        tape.backward(loss)
        grad = self.w.grad.copy()
        with pytest.raises(RuntimeError, match="already ran backward"):
            tape.backward(loss)
        np.testing.assert_array_equal(self.w.grad, grad)

    @pytest.mark.parametrize("source", ["tape-free", "another tape"])
    def test_a_loss_the_tape_did_not_record_changes_no_grad(self, source):
        def loss_of():
            return ad.cross_entropy(ad.matmul(self.x, self.w), self.targets, self.mask)

        self.w.grad = np.ones_like(self.w.data)
        with ad.Tape() as tape:
            loss_of()
        if source == "tape-free":
            loss = loss_of()
        else:  # the same op at the same node index, on another tape
            with ad.Tape():
                loss = loss_of()
        tape.backward(loss)
        np.testing.assert_array_equal(self.w.grad, np.ones_like(self.w.data))


class TestForwardSemantics:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        q, k = (ad.Tensor(rng.standard_normal((4, 16, 8)).astype(np.float32)) for _ in range(2))
        q.data *= 3.0 * np.sqrt(8)  # scores three times q.k, as large as a scale of 3 made them
        p = attention_probs(q, k)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_mask_zeroes_positions(self):
        q = ad.Tensor(np.zeros((2, 3, 4), dtype=np.float32))
        k = ad.Tensor(np.ones((2, 3, 4), dtype=np.float32))
        p = attention_probs(q, k)
        assert np.allclose(p[:, 0], [1.0, 0.0, 0.0])
        assert np.allclose(p[:, 2], [1 / 3, 1 / 3, 1 / 3])

    def test_attention_shape_error_names_shapes(self):
        q = ad.Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ad.ShapeError) as err:
            attend(q, ad.Tensor(np.zeros((2, 5, 4))), q)
        assert "(2, 5, 4)" in str(err.value)

    def test_cross_entropy_confident_correct_is_near_zero(self):
        logits = np.zeros((1, 3, 5), dtype=np.float32)
        targets = np.array([[1, 2, 3]])
        logits[0, np.arange(3), targets[0]] = 1e6
        loss = ad.cross_entropy(ad.Tensor(logits), targets, np.ones((1, 3)))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_masks_positions(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((2, 4, 7)).astype(np.float32)
        targets = rng.integers(0, 7, size=(2, 4))
        mask = np.zeros((2, 4))
        mask[:, 1] = 1.0
        base = float(ad.cross_entropy(ad.Tensor(logits), targets, mask).data)
        # Perturbing a masked position's target never changes the loss.
        targets2 = targets.copy()
        targets2[:, 3] = (targets2[:, 3] + 1) % 7
        after = float(ad.cross_entropy(ad.Tensor(logits), targets2, mask).data)
        assert base == after

    def test_cross_entropy_needs_unmasked(self):
        with pytest.raises(ad.ShapeError):
            ad.cross_entropy(ad.Tensor(np.zeros((1, 2, 3))), np.zeros((1, 2), int), np.zeros((1, 2)))

    def test_matmul_shape_error_names_shapes(self):
        # Only (B, S, D) @ (D, F) is accepted: not 2-D @ 2-D, not batched 3-D @ 3-D.
        for a, b in (((2, 3), (4, 2)), ((2, 2, 3), (4, 2)), ((4, 5), (5, 3)), ((2, 3, 4), (2, 4, 5))):
            with pytest.raises(ad.ShapeError) as err:
                ad.matmul(ad.Tensor(np.zeros(a)), ad.Tensor(np.zeros(b)))
            assert str(a) in str(err.value) and str(b) in str(err.value)

    def test_feed_forward_shape_error_names_shapes(self):
        # Only (B, S, D), (D,), (D, F), (F, D') are accepted.
        for shapes in (((4, 5), (5,), (5, 3), (3, 5)), ((2, 4, 5), (5,), (4, 3), (3, 5)),
                       ((2, 4, 5), (5,), (5, 3), (4, 5)), ((2, 4, 5), (5,), (1, 5, 3), (3, 5)),
                       ((2, 4, 5), (4,), (5, 3), (3, 5)), ((2, 4, 5), (1, 5), (5, 3), (3, 5))):
            with pytest.raises(ad.ShapeError) as err:
                ad.feed_forward(*(ad.Tensor(np.zeros(shape)) for shape in shapes))
            assert all(str(shape) in str(err.value) for shape in shapes)

    def test_add_rejects_any_shape_mismatch(self):
        # A broadcast operand is rejected whether or not it needs a gradient.
        a = ad.Tensor(np.zeros((2, 3, 5)), requires_grad=True)
        for shape in ((5,), (3, 5), (1, 3, 5), (2, 3, 1), (2, 3, 4)):
            for grad in (True, False):
                other = ad.Tensor(np.ones(shape), requires_grad=grad)
                with pytest.raises(ad.ShapeError, match=r"cannot add shapes"):
                    ad.add(a, other)
                with pytest.raises(ad.ShapeError, match=r"cannot add shapes"):
                    ad.add(other, a)
        assert np.array_equal(ad.add(a, ad.Tensor(np.ones((2, 3, 5)))).data, np.ones((2, 3, 5)))

    def test_head_split_merge_round_trip(self):
        # Rows of 3 and 1 real tokens out of 3 slots, packed, split into 4 heads.
        rng = np.random.default_rng(2)
        rows, cols = np.array([0, 0, 0, 1]), np.array([0, 1, 2, 0])
        slots = ((rows * 4)[:, None] + np.arange(4)) * 3 + cols[:, None]
        x = ad.Tensor(rng.standard_normal((1, 4, 8)).astype(np.float32))
        tiles = ad.split_heads(x, slots, (8, 3))
        assert tiles.shape == (8, 3, 2)
        for t, (row, col) in enumerate(zip(rows, cols)):
            for head in range(4):
                assert np.array_equal(tiles.data[row * 4 + head, col], x.data[0, t, 2 * head:2 * head + 2])
        assert not tiles.data[4:, 1:].any()
        assert np.array_equal(ad.merge_heads(tiles, slots).data, x.data)
        with pytest.raises(ad.ShapeError):
            ad.split_heads(ad.Tensor(np.zeros((2, 2, 8))), slots, (8, 3))
        # With every slot real the tiles are the (B, S, D) -> (B * H, S, D / H) head transpose.
        full = rng.standard_normal((2, 3, 8)).astype(np.float32)
        rows, cols = np.divmod(np.arange(6), 3)
        slots = ((rows * 4)[:, None] + np.arange(4)) * 3 + cols[:, None]
        tiles = ad.split_heads(ad.Tensor(full.reshape(1, 6, 8)), slots, (8, 3))
        assert np.array_equal(tiles.data, full.reshape(2, 3, 4, 2).transpose(0, 2, 1, 3).reshape(8, 3, 2))

    def test_rope_preserves_norm(self):
        rng = np.random.default_rng(3)
        from coper.model import rope_tables
        cos, sin = rope_tables(8, 16, 10000.0)
        x = ad.Tensor(rng.standard_normal((2, 16, 8)).astype(np.float32))
        y = ad.rope_rotate(x, cos, sin)
        assert np.allclose(np.linalg.norm(y.data, axis=-1),
                           np.linalg.norm(x.data, axis=-1), atol=1e-5)


class TestGradCheckPrimitives:
    """Central-difference validation of every backward rule, in float64."""

    def check(self, f, params, tol=1e-3):
        err = gradcheck.grad_check(f, params, epsilon=1e-3)
        assert err < tol, f"max relative gradient error {err}"

    def test_matmul_3d_by_2d(self):
        rng = np.random.default_rng(11)
        a, b = rand64(rng, 2, 4, 5), rand64(rng, 5, 3)
        f = lambda: ad.cross_entropy(ad.matmul(a, b), np.zeros((2, 4), int), np.ones((2, 4)))
        self.check(f, [a, b])

    def test_add_with_a_constant_operand(self):
        rng = np.random.default_rng(13)
        a, table = rand64(rng, 2, 3, 5), rand64(rng, 2, 3, 5, grad=False)
        f = lambda: ad.cross_entropy(ad.add(a, table), np.zeros((2, 3), int), np.ones((2, 3)))
        self.check(f, [a])

    def test_scale_and_multiply(self):
        rng = np.random.default_rng(14)
        a, b = rand64(rng, 3, 4, 5), rand64(rng, 3, 4, 5)
        f = lambda: ad.cross_entropy(ad.scale(ad.add(a, b), 0.7),
                                     np.ones((3, 4), int), np.ones((3, 4)))
        self.check(f, [a, b])

    def test_feed_forward(self):
        rng = np.random.default_rng(15)
        x, gain, w1, w2 = rand64(rng, 2, 4, 5), rand64(rng, 5), rand64(rng, 5, 7), rand64(rng, 7, 6)
        f = lambda: ad.cross_entropy(ad.feed_forward(x, gain, w1, w2), np.ones((2, 4), int), np.ones((2, 4)))
        self.check(f, [x, gain, w1, w2])

    def test_softmax(self):
        # An odd head dim: the derived scale 1 / sqrt(3) is not a power of two.
        rng = np.random.default_rng(16)
        q, k, v = rand64(rng, 2, 4, 3), rand64(rng, 2, 4, 3), rand64(rng, 2, 4, 5)
        f = lambda: ad.cross_entropy(attend(q, k, v), np.ones((2, 4), int), np.ones((2, 4)))
        self.check(f, [q, k, v])

    def test_softmax_with_causal_mask(self):
        rng = np.random.default_rng(17)
        q, k, v = rand64(rng, 3, 5, 4), rand64(rng, 3, 5, 4), rand64(rng, 3, 5, 6)
        f = lambda: ad.cross_entropy(attend(q, k, v), np.ones((3, 5), int), np.ones((3, 5)))
        self.check(f, [q, k, v])

    def test_attention_over_longer_keys_with_offsets(self):
        # Row i's two queries sit at key slots offsets[i] and offsets[i] + 1.
        rng = np.random.default_rng(19)
        q, k, v = rand64(rng, 3, 2, 4), rand64(rng, 3, 5, 4), rand64(rng, 3, 5, 6)
        f = lambda: ad.cross_entropy(attend(q, k, v, np.array([2, 3, 1])),
                                     np.ones((3, 2), int), np.ones((3, 2)))
        self.check(f, [q, k, v])

    def test_attention_with_extents(self):
        # The loss covers every position, so the check also sees that rows
        # past a block's extent are constant zero and padded keys are unseen.
        rng = np.random.default_rng(22)
        q, k, v = rand64(rng, 3, 5, 4), rand64(rng, 3, 5, 4), rand64(rng, 3, 5, 6)
        f = lambda: ad.cross_entropy(attend(q, k, v, extents=np.array([2, 5, 3])),
                                     np.ones((3, 5), int), np.ones((3, 5)))
        self.check(f, [q, k, v])

    def test_attention_with_extents_and_firsts(self):
        # One block holds all three rows, whose read windows [first, extent)
        # differ: the tile covers query rows [1, 5), so row 1 also computes
        # its unread queries 1 and 2, and the loss reads every position.
        rng = np.random.default_rng(23)
        q, k, v = rand64(rng, 3, 5, 4), rand64(rng, 3, 5, 4), rand64(rng, 3, 5, 6)
        f = lambda: ad.cross_entropy(
            attend(q, k, v, extents=np.array([2, 5, 4]), firsts=np.array([1, 3, 2])),
            np.ones((3, 5), int), np.ones((3, 5)))
        self.check(f, [q, k, v])

    def test_attention_with_offsets_extents_and_firsts(self):
        # Two queries over five keys per row: one block's tile covers query
        # rows [0, 2) against keys [0, 3 + 2), and the loss reads every position.
        rng = np.random.default_rng(24)
        q, k, v = rand64(rng, 3, 2, 4), rand64(rng, 3, 5, 4), rand64(rng, 3, 5, 6)
        f = lambda: ad.cross_entropy(
            ad.attention(q, k, v, np.array([3, 0, 1]), np.array([1, 2, 2]), np.array([0, 1, 0])),
            np.ones((3, 2), int), np.ones((3, 2)))
        self.check(f, [q, k, v])

    def test_rmsnorm(self):
        rng = np.random.default_rng(18)
        a, g, w = rand64(rng, 2, 3, 6), t64(np.ones(6)), rand64(rng, 6, 4)
        f = lambda: ad.cross_entropy(ad.matmul(ad.rmsnorm(a, g), w),
                                     np.ones((2, 3), int), np.ones((2, 3)))
        self.check(f, [a, g, w])

    def test_transpose_reshape_heads_rope(self):
        # The model's packed chain: rope on packed tokens, split into padded
        # head tiles, attention over real extents, merge back to the tokens.
        rng = np.random.default_rng(20)
        from coper.model import rope_tables
        cos, sin = (np.tile(t.astype(np.float64), (1, 2)) for t in rope_tables(4, 3, 100.0))
        rows, cols = np.array([0, 0, 0, 1, 1]), np.array([0, 1, 2, 0, 1])  # extents 3 and 2
        slots = ((rows * 2)[:, None] + np.arange(2)) * 3 + cols[:, None]
        a = rand64(rng, 1, 5, 8)
        w = rand64(rng, 4, 5)

        def f():
            r = ad.rope_rotate(a, cos[cols], sin[cols])  # (1, 5, 8)
            h = ad.split_heads(r, slots, (4, 3))          # (4, 3, 4)
            o = attend(h, h, h, extents=np.array([3, 3, 2, 2]))
            m = ad.merge_heads(o, slots)                  # (1, 5, 8)
            return ad.cross_entropy(ad.matmul(ad.matmul(m, rand_w), w),
                                    np.ones((1, 5), int), np.ones((1, 5)))

        rand_w = rand64(rng, 8, 4)
        self.check(f, [a, w, rand_w])

    def test_cross_entropy_partial_mask(self):
        rng = np.random.default_rng(21)
        logits = rand64(rng, 2, 5, 6)
        mask = np.array([[0, 1, 1, 0, 0], [1, 0, 0, 0, 1]], dtype=float)
        targets = rng.integers(0, 6, size=(2, 5))
        self.check(lambda: ad.cross_entropy(logits, targets, mask), [logits])


class TestGradCheckValidation:
    def test_epsilon_range(self):
        x = t64(1.0)
        with pytest.raises(ValueError):
            gradcheck.grad_check(lambda: ad.add(x, x), [x], epsilon=0.5)

    def test_nonfinite_raises(self):
        x = t64(np.inf)
        with pytest.raises(gradcheck.NumericalError):
            gradcheck.grad_check(lambda: ad.add(x, x), [x])


def test_forward_determinism():
    rng = np.random.default_rng(30)
    x = ad.Tensor(rng.standard_normal((4, 8, 16)).astype(np.float32))
    gain = ad.Tensor(rng.standard_normal(16).astype(np.float32))
    w1 = ad.Tensor(rng.standard_normal((16, 64)).astype(np.float32))
    w2 = ad.Tensor(rng.standard_normal((64, 16)).astype(np.float32))

    def f():
        h = ad.feed_forward(x, gain, w1, w2)
        return attend(h, h, h).data

    assert np.array_equal(f(), f())


def reference_feed_forward(x, gain, w1, w2, g):
    """(y, dx, dgain, dw1, dw2) of rmsnorm -> matmul -> tanh-GELU -> matmul
    for the output gradient g, each step in the order of four separate ops."""
    y, dx, terms, dw1, dw2 = _reference_rows(x, gain, w1, w2, g)
    return y, dx, _column_sum(terms, gain.dtype), dw1, dw2


def _column_sum(terms, dtype):
    """The gain gradient from its per-row terms: a float64 sum in row order."""
    return terms.sum(axis=0, dtype=np.float64).astype(dtype)


def _reference_rows(x, gain, w1, w2, g):
    """reference_feed_forward with the gain gradient's (rows, D) terms in place of their sum."""
    c, a = 0.7978845608028654, 0.044715  # sqrt(2 / pi) and the cubic's weight
    x2, g2 = x.reshape(-1, x.shape[-1]), g.reshape(-1, g.shape[-1])
    n = x.shape[-1]
    ms = np.einsum("...i,...i->...", x2, x2, dtype=np.float64)[..., None] / n
    inv = np.asarray(1.0 / np.sqrt(ms + 1e-6), dtype=x.dtype)
    xhat = x2 * inv
    fn = xhat * gain
    h = fn @ w1
    t = np.tanh((h * h * a + 1.0) * (h * c))
    act = (t + 1.0) * h * 0.5
    dh = ((1.0 - t * t) * (h * h * (3.0 * c * a) + c) * h + (t + 1.0)) * ((g2 @ w2.T) * 0.5)
    dfn = dh @ w1.T
    gg = dfn * gain
    dot = (gg * xhat).sum(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
    dx = inv * (gg - xhat * (dot / n))
    return (act @ w2).reshape(g.shape), dx.reshape(x.shape), dfn * xhat, fn.T @ dh, act.T @ g2


def _block_rows(f, dtype):
    """Rows in each block that `feed_forward` walks, for f hidden units."""
    return max(1, ad._FEED_FORWARD_BLOCK_BYTES // (f * np.dtype(dtype).itemsize))


def blocked_reference_feed_forward(x, gain, w1, w2, g):
    """reference_feed_forward run on each block of rows that `feed_forward`
    walks: y and dx are the blocks' rows, dw1 and dw2 their sums in block
    order, and dgain one sum over the blocks' rows in row order."""
    step = _block_rows(w1.shape[1], w1.dtype)
    x2, g2 = x.reshape(-1, x.shape[-1]), g.reshape(-1, g.shape[-1])
    y, dx, terms, dw1, dw2 = zip(*(_reference_rows(x2[lo:lo + step], gain, w1, w2, g2[lo:lo + step])
                                   for lo in range(0, len(x2), step)))
    return (np.concatenate(y).reshape(g.shape), np.concatenate(dx).reshape(x.shape),
            _column_sum(np.concatenate(terms), gain.dtype), sum(dw1), sum(dw2))


def _feed_forward_run(dtype, b, s, d, f):
    """feed_forward's (y, dx, dgain, dw1, dw2) and the reference chain's
    operands for the same output gradient, on seeded operands of the given shape."""
    rng = np.random.default_rng(33)
    x, gain, w1, w2 = (ad.Tensor((rng.standard_normal(shape) / scale).astype(dtype), requires_grad=True)
                       for shape, scale in (((b, s, d), 1.0), ((d,), 1.0), ((d, f), np.sqrt(d)),
                                            ((f, d), np.sqrt(f))))
    targets, mask = rng.integers(0, d, (b, s)), np.ones((b, s))
    with ad.Tape() as tape:
        y = ad.feed_forward(x, gain, w1, w2)
        loss = ad.cross_entropy(y, targets, mask)
    tape.backward(loss)
    out = ad.Tensor(y.data, requires_grad=True)  # the output gradient that reached feed_forward
    with ad.Tape() as tape:
        loss = ad.cross_entropy(out, targets, mask)
    tape.backward(loss)
    return (y.data, x.grad, gain.grad, w1.grad, w2.grad), (x.data, gain.data, w1.data, w2.data, out.grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b, s, d, f", [(2, 50, 16, 257), (1, 1, 3, 7)])
def test_feed_forward_is_bitwise_the_three_op_chain(dtype, b, s, d, f):
    # Shapes whose rows fit in one block, F odd; the chain is the norm and
    # then the three ops matmul, GELU, matmul.
    assert b * s <= _block_rows(f, dtype)
    got, operands = _feed_forward_run(dtype, b, s, d, f)
    for g, want in zip(got, reference_feed_forward(*operands)):
        assert g.dtype == dtype and np.array_equal(g, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_feed_forward_is_bitwise_the_chain_block_by_block(dtype):
    # F is odd, and the 600 rows span several blocks, the last one ragged,
    # in either dtype.
    assert 3 * 200 > 2 * _block_rows(257, dtype)
    got, operands = _feed_forward_run(dtype, 3, 200, 16, 257)
    for g, want in zip(got, blocked_reference_feed_forward(*operands)):
        assert g.dtype == dtype and np.array_equal(g, want)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
def test_blocked_feed_forward_is_near_the_unblocked_chain(dtype, tol):
    # Summing the weight gradients block by block moves only their last bits.
    got, operands = _feed_forward_run(dtype, 3, 200, 16, 257)
    for g, want in zip(got, reference_feed_forward(*operands)):
        assert np.abs(g - want).max() <= tol * np.abs(want).max()


def _ffn_operands(grad, t=4096, d=64):
    """float32 x, gain, w1 and w2 with T tokens, width d and F = 256 hidden units."""
    rng = np.random.default_rng(34)
    return [ad.Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=grad)
            for shape in ((1, t, d), (d,), (d, 256), (256, d))]


# T = 16,384 tokens of width 2: the (T, F) hidden array would be 64 blocks,
# while the op's (T, 2) input, output and gradient are half a block each.
_NARROW = {"t": 1 << 14, "d": 2}


def test_a_tape_free_feed_forward_peaks_at_three_blocks():
    operands = _ffn_operands(grad=False, **_NARROW)
    tracemalloc.start()
    try:
        ad.feed_forward(*operands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The output, one hidden block and GELU's two scratch blocks, beside x's
    # (T, 1) inverse norms (a quarter block) and a (rows, 2) normed block;
    # one (T, F) hidden array would be 64 blocks.
    assert peak < 4 * ad._FEED_FORWARD_BLOCK_BYTES


def test_a_feed_forward_backward_peaks_at_five_blocks():
    operands = _ffn_operands(grad=True, **_NARROW)
    t = operands[0].shape[1]
    with ad.Tape() as tape:
        loss = ad.cross_entropy(ad.feed_forward(*operands), np.zeros((1, t), int), np.ones((1, t)))
    tracemalloc.start()
    try:
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The recomputed hidden block, its GELU and GELU's three scratch blocks,
    # beside x's gradient and the loss's (T, 2) arrays, about one block
    # together; one (T, F) array would be 64 blocks.
    assert peak < 7 * ad._FEED_FORWARD_BLOCK_BYTES


def test_a_taped_feed_forward_keeps_no_hidden_array():
    x, gain, w1, w2 = _ffn_operands(grad=True)
    t = x.shape[1]
    with ad.Tape() as tape:
        tracemalloc.start()
        try:
            y = ad.feed_forward(x, gain, w1, w2)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        loss = ad.cross_entropy(y, np.zeros((1, t), int), np.ones((1, t)))
    # Only the (T, D) output and x's (T, 1) inverse norms are new; the
    # closure holds x and the weights.  A normed copy of x would be one more
    # (T, D) array, and one (T, F) hidden array four.
    assert y.data.nbytes <= held < y.data.nbytes + x.data.nbytes / 2
    tape.backward(loss)
    assert all(np.abs(w.grad).sum() > 0 for w in (x, gain, w1, w2))


def test_a_taped_attention_keeps_no_score_buffer():
    # Four rows of 256 queries make one block, whose (4, 256, 256) float32
    # score tile is 1 MiB.
    n, s, dh = 4, 256, 4
    assert n * s * s * 4 <= ad._ATTENTION_BLOCK_BYTES
    rng = np.random.default_rng(39)
    q, k, v = (ad.Tensor(rng.standard_normal((n, s, dh)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    with ad.Tape() as tape:
        tracemalloc.start()
        try:
            out = attend(q, k, v)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        loss = ad.cross_entropy(out, np.zeros((n, s), int), np.ones((n, s)))
    # The output, each query's log-sum-exp and the shared (S, S) causal
    # mask, 276 KiB together, and 64 KiB for the rest; the score tile alone
    # would be 1 MiB.
    assert held < out.data.nbytes + n * s * 4 + s * s * 4 + (64 << 10)
    tape.backward(loss)
    assert all(np.abs(t.grad).sum() > 0 for t in (q, k, v))


def test_an_rmsnorm_backward_makes_one_array_beside_x_gradient():
    t, d = 4096, 64
    rng = np.random.default_rng(40)
    x = ad.Tensor(rng.standard_normal((1, t, d)).astype(np.float32), requires_grad=True)
    gain = ad.Tensor(rng.standard_normal(d).astype(np.float32), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((d, 2)).astype(np.float32))
    with ad.Tape() as tape:
        loss = ad.cross_entropy(ad.matmul(ad.rmsnorm(x, gain), w), np.zeros((1, t), int), np.ones((1, t)))
    tracemalloc.start()
    try:
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The matmul's backward makes the norm's (T, D) output gradient; the
    # norm's makes x's gradient and one temporary.  Its (T, 1) row sums and
    # the loss's (T, 2) arrays are a sixteenth of a (T, D) array or less each.
    assert peak < 3.5 * x.data.nbytes
    assert np.abs(x.grad).sum() > 0 and np.abs(gain.grad).sum() > 0


def _attention_run(q, k, v, extents=None, loss_mask=None, firsts=None):
    for t in (q, k, v):
        t.grad = None
    with ad.Tape() as tape:
        out = attend(q, k, v, extents=extents, firsts=firsts)
        loss_mask = np.ones(out.shape[:2]) if loss_mask is None else loss_mask
        loss = ad.cross_entropy(out, np.zeros(out.shape[:2], int), loss_mask)
    tape.backward(loss)
    return [out.data, q.grad, k.grad, v.grad]


def test_attention_blocks_agree_with_one_block(monkeypatch):
    rng = np.random.default_rng(31)
    n, s = 7, 11
    q, k, v = (ad.Tensor(rng.standard_normal((n, s, 8)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    assert ad._ATTENTION_BLOCK_BYTES >= n * s * s * 4
    whole = _attention_run(q, k, v)
    # Three rows per block: blocks of 3, 3 and a ragged 1.
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", 3 * s * s * 4)
    blocked = _attention_run(q, k, v)
    for a, b in zip(whole, blocked):
        np.testing.assert_allclose(b, a, rtol=1e-6, atol=1e-7)


def test_attention_over_longer_keys_matches_float64_reference(monkeypatch):
    # Decoding's shape: a few queries per row over a longer key cache, each
    # row's queries at its own offset, across several blocks.
    rng = np.random.default_rng(33)
    n, sq, sk = 7, 2, 9
    q, k, v = (rng.standard_normal(shape).astype(np.float32)
               for shape in ((n, sq, 8), (n, sk, 8), (n, sk, 5)))
    offsets = rng.integers(0, sk - sq + 1, size=n)
    assert offsets.min() == 0 and offsets.max() == sk - sq  # both ends of the range
    expect = reference_attention(q, k, v, offsets)
    for block_rows in (n, 3):
        monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", block_rows * sq * sk * 4)
        out = attend(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), offsets)
        np.testing.assert_allclose(out.data, expect, rtol=1e-5, atol=1e-6)


def test_attention_over_square_scores_matches_float64_reference(monkeypatch):
    # Training's shape: without offsets query j sees keys 0..j, and 1 / sqrt(D)
    # scales the scores, across several blocks.
    rng = np.random.default_rng(36)
    n, s = 7, 6
    q, k, v = (rng.standard_normal(shape).astype(np.float32) for shape in ((n, s, 8), (n, s, 8), (n, s, 5)))
    expect = reference_attention(q, k, v)
    for block_rows in (n, 3):
        monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", block_rows * s * s * 4)
        out = attend(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v))
        np.testing.assert_allclose(out.data, expect, rtol=1e-5, atol=1e-6)


def test_attention_extents_leave_every_real_position_unchanged(monkeypatch):
    rng = np.random.default_rng(34)
    n, s = 7, 11
    q, k, v = (ad.Tensor(rng.standard_normal((n, s, 8)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    extents = np.array([3, 11, 5, 2, 9, 7, 4])
    real = np.arange(s)[None, :] < extents[:, None]
    # The loss reads only real positions, so the untrimmed gradients are zero on padding.
    whole = _attention_run(q, k, v, loss_mask=real)
    # Blocks of 3, 3 and 1 rows: the first two straddle rows of different extents.
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", 3 * s * s * 4)
    trimmed = _attention_run(q, k, v, extents, loss_mask=real)
    np.testing.assert_allclose(trimmed[0][real], whole[0][real], rtol=1e-6, atol=1e-7)
    for a, b in zip(whole[1:], trimmed[1:]):
        np.testing.assert_allclose(b, a, rtol=1e-6, atol=1e-7)
    for d in trimmed[1:]:
        assert not d[~real].any()
    # With one row per block, each block's extent is its row's: padded output rows are zero.
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", s * s * 4)
    alone = _attention_run(q, k, v, extents)
    assert not alone[0][~real].any()
    np.testing.assert_allclose(alone[0][real], whole[0][real], rtol=1e-6, atol=1e-7)


def test_attention_firsts_leave_every_read_position_unchanged(monkeypatch):
    rng = np.random.default_rng(35)
    n, s = 7, 11
    q, k, v = (ad.Tensor(rng.standard_normal((n, s, 8)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    extents = np.array([3, 11, 5, 2, 9, 7, 4])
    firsts = np.array([2, 4, 0, 1, 8, 3, 3])
    slot = np.arange(s)[None, :]
    read = (slot >= firsts[:, None]) & (slot < extents[:, None])
    # Blocks of 3, 3 and 1 rows: the first two hold rows of different windows.
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", 3 * s * s * 4)
    whole = _attention_run(q, k, v, extents, loss_mask=read)
    windowed = _attention_run(q, k, v, extents, loss_mask=read, firsts=firsts)
    np.testing.assert_allclose(windowed[0][read], whole[0][read], rtol=1e-6, atol=1e-7)
    for a, b in zip(whole[1:], windowed[1:]):
        np.testing.assert_allclose(b, a, rtol=1e-6, atol=1e-7)
    assert not windowed[1][slot < firsts[:, None]].any()  # dq of unread queries
    # With one row per block, each tile is its row's window: unread output rows are zero.
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", s * s * 4)
    alone = _attention_run(q, k, v, extents, loss_mask=read, firsts=firsts)
    assert not alone[0][~read].any()
    np.testing.assert_allclose(alone[0][read], whole[0][read], rtol=1e-6, atol=1e-7)


def test_attention_with_a_whole_window_matches_float64_reference(monkeypatch):
    # Offsets, extents and firsts together, across blocks of 3, 3 and 1 rows
    # whose windows differ: every read query matches the reference.
    rng = np.random.default_rng(37)
    n, sq, sk = 7, 6, 10
    q, k, v = (rng.standard_normal(shape).astype(np.float32)
               for shape in ((n, sq, 8), (n, sk, 8), (n, sk, 5)))
    offsets = np.array([4, 0, 2, 1, 3, 0, 4])
    extents = np.array([6, 3, 5, 2, 6, 1, 4])
    firsts = np.array([2, 0, 4, 1, 5, 0, 3])
    slot = np.arange(sq)[None, :]
    read = (slot >= firsts[:, None]) & (slot < extents[:, None])
    expect = reference_attention(q, k, v, offsets)
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", 3 * sq * sk * 4)
    out = ad.attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), offsets, extents, firsts).data
    np.testing.assert_allclose(out[read], expect[read], rtol=1e-5, atol=1e-6)


def test_attention_firsts_without_extents_read_every_query_from_the_first(monkeypatch):
    rng = np.random.default_rng(38)
    n, s = 5, 7
    q, k, v = (rng.standard_normal((n, s, 8)).astype(np.float32) for _ in range(3))
    firsts = np.array([3, 6, 0, 2, 5])
    read = np.arange(s)[None, :] >= firsts[:, None]
    expect = reference_attention(q, k, v)
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", s * s * 4)  # one row per block
    out = attend(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), firsts=firsts).data
    np.testing.assert_allclose(out[read], expect[read], rtol=1e-5, atol=1e-6)
    assert not out[~read].any()


@pytest.mark.parametrize("bad", [[-1, 0], [0, 2], [0, 3], [0], [[0, 1]]])
def test_attention_rejects_a_first_outside_its_rows_extent(bad):
    q = ad.Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ad.ShapeError, match="firsts must be 2 values"):
        attend(q, q, q, extents=np.array([3, 2]), firsts=np.array(bad))


def test_attention_rejects_a_bad_extent():
    q = ad.Tensor(np.zeros((2, 3, 4)))
    for bad in ([0, 3], [1, 4], [3], [[1, 2]]):
        with pytest.raises(ad.ShapeError, match=r"extents must be 2 values in \[1, 3\]"):
            attend(q, q, q, extents=np.array(bad))
    # Over five keys, extents still count queries.
    longer = ad.Tensor(np.zeros((2, 5, 4)))
    with pytest.raises(ad.ShapeError, match=r"extents must be 2 values in \[1, 3\]"):
        attend(q, longer, longer, np.array([0, 2]), np.array([3, 4]))


def test_attention_rejects_fewer_keys():
    q = ad.Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ad.ShapeError, match="cannot attend"):
        attend(q, ad.Tensor(np.zeros((2, 2, 4))), ad.Tensor(np.zeros((2, 2, 4))))


@pytest.mark.parametrize("bad", [[-1, 0], [0, 4], [4, 3], [0], [0, 0, 0], [[0, 1]]])
def test_attention_rejects_bad_offsets(bad):
    # Two queries over five keys: each offset must be in [0, 3].
    q, longer = ad.Tensor(np.zeros((2, 2, 4))), ad.Tensor(np.zeros((2, 5, 4)))
    with pytest.raises(ad.ShapeError, match=r"offsets must be 2 values in \[0, 3\]"):
        attend(q, longer, longer, np.array(bad))


def test_feed_forward_and_attention_leave_inputs_unmodified():
    rng = np.random.default_rng(32)
    x, q, k, v = (ad.Tensor(rng.standard_normal((3, 6, 4)).astype(np.float32), requires_grad=True)
                  for _ in range(4))
    gain, w1, w2 = (ad.Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
                    for shape in ((4,), (4, 9), (9, 4)))
    extents, firsts = np.array([6, 4, 5]), np.array([0, 2, 1])
    inputs = (x.data, gain.data, w1.data, w2.data, q.data, k.data, v.data, extents, firsts)
    before = [a.copy() for a in inputs]
    with ad.Tape() as tape:
        h = ad.add(ad.feed_forward(x, gain, w1, w2), attend(q, k, v, extents=extents, firsts=firsts))
        loss = ad.cross_entropy(h, np.zeros((3, 6), int), np.ones((3, 6)))
    tape.backward(loss)
    for a, b in zip(before, inputs):
        assert np.array_equal(a, b)
