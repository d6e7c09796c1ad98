import numpy as np
import pytest

from coper import autodiff as ad


def t64(arr, grad=True):
    return ad.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def rand64(rng, *shape, grad=True):
    return t64(rng.standard_normal(shape), grad=grad)


def causal_mask(s):
    return np.where(np.arange(s)[None, :] > np.arange(s)[:, None], -np.inf, 0.0)


def attention_probs(q, k, scale=1.0, mask=None):
    """The softmax inside `attention`, read out by attending to identity values."""
    n, s, _ = q.shape
    eye = ad.Tensor(np.broadcast_to(np.eye(s, dtype=q.dtype), (n, s, s)).copy())
    return ad.attention(q, k, eye, scale, mask).data


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
            y = ad.multiply(x, x)
        tape.backward(y)
        assert float(x.grad) == pytest.approx(6.0)

    def test_no_tape_means_no_graph(self):
        x = t64(3.0)
        y = ad.multiply(x, x)
        assert not y.requires_grad and x.grad is None

    def test_constant_function_zero_grads(self):
        x = t64(1.5)
        with ad.Tape() as tape:
            z = ad.scale(ad.multiply(x, x), 0.0)
        tape.backward(z)
        assert float(x.grad) == 0.0
        assert ad.grad_check(lambda: ad.scale(ad.multiply(x, x), 0.0), [x]) == 0.0

    def test_grad_accumulates_across_tapes(self):
        x = t64(2.0)
        for _ in range(2):
            with ad.Tape() as tape:
                y = ad.multiply(x, x)
            tape.backward(y)
        assert float(x.grad) == pytest.approx(8.0)


class TestForwardSemantics:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        q, k = (ad.Tensor(rng.standard_normal((4, 16, 8)).astype(np.float32)) for _ in range(2))
        p = attention_probs(q, k, scale=3.0)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_mask_zeroes_positions(self):
        q = ad.Tensor(np.zeros((2, 3, 4), dtype=np.float32))
        k = ad.Tensor(np.ones((2, 3, 4), dtype=np.float32))
        p = attention_probs(q, k, mask=causal_mask(3).astype(np.float32))
        assert np.allclose(p[:, 0], [1.0, 0.0, 0.0])
        assert np.allclose(p[:, 2], [1 / 3, 1 / 3, 1 / 3])

    def test_attention_shape_error_names_shapes(self):
        q = ad.Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ad.ShapeError) as err:
            ad.attention(q, ad.Tensor(np.zeros((2, 5, 4))), q, 1.0)
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
        with pytest.raises(ad.ShapeError) as err:
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    def test_head_split_merge_round_trip(self):
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.standard_normal((3, 5, 8)).astype(np.float32))
        y = ad.merge_heads(ad.split_heads(x, 4), 4)
        assert np.array_equal(y.data, x.data)

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
        err = ad.grad_check(f, params, epsilon=1e-3)
        assert err < tol, f"max relative gradient error {err}"

    def test_matmul_2d(self):
        rng = np.random.default_rng(10)
        a, b = rand64(rng, 4, 5), rand64(rng, 5, 3)
        self.check(lambda: ad.cross_entropy(ad.matmul(a, b), np.array([0, 1, 2, 0]), np.ones(4)), [a, b])

    def test_matmul_3d_by_2d(self):
        rng = np.random.default_rng(11)
        a, b = rand64(rng, 2, 4, 5), rand64(rng, 5, 3)
        f = lambda: ad.cross_entropy(ad.matmul(a, b), np.zeros((2, 4), int), np.ones((2, 4)))
        self.check(f, [a, b])

    def test_matmul_batched(self):
        rng = np.random.default_rng(12)
        a, b = rand64(rng, 2, 3, 4), rand64(rng, 2, 4, 5)
        f = lambda: ad.cross_entropy(ad.matmul(a, b), np.ones((2, 3), int), np.ones((2, 3)))
        self.check(f, [a, b])

    def test_add_broadcast_bias(self):
        rng = np.random.default_rng(13)
        a, bias = rand64(rng, 2, 3, 5), rand64(rng, 5)
        f = lambda: ad.cross_entropy(ad.add(a, bias), np.zeros((2, 3), int), np.ones((2, 3)))
        self.check(f, [a, bias])

    def test_scale_and_multiply(self):
        rng = np.random.default_rng(14)
        a, b = rand64(rng, 3, 4, 5), rand64(rng, 3, 4, 5)
        f = lambda: ad.cross_entropy(ad.scale(ad.multiply(a, b), 0.7),
                                     np.ones((3, 4), int), np.ones((3, 4)))
        self.check(f, [a, b])

    def test_gelu(self):
        rng = np.random.default_rng(15)
        a, w = rand64(rng, 2, 4, 5), rand64(rng, 5, 6)
        f = lambda: ad.cross_entropy(ad.matmul(ad.gelu(a), w), np.ones((2, 4), int), np.ones((2, 4)))
        self.check(f, [a, w])

    def test_softmax(self):
        rng = np.random.default_rng(16)
        q, k, v = rand64(rng, 2, 4, 3), rand64(rng, 2, 4, 3), rand64(rng, 2, 4, 5)
        f = lambda: ad.cross_entropy(ad.attention(q, k, v, 0.7), np.ones((2, 4), int), np.ones((2, 4)))
        self.check(f, [q, k, v])

    def test_softmax_with_causal_mask(self):
        rng = np.random.default_rng(17)
        q, k, v = rand64(rng, 3, 5, 4), rand64(rng, 3, 5, 4), rand64(rng, 3, 5, 6)
        f = lambda: ad.cross_entropy(ad.attention(q, k, v, 0.5, causal_mask(5)),
                                     np.ones((3, 5), int), np.ones((3, 5)))
        self.check(f, [q, k, v])

    def test_rmsnorm(self):
        rng = np.random.default_rng(18)
        a, g, w = rand64(rng, 2, 3, 6), t64(np.ones(6)), rand64(rng, 6, 4)
        f = lambda: ad.cross_entropy(ad.matmul(ad.rmsnorm(a, g), w),
                                     np.ones((2, 3), int), np.ones((2, 3)))
        self.check(f, [a, g, w])

    def test_embedding_scatter(self):
        rng = np.random.default_rng(19)
        table = rand64(rng, 7, 5)
        ids = np.array([[0, 3, 3, 6], [1, 1, 2, 5]])
        f = lambda: ad.cross_entropy(ad.embedding(table, ids),
                                     np.ones((2, 4), int) * 2, np.ones((2, 4)))
        self.check(f, [table])

    def test_transpose_reshape_heads_rope(self):
        rng = np.random.default_rng(20)
        from coper.model import rope_tables
        cos, sin = rope_tables(4, 3, 100.0)
        a = rand64(rng, 2, 3, 8)
        w = rand64(rng, 4, 5)

        def f():
            h = ad.split_heads(a, 2)                      # (4, 3, 4)
            h = ad.rope_rotate(h, cos.astype(np.float64), sin.astype(np.float64))
            o = ad.attention(h, h, h, 1.0)                # (4, 3, 4)
            m = ad.merge_heads(o, 2)                      # (2, 3, 8)
            m = ad.reshape(m, (6, 8))
            return ad.cross_entropy(ad.matmul(ad.reshape(m, (2, 3, 8)), ad.matmul(rand_w, w)),
                                    np.ones((2, 3), int), np.ones((2, 3)))

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
            ad.grad_check(lambda: ad.multiply(x, x), [x], epsilon=0.5)

    def test_nonfinite_raises(self):
        x = t64(np.inf)
        with pytest.raises(ad.NumericalError):
            ad.grad_check(lambda: ad.multiply(x, x), [x])


def test_forward_determinism():
    rng = np.random.default_rng(30)
    x = ad.Tensor(rng.standard_normal((4, 8, 16)).astype(np.float32))
    w = ad.Tensor(rng.standard_normal((16, 16)).astype(np.float32))

    def f():
        h = ad.matmul(ad.gelu(x), w)
        return ad.attention(h, h, h, 0.25, causal_mask(8).astype(np.float32)).data

    assert np.array_equal(f(), f())


def _attention_run(q, k, v, mask):
    for t in (q, k, v):
        t.grad = None
    with ad.Tape() as tape:
        out = ad.attention(q, k, v, 0.35, mask)
        loss = ad.cross_entropy(out, np.zeros(out.shape[:2], int), np.ones(out.shape[:2]))
    tape.backward(loss)
    return [out.data, q.grad, k.grad, v.grad]


def test_attention_blocks_agree_with_one_block(monkeypatch):
    rng = np.random.default_rng(31)
    n, s = 7, 11
    q, k, v = (ad.Tensor(rng.standard_normal((n, s, 8)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    mask = causal_mask(s).astype(np.float32)
    assert ad._ATTENTION_BLOCK_BYTES >= n * s * s * 4
    whole = _attention_run(q, k, v, mask)
    # Three rows per block: blocks of 3, 3 and a ragged 1.
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", 3 * s * s * 4)
    blocked = _attention_run(q, k, v, mask)
    for a, b in zip(whole, blocked):
        np.testing.assert_allclose(b, a, rtol=1e-6, atol=1e-7)


def test_gelu_and_attention_leave_inputs_unmodified():
    rng = np.random.default_rng(32)
    x, q, k, v = (ad.Tensor(rng.standard_normal((3, 6, 4)).astype(np.float32), requires_grad=True)
                  for _ in range(4))
    mask = causal_mask(6).astype(np.float32)
    before = [t.data.copy() for t in (x, q, k, v)] + [mask.copy()]
    with ad.Tape() as tape:
        h = ad.add(ad.gelu(x), ad.attention(q, k, v, 0.5, mask))
        loss = ad.cross_entropy(h, np.zeros((3, 6), int), np.ones((3, 6)))
    tape.backward(loss)
    for a, b in zip(before, [x.data, q.data, k.data, v.data, mask]):
        assert np.array_equal(a, b)
