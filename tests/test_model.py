import numpy as np
import pytest

from coper import autodiff as ad
from coper.model import (
    CheckpointError,
    ConfigError,
    LengthError,
    ModelConfig,
    PeKind,
    Transformer,
    apply_rope,
    load_checkpoint,
    rope_tables,
    save_checkpoint,
    sinusoidal_table,
)

TINY = ModelConfig(d_model=16, n_heads=2, n_layers=2, ffn_mult=2, max_seq_len=64, init_seed=1)


class TestConfig:
    def test_head_pairing_constraint(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=12, n_heads=4)  # head dim 3 cannot form rotation pairs
        ModelConfig(d_model=24, n_heads=2)

    def test_layer_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=9)
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=0)

    def test_round_trip(self):
        cfg = ModelConfig(pe_kind=PeKind.SINPE, n_layers=3)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestApplyRope:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(16)
        assert np.allclose(apply_rope(x, 0), x)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.standard_normal(16).astype(np.float32)
            m = int(rng.integers(0, 500))
            assert np.linalg.norm(apply_rope(x, m)) == pytest.approx(np.linalg.norm(x), abs=1e-5)

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            apply_rope(np.zeros(7), 1)

    @pytest.mark.parametrize("d_head", [8, 16, 64])
    def test_scores_depend_only_on_relative_position(self, d_head):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            q = rng.standard_normal(d_head).astype(np.float32)
            k = rng.standard_normal(d_head).astype(np.float32)
            m, n = (int(v) for v in rng.integers(0, 256, size=2))
            delta = int(rng.integers(0, 256))
            base_score = float(apply_rope(q, m) @ apply_rope(k, n))
            shifted = float(apply_rope(q, m + delta) @ apply_rope(k, n + delta))
            worst = max(worst, abs(base_score - shifted))
        assert worst < 1e-5

    def test_sinusoidal_pe_lacks_the_invariance(self):
        # Witness search: additive absolute encodings shift scores by more
        # than 1e-2 somewhere.
        rng = np.random.default_rng(3)
        table = sinusoidal_table(600, 16)
        found = False
        for _ in range(1000):
            q = rng.standard_normal(16).astype(np.float32)
            k = rng.standard_normal(16).astype(np.float32)
            m, n = (int(v) for v in rng.integers(0, 256, size=2))
            delta = int(rng.integers(1, 256))
            base_score = float((q + table[m]) @ (k + table[n]))
            shifted = float((q + table[m + delta]) @ (k + table[n + delta]))
            if abs(base_score - shifted) > 1e-2:
                found = True
                break
        assert found

    def test_rope_tables_match_pointwise_apply(self):
        cos, sin = rope_tables(8, 32, 10000.0)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 32, 8)).astype(np.float32)
        rotated = ad.rope_rotate(ad.Tensor(x), cos, sin).data
        for pos in (0, 1, 7, 31):
            assert np.allclose(rotated[0, pos], apply_rope(x[0, pos], pos), atol=1e-6)


class TestForward:
    def test_attention_is_causal(self):
        model = Transformer(TINY)
        rng = np.random.default_rng(5)
        tokens = rng.integers(0, 17, size=(2, 12))
        base = model.forward(tokens).data
        permuted = tokens.copy()
        permuted[:, 8:] = permuted[:, 8:][:, ::-1]
        after = model.forward(permuted).data
        assert np.array_equal(base[:, :8], after[:, :8])

    def test_logits_shape(self):
        model = Transformer(TINY)
        out = model.forward(np.zeros((3, 9), dtype=np.int64))
        assert out.shape == (3, 9, 17)

    def test_length_error(self):
        model = Transformer(TINY)
        with pytest.raises(LengthError):
            model.forward(np.zeros((1, 65), dtype=np.int64))

    def test_forward_deterministic(self):
        model = Transformer(TINY)
        tokens = np.zeros((1, 4), dtype=np.int64)
        assert np.array_equal(model.forward(tokens).data, model.forward(tokens).data)

    def test_pe_none_is_position_blind_on_constant_input(self):
        # With no positional encoding every position of a constant-token
        # sequence beyond the first attends to identical content, so late
        # positions produce identical logits.
        cfg = ModelConfig(d_model=16, n_heads=2, n_layers=1, ffn_mult=2,
                          max_seq_len=32, pe_kind=PeKind.NONE, init_seed=3)
        model = Transformer(cfg)
        tokens = np.full((1, 10), 4, dtype=np.int64)
        logits = model.forward(tokens).data[0]
        assert np.allclose(logits[5], logits[9], atol=1e-5)

    def test_rope_vs_sinpe_vs_none_differ(self):
        rng = np.random.default_rng(6)
        tokens = rng.integers(0, 17, size=(1, 8))
        outs = []
        for kind in PeKind:
            cfg = ModelConfig(d_model=16, n_heads=2, n_layers=1, ffn_mult=2,
                              max_seq_len=32, pe_kind=kind, init_seed=3)
            outs.append(Transformer(cfg).forward(tokens).data)
        assert not np.allclose(outs[0], outs[1])
        assert not np.allclose(outs[0], outs[2])


def reference_logits(model: Transformer, tokens: np.ndarray) -> np.ndarray:
    """Float64 numpy forward of the unfused chain: scores, scale, masked softmax, @ v."""
    cfg = model.config
    w = {name: t.data.astype(np.float64) for name, t in model.state_tensors().items()}
    b, s = tokens.shape
    h, dh = cfg.n_heads, cfg.d_head
    cos, sin = (t.astype(np.float64) for t in rope_tables(dh, s, cfg.rope_base))

    def norm(x, gain):
        return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + 1e-6) * gain

    def heads(x):
        return x.reshape(b, s, h, dh).transpose(0, 2, 1, 3)

    def rope(x):
        out = np.empty_like(x)
        out[..., 0::2] = x[..., 0::2] * cos - x[..., 1::2] * sin
        out[..., 1::2] = x[..., 0::2] * sin + x[..., 1::2] * cos
        return out

    x = w["embedding"][tokens]
    if cfg.pe_kind is PeKind.SINPE:
        x = x + sinusoidal_table(s, cfg.d_model).astype(np.float64)
    causal = np.triu(np.full((s, s), -np.inf), k=1)
    for layer in range(cfg.n_layers):
        p = {name[len(f"layers.{layer}."):]: arr for name, arr in w.items()
             if name.startswith(f"layers.{layer}.")}
        hn = norm(x, p["attn_norm"])
        q, k, v = (heads(hn @ p[name]) for name in ("wq", "wk", "wv"))
        if cfg.pe_kind is PeKind.ROPE:
            q, k = rope(q), rope(k)
        scores = (q @ k.transpose(0, 1, 3, 2)) / np.sqrt(dh) + causal
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        o = (e / e.sum(axis=-1, keepdims=True)) @ v
        x = x + o.transpose(0, 2, 1, 3).reshape(b, s, cfg.d_model) @ p["wo"]
        f = norm(x, p["ffn_norm"]) @ p["w1"]
        f = 0.5 * f * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (f + 0.044715 * f**3)))
        x = x + f @ p["w2"]
    return norm(x, w["final_norm"]) @ w["head"]


class TestForwardMatchesReference:
    @pytest.mark.parametrize("kind", list(PeKind))
    def test_float64_logits_match_unfused_chain(self, kind):
        cfg = ModelConfig(d_model=16, n_heads=2, n_layers=2, ffn_mult=2, max_seq_len=64,
                          pe_kind=kind, init_seed=9)
        model = Transformer(cfg).astype(np.float64)
        tokens = np.random.default_rng(10).integers(0, 17, size=(3, 23))
        np.testing.assert_allclose(model.forward(tokens).data, reference_logits(model, tokens),
                                   rtol=1e-10, atol=1e-10)

    def test_float32_logits_match_unfused_chain(self):
        model = Transformer(ModelConfig(d_model=64, n_heads=4, n_layers=2, max_seq_len=384))
        tokens = np.random.default_rng(11).integers(0, 17, size=(4, 187))
        np.testing.assert_allclose(model.forward(tokens).data, reference_logits(model, tokens),
                                   rtol=0, atol=2e-5)


class TestGenerate:
    def test_zero_tokens(self):
        model = Transformer(TINY)
        out = model.generate_greedy(np.zeros((2, 4), dtype=np.int64), 0)
        assert out.shape == (2, 0)

    def test_deterministic(self):
        model = Transformer(TINY)
        prompt = np.arange(8, dtype=np.int64).reshape(1, 8)
        a = model.generate_greedy(prompt, 6)
        b = model.generate_greedy(prompt, 6)
        assert np.array_equal(a, b)

    def test_context_overflow(self):
        model = Transformer(TINY)
        with pytest.raises(LengthError):
            model.generate_greedy(np.zeros((1, 60), dtype=np.int64), 10)

    def test_ties_break_to_smallest_id(self):
        model = Transformer(TINY)
        logits = np.zeros((2, 5), dtype=np.float32)
        assert int(logits.argmax(axis=-1)[0]) == 0  # np.argmax contract the decoder relies on
        del model


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        model = Transformer(TINY)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, step=12, master_seed=7)
        loaded, step, seed = load_checkpoint(path)
        assert step == 12 and seed == 7
        tokens = np.arange(10, dtype=np.int64).reshape(1, 10)
        assert np.array_equal(model.forward(tokens).data, loaded.forward(tokens).data)

    def test_version_mismatch_rejected(self, tmp_path):
        import json
        import struct

        model = Transformer(TINY)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[:4])
        manifest = json.loads(raw[4:4 + hlen])
        manifest["format"] = "ckpt-0"
        header = json.dumps(manifest, sort_keys=True).encode()
        (tmp_path / "bad.ckpt").write_bytes(struct.pack("<I", len(header)) + header + raw[4 + hlen:])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_truncated_rejected(self, tmp_path):
        model = Transformer(TINY)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(raw[: len(raw) - 100])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "cut.ckpt")


class TestFullModelGradients:
    def test_grad_check_small_model(self):
        cfg = ModelConfig(d_model=16, n_heads=2, n_layers=2, ffn_mult=2,
                          max_seq_len=16, init_seed=0)
        model = Transformer(cfg).astype(np.float64)
        n_params = sum(t.data.size for t in model.parameters().values())
        assert n_params <= 10_000
        rng = np.random.default_rng(7)
        tokens = rng.integers(0, 17, size=(2, 6))
        targets = rng.integers(0, 17, size=(2, 6))
        mask = np.ones((2, 6))

        def f():
            return ad.cross_entropy(model.forward(tokens), targets, mask)

        err = ad.grad_check(f, model.parameters().values(), epsilon=1e-3)
        assert err < 1e-3

    def test_model_attention_relative_invariance(self):
        # End-to-end: rotating query/key tensors through the model's tables
        # keeps scores a function of relative offset only.
        cos, sin = rope_tables(16, 512, 10000.0)
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(200):
            q = rng.standard_normal(16).astype(np.float32)
            k = rng.standard_normal(16).astype(np.float32)
            m, n = (int(v) for v in rng.integers(0, 250, size=2))
            delta = int(rng.integers(0, 250))

            def rot(v, pos):
                c, s = cos[pos], sin[pos]
                out = np.empty_like(v)
                out[0::2] = v[0::2] * c - v[1::2] * s
                out[1::2] = v[0::2] * s + v[1::2] * c
                return out

            a = float(rot(q, m) @ rot(k, n))
            b = float(rot(q, m + delta) @ rot(k, n + delta))
            worst = max(worst, abs(a - b))
        assert worst < 1e-5
