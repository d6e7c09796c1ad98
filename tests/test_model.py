import json
import re
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from coper import autodiff as ad
from coper.cli import main
from coper.model import (
    CheckpointError,
    ConfigError,
    LengthError,
    ModelConfig,
    PeKind,
    Transformer,
    load_checkpoint,
    rope_tables,
    save_checkpoint,
)
from coper.profiles import PROFILES
from coper.training import EvalPoint, RunLog

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gradcheck  # noqa: E402

TINY = ModelConfig(d_model=16, n_heads=2, n_layers=2, ffn_mult=2, max_seq_len=64, init_seed=1)


class TestConfig:
    def test_head_pairing_constraint(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=12, n_heads=4)  # head dim 3 cannot form rotation pairs
        ModelConfig(d_model=24, n_heads=2)

    @pytest.mark.parametrize("fields, message", [
        ({"n_heads": 0}, "n_heads must be >= 1"),
        ({"n_heads": -4}, "n_heads must be >= 1"),
        ({"d_model": 0}, "d_model and n_heads must be >= 1"),
        ({"rope_base": 0.0}, "rope_base must be positive"),
        ({"rope_base": -10000.0}, "rope_base must be positive"),
    ], ids=["zero_heads", "negative_heads", "zero_width", "zero_rope_base", "negative_rope_base"])
    def test_values_it_cannot_run_rejected(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            ModelConfig(**fields)

    def test_layer_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=9)
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=0)

    def test_round_trip(self):
        cfg = ModelConfig(pe_kind=PeKind.SINPE, n_layers=3)
        assert ModelConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_pe_kind_given_as_its_string(self):
        tokens = np.arange(10, dtype=np.int64).reshape(1, 10)
        cfg = replace(TINY, pe_kind="sinpe")
        assert cfg.pe_kind is PeKind.SINPE
        assert np.array_equal(Transformer(cfg).forward(tokens).data,
                              Transformer(replace(TINY, pe_kind=PeKind.SINPE)).forward(tokens).data)


def rotate(x: np.ndarray, positions, d_head: int, base: float = 10000.0) -> np.ndarray:
    """Rotary rotation the way the model applies it: rope_tables rows fed to ad.rope_rotate.

    x is (N, S, d_head); positions index the table rows, (S,) shared or (N, S) per row.
    """
    positions = np.asarray(positions)
    cos, sin = rope_tables(d_head, int(positions.max()) + 1, base)
    return ad.rope_rotate(ad.Tensor(x), cos[positions], sin[positions]).data


def reference_sinusoid(n_positions: int, d_model: int) -> np.ndarray:
    """The classic additive table in closed form, (n_positions, d_model)
    float32: entry (pos, j) is the sine (j even) or cosine (j odd) of
    pos / 10000^(2 floor(j / 2) / d_model), computed in float64."""
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    i = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (i // 2) / d_model)
    table = np.zeros((n_positions, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table.astype(np.float32)


def model_sinusoid(d_model: int, n_positions: int) -> np.ndarray:
    """The sinusoid table a SINPE model of that width and length adds."""
    model = Transformer(ModelConfig(d_model=d_model, n_heads=1, n_layers=1, ffn_mult=1,
                                    max_seq_len=n_positions, pe_kind=PeKind.SINPE))
    (table,) = model._pe_tables
    return table


# Every profile's max_seq_len and the default config's.
_DESK_LENGTHS = sorted({p.desk.model.max_seq_len for p in PROFILES.values()} | {ModelConfig().max_seq_len})


class TestSinusoid:
    """A SINPE model's table is the interleaved (sin, cos) of `rope_tables`'
    angles at full width; the closed form divides by the frequency where
    those angles multiply by its inverse."""

    @pytest.mark.parametrize("max_seq_len", _DESK_LENGTHS)
    def test_desk_width_tables_are_bytewise_the_closed_form(self, max_seq_len):
        assert {p.desk.model.d_model for p in PROFILES.values()} == {64}
        table = model_sinusoid(64, max_seq_len)
        assert table.dtype == np.float32
        assert np.array_equal(table, reference_sinusoid(max_seq_len, 64))

    def test_every_width_agrees_with_the_closed_form(self):
        for d_model in range(8, 513, 8):
            np.testing.assert_allclose(model_sinusoid(d_model, 1024), reference_sinusoid(1024, d_model),
                                       rtol=0, atol=1e-10, err_msg=f"d_model {d_model}")

    def test_the_sinusoid_keeps_base_10000_whatever_the_rope_base(self):
        (table,) = Transformer(replace(TINY, pe_kind=PeKind.SINPE, rope_base=500.0))._pe_tables
        assert np.array_equal(table, reference_sinusoid(TINY.max_seq_len, TINY.d_model))

    def test_only_a_sinpe_model_builds_the_sinusoid(self):
        shapes = {kind: [t.shape for t in Transformer(replace(TINY, pe_kind=kind))._pe_tables]
                  for kind in PeKind}
        assert shapes == {PeKind.ROPE: [(64, 8), (64, 8)], PeKind.SINPE: [(64, 16)], PeKind.NONE: []}


class TestApplyRope:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 1, 16))
        assert np.allclose(rotate(x, [0], 16), x)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 1, 16)).astype(np.float32)
        m = rng.integers(0, 500, size=(100, 1))
        np.testing.assert_allclose(np.linalg.norm(rotate(x, m, 16), axis=-1),
                                   np.linalg.norm(x, axis=-1), rtol=0, atol=1e-5)

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            rope_tables(7, 2, 10000.0)
        cos, sin = rope_tables(8, 2, 10000.0)
        with pytest.raises(ad.ShapeError):
            ad.rope_rotate(ad.Tensor(np.zeros((1, 2, 7))), cos, sin)

    @pytest.mark.parametrize("d_head", [8, 16, 64])
    def test_scores_depend_only_on_relative_position(self, d_head):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((1000, 1, d_head)).astype(np.float32)
        k = rng.standard_normal((1000, 1, d_head)).astype(np.float32)
        m, n = rng.integers(0, 256, size=(2, 1000, 1))
        delta = rng.integers(0, 256, size=(1000, 1))

        def score(qpos, kpos):
            return (rotate(q, qpos, d_head) * rotate(k, kpos, d_head)).sum(axis=(1, 2))

        assert np.abs(score(m, n) - score(m + delta, n + delta)).max() < 1e-5

    def test_scores_do_not_determine_a_rule_of_another_period(self):
        # Slot pairs (0, 1) and (8, 9) get the same rotated score for every
        # query and key, yet the value rule t mod 3 differs by -1 on one and
        # by 2 on the other: no function of the scores reproduces the rule.
        rng = np.random.default_rng(5)
        q = rng.standard_normal((1000, 1, 16)).astype(np.float32)
        k = rng.standard_normal((1000, 1, 16)).astype(np.float32)

        def score(qpos, kpos):
            return (rotate(q, [qpos], 16) * rotate(k, [kpos], 16)).sum(axis=(1, 2))

        assert np.abs(score(0, 1) - score(8, 9)).max() < 1e-5
        assert (0 % 3 - 1 % 3, 8 % 3 - 9 % 3) == (-1, 2)

    def test_sinusoidal_pe_lacks_the_invariance(self):
        # Witness search: additive absolute encodings shift scores by more
        # than 1e-2 somewhere.
        rng = np.random.default_rng(3)
        table = model_sinusoid(16, 600)
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
        # Closed form: pair i at position p turns by the angle p * base^(-2i / d).
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 32, 8)).astype(np.float32)
        rotated = rotate(x, np.arange(32), 8)
        for pos in (0, 1, 7, 31):
            for i in range(4):
                angle = pos * 10000.0 ** (-2.0 * i / 8)
                turn = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
                expect = turn @ x[0, pos, 2 * i:2 * i + 2].astype(np.float64)
                np.testing.assert_allclose(rotated[0, pos, 2 * i:2 * i + 2], expect, atol=1e-6)


class TestInput:
    """The layer stack's input: each real token's frozen embedding row, plus
    its sinusoid row under SINPE, gathered in numpy as one constant."""

    @pytest.mark.parametrize("kind", list(PeKind))
    def test_it_is_each_real_tokens_row_plus_its_sinusoid(self, kind, monkeypatch):
        model = Transformer(replace(TINY, pe_kind=kind))
        tokens, extents = np.array([[3, 0, 16, 5, 9], [16, 2, 7, 7, 7]]), np.array([5, 2])
        inputs, rmsnorm = [], ad.rmsnorm
        monkeypatch.setattr(ad, "rmsnorm", lambda x, gain: inputs.append(x) or rmsnorm(x, gain))
        model.forward(tokens, extents)
        expect = model.embedding.data[[3, 0, 16, 5, 9, 16, 2]]
        if kind is PeKind.SINPE:
            expect = expect + reference_sinusoid(TINY.max_seq_len, TINY.d_model)[[0, 1, 2, 3, 4, 0, 1]]
        x = inputs[0]
        assert x.shape == (1, 7, TINY.d_model) and not x.requires_grad
        assert np.array_equal(x.data[0], expect)

    @pytest.mark.parametrize("bad", [-1, 17, 99])
    def test_an_id_outside_the_vocabulary_fails_before_any_layer_runs(self, bad, monkeypatch):
        # numpy would wrap a negative id to a row from the end, silently.
        model = Transformer(TINY)
        layers = []
        monkeypatch.setattr(ad, "rmsnorm", lambda *args: layers.append(args))
        tokens = np.zeros((2, 9), dtype=np.int64)
        tokens[1, 4] = bad  # inside row 1's prompt
        for call in (model.forward, model.decode):
            with pytest.raises(ad.ShapeError, match="ids outside table of 17 rows"):
                call(tokens, np.array([9, 6]), np.array([2, 5]))
        assert not layers

    def test_junk_past_a_rows_extent_is_accepted(self):
        model = Transformer(TINY)
        tokens = np.random.default_rng(16).integers(0, 17, size=(2, 9))
        extents, firsts = np.array([9, 4]), np.array([2, 1])
        junk = tokens.copy()
        junk[1, 4:] = [-5, 17, 99, -1, 1000]
        assert np.array_equal(model.forward(junk, extents, firsts).data,
                              model.forward(tokens, extents, firsts).data)
        for got, want in zip(model.decode(junk, extents, firsts), model.decode(tokens, extents, firsts)):
            assert np.array_equal(got, want)

    def test_the_embedding_never_enters_the_tape(self):
        # Even a table marked as needing a gradient receives none: the model
        # reads its rows as a constant.
        model = Transformer(TINY)
        model.embedding.requires_grad = True
        tokens = np.random.default_rng(17).integers(0, 17, size=(2, 6))
        with ad.Tape() as tape:
            loss = ad.cross_entropy(model.forward(tokens), tokens, np.ones((2, 6)))
        tape.backward(loss)
        assert model.embedding.grad is None
        assert all(t.grad is not None for t in model.parameters().values())


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

    @pytest.mark.parametrize("kind", list(PeKind))
    def test_extents_leave_every_real_position_unchanged(self, kind, monkeypatch):
        # Packing runs every per-token op on the same real tokens however
        # much padding follows them, so their logits keep every bit.  Against
        # the forward without extents, whose GEMMs have more rows, they agree
        # only to rounding: OpenBLAS's row results depend on the row count.
        # Attention's trimmed tiles stay bit-identical for 16-wide heads, as
        # in the desk profiles, but not for 8-wide heads over 32 or more keys.
        model = Transformer(replace(TINY, d_model=32, pe_kind=kind))
        rng = np.random.default_rng(7)
        extents = np.array([40, 3, 29, 1, 17])
        tokens = rng.integers(0, 17, size=(5, 40))
        real = np.arange(40) < extents[:, None]
        packed = model.forward(tokens, extents).data
        assert not packed[~real].any()
        np.testing.assert_allclose(packed[real], model.forward(tokens).data[real], rtol=1e-5, atol=1e-6)
        for width in (40, 41, 64):
            padded = np.where(np.arange(width) < extents[:, None],
                              np.pad(tokens, ((0, 0), (0, width - 40))), rng.integers(0, 17, (5, width)))
            # Three (row, head) pairs per attention block: blocks straddle rows.
            for block_rows in (3, 10):
                monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", block_rows * width * width * 4)
                logits = model.forward(padded, extents).data
                assert np.array_equal(logits[:, :40][real], packed[real])
                assert not logits[:, 40:].any()

    def test_every_per_token_matmul_runs_on_the_real_tokens_only(self, monkeypatch):
        model = Transformer(TINY)
        extents = np.array([9, 2, 14, 5])
        rows = []

        def counting(op):
            def run(a, *weights):
                rows.append(a.shape[:2])
                return op(a, *weights)
            return run

        monkeypatch.setattr(ad, "matmul", counting(ad.matmul))
        monkeypatch.setattr(ad, "feed_forward", counting(ad.feed_forward))
        model.forward(np.zeros((4, 14), dtype=np.int64), extents)
        # Per layer the q, k, v and output projections and the feed-forward; then the head.
        assert rows == [(1, int(extents.sum()))] * (5 * TINY.n_layers + 1)

    def test_extents_are_validated(self):
        model = Transformer(TINY)
        tokens = np.zeros((3, 9), dtype=np.int64)
        for bad, message in (([9, 10, 4], "extent 10 of row 1"), ([-1, 3, 4], "extent -1 of row 0"),
                             ([5, 2, 0], "extent 0 of row 2"), ([3, 4], r"shape \(3,\), got \(2,\)"),
                             ([[3, 4, 5]], r"got \(1, 3\)")):
            for call in (model.forward, model.decode):  # one window, one check
                with pytest.raises(LengthError, match=message):
                    call(tokens, np.array(bad), np.zeros(3, dtype=np.int64))

    @pytest.mark.parametrize("n_layers", [1, 2])  # one layer: the only layer is the last
    @pytest.mark.parametrize("kind", list(PeKind))
    def test_firsts_leave_every_read_logit_and_gradient_unchanged(self, kind, n_layers):
        model = Transformer(replace(TINY, pe_kind=kind, n_layers=n_layers))
        rng = np.random.default_rng(15)
        extents, firsts = np.array([14, 3, 9, 1, 12]), np.array([5, 2, 0, 0, 11])
        tokens, targets = rng.integers(0, 17, size=(2, 5, 14))
        slot = np.arange(14)
        read = (slot >= firsts[:, None]) & (slot < extents[:, None])
        logits, grads = [], []
        for given in (None, firsts):
            for t in model.parameters().values():
                t.grad = None
            with ad.Tape() as tape:
                out = model.forward(tokens, extents, given)
                loss = ad.cross_entropy(out, targets, read)
            tape.backward(loss)
            logits.append(out.data)
            grads.append({name: t.grad for name, t in model.parameters().items()})
        np.testing.assert_allclose(logits[1][read], logits[0][read], rtol=1e-5, atol=1e-6)
        assert not logits[1][~read].any()
        for name, grad in grads[0].items():
            np.testing.assert_allclose(grads[1][name], grad, rtol=1e-4, atol=1e-6, err_msg=name)

    def test_the_last_layer_runs_from_its_keys_and_values_on_the_read_tokens_only(self, monkeypatch):
        model = Transformer(TINY)
        extents, firsts = np.array([9, 2, 14, 5]), np.array([3, 1, 0, 4])
        names = {id(t): name for name, t in model.parameters().items()}
        rows = {}

        def counting(op):
            def run(a, *weights):
                rows.update({names[id(w)]: a.shape[:2] for w in weights})
                return op(a, *weights)
            return run

        monkeypatch.setattr(ad, "matmul", counting(ad.matmul))
        monkeypatch.setattr(ad, "feed_forward", counting(ad.feed_forward))
        model.forward(np.zeros((4, 14), dtype=np.int64), extents, firsts)
        real, read = (1, int(extents.sum())), (1, int((extents - firsts).sum()))
        last = f"layers.{TINY.n_layers - 1}."
        assert rows["head"] == read
        assert {name: rows[last + name] for name in ("wq", "wo", "w1", "w2")} == dict.fromkeys(
            ("wq", "wo", "w1", "w2"), read)
        assert rows[last + "wk"] == rows[last + "wv"] == rows["layers.0.wq"] == real

    @pytest.mark.parametrize("extents, bad, message", [
        ([9, 4, 2], [0, 4, 1], r"first 4 of row 1 is outside \[0, 3\]"),
        ([9, 4, 2], [-1, 0, 0], r"first -1 of row 0 is outside \[0, 8\]"),
        ([9, 4, 2], [0, 3, 2], r"first 2 of row 2 is outside \[0, 1\]"),
        (None, [0, 9, 0], r"first 9 of row 1 is outside \[0, 8\]"),
        ([9, 4, 2], [0, 1], r"shape \(3,\), got \(2,\)"),
        ([9, 4, 2], [[0, 1, 1]], r"shape \(3,\), got \(1, 3\)"),
    ])
    def test_firsts_are_validated(self, extents, bad, message):
        model = Transformer(TINY)
        extents = None if extents is None else np.array(extents)
        for call in (model.forward, model.decode):  # one window, one check
            with pytest.raises(LengthError, match=message):
                call(np.zeros((3, 9), dtype=np.int64), extents, np.array(bad))

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

    def test_a_tape_free_forward_of_128_rows_peaks_below_its_bound(self):
        # 128 right-padded rows of 24 to 48 real tokens, 64 wide in four
        # heads, as in the desk profiles.
        cfg = ModelConfig(d_model=64, n_heads=4, n_layers=2, ffn_mult=4, max_seq_len=64, init_seed=4)
        model = Transformer(cfg)
        rng = np.random.default_rng(41)
        b, s = 128, 48
        extents, tokens = rng.integers(24, s + 1, size=b), rng.integers(0, 17, size=(b, s))
        td = int(extents.sum()) * cfg.d_model * 4  # one packed (T, D) float32 array
        tile = b * s * cfg.d_model * 4  # one (B * H, S, d_head) tile
        tracemalloc.start()
        try:
            model.forward(tokens, extents)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Attention's call holds the residual stream and rope's position
        # rows, two (T, D) arrays, with the packing's index arrays, under an
        # eighth of one; the q, k, v and output tiles; and one score block.
        # A projection and its rotation peak lower, since a tile holds at
        # least a (T, D) array.  The normed input, or a (T, D) array of the
        # layer before, kept through attention would pass the bound.
        assert peak < 3 * td + 4 * tile + ad._ATTENTION_BLOCK_BYTES


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
        x = x + reference_sinusoid(s, cfg.d_model).astype(np.float64)
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

    def test_longest_prompt_sets_the_context_limit(self):
        model = Transformer(TINY)
        prompts = [np.zeros(5, dtype=np.int64), np.zeros(59, dtype=np.int64)]
        assert model.generate_greedy(prompts, 5).shape == (2, 5)
        prompts[1] = np.zeros(60, dtype=np.int64)
        with pytest.raises(LengthError):
            model.generate_greedy(prompts, 5)

    @pytest.mark.parametrize("kind", list(PeKind))
    def test_cached_decoding_matches_one_forward_per_token(self, kind):
        model = Transformer(ModelConfig(max_seq_len=200, pe_kind=kind, init_seed=3))
        rng = np.random.default_rng(12)
        prompts = [rng.integers(0, 17, size=n) for n in (3, 187, 40, 3, 96, 150, 12, 187, 71)]
        n_new = 6
        got = model.generate_greedy(prompts, n_new)
        for prompt, row in zip(prompts, got):
            ids = list(prompt)
            for _ in range(n_new):
                ids.append(int(model.forward(np.asarray([ids])).data[0, -1].argmax()))
            assert row.tolist() == ids[len(prompt):]

    @pytest.mark.parametrize("kind", list(PeKind))
    def test_decode_scores_the_whole_rows_and_decodes_from_the_prompts(self, kind):
        model = Transformer(replace(TINY, pe_kind=kind))
        rng = np.random.default_rng(14)
        # Prompts of 50, 10 and 23 tokens, answers of 5, 30 and 1: each fits, 50 + 30 would not.
        extents, firsts = np.array([54, 39, 23]), np.array([49, 9, 22])
        tokens = rng.integers(0, 17, size=(3, 54))
        logits, answers = model.decode(tokens, extents, firsts)
        assert np.array_equal(logits, model.forward(tokens, extents, firsts).data)
        # Every position an answer-only score reads, from each prompt's last token on.
        read = (np.arange(54) >= firsts[:, None]) & (np.arange(54) < extents[:, None])
        np.testing.assert_allclose(logits[read], model.forward(tokens).data[read], rtol=1e-5, atol=1e-6)
        assert not logits[~read].any()
        assert answers.shape == (3, 30)
        for row, (first, n) in enumerate(zip(firsts, extents - firsts)):
            alone = model.generate_greedy([tokens[row, :first + 1]], int(n))[0]
            assert answers[row, :n].tolist() == alone.tolist()
            assert not answers[row, n:].any()
        after_prompts = tokens.copy()
        for row, first in enumerate(firsts):
            after_prompts[row, first + 1:] = rng.integers(0, 17, size=53 - first)
        assert np.array_equal(model.decode(after_prompts, extents, firsts)[1], answers)

    @pytest.mark.parametrize("kind", list(PeKind))
    def test_a_decode_step_over_the_whole_cache_matches_one_over_the_written_slots(
            self, kind, monkeypatch):
        # A step passes attention the whole prefill cache, and each block's
        # keys end at its own rows' slots.  Cutting the cache to the slots
        # written so far, in one block, gives the same logits up to float
        # rounding (BLAS sums a longer run of zero-weighted keys in another
        # order) and the same answers.
        model = Transformer(replace(TINY, pe_kind=kind))
        rng = np.random.default_rng(15)
        tokens = rng.integers(0, 17, size=(5, 40))
        extents, firsts = np.array([40, 31, 36, 12, 25]), np.array([20, 9, 30, 5, 18])
        cache = []
        model._run(*model._window(tokens, extents, firsts), cache)
        slot, step = firsts + 3, rng.integers(0, 17, size=(5, 1))
        ones = np.ones(5, dtype=np.int64)
        width = slot.max() + 1
        cut = model._run(step, ones, ones - 1, slot,
                         [(k[:, :width].copy(), v[:, :width].copy()) for k, v in cache]).data
        monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", 3 * 40 * 4)  # 3 of the 10 head rows
        whole = model._run(step, ones, ones - 1, slot, [(k.copy(), v.copy()) for k, v in cache]).data
        np.testing.assert_allclose(whole, cut, rtol=1e-5, atol=1e-6)
        assert np.array_equal(whole.argmax(axis=-1), cut.argmax(axis=-1))

    def test_decode_rejects_a_row_that_does_not_fit(self):
        model = Transformer(TINY)
        # Row 1: a 40-token prompt and a 25-token answer need 65 slots.
        with pytest.raises(LengthError, match="prompt 40 \\+ 25 new tokens exceeds max_seq_len 64"):
            model.decode(np.zeros((2, 64), dtype=np.int64), np.array([14, 64]), np.array([9, 39]))
        # Fits max_seq_len, but not the 60 slots of `tokens`.
        with pytest.raises(LengthError, match=r"extent 61 of row 0 is outside \[1, 60\]"):
            model.decode(np.zeros((2, 60), dtype=np.int64), np.array([61, 3]), np.array([9, 2]))

    def test_equal_length_array_matches_list_of_rows(self):
        model = Transformer(TINY)
        prompts = np.random.default_rng(13).integers(0, 17, size=(4, 9))
        assert np.array_equal(model.generate_greedy(prompts, 5),
                              model.generate_greedy(list(prompts), 5))

    def test_ties_break_to_smallest_id(self):
        model = Transformer(TINY)
        logits = np.zeros((2, 5), dtype=np.float32)
        assert int(logits.argmax(axis=-1)[0]) == 0  # np.argmax contract the decoder relies on
        del model


class FailingFile:
    """A writable file whose `fail_at`-th write raises, as on a full disk."""

    def __init__(self, fh, fail_at: int):
        self.fh, self.fail_at, self.writes = fh, fail_at, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError("disk full")
        return self.fh.write(data)


# A `coper --config` file small enough to build, train and decode in a moment.
TINY_RUN = {
    "policy": {"train_lo": 2, "train_hi": 4, "total_lo": 2, "total_hi": 5, "hollow": [[3, 3]]},
    "answer_cap": 12,
    "counts": {"train": 16, "test_id": 6, "test_hollow": 6, "test_extrapolation": 6},
    "model": {"d_model": 16, "n_heads": 2, "n_layers": 1, "ffn_mult": 2, "max_seq_len": 64},
    "train": {"batch_size": 8, "learning_rate": 1e-3, "epochs": 1, "eval_every": 1},
}


def _cli(tmp_path, *argv) -> int:
    """`coper *argv --config <TINY_RUN>`."""
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY_RUN))
    return main([*argv, "--config", str(config)])


def _write_runlog(tmp_path, variant):
    log = RunLog()
    log.append(EvalPoint(1, 2.0 + variant, {"test_id": 2.5}, {"test_id": 0.25}))
    log.save(tmp_path / "run")


def _gen(tmp_path, variant):
    _cli(tmp_path, "gen", "--seed", str(variant), "--out", str(tmp_path / "gen"))


def _eval(tmp_path, variant):
    data = tmp_path / "gen"
    if variant == 0:
        _gen(tmp_path, 0)
    ckpt = tmp_path / f"m{variant}.ckpt"
    save_checkpoint(Transformer(replace(TINY, init_seed=variant)), ckpt, 0, 0)
    main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(tmp_path / "eval")])


def _train(tmp_path, variant):
    if variant == 0:
        _gen(tmp_path, 0)
    _cli(tmp_path, "train", "--data", str(tmp_path / "gen"), "--seed", str(variant),
         "--out", str(tmp_path / "train"))


def _experiment(tmp_path, variant):
    _cli(tmp_path, "run-experiment", "coper-default", "--seed", "1", "--epochs", str(1 + variant),
         "--out", str(tmp_path / "exp"))


# Each writer that replaces a run output: (file it writes, a call that writes
# a different version of it for variant 0 and variant 1).
ATOMIC_WRITERS = {
    "runlog.csv": ("run/runlog.csv", _write_runlog),
    "runlog.json": ("run/runlog.json", _write_runlog),
    "gen stamp.json": ("gen/stamp.json", _gen),
    "gen manifest.json": ("gen/manifest.json", _gen),
    "gen train.jsonl": ("gen/train.jsonl", _gen),
    "train curves.csv": ("train/curves.csv", _train),
    "train curves.svg": ("train/curves.svg", _train),
    "eval report.json": ("eval/report.json", _eval),
    "eval heatmap.csv": ("eval/heatmap.csv", _eval),
    "eval heatmap.svg": ("eval/heatmap.svg", _eval),
    "eval categories.csv": ("eval/categories.csv", _eval),
    "eval categories.svg": ("eval/categories.svg", _eval),
    "run-experiment report.json": ("exp/seed_1/report.json", _experiment),
    "run-experiment summary.json": ("exp/summary.json", _experiment),
    "run-experiment curves.csv": ("exp/seed_1/curves.csv", _experiment),
    "run-experiment curves.svg": ("exp/seed_1/curves.svg", _experiment),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
    def test_failed_write_keeps_previous_file(self, writer, tmp_path, monkeypatch):
        import coper.model

        relative, write = ATOMIC_WRITERS[writer]
        path = tmp_path / relative
        write(tmp_path, 0)
        before = path.read_bytes()
        failed = []
        real_open = open

        def failing_open(file, *args):
            if Path(file) == path.with_name(f".{path.name}.tmp"):
                failed.append(path.name)
                return FailingFile(real_open(file, *args), 1)
            return real_open(file, *args)

        monkeypatch.setattr(coper.model, "open", failing_open, raising=False)
        try:
            write(tmp_path, 1)  # the CLI turns the OSError into exit code 2
        except OSError as exc:
            assert "disk full" in str(exc)
        assert failed == [path.name]
        assert path.read_bytes() == before
        assert not list(tmp_path.rglob("*.tmp"))
        monkeypatch.undo()
        write(tmp_path, 1)
        assert path.read_bytes() != before


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        model = Transformer(TINY)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, step=12, master_seed=7)
        loaded, step, seed = load_checkpoint(path)
        assert step == 12 and seed == 7
        tokens = np.arange(10, dtype=np.int64).reshape(1, 10)
        assert np.array_equal(model.forward(tokens).data, loaded.forward(tokens).data)

    @staticmethod
    def edited(tmp_path, edit):
        """A saved TINY checkpoint whose manifest `edit` has changed in place."""
        import struct

        path = tmp_path / "m.ckpt"
        save_checkpoint(Transformer(TINY), path, 0, 0)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[:4])
        manifest = json.loads(raw[4:4 + hlen])
        edit(manifest)
        header = json.dumps(manifest, sort_keys=True).encode()
        (tmp_path / "bad.ckpt").write_bytes(struct.pack("<I", len(header)) + header + raw[4 + hlen:])
        return tmp_path / "bad.ckpt"

    def test_version_mismatch_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(self.edited(tmp_path, lambda m: m.update(format="ckpt-0")))

    @pytest.mark.parametrize("edit, names", [
        (lambda m: m["config"].pop("pe_kind"), "lacks fields ['pe_kind']"),
        (lambda m: m["config"].update(dropout=0.1), "unknown fields ['dropout']"),
        (lambda m: m["config"].update(pe_kind="alibi"), "is invalid: 'alibi'"),
        (lambda m: m["config"].update(n_heads=0), "is invalid: d_model and n_heads must be >= 1"),
    ], ids=["missing_field", "unknown_field", "bad_value", "zero_heads"])
    def test_foreign_config_rejected(self, tmp_path, capsys, edit, names):
        bad = self.edited(tmp_path, edit)
        with pytest.raises(CheckpointError, match=r"checkpoint config .*" + re.escape(names)):
            load_checkpoint(bad)
        assert main(["eval", "--ckpt", str(bad), "--data", str(tmp_path),
                     "--out", str(tmp_path / "e")]) == 1
        assert "error: checkpoint config" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["tensors"][0].pop("offset"), "lacks name, shape or offset"),
        (lambda m: m["tensors"][0].pop("name"), "lacks name, shape or offset"),
        (lambda m: m["tensors"].__setitem__(0, 3), "lacks name, shape or offset"),
        (lambda m: m["tensors"][0].update(offset=-4), "is malformed"),
        (lambda m: m["tensors"][0].update(shape=[16, "16"]), "is malformed"),
        (lambda m: m["tensors"][0].update(shape=16), "is malformed"),
        (lambda m: m.update(tensors={}), "tensor index is not a list"),
    ], ids=["no_offset", "no_name", "not_an_object", "negative_offset", "string_dim",
            "shape_not_a_list", "index_not_a_list"])
    def test_malformed_tensor_entry_rejected(self, tmp_path, capsys, edit, message):
        bad = self.edited(tmp_path, edit)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(bad)
        assert main(["eval", "--ckpt", str(bad), "--data", str(tmp_path),
                     "--out", str(tmp_path / "e")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["config", "step", "master_seed", "tensors"])
    def test_missing_manifest_key_rejected(self, tmp_path, key):
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(self.edited(tmp_path, lambda m: m.pop(key)))

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import coper.model

        path = tmp_path / "m.ckpt"
        save_checkpoint(Transformer(TINY), path, step=1, master_seed=0)
        before = path.read_bytes()
        monkeypatch.setattr(coper.model, "open", lambda *a: FailingFile(open(*a), 3), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(Transformer(replace(TINY, init_seed=2)), path, step=2, master_seed=0)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_truncated_rejected(self, tmp_path):
        model = Transformer(TINY)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, 0, 0)
        raw = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(raw[: len(raw) - 100])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "cut.ckpt")


class TestFullModelGradients:
    @pytest.mark.parametrize("kind", list(PeKind))
    def test_grad_check_small_model(self, kind):
        cfg = ModelConfig(d_model=16, n_heads=2, n_layers=2, ffn_mult=2,
                          max_seq_len=16, pe_kind=kind, init_seed=0)
        model = Transformer(cfg).astype(np.float64)
        n_params = sum(t.data.size for t in model.parameters().values())
        assert n_params <= 10_000
        rng = np.random.default_rng(7)
        tokens = rng.integers(0, 17, size=(2, 6))
        targets = rng.integers(0, 17, size=(2, 6))
        mask = np.ones((2, 6))

        def f():
            return ad.cross_entropy(model.forward(tokens), targets, mask)

        err = gradcheck.grad_check(f, model.parameters().values(), epsilon=1e-3)
        assert err < 1e-3

    @pytest.mark.parametrize("kind", list(PeKind))
    def test_grad_check_with_ragged_extents(self, kind):
        cfg = ModelConfig(d_model=8, n_heads=2, n_layers=2, ffn_mult=2,
                          max_seq_len=16, pe_kind=kind, init_seed=0)
        model = Transformer(cfg).astype(np.float64)
        rng = np.random.default_rng(9)
        extents = np.array([3, 7, 1])
        tokens = rng.integers(0, 17, size=(3, 7))
        targets = rng.integers(0, 17, size=(3, 7))
        mask = np.arange(7) < extents[:, None]

        def f():
            return ad.cross_entropy(model.forward(tokens, extents), targets, mask)

        err = gradcheck.grad_check(f, model.parameters().values(), epsilon=1e-3)
        assert err < 1e-3

    def test_model_attention_relative_invariance(self):
        # End-to-end: the model's own per-head tiled rotary tables, fed to
        # ad.rope_rotate on packed queries and keys, keep every head's scores
        # a function of relative offset only.
        cfg = ModelConfig(d_model=32, n_heads=4, n_layers=1, max_seq_len=512, init_seed=0)
        model = Transformer(cfg)
        cos, sin = model._pe_tables
        rng = np.random.default_rng(8)
        q = rng.standard_normal((200, 1, cfg.d_model)).astype(np.float32)
        k = rng.standard_normal((200, 1, cfg.d_model)).astype(np.float32)
        m, n = rng.integers(0, 250, size=(2, 200, 1))
        delta = rng.integers(0, 250, size=(200, 1))

        def scores(qpos, kpos):
            rq = ad.rope_rotate(ad.Tensor(q), cos[qpos], sin[qpos]).data
            rk = ad.rope_rotate(ad.Tensor(k), cos[kpos], sin[kpos]).data
            return (rq * rk).reshape(200, cfg.n_heads, cfg.d_head).sum(axis=-1)

        assert np.abs(scores(m, n) - scores(m + delta, n + delta)).max() < 1e-5
