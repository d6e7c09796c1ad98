"""Decoder-only transformer with pluggable positional encodings.

Pre-norm blocks, RMS normalization, tanh-GELU feed-forward, no biases.
The token embedding is initialized from the model seed and frozen, so the
model cannot smuggle numeric priors into the symbols; the output head is a
separate trainable matrix.  Positional information enters either as rotary
rotations of queries/keys (ROPE), an additive sinusoidal table (SINPE), or
not at all (NONE).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .codec import VOCAB_SIZE

CHECKPOINT_FORMAT = "ckpt-1"


class ConfigError(ValueError):
    """Model hyperparameters that cannot be realized."""


class LengthError(ValueError):
    """A sequence that does not fit the configured context."""


class CheckpointError(ValueError):
    """A checkpoint file that cannot be loaded against this code/config."""


class PeKind(str, Enum):
    ROPE = "rope"
    SINPE = "sinpe"
    NONE = "none"


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    ffn_mult: int = 4
    vocab_size: int = VOCAB_SIZE
    max_seq_len: int = 512
    pe_kind: PeKind = PeKind.ROPE
    rope_base: float = 10000.0
    init_seed: int = 0

    def __post_init__(self):
        if self.d_model % (2 * self.n_heads) != 0:
            raise ConfigError(
                f"d_model {self.d_model} must be divisible by 2 * n_heads = {2 * self.n_heads}")
        if not 1 <= self.n_layers <= 8:
            raise ConfigError(f"n_layers must be in [1, 8], got {self.n_layers}")
        if self.ffn_mult < 1 or self.vocab_size < 2 or self.max_seq_len < 2:
            raise ConfigError("ffn_mult, vocab_size, and max_seq_len must be positive")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        return {
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "n_layers": self.n_layers,
            "ffn_mult": self.ffn_mult,
            "vocab_size": self.vocab_size,
            "max_seq_len": self.max_seq_len,
            "pe_kind": self.pe_kind.value,
            "rope_base": self.rope_base,
            "init_seed": self.init_seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["pe_kind"] = PeKind(d["pe_kind"])
        return cls(**d)


def rope_tables(d_head: int, n_positions: int, base: float) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin rotation tables of shape (n_positions, d_head / 2).

    Pair i rotates with angular speed base^(-2i / d_head).  Angles are
    computed in float64 so large positions keep full phase precision, then
    cast to float32 for the model.
    """
    if d_head % 2 != 0:
        raise ConfigError(f"head dimension must be even for rotary pairs, got {d_head}")
    i = np.arange(d_head // 2, dtype=np.float64)
    freqs = float(base) ** (-2.0 * i / d_head)
    angles = np.arange(n_positions, dtype=np.float64)[:, None] * freqs[None, :]
    return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)


def apply_rope(x: np.ndarray, position, base: float = 10000.0) -> np.ndarray:
    """Rotate the trailing head dimension of x to the given position(s).

    x is (..., d_head); position is an integer or an array matching the
    second-to-last axis.  Consecutive coordinate pairs (x[2i], x[2i+1])
    rotate by angle position * base^(-2i / d_head); the map is an isometry.
    """
    x = np.asarray(x)
    d_head = x.shape[-1]
    if d_head % 2 != 0:
        raise ConfigError(f"head dimension must be even for rotary pairs, got {d_head}")
    i = np.arange(d_head // 2, dtype=np.float64)
    freqs = float(base) ** (-2.0 * i / d_head)
    pos = np.asarray(position, dtype=np.float64)
    angles = pos[..., None] * freqs if pos.ndim else pos * freqs
    cos = np.cos(angles).astype(x.dtype)
    sin = np.sin(angles).astype(x.dtype)
    x1, x2 = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x1 * cos - x2 * sin
    out[..., 1::2] = x1 * sin + x2 * cos
    return out


def sinusoidal_table(n_positions: int, d_model: int) -> np.ndarray:
    """Classic additive sine/cosine position table, shape (n_positions, d_model)."""
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    i = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (i // 2) / d_model)
    table = np.zeros((n_positions, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table.astype(np.float32)


class Transformer:
    """Causal decoder over the fixed character vocabulary."""

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.init_seed)
        d, f = config.d_model, config.ffn_mult * config.d_model

        def init(shape, fan_in):
            return ad.Tensor(
                (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(np.float32),
                requires_grad=True)

        # Frozen, seeded embedding: fixed random symbol geometry.
        self.embedding = ad.Tensor(
            rng.standard_normal((config.vocab_size, d)).astype(np.float32),
            requires_grad=False)

        self.params: dict[str, ad.Tensor] = {}
        for layer in range(config.n_layers):
            pre = f"layers.{layer}."
            self.params[pre + "attn_norm"] = ad.Tensor(np.ones(d, dtype=np.float32), requires_grad=True)
            for name in ("wq", "wk", "wv", "wo"):
                self.params[pre + name] = init((d, d), d)
            self.params[pre + "ffn_norm"] = ad.Tensor(np.ones(d, dtype=np.float32), requires_grad=True)
            self.params[pre + "w1"] = init((d, f), d)
            self.params[pre + "w2"] = init((f, d), f)
        self.params["final_norm"] = ad.Tensor(np.ones(d, dtype=np.float32), requires_grad=True)
        self.params["head"] = init((d, config.vocab_size), d)

        self._rope_cos, self._rope_sin = rope_tables(
            config.d_head, config.max_seq_len, config.rope_base)
        self._sinpe = sinusoidal_table(config.max_seq_len, d) if config.pe_kind is PeKind.SINPE else None
        self._mask_cache: dict[int, np.ndarray] = {}

    def parameters(self) -> dict[str, ad.Tensor]:
        """The trainable tensors (the frozen embedding is not among them)."""
        return self.params

    def astype(self, dtype) -> "Transformer":
        """Cast all state in place (float64 is used by the gradient checker)."""
        for t in list(self.params.values()) + [self.embedding]:
            t.data = t.data.astype(dtype)
        self._rope_cos = self._rope_cos.astype(dtype)
        self._rope_sin = self._rope_sin.astype(dtype)
        if self._sinpe is not None:
            self._sinpe = self._sinpe.astype(dtype)
        self._mask_cache.clear()
        return self

    def _causal_mask(self, s: int) -> np.ndarray:
        mask = self._mask_cache.get(s)
        if mask is None:
            mask = np.where(np.arange(s)[None, :] > np.arange(s)[:, None], -np.inf, 0.0)
            mask = mask.astype(self.embedding.data.dtype)
            self._mask_cache[s] = mask
        return mask

    def forward(self, tokens: np.ndarray) -> ad.Tensor:
        """Logits of shape (batch, length, vocab) under causal masking."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise LengthError(f"tokens must be (batch, length), got {tokens.shape}")
        b, s = tokens.shape
        if s > self.config.max_seq_len:
            raise LengthError(f"length {s} exceeds max_seq_len {self.config.max_seq_len}")
        cfg = self.config
        h = cfg.n_heads
        inv_sqrt = 1.0 / np.sqrt(cfg.d_head)
        mask = self._causal_mask(s)
        cos, sin = self._rope_cos[:s], self._rope_sin[:s]

        x = ad.embedding(self.embedding, tokens)
        if cfg.pe_kind is PeKind.SINPE:
            x = ad.add(x, ad.Tensor(self._sinpe[:s]))
        for layer in range(cfg.n_layers):
            p = self.params
            pre = f"layers.{layer}."
            hn = ad.rmsnorm(x, p[pre + "attn_norm"])
            q = ad.split_heads(ad.matmul(hn, p[pre + "wq"]), h)
            k = ad.split_heads(ad.matmul(hn, p[pre + "wk"]), h)
            v = ad.split_heads(ad.matmul(hn, p[pre + "wv"]), h)
            if cfg.pe_kind is PeKind.ROPE:
                q = ad.rope_rotate(q, cos, sin)
                k = ad.rope_rotate(k, cos, sin)
            o = ad.merge_heads(ad.attention(q, k, v, inv_sqrt, mask), h)
            x = ad.add(x, ad.matmul(o, p[pre + "wo"]))
            fn = ad.rmsnorm(x, p[pre + "ffn_norm"])
            f = ad.matmul(ad.gelu(ad.matmul(fn, p[pre + "w1"])), p[pre + "w2"])
            x = ad.add(x, f)
        x = ad.rmsnorm(x, self.params["final_norm"])
        return ad.matmul(x, self.params["head"])

    def generate_greedy(self, prompt: np.ndarray, n: int) -> np.ndarray:
        """Argmax continuation of `n` tokens (ties resolve to the smallest id)."""
        prompt = np.asarray(prompt)
        if prompt.ndim != 2:
            raise LengthError(f"prompt must be (batch, length), got {prompt.shape}")
        if prompt.shape[1] + n > self.config.max_seq_len:
            raise LengthError(
                f"prompt {prompt.shape[1]} + {n} new tokens exceeds max_seq_len {self.config.max_seq_len}")
        ids = prompt.copy()
        out = np.zeros((prompt.shape[0], n), dtype=prompt.dtype)
        for step in range(n):
            logits = self.forward(ids).data[:, -1, :]
            nxt = logits.argmax(axis=-1).astype(prompt.dtype)
            out[:, step] = nxt
            ids = np.concatenate([ids, nxt[:, None]], axis=1)
        return out

    def state_tensors(self) -> dict[str, ad.Tensor]:
        """Everything a checkpoint stores, frozen embedding included."""
        return {"embedding": self.embedding, **self.params}


def save_checkpoint(model: Transformer, path, step: int = 0, master_seed: int = 0) -> None:
    """Single file: uint32 length, JSON manifest, little-endian float32 blob."""
    tensors = model.state_tensors()
    index = []
    offset = 0
    blobs = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name].data, dtype="<f4")
        index.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config": model.config.to_dict(),
        "step": int(step),
        "master_seed": int(master_seed),
        "tensors": index,
    }
    header = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> tuple[Transformer, int, int]:
    """Rebuild a model whose forward is bit-identical to the saved one."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise CheckpointError("checkpoint is truncated before its header")
    (hlen,) = struct.unpack("<I", raw[:4])
    if len(raw) < 4 + hlen:
        raise CheckpointError("checkpoint is truncated inside its manifest")
    try:
        manifest = json.loads(raw[4:4 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint manifest: {exc}") from exc
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unsupported checkpoint format {manifest.get('format')!r}")
    model = Transformer(ModelConfig.from_dict(manifest["config"]))
    tensors = model.state_tensors()
    blob = raw[4 + hlen:]
    seen = set()
    for entry in manifest["tensors"]:
        name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
        if name not in tensors:
            raise CheckpointError(f"unknown tensor {name!r} in checkpoint")
        expect = tensors[name].data.shape
        if shape != expect:
            raise CheckpointError(f"tensor {name!r} has shape {shape}, expected {expect}")
        size = int(np.prod(shape)) * 4 if shape else 4
        if offset + size > len(blob):
            raise CheckpointError(f"checkpoint blob is truncated at tensor {name!r}")
        arr = np.frombuffer(blob[offset:offset + size], dtype="<f4").reshape(shape)
        tensors[name].data = arr.copy()
        seen.add(name)
    missing = set(tensors) - seen
    if missing:
        raise CheckpointError(f"checkpoint is missing tensors: {sorted(missing)}")
    return model, int(manifest["step"]), int(manifest["master_seed"])
