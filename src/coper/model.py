"""Decoder-only transformer with pluggable positional encodings.

Pre-norm blocks, RMS normalization, tanh-GELU feed-forward, no biases.
The token embedding is initialized from the model seed and frozen, so the
model cannot smuggle numeric priors into the symbols; the output head is a
separate trainable matrix.  Positional information enters either as rotary
rotations of queries/keys (ROPE), an additive sinusoidal table (SINPE), or
not at all (NONE).  Both tables come from `rope_tables`' angles: the
sinusoid row of a position is the interleaved (sin, cos) of its rotary
angles at the full model width and base 10000.  A model builds only the
tables its PE kind reads.  The layer stack's input, each real token's
frozen embedding row plus its sinusoid row under SINPE, is built in numpy
as one constant, so neither table ever enters autodiff.

`forward` and greedy decoding run the same layer code and describe a batch
by one read window: right-padded rows, each row's real length (`extents`)
and the first position whose logits are read (`firsts`).  That code packs
the real tokens into one sequence for every per-token op; only attention
and the key/value cache see the padded (row, slot) layout, and attention is
causal, so the last layer runs from its queries on only on the read tokens.
`decode` is the one greedy decoder.  It takes `forward`'s window, returns
`forward`'s logits and keeps that forward's keys and values as its cache;
then it feeds one token per row per step at the row's own next slot, so
every row sees exactly the positions it would see decoded alone.
`generate_greedy` right-pads prompts and calls it.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .codec import PAD_ID, VOCAB_SIZE

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
        object.__setattr__(self, "pe_kind", PeKind(self.pe_kind))
        if self.d_model < 1 or self.n_heads < 1:
            raise ConfigError(f"d_model and n_heads must be >= 1, got {self.d_model} and {self.n_heads}")
        if not self.rope_base > 0:
            raise ConfigError(f"rope_base must be positive, got {self.rope_base}")
        if self.d_model % (2 * self.n_heads) != 0:
            raise ConfigError(
                f"d_model {self.d_model} must be divisible by 2 * n_heads = {2 * self.n_heads}")
        if not 1 <= self.n_layers <= 8:
            raise ConfigError(f"n_layers must be in [1, 8], got {self.n_layers}")
        if self.vocab_size != VOCAB_SIZE:
            raise ConfigError(f"vocab_size must be the codec's {VOCAB_SIZE}, got {self.vocab_size}")
        if self.ffn_mult < 1 or self.max_seq_len < 2:
            raise ConfigError("ffn_mult and max_seq_len must be positive")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


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

        # The position tables the PE kind reads, one row per position: the
        # rotary cos and sin tiled over heads, so that one (d_model / 2) row
        # rotates a token's packed queries or keys in one op; the sinusoid,
        # the interleaved (sin, cos) of the rotary angles at full width; or none.
        self._pe_tables = ()
        if config.pe_kind is PeKind.ROPE:
            self._pe_tables = tuple(np.tile(t, (1, config.n_heads)) for t in rope_tables(
                config.d_head, config.max_seq_len, config.rope_base))
        elif config.pe_kind is PeKind.SINPE:
            cos, sin = rope_tables(d, config.max_seq_len, 10000.0)
            self._pe_tables = (np.stack((sin, cos), axis=-1).reshape(config.max_seq_len, d),)

    def parameters(self) -> dict[str, ad.Tensor]:
        """The trainable tensors (the frozen embedding is not among them)."""
        return self.params

    def astype(self, dtype) -> "Transformer":
        """Cast all state in place (gradient checks run in float64)."""
        for t in list(self.params.values()) + [self.embedding]:
            t.data = t.data.astype(dtype)
        self._pe_tables = tuple(t.astype(dtype) for t in self._pe_tables)
        return self

    def forward(self, tokens: np.ndarray, extents: np.ndarray | None = None,
                firsts: np.ndarray | None = None) -> ad.Tensor:
        """Logits of shape (batch, length, vocab) of the causal forward.

        The batch is read in one window of two (batch,) arrays: row i's
        tokens from extents[i] on are right padding, and its logits are read
        only at positions [firsts[i], extents[i]).  Each extent must be in
        [1, length] and each first in [0, extents[i] - 1]; None extents make
        every position real and None firsts read every real position.  Every
        per-token op runs only on the real tokens and attention skips the
        padding (see `autodiff.attention`); the last layer's queries,
        attention rows, feed-forward and head run only on the read tokens.
        The read logits, and the gradients of a loss over them alone, are
        those of the forward without extents and firsts up to float
        rounding, and do not depend on how much padding follows or what it
        holds; the other logits are zero and carry no meaning.
        """
        return self._run(*self._window(tokens, extents, firsts))

    def _window(self, tokens, extents, firsts) -> tuple:
        """(tokens, extents, firsts, offsets) as arrays checked against the
        rules of `forward`: None extents make every slot real, None firsts
        read every real position, and every row's offset is zero."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise LengthError(f"tokens must be (batch, length), got {tokens.shape}")
        b, s = tokens.shape
        if s > self.config.max_seq_len:
            raise LengthError(f"length {s} exceeds max_seq_len {self.config.max_seq_len}")
        extents = np.full(b, s) if extents is None else np.asarray(extents)
        firsts = np.zeros(b, dtype=np.int64) if firsts is None else np.asarray(firsts)
        if extents.shape != (b,):
            raise LengthError(f"extents must have shape ({b},), got {extents.shape}")
        bad = np.flatnonzero((extents < 1) | (extents > s))
        if bad.size:
            raise LengthError(f"extent {extents[bad[0]]} of row {bad[0]} is outside [1, {s}]")
        if firsts.shape != (b,):
            raise LengthError(f"firsts must have shape ({b},), got {firsts.shape}")
        bad = np.flatnonzero((firsts < 0) | (firsts >= extents))
        if bad.size:
            i = bad[0]
            raise LengthError(f"first {firsts[i]} of row {i} is outside [0, {extents[i] - 1}]")
        return tokens, extents, firsts, np.zeros(b, dtype=np.int64)

    def _run(self, tokens: np.ndarray, extents: np.ndarray, firsts: np.ndarray,
             offsets: np.ndarray, cache: list | None = None) -> ad.Tensor:
        """The layer stack over `tokens` (B, S) in the window of (B,) arrays
        `extents`, `firsts` and `offsets`: row i fills slots offsets[i]
        onward, its tokens from extents[i] on are padding, and its logits are
        read from firsts[i] on.

        A token's slot is also its position in the rotary or sinusoid table.
        The T real tokens are packed, row by row: their ids, which must be in
        [0, vocab_size), select their frozen embedding rows, to which SINPE
        adds their sinusoid rows, in one constant (1, T, D) tensor on which
        every norm, projection, feed-forward, rope and the head run.
        `split_heads` scatters the queries, keys and values into zero-padded
        (B * H, S, d_head) tiles for attention and the cache, `merge_heads`
        gathers attention's output back, and a one-head split returns (B, S,
        vocab) logits, zero at padding.  Unless every real token is read, a
        one-head `merge_heads` gathers the read tokens from the last layer's
        input and its normed copy; the last layer's keys and values still
        cover every real token.
        `cache` is a list of per-layer (keys, values) arrays of shape
        (B * H, slots, d_head).  Given empty, it receives each layer's own
        rotated key and value tiles, so a full forward fills it without a
        copy.  Given full, each layer first writes its rotated keys and
        values at their slots, and each query attends over the whole cache,
        whose keys past its row's slots attention neither sees nor reads;
        without a cache, over `tokens` up to its own.
        """
        cfg = self.config
        h = cfg.n_heads
        b, s = tokens.shape
        # The packing: row and slot of each real token, and for each of its
        # heads the flat (row * H + head) * S + slot index into the tiles.
        flat = np.flatnonzero(np.arange(s) < extents[:, None])
        rows, cols = np.divmod(flat, s)
        slots = ((rows * h)[:, None] + np.arange(h)) * s + cols[:, None]
        tile = (b * h, s)
        pos = offsets[rows] + cols
        pe = [np.take(t, pos, axis=0) for t in self._pe_tables]  # each token's position rows
        del pos
        head_offsets, head_extents = np.repeat(offsets, h), np.repeat(extents, h)
        if cache:  # each layer writes its keys and values at the slots where its queries sit
            written = (np.arange(b * h)[:, None], head_offsets[:, None] + np.arange(s))
        # The packed indices of the tokens whose last-layer outputs are read;
        # None when every real token is.
        read = None if not firsts.any() else np.flatnonzero(cols >= firsts[rows])
        del rows, cols  # the layers read the packing only through slots, flat and read

        ids = np.take(tokens, flat)
        if ids.min() < 0 or ids.max() >= cfg.vocab_size:
            raise ad.ShapeError(f"ids outside table of {cfg.vocab_size} rows")
        x = self.embedding.data[ids]
        del ids  # the layers hold no (T,) id array
        if cfg.pe_kind is PeKind.SINPE:
            x += pe.pop()  # spent on the input: only rope's rows are read past it
        x = ad.Tensor(x[None])
        # The queries' tile slots, position rows and attention firsts: every
        # real token's, until the last layer keeps only the read tokens.
        q_slots, q_pe, q_firsts = slots, pe, np.zeros_like(head_extents)
        # Each layer drops its arrays after their last read, so attention
        # runs beside the residual stream and the head tiles alone.
        for layer in range(cfg.n_layers):
            p = self.params
            pre = f"layers.{layer}."
            hn = hq = ad.rmsnorm(x, p[pre + "attn_norm"])
            if layer == cfg.n_layers - 1 and read is not None:
                x, hq = ad.merge_heads(x, read[:, None]), ad.merge_heads(hn, read[:, None])
                q_slots, q_pe, q_firsts = slots[read], [t[read] for t in pe], np.repeat(firsts, h)
            q = ad.matmul(hq, p[pre + "wq"])
            del hq
            if cfg.pe_kind is PeKind.ROPE:
                q = ad.rope_rotate(q, *q_pe)
            q = ad.split_heads(q, q_slots, tile)
            k = ad.matmul(hn, p[pre + "wk"])
            if cfg.pe_kind is PeKind.ROPE:
                k = ad.rope_rotate(k, *pe)
            k = ad.split_heads(k, slots, tile)
            v = ad.split_heads(ad.matmul(hn, p[pre + "wv"]), slots, tile)
            del hn
            if cache is not None and len(cache) == layer:
                cache.append((k.data, v.data))
            elif cache is not None:
                keys, values = cache[layer]
                keys[written], values[written] = k.data, v.data
                k, v = ad.Tensor(keys), ad.Tensor(values)
            o = ad.attention(q, k, v, head_offsets, head_extents, q_firsts)
            del q, k, v
            o = ad.merge_heads(o, q_slots)
            x = ad.add(x, ad.matmul(o, p[pre + "wo"]))
            del o
            x = ad.add(x, ad.feed_forward(x, p[pre + "ffn_norm"], p[pre + "w1"], p[pre + "w2"]))
        x = ad.rmsnorm(x, self.params["final_norm"])
        # A one-head split puts each read token's logits back at its (row, slot).
        out_slots = flat[:, None] if read is None else flat[read, None]
        return ad.split_heads(ad.matmul(x, self.params["head"]), out_slots, (b, s))

    def decode(self, tokens, extents, firsts) -> tuple[np.ndarray, np.ndarray]:
        """`forward`'s logits and each row's greedy answer: (logits, answers).

        Takes `forward`'s arguments: row i's prompt is tokens[i, :firsts[i] +
        1] and its answer is extents[i] - firsts[i] tokens, which must fit
        max_seq_len together.  The logits are those of `forward(tokens,
        extents, firsts)`, and that forward's keys and values become the
        cache.  Each row's first answer token is the argmax at firsts[i].
        Every later step feeds each row's newest token at its next slot,
        overwriting that slot, and attends over the row's slots up to it, so
        whatever `tokens` holds after a prompt is never seen.  A step runs
        only the span of rows from the first to the last whose answer is
        unfinished; a finished row inside it stays on its last slot.
        `answers` is (B, longest answer), zero past each row's answer; ties
        resolve to the smallest id.
        """
        tokens, extents, firsts, offsets = self._window(tokens, extents, firsts)
        too_long = np.flatnonzero(extents >= self.config.max_seq_len)
        if too_long.size:
            i = too_long[0]
            raise LengthError(f"prompt {firsts[i] + 1} + {extents[i] - firsts[i]} new tokens exceeds "
                              f"max_seq_len {self.config.max_seq_len}")
        cache = []
        logits = self._run(tokens, extents, firsts, offsets, cache).data
        b, h = len(tokens), self.config.n_heads
        lengths = extents - firsts
        ones = np.ones(b, dtype=np.int64)  # each step's one token per row is real and read
        answers = np.zeros((b, int(lengths.max())), dtype=np.int64)
        answers[:, 0] = logits[np.arange(b), firsts].argmax(axis=-1)
        for step in range(1, answers.shape[1]):
            # Only the span of rows still decoding runs: running every row at
            # every step cost pair-decode 17 % more CPU per evaluate pass.
            live = np.flatnonzero(lengths > step)
            lo, hi = live[0], live[-1] + 1
            slot = np.minimum(firsts[lo:hi] + step, extents[lo:hi] - 1)  # each row's newest token
            span = [(keys[lo * h:hi * h], values[lo * h:hi * h]) for keys, values in cache]
            step_logits = self._run(answers[lo:hi, step - 1:step], ones[lo:hi], ones[lo:hi] - 1, slot,
                                    span).data
            answers[lo:hi, step] = np.where(lengths[lo:hi] > step, step_logits[:, 0].argmax(axis=-1), 0)
        return logits, answers

    def generate_greedy(self, prompts, n: int) -> np.ndarray:
        """Argmax continuations of `n` tokens, shape (len(prompts), n).

        `prompts` is a list of 1-D id arrays of any lengths, or a 2-D array
        of equal-length rows.  They are right-padded to the longest prompt
        plus n - 1 and continued by `decode`.
        """
        rows = [np.asarray(p) for p in prompts]
        if any(r.ndim != 1 or r.size == 0 for r in rows):
            raise LengthError("every prompt must be a non-empty 1-D id sequence")
        if n == 0:
            return np.zeros((len(rows), 0), dtype=np.int64)
        starts = np.array([r.size for r in rows])
        tokens = np.full((len(rows), int(starts.max()) + n - 1), PAD_ID, dtype=np.int64)
        for i, r in enumerate(rows):
            tokens[i, :r.size] = r
        return self.decode(tokens, starts + n - 1, starts - 1)[1]

    def state_tensors(self) -> dict[str, ad.Tensor]:
        """Everything a checkpoint stores, frozen embedding included."""
        return {"embedding": self.embedding, **self.params}


def save_checkpoint(model: Transformer, path, step: int, master_seed: int) -> None:
    """Single file: uint32 length, JSON manifest, little-endian float32 blob,
    written atomically (see `write_atomic`)."""
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
        "config": asdict(model.config),
        "step": int(step),
        "master_seed": int(master_seed),
        "tensors": index,
    }
    header = json.dumps(manifest, sort_keys=True).encode("utf-8")
    write_atomic(path, struct.pack("<I", len(header)), header, *blobs)


def write_atomic(path, *chunks: bytes | str) -> None:
    """Write `chunks` (str is UTF-8 encoded) to `path` as one replacement.

    The chunks go to `.<name>.tmp` beside `path`, which is fsynced and then
    renamed over `path`, so a crash or a failed write leaves either the
    previous file or the new one, and never the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    missing = {"config", "step", "master_seed", "tensors"} - manifest.keys()
    if missing:
        raise CheckpointError(f"checkpoint manifest lacks {sorted(missing)}")
    config = manifest["config"] if isinstance(manifest["config"], dict) else {}
    names = {f.name for f in fields(ModelConfig)}
    if config.keys() != names:
        raise CheckpointError(f"checkpoint config lacks fields {sorted(names - config.keys())} "
                              f"and has unknown fields {sorted(config.keys() - names)}")
    try:
        config = ModelConfig(**config)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from exc
    model = Transformer(config)
    tensors = model.state_tensors()
    blob = raw[4 + hlen:]
    seen = set()
    if not isinstance(manifest["tensors"], list):
        raise CheckpointError("checkpoint tensor index is not a list")
    for entry in manifest["tensors"]:
        if not isinstance(entry, dict) or not {"name", "shape", "offset"} <= entry.keys():
            raise CheckpointError(f"checkpoint tensor entry {entry!r} lacks name, shape or offset")
        name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        if (not isinstance(name, str) or not isinstance(shape, list)
                or not all(type(n) is int for n in shape) or type(offset) is not int or offset < 0):
            raise CheckpointError(f"checkpoint tensor entry {entry!r} is malformed")
        shape = tuple(shape)
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
