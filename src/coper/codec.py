"""Fixed character vocabulary, encoding and sample serialization.

The vocabulary is frozen: ten digits, the four operator/format symbols the
serializations need, and the two structural tokens (BOS, PAD).  Ids are
stable across versions; every dataset manifest embeds the full table.
"""

from __future__ import annotations

CHARS = "0123456789+-=.,"
CHAR_TO_ID = {ch: i for i, ch in enumerate(CHARS)}
BOS_ID = 15
PAD_ID = 16
VOCAB_SIZE = 17

TokenSeq = tuple[int, ...]


class UnknownSymbol(ValueError):
    """A character outside the vocabulary; carries its offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def vocab_table() -> dict[str, int]:
    """Full symbol table, including the structural tokens, for manifests."""
    table = dict(CHAR_TO_ID)
    table["<bos>"] = BOS_ID
    table["<pad>"] = PAD_ID
    return table


def encode(text: str) -> TokenSeq:
    """Map a string to token ids; raises UnknownSymbol at the first bad char."""
    ids = []
    for i, ch in enumerate(text):
        t = CHAR_TO_ID.get(ch)
        if t is None:
            raise UnknownSymbol(f"character {ch!r} not in vocabulary", i)
        ids.append(t)
    return tuple(ids)


def serialize_sample(seq1_text: str, seq2_text: str, answer_text: str) -> tuple[str, str]:
    """Two-operand layout: input 'seq1+seq2=', target the answer digits."""
    if not seq1_text or not seq2_text:
        raise ValueError("operand texts must be non-empty")
    return f"{seq1_text}+{seq2_text}=", answer_text
