import numpy as np
import pytest

from coper.codec import (
    BOS_ID,
    CHARS,
    PAD_ID,
    VOCAB_SIZE,
    UnknownSymbol,
    encode,
    serialize_sample,
    vocab_table,
)


def test_vocab_layout():
    table = vocab_table()
    assert len(table) == VOCAB_SIZE == 17
    for d in range(10):
        assert table[str(d)] == d
    assert table["+"] == 10 and table["-"] == 11 and table["="] == 12
    assert table["."] == 13 and table[","] == 14
    assert table["<bos>"] == BOS_ID == 15 and table["<pad>"] == PAD_ID == 16


def test_encode_example():
    assert encode("12+34=") == (1, 2, 10, 3, 4, 12)


def test_fixed_width_value_is_ten_ids():
    assert len(encode("+3.1415926")) == 10


def test_empty_round_trip():
    assert encode("") == ()


def test_round_trip_random_strings():
    rng = np.random.default_rng(0)
    alphabet = list(CHARS)
    for _ in range(10_000):
        n = int(rng.integers(0, 24))
        text = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))
        assert encode(text) == tuple(CHARS.index(ch) for ch in text)


def test_unknown_character_offset():
    with pytest.raises(UnknownSymbol) as err:
        encode("12x3")
    assert err.value.offset == 2


@pytest.mark.parametrize("text, offset, char", [
    ("12+3é=", 4, "é"),            # not ASCII
    ("\u20ac", 0, "\u20ac"),       # not ASCII, first
    ("0123456789+-=.,~", 15, "~"),  # ASCII, after one of every good character
    ("12+34=\x00", 6, "\x00"),      # the byte that maps to no id
    ("12 3", 2, " "),
])
def test_the_first_bad_character_is_named_at_its_offset(text, offset, char):
    with pytest.raises(UnknownSymbol) as err:
        encode(text + "x\u00ff")  # later bad characters do not move the offset
    assert err.value.offset == offset and repr(char) in str(err.value)


def test_ids_are_a_tuple_of_ints():
    for text in ("", "7", "12+34="):
        ids = encode(text)
        assert type(ids) is tuple and all(type(i) is int for i in ids)
        assert ids == tuple(CHARS.index(ch) for ch in text)


def test_serialize_sample():
    assert serialize_sample("123123", "1212", "244334") == ("123123+1212=", "244334")
    assert serialize_sample("5", "0", "5") == ("5+0=", "5")


def test_parse_inverts_serialize():
    rng = np.random.default_rng(1)
    for _ in range(500):
        s1 = "".join(str(d) for d in rng.integers(0, 10, size=int(rng.integers(1, 12))))
        s2 = "".join(str(d) for d in rng.integers(0, 10, size=int(rng.integers(1, 12))))
        ans = "".join(str(d) for d in rng.integers(0, 10, size=int(rng.integers(1, 12))))
        input_text, target_text = serialize_sample(s1, s2, ans)
        assert input_text.endswith("=") and target_text == ans
        assert input_text[:-1].split("+") == [s1, s2]


def test_serialize_rejects_empty_operand():
    with pytest.raises(ValueError):
        serialize_sample("", "1", "2")
