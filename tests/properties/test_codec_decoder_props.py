"""Property tests for the codec decoder's contract.

The decoder reads bytes that come from disk and from the network, so
besides round-tripping it must fail *only* with a ``ValueError`` (its
:class:`~repro.storage.codec.CodecError` or a ``UnicodeDecodeError``)
on any truncated or corrupted input — never ``IndexError``,
``TypeError`` or ``RecursionError``, which callers do not catch.  The
strategies lean on the sizes where the decoder's one-byte varint fast
paths hand over to the general varint reader (lengths and ints around
0x80).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.codec import CodecError, decode, decode_from, encode

#: text whose UTF-8 form straddles the one-byte length boundary (128 B),
#: including multi-byte characters
texts = st.one_of(
    st.text(max_size=8),
    st.text(min_size=120, max_size=200),
    st.text(alphabet="é€𝄞ß", min_size=40, max_size=80),
)
ints = st.one_of(
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=-(2**70), max_value=2**70),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    st.floats(allow_nan=False),
    texts,
    st.binary(max_size=200),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(texts, children, max_size=6),
    ),
    max_leaves=24,
)


@given(values)
@settings(max_examples=300)
def test_round_trip(value):
    assert decode(encode(value)) == value


@given(values)
@settings(max_examples=200)
def test_decode_from_memoryview_agrees_with_decode(value):
    data = encode(value)
    decoded, end = decode_from(memoryview(data), 0)
    assert decoded == decode(data)
    assert end == len(data)


@given(values, st.binary(max_size=4))
@settings(max_examples=100)
def test_decode_from_reads_one_value_at_an_offset(value, prefix):
    data = prefix + encode(value)
    assert decode_from(data, len(prefix)) == (value, len(data))


@given(values)
@settings(max_examples=200)
def test_every_proper_prefix_raises_codec_error(value):
    data = encode(value)
    for cut in range(len(data)):
        try:
            decode(data[:cut])
        except CodecError:
            continue
        raise AssertionError(f"prefix of {cut}/{len(data)} bytes decoded")


@given(values, st.data())
@settings(max_examples=300)
def test_single_byte_corruption_decodes_or_raises_value_error(value, data):
    encoded = bytearray(encode(value))
    index = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    byte = data.draw(st.integers(min_value=0, max_value=255))
    encoded[index] = byte
    try:
        decode(bytes(encoded))
    except ValueError:  # CodecError, or UnicodeDecodeError on a str
        pass
