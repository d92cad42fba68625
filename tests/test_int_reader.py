"""``debias extract``'s integer reader against the per-byte reference in
``per_byte_int_reader.py``: the same values, batches and errors for any
input cut into any reads."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

import per_byte_int_reader as ref
from debias import cli

WHITESPACE = [b" ", b"\t", b"\r", b"\n", b"\v", b"\f"]


class Reads:
    """A binary stream whose successive reads return at most the next of
    ``sizes`` bytes, cycling through them."""

    def __init__(self, data: bytes, sizes: list[int]):
        self.data, self.sizes, self.pos, self.reads = data, sizes, 0, 0

    def read1(self, n: int) -> bytes:
        size = min(n, self.sizes[self.reads % len(self.sizes)])
        self.reads += 1
        chunk = self.data[self.pos : self.pos + size]
        self.pos += len(chunk)
        return chunk

    read = read1


def drain(batches):
    """The batches an iterator yields, and the ``(offset, detail)`` of the
    ``BadSymbol`` that ended it, or None."""
    out = []
    try:
        for batch in batches:
            out.append(batch)
    except cli.BadSymbol as exc:
        return out, (exc.offset, exc.detail)
    return out, None


def located(batches):
    """The reader's batches as the reference's ``(value, offset)`` lists."""
    return [
        [(value, cli._token_at(text, base, i)[0]) for i, value in enumerate(values)]
        for values, text, base in batches
    ]


tokens = st.builds(
    lambda zeros, value: b"0" * zeros + str(value).encode(),
    st.integers(0, 2),
    st.integers(0, 10**12) | st.integers(0, 12),
)
separators = st.lists(st.sampled_from(WHITESPACE), min_size=1, max_size=3).map(b"".join)
bad_bytes = st.sampled_from([b"x", b"-", b"+", b".", b"_", b"\x00", b"\x1c", b"\x85", b"\xff"])
inputs = st.builds(
    lambda parts, bad, tail: b"".join(parts) + bad + tail,
    st.lists(tokens | separators, max_size=400),
    st.just(b"") | bad_bytes,
    st.lists(tokens | separators, max_size=5).map(b"".join),
)
read_sizes = st.lists(st.integers(1, 997), min_size=1, max_size=8)


@settings(deadline=None)
@given(inputs, read_sizes)
def test_reader_matches_per_byte_reference(data, sizes):
    got, got_error = drain(cli._int_tokens(Reads(data, sizes)))
    want, want_error = drain(ref.int_tokens(Reads(data, sizes)))
    assert located(got) == want
    assert got_error == want_error
    for values, text, base in got:  # error messages show the value itself
        assert [cli._token_at(text, base, i)[1] for i in range(len(values))] == list(
            map(str, values)
        )


@settings(deadline=None)
@given(inputs, read_sizes, st.integers(2, 40))
def test_range_check_matches_per_byte_reference(data, sizes, m):
    got = drain(cli._checked_faces(cli._int_tokens(Reads(data, sizes)), m))
    want = drain(ref.checked_faces(ref.int_tokens(Reads(data, sizes)), m))
    assert got == want


@settings(deadline=None)
@given(inputs, read_sizes, st.lists(st.integers(0, 12), min_size=2, max_size=6, unique=True))
def test_state_order_matches_per_byte_reference(data, sizes, order):
    mapping = {value: idx for idx, value in enumerate(order)}
    got = drain(cli._mapped_states(cli._int_tokens(Reads(data, sizes)), mapping))
    want = drain(ref.mapped_states(ref.int_tokens(Reads(data, sizes)), mapping))
    assert got == want


def test_every_whitespace_byte_separates():
    data = b"".join(b"1" + space for space in WHITESPACE) + b"1"
    assert [v for values, _, _ in cli._int_tokens(io.BytesIO(data)) for v in values] == [1] * 7


def test_tokens_past_the_int_digit_limit():
    # int() refuses more than 4300 digits; the reader and its errors must not
    huge = b"7" * 9001
    data = b"1 " + huge + b" 2\n003 " + huge
    got, error = drain(cli._int_tokens(Reads(data, [997])))
    assert error is None
    want, _ = drain(ref.int_tokens(Reads(data, [997])))
    assert located(got) == want
    sevens = 7 * (10**9001 - 1) // 9
    assert [v for values, _, _ in got for v in values] == [1, sevens, 2, 3, sevens]
    _, error = drain(cli._checked_faces(cli._int_tokens(io.BytesIO(data)), 4))
    assert error == (2, f"value {'7' * 9001} out of range for m=4")
