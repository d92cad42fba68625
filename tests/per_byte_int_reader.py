"""The per-byte integer reader of ``debias extract``, kept as the reference
for :func:`debias.cli._int_tokens`.

:func:`int_tokens` walks every byte in Python, and yields per read a list
of ``(value, byte_offset)`` pairs.  :func:`checked_faces` and
:func:`mapped_states` are the range and ``--state-order`` checks that
consumed those pairs.  The bodies are the package's implementation before
the reader split whole reads with ``bytes.split``; only the imports differ.
"""

from __future__ import annotations

import io

from debias.cli import BadSymbol

_WHITESPACE = b" \t\r\n\v\f"


def _byte_chunks(stream):
    read = getattr(stream, "read1", stream.read)
    while True:
        chunk = read(io.DEFAULT_BUFFER_SIZE)
        if not chunk:
            return
        yield chunk


def int_tokens(stream):
    offset = 0
    value = None
    start = 0
    for chunk in _byte_chunks(stream):
        tokens = []
        for b in chunk:
            if 0x30 <= b <= 0x39:
                if value is None:
                    value, start = 0, offset
                value = value * 10 + (b - 0x30)
            elif b in _WHITESPACE:
                if value is not None:
                    tokens.append((value, start))
                    value = None
            else:
                yield tokens
                raise BadSymbol(offset, f"expected a decimal value, got {chr(b)!r}")
            offset += 1
        yield tokens
    if value is not None:
        yield [(value, start)]


def checked_faces(batches, m: int):
    for tokens in batches:
        faces = [value for value, _ in tokens]
        if faces and max(faces) >= m:
            i = next(i for i, face in enumerate(faces) if face >= m)
            yield faces[:i]
            value, offset = tokens[i]
            raise BadSymbol(offset, f"value {value} out of range for m={m}")
        yield faces


def mapped_states(batches, mapping: dict[int, int]):
    for tokens in batches:
        states = [mapping.get(value) for value, _ in tokens]
        if None in states:
            i = states.index(None)
            yield states[:i]
            value, offset = tokens[i]
            raise BadSymbol(offset, f"state {value} not in --state-order")
        yield states
