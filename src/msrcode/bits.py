"""Bit-level packing between byte strings and m-bit symbol streams.

Symbols are packed most-significant-bit-first: the first symbol occupies the
highest bits of the first byte.  Partial trailing bits are zero-padded, so
converting back requires the intended byte length (or symbol count).
"""

from __future__ import annotations

import functools
import struct
from math import lcm

__all__ = ["bytes_to_symbols", "symbols_to_bytes", "int_to_symbols", "spread_symbols", "gather_symbols", "symbols_to_int", "symbol_width"]


def symbol_width(m: int) -> int:
    """Bytes that hold one m-bit symbol on disk."""
    return (m + 7) // 8


def bytes_to_symbols(data: bytes, m: int) -> list[int]:
    """Split a byte string into ceil(len*8 / m) symbols of m bits, MSB first.

    m may be any width, e.g. a stripe's whole payload.  Like
    symbols_to_bytes, it reads runs whose bits are whole symbols and whole
    bytes, at least 8 / gcd(m, 8) symbols and about 256 bits, one
    int.from_bytes each; the last run's last symbol is zero-padded."""
    run_width = lcm(m, 8)
    step = run_width // 8 * max(1, 256 // run_width)  # bytes per run
    mask = (1 << m) - 1
    out = []
    for start in range(0, len(data), step):
        run = data[start : start + step]
        count = -(-8 * len(run) // m)
        acc = int.from_bytes(run, "big") << count * m - 8 * len(run)
        out += [acc >> shift & mask for shift in range((count - 1) * m, -1, -m)]
    return out


def symbols_to_bytes(symbols, m: int, byte_length: int | None = None) -> bytes:
    """Concatenate m-bit symbols MSB-first and return the leading bytes.

    byte_length truncates zero padding introduced by bytes_to_symbols; when
    omitted, every whole byte of the bitstream is returned.  m may be any
    width, e.g. a stripe's whole payload packed into one int.  The symbols
    are joined in runs whose bits fill whole bytes, at least 8 / gcd(m, 8)
    symbols and about 256 bits, so the work stays linear in their number.
    """
    symbols = list(symbols)
    run_width = lcm(m, 8)
    group = run_width // m * max(1, 256 // run_width)
    out = []
    for start in range(0, len(symbols), group):
        acc = 0
        run = symbols[start : start + group]
        for sym in run:
            acc = (acc << m) | sym
        pad = -len(run) * m % 8
        out.append((acc << pad).to_bytes((len(run) * m + pad) // 8, "big"))
    if byte_length is None:
        byte_length = len(symbols) * m // 8
    return b"".join(out)[:byte_length]


def int_to_symbols(value: int, m: int, count: int) -> list[int]:
    """Spread an unsigned integer over ``count`` m-bit symbols, MSB-first,
    zero-padding the high bits."""
    total = count * m
    if value >> total:
        raise ValueError(f"{value} does not fit in {total} bits")
    return [(value >> (total - m * (i + 1))) & ((1 << m) - 1) for i in range(count)]


def spread_symbols(values, m: int, count: int) -> bytes:
    """Each value's count m-bit symbols, packed MSB-first as int_to_symbols
    reads them, one per w = symbol_width(m) bytes: symbol t of a value
    big-endian in its bytes t * w .. t * w + w - 1, the values' bytes one
    after another.  Each value must fit in count * m bits.

    A mask ladder (_ladder) moves a value's fields apart in log2(count)
    steps, each a few big-int operations over the whole value; gather_symbols
    runs it backwards."""
    size = count * symbol_width(m)
    out = []
    for value in values:
        for mask, shift in _ladder(m, count):
            low = value & mask
            value = low | (value ^ low) << shift
        out.append(value.to_bytes(size, "big"))
    return b"".join(out)


def gather_symbols(data: bytes, m: int, count: int) -> list[int]:
    """The inverse of spread_symbols: each count * symbol_width(m) bytes of
    data, count symbols below 2^m laid out as spread_symbols lays them out,
    packed MSB-first into one int as symbols_to_int packs them.  Each run
    is one int.from_bytes and _ladder's steps backwards, each step putting
    back the fields it lifted."""
    steps = _ladder(m, count)[::-1]
    size = count * symbol_width(m)
    out = []
    for start in range(0, len(data), size):
        value = int.from_bytes(data[start : start + size], "big")
        for mask, shift in steps:
            low = value & mask
            value = low | (value ^ low) >> shift
        out.append(value)
    return out


@functools.lru_cache(maxsize=64)
def _ladder(m: int, count: int) -> tuple[tuple[int, int], ...]:
    """The (mask, shift) steps that spread count packed m-bit fields to
    lanes of 8 * symbol_width(m) bits, one field each, as spread_symbols
    does.  Pad the fields, counted from the low end, to P = 2^ceil(log2
    count) with zeros above.  Before the step for h = P/2, P/4, .., 1, the
    fields lie in groups of 2h, each group packed at m bits a field and the
    groups 2h lanes apart; the step keeps each group's low h fields (mask)
    and lifts its high h by h times the lane's spare bits (shift), which
    leaves groups of h, h lanes apart.  No step is needed where a symbol
    fills its lane (m = 8, 16).  The lifted fields land above the mask, so
    the same mask takes a step back (gather_symbols)."""
    lane = 8 * symbol_width(m)
    steps = []
    h = 1 << (count - 1).bit_length() >> 1 if lane > m else 0
    while h:
        groups = -(-count // (2 * h))
        mask = ((1 << h * m) - 1) * (((1 << 2 * h * lane * groups) - 1) // ((1 << 2 * h * lane) - 1))
        steps.append((mask, h * (lane - m)))
        h >>= 1
    return tuple(steps)


def symbols_to_int(symbols, m: int) -> int:
    """m-bit symbols, m <= 16, packed MSB-first into one int: one byte per
    symbol (two big-endian bytes for m > 8), gathered (gather_symbols)."""
    symbols = list(symbols)
    if not symbols:
        return 0
    data = bytes(symbols) if m <= 8 else struct.pack(f">{len(symbols)}H", *symbols)
    return gather_symbols(data, m, len(symbols))[0]
