"""Arithmetic in GF(2^m) with exponent/logarithm lookup tables.

Field elements are plain ints in [0, 2^m), read as polynomials over GF(2):
bit i is the coefficient of x^i.  The primitive element ``a`` is the residue
class of x (value 2); every nonzero element is a power of ``a``.  Addition is
XOR.  Multiplication, inversion and exponentiation go through the tables.
"""

from __future__ import annotations

import struct

__all__ = ["Field", "NotPrimitive", "DEFAULT_PRIMITIVE_POLYS"]

# One primitive polynomial per supported extension degree, as an integer
# bitmask with bit i = coefficient of x^i (bit m always set).  Callers may
# pass any other primitive polynomial of the right degree instead.
DEFAULT_PRIMITIVE_POLYS = {
    2: 0b111,            # x^2 + x + 1
    3: 0b1011,           # x^3 + x + 1
    4: 0b10011,          # x^4 + x + 1
    5: 0b100101,         # x^5 + x^2 + 1
    6: 0b1000011,        # x^6 + x + 1
    7: 0b10001001,       # x^7 + x^3 + 1
    8: 0b100011101,      # x^8 + x^4 + x^3 + x^2 + 1
    9: 0x211,            # x^9 + x^4 + 1
    10: 0x409,           # x^10 + x^3 + 1
    11: 0x805,           # x^11 + x^2 + 1
    12: 0x1053,          # x^12 + x^6 + x^4 + x + 1
    13: 0x201B,          # x^13 + x^4 + x^3 + x + 1
    14: 0x4443,          # x^14 + x^10 + x^6 + x + 1
    15: 0x8003,          # x^15 + x + 1
    16: 0x1100B,         # x^16 + x^12 + x^3 + x + 1
}

MIN_DEGREE = 2
# Tables for m=16 are ~1 MiB of ints; anything larger has no use here.
MAX_DEGREE = 16


class NotPrimitive(ValueError):
    """The polynomial does not have degree m, is reducible, or x does not
    generate all of GF(2^m)*."""


def _powers(m: int, poly: int) -> list[int]:
    """x^0 .. x^(2^m - 1) modulo poly, built in blocks of L = 2^ceil(m/2)
    powers, each packed into one int at w whole bytes per power.  The first
    block comes from a loop; block j is the first one times x^(jL), the XOR
    of the first block times x^b over the set bits b of x^(jL).  Those m
    products are computed once, each the previous one doubled field-wise
    (every m-bit field shifted left by one, and poly's low bits XORed into
    each field whose top bit fell out), so a block costs a few big-int
    XORs, not L interpreted steps, and all of them one unpacking."""
    width = 1 if m <= 8 else 2  # bytes per packed power
    symbol = "B" if width == 1 else "H"
    size = 1 << (m + 1) // 2  # powers per block
    first, x = [], 1
    for _ in range(size):
        first.append(x)
        x <<= 1
        if x >> m:
            x ^= poly
    ones = int.from_bytes(b"\x01".ljust(width, b"\0") * size, "little")  # bit 0 of every field
    top, keep = ones << (m - 1), ones * ((1 << (m - 1)) - 1)
    low_poly = poly ^ (1 << m)
    shifted = [int.from_bytes(struct.pack(f"<{size}{symbol}", *first), "little")]  # first block times x^b
    for _ in range(m - 1):
        y = shifted[-1]
        shifted.append(((y & keep) << 1) ^ (((y & top) >> (m - 1)) * low_poly))
    blocks = []
    step = 1  # x^(jL), the first power of block j
    for _ in range((1 << m) // size):
        block = 0
        for b, y in enumerate(shifted):
            if step >> b & 1:
                block ^= y
        blocks.append(block.to_bytes(width * size, "little"))
        step = block >> 8 * width * (size - 1) << 1  # the block's last power times x
        if step >> m:
            step ^= poly
    return list(struct.unpack(f"<{1 << m}{symbol}", b"".join(blocks)))


class Field:
    """GF(2^m) for 2 <= m <= 16.

    Immutable after construction; all operations are pure functions, so one
    instance can be shared freely across threads.

    Attributes:
        m:     extension degree (bits per symbol).
        order: 2^m, the number of field elements.
        poly:  the primitive polynomial used for reduction.
        exp:   antilog table, doubled in length so ``exp[i + j]`` works for
               any two logs without an explicit modulo.  exp[i] = a^i.
        log:   log table over [1, 2^m); log[exp[i]] = i.
    """

    def __init__(self, m: int, poly: int | None = None):
        if not MIN_DEGREE <= m <= MAX_DEGREE:
            raise ValueError(f"extension degree must be in [{MIN_DEGREE}, {MAX_DEGREE}], got {m}")
        if poly is None:
            poly = DEFAULT_PRIMITIVE_POLYS[m]
        if poly >> m != 1:
            raise NotPrimitive(f"polynomial 0x{poly:x} does not have degree exactly {m}")

        order = 1 << m
        q1 = order - 1
        powers = _powers(m, poly)
        log = [-1] * order
        for i, x in zip(range(q1), powers):
            log[x] = i
        # x is primitive (and poly irreducible) iff its powers return to 1
        # after exactly 2^m - 1 steps, all distinct; any shorter cycle or
        # collision leaves a nonzero element without a log
        if powers[q1] != 1 or -1 in log[1:]:
            raise NotPrimitive(f"0x{poly:x} is not primitive over GF(2) for m={m}")
        log[0] = 0
        exp = powers[:q1] * 2

        self.m = m
        self.order = order
        self.poly = poly
        self.exp = exp
        self.log = log

    def add(self, x: int, y: int) -> int:
        return x ^ y

    sub = add  # characteristic 2

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.exp[self.log[x] + self.log[y]]

    def div(self, x: int, y: int) -> int:
        if y == 0:
            raise ZeroDivisionError("division by zero in GF(2^m)")
        if x == 0:
            return 0
        return self.exp[self.log[x] - self.log[y] + self.order - 1]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.exp[self.order - 1 - self.log[x]]

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.m == other.m and self.poly == other.poly

    def __hash__(self) -> int:
        return hash((self.m, self.poly))

    def __repr__(self) -> str:
        return f"Field(m={self.m}, poly=0x{self.poly:x})"
