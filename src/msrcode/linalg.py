"""Dense linear algebra over GF(2^m): dot products, Gaussian elimination,
and LinearMap, the one table kernel for fixed linear maps.

Matrices are lists of row lists of ints.  Everything here is desk-scale
(dimensions of a few dozen), so plain Python loops with local table
bindings are fast enough.

A fixed map applied to many vectors (the encoder's stacked generator, a
repair map, a Reed-Solomon code's syndrome and evaluation maps) goes
through LinearMap: per input, two lookup tables whose entries pack all of
that input's outputs into one int, so applying the map costs two lookups
and an XOR per input instead of a field multiply per matrix entry.  A map
with i inputs and o outputs holds about 2^(m/2+1) * i * o * m bits of
tables.  Building them takes, per input, m - 1 packed doublings (a few
big-int operations each, whatever o is) and about 2^(m/2+1) table XORs,
still far more than one application, so callers build each map once per
GeneratorSet (encode), per repair set (the failed node and its helpers in
order) or per RsCode (decode), never per stripe.
gf_dot stays for one-off products, and as the scalar reference the tests
check LinearMap against.
"""

from __future__ import annotations

from .field import Field

__all__ = ["gf_dot", "mat_mul", "mat_vec", "transpose", "identity", "rank", "row_reduce", "invert", "LinearMap"]


class SingularMatrix(ValueError):
    pass


def gf_dot(field: Field, xs, ys) -> int:
    exp, log = field.exp, field.log
    acc = 0
    for x, y in zip(xs, ys):
        if x and y:
            acc ^= exp[log[x] + log[y]]
    return acc


def mat_vec(field: Field, a, v) -> list[int]:
    return [gf_dot(field, row, v) for row in a]


def mat_mul(field: Field, a, b) -> list[list[int]]:
    bt = transpose(b)
    return [[gf_dot(field, row, col) for col in bt] for row in a]


def transpose(a) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def identity(size: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(size)] for i in range(size)]


def _eliminate(field: Field, aug: list[list[int]], cols: int, above: bool = True) -> int:
    """Row-reduce ``aug`` in place over its first ``cols`` columns; return
    rank.  With above=False only the rows below each pivot are cleared,
    which leaves an echelon form with the same rank in about half the
    work."""
    exp, log = field.exp, field.log
    q1 = field.order - 1
    rank_ = 0
    rows = len(aug)
    width = len(aug[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank_, rows) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[rank_], aug[pivot] = aug[pivot], aug[rank_]
        prow = aug[rank_]
        if prow[col] != 1:
            lp = q1 - log[prow[col]]
            for j in range(col, width):
                if prow[j]:
                    prow[j] = exp[log[prow[j]] + lp]
        terms = None  # the pivot row's nonzero entries as logs, once a row needs them
        for r in range(0 if above else rank_ + 1, rows):
            row = aug[r]
            if r != rank_ and row[col]:
                if terms is None:
                    terms = [(j, log[prow[j]]) for j in range(col, width) if prow[j]]
                lf = log[row[col]]
                for j, lp in terms:
                    row[j] ^= exp[lp + lf]
        rank_ += 1
        if rank_ == rows:
            break
    return rank_


def rank(field: Field, a) -> int:
    work = [list(row) for row in a]
    if not work:
        return 0
    return _eliminate(field, work, len(work[0]), above=False)


def row_reduce(field: Field, a) -> list[list[int]]:
    """The nonzero rows of a's reduced row echelon form, in pivot order."""
    work = [list(row) for row in a]
    if not work:
        return []
    return work[: _eliminate(field, work, len(work[0]))]


def invert(field: Field, a) -> list[list[int]]:
    size = len(a)
    aug = [list(row) + ident_row for row, ident_row in zip(a, identity(size))]
    if _eliminate(field, aug, size) != size:
        raise SingularMatrix(f"{size}x{size} matrix is singular")
    return [row[size:] for row in aug]


class LinearMap:
    """The GF(2^m)-linear map x -> x @ matrix: input i scales row i, and
    output t is column t.

    Each row's image of x_i is packed m bits per output into one int.  It
    is linear over GF(2) in x_i, so it is the XOR of the images of x_i's low
    and high bit halves, low[i][x & lmask] ^ high[i][x >> half], and each
    half's table is filled from the images of its single bits.  Bit b of
    x_i is the field element a^b, so its image is the packed row times a^b:
    bit 0's image is the row itself, and each next bit's is the previous
    one times a, done on all outputs at once by packed doubling: every
    m-bit field shifts left by one, and each field whose top bit fell out
    is XORed with poly ^ 2^m, which is a^m.  So a bit costs a few big-int
    operations whatever the number of outputs.
    """

    def __init__(self, field: Field, matrix):
        m = field.m
        self.m, self.mask = m, field.order - 1
        self.outputs = len(matrix[0])
        self.half = (m + 1) // 2
        self.lmask = (1 << self.half) - 1
        # bit 0 of every m-bit field, its top bit, and the bits below the top
        ones = ((1 << m * self.outputs) - 1) // self.mask
        top, keep = ones << (m - 1), ones * (self.mask >> 1)
        low_poly = field.poly ^ field.order
        self.low, self.high = [], []
        for row in matrix:
            image = sum(c << m * t for t, c in enumerate(row))
            basis = [image]
            for _ in range(m - 1):
                image = ((image & keep) << 1) ^ (((image & top) >> (m - 1)) * low_poly)
                basis.append(image)
            tables = []
            for bits in (basis[: self.half], basis[self.half :]):
                table = [0]
                for bit in bits:
                    table += [x ^ bit for x in table]
                tables.append(table)
            self.low.append(tables[0])
            self.high.append(tables[1])

    def packed(self, xs, indices) -> int:
        """The packed image of the inputs xs[i], i in indices; the others
        count as zero."""
        low, high, lmask, half = self.low, self.high, self.lmask, self.half
        acc = 0
        for i in indices:
            x = xs[i]
            acc ^= low[i][x & lmask] ^ high[i][x >> half]
        return acc

    def unpack(self, acc: int) -> list[int]:
        m, mask = self.m, self.mask
        return [(acc >> (m * t)) & mask for t in range(self.outputs)]

    def apply(self, xs) -> list[int]:
        """xs @ matrix; a shorter xs leaves the trailing inputs at zero."""
        return self.unpack(self.packed(xs, range(len(xs))))
