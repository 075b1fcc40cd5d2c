"""Dense linear algebra over GF(2^m): dot products, Gaussian elimination,
LinearMap, the one table kernel for fixed linear maps applied stripe by
stripe, and RegionMap and RegionDot, its byte-region counterparts for one
fixed matrix or dot product applied to every stripe of a file at once.

Matrices are lists of row lists of ints.  Everything here is desk-scale
(dimensions of a few dozen), so plain Python loops with local table
bindings are fast enough.

A fixed map applied to many vectors one at a time (the stacked generator
for encode_all, a repair map, a Reed-Solomon code's evaluation map and
Forney maps) goes through LinearMap: per input, two lookup tables whose
entries pack all of that input's outputs into one int, so applying the
map costs two lookups and an XOR per input instead of a field multiply
per matrix entry.  A map with i inputs and o outputs holds about
2^(m/2+1) * i * o * m bits of tables.  Building them takes, per input, m - 1 packed doublings (a few
big-int operations each, whatever o is) and about 2^(m/2+1) table XORs;
each doubling runs over every input in one list comprehension, and so do
a map's table XORs, one comprehension per table entry.  That is still far
more than one application, so callers build each map once per
GeneratorSet (encode_all, one row of U at a time; Gbar^T for every pair
solve; and the systematic flavor's T^-1 that repair maps pass through),
per failed node and helper order (its repair map, whose outputs sit at a
share body's byte offsets), per RsCode (decode: the evaluation map, and
the syndrome map, which is the Forney map of no erasures), per
erasure set (its Forney map) or per k-node set (the closed-form decoder's
one map of G^-1, which its staged decode applies and its pair map is read
off; when reconstruct.decoder_mode pairs it, that pair map, from the
k(k-1)/2 pair values to a message block, which a paired stripe applies
twice; and when it composes, its composed map, from the k * alpha column
symbols to the whole message, built on the pair map), never per stripe.
Two maps are built per progressive round: the Forney map of the
round's erasure set (one more per erasure trial), which every row of its P
and Q applies, and the peel map of the nodes an accepted round selects,
which comes with their inverse and which its P and Q apply 4 * alpha times;
a read session keeps the latest inverse and peel map for its trusted set's
closed-form decoder.

RegionMap works on whole regions instead, as in Plank, Greenan and
Miller's region multiplies (FAST 2013): a coefficient times each byte of
every symbol of a region is one bytes.translate through a 256-byte table,
and the products' bytes are XORed as ints, so a matrix costs w^2
translates per nonzero entry (w bytes per symbol), whatever the number of
stripes, and no interpreted step per stripe.  It serves the encode
command: G from the 2 * alpha columns of U, each laid out like a share
body, to every node's body (msr.encode_bodies; built once per
GeneratorSet).  RegionDot is its one-vector form for the helper side of
repair, where each helper sends, for every stripe, the dot product of its
stored column with Gbar's failed column: it reads the helper's share body
as it lies on disk, a strided slice per symbol byte, and keeps one int per
output byte, which costs less per call than RegionMap's joined runs on
the short bodies repair mostly sees (built once per failed node).  Both
take their tables from one build for every distinct coefficient
(_region_tables).
gf_dot stays for one-off products, and as the scalar reference the tests
check LinearMap, RegionMap and RegionDot against.
"""

from __future__ import annotations

import re
import struct
from operator import xor

from .bits import symbol_width
from .field import Field

__all__ = ["gf_dot", "mat_vec", "rank", "row_reduce", "invert", "LinearMap", "RegionMap", "RegionDot"]


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
    aug = [list(row) + [int(i == j) for j in range(size)] for i, row in enumerate(a)]
    if _eliminate(field, aug, size) != size:
        raise SingularMatrix(f"{size}x{size} matrix is singular")
    return [row[size:] for row in aug]


def _bit_images(field: Field, images, outputs: int, stride: int, bits: int) -> list[list[int]]:
    """For every packed image (outputs fields of m bits, stride bits apart),
    the images of its input's bits 0 .. bits - 1, bit-major: entry b holds
    every image's bit b.  Bit b of an input is the field element a^b, so
    bit 0's image is the packed image itself and each next bit's is the
    previous one times a, done on all outputs at once by packed doubling:
    every m-bit field shifts left by one, and each field whose top bit fell
    out is XORed with poly ^ 2^m, which is a^m.  So a bit costs a few
    big-int operations whatever the number of outputs, and one list
    comprehension over all the images; a wider stride leaves the bits above
    each field zero."""
    m = field.m
    # bit 0 of every output field, its bit m - 1, and the bits below that
    ones = ((1 << stride * outputs) - 1) // ((1 << stride) - 1)
    top, keep = ones << (m - 1), ones * ((field.order - 1) >> 1)
    low_poly, shift = field.poly ^ field.order, m - 1
    planes = [list(images)]
    for _ in range(bits - 1):
        planes.append([((x & keep) << 1) ^ (((x & top) >> shift) * low_poly) for x in planes[-1]])
    return planes


def _span(planes) -> list[list[int]]:
    """One table per input, entry x being the XOR of the input's bit images
    at x's set bits, where planes[b] holds bit b's image of every input:
    built entry by entry across all inputs, one list comprehension per
    entry, then split into per-input tables."""
    entries = [[0] * len(planes[0])]
    for plane in planes:
        entries += [list(map(xor, entry, plane)) for entry in entries]
    return list(map(list, zip(*entries)))


class LinearMap:
    """The GF(2^m)-linear map x -> x @ matrix: input i scales row i, and
    output t is column t.

    Each row's image of x_i is packed into one int, output t at bits
    stride * t .. stride * t + m - 1, where stride is m unless the map was
    built with a wider one (the encode map's whole bytes per symbol).  It
    is linear over GF(2) in x_i, so it is the XOR of the images of x_i's low
    and high bit halves, low[i][x & lmask] ^ high[i][x >> half], and each
    half's table is filled from the images of its single bits.  Bit b of
    x_i is the field element a^b, so its image is the packed row times a^b,
    which _bit_images computes for all outputs at once by packed doubling.
    """

    def __init__(self, field: Field, matrix):
        m = field.m
        self._fill(field, [sum(c << m * t for t, c in enumerate(row)) for row in matrix], len(matrix[0]), m)

    @classmethod
    def from_images(cls, field: Field, images, outputs: int, stride: int | None = None) -> "LinearMap":
        """The map whose input i has the packed image images[i] (output t
        in bits stride*t .. stride*t + m - 1, the bits above it zero), the
        same map as LinearMap(field, matrix) when images[i] packs matrix
        row i at the default stride m."""
        linear_map = cls.__new__(cls)
        linear_map._fill(field, images, outputs, stride or field.m)
        return linear_map

    @staticmethod
    def table_entries(m: int) -> int:
        """Table entries per input over GF(2^m): 2^ceil(m/2) low and
        2^floor(m/2) high."""
        return (1 << (m + 1) // 2) + (1 << m // 2)

    def _fill(self, field: Field, images, outputs: int, stride: int) -> None:
        m = field.m
        self.m, self.mask = m, field.order - 1
        self.outputs, self.stride = outputs, stride
        self.half = (m + 1) // 2
        self.lmask = (1 << self.half) - 1
        planes = _bit_images(field, images, outputs, stride, m)
        self.low = _span(planes[: self.half])
        self.high = _span(planes[self.half :])

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
        stride, mask = self.stride, self.mask
        return [(acc >> (stride * t)) & mask for t in range(self.outputs)]

    def apply(self, xs) -> list[int]:
        """xs @ matrix; a shorter xs leaves the trailing inputs at zero."""
        return self.unpack(self.packed(xs, range(len(xs))))


def _region_tables(field: Field, coefs) -> dict[int, tuple[bytes, ...]]:
    """Each distinct nonzero coefficient c -> its w * w 256-byte tables,
    w = bits.symbol_width(m): table b * w + o maps byte b of a symbol x to
    its share of byte o of c * x.  Every coefficient's tables come out of
    one build.

    At w = 1 a table is log's bytes translated through exp rotated by
    log c: entry x is exp[log x + log c], with 0 and the bytes at or above
    2^m sent to a log q1 = 2^m - 1 whose entry is 0.  Wider symbols take the
    images of a symbol's m bits for every coefficient at once, packed at
    stride 8 * w (_bit_images).  Each input byte's entries are XORs of its
    bits' images, packed like them, and each table is one strided slice of
    their bytes; a byte holding fewer than 8 bits repeats its entries up to
    256."""
    coefs = sorted(set(coefs) - {0})
    w = symbol_width(field.m)
    if w == 1:
        q1, log = field.order - 1, field.log
        logs = bytes([q1]) + bytes(log[1:]) + bytes([q1]) * (256 - field.order)
        exp, pad = bytes(field.exp), bytes(256 - q1)
        return {c: (logs.translate(exp[log[c] : log[c] + q1] + pad),) for c in coefs}
    size = len(coefs) * w  # bytes of one entry's products, coefficient-major
    packed = sum(c << 8 * w * r for r, c in enumerate(coefs))
    basis = [plane for (plane,) in _bit_images(field, [packed], len(coefs), 8 * w, field.m)]
    slices = []  # slices[b * w + o][r]: coefs[r]'s table b * w + o
    for b in range(w):
        entries = [0]
        for bit in basis[8 * b : 8 * b + 8]:
            entries += [x ^ bit for x in entries]
        products = b"".join([x.to_bytes(size, "little") for x in entries])
        tables = [products[j::size] * (256 // len(entries)) for j in range(size)]
        slices += [tables[o::w] for o in range(w)]
    return dict(zip(coefs, zip(*slices)))


# a run of nonzero bytes: bytes(map(bool, row)) marks a row's nonzero entries
_NONZERO_RUN = re.compile(rb"[^\x00]+")


class RegionMap:
    """x -> x @ matrix on byte regions: input region i times row i, and
    output region t is column t, symbol by symbol, every symbol in
    w = bits.symbol_width(m) little-endian bytes.  An input region is read
    as its w byte planes, plane b holding byte b of every symbol, plane b
    of input i at i * w + b.  The output regions come back laid out as
    share bodies.

    Byte o of c * x is the XOR over x's bytes b of a function of byte b
    alone, so one bytes.translate of input plane b through a 256-byte table
    (_region_tables) gives a coefficient's share of output plane o for
    every symbol at once: a region costs w * w translates per nonzero entry
    of the matrix, whatever its number of symbols; an entry 1 copies plane
    b to output plane b in place of that translate.  The shares are XORed as
    ints, input plane by input plane: each run of nonzero entries of a row
    joins its translates, every output plane of the run one after another,
    and is read as one int placed at the run's first output plane, so a
    region takes one int conversion per run, not one per translate.  The
    products mean something only for symbols below 2^m, which share bodies
    are checked to hold.
    """

    def __init__(self, field: Field, matrix):
        self.width = w = symbol_width(field.m)
        self.outputs = len(matrix[0])
        tables = _region_tables(field, [c for row in matrix for c in row])
        # picks[b][o]: coefficient -> its table from byte b to output byte
        # o, None (translate's copy) for 1 where o = b
        picks = [[{c: None if c == 1 and o == b else own[b * w + o] for c, own in tables.items()} for o in range(w)] for b in range(w)]
        # per input plane, per run of nonzero entries of its row: the run's
        # first output plane and the table to each of its planes
        self.terms = []
        for row in matrix:
            spans = [found.span() for found in _NONZERO_RUN.finditer(bytes(map(bool, row)))]
            for pick in picks:
                self.terms.append([(lo * w, [p[c] for c in row[lo:hi] for p in pick]) for lo, hi in spans])

    def apply(self, planes, count: int) -> list[bytes]:
        """Every output region of count symbols from the list of the
        inputs' byte planes, count bytes each."""
        acc = 0
        for plane, runs in zip(planes, self.terms):
            translate = plane.translate
            for start, tables in runs:
                acc ^= int.from_bytes(b"".join(map(translate, tables)), "little") << 8 * count * start
        w, size = self.width, self.width * count
        data = acc.to_bytes(self.outputs * size, "little")
        if w == 1:
            return [data[lo : lo + count] for lo in range(0, len(data), count)]
        out = []
        for lo in range(0, len(data), size):
            region = bytearray(size)
            for o in range(w):
                region[o::w] = data[lo + o * count : lo + o * count + count]
            out.append(bytes(region))
        return out


class RegionDot:
    """x -> sum_r coefs[r] * x_r for every group x of len(coefs) consecutive
    symbols of a byte region, each symbol in w = bits.symbol_width(m)
    little-endian bytes: a share body's stripes are such groups, so this is
    one dot product per stripe, all stripes at once.

    Byte b of every group's symbol r is the strided slice
    region[r * w + b :: len(coefs) * w], and its share of each byte of the
    product coefs[r] * x_r is a function of that byte alone: one
    bytes.translate through a 256-byte table (_region_tables) maps the
    slice for every group.  A product byte is the XOR of its translates,
    accumulated as ints, so a region costs len(coefs) * w * w translates
    (none for a zero coefficient, and a coefficient 1 copies each byte to
    the same product byte instead) whatever its number of groups.  The
    products mean something only for symbols below 2^m, which share bodies
    are checked to hold.
    """

    def __init__(self, field: Field, coefs):
        self.width = w = symbol_width(field.m)
        self.step = len(coefs) * w  # bytes per group
        tables = _region_tables(field, coefs)
        # (input byte's offset in a group, its table, output byte); a
        # coefficient 1 adds byte b to output byte b alone, by translate's copy
        self.terms = [
            (r * w + b, None if c == 1 else tables[c][b * w + o], o)
            for r, c in enumerate(coefs)
            if c
            for b in range(w)
            for o in range(w)
            if c != 1 or o == b
        ]

    def apply(self, region: bytes) -> tuple[int, ...]:
        """The product of every group of the region, whose length must be a
        multiple of self.step."""
        w, step = self.width, self.step
        planes = [0] * w
        for offset, table, o in self.terms:
            planes[o] ^= int.from_bytes(region[offset::step].translate(table), "little")
        count = len(region) // step
        if w == 1:
            return tuple(planes[0].to_bytes(count, "little"))
        out = bytearray(w * count)
        for o, plane in enumerate(planes):
            out[o::w] = plane.to_bytes(count, "little")
        return struct.unpack(f"<{count}H", out)
