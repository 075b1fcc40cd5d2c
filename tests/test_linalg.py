"""The LinearMap and RegionDot table kernels against the scalar reference
gf_dot."""

import random

import pytest

from msrcode.bits import symbol_width, symbols_to_int
from msrcode.field import DEFAULT_PRIMITIVE_POLYS, Field, NotPrimitive
from msrcode.linalg import LinearMap, RegionDot, gf_dot, mat_vec

# (inputs, outputs): a single entry, wide, tall and the shapes the codes use
SHAPES = [(1, 1), (3, 7), (9, 2), (6, 6)]


def transpose(a):
    """Reference helper: the rows of a's transpose."""
    return [list(col) for col in zip(*a)]


def _symbol(rng, field):
    """Mostly random symbols, with zero, one and all-ones drawn often."""
    return rng.choice((0, 1, field.order - 1, rng.randrange(field.order), rng.randrange(field.order)))


def _matrix(rng, field, inputs, outputs):
    rows = [[_symbol(rng, field) for _ in range(outputs)] for _ in range(inputs)]
    rows[rng.randrange(inputs)] = [0] * outputs  # an input with no image
    return rows


@pytest.mark.parametrize("m", range(2, 17))
def test_apply_matches_mat_vec(m):
    field = Field(m)
    rng = random.Random(f"apply:{m}")
    for inputs, outputs in SHAPES:
        matrix = _matrix(rng, field, inputs, outputs)
        lmap = LinearMap(field, matrix)
        cols = transpose(matrix)
        for _ in range(12):
            xs = [_symbol(rng, field) for _ in range(inputs)]
            assert lmap.apply(xs) == mat_vec(field, cols, xs)
            # a short vector leaves the trailing inputs at zero
            cut = rng.randrange(inputs + 1)
            assert lmap.apply(xs[:cut]) == mat_vec(field, cols, xs[:cut] + [0] * (inputs - cut))


@pytest.mark.parametrize("m", range(2, 17))
def test_packed_over_index_subsets_matches_gf_dot(m):
    field = Field(m)
    rng = random.Random(f"packed:{m}")
    for inputs, outputs in SHAPES:
        matrix = _matrix(rng, field, inputs, outputs)
        lmap = LinearMap(field, matrix)
        cols = transpose(matrix)
        for _ in range(12):
            xs = [_symbol(rng, field) for _ in range(inputs)]
            subset = sorted(rng.sample(range(inputs), rng.randrange(inputs + 1)))
            expected = [gf_dot(field, [xs[i] for i in subset], [col[i] for i in subset]) for col in cols]
            packed = lmap.packed(xs, subset)
            assert lmap.unpack(packed) == expected
            assert (packed == 0) == (not any(expected))


def test_maps_are_linear_in_their_inputs():
    field = Field(5)
    rng = random.Random("linear")
    lmap = LinearMap(field, _matrix(rng, field, 6, 4))
    for _ in range(50):
        xs = [_symbol(rng, field) for _ in range(6)]
        ys = [_symbol(rng, field) for _ in range(6)]
        sums = [x ^ y for x, y in zip(xs, ys)]
        assert lmap.packed(sums, range(6)) == lmap.packed(xs, range(6)) ^ lmap.packed(ys, range(6))


def reference_tables(field, matrix, stride=None):
    """LinearMap's low and high tables built per bit and per output:
    bit b of input i maps output t, at bits stride * t, to
    a^(b + log matrix[i][t])."""
    exp, log, m = field.exp, field.log, field.m
    stride = stride or m
    half = (m + 1) // 2
    low, high = [], []
    for row in matrix:
        logs = [(stride * t, log[c]) for t, c in enumerate(row) if c]
        basis = [sum(exp[b + lc] << shift for shift, lc in logs) for b in range(m)]
        for tables, bits in ((low, basis[:half]), (high, basis[half:])):
            table = [0]
            for bit in bits:
                table += [x ^ bit for x in table]
            tables.append(table)
    return low, high


def other_primitive_poly(m):
    """The smallest primitive polynomial of degree m but the default one."""
    for poly in range((1 << m) + 1, 1 << (m + 1), 2):
        if poly == DEFAULT_PRIMITIVE_POLYS[m]:
            continue
        try:
            return Field(m, poly).poly
        except NotPrimitive:
            continue
    return None  # x^2 + x + 1 is the only primitive polynomial of degree 2


@pytest.mark.parametrize("m", range(2, 17))
def test_tables_match_per_bit_reference(m):
    """Packed doubling reads field.poly and the output stride, so check the
    tables under the default polynomial and under another one of the same
    degree, at stride m and at the byte-aligned stride of the encode map
    (and one between for m = 8 and 16, where those coincide)."""
    polys = [DEFAULT_PRIMITIVE_POLYS[m], other_primitive_poly(m)]
    assert (polys[1] is None) == (m == 2)
    rng = random.Random(f"tables:{m}")
    for poly in filter(None, polys):
        field = Field(m, poly)
        for inputs, outputs in SHAPES + [(18, 20)]:
            matrix = _matrix(rng, field, inputs, outputs)
            lmap = LinearMap(field, matrix)
            assert (lmap.low, lmap.high) == reference_tables(field, matrix)
            for stride in {8 * symbol_width(m), m + 3}:
                images = [sum(c << stride * t for t, c in enumerate(row)) for row in matrix]
                strided = LinearMap.from_images(field, images, outputs, stride)
                assert (strided.low, strided.high) == reference_tables(field, matrix, stride)
                xs = [_symbol(rng, field) for _ in range(inputs)]
                assert strided.unpack(strided.packed(xs, range(inputs))) == lmap.apply(xs)


@pytest.mark.parametrize("m", range(2, 17))
def test_from_images_matches_matrix_constructor(m):
    """A map built from its rows' packed images has the same tables, and so
    the same products, as the one built from the matrix."""
    field = Field(m)
    rng = random.Random(f"images:{m}")
    for inputs, outputs in SHAPES:
        matrix = _matrix(rng, field, inputs, outputs)
        images = [sum(c << m * t for t, c in enumerate(row)) for row in matrix]
        lmap = LinearMap.from_images(field, images, outputs)
        reference = LinearMap(field, matrix)
        assert (lmap.low, lmap.high) == (reference.low, reference.high)
        xs = [_symbol(rng, field) for _ in range(inputs)]
        assert lmap.apply(xs) == mat_vec(field, transpose(matrix), xs)
        # the same inputs packed MSB-first into one int, input 0 on top
        assert lmap.packed_bitstream(symbols_to_int(xs, m)) == lmap.packed(xs, range(inputs))
        assert len(lmap.low[0]) + len(lmap.high[0]) == LinearMap.table_entries(m)


def _region(field, groups):
    """Groups of symbols laid out as a share body lays out its stripes."""
    width = symbol_width(field.m)
    return b"".join(x.to_bytes(width, "little") for group in groups for x in group)


@pytest.mark.parametrize("m", range(2, 17))
def test_region_dot_matches_gf_dot(m):
    """One RegionDot application against one gf_dot per group: groups of
    1, 3 and 9 symbols, 1 group and 300, the first group all 2^m - 1;
    coefficients all zero, all 2^m - 1, random, and random with zeros; the
    default polynomial and another of the same degree (the tables come from
    packed doubling, which reads the polynomial)."""
    rng = random.Random(f"region:{m}")
    top = (1 << m) - 1
    for poly in filter(None, [DEFAULT_PRIMITIVE_POLYS[m], other_primitive_poly(m)]):
        field = Field(m, poly)
        for size in (1, 3, 9):
            coefs = [
                [0] * size,
                [top] * size,
                [rng.randrange(1, field.order) for _ in range(size)],
                [rng.choice((0, 0, 1, top, rng.randrange(field.order))) for _ in range(size)],
            ]
            for coef in coefs:
                dot = RegionDot(field, coef)
                for count in (1, 300):
                    groups = [[top] * size] + [[_symbol(rng, field) for _ in range(size)] for _ in range(count - 1)]
                    expected = tuple(gf_dot(field, group, coef) for group in groups)
                    assert dot.apply(_region(field, groups)) == expected
