"""The LinearMap table kernel against the scalar reference gf_dot."""

import random

import pytest

from msrcode.field import Field
from msrcode.linalg import LinearMap, gf_dot, mat_vec, transpose

# (inputs, outputs): a single entry, wide, tall and the shapes the codes use
SHAPES = [(1, 1), (3, 7), (9, 2), (6, 6)]


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
