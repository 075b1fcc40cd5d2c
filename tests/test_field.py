"""GF(2^m) table construction and arithmetic axioms."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrcode.field import DEFAULT_PRIMITIVE_POLYS, Field, NotPrimitive


def clmul_mod(a: int, b: int, poly: int, m: int) -> int:
    """Independent oracle: carry-less multiply, then reduce mod poly."""
    acc = 0
    for i in range(m):
        if (b >> i) & 1:
            acc ^= a << i
    for bit in range(2 * m - 2, m - 1, -1):
        if (acc >> bit) & 1:
            acc ^= poly << (bit - m)
    return acc


def iterate_exp_table(m: int, poly: int) -> list[int]:
    """Oracle for the antilog table: repeated multiplication by x."""
    out = []
    x = 1
    for _ in range((1 << m) - 1):
        out.append(x)
        x = clmul_mod(x, 2, poly, m)
    return out


def gf_pow(f: Field, x: int, e: int) -> int:
    """x**e for e >= 0 by repeated multiplication, with 0**0 = 1."""
    acc = 1
    for _ in range(e):
        acc = f.mul(acc, x)
    return acc


def test_exp_table_gf8():
    f = Field(3, 0b1011)
    assert f.exp[:7] == [1, 2, 4, 3, 6, 7, 5]
    assert f.exp[0] == 1


def test_reducible_poly_rejected():
    # x^3 + x^2 + x + 1 has 1 as a root, hence is divisible by x + 1
    with pytest.raises(NotPrimitive):
        Field(3, 0b1111)


def test_irreducible_but_not_primitive_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but its root has order 5, not 15
    with pytest.raises(NotPrimitive):
        Field(4, 0b11111)


def test_gf32_default_poly():
    f = Field(5)
    assert f.poly == 0b100101
    assert len(set(f.exp[:31])) == 31


@pytest.mark.parametrize("m", sorted(DEFAULT_PRIMITIVE_POLYS))
def test_default_polys_are_primitive(m):
    f = Field(m)
    table = f.exp[: f.order - 1]
    assert len(set(table)) == f.order - 1
    assert 0 not in table
    assert all(f.log[table[i]] == i for i in range(f.order - 1))
    assert table == iterate_exp_table(m, f.poly)


def loop_tables(m: int, poly: int):
    """Reference: exp (doubled) and log (log[0] = 0) as a plain loop of
    doublings builds them, or None when poly is not primitive."""
    order = 1 << m
    exp, log = [], [0] * order
    x = 1
    for i in range(order - 1):
        exp.append(x)
        log[x] = i
        x <<= 1
        if x & order:
            x ^= poly
    if x != 1 or len(set(exp)) != order - 1:
        return None
    return exp * 2, log


def polys_of_degree(m: int):
    return range((1 << m) + 1, 1 << (m + 1), 2)


@pytest.mark.parametrize("m", range(2, 17))
def test_tables_equal_the_loop_reference(m):
    """The bulk-built tables equal the plain loop's, under the default
    polynomial and under the first other primitive one (m = 2 has none)."""
    default = DEFAULT_PRIMITIVE_POLYS[m]
    other = next((poly for poly in polys_of_degree(m) if poly != default and loop_tables(m, poly)), None)
    assert (other is None) == (m == 2)
    for poly in filter(None, (default, other)):
        field = Field(m, poly)
        assert (field.exp, field.log) == loop_tables(m, poly)


# degree -> polynomials that are reducible (x^m + x, a square, (x + 1) times
# something) or irreducible with a root of order below 2^m - 1
NOT_PRIMITIVE = {
    3: [0b1010, 0b1111],
    4: [0b10010, 0b10101, 0b11111],
    5: [0b100010, 0b110011],
    8: [0x102, 0x105, 0x11B, 0x1FF],
    11: [0x802, 0x805 ^ 0x6],
    16: [0x10002, 0x10151, 0x1100B ^ 0x2],
}


@pytest.mark.parametrize("m", sorted(NOT_PRIMITIVE))
def test_not_primitive_polys_rejected(m):
    """NotPrimitive for each listed polynomial and for the first few of
    degree m that the loop reference rejects."""
    rejected = [poly for poly in itertools.islice(polys_of_degree(m), 40) if loop_tables(m, poly) is None][:4]
    for poly in NOT_PRIMITIVE[m] + rejected:
        assert loop_tables(m, poly) is None
        with pytest.raises(NotPrimitive):
            Field(m, poly)


def test_degree_validation():
    with pytest.raises(ValueError):
        Field(3, 0b10011)  # degree 4 poly for m=3
    with pytest.raises(ValueError):
        Field(1)
    with pytest.raises(ValueError):
        Field(17)


def test_add_examples():
    f = Field(3)
    assert f.add(5, 5) == 0
    assert f.add(0, 7) == 7
    assert f.add(3, 6) == 5


def test_mul_inv_pow_examples_gf8():
    f = Field(3, 0b1011)
    assert f.mul(2, 4) == 3  # a * a^2 = a^3
    assert f.inv(3) == 6  # a^3 inverse is a^4
    assert f.mul(3, 6) == 1
    # a^7 = 1 by Fermat; the exponent reduces mod 2^m - 1
    assert gf_pow(f, 2, 7) == 1
    assert gf_pow(f, 2, 8) == 2
    assert gf_pow(f, 0, 0) == 1
    assert gf_pow(f, 0, 5) == 0


def test_div_by_zero():
    f = Field(3)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.div(4, 0)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_mul_matches_clmul_exhaustive(m):
    f = Field(m)
    for a in f.elements():
        for b in f.elements():
            assert f.mul(a, b) == clmul_mod(a, b, f.poly, m)


@pytest.mark.parametrize("m", [5, 8])
def test_mul_matches_clmul_randomized(m):
    f = Field(m)
    rng = random.Random(0xC0DE + m)
    for _ in range(100_000):
        a = rng.randrange(f.order)
        b = rng.randrange(f.order)
        assert f.mul(a, b) == clmul_mod(a, b, f.poly, m)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_distributivity_exhaustive(m):
    f = Field(m)
    for a in f.elements():
        for b in f.elements():
            for c in f.elements():
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("m", [3, 5])
def test_log_identity_and_inverses(m):
    f = Field(m)
    q1 = f.order - 1
    for x in range(1, f.order):
        assert f.mul(x, f.inv(x)) == 1
        assert gf_pow(f, x, q1) == 1
        for y in range(1, f.order):
            assert f.log[f.mul(x, y)] == (f.log[x] + f.log[y]) % q1


@settings(max_examples=300)
@given(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)
def test_ring_axioms_gf256(a, b, c):
    f = Field(8)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, 1) == a
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
