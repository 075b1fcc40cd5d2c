"""MSR code construction, packing, regeneration, and update machinery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrcode.linalg import rank
from msrcode.msr import (
    BadIndex,
    InvalidParams,
    WrongHelperCount,
    WrongLength,
    apply_patch,
    encode_all,
    generator_set,
    helper_symbol,
    make_params,
    pack_message,
    regenerate,
    symbol_position,
    unpack_message,
    update_complexity,
    update_patch,
)
from msrcode.rs import poly_eval

# (n, k, m) tuples exercising full-length and shortened codes
DESK_PARAMS = [(7, 4, 3), (15, 8, 4), (9, 5, 4), (20, 10, 5)]


@pytest.fixture(scope="module")
def gen746():
    return generator_set(make_params(7, 4, 3))


# ---------------------------------------------------------------------------
# parameter validation


def test_params_20_10_5():
    p = make_params(20, 10, 5)
    assert (p.d, p.alpha, p.B, p.beta) == (18, 9, 90, 1)
    assert p.error_capability == 5


def test_params_7_4_3():
    p = make_params(7, 4, 3)
    assert (p.d, p.alpha, p.B) == (6, 3, 12)
    assert p.error_capability == 2


def test_params_field_too_small():
    with pytest.raises(InvalidParams) as exc:
        make_params(7, 4, 2)
    assert exc.value.reason == "FieldTooSmall"


def test_params_gcd_violation():
    # n=8, k=4, m=4: d=6 <= 7 holds but gcd(15, 3) = 3
    with pytest.raises(InvalidParams) as exc:
        make_params(8, 4, 4)
    assert exc.value.reason == "GcdViolation"


def test_params_d_too_large():
    with pytest.raises(InvalidParams) as exc:
        make_params(6, 4, 3)
    assert exc.value.reason == "DTooLarge"


def test_params_k_too_small():
    with pytest.raises(InvalidParams) as exc:
        make_params(7, 1, 3)
    assert exc.value.reason == "KTooSmall"


@pytest.mark.parametrize("n,k,m", DESK_PARAMS)
def test_cut_set_identity(n, k, m):
    p = make_params(n, k, m)
    assert p.B == sum(min(p.alpha, (p.d - i) * p.beta) for i in range(p.k))


# ---------------------------------------------------------------------------
# generator assembly


def test_delta_values_7_4_6(gen746):
    assert gen746.delta == [1, 3, 5, 4, 7, 2, 6]
    assert len(set(gen746.delta)) == 7


@pytest.mark.parametrize("n,k,m", DESK_PARAMS)
@pytest.mark.parametrize("flavor", ["systematic", "vandermonde"])
def test_delta_distinct_and_rank(n, k, m, flavor):
    p = make_params(n, k, m)
    g = generator_set(p, flavor)
    assert len(set(g.delta)) == n
    assert rank(g.field, g.g_full) == p.d


@pytest.mark.parametrize("n,k,m", DESK_PARAMS)
def test_stacked_rows_vanish_at_prescribed_roots(n, k, m):
    p = make_params(n, k, m)
    g = generator_set(p, "systematic")
    for row in g.g_full:
        for j in range(1, n - p.d + 1):
            assert poly_eval(g.field, row, g.field.exp[j]) == 0


@pytest.mark.parametrize("n,k,m", [(7, 4, 3), (15, 8, 4)])
def test_stacked_rows_vanish_vandermonde_full_length(n, k, m):
    p = make_params(n, k, m)
    g = generator_set(p, "vandermonde")
    for row in g.g_full:
        for j in range(1, n - p.d + 1):
            assert poly_eval(g.field, row, g.field.exp[j]) == 0


@pytest.mark.parametrize("n,k,m", [(20, 10, 5), (24, 12, 8), (20, 9, 5)])
def test_scaled_vandermonde_rows_vanish_when_shortened(n, k, m):
    # shortened power-basis rows span the evaluation code; scaled column-wise
    # by col_scale they become root-based codewords of both codes
    p = make_params(n, k, m)
    g = generator_set(p, "vandermonde")
    assert g.col_scale != (1,) * n
    for row in g.gbar:
        scaled = [g.field.mul(c, s) for c, s in zip(row, g.col_scale)]
        assert g.code_alpha.is_codeword(scaled)
        assert not g.code_alpha.is_codeword(row)


@pytest.mark.parametrize("n,k,m,flavor", [(20, 10, 5, "systematic"), (7, 4, 3, "vandermonde"), (15, 8, 4, "vandermonde")])
def test_col_scale_is_identity_for_systematic_and_full_length(n, k, m, flavor):
    g = generator_set(make_params(n, k, m), flavor)
    assert g.col_scale == (1,) * n


def test_systematic_g_full_row_weights_20_10():
    p = make_params(20, 10, 5)
    g = generator_set(p, "systematic")
    weights = {sum(1 for c in row if c) for row in g.g_full}
    assert weights == {12}  # n - alpha + 1


# ---------------------------------------------------------------------------
# message packing


def test_pack_layout(gen746):
    p = gen746.params
    msg = pack_message(p, list(range(1, 13)))
    assert msg.z1[0] == (1, 2, 3)
    assert msg.z1[1][0] == 2  # mirror of (0, 1)
    assert msg.z1 == tuple(zip(*msg.z1))
    assert msg.z2 == tuple(zip(*msg.z2))
    assert msg.u[0] == [1, 2, 3, 7, 8, 9]


def test_pack_zero(gen746):
    p = gen746.params
    msg = pack_message(p, [0] * 12)
    assert all(v == 0 for row in msg.u for v in row)


def test_pack_wrong_length(gen746):
    with pytest.raises(WrongLength):
        pack_message(gen746.params, [0] * 11)


@settings(max_examples=100)
@given(st.data())
def test_pack_unpack_roundtrip(data):
    n, k, m = data.draw(st.sampled_from(DESK_PARAMS))
    p = make_params(n, k, m)
    message = data.draw(
        st.lists(st.integers(0, (1 << m) - 1), min_size=p.B, max_size=p.B)
    )
    assert unpack_message(p, pack_message(p, message)) == message


def test_symbol_position_covers_everything():
    p = make_params(7, 4, 3)
    seen = set()
    for t in range(p.B):
        block, r, c = symbol_position(p, t)
        assert r <= c
        seen.add((block, r, c))
    assert len(seen) == p.B
    with pytest.raises(BadIndex):
        symbol_position(p, p.B)


# ---------------------------------------------------------------------------
# encoding and regeneration


def test_encode_zero_message(gen746):
    p = gen746.params
    shares = encode_all(p, gen746, pack_message(p, [0] * p.B))
    assert all(s.symbols == (0, 0, 0) for s in shares)


def test_encode_matches_manual_product(gen746):
    p = gen746.params
    rng = random.Random(3)
    message = [rng.randrange(8) for _ in range(p.B)]
    msg = pack_message(p, message)
    shares = encode_all(p, gen746, msg)
    f = gen746.field
    for j in range(p.n):
        for r in range(p.alpha):
            acc = 0
            for i in range(p.d):
                acc ^= f.mul(msg.u[r][i], gen746.g_full[i][j])
            assert shares[j].symbols[r] == acc


@pytest.mark.parametrize("flavor", ["systematic", "vandermonde"])
def test_regeneration_exact_7_4_6(flavor):
    p = make_params(7, 4, 3)
    g = generator_set(p, flavor)
    rng = random.Random(17)
    for _ in range(10):
        message = [rng.randrange(8) for _ in range(p.B)]
        shares = encode_all(p, g, pack_message(p, message))
        for failed in range(p.n):
            helpers = [
                (h, helper_symbol(g, shares[h], failed))
                for h in range(p.n)
                if h != failed
            ]
            rebuilt = regenerate(p, g, failed, helpers)
            assert rebuilt == shares[failed]


def test_regeneration_exact_20_10_random_helper_sets():
    p = make_params(20, 10, 5)
    g = generator_set(p)
    rng = random.Random(29)
    message = [rng.randrange(32) for _ in range(p.B)]
    shares = encode_all(p, g, pack_message(p, message))
    for failed in range(p.n):
        pool = [h for h in range(p.n) if h != failed]
        helpers_idx = rng.sample(pool, p.d)
        helpers = [(h, helper_symbol(g, shares[h], failed)) for h in helpers_idx]
        assert regenerate(p, g, failed, helpers) == shares[failed]


def _scalar_encode(field, u, g_full):
    """C = U @ G one field product at a time: the reference for encode_all."""
    rows = []
    for urow in u:
        row = [0] * len(g_full[0])
        for coeff, grow in zip(urow, g_full):
            for j, g in enumerate(grow):
                row[j] ^= field.mul(coeff, g)
        rows.append(row)
    return rows


def _scalar_solve(field, a, b):
    """Gauss-Jordan solve of the square system a @ x = b."""
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    size = len(aug)
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = field.inv(aug[col][col])
        aug[col] = [field.mul(inv, v) for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v ^ field.mul(f, pv) for v, pv in zip(aug[r], aug[col])]
    return [row[size] for row in aug]


def _scalar_regenerate(gen, failed, helpers):
    """Solve Psi_S w = h for each call, then w1 + lambda_f w2."""
    p, field = gen.params, gen.field
    psi = [[gen.g_full[i][h] for i in range(p.d)] for h, _ in helpers]
    w = _scalar_solve(field, psi, [sym for _, sym in helpers])
    lam = gen.delta[failed]
    return tuple(w[i] ^ field.mul(lam, w[p.alpha + i]) for i in range(p.alpha))


@pytest.mark.parametrize(
    "n, k, m, flavor",
    [
        (20, 10, 5, "systematic"),
        (20, 10, 5, "vandermonde"),  # shortened: n < 2^5 - 1
        (24, 12, 8, "systematic"),
        (24, 12, 8, "vandermonde"),
        (7, 4, 3, "vandermonde"),  # full length
    ],
)
def test_encode_all_matches_scalar_product(n, k, m, flavor):
    p = make_params(n, k, m)
    g = generator_set(p, flavor)
    rng = random.Random(f"encode:{n}:{k}:{m}:{flavor}")
    top = (1 << m) - 1
    messages = [[0] * p.B, [top] * p.B]
    messages += [[rng.choice((0, top, rng.randrange(1 << m))) for _ in range(p.B)] for _ in range(12)]
    for message in messages:
        msg = pack_message(p, message)
        shares = encode_all(p, g, msg)
        expected = _scalar_encode(g.field, msg.u, g.g_full)
        assert [s.node_index for s in shares] == list(range(n))
        assert [list(s.symbols) for s in shares] == [list(col) for col in zip(*expected)]


@pytest.mark.parametrize("flavor", ["systematic", "vandermonde"])
def test_regenerate_matches_scalar_solve_across_helper_sets_and_orders(flavor):
    """One GeneratorSet serves failed nodes, helper sets and helper orders
    in turn, so a repair map cached under too short a key shows up."""
    p = make_params(20, 10, 5)
    g = generator_set(p, flavor)
    rng = random.Random(f"regenerate:{flavor}")
    shares = encode_all(p, g, pack_message(p, [rng.randrange(32) for _ in range(p.B)]))
    calls = []
    for failed in rng.sample(range(p.n), 8):
        pool = [h for h in range(p.n) if h != failed]
        helper_set = rng.sample(pool, p.d)
        calls += [(failed, helper_set), (failed, helper_set[::-1]), (failed, rng.sample(helper_set, p.d))]
        other = rng.choice([h for h in range(p.n) if h not in helper_set])
        calls.append((other, helper_set))  # same helpers, another failed node
        calls.append((failed, rng.sample(pool, p.d)))
    rng.shuffle(calls)
    for failed, order in calls * 2:
        consistent = [(h, helper_symbol(g, shares[h], failed)) for h in order]
        assert regenerate(p, g, failed, consistent) == shares[failed]
        arbitrary = [(h, rng.randrange(32)) for h in order]
        assert regenerate(p, g, failed, arbitrary).symbols == _scalar_regenerate(g, failed, arbitrary)


def test_generator_maps_are_built_on_first_use(gen746):
    g = generator_set(gen746.params)
    assert "g_map" not in vars(g) and not g.repair_maps
    p = g.params
    shares = encode_all(p, g, pack_message(p, [i % 8 for i in range(p.B)]))
    g_map = vars(g)["g_map"]
    encode_all(p, g, pack_message(p, [1] * p.B))
    assert vars(g)["g_map"] is g_map
    helpers = [(h, helper_symbol(g, shares[h], 0)) for h in range(1, 7)]
    regenerate(p, g, 0, helpers)
    regenerate(p, g, 0, helpers)
    regenerate(p, g, 0, helpers[::-1])
    assert sorted(g.repair_maps) == [(0, (1, 2, 3, 4, 5, 6)), (0, (6, 5, 4, 3, 2, 1))]


def test_regeneration_zero_message(gen746):
    p = gen746.params
    shares = encode_all(p, gen746, pack_message(p, [0] * p.B))
    helpers = [(h, helper_symbol(gen746, shares[h], 0)) for h in range(1, 7)]
    assert regenerate(p, gen746, 0, helpers).symbols == (0, 0, 0)


def test_regeneration_wrong_helper_count(gen746):
    p = gen746.params
    shares = encode_all(p, gen746, pack_message(p, [0] * p.B))
    helpers = [(h, helper_symbol(gen746, shares[h], 0)) for h in range(1, 6)]
    with pytest.raises(WrongHelperCount):
        regenerate(p, gen746, 0, helpers)


def test_repair_bandwidth_arithmetic(gen746):
    p = gen746.params
    # one symbol per helper: d symbols moved versus B = k * alpha for a full rebuild
    assert p.d * p.beta == 6
    assert p.B == 12


# ---------------------------------------------------------------------------
# update complexity and patches


def test_update_complexity_values():
    p = make_params(20, 10, 5)
    assert update_complexity(generator_set(p, "systematic")) == 12
    assert update_complexity(generator_set(p, "vandermonde")) == 20


@pytest.mark.parametrize("n,k,m", DESK_PARAMS)
def test_update_complexity_ordering(n, k, m):
    p = make_params(n, k, m)
    sys_w = update_complexity(generator_set(p, "systematic"))
    van_w = update_complexity(generator_set(p, "vandermonde"))
    assert sys_w == n - p.alpha + 1
    assert van_w == n
    assert sys_w < van_w


def test_update_patch_diagonal_support(gen746):
    p = gen746.params
    rng = random.Random(31)
    message = [rng.randrange(8) for _ in range(p.B)]
    msg = pack_message(p, message)
    # message index 0 is the (0, 0) diagonal entry of the first block
    patch = update_patch(p, gen746, msg, 0, message[0] ^ 5)
    rows = {r for _, r, _ in patch}
    nodes = {j for j, _, _ in patch}
    assert rows == {0}
    assert len(nodes) == p.n - p.alpha + 1 == 5
    assert len(patch) == 5


def test_update_patch_noop(gen746):
    p = gen746.params
    msg = pack_message(p, list(range(12)))
    assert update_patch(p, gen746, msg, 3, 3) == set()


@pytest.mark.parametrize("n,k,m", [(7, 4, 3), (20, 10, 5)])
@pytest.mark.parametrize("flavor", ["systematic", "vandermonde"])
def test_update_patch_equals_reencode(n, k, m, flavor):
    p = make_params(n, k, m)
    g = generator_set(p, flavor)
    rng = random.Random(n * 100 + k)
    message = [rng.randrange(g.field.order) for _ in range(p.B)]
    msg = pack_message(p, message)
    shares = encode_all(p, g, msg)
    for _ in range(60):
        t = rng.randrange(p.B)
        value = rng.randrange(g.field.order)
        patch = update_patch(p, g, msg, t, value)
        changed = list(message)
        changed[t] = value
        expected = encode_all(p, g, pack_message(p, changed))
        assert apply_patch(shares, patch) == expected
        # every reported entry genuinely changed
        for node, row, new in patch:
            assert shares[node].symbols[row] != new


def test_update_patch_bad_index(gen746):
    msg = pack_message(gen746.params, list(range(12)))
    with pytest.raises(BadIndex):
        update_patch(gen746.params, gen746, msg, 12, 0)
