"""MSR code construction, packing, regeneration, and update machinery."""

import random

import pytest

from msrcode.field import Field
from msrcode.linalg import rank
from msrcode.msr import (
    InvalidParams,
    WrongHelperCount,
    WrongLength,
    apply_patch,
    encode_all,
    generator_set,
    helper_symbol,
    make_params,
    regenerate,
    stacked_rank,
    update_complexity,
    update_patch,
)
from msrcode.reconstruct import attach_crc, crc_payload_length
from msrcode.rs import RsCode, poly_eval

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
@pytest.mark.parametrize("flavor", ["systematic", "vandermonde"])
def test_stacked_rank_matches_reference(n, k, m, flavor):
    g = generator_set(make_params(n, k, m), flavor)
    assert stacked_rank(g.field, g.gbar, g.delta) == rank(g.field, g.g_full) == 2 * (k - 1)


def _random_stack(rng, field, n, alpha, kind):
    """A (Gbar, delta) pair of the given kind; the deficient kinds make the
    reference rank fall below 2 alpha."""
    draw = lambda: rng.randrange(field.order)
    delta = [rng.randrange(1, field.order) for _ in range(n)]
    gbar = [[draw() for _ in range(n)] for _ in range(alpha)]
    if kind == "systematic":
        gbar = RsCode(n, alpha, field).systematic_generator()
        delta = [field.exp[j * alpha % (field.order - 1)] for j in range(n)]
    if kind == "repeated-lambda":
        i, j = rng.sample(range(n), 2)
        delta[i] = delta[j]
    elif kind == "flat-lambda":
        # Gbar @ (Delta - c I) lives on the alpha - 1 columns where lambda != c
        keep = set(rng.sample(range(n), alpha - 1))
        c = delta[0]
        delta = [lam if j in keep else c for j, lam in enumerate(delta)]
    elif kind == "dependent-row":
        a, b = draw(), draw()
        gbar[-1] = [field.mul(a, x) ^ field.mul(b, y) for x, y in zip(gbar[0], gbar[1 % alpha])]
    elif kind == "singular-tail":
        # the last alpha columns, which the reduction visits first, are singular
        for row in gbar:
            row[n - 1 - rng.randrange(alpha)] = 0
    elif kind == "sparse":
        gbar = [[x if rng.random() < 0.3 else 0 for x in row] for row in gbar]
    return gbar, delta


def test_stacked_rank_matches_reference_on_random_stacks():
    """The alpha x (n - alpha) proof against the full elimination of
    [Gbar; Gbar @ Delta], on 420 random stacks, a third of them or more
    rank deficient."""
    rng = random.Random(2501)
    kinds = ["random", "systematic", "repeated-lambda", "flat-lambda", "dependent-row", "singular-tail", "sparse"]
    verdicts = {True: 0, False: 0}
    for trial in range(420):
        m = rng.choice([2, 3, 4, 5, 8])
        field = Field(m)
        n = rng.randrange(3, min(field.order - 1, 24) + 1)
        alpha = rng.randrange(1, (n - 1) // 2 + 1)
        gbar, delta = _random_stack(rng, field, n, alpha, kinds[trial % len(kinds)])
        stack = [list(row) for row in gbar] + [[field.mul(c, lam) for c, lam in zip(row, delta)] for row in gbar]
        expected = rank(field, stack)
        assert stacked_rank(field, gbar, delta) == expected, (m, n, alpha, kinds[trial % len(kinds)])
        verdicts[expected == 2 * alpha] += 1
    assert min(verdicts.values()) >= 140, verdicts


def test_generator_set_rejects_a_rank_deficient_stack(monkeypatch):
    """A Gbar whose last row is the sum of two others still vanishes at
    every root, so only the rank check can catch it."""
    systematic = RsCode.systematic_generator

    def deficient(code):
        rows = systematic(code)
        rows[-1] = [x ^ y for x, y in zip(rows[0], rows[1])]
        return rows

    monkeypatch.setattr(RsCode, "systematic_generator", deficient)
    with pytest.raises(AssertionError, match="rank deficient"):
        generator_set(make_params(20, 10, 5))


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


def _u_matrix(p, message):
    """[Z1 Z2] entry by entry: each block's upper triangle, diagonal
    included, row-major from its half of the message, then mirrored."""
    half = p.alpha * (p.alpha + 1) // 2
    triangle = [(r, c) for r in range(p.alpha) for c in range(r, p.alpha)]
    u = [[0] * p.d for _ in range(p.alpha)]
    for t, value in enumerate(message):
        offset = t // half * p.alpha
        r, c = triangle[t % half]
        u[r][offset + c] = u[c][offset + r] = value
    return u


def test_pack_layout():
    g = generator_set(make_params(7, 4, 5))
    message = list(range(1, 13))
    # Z1 = [[1, 2, 3], [2, 4, 5], [3, 5, 6]], Z2 likewise from 7..12
    u = [[1, 2, 3, 7, 8, 9], [2, 4, 5, 8, 10, 11], [3, 5, 6, 9, 11, 12]]
    assert _u_matrix(g.params, message) == u
    expected = _scalar_encode(g.field, u, g.g_full)
    assert [list(s.symbols) for s in encode_all(g, message)] == [list(col) for col in zip(*expected)]


def test_pack_zero(gen746):
    """The zero message packs to the zero U = [Z1 Z2], in the packing the
    encoder uses and in the reference layout above."""
    p = gen746.params
    zero = [0] * p.B
    assert all(not any(u_row(zero)) for u_row in gen746._u_rows)
    assert all(v == 0 for row in _u_matrix(p, zero) for v in row)


def test_pack_wrong_length(gen746):
    good = [0] * gen746.params.B
    for bad in ([0] * 11, [0] * 13):
        with pytest.raises(WrongLength):
            encode_all(gen746, bad)
        with pytest.raises(WrongLength):
            update_patch(gen746, good, bad)
        with pytest.raises(WrongLength):
            update_patch(gen746, bad, bad)


@pytest.mark.parametrize("n,k,m", DESK_PARAMS)
def test_every_message_symbol_reaches_the_codeword(n, k, m):
    """Each of the B symbols has a place of its own in [Z1 Z2], so the B
    unit messages encode to linearly independent codewords."""
    p = make_params(n, k, m)
    g = generator_set(p)
    codewords = []
    for t in range(p.B):
        unit = [0] * p.B
        unit[t] = 1
        codewords.append([x for share in encode_all(g, unit) for x in share.symbols])
    assert rank(g.field, codewords) == p.B


# ---------------------------------------------------------------------------
# encoding and regeneration


def test_encode_zero_message(gen746):
    p = gen746.params
    shares = encode_all(gen746, [0] * p.B)
    assert all(s.symbols == (0, 0, 0) for s in shares)


def test_encode_matches_manual_product(gen746):
    p = gen746.params
    rng = random.Random(3)
    message = [rng.randrange(8) for _ in range(p.B)]
    shares = encode_all(gen746, message)
    u = _u_matrix(p, message)
    f = gen746.field
    for j in range(p.n):
        for r in range(p.alpha):
            acc = 0
            for i in range(p.d):
                acc ^= f.mul(u[r][i], gen746.g_full[i][j])
            assert shares[j].symbols[r] == acc


@pytest.mark.parametrize("flavor", ["systematic", "vandermonde"])
def test_regeneration_exact_7_4_6(flavor):
    p = make_params(7, 4, 3)
    g = generator_set(p, flavor)
    rng = random.Random(17)
    for _ in range(10):
        message = [rng.randrange(8) for _ in range(p.B)]
        shares = encode_all(g, message)
        for failed in range(p.n):
            helpers = [
                (h, helper_symbol(g, shares[h], failed))
                for h in range(p.n)
                if h != failed
            ]
            rebuilt = regenerate(g, failed, helpers)
            assert rebuilt == shares[failed]


def test_regeneration_exact_20_10_random_helper_sets():
    p = make_params(20, 10, 5)
    g = generator_set(p)
    rng = random.Random(29)
    message = [rng.randrange(32) for _ in range(p.B)]
    shares = encode_all(g, message)
    for failed in range(p.n):
        pool = [h for h in range(p.n) if h != failed]
        helpers_idx = rng.sample(pool, p.d)
        helpers = [(h, helper_symbol(g, shares[h], failed)) for h in helpers_idx]
        assert regenerate(g, failed, helpers) == shares[failed]


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
        shares = encode_all(g, message)
        expected = _scalar_encode(g.field, _u_matrix(p, message), g.g_full)
        assert [s.node_index for s in shares] == list(range(n))
        assert [list(s.symbols) for s in shares] == [list(col) for col in zip(*expected)]


@pytest.mark.parametrize("flavor", ["systematic", "vandermonde"])
def test_regenerate_matches_scalar_solve_across_helper_sets_and_orders(flavor):
    """One GeneratorSet serves failed nodes, helper sets and helper orders
    in turn, so a repair map cached under too short a key shows up."""
    p = make_params(20, 10, 5)
    g = generator_set(p, flavor)
    rng = random.Random(f"regenerate:{flavor}")
    shares = encode_all(g, [rng.randrange(32) for _ in range(p.B)])
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
        assert regenerate(g, failed, consistent) == shares[failed]
        arbitrary = [(h, rng.randrange(32)) for h in order]
        assert regenerate(g, failed, arbitrary).symbols == _scalar_regenerate(g, failed, arbitrary)


def test_generator_maps_are_built_on_first_use(gen746):
    g = generator_set(gen746.params)
    assert "g_map" not in vars(g) and not g.repair_maps
    p = g.params
    shares = encode_all(g, [i % 8 for i in range(p.B)])
    g_map = vars(g)["g_map"]
    encode_all(g, [1] * p.B)
    assert vars(g)["g_map"] is g_map
    helpers = [(h, helper_symbol(g, shares[h], 0)) for h in range(1, 7)]
    regenerate(g, 0, helpers)
    regenerate(g, 0, helpers)
    regenerate(g, 0, helpers[::-1])
    assert sorted(g.repair_maps) == [(0, (1, 2, 3, 4, 5, 6)), (0, (6, 5, 4, 3, 2, 1))]


def test_regeneration_zero_message(gen746):
    p = gen746.params
    shares = encode_all(gen746, [0] * p.B)
    helpers = [(h, helper_symbol(gen746, shares[h], 0)) for h in range(1, 7)]
    assert regenerate(gen746, 0, helpers).symbols == (0, 0, 0)


def test_regeneration_wrong_helper_count(gen746):
    p = gen746.params
    shares = encode_all(gen746, [0] * p.B)
    helpers = [(h, helper_symbol(gen746, shares[h], 0)) for h in range(1, 6)]
    with pytest.raises(WrongHelperCount):
        regenerate(gen746, 0, helpers)


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
    # message index 0 is the (0, 0) diagonal entry of the first block
    changed = list(message)
    changed[0] ^= 5
    patch = update_patch(gen746, message, changed)
    rows = {r for _, r, _ in patch}
    nodes = {j for j, _, _ in patch}
    assert rows == {0}
    assert len(nodes) == p.n - p.alpha + 1 == 5
    assert len(patch) == 5


def test_update_patch_noop(gen746):
    message = [i % 8 for i in range(gen746.params.B)]
    assert update_patch(gen746, message, list(message)) == set()


def test_update_patch_bad_index(gen746):
    """Writing symbol B of a B-symbol message lengthens it; update_patch
    refuses the result rather than patching a symbol that does not exist."""
    message = list(range(gen746.params.B))
    changed = message + [5]
    with pytest.raises(WrongLength):
        update_patch(gen746, message, changed)


@pytest.mark.parametrize("n,k,m", [(7, 4, 3), (20, 10, 5)])
@pytest.mark.parametrize("flavor", ["systematic", "vandermonde"])
def test_update_patch_equals_reencode(n, k, m, flavor):
    """Changes of one to four symbols, each also as the CRC-refreshing
    change of its payload that the update command writes."""
    p = make_params(n, k, m)
    g = generator_set(p, flavor)
    rng = random.Random(n * 100 + k)
    payload_len = crc_payload_length(p)
    message = attach_crc(p, [rng.randrange(g.field.order) for _ in range(payload_len)])
    shares = encode_all(g, message)
    for trial in range(60):
        changed = list(message)
        for t in rng.sample(range(p.B), 1 + trial % 4):
            changed[t] = rng.randrange(g.field.order)
        for new in (changed, attach_crc(p, changed[:payload_len])):
            patch = update_patch(g, message, new)
            assert apply_patch(shares, patch) == encode_all(g, new)
            # every reported entry genuinely changes
            for node, row, value in patch:
                assert shares[node].symbols[row] != value
