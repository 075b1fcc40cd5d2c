"""Progressive reconstruction: pair solve, row decode, classification, CRC,
and end-to-end fault injection."""

import dataclasses
import functools
import hashlib
import itertools
import math
import random
import zlib

import pytest

from msrcode import reconstruct, rs
from msrcode.bits import symbols_to_bytes, symbols_to_int
from msrcode.field import Field
from msrcode.linalg import LinearMap, gf_dot
from msrcode.msr import InvalidParams, WrongLength, encode_all, generator_set, make_params
from msrcode.reconstruct import (
    AccessSet,
    KNodeDecoder,
    _attempt_round,
    _k_node_round,
    attach_crc,
    check_crc,
    classify_columns,
    crc_payload_length,
    crc_trailer_length,
    pair_solve,
    reconstruct_progressive,
    recover_z,
    row_decode,
)
from msrcode.rs import poly_eval, poly_trim
from msrcode.sim import corrupt_symbols

P746 = make_params(7, 4, 3)
GEN746 = generator_set(P746)
P20 = make_params(20, 10, 5)
GEN20 = generator_set(P20)


def fresh_case(params, gen, rng, with_crc=True):
    if with_crc:
        payload = [rng.randrange(gen.field.order) for _ in range(crc_payload_length(params))]
        message = attach_crc(params, payload)
    else:
        message = [rng.randrange(gen.field.order) for _ in range(params.B)]
    shares = encode_all(gen, message)
    return message, shares


def corrupting_source(gen, shares, bad, rng, mode="column"):
    def source(node):
        symbols = shares[node].symbols
        if node in bad:
            return corrupt_symbols(rng, gen.field, symbols, mode)
        return symbols

    return source


def z_blocks(params, message):
    """Z1 and Z2 of a flat message: each block's upper triangle, diagonal
    included, row-major from its half of the message, then mirrored."""
    alpha = params.alpha
    symbols = iter(message)
    blocks = []
    for _ in range(2):
        z = [[0] * alpha for _ in range(alpha)]
        for r in range(alpha):
            for c in range(r, alpha):
                z[r][c] = z[c][r] = next(symbols)
        blocks.append(z)
    return blocks


def mat_mul(field, a, b):
    """Reference helper: the matrix product a @ b, entry by entry."""
    return [[gf_dot(field, row, col) for col in zip(*b)] for row in a]


def true_pq(gen, message):
    """Oracle: the full n x n products Gbar^T Z Gbar for Z1 and Z2."""
    cols = [list(c) for c in gen.gbar_cols]  # n x alpha, rows are Gbar^T
    out = []
    for z in z_blocks(gen.params, message):
        zg = mat_mul(gen.field, z, gen.gbar)
        out.append(mat_mul(gen.field, cols, zg))
    return out


# ---------------------------------------------------------------------------
# CRC layout


def test_crc_trailer_lengths():
    assert crc_trailer_length(5) == 7
    assert crc_trailer_length(3) == 11
    assert crc_payload_length(P20) == 83
    assert crc_payload_length(P746) == 1


def test_crc_roundtrip_and_single_bit_detection():
    rng = random.Random(1)
    for _ in range(50):
        payload = [rng.randrange(32) for _ in range(crc_payload_length(P20))]
        message = attach_crc(P20, payload)
        assert len(message) == P20.B
        assert check_crc(P20, message)
        # flip one payload bit
        pos = rng.randrange(crc_payload_length(P20))
        bit = 1 << rng.randrange(5)
        tampered = list(message)
        tampered[pos] ^= bit
        assert not check_crc(P20, tampered)


def test_crc_random_corruption_never_passes():
    rng = random.Random(2)
    payload = [rng.randrange(32) for _ in range(crc_payload_length(P20))]
    message = attach_crc(P20, payload)
    passes = 0
    for _ in range(10_000):
        tampered = list(message)
        how_many = rng.randrange(1, 8)
        for pos in rng.sample(range(P20.B), how_many):
            tampered[pos] ^= rng.randrange(1, 32)
        if tampered != message and check_crc(P20, tampered):
            passes += 1
    assert passes == 0


def crc_reference(params, message):
    """The list-form check: CRC-32 of the payload symbols packed into bytes,
    against the trailer symbols read as an int."""
    m, t = params.m, crc_trailer_length(params.m)
    payload, trailer = message[: params.B - t], message[params.B - t :]
    return zlib.crc32(symbols_to_bytes(payload, m, (len(payload) * m + 7) // 8)) == symbols_to_int(trailer, m)


@pytest.mark.parametrize("n,k,m", [(7, 4, 3), (20, 10, 5), (20, 10, 7), (24, 12, 8)])
def test_check_crc_on_the_packed_int_matches_the_list_form(n, k, m):
    """check_crc on a stripe's MSB-first int, and on its symbol list,
    agrees with the list-form reference on valid messages, single-symbol
    tampering and garbage; a value wider than B symbols fails even when its
    low B symbols pass, and so does a list one symbol short or long."""
    params = make_params(n, k, m)
    rng = random.Random(f"crc:{n}:{k}:{m}")
    passed = 0
    for _ in range(200):
        payload = [rng.randrange(1 << m) for _ in range(crc_payload_length(params))]
        message = attach_crc(params, payload)
        tampered = list(message)
        tampered[rng.randrange(params.B)] ^= rng.randrange(1, 1 << m)
        garbage = [rng.randrange(1 << m) for _ in range(params.B)]
        for candidate in (message, tampered, garbage):
            value = symbols_to_int(candidate, m)
            expected = crc_reference(params, candidate)
            assert check_crc(params, value) == expected == check_crc(params, candidate)
            passed += expected
        value = symbols_to_int(message, m)
        assert not check_crc(params, value | 1 << params.B * m + rng.randrange(8))
        assert not check_crc(params, message[:-1]) and not check_crc(params, message + [0])
    assert passed >= 200
    # B = 2 symbols leave no room for a payload beside a 32-bit trailer
    assert not check_crc(make_params(3, 2, 2), 0)


def test_crc_parameters_are_the_standard_ones():
    # reflected 0x04C11DB7 with init/xorout 0xFFFFFFFF has this check value
    import zlib

    assert zlib.crc32(b"123456789") == 0xCBF43926


# ---------------------------------------------------------------------------
# pair solve


def test_pair_solve_zero_message():
    shares = encode_all(GEN746, [0] * P746.B)
    access = AccessSet(nodes=tuple(range(7)), columns=tuple(s.symbols for s in shares))
    pair = pair_solve(GEN746, access)
    for r in range(7):
        for c in range(7):
            if r != c:
                assert pair.p[r][c] == 0 and pair.q[r][c] == 0
            else:
                assert pair.p[r][c] is None and pair.q[r][c] is None


def test_pair_solve_z2_zero_matches_product_oracle():
    rng = random.Random(5)
    half = P746.alpha * (P746.alpha + 1) // 2
    message = [rng.randrange(8) for _ in range(half)] + [0] * half
    shares = encode_all(GEN746, message)
    access = AccessSet(nodes=tuple(range(7)), columns=tuple(s.symbols for s in shares))
    pair = pair_solve(GEN746, access)
    p_true, _ = true_pq(GEN746, message)
    for r in range(7):
        for c in range(7):
            if r == c:
                continue
            assert pair.q[r][c] == 0
            assert pair.p[r][c] == p_true[r][c]


def test_pair_solve_clean_full_access_matches_oracle():
    rng = random.Random(6)
    message, shares = fresh_case(P746, GEN746, rng, with_crc=False)
    nodes = tuple(rng.sample(range(7), 6))
    access = AccessSet(nodes=nodes, columns=tuple(shares[i].symbols for i in nodes))
    pair = pair_solve(GEN746, access)
    p_true, q_true = true_pq(GEN746, message)
    for r, nr in enumerate(nodes):
        for c, nc in enumerate(nodes):
            if r == c:
                continue
            assert pair.p[r][c] == p_true[nr][nc]
            assert pair.q[r][c] == q_true[nr][nc]


def test_pair_solve_symmetric_by_construction():
    rng = random.Random(7)
    _, shares = fresh_case(P20, GEN20, rng)
    nodes = tuple(rng.sample(range(20), 12))
    cols = []
    for i in nodes:
        symbols = shares[i].symbols
        cols.append(corrupt_symbols(rng, GEN20.field, symbols) if rng.random() < 0.3 else symbols)
    pair = pair_solve(GEN20, AccessSet(nodes=nodes, columns=tuple(cols)))
    for r in range(12):
        for c in range(12):
            if r != c:
                assert pair.p[r][c] == pair.p[c][r]
                assert pair.q[r][c] == pair.q[c][r]


# ---------------------------------------------------------------------------
# flooding property: one corrupted column disturbs most of the product


def test_corrupted_column_floods_gram_product():
    rng = random.Random(8)
    n, k = P746.n, P746.k
    for _ in range(100):
        message, shares = fresh_case(P746, GEN746, rng, with_crc=False)
        col = rng.randrange(n)
        y = [list(s.symbols) for s in shares]  # columns per node
        bad = list(corrupt_symbols(rng, GEN746.field, y[col]))
        diffs = 0
        for node in range(n):
            before = gf_dot(GEN746.field, GEN746.gbar_cols[node], y[col])
            after = gf_dot(GEN746.field, GEN746.gbar_cols[node], bad)
            if before != after:
                diffs += 1
        assert diffs >= n - k + 2


# ---------------------------------------------------------------------------
# row decode


def test_row_decode_clean_at_k_nodes():
    rng = random.Random(9)
    message, shares = fresh_case(P746, GEN746, rng, with_crc=False)
    nodes = tuple(rng.sample(range(7), 4))
    access = AccessSet(nodes=nodes, columns=tuple(shares[i].symbols for i in nodes))
    pair = pair_solve(GEN746, access)
    p_true, _ = true_pq(GEN746, message)
    rows = row_decode(GEN746.code_alpha, pair.p, pair.nodes)
    for r, nr in enumerate(nodes):
        assert rows[r] is not None
        assert list(rows[r]) == p_true[nr]


def test_row_decode_one_bad_among_k_plus_2():
    rng = random.Random(10)
    for _ in range(40):
        message, shares = fresh_case(P746, GEN746, rng, with_crc=False)
        nodes = tuple(rng.sample(range(7), 6))
        bad_pos = rng.randrange(6)
        cols = [shares[i].symbols for i in nodes]
        cols[bad_pos] = corrupt_symbols(rng, GEN746.field, cols[bad_pos])
        pair = pair_solve(GEN746, AccessSet(nodes=nodes, columns=tuple(cols)))
        p_true, _ = true_pq(GEN746, message)
        rows = row_decode(GEN746.code_alpha, pair.p, pair.nodes)
        for r, nr in enumerate(nodes):
            if r == bad_pos:
                continue  # the corrupted node's own row is unconstrained
            assert rows[r] is not None
            assert list(rows[r]) == p_true[nr]


# ---------------------------------------------------------------------------
# classification


def test_classify_zero_corruption_all_correct():
    rng = random.Random(11)
    message, shares = fresh_case(P746, GEN746, rng, with_crc=False)
    nodes = tuple(rng.sample(range(7), 4))
    pair = pair_solve(GEN746, AccessSet(nodes=nodes, columns=tuple(shares[i].symbols for i in nodes)))
    rows = row_decode(GEN746.code_alpha, pair.p, pair.nodes)
    cls = classify_columns(pair.p, rows, pair.nodes, 0, P746.k)
    assert cls.accepted(0)
    assert cls.erroneous == frozenset()
    assert len(cls.correct) == 4
    assert all(c == 0 for c in cls.counts)


def test_classify_one_bad_among_six_exhaustive():
    rng = random.Random(12)
    for bad_pos in range(6):
        for _ in range(20):
            message, shares = fresh_case(P746, GEN746, rng, with_crc=False)
            nodes = tuple(rng.sample(range(7), 6))
            cols = [shares[i].symbols for i in nodes]
            cols[bad_pos] = corrupt_symbols(rng, GEN746.field, cols[bad_pos])
            pair = pair_solve(GEN746, AccessSet(nodes=nodes, columns=tuple(cols)))
            rows = row_decode(GEN746.code_alpha, pair.p, pair.nodes)
            cls = classify_columns(pair.p, rows, pair.nodes, 1, P746.k)
            assert cls.threshold == 3  # v + 2 in the j = k + 2v regime
            assert cls.erroneous == frozenset({bad_pos})
            assert len(cls.correct) == 5
            assert cls.accepted(1)
            # separation: flooded column versus the clean ones
            assert cls.counts[bad_pos] >= 3
            assert all(cls.counts[c] <= 1 for c in range(6) if c != bad_pos)


def test_classify_separation_20_10():
    """Count separation at an accepted round: every corrupted column scores
    at least v + 2 while every clean column scores at most v."""
    rng = random.Random(13)
    for v in (1, 2, 3, 4, 5):
        for _ in range(10):
            message, shares = fresh_case(P20, GEN20, rng, with_crc=False)
            j = min(P20.k + 2 * v, 20)
            nodes = tuple(rng.sample(range(20), j))
            bad_pos = rng.sample(range(j), v)
            cols = [shares[i].symbols for i in nodes]
            for bp in bad_pos:
                cols[bp] = corrupt_symbols(rng, GEN20.field, cols[bp])
            pair = pair_solve(GEN20, AccessSet(nodes=nodes, columns=tuple(cols)))
            rows = row_decode(GEN20.code_alpha, pair.p, pair.nodes)
            cls = classify_columns(pair.p, rows, pair.nodes, v, P20.k)
            assert cls.erroneous == frozenset(bad_pos)
            assert cls.accepted(v)
            assert min(cls.counts[c] for c in bad_pos) >= v + 2
            good_max = max(
                (cls.counts[c] for c in range(j) if c not in cls.erroneous), default=0
            )
            assert good_max <= v


# ---------------------------------------------------------------------------
# recover_z


def test_recover_z_clean_full_access():
    rng = random.Random(14)
    message, shares = fresh_case(P746, GEN746, rng, with_crc=False)
    nodes = tuple(range(7))
    pair = pair_solve(GEN746, AccessSet(nodes=nodes, columns=tuple(s.symbols for s in shares)))
    rows = row_decode(GEN746.code_alpha, pair.p, pair.nodes)
    cls = classify_columns(pair.p, rows, pair.nodes, 0, P746.k)
    z1_true, z2_true = (
        [z[r][c] for r in range(P746.alpha) for c in range(r, P746.alpha)] for z in z_blocks(P746, message)
    )
    assert recover_z(rows, cls, GEN746, pair.nodes, {}) == z1_true
    rows_q = row_decode(GEN746.code_alpha, pair.q, pair.nodes)
    cls_q = classify_columns(pair.q, rows_q, pair.nodes, 0, P746.k)
    assert recover_z(rows_q, cls_q, GEN746, pair.nodes, {}) == z2_true


# ---------------------------------------------------------------------------
# progressive end to end


def run_injected(params, gen, bad, seed, mode="column"):
    rng = random.Random(seed)
    message, shares = fresh_case(params, gen, rng)
    source = corrupting_source(gen, shares, bad, rng, mode)
    report = reconstruct_progressive(gen, source, rng)
    return message, report


def test_progressive_no_errors_accesses_k():
    for seed in range(20):
        message, report = run_injected(P746, GEN746, frozenset(), seed)
        assert report.success
        assert report.recovered_message == message
        assert report.nodes_accessed == P746.k
        assert report.rounds == 0
        assert report.erroneous_nodes == frozenset()


def test_progressive_reads_build_no_encode_or_repair_map():
    """A read uses neither the encoder's map nor a repair map, so building
    either on a read's GeneratorSet would only cost time."""
    rng = random.Random(5)
    message, shares = fresh_case(P20, GEN20, rng)
    for bad in (frozenset(), frozenset({1, 4, 9})):
        gen = generator_set(P20)
        source = corrupting_source(gen, shares, bad, rng)
        report = reconstruct_progressive(gen, source, rng)
        assert report.recovered_message == message
        assert "g_map" not in vars(gen) and not gen.repair_maps and "_tinv_map" not in vars(gen)
        assert "encode_region" not in vars(gen)


def test_progressive_exhaustive_bad_patterns_7_4_6():
    """Every 1- and 2-node corruption pattern, several random draws each:
    always recovered, bad accessed nodes identified, access cost bounded."""
    patterns = [frozenset({i}) for i in range(7)]
    patterns += [frozenset(c) for c in itertools.combinations(range(7), 2)]
    assert len(patterns) == 28
    for pattern in patterns:
        for seed in range(5):
            message, report = run_injected(P746, GEN746, pattern, seed)
            assert report.success, (pattern, seed)
            assert report.recovered_message == message
            assert report.erroneous_nodes == pattern & set(report.accessed_nodes)
            if len(pattern) == 1:
                assert report.nodes_accessed <= 6
            assert report.nodes_accessed <= 7
            assert len(report.erroneous_nodes) == report.rounds


def test_progressive_capability_sweep_20_10():
    rng = random.Random(15)
    for v_true in range(6):
        for _ in range(8):
            bad = frozenset(rng.sample(range(20), v_true))
            message, report = run_injected(P20, GEN20, bad, rng.randrange(2**30))
            assert report.success
            assert report.recovered_message == message
            assert report.erroneous_nodes == bad & set(report.accessed_nodes)
            assert report.nodes_accessed == min(P20.k + 2 * report.rounds, 20)


def test_progressive_six_bad_never_silently_wrong():
    rng = random.Random(16)
    for _ in range(25):
        bad = frozenset(rng.sample(range(20), 6))
        message, report = run_injected(P20, GEN20, bad, rng.randrange(2**30))
        if report.success:
            # a lucky draw avoided enough corrupted nodes; output must be right
            assert report.recovered_message == message
        else:
            assert report.failure_reason == "IntegrityFailedAtMax"


def test_progressive_single_symbol_corruption_mode():
    for seed in range(10):
        message, report = run_injected(P746, GEN746, frozenset({2}), seed, mode="symbol")
        assert report.success
        assert report.recovered_message == message


def test_progressive_unreachable_supply():
    rng = random.Random(17)
    message, shares = fresh_case(P746, GEN746, rng)

    reachable = set(range(4))
    calls = []

    def source(node):
        calls.append(node)
        return shares[node].symbols if node in reachable else None

    report = reconstruct_progressive(GEN746, source, rng)
    assert report.success
    assert report.recovered_message == message
    assert report.nodes_accessed == 4
    assert len(calls) == len(set(calls))  # never asks twice


def test_progressive_too_few_reachable():
    rng = random.Random(18)
    _, shares = fresh_case(P746, GEN746, rng)

    def source(node):
        return shares[node].symbols if node < 3 else None

    report = reconstruct_progressive(GEN746, source, rng)
    assert not report.success
    assert report.failure_reason == "RanOutOfNodes"


def test_progressive_deterministic_given_seed():
    bad = frozenset({1, 5})
    a = run_injected(P20, GEN20, bad, 4242)
    b = run_injected(P20, GEN20, bad, 4242)
    assert a[1].recovered_message == b[1].recovered_message
    assert a[1].accessed_nodes == b[1].accessed_nodes
    assert a[1].trace == b[1].trace


def test_progressive_shortened_vandermonde_20_10():
    """A shortened (n < 2^m - 1) vandermonde code reconstructs like the
    systematic one, through v = 0 and through error-locating rounds."""
    gen = generator_set(P20, "vandermonde")
    rng = random.Random(19)
    for v_true in (0, 1, 2, 5):
        for _ in range(3):
            bad = frozenset(rng.sample(range(20), v_true))
            message, report = run_injected(P20, gen, bad, rng.randrange(2**30))
            assert report.success, bad
            assert report.recovered_message == message
            assert report.erroneous_nodes == bad & set(report.accessed_nodes)


# ---------------------------------------------------------------------------
# closed-form k-node round against the general v = 0 round


K_NODE_CODES = [
    (20, 10, 5, "systematic"),
    (15, 5, 4, "systematic"),
    (24, 12, 8, "systematic"),
    (7, 4, 3, "vandermonde"),
    (20, 10, 5, "vandermonde"),
    (24, 12, 8, "vandermonde"),
]


@pytest.mark.parametrize("n,k,m,flavor", K_NODE_CODES)
def test_k_node_round_matches_general_round(monkeypatch, n, k, m, flavor):
    """One KNodeDecoder per node set, applied to several stripes, gives the
    same message (or rejection) and the same trace as _attempt_round at
    v = 0, on garbage columns and on encodings with 0 to 2 corrupt nodes;
    once under the CRC and once with a check that accepts everything."""
    params = make_params(n, k, m)
    gen = generator_set(params, flavor)
    rng = random.Random(n * 1000 + k * 10 + m)
    for _ in range(6):
        nodes = tuple(rng.sample(range(n), k))
        decoder = KNodeDecoder(gen, nodes)
        for stripe in range(5):
            bad = []
            if stripe % 2:
                cols = [tuple(rng.randrange(gen.field.order) for _ in range(params.alpha)) for _ in nodes]
            else:
                message, shares = fresh_case(params, gen, rng)
                cols = [shares[i].symbols for i in nodes]
                bad = rng.sample(range(k), rng.randrange(3))
                for b in bad:
                    cols[b] = corrupt_symbols(rng, gen.field, cols[b])
            access = AccessSet(nodes=nodes, columns=tuple(cols))
            pair = pair_solve(gen, access)
            decoded = decoder.decode(cols)
            for accept in (check_crc, lambda params, candidate: True):
                monkeypatch.setattr(reconstruct, "check_crc", accept)
                general_trace, closed_trace = [], []
                expected = _attempt_round(gen, pair, 0, general_trace)
                assert _k_node_round(decoder, access, closed_trace) == (expected, pair)
                assert closed_trace == general_trace
                assert ((decoded, frozenset()) if accept(params, decoded) else None) == expected
            if stripe % 2 == 0 and not bad:
                assert expected == (message, frozenset())


# m = 2, 3, 4, 5, 8, 11 and 16, both flavors; vandermonde is shortened
# (column-scaled) at all but the full-length [3,2], [7,4] and [15,5]
COMPOSE_CODES = [
    (n, k, m, flavor)
    for n, k, m in [(3, 2, 2), (7, 4, 3), (15, 5, 4), (20, 10, 5), (24, 12, 8), (20, 10, 11), (18, 9, 16)]
    for flavor in ("systematic", "vandermonde")
]


@pytest.mark.parametrize("n,k,m,flavor", COMPOSE_CODES)
def test_composed_decode_matches_staged_decode(n, k, m, flavor):
    """compose() folds the staged decode into one map: on garbage columns,
    fresh encodings and encodings with 1 or 2 corrupt columns, the composed
    decoder returns exactly the staged decoder's message, and its bitstream
    is that message packed MSB-first."""
    params = make_params(n, k, m)
    gen = generator_set(params, flavor)
    rng = random.Random(f"compose:{n}:{k}:{m}:{flavor}")
    with_crc = crc_trailer_length(m) < params.B  # [3,2]/GF(2^2) has no room for a payload
    for _ in range(4):
        nodes = tuple(rng.sample(range(n), k))
        staged, composed = KNodeDecoder(gen, nodes), KNodeDecoder(gen, nodes)
        composed.compose()
        assert staged.composed is None and composed.composed is not None
        composed.solve = composed.peel_map = None  # the staged body must not run
        for kind in ("garbage", "fresh", "corrupt") * 4:
            if kind == "garbage":
                cols = [tuple(rng.randrange(gen.field.order) for _ in range(params.alpha)) for _ in nodes]
            else:
                message, shares = fresh_case(params, gen, rng, with_crc)
                cols = [shares[i].symbols for i in nodes]
                if kind == "corrupt":
                    for b in rng.sample(range(k), rng.randint(1, min(2, k))):
                        cols[b] = corrupt_symbols(rng, gen.field, cols[b])
            expected = staged.decode(cols)
            assert composed.bitstream(cols) == symbols_to_int(expected, m) == staged.bitstream(cols)
            assert composed.decode(cols) == expected
            if kind == "fresh":
                assert expected == message


@pytest.mark.parametrize("n,k,m,flavor", COMPOSE_CODES)
def test_composed_map_images_are_staged_decodes_of_unit_columns(n, k, m, flavor):
    """Input c * alpha + t of the composed map takes x to the staged decode
    of the columns that are zero but for x at symbol t of column c: its
    packed image, for x = 1 and a random x, and whole tables at m <= 5.
    compose() never builds gen.gbar_map."""
    params = make_params(n, k, m)
    gen = generator_set(params, flavor)
    rng = random.Random(f"unit:{n}:{k}:{m}:{flavor}")
    nodes = tuple(rng.sample(range(n), k))
    decoder = KNodeDecoder(gen, nodes)
    decoder.compose()
    assert "gbar_map" not in vars(gen)
    composed = decoder.composed
    staged = KNodeDecoder(gen, nodes)
    alpha = params.alpha
    for c in range(k):
        for t in range(alpha):
            i = c * alpha + t
            values = range(1, gen.field.order) if m <= 5 else (1, rng.randrange(2, gen.field.order))
            for x in values:
                cols = [[0] * alpha for _ in range(k)]
                cols[c][t] = x
                image = composed.low[i][x & composed.lmask] ^ composed.high[i][x >> composed.half]
                assert image == symbols_to_int(staged.decode(cols), m), (c, t, x)


def composed_table_digest(linear_map):
    """sha256 of a LinearMap's tables, every entry in whole little-endian bytes."""
    size = (linear_map.outputs * linear_map.stride + 7) // 8
    digest = hashlib.sha256()
    for tables in (linear_map.low, linear_map.high):
        for table in tables:
            digest.update(b"".join(x.to_bytes(size, "little") for x in table))
    return digest.hexdigest()[:16]


# (n, k, m, flavor) -> the digest of the composed tables, recorded from an
# earlier compose() that filled every table input by input and applied the
# pair map once per column symbol: the tables must not depend on the build
COMPOSED_TABLE_DIGESTS = {
    (20, 10, 5, "systematic"): "915a34ff2322415b",
    (24, 12, 8, "vandermonde"): "507dd4802e0b79f4",
    (7, 4, 3, "vandermonde"): "66be6914d130db11",
    (18, 9, 16, "systematic"): "09771f474d99417d",
}


@pytest.mark.parametrize("code", sorted(COMPOSED_TABLE_DIGESTS))
def test_composed_tables_are_pinned(code):
    """The composed map's tables, entry for entry, for one seeded node set."""
    n, k, m, flavor = code
    gen = generator_set(make_params(n, k, m), flavor)
    decoder = KNodeDecoder(gen, random.Random(f"tables:{n}:{k}:{m}").sample(range(n), k))
    decoder.compose()
    assert composed_table_digest(decoder.composed) == COMPOSED_TABLE_DIGESTS[code]


# one code for each m = 2..16, both flavors; vandermonde is shortened
# (column-scaled) at all but the full-length [3,2], [7,4] and [15,5]
PAIRED_CODES = [
    (n, k, m, flavor)
    for n, k, m in [
        (3, 2, 2), (7, 4, 3), (15, 5, 4), (20, 10, 5), (12, 6, 6), (14, 7, 7), (24, 12, 8), (14, 7, 9),
        (12, 6, 10), (20, 10, 11), (10, 5, 12), (14, 7, 13), (18, 9, 14), (14, 7, 15), (18, 9, 16),
    ]
    for flavor in ("systematic", "vandermonde")
]  # fmt: skip


@pytest.mark.parametrize("n,k,m,flavor", PAIRED_CODES)
def test_paired_staged_and_composed_bitstreams_agree(n, k, m, flavor):
    """The paired decode (the columns through gen.gbar_map, w p_rc and
    w q_rc per pair, the pair map twice) gives the staged and the composed
    decoders' bitstream and message, on random k-node sets: garbage
    columns, fresh encodings and encodings with 1 or 2 corrupt columns.
    It runs no pair solve and no peel map, and building the pair map needs
    no gbar_map."""
    params = make_params(n, k, m)
    gen = generator_set(params, flavor)
    rng = random.Random(f"paired:{n}:{k}:{m}:{flavor}")
    with_crc = crc_trailer_length(m) < params.B  # [3,2]/GF(2^2) has no room for a payload
    for trial in range(3):
        nodes = tuple(rng.sample(range(n), k))
        staged, paired, composed = (KNodeDecoder(gen, nodes) for _ in range(3))
        paired.pair_map
        assert trial or "gbar_map" not in vars(gen)
        composed.compose()
        paired.solve = paired.peel_map = None  # the staged body must not run
        assert [decoder_mode(d) for d in (staged, paired, composed)] == ["staged", "paired", "composed"]
        for kind in ("garbage", "fresh", "corrupt") * 3:
            if kind == "garbage":
                cols = [tuple(rng.randrange(gen.field.order) for _ in range(params.alpha)) for _ in nodes]
            else:
                message, shares = fresh_case(params, gen, rng, with_crc)
                cols = [shares[i].symbols for i in nodes]
                if kind == "corrupt":
                    for b in rng.sample(range(k), rng.randint(1, min(2, k))):
                        cols[b] = corrupt_symbols(rng, gen.field, cols[b])
            expected = staged.decode(cols)
            assert paired.bitstream(cols) == composed.bitstream(cols) == symbols_to_int(expected, m)
            assert paired.decode(cols) == composed.decode(cols) == expected
            if kind == "fresh":
                assert expected == message


@pytest.mark.parametrize("flavor", ["systematic", "vandermonde"])
def test_progressive_reports_unchanged_by_k_node_round(monkeypatch, flavor):
    """For a fixed rng, reconstruct_progressive reports the same whether the
    v = 0 round runs in closed form or through the general round."""
    gen = generator_set(P20, flavor)
    rng = random.Random(20)
    runs = [(frozenset(rng.sample(range(20), v)), rng.randrange(2**30)) for v in (0, 0, 1, 3, 6)]
    closed = [run_injected(P20, gen, bad, seed) for bad, seed in runs]

    def general_round(decoder, access, trace):
        pair = pair_solve(gen, access)
        return _attempt_round(gen, pair, 0, trace), pair

    monkeypatch.setattr(reconstruct, "_k_node_round", general_round)
    general = [run_injected(P20, gen, bad, seed) for bad, seed in runs]
    assert closed == general


# ---------------------------------------------------------------------------
# erasure trials located by the shared error locator on supply-capped rounds


def run_capped(params, gen, missing, liars, seed):
    """A seeded stripe read with ``missing`` unreachable and ``liars`` lying
    nodes, so the node supply caps the later rounds."""
    rng = random.Random(seed)
    message, shares = fresh_case(params, gen, rng)
    drawn = rng.sample(range(params.n), missing + liars)
    gone = frozenset(drawn[:missing])
    lying = corrupting_source(gen, shares, frozenset(drawn[missing:]), rng)
    source = lambda node: None if node in gone else lying(node)
    report = reconstruct_progressive(gen, source, rng)
    return message, report


def erasure_trials(report):
    return [entry.erasure_trial for entry in report.trace if entry.erasure_trial is not None]


def capped_round(params, gen, rng, v, garbage=False):
    """A round of j = k + 2v - 1 nodes (at most n), the node count at which
    a supply-capped round looks for error supports, with v random lying
    columns, or all-garbage columns; returns the pair solve, the round's
    context and the lying positions."""
    j = min(params.k + 2 * v - 1, params.n)
    nodes = tuple(rng.sample(range(params.n), j))
    lying = tuple(sorted(rng.sample(range(j), v)))
    if garbage:
        cols = [tuple(rng.randrange(gen.field.order) for _ in range(params.alpha)) for _ in nodes]
    else:
        message, shares = fresh_case(params, gen, rng)
        cols = [shares[i].symbols for i in nodes]
        for b in lying:
            cols[b] = corrupt_symbols(rng, gen.field, cols[b])
    pair = pair_solve(gen, AccessSet(nodes=nodes, columns=tuple(cols)))
    return pair, reconstruct._round_context(gen.code_alpha, nodes, ()), lying


def forney_stream(gen, pair, context, mat, r):
    """Row r of mat's Forney syndromes from |X_r| = n - j + 1 on, the part
    that depends only on the row's errors."""
    word = [0] * gen.params.n
    for c, node in enumerate(pair.nodes):
        if c != r:
            word[node] = gen.field.mul(mat[r][c], gen.col_scale[node])
    return context.adjusted(word, pair.nodes[r])[gen.params.n - len(pair.nodes) + 1 :]


LOCATE_CODES = [(n, k, m, flavor) for n, k, m in [(7, 4, 3), (20, 10, 5), (24, 12, 8)] for flavor in ("systematic", "vandermonde")]


@pytest.mark.parametrize("n,k,m,flavor", LOCATE_CODES)
def test_locate_finds_the_true_support(n, k, m, flavor):
    """On capped rounds with exactly v lying columns, the true support is
    among _locate's candidates, each distinct, of size v; an honest row's P
    and Q Forney syndromes (past the erasures) differ by the factor
    lambda_r, so the Q rows add no equations; and with all-garbage columns
    no candidate passes _attempt_round."""
    params = make_params(n, k, m)
    gen = generator_set(params, flavor)
    rng = random.Random(f"locate:{n}:{m}:{flavor}")
    for trial in range(16):
        v = rng.randrange(1, params.error_capability + 1)
        garbage = trial % 4 == 3
        pair, context, lying = capped_round(params, gen, rng, v, garbage)
        candidates = list(reconstruct._locate(gen, pair, v, context))
        assert len(set(candidates)) == len(candidates)
        assert all(len(support) == v and list(support) == sorted(support) for support in candidates)
        if garbage:
            for support in candidates:
                extra = frozenset(pair.nodes[c] for c in support)
                assert _attempt_round(gen, pair, v, [], extra_erased=extra) is None
            continue
        assert lying in candidates, (trial, v)
        honest = [r for r in range(len(pair.nodes)) if r not in lying]
        streams = [[forney_stream(gen, pair, context, mat, r) for mat in (pair.p, pair.q)] for r in honest]
        assert any(any(p_stream) for p_stream, _ in streams)
        for r, (p_stream, q_stream) in zip(honest, streams):
            lam_r = gen.delta[pair.nodes[r]]
            assert p_stream == [gen.field.mul(lam_r, x) for x in q_stream]


# (n, k, m, flavor, missing shares, lying shares, seeds)
CAPPED = [
    (20, 10, 5, "systematic", 5, 3, range(3)),
    (20, 10, 5, "systematic", 7, 2, range(4)),
    (20, 10, 5, "systematic", 7, 3, range(1)),  # beyond capability
    (20, 10, 5, "systematic", 9, 2, range(2)),  # beyond capability
    (20, 10, 5, "vandermonde", 5, 3, range(3)),
    (20, 10, 5, "vandermonde", 7, 2, range(4)),
    (20, 10, 5, "vandermonde", 8, 2, range(2)),
    (24, 12, 8, "systematic", 7, 3, range(3)),
    (24, 12, 8, "systematic", 9, 2, range(3)),
    (24, 12, 8, "systematic", 2, 6, range(2)),  # the v = 6 round cannot pass the gate
]


@pytest.mark.parametrize("n,k,m,flavor,missing,liars,seeds", CAPPED)
def test_ranked_trials_report_like_plain_enumeration(monkeypatch, n, k, m, flavor, missing, liars, seeds):
    """Trying only the located supports reports exactly what trying every
    size-v support in itertools.combinations order reports: message,
    rounds, nodes, accessed nodes, erroneous nodes and failure reason."""
    params = make_params(n, k, m)
    gen = generator_set(params, flavor)
    seeds = [n * 1000 + missing * 10 + liars + 7 * s for s in seeds]
    located = [run_capped(params, gen, missing, liars, seed) for seed in seeds]
    monkeypatch.setattr(
        reconstruct, "_locate", lambda gen, pair, v, context: itertools.combinations(range(len(pair.nodes)), v)
    )
    plain = [run_capped(params, gen, missing, liars, seed) for seed in seeds]
    for (message, got), (_, want) in zip(located, plain):
        assert (got.recovered_message, got.rounds, got.nodes_accessed, got.accessed_nodes) == (
            want.recovered_message,
            want.rounds,
            want.nodes_accessed,
            want.accessed_nodes,
        )
        assert (got.erroneous_nodes, got.failure_reason) == (want.erroneous_nodes, want.failure_reason)


def test_ranked_trials_find_the_support_first():
    """[20,10] over GF(2^5) with 7 missing and 2 lying nodes: every stripe
    decodes, with at most 2 erasure trials per stripe on average (plain
    enumeration needs about 30)."""
    trials = []
    for seed in range(40):
        message, report = run_capped(P20, GEN20, 7, 2, 5000 + seed)
        assert report.recovered_message == message, seed
        trials.append(len(erasure_trials(report)))
    assert sum(trials) / len(trials) <= 2, trials


@pytest.mark.parametrize(
    "n,k,m,missing,liars,seeds",
    [(24, 12, 8, 3, 6, range(2)), (20, 10, 5, 7, 3, range(3))],
)
def test_locate_bounds_the_trials_per_round(monkeypatch, n, k, m, missing, liars, seeds):
    """The work per stripe has a bound even beyond capability: a capped
    round tries at most C(j, 2) supports, a round whose gate cannot pass
    tries none, and the stripes fail as they did under enumeration of all
    C(j, v) supports, with RanOutOfNodes."""
    params = make_params(n, k, m)
    gen = generator_set(params)
    calls = []  # (v, j, whether the call is an erasure trial)
    attempt = reconstruct._attempt_round

    def spy_attempt(gen, pair, v, trace, extra_erased=frozenset(), **kwargs):
        calls.append((v, len(pair.nodes), bool(extra_erased)))
        return attempt(gen, pair, v, trace, extra_erased, **kwargs)

    monkeypatch.setattr(reconstruct, "_attempt_round", spy_attempt)
    for s in seeds:
        calls.clear()
        message, report = run_capped(params, gen, missing, liars, n * 1000 + missing * 10 + liars + 7 * s)
        assert report.failure_reason == reconstruct.FAIL_RAN_OUT_OF_NODES
        rounds = {(v, j) for v, j, trial in calls if not trial}
        capped = {(v, j) for v, j in rounds if j < k + 2 * v}
        assert any(reconstruct._gate_can_pass(j, v, k) for v, j in capped)
        assert any(not reconstruct._gate_can_pass(j, v, k) for v, j in capped)
        for v, j in capped:
            count = calls.count((v, j, True))
            assert count <= (math.comb(j, 2) if reconstruct._gate_can_pass(j, v, k) else 0), (v, j, count)


def test_located_supports_never_fail_only_the_crc():
    """Over 200+ seeded capped stripes within capability, no located support
    passes every gate and then fails the CRC (trace outcome integrity with
    erasure_trial set): a wrong locator does not reach the integrity check,
    and every stripe decodes."""
    p24 = make_params(24, 12, 8)
    cases = [
        (P20, GEN20, 7, 2),
        (P20, GEN20, 5, 3),
        (P20, generator_set(P20, "vandermonde"), 7, 2),
        (p24, generator_set(p24), 7, 3),
    ]
    stripes = trials = 0
    for index, (params, gen, missing, liars) in enumerate(cases):
        for s in range(52):
            message, report = run_capped(params, gen, missing, liars, 6000 + 100 * index + s)
            assert report.recovered_message == message, (index, s)
            assert not [e for e in report.trace if e.erasure_trial is not None and e.outcome == "integrity"]
            trials += len(erasure_trials(report))
            stripes += 1
    assert stripes >= 200 and trials >= stripes / 2


# ---------------------------------------------------------------------------
# one erasure context per round, checked against independent per-row decodes


def reference_decode(code, symbols, erasures):
    """Errors-and-erasures decoding of one word from scratch: syndromes over
    all n positions, Berlekamp-Massey on the Forney syndromes, Chien search
    over every unerased position, Forney values, and a full syndrome
    recheck.  Returns (codeword, corrected positions) or None."""
    field, exp = code.field, code.field.exp
    q1 = field.order - 1
    nsyn = code.n - code.kappa
    erasures = frozenset(erasures)
    if len(erasures) > nsyn:
        return None
    word = [0 if i in erasures else x for i, x in enumerate(symbols)]
    synd = code.syndromes(word)
    if not any(synd):
        return tuple(word), frozenset()
    stream = code.forney_syndromes(synd, code.locator(erasures))[len(erasures) :]

    # Berlekamp-Massey: the shortest LFSR generating the stream
    lam, prev, errs, gap, prev_disc = [1], [1], 0, 1, 1
    for pos, disc in enumerate(stream):
        for l in range(1, min(errs, len(lam) - 1) + 1):
            disc ^= field.mul(lam[l], stream[pos - l])
        if disc == 0:
            gap += 1
            continue
        scale = field.div(disc, prev_disc)
        adjusted = lam + [0] * max(0, gap + len(prev) - len(lam))
        for i, c in enumerate(prev):
            adjusted[gap + i] ^= field.mul(scale, c)
        if 2 * errs <= pos:
            prev, prev_disc, errs, gap = lam, disc, pos + 1 - errs, 1
        else:
            gap += 1
        lam = adjusted
    lam = poly_trim(lam)
    if 2 * errs > len(stream) or len(lam) - 1 != errs:
        return None
    errors = {i for i in range(code.n) if i not in erasures and poly_eval(field, lam, exp[(q1 - i) % q1]) == 0}
    if len(errors) != errs:
        return None

    errata = sorted(erasures | errors)
    psi = code.locator(errata)
    omega = code.forney_syndromes(synd, psi)
    psi_d = poly_trim([psi[i] if i % 2 else 0 for i in range(1, len(psi))])
    corrected = set()
    for i in errata:
        x_inv = exp[(q1 - i) % q1]
        value = field.div(poly_eval(field, omega, x_inv), poly_eval(field, psi_d, x_inv))
        word[i] ^= value
        if i in errors and value:
            corrected.add(i)
    if any(code.syndromes(word)):
        return None
    return tuple(word), frozenset(corrected)


def reference_row_decode(code, mat, nodes, extra_erased=frozenset(), scale=None, context=None, need=None):
    """row_decode as one independent decode per row of every row
    (``context`` and ``need`` unused)."""
    field = code.field
    out = []
    for r in range(len(nodes)):
        word = [0] * code.n
        known = set()
        for c, node in enumerate(nodes):
            if c != r and node not in extra_erased:
                word[node] = mat[r][c] if scale is None else field.mul(mat[r][c], scale[node])
                known.add(node)
        res = reference_decode(code, word, [i for i in range(code.n) if i not in known])
        if res is None:
            out.append(None)
            continue
        codeword, _ = res
        if scale is not None:
            codeword = tuple(field.div(x, s) for x, s in zip(codeword, scale))
        out.append(codeword)
    return out


# one code per m = 3..16 (alpha = 11 shares a factor with 2^10 - 1, so
# m = 10 takes [22,11]), both flavors: full length at m = 3 and 4, so
# col_scale is all ones there, shortened vandermonde from m = 5 on
ROW_DECODE_CODES = [
    (n, k, m, flavor)
    for n, k, m in [(7, 4, 3), (15, 8, 4), (20, 10, 5), (22, 11, 6), (22, 11, 10)]
    + [(24, 12, m) for m in range(7, 17) if m != 10]
    for flavor in ("systematic", "vandermonde")
]


@pytest.mark.parametrize("n,k,m,flavor", ROW_DECODE_CODES)
def test_row_decode_matches_per_row_reference(monkeypatch, n, k, m, flavor):
    """Same codewords as decoding every row on its own, with 0 to
    capability + 2 lying columns, trial erasures, and garbage columns.
    Every fourth trial holds k + 2 nodes with one lying column, where the
    Forney stream has two terms, so Berlekamp-Massey's locators have degree
    at most 1: rows with such a locator both decode and fail."""
    params = make_params(n, k, m)
    gen = generator_set(params, flavor)
    code = gen.code_alpha
    degree_1 = []  # per row decode whose locator had degree 1: whether it decoded
    berlekamp_massey, errata = rs._berlekamp_massey, rs.ErasureContext.errata
    located = []

    def spy_berlekamp_massey(field, stream):
        lam, errs = berlekamp_massey(field, stream)
        located.append(len(lam) - 1)
        return lam, errs

    def spy_errata(context, packed, extra=None):
        located.clear()
        found = errata(context, packed, extra)
        if located == [1]:
            degree_1.append(found is not None)
        return found

    monkeypatch.setattr(rs, "_berlekamp_massey", spy_berlekamp_massey)
    monkeypatch.setattr(rs.ErasureContext, "errata", spy_errata)
    rng = random.Random(n * 31 + m)
    for trial in range(24):
        j = k + 2 if trial % 4 == 3 else rng.randrange(k, n + 1)
        nodes = tuple(rng.sample(range(n), j))
        if trial % 6 == 5:
            cols = [tuple(rng.randrange(gen.field.order) for _ in range(params.alpha)) for _ in nodes]
        else:
            message, shares = fresh_case(params, gen, rng)
            cols = [shares[i].symbols for i in nodes]
            lying = 1 if trial % 4 == 3 else min(j, rng.randrange(params.error_capability + 3))
            for b in rng.sample(range(j), lying):
                cols[b] = corrupt_symbols(rng, gen.field, cols[b])
        pair = pair_solve(gen, AccessSet(nodes=nodes, columns=tuple(cols)))
        extra = frozenset(rng.sample(nodes, rng.randrange(3))) if trial % 2 else frozenset()
        context = reconstruct._round_context(code, nodes, extra)
        for mat in (pair.p, pair.q):
            want = reference_row_decode(code, mat, nodes, extra, gen.col_scale)
            assert row_decode(code, mat, nodes, extra, gen.col_scale) == want
            assert row_decode(code, mat, nodes, extra, gen.col_scale, context) == want
    assert True in degree_1 and False in degree_1


@pytest.mark.parametrize("n,k,m", [(20, 10, 5), (24, 12, 8)])
def test_shared_locator_decodes_match_reference(monkeypatch, n, k, m):
    """A context that remembers the locator of errors E decodes like the
    reference: a word with errors on a strict subset of E reuses it without
    Berlekamp-Massey, while a liar's own row (its diagonal in E) and a word
    with one more error outside E skip it and run Berlekamp-Massey once.
    Each word computes one set of errata."""
    gen = generator_set(make_params(n, k, m))
    code = gen.code_alpha
    nsyn = code.n - code.kappa
    bm_calls, errata_calls = [], []
    berlekamp_massey, correct = rs._berlekamp_massey, rs.ErasureContext._correct
    monkeypatch.setattr(rs, "_berlekamp_massey", lambda *args: bm_calls.append(1) or berlekamp_massey(*args))
    monkeypatch.setattr(rs.ErasureContext, "_correct", lambda *args: errata_calls.append(1) or correct(*args))
    rng = random.Random(n * 7 + m)
    generator = code.systematic_generator()

    def word_with_errors(positions):
        word = code.encode([rng.randrange(code.field.order) for _ in range(code.kappa)], generator)
        for i in positions:
            word[i] ^= rng.randrange(1, code.field.order)
        return word

    for trial in range(40):
        erased = rng.sample(range(n), rng.randrange(nsyn - 6))
        known = [i for i in range(n) if i not in erased]
        # s + 2(e + 1) <= n - kappa with s = |U| + 1: one more error still decodes
        e = rng.randrange(2, (nsyn - len(erased) - 1) // 2)
        errors = rng.sample(known, e)
        clean = [i for i in known if i not in errors]
        cases = [
            ("subset", rng.sample(errors, rng.randrange(1, e)), rng.choice(clean), 0),
            ("own row", errors, rng.choice(errors), 1),
            ("outside", errors + [rng.choice(clean)], None, 1),
        ]
        for name, positions, extra, runs in cases:
            context = code.erasure_context(erased)
            primer = context.decode(word_with_errors(errors), rng.choice(clean))
            assert primer is not None and primer.corrected_positions == frozenset(errors)
            word = word_with_errors(positions)
            if extra is None:
                extra = rng.choice([i for i in clean if i not in positions])
            bm_calls.clear()
            errata_calls.clear()
            got = context.decode(word, extra)
            assert (len(bm_calls), len(errata_calls)) == (runs, 1), (trial, name)
            assert got is not None, (trial, name)
            want = reference_decode(code, word, erased + [extra])
            assert (got.codeword, got.corrected_positions) == want, (trial, name)


def test_round_reuses_the_shared_locator(monkeypatch):
    """A full-supply [24,12] over GF(2^8) round at v = 3 with 3 lying
    columns runs Berlekamp-Massey on fewer words than it has rows and
    decodes every row like the per-row reference."""
    params = make_params(24, 12, 8)
    gen = generator_set(params)
    code = gen.code_alpha
    bm_calls = []
    berlekamp_massey = rs._berlekamp_massey
    monkeypatch.setattr(rs, "_berlekamp_massey", lambda *args: bm_calls.append(1) or berlekamp_massey(*args))
    rng = random.Random(2412)
    for _ in range(4):
        message, shares = fresh_case(params, gen, rng)
        nodes = tuple(rng.sample(range(params.n), params.k + 6))
        cols = [shares[i].symbols for i in nodes]
        for b in rng.sample(range(len(nodes)), 3):
            cols[b] = corrupt_symbols(rng, gen.field, cols[b])
        pair = pair_solve(gen, AccessSet(nodes=nodes, columns=tuple(cols)))
        context = reconstruct._round_context(code, nodes, frozenset())
        bm_calls.clear()
        got = [row_decode(code, mat, nodes, frozenset(), gen.col_scale, context) for mat in (pair.p, pair.q)]
        assert 0 < len(bm_calls) < 2 * len(nodes)
        assert got == [reference_row_decode(code, mat, nodes, frozenset(), gen.col_scale) for mat in (pair.p, pair.q)]


# (n, k, m, flavor, missing shares, lying shares): supply-capped and
# beyond-capability stripes among them
PROGRESSIVE = [
    (7, 4, 3, flavor, missing, liars)
    for flavor in ("systematic", "vandermonde")
    for missing, liars in [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 1), (1, 2), (3, 0)]
] + [
    (20, 10, 5, flavor, missing, liars)
    for flavor in ("systematic", "vandermonde")
    for missing, liars in [(0, 1), (0, 3), (0, 6), (3, 2), (5, 2), (5, 3), (7, 2), (6, 1), (11, 0)]
] + [
    (24, 12, 8, flavor, missing, liars)
    for flavor in ("systematic", "vandermonde")
    for missing, liars in [(3, 3), (0, 6), (6, 3), (3, 2)]
]


def force_gate_in_attempts(monkeypatch):
    """Make _attempt_round decode rows even where its gate cannot pass.
    _gate_can_pass is forced to True only inside _attempt_round: outside it,
    it also decides whether a capped round looks for error supports, and
    that must stay as it is for the reports and traces to compare."""
    attempt, gate = reconstruct._attempt_round, reconstruct._gate_can_pass

    def forced(*args, **kwargs):
        reconstruct._gate_can_pass = lambda j, v, k: True
        try:
            return attempt(*args, **kwargs)
        finally:
            reconstruct._gate_can_pass = gate

    monkeypatch.setattr(reconstruct, "_attempt_round", forced)


def test_progressive_reports_match_reference_path(monkeypatch):
    """Over 300+ seeded stripes, reconstruct_progressive gives the same
    report and trace as the path without shared contexts, pair-solve reuse
    or the gate shortcut."""
    cases = []
    for index, (n, k, m, flavor, missing, liars) in enumerate(PROGRESSIVE):
        params = make_params(n, k, m)
        gen = generator_set(params, flavor)
        for s in range(12 if n < 20 else 8):
            cases.append((params, gen, missing, liars, 9000 + 100 * index + s))
    assert len(cases) >= 300
    fast = [run_capped(*case) for case in cases]
    solve = reconstruct.pair_solve
    monkeypatch.setattr(reconstruct, "row_decode", reference_row_decode)
    monkeypatch.setattr(reconstruct, "pair_solve", lambda gen, access, base=None: solve(gen, access))
    force_gate_in_attempts(monkeypatch)
    reference = [run_capped(*case) for case in cases]
    assert fast == reference
    assert any(report.failure_reason for _, report in fast)
    assert any(entry.erasure_trial for _, report in fast for entry in report.trace)


def test_accepted_round_inverts_once_for_both_blocks(monkeypatch):
    """[24,12] over GF(2^8) with 3 missing and 3 lying nodes: P and Q of an
    accepted round select the same alpha nodes, so recovering Z1 and Z2
    costs one inverse, not two, and the reports are unchanged."""
    params = make_params(24, 12, 8)
    gen = generator_set(params)
    cases = [(params, gen, 3, 3, 7700 + s) for s in range(10)]
    expected = [run_capped(*case) for case in cases]
    recover, invert = reconstruct.recover_z, reconstruct.invert
    rounds = []  # per recover_z call: (id of the round's memo, inverses computed)

    def spy_recover(*args):
        rounds.append((id(args[4]), 0))
        return recover(*args)

    def spy_invert(*args):
        if rounds:
            memo, count = rounds[-1]
            rounds[-1] = (memo, count + 1)
        return invert(*args)

    monkeypatch.setattr(reconstruct, "recover_z", spy_recover)
    monkeypatch.setattr(reconstruct, "invert", spy_invert)
    for case, reference in zip(cases, expected):
        rounds.clear()
        assert run_capped(*case) == reference
        assert reference[1].success and reference[1].rounds > 0
        # the last two recover_z calls are the accepted round's P and Q
        (p_memo, p_count), (q_memo, q_count) = rounds[-2:]
        assert p_memo == q_memo
        assert (p_count, q_count) == (1, 0)


def test_blocks_stop_decoding_once_their_gate_cannot_pass(monkeypatch):
    """[24,12] over GF(2^8) at v = 3 with j = 18 nodes, where a column is
    erroneous from need = j - v - k + 2 = 5 disagreeing rows on: a block of
    garbage rows, none of which decodes, stops after j - need + 1 = 14
    failed rows.  A garbage P block records gate; a P block with 3 lying
    columns, which passes, and a garbage Q block record agreement.  Each
    round records what it records when every row is decoded."""
    params = make_params(24, 12, 8)
    gen = generator_set(params)
    v, j = 3, 18
    need = j - v - params.k + 2
    rng = random.Random("early exit")
    message, shares = fresh_case(params, gen, rng)
    nodes = tuple(rng.sample(range(params.n), j))
    cols = [shares[i].symbols for i in nodes]
    for b in rng.sample(range(j), v):
        cols[b] = corrupt_symbols(rng, gen.field, cols[b])
    lying = pair_solve(gen, AccessSet(nodes=nodes, columns=tuple(cols)))
    junk = tuple(tuple(rng.randrange(gen.field.order) for _ in range(params.alpha)) for _ in nodes)
    garbage = pair_solve(gen, AccessSet(nodes=nodes, columns=junk))
    decoded = []  # per row: whether it decoded
    errata, decode = rs.ErasureContext.errata, reconstruct.row_decode

    def spy_errata(*args):
        found = errata(*args)
        decoded.append(found is not None)
        return found

    monkeypatch.setattr(rs.ErasureContext, "errata", spy_errata)
    for pair, outcome, full_blocks in [(garbage, "gate", 0), (dataclasses.replace(lying, q=garbage.q), "agreement", 1)]:
        runs = []
        for row_decode_of_round in (decode, lambda *args: decode(*args[:6])):  # with need, then without
            monkeypatch.setattr(reconstruct, "row_decode", row_decode_of_round)
            decoded.clear()
            trace = []
            assert _attempt_round(gen, pair, v, trace) is None
            runs.append((trace, list(decoded)))
        (trace, stopped), (full_trace, full) = runs
        assert trace == full_trace == [reconstruct.RoundTrace(v, j, outcome)]
        assert len(full) == j * (full_blocks + 1)
        assert stopped[: j * full_blocks] == full[: j * full_blocks]
        last = stopped[j * full_blocks :]
        assert last == [False] * (j - need + 1), outcome


def test_gate_impossible_rounds_skip_row_decoding(monkeypatch):
    """[20,10] over GF(2^5) with 7 missing and 3 lying nodes, beyond
    capability: the rounds at j = 13 and v = 3..5 cannot pass the gate, so
    they no longer decode rows, and report and trace are unchanged."""
    calls = []
    attempt, decode = reconstruct._attempt_round, reconstruct.row_decode

    def spy_attempt(gen, pair, v, *args, **kwargs):
        calls.append((v, len(pair.nodes), 0))
        return attempt(gen, pair, v, *args, **kwargs)

    def spy_decode(code, mat, nodes, *args):
        v, j, count = calls[-1]
        calls[-1] = (v, j, count + 1)
        return decode(code, mat, nodes, *args)

    monkeypatch.setattr(reconstruct, "_attempt_round", spy_attempt)
    monkeypatch.setattr(reconstruct, "row_decode", spy_decode)
    seed = 20 * 1000 + 7 * 10 + 3
    message, report = run_capped(P20, GEN20, 7, 3, seed)
    assert not report.success
    decoded = {(v, j) for v, j, count in calls if count}
    assert {(v, 13) for v in (3, 4, 5)}.isdisjoint(decoded)
    assert any(v == 3 and j == 13 for v, j, _ in calls)

    force_gate_in_attempts(monkeypatch)
    calls.clear()
    assert run_capped(P20, GEN20, 7, 3, seed) == (message, report)
    assert {(v, j) for v, j, count in calls if count} >= {(v, 13) for v in (3, 4, 5)}


@pytest.mark.parametrize("n,k,m", [(7, 4, 3), (20, 10, 5), (24, 12, 8)])
def test_pair_solve_extends_a_prefix(n, k, m):
    """Extending the previous round's PairSolve by new nodes gives the
    from-scratch result, on encodings with lying columns and on garbage."""
    params = make_params(n, k, m)
    gen = generator_set(params)
    rng = random.Random(n + m)
    for trial in range(10):
        nodes = tuple(rng.sample(range(n), rng.randrange(k, n + 1)))
        if trial % 2:
            cols = [tuple(rng.randrange(gen.field.order) for _ in range(params.alpha)) for _ in nodes]
        else:
            message, shares = fresh_case(params, gen, rng)
            cols = [shares[i].symbols for i in nodes]
            for b in rng.sample(range(len(nodes)), 2):
                cols[b] = corrupt_symbols(rng, gen.field, cols[b])
        full = AccessSet(nodes=nodes, columns=tuple(cols))
        expected = pair_solve(gen, full)
        for held in sorted({2, k, len(nodes) - 1, len(nodes)}):
            base = pair_solve(gen, AccessSet(nodes=nodes[:held], columns=tuple(cols[:held])))
            assert pair_solve(gen, full, base) == expected
    with pytest.raises(ValueError):
        pair_solve(gen, full, pair_solve(gen, AccessSet(nodes=nodes[1:3], columns=tuple(cols[1:3]))))


def reference_pair_solve(gen, access):
    """Reference for pair_solve: each pair's m_rc and m_cr as two scalar
    dot products of a node's Gbar column with the other node's column."""
    nodes, field = access.nodes, gen.field
    j = len(nodes)
    p = [[None] * j for _ in range(j)]
    q = [[None] * j for _ in range(j)]
    for r in range(j):
        for c in range(r + 1, j):
            m_rc = gf_dot(field, gen.gbar_cols[nodes[r]], access.columns[c])
            m_cr = gf_dot(field, gen.gbar_cols[nodes[c]], access.columns[r])
            q[r][c] = q[c][r] = field.mul(m_rc ^ m_cr, field.inv(gen.delta[nodes[c]] ^ gen.delta[nodes[r]]))
            p[r][c] = p[c][r] = m_rc ^ field.mul(q[r][c], gen.delta[nodes[c]])
    return p, q


@pytest.mark.parametrize("flavor", ["systematic", "vandermonde"])
@pytest.mark.parametrize("n,k,m", [(3, 2, 2), (7, 4, 3), (20, 10, 5), (24, 12, 8), (20, 10, 11), (18, 9, 16)])
def test_pair_solve_matches_scalar_reference(n, k, m, flavor):
    """pair_solve through gen.gbar_map, from scratch and extended from a
    prefix, gives the scalar reference's P and Q on garbage columns, fresh
    encodings and encodings with corrupted columns, over GF(2^2) to
    GF(2^16)."""
    params = make_params(n, k, m)
    gen = generator_set(params, flavor)
    rng = random.Random(f"pair:{n}:{k}:{m}:{flavor}")
    with_crc = crc_trailer_length(m) < params.B  # [3,2]/GF(2^2) has no room for a payload
    for kind in ("garbage", "fresh", "corrupt") * 3:
        # at least three nodes, so that a prefix of two or more is shorter
        nodes = tuple(rng.sample(range(n), rng.randrange(max(k, 3), n + 1)))
        if kind == "garbage":
            cols = [tuple(rng.randrange(gen.field.order) for _ in range(params.alpha)) for _ in nodes]
        else:
            message, shares = fresh_case(params, gen, rng, with_crc)
            cols = [shares[i].symbols for i in nodes]
            if kind == "corrupt":
                for b in rng.sample(range(len(nodes)), rng.randint(1, 3)):
                    cols[b] = corrupt_symbols(rng, gen.field, cols[b])
        access = AccessSet(nodes=nodes, columns=tuple(cols))
        held = rng.randrange(2, len(nodes))
        prefix = AccessSet(nodes=nodes[:held], columns=tuple(cols[:held]))
        base = pair_solve(gen, prefix)
        for pair, solved in ((base, prefix), (pair_solve(gen, access), access), (pair_solve(gen, access, base), access)):
            assert ([list(row) for row in pair.p], [list(row) for row in pair.q]) == reference_pair_solve(gen, solved)


@pytest.mark.parametrize(
    "n,k,m,missing,liars",
    [(24, 12, 8, 3, 3), (20, 10, 5, 7, 2)],
    ids=["byzantine-full-supply", "degraded-supply-capped"],
)
def test_failed_first_round_maps_each_column_once(monkeypatch, n, k, m, missing, liars):
    """A stripe whose staged v = 0 round fails hands that round's pair
    solve to v = 1, so every column it holds goes through gen.gbar_map once
    over all its rounds and erasure trials: its first k columns are not
    mapped again at v = 1."""
    params = make_params(n, k, m)
    gen = generator_set(params)
    packed = gen.gbar_map.packed
    mapped = []
    monkeypatch.setattr(gen.gbar_map, "packed", lambda xs, indices: mapped.append(xs) or packed(xs, indices))
    failed_first = 0
    for seed in range(12):
        mapped.clear()
        _, report = run_capped(params, gen, missing, liars, 4400 + seed)
        if report.trace[0].outcome == "accepted":
            continue
        failed_first += 1
        assert report.rounds >= 1
        assert len(mapped) == report.nodes_accessed
    assert failed_first >= 6


# ---------------------------------------------------------------------------
# file-level read session against per-stripe progressive reads


def file_source(gen, stripes, missing=frozenset(), liars=None, gaps=frozenset()):
    """source(node, stripe) over encoded stripes.  Missing nodes give None;
    liars[node] is the first stripe from which the node returns seeded
    garbage; a (node, stripe) pair in gaps gives None for that stripe only."""
    liars = liars or {}

    def source(node, stripe):
        if node in missing or (node, stripe) in gaps:
            return None
        column = stripes[stripe][node].symbols
        if stripe >= liars.get(node, len(stripes)):
            return corrupt_symbols(random.Random(f"{node}:{stripe}"), gen.field, column)
        return column

    return source


def progressive_read(params, gen, source, stripe, seed):
    rng = random.Random(f"{seed}:stripe:{stripe}")
    return reconstruct_progressive(gen, lambda node: source(node, stripe), rng)


def per_stripe_reads(params, gen, source, stripe_count, seed):
    """The reference: every stripe through reconstruct_progressive, up to
    the first failure; returns the messages and the failing report."""
    messages = []
    for s in range(stripe_count):
        report = progressive_read(params, gen, source, s, seed)
        if not report.success:
            return messages, report
        messages.append(report.recovered_message)
    return messages, None


# id -> (n, k, m, flavor, stripes, missing, liars from stripe 0,
#        (liars, from stripe) drawn anywhere, a trusted node lying from stripe,
#        (a trusted node, the one stripe it is missing))
SESSION_CASES = {
    "clean-systematic": (20, 10, 5, "systematic", 6, 0, 0, None, None, None),
    "lying-systematic": (20, 10, 5, "systematic", 6, 2, 3, None, None, None),
    "capability-vandermonde": (20, 10, 5, "vandermonde", 5, 0, 5, None, None, None),
    "late-liar-vandermonde": (20, 10, 5, "vandermonde", 6, 3, 1, None, 3, None),
    "gap-systematic": (20, 10, 5, "systematic", 6, 1, 2, None, None, 2),
    "byzantine-24-12": (24, 12, 8, "systematic", 8, 3, 3, None, None, None),
    "late-liar-24-12": (24, 12, 8, "systematic", 8, 3, 2, None, 2, None),
    "gap-24-12": (24, 12, 8, "systematic", 8, 3, 2, None, None, 5),
    "beyond-capability": (20, 10, 5, "systematic", 4, 0, 6, None, None, None),
    "beyond-from-stripe-2": (20, 10, 5, "vandermonde", 5, 0, 0, (11, 2), None, None),
    # long enough that decoder_mode composes the trusted set's decoder, so a
    # composed decoder meets a lying or a missing node
    "long-late-liar": (20, 10, 5, "systematic", 16, 0, 2, None, 2, None),
    "long-gap": (20, 10, 5, "vandermonde", 14, 1, 1, None, None, 3),
}


def session_code(case):
    """A SESSION_CASES case's parameters, generator set, stripe count, and
    the stripes its late liar and its gap start at."""
    n, k, m, flavor, stripe_count, _, _, _, late, gap = SESSION_CASES[case]
    params = make_params(n, k, m)
    return params, generator_set(params, flavor), stripe_count, late, gap


def session_case(case, seed):
    """A SESSION_CASES case's messages, liars and source(node, stripe)."""
    n, k, m, flavor, stripe_count, missing, lying, spread, late, gap = SESSION_CASES[case]
    params, gen, _, _, _ = session_code(case)
    rng = random.Random(f"{case}:{seed}")
    messages, stripes = zip(*(fresh_case(params, gen, rng) for _ in range(stripe_count)))
    drawn = rng.sample(range(n), missing + lying)
    liars = dict.fromkeys(drawn[missing:], 0)
    if spread:
        liars.update(dict.fromkeys(rng.sample(range(n), spread[0]), spread[1]))
    gaps = set()
    if late or gap:
        # stripe 0 is read the same way by both paths, so its report
        # names the session's first trusted set
        first = progressive_read(params, gen, file_source(gen, stripes, set(drawn[:missing]), liars), 0, seed)
        trusted = [node for node in first.accessed_nodes if node not in first.erroneous_nodes][:k]
        if late:
            liars[trusted[0]] = late
        if gap:
            gaps.add((trusted[-1], gap))
    return messages, liars, file_source(gen, stripes, set(drawn[:missing]), liars, gaps)


@pytest.mark.parametrize("case", sorted(SESSION_CASES))
def test_read_session_matches_per_stripe_progressive(case):
    """reconstruct_file returns the messages of per-stripe
    reconstruct_progressive runs and fails at the same stripe with the same
    reason.  A trusted node that starts lying, or misses one stripe, sends
    exactly that stripe to the progressive path."""
    params, gen, stripe_count, late, gap = session_code(case)
    for seed in range(3):
        messages, liars, source = session_case(case, seed)
        session = reconstruct.reconstruct_file(gen, source, stripe_count, seed)
        expected, failure = per_stripe_reads(params, gen, source, stripe_count, seed)
        assert session.messages == expected
        assert session.success == (failure is None)
        if failure is None:
            assert expected == list(messages)
        else:
            assert max(session.progressive) == len(expected)
            assert session.progressive[len(expected)].failure_reason == failure.failure_reason
        # a stripe sent to the progressive path is read as it would be alone
        for s, report in session.progressive.items():
            assert report == progressive_read(params, gen, source, s, seed)
        assert 0 in session.progressive
        if session.success:
            # a trusted node that starts lying or misses a stripe costs that
            # stripe alone a progressive read; the stripes after it come from
            # the new trusted set, which leaves the node out
            assert list(session.progressive) == [0] + [stripe for stripe in (late, gap) if stripe]
        assert session.trusted_stripes == len(session.messages) - sum(r.success for r in session.progressive.values())
        assert session.bad_nodes <= set(liars)


def test_decoder_builds_one_map_of_g_inverse_in_every_mode(monkeypatch):
    """A KNodeDecoder used staged, then paired, then composed builds one
    alpha x alpha LinearMap, its peel map of G^-1, which the pair map reads,
    and every mode decodes a fresh encoding to its message."""
    gen = generator_set(P20)
    alpha = P20.alpha
    shapes = []
    init = LinearMap.__init__

    def spy_init(self, field, matrix):
        shapes.append((len(matrix), len(matrix[0])))
        init(self, field, matrix)

    monkeypatch.setattr(LinearMap, "__init__", spy_init)
    rng = random.Random("one g inverse")
    decoder = KNodeDecoder(gen, rng.sample(range(P20.n), P20.k))
    for mode in ("staged", "paired", "composed"):
        if mode == "paired":
            decoder.pair_map
        elif mode == "composed":
            decoder.compose()
        assert decoder_mode(decoder) == mode
        message, shares = fresh_case(P20, gen, rng)
        assert decoder.decode([shares[node].symbols for node in decoder.nodes]) == message
    assert shapes.count((alpha, alpha)) == 1


def decoder_mode(decoder):
    if decoder.composed is not None:
        return "composed"
    return "paired" if "pair_map" in vars(decoder) else "staged"


def spy_on_decoders(monkeypatch):
    """Record, on KNodeDecoder, the mode of every bitstream() call and every
    pair map built outside compose() as (nodes, inside a progressive read)."""
    modes, builds, inside = [], [], []
    bitstream, compose = KNodeDecoder.bitstream, KNodeDecoder.compose
    build_pair_map = KNodeDecoder.__dict__["pair_map"].func
    progressive = reconstruct.reconstruct_progressive

    def spy_bitstream(decoder, cols):
        modes.append(decoder_mode(decoder))
        return bitstream(decoder, cols)

    def spy_compose(decoder):
        inside.append("compose")
        try:
            return compose(decoder)
        finally:
            inside.pop()

    def spy_pair_map(decoder):
        if "compose" not in inside:
            builds.append((decoder.nodes, "progressive" in inside))
        return build_pair_map(decoder)

    def spy_progressive(*args, **kwargs):
        inside.append("progressive")
        try:
            return progressive(*args, **kwargs)
        finally:
            inside.pop()

    pair_map = functools.cached_property(spy_pair_map)
    pair_map.__set_name__(KNodeDecoder, "pair_map")
    monkeypatch.setattr(KNodeDecoder, "bitstream", spy_bitstream)
    monkeypatch.setattr(KNodeDecoder, "compose", spy_compose)
    monkeypatch.setattr(KNodeDecoder, "pair_map", pair_map)
    monkeypatch.setattr(reconstruct, "reconstruct_progressive", spy_progressive)
    return modes, builds


def first_count(params, mode, first=False):
    """The fewest stripes for which reconstruct.decoder_mode picks mode."""
    return next(count for count in itertools.count(1) if reconstruct.decoder_mode(params, count, first) == mode)


@pytest.mark.parametrize(
    "n,k,m,stripes,first,mode",
    [
        (20, 10, 5, 20, True, "composed"),  # clean-rw's 1 KiB read
        (24, 12, 8, 8, True, "staged"),  # byzantine-read's 1 KiB read
        (24, 12, 8, 7, False, "paired"),  # and its trusted sets
        (20, 10, 5, 4, True, "staged"),  # degraded-read's 200-byte read
        (20, 10, 5, 3, False, "paired"),
        (60, 30, 8, 3, False, "staged"),
        (60, 30, 8, 23, False, "paired"),
    ],
)
def test_decoder_mode_picks(n, k, m, stripes, first, mode):
    """decoder_mode's picks on the benchmark's three shapes, whose modes it
    keeps, and on [60,30]/GF(2^8), where the per-m cut-offs it replaced
    paired from 3 stripes and composed from 23, at 2.1 and 2.7 times the
    cheapest mode's cost."""
    assert reconstruct.decoder_mode(make_params(n, k, m), stripes, first) == mode


def test_read_session_composes_with_enough_stripes_left(monkeypatch):
    """Stripe 0's first round composes its decoder exactly when
    decoder_mode(first=True) says so, and is never paired: no pair map is
    built inside a progressive read but by compose().  Each later trusted
    set's decoder is staged, paired or composed by decoder_mode at the
    stripes left after the stripe that names it, on both sides of each of its
    cut-offs, at m = 5 and 8.  A clean read trusts stripe 0's first k
    nodes, so its stripes, stripe 0 included, go through stripe 0's
    composed map when it has one; with 3 liars the first round usually
    fails, and the nodes later rounds trust get a decoder of their own.
    Every stripe is decoded once, and decoder_mode is asked once per
    decoder: for stripe 0's first round, and for the trusted set when
    stripe 0 names it, with the stripes after stripe 0."""
    modes, builds = spy_on_decoders(monkeypatch)
    asked = []
    decoder_mode = reconstruct.decoder_mode

    def spy_decoder_mode(params, stripes, first=False):
        asked.append((stripes, first))
        return decoder_mode(params, stripes, first)

    monkeypatch.setattr(reconstruct, "decoder_mode", spy_decoder_mode)
    for n, k, m, flavor in [(20, 10, 5, "systematic"), (24, 12, 8, "vandermonde")]:
        params = make_params(n, k, m)
        gen = generator_set(params, flavor)
        paired, composed = first_count(params, "paired"), first_count(params, "composed")
        first = first_count(params, "composed", first=True)
        assert 1 < paired < composed and first < composed
        # a file of count stripes has count - 1 left at its first trusted stripe
        counts = {paired, paired + 1, composed, composed + 1, first - 1, first}
        rng = random.Random(f"modes:{m}")
        messages, stripes = zip(*(fresh_case(params, gen, rng) for _ in range(max(counts))))
        for liars in (0, 3):
            lying = dict.fromkeys(rng.sample(range(n), liars), 0)
            for count in sorted(counts):
                modes.clear(), builds.clear(), asked.clear()
                session = reconstruct.reconstruct_file(gen, file_source(gen, stripes, liars=lying), count, 5)
                assert session.messages == list(messages[:count])
                assert list(session.progressive) == [0] and session.trusted_stripes == count - 1
                left = count - 1
                expected = decoder_mode(params, left)
                stripe_0 = ["composed"] if count >= first else []
                if stripe_0 and session.progressive[0].rounds == 0:
                    expected = "composed"  # the trusted set is stripe 0's first k nodes
                assert modes == stripe_0 + [expected] * left, (m, liars, count)
                assert asked == [(count, True), (left, False)]
                report = session.progressive[0]
                trusted = [node for node in report.accessed_nodes if node not in report.erroneous_nodes][:k]
                assert builds == ([(tuple(trusted), False)] if expected == "paired" else [])


def test_stripe_0_composes_below_the_trusted_cut_off(monkeypatch):
    """Stripe 0's first round composes from fewer stripes than a trusted
    set composes from: composing stripe 0 also saves its staged decode and
    gen.gbar_map's build.  At [15,8]/GF(2^4) decoder_mode composes the
    first round of a clean read of 3 stripes, for which a trusted set
    pairs, and one stripe fewer composes nothing."""
    params = make_params(15, 8, 4)
    gen = generator_set(params)
    first = first_count(params, "composed", first=True)
    assert first == 3 and first < first_count(params, "composed")
    composed = []
    compose = KNodeDecoder.compose
    monkeypatch.setattr(KNodeDecoder, "compose", lambda decoder: composed.append(decoder.nodes) or compose(decoder))
    rng = random.Random("compose-first-15-8")
    for count, composes in [(first - 1, False), (first, True)]:
        messages, stripes = zip(*(fresh_case(params, gen, rng) for _ in range(count)))
        composed.clear()
        session = reconstruct.reconstruct_file(gen, file_source(gen, stripes), count, 1)
        assert session.messages == list(messages) and session.trusted_stripes == count - 1
        assert len(composed) == composes, count


@pytest.mark.parametrize("case", sorted(SESSION_CASES))
def test_read_session_is_the_same_in_every_mode(monkeypatch, case):
    """reconstruct_file returns the same FileReport, messages and
    progressive reports alike, whether decoder_mode makes every decoder
    staged, paired or composed, stripe 0's first round included, on
    prefixes of each session case on both sides of decoder_mode's
    cut-offs: a trusted stripe that a lying or missing node spoils goes
    progressive in every mode."""
    params, gen, stripe_count, _, _ = session_code(case)
    _, _, source = session_case(case, 0)
    paired, composed = first_count(params, "paired"), first_count(params, "composed")
    counts = {1, paired, paired + 1, composed, composed + 1, stripe_count}
    for count in sorted(c for c in counts if c <= stripe_count):
        expected = reconstruct.reconstruct_file(gen, source, count, 0)
        for mode in ("staged", "paired", "composed"):
            with monkeypatch.context() as patch:
                patch.setattr(reconstruct, "decoder_mode", lambda params, stripes, first=False: mode)
                assert reconstruct.reconstruct_file(gen, source, count, 0) == expected, (count, mode)


def test_lying_trusted_column_sends_a_paired_stripe_to_progressive(monkeypatch):
    """With 7 stripes left at m = 8 the trusted set's decoder is paired; a
    trusted node that starts lying at stripe 2 makes that stripe's paired
    bitstream fail check_crc, so the stripe is read progressively, and the
    5 stripes left after it come from a new trusted set, paired again."""
    params, gen, stripe_count, late, _ = session_code("late-liar-24-12")
    left = stripe_count - 1
    assert (stripe_count, late) == (8, 2)
    assert reconstruct.decoder_mode(params, left) == reconstruct.decoder_mode(params, left - late) == "paired"
    modes, builds = spy_on_decoders(monkeypatch)
    for seed in range(3):
        modes.clear(), builds.clear()
        messages, _, source = session_case("late-liar-24-12", seed)
        session = reconstruct.reconstruct_file(gen, source, stripe_count, seed)
        assert session.messages == list(messages)
        # stripe 2 was decoded paired, like every trusted stripe, and then
        # read progressively: its bitstream failed check_crc
        assert modes == ["paired"] * (stripe_count - 1)
        assert list(session.progressive) == [0, late]
        (old, old_inside), (new, new_inside) = builds
        assert old != new and not old_inside and not new_inside


def test_read_session_keeps_one_inverse(monkeypatch):
    """A 24-stripe [20,10] read with 2 liars and 2 nodes missing from each
    stripe, drawn afresh, whose trusted set fails again and again: every
    round of the read hands recover_z the session's one memo, which never
    holds more than one inverse, and the read decodes as the per-stripe
    reference does."""
    rng = random.Random("one inverse")
    stripe_count = 24
    messages, stripes = zip(*(fresh_case(P20, GEN20, rng) for _ in range(stripe_count)))
    liars = dict.fromkeys(rng.sample(range(P20.n), 2), 0)
    gaps = {(node, s) for s in range(stripe_count) for node in rng.sample(range(P20.n), 2)}
    source = file_source(GEN20, stripes, liars=liars, gaps=gaps)
    memos, sizes = set(), []
    recover = reconstruct.recover_z

    def spy_recover(*args):
        memos.add(id(args[4]))
        try:
            return recover(*args)
        finally:
            sizes.append(len(args[4]))

    monkeypatch.setattr(reconstruct, "recover_z", spy_recover)
    session = reconstruct.reconstruct_file(GEN20, source, stripe_count, 11)
    assert session.messages == list(messages)
    assert len(session.progressive) >= 8
    assert len(memos) == 1 and max(sizes) == 1


def test_read_session_reads_only_the_trusted_nodes():
    """After stripe 0, a clean file is read from its k trusted nodes alone."""
    gen = GEN20
    rng = random.Random(77)
    stripes = [fresh_case(P20, gen, rng)[1] for _ in range(6)]
    requested = []
    inner = file_source(gen, stripes)

    def source(node, stripe):
        requested.append((node, stripe))
        return inner(node, stripe)

    session = reconstruct.reconstruct_file(gen, source, 6, 3)
    assert session.success and session.trusted_stripes == 5
    first = [node for node, stripe in requested if stripe == 0]
    assert len(first) == P20.k
    for s in range(1, 6):
        assert [node for node, stripe in requested if stripe == s] == first


# ---------------------------------------------------------------------------
# systematic_message: one stripe in closed form from the systematic nodes,
# checked against the seeded message, a re-encode and the staged decode


def systematic_codes(with_payload=True):
    """(params, gen) of every systematic code make_params accepts with
    n <= 24, m = 2..16, that has (or, with with_payload False, lacks) room
    for a payload after the CRC trailer; one Field per m."""
    for m in range(2, 17):
        field = None
        for n in range(3, min(24, (1 << m) - 1) + 1):
            for k in range(2, (n + 1) // 2 + 1):
                try:
                    params = make_params(n, k, m)
                except InvalidParams:
                    continue
                try:
                    crc_payload_length(params)
                except WrongLength:
                    if with_payload:
                        continue
                else:
                    if not with_payload:
                        continue
                field = field or Field(m)
                yield params, generator_set(params, field=field)


def test_systematic_message_matches_every_reference():
    """On every systematic code with room for a payload, the decode from
    the alpha systematic nodes and parity node 0 gives the seeded message;
    re-encoding it gives every node's column; a staged KNodeDecoder over
    the same k nodes gives it too.  With every parity node but the last
    missing, it reads that one and still decodes.  It asks for the
    systematic nodes in order, then the parity nodes from 0 up to the first
    one there."""
    codes = 0
    for params, gen in systematic_codes():
        n, alpha = params.n, params.alpha
        first = n - alpha
        rng = random.Random(f"systematic:{n}:{params.k}:{params.m}")
        for _ in range(2):
            message, shares = fresh_case(params, gen, rng)
            columns = [share.symbols for share in shares]
            asked = []
            got = reconstruct.systematic_message(gen, lambda node: asked.append(node) or columns[node])
            assert got == message, (n, params.k, params.m)
            assert asked == [*range(first, n), 0]
            assert [share.symbols for share in encode_all(gen, got)] == columns
            nodes = (*range(first, n), 0)
            assert KNodeDecoder(gen, nodes).decode([columns[node] for node in nodes]) == message

            asked.clear()
            last_parity = lambda node: asked.append(node) or (columns[node] if node >= first - 1 else None)
            assert reconstruct.systematic_message(gen, last_parity) == message
            assert asked == [*range(first, n), *range(first)]
        codes += 1
    assert codes > 900  # m = 3..16; m = 2 has one code, [3,2], with no room


def test_systematic_message_at_alpha_1(monkeypatch):
    """k = 2 (alpha = 1) leaves no room for a payload at any m: B = 2
    symbols against a trailer of at least 2.  So, with check_crc accepting
    everything, the decode of a seeded message with no pairs, only the
    diagonal, is checked against the message and the staged decode."""
    monkeypatch.setattr(reconstruct, "check_crc", lambda params, message: True)
    codes = 0
    for params, gen in systematic_codes(with_payload=False):
        if params.k != 2:
            continue
        rng = random.Random(f"alpha-1:{params.n}:{params.m}")
        message, shares = fresh_case(params, gen, rng, with_crc=False)
        columns = [share.symbols for share in shares]
        assert reconstruct.systematic_message(gen, columns.__getitem__) == message
        nodes = (params.n - 1, 0)
        assert KNodeDecoder(gen, nodes).decode([columns[node] for node in nodes]) == message
        codes += 1
    assert codes == sum(min(24, (1 << m) - 1) - 2 for m in range(2, 17))


def test_systematic_message_returns_none_for_the_fallback():
    """None, for the progressive decoder to take over: a flipped bit in any
    systematic column fails check_crc, a missing systematic node stops the
    reads there, and with every parity node missing there is no diagonal.
    A vandermonde code is never read."""
    for params, gen in systematic_codes():
        n, alpha, m = params.n, params.alpha, params.m
        first = n - alpha
        rng = random.Random(f"fallback:{n}:{params.k}:{m}")
        _, shares = fresh_case(params, gen, rng)
        columns = [share.symbols for share in shares]
        for node in range(first, n):
            row, bit = rng.randrange(alpha), rng.randrange(m)
            flipped = list(columns)
            flipped[node] = tuple(x ^ (1 << bit) * (r == row) for r, x in enumerate(columns[node]))
            assert reconstruct.systematic_message(gen, flipped.__getitem__) is None, (n, params.k, m, node)

            asked = []
            missing = lambda t: asked.append(t) or (None if t == node else columns[t])
            assert reconstruct.systematic_message(gen, missing) is None
            assert asked == list(range(first, node + 1))
        no_parity = lambda t: columns[t] if t >= first else None
        assert reconstruct.systematic_message(gen, no_parity) is None

    gen = generator_set(P20, "vandermonde")
    assert reconstruct.systematic_message(gen, lambda node: pytest.fail("read a vandermonde node")) is None
