"""Progressive reconstruction: pair solve, row decode, classification, CRC,
and end-to-end fault injection."""

import itertools
import math
import random
import zlib

import pytest

from msrcode import reconstruct, rs
from msrcode.bits import symbols_to_bytes, symbols_to_int
from msrcode.linalg import LinearMap, gf_dot
from msrcode.msr import encode_all, generator_set, make_params
from msrcode.reconstruct import (
    AccessSet,
    KNodeDecoder,
    RowDecode,
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
        rd = rows[r]
        assert rd.decoded and rd.corrected == frozenset()
        assert list(rd.codeword) == p_true[nr]


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
            rd = rows[r]
            assert rd.decoded
            assert list(rd.codeword) == p_true[nr]
            assert rd.corrected <= {nodes[bad_pos]}


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
        assert "g_map" not in vars(gen) and not gen.repair_maps


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
                assert _k_node_round(decoder, access, closed_trace) == expected
                assert closed_trace == general_trace
                assert ((decoded, frozenset()) if accept(params, decoded) else None) == expected
            if stripe % 2 == 0 and not bad:
                assert expected == (message, frozenset())


@pytest.mark.parametrize("n,k,m,flavor", K_NODE_CODES + [(20, 10, 11, "systematic")])
def test_composed_decode_matches_staged_decode(n, k, m, flavor):
    """compose() folds the staged decode into one map: on garbage columns,
    fresh encodings and encodings with 1 or 2 corrupt columns, the composed
    decoder returns exactly the staged decoder's message, and its bitstream
    is that message packed MSB-first."""
    params = make_params(n, k, m)
    gen = generator_set(params, flavor)
    rng = random.Random(f"compose:{n}:{k}:{m}:{flavor}")
    for _ in range(4):
        nodes = tuple(rng.sample(range(n), k))
        staged, composed = KNodeDecoder(gen, nodes), KNodeDecoder(gen, nodes)
        composed.compose()
        assert staged.composed is None and composed.composed is not None
        composed.gbar_map = composed.peel_map = None  # the staged body must not run
        for kind in ("garbage", "fresh", "corrupt") * 4:
            if kind == "garbage":
                cols = [tuple(rng.randrange(gen.field.order) for _ in range(params.alpha)) for _ in nodes]
            else:
                message, shares = fresh_case(params, gen, rng)
                cols = [shares[i].symbols for i in nodes]
                if kind == "corrupt":
                    for b in rng.sample(range(k), rng.randint(1, 2)):
                        cols[b] = corrupt_symbols(rng, gen.field, cols[b])
            expected = staged.decode(cols)
            assert composed.bitstream(cols) == symbols_to_int(expected, m) == staged.bitstream(cols)
            assert composed.decode(cols) == expected
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
    monkeypatch.setattr(
        reconstruct,
        "_k_node_round",
        lambda decoder, access, trace: _attempt_round(gen, pair_solve(gen, access), 0, trace),
    )
    general = [run_injected(P20, gen, bad, seed) for bad, seed in runs]
    assert closed == general


# ---------------------------------------------------------------------------
# syndrome-ranked erasure trials on supply-capped rounds


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


def scored_order(gen, pair, v):
    """Reference for _trial_order: the score straight from its definition,
    one Forney-syndrome product per row and support."""
    code = gen.code_alpha
    nodes = pair.nodes
    j = len(nodes)
    head = code.n - j + 1
    syndromes = []
    for r in range(j):
        word = [0] * code.n
        for c in range(j):
            if c != r:
                word[nodes[c]] = gen.field.mul(pair.p[r][c], gen.col_scale[nodes[c]])
        erased = [i for i in range(code.n) if i not in nodes] + [nodes[r]]
        syndromes.append(code.forney_syndromes(code.syndromes(word), code.locator(erased)))

    def score(support):
        gamma = code.locator([nodes[c] for c in support])
        return sum(
            1
            for r in range(j)
            if r not in support and not any(code.forney_syndromes(syndromes[r], gamma)[head + v :])
        )

    return sorted(itertools.combinations(range(j), v), key=lambda support: -score(support))


@pytest.mark.parametrize(
    "n,k,m,flavor",
    [(7, 4, 3, "systematic"), (20, 10, 5, "systematic"), (20, 10, 5, "vandermonde"), (24, 12, 8, "systematic")],
)
def test_trial_order_matches_scored_reference(n, k, m, flavor):
    """Same order as scoring every support directly, on capped rounds with
    0 to v + 1 lying columns and on garbage columns."""
    params = make_params(n, k, m)
    gen = generator_set(params, flavor)
    rng = random.Random(n * 100 + m)
    checked = 0
    while checked < 12:
        v = rng.randrange(1, params.error_capability + 1)
        j = rng.randrange(k + 1, min(k + 2 * v, n + 1))
        if j - k - v <= 0 or math.comb(j, v) > 1000:
            continue
        nodes = tuple(rng.sample(range(n), j))
        if checked % 4 == 3:
            cols = [tuple(rng.randrange(gen.field.order) for _ in range(params.alpha)) for _ in nodes]
        else:
            message, shares = fresh_case(params, gen, rng)
            cols = [shares[i].symbols for i in nodes]
            for b in rng.sample(range(j), rng.randrange(min(v + 2, j))):
                cols[b] = corrupt_symbols(rng, gen.field, cols[b])
        pair = pair_solve(gen, AccessSet(nodes=nodes, columns=tuple(cols)))
        context = reconstruct._round_context(gen.code_alpha, nodes, ())
        assert reconstruct._trial_order(gen, pair, v, context) == scored_order(gen, pair, v)
        checked += 1


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
]


@pytest.mark.parametrize("n,k,m,flavor,missing,liars,seeds", CAPPED)
def test_ranked_trials_report_like_plain_enumeration(monkeypatch, n, k, m, flavor, missing, liars, seeds):
    """Ranking only reorders the trials: reports are identical to the plain
    itertools.combinations order, and a stripe that fails tried the same
    supports."""
    params = make_params(n, k, m)
    gen = generator_set(params, flavor)
    seeds = [n * 1000 + missing * 10 + liars + 7 * s for s in seeds]
    ranked = [run_capped(params, gen, missing, liars, seed) for seed in seeds]
    monkeypatch.setattr(
        reconstruct, "_trial_order", lambda gen, pair, v, context: itertools.combinations(range(len(pair.nodes)), v)
    )
    plain = [run_capped(params, gen, missing, liars, seed) for seed in seeds]
    for (message, got), (_, want) in zip(ranked, plain):
        assert (got.recovered_message, got.rounds, got.nodes_accessed, got.accessed_nodes) == (
            want.recovered_message,
            want.rounds,
            want.nodes_accessed,
            want.accessed_nodes,
        )
        assert (got.erroneous_nodes, got.failure_reason) == (want.erroneous_nodes, want.failure_reason)
        if not got.success:
            assert sorted(erasure_trials(got)) == sorted(erasure_trials(want))


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


def reference_row_decode(code, mat, nodes, extra_erased=frozenset(), scale=None, context=None):
    """row_decode as one independent decode per row (``context`` unused)."""
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
            out.append(RowDecode(decoded=False, codeword=None, corrected=frozenset()))
            continue
        codeword, corrected = res
        if scale is not None:
            codeword = tuple(field.div(x, s) for x, s in zip(codeword, scale))
        out.append(RowDecode(decoded=True, codeword=codeword, corrected=corrected))
    return out


@pytest.mark.parametrize(
    "n,k,m,flavor",
    [
        (7, 4, 3, "systematic"),
        (20, 10, 5, "systematic"),
        (20, 10, 5, "vandermonde"),  # shortened: col_scale is not all ones
        (24, 12, 8, "systematic"),
        (24, 12, 8, "vandermonde"),
    ],
)
def test_row_decode_matches_per_row_reference(n, k, m, flavor):
    """Same RowDecode list as decoding every row on its own, with 0 to
    capability + 2 lying columns, trial erasures, and garbage columns."""
    params = make_params(n, k, m)
    gen = generator_set(params, flavor)
    code = gen.code_alpha
    rng = random.Random(n * 31 + m)
    for trial in range(24):
        j = rng.randrange(k, n + 1)
        nodes = tuple(rng.sample(range(n), j))
        if trial % 6 == 5:
            cols = [tuple(rng.randrange(gen.field.order) for _ in range(params.alpha)) for _ in nodes]
        else:
            message, shares = fresh_case(params, gen, rng)
            cols = [shares[i].symbols for i in nodes]
            for b in rng.sample(range(j), min(j, rng.randrange(params.error_capability + 3))):
                cols[b] = corrupt_symbols(rng, gen.field, cols[b])
        pair = pair_solve(gen, AccessSet(nodes=nodes, columns=tuple(cols)))
        extra = frozenset(rng.sample(nodes, rng.randrange(3))) if trial % 2 else frozenset()
        context = reconstruct._round_context(code, nodes, extra)
        for mat in (pair.p, pair.q):
            want = reference_row_decode(code, mat, nodes, extra, gen.col_scale)
            assert row_decode(code, mat, nodes, extra, gen.col_scale) == want
            assert row_decode(code, mat, nodes, extra, gen.col_scale, context) == want


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
]


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
    monkeypatch.setattr(reconstruct, "_gate_can_pass", lambda j, v, k: True)
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

    monkeypatch.setattr(reconstruct, "_gate_can_pass", lambda j, v, k: True)
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
@pytest.mark.parametrize("n,k,m", [(7, 4, 3), (20, 10, 5), (24, 12, 8)])
def test_pair_solve_matches_scalar_reference(n, k, m, flavor):
    """pair_solve through gen.gbar_map, from scratch and extended from a
    prefix, gives the scalar reference's P and Q on garbage columns, fresh
    encodings and encodings with corrupted columns."""
    params = make_params(n, k, m)
    gen = generator_set(params, flavor)
    rng = random.Random(f"pair:{n}:{k}:{m}:{flavor}")
    for kind in ("garbage", "fresh", "corrupt") * 3:
        nodes = tuple(rng.sample(range(n), rng.randrange(k, n + 1)))
        if kind == "garbage":
            cols = [tuple(rng.randrange(gen.field.order) for _ in range(params.alpha)) for _ in nodes]
        else:
            message, shares = fresh_case(params, gen, rng)
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
    # long enough that the trusted set's decoder is composed (12 stripes left
    # at m = 5), so a composed decoder meets a lying or a missing node
    "long-late-liar": (20, 10, 5, "systematic", 16, 0, 2, None, 2, None),
    "long-gap": (20, 10, 5, "vandermonde", 14, 1, 1, None, None, 3),
}


@pytest.mark.parametrize("case", sorted(SESSION_CASES))
def test_read_session_matches_per_stripe_progressive(case):
    """reconstruct_file returns the messages of per-stripe
    reconstruct_progressive runs and fails at the same stripe with the same
    reason.  A trusted node that starts lying, or misses one stripe, sends
    exactly that stripe to the progressive path."""
    n, k, m, flavor, stripe_count, missing, lying, spread, late, gap = SESSION_CASES[case]
    params = make_params(n, k, m)
    gen = generator_set(params, flavor)
    for seed in range(3):
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
        source = file_source(gen, stripes, set(drawn[:missing]), liars, gaps)

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


def test_read_session_composes_with_enough_stripes_left(monkeypatch):
    """The trusted set's decoder is composed once exactly when at least
    LinearMap.table_entries(m) stripes are left for it, 12 at m = 5."""
    rng = random.Random(78)
    stripes = [fresh_case(P20, GEN20, rng)[1] for _ in range(13)]
    composed = []
    compose = KNodeDecoder.compose
    monkeypatch.setattr(KNodeDecoder, "compose", lambda decoder: composed.append(decoder.nodes) or compose(decoder))
    for count in (12, 13):
        composed.clear()
        session = reconstruct.reconstruct_file(GEN20, file_source(GEN20, stripes), count, 3)
        assert session.success and session.trusted_stripes == count - 1
        assert len(composed) == (count - 1 >= LinearMap.table_entries(P20.m) == 12)


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
