"""Reed-Solomon codec: generator construction and errors-and-erasures decoding."""

import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrcode import rs
from msrcode.field import Field
from msrcode.linalg import rank
from msrcode.rs import BadLength, RsCode, poly_eval, poly_mod

GF8 = Field(3)
GF32 = Field(5)


@pytest.fixture(scope="module")
def code73():
    return RsCode(7, 3, GF8)


def all_codewords(code):
    """Oracle codebook: every message times the systematic generator."""
    gen = code.systematic_generator()
    words = []
    for msg in itertools.product(range(code.field.order), repeat=code.kappa):
        words.append(tuple(code.encode(list(msg), gen)))
    return words


# ---------------------------------------------------------------------------
# construction


def test_gen_poly_7_3(code73):
    # expand prod_{j=1..4} (x + a^j) by hand with the exp table oracle
    assert code73.gen_poly == [3, 2, 1, 3, 1]
    for j in range(1, 5):
        assert poly_eval(GF8, code73.gen_poly, GF8.exp[j]) == 0
    assert code73.d_min == 5


def test_gen_poly_single_root():
    code = RsCode(7, 6, GF8)
    assert code.gen_poly == [2, 1]  # x + a


def test_gen_poly_20_9():
    code = RsCode(20, 9, GF32)
    assert len(code.gen_poly) == 12  # degree 11
    for j in range(1, 12):
        assert poly_eval(GF32, code.gen_poly, GF32.exp[j]) == 0


def test_length_bounds():
    with pytest.raises(BadLength):
        RsCode(8, 3, GF8)  # n = 2^m rejected
    with pytest.raises(ValueError):
        RsCode(7, 7, GF8)
    with pytest.raises(ValueError):
        RsCode(7, 0, GF8)


def test_systematic_generator_shape(code73):
    gen = code73.systematic_generator()
    assert len(gen) == 3 and all(len(row) == 7 for row in gen)
    for i, row in enumerate(gen):
        # right block is the identity
        assert row[4 + i] == 1
        assert all(row[4 + t] == 0 for t in range(3) if t != i)
        # every row is a codeword of minimum weight
        assert sum(1 for c in row if c) == 5
        assert code73.is_codeword(row)


def test_systematic_generator_near_rate_1():
    code = RsCode(7, 6, GF8)
    gen = code.systematic_generator()
    for row in gen:
        assert sum(1 for c in row if c) == 2  # d_min of an [n, n-1] code


@pytest.mark.parametrize("n,kappa,field", [(7, 3, GF8), (20, 9, GF32), (15, 7, Field(4))])
def test_systematic_rows_weight_dmin(n, kappa, field):
    code = RsCode(n, kappa, field)
    for row in code.systematic_generator():
        assert sum(1 for c in row if c) == code.d_min
        assert code.is_codeword(row)


def test_systematic_generator_matches_poly_mod_reference():
    """Each row's remainder, built as x times the previous one mod g, equals
    x^(n-kappa+i) mod g computed afresh, for every code of GF(2^m), m <= 5."""
    for m in range(2, 6):
        field = Field(m)
        for n in range(2, field.order):
            for kappa in range(1, n):
                code = RsCode(n, kappa, field)
                parity = n - kappa
                for i, row in enumerate(code.systematic_generator()):
                    rem = poly_mod(field, [0] * (parity + i) + [1], code.gen_poly)
                    expected = rem + [0] * (n - len(rem))
                    expected[parity + i] = 1
                    assert row == expected, (m, n, kappa, i)


def test_vandermonde_rows(code73):
    gen = code73.vandermonde_generator()
    assert gen[0] == [1] * 7
    assert gen[1] == [1, 2, 4, 3, 6, 7, 5]
    for row in gen:
        assert all(c != 0 for c in row)


def test_vandermonde_rowspace_matches_at_full_length(code73):
    # at n = 2^m - 1 the power-basis rows belong to the root-based code
    gen = code73.vandermonde_generator()
    for row in gen:
        assert code73.is_codeword(row)
    assert rank(GF8, gen) == 3
    assert rank(GF8, gen + code73.systematic_generator()) == 3


def test_vandermonde_rowspace_differs_when_shortened():
    # shortening breaks the coincidence: the power basis spans the
    # evaluation code, not the root-based one
    code = RsCode(20, 9, GF32)
    gen = code.vandermonde_generator()
    assert not any(code.is_codeword(row) for row in gen)
    assert rank(GF32, gen) == 9  # still a rank-kappa (MDS) generator


# ---------------------------------------------------------------------------
# encoding


def test_encode_zero_and_units(code73):
    gen = code73.systematic_generator()
    assert code73.encode([0, 0, 0], gen) == [0] * 7
    for i in range(3):
        msg = [0, 0, 0]
        msg[i] = 1
        word = code73.encode(msg, gen)
        assert word == gen[i]
        assert word[4:] == msg


def test_mds_distance_exhaustive(code73):
    gen = code73.systematic_generator()
    for msg in itertools.product(range(8), repeat=3):
        word = code73.encode(list(msg), gen)
        weight = sum(1 for c in word if c)
        assert weight == 0 or weight >= 5


# ---------------------------------------------------------------------------
# decoding


def test_decode_clean(code73):
    gen = code73.systematic_generator()
    word = code73.encode([1, 5, 7], gen)
    res = code73.decode_errors_erasures(word)
    assert res is not None
    assert list(res.codeword) == word
    assert res.corrected_positions == frozenset()


def test_decode_two_errors(code73):
    gen = code73.systematic_generator()
    rng = random.Random(7)
    for _ in range(200):
        msg = [rng.randrange(8) for _ in range(3)]
        word = code73.encode(msg, gen)
        positions = rng.sample(range(7), 2)
        noisy = list(word)
        for pos in positions:
            noisy[pos] ^= rng.randrange(1, 8)
        res = code73.decode_errors_erasures(noisy)
        assert res is not None
        assert list(res.codeword) == word
        assert res.corrected_positions == frozenset(positions)


def test_decode_beyond_capability_boundary(code73):
    # s + 2v >= d_min voids the recovery guarantee: with 4 erasures + 1
    # error the three intact symbols still determine some codeword, so the
    # decoder returns a (wrong) codeword; with 3 erasures + 1 error the
    # inconsistency is detectable and None comes back.  Either outcome is
    # within contract, but a returned word is always a codeword and never
    # silently equal to the original here.
    gen = code73.systematic_generator()
    rng = random.Random(11)
    failures = 0
    for s in (4, 3):
        for _ in range(200):
            msg = [rng.randrange(8) for _ in range(3)]
            word = code73.encode(msg, gen)
            erased = rng.sample(range(7), s)
            noisy = list(word)
            err_pos = rng.choice([i for i in range(7) if i not in erased])
            noisy[err_pos] ^= rng.randrange(1, 8)
            res = code73.decode_errors_erasures(noisy, erased)
            if res is None:
                failures += 1
            else:
                assert code73.is_codeword(res.codeword)
                assert list(res.codeword) != word
    assert failures > 0


def test_decode_contract_exhaustive_patterns(code73):
    """Every erasure/error pattern with s + 2v < d_min over all position
    choices, randomized symbol values, recovers the true codeword."""
    gen = code73.systematic_generator()
    rng = random.Random(99)
    cases = 0
    for s, v in [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 1), (1, 1), (2, 1), (0, 2)]:
        for erased in itertools.combinations(range(7), s):
            rest = [i for i in range(7) if i not in erased]
            for errs in itertools.combinations(rest, v):
                for _ in range(40):
                    msg = [rng.randrange(8) for _ in range(3)]
                    word = code73.encode(msg, gen)
                    noisy = list(word)
                    for pos in erased:
                        noisy[pos] = rng.randrange(8)  # value is ignored
                    for pos in errs:
                        noisy[pos] ^= rng.randrange(1, 8)
                    res = code73.decode_errors_erasures(noisy, erased)
                    cases += 1
                    assert res is not None, (s, v, erased, errs)
                    assert list(res.codeword) == word
                    assert res.corrected_positions == frozenset(errs)
    assert cases >= 10_000


def test_decode_agrees_with_nearest_codeword_oracle(code73):
    """Brute-force oracle: the decoded word is the unique codeword within
    the errata budget of the received word."""
    codebook = all_codewords(code73)
    gen = code73.systematic_generator()
    rng = random.Random(123)
    for _ in range(250):
        msg = [rng.randrange(8) for _ in range(3)]
        word = code73.encode(msg, gen)
        s = rng.randrange(0, 3)
        v = rng.randrange(0, (5 - s) // 2 + 1) if 5 - s >= 2 else 0
        if s + 2 * v >= 5:
            v = max(0, (4 - s) // 2)
        erased = rng.sample(range(7), s)
        rest = [i for i in range(7) if i not in erased]
        errs = rng.sample(rest, v)
        noisy = list(word)
        for pos in erased:
            noisy[pos] = rng.randrange(8)
        for pos in errs:
            noisy[pos] ^= rng.randrange(1, 8)
        res = code73.decode_errors_erasures(noisy, erased)
        assert res is not None

        # oracle: distance over non-erased positions, minimized over codebook
        def dist(cand):
            return sum(1 for i in rest if cand[i] != noisy[i])

        best = min(codebook, key=dist)
        assert dist(best) == v
        assert list(best) == word
        assert list(res.codeword) == word


@settings(max_examples=150, deadline=None)
@given(
    msg=st.lists(st.integers(0, 31), min_size=9, max_size=9),
    seed=st.integers(0, 2**32 - 1),
)
def test_decode_roundtrip_20_9(msg, seed):
    code = RsCode(20, 9, GF32)
    gen = code.systematic_generator()
    word = code.encode(msg, gen)
    rng = random.Random(seed)
    s = rng.randrange(0, 6)
    v = rng.randrange(0, (code.d_min - s - 1) // 2 + 1)
    erased = rng.sample(range(20), s)
    errs = rng.sample([i for i in range(20) if i not in erased], v)
    noisy = list(word)
    for pos in erased:
        noisy[pos] = rng.randrange(32)
    for pos in errs:
        noisy[pos] ^= rng.randrange(1, 32)
    res = code.decode_errors_erasures(noisy, erased)
    assert res is not None
    assert list(res.codeword) == word


def test_roundtrip_both_generators(code73):
    rng = random.Random(5)
    for gen in (code73.systematic_generator(), code73.vandermonde_generator()):
        for _ in range(50):
            msg = [rng.randrange(8) for _ in range(3)]
            word = code73.encode(msg, gen)
            res = code73.decode_errors_erasures(word)
            assert res is not None and list(res.codeword) == word


def test_forney_syndromes_vanish_exactly_when_errors_are_erased():
    """With X covering every error, the coefficients from |X| on are zero;
    one unerased error makes them nonzero; adjusting for A then for E equals
    adjusting for A and E at once."""
    code = RsCode(20, 9, GF32)
    nsyn = code.n - code.kappa
    rng = random.Random(11)
    for _ in range(40):
        word = code.encode([rng.randrange(32) for _ in range(9)], code.systematic_generator())
        errors = rng.sample(range(20), rng.randrange(1, 5))
        for pos in errors:
            word[pos] ^= rng.randrange(1, 32)
        synd = code.syndromes(word)
        others = [i for i in range(20) if i not in errors]
        erased = errors + rng.sample(others, rng.randrange(0, nsyn - len(errors) - 1))
        split = rng.randrange(len(erased) + 1)
        head, tail = erased[:split], erased[split:]
        adjusted = code.forney_syndromes(synd, code.locator(erased))
        assert code.forney_syndromes(code.forney_syndromes(synd, code.locator(head)), code.locator(tail)) == adjusted
        assert not any(adjusted[len(erased) :])
        missed = erased[1:]  # leaves errors[0] unerased
        assert any(code.forney_syndromes(synd, code.locator(missed))[len(missed) :])


def reference_syndromes(code, word):
    """S_t = sum_i word[i] * (a^i)^t for t = 1..n-kappa, term by term."""
    field = code.field
    return [
        functools.reduce(operator.xor, (field.mul(x, field.pow(field.exp[i], t)) for i, x in enumerate(word)), 0)
        for t in range(1, code.n - code.kappa + 1)
    ]


@pytest.mark.parametrize("n,kappa,m", [(7, 3, 3), (20, 9, 5), (24, 11, 8)])
def test_forney_map_equals_syndromes_times_locator(n, kappa, m):
    """An erasure set's forney_map sends a word to forney_syndromes(S,
    locator(U)) with S its syndromes, for U empty too, where it is the
    syndrome map; one extra erased position is one more locator factor."""
    code = RsCode(n, kappa, Field(m))
    rng = random.Random(n * 10 + m)
    for trial in range(60):
        word = [rng.randrange(code.field.order) for _ in range(n)]
        erased = rng.sample(range(n), 0 if trial % 4 == 0 else rng.randrange(n - kappa))
        context = code.erasure_context(erased)
        synd = reference_syndromes(code, word)
        fmap = context.forney_map
        assert fmap.unpack(fmap.packed(word, range(n))) == code.forney_syndromes(synd, code.locator(erased))
        known = [i for i in range(n) if i not in erased]
        assert context.adjusted(word) == code.forney_syndromes(
            reference_syndromes(code, [x if i in known else 0 for i, x in enumerate(word)]), code.locator(erased)
        )
        extra = rng.choice(known)
        held = [x if i in known and i != extra else 0 for i, x in enumerate(word)]
        assert context.adjusted(word, extra) == code.forney_syndromes(
            reference_syndromes(code, held), code.locator(erased + [extra])
        )
        if not erased:
            assert code.syndromes(word) == synd


@pytest.mark.parametrize("n,kappa,m", [(7, 3, 3), (20, 9, 5), (24, 11, 8)])
def test_one_word_decodes_without_erasures_share_the_plain_context(monkeypatch, n, kappa, m):
    """decode_errors_erasures with no erasures builds one ErasureContext,
    on the first call, and no more; each result equals a fresh context's
    decode, on seeded words with 0 to radius + 2 errors, in groups that
    share their error positions so the remembered locator is tried."""
    code = RsCode(n, kappa, Field(m))
    gen = code.systematic_generator()
    rng = random.Random(f"plain:{n}:{kappa}:{m}")
    radius = (n - kappa) // 2
    words = []
    for group in range(12):
        positions = rng.sample(range(n), group % (radius + 3))
        for _ in range(4):
            word = code.encode([rng.randrange(code.field.order) for _ in range(kappa)], gen)
            for pos in positions[: rng.randrange(len(positions) + 1)]:
                word[pos] ^= rng.randrange(1, code.field.order)
            words.append(word)
    built = []
    init = rs.ErasureContext.__init__
    monkeypatch.setattr(rs.ErasureContext, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    got = [code.decode_errors_erasures(word) for word in words]
    assert len(built) == 1
    monkeypatch.undo()
    assert got == [rs.ErasureContext(code, frozenset()).decode(word) for word in words]
    assert any(result is None for result in got)
    assert any(result is not None and result.corrected_positions for result in got)


def test_decoder_is_exact_bounded_distance_against_codebook(code73):
    """Oracle over all 512 codewords of [7,3] over GF(2^3): for random words
    and erasure sets, beyond the decoding radius too, the decoder returns
    the unique codeword c with s + 2 d(c, word) < d_min on the unerased
    positions, or None when there is none.  The one-word call and a shared
    context with one extra erased position agree."""
    codebook = all_codewords(code73)
    gen = code73.systematic_generator()
    rng = random.Random(2024)
    found = missed = 0
    for trial in range(1500):
        word = code73.encode([rng.randrange(8) for _ in range(3)], gen)
        for pos in rng.sample(range(7), rng.randrange(5)):
            word[pos] ^= rng.randrange(1, 8)
        if trial % 5 == 0:
            word = [rng.randrange(8) for _ in range(7)]
        shared = frozenset(rng.sample(range(7), rng.randrange(6)))
        rest = [i for i in range(7) if i not in shared]
        extra = rng.choice(rest) if rest and trial % 2 else None
        erased = shared | ({extra} if extra is not None else set())
        known = [i for i in range(7) if i not in erased]
        within = [
            c for c in codebook if len(erased) + 2 * sum(c[i] != word[i] for i in known) < code73.d_min
        ]
        assert len(within) <= 1
        got = code73.decode_errors_erasures(word, erased)
        assert code73.erasure_context(shared).decode(word, extra) == got
        if within:
            found += 1
            assert got is not None and got.codeword == within[0]
            assert got.corrected_positions == {i for i in known if within[0][i] != word[i]}
        else:
            missed += 1
            assert got is None
    assert found > 300 and missed > 300
