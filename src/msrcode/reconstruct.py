"""Progressive data reconstruction tolerant of corrupted storage nodes.

The collector fetches k random node columns and tries to decode; every
failed attempt fetches two more columns and raises the assumed error count
v by one, up to floor((n - k + 1) / 2).  Within a round:

1. pair_solve: with Y the fetched columns and M = Gbar_access^T Y, each
   unordered node pair (i, j) yields the 2x2 system
       m_ij = p + q * lambda_j,   m_ji = p + q * lambda_i,
   solvable because the lambda are pairwise distinct.  The p values form a
   symmetric matrix P-tilde (diagonal unknown); q gives Q-tilde.  m_rc is
   entry nodes[r] of y_c's image under GeneratorSet.gbar_map, y -> Gbar^T y
   over all n nodes.  A round only adds nodes to the previous one, so it
   keeps the previous round's entries and images, maps only its new
   columns and solves only the pairs with a new node.  That holds from
   v = 0 on, whose staged decode runs pair_solve too; only a composed
   v = 0 round (below) solves no pairs, and its v = 1 round starts afresh.
2. row_decode: each row of P-tilde extends to a codeword of the [n, k-1]
   code, so it is decoded by errors-and-erasures with the unaccessed
   positions (and a trial's extra nodes) and the row's own diagonal
   erased.  The first part is the same for every row of P and Q, so a
   round builds one rs.ErasureContext for it, whose one linear map takes a
   row's held symbols straight to its Forney syndromes: row_decode packs
   each row's (node, value) pairs through it straight off the pair-solved
   block, with no length-n word, and each row adds only its diagonal, one
   (1 + X_r z) step, in ErasureContext.errata, the tail that
   ErasureContext.decode runs too.  A lying node corrupts the same column
   of every row, so the rows share their error positions: the context
   keeps the error locator that Berlekamp-Massey found for an earlier row,
   and a later row whose Forney syndromes fit it takes its errata without
   running Berlekamp-Massey.  A degree-1 locator 1 + Lambda_1 z has its one
   root at position log Lambda_1, so a row whose locator has it elsewhere
   than at an accessed node off its diagonal fails without evaluating the
   locator at every position.  The syndrome recheck, which maps just the
   corrected symbols, and a fallback to Berlekamp-Massey give every row the
   result of its own decode: its codeword, or None when it does not decode.
   A block stops decoding once its rows decoded plus its rows left fall
   below the gate's threshold j - v - k + 2 (step 3), that is after
   k + v - 1 failed rows: then no column can be erroneous, and the round
   fails its gate (P) or agreement (Q) as the full decode would, so the
   rest are left undecoded (None).
3. classify_columns: a node column counts as erroneous when at least
   j - v - k + 2 decoded rows disagree with its received values (this is
   v + 2 when j = k + 2v nodes are held), and as correct when at most v
   disagree.  The round is accepted only if exactly v erroneous and j - v
   correct columns emerge, for both P and Q, naming the same nodes.
4. recover_z: alpha correct, decoded columns and the decoded rows of the
   same nodes form P_sel, which must be symmetric; with G those nodes'
   Gbar columns, _peel gives the message block Z = G^-T P_sel G^-1 through
   one LinearMap of G^-1 (P and Q share it when they pick the same
   columns, and a read session keeps the latest, below), and the message
   must pass the integrity check (CRC-32) before it is returned.

When the node supply caps the round below j = k + 2v, plain per-row
decoding can sit exactly at the distance bound (s + 2v = d_min) and fail
even though the v corrupted columns are jointly locatable.  Those rounds
fall back to erasure trials: a candidate support of v accessed nodes is
erased outright, which restores per-row decodability, and a wrong candidate
dies at the classification gate, the symmetry check, or the integrity
check.  The gate needs its threshold j - v - k + 2 to exceed v, so a round
(or trial) with j <= k + 2v - 2 is recorded as a gate failure without
decoding any row, and such a round tries no supports.

The candidates come from one error locator shared by the rows (_locate).
A lying node corrupts the same column of every honest row, so the honest
rows of P form an interleaved RS code whose errors share one locator
Lambda = Gamma_E (Schmidt, Sidorenko and Bossert, collaborative decoding of
interleaved RS codes).  Row r of P, erased at X_r (the unaccessed nodes and
its own diagonal), has Forney syndromes U_r = S(w_r) * Gamma_X_r mod
z^(n - alpha), read off the failed round's erasure context.  From |X_r| on
they depend on the row's errors alone, and the key equation makes
(U_r * Lambda)_t vanish for t in [|X_r| + v, n - alpha): j - k - v linear
equations in Lambda_1 .. Lambda_v.  Row r of Q adds none: a lying node c
puts errors e_p = lambda_r * e_q into p_rc and q_rc, so its equations are
the P row's, scaled.  The equations of g = ceil(v / (j - k - v)) rows (at
most 2 in a round whose gate can pass, where j = k + 2v - 1) are stacked and
solved, one group of rows at a time in itertools.combinations order, and
only as far as the round needs: a unique solution with exactly v roots
among the accessed nodes names a support, each tried once.  Any group of
honest rows gives the true locator, so the true support usually comes
first, and a round tries at most C(j, g) supports however many nodes lie.
At v = 1 and j = k + 1 there is no equation, and the round tries the j
single nodes.  A candidate faces the same gates and integrity check as any
size-v support, so the outcome is the one that trying every size-v support
reaches, unless a wrong support passes every gate and the integrity check
or no group of honest rows fixes the locator.

The first round (v = 0) holds exactly k nodes, and k node columns carry
exactly B = k * alpha symbols: there is no redundancy to locate errors
with, so every row decodes, every column classifies as correct, and only
the integrity check can reject.  That round therefore runs in closed form
with one alpha x alpha inverse and no Reed-Solomon decode.  Restricted to
the k accessed positions, Gbar's row space is a [k, alpha] code with a
single parity check h, where Gbar_access h = 0; with G the first alpha
accessed columns of Gbar, h = (G^-1 gbar_last, 1), and every entry of h is
nonzero because the code is MDS.  Each pair-solved row r lies in that code,
so its missing diagonal is p_rr = h_r^-1 * sum_{c != r} h_c p_rc, which is
exactly the value row_decode would fill in; then Z = G^-T P_sel G^-1 as in
recover_z.  The result and the round trace match the general round.

All of that depends only on the ordered k nodes, so KNodeDecoder builds it
once, from one inverse: G^-1, h, and the logs of h_c / h_r for the diagonal
fill.  Its staged decode has three steps: step 1's pair_solve over its k
nodes, the diagonal fill from h, and _peel, which runs a linalg.LinearMap
of G^-1 twice (over P_sel's rows, then over the result's columns) to give
Z, as in recover_z; that map, peel_map, is the decoder's one map of G^-1,
built on first use or taken with G^-1 from the read session (below), and
the pair map is read off it too.
The v = 0 round of reconstruct_progressive and the read session below use
this one decoder, and the v = 0 round hands its PairSolve to the v = 1
round, so a stripe maps each column it holds through gen.gbar_map once.
Those stages make a linear map from the k * alpha column symbols to the B
message symbols, and it factors through the pair values: each pair's
w p_rc = lambda_r m_rc + lambda_c m_cr and w q_rc = m_rc + m_cr, with
w = lambda_r + lambda_c, fix the message linearly.  KNodeDecoder.pair_map
is that map from the k(k-1)/2 pair values to a block's alpha(alpha+1)/2
message symbols, read off G^-1, h and the lambda (its docstring).  A paired
decode maps the k columns through gen.gbar_map, forms those two values of
each pair with no division by w, and applies the pair map to the P values
and to the Q values: two table passes over the pairs instead of the pair
solve's divisions, the diagonal fill and 4 * alpha peel-map applications.
KNodeDecoder.compose() folds the column map in too, one LinearMap from the
column symbols to the message, built on the pair map, after which decode()
is one table pass.  Both lay their outputs out MSB-first, so that pass
yields the stripe's bitstream, the message packed into one int as
bits.symbols_to_int packs it (KNodeDecoder.bitstream).

A file is read by reconstruct_file, one session per file.  Stripe 0 runs
reconstruct_progressive with the stripe's own seeded generator.  After any
accepted progressive stripe, the trusted set becomes the first k nodes, in
access order, of that stripe's accessed nodes minus its erroneous ones.
The session holds one KNodeDecoder at a time and rebuilds it only when asked
for other nodes, both by the trusted set and by the v = 0 round of its
progressive stripes; on a clean read stripe 0's first round and the trusted
set ask for the same k nodes, so one decoder serves the whole file.  Every
later stripe is decoded from the trusted nodes' k columns alone, straight
to its bitstream, and accepted only if that int passes the integrity check,
the same check_crc that alone decides the v = 0 round (there on the
message list that the decoder returns).  check_crc reads the CRC-32
trailer off the low bits and hashes the payload bits above it as bytes, so a
trusted stripe is never split into symbols: the session keeps each accepted
stripe as its int (FileReport.bitstreams), and the CLI joins the payload
bits into the file with bits.symbols_to_bytes, one payload per symbol.  The
rounds that locate errors hand check_crc their message list, which it packs
once.  A missing trusted column or a failed check sends that stripe to
reconstruct_progressive, seeded exactly as a stripe read on its own would
be.  So a node caught lying or missing is not read again while the trusted
set holds, a clean file is read from k nodes, and every stripe still passes
the CRC before it is accepted.  The session also keeps one inverse: the
G^-1 and peel map that recover_z built last, keyed by its alpha nodes,
which recover_z replaces whenever it inverts for other nodes.  After an
accepted progressive stripe that is the accepted round's, and the trusted
set starts with the same alpha nodes whenever every correct column of the
round decoded, so its KNodeDecoder takes that G^-1 and peel map instead of
inverting again.  The decoder and the inverse live in the session, never
on the GeneratorSet, so nothing grows across stripes or files.

A decoder of the session decodes staged, paired or composed, and
decoder_mode picks the mode once, from the code's shape and the stripes the
decoder may decode: all of them for stripe 0's first round, those after the
stripe that named it for a trusted set.  A mode costs its build plus the
stripes times its per-stripe decode, counted in lookups off the shapes of
the LinearMaps involved: a pass of i inputs over w-bit images costs
i (1 + (w / WIDE_BITS)^2), as wide tables fall out of cache, and a build
fills table_entries(m) entries per input.  Staged builds nothing and decodes
through gen.gbar_map and about STEP_LOOKUPS k^2 of bookkeeping (pair solve,
diagonal fill, peel); paired builds the pair map and decodes through
gen.gbar_map and the pair map; composed also builds the composed map and
decodes through it alone.  tools/decoder_mode_costs.py times each mode and
checks the picks against the cheapest.  A trusted set picks among all three.
Stripe 0's first round composes or stays staged: composing also saves its
staged decode and gen.gbar_map's build, so it composes from fewer stripes
than a trusted set (6 against 12 at [20,10]/GF(2^5)), and a clean long read
decodes every stripe through one composed map, never building gen.gbar_map.
It never pairs: with errors present it usually fails (in a [24,12] read with
3 missing and 3 lying shares only C(18,12)/C(21,12), about 6%, of first
rounds pass), which would waste its pair map and leave the v = 1 round no
PairSolve to extend.  When it fails composed, its map is wasted, and the
nodes its later rounds trust get a decoder of their own.  The v = 0 round of
a later progressive stripe, which runs only once the trusted set has failed,
stays staged, as does simulate's single-stripe read; the staged decode is
also the tests' reference for the other two.  All three give the same
message, so the choice changes no output.

update reads one stripe, and for a systematic code it first tries
systematic_message: Gbar is the identity on the alpha systematic nodes, so
those nodes and one parity node give the message in closed form, with no
inverse and no linear map (its docstring).  Only when that message fails
check_crc or a node it needs is missing, and for the vandermonde flavor,
does update run reconstruct_progressive, whose v = 0 round stays staged.

Rows live in Gbar's row space.  row_decode works in the root-based
[n, alpha] code, so it scales each row by GeneratorSet.col_scale first
(all ones except for shortened vandermonde generators) and unscales the
decoded codeword.
"""

from __future__ import annotations

import functools
import itertools
import random
import zlib
from dataclasses import dataclass, field as dc_field

from .bits import int_to_symbols, symbols_to_bytes, symbols_to_int
from .linalg import LinearMap, invert, mat_vec, row_reduce
from .msr import GeneratorSet, MsrParams, WrongLength
from .rs import RsCode

__all__ = [
    "AccessSet",
    "PairSolve",
    "Classification",
    "RoundTrace",
    "DecodeReport",
    "AsymmetryDetected",
    "pair_solve",
    "row_decode",
    "classify_columns",
    "recover_z",
    "reconstruct_progressive",
    "systematic_message",
    "KNodeDecoder",
    "FileReport",
    "reconstruct_file",
    "crc_trailer_length",
    "crc_payload_length",
    "seal",
    "attach_crc",
    "check_crc",
]

FAIL_RAN_OUT_OF_NODES = "RanOutOfNodes"
FAIL_INTEGRITY_AT_MAX = "IntegrityFailedAtMax"


class AsymmetryDetected(RuntimeError):
    """Recovered message block is not symmetric; the round miscorrected."""


# ---------------------------------------------------------------------------
# integrity check: CRC-32 trailer inside the B-symbol message

CRC_BITS = 32


def crc_trailer_length(m: int) -> int:
    return -(-CRC_BITS // m)


def crc_payload_length(params: MsrParams) -> int:
    t = crc_trailer_length(params.m)
    if t >= params.B:
        raise WrongLength(
            f"B={params.B} leaves no payload after a {t}-symbol integrity trailer"
        )
    return params.B - t


def seal(params: MsrParams, payload: int) -> int:
    """A stripe's message packed MSB-first into one int: the payload's
    crc_payload_length(params) * m bits shifted above the trailer, whose
    crc_trailer_length(m) * m low bits hold the CRC-32 of the payload bits
    zero-padded to whole bytes (one wide symbol, as bits.symbols_to_bytes
    packs it).  This is the layout KNodeDecoder.bitstream decodes to and
    check_crc checks."""
    payload_bits = crc_payload_length(params) * params.m
    crc = zlib.crc32(symbols_to_bytes([payload], payload_bits, (payload_bits + 7) // 8))
    return payload << params.B * params.m - payload_bits | crc


def attach_crc(params: MsrParams, payload) -> list[int]:
    """Append the CRC-32 of the payload bits as the final trailer symbols,
    MSB-first with the high bits zero-padded: the symbols of seal()."""
    expected = crc_payload_length(params)
    if len(payload) != expected:
        raise WrongLength(f"payload must have {expected} symbols, got {len(payload)}")
    m, t = params.m, crc_trailer_length(params.m)
    crc = seal(params, symbols_to_int(payload, m)) & (1 << t * m) - 1
    return list(payload) + int_to_symbols(crc, m, t)


def check_crc(params: MsrParams, message) -> bool:
    """Whether ``message`` ends in the CRC-32 of its payload bits, the
    trailer seal() puts there (computed here in place).  It is a
    stripe's B symbols, as attach_crc returns them, or the same symbols
    packed MSB-first into one int (bits.symbols_to_int), as
    KNodeDecoder.bitstream returns them; a list is packed once.  The payload
    is the top bits, zero-padded to whole bytes, and the trailer the low
    crc_trailer_length(m) * m bits.  A list of other than B symbols, a value
    wider than B symbols, or a code with no room for a payload, fails."""
    if not isinstance(message, int):
        if len(message) != params.B:
            return False
        message = symbols_to_int(message, params.m)
    m = params.m
    trailer = crc_trailer_length(m) * m
    payload_bits = params.B * m - trailer
    if payload_bits <= 0 or message >> params.B * m:
        return False
    pad = -payload_bits % 8
    payload = (message >> trailer << pad).to_bytes((payload_bits + pad) // 8, "big")
    return zlib.crc32(payload) == message & ((1 << trailer) - 1)


# ---------------------------------------------------------------------------
# round machinery


@dataclass(frozen=True)
class AccessSet:
    """Fetched nodes in access order and their alpha-symbol columns."""

    nodes: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PairSolve:
    """Pair-solved P and Q blocks over the accessed nodes.

    p[r][c] (r != c) was produced from the Y columns of nodes[r] and
    nodes[c]; diagonals stay None because a single equation cannot separate
    p_ii from q_ii.  images[c] is Gbar^T y_c as gen.gbar_map packs it:
    column c's product with every node's Gbar column, m_rc in the m bits
    from m * nodes[r].
    """

    nodes: tuple[int, ...]
    p: tuple[tuple[int | None, ...], ...]
    q: tuple[tuple[int | None, ...], ...]
    images: tuple[int, ...]


@dataclass(frozen=True)
class Classification:
    """Per-column mismatch counts and the resulting node partition
    (positions index into the access order)."""

    erroneous: frozenset[int]
    correct: frozenset[int]
    counts: tuple[int, ...]
    threshold: int
    decidable: bool

    def accepted(self, v: int) -> bool:
        j = len(self.counts)
        return self.decidable and len(self.erroneous) == v and len(self.correct) == j - v


@dataclass(frozen=True)
class RoundTrace:
    v: int
    nodes_held: int
    outcome: str  # gate | agreement | asymmetry | integrity | accepted
    erasure_trial: tuple[int, ...] | None = None


@dataclass
class DecodeReport:
    recovered_message: list[int] | None
    nodes_accessed: int
    accessed_nodes: tuple[int, ...]
    rounds: int
    erroneous_nodes: frozenset[int]
    failure_reason: str | None
    trace: list[RoundTrace] = dc_field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.recovered_message is not None


def pair_solve(gen: GeneratorSet, access: AccessSet, base: PairSolve | None = None) -> PairSolve:
    """Solve every node pair's 2x2 system (module docstring, step 1).

    Entry (r, c) depends only on nodes r and c and their columns, so
    ``base``, a PairSolve over a prefix of ``access.nodes`` (the previous
    round's), keeps its entries and column images, and only the later
    columns are mapped through gen.gbar_map and only the pairs with a later
    node are solved.
    """
    nodes = access.nodes
    j = len(nodes)
    if j < 2:
        raise ValueError("need at least two accessed nodes")
    held = 0 if base is None else len(base.nodes)
    if base is not None and base.nodes != nodes[:held]:
        raise ValueError("base pair solve is not over a prefix of the access set")
    p: list[list[int | None]] = [[None] * j for _ in range(j)]
    q: list[list[int | None]] = [[None] * j for _ in range(j)]
    gbar_map = gen.gbar_map
    images = ()
    if base is not None:
        images = base.images
        for r in range(held):
            p[r][:held] = base.p[r]
            q[r][:held] = base.q[r]
    images += tuple(gbar_map.packed(col, range(len(col))) for col in access.columns[held:])

    # q = s / w and p = m_rc + q lambda_c, with s = m_rc + m_cr and
    # w = lambda_c + lambda_r, through the logs of s, w and lambda_c
    exp, log = gen.field.exp, gen.field.log
    q1 = gen.field.order - 1
    m, mask = gbar_map.m, gbar_map.mask
    lam = [gen.delta[node] for node in nodes]
    shifts = [m * node for node in nodes]
    for c in range(max(held, 1), j):
        image_c, shift_c, lam_c = images[c], shifts[c], lam[c]
        l_c, p_c, q_c = log[lam_c], p[c], q[c]
        for r in range(c):
            m_rc = image_c >> shifts[r] & mask
            s = m_rc ^ images[r] >> shift_c & mask
            if s:
                l_q = (log[s] - log[lam_c ^ lam[r]]) % q1
                p[r][c] = p_c[r] = m_rc ^ exp[l_q + l_c]
                q[r][c] = q_c[r] = exp[l_q]
            else:
                p[r][c] = p_c[r] = m_rc
                q[r][c] = q_c[r] = 0
    return PairSolve(
        nodes=nodes,
        p=tuple(tuple(row) for row in p),
        q=tuple(tuple(row) for row in q),
        images=images,
    )


def row_decode(code: RsCode, mat, nodes, extra_erased=frozenset(), scale=None, context=None, need=None) -> list:
    """Decode each pair-solved row as an [n, k-1] received word: its
    codeword, or None when the row does not decode.

    Erased positions: everything unaccessed, any extra nodes a fallback
    trial wants treated as unreliable, and the row's own diagonal.  The
    first two are common to every row, so one ``context`` (built here when
    not given) serves them all: a row's Forney image is one pass of its
    forney_map over the row's held (node, value) pairs, and its errata come
    from the context's errata().  ``scale`` (GeneratorSet.col_scale) maps
    Gbar's row space into ``code``: each value is multiplied by it before
    decoding and the errata divided by it after.

    With ``need``, the rows stop decoding once the rows decoded plus the
    rows left fall below it, that is after j - need + 1 failed rows, and
    the rows left are None too: then no column can collect ``need``
    disagreements (classify_columns).
    """
    j = len(nodes)
    if context is None:
        context = _round_context(code, nodes, extra_erased)
    field = code.field
    exp, log, div = field.exp, field.log, field.div
    if scale is not None and all(s == 1 for s in scale):
        scale = None
    fmap = context.forney_map
    low, high, lmask, half = fmap.low, fmap.high, fmap.lmask, fmap.half
    held = [(c, node) for c, node in enumerate(nodes) if node not in extra_erased]
    tables = [(c, low[node], high[node]) for c, node in held]
    log_scale = None if scale is None else [log[scale[node]] for node in nodes]
    out = []
    failed = 0
    for r in range(j):
        row = list(mat[r])
        row[r] = 0  # the diagonal, erased
        values = row if log_scale is None else [x and exp[log[x] + l] for x, l in zip(row, log_scale)]
        packed = 0
        for c, lo, hi in tables:
            x = values[c]
            packed ^= lo[x & lmask] ^ hi[x >> half]
        found = context.errata(packed, None if nodes[r] in extra_erased else nodes[r])
        if found is None:
            out.append(None)
            failed += 1
            if need is not None and j - failed < need:
                return out + [None] * (j - r - 1)
            continue
        codeword = [0] * code.n
        for c, node in held:
            codeword[node] = row[c]
        for i, value in found[0].items():
            codeword[i] ^= value if scale is None else div(value, scale[i])
        out.append(tuple(codeword))
    return out


def _round_context(code: RsCode, nodes, extra_erased):
    """The erasures every row of a round shares: the unaccessed positions
    and a trial's extra nodes."""
    held = set(nodes) - set(extra_erased)
    return code.erasure_context(i for i in range(code.n) if i not in held)


def classify_columns(mat, rows, nodes, v: int, k: int) -> Classification:
    """Partition accessed columns by how many successfully decoded rows
    disagree with their received pair-solve values.

    With j nodes held, a column bearing errors collects at least
    j - v - k + 2 disagreements from the decoded clean rows, while a clean
    column collects at most v (only miscorrected rows can blame it); rows
    that failed to decode contribute nothing.
    """
    j = len(nodes)
    counts = [0] * j
    for r in range(j):
        cw = rows[r]
        if cw is None:
            continue
        row = mat[r]
        for c in range(j):
            if c != r and cw[nodes[c]] != row[c]:
                counts[c] += 1
    threshold = j - v - k + 2
    decidable = threshold > v
    return Classification(
        erroneous=frozenset(c for c in range(j) if decidable and counts[c] >= threshold),
        correct=frozenset(c for c in range(j) if counts[c] <= v),
        counts=tuple(counts),
        threshold=threshold,
        decidable=decidable,
    )


def recover_z(rows, cls: Classification, gen: GeneratorSet, nodes, inverses: dict) -> list[int]:
    """The upper triangle, row-major, of the symmetric alpha x alpha message
    block of an accepted round: its half of the flat message.

    alpha correct, decoded columns are selected, and the rows of the same
    nodes give P_sel, which one inverse peels to Z.  A non-symmetric P_sel
    means some row miscorrected and the round must be rejected.  inverses
    maps the selected nodes to their G^-1 and its peel map, and holds only
    the latest entry: one round shares it between its P and Q blocks,
    which usually select the same nodes, and a read session across its
    stripes, so that the trusted set's KNodeDecoder takes the accepted
    round's instead of inverting again.
    """
    alpha = gen.params.alpha
    usable = [c for c in sorted(cls.correct) if rows[c] is not None]
    if len(usable) < alpha:
        raise AsymmetryDetected("not enough decoded correct columns to invert")
    sel = usable[:alpha]
    key = tuple(nodes[c] for c in sel)
    p_sel = [tuple(rows[r][node] for node in key) for r in sel]
    # Z = G^-T @ P_sel @ G^-1 is symmetric exactly when P_sel is
    if p_sel != list(zip(*p_sel)):
        raise AsymmetryDetected("recovered block is not symmetric")
    if key not in inverses:
        g_inv = invert(gen.field, [[row[node] for node in key] for row in gen.gbar])
        inverses.clear()
        inverses[key] = g_inv, _peel_map(gen.field, g_inv)
    return _peel(inverses[key][1], p_sel)


def _peel_map(field, g_inv) -> LinearMap:
    """x -> x @ G^-1 with output t at bits m * (alpha - 1 - t), the layout
    _peel and KNodeDecoder.pair_map read."""
    return LinearMap(field, [row[::-1] for row in g_inv])


def _peel(peel_map: LinearMap, p_sel) -> list[int]:
    """The upper triangle, row-major, of Z = G^-T @ P_sel @ G^-1, undoing
    P_sel = G^T @ Z @ G on the chosen positions, where peel_map is
    _peel_map's x -> x @ G^-1: once over P_sel's rows, kept packed, then
    over the result's columns, read off those ints.  P_sel is symmetric, so
    Z is too, and column r of Z gives row r's entries from the diagonal on."""
    packed, m, mask = peel_map.packed, peel_map.m, peel_map.mask
    inputs = range(len(p_sel))
    shifts = [m * t for t in reversed(inputs)]  # output t's
    w = [packed(row, inputs) for row in p_sel]
    half = []
    for r in inputs:
        shift = shifts[r]
        z = packed([x >> shift & mask for x in w], inputs)
        half += [z >> t & mask for t in shifts[r:]]
    return half


class KNodeDecoder:
    """The closed-form decoder of one ordered set of exactly k nodes (module
    docstring), built once and applied to every stripe read from them.  It
    decodes staged until its pair map is built (pair_map), paired from then
    on, and through one map once compose() has run; bitstream() picks the
    mode.

    decode() is linear in the k columns and unchecked: the caller accepts
    its message only if check_crc passes.  inverses is recover_z's memo:
    when it holds the decoder's first alpha nodes, the decoder takes their
    G^-1 and peel map from it instead of inverting.
    """

    def __init__(self, gen: GeneratorSet, nodes, inverses=None):
        params = gen.params
        field = gen.field
        log = field.log
        q1 = field.order - 1
        alpha = params.alpha
        self.gen, self.params, self.field, self.nodes = gen, params, field, tuple(nodes)
        if len(self.nodes) != params.k:
            raise ValueError(f"need exactly k={params.k} nodes, got {len(self.nodes)}")
        self.gbar_access = [[row[node] for node in self.nodes] for row in gen.gbar]
        if inverses and self.nodes[:alpha] in inverses:
            self.g_inv, self.peel_map = inverses[self.nodes[:alpha]]
        else:
            self.g_inv = invert(field, [row[:alpha] for row in self.gbar_access])
        h = mat_vec(field, self.g_inv, gen.gbar_cols[self.nodes[alpha]]) + [1]
        # for the pair map, compose() and the paired decode
        self.lam = [log[gen.delta[node]] for node in self.nodes]
        self.shifts = [field.m * node for node in self.nodes]
        self.pairs = [(r, c) for c in range(params.k) for r in range(c)]
        # p_rr = sum over c != r of (h_c / h_r) p_rc, for the alpha rows kept
        self.lh = lh = [log[x] for x in h]
        self.diagonal = [
            [(c, (lh[c] - lh[r]) % q1) for c in range(params.k) if c != r] for r in range(alpha)
        ]
        self.composed = None  # the one map compose() folds the stages into

    @functools.cached_property
    def peel_map(self) -> LinearMap:
        """x -> x G^-1 laid out as _peel_map lays it out: the map _peel
        takes in the staged decode, and the one pair_map is read off."""
        return _peel_map(self.field, self.g_inv)

    @functools.cached_property
    def pair_map(self) -> LinearMap:
        """The pair map: from the k(k-1)/2 pair values w p_rc, r < c, input
        i being pair self.pairs[i], to a block's alpha(alpha+1)/2 message
        symbols, its upper triangle row-major laid out MSB-first (symbol u
        at bits m * (alpha(alpha+1)/2 - 1 - u)).  Applied to the w p_rc it
        gives the P block's half of the message, to the w q_rc the Q
        block's (bitstream(), compose()).  Built on first access, which
        makes the decoder paired (use()) or is compose()'s own; it reads
        peel_map and needs no gbar_map.

        It is read off G^-1, h and the lambda, never by decoding unit
        vectors.  With g_r row r of G^-1 and s_r = h_c / h_r, a pair value
        p_rc (r < c) adds S = E_rc + E_cr + s_r E_rr + s_c E_cc to P_sel,
        the last two through the diagonal fill, and any term with an index
        of alpha or more drops out.  As s_r s_c = 1, S = s_r u u^T with
        u = e_r + s_c e_c, so row a of its Z = G^-T S G^-1 is
        (s_r v[a] u) G^-1 with v = g_r + s_c g_c: two lookups in peel_map,
        whose outputs are reversed, so that entries a .. alpha - 1 of the
        row are its low alpha - a outputs, last entry lowest.  So one
        mask and one shift put that segment of the row's upper triangle in
        place, reversed like the rest.  Those rows, divided by
        w = lambda_r + lambda_c, are the images of the pair map.
        """
        field = self.field
        exp, log, m = field.exp, field.log, field.m
        q1 = field.order - 1
        alpha = self.params.alpha
        g_inv, lh, lam, peel = self.g_inv, self.lh, self.lam, self.peel_map
        low, high, lmask, half = peel.low, peel.high, peel.lmask, peel.half
        # a block's message half, reversed: row a's upper-triangle segment,
        # alpha - a symbols from offset a * alpha - a(a - 1)/2, has its last
        # symbol at bit shifts[a]
        triangle = alpha * (alpha + 1) // 2
        segments = [
            ((1 << m * (alpha - a)) - 1, m * (triangle - (a + 1) * alpha + a * (a + 1) // 2)) for a in range(alpha)
        ]
        log_g_inv = [[log[x] if x else None for x in row] for row in g_inv]
        images = []
        for r, c in self.pairs:
            l_w = -log[exp[lam[r]] ^ exp[lam[c]]] % q1  # log 1 / w
            l_r = (lh[c] - lh[r]) % q1  # log s_r; s_c = 1 / s_r
            l_x = (l_r + l_w) % q1  # log s_r / w
            lo_r, hi_r = low[r], high[r]
            image = 0
            if c < alpha:
                lo_c, hi_c, l_c = low[c], high[c], q1 - l_r
                for g, l_g, (keep, shift) in zip(g_inv[r], log_g_inv[c], segments):
                    v = g if l_g is None else g ^ exp[l_g + l_c]
                    if v:
                        l_v = log[v]
                        x, y = exp[l_v + l_x], exp[l_v + l_w]  # s_r v[a] / w and v[a] / w
                        row = lo_r[x & lmask] ^ hi_r[x >> half] ^ lo_c[y & lmask] ^ hi_c[y >> half]
                        image ^= (row & keep) << shift
            else:  # g_c = 0: the parity node's pairs add s_r g_r^T g_r
                for v, (keep, shift) in zip(g_inv[r], segments):
                    if v:
                        x = exp[log[v] + l_x]
                        image ^= ((lo_r[x & lmask] ^ hi_r[x >> half]) & keep) << shift
            images.append(image)
        return LinearMap.from_images(field, images, triangle)

    def compose(self) -> None:
        """Fold the staged decode into one LinearMap from the k * alpha
        column symbols (symbol t of column c is input c * alpha + t) to the
        B message symbols, laid out MSB-first: message symbol t is output
        B - 1 - t, at bits m * (B - 1 - t), so the packed image is the
        stripe's bitstream (bitstream()), with the payload on top and the CRC
        trailer in the low bits.  bitstream() and decode() then apply that
        map alone.  The build costs the pair map's and 1.7 times as much
        again at [24,12]/GF(2^8), so a decoder composes only when
        decoder_mode says it pays.

        It builds on the pair map (pair_map), so on peel_map, and needs no
        gbar_map.  Symbol t of column c enters m_rc with weight
        g = gbar_access[t][r], so it adds g lambda_r to w p_rc and g to
        w q_rc: its image is the pair map of pair {r, c} at g lambda_r in
        the P block, shifted above the Q block, and at g itself in the Q
        block, summed over the nonzero entries of row t of gbar_access with
        r != c.
        """
        field = self.field
        exp, log, m = field.exp, field.log, field.m
        k, lam = self.params.k, self.lam
        pair_map = self.pair_map
        lmask, half = pair_map.lmask, pair_map.half
        pair_tables = [[None] * k for _ in range(k)]  # [c][r]: the pair map's tables of pair {r, c}
        for i, (r, c) in enumerate(self.pairs):
            pair_tables[c][r] = pair_tables[r][c] = pair_map.low[i], pair_map.high[i]
        # row t's nonzero entries g = gbar_access[t][r], as r and the table
        # indices of g lambda_r and of g
        rows = []
        for row in self.gbar_access:
            terms = []
            for r, g in enumerate(row):
                if g:
                    x = exp[log[g] + lam[r]]
                    terms.append((r, x & lmask, x >> half, g & lmask, g >> half))
            rows.append(terms)
        span = m * pair_map.outputs
        images = []
        for c in range(k):
            tables = pair_tables[c]
            for terms in rows:
                p = q = 0
                for r, x_low, x_high, g_low, g_high in terms:
                    if r != c:
                        lo, hi = tables[r]
                        p ^= lo[x_low] ^ hi[x_high]
                        q ^= lo[g_low] ^ hi[g_high]
                images.append(p << span ^ q)
        self.composed = LinearMap.from_images(field, images, self.params.B)

    def use(self, mode: str) -> KNodeDecoder:
        """This decoder, made to decode in ``mode`` (decoder_mode) unless composed already."""
        if mode == "paired":
            self.pair_map  # built here, once
        elif mode == "composed" and self.composed is None:
            self.compose()
        return self

    def bitstream(self, columns) -> int:
        """The message decode() returns, packed MSB-first into one int
        (bits.symbols_to_int), the form check_crc takes: one table pass
        once compose() has run, else the paired decode once the pair map is
        built, else the staged decode."""
        if self.composed is not None:
            flat = [x for col in columns for x in col]
            return self.composed.packed(flat, range(len(flat)))
        if "pair_map" not in vars(self):
            pair = pair_solve(self.gen, AccessSet(self.nodes, tuple(columns)))
            return symbols_to_int(self.solve(pair), self.field.m)
        # the paired decode: every m_rc off the columns' gbar_map images,
        # then w p_rc = lambda_r m_rc + lambda_c m_cr and w q_rc = m_rc + m_cr
        # through the pair map, the P block shifted above the Q block
        gbar_map, pair_map = self.gen.gbar_map, self.pair_map
        packed, inputs = gbar_map.packed, range(self.params.alpha)
        images = [packed(col, inputs) for col in columns]
        exp, log, mask = self.field.exp, self.field.log, gbar_map.mask
        low, high, lmask, half = pair_map.low, pair_map.high, pair_map.lmask, pair_map.half
        lam, shifts = self.lam, self.shifts
        p = q = 0
        i = 0  # the pair map's input of pair (r, c), as self.pairs orders them
        for c in range(1, len(images)):
            image_c, shift_c, lam_c = images[c], shifts[c], lam[c]
            for r in range(c):
                m_rc = image_c >> shifts[r] & mask
                m_cr = images[r] >> shift_c & mask
                x = (m_rc and exp[log[m_rc] + lam[r]]) ^ (m_cr and exp[log[m_cr] + lam_c])
                y = m_rc ^ m_cr
                lo, hi = low[i], high[i]
                p ^= lo[x & lmask] ^ hi[x >> half]
                q ^= lo[y & lmask] ^ hi[y >> half]
                i += 1
        return p << self.field.m * pair_map.outputs ^ q

    def decode(self, columns) -> list[int]:
        """The B-symbol message that the k columns, in node order, encode:
        bitstream() split into symbols."""
        return int_to_symbols(self.bitstream(columns), self.field.m, self.params.B)

    def solve(self, pair: PairSolve) -> list[int]:
        """The staged decode's last two steps, on the pair solve of this
        decoder's nodes: the first alpha rows of P and of Q get their
        diagonals from h, and _peel takes those P_sel and Q_sel to the
        message."""
        if pair.nodes != self.nodes:
            raise ValueError("pair solve is not over the decoder's nodes")
        exp, log = self.field.exp, self.field.log
        alpha = self.params.alpha
        message = []
        for mat in (pair.p, pair.q):
            p_sel = []
            for r, terms in enumerate(self.diagonal):
                row = mat[r]
                acc = 0
                for c, lc in terms:
                    if row[c]:
                        acc ^= exp[log[row[c]] + lc]
                p_sel.append(row[:r] + (acc,) + row[r + 1 : alpha])
            message += _peel(self.peel_map, p_sel)
        return message


def _k_node_round(decoder: KNodeDecoder, access: AccessSet, trace):
    """The v = 0 round over exactly k nodes, through the KNodeDecoder of
    this access set's nodes: the same result and trace entry as
    _attempt_round at v = 0 on the pair-solved access set, and the round's
    PairSolve for the v = 1 round to extend, None when the decoder is
    composed and solves no pairs."""
    pair = pair_solve(decoder.gen, access) if decoder.composed is None else None
    message = decoder.decode(access.columns) if pair is None else decoder.solve(pair)
    j = len(access.nodes)
    if not check_crc(decoder.params, message):
        trace.append(RoundTrace(0, j, "integrity"))
        return None, pair
    trace.append(RoundTrace(0, j, "accepted"))
    return (message, frozenset()), pair


def _gate_can_pass(j: int, v: int, k: int) -> bool:
    """Whether classify_columns can accept a round of j nodes at v: its
    threshold j - v - k + 2 must exceed v."""
    return j - v - k + 2 > v


def _attempt_round(
    gen: GeneratorSet, pair: PairSolve, v: int, trace, extra_erased=frozenset(), context=None, inverses=None
):
    """One round, or one erasure trial, over the pair-solved nodes; context
    is the round's rs.ErasureContext, built here when not given, and
    inverses recover_z's, by default the round's own.  At v >= 1 a block
    stops decoding rows once its gate cannot pass (row_decode's need)."""
    params = gen.params
    nodes = pair.nodes
    j = len(nodes)
    trial = tuple(sorted(extra_erased)) if extra_erased else None
    if not _gate_can_pass(j, v, params.k):
        trace.append(RoundTrace(v, j, "gate", trial))
        return None

    code = gen.code_alpha
    if context is None:
        context = _round_context(code, nodes, extra_erased)
    need = j - v - params.k + 2 if v else None
    p_rows = row_decode(code, pair.p, nodes, extra_erased, gen.col_scale, context, need)
    p_cls = classify_columns(pair.p, p_rows, nodes, v, params.k)
    if not p_cls.accepted(v):
        trace.append(RoundTrace(v, j, "gate", trial))
        return None
    q_rows = row_decode(code, pair.q, nodes, extra_erased, gen.col_scale, context, need)
    q_cls = classify_columns(pair.q, q_rows, nodes, v, params.k)
    if not q_cls.accepted(v) or q_cls.erroneous != p_cls.erroneous:
        trace.append(RoundTrace(v, j, "agreement", trial))
        return None
    if inverses is None:
        inverses = {}
    try:
        message = recover_z(p_rows, p_cls, gen, nodes, inverses) + recover_z(q_rows, q_cls, gen, nodes, inverses)
    except AsymmetryDetected:
        trace.append(RoundTrace(v, j, "asymmetry", trial))
        return None
    if not check_crc(params, message):
        trace.append(RoundTrace(v, j, "integrity", trial))
        return None
    trace.append(RoundTrace(v, j, "accepted", trial))
    return message, frozenset(nodes[c] for c in p_cls.erroneous)


def _locate(gen: GeneratorSet, pair: PairSolve, v: int, context):
    """The candidate error supports (positions into the access order) of a
    supply-capped round at v, each once: the roots among the accessed nodes
    of every locator that the stacked equations of a group of P rows fix
    (module docstring).  context is the failed round's rs.ErasureContext,
    whose erasures are the unaccessed positions."""
    nodes = pair.nodes
    j = len(nodes)
    checks = j - gen.params.k - v  # equations per row
    if checks <= 0:
        yield from itertools.combinations(range(j), v)
        return
    code = gen.code_alpha
    mul = code.field.mul
    head = code.n - j + 1 + v  # |X_r| + v

    @functools.cache
    def equations(r):
        """Row r's equations sum_i Lambda_i U_r[t - i] = U_r[t], i = 1..v,
        as rows [U_r[t - 1], .., U_r[t - v], U_r[t]]."""
        # the context's known positions are the accessed nodes
        held = {node: mul(x, gen.col_scale[node]) for c, (node, x) in enumerate(zip(nodes, pair.p[r])) if c != r}
        u = context.adjusted(held, nodes[r])
        return [u[t - v : t][::-1] + [u[t]] for t in range(head, len(u))]

    seen = set()
    for group in itertools.combinations(range(j), -(-v // checks)):
        solved = row_reduce(code.field, [eq for r in group for eq in equations(r)])
        # one solution exactly when the v pivots are the v unknowns
        if len(solved) != v or not solved[-1][v - 1]:
            continue
        values = code._evaluation_map.apply([1] + [row[v] for row in solved])
        support = tuple(c for c, node in enumerate(nodes) if not values[node])
        if len(support) == v and support not in seen:
            seen.add(support)
            yield support


def reconstruct_progressive(
    gen: GeneratorSet, source, rng: random.Random, k_decoder=None, inverses=None
) -> DecodeReport:
    """Run the progressive reconstruction loop against a share source.

    source(node_index) returns the node's alpha symbols, or None if the node
    is unreachable; no node is ever requested twice.  A candidate B-symbol
    message is accepted only if check_crc passes.  All node choices come
    from ``rng``, so a seeded generator makes the whole run deterministic.
    A round that the node supply caps below k + 2v nodes, and whose gate
    can pass, then tries the erasure supports that _locate derives from the
    rows' shared error locator, at most C(j, 2) of them (module docstring).
    k_decoder(nodes) gives the v = 0 round the KNodeDecoder of its k nodes;
    by default a new one is built.  inverses is recover_z's memo for every
    later round, by default one per round.
    """
    params = gen.params
    if k_decoder is None:
        k_decoder = functools.partial(KNodeDecoder, gen)
    n, k, alpha = params.n, params.k, params.alpha
    v_cap = params.error_capability
    requested: set[int] = set()
    nodes: list[int] = []
    columns: list[tuple[int, ...]] = []
    trace: list[RoundTrace] = []

    def fetch(node: int) -> None:
        requested.add(node)
        col = source(node)
        if col is None:
            return
        col = tuple(col)
        if len(col) != alpha:
            raise ValueError(f"source returned {len(col)} symbols for node {node}, expected {alpha}")
        nodes.append(node)
        columns.append(col)

    def fetch_up_to(target: int) -> None:
        while len(nodes) < target:
            remaining = [i for i in range(n) if i not in requested]
            if not remaining:
                return
            fetch(rng.choice(remaining))

    for pick in rng.sample(range(n), k):
        fetch(pick)
    fetch_up_to(k)
    if len(nodes) < k:
        return DecodeReport(None, len(nodes), tuple(nodes), 0, frozenset(), FAIL_RAN_OUT_OF_NODES, trace)

    starved = False
    pair = None
    for v in range(v_cap + 1):
        fetch_up_to(min(k + 2 * v, n))
        j = len(nodes)
        if j < min(k + 2 * v, n):
            starved = True
        access = AccessSet(nodes=tuple(nodes), columns=tuple(columns))
        if v == 0:  # always exactly k nodes
            result, pair = _k_node_round(k_decoder(access.nodes), access, trace)
        else:
            pair = pair_solve(gen, access, pair)
            context = _round_context(gen.code_alpha, pair.nodes, ())
            result = _attempt_round(gen, pair, v, trace, context=context, inverses=inverses)
        if result is None and j < k + 2 * v and _gate_can_pass(j, v, k):
            for combo in _locate(gen, pair, v, context):
                extra = frozenset(pair.nodes[c] for c in combo)
                result = _attempt_round(gen, pair, v, trace, extra_erased=extra, inverses=inverses)
                if result is not None:
                    break
        if result is not None:
            message, err_nodes = result
            return DecodeReport(message, j, tuple(nodes), v, err_nodes, None, trace)

    reason = FAIL_RAN_OUT_OF_NODES if starved else FAIL_INTEGRITY_AT_MAX
    return DecodeReport(None, len(nodes), tuple(nodes), v_cap, frozenset(), reason, trace)


def systematic_message(gen: GeneratorSet, source) -> list[int] | None:
    """One stripe's B-symbol message, decoded in closed form from the alpha
    systematic nodes n - alpha .. n - 1 and the lowest parity node that is
    there, or None: when gen is not systematic, when a systematic node is
    missing, when every parity node is, or when the message fails check_crc.
    source is reconstruct_progressive's, node -> its alpha symbols or None;
    it is asked for the systematic nodes in order, up to the first missing
    one, then for nodes 0, 1, .. until one is there.

    Node t = n - alpha + i has Gbar column e_i (rs.systematic_generator), so
    it stores column i of Z1 + lambda_t Z2 (the product-matrix systematic
    form of Rashmi, Shah and Kumar).  Off the diagonal, Z's symmetry gives
    pair_solve's system with unit Gbar columns: entry r of node
    n - alpha + c's column is Z1_rc + lambda_(n-alpha+c) Z2_rc, and entry c of
    node n - alpha + r's is Z1_rc + lambda_(n-alpha+r) Z2_rc.  Entry i of node
    t's column is Z1_ii + lambda_t Z2_ii, and the parity node x, whose Gbar
    column g has no zero entry, gives Z1_ii + lambda_x Z2_ii =
    (y_x[i] + sum over c != i of (Z1_ic + lambda_x Z2_ic) g_c) / g_i.  So it
    takes O(alpha^2) table lookups: no inverse, no linear map, no gbar_map.
    Its k nodes carry no redundancy, so, as in the v = 0 round, only the CRC
    can reject."""
    if gen.flavor != "systematic":
        return None
    n, alpha = gen.params.n, gen.params.alpha
    first = n - alpha
    y = []
    for t in range(first, n):
        column = source(t)
        if column is None:
            return None
        y.append(column)
    for x in range(first):
        y_x = source(x)
        if y_x is not None:
            break
    else:
        return None

    exp, log = gen.field.exp, gen.field.log
    q1 = gen.field.order - 1
    lam = gen.delta[first:]
    l_lam = [log[v] for v in lam]
    lam_x = gen.delta[x]
    l_x = log[lam_x]
    l_g = [log[row[x]] for row in gen.gbar]
    # each block's upper triangle, row-major, the diagonal filled last from
    # acc[i] = g_i (Z1_ii + lambda_x Z2_ii), once every pair has added to it
    half1, half2, diagonal = [], [], []
    acc = list(y_x)
    for r in range(alpha):
        diagonal.append(len(half1))
        half1.append(0)
        half2.append(0)
        y_r = y[r]
        for c in range(r + 1, alpha):
            m_rc = y[c][r]
            s = m_rc ^ y_r[c]  # (lambda_r + lambda_c) Z2_rc
            if s:
                l_z2 = (log[s] - log[lam[r] ^ lam[c]]) % q1
                z1 = m_rc ^ exp[l_z2 + l_lam[c]]
                half2.append(exp[l_z2])
                w = z1 ^ exp[l_z2 + l_x]
            else:
                z1 = w = m_rc
                half2.append(0)
            half1.append(z1)
            if w:  # Z1_rc + lambda_x Z2_rc, in row r at g_c and row c at g_r
                acc[r] ^= exp[log[w] + l_g[c]]
                acc[c] ^= exp[log[w] + l_g[r]]
    for i, at in enumerate(diagonal):
        b = y[i][i]  # Z1_ii + lambda_i Z2_ii
        a = acc[i] and exp[log[acc[i]] - l_g[i] + q1]  # Z1_ii + lambda_x Z2_ii
        if a != b:
            l_z2 = (log[a ^ b] - log[lam_x ^ lam[i]]) % q1
            half1[at] = b ^ exp[l_z2 + l_lam[i]]
            half2[at] = exp[l_z2]
        else:
            half1[at] = b
    message = half1 + half2
    return message if check_crc(gen.params, message) else None


# ---------------------------------------------------------------------------
# file-level read session


@dataclass
class FileReport:
    """The outcome of reconstruct_file.

    bitstreams holds the decoded stripes in order, each packed MSB-first
    into one int as check_crc took it, and stops at the first stripe that
    failed; progressive maps every stripe that ran reconstruct_progressive
    to its report.
    """

    params: MsrParams
    stripe_count: int
    bitstreams: list[int]
    progressive: dict[int, DecodeReport]

    @property
    def messages(self) -> list[list[int]]:
        """The decoded stripes as B-symbol message lists."""
        m, count = self.params.m, self.params.B
        return [int_to_symbols(value, m, count) for value in self.bitstreams]

    @property
    def success(self) -> bool:
        return len(self.bitstreams) == self.stripe_count

    @property
    def trusted_stripes(self) -> int:
        """Stripes decoded from the trusted set alone."""
        return len(self.bitstreams) - sum(report.success for report in self.progressive.values())

    @property
    def bad_nodes(self) -> frozenset[int]:
        """Every node a progressive stripe found erroneous."""
        return frozenset().union(*(report.erroneous_nodes for report in self.progressive.values()))


# decoder_mode's two measured ratios, fitted to tools/decoder_mode_costs.py's
# timings of its default codes (m = 3..16, [28,14], [60,30], [40,20]) at 931422c
WIDE_BITS = 4000  # a lookup of w-bit images costs 1 + (w / WIDE_BITS)^2: wide tables fall out of cache
STEP_LOOKUPS = 11  # a step of interpreted bookkeeping: k^2 per staged stripe, one per bit plane of a build


def decoder_mode(params: MsrParams, stripes: int, first: bool = False) -> str:
    """The mode, "staged", "paired" or "composed", in which a trusted set's
    KNodeDecoder decodes ``stripes`` stripes at least cost (module docstring);
    with first, stripe 0's first round's, composed or staged."""
    n, k, m, a, b = params.n, params.k, params.m, params.alpha, params.B
    h, entries = b // 2, LinearMap.table_entries(m)  # h: node pairs, and a message block's symbols

    def lookups(count, bits):  # of bits-wide images
        return count * (1 + (bits / WIDE_BITS) ** 2)

    def fill(inputs, bits):  # a LinearMap's tables: their bits, three calls an entry, a step a bit plane
        return inputs * entries * ((1 + bits / WIDE_BITS) ** 2 - 1) + 3 * entries + STEP_LOOKUPS * m

    gbar = lookups(b, n * m)  # the k columns through gen.gbar_map; cost is per stripe
    cost = {"staged": gbar + STEP_LOOKUPS * k**2, "paired": gbar + b + lookups(b, h * m), "composed": lookups(b, b * m)}
    pairing = lookups(3 * h * a, h * m) + fill(h, h * m)  # the pair map's build, which composing extends
    build = {"staged": 0, "paired": pairing, "composed": pairing + lookups(4 * h * a, h * m) + fill(b, b * m)}
    total = {mode: build[mode] + stripes * cost[mode] for mode in build}
    if not first:
        return min(total, key=total.get)
    # a staged first round also builds gen.gbar_map, and leaves stripes - 1 to the trusted set
    staged = fill(a, n * m) + cost["staged"] + min(total[mode] - cost[mode] for mode in total)
    return "composed" if total["composed"] < staged else "staged"


def reconstruct_file(gen: GeneratorSet, source, stripe_count: int, seed) -> FileReport:
    """Decode stripes 0 .. stripe_count - 1 of one file (module docstring,
    read session).

    source(node, stripe) returns the node's alpha symbols of that stripe, or
    None.  A stripe runs reconstruct_progressive, with the generator
    random.Random(f"{seed}:stripe:{stripe}"), when no trusted set exists
    yet, when a trusted node's column is missing, or when the trusted set's
    message fails check_crc.  Decoding stops at the first stripe that fails.
    """
    params = gen.params
    bitstreams: list[int] = []
    progressive: dict[int, DecodeReport] = {}
    decoder = None  # the session's one decoder, rebuilt when asked for other nodes
    inverses = {}  # recover_z's latest inverse, which a new decoder takes when its first alpha nodes match

    def k_decoder(nodes) -> KNodeDecoder:
        nonlocal decoder
        if decoder is None or decoder.nodes != nodes:
            decoder = KNodeDecoder(gen, nodes, inverses)
        return decoder

    def stripe_0(nodes) -> KNodeDecoder:  # its first round's, whose nodes a clean read then trusts
        return k_decoder(nodes).use(decoder_mode(params, stripe_count, first=True))

    trusted = None
    for s in range(stripe_count):
        if trusted is not None:
            columns = [source(node, s) for node in trusted]
            if None not in columns:
                value = k_decoder(trusted).use(mode).bitstream(columns)
                if check_crc(params, value):
                    bitstreams.append(value)
                    continue
        rng = random.Random(f"{seed}:stripe:{s}")
        report = reconstruct_progressive(gen, lambda node: source(node, s), rng, k_decoder if s else stripe_0, inverses)
        progressive[s] = report
        if not report.success:
            break
        bitstreams.append(symbols_to_int(report.recovered_message, params.m))
        trusted = tuple(node for node in report.accessed_nodes if node not in report.erroneous_nodes)[: params.k]
        mode = decoder_mode(params, stripe_count - s - 1)  # the trusted set's, for the stripes after this one
    return FileReport(params, stripe_count, bitstreams, progressive)
