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
   columns and solves only the pairs with a new node.
2. row_decode: each row of P-tilde extends to a codeword of the [n, k-1]
   code, so it is decoded by errors-and-erasures with the unaccessed
   positions (and a trial's extra nodes) and the row's own diagonal
   erased.  The first part is the same for every row of P and Q, so a
   round builds one rs.ErasureContext for it, whose one linear map takes a
   row's held symbols straight to its Forney syndromes, and each row adds
   only its diagonal, one (1 + X_r z) step.  A lying node corrupts the same
   column of every row, so the rows share their error positions: the
   context keeps the error locator that Berlekamp-Massey found for an
   earlier row, and a later row whose Forney syndromes fit it takes its
   errata without running Berlekamp-Massey.  The syndrome recheck, which
   maps just the corrected symbols, and a fallback to Berlekamp-Massey
   give every row the result of its own decode.
3. classify_columns: a node column counts as erroneous when at least
   j - v - k + 2 decoded rows disagree with its received values (this is
   v + 2 when j = k + 2v nodes are held), and as correct when at most v
   disagree.  The round is accepted only if exactly v erroneous and j - v
   correct columns emerge, for both P and Q, naming the same nodes.
4. recover_z: alpha correct, decoded columns and the decoded rows of the
   same nodes form P_sel, which must be symmetric; with G those nodes'
   Gbar columns, _peel gives the message block Z = G^-T P_sel G^-1 through
   one LinearMap of G^-1 (P and Q share it when they pick the same
   columns), and the message must pass the integrity check (CRC-32) before
   it is returned.

When the node supply caps the round below j = k + 2v, plain per-row
decoding can sit exactly at the distance bound (s + 2v = d_min) and fail
even though the v corrupted columns are jointly locatable.  Those rounds
fall back to progressive erasure trials: every size-v subset of accessed
nodes is hypothesized as the error support and erased outright, which
restores per-row decodability; wrong hypotheses die at the classification
gate, the symmetry check, or the integrity check.  The gate needs its
threshold j - v - k + 2 to exceed v, so a round (or trial) with
j <= k + 2v - 2 is recorded as a gate failure without decoding any row.

The trials run in order of a syndrome score, so the true support usually
comes first.  Row r of P, erased at X_r (the unaccessed nodes and its own
diagonal), has Forney syndromes U_r = S(w_r) * Gamma_X_r mod z^(n - alpha),
read off the failed round's erasure context, whose coefficients from |X_r|
on vanish exactly when every error of the row lies in X_r.  Since
Gamma_(X_r + E) = Gamma_X_r * Gamma_E, a support E explains row r when
(U_r * Gamma_E)_t = 0 for t in [|X_r| + v, n - alpha), and E scores the
rows outside it that it explains.  Under the true support
every clean row passes; under a wrong one a lying column stays unerased and
each clean row passes only by chance, about 2^-m per check.  Ranking only
reorders the same candidates under the same gates, so the outcome is the
one the plain enumeration reaches unless a wrong support passes every gate
and the integrity check.  A round with no check to make (j - k - v <= 0:
erasing v columns leaves at most k, with no redundancy) keeps enumeration
order and pays nothing for the score.  Counts of mismatching columns in the
failed round are no guide: with the round sitting at the distance bound,
few rows decode at all.

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
once, from one inverse: the logs of the pair-solve coefficients
1 / (lambda_r + lambda_c) and lambda_c / (lambda_r + lambda_c), the logs of
h_c / h_r for the diagonal fill, and a linalg.LinearMap for G^-1, which
_peel runs twice (over P_sel's rows, then over the result's columns) to
give Z, as in recover_z.  Column c of M = Gbar_access^T Y is read off
y_c's image under gen.gbar_map, the map pair_solve uses.  The v = 0
round of reconstruct_progressive and the read session below use this one
decoder.  Those stages make a linear map from the k * alpha column symbols
to the B message symbols, and KNodeDecoder.compose() folds them into one
LinearMap built from the decoder's own parts (its docstring), after which
decode() is one table pass instead of k + 4 * alpha map applications, the
pair solve and the diagonal fill.  The composed map lays its outputs out
MSB-first, so that pass yields the stripe's bitstream, the message packed
into one int as bits.symbols_to_int packs it (KNodeDecoder.bitstream).

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
the same check_crc that alone decides the v = 0 round (which also checks the
bitstream, and unpacks it only once accepted).  check_crc reads the CRC-32
trailer off the low bits and hashes the payload bits above it as bytes, so a
trusted stripe is never split into symbols: the session keeps each accepted
stripe as its int (FileReport.bitstreams), and the CLI joins the payload
bits into the file with bits.symbols_to_bytes, one payload per symbol.  The
rounds that locate errors hand check_crc their message list, which it packs
once.  A missing trusted column or a failed check sends that stripe to
reconstruct_progressive, seeded exactly as a stripe read on its own would
be.  So a node caught lying or missing is not read again while the trusted
set holds, a clean file is read from k nodes, and every stripe still passes
the CRC before it is accepted.  The decoder lives in the session, never on
the GeneratorSet, so nothing grows across files.

The session composes the trusted set's decoder when, at a stripe it decodes
from that set, at least LinearMap.table_entries(m) = 2^ceil(m/2) +
2^floor(m/2) stripes are left (this one included): 12 at m = 5, 32 at m = 8.
The build fills that many table entries per input and grows with them.  On
[20,10]/GF(2^5) it costs about six staged decodes and on [24,12]/GF(2^8)
about ten, while a composed stripe decodes in about a seventh of the staged
time, so it repays itself after about 7 and 12 stripes.  The threshold sits
at or above that break-even and follows from the kernel's layout rather
than a setting.  Shorter files, and every
single-stripe round (stripe 0's v = 0 round, update, simulate), keep the
staged decode, which is also the tests' reference for the composed one.
Either path gives the same message, so the choice changes no output.

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
from math import comb

from .bits import int_to_symbols, symbols_to_bytes, symbols_to_int
from .linalg import LinearMap, invert, mat_vec
from .msr import GeneratorSet, MsrParams, WrongLength
from .rs import RsCode

__all__ = [
    "AccessSet",
    "PairSolve",
    "RowDecode",
    "Classification",
    "RoundTrace",
    "DecodeReport",
    "AsymmetryDetected",
    "pair_solve",
    "row_decode",
    "classify_columns",
    "recover_z",
    "reconstruct_progressive",
    "KNodeDecoder",
    "FileReport",
    "reconstruct_file",
    "crc_trailer_length",
    "crc_payload_length",
    "attach_crc",
    "check_crc",
]

FAIL_RAN_OUT_OF_NODES = "RanOutOfNodes"
FAIL_INTEGRITY_AT_MAX = "IntegrityFailedAtMax"

# most size-v erasure supports a supply-capped round may enumerate
TRIAL_BUDGET = 200_000


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


def attach_crc(params: MsrParams, payload) -> list[int]:
    """Append the CRC-32 of the payload bits as the final trailer symbols,
    MSB-first with the high bits zero-padded."""
    expected = crc_payload_length(params)
    if len(payload) != expected:
        raise WrongLength(f"payload must have {expected} symbols, got {len(payload)}")
    m = params.m
    crc = zlib.crc32(symbols_to_bytes(payload, m, (expected * m + 7) // 8))
    return list(payload) + int_to_symbols(crc, m, crc_trailer_length(m))


def check_crc(params: MsrParams, message) -> bool:
    """Whether ``message`` ends in the CRC-32 of its payload bits.  It is a
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
class RowDecode:
    decoded: bool
    codeword: tuple[int, ...] | None
    corrected: frozenset[int]


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

    mul, inv = gen.field.mul, gen.field.inv
    m, mask = gbar_map.m, gbar_map.mask
    for r in range(j):
        lam_r = gen.delta[nodes[r]]
        shift_r = m * nodes[r]
        for c in range(max(r + 1, held), j):
            lam_c = gen.delta[nodes[c]]
            m_rc = images[c] >> shift_r & mask
            m_cr = images[r] >> m * nodes[c] & mask
            qv = mul(m_rc ^ m_cr, inv(lam_c ^ lam_r))
            pv = m_rc ^ mul(qv, lam_c)
            p[r][c] = p[c][r] = pv
            q[r][c] = q[c][r] = qv
    return PairSolve(
        nodes=nodes,
        p=tuple(tuple(row) for row in p),
        q=tuple(tuple(row) for row in q),
        images=images,
    )


def row_decode(code: RsCode, mat, nodes, extra_erased=frozenset(), scale=None, context=None) -> list[RowDecode]:
    """Decode each pair-solved row as an [n, k-1] received word.

    Erased positions: everything unaccessed, any extra nodes a fallback
    trial wants treated as unreliable, and the row's own diagonal.  The
    first two are common to every row, so one ``context`` (built here when
    not given) serves them all.  ``scale`` (GeneratorSet.col_scale) maps
    Gbar's row space into ``code``: each word is multiplied by it before
    decoding and the codeword divided by it after.
    """
    n = code.n
    j = len(nodes)
    if context is None:
        context = _round_context(code, nodes, extra_erased)
    if scale is not None and all(s == 1 for s in scale):
        scale = None
    mul, div = code.field.mul, code.field.div
    out = []
    for r in range(j):
        word = [0] * n
        row = mat[r]
        for c in range(j):
            if c == r or nodes[c] in extra_erased:
                continue
            node = nodes[c]
            word[node] = row[c] if scale is None else mul(row[c], scale[node])
        res = context.decode(word, None if nodes[r] in extra_erased else nodes[r])
        if res is None:
            out.append(RowDecode(decoded=False, codeword=None, corrected=frozenset()))
            continue
        codeword = res.codeword
        if scale is not None:
            codeword = tuple(div(x, s) for x, s in zip(codeword, scale))
        out.append(RowDecode(decoded=True, codeword=codeword, corrected=res.corrected_positions))
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
        rd = rows[r]
        if not rd.decoded:
            continue
        cw = rd.codeword
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


def recover_z(rows, cls: Classification, gen: GeneratorSet, nodes, peel_maps: dict) -> list[int]:
    """The upper triangle, row-major, of the symmetric alpha x alpha message
    block of an accepted round: its half of the flat message.

    alpha correct, decoded columns are selected, and the rows of the same
    nodes give P_sel, which one inverse peels to Z.  A non-symmetric P_sel
    means some row miscorrected and the round must be rejected.  peel_maps
    maps the selected nodes to the peel map of that inverse and is filled as
    needed; one round shares it between its P and Q blocks, which usually
    select the same nodes.
    """
    alpha = gen.params.alpha
    usable = [c for c in sorted(cls.correct) if rows[c].decoded]
    if len(usable) < alpha:
        raise AsymmetryDetected("not enough decoded correct columns to invert")
    sel = usable[:alpha]
    key = tuple(nodes[c] for c in sel)
    p_sel = [tuple(rows[r].codeword[node] for node in key) for r in sel]
    # Z = G^-T @ P_sel @ G^-1 is symmetric exactly when P_sel is
    if p_sel != list(zip(*p_sel)):
        raise AsymmetryDetected("recovered block is not symmetric")
    if key not in peel_maps:
        g = [[row[node] for node in key] for row in gen.gbar]
        peel_maps[key] = LinearMap(gen.field, invert(gen.field, g))
    return _peel(peel_maps[key], p_sel)


def _peel(peel_map: LinearMap, p_sel) -> list[int]:
    """The upper triangle, row-major, of Z = G^-T @ P_sel @ G^-1, undoing
    P_sel = G^T @ Z @ G on the chosen positions, where peel_map is
    x -> x @ G^-1: once over P_sel's rows, then over the result's columns.
    P_sel is symmetric, so Z is too."""
    peel = peel_map.apply
    w = [peel(row) for row in p_sel]
    half = []
    for r, col in enumerate(zip(*w)):
        half += peel(col)[r:]
    return half


class KNodeDecoder:
    """The closed-form decoder of one ordered set of exactly k nodes (module
    docstring), built once and applied to every stripe read from them.

    decode() is linear in the k columns and unchecked: the caller accepts
    its message only if check_crc passes.
    """

    def __init__(self, gen: GeneratorSet, nodes):
        params = gen.params
        field = gen.field
        exp, log = field.exp, field.log
        q1 = field.order - 1
        alpha = params.alpha
        self.params, self.field, self.nodes = params, field, tuple(nodes)
        if len(self.nodes) != params.k:
            raise ValueError(f"need exactly k={params.k} nodes, got {len(self.nodes)}")
        gbar_access = [[row[node] for node in self.nodes] for row in gen.gbar]
        g_inv = invert(field, [row[:alpha] for row in gbar_access])
        h = mat_vec(field, g_inv, gen.gbar_cols[self.nodes[alpha]]) + [1]
        # y_c -> Gbar^T y_c, packed: m_rc sits at bit shifts[r]
        self.gbar_map = gen.gbar_map
        self.shifts = [field.m * node for node in self.nodes]
        # x -> x G^-1, the map _peel takes
        self.peel_map = LinearMap(field, g_inv)
        # pair (r, c), r < c, with s = m_rc + m_cr and w = lambda_c + lambda_r:
        # q = s / w and p = m_rc + s lambda_c / w, as logs of 1 / w and lambda_c / w
        self.lam = lam = [log[gen.delta[node]] for node in self.nodes]
        self.pairs = []
        for r in range(params.k):
            for c in range(r + 1, params.k):
                lw = log[exp[lam[r]] ^ exp[lam[c]]]
                self.pairs.append((r, c, (lam[c] - lw) % q1, -lw % q1))
        # p_rr = sum over c != r of (h_c / h_r) p_rc, for the alpha rows kept
        self.lh = lh = [log[x] for x in h]
        self.diagonal = [
            [(c, (lh[c] - lh[r]) % q1) for c in range(params.k) if c != r] for r in range(alpha)
        ]
        self.g_inv, self.gbar_access = g_inv, gbar_access
        self.composed = None  # the one map compose() folds the stages into

    def compose(self) -> None:
        """Fold the staged decode into one LinearMap from the k * alpha
        column symbols (symbol t of column c is input c * alpha + t) to the
        B message symbols, laid out MSB-first: message symbol t is output
        B - 1 - t, at bits m * (B - 1 - t), so the packed image is the
        stripe's bitstream (bitstream()), with the payload on top and the CRC
        trailer in the low bits.  bitstream() and decode() then apply that
        map alone.  The build costs several staged decodes, so
        reconstruct_file composes a trusted set's decoder once, and only
        with enough stripes left.

        The map is read off the decoder's own parts, never by decoding unit
        vectors.  With g_r row r of G^-1 and s_r = h_c / h_r, a pair value
        p_rc (r < c) adds S = E_rc + E_cr + s_r E_rr + s_c E_cc to P_sel,
        the last two through the diagonal fill, and any term with an index
        of alpha or more drops out.  As s_r s_c = 1, S = s_r u u^T with
        u = e_r + s_c e_c, so row a of its Z = G^-T S G^-1 is
        (s_r v[a] u) G^-1 with v = g_r + s_c g_c: two lookups in a copy of
        peel_map with its outputs reversed, where entries a .. alpha - 1 of
        the row are its low alpha - a outputs, last entry lowest.  So one
        mask and one shift put that segment of the row's upper triangle in
        place, reversed like the rest.  Those rows give the pair map, from
        the k(k-1)/2 pair values to a block's alpha(alpha+1)/2 message
        symbols, and P and Q share it, P shifted above Q.  Symbol t of
        column c enters m_rc with weight gbar_access[t][r], so with
        w = lambda_r + lambda_c it adds gbar_access[t][r] lambda_r / w to
        p_rc and gbar_access[t][r] / w to q_rc: its image is the pair map on
        those k - 1 pairs, once per block.
        """
        field = self.field
        exp, log, m = field.exp, field.log, field.m
        q1 = field.order - 1
        k, alpha = self.params.k, self.params.alpha
        g_inv, lh, lam = self.g_inv, self.lh, self.lam
        # x -> x G^-1 with output b at bits m * (alpha - 1 - b)
        peel = LinearMap(field, [row[::-1] for row in g_inv])
        # a block's message half, reversed: row a's upper-triangle segment,
        # alpha - a symbols from offset a * alpha - a(a - 1)/2, has its last
        # symbol at bit shifts[a]
        triangle = alpha * (alpha + 1) // 2
        masks = [(1 << m * (alpha - a)) - 1 for a in range(alpha)]
        shifts = [m * (triangle - (a + 1) * alpha + a * (a + 1) // 2) for a in range(alpha)]
        span = m * triangle
        low, high, lmask, half = peel.low, peel.high, peel.lmask, peel.half
        pair_of = [[0] * k for _ in range(k)]
        images = []
        for i, (r, c, _, _) in enumerate(self.pairs):
            pair_of[r][c] = pair_of[c][r] = i
            l_r = (lh[c] - lh[r]) % q1  # log s_r; s_c = 1 / s_r
            image = 0
            for a in range(alpha):
                v = g_inv[r][a]
                if c < alpha and g_inv[c][a]:
                    v ^= exp[log[g_inv[c][a]] + q1 - l_r]
                if not v:
                    continue
                x = exp[log[v] + l_r]
                row = low[r][x & lmask] ^ high[r][x >> half]
                if c < alpha:
                    row ^= low[c][v & lmask] ^ high[c][v >> half]
                image ^= (row & masks[a]) << shifts[a]
            images.append(image)
        pair_map = LinearMap.from_images(field, images, triangle)

        images = []
        p_in, q_in = [0] * len(self.pairs), [0] * len(self.pairs)
        for c in range(k):
            # (r, pair {r, c}, log lambda_r / w, log 1 / w) for every r != c
            terms = []
            for r in range(k):
                if r != c:
                    i = pair_of[r][c]
                    l_q = self.pairs[i][3]
                    terms.append((r, i, (lam[r] + l_q) % q1, l_q))
            indices = [i for _, i, _, _ in terms]
            for row in self.gbar_access:
                for r, i, l_p, l_q in terms:
                    if row[r]:
                        l_g = log[row[r]]
                        p_in[i], q_in[i] = exp[l_g + l_p], exp[l_g + l_q]
                    else:
                        p_in[i] = q_in[i] = 0
                images.append(pair_map.packed(p_in, indices) << span ^ pair_map.packed(q_in, indices))
        self.composed = LinearMap.from_images(field, images, self.params.B)

    def bitstream(self, columns) -> int:
        """The message decode() returns, packed MSB-first into one int
        (bits.symbols_to_int), the form check_crc takes: one table pass
        once compose() has run."""
        if self.composed is None:
            return symbols_to_int(self.decode(columns), self.field.m)
        flat = [x for col in columns for x in col]
        return self.composed.packed(flat, range(len(flat)))

    def decode(self, columns) -> list[int]:
        """The B-symbol message that the k columns, in node order, encode:
        through the composed map once compose() has run, else in stages."""
        if self.composed is not None:
            return int_to_symbols(self.bitstream(columns), self.field.m, self.params.B)
        exp, log = self.field.exp, self.field.log
        k, alpha = self.params.k, self.params.alpha
        mask, shifts = self.field.order - 1, self.shifts
        images = [self.gbar_map.packed(col, range(alpha)) for col in columns]
        p = [[0] * k for _ in range(alpha)]
        q = [[0] * k for _ in range(alpha)]
        for r, c, l_p, l_q in self.pairs:
            m_rc = images[c] >> shifts[r] & mask
            s = m_rc ^ images[r] >> shifts[c] & mask
            if s:
                ls = log[s]
                p[r][c] = m_rc ^ exp[ls + l_p]
                q[r][c] = exp[ls + l_q]
            else:
                p[r][c] = m_rc
            if c < alpha:
                p[c][r], q[c][r] = p[r][c], q[r][c]
        message = []
        for mat in (p, q):
            for r, terms in enumerate(self.diagonal):
                row = mat[r]
                acc = 0
                for c, lc in terms:
                    if row[c]:
                        acc ^= exp[log[row[c]] + lc]
                row[r] = acc
            message += _peel(self.peel_map, [row[:alpha] for row in mat])
        return message


def _k_node_round(decoder: KNodeDecoder, access: AccessSet, trace):
    """The v = 0 round over exactly k nodes, through the KNodeDecoder of
    this access set's nodes; returns the same result and trace entry as
    _attempt_round at v = 0 on the pair-solved access set."""
    value = decoder.bitstream(access.columns)
    j = len(access.nodes)
    if not check_crc(decoder.params, value):
        trace.append(RoundTrace(0, j, "integrity"))
        return None
    trace.append(RoundTrace(0, j, "accepted"))
    return int_to_symbols(value, decoder.params.m, decoder.params.B), frozenset()


def _gate_can_pass(j: int, v: int, k: int) -> bool:
    """Whether classify_columns can accept a round of j nodes at v: its
    threshold j - v - k + 2 must exceed v."""
    return j - v - k + 2 > v


def _attempt_round(gen: GeneratorSet, pair: PairSolve, v: int, trace, extra_erased=frozenset(), context=None):
    """One round, or one erasure trial, over the pair-solved nodes; context
    is the round's rs.ErasureContext, built here when not given."""
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
    p_rows = row_decode(code, pair.p, nodes, extra_erased, gen.col_scale, context)
    p_cls = classify_columns(pair.p, p_rows, nodes, v, params.k)
    if not p_cls.accepted(v):
        trace.append(RoundTrace(v, j, "gate", trial))
        return None
    q_rows = row_decode(code, pair.q, nodes, extra_erased, gen.col_scale, context)
    q_cls = classify_columns(pair.q, q_rows, nodes, v, params.k)
    if not q_cls.accepted(v) or q_cls.erroneous != p_cls.erroneous:
        trace.append(RoundTrace(v, j, "agreement", trial))
        return None
    try:
        peel_maps = {}
        message = recover_z(p_rows, p_cls, gen, nodes, peel_maps) + recover_z(q_rows, q_cls, gen, nodes, peel_maps)
    except AsymmetryDetected:
        trace.append(RoundTrace(v, j, "asymmetry", trial))
        return None
    if not check_crc(params, message):
        trace.append(RoundTrace(v, j, "integrity", trial))
        return None
    trace.append(RoundTrace(v, j, "accepted", trial))
    return message, frozenset(nodes[c] for c in p_cls.erroneous)


def _trial_order(gen: GeneratorSet, pair: PairSolve, v: int, context) -> list[tuple[int, ...]]:
    """Every size-v erasure support (positions into the access order) in
    descending syndrome score, ties in enumeration order; the score is
    defined in the module docstring.  context is the failed round's
    rs.ErasureContext, whose erasures are the unaccessed positions."""
    nodes = pair.nodes
    j = len(nodes)
    supports = list(itertools.combinations(range(j), v))
    if j - gen.params.k - v <= 0:
        return supports
    code = gen.code_alpha
    field, scale = code.field, gen.col_scale
    exp, log = field.exp, field.log
    head = code.n - j + 1  # |X_r|
    # hankels[r] maps a degree v-1 polynomial g to (U_r * g)_t, t >= |X_r| + v - 1;
    # its entries are logs, None for zero
    hankels = []
    for r, row in enumerate(pair.p):
        word = [0] * code.n
        for c, node in enumerate(nodes):
            if c != r:
                word[node] = field.mul(row[c], scale[node])
        u = [log[x] if x else None for x in context.adjusted(word, nodes[r])]
        hankels.append([u[t - v + 1 : t + 1][::-1] for t in range(head + v - 1, len(u))])

    def products(rows, terms) -> list[int]:
        """rows @ g, with g's nonzero coefficients given as (index, log)."""
        out = []
        for row in rows:
            acc = 0
            for i, lg in terms:
                lx = row[i]
                if lx is not None:
                    acc ^= exp[lx + lg]
            out.append(acc)
        return out

    # E = P + (c,) with P a size-(v-1) prefix.  With a = U_r * Gamma_P,
    # (U_r * Gamma_E)_t = a_t + X_c a_(t-1), so row r passes E exactly when
    # a is geometric with ratio X_c = alpha^nodes[c] from |X_r| + v - 1 on:
    # one ratio names the only passing c, and an all-zero a passes every c.
    # That costs one product per prefix and row instead of one per support.
    position = {node: c for c, node in enumerate(nodes)}
    score = dict.fromkeys(supports, 0)
    for prefix in itertools.combinations(range(j - 1), v - 1):
        gamma = code.locator([nodes[c] for c in prefix])
        terms = [(i, log[g]) for i, g in enumerate(gamma) if g]
        first = prefix[-1] + 1 if prefix else 0
        for r, hankel in enumerate(hankels):
            if r in prefix:
                continue
            a = products(hankel[:2], terms)  # the rest only if needed
            if a[0]:
                ratio = field.div(a[1], a[0])
                c = position.get(log[ratio]) if ratio else None
                if c is None or c < first or c == r:
                    continue
                a += products(hankel[2:], terms)
                if all(field.mul(ratio, x) == y for x, y in zip(a[1:], a[2:])):
                    score[prefix + (c,)] += 1
            elif not any(a + products(hankel[2:], terms)):
                for c in range(first, j):
                    if c != r:
                        score[prefix + (c,)] += 1
    return sorted(supports, key=lambda support: -score[support])


def reconstruct_progressive(gen: GeneratorSet, source, rng: random.Random, k_decoder=None) -> DecodeReport:
    """Run the progressive reconstruction loop against a share source.

    source(node_index) returns the node's alpha symbols, or None if the node
    is unreachable; no node is ever requested twice.  A candidate B-symbol
    message is accepted only if check_crc passes.  All node choices come
    from ``rng``, so a seeded generator makes the whole run deterministic.
    TRIAL_BUDGET caps the subset enumeration of the erasure-trial fallback
    on supply-capped rounds.  k_decoder(nodes) gives the v = 0 round the
    KNodeDecoder of its k nodes; by default a new one is built.
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
            result = _k_node_round(k_decoder(access.nodes), access, trace)
        else:
            pair = pair_solve(gen, access, pair)
            context = _round_context(gen.code_alpha, pair.nodes, ())
            result = _attempt_round(gen, pair, v, trace, context=context)
        if result is None and v >= 1 and j < k + 2 * v and comb(j, v) <= TRIAL_BUDGET:
            for combo in _trial_order(gen, pair, v, context):
                extra = frozenset(pair.nodes[c] for c in combo)
                result = _attempt_round(gen, pair, v, trace, extra_erased=extra)
                if result is not None:
                    break
        if result is not None:
            message, err_nodes = result
            return DecodeReport(message, j, tuple(nodes), v, err_nodes, None, trace)

    reason = FAIL_RAN_OUT_OF_NODES if starved else FAIL_INTEGRITY_AT_MAX
    return DecodeReport(None, len(nodes), tuple(nodes), v_cap, frozenset(), reason, trace)


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

    def k_decoder(nodes) -> KNodeDecoder:
        nonlocal decoder
        if decoder is None or decoder.nodes != nodes:
            decoder = KNodeDecoder(gen, nodes)
        return decoder

    # compose() fills this many table entries per input, and its build grows
    # with them: it repays itself after about 7 stripes at m = 5 and 12 at
    # m = 8, under these 12 and 32, so fewer stripes left stay staged
    compose_from = LinearMap.table_entries(gen.field.m)
    trusted = None
    for s in range(stripe_count):
        if trusted is not None:
            columns = [source(node, s) for node in trusted]
            if None not in columns:
                trusted_decoder = k_decoder(trusted)
                if trusted_decoder.composed is None and stripe_count - s >= compose_from:
                    trusted_decoder.compose()
                value = trusted_decoder.bitstream(columns)
                if check_crc(params, value):
                    bitstreams.append(value)
                    continue
        rng = random.Random(f"{seed}:stripe:{s}")
        report = reconstruct_progressive(gen, lambda node: source(node, s), rng, k_decoder)
        progressive[s] = report
        if not report.success:
            break
        bitstreams.append(symbols_to_int(report.recovered_message, params.m))
        trusted = tuple(node for node in report.accessed_nodes if node not in report.erroneous_nodes)[: params.k]
    return FileReport(params, stripe_count, bitstreams, progressive)
