"""Progressive data reconstruction tolerant of corrupted storage nodes.

The collector fetches k random node columns and tries to decode; every
failed attempt fetches two more columns and raises the assumed error count
v by one, up to floor((n - k + 1) / 2).  Within a round:

1. pair_solve: with Y the fetched columns and M = Gbar_access^T Y, each
   unordered node pair (i, j) yields the 2x2 system
       m_ij = p + q * lambda_j,   m_ji = p + q * lambda_i,
   solvable because the lambda are pairwise distinct.  The p values form a
   symmetric matrix P-tilde (diagonal unknown); q gives Q-tilde.
2. row_decode: each row of P-tilde extends to a codeword of the [n, k-1]
   code, so it is decoded by errors-and-erasures with the unaccessed
   positions and the row's own diagonal erased.
3. classify_columns: a node column counts as erroneous when at least
   j - v - k + 2 decoded rows disagree with its received values (this is
   v + 2 when j = k + 2v nodes are held), and as correct when at most v
   disagree.  The round is accepted only if exactly v erroneous and j - v
   correct columns emerge, for both P and Q, naming the same nodes.
4. recover_z: erroneous columns are transposed into their rows (symmetry
   repair), alpha correct columns and alpha rows are inverted out to give
   the symmetric message block, and the unpacked message must pass the
   integrity check (CRC-32) before it is returned.

When the node supply caps the round below j = k + 2v, plain per-row
decoding can sit exactly at the distance bound (s + 2v = d_min) and fail
even though the v corrupted columns are jointly locatable.  Those rounds
fall back to progressive erasure trials: every size-v subset of accessed
nodes is hypothesized as the error support and erased outright, which
restores per-row decodability; wrong hypotheses die at the classification
gate, the symmetry check, or the integrity check.

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

Rows live in Gbar's row space.  row_decode works in the root-based
[n, alpha] code, so it scales each row by GeneratorSet.col_scale first
(all ones except for shortened vandermonde generators) and unscales the
decoded codeword.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass, field as dc_field
from math import comb

from .bits import int_to_symbols, symbols_to_bytes, symbols_to_int
from .linalg import gf_dot, invert, mat_mul, mat_vec, transpose
from .msr import GeneratorSet, MessageMatrix, MsrParams, WrongLength, unpack_message
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
    "crc_trailer_length",
    "crc_payload_length",
    "attach_crc",
    "check_crc",
    "make_integrity_checker",
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


def _crc_of(payload, m: int) -> int:
    nbytes = (len(payload) * m + 7) // 8
    return zlib.crc32(symbols_to_bytes(payload, m, nbytes))


def attach_crc(params: MsrParams, payload) -> list[int]:
    """Append the CRC-32 of the payload bits as the final trailer symbols,
    MSB-first with the high bits zero-padded."""
    expected = crc_payload_length(params)
    if len(payload) != expected:
        raise WrongLength(f"payload must have {expected} symbols, got {len(payload)}")
    t = crc_trailer_length(params.m)
    return list(payload) + int_to_symbols(_crc_of(payload, params.m), params.m, t)


def check_crc(params: MsrParams, message) -> bool:
    if len(message) != params.B:
        return False
    t = crc_trailer_length(params.m)
    payload, trailer = message[: params.B - t], message[params.B - t :]
    return _crc_of(payload, params.m) == symbols_to_int(trailer, params.m)


def make_integrity_checker(params: MsrParams):
    return lambda message: check_crc(params, message)


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
    p_ii from q_ii.
    """

    nodes: tuple[int, ...]
    p: tuple[tuple[int | None, ...], ...]
    q: tuple[tuple[int | None, ...], ...]


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
    ambiguous: frozenset[int]
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


def pair_solve(gen: GeneratorSet, access: AccessSet) -> PairSolve:
    nodes = access.nodes
    j = len(nodes)
    if j < 2:
        raise ValueError("need at least two accessed nodes")
    field = gen.field
    cols = gen.gbar_cols
    m_mat = [[gf_dot(field, cols[nr], yc) for yc in access.columns] for nr in nodes]

    p: list[list[int | None]] = [[None] * j for _ in range(j)]
    q: list[list[int | None]] = [[None] * j for _ in range(j)]
    mul, inv = field.mul, field.inv
    for r in range(j):
        lam_r = gen.delta[nodes[r]]
        for c in range(r + 1, j):
            lam_c = gen.delta[nodes[c]]
            qv = mul(m_mat[r][c] ^ m_mat[c][r], inv(lam_c ^ lam_r))
            pv = m_mat[r][c] ^ mul(qv, lam_c)
            p[r][c] = p[c][r] = pv
            q[r][c] = q[c][r] = qv
    return PairSolve(
        nodes=nodes,
        p=tuple(tuple(row) for row in p),
        q=tuple(tuple(row) for row in q),
    )


def row_decode(code: RsCode, mat, nodes, extra_erased=frozenset(), scale=None) -> list[RowDecode]:
    """Decode each pair-solved row as an [n, k-1] received word.

    Erased positions: everything unaccessed, the row's own diagonal, and any
    extra nodes a fallback trial wants treated as unreliable.  ``scale``
    (GeneratorSet.col_scale) maps Gbar's row space into ``code``: each word
    is multiplied by it before decoding and the codeword divided by it after.
    """
    n = code.n
    j = len(nodes)
    if scale is not None and all(s == 1 for s in scale):
        scale = None
    mul, div = code.field.mul, code.field.div
    out = []
    for r in range(j):
        word = [0] * n
        known = set()
        row = mat[r]
        for c in range(j):
            if c == r or nodes[c] in extra_erased:
                continue
            node = nodes[c]
            word[node] = row[c] if scale is None else mul(row[c], scale[node])
            known.add(node)
        erasures = frozenset(i for i in range(n) if i not in known)
        res = code.decode_errors_erasures(word, erasures)
        if res is None:
            out.append(RowDecode(decoded=False, codeword=None, corrected=frozenset()))
            continue
        codeword = res.codeword
        if scale is not None:
            codeword = tuple(div(x, s) for x, s in zip(codeword, scale))
        out.append(RowDecode(decoded=True, codeword=codeword, corrected=res.corrected_positions))
    return out


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
    err, cor, amb = set(), set(), set()
    for c in range(j):
        if counts[c] >= threshold and decidable:
            err.add(c)
        elif counts[c] <= v:
            cor.add(c)
        else:
            amb.add(c)
    return Classification(
        erroneous=frozenset(err),
        correct=frozenset(cor),
        ambiguous=frozenset(amb),
        counts=tuple(counts),
        threshold=threshold,
        decidable=decidable,
    )


def recover_z(mat, rows, cls: Classification, gen: GeneratorSet, nodes) -> list[list[int]]:
    """Rebuild the symmetric alpha x alpha message block from an accepted round.

    Erroneous columns (whose corrected values the clean rows carry) are
    transposed into their own failed rows, then alpha correct columns and
    alpha rows are peeled off with one matrix inverse.  A non-symmetric
    block means some row miscorrected and the round must be rejected.
    """
    field = gen.field
    alpha = gen.params.alpha
    j = len(nodes)

    block = []
    for r in range(j):
        rd = rows[r]
        if rd.decoded:
            block.append([rd.codeword[nodes[c]] for c in range(j)])
        else:
            block.append([mat[r][c] if c != r else 0 for c in range(j)])
    for e in sorted(cls.erroneous):
        for s in range(j):
            block[e][s] = block[s][e]

    usable = [c for c in sorted(cls.correct) if rows[c].decoded]
    if len(usable) < alpha:
        raise AsymmetryDetected("not enough decoded correct columns to invert")
    sel = usable[:alpha]

    p_sel = [[block[r][c] for c in sel] for r in sel]
    # Z = G^-T @ P_sel @ G^-1 is symmetric exactly when P_sel is
    if p_sel != transpose(p_sel):
        raise AsymmetryDetected("recovered block is not symmetric")
    gbar_sel = [[gen.gbar[i][nodes[c]] for c in sel] for i in range(alpha)]
    return _peel(field, invert(field, gbar_sel), p_sel)


def _peel(field, g_inv, p_sel) -> list[list[int]]:
    """Z = G^-T @ P_sel @ G^-1 from the one inverse g_inv = G^-1, undoing
    P_sel = G^T @ Z @ G on the chosen positions.  P_sel is symmetric, so Z
    is too: only its upper triangle is computed, then mirrored."""
    g_cols = transpose(g_inv)
    w_cols = transpose(mat_mul(field, p_sel, g_inv))
    size = len(g_inv)
    z = [[0] * size for _ in range(size)]
    for r in range(size):
        for c in range(r, size):
            z[r][c] = z[c][r] = gf_dot(field, g_cols[r], w_cols[c])
    return z


def _k_node_round(params, gen, pair: PairSolve, integrity, trace):
    """The v = 0 round over exactly k nodes, in closed form (see the module
    docstring); returns the same result and trace entry as _attempt_round."""
    field = gen.field
    alpha = params.alpha
    nodes = pair.nodes
    j = len(nodes)
    g_inv = invert(field, [[gen.gbar[i][node] for node in nodes[:alpha]] for i in range(alpha)])
    h = mat_vec(field, g_inv, gen.gbar_cols[nodes[alpha]]) + [1]

    zs = []
    for mat in (pair.p, pair.q):
        p_sel = [list(mat[r][:alpha]) for r in range(alpha)]
        for r in range(alpha):
            off_diagonal = [mat[r][c] if c != r else 0 for c in range(j)]
            p_sel[r][r] = field.div(gf_dot(field, h, off_diagonal), h[r])
        zs.append(tuple(tuple(row) for row in _peel(field, g_inv, p_sel)))

    message = unpack_message(params, MessageMatrix(z1=zs[0], z2=zs[1]))
    if not integrity(message):
        trace.append(RoundTrace(0, j, "integrity"))
        return None
    trace.append(RoundTrace(0, j, "accepted"))
    return message, frozenset()


def _attempt_round(params, gen, pair: PairSolve, v: int, integrity, trace, extra_erased=frozenset()):
    nodes = pair.nodes
    j = len(nodes)
    trial = tuple(sorted(extra_erased)) if extra_erased else None

    p_rows = row_decode(gen.code_alpha, pair.p, nodes, extra_erased, gen.col_scale)
    p_cls = classify_columns(pair.p, p_rows, nodes, v, params.k)
    if not p_cls.accepted(v):
        trace.append(RoundTrace(v, j, "gate", trial))
        return None
    q_rows = row_decode(gen.code_alpha, pair.q, nodes, extra_erased, gen.col_scale)
    q_cls = classify_columns(pair.q, q_rows, nodes, v, params.k)
    if not q_cls.accepted(v) or q_cls.erroneous != p_cls.erroneous:
        trace.append(RoundTrace(v, j, "agreement", trial))
        return None
    try:
        z1 = recover_z(pair.p, p_rows, p_cls, gen, nodes)
        z2 = recover_z(pair.q, q_rows, q_cls, gen, nodes)
    except AsymmetryDetected:
        trace.append(RoundTrace(v, j, "asymmetry", trial))
        return None
    msg = MessageMatrix(
        z1=tuple(tuple(r) for r in z1),
        z2=tuple(tuple(r) for r in z2),
    )
    message = unpack_message(params, msg)
    if not integrity(message):
        trace.append(RoundTrace(v, j, "integrity", trial))
        return None
    trace.append(RoundTrace(v, j, "accepted", trial))
    return message, frozenset(nodes[c] for c in p_cls.erroneous)


def reconstruct_progressive(
    params: MsrParams,
    gen: GeneratorSet,
    source,
    integrity,
    rng: random.Random | None = None,
) -> DecodeReport:
    """Run the progressive reconstruction loop against a share source.

    source(node_index) returns the node's alpha symbols, or None if the node
    is unreachable; no node is ever requested twice.  integrity(message)
    accepts or rejects a candidate B-symbol message.  All node choices come
    from ``rng``, so a seeded generator makes the whole run deterministic.
    TRIAL_BUDGET caps the subset enumeration of the erasure-trial fallback
    on supply-capped rounds.
    """
    if rng is None:
        rng = random.Random()
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
    for v in range(v_cap + 1):
        fetch_up_to(min(k + 2 * v, n))
        j = len(nodes)
        if j < min(k + 2 * v, n):
            starved = True
        access = AccessSet(nodes=tuple(nodes), columns=tuple(columns))
        pair = pair_solve(gen, access)
        if v == 0:  # always exactly k nodes
            result = _k_node_round(params, gen, pair, integrity, trace)
        else:
            result = _attempt_round(params, gen, pair, v, integrity, trace)
        if result is None and v >= 1 and j < k + 2 * v and comb(j, v) <= TRIAL_BUDGET:
            for combo in itertools.combinations(range(j), v):
                extra = frozenset(pair.nodes[c] for c in combo)
                result = _attempt_round(params, gen, pair, v, integrity, trace, extra_erased=extra)
                if result is not None:
                    break
        if result is not None:
            message, err_nodes = result
            return DecodeReport(message, j, tuple(nodes), v, err_nodes, None, trace)

    reason = FAIL_RAN_OUT_OF_NODES if starved else FAIL_INTEGRITY_AT_MAX
    return DecodeReport(None, len(nodes), tuple(nodes), v_cap, frozenset(), reason, trace)
