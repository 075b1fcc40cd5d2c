"""The [n, k, d = 2*alpha] minimum-storage regenerating code.

Construction: take any generator matrix Gbar of the [n, alpha] RS code with
roots a^1..a^(n-alpha), and the diagonal matrix Delta with entries
lambda_j = (a^j)^alpha for j = 0..n-1.  Then the stacked matrix

    G = [ Gbar ]
        [ Gbar @ Delta ]

generates the [n, d] RS code with roots a^1..a^(n-d), provided
gcd(2^m - 1, alpha) = 1 (which makes the lambda_j pairwise distinct).  The
B = k*alpha message symbols are packed into two symmetric alpha x alpha
matrices Z1, Z2; the codeword matrix is C = [Z1 Z2] @ G and node j stores
column j.  Every entry point takes and returns the message as the flat list
of B symbols: Z1 and Z2 exist only inside the encoders, and the decoders
flatten the blocks they recover in the same order.  GeneratorSet._places
holds that order, each flat symbol's cells in U as (share row, G row)
pairs: encode_all gathers the rows of [Z1 Z2] through it
(GeneratorSet._u_rows), encode_bodies the columns of every stripe's U at
once, and update_delta places a changed symbol's images straight off G's
rows.

Two Gbar flavors are supported: "systematic" ([D | I], every row of weight
n - alpha + 1, which minimizes update complexity) and "vandermonde" (the
power basis (a^j)^i, every row of full weight n).  The vandermonde row
space coincides with the root-based code only at full length
n = 2^m - 1; for shortened codes it spans the evaluation code, which is the
root-based code with its columns scaled.  GeneratorSet.col_scale holds that
per-column scale (all ones for systematic and at full length), so decoders
working in the root-based code multiply by it first and divide after.

Encoding and exact repair are fixed linear maps applied to every stripe.
Encoding is C = U @ G.  Repair rests on G's shape: write x_j = a^j, so
lambda_j = x_j^alpha.  For the vandermonde flavor G is exactly the d-row
Vandermonde matrix V_d, row i being x_j^i, since Delta multiplies column j
of V_alpha by x_j^alpha.  The d helper symbols are then the values at the
helper points x_h of the polynomial P whose coefficients are
w = [Z1 gbar_f; Z2 gbar_f], so solving Psi_S w = h is interpolation, and
node f's column w1 + lambda_f w2 is P mod (x^alpha - lambda_f).  For the
systematic flavor Gbar = T @ V_alpha @ diag(s), with s the code's
evaluation_scale(), so G = blockdiag(T, T) @ V_d @ diag(s): helper h's
symbol is divided by s_h before interpolating, and the folded polynomial Q
maps to the column through T^-1, which is V_alpha @ diag(s) on the last
alpha columns, where Gbar is the identity: output r is
s_t Q(x_t) for t = n - alpha + r.

Each map is built once and cached on the GeneratorSet, so a command that
handles many stripes pays for each map once: G's linalg.LinearMap on the
first encode_all, its linalg.RegionMap on the first encode_bodies, and
each repair map on first use of its (failed node, helper order).
encode_all encodes one stripe, one LinearMap application per row of U;
it is the library call and the tests' reference.  The encode command
encodes the whole file at once through encode_bodies: with U's 2 * alpha
columns laid out like share bodies, every stripe's symbols in one region
each, the bodies are those regions times G, a few bytes.translate calls
per entry of G whatever the stripe count.

A repair map costs O(d^2) field operations to build, plus its table fill:
one synthetic division of the helpers' master polynomial per helper, not
a d x d inversion.

Repair works on whole share bodies, the on-disk payload of a node: stripe
after stripe of alpha symbols, each in symbol_width(m) little-endian
bytes.  helper_symbol takes one helper's body to its symbol for every
stripe through a linalg.RegionDot of Gbar's failed column (cached per
failed node), a few bytes.translate calls whatever the stripe count.  It
stays a step of its own, one call per helper, because the helper symbols
are what a Byzantine-tolerant repair would check against the [n, d] code.
regenerate then applies the repair map once per stripe, its outputs packed
at a body's byte offsets, so one int.to_bytes of each image is that
stripe's part of the failed node's body.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .bits import symbol_width
from .field import Field
from .linalg import LinearMap, RegionDot, RegionMap, rank, row_reduce
from .rs import RsCode

__all__ = [
    "MsrParams",
    "GeneratorSet",
    "NodeShare",
    "InvalidParams",
    "WrongLength",
    "WrongHelperCount",
    "SingularHelperSet",
    "BadIndex",
    "make_params",
    "generator_set",
    "stacked_rank",
    "encode_all",
    "encode_bodies",
    "share_columns",
    "helper_symbol",
    "regenerate",
    "update_complexity",
    "update_delta",
    "update_patch",
    "apply_patch",
    "FLAVORS",
]

FLAVORS = ("systematic", "vandermonde")


class InvalidParams(ValueError):
    """Parameter tuple violates a construction condition; .reason names it."""

    def __init__(self, reason: str, detail: str):
        self.reason = reason
        super().__init__(f"{reason}: {detail}")


class WrongLength(ValueError):
    pass


class WrongHelperCount(ValueError):
    pass


class SingularHelperSet(RuntimeError):
    pass


class BadIndex(ValueError):
    pass


@dataclass(frozen=True)
class MsrParams:
    """Validated parameter tuple. beta is fixed at 1 symbol per helper."""

    n: int
    k: int
    d: int
    alpha: int
    beta: int
    B: int
    m: int

    @property
    def error_capability(self) -> int:
        """Most erroneous storage nodes the reconstructor can tolerate."""
        return (self.n - self.k + 1) // 2


def make_params(n: int, k: int, m: int) -> MsrParams:
    """Derive and validate the full parameter set from (n, k, m).

    The geometry is fixed at the minimum-storage point with d = 2*alpha:
    alpha = k - 1, d = 2(k - 1), B = k*alpha.  That meets the cut-set bound
    sum min(alpha, d - i), i < k, by construction: d - i >= alpha for every
    i < k, so the sum is k*alpha = B.
    """
    if k < 2:
        raise InvalidParams("KTooSmall", f"k must be >= 2, got {k}")
    alpha = k - 1
    d = 2 * alpha
    B = k * alpha
    if d > n - 1:
        raise InvalidParams("DTooLarge", f"d = 2(k-1) = {d} exceeds n-1 = {n - 1}")
    if not 2 <= m <= 16:
        raise InvalidParams("FieldTooSmall", f"field degree m={m} outside [2, 16]")
    if n > (1 << m) - 1:
        # n must fit among the 2^m - 1 nonzero powers of a; n = 2^m would
        # also collide two diagonal multipliers (indices n-1 and 0).
        raise InvalidParams("FieldTooSmall", f"n={n} exceeds 2^{m} - 1 = {(1 << m) - 1}")
    if math.gcd((1 << m) - 1, alpha) != 1:
        raise InvalidParams(
            "GcdViolation", f"gcd(2^{m} - 1, alpha) = {math.gcd((1 << m) - 1, alpha)} != 1"
        )
    return MsrParams(n=n, k=k, d=d, alpha=alpha, beta=1, B=B, m=m)


@dataclass
class GeneratorSet:
    """Gbar, the diagonal multipliers, and the assembled stacked matrix.

    col_scale[j] multiplies column j of Gbar's row space into code_alpha.
    Treat as immutable after construction; gbar_cols, g_cols, g_map,
    encode_region, gbar_map, _places, _u_rows, helper_dots, repair_maps and
    _tinv_map are memos derived from it, built on first use.
    """

    params: MsrParams
    field: Field
    flavor: str
    gbar: list[list[int]]
    delta: list[int]
    g_full: list[list[int]]
    code_alpha: RsCode
    col_scale: tuple[int, ...]

    @cached_property
    def gbar_cols(self) -> list[tuple[int, ...]]:
        """Gbar's columns: gbar_cols[j] is node j's."""
        return [tuple(col) for col in zip(*self.gbar)]

    @cached_property
    def g_cols(self) -> list[tuple[tuple[int, int], ...]]:
        """G's columns by their nonzero entries: g_cols[j] holds (i, log of
        g_full[i][j]) for each G row i where node j's column is nonzero
        (share_columns)."""
        log = self.field.log
        return [tuple([(i, log[g]) for i, g in enumerate(col) if g]) for col in zip(*self.g_full)]

    @cached_property
    def g_map(self) -> LinearMap:
        """u -> u @ g_full: one row of U to one row of the codeword matrix.
        Lazy, and built only by encode_all: reads never encode, and an
        update re-encodes its few shares through share_columns."""
        return LinearMap(self.field, self.g_full)

    @cached_property
    def encode_region(self) -> RegionMap:
        """v -> v @ g_full on byte regions: the 2 * alpha columns of U, each
        as a region of every stripe's symbols, to every node's share body
        (encode_bodies).  Lazy, and built only by the encode command."""
        return RegionMap(self.field, self.g_full)

    @cached_property
    def gbar_map(self) -> LinearMap:
        """y -> Gbar^T y: a node column's products with every node's Gbar
        column, which the decoders pair-solve.  Lazy, since only reads and
        updates decode."""
        return LinearMap(self.field, self.gbar)

    @cached_property
    def _places(self) -> list[set[tuple[int, int]]]:
        """The cells (i, g) of each flat message symbol in U = [Z1 Z2]: the
        symbol times row g of G adds to share row i.  Each half of the
        message fills its block's upper triangle, diagonal included,
        row-major: symbol (r, c), r <= c, of the block at column offset o = 0
        (Z1) or alpha (Z2) is cell (r, o + c) and its mirror (c, o + r), one
        cell on the diagonal."""
        alpha = self.params.alpha
        return [{(r, o + c), (c, o + r)} for o in (0, alpha) for r in range(alpha) for c in range(r, alpha)]

    @cached_property
    def _u_rows(self) -> list[operator.itemgetter]:
        """_u_rows[r](message) is row r of the information matrix
        U = [Z1 Z2] of a flat B-symbol message, each block mirrored below
        its upper triangle (_places).  Lazy, since reads never encode."""
        alpha = self.params.alpha
        index = [[0] * (2 * alpha) for _ in range(alpha)]
        for t, cells in enumerate(self._places):
            for share_row, g_row in cells:
                index[share_row][g_row] = t
        return [operator.itemgetter(*row) for row in index]

    @cached_property
    def helper_dots(self) -> dict[int, RegionDot]:
        """failed node -> the product of a share body's every stripe with
        Gbar's failed column (helper_symbol)."""
        return {}

    @cached_property
    def repair_maps(self) -> dict[tuple[int, tuple[int, ...]], LinearMap]:
        """(failed node, helper indices in order) -> its regenerate map."""
        return {}

    @cached_property
    def _tinv_map(self) -> LinearMap:
        """Q -> Q @ T^-1 for the systematic flavor: the coefficients of a
        polynomial Q of degree < alpha to its values s_t Q(x_t) at the last
        alpha nodes t, whose columns of Gbar are the identity, packed at the
        repair maps' stride, 8 * symbol_width(m).  Lazy, since only repairs
        use it."""
        field, n, alpha = self.field, self.params.n, self.params.alpha
        q1 = field.order - 1
        stride = 8 * symbol_width(field.m)
        last = range(n - alpha, n)
        # s_t = 1 / (x_t * prod_{j != t} (x_t - x_j)), as logs
        log_scale = [-(t + _log_product(field, t, (j for j in range(n) if j != t))) for t in last]
        images = [
            sum(field.exp[(ls + i * t) % q1] << stride * r for r, (t, ls) in enumerate(zip(last, log_scale)))
            for i in range(alpha)
        ]
        return LinearMap.from_images(field, images, alpha, stride)


def generator_set(params: MsrParams, flavor: str = "systematic", field: Field | None = None) -> GeneratorSet:
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    if field is None:
        field = Field(params.m)
    code_alpha = RsCode(params.n, params.alpha, field)
    if flavor == "systematic":
        gbar = code_alpha.systematic_generator()
        col_scale = (1,) * params.n
    else:
        gbar = code_alpha.vandermonde_generator()
        col_scale = tuple(code_alpha.evaluation_scale())

    exp, log = field.exp, field.log
    q1 = field.order - 1
    log_delta = [(j * params.alpha) % q1 for j in range(params.n)]
    delta = [exp[ld] for ld in log_delta]
    if len(set(delta)) != params.n:
        raise AssertionError("diagonal multipliers collide despite gcd condition")

    g_full = [list(row) for row in gbar]
    g_full += [[exp[log[c] + ld] if c else 0 for c, ld in zip(row, log_delta)] for row in gbar]

    if stacked_rank(field, gbar, delta) != params.d:
        raise AssertionError("stacked generator matrix is rank deficient")
    # Every stacked row, column-scaled, is a codeword of the root-based
    # [n, d] code: the scale depends only on the points a^j, not on the
    # dimension, so it serves Gbar and the stacked matrix alike.  The value
    # of a row at the root a^t is the sum of row[j] * scale[j] * a^(j t);
    # weights[t] holds the logs of scale[j] * a^(j t).
    weights = [[(log[s] + j * t) % q1 for j, s in enumerate(col_scale)] for t in range(1, params.n - params.d + 1)]
    for row in g_full:
        terms = [(j, log[c]) for j, c in enumerate(row) if c]
        for weight in weights:
            value = 0
            for j, lc in terms:
                value ^= exp[lc + weight[j]]
            if value:
                raise AssertionError("generator row does not vanish at a prescribed root")

    return GeneratorSet(
        params=params, field=field, flavor=flavor, gbar=gbar, delta=delta,
        g_full=g_full, code_alpha=code_alpha, col_scale=col_scale,
    )


def stacked_rank(field: Field, gbar, delta) -> int:
    """rank [Gbar; Gbar @ Delta] from one reduction of Gbar alone.

    Row operations take Gbar to [I | X] on its pivot columns A and the
    others R, and take Gbar @ Delta to [Delta_A | X Delta_R] at the same
    time.  Subtracting Delta_A times the top block leaves [0 | K] with
    K[i][j] = X[i][j] * (lambda_(R_j) + lambda_(A_i)), so the rank is
    rank(Gbar) + rank(K), and K has only alpha x (n - alpha) entries.
    The reduction visits the last alpha columns first: there a systematic
    Gbar is the identity, which reduces with no arithmetic.
    """
    n, alpha = len(delta), len(gbar)
    order = list(range(n - alpha, n)) + list(range(n - alpha))
    reduced = row_reduce(field, [[row[j] for j in order] for row in gbar])
    lam = [delta[j] for j in order]
    pivots = [next(c for c, x in enumerate(row) if x) for row in reduced]
    others = [c for c in range(n) if c not in pivots]
    exp, log = field.exp, field.log
    k = [
        [exp[log[row[c]] + log[lam[c] ^ lam[p]]] if row[c] and lam[c] != lam[p] else 0 for c in others]
        for row, p in zip(reduced, pivots)
    ]
    return len(reduced) + rank(field, k)


# ---------------------------------------------------------------------------
# encoding, repair, update


@dataclass(frozen=True)
class NodeShare:
    """Column node_index of the codeword matrix: the alpha symbols one
    storage node holds."""

    node_index: int
    symbols: tuple[int, ...]


def _check_length(params: MsrParams, message) -> None:
    if len(message) != params.B:
        raise WrongLength(f"message must have {params.B} symbols, got {len(message)}")


def encode_all(gen: GeneratorSet, message) -> list[NodeShare]:
    """C = U @ G for U = [Z1 Z2] of the B-symbol message; share j is column j."""
    _check_length(gen.params, message)
    g_map = gen.g_map
    c_rows = [g_map.apply(u_row(message)) for u_row in gen._u_rows]
    return [NodeShare(node_index=j, symbols=col) for j, col in enumerate(zip(*c_rows))]


def encode_bodies(gen: GeneratorSet, lanes: bytes) -> list[bytes]:
    """Every node's share body for whole stripes of messages: what
    encode_all gives each node, stripe after stripe, each symbol in
    w = symbol_width(m) little-endian bytes.

    lanes holds the messages in stripe order as bits.spread_symbols lays
    them out, each message's symbol t big-endian in w bytes at t * w.  Byte
    b of symbol t of every stripe is then one strided slice of it, which
    goes to each cell (share row r, G row i) of t (GeneratorSet._places) as
    byte plane b of U's column i at every stripe's row r.  Those 2 * alpha
    columns, laid out like share bodies, make one application of
    GeneratorSet.encode_region, whose outputs are the bodies: a few
    bytes.translate calls per entry of G, whatever the number of
    stripes."""
    params = gen.params
    alpha, width = params.alpha, symbol_width(params.m)
    step = params.B * width  # bytes per message
    if len(lanes) % step:
        raise WrongLength(f"{len(lanes)} bytes of messages are not whole messages of {step} bytes")
    size = len(lanes) // step * alpha  # symbols per body
    planes = [bytearray(size) for _ in range(2 * alpha * width)]  # plane b of U's column i at i * w + b
    for t, cells in enumerate(gen._places):
        for b in range(width):
            symbols = lanes[t * width + width - 1 - b :: step]
            for share_row, g_row in cells:
                planes[g_row * width + b][share_row::alpha] = symbols
    return gen.encode_region.apply(planes, size)


def share_columns(gen: GeneratorSet, message, nodes) -> dict[int, tuple[int, ...]]:
    """node j -> column j of C = U @ G, the symbols encode_all gives node j,
    for each node index j in nodes.

    Each column comes straight off G's nonzero entries in that column
    (GeneratorSet.g_cols), alpha field products per entry, with no map
    built: an update re-encodes only the shares it patches, where
    encode_all would build g_map and encode every node."""
    params, field = gen.params, gen.field
    _check_length(params, message)
    q1 = field.order - 1
    log = field.log
    # a zero symbol's log is 2 * q1, past the doubled table, where these
    # extra entries make each of its products 0
    exp = field.exp + [0] * q1
    u_logs = [[log[u] if u else 2 * q1 for u in u_row(message)] for u_row in gen._u_rows]
    columns = {}
    for j in nodes:
        if not 0 <= j < params.n:
            raise BadIndex(f"node index {j} outside [0, {params.n})")
        entries = gen.g_cols[j]
        column = []
        for row in u_logs:
            acc = 0
            for i, lg in entries:
                acc ^= exp[row[i] + lg]
            column.append(acc)
        columns[j] = tuple(column)
    return columns


def helper_symbol(gen: GeneratorSet, body: bytes, failed: int) -> tuple[int, ...]:
    """The symbols a surviving node sends toward repairing ``failed``, one
    per stripe of its share body: the inner product of each stored column
    with gbar's failed column.

    body is the node's columns in the share files' payload layout,
    stripe-major, alpha symbols per stripe, each in symbol_width(m)
    little-endian bytes and below 2^m.  Every stripe goes through one
    linalg.RegionDot of that column, built once per failed node and cached
    on gen."""
    params = gen.params
    if not 0 <= failed < params.n:
        raise BadIndex(f"node index {failed} outside [0, {params.n})")
    dot = gen.helper_dots.get(failed)
    if dot is None:
        dot = gen.helper_dots[failed] = RegionDot(gen.field, gen.gbar_cols[failed])
    if len(body) % dot.step:
        raise WrongLength(f"share body of {len(body)} bytes is not whole stripes of {dot.step} bytes")
    return dot.apply(body)


def regenerate(gen: GeneratorSet, failed: int, helpers) -> bytes:
    """Exactly rebuild the failed node's share body from d helpers'
    symbols, (h, helper_symbol of h's body) each, in the layout
    helper_symbol reads.

    Each helper h contributes psi_h . w where psi_h = [gbar_h; lambda_h * gbar_h]
    is column h of the stacked generator and w = [Z1 gbar_f; Z2 gbar_f]; the
    failed column is w1 + lambda_f * w2.  Psi_S is a scaled Vandermonde
    matrix, so recovering w is interpolating the helper symbols over the
    helper points and the column is the interpolant folded mod
    (x^alpha - lambda_f) (see the module docstring).  That map depends only
    on the failed node and the helper order, so it is built once per pair
    and cached on gen.  Its outputs sit at the body's byte offsets, so each
    stripe is one application and one int.to_bytes.
    """
    params = gen.params
    if not 0 <= failed < params.n:
        raise BadIndex(f"node index {failed} outside [0, {params.n})")
    helpers = list(helpers)
    if len(helpers) != params.d:
        raise WrongHelperCount(f"need exactly d={params.d} helpers, got {len(helpers)}")
    indices = [h for h, _ in helpers]
    if len(set(indices)) != len(indices) or failed in indices:
        raise WrongHelperCount("helper indices must be distinct and differ from the failed node")
    if any(not 0 <= h < params.n for h in indices):
        raise BadIndex("helper index out of range")

    columns = [symbols for _, symbols in helpers]
    if len(set(map(len, columns))) != 1:
        raise WrongLength("helpers must send one symbol for every stripe")

    key = (failed, tuple(indices))
    repair_map = gen.repair_maps.get(key)
    if repair_map is None:
        repair_map = gen.repair_maps[key] = _repair_map(gen, failed, indices)
    packed, inputs = repair_map.packed, range(params.d)
    size = params.alpha * symbol_width(params.m)
    return b"".join([packed(stripe, inputs).to_bytes(size, "little") for stripe in zip(*columns)])


def _log_product(field: Field, h: int, others) -> int:
    """log of prod_j (x_h - x_j) over the node indices j in others."""
    log = field.log
    total = 0
    for j in others:
        diff = field.exp[h] ^ field.exp[j]
        if not diff:  # unreachable for distinct indices below n <= 2^m - 1
            raise SingularHelperSet(f"helper points of nodes {h} and {j} coincide")
        total += log[diff]
    return total


def _repair_map(gen: GeneratorSet, failed: int, indices) -> LinearMap:
    """h -> [I | lambda_f I] Psi_S^-1 h for the helpers S = indices, in order.

    With M = prod_{h in S} (x - x_h), the Lagrange basis polynomial of
    helper h is M / (x - x_h) over M'(x_h), and its row of the map is that
    quotient, from one synthetic division of M, folded mod
    (x^alpha - lambda_f) and weighted.  The vandermonde weight is
    1 / M'(x_h).  The systematic one also divides by s_h, and
    s_h M'(x_h) = 1 / (x_h prod_{j not in S} (x_h - x_j)), a product over
    the n - d non-helper nodes; its rows then pass through T^-1.  Outputs
    are packed at stride 8 * symbol_width(m), a share body's byte offsets.
    """
    field, params = gen.field, gen.params
    exp, log = field.exp, field.log
    q1 = field.order - 1
    alpha = params.alpha
    stride = 8 * symbol_width(field.m)
    log_lam = log[gen.delta[failed]]
    master = [1]
    for h in indices:  # times (x - x_h)
        master = [a ^ (exp[log[b] + h] if b else 0) for a, b in zip([0] + master, master + [0])]
    systematic = gen.flavor == "systematic"
    if systematic:
        helper_set = set(indices)
        others = [j for j in range(params.n) if j not in helper_set]
    images = []
    for h in indices:
        if systematic:
            log_weight = h + _log_product(field, h, others)
        else:
            log_weight = -_log_product(field, h, (i for i in indices if i != h))
        # quotient[i] of M / (x - x_h), from the top: q_(i-1) = M_i + x_h q_i
        quotient = [0] * params.d
        quotient[-1] = c = 1
        for i in range(params.d - 1, 0, -1):
            c = quotient[i - 1] = master[i] ^ (exp[log[c] + h] if c else 0)
        row = []
        for low, high in zip(quotient, quotient[alpha:]):
            folded = low ^ (exp[log[high] + log_lam] if high else 0)
            row.append(exp[(log[folded] + log_weight) % q1] if folded else 0)
        if systematic:
            images.append(gen._tinv_map.packed(row, range(alpha)))
        else:
            images.append(sum(v << stride * r for r, v in enumerate(row)))
    return LinearMap.from_images(field, images, alpha, stride)


def update_complexity(gen: GeneratorSet) -> int:
    """The maximum Hamming weight over rows of the stacked generator.

    This is what a diagonal message symbol of Z touches.  An off-diagonal
    symbol appears twice in Z, so its update touches two generator rows'
    supports: twice as many encoded symbols, on the union of their nodes.
    """
    return max(sum(1 for c in row if c) for row in gen.g_full)


def update_delta(gen: GeneratorSet, old_message, new_message) -> dict[tuple[int, int], int]:
    """(node_index, share_row) -> the nonzero change of that encoded symbol
    when old_message is rewritten as new_message; unchanged symbols are
    absent.

    C = U @ G is linear in U, so the change is dU @ G for dU = [Z1 Z2] of
    the symbol-wise difference of the two messages, and it is read straight
    off G's rows, with no map built: a change delta of a message symbol
    adds, for each of its cells (share row, G row) (GeneratorSet._places),
    delta times that row of G to that share row, one field product per
    nonzero entry of those rows.  This is the placement encode_bodies uses.
    So a changed diagonal symbol of Z touches the support of one generator
    row, an off-diagonal one the supports of two.
    """
    params = gen.params
    _check_length(params, old_message)
    _check_length(params, new_message)
    exp, log = gen.field.exp, gen.field.log
    g_full = gen.g_full
    rows: dict[int, list[int]] = {}  # share row -> its change at every node
    for cells, old, new in zip(gen._places, old_message, new_message):
        if old == new:
            continue
        log_delta = log[old ^ new]
        for share_row, g_row in cells:
            acc = rows.setdefault(share_row, [0] * params.n)
            for j, g in enumerate(g_full[g_row]):
                if g:
                    acc[j] ^= exp[log_delta + log[g]]
    return {(j, r): change for r in sorted(rows) for j, change in enumerate(rows[r]) if change}


def update_patch(
    gen: GeneratorSet, old_message, new_message
) -> dict[int, tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """node j -> (old column, new column, changed rows) of C = U @ G, in
    node order, for each node whose column changes when old_message is
    rewritten as new_message, and no others: only those nodes' old columns
    are encoded (share_columns), each new one is its old one plus the
    update_delta entries in it, and its changed rows, ascending, are the
    rows of those entries, where the old and new columns differ."""
    changes = update_delta(gen, old_message, new_message)
    rows: dict[int, list[int]] = {}
    for j, r in changes:
        rows.setdefault(j, []).append(r)
    old = share_columns(gen, old_message, sorted(rows))
    new = {j: list(column) for j, column in old.items()}
    for (j, r), c in changes.items():
        new[j][r] ^= c
    return {j: (old[j], tuple(new[j]), tuple(rows[j])) for j in old}


def apply_patch(shares: list[NodeShare], patch) -> list[NodeShare]:
    """Return shares with each patched node's new column substituted in
    (update_patch)."""
    return [NodeShare(s.node_index, patch[s.node_index][1]) if s.node_index in patch else s for s in shares]
