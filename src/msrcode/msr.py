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
of B symbols: Z1 and Z2 exist only inside encode_all and update_patch,
which gather the rows of [Z1 Z2] from it through GeneratorSet._u_rows, and
the decoders flatten the blocks they recover in the same order.

Two Gbar flavors are supported: "systematic" ([D | I], every row of weight
n - alpha + 1, which minimizes update complexity) and "vandermonde" (the
power basis (a^j)^i, every row of full weight n).  The vandermonde row
space coincides with the root-based code only at full length
n = 2^m - 1; for shortened codes it spans the evaluation code, which is the
root-based code with its columns scaled.  GeneratorSet.col_scale holds that
per-column scale (all ones for systematic and at full length), so decoders
working in the root-based code multiply by it first and divide after.

Encoding and exact repair are fixed linear maps applied to every stripe:
C = U @ G, and node f from the helpers S in order is [I | lambda_f I] @
Psi_S^-1.  Each is built once as a linalg.LinearMap and cached on the
GeneratorSet, G's map on first encode and each repair map on first use of
its (failed node, helper order), so a command that handles many stripes
pays for each map once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .field import Field
from .linalg import LinearMap, SingularMatrix, gf_dot, invert, rank, row_reduce
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
    "helper_symbol",
    "regenerate",
    "update_complexity",
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
    alpha = k - 1, d = 2(k - 1), B = k*alpha.
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
    # storage/bandwidth identity at the minimum-storage point (beta = 1)
    bound = sum(min(alpha, d - i) for i in range(k))
    if B != bound:
        raise InvalidParams("CutSetMismatch", f"B={B} != sum min(alpha, d-i) = {bound}")
    return MsrParams(n=n, k=k, d=d, alpha=alpha, beta=1, B=B, m=m)


@dataclass
class GeneratorSet:
    """Gbar, the diagonal multipliers, and the assembled stacked matrix.

    col_scale[j] multiplies column j of Gbar's row space into code_alpha.
    Treat as immutable after construction; g_map, _u_rows and repair_maps
    are memos of maps derived from it, built on first use.
    """

    params: MsrParams
    field: Field
    flavor: str
    gbar: list[list[int]]
    delta: list[int]
    g_full: list[list[int]]
    code_alpha: RsCode
    col_scale: tuple[int, ...]
    gbar_cols: list[tuple[int, ...]] = dc_field(repr=False, default_factory=list)

    def __post_init__(self):
        if not self.gbar_cols:
            self.gbar_cols = [tuple(col) for col in zip(*self.gbar)]

    @cached_property
    def g_map(self) -> LinearMap:
        """u -> u @ g_full: one row of U to one row of the codeword matrix.
        Lazy, since reads never encode."""
        return LinearMap(self.field, self.g_full)

    @cached_property
    def _u_rows(self) -> list[operator.itemgetter]:
        """_u_rows[r](message) is row r of the information matrix
        U = [Z1 Z2] of a flat B-symbol message.  Each half of the message
        fills its block's upper triangle, diagonal included, row-major, and
        the block is mirrored below it.  Lazy, since reads never encode."""
        alpha = self.params.alpha
        index = [[0] * (2 * alpha) for _ in range(alpha)]
        t = 0
        for offset in (0, alpha):
            for r in range(alpha):
                for c in range(r, alpha):
                    index[r][offset + c] = index[c][offset + r] = t
                    t += 1
        return [operator.itemgetter(*row) for row in index]

    @cached_property
    def repair_maps(self) -> dict[tuple[int, tuple[int, ...]], LinearMap]:
        """(failed node, helper indices in order) -> its regenerate map."""
        return {}


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

    q1 = field.order - 1
    delta = [field.exp[(j * params.alpha) % q1] for j in range(params.n)]
    if len(set(delta)) != params.n:
        raise AssertionError("diagonal multipliers collide despite gcd condition")

    g_full = [list(row) for row in gbar]
    g_full += [[field.mul(c, lam) for c, lam in zip(row, delta)] for row in gbar]

    if stacked_rank(field, gbar, delta) != params.d:
        raise AssertionError("stacked generator matrix is rank deficient")
    # Every stacked row, column-scaled, is a codeword of the root-based
    # [n, d] code: the scale depends only on the points a^j, not on the
    # dimension, so it serves Gbar and the stacked matrix alike.  The value
    # of a row at the root a^t is the sum of row[j] * scale[j] * a^(j t);
    # weights[t] holds the logs of scale[j] * a^(j t).
    exp, log = field.exp, field.log
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
    k = [[field.mul(row[c], lam[c] ^ lam[p]) for c in others] for row, p in zip(reduced, pivots)]
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


def helper_symbol(gen: GeneratorSet, helper_share: NodeShare, failed: int) -> int:
    """The single symbol a surviving node sends toward repairing ``failed``:
    the inner product of its stored column with gbar's failed column."""
    if not 0 <= failed < gen.params.n:
        raise BadIndex(f"node index {failed} outside [0, {gen.params.n})")
    return gf_dot(gen.field, helper_share.symbols, gen.gbar_cols[failed])


def regenerate(gen: GeneratorSet, failed: int, helpers) -> NodeShare:
    """Exactly rebuild the failed node's column from d helper symbols.

    Each helper h contributes psi_h . w where psi_h = [gbar_h; lambda_h * gbar_h]
    is column h of the stacked generator and w = [Z1 gbar_f; Z2 gbar_f].
    Stacking d helpers gives a d x d system Psi_S w = h whose matrix is d
    columns of an MDS generator, hence invertible; the failed column is
    w1 + lambda_f * w2 = [I | lambda_f I] Psi_S^-1 h.  That map depends only
    on the failed node and the helper order, so it is built once per pair
    and cached on gen.
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

    key = (failed, tuple(indices))
    repair_map = gen.repair_maps.get(key)
    if repair_map is None:
        repair_map = gen.repair_maps[key] = _repair_map(gen, failed, indices)
    return NodeShare(node_index=failed, symbols=tuple(repair_map.apply([sym for _, sym in helpers])))


def _repair_map(gen: GeneratorSet, failed: int, indices) -> LinearMap:
    """h -> [I | lambda_f I] Psi_S^-1 h for the helpers S = indices, in order."""
    params = gen.params
    psi = [[gen.g_full[i][h] for i in range(params.d)] for h in indices]
    try:
        inv = invert(gen.field, psi)
    except SingularMatrix as exc:  # unreachable for valid parameters
        raise SingularHelperSet(str(exc)) from exc
    alpha = params.alpha
    lam = gen.delta[failed]
    field = gen.field
    # row j of the map is helper j's contribution: column j of R
    rows = [[inv[i][j] ^ field.mul(lam, inv[alpha + i][j]) for i in range(alpha)] for j in range(params.d)]
    return LinearMap(field, rows)


def update_complexity(gen: GeneratorSet) -> int:
    """The maximum Hamming weight over rows of the stacked generator.

    This is what a diagonal message symbol of Z touches.  An off-diagonal
    symbol appears twice in Z, so its update touches two generator rows'
    supports: twice as many encoded symbols, on the union of their nodes.
    """
    return max(sum(1 for c in row if c) for row in gen.g_full)


def update_patch(gen: GeneratorSet, old_message, new_message) -> set[tuple[int, int, int]]:
    """The (node_index, share_row, new_symbol) entries in which the encoding
    of new_message differs from that of old_message, and no others.

    C = U @ G is linear in U, so share row r changes by row r of dU @ G,
    where dU = [Z1 Z2] of the symbol-wise difference of the two messages.
    Only the rows of dU with a nonzero entry are encoded, old and change,
    and an entry is patched only where its change is nonzero.  So a changed
    diagonal symbol of Z touches the support of one generator row, an
    off-diagonal one the supports of two.
    """
    params = gen.params
    _check_length(params, old_message)
    _check_length(params, new_message)
    delta = [a ^ b for a, b in zip(old_message, new_message)]
    g_map = gen.g_map
    patch = set()
    for share_row, u_row in enumerate(gen._u_rows):
        delta_row = u_row(delta)
        if any(delta_row):
            change = g_map.apply(delta_row)
            old_row = g_map.apply(u_row(old_message))
            patch.update((j, share_row, old ^ c) for j, (old, c) in enumerate(zip(old_row, change)) if c)
    return patch


def apply_patch(shares: list[NodeShare], patch) -> list[NodeShare]:
    """Return shares with the patch entries substituted in."""
    cols = {s.node_index: list(s.symbols) for s in shares}
    for node, row, value in patch:
        cols[node][row] = value
    return [NodeShare(node_index=s.node_index, symbols=tuple(cols[s.node_index])) for s in shares]
