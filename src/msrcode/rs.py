"""Shortened Reed-Solomon codec over GF(2^m).

The [n, kappa] code is the set of polynomial multiples {u(x) g(x) : deg u <
kappa} written over coefficient positions 0..n-1, where the generator
polynomial g(x) has the prescribed roots a^1, ..., a^(n-kappa).  This
root-based (shortened cyclic) view keeps every codeword c(x) satisfying
c(a^j) = 0, which is what both generator-matrix constructions and the
syndrome decoder rely on.

Polynomials are lists of ints with index = degree and trailing zeros
trimmed.  Decoding is classical errors-and-erasures: syndromes, erasure
locator, Berlekamp-Massey over the Forney syndromes, Chien search, and
Forney value evaluation, followed by a syndrome recheck.  It is bounded
distance: it returns the unique codeword within s + 2e < d_min of the word
(s erasures, e errors), or None when there is none; callers treat None as
"fetch more data".

Many words often erase the same positions U (every row of a progressive
round does, plus its own diagonal), so decoding is split in two.  An
ErasureContext, built once per U, holds the locator Gamma_U, its values
Gamma_U(X_i^-1) at the known positions and Gamma_U'(X_i^-1) on U.  Its
decode() then handles one word with at most one extra erased position r:
syndromes over the known positions only, Gamma_X = Gamma_U * (1 + X_r z)
in O(|U|), Berlekamp-Massey only when the Forney stream is nonzero, Chien
search over the known positions only, and Psi'(X_i^-1) for Psi = Gamma_U *
(1 + X_r z) * Lambda from whichever factor vanishes at X_i^-1.  The
recheck is incremental: syndromes are linear, so S(corrected) = S(received)
+ sum e_i X_i^t, and only the errata positions are added.
decode_errors_erasures is the one-word call of that same path.

Syndromes and polynomial values at every X_i^-1 are GF(2^m)-linear maps,
applied through linalg.LinearMap, the same table kernel the encoder and
repair use: per-input lookup tables whose entries pack all outputs into
one int, so a syndrome costs two lookups and an XOR per known symbol.  Each
RsCode builds its two maps once, on first decode, never per word; each
takes about 2^(m/2+1) * n * (n - kappa) * m bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .field import Field
from .linalg import LinearMap

__all__ = ["RsCode", "ErasureContext", "DecodeResult", "BadLength", "poly_eval", "poly_mul", "poly_mod"]


class BadLength(ValueError):
    """Code length does not fit the field (n must be <= 2^m - 1)."""


# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficients, trailing zeros trimmed)

def poly_trim(p: list[int]) -> list[int]:
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return p[:i]


def poly_mul(field: Field, f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    exp, log = field.exp, field.log
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        la = log[a]
        for j, b in enumerate(g):
            if b:
                out[i + j] ^= exp[la + log[b]]
    return poly_trim(out)


def poly_mod(field: Field, f: list[int], g: list[int]) -> list[int]:
    """Remainder of f divided by g (g must be nonzero)."""
    g = poly_trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    dg = len(g) - 1
    ginv = field.inv(g[-1])
    exp, log = field.exp, field.log
    for i in range(len(r) - 1, dg - 1, -1):
        if r[i]:
            factor = field.mul(r[i], ginv)
            lf = log[factor]
            for j, c in enumerate(g):
                if c:
                    r[i - dg + j] ^= exp[log[c] + lf]
    return poly_trim(r[:dg])


def poly_eval(field: Field, f: list[int], x: int) -> int:
    """Horner evaluation of f at x."""
    if x == 0:
        return f[0] if f else 0
    exp, log = field.exp, field.log
    lx = log[x]
    acc = 0
    for c in reversed(f):
        if acc:
            acc = exp[log[acc] + lx]
        acc ^= c
    return acc


def _poly_deriv(f: list[int]) -> list[int]:
    # characteristic 2: d/dx x^j = x^(j-1) for odd j, 0 for even j
    return poly_trim([f[j] if j % 2 == 1 else 0 for j in range(1, len(f))])


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecodeResult:
    """A successful decode: the unique consistent codeword plus the set of
    non-erasure positions whose symbols were changed."""

    codeword: tuple[int, ...]
    corrected_positions: frozenset[int]


class RsCode:
    """Shortened [n, kappa] Reed-Solomon code with d_min = n - kappa + 1."""

    def __init__(self, n: int, kappa: int, field: Field):
        if n > field.order - 1:
            raise BadLength(f"n={n} exceeds 2^{field.m} - 1 = {field.order - 1}")
        if not 1 <= kappa < n:
            raise ValueError(f"need 1 <= kappa < n, got kappa={kappa}, n={n}")
        self.n = n
        self.kappa = kappa
        self.field = field
        gen = [1]
        for j in range(1, n - kappa + 1):
            gen = poly_mul(field, gen, [field.exp[j], 1])  # factor (x - a^j)
        self.gen_poly = gen
        self.d_min = n - kappa + 1

    # -- generator matrices ------------------------------------------------

    def systematic_generator(self) -> list[list[int]]:
        """Rows i = coefficients of x^(n-kappa+i) + (x^(n-kappa+i) mod g), i.e.
        the [D | I] form whose every row has Hamming weight exactly d_min."""
        n, kappa = self.n, self.kappa
        parity = n - kappa
        g = self.gen_poly  # monic of degree parity, so x^parity = g[:parity] mod g
        mul = self.field.mul
        rem = g[:parity]
        rows = []
        for i in range(kappa):
            row = rem + [0] * kappa
            row[parity + i] = 1
            rows.append(row)
            # x^(parity+i+1) mod g = x * rem mod g: shift up, fold the top back
            top = rem[-1]
            rem = [0] + rem[:-1]
            if top:
                rem = [c ^ mul(top, gc) for c, gc in zip(rem, g)]
        return rows

    def vandermonde_generator(self) -> list[list[int]]:
        """Row i, column j = (a^j)^i: the classical power-basis matrix.

        For full length (n = 2^m - 1) its row space equals this root-based
        code; for shortened n it spans the evaluation code instead, which is
        MDS with the same parameters but a different support.
        """
        exp = self.field.exp
        q1 = self.field.order - 1
        return [[exp[(i * j) % q1] for j in range(self.n)] for i in range(self.kappa)]

    def evaluation_scale(self) -> list[int]:
        """Column multipliers s_j = 1 / (x_j * prod_{i != j} (x_j - x_i)),
        x_j = a^j, that carry the evaluation code into this root-based code.

        The root-based code is the generalized RS code on the points x_j
        with these column multipliers, so scaling any power-basis row by s
        gives a codeword, for every kappa.  At full length s is all ones.
        """
        field = self.field
        xs = [field.exp[j] for j in range(self.n)]
        scale = []
        for j, xj in enumerate(xs):
            den = xj
            for i, xi in enumerate(xs):
                if i != j:
                    den = field.mul(den, xj ^ xi)
            scale.append(field.inv(den))
        return scale

    def encode(self, message: list[int], generator: list[list[int]]) -> list[int]:
        if len(message) != self.kappa:
            raise ValueError(f"message length {len(message)} != kappa {self.kappa}")
        exp, log = self.field.exp, self.field.log
        out = [0] * self.n
        for coeff, row in zip(message, generator):
            if coeff:
                lc = log[coeff]
                for j, g in enumerate(row):
                    if g:
                        out[j] ^= exp[lc + log[g]]
        return out

    # -- decoding ----------------------------------------------------------

    @cached_property
    def _syndrome_map(self) -> LinearMap:
        """Position i's symbol w -> its syndromes w * (a^i)^t, t = 1..n-kappa."""
        exp, q1 = self.field.exp, self.field.order - 1
        rows = [[exp[i * t % q1] for t in range(1, self.n - self.kappa + 1)] for i in range(self.n)]
        return LinearMap(self.field, rows)

    @cached_property
    def _evaluation_map(self) -> LinearMap:
        """The coefficient c of z^t -> c * X_i^-t at every position i, for
        t < n - kappa; applied to a polynomial, its values there."""
        exp, q1 = self.field.exp, self.field.order - 1
        rows = [[exp[-i * t % q1] for i in range(self.n)] for t in range(self.n - self.kappa)]
        return LinearMap(self.field, rows)

    def syndromes(self, word) -> list[int]:
        """S_t = sum_i word[i] * (a^i)^t for t = 1..n-kappa."""
        smap = self._syndrome_map
        return smap.unpack(smap.packed(word, range(self.n)))

    def locator(self, positions) -> list[int]:
        """The erasure locator prod over positions i of (1 - a^i z)."""
        exp, log = self.field.exp, self.field.log
        loc = [1] + [0] * len(positions)
        deg = 0
        for i in sorted(positions):  # position i < n <= 2^m - 1, so log(a^i) = i
            deg += 1
            for j in range(deg, 0, -1):
                c = loc[j - 1]
                if c:
                    loc[j] ^= exp[log[c] + i]
        return loc

    def extend_locator(self, locator: list[int], position: int) -> list[int]:
        """locator * (1 - a^position z): one more erased position, in O(deg)."""
        exp, log = self.field.exp, self.field.log
        return [a ^ (exp[log[b] + position] if b else 0) for a, b in zip(locator + [0], [0] + locator)]

    def forney_syndromes(self, synd: list[int], locator: list[int]) -> list[int]:
        """Erasure-adjusted (Forney) syndromes synd * locator mod z^(n-kappa).

        With locator = self.locator(X), coefficients from |X| on do not
        depend on the symbols at X, and they all vanish when every error
        lies in X.  Since locator(X | E) = locator(X) * locator(E), passing
        an already adjusted series adjusts it for E as well.
        """
        limit = self.n - self.kappa
        exp, log = self.field.exp, self.field.log
        terms = [(i, log[a]) for i, a in enumerate(synd[:limit]) if a]
        out = [0] * limit
        for j, b in enumerate(locator[:limit]):
            if b:
                lb = log[b]
                for i, la in terms:
                    if i + j >= limit:
                        break
                    out[i + j] ^= exp[la + lb]
        return out

    def erasure_context(self, erasures) -> ErasureContext:
        """The shared decoding state for words that all erase ``erasures``."""
        erasures = frozenset(erasures)
        if any(not 0 <= e < self.n for e in erasures):
            raise ValueError("erasure position out of range")
        return ErasureContext(self, erasures)

    def decode_errors_erasures(self, symbols, erasures=()) -> DecodeResult | None:
        """Errors-and-erasures decoding of one word.

        Returns the unique codeword within s + 2v < d_min of the word (s
        erasures, v symbol errors elsewhere), or None when there is none.
        Beyond that radius another codeword may lie closer than the one
        sent; callers needing integrity must check the result themselves.
        """
        if len(symbols) != self.n:
            raise ValueError(f"word length {len(symbols)} != n {self.n}")
        return self.erasure_context(erasures).decode(symbols)

    def is_codeword(self, word) -> bool:
        return not any(self.syndromes(list(word)))

    def __repr__(self) -> str:
        return f"RsCode(n={self.n}, kappa={self.kappa}, field={self.field!r})"


class ErasureContext:
    """Errors-and-erasures decoding for words that all erase the positions U.

    Built once per erasure set by RsCode.erasure_context; decode() then
    handles one word, with at most one extra erased position of its own.
    The context holds the parts that depend on U alone: the locator
    Gamma_U, its values Gamma_U(X_i^-1) at the known positions and its
    derivative's values Gamma_U'(X_i^-1) on U.
    """

    def __init__(self, code: RsCode, erased: frozenset[int]):
        field = code.field
        exp = field.exp
        q1 = field.order - 1
        self.code = code
        self.erased = erased
        self.known = tuple(i for i in range(code.n) if i not in erased)
        self.locator = code.locator(erased)
        deriv = _poly_deriv(self.locator)
        # exp[q1 - i] = X_i^-1 for every position 0 <= i < n <= q1
        self.locator_at = {i: poly_eval(field, self.locator, exp[q1 - i]) for i in self.known}
        self.deriv_at = {i: poly_eval(field, deriv, exp[q1 - i]) for i in erased}

    def decode(self, word, extra: int | None = None) -> DecodeResult | None:
        """Decode a length-n word, ignoring its symbols on U and at ``extra``
        (a known position, or None)."""
        if extra in self.erased:
            raise ValueError("the extra erasure must be a known position")
        code, field = self.code, self.code.field
        exp, log = field.exp, field.log
        q1 = field.order - 1
        s = len(self.erased) + (extra is not None)
        if s > code.n - code.kappa:
            return None
        received = [0] * code.n
        for i in self.known:
            received[i] = word[i]
        if extra is not None:
            received[extra] = 0
        smap, emap = code._syndrome_map, code._evaluation_map
        packed = smap.packed(received, self.known)
        if not packed:
            # the zero-filled word is a codeword: the erased values were zero
            return DecodeResult(tuple(received), frozenset())
        synd = smap.unpack(packed)

        gamma = self.locator if extra is None else code.extend_locator(self.locator, extra)
        adjusted = code.forney_syndromes(synd, gamma)
        stream = adjusted[s:]
        if any(stream):
            lam, errs = _berlekamp_massey(field, stream)
            if 2 * errs > len(stream) or len(lam) - 1 != errs:
                return None
            lam_at = emap.apply(lam)
            roots = [i for i in self.known if lam_at[i] == 0 and i != extra]
            if len(roots) != errs:
                return None
            omega = code.forney_syndromes(adjusted, lam)
            lam_d_at = emap.apply(_poly_deriv(lam))
        else:
            lam_at, roots, omega = [1] * code.n, [], adjusted
        omega_at = emap.apply(omega)

        # Psi = Gamma_U * (1 + X_r z) * Lambda; at a root of one factor,
        # Psi' is that factor's derivative times the other two
        terms = [(i, field.mul(self.deriv_at[i], lam_at[i])) for i in self.erased]
        if extra is not None:
            terms.append((extra, field.mul(field.mul(self.locator_at[extra], exp[extra]), lam_at[extra])))
        terms += [(i, field.mul(self.locator_at[i], lam_d_at[i])) for i in roots]
        errata = {}
        for i, den in terms:
            if extra is not None and i != extra:
                den = field.mul(den, 1 ^ exp[extra + q1 - i])
            if den == 0:
                return None
            errata[i] = field.div(omega_at[i], den)
            received[i] ^= errata[i]
        # syndromes are linear: S(corrected) = S(received) + sum e_i X_i^t
        if smap.packed(errata, errata) != packed:
            return None
        corrected = frozenset(i for i in roots if errata[i])
        return DecodeResult(tuple(received), corrected)


def _berlekamp_massey(field: Field, stream: list[int]) -> tuple[list[int], int]:
    """Minimal LFSR (connection polynomial, length) generating ``stream``."""
    lam = [1]
    prev = [1]
    lfsr_len = 0
    gap = 1
    prev_disc = 1
    exp, log = field.exp, field.log
    for pos in range(len(stream)):
        disc = stream[pos]
        for l in range(1, lfsr_len + 1):
            if l < len(lam) and lam[l] and stream[pos - l]:
                disc ^= exp[log[lam[l]] + log[stream[pos - l]]]
        if disc == 0:
            gap += 1
            continue
        scale = field.div(disc, prev_disc)
        ls = log[scale]
        adjusted = list(lam) + [0] * max(0, gap + len(prev) - len(lam))
        for j, c in enumerate(prev):
            if c:
                adjusted[gap + j] ^= exp[ls + log[c]]
        if 2 * lfsr_len <= pos:
            prev = lam
            prev_disc = disc
            lfsr_len = pos + 1 - lfsr_len
            gap = 1
        else:
            gap += 1
        lam = adjusted
    return poly_trim(lam), lfsr_len
