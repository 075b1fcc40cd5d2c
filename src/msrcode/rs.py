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
Forney value evaluation, followed by a syndrome recheck.  A decode that
cannot be completed consistently returns None rather than raising; callers
treat that as "fetch more data".
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import Field

__all__ = ["RsCode", "DecodeResult", "BadLength", "poly_eval", "poly_mul", "poly_mod"]


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
        rows = []
        for i in range(kappa):
            mono = [0] * (parity + i) + [1]
            rem = poly_mod(self.field, mono, self.gen_poly)
            row = [0] * n
            for j, c in enumerate(rem):
                row[j] = c
            row[parity + i] = 1
            rows.append(row)
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

    def syndromes(self, word: list[int]) -> list[int]:
        exp = self.field.exp
        return [poly_eval(self.field, word, exp[j]) for j in range(1, self.n - self.kappa + 1)]

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

    def forney_syndromes(self, synd: list[int], locator: list[int]) -> list[int]:
        """Erasure-adjusted (Forney) syndromes synd * locator mod z^(n-kappa).

        With locator = self.locator(X), coefficients from |X| on do not
        depend on the symbols at X, and they all vanish when every error
        lies in X.  Since locator(X | E) = locator(X) * locator(E), passing
        an already adjusted series adjusts it for E as well.
        """
        limit = self.n - self.kappa
        out = [0] * limit
        exp, log = self.field.exp, self.field.log
        for i, a in enumerate(synd[:limit]):
            if a == 0:
                continue
            la = log[a]
            for j, b in enumerate(locator[: limit - i]):
                if b:
                    out[i + j] ^= exp[la + log[b]]
        return out

    def decode_errors_erasures(self, symbols, erasures=()) -> DecodeResult | None:
        """Errors-and-erasures decoding.

        Guaranteed to return the transmitted codeword whenever s + 2v < d_min
        (s erasures, v symbol errors elsewhere).  Beyond that it either
        returns None or, rarely, another codeword; callers needing integrity
        must check the result themselves.
        """
        n, field = self.n, self.field
        nsyn = n - self.kappa
        if len(symbols) != n:
            raise ValueError(f"word length {len(symbols)} != n {n}")
        erasures = frozenset(erasures)
        if any(not 0 <= e < n for e in erasures):
            raise ValueError("erasure position out of range")
        s = len(erasures)
        if s > nsyn:
            return None

        word = list(symbols)
        for e in erasures:
            word[e] = 0
        synd = self.syndromes(word)
        if not any(synd):
            # zero-filled word is already a codeword consistent with all
            # non-erased symbols, so the erased values were zero
            return DecodeResult(tuple(word), frozenset())

        stream = self.forney_syndromes(synd, self.locator(erasures))[s:]

        err_loc, lfsr_len = _berlekamp_massey(field, stream)
        if 2 * lfsr_len > len(stream) or len(poly_trim(err_loc)) - 1 != lfsr_len:
            return None

        error_positions = self._chien_search(err_loc, erasures)
        if len(error_positions) != lfsr_len:
            return None

        all_positions = sorted(erasures | error_positions)
        psi = self.locator(all_positions)
        omega = self.forney_syndromes(synd, psi)
        psi_d = _poly_deriv(psi)
        exp = field.exp
        q1 = field.order - 1
        corrected = set()
        for i in all_positions:
            xi_inv = exp[(q1 - i % q1) % q1]
            den = poly_eval(field, psi_d, xi_inv)
            if den == 0:
                return None
            value = field.div(poly_eval(field, omega, xi_inv), den)
            word[i] ^= value
            if i not in erasures and value:
                corrected.add(i)
        if any(self.syndromes(word)):
            return None
        return DecodeResult(tuple(word), frozenset(corrected))

    def _chien_search(self, locator: list[int], skip) -> set[int]:
        exp = self.field.exp
        q1 = self.field.order - 1
        found = set()
        for i in range(self.n):
            if i in skip:
                continue
            if poly_eval(self.field, locator, exp[(q1 - i % q1) % q1]) == 0:
                found.add(i)
        return found

    def is_codeword(self, word) -> bool:
        return not any(self.syndromes(list(word)))

    def __repr__(self) -> str:
        return f"RsCode(n={self.n}, kappa={self.kappa}, field={self.field!r})"


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
