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
Gamma_U(X_i^-1) at the known positions, Gamma_U'(X_i^-1) on U, and one
linear map straight to the Forney syndromes S * Gamma_U mod z^(n-kappa).
Its decode() then handles one word with at most one extra erased position
r: one pass of that map over the known positions other than r, then
errata(), the tail every decode shares, which takes only that packed
image: one (1 + X_r z) step, Berlekamp-Massey only when the Forney stream
is nonzero, Chien search over the known positions only, and Psi'(X_i^-1)
for Psi = Gamma_U * (1 + X_r z) * Lambda from whichever factor vanishes at
X_i^-1.  A locator of degree 1, 1 + Lambda_1 z, has its one root at
position log Lambda_1, so it is evaluated at every position only when that
position is known and not r.  Omega = S * Psi mod z^(n-kappa) has degree
below the errata count s + e, so only those terms are formed and
evaluated.  The recheck is incremental: the map is linear, so the
corrected word's image is the received word's plus the errata's, and only
the errata positions are mapped.  A caller that holds a word as (position,
value) pairs, as reconstruct.row_decode holds a pair-solved row, packs its
image itself and calls errata(), with no length-n copy.
decode_errors_erasures is the one-word call of decode(), and syndromes()
is the map of the empty erasure set; both use the code's one cached
context of that set, and a one-word call with erasures builds its own.

Words that erase the same U often also share their error positions: every
row of a round is corrupted in the columns of the same lying nodes, so the
rows form an interleaved code with a common error locator (Schmidt,
Sidorenko and Bossert, collaborative decoding of interleaved RS codes).
The context keeps the last locator Lambda that Berlekamp-Massey found for a
word that decoded, and a later word whose stream satisfies Lambda's
recurrence, with 2 deg(Lambda) within the stream and its r not a root,
takes Lambda's errata instead, falling back to Berlekamp-Massey when they
fail the recheck.  Both paths return the unique codeword within s + 2e <=
n - kappa, so the result is the same.

Syndromes and polynomial values at every X_i^-1 are GF(2^m)-linear maps,
applied through linalg.LinearMap, the same table kernel the encoder and
repair use: per-input lookup tables whose entries pack all outputs into
one int, so a syndrome costs two lookups and an XOR per known symbol.  Each
RsCode builds its evaluation map once, on first decode, and each
ErasureContext its Forney map, never per word; each takes about
2^(m/2+1) * n * (n - kappa) * m bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .field import Field
from .linalg import LinearMap

__all__ = ["RsCode", "ErasureContext", "DecodeResult", "BadLength", "poly_eval"]


class BadLength(ValueError):
    """Code length does not fit the field (n must be <= 2^m - 1)."""


# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficients, trailing zeros trimmed)

def poly_trim(p: list[int]) -> list[int]:
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return p[:i]


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
        exp, log = field.exp, field.log
        gen = [1]
        for j in range(1, n - kappa + 1):  # times (x - a^j)
            gen = [a ^ (exp[log[b] + j] if b else 0) for a, b in zip([0] + gen, gen + [0])]
        self.gen_poly = gen
        self.d_min = n - kappa + 1

    # -- generator matrices ------------------------------------------------

    def systematic_generator(self) -> list[list[int]]:
        """Rows i = coefficients of x^(n-kappa+i) + (x^(n-kappa+i) mod g), i.e.
        the [D | I] form whose every row has Hamming weight exactly d_min."""
        n, kappa = self.n, self.kappa
        parity = n - kappa
        g = self.gen_poly  # monic of degree parity, so x^parity = g[:parity] mod g
        exp, log = self.field.exp, self.field.log
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
                lt = log[top]
                rem = [c ^ exp[lt + log[gc]] if gc else c for c, gc in zip(rem, g)]
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
    def _evaluation_map(self) -> LinearMap:
        """The coefficient c of z^t -> c * X_i^-t at every position i, for
        t < n - kappa; applied to a polynomial, its values there."""
        exp, q1 = self.field.exp, self.field.order - 1
        rows = [[exp[-i * t % q1] for i in range(self.n)] for t in range(self.n - self.kappa)]
        return LinearMap(self.field, rows)

    @cached_property
    def _plain_context(self) -> ErasureContext:
        """The context of the empty erasure set, whose Forney map is the
        plain syndrome map."""
        return ErasureContext(self, frozenset())

    def syndromes(self, word) -> list[int]:
        """S_t = sum_i word[i] * (a^i)^t for t = 1..n-kappa."""
        return self._plain_context.adjusted(word)

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
        With no erasures the word goes through the code's cached context of
        the empty set; any other set builds its own.
        """
        if len(symbols) != self.n:
            raise ValueError(f"word length {len(symbols)} != n {self.n}")
        context = self.erasure_context(erasures) if erasures else self._plain_context
        return context.decode(symbols)

    def __repr__(self) -> str:
        return f"RsCode(n={self.n}, kappa={self.kappa}, field={self.field!r})"


class ErasureContext:
    """Errors-and-erasures decoding for words that all erase the positions U.

    Built once per erasure set by RsCode.erasure_context; decode() then
    handles one word, with at most one extra erased position r of its own.
    The context holds the parts that depend on U alone: the locator
    Gamma_U, its values Gamma_U(X_i^-1) at the known positions, its
    derivative's values Gamma_U'(X_i^-1) on U, and forney_map, which takes
    a word straight to its Forney syndromes S * Gamma_U; a word's own r is
    one more (1 + X_r z) step.  It also keeps the last error locator that
    Berlekamp-Massey found for a word that then decoded, with its roots and
    its values at every position: words that share their error positions,
    like the rows of one progressive round, reuse it (decode()).
    """

    def __init__(self, code: RsCode, erased: frozenset[int]):
        field = code.field
        exp, log = field.exp, field.log
        q1 = field.order - 1
        self.code = code
        self.erased = erased
        self.known = tuple(i for i in range(code.n) if i not in erased)
        self.locator = code.locator(erased)
        deriv = _poly_deriv(self.locator)
        # exp[q1 - i] = X_i^-1 for every position 0 <= i < n <= q1, and
        # neither value is zero, as Gamma_U has simple roots, all on U
        self.log_locator_at = {i: log[poly_eval(field, self.locator, exp[q1 - i])] for i in self.known}
        self.log_deriv_at = [(i, log[poly_eval(field, deriv, exp[q1 - i])]) for i in erased]
        # the last locator that decoded a word: (Lambda, its roots, its
        # values at every position, and for each i on U and at the roots
        # the log of Psi'(X_i^-1) / (1 + X_r X_i^-1), which is free of r)
        self._located = None

    @cached_property
    def forney_map(self) -> LinearMap:
        """Position i's symbol w -> w times coefficients 0 .. n-kappa-1 of
        X_i Gamma_U(z) / (1 - X_i z), the Forney syndromes S * Gamma_U mod
        z^(n-kappa) of a word that is w at i and zero elsewhere.  Its
        coefficients follow c_t = X_i (Gamma_t + c_(t-1)), so the images
        need no matrix.  With U empty it is the plain syndrome map, and as
        Gamma_U(0) = 1 two words have equal images exactly when they have
        equal syndromes."""
        code, field = self.code, self.code.field
        exp, log, m = field.exp, field.log, field.m
        limit = code.n - code.kappa
        gamma = (self.locator + [0] * limit)[:limit]
        images = []
        for i in range(code.n):  # X_i = a^i, so log X_i = i
            c = image = 0
            for t, g in enumerate(gamma):
                c ^= g
                c = exp[log[c] + i] if c else 0
                image |= c << m * t
            images.append(image)
        return LinearMap.from_images(field, images, limit)

    def _extend(self, adjusted: list[int], extra: int | None) -> list[int]:
        """adjusted * (1 + X_extra z) mod z^(n-kappa), or adjusted itself."""
        if extra is None:
            return adjusted
        exp, log = self.code.field.exp, self.code.field.log
        return adjusted[:1] + [a ^ exp[log[b] + extra] if b else a for a, b in zip(adjusted[1:], adjusted)]

    def adjusted(self, word, extra: int | None = None) -> list[int]:
        """The Forney syndromes S * Gamma_U * (1 + X_extra z) mod
        z^(n-kappa) of ``word``'s symbols at the known positions other than
        ``extra``."""
        indices = self.known if extra is None else [i for i in self.known if i != extra]
        fmap = self.forney_map
        return self._extend(fmap.unpack(fmap.packed(word, indices)), extra)

    def decode(self, word, extra: int | None = None) -> DecodeResult | None:
        """Decode a length-n word, ignoring its symbols on U and at ``extra``
        (a known position, or None): one pass of forney_map over the known
        positions other than ``extra``, then errata()."""
        fmap = self.forney_map
        packed = fmap.packed(word, self.known)
        if extra is not None:
            packed ^= fmap.packed(word, (extra,))
        found = self.errata(packed, extra)
        if found is None:
            return None
        errata, corrected = found
        received = [0] * self.code.n
        for i in self.known:
            if i != extra:
                received[i] = word[i]
        for i, value in errata.items():
            received[i] ^= value
        return DecodeResult(tuple(received), corrected)

    def errata(self, packed: int, extra: int | None = None) -> tuple[dict[int, int], frozenset[int]] | None:
        """The errata of a word whose image under forney_map, over the known
        positions other than ``extra`` (a known position, or None), is
        ``packed``: (position -> the value to add there, the non-erasure
        positions among them), or None when the word does not decode.
        decode() and reconstruct.row_decode take a word's image in one pass
        over its symbols and share this tail.

        A nonzero Forney stream first tries the remembered locator Lambda of
        e errors, when the stream satisfies Lambda's recurrence, 2e fits in
        the stream and ``extra`` is not a root.  Its errata are kept only if
        the recheck passes; then the word lies within s + 2e <= n - kappa
        of a codeword, the unique one there, which Berlekamp-Massey would
        find too, with the same nonzero errata.  Otherwise the stream goes
        through Berlekamp-Massey as usual.  A locator of degree 1,
        1 + Lambda_1 z, has its one root at position log Lambda_1, so its
        values at every position are computed only when that position is
        known and not ``extra``.
        """
        if extra in self.erased:
            raise ValueError("the extra erasure must be a known position")
        code, field = self.code, self.code.field
        s = len(self.erased) + (extra is not None)
        if s > code.n - code.kappa:
            return None
        if not packed:
            # the zero-filled word is a codeword: the erased values were zero
            return {}, frozenset()
        adjusted = self._extend(self.forney_map.unpack(packed), extra)
        stream = adjusted[s:]
        if not any(stream):
            return self._correct(packed, extra, adjusted, None)
        located = self._located
        if located is not None and extra not in located[1] and _fits(field, located[0], stream):
            result = self._correct(packed, extra, adjusted, located)
            if result is not None:
                return result
        lam, errs = _berlekamp_massey(field, stream)
        if 2 * errs > len(stream) or len(lam) - 1 != errs:
            return None
        log, q1 = field.log, field.order - 1
        if errs == 1 and (log[lam[1]] >= code.n or log[lam[1]] in self.erased or log[lam[1]] == extra):
            return None
        emap = code._evaluation_map
        lam_at = emap.apply(lam)
        roots = [i for i in self.known if lam_at[i] == 0 and i != extra]
        if len(roots) != errs:
            return None
        # Psi = Gamma_U * (1 + X_r z) * Lambda; at a root of one factor,
        # Psi' is that factor's derivative times the other two.  Lambda has
        # errs simple roots, all at known positions other than r, so no
        # factor here vanishes.
        lam_d_at = emap.apply(_poly_deriv(lam))
        dens = [(i, (ld + log[lam_at[i]]) % q1) for i, ld in self.log_deriv_at]
        dens += [(i, (self.log_locator_at[i] + log[lam_d_at[i]]) % q1) for i in roots]
        located = (lam, roots, lam_at, dens)
        result = self._correct(packed, extra, adjusted, located)
        if result is not None:
            self._located = located
        return result

    def _correct(self, packed, extra, adjusted, located):
        """The errata of ``located`` (None: no errors) as errata() returns
        them, if the corrected word's Forney syndromes vanish.  Each value
        is Omega(X_i^-1) / Psi'(X_i^-1), in logs."""
        code, field = self.code, self.code.field
        exp, log, q1 = field.exp, field.log, field.order - 1
        emap = code._evaluation_map
        # Omega = S * Psi mod z^(n-kappa) has degree below s + e, the errata
        # count, as Lambda generates the stream: only those terms are needed
        s = len(self.erased) + (extra is not None)
        if located is None:
            roots, dens, omega, lam_r = (), self.log_deriv_at, adjusted, 0
        else:
            lam, roots, lam_at, dens = located
            s += len(lam) - 1
            omega = code.forney_syndromes(adjusted[:s], lam)
            lam_r = log[lam_at[extra]] if extra is not None else 0
        omega_at = emap.packed(omega, range(s))
        m, mask = emap.m, emap.mask
        # Psi'(X_i^-1) is den times the factor (1 + X_r z) at X_i^-1, and at
        # X_r^-1 it is X_r times Gamma_U and Lambda there
        errata = {}
        for i, den in dens:
            value = omega_at >> m * i & mask
            if value:
                if extra is not None:
                    den += log[1 ^ exp[extra + q1 - i]]
                errata[i] = exp[(log[value] - den) % q1]
        if extra is not None:
            value = omega_at >> m * extra & mask
            if value:
                errata[extra] = exp[(log[value] - self.log_locator_at[extra] - extra - lam_r) % q1]
        # the map is linear: the corrected word's image is the received
        # word's plus the errata's, zero exactly when they are equal
        if self.forney_map.packed(errata, errata) != packed:
            return None
        return errata, frozenset(i for i in roots if i in errata)


def _fits(field: Field, lam: list[int], stream: list[int]) -> bool:
    """Whether the LFSR with connection polynomial lam, of length
    deg(lam) = e with 2e <= len(stream), generates ``stream``."""
    e = len(lam) - 1
    if 2 * e > len(stream):
        return False
    exp, log = field.exp, field.log
    terms = [(l, log[c]) for l, c in enumerate(lam) if c]
    for t in range(e, len(stream)):
        acc = 0
        for l, lc in terms:
            x = stream[t - l]
            if x:
                acc ^= exp[lc + log[x]]
        if acc:
            return False
    return True


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
