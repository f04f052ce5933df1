"""Truncated Laurent series arithmetic over exact integers and Z/2^k.

A series is stored as a coefficient window [offset, trunc): exponents below
``offset`` are exactly zero, exponents at or above ``trunc`` are unknown.
Every operation computes the tightest truncation it can justify and refuses
to report coefficients beyond it.

Two coefficient rings are supported: exact arbitrary-precision integers, and
integers modulo 2^k for 1 <= k <= 64.  Both keep their coefficients in one
read-only numpy array: dtype object holding Python ints over Z, and uint64
mod 2^k, where native wraparound is exact arithmetic mod 2^64 and masking to
k bits yields canonical residues.  Only :class:`Ring` and the convolution
kernels know which ring they serve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MAX_MOD2K_BITS = 64

# Dense exact multiplications above this many coefficient products switch to
# Kronecker substitution (pack into one big integer, use CPython's int mul).
_SCHOOLBOOK_OP_LIMIT = 1 << 18

_to_int = np.frompyfunc(int, 1, 1)  # int() per element, in numpy's C loop


class RingMismatch(ValueError):
    """Operands live in different coefficient rings."""


class NonInvertibleSeries(ValueError):
    """Leading coefficient is not a unit, or the series is zero to truncation."""


class InsufficientTruncation(ValueError):
    """A coefficient beyond the known window was requested."""


@dataclass(frozen=True)
class Ring:
    """Coefficient ring: exact integers when ``k`` is None, else Z/2^k."""

    k: int | None = None

    def __post_init__(self):
        if self.k is not None and not 1 <= self.k <= MAX_MOD2K_BITS:
            raise ValueError(f"mod-2^k ring needs 1 <= k <= {MAX_MOD2K_BITS}, got {self.k}")

    @property
    def is_exact(self) -> bool:
        return self.k is None

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(object if self.k is None else np.uint64)

    def coerce(self, coeffs) -> np.ndarray:
        """``coeffs`` as a new read-only array of canonical ring elements:
        Python ints over Z (never fixed-width numpy ints), residues below
        2^k mod 2^k."""
        if self.k is None:
            arr = _to_int(np.asarray(coeffs, dtype=object))
        elif isinstance(coeffs, np.ndarray) and coeffs.dtype != object:
            arr = coeffs.astype(np.uint64)
            arr &= np.uint64((1 << self.k) - 1)
        else:
            mask = (1 << self.k) - 1
            arr = np.array([int(c) & mask for c in coeffs], dtype=np.uint64)
        arr.flags.writeable = False
        return arr

    def is_unit(self, c: int) -> bool:
        """Units we invert: +-1 exactly; any odd residue mod 2^k."""
        if self.k is None:
            return c in (1, -1)
        return c % 2 == 1

    def unit_inverse(self, c: int) -> int:
        """Inverse of a unit; +-1 is its own inverse over Z."""
        return c if self.k is None else pow(c, -1, 1 << self.k)

    def __str__(self) -> str:
        return "Z" if self.k is None else f"Z/2^{self.k}"


EXACT = Ring()


def mod2k(k: int) -> Ring:
    return Ring(k)


class LaurentSeries:
    """Immutable truncated Laurent series over a :class:`Ring`."""

    __slots__ = ("offset", "ring", "_coeffs")

    def __init__(self, offset: int, coeffs, ring: Ring):
        self._coeffs = ring.coerce(coeffs)
        if self._coeffs.size == 0:
            raise ValueError("series needs at least one represented coefficient")
        self.offset = int(offset)
        self.ring = ring

    # -- construction helpers -------------------------------------------------

    @classmethod
    def one(cls, ring: Ring, trunc: int) -> "LaurentSeries":
        if trunc < 1:
            raise InsufficientTruncation("constant 1 needs trunc >= 1")
        c = [0] * trunc
        c[0] = 1
        return cls(0, c, ring)

    @classmethod
    def q_power(cls, e: int, ring: Ring, trunc: int) -> "LaurentSeries":
        """The monomial q^e, represented on [e, trunc)."""
        if trunc <= e:
            raise InsufficientTruncation(f"q^{e} needs trunc > {e}")
        c = [0] * (trunc - e)
        c[0] = 1
        return cls(e, c, ring)

    # -- inspection -----------------------------------------------------------

    @property
    def trunc(self) -> int:
        return self.offset + len(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def coeffs(self) -> list[int]:
        return self._coeffs.tolist()

    def coefficient(self, e: int) -> int:
        """Coefficient of q^e; zero below the window, error at/past truncation."""
        if e >= self.trunc:
            raise InsufficientTruncation(
                f"coefficient of q^{e} is beyond truncation {self.trunc}")
        if e < self.offset:
            return 0
        return int(self._coeffs[e - self.offset])

    def valuation(self) -> int | None:
        """Exponent of the first nonzero coefficient, or None if zero to truncation."""
        nz = np.flatnonzero(self._coeffs)
        if nz.size == 0:
            return None
        return self.offset + int(nz[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.ring == other.ring and self.offset == other.offset
                and self.coeffs() == other.coeffs())

    __hash__ = None

    def __repr__(self) -> str:
        return (f"LaurentSeries(offset={self.offset}, trunc={self.trunc}, "
                f"ring={self.ring})")

    def __str__(self) -> str:
        terms = []
        shown = 0
        for i, c in enumerate(self.coeffs()):
            if c == 0:
                continue
            e = self.offset + i
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append(f"{c}*q")
            else:
                terms.append(f"{c}*q^{e}")
            shown += 1
            if shown >= 8:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^{self.trunc})"

    # -- arithmetic -----------------------------------------------------------

    def _check_ring(self, other: "LaurentSeries"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def mul(self, other: "LaurentSeries") -> "LaurentSeries":
        """Product; trunc = min(a.trunc + b.offset, b.trunc + a.offset)."""
        self._check_ring(other)
        conv = _kernel(self.ring)
        data = conv(self._coeffs, other._coeffs, min(len(self), len(other)))
        return LaurentSeries(self.offset + other.offset, data, self.ring)

    __mul__ = mul

    def add(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_ring(other)
        offset = min(self.offset, other.offset)
        trunc = min(self.trunc, other.trunc)
        n = trunc - offset
        out = np.zeros(n, dtype=self.ring.dtype)
        for src in (self, other):
            base = src.offset - offset
            m = min(len(src), n - base)
            if m > 0:
                out[base:base + m] += src._coeffs[:m]
        return LaurentSeries(offset, out, self.ring)

    __add__ = add

    def neg(self) -> "LaurentSeries":
        return self.scale(-1)

    __neg__ = neg

    def sub(self, other: "LaurentSeries") -> "LaurentSeries":
        return self.add(other.neg())

    __sub__ = sub

    def scale(self, c: int) -> "LaurentSeries":
        """Multiply every coefficient by the scalar c."""
        return LaurentSeries(self.offset, self._coeffs * self.ring.coerce([c]),
                             self.ring)

    def shift(self, e: int) -> "LaurentSeries":
        """Multiply by q^e (relabels the exponent window)."""
        return LaurentSeries(self.offset + e, self._coeffs, self.ring)

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse; needs a unit leading coefficient."""
        v = self.valuation()
        if v is None:
            raise NonInvertibleSeries("series is zero through its truncation")
        lead = self.coefficient(v)
        if not self.ring.is_unit(lead):
            raise NonInvertibleSeries(
                f"leading coefficient {lead} is not a unit in {self.ring}")
        # Newton's x <- x*(2 - a*x) on the unit part, doubling the precision
        a = self._coeffs[v - self.offset:]
        conv = _kernel(self.ring)
        x = self.ring.coerce([self.ring.unit_inverse(lead)])
        prec = 1
        while prec < a.size:
            prec = min(2 * prec, a.size)
            t = -conv(a[:prec], x, prec)
            t[:1] += 2  # a uint64 slice wraps silently; a scalar t[0] would warn
            x = conv(x, t, prec)
        return LaurentSeries(-v, x, self.ring)

    def pow(self, e: int) -> "LaurentSeries":
        """Binary powering; pow(a, 0) = 1 on the window [0, len(a))."""
        if e == 0:
            return LaurentSeries.one(self.ring, len(self))
        if e < 0:
            return self.inverse().pow(-e)
        base = self
        acc = None
        while e:
            if e & 1:
                acc = base if acc is None else acc.mul(base)
            e >>= 1
            if e:
                base = base.mul(base)
        return acc

    __pow__ = pow

    def substitute_qpow(self, d: int) -> "LaurentSeries":
        """Replace q by q^d; offset and truncation scale by d."""
        if d < 1:
            raise ValueError("substitution power must be >= 1")
        if d == 1:
            return self
        out = np.zeros(len(self) * d, dtype=self.ring.dtype)
        out[::d] = self._coeffs
        return LaurentSeries(self.offset * d, out, self.ring)

    def truncate(self, trunc: int) -> "LaurentSeries":
        """Restrict the window to exponents below ``trunc``."""
        if trunc >= self.trunc:
            return self
        if trunc <= self.offset:
            raise InsufficientTruncation("truncation would leave an empty window")
        return LaurentSeries(self.offset, self._coeffs[:trunc - self.offset], self.ring)

    def to_ring(self, ring: Ring) -> "LaurentSeries":
        """Reinterpret coefficients in another ring (exact -> mod-2^k reduction)."""
        return LaurentSeries(self.offset, self._coeffs, ring)


def first_difference(a: LaurentSeries, b: LaurentSeries,
                     through: int | None = None):
    """First exponent where two series disagree on their common known window.

    Returns None when they agree, else (exponent, a_coeff, b_coeff).  The
    window compared is [min(offsets), min(truncs)), optionally capped by
    ``through`` (exclusive).  Exponents below either offset count as zero.
    """
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    lo = min(a.offset, b.offset)
    hi = min(a.trunc, b.trunc)
    if through is not None:
        hi = min(hi, through)
    if hi <= lo:
        raise InsufficientTruncation("series share no known coefficient window")

    def window(s: LaurentSeries) -> np.ndarray:
        pad = np.zeros(min(s.offset, hi) - lo, dtype=s.ring.dtype)
        return np.concatenate((pad, s._coeffs[:max(0, hi - s.offset)]))

    wa, wb = window(a), window(b)
    diff = np.flatnonzero(wa != wb)
    if diff.size == 0:
        return None
    i = int(diff[0])
    return lo + i, int(wa[i]), int(wb[i])


def agree(a: LaurentSeries, b: LaurentSeries, through: int | None = None) -> bool:
    return first_difference(a, b, through) is None


# -- convolution kernels -----------------------------------------------------


def _kernel(ring: Ring):
    """The ring's truncated convolution (a, b, out_len) -> array."""
    if ring.is_exact:
        return _conv_exact
    return lambda a, b, out_len: _conv_mod2k(a, b, out_len, ring.k)


def _conv_mod2k(a: np.ndarray, b: np.ndarray, out_len: int, k: int) -> np.ndarray:
    """Truncated convolution of uint64 words, correct mod 2^k; the result's
    words are congruent to the canonical residues, not masked to them."""
    mask = np.uint64((1 << k) - 1)
    a = a[:out_len] & mask
    b = b[:out_len] & mask
    nza = np.nonzero(a)[0]
    nzb = np.nonzero(b)[0]
    if nza.size == 0 or nzb.size == 0:
        return np.zeros(out_len, dtype=np.uint64)
    # one sparse operand: shifted scalar-multiply adds beat a dense convolve
    if min(nza.size, nzb.size) * 16 < out_len:
        if nzb.size < nza.size:
            a, b = b, a
            nza = nzb
        out = np.zeros(out_len, dtype=np.uint64)
        for i in nza.tolist():
            m = min(b.size, out_len - i)
            out[i:i + m] += b[:m] * a[i]
        return out
    # Kronecker substitution: a slot sums at most n products below 2^(2k),
    # so in 2k + bitlen(n) <= 64 bits no carry crosses a slot and one
    # big-integer product is exact; k = 64 stays on the faster np.convolve
    bits = 2 * k + min(a.size, b.size).bit_length()
    if bits <= 64:
        w = (bits + 7) // 8

        def pack(x: np.ndarray) -> int:
            x = x.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
            return int.from_bytes(x[:, :w].tobytes(), "little")

        prod = pack(a) * pack(b) & ((1 << 8 * w * out_len) - 1)
        out = np.zeros((out_len, 8), dtype=np.uint8)
        out[:, :w] = np.frombuffer(prod.to_bytes(w * out_len, "little"),
                                   dtype=np.uint8).reshape(out_len, w)
        return out.view("<u8").ravel()
    conv = np.convolve(a, b)[:out_len]
    if conv.size < out_len:
        conv = np.concatenate([conv, np.zeros(out_len - conv.size, dtype=np.uint64)])
    return conv


def _conv_exact(a: np.ndarray, b: np.ndarray, out_len: int) -> np.ndarray:
    """Truncated convolution over Z of object arrays of Python ints."""
    a = a[:out_len].tolist()
    b = b[:out_len].tolist()
    nza = [i for i, c in enumerate(a) if c]
    nzb = [i for i, c in enumerate(b) if c]
    if not nza or not nzb:
        return np.zeros(out_len, dtype=object)
    if len(nza) > len(nzb):
        a, b = b, a
        nza, nzb = nzb, nza
    if len(nza) * len(nzb) <= _SCHOOLBOOK_OP_LIMIT:
        out = [0] * out_len
        for i in nza:
            ai = a[i]
            m = out_len - i
            for j in nzb:
                if j >= m:
                    break
                out[i + j] += ai * b[j]
        return np.array(out, dtype=object)
    return np.array(_kronecker_signed(a, b, out_len), dtype=object)


def _kronecker_signed(a: list[int], b: list[int], out_len: int) -> list[int]:
    """Exact polynomial product by one big-integer product (Kronecker
    substitution): each operand packs as positive part minus negative part
    in w-byte slots, and a bias of 2^(8w-1) per slot makes every slot of the
    low out_len slots decode with no borrow."""
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    w = (bound.bit_length() + 8) // 8  # |slot| <= bound < 2^(8w-1)
    bias = 1 << (8 * w - 1)

    def pack(cs: list[int]) -> int:
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in cs), "little")

    def pack_signed(cs: list[int]) -> int:
        return pack([max(c, 0) for c in cs]) - pack([max(-c, 0) for c in cs])

    prod = pack_signed(a) * pack_signed(b) + pack([bias] * out_len)
    low = prod & ((1 << (8 * w * out_len)) - 1)
    raw = low.to_bytes(w * out_len, "little")
    return [int.from_bytes(raw[i:i + w], "little") - bias
            for i in range(0, w * out_len, w)]


# -- classic q-series building blocks ----------------------------------------


def pentagonal_series(ring: Ring, T: int) -> LaurentSeries:
    """Euler's expansion of prod_{i>=1}(1 - q^i) = f(-q, -q^2): +-1 at
    generalized pentagonal exponents k(3k-1)/2, zero elsewhere."""
    return theta_f(1, 2, T, ring)


def euler_factor(a: int, m: int, e: int, ring: Ring, T: int) -> LaurentSeries:
    """Expansion of prod_{i>=0}(1 - q^(a+m*i))^e through q^(T-1).

    The full Euler product (a == m) is f(-q^m, -q^(2m))^e, by
    ``_theta_power``.  General (q^a; q^m)-type factors multiply the sparse
    binomials directly.
    """
    if a < 1 or m < 1:
        raise ValueError("euler_factor needs a >= 1 and m >= 1")
    if T < 1:
        raise InsufficientTruncation("need T >= 1")
    if a == m:
        return _theta_power(2, e, m, ring, T)
    base = _binomial_product(a, m, ring, T)
    return base.pow(e) if e != 1 else base


def phi_power(d: int, e: int, ring: Ring, T: int) -> LaurentSeries:
    """Expansion of phi(-q^d)^e = (f_d^2 / f_{2d})^e through q^(T-1).

    Gauss's identity phi(-q) = f(-q, -q) = f_1^2 / f_2 = 1 + 2X, X =
    sum_{n>=1} (-1)^n q^(n^2), has about sqrt(T) nonzero terms; it is
    raised to the power e by ``_theta_power``, with no inverse and no
    dense product.
    """
    if d < 1:
        raise ValueError("phi_power needs d >= 1")
    if T < 1:
        raise InsufficientTruncation("need T >= 1")
    return _theta_power(1, e, d, ring, T)


def _theta_power(y: int, e: int, d: int, ring: Ring, T: int) -> LaurentSeries:
    """f(-q, -q^y)^e through q^(T-1) after q -> q^d, for y in (1, 2).

    The power is taken at length ceil(T/d) before the substitution: over Z
    by Miller's recurrence on the sparse theta series; mod 2^k for phi
    (y == 1) as sum_{i<k} C(e, i) 2^i X^i, whose terms with i >= k vanish,
    by Horner's rule in the sparse X; mod 2^k for f_1 (y == 2) by binary
    powering, since the recurrence's division by k is unavailable there.
    """
    n = (T - 1) // d + 1
    if not ring.is_exact and y == 1:
        base = LaurentSeries(0, _gauss_power_mod2k(e, ring.k, n), ring)
    else:
        base = theta_f(1, y, n, ring)
        if e != 1:
            base = (LaurentSeries(0, _miller_power(base.coeffs(), e), ring)
                    if ring.is_exact else base.pow(e))
    return base.substitute_qpow(d).truncate(T)


def _miller_power(p: Sequence[int], e: int) -> list[int]:
    """p^e over Z for p[0] == 1, to len(p) terms, by J.C.P. Miller's
    recurrence k*a_k = sum_{i=1..k} ((e+1)*i - k)*p_i*a_{k-i} (Knuth, TAOCP
    vol. 2, 4.7): O(len(p) * nnz(p)) small-int steps, for any sign or size
    of e, with no inverse and no dense product."""
    terms = [(i, (e + 1) * i * c, c) for i, c in enumerate(p) if c and i]
    a = [1] + [0] * (len(p) - 1)
    for k in range(1, len(p)):
        a[k] = sum((w - k * c) * a[k - i] for i, w, c in terms if i <= k) // k
    return a


def _gauss_power_mod2k(e: int, k: int, n: int) -> np.ndarray:
    """(1 + 2X)^e mod 2^k to n terms, as unmasked uint64 words, by Horner's
    rule in X over the terms C(e, i) 2^i X^i with i < k (and i <= e when
    e >= 0, since C(e, i) = 0 past e): at most k - 1 products by X, each
    sqrt(n) shifted adds."""
    squares = [(j * j, j % 2) for j in range(1, math.isqrt(n - 1) + 1)]
    top = k if e < 0 else min(k, e + 1)
    acc = np.zeros(n, dtype=np.uint64)
    for i in reversed(range(top)):
        if i < top - 1:  # acc <- acc * X; the constant term becomes zero
            prev, acc = acc, np.zeros(n, dtype=np.uint64)
            for sq, odd in squares:
                if odd:
                    acc[sq:] -= prev[:n - sq]
                else:
                    acc[sq:] += prev[:n - sq]
        binom = math.comb(e, i) if e >= 0 else (-1) ** i * math.comb(i - e - 1, i)
        acc[0] = (binom << i) % (1 << 64)
    return acc


def _binomial_product(a: int, m: int, ring: Ring, T: int) -> LaurentSeries:
    out = np.zeros(T, dtype=ring.dtype)
    out[0] = 1
    c = a
    while c < T:
        out[c:] = out[c:] - out[:T - c]
        c += m
    return LaurentSeries(0, out, ring)


def theta_f(x: int, y: int, T: int, ring: Ring = EXACT) -> LaurentSeries:
    """Ramanujan theta sum_{n in Z} (-1)^n q^(x*n(n+1)/2 + y*n(n-1)/2)."""
    if x < 1 or y < 1:
        raise ValueError("theta_f needs x >= 1 and y >= 1")
    if T < 1:
        raise InsufficientTruncation("need T >= 1")
    c = [0] * T
    c[0] = 1
    n = 1
    while True:
        ep = x * n * (n + 1) // 2 + y * n * (n - 1) // 2
        em = y * n * (n + 1) // 2 + x * n * (n - 1) // 2
        if ep >= T and em >= T:
            break
        s = -1 if n % 2 else 1
        if ep < T:
            c[ep] += s
        if em < T:
            c[em] += s
        n += 1
    return LaurentSeries(0, c, ring)
