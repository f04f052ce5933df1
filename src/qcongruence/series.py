"""Truncated Laurent series arithmetic over exact integers and Z/2^k.

A series is stored as a coefficient window [offset, trunc): exponents below
``offset`` are exactly zero, exponents at or above ``trunc`` are unknown.
Every operation computes the tightest truncation it can justify and refuses
to report coefficients beyond it.

Two coefficient rings are supported: exact arbitrary-precision integers, and
integers modulo 2^k for 1 <= k <= 64.  Mod-2^k coefficients live in numpy
uint64 arrays; native wraparound is exact arithmetic mod 2^64, so masking to
k bits after each operation yields canonical residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

MAX_MOD2K_BITS = 64

# Dense exact multiplications above this many coefficient products switch to
# Kronecker substitution (pack into one big integer, use CPython's int mul).
_SCHOOLBOOK_OP_LIMIT = 1 << 18


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
    def modulus(self) -> int | None:
        return None if self.k is None else 1 << self.k

    def reduce(self, c: int) -> int:
        if self.k is None:
            return int(c)
        return int(c) & ((1 << self.k) - 1)

    def is_unit(self, c: int) -> bool:
        """Units we invert: +-1 exactly; any odd residue mod 2^k."""
        if self.k is None:
            return c in (1, -1)
        return c % 2 == 1

    def __str__(self) -> str:
        return "Z" if self.k is None else f"Z/2^{self.k}"


EXACT = Ring()


def mod2k(k: int) -> Ring:
    return Ring(k)


def _word_inverse(a0: int) -> int:
    """Inverse of an odd residue mod 2^64 by Hensel lifting."""
    x = a0  # correct to 3 bits for odd a0
    for _ in range(5):
        x = (x * (2 - a0 * x)) & 0xFFFFFFFFFFFFFFFF
    return x


class LaurentSeries:
    """Immutable truncated Laurent series over a :class:`Ring`."""

    __slots__ = ("offset", "ring", "_coeffs")

    def __init__(self, offset: int, coeffs, ring: Ring):
        if isinstance(coeffs, np.ndarray):
            n = coeffs.size
        else:
            coeffs = list(coeffs)
            n = len(coeffs)
        if n == 0:
            raise ValueError("series needs at least one represented coefficient")
        self.offset = int(offset)
        self.ring = ring
        if ring.is_exact:
            if isinstance(coeffs, np.ndarray):
                coeffs = coeffs.tolist()
            self._coeffs = tuple(int(c) for c in coeffs)
        else:
            mask = np.uint64((1 << ring.k) - 1)
            if isinstance(coeffs, np.ndarray):
                arr = coeffs.astype(np.uint64, copy=True) & mask
            else:
                m = (1 << ring.k) - 1
                arr = np.array([int(c) & m for c in coeffs], dtype=np.uint64)
            arr.flags.writeable = False
            self._coeffs = arr

    # -- construction helpers -------------------------------------------------

    @classmethod
    def one(cls, ring: Ring, trunc: int) -> "LaurentSeries":
        if trunc < 1:
            raise InsufficientTruncation("constant 1 needs trunc >= 1")
        c = [0] * trunc
        c[0] = 1
        return cls(0, c, ring)

    @classmethod
    def constant(cls, value: int, ring: Ring, trunc: int) -> "LaurentSeries":
        if trunc < 1:
            raise InsufficientTruncation("constant needs trunc >= 1")
        c = [0] * trunc
        c[0] = value
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
        if self.ring.is_exact:
            return list(self._coeffs)
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
        if self.ring.is_exact:
            for i, c in enumerate(self._coeffs):
                if c:
                    return self.offset + i
            return None
        nz = np.nonzero(self._coeffs)[0]
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
        out_len = min(len(self), len(other))
        offset = self.offset + other.offset
        if self.ring.is_exact:
            data = _conv_exact(self._coeffs, other._coeffs, out_len)
        else:
            data = _conv_mod64(self._coeffs, other._coeffs, out_len)
        return LaurentSeries(offset, data, self.ring)

    __mul__ = mul

    def add(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_ring(other)
        offset = min(self.offset, other.offset)
        trunc = min(self.trunc, other.trunc)
        n = trunc - offset
        if self.ring.is_exact:
            out = [0] * n
            for src in (self, other):
                base = src.offset - offset
                for i, c in enumerate(src._coeffs):
                    j = base + i
                    if j < n:
                        out[j] += c
        else:
            out = np.zeros(n, dtype=np.uint64)
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
        if self.ring.is_exact:
            return LaurentSeries(self.offset, [c * x for x in self._coeffs], self.ring)
        cv = np.uint64(self.ring.reduce(c))
        return LaurentSeries(self.offset, self._coeffs * cv, self.ring)

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
        n = self.trunc - v
        if self.ring.is_exact:
            unit = list(self._coeffs[v - self.offset:])
            inv = _newton_inverse_exact(unit, n)
        else:
            unit = self._coeffs[v - self.offset:]
            inv = _newton_inverse_mod64(unit, n)
        return LaurentSeries(-v, inv, self.ring)

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
        n = len(self)
        if self.ring.is_exact:
            out = [0] * (n * d)
            for i, c in enumerate(self._coeffs):
                out[i * d] = c
        else:
            out = np.zeros(n * d, dtype=np.uint64)
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
        return LaurentSeries(self.offset, self.coeffs(), ring)


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
    dtype = object if a.ring.is_exact else np.uint64

    def window(s: LaurentSeries) -> np.ndarray:
        pad = np.zeros(min(s.offset, hi) - lo, dtype=dtype)
        body = np.asarray(s._coeffs[:max(0, hi - s.offset)], dtype=dtype)
        return np.concatenate((pad, body))

    wa, wb = window(a), window(b)
    diff = np.flatnonzero(wa != wb)
    if diff.size == 0:
        return None
    i = int(diff[0])
    return lo + i, int(wa[i]), int(wb[i])


def agree(a: LaurentSeries, b: LaurentSeries, through: int | None = None) -> bool:
    return first_difference(a, b, through) is None


# -- convolution kernels -----------------------------------------------------


def _conv_mod64(a: np.ndarray, b: np.ndarray, out_len: int) -> np.ndarray:
    """Truncated convolution in wrapping uint64 (exact mod 2^64)."""
    a = a[:out_len]
    b = b[:out_len]
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
    conv = np.convolve(a, b)[:out_len]
    if conv.size < out_len:
        conv = np.concatenate([conv, np.zeros(out_len - conv.size, dtype=np.uint64)])
    return conv


def _conv_exact(a: Sequence[int], b: Sequence[int], out_len: int) -> list[int]:
    a = list(a[:out_len])
    b = list(b[:out_len])
    nza = [i for i, c in enumerate(a) if c]
    nzb = [i for i, c in enumerate(b) if c]
    if not nza or not nzb:
        return [0] * out_len
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
        return out
    return _kronecker_signed(a, b, out_len)


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


def _newton_inverse_mod64(a: np.ndarray, n: int) -> np.ndarray:
    """Inverse of a unit power series mod q^n over wrapping uint64."""
    x = np.array([_word_inverse(int(a[0]))], dtype=np.uint64)
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        t = _conv_mod64(a[:prec], x, prec)
        t = np.zeros(prec, dtype=np.uint64) - t
        t[0:1] += np.uint64(2)
        x = _conv_mod64(x, t, prec)
    return x


def _newton_inverse_exact(a: list[int], n: int) -> list[int]:
    lead = a[0]  # guaranteed +-1 by the caller
    x = [lead]
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        t = _conv_exact(a[:prec], x, prec)
        t = [-c for c in t]
        t[0] += 2
        x = _conv_exact(x, t, prec)
    return x


# -- classic q-series building blocks ----------------------------------------


def pentagonal_series(ring: Ring, T: int) -> LaurentSeries:
    """Euler's expansion of prod_{i>=1}(1 - q^i): +-1 at generalized
    pentagonal exponents k(3k-1)/2, zero elsewhere."""
    if T < 1:
        raise InsufficientTruncation("need T >= 1")
    c = [0] * T
    c[0] = 1
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 >= T and e2 >= T:
            break
        s = -1 if k % 2 else 1
        if e1 < T:
            c[e1] = s
        if e2 < T:
            c[e2] = s
        k += 1
    return LaurentSeries(0, c, ring)


def euler_factor(a: int, m: int, e: int, ring: Ring, T: int) -> LaurentSeries:
    """Expansion of prod_{i>=0}(1 - q^(a+m*i))^e through q^(T-1).

    The full Euler product (a == m) goes through the pentagonal expansion,
    raised to the power e in q before q -> q^m: by Miller's recurrence over
    Z, by binary powering mod 2^k (where the recurrence's division by k is
    unavailable).  General (q^a; q^m)-type factors multiply the sparse
    binomials directly.
    """
    if a < 1 or m < 1:
        raise ValueError("euler_factor needs a >= 1 and m >= 1")
    if T < 1:
        raise InsufficientTruncation("need T >= 1")
    if a == m:
        base = pentagonal_series(ring, (T - 1) // m + 1)
        if ring.is_exact and e not in (0, 1):
            base = LaurentSeries(0, _miller_power(base._coeffs, e), ring)
        elif e != 1:
            base = base.pow(e)
        return base.substitute_qpow(m).truncate(T)
    base = _binomial_product(a, m, ring, T)
    return base.pow(e) if e != 1 else base


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


def _binomial_product(a: int, m: int, ring: Ring, T: int) -> LaurentSeries:
    if ring.is_exact:
        out = [0] * T
        out[0] = 1
        c = a
        while c < T:
            tail = [x - y for x, y in zip(out[c:], out[:T - c])]
            out[c:] = tail
            c += m
    else:
        out = np.zeros(T, dtype=np.uint64)
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
