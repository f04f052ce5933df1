"""Truncated Laurent series arithmetic over exact integers and Z/2^k.

A series is stored as a coefficient window [offset, trunc): exponents below
``offset`` are exactly zero, exponents at or above ``trunc`` are unknown.
Every operation computes the tightest truncation it can justify and refuses
to report coefficients beyond it.

Two coefficient rings are supported: exact arbitrary-precision integers, and
integers modulo 2^k for 1 <= k <= 64.  Over Z a series keeps a list of
Python ints; mod 2^k it keeps canonical residues as a read-only view of
uint64 words: copied and checked by the public constructor, kept as built
by the operations.  Only :class:`Ring`, the kernels and ``theta_powers``
know which ring they serve.  The mod-2^k kernels work on one big integer
whose byte-aligned slots hold one coefficient each, wide enough that no
carry crosses a slot: packing and unpacking are ``bytearray`` extended-slice
copies, and a product, sum or scaling is one CPython multiply or add.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Sequence
from itertools import compress, count, repeat

MAX_MOD2K_BITS = 64

# The size budget: it bounds the values of --T and --n-max, the terms
# ``expand`` and ``extract`` read, a family instance's top exponent and a
# witness's base series.  Other expansions grow from the flags past it: at
# their caps the theorem and conjecture checks read 8*(n_max+1) = 800,008
# terms, eq1 8T-5, and the families' base-7 induction step 49T+13.
DEFAULT_BUDGET = 100_000


class RingMismatch(ValueError):
    """Operands live in different coefficient rings."""


class NonInvertibleSeries(ValueError):
    """Leading coefficient is not a unit, or the series is zero to truncation."""


class InsufficientTruncation(ValueError):
    """A coefficient beyond the known window was requested."""


class _Record:
    """An immutable record that behaves as a frozen dataclass, written out so
    that start-up need not import ``inspect``.  A subclass's annotated names
    are its fields, in order; a class attribute of that name is a default,
    and ``__post_init__`` validates the fields once they are set."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        named = dict(zip(self._fields, args))
        values = {**self._defaults, **named, **kwargs}
        if (len(args) > len(self._fields) or named.keys() & kwargs.keys()
                or values.keys() != set(self._fields)):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        self.__dict__.update((f, values[f]) for f in self._fields)
        self.__post_init__()

    def __post_init__(self):
        pass

    # __dict__ holds exactly the fields, in order
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot change field {name!r}")

    __delattr__ = __setattr__


class Ring(_Record):
    """Coefficient ring: exact integers when ``k`` is None, else Z/2^k."""

    k: int | None = None

    def __post_init__(self):
        if self.k is not None:
            self.__dict__["k"] = k = operator.index(self.k)
            if not 1 <= k <= MAX_MOD2K_BITS:
                raise ValueError(f"mod-2^k ring needs 1 <= k <= {MAX_MOD2K_BITS}, got {k}")

    @property
    def is_exact(self) -> bool:
        return self.k is None

    def coerce(self, coeffs):
        """``coeffs`` as new storage of canonical ring elements: a list of
        Python ints over Z, a read-only uint64 word view of residues below
        2^k mod 2^k.  Elements go through ``operator.index``, so a float,
        a Fraction or a string is a TypeError, never a truncation."""
        if self.k is None:
            return list(map(operator.index, coeffs))
        if not (isinstance(coeffs, (array, memoryview)) and memoryview(coeffs).format == "Q"):
            coeffs = array("Q", [operator.index(c) & (1 << 64) - 1 for c in coeffs])
        return _words(bytes(coeffs), 8, len(coeffs), self.k)

    def is_unit(self, c: int) -> bool:
        """Units we invert: +-1 exactly; any odd residue mod 2^k."""
        return c in (1, -1) if self.k is None else c % 2 == 1

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
        if len(self._coeffs) == 0:
            raise ValueError("series needs at least one represented coefficient")
        self.offset = operator.index(offset)
        self.ring = ring

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _built(cls, offset: int, data, ring: Ring) -> "LaurentSeries":
        """A series kept on the storage an operation built for it."""
        s = cls.__new__(cls)
        s.offset, s._coeffs, s.ring = offset, data, ring
        return s

    @classmethod
    def one(cls, ring: Ring, trunc: int) -> "LaurentSeries":
        if trunc < 1:
            raise InsufficientTruncation("constant 1 needs trunc >= 1")
        return cls._built(0, _small([1] + [0] * (trunc - 1), ring.k), ring)

    # -- inspection -----------------------------------------------------------

    @property
    def trunc(self) -> int:
        return self.offset + len(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def coeffs(self) -> list[int]:
        return list(self._coeffs)

    def coefficient(self, e: int) -> int:
        """Coefficient of q^e; zero below the window, error at/past truncation."""
        if e >= self.trunc:
            raise InsufficientTruncation(
                f"coefficient of q^{e} is beyond truncation {self.trunc}")
        if e < self.offset:
            return 0
        return self._coeffs[e - self.offset]

    def valuation(self) -> int | None:
        """Exponent of the first nonzero coefficient, or None if zero to truncation."""
        return next(compress(count(self.offset), self._coeffs), None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.ring == other.ring and self.offset == other.offset
                and self._coeffs == other._coeffs)

    __hash__ = None

    def __reduce__(self):  # a memoryview does not pickle; its coefficients do
        return LaurentSeries, (self.offset, self.coeffs(), self.ring)

    def __repr__(self) -> str:
        return (f"LaurentSeries(offset={self.offset}, trunc={self.trunc}, "
                f"ring={self.ring})")

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs()):
            if c == 0:
                continue
            if len(terms) == 8:  # a ninth nonzero term is left out
                terms.append("...")
                break
            e = self.offset + i
            if e == 0:
                terms.append(int_text(c))
            elif e == 1:
                terms.append(f"{int_text(c)}*q")
            else:
                terms.append(f"{int_text(c)}*q^{e}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^{self.trunc})"

    # -- arithmetic -----------------------------------------------------------

    def _check_ring(self, other: "LaurentSeries"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def mul(self, other: "LaurentSeries") -> "LaurentSeries":
        """Product; trunc = min(a.trunc + b.offset, b.trunc + a.offset)."""
        self._check_ring(other)
        data = _conv(self._coeffs, other._coeffs, min(len(self), len(other)), self.ring.k)
        return LaurentSeries._built(self.offset + other.offset, data, self.ring)

    __mul__ = mul

    def _plus(self, c: int, other: "LaurentSeries") -> "LaurentSeries":
        """self + c * other on [min(offsets), min(truncs))."""
        self._check_ring(other)
        offset = min(self.offset, other.offset)
        parts = [(1, self.offset - offset, self._coeffs),
                 (c, other.offset - offset, other._coeffs)]
        data = _combination(parts, min(self.trunc, other.trunc) - offset, self.ring.k)
        return LaurentSeries._built(offset, data, self.ring)

    def add(self, other: "LaurentSeries") -> "LaurentSeries":
        return self._plus(1, other)

    __add__ = add

    def neg(self) -> "LaurentSeries":
        return self.scale(-1)

    __neg__ = neg

    def sub(self, other: "LaurentSeries") -> "LaurentSeries":
        return self._plus(-1, other)

    __sub__ = sub

    def scale(self, c: int) -> "LaurentSeries":
        """Multiply every coefficient by the scalar c."""
        data = _combination([(operator.index(c), 0, self._coeffs)], len(self), self.ring.k)
        return LaurentSeries._built(self.offset, data, self.ring)

    def shift(self, e: int) -> "LaurentSeries":
        """Multiply by q^e (relabels the exponent window)."""
        return LaurentSeries._built(self.offset + operator.index(e), self._coeffs, self.ring)

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
        ring, k = self.ring, self.ring.k
        x, two = ring.coerce([ring.unit_inverse(lead)]), ring.coerce([2])
        prec = 1
        while prec < len(a):
            prec = min(2 * prec, len(a))
            t = _combination([(1, 0, two), (-1, 0, _conv(a[:prec], x, prec, k))], prec, k)
            x = _conv(x, t, prec, k)
        return LaurentSeries._built(-v, x, ring)

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
        return LaurentSeries._built(self.offset * d, _strided(self._coeffs, self.ring.k, 0, d),
                                    self.ring)

    def truncate(self, trunc: int) -> "LaurentSeries":
        """Restrict the window to exponents below ``trunc``."""
        if trunc >= self.trunc:
            return self
        if trunc <= self.offset:
            raise InsufficientTruncation("truncation would leave an empty window")
        data = _strided(self._coeffs[:trunc - self.offset], self.ring.k)
        return LaurentSeries._built(self.offset, data, self.ring)

    def to_ring(self, ring: Ring) -> "LaurentSeries":
        """Reinterpret coefficients in another ring (exact -> mod-2^k reduction)."""
        return LaurentSeries(self.offset, self._coeffs, ring)


def int_text(n: int) -> str:
    """n in decimal, exactly, at any size: ``str`` refuses an int of more
    digits than ``sys.get_int_max_str_digits()`` (4,300 by default), and
    ``Decimal`` has no such limit.  It is imported only for such an int."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(n))


def record_text(kind: str, fields: dict, volatile: dict | None = None) -> tuple[str, str]:
    """A record line, ``kind`` then `` key=value`` for each field in order, as
    its stable text and the tail of its ``volatile`` fields, which --bless and
    --check leave out.  Only this spells a value: a str as given, None as "-",
    a bool as true/false, a float to one decimal and an int by ``int_text``."""
    def text(v):
        return (v if type(v) is str else "-" if v is None else "true" if v is True
                else "false" if v is False else f"{v:.1f}" if type(v) is float else int_text(v))
    stable = kind + "".join([f" {k}={text(v)}" for k, v in fields.items()])
    return stable, record_text("", volatile)[0] if volatile else ""


def first_difference(a: LaurentSeries, b: LaurentSeries,
                     through: int | None = None):
    """First exponent where two series disagree on their common known window.

    Returns None when they agree, else (exponent, a_coeff, b_coeff): the
    valuation of a - b, whose window ``add`` sets to [min(offsets),
    min(truncs)), optionally capped by ``through`` (exclusive).  Exponents
    below either offset count as zero.
    """
    diff = a.sub(b) if through is None else a.sub(b).truncate(through)
    e = diff.valuation()
    return None if e is None else (e, a.coefficient(e), b.coefficient(e))


def agree(a: LaurentSeries, b: LaurentSeries, through: int | None = None) -> bool:
    return first_difference(a, b, through) is None


# -- kernels: convolution and series storage ---------------------------------


def _conv(a, b, out_len: int, k: int | None):
    """Storage of the truncated convolution over Z (k None) or mod 2^k."""
    return (_conv_exact(a, b, out_len) if k is None
            else _words(bytes(_conv_mod2k(a, b, out_len, k)), 8, out_len, k))


def _pack(words, w: int, k: int) -> int:
    """The int whose w-byte slots hold the low k bits of the uint64 words."""
    return int.from_bytes(_reslot(bytes(words), 8, w, len(words), k), "little")


def _words(raw, w: int, n: int, k: int) -> memoryview:
    """Storage of the low k bits of raw's first n little-endian w-byte slots."""
    return memoryview(_reslot(raw, w, 8, n, k)).cast("Q").toreadonly()


def _small(c: list[int], k: int | None):
    """Storage of ints below 2^63 in absolute value; mod 2^k their two's
    complement words cut to k bits, which is exact as 2^k divides 2^64."""
    return c if k is None else _words(array("q", c).tobytes(), 8, len(c), k)


def _strided(src, k: int | None, start: int = 0, step: int = 1):
    """Fresh storage of src's coefficients at slots start, start + step, ...
    and zeros elsewhere: no series keeps a larger buffer alive by a slice."""
    n = start + len(src) * step
    out = [0] * n if k is None else memoryview(bytearray(8 * n)).cast("Q")
    out[start::step] = src
    return out if k is None else out.toreadonly()


def _combination(parts, n: int, k: int | None):
    """Storage of n coefficients, the sum of c * x over the (c, base, x) in
    parts, x placed from slot base on and cut at slot n: c * x, or x + c * y.
    Mod 2^k either is below 2^(2k) in every slot, so 2k-bit slots hold it."""
    if k is None:
        out = [0] * n
        for c, base, x in parts:  # map stops at slot n, where the slice ends
            x = x if c == 1 else [c * v for v in x]
            out[base:base + len(x)] = map(operator.add, out[base:base + len(x)], x)
        return out
    w, low = (2 * k + 7) // 8, (1 << k) - 1
    total = sum(_pack(x[:n - base], w, k) * (c & low) << 8 * w * base
                for c, base, x in parts if base < n)
    return _words(total.to_bytes(w * n, "little"), w, n, k)


def _conv_mod2k(a, b, out_len: int, k: int) -> array:
    """Truncated convolution of uint64 words, correct mod 2^k; the result's
    words are the low 64 bits of each slot, not masked to k bits.

    Kronecker substitution: a slot sums at most n products below 2^(2k), so
    in w >= (2k + bitlen(n)) / 8 bytes no carry crosses a slot and one
    big-integer product is exact.  When one operand has fewer than
    out_len / 16 nonzero terms, the product is instead the other operand's
    packing shifted once per nonzero term, on slots that run backwards (see
    ``_gauss_power_mod2k``), and multiplied once per distinct coefficient.
    """
    a, b = a[:out_len], b[:out_len]
    nnz = [len(x) - x.tolist().count(0) for x in (a, b)]
    if nnz[1] < nnz[0]:
        a, b = b, a
    sparse = min(nnz) * 16 < out_len
    w = (2 * k + (min(nnz) if sparse else min(len(a), len(b))).bit_length() + 7) // 8

    if sparse:
        rev = _pack(b[::-1], w, k) << 8 * w * (out_len - len(b))
        low, scaled = (1 << k) - 1, {}  # scaled[c]: the shifts that c multiplies
        for i in reversed(list(compress(count(), a))):
            scaled[a[i] & low] = scaled.get(a[i] & low, 0) + (rev >> 8 * w * i)
        prod = sum(c * x for c, x in scaled.items())
    else:
        prod = _pack(a, w, k) * _pack(b, w, k)
    raw = prod.to_bytes(max(w * out_len, (prod.bit_length() + 7) // 8), "little")
    words = array("Q", _reslot(raw, w, 8, out_len, min(8 * w, 64)))
    if sparse:
        words.reverse()
    return words


# _LOW_BITS[p][b] is the byte b reduced mod 2^p
_LOW_BITS = [bytes(b & ((1 << p) - 1) for b in range(256)) for p in range(8)]


def _reslot(raw: bytes, src: int, dst: int, n: int, k: int) -> bytearray:
    """The low k bits of each of the first n little-endian src-byte slots
    of raw, as dst-byte slots: one extended-slice copy per byte, the top
    byte masked by a table."""
    out = bytearray(dst * n)
    for i in range(-(-k // 8)):
        col = raw[i:src * n:src]
        out[i::dst] = col if 8 * i + 8 <= k else col.translate(_LOW_BITS[k % 8])
    return out


def _repeat(value: int, w: int, n: int) -> int:
    """The int whose n w-byte slots each hold value."""
    return int.from_bytes(value.to_bytes(w, "little") * n, "little")


def _conv_exact(a: list[int], b: list[int], out_len: int) -> list[int]:
    """Truncated convolution over Z of lists of Python ints.  When every
    nonzero term of both sits at a multiple of g > 1, the product is taken
    on the series in q^g and spread back."""
    a = a[:out_len]
    b = b[:out_len]
    nza = [i for i, c in enumerate(a) if c]
    nzb = [i for i, c in enumerate(b) if c]
    if not nza or not nzb:
        return [0] * out_len
    g = math.gcd(*nza, *nzb)
    if g > 1:
        out = [0] * out_len
        out[::g] = _conv_exact(a[::g], b[::g], -(-out_len // g))
        return out
    if len(nza) > len(nzb):
        a, b = b, a
        nza, nzb = nzb, nza
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    w = (bound.bit_length() + 8) // 8  # |slot| <= bound < 2^(8w-1)
    # CPython multiplies two X-byte packings in about X^1.5 steps
    # (Karatsuba); a term product costs about 32 of them, plus (w/32)^2
    # for wide coefficients, whose own multiply is quadratic in w (measured
    # on the witness and dissection products, CPython 3.11 on a Xeon).  So
    # a few terms against wide coefficients, as in the dissections, go term
    # by term; dense factors of n terms in narrow slots pack while
    # n >= w^3/1024, and the witness left side from T = 1500 (w = 180) on.
    if (len(nza) * len(nzb) * (32 + (w / 32) ** 2)) ** 2 >= (w * out_len) ** 3:
        return _kronecker_signed(a, b, out_len, w)
    out = [0] * out_len
    for i in nza:
        ai = a[i]
        m = out_len - i
        for j in nzb:
            if j >= m:
                break
            out[i + j] += ai * b[j]
    return out


def _kronecker_signed(a: list[int], b: list[int], out_len: int, w: int) -> list[int]:
    """Exact polynomial product by one big-integer product (Kronecker
    substitution) in w-byte slots, where every product coefficient is below
    2^(8w-1) in absolute value.  Each operand packs in one pass as slots of
    c + bias, bias = 2^(8w-1), less the bias in every slot; a bias per slot
    added to the product makes every slot of the low out_len slots decode
    with no borrow."""
    bias = 1 << (8 * w - 1)

    def pack(cs: list[int]) -> int:
        raw = b"".join((c + bias).to_bytes(w, "little") for c in cs)
        return int.from_bytes(raw, "little") - _repeat(bias, w, len(cs))

    prod = pack(a) * pack(b) + _repeat(bias, w, out_len)
    low = prod & ((1 << (8 * w * out_len)) - 1)
    raw = low.to_bytes(w * out_len, "little")
    return [int.from_bytes(raw[i:i + w], "little") - bias
            for i in range(0, w * out_len, w)]


# -- classic q-series building blocks ----------------------------------------


def euler_factor(m: int, e: int, ring: Ring, T: int) -> LaurentSeries:
    """Expansion of f_m^e = prod_{i>=1}(1 - q^(m*i))^e through q^(T-1):
    f(-q, -q^2)^e after q -> q^m, by ``theta_power``."""
    return theta_power(1, 2, e, m, ring, T)


def phi_power(d: int, e: int, ring: Ring, T: int) -> LaurentSeries:
    """Expansion of phi(-q^d)^e = (f_d^2 / f_{2d})^e through q^(T-1).

    Gauss's identity phi(-q) = f(-q, -q) = f_1^2 / f_2 = 1 + 2X, X =
    sum_{n>=1} (-1)^n q^(n^2), has about sqrt(T) nonzero terms; it is
    raised to the power e by ``theta_power``, with no inverse and no
    dense product.
    """
    return theta_power(1, 1, e, d, ring, T)


def theta_power(x: int, y: int, e: int, d: int, ring: Ring, T: int) -> LaurentSeries:
    """f(-q^x, -q^y)^e through q^(T-1) after q -> q^d: ``theta_powers``
    with the one exponent e."""
    return next(theta_powers(x, y, (e,), d, ring, T))


def theta_powers(x: int, y: int, es: Sequence[int], d: int, ring: Ring, T: int):
    """f(-q^x, -q^y)^e through q^(T-1) after q -> q^d for each e in ``es``,
    in order, as an iterator that builds each series as it is read.

    Each power is taken at length ceil(T/d) before the substitution: mod
    2^k for phi = f(-q, -q) as sum_{i<k} C(e, i) 2^i X^i in the sparse X,
    every e sharing one stream of powers of X (``_gauss_power_mod2k``);
    over Z by Miller's recurrence on the sparse theta series, e = -1
    included; otherwise by binary powering, since the recurrence's division
    by k is unavailable mod 2^k.
    """
    if d < 1:
        raise ValueError(f"theta_power needs d >= 1, got {d}")
    if T < 1:
        raise InsufficientTruncation("need T >= 1")
    n = (T - 1) // d + 1
    if not ring.is_exact and (x, y) == (1, 1):
        powers = map(LaurentSeries._built, repeat(0), _gauss_power_mod2k(es, ring.k, n),
                     repeat(ring))
    else:
        base = theta_f(x, y, n, ring)
        powers = map(lambda e: base if e == 1 else
                     LaurentSeries._built(0, _miller_power(base._coeffs, e), ring)
                     if ring.is_exact else base.pow(e), es)
    # map, not a generator expression: no series outlives its reader
    return map(lambda p: p.substitute_qpow(d).truncate(T), powers)


def shifted_sum(terms: Sequence[tuple[int, int, LaurentSeries]], ring: Ring,
                T: int) -> LaurentSeries:
    """sum of c * q^s * x over the (c, s, x) in ``terms``, through q^(T-1).
    A term that starts at or past q^T adds nothing; one whose x stops before
    q^(T-1-s) raises, so the sum is never silently shorter than T."""
    acc = LaurentSeries._built(0, _small([0] * T, ring.k), ring)
    for c, s, x in terms:
        if s + x.offset >= T:
            continue
        if x.trunc + s < T:
            raise InsufficientTruncation(f"q^{s} times a series known below "
                                         f"q^{x.trunc} does not reach q^{T - 1}")
        acc = acc._plus(c, x.shift(s))
    return acc


def _miller_power(p: Sequence[int], e: int) -> list[int]:
    """p^e over Z for p[0] == 1, to len(p) terms, by J.C.P. Miller's
    recurrence k*a_k = sum_{i=1..k} ((e+1)*i - k)*p_i*a_{k-i} (Knuth, TAOCP
    vol. 2, 4.7): O(len(p) * nnz(p)) small-int steps, for any sign or size
    of e, with no inverse and no dense product."""
    a, terms, at = [1] + [0] * (len(p) - 1), [], [i for i in range(1, len(p)) if p[i]]
    for i, end in zip(at, at[1:] + [len(p)]):  # p_j, j <= i, act on a_i..a_(end-1)
        terms.append((i, (e + 1) * i * p[i], p[i]))
        for k in range(i, end):
            a[k] = sum([(w - k * c) * a[k - j] for j, w, c in terms]) // k
    return a


def _divide_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """num / den over Z to len(num) terms, for den[0] == 1: a_k = num_k -
    sum_{i>=1} den_i * a_(k-i), the nonzero den_i grouped by value.  A theta
    den has about sqrt(n) of them, all +-1 (+-2 when x = y), so a theta
    quotient takes O(n * sqrt(n)) additions, with no multiply or division."""
    if den[0] != 1:
        raise NonInvertibleSeries(f"denominator's constant term {den[0]} is not 1")
    a, groups, at = list(num), {}, [i for i in range(1, len(num)) if den[i]]
    for i, end in zip(at, at[1:] + [len(num)]):  # den_j, j <= i, act on a_i..a_(end-1)
        groups.setdefault(den[i], []).append(i)
        for k in range(i, end):
            for c, ix in groups.items():
                s = sum([a[k - j] for j in ix])
                a[k] -= s if c == 1 else c * s
    return a


def _gauss_power_mod2k(es: Sequence[int], k: int, n: int):
    """(1 + 2X)^e mod 2^k to n terms for each e in es, in order, as uint64
    words: the sum of C(e, i) 2^i X^i over i < k and i <= e.  (1 +
    2X)^(2^(k-1)) == 1 (mod 2^k), so e is first reduced mod 2^(k-1), and
    C(e, i) = 0 past e.

    One call steps X^1, X^2, ... once, up to the last power that some e
    reads with a nonzero C(e, i) 2^i mod 2^k: X^1 is written slot by slot,
    and each later power is the one before times X, sqrt(n) shifted adds.
    It keeps X^i mod 2^(k-i), all that its term reads, in whole-byte
    slots, and then builds each e's words in turn, widening the powers
    that e reads.  The words are built as they are read, so a caller that
    drops each holds one at a time.  What the call holds does not grow
    with the number of exponents, beside their k coefficients each: it
    peaks (tracemalloc) under 30 bytes a term at k = 8, 50 at k = 16 and
    360 at k = 64, where X^1 .. X^63 alone take 280.

    The narrow slots run backwards, q^0 in the top one, so a product by
    q^(r^2) is a right shift that drops what falls past q^(n-1); the
    largest squares go first, so the sums grow from their shortest terms.
    While it is stepped, X^i is kept mod 2^K in w-byte slots, K = 8w - g -
    1 >= k - i, a byte narrower whenever k - i allows.  X^i = P - N, the
    sums of X^(i-1)'s shifts over the even and the odd r.  A slot of either
    sums fewer than 2^g residues below 2^K, so with a bias of 2^(K+g) per
    slot, P + bias - N borrows across no slot, and an AND with 2^K - 1 per
    slot drops the bias and reduces mod 2^K.  A wide slot holds 1 +
    sum_{1<=i<k} C(e, i) 2^i X^i with the coefficient below 2^k and X^i
    widened mod 2^(k-i): below 2^(2k).
    """
    roots = range(math.isqrt(n - 1), 0, -1)
    g = len(roots).bit_length()
    wide = (2 * k + 7) // 8
    low = (1 << k) - 1
    terms = []  # per exponent: C(e, i) 2^i mod 2^k for i < k, i <= e
    for e in es:
        e %= 1 << (k - 1)
        terms.append([math.comb(e, i) << i & low for i in range(min(k, e + 1))])
    powers = []  # X^1 .. X^(top-1), each X^i mod 2^(k-i) in (k - i + 7) // 8-byte slots
    w = (k + g + 7) // 8
    mask_w, top = 0, max((i + 1 for cs in terms for i, c in enumerate(cs) if c), default=1)
    for i in range(1, top):
        if i == 1:  # X, slot by slot
            power = bytearray(w * n)
            for r in roots:
                c = (-1) ** r & (1 << 8 * w - g - 1) - 1
                power[w * (n - 1 - r * r):w * (n - r * r)] = c.to_bytes(w, "little")
            power = int.from_bytes(power, "little")
        else:  # power <- power * X
            if mask_w != w:
                mask_w, K = w, 8 * w - g - 1
                mask, bias = _repeat((1 << K) - 1, w, n), _repeat(1 << (K + g), w, n)
            signed = [0, 0]
            for r in roots:
                signed[r & 1] += power >> 8 * w * r * r
            power = (signed[0] + bias - signed[1]) & mask
        raw = power.to_bytes(w * n, "little")
        powers.append(_reslot(raw, w, (k - i + 7) // 8, n, k - i))
        if i + 1 < top and (k - i + g + 7) // 8 < w:  # X^(i+1) fits a byte less
            w -= 1
            power = int.from_bytes(_reslot(raw, w + 1, w, n, 8 * w - g - 1), "little")
        raw = None
    power = signed = mask = bias = None
    for cs in terms:
        acc = 1 << 8 * wide * (n - 1)  # the constant 1 at q^0
        for i, (c, x) in enumerate(zip(cs[1:], powers), 1):
            if c:
                acc += c * int.from_bytes(_reslot(x, (k - i + 7) // 8, wide, n, k - i),
                                          "little")
        words = array("Q", _reslot(acc.to_bytes(wide * n, "little"), wide, 8, n, k))
        del acc
        words.reverse()
        yield memoryview(words).toreadonly()
        del words  # not kept while the next words are built


def theta_f(x: int, y: int, T: int, ring: Ring = EXACT) -> LaurentSeries:
    """Ramanujan theta sum_{n in Z} (-1)^n q^(x*n(n+1)/2 + y*n(n-1)/2)."""
    if x < 1 or y < 1:
        raise ValueError("theta_f needs x >= 1 and y >= 1")
    if T < 1:
        raise InsufficientTruncation("need T >= 1")
    c = [0] * T
    for n in range(-math.isqrt(T) - 1, math.isqrt(T) + 2):  # exponent >= n^2
        e = (x * n * (n + 1) + y * n * (n - 1)) // 2
        if e < T:
            c[e] += 1 - 2 * (n & 1)
    return LaurentSeries._built(0, _small(c, ring.k), ring)
