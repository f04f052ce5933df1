"""Eta-quotient style products q^s * prod f_d^{r_d} and the partition
generating functions built from them.

f_d denotes the infinite product (q^d; q^d) = prod_{i>=1}(1 - q^{d*i}).
Quotients are stored without the q^{d/24} eta prefactor convention; explicit
powers of q go in ``qshift``, so all exponents stay integral.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Sequence

from .series import (InsufficientTruncation, LaurentSeries, Ring, _Record,
                     euler_factor, phi_power, theta_powers)


class EtaQuotient(_Record):
    """Level ``M``, map divisor -> exponent, and an explicit q-power shift."""

    M: int
    exponents: dict[int, int]
    qshift: int = 0

    def __post_init__(self):
        # operator.index: a float or a Fraction is a TypeError, never truncated
        M, qshift = operator.index(self.M), operator.index(self.qshift)
        if M < 1:
            raise ValueError("level M must be positive")
        cleaned = {}
        for d, r in sorted(self.exponents.items()):
            d, r = operator.index(d), operator.index(r)
            if d < 1 or M % d != 0:
                raise ValueError(f"divisor {d} does not divide level {M}")
            if r != 0:
                cleaned[d] = r
        self.__dict__.update(M=M, exponents=cleaned, qshift=qshift)

    def __str__(self) -> str:
        return format_eta_quotient(self)


_TOKEN_Q = re.compile(r"^q\^(-?\d+)$")
_TOKEN_F = re.compile(r"^f(\d+)(?:\^(-?\d+))?$")


def parse_eta_quotient(text: str) -> EtaQuotient:
    """Parse the textual grammar ``q^-17 * f1^79 * f2^-38`` (whitespace-free
    or not).  Omitted exponents default to 1; repeated divisors accumulate.

    The level is the lcm of the divisors present.
    """
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty eta-quotient expression")
    qshift = 0
    exponents: dict[int, int] = {}
    pos = 0
    for piece in compact.split("*"):
        if not piece:
            raise ValueError(f"empty factor at position {pos} in {text!r}")
        if mq := _TOKEN_Q.match(piece):
            qshift += int(mq.group(1))
        elif mf := _TOKEN_F.match(piece):
            d = int(mf.group(1))
            if d < 1:
                raise ValueError(f"divisor must be positive in {piece!r} "
                                 f"at position {pos} in {text!r}")
            e = int(mf.group(2)) if mf.group(2) is not None else 1
            exponents[d] = exponents.get(d, 0) + e
        else:
            raise ValueError(f"unrecognized factor {piece!r} at position {pos} "
                             f"in {text!r} (expected q^INT or fD^INT)")
        pos += len(piece) + 1
    return EtaQuotient(math.lcm(1, *exponents), exponents, qshift)


def format_eta_quotient(eq: EtaQuotient) -> str:
    parts = []
    if eq.qshift != 0:
        parts.append(f"q^{eq.qshift}")
    for d, r in sorted(eq.exponents.items()):
        parts.append(f"f{d}^{r}")
    if not parts:
        return "f1^0"
    return " * ".join(parts)


def expand(eq: EtaQuotient, ring: Ring, T: int) -> LaurentSeries:
    """Expand q^qshift * prod f_d^{r_d} with truncation T (exclusive).

    In increasing divisor order, each f_{2d}^(-s) whose f_d also appears
    is taken with f_d^(2s) as phi(-q^d)^s (see ``phi_power``), leaving
    f_d^(r_d - 2s); a divisor joins at most one pair, so the factor count
    never grows.  A pair is skipped when both exponents are positive
    (s < 0 < r_d): f_1 * f_2^5 would become phi(-q)^(-5) * f_1^11, whose
    exact coefficients grow exponentially only to cancel.

    The factors multiply in decreasing d, a pair before f_d at equal d.
    Both are series in q^d, which an exact product takes compressed (see
    ``series._conv_exact``), so the large-d factors combine before a small
    d spreads the product out: f_4 * phi(-q^4), then f_8 * phi(-q^2) *
    f_2, in the witness's prefactor and hauptmodul.  Every factor has
    valuation 0 and unit leading coefficient, so the result's offset is
    exactly the q-shift.
    """
    if T <= eq.qshift:
        raise InsufficientTruncation(
            f"T={T} must exceed the q-shift {eq.qshift}")
    n = T - eq.qshift
    rest = dict(eq.exponents)
    factors = []  # (d, a series in q^d)
    for d in sorted(rest):
        s = -rest.get(2 * d, 0)
        if s and rest[d] and (s > 0 or rest[d] < 0):
            factors.append((d, phi_power(d, s, ring, n)))
            rest[d] -= 2 * s
            rest[2 * d] = 0
    factors += [(d, euler_factor(d, r, ring, n)) for d, r in sorted(rest.items()) if r]
    factors.sort(key=lambda f: -f[0])
    acc = factors[0][1] if factors else LaurentSeries.one(ring, n)
    for _, factor in factors[1:]:
        acc = acc.mul(factor)
    return acc.shift(eq.qshift)


def overpartition_eta_quotient(t: int) -> EtaQuotient:
    """The quotient f_2^t / f_1^{2t} generating t-colored overpartitions."""
    if t < 1:
        raise ValueError("color count t must be >= 1")
    return EtaQuotient(2, {1: -2 * t, 2: t})


def overpartition_gf(t: int, ring: Ring, T: int) -> LaurentSeries:
    """Generating function of t-colored overpartitions through q^(T-1):
    phi(-q)^(-t), by ``expand``'s pair rule."""
    return expand(overpartition_eta_quotient(t), ring, T)


def overpartition_residues(ts: Sequence[int], ring: Ring, m: int, n_max: int):
    """For each t in ``ts``, in order, a table of m rows of n_max + 1
    entries read from one expansion: row j is p-bar_{-t}(m*n + j), a
    read-only strided view mod 2^k, a list over Z.

    The expansions are phi(-q)^(-t) = f_2^t / f_1^(2t) by
    ``theta_powers``, so mod 2^k the t share one stream of X-powers.  The tables
    come as an iterator that builds each as it is read."""
    if min(ts, default=1) < 1:
        raise ValueError("color count t must be >= 1")
    series = theta_powers(1, 1, [-t for t in ts], 1, ring, m * (n_max + 1))
    return map(lambda s: tuple(s._coeffs[j::m] for j in range(m)), series)


def colored_partition_gf(t: int, ring: Ring, T: int) -> LaurentSeries:
    """Generating function of t-colored partitions, 1 / f_1^t."""
    if t < 1:
        raise ValueError("color count t must be >= 1")
    return euler_factor(1, -t, ring, T)
