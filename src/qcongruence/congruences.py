"""Congruence claims p-bar_{-t}(m*n + j) == 0 (mod 2^k) and their checkers.

The built-in claim tables cover the four proved theorems for t = 5, 7, 11,
13 (24 congruences on the progressions 8n+1 .. 8n+7) and the conjectured
uniform pattern for arbitrary primes.  A failing claim is a verdict with a
counterexample, never an exception: falsifying the conjecture would be a
legitimate output of the scanner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dissect import IdentityReport, Progression, extract, report_from_comparison
from .eta import overpartition_gf
from .series import euler_factor, mod2k

DEFAULT_N_MAX = 2000

SOURCES = ("Theorem5col", "Theorem7col", "Theorem11col", "Theorem13col",
           "Conjecture", "UserSupplied")


@dataclass(frozen=True)
class CongruenceClaim:
    """One congruence: t-colored overpartition counts on the progression
    m*n + j vanish mod 2^k."""

    t: int
    m: int
    j: int
    k: int
    source: str = "UserSupplied"

    def __post_init__(self):
        if self.t < 1 or self.m < 1 or self.k < 1:
            raise ValueError("t, m, k must be positive")
        if not 0 <= self.j < self.m:
            raise ValueError(f"residue j={self.j} not in [0, {self.m})")
        if self.source not in SOURCES:
            raise ValueError(f"unknown claim source {self.source!r}")

    def describe(self) -> str:
        return f"p̄_-{self.t}({self.m}n+{self.j}) ≡ 0 (mod {1 << self.k})"


@dataclass(frozen=True)
class ClaimReport:
    claim: CongruenceClaim
    n_max: int
    holds: bool
    counterexample: tuple[int, int] | None = None  # (n, value mod 2^k)
    ms: float = 0.0

    def __post_init__(self):
        if self.holds == (self.counterexample is not None):
            raise ValueError("holds and counterexample are mutually exclusive")

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "fails"

    def summary(self) -> str:
        base = f"{self.claim.describe()} for n <= {self.n_max}: {self.verdict}"
        if self.counterexample is not None:
            n, v = self.counterexample
            base += f" (n={n}: value ≡ {v} mod {1 << self.claim.k})"
        return base


# (t, m, j, k) rows asserting == 0 mod 2^k; 7 + 5 + 5 + 7 = 24 claims.
_THEOREM_ROWS = (
    (5, 8, 1, 1, "Theorem5col"),
    (5, 8, 2, 2, "Theorem5col"),
    (5, 8, 3, 3, "Theorem5col"),
    (5, 8, 4, 1, "Theorem5col"),
    (5, 8, 5, 3, "Theorem5col"),
    (5, 8, 6, 3, "Theorem5col"),
    (5, 8, 7, 7, "Theorem5col"),
    (7, 8, 1, 1, "Theorem7col"),
    (7, 8, 2, 4, "Theorem7col"),
    (7, 8, 3, 5, "Theorem7col"),
    (7, 8, 4, 1, "Theorem7col"),
    (7, 8, 7, 7, "Theorem7col"),
    (11, 8, 1, 1, "Theorem11col"),
    (11, 8, 2, 3, "Theorem11col"),
    (11, 8, 3, 4, "Theorem11col"),
    (11, 8, 4, 1, "Theorem11col"),
    (11, 8, 7, 6, "Theorem11col"),
    (13, 8, 1, 1, "Theorem13col"),
    (13, 8, 2, 2, "Theorem13col"),
    (13, 8, 3, 3, "Theorem13col"),
    (13, 8, 4, 1, "Theorem13col"),
    (13, 8, 5, 3, "Theorem13col"),
    (13, 8, 6, 3, "Theorem13col"),
    (13, 8, 7, 8, "Theorem13col"),
)

THEOREM_CLAIMS = tuple(CongruenceClaim(t, m, j, k, src)
                       for t, m, j, k, src in _THEOREM_ROWS)

# Conjectured pattern for every prime t: (m, j, k) rows.
CONJECTURE_PATTERN = ((8, 1, 1), (8, 2, 2), (8, 3, 3), (8, 4, 1),
                      (8, 5, 3), (8, 6, 3), (8, 7, 5))


def conjecture_claims(q: int) -> tuple[CongruenceClaim, ...]:
    """The seven conjectured congruences at the prime q <= 10^4."""
    if q > 10_000:
        raise ValueError("conjecture scan is limited to primes q <= 10^4")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    return tuple(CongruenceClaim(q, m, j, k, "Conjecture")
                 for m, j, k in CONJECTURE_PATTERN)


def check_claim(c: CongruenceClaim, n_max: int) -> ClaimReport:
    """Expand the generating function mod 2^k, extract the progression and
    assert every coefficient vanishes; the first failure is recorded."""
    start = time.perf_counter()
    T = c.m * n_max + c.j + 1
    gf = overpartition_gf(c.t, mod2k(c.k), T)
    stream = extract(gf, Progression(c.m, c.j))  # n = 0 .. n_max
    n = stream.valuation()
    counter = None if n is None else (n, stream.coefficient(n))
    ms = (time.perf_counter() - start) * 1000.0
    return ClaimReport(claim=c, n_max=n_max, holds=counter is None,
                       counterexample=counter, ms=ms)


def run_theorems(n_max: int = DEFAULT_N_MAX) -> list[ClaimReport]:
    """Check all 24 built-in theorem congruences to the given bound."""
    return [check_claim(c, n_max) for c in THEOREM_CLAIMS]


def is_prime(q: int) -> bool:
    """Trial division; intended for the conjecture scanner's q <= 10^4."""
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def scan_conjecture(q: int, n_max: int = 1000) -> list[ClaimReport]:
    """Instantiate the seven conjectured congruences at prime q and check
    each to n_max.  A failure is a counterexample record, not an error."""
    return [check_claim(c, n_max) for c in conjecture_claims(q)]


def observed_two_adic_valuation(t: int, m: int, j: int, n_max: int) -> int:
    """Minimal 2-adic valuation of p-bar_{-t}(m*n + j) over n <= n_max,
    computed mod 2^64.  A return of 64 means every value vanished mod 2^64,
    i.e. the true valuation is at least 64."""
    T = m * n_max + j + 1
    gf = overpartition_gf(t, mod2k(64), T)
    stream = extract(gf, Progression(m, j)).coeffs()[:n_max + 1]
    return _min_two_adic_valuation(np.array(stream, dtype=np.uint64))


def _min_two_adic_valuation(words: np.ndarray) -> int:
    """Least 2-adic valuation among uint64 words, 64 if all are zero: the
    lowest set bit of their bitwise or."""
    low = int(np.bitwise_or.reduce(words))
    return (low & -low).bit_length() - 1 if low else 64


def check_lift_congruence(m: int, k: int, T: int) -> IdentityReport:
    """f_m^(2^k) == f_{2m}^(2^(k-1)) as series mod 2^k."""
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    ring = mod2k(k)
    lhs = euler_factor(m, m, 1, ring, T).pow(1 << k)
    rhs = euler_factor(2 * m, 2 * m, 1, ring, T).pow(1 << (k - 1))
    name = f"f{m}^{1 << k} = f{2 * m}^{1 << (k - 1)} (mod {1 << k})"
    return report_from_comparison(name, lhs, rhs, through=T)


_ORACLE_MAX_N = 14
_ORACLE_MAX_T = 5


def enumerate_colored_overpartitions(t: int, n: int) -> int:
    """Count t-colored overpartitions of n by direct enumeration.

    A structure assigns, to every (part value, color) class, a number of
    plain copies plus optionally one overlined copy; the recursion walks
    those choices class by class and counts complete assignments.  This is
    the independent oracle for the generating-function expansion, so it
    deliberately shares no series arithmetic with the rest of the package.
    """
    if t < 1 or n < 0:
        raise ValueError("need t >= 1 and n >= 0")
    if n > _ORACLE_MAX_N or t > _ORACLE_MAX_T:
        raise ValueError(
            f"enumeration bound exceeded (n <= {_ORACLE_MAX_N}, t <= {_ORACLE_MAX_T})")

    def over_value(v: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        if v == 0:
            return 0
        return over_color(v, 0, remaining)

    def over_color(v: int, c: int, remaining: int) -> int:
        if c == t:
            return over_value(v - 1, remaining)
        total = 0
        plain = 0  # weight contributed by plain copies of (v, color c)
        while plain <= remaining:
            total += over_color(v, c + 1, remaining - plain)
            if plain + v <= remaining:  # one overlined copy on top
                total += over_color(v, c + 1, remaining - plain - v)
            plain += v
        return total

    return over_value(n, n)


def enumerate_colored_partitions(t: int, n: int) -> int:
    """Direct enumeration of t-colored partitions (no overlines); oracle for
    the 1/f_1^t expansion."""
    if t < 1 or n < 0:
        raise ValueError("need t >= 1 and n >= 0")
    if n > _ORACLE_MAX_N or t > _ORACLE_MAX_T:
        raise ValueError(
            f"enumeration bound exceeded (n <= {_ORACLE_MAX_N}, t <= {_ORACLE_MAX_T})")

    def walk(v: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        if v == 0:
            return 0
        return colors(v, 0, remaining)

    def colors(v: int, c: int, remaining: int) -> int:
        # choose a multiplicity for color c of the part value v
        if c == t:
            return walk(v - 1, remaining)
        total = 0
        used = 0
        while used <= remaining:
            total += colors(v, c + 1, remaining - used)
            used += v
        return total

    return walk(n, n)
