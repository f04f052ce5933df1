"""Congruence claims p-bar_{-t}(m*n + j) == 0 (mod 2^k) and their checkers.

The built-in claim tables cover the four proved theorems for t = 5, 7, 11,
13 (24 congruences on the progressions 8n+1 .. 8n+7) and the conjectured
uniform pattern for arbitrary primes.  A failing claim is a verdict with a
counterexample, never an exception: falsifying the conjecture would be a
legitimate output of the scanner.
"""

from __future__ import annotations

import math
import time
from functools import reduce
from operator import or_

from .eta import overpartition_residues
from .series import MAX_MOD2K_BITS, LaurentSeries, _Record, field_text, mod2k

DEFAULT_N_MAX = 2000

SOURCES = ("Theorem5col", "Theorem7col", "Theorem11col", "Theorem13col",
           "Conjecture", "UserSupplied")


class CongruenceClaim(_Record):
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
        if self.k > MAX_MOD2K_BITS:
            raise ValueError(f"k={self.k} is over {MAX_MOD2K_BITS}: claims are "
                             f"checked mod 2^k with k <= {MAX_MOD2K_BITS}")
        if not 0 <= self.j < self.m:
            raise ValueError(f"residue j={self.j} not in [0, {self.m})")
        if self.source not in SOURCES:
            raise ValueError(f"unknown claim source {self.source!r}")

    def describe(self) -> str:
        return f"p̄_-{self.t}({self.m}n+{self.j}) ≡ 0 (mod {1 << self.k})"


class ClaimReport(_Record):
    claim: CongruenceClaim
    n_max: int
    counterexample: tuple[int, int] | None = None  # (n, value mod 2^k)
    ms: float = 0.0

    @property
    def holds(self) -> bool:
        return self.counterexample is None

    ok = holds

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "fails"

    def summary(self) -> str:
        base = f"{self.claim.describe()} for n <= {self.n_max}: {self.verdict}"
        if self.counterexample is not None:
            n, v = self.counterexample
            base += f" (n={n}: value ≡ {v} mod {1 << self.claim.k})"
        return base

    def record(self) -> str:
        c = self.claim
        n, v = self.counterexample or (None, None)
        return (f"claim t={c.t} m={c.m} j={c.j} k={c.k} n_max={self.n_max} "
                f"verdict={self.verdict} counterexample_n={field_text(n)} "
                f"counterexample_value={field_text(v)} ms={self.ms:.1f}")


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

# The moduli 2^k a valuation is read at in turn: a minimum below k is exact.
VALUATION_LADDER = (8, 16, MAX_MOD2K_BITS)


def conjecture_claims(q: int) -> tuple[CongruenceClaim, ...]:
    """The seven conjectured congruences at the prime q <= 10^4."""
    if q > 10_000:
        raise ValueError("conjecture scan is limited to primes q <= 10^4")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    return tuple(CongruenceClaim(q, m, j, k, "Conjecture")
                 for m, j, k in CONJECTURE_PATTERN)


def check_claims(claims, n_max: int) -> list[ClaimReport]:
    """Check each claim for n <= n_max; the reports come in claim order.

    The claims on one m read their distinct t, in order of first
    appearance, from ``overpartition_residues`` mod 2^K, K the largest k
    among them, so every eight t share one kernel pass.  Each claim reads
    its row as a series mod 2^k, its own k, and its counterexample is that
    series' valuation and the coefficient there.  The tables are read one
    at a time and each is dropped before the next is built, so what is
    alive is one table of m*(n_max+1) words, one row and one pass's
    accumulators (see ``series._GAUSS_PASS``).  ``ms`` is the wall time
    since the report checked before it, so a pass is charged to the first
    claim it serves and the ``ms`` fields add up to the call's time."""
    claims = list(claims)
    reports = [None] * len(claims)
    check = _claim_checker(claims, n_max, reports)
    for m in dict.fromkeys(c.m for c in claims):
        on_m = [c for c in claims if c.m == m]
        ts = list(dict.fromkeys(c.t for c in on_m))
        tables = overpartition_residues(ts, mod2k(max(c.k for c in on_m)), m, n_max)
        for t in ts:
            check(t, m, next(tables))
    return reports


def _claim_checker(claims, n_max: int, reports: list):
    """check(t, m, table): set reports[i] for each claim i on (t, m) not yet
    checked, from its row of ``table``, t's table on m, and return table.
    ``ms`` is the wall time since the report set before it."""
    runs = {}  # (t, m) -> the indices of the claims on (t, m)
    for i, c in enumerate(claims):
        runs.setdefault((c.t, c.m), []).append(i)
    start = time.perf_counter()

    def check(t, m, table):
        nonlocal start
        for i in runs.pop((t, m), ()):
            c = claims[i]
            row = LaurentSeries(0, table[c.j], mod2k(c.k))
            n = row.valuation()
            counter = None if n is None else (n, row.coefficient(n))
            now = time.perf_counter()
            reports[i] = ClaimReport(c, n_max, counter, (now - start) * 1000.0)
            start = now
        return table
    return check


def is_prime(q: int) -> bool:
    """Trial division; intended for the conjecture scanner's q <= 10^4."""
    return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))


def observed_two_adic_valuations(ts, m: int, n_max: int) -> list[list[int]]:
    """For each t in ``ts``, the minimal 2-adic valuation of
    p-bar_{-t}(m*n + j) over n <= n_max for j = 0 .. m-1, read along
    ``VALUATION_LADDER``: every t mod 2^8, sharing kernel passes, then only
    the t with a row that vanished at the rung before.  A 64 means every
    value on that progression vanished mod 2^64: the valuation is >= 64."""
    return check_with_valuations((), list(ts), m, n_max)[1]


def check_with_valuations(claims, ts, m: int, n_max: int):
    """``check_claims(claims, n_max)`` and ``observed_two_adic_valuations(ts,
    m, n_max)`` from one table per t mod 2^8, for claims on m with k <= 8
    and t in ``ts``.  A pass mod 2^8 is charged to the first claim it serves;
    the reads mod 2^16 and 2^64 come after the last claim."""
    reports, vals, todo = [None] * len(claims), {}, ts
    check = _claim_checker(claims, n_max, reports)
    for k in VALUATION_LADDER:
        tables = overpartition_residues(todo, mod2k(k), m, n_max)
        for t in todo:  # each table is dropped before the next is built
            vals[t] = list(map(_min_two_adic_valuation, check(t, m, next(tables))))
        todo = [t for t in todo if max(vals[t]) >= k]
        if not todo:
            break
    return reports, [vals[t] for t in ts]


def _min_two_adic_valuation(words) -> int:
    """Least 2-adic valuation among uint64 words, 64 if all are zero: the
    lowest set bit of their bitwise or."""
    low = reduce(or_, words, 0)
    return (low & -low).bit_length() - 1 if low else 64


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
