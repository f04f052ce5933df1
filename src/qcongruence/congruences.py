"""Congruence claims p-bar_{-t}(m*n + j) == 0 (mod 2^k) and their checkers.

The built-in claim tables cover the four proved theorems for t = 5, 7, 11,
13 (24 congruences on the progressions 8n+1 .. 8n+7) and the conjectured
uniform pattern for arbitrary primes.  A failing claim is a verdict with a
counterexample, never an exception: falsifying the conjecture would be a
legitimate output of the scanner.
"""

from __future__ import annotations

import functools
import math
import time

from .eta import overpartition_residues
from .series import EXACT, MAX_MOD2K_BITS, _Record, mod2k, record_text

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

    def record(self) -> tuple[str, str]:
        c = self.claim
        n, v = self.counterexample or (None, None)
        return record_text("claim", dict(t=c.t, m=c.m, j=c.j, k=c.k, n_max=self.n_max,
                                         verdict=self.verdict, counterexample_n=n,
                                         counterexample_value=v), {"ms": self.ms})


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


def check_claims(claims, n_max: int) -> list[ClaimReport]:
    """Check each claim for n <= n_max, in claim order, by its row's least
    2-adic valuation: ``check_with_valuations`` with no valuations, one read per m."""
    return check_with_valuations(claims, (), 1, n_max)[0]


def is_prime(q: int) -> bool:
    """Trial division; intended for the conjecture scanner's q <= 10^4."""
    return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))


def observed_two_adic_valuations(ts, m: int, n_max: int) -> list[list[int]]:
    """For each t in ``ts``, the least 2-adic valuation of p-bar_{-t}(m*n + j)
    over n <= n_max for j = 0 .. m-1, or 64 if every such value vanished
    mod 2^64: ``check_with_valuations`` with no claims.  Each class of t has
    one table, read at a precision its first values fix, each row folded once."""
    return check_with_valuations((), ts, m, n_max)[1]


def check_with_valuations(claims, ts, m: int, n_max: int):
    """The reports of ``claims`` (any m, k <= 64), in claim order, for
    n <= n_max, and ``observed_two_adic_valuations(ts, m, n_max)``.

    Each claim, then each t of ``ts``, is a slot of one answer list, found by
    its (t, m).  Each read's precision is fixed before it.  The first values
    p-bar_{-t}(j) > 0, j < m, of ``ts`` are read over Z; a class's minimum is
    at most its first value's valuation v, so mod 2^K_t, K_t = 1 + the largest
    v, it is exact.  Each step (an m asked) reads its t mod 2^K, K <= 64 its
    claims' largest k, at least 8 and K_t if valuations are on it.  Mod 2^K a
    table depends only on t mod 2^(K-1), so one table, the class's least t's,
    fills every slot of its t from its rows' least valuations, each row folded
    once: a claim (j, k) holds iff row j's is >= k, only a failing one scans
    its row for the first n nonzero mod 2^k, and a valuation gets its own list.
    One table is alive at a time.  ``ms`` is the time since the report before."""
    claims, ts = list(claims), list(ts)
    out, asks = [None] * (len(claims) + len(ts)), {}
    for i, ask in enumerate([(c.t, c.m) for c in claims] + [(t, m) for t in ts]):
        asks.setdefault(ask, []).append(i)  # (t, m) -> its slots in out
    start = time.perf_counter()
    need = dict.fromkeys(ts)  # t -> K_t, uncapped
    for t, first in zip(need, overpartition_residues(list(need), EXACT, m, 0) if ts else ()):
        need[t] = 1 + max((v & -v).bit_length() - 1 for [v] in first)
    for step in dict.fromkeys(s for _, s in asks):
        wanted = need if step == m else {}
        top = max([c.k for c in claims if c.m == step] + ([8] if wanted else []))
        reads = {}  # K -> {the least t >= 1 of a class mod 2^(K-1): the t it answers}
        for t in [t for t, s in asks if s == step]:
            K = min(max(top, wanted.get(t, 0)), MAX_MOD2K_BITS)
            reads.setdefault(K, {}).setdefault((t - 1) % (1 << K - 1) + 1, []).append(t)
        for K, classes in reads.items():
            tables = overpartition_residues(list(classes), mod2k(K), step, n_max)
            for group in classes.values():
                table = next(tables)
                mins = list(map(_min_two_adic_valuation, table))
                for i in [i for t in group for i in asks.pop((t, step))]:
                    if i >= len(claims):  # a valuation slot: its own list
                        out[i] = mins.copy()
                        continue
                    c, mod = claims[i], 1 << claims[i].k
                    counter = None if mins[c.j] >= c.k else next(
                        (n, w % mod) for n, w in enumerate(table[c.j]) if w % mod)
                    now = time.perf_counter()
                    out[i] = ClaimReport(c, n_max, counter, (now - start) * 1000.0)
                    start = now
                del table  # before the next is built
    return out[:len(claims)], out[len(claims):]


def _min_two_adic_valuation(words) -> int:
    """Least 2-adic valuation among uint64 words, 64 if all are zero: the
    lowest set bit of their bitwise or, folded from the words as one int."""
    low, n = int.from_bytes(words, "little"), len(words)
    while n > 1:  # the top half ORed onto the bottom half
        n -= n // 2
        low = low >> 64 * n | low & (1 << 64 * n) - 1
    return (low & -low).bit_length() - 1 if low else 64


_ORACLE_MAX_N = 14
_ORACLE_MAX_T = 5


def enumerate_colored_overpartitions(t: int, n: int) -> int:
    """Count t-colored overpartitions of n by direct enumeration.

    A structure assigns, to every (part value, color) class, a number of
    plain copies plus optionally one overlined copy; the recursion counts
    complete assignments class by class, its subcounts memoized per call.
    It is the independent oracle for the generating-function expansion and
    deliberately shares no series arithmetic with the rest of the package.
    """
    if t < 1 or n < 0:
        raise ValueError("need t >= 1 and n >= 0")
    if n > _ORACLE_MAX_N or t > _ORACLE_MAX_T:
        raise ValueError(
            f"enumeration bound exceeded (n <= {_ORACLE_MAX_N}, t <= {_ORACLE_MAX_T})")

    @functools.cache
    def over_value(v: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        if v == 0:
            return 0
        return over_color(v, 0, remaining)

    @functools.cache
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
