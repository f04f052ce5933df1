"""Independent reference implementations used as test oracles.

Deliberately naive: plain Python lists, schoolbook convolution, direct
truncated products, triangular back-substitution for inverses, and raw
recursive enumeration for partition counts.  Nothing here shares a code
path with the package (no packed big integers, no Newton iteration, no Kronecker
packing, no pentagonal shortcut), so agreement is meaningful evidence.
"""

from __future__ import annotations


def naive_mul(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                if y:
                    out[i + j] += x * y
    return out


def naive_inverse(a: list[int], n: int) -> list[int]:
    assert a[0] in (1, -1), "naive inverse wants a unit constant term"
    b = [0] * n
    b[0] = a[0]
    for m in range(1, n):
        s = sum(a[i] * b[m - i] for i in range(1, min(m, len(a) - 1) + 1))
        b[m] = -s * a[0]
    return b


def naive_pow(a: list[int], e: int, n: int) -> list[int]:
    if e < 0:
        return naive_pow(naive_inverse(a, n), -e, n)
    out = [0] * n
    out[0] = 1
    for _ in range(e):
        out = naive_mul(out, a, n)
    return out


def naive_product(exponents, n: int) -> list[int]:
    """Direct expansion of prod (1 - q^c) over the given exponents c."""
    out = [0] * n
    out[0] = 1
    for c in exponents:
        if c < n:
            nxt = out[:]
            for i in range(n - c):
                nxt[i + c] -= out[i]
            out = nxt
    return out


def binomial_product(a: int, m: int, n: int) -> list[int]:
    """prod_{i>=0} (1 - q^(a+m*i)) to n terms, multiplying in one sparse
    binomial at a time in place (top coefficient down, so each reads the
    previous product); four of these give the Rogers-Ramanujan quotient."""
    out = [0] * n
    out[0] = 1
    for c in range(a, n, m):
        for i in range(n - 1, c - 1, -1):
            out[i] -= out[i - c]
    return out


def naive_euler(a: int, m: int, e: int, n: int) -> list[int]:
    """prod_{i>=0} (1 - q^(a+m*i))^e by repeated binomial multiplication."""
    base = naive_product(range(a, n, m), n)
    return naive_pow(base, e, n)


def naive_overpartition(t: int, n: int) -> list[int]:
    f1 = naive_product(range(1, n + 1), n)
    f2 = naive_product(range(2, n + 1, 2), n)
    return naive_mul(naive_pow(f2, t, n), naive_pow(f1, -2 * t, n), n)


def count_partitions(n: int, max_part: int | None = None) -> int:
    """Brute-force recursive partition count (no memoization)."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    total = 0
    for first in range(min(n, max_part), 0, -1):
        total += count_partitions(n - first, first)
    return total


def generalized_pentagonal(limit: int) -> dict[int, int]:
    """Exponent -> sign map of Euler's pentagonal expansion below limit."""
    out = {0: 1}
    k = 1
    while k * (3 * k - 1) // 2 < limit:
        s = -1 if k % 2 else 1
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < limit:
                out[e] = s
        k += 1
    return out


def enumerate_colored_partitions(t: int, n: int) -> int:
    """Direct enumeration of t-colored partitions (no overlines); oracle for
    the 1/f_1^t expansion.  Like the package's overpartition enumeration it
    is bounded to n <= 14 and t <= 5."""
    if t < 1 or n < 0:
        raise ValueError("need t >= 1 and n >= 0")
    if n > 14 or t > 5:
        raise ValueError("enumeration bound exceeded (n <= 14, t <= 5)")

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
