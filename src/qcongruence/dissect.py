"""Coefficient extraction on arithmetic progressions and the classical
dissection identities of the Euler product f_1.

Each identity checker expands both sides independently and compares
coefficients through the requested truncation, reporting the first
mismatching exponent on failure.  A report is evidence of agreement up to
the stated truncation, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import (EXACT, InsufficientTruncation, LaurentSeries, euler_factor,
                     first_difference, mod2k, theta_f)


@dataclass(frozen=True)
class Progression:
    """Arithmetic progression m*n + j of exponents, 0 <= j < m."""

    m: int
    j: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("progression step m must be positive")
        if not 0 <= self.j < self.m:
            raise ValueError(f"residue j={self.j} not in [0, {self.m})")


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of a coefficient-wise identity check.

    ``truncation`` is the exclusive exponent bound actually compared.
    ``first_mismatch`` is (exponent, lhs, rhs), or None when matched.
    """

    name: str
    truncation: int
    first_mismatch: tuple[int, int, int] | None = None
    note: str = ""

    @property
    def matched(self) -> bool:
        return self.first_mismatch is None

    def summary(self) -> str:
        if self.matched:
            tail = f" [{self.note}]" if self.note else ""
            return f"{self.name}: matched through q^{self.truncation - 1}{tail}"
        e, lhs, rhs = self.first_mismatch
        tail = f" [{self.note}]" if self.note else ""
        return f"{self.name}: MISMATCH at q^{e}: {lhs} != {rhs}{tail}"


def report_from_comparison(name: str, lhs: LaurentSeries, rhs: LaurentSeries,
                           through: int | None = None, note: str = "") -> IdentityReport:
    lo = min(lhs.offset, rhs.offset)
    hi = min(lhs.trunc, rhs.trunc)
    if through is not None:
        hi = min(hi, through)
    if hi <= lo:
        raise InsufficientTruncation(f"{name}: no common coefficient window")
    diff = first_difference(lhs, rhs, through=hi)
    return IdentityReport(name=name, truncation=hi, first_mismatch=diff, note=note)


def extract(a: LaurentSeries, p: Progression) -> LaurentSeries:
    """Series of coefficients a(m*n + j) for n >= 0.

    Defined on genuine power series: any nonzero coefficient at a negative
    exponent is an error, since the n >= 0 stream would silently drop it.
    """
    v = a.valuation()
    if v is not None and v < 0:
        raise ValueError(
            "extraction is defined on the n >= 0 coefficient stream; "
            "series has nonzero coefficients at negative exponents")
    if a.trunc <= p.j:
        raise InsufficientTruncation(
            f"truncation {a.trunc} known only below the first index of "
            f"progression {p.m}n+{p.j}")
    # the first `zeros` exponents m*n + j fall below the offset
    zeros = max(0, -((p.j - a.offset) // p.m))
    stream = a._coeffs[p.j + p.m * zeros - a.offset::p.m]
    return LaurentSeries(0, [0] * zeros + list(stream) if zeros else stream, a.ring)


def rogers_ramanujan(T: int) -> LaurentSeries:
    """The quotient (q;q^5)(q^4;q^5) / ((q^2;q^5)(q^3;q^5)) through q^(T-1),
    as f(-q, -q^4) / f(-q^2, -q^3) by Jacobi's triple product (the common
    factor (q^5;q^5) cancels)."""
    return theta_f(1, 4, T).mul(theta_f(2, 3, T).inverse())


def dissection3_f1cubed(T: int) -> IdentityReport:
    """f_1^3 == f_3 + q*f_9^3 as series mod 2."""
    r2 = mod2k(1)
    lhs = euler_factor(1, 1, 3, r2, T)
    rhs = euler_factor(3, 3, 1, r2, T)
    if T > 1:
        rhs = rhs.add(euler_factor(9, 9, 3, r2, T - 1).shift(1))
    return report_from_comparison("f1^3 = f3 + q*f9^3 (mod 2)", lhs, rhs, through=T)


def dissection5(T: int) -> IdentityReport:
    """f_1 == f_25 * (1/R(q^5) - q - q^2*R(q^5)) exactly, R the
    Rogers-Ramanujan quotient."""
    inner = -((T + 4) // -5)  # ceil(T/5)
    r5 = rogers_ramanujan(inner).substitute_qpow(5).truncate(T)
    bracket = r5.inverse().sub(LaurentSeries.q_power(1, EXACT, T)).sub(r5.shift(2))
    rhs = euler_factor(25, 25, 1, EXACT, T).mul(bracket)
    lhs = euler_factor(1, 1, 1, EXACT, T)
    return report_from_comparison("f1 = f25*(1/R(q^5) - q - q^2*R(q^5))",
                                  lhs, rhs, through=T)


def _theta_quotients7(T: int) -> tuple[LaurentSeries, LaurentSeries, LaurentSeries]:
    t7_42 = theta_f(7, 42, T)
    t14_35 = theta_f(14, 35, T)
    t21_28 = theta_f(21, 28, T)
    a = t14_35.mul(t7_42.inverse())
    b = t21_28.mul(t14_35.inverse())
    c = t7_42.mul(t21_28.inverse())
    return a, b, c


def dissection7(T: int) -> IdentityReport:
    """f_1 == f_49 * (A - q*B - q^2 + q^5*C) exactly, with A, B, C the
    theta-function quotients in q^7:

        A = f(-q^14,-q^35)/f(-q^7,-q^42),  B = f(-q^21,-q^28)/f(-q^14,-q^35),
        C = f(-q^7,-q^42)/f(-q^21,-q^28).
    """
    a, b, c = _theta_quotients7(T)
    bracket = a.sub(b.shift(1)).sub(LaurentSeries.q_power(2, EXACT, T))
    bracket = bracket.add(c.shift(5))
    rhs = euler_factor(49, 49, 1, EXACT, T).mul(bracket)
    lhs = euler_factor(1, 1, 1, EXACT, T)
    return report_from_comparison("f1 = f49*(A - q*B - q^2 + q^5*C)",
                                  lhs, rhs, through=T)


def ramanathan(n: int, T: int) -> IdentityReport:
    """General n-dissection of f_1 for n = 6g+1 or n = 6g-1.

    Checks, exactly through q^(T-1),

        f_1 = f_{n^2} * ( (-1)^g q^{(n^2-1)/24}
              + sum_{k=1}^{(n-1)/2} (-1)^{k+g} q^{e(k)}
                * f(-q^{2nk}, -q^{n^2-2nk}) / f(-q^{nk}, -q^{n^2-nk}) )

    with e(k) = (k-g)(3k-3g-1)/2 when n = 6g+1 and (k-g)(3k-3g+1)/2 when
    n = 6g-1.  The theorem is usually quoted with the n = 6g+1 hypothesis
    only; both branches are checked here and validated against the
    independent 5- and 7-dissections.
    """
    if n < 5 or n % 6 not in (1, 5):
        raise ValueError(f"n={n} must be >= 5 and congruent to +-1 mod 6")
    if n % 6 == 1:
        g, eps = n // 6, -1
    else:
        g, eps = (n + 1) // 6, 1
    lead = (n * n - 1) // 24
    acc = LaurentSeries.q_power(lead, EXACT, T) if lead < T else None
    if acc is not None and g % 2:
        acc = acc.neg()
    for k in range(1, (n - 1) // 2 + 1):
        e = (k - g) * (3 * k - 3 * g + eps) // 2
        num = theta_f(2 * n * k, n * n - 2 * n * k, T)
        den = theta_f(n * k, n * n - n * k, T)
        term = num.mul(den.inverse()).shift(e).truncate(T)
        if (k + g) % 2:
            term = term.neg()
        acc = term if acc is None else acc.add(term)
    rhs = euler_factor(n * n, n * n, 1, EXACT, T).mul(acc)
    lhs = euler_factor(1, 1, 1, EXACT, T)
    case = f"n=6g{'+' if eps < 0 else '-'}1, g={g}"
    return report_from_comparison(f"{n}-dissection of f1", lhs, rhs,
                                  through=T, note=case)
