"""Coefficient extraction on arithmetic progressions and the classical
dissection identities of the Euler product f_1.

Each identity checker expands both sides independently and compares
coefficients through the requested truncation, reporting the first
mismatching exponent on failure.  A report is evidence of agreement up to
the stated truncation, never a proof.
"""

from __future__ import annotations

from .series import (EXACT, InsufficientTruncation, LaurentSeries, _divide_exact,
                     _Record, _strided, euler_factor, field_text, first_difference,
                     int_text, mod2k, shifted_sum, theta_f)


class Progression(_Record):
    """Arithmetic progression m*n + j of exponents, 0 <= j < m."""

    m: int
    j: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("progression step m must be positive")
        if not 0 <= self.j < self.m:
            raise ValueError(f"residue j={self.j} not in [0, {self.m})")


class IdentityReport(_Record):
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

    ok = matched

    def summary(self) -> str:
        tail = f" [{self.note}]" if self.note else ""
        if self.matched:
            return f"{self.name}: matched through q^{self.truncation - 1}{tail}"
        e, lhs, rhs = self.first_mismatch
        return (f"{self.name}: MISMATCH at q^{e}: "
                f"{int_text(lhs)} != {int_text(rhs)}{tail}")

    def record(self) -> str:
        e, lhs, rhs = self.first_mismatch or (None, None, None)
        return (f'identity name="{self.name}" T={self.truncation} '
                f"matched={str(self.matched).lower()} mismatch_exponent={field_text(e)} "
                f'lhs={field_text(lhs)} rhs={field_text(rhs)} note="{self.note}"')


def report_from_comparison(name: str, lhs: LaurentSeries, rhs: LaurentSeries,
                           through: int, note: str = "") -> IdentityReport:
    diff = first_difference(lhs, rhs, through)
    return IdentityReport(name=name, truncation=min(lhs.trunc, rhs.trunc, through),
                          first_mismatch=diff, note=note)


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
    return LaurentSeries._built(0, _strided(stream, a.ring.k, zeros), a.ring)


def _theta_quotient(num: tuple[int, int], den: tuple[int, int], n: int,
                    T: int) -> LaurentSeries:
    """f(-Q^a, -Q^b) / f(-Q^c, -Q^d) through q^(T-1), (a, b) = num and
    (c, d) = den: one exact division at length ceil(T/n) before Q -> q^n."""
    m = -(-T // n)
    quotient = _divide_exact(theta_f(*num, m).coeffs(), theta_f(*den, m).coeffs())
    return LaurentSeries._built(0, quotient, EXACT).substitute_qpow(n).truncate(T)


def rogers_ramanujan(T: int) -> LaurentSeries:
    """The quotient (q;q^5)(q^4;q^5) / ((q^2;q^5)(q^3;q^5)) through q^(T-1),
    as f(-q, -q^4) / f(-q^2, -q^3) by Jacobi's triple product (the common
    factor (q^5;q^5) cancels)."""
    return _theta_quotient((1, 4), (2, 3), 1, T)


def dissection3_f1cubed(T: int) -> IdentityReport:
    """f_1^3 == f_3 + q*f_9^3 as series mod 2."""
    r2 = mod2k(1)
    rhs = shifted_sum([(1, 0, euler_factor(3, 1, r2, T)),
                       (1, 1, euler_factor(9, 3, r2, T))], r2, T)
    return report_from_comparison("f1^3 = f3 + q*f9^3 (mod 2)",
                                  euler_factor(1, 3, r2, T), rhs, through=T)


def dissection5(T: int) -> IdentityReport:
    """f_1 == f_25 * (1/R(q^5) - q - q^2*R(q^5)) exactly, R the
    Rogers-Ramanujan quotient: ``ramanathan(5, T)`` under its textbook
    name, whose k = 1 and k = 2 quotients are 1/R(q^5) and R(q^5)."""
    return _textbook(5, ramanathan(5, T))


def dissection7(T: int) -> IdentityReport:
    """f_1 == f_49 * (A - q*B - q^2 + q^5*C) exactly, with A, B, C the
    theta-function quotients in q^7:

        A = f(-q^14,-q^35)/f(-q^7,-q^42),  B = f(-q^21,-q^28)/f(-q^14,-q^35),
        C = f(-q^7,-q^42)/f(-q^21,-q^28).
    """
    return _textbook(7, ramanathan(7, T))


def _textbook(n: int, rep: IdentityReport) -> IdentityReport:
    """``ramanathan(n, T)``'s report under the textbook name of n = 5 or 7."""
    name = {5: "f1 = f25*(1/R(q^5) - q - q^2*R(q^5))",
            7: "f1 = f49*(A - q*B - q^2 + q^5*C)"}[n]
    return IdentityReport(name, rep.truncation, rep.first_mismatch)


def ramanathan(n: int, T: int) -> IdentityReport:
    """General n-dissection of f_1 for n = 6g+1 or n = 6g-1.

    Checks, exactly through q^(T-1),

        f_1 = f_{n^2} * ( (-1)^g q^{(n^2-1)/24}
              + sum_{k=1}^{(n-1)/2} (-1)^{k+g} q^{e(k)}
                * f(-q^{2nk}, -q^{n^2-2nk}) / f(-q^{nk}, -q^{n^2-nk}) )

    with e(k) = (k-g)(3k-3g-1)/2 when n = 6g+1 and (k-g)(3k-3g+1)/2 when
    n = 6g-1.  The theorem is usually quoted with the n = 6g+1 hypothesis
    only; both branches are checked here.  ``dissection5`` and
    ``dissection7`` are the n = 5 and n = 7 cases under their textbook names.
    """
    if n < 5 or n % 6 not in (1, 5):
        raise ValueError(f"n={n} must be >= 5 and congruent to +-1 mod 6")
    g, eps = (n + 1) // 6, (-1 if n % 6 == 1 else 1)
    terms = [((-1) ** g, (n * n - 1) // 24, LaurentSeries.one(EXACT, T))]
    terms += [((-1) ** (k + g), (k - g) * (3 * k - 3 * g + eps) // 2,
               _theta_quotient((2 * k, n - 2 * k), (k, n - k), n, T))
              for k in range(1, (n - 1) // 2 + 1)]
    rhs = euler_factor(n * n, 1, EXACT, T).mul(shifted_sum(terms, EXACT, T))
    case = f"n=6g{'+' if eps < 0 else '-'}1, g={g}"
    return report_from_comparison(f"{n}-dissection of f1", euler_factor(1, 1, EXACT, T),
                                  rhs, through=T, note=case)


def verify_suite(T: int) -> list[IdentityReport]:
    """Every dissection check through q^(T-1), in report order; the n = 5
    and n = 7 cases are computed once each and reported under both names."""
    r5, r7 = ramanathan(5, T), ramanathan(7, T)
    return [dissection3_f1cubed(T), _textbook(5, r5), _textbook(7, r7),
            r5, r7, ramanathan(13, T)]
