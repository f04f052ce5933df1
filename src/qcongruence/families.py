"""Infinite-family congruences for 5-colored overpartitions mod 8, verified
at concrete parameter instances, plus the finite series identities behind
each induction step.

The four variants parametrize progressions s*n + o built from powers of 3,
5 and 7 on top of the base progression 8n+2:

    inf   s = 8*3^2a*5^2b*7^2c        o = 2*3^2a*5^2b*7^2c        rhs 4*f1^6
    inf2  s = 8*3^(2a+1)*5^2b*7^2c    o = 2*3^(2a+2)*5^2b*7^2c    rhs 4*f3^6
    inf3  s = 8*3^2a*5^(2b+1)*7^2c    o = 2*3^2a*5^(2b+1)*7^2c    rhs 4*q*f5^6
    inf4  s = 8*3^2a*5^2b*7^(2c+1)    o = 2*3^2a*5^2b*7^(2c+1)    rhs 4*q*f7^6

The checker compares the stated right-hand side first and the q-toggled
variant second, recording which (if either) matched.  Computation shows the
inf4 offset as stated is inconsistent: 2*7^(2c+1) with the remaining factor
odd sits on the residue class 8n+6, whose stream vanishes identically mod 8,
so no nonzero right-hand side can match.  The base-7 extraction of the inf
stream lands on offset 6*7^(2c+1) instead; ``corrected_offset=True`` checks
that repaired progression (which matches 4*q*f7^6).

Every right-hand side is 4*X mod 8, which reads only X mod 2.  Mod 2,
f^2 = f(q^2), so f_d^6 == f_{2d}^3, and Jacobi's f1^3 = sum (-1)^n (2n+1)
q^(n(n+1)/2) is f(-q, -q^3) mod 2, both sums running over the triangular
numbers.  So 4*f_d^6 == 4*f(-q^(2d), -q^(6d)) (mod 8): one sparse theta
series, with no power and no product.
"""

from __future__ import annotations

from .dissect import (IdentityReport, Progression, extract,
                      report_from_comparison)
from .eta import EtaQuotient, expand, overpartition_gf, overpartition_residues
from .series import (DEFAULT_BUDGET, LaurentSeries, _Record, euler_factor, mod2k,
                     shifted_sum, theta_power)

# Each variant's step and offset factors over 8n+2; the step factor is also
# the d of its right-hand side 4*f_d^6.
_VARIANTS = {"inf": (1, 1), "inf2": (3, 9), "inf3": (5, 5), "inf4": (7, 7)}
VARIANTS = tuple(_VARIANTS)

_MOD8 = mod2k(3)


class FamilyInstance(_Record):
    alpha: int
    beta: int
    gamma: int
    variant: str

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("family exponents must be nonnegative")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    def progression(self) -> tuple[int, int]:
        """Step s and offset o, exactly as the family is stated."""
        base = 3 ** (2 * self.alpha) * 5 ** (2 * self.beta) * 7 ** (2 * self.gamma)
        step, offset = _VARIANTS[self.variant]
        return 8 * base * step, 2 * base * offset

    def corrected_progression(self) -> tuple[int, int]:
        """Same as stated except inf4, whose offset is repaired to
        6*7^(2c+1) (the residue the base-7 extraction actually lands on)."""
        s, o = self.progression()
        if self.variant == "inf4":
            return s, 3 * o
        return s, o

    def describe(self) -> str:
        return (f"{self.variant}(alpha={self.alpha}, beta={self.beta}, "
                f"gamma={self.gamma})")


def _four_f6(d: int, T: int) -> LaurentSeries:
    """4*f_d^6 mod 8 through q^(T-1), as 4*f(-q^(2d), -q^(6d))."""
    return theta_power(1, 3, 1, 2 * d, _MOD8, T).scale(4)


def _rhs_candidates(variant: str, T: int) -> list[tuple[str, LaurentSeries]]:
    """Stated right-hand side first; for inf3/inf4 the q-toggled variant is
    offered second so the checker can record which one the data selects."""
    d = _VARIANTS[variant][0]
    plain = _four_f6(d, T)
    if d < 5:
        return [(f"4*f{d}^6", plain)]
    return [(f"4*q*f{d}^6", shifted_sum([(1, 1, plain)], _MOD8, T)),
            (f"4*f{d}^6", plain)]


def _first_match(name: str, lhs: LaurentSeries,
                 candidates: list[tuple[str, LaurentSeries]]) -> IdentityReport:
    """Compare ``lhs`` with each candidate right-hand side in turn and report
    the first that matches.  ``name`` may hold ``{}`` for the candidate's
    label.  If none matches, the first candidate's mismatch is reported,
    noted as neither matching when there were two."""
    failures = []
    for label, rhs in candidates:
        rep = report_from_comparison(name.format(label), lhs, rhs,
                                     through=lhs.trunc, note=f"rhs {label}")
        if rep.matched:
            return rep
        failures.append(rep)
    if len(failures) > 1:
        first = failures[0]
        return IdentityReport(first.name, first.truncation, first.first_mismatch,
                              "neither q-factor candidate matched")
    return failures[0]


def _all_matched(name: str, note: str, *reports: IdentityReport) -> IdentityReport:
    """The first report that failed, else one matched report named ``name``
    through the shortest of their truncations."""
    failed = [r for r in reports if not r.matched]
    return failed[0] if failed else IdentityReport(
        name=name, truncation=min(r.truncation for r in reports), note=note)


def verify_family_instance(fi: FamilyInstance, n_max: int,
                           corrected_offset: bool = False) -> IdentityReport:
    """Extract the instance's progression from the 5-colored overpartition
    expansion mod 8 and compare against the family right-hand side.

    The report's note records which candidate right-hand side matched (or
    that neither did)."""
    s, o = fi.corrected_progression() if corrected_offset else fi.progression()
    top = s * n_max + o
    if top > DEFAULT_BUDGET:
        raise ValueError(f"instance {fi.describe()} at n_max={n_max} reads "
                         f"q^{top}, over the budget of {DEFAULT_BUDGET}")
    return next(_check_instances([(fi, corrected_offset)], top))


def _check_instances(rows, top: int):
    """Each (instance, corrected_offset) row checked on its progression
    s*n + o <= top, read from one expansion of p-bar_{-5} mod 8."""
    gf = overpartition_gf(5, _MOD8, top + 1)
    for fi, corrected in rows:
        s, o = fi.corrected_progression() if corrected else fi.progression()
        stream = extract(gf, Progression(s, o))
        name = fi.describe() + (" [corrected offset]" if corrected else "")
        yield _first_match(name, stream, _rhs_candidates(fi.variant, stream.trunc))


def verify_eq1(T: int) -> IdentityReport:
    """The witness-derived congruence for the 8n+2 stream:

        sum p-bar_{-5}(8n+2) q^n  ==  4 * f4^179 / (f1^78 f2^36 f8^70)   (mod 8)

    also reduced to 4*f1^6 mod 8 via f_m^(2^k) == f_{2m}^(2^(k-1)).  The
    stream is the overpartition one: the plain 5-colored-partition reading
    fails its first coefficient, and the report records that resolution.
    The quotient is expanded mod 2 and lifted, since 4*X mod 8 reads only
    X mod 2.
    """
    [table] = overpartition_residues([5], _MOD8, 8, T - 1)
    stream = LaurentSeries(0, table[2], _MOD8)
    rhs = expand(EtaQuotient(8, {1: -78, 2: -36, 4: 179, 8: -70}), mod2k(1),
                 T).to_ring(_MOD8).scale(4)
    return _all_matched(
        "8n+2 stream = 4*f4^179/(f1^78*f2^36*f8^70) = 4*f1^6 (mod 8)",
        "stream read as overpartitions; reduction to 4*f1^6 checked",
        report_from_comparison(
            "8n+2 stream = 4*f4^179/(f1^78*f2^36*f8^70) (mod 8)", stream, rhs,
            through=T, note="stream read as overpartitions"),
        report_from_comparison("rhs = 4*f1^6 (mod 8)", rhs, _four_f6(1, T),
                               through=T))


def verify_induction_step(base: int, T: int) -> IdentityReport:
    """The finite series congruence each induction step rests on, mod 8.

    base 3: 4*f1^6 == 4*f3^2 + 4*q^2*f9^6, and the 3n+2 extraction of
    4*f1^6 equals 4*f3^6; 4*f3^2 is taken as 4*f6, its equal mod 8.
    base 5: the 5n+1 extraction of 4*f1^6 equals 4*q*f5^6.
    base 7: extracting 7n+5 then 7n+1 from 4*f1^6 returns 4*f1^6.
    4*f1^6 is expanded far enough for the extracted stream to reach q^(T-1).
    """
    if base not in (3, 5, 7):
        raise ValueError("induction step base must be 3, 5 or 7")
    big = _four_f6(1, {3: 3 * T + 3, 5: 5 * T + 2, 7: 49 * T + 13}[base])
    if base == 3:
        split = shifted_sum([(4, 0, euler_factor(6, 1, _MOD8, T)),
                             (1, 2, _four_f6(9, T))], _MOD8, T)
        ext = extract(big, Progression(3, 2)).truncate(T)
        return _all_matched(
            "base-3 induction step (mod 8)",
            "split and 3n+2 extraction both verified",
            report_from_comparison("4*f1^6 = 4*f3^2 + 4*q^2*f9^6 (mod 8)",
                                   big, split, through=T),
            report_from_comparison("extract(4*f1^6, 3n+2) = 4*f3^6 (mod 8)",
                                   ext, _four_f6(3, T), through=T))
    if base == 5:
        ext = extract(big, Progression(5, 1)).truncate(T)
        return _first_match("extract(4*f1^6, 5n+1) = {} (mod 8)", ext,
                            _rhs_candidates("inf3", T))
    ext = extract(extract(big, Progression(7, 5)), Progression(7, 1)).truncate(T)
    return report_from_comparison(
        "extract(extract(4*f1^6, 7n+5), 7n+1) = 4*f1^6 (mod 8)", ext,
        _four_f6(1, T), through=T)


# The (instance, corrected_offset) rows ``verify_suite`` checks, in report order.
_SUITE_ROWS = (*((FamilyInstance(a, b, c, v), False) for a, b, c, v in (
    (0, 0, 0, "inf"), (1, 0, 0, "inf"), (0, 1, 0, "inf"), (0, 0, 1, "inf"),
    (0, 0, 0, "inf2"), (0, 0, 0, "inf3"), (0, 0, 0, "inf4"))),
    (FamilyInstance(0, 0, 0, "inf4"), True))


def verify_suite(T: int) -> list[IdentityReport]:
    """Every family check, in report order: the eight instance rows, each
    read to n_max = (20000 - o) // s from one expansion of p-bar_{-5} mod 8
    through q^20000, then the base-3, 5 and 7 induction steps through
    q^(T-1).  Every right-hand side is one sparse theta series, so every
    T >= 1 runs without a dense product."""
    return [*_check_instances(_SUITE_ROWS, 20_000),
            *(verify_induction_step(base, T) for base in (3, 5, 7))]
