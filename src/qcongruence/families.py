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
"""

from __future__ import annotations

from dataclasses import dataclass

from .dissect import (IdentityReport, Progression, extract,
                      report_from_comparison)
from .eta import EtaQuotient, expand, overpartition_residues
from .series import LaurentSeries, euler_factor, mod2k

VARIANTS = ("inf", "inf2", "inf3", "inf4")

DEFAULT_BUDGET = 100_000

_MOD8 = mod2k(3)


@dataclass(frozen=True)
class FamilyInstance:
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
        a, b, c = self.alpha, self.beta, self.gamma
        base = 3 ** (2 * a) * 5 ** (2 * b) * 7 ** (2 * c)
        if self.variant == "inf":
            return 8 * base, 2 * base
        if self.variant == "inf2":
            return 8 * base * 3, 2 * base * 9
        if self.variant == "inf3":
            return 8 * base * 5, 2 * base * 5
        return 8 * base * 7, 2 * base * 7

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


def _rhs_candidates(variant: str, T: int) -> list[tuple[str, LaurentSeries]]:
    """Stated right-hand side first; for inf3/inf4 the q-toggled variant is
    offered second so the checker can record which one the data selects."""
    if variant == "inf":
        return [("4*f1^6", euler_factor(1, 1, 6, _MOD8, T).scale(4))]
    if variant == "inf2":
        return [("4*f3^6", euler_factor(3, 3, 6, _MOD8, T).scale(4))]
    d = 5 if variant == "inf3" else 7
    plain = euler_factor(d, d, 6, _MOD8, T).scale(4)
    shifted = plain.truncate(T - 1).shift(1) if T > 1 else None
    out = []
    if shifted is not None:
        out.append((f"4*q*f{d}^6", shifted))
    out.append((f"4*f{d}^6", plain))
    return out


def verify_family_instance(fi: FamilyInstance, n_max: int,
                           corrected_offset: bool = False) -> IdentityReport:
    """Extract the instance's progression from the 5-colored overpartition
    expansion mod 8 and compare against the family right-hand side.

    The report's note records which candidate right-hand side matched (or
    that neither did)."""
    s, o = fi.corrected_progression() if corrected_offset else fi.progression()
    if s * n_max + o > DEFAULT_BUDGET:
        raise ValueError(
            f"instance needs expansion through q^{s * n_max + o}, over the "
            f"budget of {DEFAULT_BUDGET}")
    stream = LaurentSeries(0, overpartition_residues(5, _MOD8, s, n_max)[o], _MOD8)
    through = n_max + 1
    name = fi.describe() + (" [corrected offset]" if corrected_offset else "")
    candidates = _rhs_candidates(fi.variant, through)
    first_report = None
    for label, rhs in candidates:
        rep = report_from_comparison(name, stream, rhs, through=through,
                                     note=f"rhs {label}")
        if rep.matched:
            return rep
        if first_report is None:
            first_report = rep
    if len(candidates) > 1:
        return IdentityReport(
            name=name, truncation=first_report.truncation, matched=False,
            first_mismatch=first_report.first_mismatch,
            note="neither q-factor candidate matched")
    return first_report


def verify_eq1(T: int) -> IdentityReport:
    """The witness-derived congruence for the 8n+2 stream:

        sum p-bar_{-5}(8n+2) q^n  ==  4 * f4^179 / (f1^78 f2^36 f8^70)   (mod 8)

    also reduced to 4*f1^6 mod 8 via f_m^(2^k) == f_{2m}^(2^(k-1)).  The
    stream is the overpartition one: the plain 5-colored-partition reading
    fails its first coefficient, and the report records that resolution.
    """
    stream = LaurentSeries(0, overpartition_residues(5, _MOD8, 8, T - 1)[2], _MOD8)
    quotient = expand(EtaQuotient(8, {1: -78, 2: -36, 4: 179, 8: -70}), _MOD8, T)
    rhs = quotient.scale(4)
    rep = report_from_comparison(
        "8n+2 stream = 4*f4^179/(f1^78*f2^36*f8^70) (mod 8)", stream, rhs,
        through=T, note="stream read as overpartitions")
    if not rep.matched:
        return rep
    reduced = euler_factor(1, 1, 6, _MOD8, T).scale(4)
    rep2 = report_from_comparison("rhs = 4*f1^6 (mod 8)", rhs, reduced, through=T)
    if not rep2.matched:
        return rep2
    return IdentityReport(
        name="8n+2 stream = 4*f4^179/(f1^78*f2^36*f8^70) = 4*f1^6 (mod 8)",
        truncation=min(rep.truncation, rep2.truncation), matched=True,
        note="stream read as overpartitions; reduction to 4*f1^6 checked")


def verify_induction_step(base: int, T: int) -> IdentityReport:
    """The finite series congruence each induction step rests on, mod 8.

    base 3: 4*f1^6 == 4*f3^2 + 4*q^2*f9^6, and the 3n+2 extraction of
    4*f1^6 equals 4*f3^6.
    base 5: the 5n+1 extraction of 4*f1^6 equals 4*q*f5^6.
    base 7: extracting 7n+5 then 7n+1 from 4*f1^6 returns 4*f1^6.
    """
    if base not in (3, 5, 7):
        raise ValueError("induction step base must be 3, 5 or 7")
    if T < 2:
        raise ValueError("induction step checks need T >= 2")
    if base == 3:
        # input expanded far enough that the extracted stream reaches T too
        big = euler_factor(1, 1, 6, _MOD8, 3 * T + 3).scale(4)
        rhs = euler_factor(3, 3, 2, _MOD8, T).scale(4)
        rhs = rhs.add(euler_factor(9, 9, 6, _MOD8, T - 2).scale(4).shift(2))
        rep = report_from_comparison("4*f1^6 = 4*f3^2 + 4*q^2*f9^6 (mod 8)",
                                     big, rhs, through=T)
        if not rep.matched:
            return rep
        ext = extract(big, Progression(3, 2)).truncate(T)
        target = euler_factor(3, 3, 6, _MOD8, T).scale(4)
        rep2 = report_from_comparison("extract(4*f1^6, 3n+2) = 4*f3^6 (mod 8)",
                                      ext, target, through=T)
        if not rep2.matched:
            return rep2
        return IdentityReport(
            name="base-3 induction step (mod 8)",
            truncation=min(rep.truncation, rep2.truncation), matched=True,
            note="split and 3n+2 extraction both verified")
    if base == 5:
        big = euler_factor(1, 1, 6, _MOD8, 5 * T + 2).scale(4)
        ext = extract(big, Progression(5, 1)).truncate(T)
        stated = euler_factor(5, 5, 6, _MOD8, T - 1).scale(4).shift(1)
        rep = report_from_comparison("extract(4*f1^6, 5n+1) = 4*q*f5^6 (mod 8)",
                                     ext, stated, through=T, note="rhs 4*q*f5^6")
        if rep.matched:
            return rep
        alt = euler_factor(5, 5, 6, _MOD8, T).scale(4)
        rep2 = report_from_comparison("extract(4*f1^6, 5n+1) = 4*f5^6 (mod 8)",
                                      ext, alt, through=T, note="rhs 4*f5^6")
        return rep2 if rep2.matched else rep
    big = euler_factor(1, 1, 6, _MOD8, 49 * T + 13).scale(4)
    ext = extract(extract(big, Progression(7, 5)), Progression(7, 1)).truncate(T)
    target = euler_factor(1, 1, 6, _MOD8, T).scale(4)
    return report_from_comparison(
        "extract(extract(4*f1^6, 7n+5), 7n+1) = 4*f1^6 (mod 8)", ext, target,
        through=T)
