"""Acceptance suite: every criterion at its stated bound, one printed
PASS/FAIL line per criterion (run with -s or -v to see them).

All checks are exact coefficient comparisons; there are no numeric
tolerances anywhere.  Criterion 5 contains one deliberate red line: the
fourth family variant as stated is refuted by the computation itself (its
progression offset lands on a residue class whose stream vanishes mod 8),
and the checker is required to report that honestly rather than match a
repaired claim; the companion test pins the corrected-offset variant green.
"""

import random
import time

from qcongruence import (EXACT, FamilyInstance, LaurentSeries, Progression,
                         builtin_certificate, certificate_common_factor,
                         THEOREM_CLAIMS, check_claims,
                         CongruenceClaim, conjecture_claims,
                         dissection3_f1cubed, dissection5, dissection7,
                         enumerate_colored_overpartitions, extract, agree,
                         mod2k, overpartition_gf, ramanathan, verify_eq1,
                         verify_family_instance, verify_witness)
from qcongruence.cli import Report

from helpers import check_lift_congruence


def _line(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))


def test_criterion_1_theorem_suite():
    start = time.perf_counter()
    reports = check_claims(THEOREM_CLAIMS, 2000)
    elapsed = time.perf_counter() - start
    failures = [r for r in reports if not r.holds]
    ok = len(reports) == 24 and not failures and elapsed < 120
    _line("1 theorem suite (24 congruences, n <= 2000)", ok,
          f"{len(reports) - len(failures)}/24 hold in {elapsed:.1f}s")
    assert len(reports) == 24
    assert not failures, [r.summary() for r in failures]
    assert elapsed < 120


def test_criterion_2_witness_certificate():
    rep = verify_witness(builtin_certificate(), 200)
    gcd, v2 = certificate_common_factor(builtin_certificate())
    ok = rep.identity_matched and v2 == 7
    _line("2 witness certificate (T=200, exact)", ok,
          f"identity {'matched' if rep.identity_matched else 'MISMATCH'}, "
          f"gcd 2-adic valuation {v2}")
    assert rep.identity_matched
    assert v2 == 7
    assert gcd % 128 == 0


def test_criterion_3_dissection_suite():
    reports = [
        dissection3_f1cubed(1000),
        dissection5(1000),
        dissection7(1000),
        ramanathan(5, 600),
        ramanathan(7, 600),
        ramanathan(13, 600),
    ]
    bad = [r.summary() for r in reports if not r.matched]
    _line("3 dissection suite (q^1000 / q^600, exact)", not bad,
          f"{len(reports) - len(bad)}/6 matched")
    assert not bad, bad


def test_criterion_4_oracle_equivalence():
    checked = 0
    for t in (1, 2, 3):
        gf = overpartition_gf(t, EXACT, 11)
        for n in range(11):
            assert enumerate_colored_overpartitions(t, n) == gf.coefficient(n), (t, n)
            checked += 1
    gf5 = overpartition_gf(5, EXACT, 9)
    for n in range(9):
        assert enumerate_colored_overpartitions(5, n) == gf5.coefficient(n), n
        checked += 1
    _line("4 oracle equivalence (t<=3 n<=10; t=5 n<=8)", True,
          f"{checked} coefficients enumerated")


# family instances with n_max chosen so s*n_max + o <= 10^5 for each
_FAMILY_CASES = [
    ((0, 0, 0, "inf"), 2000),
    ((1, 0, 0, "inf"), 270),
    ((0, 1, 0, "inf"), 97),
    ((0, 0, 1, "inf"), 49),
    ((0, 0, 0, "inf2"), 800),
    ((0, 0, 0, "inf3"), 480),
    ((0, 0, 0, "inf4"), 340),
]


def test_criterion_5_family_suite():
    eq1 = verify_eq1(300)
    results = [("eq1", eq1.matched, eq1.note)]
    for (a, b, c, variant), n_max in _FAMILY_CASES:
        fi = FamilyInstance(a, b, c, variant)
        s, o = fi.progression()
        assert s * n_max + o <= 100_000
        rep = verify_family_instance(fi, n_max)
        results.append((fi.describe(), rep.matched, rep.note))
    bad = [(name, note) for name, okay, note in results if not okay]
    _line("5 family suite (eq1 at T=300 + 7 instances)", not bad,
          "; ".join(f"{n}: {note}" for n, _, note in results))
    assert not bad, (
        f"family checks failed: {bad} — the inf4 variant as stated is "
        f"refuted by the expansion itself (its offset 2*7^(2c+1) lies in the "
        f"8n+6 residue class, which vanishes mod 8); the corrected offset "
        f"6*7^(2c+1) passes, see the companion test")


def test_criterion_5_companion_corrected_inf4():
    fi = FamilyInstance(0, 0, 0, "inf4")
    rep = verify_family_instance(fi, 340, corrected_offset=True)
    _line("5b corrected-offset inf4 companion", rep.matched, rep.note)
    assert rep.matched
    assert rep.note == "rhs 4*q*f7^6"  # the q-factor selection is recorded


def test_criterion_6_conjecture_scan():
    failures = []
    claims = [c for q in (3, 17, 19, 23, 29, 31) for c in conjecture_claims(q)]
    for rep in check_claims(claims, 1000):
        if not rep.holds:
            failures.append(rep)
            # behavior contract: a counterexample must be structured
            n, v = rep.counterexample
            assert v % (1 << rep.claim.k) != 0
    _line("6 conjecture scan (6 primes, n <= 1000)", True,
          "all hold" if not failures else
          f"{len(failures)} counterexamples recorded")
    # the expected observation, as opposed to the behavior contract:
    assert not failures, [r.summary() for r in failures]


def test_criterion_6_counterexample_contract():
    # the scanner's failure path: a false claim yields a structured record
    # and drives the CLI report (hence exit code) to failure
    false_claim = CongruenceClaim(1, 8, 7, 7)
    reports = check_claims([false_claim], 50)
    rep = reports[0]
    assert not rep.holds and rep.counterexample == (0, 64)
    cli_report = Report("verify conjecture", {})
    cli_report.add_reports(reports)
    assert not cli_report.ok
    (summary, record), = cli_report.rows
    assert "counterexample_n=0" in record and "(n=0: value ≡ 64 mod 128)" in summary
    _line("6b counterexample behavior contract", True,
          "structured record + failure status")


def test_criterion_7_property_suite():
    rng = random.Random(20260810)

    def random_series(ring, n=60):
        return LaurentSeries(0, [rng.randint(-30, 30) for _ in range(n)], ring)

    # stream partition: sum_j q^j * (extract at (m, j), re-substituted) == a
    for m in (2, 3, 5, 7, 8):
        a = random_series(EXACT)
        total = None
        for j in range(m):
            piece = extract(a, Progression(m, j)).substitute_qpow(m).shift(j)
            total = piece if total is None else total.add(piece)
        assert agree(total, a, through=a.trunc), f"stream partition m={m}"

    # lifting congruence for m <= 3, k <= 5 at T=500
    for m in (1, 2, 3):
        for k in (1, 2, 3, 4, 5):
            assert check_lift_congruence(m, k, 500).matched, (m, k)

    # mod-2^k reduction commutes with exact arithmetic through q^100
    for k in range(1, 9):
        ring = mod2k(k)
        a = random_series(EXACT, 100)
        b = random_series(EXACT, 100)
        exact = a.mul(b).to_ring(ring)
        modular = a.to_ring(ring).mul(b.to_ring(ring))
        assert exact.coeffs() == modular.coeffs(), f"commutation k={k}"
        inv_source = LaurentSeries(0, [1] + [rng.randint(-9, 9) for _ in range(99)],
                                   EXACT)
        exact_inv = inv_source.inverse().to_ring(ring)
        modular_inv = inv_source.to_ring(ring).inverse()
        assert exact_inv.coeffs() == modular_inv.coeffs(), f"inverse k={k}"

    _line("7 property suite (stream partition, lift congruence, "
          "ring commutation)", True,
          "seeded deterministic run; hypothesis suites cover the rest")
