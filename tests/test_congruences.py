"""Congruence claims, the theorem/conjecture tables, the enumeration oracle
and the power-lifting congruence."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcongruence.congruences import (CONJECTURE_PATTERN, THEOREM_CLAIMS,
                                     ClaimReport, CongruenceClaim,
                                     check_claim, check_lift_congruence,
                                     conjecture_claims,
                                     enumerate_colored_overpartitions,
                                     enumerate_colored_partitions, is_prime,
                                     observed_two_adic_valuation,
                                     run_theorems, scan_conjecture,
                                     _min_two_adic_valuation)
from qcongruence.dissect import Progression, extract
from qcongruence.eta import overpartition_gf
from qcongruence.series import EXACT


def claim(t, m, j, k):
    return CongruenceClaim(t, m, j, k)


def test_claim_tables_have_expected_shape():
    assert len(THEOREM_CLAIMS) == 24
    by_t = {}
    for c in THEOREM_CLAIMS:
        by_t.setdefault(c.t, []).append(c)
    assert sorted(by_t) == [5, 7, 11, 13]
    assert [len(by_t[t]) for t in (5, 7, 11, 13)] == [7, 5, 5, 7]
    assert len(CONJECTURE_PATTERN) == 7
    # the j=7 congruence: 128 for t=5 and 7, 64 for 11, 256 for 13
    top = {c.t: c.k for c in THEOREM_CLAIMS if c.j == 7}
    assert top == {5: 7, 7: 7, 11: 6, 13: 8}


def test_check_claim_t5_mod128_holds():
    rep = check_claim(claim(5, 8, 7, 7), 500)
    assert rep.holds and rep.counterexample is None


def test_check_claim_t13_mod256_holds():
    rep = check_claim(claim(13, 8, 7, 8), 500)
    assert rep.holds


def test_check_claim_t5_mod256_fails_at_n0():
    # 37760 = 128 * 295 with 295 odd, so the very first value refutes 2^8
    rep = check_claim(claim(5, 8, 7, 8), 500)
    assert not rep.holds
    assert rep.counterexample == (0, 128)


def test_run_theorems_small_bound():
    reports = run_theorems(n_max=60)
    assert len(reports) == 24
    assert all(r.holds for r in reports)


def test_run_theorems_n_max_zero():
    reports = run_theorems(n_max=0)
    assert all(r.holds for r in reports)
    assert all(r.n_max == 0 for r in reports)


def test_all_theorem_claims_are_sharp():
    # strengthening any claim to 2^(k+1) fails within n <= 400: the observed
    # minimal 2-adic valuations equal the claimed k everywhere
    for c in THEOREM_CLAIMS:
        assert observed_two_adic_valuation(c.t, c.m, c.j, 400) == c.k
        strengthened = CongruenceClaim(c.t, c.m, c.j, c.k + 1, c.source)
        assert not check_claim(strengthened, 400).holds


_WORD = st.builds(lambda u, v: (u << v) % (1 << 64),
                  st.integers(0, (1 << 64) - 1), st.integers(0, 63))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.lists(st.one_of(st.just(0), _WORD), min_size=1, max_size=40))
@example([0])
@example([0] * 7)
@example([0, 1 << 63, 0])
@example([(1 << 64) - 1, 0])
def test_min_two_adic_valuation_matches_per_value_loop(stream):
    want = min(((v & -v).bit_length() - 1 for v in stream if v), default=64)
    got = _min_two_adic_valuation(np.array(stream, dtype=np.uint64))
    assert got == want


def test_monotone_moduli():
    # holding mod 2^k implies holding mod 2^(k-1)
    for c in THEOREM_CLAIMS:
        if c.k == 1:
            continue
        weakened = CongruenceClaim(c.t, c.m, c.j, c.k - 1, c.source)
        assert check_claim(weakened, 120).holds


def test_t5_j7_previously_known_mod32_also_holds():
    assert check_claim(claim(5, 8, 7, 5), 500).holds


def test_verdicts_ring_independent():
    # recompute every claim exactly and reduce, comparing verdicts
    n_max = 50
    for t in (5, 7, 11, 13):
        gf = overpartition_gf(t, EXACT, 8 * n_max + 8)
        for c in (c for c in THEOREM_CLAIMS if c.t == t):
            stream = extract(gf, Progression(c.m, c.j)).coeffs()[:n_max + 1]
            exact_holds = all(v % (1 << c.k) == 0 for v in stream)
            assert exact_holds == check_claim(c, n_max).holds


def test_scan_conjecture_subsumed_prime():
    # t=5 instances are implied by the proved theorem claims
    reports = scan_conjecture(5, n_max=1000)
    assert len(reports) == 7
    assert all(r.holds for r in reports)


def test_scan_conjecture_small_prime():
    assert all(r.holds for r in scan_conjecture(3, n_max=1000))


def test_scan_conjecture_rejects_nonprime_and_big():
    with pytest.raises(ValueError):
        scan_conjecture(4)
    with pytest.raises(ValueError):
        scan_conjecture(10007)


def test_conjecture_claims_pattern():
    cs = conjecture_claims(19)
    assert [(c.m, c.j, c.k) for c in cs] == list(CONJECTURE_PATTERN)
    assert all(c.t == 19 and c.source == "Conjecture" for c in cs)


def test_is_prime_basics():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_failing_claim_is_a_verdict_not_an_error():
    # a deliberately false user claim: single overpartitions at 8n+7 mod 128
    rep = check_claim(claim(1, 8, 7, 7), 10)
    assert not rep.holds
    n, value = rep.counterexample
    assert n == 0 and value == 64  # 64 overpartitions of 7
    assert value % (1 << 7) != 0


def test_claim_validation():
    with pytest.raises(ValueError):
        CongruenceClaim(5, 8, 8, 1)
    with pytest.raises(ValueError):
        CongruenceClaim(5, 8, 1, 0)
    with pytest.raises(ValueError):
        CongruenceClaim(5, 8, 1, 1, source="nonsense")


def test_claim_report_invariant():
    c = claim(5, 8, 7, 7)
    with pytest.raises(ValueError):
        ClaimReport(claim=c, n_max=5, holds=True, counterexample=(0, 1))
    with pytest.raises(ValueError):
        ClaimReport(claim=c, n_max=5, holds=False)


# -- enumeration oracle --------------------------------------------------------


def test_oracle_single_color_hand_values():
    assert [enumerate_colored_overpartitions(1, n) for n in range(4)] == [1, 2, 4, 8]


def test_oracle_two_colors_of_one():
    # two colors x overlined-or-not
    assert enumerate_colored_overpartitions(2, 1) == 4


def test_oracle_matches_generating_function():
    for t in (1, 2, 3):
        gf = overpartition_gf(t, EXACT, 11)
        for n in range(11):
            assert enumerate_colored_overpartitions(t, n) == gf.coefficient(n)


def test_oracle_t5_matches_generating_function():
    gf = overpartition_gf(5, EXACT, 9)
    for n in range(9):
        assert enumerate_colored_overpartitions(5, n) == gf.coefficient(n)


def test_oracle_bounds_enforced():
    with pytest.raises(ValueError):
        enumerate_colored_overpartitions(6, 2)
    with pytest.raises(ValueError):
        enumerate_colored_overpartitions(2, 15)
    with pytest.raises(ValueError):
        enumerate_colored_partitions(1, 15)


# -- power-lifting congruence ----------------------------------------------------


@pytest.mark.parametrize("m,k", [(1, 1), (1, 3), (2, 2)])
def test_lift_congruence_examples(m, k):
    assert check_lift_congruence(m, k, 500).matched


def test_lift_congruence_range():
    for m in (1, 2, 3):
        for k in (1, 2, 3, 4, 5):
            assert check_lift_congruence(m, k, 200).matched, (m, k)


def test_lift_congruence_validation():
    with pytest.raises(ValueError):
        check_lift_congruence(0, 1, 10)
    with pytest.raises(ValueError):
        check_lift_congruence(1, 0, 10)
