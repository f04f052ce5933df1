"""Congruence claims, the theorem/conjecture tables, the enumeration oracle
and the power-lifting congruence."""

import random
import time
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from qcongruence.congruences import (CONJECTURE_PATTERN, THEOREM_CLAIMS,
                                     CongruenceClaim, check_claims,
                                     conjecture_claims,
                                     enumerate_colored_overpartitions, is_prime,
                                     observed_two_adic_valuations,
                                     _min_two_adic_valuation)
from qcongruence.dissect import Progression, extract
from qcongruence import congruences
from qcongruence.eta import overpartition_gf, overpartition_residues
from qcongruence.series import EXACT

from helpers import check_lift_congruence
from oracles import enumerate_colored_partitions


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
    [rep] = check_claims([claim(5, 8, 7, 7)], 500)
    assert rep.holds and rep.counterexample is None


def test_check_claim_t13_mod256_holds():
    [rep] = check_claims([claim(13, 8, 7, 8)], 500)
    assert rep.holds


def test_check_claim_t5_mod256_fails_at_n0():
    # 37760 = 128 * 295 with 295 odd, so the very first value refutes 2^8
    [rep] = check_claims([claim(5, 8, 7, 8)], 500)
    assert not rep.holds
    assert rep.counterexample == (0, 128)


def test_run_theorems_small_bound():
    reports = check_claims(THEOREM_CLAIMS, 60)
    assert len(reports) == 24
    assert all(r.holds for r in reports)


def test_run_theorems_n_max_zero():
    reports = check_claims(THEOREM_CLAIMS, 0)
    assert all(r.holds for r in reports)
    assert all(r.n_max == 0 for r in reports)


def test_all_theorem_claims_are_sharp():
    # strengthening any claim to 2^(k+1) fails within n <= 400: the observed
    # minimal 2-adic valuations equal the claimed k everywhere
    for c in THEOREM_CLAIMS:
        [observed] = observed_two_adic_valuations([c.t], c.m, 400)
        assert observed[c.j] == c.k
    strengthened = [CongruenceClaim(c.t, c.m, c.j, c.k + 1, c.source)
                    for c in THEOREM_CLAIMS]
    assert not any(r.holds for r in check_claims(strengthened, 400))


def _oracle_claim_runs():
    """About 80 claims in runs of 1..6 on one (t, m), with t in {1, 2, 5, 13},
    m in {1, 4, 8, 16}, any j and k in {1, 2, 3, 5, 8, 16, 40, 64}; the
    first run pins the k-bit mask: p-bar_{-1}(7) = 64 fails 2^7 and not 2^3."""
    rng = random.Random(20261018)
    runs = [[claim(1, 8, 7, 7), claim(1, 8, 7, 3), claim(1, 8, 0, 1)]]
    while sum(map(len, runs)) < 80:
        t, m = rng.choice((1, 2, 5, 13)), rng.choice((1, 4, 8, 16))
        if (t, m) == (runs[-1][0].t, runs[-1][0].m):
            continue  # keep the runs apart
        runs.append([claim(t, m, rng.randrange(m),
                           rng.choice((1, 2, 3, 5, 8, 16, 40, 64)))
                     for _ in range(rng.randint(1, 6))])
    return runs


@pytest.mark.parametrize("n_max", [0, 37])
def test_check_claims_matches_exact_scan_per_claim(n_max):
    runs = _oracle_claim_runs()
    claims = [c for run in runs for c in run]
    # the list exercises what a run may share: a (t, m) in several runs, a
    # t next to itself with another m, and runs mixing k
    heads = [(run[0].t, run[0].m) for run in runs]
    assert len(set(heads)) < len(heads)
    assert any(a[0] == b[0] for a, b in zip(heads, heads[1:]))
    assert sum(len({c.k for c in run}) > 1 for run in runs) >= 5
    gfs = {t: overpartition_gf(t, EXACT, 16 * (n_max + 1)) for t in (1, 2, 5, 13)}
    start = time.perf_counter()
    reports = check_claims(claims, n_max)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    assert [r.claim for r in reports] == claims
    for rep in reports:
        c = rep.claim
        row = extract(gfs[c.t], Progression(c.m, c.j)).coeffs()[:n_max + 1]
        want = next(((n, v % (1 << c.k)) for n, v in enumerate(row)
                     if v % (1 << c.k)), None)
        assert (rep.n_max, rep.counterexample) == (n_max, want), c
    assert reports[0].counterexample == (0, 64) and reports[1].holds
    assert 0 < sum(r.ms for r in reports) <= elapsed_ms


@pytest.mark.parametrize("row", THEOREM_CLAIMS, ids=lambda c: f"t{c.t}-j{c.j}-k{c.k}")
def test_claims_have_period_two_to_the_k_minus_1_in_t(row):
    # the overpartition series is phi(-q)^-t, and (1 + 2X)^(2^(k-1)) == 1
    # (mod 2^k); one bit more than claimed gives counterexamples to compare
    for k in (row.k, row.k + 1):
        at_t, shifted = check_claims(
            [claim(t, row.m, row.j, k) for t in (row.t, row.t + (1 << (k - 1)))], 150)
        assert (at_t.verdict, at_t.counterexample) == \
            (shifted.verdict, shifted.counterexample)


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
    got = _min_two_adic_valuation(array("Q", stream))
    assert got == want


@pytest.mark.parametrize("t, want, tables", [
    # phi(-q)^(2^16) == 1 (mod 2^17): every row j >= 1 vanishes mod 2^8 and
    # mod 2^16, so its minimum must be read from a third table, mod 2^64
    (2**16, [0, 17, 17, 19, 17, 18, 19, 20], [8, 16, 64]),
    (2**16 + 3, [0, 1, 3, 4, 1, 4, 4, 6], [8]),
])
def test_valuations_climb_the_ladder_when_a_row_vanishes(
        monkeypatch, t, want, tables):
    read = []

    def residues(ts, ring, m, n_max):
        read.append(ring.k)
        return overpartition_residues(ts, ring, m, n_max)

    monkeypatch.setattr(congruences, "overpartition_residues", residues)
    assert observed_two_adic_valuations([t], 8, 50) == [want]
    assert read == tables


def test_valuations_climb_the_ladder_only_for_the_t_that_need_it(monkeypatch):
    # the five t share one mod-2^8 pass; only 2^16 and 2^17 have a row that
    # vanishes mod 2^8 or mod 2^16, and the later passes read those two alone
    ts = [3, 2**16, 5, 2**17, 2**16 + 3]
    read = []

    def residues(ts, ring, m, n_max):
        read.append((list(ts), ring.k))
        return overpartition_residues(ts, ring, m, n_max)

    monkeypatch.setattr(congruences, "overpartition_residues", residues)
    got = observed_two_adic_valuations(ts, 8, 50)
    assert read == [(ts, 8), ([2**16, 2**17], 16), ([2**16, 2**17], 64)]
    monkeypatch.undo()
    assert got == [observed_two_adic_valuations([t], 8, 50)[0] for t in ts]
    assert got[1] == [0, 17, 17, 19, 17, 18, 19, 20]


def test_claims_and_valuations_share_tables_and_match_their_own_reads():
    # a repeated prime, a prime whose 8n+7 row vanishes mod 2^8 and is read
    # again mod 2^16, and claims that fail: a claim read from its t's table
    # mod 2^8 gets check_claims' verdict and counterexample, and every
    # minimum is the exact one
    ts = [3, 13, 3]
    claims = [c for t in ts for c in conjecture_claims(t)]
    claims += [claim(3, 8, 7, 7), claim(13, 8, 0, 1), claim(13, 8, 7, 8)]
    start = time.perf_counter()
    reports, vals = congruences.check_with_valuations(claims, ts, 8, 200)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    assert [(r.claim, r.counterexample) for r in reports] == \
        [(r.claim, r.counterexample) for r in check_claims(claims, 200)]
    assert [r.holds for r in reports[-3:]] == [False, False, True]
    assert 0 < sum(r.ms for r in reports) <= elapsed_ms
    for t, got in zip(ts, vals):
        gf = overpartition_gf(t, EXACT, 8 * 201)
        rows = [extract(gf, Progression(8, j)).coeffs()[:201] for j in range(8)]
        assert got == [min((v & -v).bit_length() - 1 for v in row if v)
                       for row in rows]
    assert vals[1][7] == 8


def test_monotone_moduli():
    # holding mod 2^k implies holding mod 2^(k-1)
    weakened = [CongruenceClaim(c.t, c.m, c.j, c.k - 1, c.source)
                for c in THEOREM_CLAIMS if c.k > 1]
    assert all(r.holds for r in check_claims(weakened, 120))


def test_t5_j7_previously_known_mod32_also_holds():
    assert check_claims([claim(5, 8, 7, 5)], 500)[0].holds


def test_verdicts_ring_independent():
    # recompute every claim exactly and reduce, comparing verdicts
    n_max = 50
    gfs = {t: overpartition_gf(t, EXACT, 8 * n_max + 8) for t in (5, 7, 11, 13)}
    for rep in check_claims(THEOREM_CLAIMS, n_max):
        c = rep.claim
        stream = extract(gfs[c.t], Progression(c.m, c.j)).coeffs()[:n_max + 1]
        exact_holds = all(v % (1 << c.k) == 0 for v in stream)
        assert exact_holds == rep.holds


def test_scan_conjecture_subsumed_prime():
    # t=5 instances are implied by the proved theorem claims
    reports = check_claims(conjecture_claims(5), 1000)
    assert len(reports) == 7
    assert all(r.holds for r in reports)


def test_scan_conjecture_small_prime():
    assert all(r.holds for r in check_claims(conjecture_claims(3), 1000))


def test_scan_conjecture_rejects_nonprime_and_big():
    with pytest.raises(ValueError, match="4 is not prime"):
        conjecture_claims(4)
    with pytest.raises(ValueError, match="primes q <= 10"):
        conjecture_claims(10007)


def test_conjecture_claims_pattern():
    cs = conjecture_claims(19)
    assert [(c.m, c.j, c.k) for c in cs] == list(CONJECTURE_PATTERN)
    assert all(c.t == 19 and c.source == "Conjecture" for c in cs)


def test_is_prime_basics():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_failing_claim_is_a_verdict_not_an_error():
    # a deliberately false user claim: single overpartitions at 8n+7 mod 128
    [rep] = check_claims([claim(1, 8, 7, 7)], 10)
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
    # residue tables mod 2^k are uint64 words, so k stops at 64
    with pytest.raises(ValueError, match="k=65 is over 64"):
        CongruenceClaim(5, 8, 7, 65)


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
