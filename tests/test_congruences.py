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
from qcongruence.series import EXACT, mod2k

from helpers import check_lift_congruence
from oracles import enumerate_colored_partitions


def claim(t, m, j, k):
    return CongruenceClaim(t, m, j, k)


@pytest.fixture
def reads(monkeypatch):
    """Each read ``congruences`` makes, as (ts, k, m, n_max), in order; k is
    None for the read of the first values over Z."""
    log = []

    def residues(ts, ring, m, n_max):
        log.append((list(ts), ring.k, m, n_max))
        return overpartition_residues(ts, ring, m, n_max)

    monkeypatch.setattr(congruences, "overpartition_residues", residues)
    return log


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
        assert (rep.n_max, rep.counterexample) == (n_max, _first_nonzero(row, c.k)), c
    assert reports[0].counterexample == (0, 64) and reports[1].holds
    assert 0 < sum(r.ms for r in reports) <= elapsed_ms


def _exact_rows(t, m, n_max):
    """Rows j = 0 .. m-1 of p-bar_{-t}(m*n + j), n <= n_max, over Z, from
    Miller's recurrence: t is never reduced."""
    gf = overpartition_gf(t, EXACT, m * (n_max + 1))
    return [extract(gf, Progression(m, j)).coeffs()[:n_max + 1] for j in range(m)]


def _first_nonzero(row, k):
    """The first (n, value mod 2^k) of ``row`` nonzero mod 2^k, else None."""
    return next(((n, v % (1 << k)) for n, v in enumerate(row) if v % (1 << k)), None)


@pytest.mark.parametrize("row", THEOREM_CLAIMS, ids=lambda c: f"t{c.t}-j{c.j}-k{c.k}")
def test_claims_have_period_two_to_the_k_minus_1_in_t(row):
    # the overpartition series is phi(-q)^-t, and (1 + 2X)^(2^(k-1)) == 1
    # (mod 2^k).  check_claims answers t + 2^(k-1) from t's table, so each
    # t's counterexample is also read from its own series over Z; one bit
    # more than claimed gives counterexamples to compare
    for k in (row.k, row.k + 1):
        ts = (row.t, row.t + (1 << (k - 1)))
        reports = check_claims([claim(t, row.m, row.j, k) for t in ts], 150)
        own = [_first_nonzero(_exact_rows(t, row.m, 150)[row.j], k) for t in ts]
        assert [r.counterexample for r in reports] == own
        assert own[0] == own[1] and (own[0] is None) == (k == row.k)


@pytest.mark.parametrize("t, shifted, k", [
    (3, 19, 5), (13, 29, 5), (5, 69, 7), (2, 10, 4),
    (3, 11, 5),  # 2^(k-2) apart: the series differ
])
def test_overpartitions_mod_2k_depend_only_on_t_mod_2_to_the_k_minus_1(t, shifted, k):
    # Miller's recurrence over Z never reduces t, while the mod-2^k kernel
    # reduces it mod 2^(k-1) before it builds anything: the two routes agree
    # for t and its shift, and the shift keeps the series iff 2^(k-1) | it
    ring, N = mod2k(k), 1500
    exact = [overpartition_gf(s, EXACT, N).to_ring(ring) for s in (t, shifted)]
    assert [overpartition_gf(s, ring, N) for s in (t, shifted)] == exact
    assert (exact[0] == exact[1]) == ((shifted - t) % (1 << (k - 1)) == 0)


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


@pytest.mark.parametrize("seed", range(4))
def test_min_two_adic_valuation_of_strided_rows(seed):
    # a table's row is a strided view of one expansion's words, read as one
    # int and folded: every row of m against the per-word minimum
    rng = random.Random(seed)
    m = rng.choice([1, 2, 3, 8, 24])
    words = array("Q", [rng.getrandbits(64) << rng.randrange(64) & (1 << 64) - 1
                        if rng.random() < 0.3 else 0
                        for _ in range(m * rng.randrange(1, 2002) + rng.randrange(m))])
    for j in range(m):
        row = memoryview(words)[j::m]
        want = min(((v & -v).bit_length() - 1 for v in row if v), default=64)
        assert _min_two_adic_valuation(row) == want
    one = memoryview(array("Q", [0, 5 << 40, 0]))[1::3]
    assert _min_two_adic_valuation(one) == 40
    assert _min_two_adic_valuation(memoryview(array("Q", [0] * 12))[2::4]) == 64


@pytest.mark.parametrize("t, want, tables", [
    # phi(-q)^(2^16) == 1 (mod 2^17): the first values p-bar(1..7), read
    # over Z (n_max 0), have valuations up to 20, so the one read of the
    # table is mod 2^21, where every row's minimum is decided
    (2**16, [0, 17, 17, 19, 17, 18, 19, 20], [(None, 0), (21, 50)]),
    # no first value reaches 2^8: read mod 2^8, as 3, its class mod 2^7
    (2**16 + 3, [0, 1, 3, 4, 1, 4, 4, 6], [(None, 0), (8, 50)]),
])
def test_valuations_read_at_the_precision_their_first_values_fix(reads, t, want, tables):
    assert observed_two_adic_valuations([t], 8, 50) == [want]
    assert [(k, n_max) for _, k, _, n_max in reads] == tables


def test_valuations_read_each_t_once_at_its_own_precision(monkeypatch, reads):
    # one read of the five t's first values over Z fixes each t's precision:
    # 3, 5 and 2^16 + 3 need 2^8, and 2^16 + 3 is 3's class mod 2^7, so
    # they make two tables; 2^16 and 2^17 are read once each, mod 2^21 and
    # 2^22
    ts = [3, 2**16, 5, 2**17, 2**16 + 3]
    got = observed_two_adic_valuations(ts, 8, 50)
    assert reads == [(ts, None, 8, 0), ([3, 5], 8, 8, 50), ([2**16], 21, 8, 50),
                     ([2**17], 22, 8, 50)]
    monkeypatch.undo()
    assert got == [observed_two_adic_valuations([t], 8, 50)[0] for t in ts]
    assert got[1] == [0, 17, 17, 19, 17, 18, 19, 20]


def _exact_minima(t, m, n_max):
    """The least 2-adic valuation of each row over Z, floored at 64."""
    return [min(64, *((v & -v).bit_length() - 1 for v in row))
            for row in _exact_rows(t, m, n_max)]


@pytest.mark.parametrize("m", [8, 12])
def test_valuations_of_rows_that_vanish_mod_2_8_match_exact_minima(reads, m):
    # rows that vanish mod 2^8: 2^16 and 2^17 (every row j >= 1), 4093 and
    # 8191 (minima 14..17 at m = 8), and 2^63, whose rows j >= 1 vanish
    # mod 2^64 (p-bar(1) = 2t = 2^64), so they are read mod 2^64 and are 64
    ts = [2**16, 2**17, 4093, 8191, 2**63]
    got = observed_two_adic_valuations(ts, m, 60)
    assert got == [_exact_minima(t, m, 60) for t in ts]
    assert got[-1] == [0] + [64] * (m - 1)
    # the first values over Z, then each t once, at 1 + its first values'
    # largest valuation
    assert reads == [(ts, None, m, 0), ([2**16], 21, m, 60), ([2**17], 22, m, 60),
                     ([4093], 17, m, 60), ([8191], 18, m, 60), ([2**63], 64, m, 60)]


def test_valuations_with_a_claim_mod_2_64_read_their_t_once(reads):
    # a claim mod 2^64 on the valuations' step puts its t's one table mod
    # 2^64, which decides every row: a row that vanishes there is 64
    [rep], [vals] = congruences.check_with_valuations(
        [claim(2**63, 8, 1, 64)], [2**63], 8, 30)
    assert reads == [([2**63], None, 8, 0), ([2**63], 64, 8, 30)]
    assert rep.holds and vals == [0] + [64] * 7


def test_t_in_one_class_mod_2_7_share_one_table(monkeypatch, reads):
    # 131 == 3 (mod 2^7), and neither's first values reach 2^8: one table
    # mod 2^8 answers both t's claims and valuations, as separate calls do,
    # and each t's minima are its own exact ones
    ts = [3, 131]
    claims = [c for t in ts for c in conjecture_claims(t)]
    reports, vals = congruences.check_with_valuations(claims, ts, 8, 300)
    assert reads == [(ts, None, 8, 0), ([3], 8, 8, 300)]
    monkeypatch.undo()
    for t, got in zip(ts, vals):
        alone = congruences.check_with_valuations(conjecture_claims(t), [t], 8, 300)
        assert [(r.claim, r.verdict, r.counterexample) for r in reports if r.claim.t == t] \
            == [(r.claim, r.verdict, r.counterexample) for r in alone[0]]
        assert [got] == alone[1] == [_exact_minima(t, 8, 300)]


def test_t_apart_mod_2_7_keep_their_own_tables(reads):
    # 67 == 3 only mod 2^6: mod 2^8 their 8n+1 rows differ from the first
    # term on, p-bar_{-3}(1) = 6 and p-bar_{-67}(1) = 134
    reports = check_claims([claim(3, 8, 1, 8), claim(67, 8, 1, 8)], 300)
    assert reads == [([3, 67], 8, 8, 300)]
    assert [r.counterexample for r in reports] == [(0, 6), (0, 134)]


# the 18 primes == 3 (mod 2^7) below 10^4: no first value reaches 2^7, so
# all have K_t = 7 and share 3's one table mod 2^8
ONE_CLASS = [3, 131, 643, 1283, 1667, 2179, 2819, 3203, 3331, 4099, 4483, 5507,
             6659, 7043, 8707, 8963, 9091, 9859]


@pytest.fixture
def folds(monkeypatch):
    """The length of each row ``congruences`` folds to its least valuation
    and each row it scans for a counterexample, as two lists in order."""
    log = {"fold": [], "scan": []}

    def fold(words):
        log["fold"].append(len(words))
        return _min_two_adic_valuation(words)

    def scan(items):  # a table's row is a memoryview; the claim list is not
        if isinstance(items, memoryview):
            log["scan"].append(len(items))
        return enumerate(items)

    monkeypatch.setattr(congruences, "_min_two_adic_valuation", fold)
    monkeypatch.setattr(congruences, "enumerate", scan, raising=False)
    return log


def test_one_class_folds_each_row_of_its_table_once(monkeypatch, reads, folds):
    # 126 claims and 18 t's valuations: one table, its 8 rows folded once
    # each, and no claim fails, so no row is scanned
    claims = [c for t in ONE_CLASS for c in conjecture_claims(t)]
    reports, vals = congruences.check_with_valuations(claims, ONE_CLASS, 8, 300)
    assert reads == [(ONE_CLASS, None, 8, 0), ([3], 8, 8, 300)]
    assert folds == {"fold": [301] * 8, "scan": []}
    assert all(r.holds for r in reports)
    monkeypatch.undo()
    alone = [congruences.check_with_valuations(conjecture_claims(t), [t], 8, 300)
             for t in ONE_CLASS]
    assert [(r.claim, r.n_max, r.verdict, r.counterexample) for r in reports] == \
        [(r.claim, r.n_max, r.verdict, r.counterexample) for a in alone for r in a[0]]
    assert vals == [a[1][0] for a in alone]
    # each t's valuations are its own list
    vals[0][7] = -1
    assert vals[1:] == [a[1][0] for a in alone[1:]]


def test_only_a_failing_claim_scans_its_row(reads, folds):
    # p-bar_{-5}(8n+7) has least valuation 7, attained at n = 0 (it is
    # 128 * odd): mod 2^7 it holds unscanned, mod 2^8 its row is scanned to
    # its first term; 8n+1 (valuation 1) fails mod 2^2 there too
    reports = check_claims([claim(5, 8, 7, 7), claim(5, 8, 7, 8), claim(5, 8, 1, 2)], 40)
    assert reads == [([5], 8, 8, 40)]
    assert folds == {"fold": [41] * 8, "scan": [41, 41]}
    assert [r.counterexample for r in reports] == [None, (0, 128), (0, 2)]


def test_claims_and_valuations_share_tables_and_match_their_own_reads():
    # a repeated prime, a prime whose 8n+7 row vanishes mod 2^8 and is read
    # mod 2^9, and claims that fail: a claim read from its t's table mod
    # 2^8 or 2^9 gets check_claims' verdict and counterexample, and every
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
    assert vals == [_exact_minima(t, 8, 200) for t in ts]
    assert vals[1][7] == 8


def test_claim_above_2_8_with_valuations_gets_check_claims_verdict():
    # p-bar_{-13}(7) = 256 * odd: read mod 2^8 it vanishes, so a claim mod
    # 2^9 must be read from a wider table than the valuations' own 2^8
    claims = [claim(13, 8, 7, 9)]
    [rep], [vals] = congruences.check_with_valuations(claims, [13], 8, 200)
    [alone] = check_claims(claims, 200)
    assert (rep.verdict, rep.counterexample) == ("fails", (0, 256))
    assert (alone.verdict, alone.counterexample) == ("fails", (0, 256))
    assert vals == observed_two_adic_valuations([13], 8, 200)[0]
    assert vals[7] == 8


def test_claim_whose_t_has_no_valuations_gets_its_report(monkeypatch, reads):
    claims = [claim(5, 8, 7, 8), claim(7, 8, 7, 7)]
    reports, vals = congruences.check_with_valuations(claims, [3], 8, 100)
    # after 3's first values over Z, one read serves the claims' t and the
    # valuations' t alike
    assert reads == [([3], None, 8, 0), ([5, 7, 3], 8, 8, 100)]
    monkeypatch.undo()
    assert [(r.claim, r.counterexample) for r in reports] == \
        [(r.claim, r.counterexample) for r in check_claims(claims, 100)]
    assert reports[0].counterexample == (0, 128) and reports[1].holds
    assert vals == observed_two_adic_valuations([3], 8, 100)


def test_claims_on_two_steps_and_valuations_on_a_third_match_separate_calls(
        monkeypatch, reads):
    claims = [claim(5, 4, 3, 3), claim(13, 16, 15, 10), claim(1, 4, 3, 7),
              claim(13, 16, 7, 64), claim(5, 4, 1, 2)]
    ts = [3, 13]
    start = time.perf_counter()
    reports, vals = congruences.check_with_valuations(claims, ts, 8, 120)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    # the valuations' first values are read over Z; then each step reads
    # its t once, mod 2^K for its largest k, at least 8 for the valuations,
    # and 13 mod 2^9, since its first value p-bar(7) = 256 * odd
    assert reads == [([3, 13], None, 8, 0), ([5, 1], 7, 4, 120), ([13], 64, 16, 120),
                     ([3], 8, 8, 120), ([13], 9, 8, 120)]
    monkeypatch.undo()
    alone = check_claims(claims, 120)
    assert [(r.claim, r.n_max, r.verdict, r.counterexample) for r in reports] == \
        [(r.claim, r.n_max, r.verdict, r.counterexample) for r in alone]
    assert any(r.holds for r in reports) and not all(r.holds for r in reports)
    assert vals == observed_two_adic_valuations(ts, 8, 120)
    assert 0 < sum(r.ms for r in reports) <= elapsed_ms


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
