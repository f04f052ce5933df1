"""Progression extraction and the dissection identity checkers."""

import pytest
from hypothesis import given, settings, strategies as st

from qcongruence import dissect, series
from qcongruence.dissect import (IdentityReport, Progression, _theta_quotient,
                                 dissection3_f1cubed, dissection5,
                                 dissection7, extract, ramanathan,
                                 report_from_comparison, rogers_ramanujan,
                                 verify_suite)
from qcongruence.eta import overpartition_gf
from qcongruence.series import (EXACT, InsufficientTruncation, LaurentSeries, agree,
                                euler_factor, mod2k, theta_f)

from oracles import binomial_product, naive_euler, naive_inverse, naive_mul

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


# -- extract -------------------------------------------------------------------


def test_extract_all_ones():
    geometric = LaurentSeries(0, [1] * 20, EXACT)  # 1/(1-q)
    got = extract(geometric, Progression(2, 1))
    assert got.coeffs() == [1] * 10


def test_extract_overpartition_8n7_stream():
    # leading values frozen from the independent schoolbook expansion
    gf = overpartition_gf(5, EXACT, 8 * 3 + 8)
    got = extract(gf, Progression(8, 7))
    assert got.coeffs()[:4] == [37760, 50744448, 14742829440, 1885213930240]
    assert all(c % 128 == 0 for c in got.coeffs())


def test_extract_window_arithmetic():
    s = LaurentSeries(0, list(range(20)), EXACT)
    got = extract(s, Progression(3, 2))
    assert got.offset == 0
    assert got.trunc == (20 - 2 + 2) // 3  # ceil((trunc - j) / m)
    assert got.coeffs() == [2, 5, 8, 11, 14, 17]


def test_extract_rejects_true_laurent_series():
    s = LaurentSeries(-2, [3, 0, 1, 1, 1], EXACT)
    with pytest.raises(ValueError):
        extract(s, Progression(2, 0))


def test_extract_accepts_zero_padded_negative_offset():
    s = LaurentSeries(-2, [0, 0, 1, 1, 1], EXACT)
    assert extract(s, Progression(2, 0)).coeffs() == [1, 1]


def test_extract_mod2k_matches_exact():
    gf = overpartition_gf(5, EXACT, 100)
    for (m, j) in ((8, 7), (8, 2), (3, 0)):
        a = extract(gf, Progression(m, j)).to_ring(mod2k(5))
        b = extract(gf.to_ring(mod2k(5)), Progression(m, j))
        assert a.coeffs() == b.coeffs()


def test_progression_validation():
    with pytest.raises(ValueError):
        Progression(0, 0)
    with pytest.raises(ValueError):
        Progression(3, 3)
    with pytest.raises(ValueError):
        Progression(3, -1)


coeffs = st.lists(st.integers(-30, 30), min_size=8, max_size=40)


@given(coeffs, coeffs, st.sampled_from([2, 3, 5, 7, 8]), st.integers(0, 7))
def test_extract_linearity(ca, cb, m, j):
    j = j % m
    a = LaurentSeries(0, ca, EXACT)
    b = LaurentSeries(0, cb, EXACT)
    p = Progression(m, j)
    lhs = extract(a.add(b), p)
    rhs = extract(a, p).add(extract(b, p))
    assert agree(lhs, rhs)


@given(coeffs, st.sampled_from([2, 3, 5, 7, 8]),
       st.sampled_from([EXACT, mod2k(1), mod2k(8), mod2k(64)]))
def test_stream_partition_identity(cs, m, ring):
    a = LaurentSeries(0, cs, ring)
    total = None
    for j in range(m):
        piece = extract(a, Progression(m, j)).substitute_qpow(m).shift(j)
        total = piece if total is None else total.add(piece)
    assert agree(total, a, through=a.trunc)


@given(coeffs, st.sampled_from([2, 3, 5]))
def test_extract_inverts_substitution(cs, m):
    a = LaurentSeries(0, cs, EXACT)
    assert agree(extract(a.substitute_qpow(m), Progression(m, 0)), a)


@given(coeffs, st.integers(2, 4), st.integers(2, 4), st.integers(0, 3),
       st.integers(0, 3))
def test_extract_composition_law(cs, m1, m2, j1, j2):
    j1 %= m1
    j2 %= m2
    a = LaurentSeries(0, cs + [0] * 40, EXACT)
    twice = extract(extract(a, Progression(m1, j1)), Progression(m2, j2))
    once = extract(a, Progression(m1 * m2, j1 + m1 * j2))
    assert agree(twice, once)


# -- Rogers-Ramanujan quotient ----------------------------------------------------


def test_rogers_ramanujan_constant_term():
    assert rogers_ramanujan(5).coefficient(0) == 1


def test_rogers_ramanujan_against_naive_expansion():
    n = 12
    num = naive_mul(naive_euler(1, 5, 1, n), naive_euler(4, 5, 1, n), n)
    den = naive_mul(naive_euler(2, 5, 1, n), naive_euler(3, 5, 1, n), n)
    want = naive_mul(num, naive_inverse(den, n), n)
    assert rogers_ramanujan(n).coeffs() == want
    assert want[:11] == [1, -1, 1, 0, -1, 1, -1, 1, 0, -1, 2]


def test_rogers_ramanujan_matches_binomial_products():
    # the four (q^a; q^5) binomial products, one dense inverse: an algorithm
    # independent of the triple-product theta route
    T = 1500
    num, den = ((LaurentSeries(0, binomial_product(a, 5, T), EXACT)
                 .mul(LaurentSeries(0, binomial_product(5 - a, 5, T), EXACT)))
                for a in (1, 2))
    assert rogers_ramanujan(T) == num.mul(den.inverse())


# -- dissection identities ---------------------------------------------------------


def test_dissection3_matches():
    rep = dissection3_f1cubed(500)
    assert rep.matched and rep.truncation == 500


def test_dissection3_tiny_truncation():
    assert dissection3_f1cubed(1).matched


def test_dissection3_mutation_detected():
    # wrong identity f3 + q*f9^2 must fail at a small exponent
    r = mod2k(1)
    lhs = euler_factor(1, 3, r, 60)
    wrong = euler_factor(3, 1, r, 60).add(
        euler_factor(9, 2, r, 59).shift(1))
    rep = report_from_comparison("mutated 3-dissection", lhs, wrong, through=60)
    assert not rep.matched
    assert rep.first_mismatch[0] <= 20


def test_report_from_comparison_refuses_an_empty_window():
    # a cap at or below both offsets leaves no exponent to compare
    lhs, rhs = LaurentSeries(5, [1, 2], EXACT), LaurentSeries(3, [0, 0, 1], EXACT)
    with pytest.raises(InsufficientTruncation):
        report_from_comparison("empty", lhs, rhs, through=3)
    rep = report_from_comparison("one term", lhs, rhs, through=4)
    assert (rep.truncation, rep.first_mismatch) == (4, None)


def test_dissection5_matches():
    rep = dissection5(600)
    assert rep.matched


def test_dissection5_constant_terms():
    assert euler_factor(1, 1, EXACT, 2).coefficient(0) == 1
    inner = rogers_ramanujan(2)
    assert inner.coefficient(0) == 1


def test_dissection5_extract_5n2_gives_minus_f5_R():
    # the only residue-2 term in the 5-dissection is -q^2 R(q^5), so both
    # sides extracted at 5n+2 equal -f5(q)*R(q)
    T = 300
    f1 = euler_factor(1, 1, EXACT, 5 * T + 3)
    lhs = extract(f1, Progression(5, 2)).truncate(T)
    rhs = euler_factor(5, 1, EXACT, T).mul(rogers_ramanujan(T)).neg()
    assert agree(lhs, rhs, through=T)


def test_dissection7_matches():
    assert dissection7(600).matched


def test_dissection7_theta_quotients_telescope():
    T = 400
    a = theta_f(14, 35, T).mul(theta_f(7, 42, T).inverse())
    b = theta_f(21, 28, T).mul(theta_f(14, 35, T).inverse())
    c = theta_f(7, 42, T).mul(theta_f(21, 28, T).inverse())
    prod = a.mul(b).mul(c)
    assert agree(prod, LaurentSeries.one(EXACT, T), through=prod.trunc)


def test_ramanathan_small_cases_match():
    for n in (5, 7, 13):
        rep = ramanathan(n, 200)
        assert rep.matched, rep.summary()


def test_ramanathan_7_equals_dissection7_bracket():
    # at n=7 the general dissection must reproduce the explicit
    # A - q*B - q^2 + q^5*C combination
    T = 300
    a = theta_f(14, 35, T).mul(theta_f(7, 42, T).inverse())
    b = theta_f(21, 28, T).mul(theta_f(14, 35, T).inverse())
    c = theta_f(7, 42, T).mul(theta_f(21, 28, T).inverse())
    bracket = a.sub(b.shift(1)).sub(LaurentSeries.one(EXACT, T).shift(2))
    bracket = bracket.add(c.shift(5))
    # rebuild the ramanathan bracket: g=1, n=7, case 6g+1
    g, n = 1, 7
    acc = LaurentSeries.one(EXACT, T).shift((n * n - 1) // 24).neg()
    for k in range(1, 4):
        e = (k - g) * (3 * k - 3 * g - 1) // 2
        term = theta_f(2 * n * k, n * n - 2 * n * k, T).mul(
            theta_f(n * k, n * n - n * k, T).inverse()).shift(e).truncate(T)
        if (k + g) % 2:
            term = term.neg()
        acc = acc.add(term)
    assert agree(acc, bracket, through=min(acc.trunc, bracket.trunc))


# every theta quotient the dissections form: dissection7's A, B and C, and
# ramanathan's f(-q^(2nk), -q^(n^2-2nk)) / f(-q^(nk), -q^(n^2-nk)) for n = 5,
# 7 and 13, as (num, den, n) with the thetas' exponents divided by n
_DISSECTION_QUOTIENTS = [
    ((2, 5), (1, 6), 7), ((3, 4), (2, 5), 7), ((1, 6), (3, 4), 7),
    *(((2 * k, n - 2 * k), (k, n - k), n)
      for n in (5, 7, 13) for k in range(1, (n - 1) // 2 + 1))]


@pytest.mark.parametrize("num, den, n", _DISSECTION_QUOTIENTS)
def test_theta_quotients_match_newton_inverses(num, den, n):
    # the exact division in q^n against a Newton inverse of the denominator
    # taken in q, at a size in the thousands
    T = 3000
    newton = theta_f(n * num[0], n * num[1], T).mul(
        theta_f(n * den[0], n * den[1], T).inverse())
    assert _theta_quotient(num, den, n, T) == newton


def test_ramanathan_rejects_bad_n():
    for bad in (4, 9, 15, 3):
        with pytest.raises(ValueError):
            ramanathan(bad, 100)


@pytest.mark.parametrize("T", [1, 2, 3, 200, 2000])
def test_verify_suite_equals_the_separate_checks(T):
    assert verify_suite(T) == [dissection3_f1cubed(T), dissection5(T), dissection7(T),
                               ramanathan(5, T), ramanathan(7, T), ramanathan(13, T)]


def test_verify_suite_reports_the_n7_case_under_both_names(monkeypatch):
    # a wrong n = 7 quotient shows in dissection7 and ramanathan(7), only
    # there; a wrong n = 5 quotient likewise in dissection5 and ramanathan(5)
    real = dissect._theta_quotient
    for bad, textbook, general, checker in ((7, 2, 4, dissection7),
                                            (5, 1, 3, dissection5)):
        monkeypatch.setattr(dissect, "_theta_quotient", lambda num, den, n, T:
                            real(num, den, n, T).scale(2 if n == bad else 1))
        reports = verify_suite(300)
        assert [r.matched for r in reports] == [
            i not in (textbook, general) for i in range(6)]
        assert reports[textbook].first_mismatch == reports[general].first_mismatch
        assert reports[textbook] == checker(300)


def test_verify_suite_takes_no_newton_inverse(monkeypatch):
    # every quotient is one exact division in q^n; the Newton route is kept
    # only as a test reference (test_r_q5_matches_its_newton_inverse)
    calls = []
    real = LaurentSeries.inverse

    def spy(self):
        calls.append(self.trunc)
        return real(self)

    monkeypatch.setattr(LaurentSeries, "inverse", spy)
    verify_suite(300)
    assert calls == []


def test_theta_quotients_take_no_product_and_no_inverse(monkeypatch):
    # each of verify_suite's eleven quotients is one exact division; a
    # product or an inverse taken while one is formed is recorded
    inside, taken, formed = [False], [], []
    real_quotient = dissect._theta_quotient

    def quotient(*args):
        inside[0] = True
        try:
            return real_quotient(*args)
        finally:
            inside[0] = False
            formed.append(args)

    def spy(name, real):
        def call(*args):
            if inside[0]:
                taken.append(name)
            return real(*args)
        return call

    for name in ("mul", "__mul__", "inverse", "pow"):
        monkeypatch.setattr(LaurentSeries, name, spy(name, getattr(LaurentSeries, name)))
    monkeypatch.setattr(series, "_conv", spy("_conv", series._conv))
    monkeypatch.setattr(dissect, "_theta_quotient", quotient)
    verify_suite(300)
    assert len(formed) == 11 and taken == []


def test_r_q5_matches_its_newton_inverse():
    # dissection5's k = 1 and k = 2 quotients, 1/R(q^5) and R(q^5), against
    # the Rogers-Ramanujan quotient and its Newton inverse taken in q, at the
    # largest T the benchmark's dissections use
    T = 4000
    r = rogers_ramanujan(T // 5)
    assert r.inverse().substitute_qpow(5) == _theta_quotient((2, 3), (1, 4), 5, T)
    assert r.substitute_qpow(5) == _theta_quotient((4, 1), (2, 3), 5, T)


def test_induction_split_identity_mod8():
    # 4*f1^6 == 4*f3^2 + 4*q^2*f9^6 (mod 8)
    r = mod2k(3)
    T = 600
    lhs = euler_factor(1, 6, r, T).scale(4)
    rhs = euler_factor(3, 2, r, T).scale(4).add(
        euler_factor(9, 6, r, T - 2).scale(4).shift(2))
    assert agree(lhs, rhs, through=T)


# -- report type ----------------------------------------------------------------


def test_identity_report_summary_lines():
    ok = IdentityReport(name="id", truncation=10)
    assert ok.matched and "matched" in ok.summary()
    bad = IdentityReport(name="id", truncation=10, first_mismatch=(3, 1, 2))
    assert not bad.matched and "q^3" in bad.summary()


def test_identity_report_summarizes_a_5000_digit_mismatch():
    # str() of an int refuses more than 4,300 digits
    big = -(10**4999 + 7)
    bad = IdentityReport(name="id", truncation=10, first_mismatch=(3, big, 0))
    assert bad.summary() == f"id: MISMATCH at q^3: -1{'0' * 4998}7 != 0"
