"""Eta quotients: expansion, the partition generating functions, and the
textual grammar."""

import pytest
from hypothesis import given, settings, strategies as st

from qcongruence import eta, series
from qcongruence.congruences import enumerate_colored_overpartitions
from qcongruence.dissect import Progression, extract
from qcongruence.eta import (EtaQuotient, colored_partition_gf, expand,
                             format_eta_quotient, overpartition_eta_quotient,
                             overpartition_gf, overpartition_residues,
                             parse_eta_quotient)
from qcongruence.series import (EXACT, InsufficientTruncation, LaurentSeries,
                                agree, euler_factor, mod2k, phi_power)

from oracles import count_partitions, enumerate_colored_partitions, naive_overpartition


def test_expand_overpartition_quotient_against_enumeration():
    # oracle first: raw enumeration of 5-colored overpartitions
    expected = [enumerate_colored_overpartitions(5, n) for n in range(8)]
    assert expected == [1, 10, 60, 280, 1110, 3912, 12600, 37760]
    got = expand(EtaQuotient(2, {1: -10, 2: 5}), EXACT, 8)
    assert got.coeffs() == expected
    # and against the independent schoolbook expansion
    assert got.coeffs() == naive_overpartition(5, 8)


def test_expand_single_factor_is_euler_product():
    assert agree(expand(EtaQuotient(1, {1: 1}), EXACT, 30),
                 euler_factor(1, 1, EXACT, 30))


def test_expand_witness_prefactor_shape():
    pre = EtaQuotient(8, {1: 79, 2: -38, 4: 36, 8: -72}, qshift=-17)
    s = expand(pre, EXACT, 10)
    assert s.offset == -17
    assert s.coefficient(-17) == 1


def test_expand_empty_quotient_is_qshift():
    s = expand(EtaQuotient(1, {}, qshift=3), EXACT, 8)
    assert s.offset == 3 and s.coefficient(3) == 1
    assert all(c == 0 for c in s.coeffs()[1:])


def test_expand_requires_room_past_qshift():
    with pytest.raises(Exception):
        expand(EtaQuotient(1, {1: 1}, qshift=5), EXACT, 5)


def test_expand_multiplicative_in_exponent_maps():
    left = EtaQuotient(8, {1: 2, 4: -1})
    right = EtaQuotient(8, {2: 3, 4: -2})
    union = EtaQuotient(8, {1: 2, 2: 3, 4: -3})
    T = 60
    assert agree(expand(union, EXACT, T),
                 expand(left, EXACT, T).mul(expand(right, EXACT, T)))


def test_overpartition_gf_base_case():
    assert overpartition_gf(1, EXACT, 8).coeffs() == [1, 2, 4, 8, 14, 24, 40, 64]


def test_overpartition_gf_constant_term():
    for t in (1, 2, 5, 13):
        assert overpartition_gf(t, EXACT, 3).coefficient(0) == 1


def test_overpartition_t5_mod128_example():
    gf = overpartition_gf(5, EXACT, 8)
    assert gf.coefficient(7) % 128 == 0


def test_overpartition_gf_is_power_of_base():
    T = 300
    base = overpartition_gf(1, EXACT, T)
    for t in (2, 5, 7, 11, 13):
        assert agree(overpartition_gf(t, EXACT, T), base.pow(t), through=T)


def test_overpartition_coefficients_positive_and_monotone_in_t():
    prev = None
    for t in (1, 2, 3, 5, 7):
        cs = overpartition_gf(t, EXACT, 40).coeffs()
        assert all(c > 0 for c in cs)
        if prev is not None:
            assert all(a >= b for a, b in zip(cs[1:], prev[1:]))
        prev = cs


def _factor_product(d, e, ring, T):
    """phi(-q^d)^e = f_d^(2e) * f_{2d}^(-e), one Euler factor at a time."""
    return euler_factor(d, 2 * e, ring, T).mul(
        euler_factor(2 * d, -e, ring, T))


def _assert_mod_route_matches_factor_product(t, k, T):
    got = overpartition_gf(t, mod2k(k), T)
    want = _factor_product(1, -t, mod2k(k), T)
    assert got.offset == want.offset == 0
    assert got.coeffs() == want.coeffs()


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.integers(1, 3000), st.integers(1, 64), st.integers(1, 400))
def test_overpartition_mod_route_matches_factor_product(t, k, T):
    # the powers of X (Gauss's identity) against binary powering of the two
    # Euler factors and one dense product
    _assert_mod_route_matches_factor_product(t, k, T)


def test_overpartition_mod_route_matches_factor_product_at_4096():
    _assert_mod_route_matches_factor_product(13, 64, 4096)


def test_phi_power_exact_witness_base_matches_factor_product():
    # the witness base f2^5 * f1^-10 at T=400: Miller's recurrence on
    # phi(-q) against two pentagonal Miller powers and a Kronecker product
    assert phi_power(1, -5, EXACT, 3208) == _factor_product(1, -5, EXACT, 3208)


@pytest.mark.parametrize("k", [1, 3, 8, 64])
@pytest.mark.parametrize("d, e", [(1, -5), (1, 7), (2, -13), (3, 2)])
def test_phi_power_mod2k_matches_factor_product(k, d, e):
    ring = mod2k(k)
    assert phi_power(d, e, ring, 1000) == _factor_product(d, e, ring, 1000)


@settings(deadline=None, derandomize=True, max_examples=80)
@given(st.integers(1, 4), st.integers(-200, 200), st.integers(1, 400),
       st.sampled_from([None, 1, 2, 3, 8, 63, 64]))
def test_phi_power_matches_factor_product(d, e, T, k):
    ring = EXACT if k is None else mod2k(k)
    assert phi_power(d, e, ring, T) == _factor_product(d, e, ring, T)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("e", [-9, -1, 0, 1, 5, 200])
def test_phi_power_mod2k_has_period_two_to_the_k_minus_1(k, e):
    # (1 + 2X)^(2^(k-1)) == 1 (mod 2^k), X = sum (-1)^n q^(n^2)
    ring = mod2k(k)
    want = phi_power(1, e, ring, 300)
    for shifted in (e + (1 << (k - 1)), e - (1 << (k - 1))):
        assert phi_power(1, shifted, ring, 300) == want


def test_expand_pair_beside_leftover_factor():
    # f1^79 * f2^-38 = f1^3 * phi(-q)^38
    T = 300
    got = expand(parse_eta_quotient("f1^79 * f2^-38"), EXACT, T)
    assert got == euler_factor(1, 3, EXACT, T).mul(phi_power(1, 38, EXACT, T))
    assert got == euler_factor(1, 79, EXACT, T).mul(
        euler_factor(2, -38, EXACT, T))


@pytest.mark.parametrize("spec, paired", [
    ("f1 * f2^5", False), ("f2^5 * f1^-10", True), ("f1^79 * f2^-38", True)])
def test_expand_skips_a_pair_of_positive_exponents(monkeypatch, spec, paired):
    # phi(-q)^(-5) * f1^11 for f1 * f2^5 has exact coefficients that grow
    # exponentially and cancel, so a pair needs a negative exponent; the
    # values are pinned by test_expand_matches_euler_factors_one_at_a_time
    calls = []

    def spy(*args):
        calls.append(args)
        return phi_power(*args)

    monkeypatch.setattr(eta, "phi_power", spy)
    expand(parse_eta_quotient(spec), EXACT, 100)
    assert len(calls) == paired


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.dictionaries(st.sampled_from([1, 2, 3, 4, 6, 8]),
                       st.integers(-40, 40), max_size=5),
       st.integers(-3, 3), st.integers(1, 200),
       st.sampled_from([None, 1, 3, 64]))
def test_expand_matches_euler_factors_one_at_a_time(exponents, qshift, T, k):
    # pairs, chains f_d, f_2d, f_4d, and leftovers against the plain
    # product of every Euler factor
    ring = EXACT if k is None else mod2k(k)
    T += max(qshift, 0)
    n = T - qshift
    want = LaurentSeries.one(ring, n)
    for d, r in exponents.items():
        want = want.mul(euler_factor(d, r, ring, n))
    assert expand(EtaQuotient(24, exponents, qshift), ring, T) == want.shift(qshift)


def test_exact_witness_base_matches_gauss_route_mod_2_64():
    # f2^5 * f1^-10 at the witness base size for T=400: over Z by Miller's
    # recurrence on phi(-q), reduced mod 2^64, against the powers of X mod 2^64
    exact = expand(parse_eta_quotient("f2^5 * f1^-10"), EXACT, 3208)
    gauss = overpartition_gf(5, mod2k(64), 3208)
    assert exact.to_ring(mod2k(64)).coeffs() == gauss.coeffs()


@pytest.mark.parametrize("ring", [EXACT, mod2k(1), mod2k(5), mod2k(64)], ids=str)
@pytest.mark.parametrize("t", [3, 13, 1999])
def test_overpartition_residues_match_extract(monkeypatch, t, ring):
    # row j of the table is extract(gf, m*n + j) for n <= n_max; the m = 56
    # table and the reference share one cached expansion of 28,056 terms
    # (over Z at t = 1999 it takes seconds), which both ask theta_powers for
    real, cache = series.theta_powers, {}

    def theta_powers(x, y, es, d, ring, T):
        key = (x, y, tuple(es), d, ring, T)
        if key not in cache:
            cache[key] = list(real(x, y, es, d, ring, T))
        return iter(cache[key])

    monkeypatch.setattr(series, "theta_powers", theta_powers)
    monkeypatch.setattr(eta, "theta_powers", theta_powers)
    n_max = 500
    gf = overpartition_gf(t, ring, 56 * (n_max + 1))
    for m in (8, 56):
        [table] = overpartition_residues([t], ring, m, n_max)
        rows = [list(row) for row in table]
        assert len(rows) == m
        for j, row in enumerate(rows):
            assert row == extract(gf, Progression(m, j)).coeffs()[:n_max + 1]
        # a row is a copy over Z and a read-only view mod 2^k: writing to
        # one changes neither the expansion nor the next table
        for row in table:
            if ring.is_exact:
                row[0] += 1
            else:
                assert row.readonly
        [again] = overpartition_residues([t], ring, m, n_max)
        assert [list(row) for row in again] == rows


@pytest.mark.parametrize("ring", [EXACT, mod2k(1), mod2k(64)])
@pytest.mark.parametrize("T", [0, -3])
def test_overpartition_gf_rejects_empty_truncation(ring, T):
    with pytest.raises(InsufficientTruncation, match=f"T={T} "):
        overpartition_gf(5, ring, T)


def test_colored_partition_gf_values():
    assert colored_partition_gf(1, EXACT, 10).coeffs() == \
        [count_partitions(n) for n in range(10)]
    assert colored_partition_gf(2, EXACT, 3).coefficient(2) == \
        enumerate_colored_partitions(2, 2) == 5
    for t in (1, 2, 5):
        assert colored_partition_gf(t, EXACT, 2).coefficient(0) == 1


def test_eta_quotient_validation():
    with pytest.raises(ValueError):
        EtaQuotient(4, {3: 1})      # 3 does not divide 4
    with pytest.raises(ValueError):
        EtaQuotient(0, {})
    with pytest.raises(ValueError):
        overpartition_gf(0, EXACT, 5)
    for build in (lambda: overpartition_eta_quotient(0),
                  lambda: colored_partition_gf(0, EXACT, 5),
                  lambda: overpartition_residues([3, 0], EXACT, 8, 5)):
        with pytest.raises(ValueError, match="^color count t must be >= 1$"):
            build()


def test_zero_exponents_dropped():
    assert EtaQuotient(6, {2: 0, 3: 1}).exponents == {3: 1}


# -- grammar -------------------------------------------------------------------


def test_parse_round_trip():
    eq = EtaQuotient(8, {1: 79, 2: -38, 4: 36, 8: -72}, qshift=-17)
    text = format_eta_quotient(eq)
    assert text == "q^-17 * f1^79 * f2^-38 * f4^36 * f8^-72"
    assert parse_eta_quotient(text) == eq


def test_parse_is_whitespace_insensitive():
    a = parse_eta_quotient("q^-1*f2^-4*f4^12*f8^-8")
    b = parse_eta_quotient("  q^-1 * f2^-4   *f4^12* f8^-8 ")
    assert a == b


def test_parse_default_exponent_and_accumulation():
    eq = parse_eta_quotient("f2 * f2^2 * q^1 * q^2")
    assert eq.exponents == {2: 3} and eq.qshift == 3


def test_parse_level_is_lcm():
    assert parse_eta_quotient("f4^1 * f6^-2").M == 12


def test_parse_errors_carry_position():
    with pytest.raises(ValueError, match="position"):
        parse_eta_quotient("f2^1 * g3^1")
    with pytest.raises(ValueError, match="position"):
        parse_eta_quotient("f2^1 ** f3^1")
    with pytest.raises(ValueError):
        parse_eta_quotient("   ")


@settings(deadline=None, derandomize=True, max_examples=400)
@given(st.one_of(st.text(max_size=60),
                 st.text("fq^*-+0123456789 \t", max_size=40)))
def test_parse_eta_quotient_raises_only_value_error(text):
    try:
        parse_eta_quotient(text)
    except ValueError:
        pass
