"""Core truncated-series arithmetic, checked against the naive oracles and
the ring-series invariants (property tests use fixed-seed hypothesis)."""

import copy
import pickle
import random
import tracemalloc
from array import array
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcongruence import (ClaimReport, CongruenceClaim, EtaQuotient,
                         FamilyInstance, IdentityReport, Progression,
                         WitnessCertificate, WitnessReport, builtin_certificate,
                         ramanathan, verify_family_instance, verify_witness)
from qcongruence import series as series_module
from qcongruence.congruences import check_claims, enumerate_colored_overpartitions
from qcongruence.dissect import dissection7, extract
from qcongruence.eta import overpartition_residues
from qcongruence.series import (EXACT, InsufficientTruncation, LaurentSeries,
                                NonInvertibleSeries, RingMismatch, _conv_mod2k,
                                _divide_exact, _gauss_power_mod2k, agree,
                                euler_factor, first_difference, mod2k,
                                shifted_sum, theta_f, theta_power)

from oracles import (binomial_product, count_partitions, generalized_pentagonal,
                     naive_euler, naive_inverse, naive_mul, naive_pow,
                     naive_product)

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


def series(offset, coeffs, ring=EXACT):
    return LaurentSeries(offset, coeffs, ring)


# -- constructors and accessors ----------------------------------------------


def test_window_accounting():
    s = series(-2, [0, 5, 0, 7])
    assert s.offset == -2 and s.trunc == 2 and len(s) == 4
    assert s.coefficient(-1) == 5
    assert s.coefficient(-10) == 0
    with pytest.raises(InsufficientTruncation):
        s.coefficient(2)


def test_valuation_skips_representational_zeros():
    assert series(-2, [0, 5, 0, 7]).valuation() == -1
    assert series(3, [0, 0, 1]).valuation() == 5
    assert series(0, [0, 0, 0]).valuation() is None


def test_mod2k_canonical_reduction():
    s = series(0, [-1, 9, 256], mod2k(3))
    assert s.coeffs() == [7, 1, 0]


def test_ring_validation():
    with pytest.raises(ValueError):
        mod2k(0)
    with pytest.raises(ValueError):
        mod2k(65)


@pytest.mark.parametrize("ring", [EXACT, mod2k(3), mod2k(64)], ids=str)
def test_series_pickle_and_deepcopy(ring):
    s = series(-2, [0, 5, -1, 2**70], ring)
    for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert copied == s and copied.trunc == s.trunc


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        series(0, [])


@pytest.mark.parametrize("ring", [EXACT, mod2k(3), mod2k(64)], ids=str)
def test_public_constructor_copies_its_input(ring):
    # operations keep the storage they build; the constructor copies, so
    # changing a list or array handed to it, or the list coeffs() returned,
    # changes no series
    given = {"list": [5, -1, 2**64 + 3, 0], "array": array("Q", [5, 7, 2**64 - 1, 0]),
             "numpy": np.array([5, 3, -9, 0]),
             "view": memoryview(bytearray(array("Q", [5, 2, 9, 0]).tobytes())).cast("Q")}
    made = {name: series(1, coeffs, ring) for name, coeffs in given.items()}
    want = {name: s.coeffs() for name, s in made.items()}
    derived = {name: [s.shift(2), s.truncate(3), s.add(s), s.scale(3),
                      s.substitute_qpow(2)] for name, s in made.items()}
    derived_want = {name: [d.coeffs() for d in ds] for name, ds in derived.items()}
    for coeffs in given.values():
        coeffs[0] = coeffs[1] = 1
    for s in made.values():
        s.coeffs()[2] = 1
    assert {name: s.coeffs() for name, s in made.items()} == want
    assert {name: [d.coeffs() for d in ds] for name, ds in derived.items()} == derived_want


# -- immutable records -------------------------------------------------------

_CERT = builtin_certificate()
_CLAIM = CongruenceClaim(5, 8, 1, 1, "Theorem5col")

# name -> (an instance, its fields in order, its repr); the certificate's
# repr, too long to spell out, is checked against its fields' reprs
_RECORDS = {
    "Ring": (mod2k(5), ("k",), "Ring(k=5)"),
    "CongruenceClaim": (_CLAIM, ("t", "m", "j", "k", "source"),
                        "CongruenceClaim(t=5, m=8, j=1, k=1, source='Theorem5col')"),
    "ClaimReport": (ClaimReport(_CLAIM, 100, (3, 1), 1.5),
                    ("claim", "n_max", "counterexample", "ms"),
                    "ClaimReport(claim=CongruenceClaim(t=5, m=8, j=1, k=1, "
                    "source='Theorem5col'), n_max=100, counterexample=(3, 1), ms=1.5)"),
    "Progression": (Progression(5, 4), ("m", "j"), "Progression(m=5, j=4)"),
    "IdentityReport": (IdentityReport("f1", 10, (3, 1, 2), "rhs 4*f1^6"),
                       ("name", "truncation", "first_mismatch", "note"),
                       "IdentityReport(name='f1', truncation=10, "
                       "first_mismatch=(3, 1, 2), note='rhs 4*f1^6')"),
    "FamilyInstance": (FamilyInstance(0, 1, 0, "inf3"),
                       ("alpha", "beta", "gamma", "variant"),
                       "FamilyInstance(alpha=0, beta=1, gamma=0, variant='inf3')"),
    "EtaQuotient": (EtaQuotient(8, {2: 1, 1: -2, 4: 0}), ("M", "exponents", "qshift"),
                    "EtaQuotient(M=8, exponents={1: -2, 2: 1}, qshift=0)"),
    "WitnessCertificate": (_CERT, ("N", "M", "r", "m", "j", "pset", "prefactor",
                                   "hauptmodul", "poly", "poly_min_degree",
                                   "claimed_common_factor", "id"), None),
    "WitnessReport": (WitnessReport("t5", 50, (3, 1, 2), 384),
                      ("certificate_id", "truncation", "first_mismatch", "gcd_of_poly"),
                      "WitnessReport(certificate_id='t5', truncation=50, "
                      "first_mismatch=(3, 1, 2), gcd_of_poly=384)"),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_records_are_frozen_values(name):
    record, fields, text = _RECORDS[name]
    cls = type(record)
    values = tuple(getattr(record, f) for f in fields)
    assert cls.__name__ == name and list(vars(record)) == list(fields)
    rebuilt = cls(**dict(zip(fields, values)))
    for same in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                 cls(*values), rebuilt):
        assert type(same) is cls and same == record and not same != record
    # equal only to the same class with equal fields
    assert record != values and record != SimpleNamespace(**vars(record))
    assert all(record != other for other, _, _ in _RECORDS.values() if other is not record)
    if name in ("EtaQuotient", "WitnessCertificate"):  # a field is a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(rebuilt) == hash(values)
    for attr in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 1)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert tuple(getattr(record, f) for f in fields) == values
    if text is None:
        text = f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    assert repr(record) == text
    with pytest.raises(TypeError):
        cls(*values, 0)


def _cert_with(**changes):
    fields = _RECORDS["WitnessCertificate"][1]
    return WitnessCertificate(**{f: getattr(_CERT, f) for f in fields} | changes)


@pytest.mark.parametrize("build, message", [
    (lambda: mod2k(0), "mod-2^k ring needs 1 <= k <= 64, got 0"),
    (lambda: CongruenceClaim(0, 8, 1, 1), "t, m, k must be positive"),
    (lambda: CongruenceClaim(5, 8, 1, 65),
     "k=65 is over 64: claims are checked mod 2^k with k <= 64"),
    (lambda: CongruenceClaim(5, 8, 8, 1), "residue j=8 not in [0, 8)"),
    (lambda: CongruenceClaim(5, 8, 1, 1, "Paper"), "unknown claim source 'Paper'"),
    (lambda: Progression(0, 0), "progression step m must be positive"),
    (lambda: Progression(5, 5), "residue j=5 not in [0, 5)"),
    (lambda: FamilyInstance(-1, 0, 0, "inf"), "family exponents must be nonnegative"),
    (lambda: FamilyInstance(0, 0, 0, "inf5"),
     "variant must be one of ('inf', 'inf2', 'inf3', 'inf4')"),
    (lambda: EtaQuotient(0, {}), "level M must be positive"),
    (lambda: EtaQuotient(4, {5: 1, 3: 1}), "divisor 3 does not divide level 4"),
    (lambda: _cert_with(N=0), "N, M, m must be positive"),
    (lambda: _cert_with(r={3: 1}), "input divisor 3 does not divide M=2"),
    (lambda: _cert_with(j=6), "j=6 must belong to the residue set {7}"),
    (lambda: _cert_with(pset=frozenset({7, 9})), "residue 9 not in [0, 8)"),
    (lambda: _cert_with(poly=()), "certificate polynomial must be nonempty"),
    (lambda: _cert_with(poly_min_degree=2), "poly_min_degree must be 0 or 1"),
    (lambda: _cert_with(claimed_common_factor=0), "claimed common factor must be positive"),
    (lambda: _cert_with(claimed_common_factor=256),
     "claimed common factor 256 does not divide polynomial coefficient 37760"),
    # guards outside the records, each with its own message
    (lambda: overpartition_residues([3], EXACT, 0, 10),
     "need m >= 1 and n_max >= 0, got m=0, n_max=10"),
    (lambda: check_claims([CongruenceClaim(5, 8, 1, 1)], -1),
     "need m >= 1 and n_max >= 0, got m=8, n_max=-1"),
    (lambda: enumerate_colored_overpartitions(0, 3), "need t >= 1 and n >= 0"),
    (lambda: extract(LaurentSeries.one(EXACT, 3), Progression(8, 5)),
     "truncation 3 known only below the first index of progression 8n+5"),
    (lambda: LaurentSeries.one(EXACT, 0), "constant 1 needs trunc >= 1"),
    (lambda: LaurentSeries.one(EXACT, 4).substitute_qpow(0),
     "substitution power must be >= 1"),
    (lambda: theta_f(1, 1, 0), "need T >= 1"),
    (lambda: _CERT.base_terms(0), "need T >= 1 output coefficients"),
])
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_record_defaults_and_derived_fields():
    assert mod2k(5) != EXACT and repr(EXACT) == "Ring(k=None)"
    assert CongruenceClaim(5, 8, 1, 1).source == "UserSupplied"
    assert _cert_with(id="").id == "M2-m8-j7"
    # the reports that copy another with a new name or note
    r7, d7 = ramanathan(7, 60), dissection7(60)
    assert (d7.truncation, d7.first_mismatch) == (r7.truncation, r7.first_mismatch)
    assert repr(d7) == ("IdentityReport(name='f1 = f49*(A - q*B - q^2 + q^5*C)', "
                        "truncation=60, first_mismatch=None, note='')")
    assert repr(verify_family_instance(FamilyInstance(0, 0, 0, "inf4"), 40)) == (
        "IdentityReport(name='inf4(alpha=0, beta=0, gamma=0)', truncation=41, "
        "first_mismatch=(1, 0, 4), note='neither q-factor candidate matched')")


# -- mul ----------------------------------------------------------------------


def test_mul_telescopes_geometric():
    one_minus_q = series(0, [1, -1] + [0] * 48)
    geometric = series(0, [1] * 50)
    assert one_minus_q.mul(geometric).coeffs() == [1] + [0] * 49


def test_mul_binomial_square():
    s = series(0, [1, 1, 0])
    assert s.mul(s).coeffs() == [1, 2, 1]


def test_mul_euler_times_its_inverse_is_one():
    f1 = euler_factor(1, 1, EXACT, 201)
    inv = f1.inverse()
    assert f1.mul(inv).coeffs() == [1] + [0] * 200


def test_mul_truncation_rule():
    a = series(1, [1, 2, 3])      # window [1, 4)
    b = series(-2, [4, 5])        # window [-2, 0)
    p = a.mul(b)
    assert p.offset == -1
    assert p.trunc == min(a.trunc + b.offset, b.trunc + a.offset)


def test_mul_ring_mismatch():
    with pytest.raises(RingMismatch):
        series(0, [1]).mul(series(0, [1], mod2k(2)))


# -- inverse -------------------------------------------------------------------


def test_inverse_geometric():
    inv = series(0, [1, -1] + [0] * 8).inverse()
    assert inv.coeffs() == [1] * 10


def test_inverse_gives_partition_numbers():
    # oracle first: raw recursive enumeration of partitions
    expected = [count_partitions(n) for n in range(10)]
    assert expected == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    inv = euler_factor(1, 1, EXACT, 10).inverse()
    assert inv.coeffs() == expected


def test_inverse_of_shifted_series_has_negative_offset():
    s = series(1, [1, -1] + [0] * 8)   # q(1 - q)
    inv = s.inverse()
    assert inv.offset == -1
    assert inv.coeffs()[:4] == [1, 1, 1, 1]


def test_inverse_rejects_nonunit_and_zero():
    with pytest.raises(NonInvertibleSeries):
        series(0, [2, 1]).inverse()
    with pytest.raises(NonInvertibleSeries):
        series(0, [0, 0, 0]).inverse()
    # odd leading coefficients are units mod 2^k
    assert series(0, [3, 1, 1], mod2k(4)).inverse() is not None


def test_inverse_is_two_sided():
    s = series(0, [1, 4, -2, 7, 0, 3] + [0] * 20)
    inv = s.inverse()
    assert agree(inv.mul(s), LaurentSeries.one(EXACT, 20), through=20)
    assert agree(s.mul(inv), LaurentSeries.one(EXACT, 20), through=20)


# -- pow ------------------------------------------------------------------------


def test_pow_binomial():
    assert series(0, [1, 1, 0]).pow(2).coeffs() == [1, 2, 1]


def test_pow_zero_is_one():
    s = series(0, [1, 5, 5, 5])
    assert s.pow(0).coeffs() == [1, 0, 0, 0]


def test_pow_negative_one_equals_inverse():
    s = series(0, [1, 3, -1, 2] + [0] * 6)
    assert agree(s.pow(-1), s.inverse())


def test_pow_f1_cubed_mod2_matches_three_dissection():
    # classical 3-dissection of f1^3 reduced mod 2: f3 + q*f9^3
    r = mod2k(1)
    lhs = euler_factor(1, 1, r, 500).pow(3)
    rhs = euler_factor(3, 1, r, 500).add(
        euler_factor(9, 3, r, 499).shift(1))
    assert agree(lhs, rhs, through=500)


# -- substitute_qpow -------------------------------------------------------------


def test_substitute_simple():
    assert series(0, [1, 1]).substitute_qpow(3).coeffs() == [1, 0, 0, 1, 0, 0]


def test_substitute_identity():
    s = series(-1, [1, 2, 3])
    assert s.substitute_qpow(1) is s


def test_substitute_f1_gives_f9():
    sub = euler_factor(1, 1, EXACT, 25).substitute_qpow(9)
    direct = euler_factor(9, 1, EXACT, 225)
    assert agree(sub, direct, through=225)


def test_substitute_scales_window():
    s = series(-1, [1, 2, 3])
    out = s.substitute_qpow(4)
    assert out.offset == -4 and out.trunc == 8


# -- euler_factor ------------------------------------------------------------------


def test_euler_factor_inverse_is_partition_gf():
    expected = [count_partitions(n) for n in range(10)]
    assert euler_factor(1, -1, EXACT, 10).coeffs() == expected


def test_euler_factor_pentagonal_signs():
    got = euler_factor(1, 1, EXACT, 13).coeffs()
    direct = naive_product(range(1, 13), 13)
    assert got == direct
    assert got == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_euler_factor_refuses_partial_products():
    # (q^a; q^m) with a != m is left to the theta routes and the test oracle
    for (a, m, e) in ((2, 5, 1), (3, 5, 1), (1, 4, 2), (2, 3, -1)):
        assert naive_pow(binomial_product(a, m, 60), e, 60) == naive_euler(a, m, e, 60)


def test_pentagonal_support_through_1000():
    got = euler_factor(1, 1, EXACT, 1000).coeffs()
    direct = naive_product(range(1, 1000), 1000)
    assert got == direct
    signs = generalized_pentagonal(1000)
    for e, c in enumerate(got):
        assert c == signs.get(e, 0)


@settings(max_examples=30)
@given(st.integers(1, 8), st.integers(-120, 120), st.integers(1, 200))
def test_exact_euler_power_matches_naive(d, e, T):
    # Miller's recurrence against repeated binomial multiplication
    assert euler_factor(d, e, EXACT, T).coeffs() == naive_euler(d, d, e, T)


@pytest.mark.parametrize("e", [0, 1, 10**6, -10**6])
def test_exact_euler_power_any_exponent(e):
    # the recurrence takes as long for e = 10^6 as for e = 2; binary powering
    # of the pentagonal series is the independent check, and mod 2^64 agrees
    got = euler_factor(1, e, EXACT, 40)
    assert got.coeffs() == theta_f(1, 2, 40).pow(e).coeffs()
    assert got.to_ring(mod2k(64)) == euler_factor(1, e, mod2k(64), 40)


def test_euler_factor_validation():
    with pytest.raises(ValueError):
        euler_factor(0, 1, EXACT, 10)
    with pytest.raises(InsufficientTruncation):
        euler_factor(1, 1, EXACT, 0)


# -- theta_f ----------------------------------------------------------------------


def test_theta_triple_product_specialization():
    # f(-q, -q^2) = (q; q)_inf and f(-q, -q^4) = (q; q^5)(q^4; q^5)(q^5; q^5)
    assert theta_f(1, 2, 200).coeffs() == naive_product(range(1, 200), 200)
    rr = [c for c in range(1, 200) if c % 5 in (0, 1, 4)]
    assert theta_f(1, 4, 200).coeffs() == naive_product(rr, 200)


@pytest.mark.parametrize("k", [1, 3, 64])
def test_pentagonal_series_mod2k_matches_pentagonal_numbers(k):
    signs = generalized_pentagonal(1000)
    want = [signs.get(e, 0) % (1 << k) for e in range(1000)]
    assert theta_f(1, 2, 1000, mod2k(k)).coeffs() == want


def test_theta_constant_term():
    for (x, y) in ((1, 1), (3, 4), (7, 42), (21, 28)):
        assert theta_f(x, y, 50).coefficient(0) == 1


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(-4, 4), st.integers(1, 4),
       st.integers(1, 120), st.sampled_from([EXACT, mod2k(1), mod2k(5), mod2k(64)]))
def test_theta_power_matches_binary_powering(x, y, e, d, T, ring):
    # Miller's recurrence (over Z) and the streamed powers of X (phi mod
    # 2^k) against binary powering of the theta series, then q -> q^d
    want = theta_f(x, y, T, EXACT).pow(e).substitute_qpow(d).truncate(T)
    assert theta_power(x, y, e, d, ring, T) == want.to_ring(ring)


@pytest.mark.parametrize("k, es", [
    # tops from 1 to k in one call: e + 1 < k for e = 0, 1, 2, 5, and
    # t > 2^(k-1) for -130 and 300
    (8, (-5, 0, 1, 2, 5, -130, 300, -7)),
    (1, (-3, 0, 7)),
    (64, (-5, 3, 2**40 + 1)),
    # trimmed tops that differ within one call: C(e, i) 2^i vanishes mod
    # 2^k past i = 12, 12, 15 at k = 16 and past i = 4, 7 at k = 8
    (16, (-29, -31, -17)),
    (8, (-29, -17)),
    # more exponents than the four theorem t and six default primes
    (5, tuple(range(-17, 0)) + (17, 2**20 + 3)),
], ids=["k8", "k1", "k64", "k16-tops-13-13-16", "k8-tops-5-8", "k5-nineteen-exponents"])
def test_gauss_kernel_matches_binary_powering(k, es):
    # every exponent of one call against phi(-q)^e by binary powering in
    # Z/2^k, on 3001 terms (56 squares of X)
    n = 3001
    phi = theta_f(1, 1, n, mod2k(k))
    got = list(_gauss_power_mod2k(es, k, n))
    assert [list(words) for words in got] == [phi.pow(e).coeffs() for e in es]


def _kernel_peak(es, k, n):
    """tracemalloc's peak over one kernel call whose words are each
    dropped as they are read."""
    tracemalloc.start()
    try:
        for words in _gauss_power_mod2k(es, k, n):
            del words
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gauss_kernel_memory_does_not_grow_with_the_exponents():
    # the powers of X are held once per call, and each exponent's words are
    # built alone: 200 exponents peak as 2 do (one accumulator per
    # exponent would add 2 bytes a term each at k = 8)
    n = 50_000
    assert _kernel_peak(range(-399, 0, 2), 8, n) <= _kernel_peak((-17, -15), 8, n) + 64 * 1024
    # at k = 64, e = -1 reads all 63 powers, under the docstring's 360
    # bytes a term
    assert _kernel_peak((-1,), 64, 20_000) < 360 * 20_000


def test_gauss_kernel_without_exponents_steps_no_power():
    # X alone at this size would take 10 MB
    assert _kernel_peak((), 64, 10**6) < 64 * 1024
    assert list(_gauss_power_mod2k((), 8, 100)) == []


# -- shifted_sum ------------------------------------------------------------------


@st.composite
def shifted_terms(draw, T):
    """(c, s, offset, coefficients) with shifts 0..T+2 and offsets -3..3,
    each long enough to reach q^(T-1)."""
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        s, o = draw(st.integers(0, T + 2)), draw(st.integers(-3, 3))
        n = max(1, T - s - o) + draw(st.integers(0, 3))
        terms.append((draw(st.integers(-9, 9)), s, o,
                      draw(st.lists(st.integers(-10**20, 10**20), min_size=n, max_size=n))))
    return terms


@given(st.data(), st.integers(1, 30),
       st.sampled_from([EXACT, mod2k(1), mod2k(8), mod2k(64)]))
def test_shifted_sum_matches_coefficientwise_sum(data, T, ring):
    # a term starts at q^(s + offset): one with s >= T can still reach below
    # q^T, and one with s < T can start past it; a pole widens the sum's window
    terms = data.draw(shifted_terms(T))
    lo = min([0] + [s + o for _, s, o, _ in terms if s + o < T])
    want = [0] * (T - lo)
    for c, s, o, cs in terms:
        for i, v in enumerate(cs):
            if s + o + i < T:
                want[s + o + i - lo] += c * v
    got = shifted_sum([(c, s, series(o, cs, ring)) for c, s, o, cs in terms], ring, T)
    assert got == series(lo, want, ring)


def test_shifted_sum_refuses_a_term_too_short():
    x = series(0, [1, 2, 3])
    assert shifted_sum([(1, 2, x)], EXACT, 5).coeffs() == [0, 0, 1, 2, 3]
    assert shifted_sum([(1, 5, x)], EXACT, 5).coeffs() == [0] * 5  # dropped
    # a term's own offset counts: 7q^-2 times q^5 lands at q^3, and q^5 + ...
    # starts past q^2, so it is dropped, not truncated to an empty window
    assert shifted_sum([(1, 5, series(-2, [7] + [0] * 9))], EXACT, 5).coeffs() \
        == [0, 0, 0, 7, 0]
    assert shifted_sum([(1, 0, series(5, [1] * 5))], EXACT, 3).coeffs() == [0] * 3
    with pytest.raises(InsufficientTruncation, match=r"does not reach q\^4"):
        shifted_sum([(1, 1, x)], EXACT, 5)


def test_theta_symmetric_arguments_double_up():
    # x = y = 1 collapses the n and -n terms onto the squares
    got = theta_f(1, 1, 26).coeffs()
    expected = [0] * 26
    expected[0] = 1
    for n in range(1, 6):
        expected[n * n] = 2 * (-1 if n % 2 else 1)
    assert got == expected


def test_theta_validation():
    with pytest.raises(ValueError):
        theta_f(0, 2, 10)


# -- comparison helpers -------------------------------------------------------------


def test_first_difference_zero_extends_below_offset():
    a = series(0, [1, 2, 3])
    b = series(-2, [0, 0, 1, 2, 3])
    assert first_difference(a, b) is None
    c = series(-2, [4, 0, 1, 2, 3])
    assert first_difference(a, c) == (-2, 0, 4)


def test_first_difference_window_semantics():
    # comparison covers [min(offsets), min(truncs)); exponents past either
    # truncation are unknown and never compared
    assert first_difference(series(5, [1]), series(0, [0, 0])) is None
    assert first_difference(series(5, [1]), series(0, [0] * 6)) == (5, 1, 0)
    # a through-cap below every known exponent leaves nothing to compare
    with pytest.raises(InsufficientTruncation):
        first_difference(series(5, [1]), series(0, [1, 2]), through=0)


def test_first_difference_exact_sees_bits_past_64():
    # over Z the difference is exact at any width: coefficients that agree in
    # their low 64 bits still differ, and agree once read mod 2^64
    big = 1 << 64
    a = series(-1, [3, 5 + big, -7 * big])
    b = series(-1, [3, 5 + 2 * big, -7 * big])
    assert first_difference(a, b) == (0, 5 + big, 5 + 2 * big)
    assert first_difference(a, b.shift(1), through=0) == (-1, 3, 0)
    assert first_difference(a.to_ring(mod2k(64)), b.to_ring(mod2k(64))) is None


# -- property suite (fixed-seed hypothesis) -----------------------------------------

rings = st.sampled_from([EXACT, mod2k(1), mod2k(3), mod2k(8), mod2k(64)])
coeff_lists = st.lists(st.integers(-40, 40), min_size=1, max_size=32)
offsets = st.integers(-6, 6)


@given(coeff_lists, coeff_lists, offsets, offsets, rings)
def test_mul_commutes_and_valuation_superadditive(ca, cb, oa, ob, ring):
    a = series(oa, ca, ring)
    b = series(ob, cb, ring)
    ab = a.mul(b)
    ba = b.mul(a)
    assert ab.offset == ba.offset and ab.coeffs() == ba.coeffs()
    va, vb, vab = a.valuation(), b.valuation(), ab.valuation()
    if vab is not None:
        assert va is not None and vb is not None
        assert vab >= va + vb


@given(coeff_lists, coeff_lists, offsets, rings)
def test_mul_matches_schoolbook_reference(ca, cb, off, ring):
    a = series(off, ca, ring)
    b = series(0, cb, ring)
    got = a.mul(b)
    n = min(len(ca), len(cb))
    want = naive_mul(ca, cb, n)
    if ring.is_exact:
        assert got.coeffs() == want
    else:
        assert got.coeffs() == [c % (1 << ring.k) for c in want]


@given(st.lists(st.integers(-1, 1), min_size=1, max_size=12),
       st.lists(st.integers(-1, 1), min_size=1, max_size=12), offsets, offsets,
       st.one_of(st.none(), st.integers(-8, 20)), rings)
def test_first_difference_matches_coefficient_scan(ca, cb, oa, ob, through, ring):
    # the one-step window comparison against a coefficient() loop
    a, b = series(oa, ca, ring), series(ob, cb, ring)
    lo = min(oa, ob)
    hi = min(a.trunc, b.trunc) if through is None else min(a.trunc, b.trunc, through)
    if hi <= lo:
        with pytest.raises(InsufficientTruncation):
            first_difference(a, b, through)
        return
    want = next(((e, a.coefficient(e), b.coefficient(e)) for e in range(lo, hi)
                 if a.coefficient(e) != b.coefficient(e)), None)
    assert first_difference(a, b, through) == want


@st.composite
def unit_series(draw):
    ring = draw(rings)
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=4, max_size=24))
    if ring.is_exact:
        coeffs[0] = draw(st.sampled_from([1, -1]))
    else:
        coeffs[0] = draw(st.integers(0, 40)) * 2 + 1
    return series(0, coeffs + [0] * 100, ring)


@given(unit_series(), st.integers(-3, 3), st.integers(-3, 3))
def test_pow_additivity(a, e1, e2):
    lhs = a.pow(e1 + e2)
    rhs = a.pow(e1).mul(a.pow(e2))
    assert agree(lhs, rhs, through=100)


@given(coeff_lists, coeff_lists, offsets, offsets, st.sampled_from([1, 2, 3, 8, 63, 64]),
       st.integers(-6, 6), st.integers(2, 4))
def test_mod2k_commutes_with_exact_arithmetic(ca, cb, oa, ob, k, e, d):
    pad = [0] * (100 - len(ca)) if len(ca) < 100 else []
    a_exact = series(oa, ca + pad)
    b_exact = series(ob, cb)
    ring = mod2k(k)
    a_mod = a_exact.to_ring(ring)
    b_mod = b_exact.to_ring(ring)
    ops = [lambda x, y: x.mul(y), lambda x, y: x.add(y), lambda x, y: x.sub(y),
           lambda x, y: x.shift(e), lambda x, y: x.substitute_qpow(d),
           lambda x, y: x.truncate(x.offset + len(ca))]
    # negative scalars, and scalars at and past the uint64 word
    ops += [lambda x, y, c=c: x.scale(c)
            for c in (-1, -7, 2**64, 3 * 2**64 + 5, -(2**65) - 1)]
    for op in ops:
        exact_then_reduce = op(a_exact, b_exact).to_ring(ring)
        assert exact_then_reduce == op(a_mod, b_mod)


def test_exact_series_from_int64_holds_python_ints():
    # numpy int64 input must not keep wrapping 64-bit arithmetic over Z
    assert LaurentSeries(0, np.array([2**62]), EXACT).scale(8).coeffs() == [2**65]


def test_exact_series_from_numpy_scalars_holds_python_ints():
    # an object array may hold numpy scalars; they become Python ints too
    arr = np.array([np.int64(-5), np.uint64(2**64 - 1), 7], dtype=object)
    s = LaurentSeries(0, arr, EXACT)
    assert all(type(c) is int for c in s._coeffs)
    assert s.scale(2**64).coeffs() == [-5 << 64, (2**64 - 1) << 64, 7 << 64]


@pytest.mark.parametrize("ring", [EXACT, mod2k(3), mod2k(64)], ids=str)
@pytest.mark.parametrize("coeffs", [[1.5, 2.9], [Fraction(7, 2)], ["12"], [3, 2.0],
                                    np.array([2.7, -1.2])], ids=repr)
def test_non_integer_coefficients_are_type_errors(ring, coeffs):
    # no truncation to int: 1.5 is not the ring element 1, nor "12" 12
    with pytest.raises(TypeError):
        LaurentSeries(0, coeffs, ring)


@pytest.mark.parametrize("ring", [EXACT, mod2k(3), mod2k(64)], ids=str)
def test_non_integer_scalars_are_type_errors(ring):
    s = series(0, [1, 2], ring)
    for c in (2.5, Fraction(5, 2), Fraction(4, 2), "2"):
        with pytest.raises(TypeError):
            s.scale(c)
    # integers of every kind still pass
    for c in (2, True, np.int64(2), np.uint64(2)):
        assert s.scale(c).coeffs() == [int(c), 2 * int(c)]


@pytest.mark.parametrize("make", [
    lambda: EtaQuotient(2, {1: -2, 2: 1}, qshift=0.5),
    lambda: EtaQuotient(2, {1: Fraction(5, 2)}),
    lambda: EtaQuotient(2, {2.0: 1}),
    lambda: EtaQuotient(2.0, {1: 1}),
    lambda: LaurentSeries(0.7, [1], EXACT),
    lambda: series(0, [1]).shift(0.5),
    lambda: mod2k(2.0),
    lambda: mod2k(Fraction(4, 2)),
], ids=["qshift-0.5", "exponent-5/2", "divisor-2.0", "level-2.0", "offset-0.7",
        "shift-0.5", "mod2k-2.0", "mod2k-4/2"])
def test_non_integer_exponents_shifts_and_ring_sizes_are_type_errors(make):
    # as for coefficients: a q-shift of 0.5 is not 0, nor f1^(5/2) f1^2
    with pytest.raises(TypeError):
        make()


def test_integer_exponents_shifts_and_ring_sizes_of_every_kind_pass():
    i64 = np.int64
    eq = EtaQuotient(i64(2), {i64(1): i64(-2), np.uint8(2): True}, qshift=i64(-1))
    assert eq == EtaQuotient(2, {1: -2, 2: 1}, qshift=-1)
    assert all(type(v) is int
               for v in (eq.M, eq.qshift, *eq.exponents, *eq.exponents.values()))
    assert mod2k(i64(5)) == mod2k(5) and type(mod2k(i64(5)).k) is int
    assert series(i64(-1), [1]).shift(np.int32(3)).offset == 2


_EIGHT_TERMS = " + ".join(["1", "1*q", *(f"1*q^{e}" for e in range(2, 8))])


@pytest.mark.parametrize("coeffs, text", [
    ([1] * 8, f"{_EIGHT_TERMS} + O(q^8)"),
    ([1] * 8 + [0, 0], f"{_EIGHT_TERMS} + O(q^10)"),
    ([1] * 9, f"{_EIGHT_TERMS} + ... + O(q^9)"),
    ([1] * 8 + [0, 3], f"{_EIGHT_TERMS} + ... + O(q^10)"),
])
def test_str_shows_eight_terms_and_elides_only_what_it_leaves_out(coeffs, text):
    assert str(series(0, coeffs)) == text


@given(unit_series())
def test_inverse_two_sided_property(a):
    inv = a.inverse()
    one = LaurentSeries.one(a.ring, 10)
    assert agree(a.mul(inv), one, through=10)
    assert agree(inv.mul(a), one, through=10)


def test_kronecker_path_matches_schoolbook():
    # dense-by-dense products large enough to take the packed-integer path
    rng = np.random.default_rng(12345)
    a = [int(x) for x in rng.integers(-10**12, 10**12, size=700)]
    b = [int(x) for x in rng.integers(-10**12, 10**12, size=700)]
    got = series(0, a).mul(series(0, b)).coeffs()
    assert got == naive_mul(a, b, 700)


def test_exact_paths_agree_across_the_size_threshold(monkeypatch):
    # a factor of `terms` nonzero terms by a dense one of 1,000, all below
    # 10^6 with 10^6 reached: 7-byte slots, X = 7,000 packed bytes, and
    # P = 1,000 * terms term products, so (32 + (7/32)^2) P >= X^1.5 packs
    # from 19 on
    calls = _spy_kronecker(monkeypatch)
    rnd = random.Random(777)
    n = 1000
    for terms in (17, 18, 19, 20):
        sparse = [0] * n
        at = rnd.sample(range(n), terms)
        for i in at:
            sparse[i] = rnd.choice((-1, 1)) * rnd.randint(1, 10**6)
        sparse[at[0]] = 10**6
        dense = [rnd.randint(-10**6, 10**6) or 1 for _ in range(n)]
        dense[0] = -10**6
        calls.clear()
        got = series(0, sparse).mul(series(0, dense)).coeffs()
        assert got == naive_mul(sparse, dense, n), terms
        assert calls == ([n] if terms >= 19 else []), terms


def test_wide_dense_product_packs(monkeypatch):
    # two dense factors of 600 terms, 2^372 in magnitude at most and
    # reached: 95-byte slots, X = 57,000 and P = 360,000.  At 32 steps a
    # term product would stay term by term, (32 P)^2 < X^3; the wide
    # coefficients add (95/32)^2 steps to each, and the product packs
    calls = _spy_kronecker(monkeypatch)
    rnd = random.Random(95)
    n, top = 600, 1 << 372
    a = [rnd.randint(-top, top) for _ in range(n)]
    b = [rnd.randint(-top, top) for _ in range(n)]
    a[0], b[0] = top, -top
    assert (32 * n * n) ** 2 < (95 * n) ** 3
    assert series(0, a).mul(series(0, b)).coeffs() == naive_mul(a, b, n)
    assert calls == [n]


@settings(max_examples=5)
@given(st.integers(0, 2**32), st.integers(520, 640), st.integers(520, 640),
       st.integers(1, 700), st.integers(1, 700))
def test_signed_kronecker_matches_schoolbook(seed, na, nb, bits_a, bits_b):
    # two dense operands of 520+ terms: narrow coefficients pack and wide
    # ones (a few hundred bits) go term by term, and both paths must agree;
    # the coefficients come from a seeded generator, too many for hypothesis
    rnd = random.Random(seed)

    def signed(n, bits):
        return [rnd.choice((-1, 1)) * rnd.randint(1, 1 << bits) for _ in range(n)]

    a, b = signed(na, bits_a), signed(nb, bits_b)
    assert series(0, a).mul(series(0, b)).coeffs() == naive_mul(a, b, min(na, nb))


@pytest.mark.parametrize("bits", [1, 63, 64, 700])
def test_signed_kronecker_slots_at_the_bound(bits):
    # |coefficient| reaches amax * bmax * n exactly in the top slot
    n = 600
    neg = [-(1 << bits)] * n
    alt = [(-1) ** i << bits for i in range(n)]
    assert series(0, neg).mul(series(0, neg)).coeffs() == \
        [(j + 1) << 2 * bits for j in range(n)]
    assert series(0, alt).mul(series(0, alt)).coeffs() == \
        [(-1) ** j * (j + 1) << 2 * bits for j in range(n)]
    assert series(0, neg).mul(series(0, alt)).coeffs() == naive_mul(neg, alt, n)


def _spy_kronecker(monkeypatch) -> list:
    calls = []
    real = series_module._kronecker_signed
    monkeypatch.setattr(series_module, "_kronecker_signed",
                        lambda a, b, out_len, w: calls.append(out_len) or real(a, b, out_len, w))
    return calls


def test_sparse_exact_factor_is_summed_term_by_term(monkeypatch):
    # 20 nonzero terms by 20,000 dense ones is 400,000 term products, far
    # cheaper than multiplying two packings of 20,000 20-byte slots
    calls = _spy_kronecker(monkeypatch)
    rnd = random.Random(20)
    n = 20_000
    sparse = [0] * n
    for i in rnd.sample(range(n), 20):
        sparse[i] = rnd.choice((-1, 1)) * rnd.randint(1, 10**30)
    dense = [rnd.randint(-10**12, 10**12) for _ in range(n)]
    got = series(0, sparse).mul(series(0, dense)).coeffs()
    assert calls == []
    assert got == naive_mul(sparse, dense, n)


def test_sparse_factor_against_narrow_coefficients_packs(monkeypatch):
    # 240 of 4,000 terms is sparse, but against 4-byte slots its 960,000
    # term products cost more than the one big-integer product
    calls = _spy_kronecker(monkeypatch)
    rnd = random.Random(21)
    n = 4_000
    sparse = [0] * n
    for i in rnd.sample(range(n), 240):
        sparse[i] = rnd.choice((-9, -1, 1, 9))
    dense = [rnd.randint(-1000, 1000) or 1 for _ in range(n)]
    got = series(0, sparse).mul(series(0, dense)).coeffs()
    assert calls == [n]
    assert got == naive_mul(sparse, dense, n)


def _spy_conv_exact(monkeypatch) -> list:
    """out_len of every top-level exact convolution, followed by those of
    the calls it makes on the compressed operands."""
    calls, depth = [], []
    real = series_module._conv_exact

    def spy(a, b, out_len):
        if depth:
            calls[-1].append(out_len)
        else:
            calls.append([out_len])
        depth.append(out_len)
        try:
            return real(a, b, out_len)
        finally:
            depth.pop()

    monkeypatch.setattr(series_module, "_conv_exact", spy)
    return calls


def _in_qpow(g, n, terms, bits, seed, start=0):
    """n coefficients, nonzero only at `terms` multiples of g from `start`."""
    rnd = random.Random(seed)
    out = [0] * n
    for i in range(start, n, g)[:terms]:
        out[i] = rnd.choice((-1, 1)) * rnd.randint(1, 1 << bits)
    return out


@pytest.mark.parametrize("g, n, terms, bits", [
    (2, 351, 176, 100),   # dense in q^2: the compressed product packs
    (3, 100, 34, 8),      # out_len 100 is not a multiple of 3
    (8, 1001, 126, 60),
    (8, 1001, 4, 60),     # few terms: term by term on the compressed operands
])
def test_strided_product_matches_naive(monkeypatch, g, n, terms, bits):
    calls = _spy_conv_exact(monkeypatch)
    a = _in_qpow(g, n, terms, bits, seed=g)
    b = _in_qpow(g, n, n, bits, seed=n)
    assert series(0, a).mul(series(0, b)).coeffs() == naive_mul(a, b, n)
    assert calls == [[n, -(-n // g)]]
    # the common stride of the nonzero indices is what counts: 4 and 6 give 2
    a, b = _in_qpow(4, n, n, bits, 1, start=4), _in_qpow(6, n, n, bits, 2)
    assert series(0, a).mul(series(0, b)).coeffs() == naive_mul(a, b, n)
    assert calls[-1] == [n, -(-n // 2)]


def test_strided_product_with_a_constant_operand(monkeypatch):
    calls = _spy_conv_exact(monkeypatch)
    b = _in_qpow(3, 50, 50, 30, seed=3)
    const = [-7] + [0] * 49
    assert series(0, const).mul(series(0, b)).coeffs() == [-7 * c for c in b]
    assert calls == [[50, 17]]
    # two constants share no stride (gcd 0): one plain product
    assert series(0, [5, 0, 0]).mul(series(0, [7, 0, 0])).coeffs() == [35, 0, 0]
    assert calls[-1] == [3]


def test_inverse_of_a_series_in_q4_stays_compressed(monkeypatch):
    calls = _spy_conv_exact(monkeypatch)
    n = 801
    a = _in_qpow(4, n, n, 40, seed=4)
    a[0] = 1
    inv = series(0, a).inverse().coeffs()
    # every Newton product that reaches q^4 is taken on the series in q^4
    assert all(c == ([c[0]] if c[0] <= 4 else [c[0], -(-c[0] // 4)]) for c in calls)
    assert calls[-1] == [n, 201]
    assert naive_mul(a, inv, n) == [1] + [0] * (n - 1)
    assert inv[::4] == series(0, a[::4]).inverse().coeffs()
    assert not any(c for i, c in enumerate(inv) if i % 4)


def test_hauptmodul_powers_multiply_at_half_length(monkeypatch):
    # h = q^-1 G(q^2) and every power of it are series in q^2: each of the
    # degree - 1 products power.mul(h), the last ones verify_witness takes,
    # runs on ceil(T/2) slots
    calls = _spy_conv_exact(monkeypatch)
    c, T = builtin_certificate(), 301
    assert verify_witness(c, T).ok
    products = len(c.poly) - 1
    assert calls[-products:] == [[T, 151]] * products


def test_exact_mul_by_zero_operand():
    dense = list(range(1, 601))
    assert series(0, [0] * 600).mul(series(0, dense)).coeffs() == [0] * 600


def test_mod64_sparse_path_matches_dense():
    rng = np.random.default_rng(54321)
    dense = [int(x) for x in rng.integers(0, 2**63, size=400)]
    sparse = [0] * 400
    for i in (0, 3, 97, 211, 399):
        sparse[i] = int(rng.integers(1, 2**63))
    r = mod2k(64)
    got = series(0, sparse, r).mul(series(0, dense, r)).coeffs()
    want = [c % 2**64 for c in naive_mul(sparse, dense, 400)]
    assert got == want


# -- the packed mod-2^k kernel ---------------------------------------------------


@settings(max_examples=12)
@given(st.integers(0, 2**32), st.sampled_from([1, 2, 3, 8, 16, 24]),
       st.integers(100, 700), st.integers(100, 700))
def test_packed_mod2k_matches_schoolbook_on_raw_words(seed, k, na, nb):
    # dense operands given as unmasked uint64 words, as Newton's iteration in
    # inverse() hands them to the kernel; k <= 24 at these sizes packs
    rnd = random.Random(seed)
    a = [rnd.getrandbits(64) for _ in range(na)]
    b = [rnd.getrandbits(64) for _ in range(nb)]
    n = min(na, nb)
    got = _conv_mod2k(array("Q", a), array("Q", b), n, k)
    assert [c % (1 << k) for c in got.tolist()] == \
        [c % (1 << k) for c in naive_mul(a, b, n)]


@pytest.mark.parametrize("k, n", [(1, 700), (2, 700), (3, 700), (8, 700),
                                  (16, 700), (24, 700), (27, 1023)])
def test_packed_mod2k_slots_at_the_bound(k, n):
    # every coefficient 2^k - 1: slot j holds (j + 1)(2^k - 1)^2 before the
    # reduction, the most a slot can reach; at k = 27, n = 1023 the top slot
    # is just below 2^64
    top = (1 << k) - 1
    a = series(0, [top] * n, mod2k(k))
    want = [(j + 1) * top * top % (1 << k) for j in range(n)]
    assert a.mul(a).coeffs() == want
    raw = _conv_mod2k(a._coeffs, a._coeffs, n, k)
    assert raw.tolist() == [(j + 1) * top * top for j in range(n)]


def test_packed_mod2k_branch_boundary():
    # k = 27: 2k + bitlen(1023) = 64 bits fills 8-byte slots, 2k + bitlen(1024)
    # = 65 bits takes 9-byte ones; k = 64 slots are 17 or 18 bytes, of which
    # the result keeps the low 8; each agrees with the schoolbook product
    rnd = random.Random(27)
    for k, n in ((27, 1023), (27, 1024), (64, 1), (64, 2), (64, 700), (64, 1024)):
        a = [rnd.getrandbits(k) | 1 for _ in range(n)]
        b = [rnd.getrandbits(k) | 1 for _ in range(n)]
        got = series(0, a, mod2k(k)).mul(series(0, b, mod2k(k))).coeffs()
        assert got == [c % (1 << k) for c in naive_mul(a, b, n)], (k, n)


def test_packed_mod8_matches_convolve_at_8000_terms():
    rng = np.random.default_rng(8000)
    a = rng.integers(0, 8, 8000, dtype=np.uint64)
    b = rng.integers(0, 8, 8000, dtype=np.uint64)
    got = series(0, a, mod2k(3)).mul(series(0, b, mod2k(3)))._coeffs
    assert np.array_equal(got, np.convolve(a, b)[:8000] & np.uint64(7))


# -- mod-2^k word operations at full width -----------------------------------------


def _window(offset, coeffs, e):
    return coeffs[e - offset] if offset <= e < offset + len(coeffs) else 0


@pytest.mark.parametrize("k", [1, 7, 8, 63, 64])
def test_mod2k_word_operations_match_a_per_coefficient_reference(k):
    # random 64-bit words, reduced as they are read, at lengths up to 5,000
    # and unequal offsets; each operation against the coefficient-wise
    # definition mod 2^k, scalars up to 2^64 - 1 and negative included
    rnd = random.Random(k)
    mod, ring = 1 << k, mod2k(k)
    for _ in range(4):
        (oa, ca), (ob, cb) = [(rnd.randint(-30, 30),
                               [rnd.getrandbits(64) for _ in range(rnd.randint(1, 5000))])
                              for _ in range(2)]
        a, b = series(oa, ca, ring), series(ob, cb, ring)
        lo, hi = min(oa, ob), min(oa + len(ca), ob + len(cb))
        for got, sign in ((a.add(b), 1), (a.sub(b), -1)):
            assert (got.offset, got.trunc) == (lo, hi)
            assert got.coeffs() == [(_window(oa, ca, e) + sign * _window(ob, cb, e)) % mod
                                    for e in range(lo, hi)]
        for c in (2**64 - 1, rnd.getrandbits(64), -1, -rnd.getrandbits(70), 0, 3):
            assert a.scale(c).coeffs() == [c * x % mod for x in ca]
        d = rnd.randint(2, 5)
        spread = a.substitute_qpow(d)
        assert (spread.offset, spread.trunc) == (oa * d, (oa + len(ca)) * d)
        assert spread.coeffs() == [ca[i // d] % mod if i % d == 0 else 0
                                   for i in range(len(ca) * d)]
        nonneg = a.shift(30 - oa)  # extraction reads only n >= 0
        m = rnd.randint(1, 7)
        for j in (0, m - 1, rnd.randrange(m)):
            got = extract(nonneg, Progression(m, j))
            assert got.coeffs() == [_window(30, ca, m * n + j) % mod
                                    for n in range(-(-(nonneg.trunc - j) // m))]


# -- exact division by a sparse unit series --------------------------------------


@pytest.mark.parametrize("seed, smallest", [(0, 1), (1, 1), (2, 40)])
def test_divide_exact_matches_the_schoolbook_quotient(seed, smallest):
    # sparse denominators with constant term 1 whose other terms are not all
    # theta-like (+-1, or +-2 at x = y): 3 and -2 too; against the schoolbook
    # inverse times the numerator at n = 2,000
    rnd = random.Random(seed)
    n = 2000
    den = [1] + [0] * (n - 1)
    for i in [smallest, *rnd.sample(range(smallest + 1, n), 40)]:
        den[i] = rnd.choice([1, -1, 2, -2, 3])
    num = [rnd.randint(-9, 9) if rnd.random() < 0.02 else 0 for _ in range(n)]
    num[0] = rnd.randint(1, 9)
    assert _divide_exact(num, den) == naive_mul(num, naive_inverse(den, n), n)


@pytest.mark.parametrize("lead", [-1, 0, 2, 3])
def test_divide_exact_refuses_a_constant_term_other_than_one(lead):
    with pytest.raises(NonInvertibleSeries):
        _divide_exact([1, 2, 3], [lead, 1, 0])
