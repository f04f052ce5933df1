"""Infinite-family instances, the induction-step identities, and the
witness-derived 8n+2 congruence."""

import pytest

from qcongruence import families, series
from qcongruence.dissect import Progression, extract
from qcongruence.eta import EtaQuotient, expand, overpartition_gf
from qcongruence.families import (FamilyInstance, verify_eq1,
                                  verify_family_instance,
                                  verify_induction_step)
from qcongruence.series import agree, euler_factor, mod2k

MOD8 = mod2k(3)


def test_progression_formulas():
    assert FamilyInstance(0, 0, 0, "inf").progression() == (8, 2)
    assert FamilyInstance(1, 0, 0, "inf").progression() == (72, 18)
    assert FamilyInstance(0, 1, 0, "inf").progression() == (200, 50)
    assert FamilyInstance(0, 0, 1, "inf").progression() == (392, 98)
    assert FamilyInstance(0, 0, 0, "inf2").progression() == (24, 18)
    assert FamilyInstance(0, 0, 0, "inf3").progression() == (40, 10)
    assert FamilyInstance(0, 0, 0, "inf4").progression() == (56, 14)
    assert FamilyInstance(0, 0, 0, "inf4").corrected_progression() == (56, 42)
    assert FamilyInstance(0, 0, 0, "inf3").corrected_progression() == (40, 10)


def test_instance_validation():
    with pytest.raises(ValueError):
        FamilyInstance(-1, 0, 0, "inf")
    with pytest.raises(ValueError):
        FamilyInstance(0, 0, 0, "inf5")


def test_budget_enforced():
    with pytest.raises(ValueError):
        verify_family_instance(FamilyInstance(2, 1, 0, "inf"), 10)


def test_base_instance_matches():
    rep = verify_family_instance(FamilyInstance(0, 0, 0, "inf"), 50)
    assert rep.matched and "4*f1^6" in rep.note


def test_inf2_instance_matches():
    rep = verify_family_instance(FamilyInstance(0, 0, 0, "inf2"), 30)
    assert rep.matched and "4*f3^6" in rep.note


def test_inf_beta1_instance_matches():
    # s = 200, o = 50: expansion through q^4050
    rep = verify_family_instance(FamilyInstance(0, 1, 0, "inf"), 20)
    assert rep.matched


def test_inf3_selects_the_q_factor():
    rep = verify_family_instance(FamilyInstance(0, 0, 0, "inf3"), 40)
    assert rep.matched
    assert rep.note == "rhs 4*q*f5^6"


def test_inf4_as_stated_matches_neither_candidate():
    # the stated offset 2*7^(2c+1) lies on the residue class 8n+6 whose
    # stream vanishes mod 8, so both candidate right-hand sides fail
    rep = verify_family_instance(FamilyInstance(0, 0, 0, "inf4"), 40)
    assert not rep.matched
    assert rep.note == "neither q-factor candidate matched"
    assert rep.first_mismatch == (1, 0, 4)


def test_inf4_corrected_offset_matches_q_variant():
    rep = verify_family_instance(FamilyInstance(0, 0, 0, "inf4"), 40,
                                 corrected_offset=True)
    assert rep.matched
    assert rep.note == "rhs 4*q*f7^6"


def test_inf4_stated_stream_vanishes_mod8():
    gf = overpartition_gf(5, MOD8, 56 * 40 + 15)
    stream = extract(gf, Progression(56, 14))
    assert all(c == 0 for c in stream.coeffs())


# -- eq1 ---------------------------------------------------------------------


def test_eq1_matches_with_overpartition_reading():
    rep = verify_eq1(300)
    assert rep.matched
    assert "overpartitions" in rep.note


def test_eq1_colored_partition_reading_fails():
    # the literal 5-colored-partition stream does not satisfy the congruence
    T = 40
    gf = euler_factor(1, -5, MOD8, 8 * T + 3)
    stream = extract(gf, Progression(8, 2)).truncate(T)
    rhs = expand(EtaQuotient(8, {1: -78, 2: -36, 4: 179, 8: -70}), MOD8, T).scale(4)
    assert not agree(stream, rhs, through=T)


def test_eq1_rhs_lifted_from_mod2_is_the_mod8_expansion_times_4():
    # 4*X mod 8 reads only X mod 2, so verify_eq1 expands its quotient mod 2
    T = 1600
    eq = EtaQuotient(8, {1: -78, 2: -36, 4: 179, 8: -70})
    lifted = expand(eq, mod2k(1), T).to_ring(MOD8).scale(4)
    assert lifted == expand(eq, MOD8, T).scale(4)


def test_eq1_mutated_exponent_detected():
    T = 60
    gf = overpartition_gf(5, MOD8, 8 * T + 3)
    stream = extract(gf, Progression(8, 2)).truncate(T)
    wrong = expand(EtaQuotient(8, {1: -78, 2: -36, 4: 178, 8: -70}), MOD8, T).scale(4)
    assert not agree(stream, wrong, through=T)


# -- right-hand sides ---------------------------------------------------------


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
def test_four_f6_is_binary_powering_times_4(d):
    # mod 2, f^2 = f(q^2) and f1^3 == f(-q, -q^3), so 4*f_d^6 is one sparse
    # theta series mod 8; pinned against the binary-powering route
    T = 3000
    assert families._four_f6(d, T) == euler_factor(d, 6, MOD8, T).scale(4)


def test_four_f3_squared_is_four_f6():
    # the base-3 split's 4*f3^2, taken as 4*f6 = 4*f(-q^6, -q^12)
    T = 3000
    assert (euler_factor(3, 2, MOD8, T).scale(4)
            == euler_factor(6, 1, MOD8, T).scale(4))


@pytest.mark.parametrize("T", [500, 2040])
def test_verify_suite_runs_no_mod2k_product(monkeypatch, T):
    # every right side is a theta series and every stream a Gauss-route
    # table, so the suite never calls the dense mod-2^k kernel
    calls = []
    real = series._conv_mod2k

    def spy(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(series, "_conv_mod2k", spy)
    families.verify_suite(T)
    assert calls == []


def test_verify_suite_expands_the_stream_once(monkeypatch):
    # all eight instance rows read one expansion of p-bar_{-5} mod 8
    calls = []
    real = series._gauss_power_mod2k

    def spy(e, k, n):
        calls.append((e, k, n))
        return real(e, k, n)

    monkeypatch.setattr(series, "_gauss_power_mod2k", spy)
    families.verify_suite(500)
    assert len(calls) == 1


@pytest.mark.parametrize("row", range(8))
def test_verify_suite_rows_equal_verify_family_instance(row):
    fi, corrected = families._SUITE_ROWS[row]
    s, o = fi.corrected_progression() if corrected else fi.progression()
    assert (verify_family_instance(fi, (20_000 - o) // s, corrected)
            == families.verify_suite(1)[row])


# -- induction steps ----------------------------------------------------------


@pytest.mark.parametrize("base", [3, 5, 7])
def test_induction_steps_match(base):
    rep = verify_induction_step(base, 600)
    assert rep.matched, rep.summary()


@pytest.mark.parametrize("base", [3, 5, 7])
def test_induction_steps_match_at_the_top_of_the_T_range(base):
    # the base-7 step reads 4,900,013 terms of 4*f1^6
    rep = verify_induction_step(base, 100_000)
    assert rep.matched and rep.truncation == 100_000, rep.summary()


def test_induction_step_base5_records_q_factor():
    rep = verify_induction_step(5, 200)
    assert rep.matched and rep.note == "rhs 4*q*f5^6"


def test_induction_step_base5_reports_neither_candidate(monkeypatch):
    # with both right-hand sides spoiled, the base-5 step reports the stated
    # candidate's mismatch, noted as neither matching
    real = families._rhs_candidates
    monkeypatch.setattr(families, "_rhs_candidates", lambda variant, T: [
        (label, rhs.scale(0)) for label, rhs in real(variant, T)])
    rep = verify_induction_step(5, 200)
    assert not rep.matched
    assert rep.note == "neither q-factor candidate matched"
    assert rep.name == "extract(4*f1^6, 5n+1) = 4*q*f5^6 (mod 8)"
    assert rep.first_mismatch[0] == 1


def test_lone_candidate_reports_its_own_mismatch(monkeypatch):
    # inf offers one right-hand side: spoiled, its own report comes back,
    # noted with its label rather than as neither matching
    real = families._rhs_candidates
    monkeypatch.setattr(families, "_rhs_candidates", lambda variant, T: [
        (label, rhs.scale(0)) for label, rhs in real(variant, T)])
    rep = verify_family_instance(FamilyInstance(0, 0, 0, "inf"), 40)
    assert (rep.name, rep.truncation, rep.first_mismatch, rep.note) == \
        ("inf(alpha=0, beta=0, gamma=0)", 41, (0, 4, 0), "rhs 4*f1^6")


def test_induction_step_validation():
    with pytest.raises(ValueError):
        verify_induction_step(4, 100)


def test_induction_closure_paths_agree():
    # iterating the proof's extraction from the base instance reproduces the
    # incremented instances exactly, coefficient by coefficient
    n_show = 12
    T = 392 * n_show + 99
    gf = overpartition_gf(5, MOD8, T)
    base_stream = extract(gf, Progression(8, 2))

    # alpha + 1: extract 3n+2 then 3n+0 from the 8n+2 stream
    two_step = extract(extract(base_stream, Progression(3, 2)), Progression(3, 0))
    direct = extract(gf, Progression(72, 18))
    assert agree(two_step.truncate(n_show), direct.truncate(n_show))

    # beta + 1: extract 5n+1 twice
    two_step = extract(extract(base_stream, Progression(5, 1)), Progression(5, 1))
    direct = extract(gf, Progression(200, 50))
    assert agree(two_step.truncate(n_show), direct.truncate(n_show))

    # gamma + 1: extract 7n+5 then 7n+1
    two_step = extract(extract(base_stream, Progression(7, 5)), Progression(7, 1))
    direct = extract(gf, Progression(392, 98))
    assert agree(two_step.truncate(n_show), direct.truncate(n_show))


def test_higher_parameter_instances():
    # one level up in each deepened variant; the corrected-offset form of
    # the 7-power family closes the induction at gamma = 1 as well
    rep = verify_family_instance(FamilyInstance(1, 0, 0, "inf2"), 80)
    assert rep.matched and rep.note == "rhs 4*f3^6"
    rep = verify_family_instance(FamilyInstance(0, 1, 0, "inf3"), 19)
    assert rep.matched and rep.note == "rhs 4*q*f5^6"
    rep = verify_family_instance(FamilyInstance(0, 0, 1, "inf4"), 10,
                                 corrected_offset=True)
    assert rep.matched and rep.note == "rhs 4*q*f7^6"


def test_variant_consistency_inf2_is_extraction_of_inf():
    n_show = 30
    T = 24 * n_show + 19
    gf = overpartition_gf(5, MOD8, T)
    inf_stream = extract(gf, Progression(8, 2))
    via_extraction = extract(inf_stream, Progression(3, 2))
    direct = extract(gf, Progression(24, 18))
    assert agree(via_extraction.truncate(n_show), direct.truncate(n_show))
