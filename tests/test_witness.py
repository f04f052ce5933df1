"""Witness certificates: the shipped certificate, the identity checker, the
common-factor computation and the text format."""

import pytest
from hypothesis import given, settings, strategies as st

from qcongruence.cli import main
from qcongruence.congruences import check_claims, CongruenceClaim
from qcongruence.eta import EtaQuotient, expand
from qcongruence.series import EXACT
from qcongruence.witness import (WitnessCertificate,
                                 builtin_certificate, builtin_certificate_text,
                                 certificate_common_factor, format_certificate,
                                 load_certificate, parse_certificate,
                                 save_certificate, verify_witness)


def replace_poly(cert, poly, common_factor=1):
    return WitnessCertificate(
        N=cert.N, M=cert.M, r=cert.r, m=cert.m, j=cert.j, pset=cert.pset,
        prefactor=cert.prefactor, hauptmodul=cert.hauptmodul,
        poly=tuple(poly), poly_min_degree=cert.poly_min_degree,
        claimed_common_factor=common_factor, id="mutated")


def test_builtin_fields():
    cert = builtin_certificate()
    assert cert.N == 8
    assert cert.M == 2 and cert.r == {1: -10, 2: 5}
    assert cert.m == 8 and cert.j == 7 and cert.pset == frozenset({7})
    assert cert.poly[0] == 162177965096960       # degree 1
    assert cert.poly[-1] == 37760                # degree 17
    assert cert.degree == 17
    assert cert.claimed_common_factor == 128


def test_builtin_identity_matches():
    rep = verify_witness(builtin_certificate(), 200)
    assert rep.identity_matched
    assert rep.implied_modulus == 128


def test_mutated_poly_detected_at_lowest_exponent():
    cert = builtin_certificate()
    poly = list(cert.poly)
    poly[-1] += 1  # 37760 -> 37761 perturbs the t^17 term, valuation -17
    rep = verify_witness(replace_poly(cert, poly), 200)
    assert not rep.identity_matched
    assert rep.first_mismatch == (-17, 37760, 37761)


def test_builtin_valuations():
    cert = builtin_certificate()
    lhs_pre = expand(cert.prefactor, EXACT, 5)
    assert lhs_pre.offset == -17 and lhs_pre.coefficient(-17) == 1
    h = expand(cert.hauptmodul, EXACT, 5)
    assert h.valuation() == -1
    assert h.coefficient(-1) == 1


def test_common_factor_builtin():
    gcd, v2 = certificate_common_factor(builtin_certificate())
    assert gcd % 128 == 0
    assert v2 == 7          # 37760 / 128 = 295 is odd


def test_common_factor_simple_and_degenerate():
    cert = builtin_certificate()
    assert certificate_common_factor(replace_poly(cert, [2, 4, 6]))[0] == 2
    gcd, v2 = certificate_common_factor(replace_poly(cert, [0]))
    assert gcd == 0 and v2 is None
    rep = verify_witness(replace_poly(cert, [0]), 50)
    assert rep.implied_modulus is None


def test_witness_cross_checks_congruence_claim():
    rep = verify_witness(builtin_certificate(), 120)
    assert rep.identity_matched
    k = rep.implied_modulus.bit_length() - 1
    assert check_claims([CongruenceClaim(5, 8, 7, k)], 200)[0].holds


def test_certificate_validation():
    cert = builtin_certificate()
    with pytest.raises(ValueError):
        replace_poly(cert, [4, 2], common_factor=4)  # 4 does not divide 2
    with pytest.raises(ValueError):
        WitnessCertificate(N=8, M=2, r={1: -10, 2: 5}, m=8, j=3,
                          pset=frozenset({7}), prefactor=cert.prefactor,
                          hauptmodul=cert.hauptmodul, poly=(1,))  # j not in P
    with pytest.raises(ValueError):
        WitnessCertificate(N=8, M=2, r={3: 1}, m=8, j=7,
                          pset=frozenset({7}), prefactor=cert.prefactor,
                          hauptmodul=cert.hauptmodul, poly=(1,))  # 3 | 2 fails


def test_window_must_reach_q0():
    # the builtin's pole order is 17: T=18 compares q^-17..q^0, T=17 would
    # compare only negative exponents and is refused
    assert verify_witness(builtin_certificate(), 18).identity_matched
    with pytest.raises(ValueError, match="pole order 17 is at least T=17"):
        verify_witness(builtin_certificate(), 17)


def test_constant_term_certificate_verifies():
    # trivial identity 1 = 1 exercises poly_min_degree = 0 end to end
    tiny = WitnessCertificate(
        N=1, M=1, r={}, m=1, j=0, pset=frozenset({0}),
        prefactor=EtaQuotient(1, {}), hauptmodul=EtaQuotient(1, {1: 1}),
        poly=(1,), poly_min_degree=0, claimed_common_factor=1, id="tiny")
    rep = verify_witness(tiny, 40)
    assert rep.identity_matched


# -- text format ------------------------------------------------------------------


def test_format_parse_round_trip():
    cert = builtin_certificate()
    assert parse_certificate(format_certificate(cert)) == cert


def test_file_round_trip(tmp_path):
    cert = builtin_certificate()
    path = tmp_path / "cert.txt"
    save_certificate(cert, path)
    assert load_certificate(path) == cert


def test_parse_accepts_comments_and_blank_lines():
    text = "# comment\n\n" + format_certificate(builtin_certificate()) + "\n# end\n"
    assert parse_certificate(text) == builtin_certificate()


def test_parse_rejects_bad_input():
    good = format_certificate(builtin_certificate())
    with pytest.raises(ValueError, match="missing"):
        parse_certificate("\n".join(l for l in good.splitlines()
                                    if not l.startswith("poly ")))
    with pytest.raises(ValueError, match="duplicate"):
        parse_certificate(good + "N 8\n")
    with pytest.raises(ValueError, match="AB"):
        parse_certificate(good.replace("AB 1", "AB 1,2"))
    with pytest.raises(ValueError, match="no value"):
        parse_certificate(good + "stray\n")


def test_parse_rejects_a_repeated_r_divisor(capsys, tmp_path):
    # keeping the last pair would check f1^3 * f2^5 in place of the stated
    # quotient; the certificate is rejected as input instead
    text = builtin_certificate_text().replace("r 1:-10 2:5", "r 1:-10 2:5 1:3")
    with pytest.raises(ValueError, match="field 'r' repeats divisor 1"):
        parse_certificate(text)
    path = tmp_path / "cert.txt"
    path.write_text(text)
    assert main(["verify", "witness", str(path), "--T", "60"]) == 2
    assert "field 'r' repeats divisor 1" in capsys.readouterr().err


def test_parse_rejects_unknown_fields(capsys, tmp_path):
    # a misspelled key must not leave the claimed factor at 128 unnoticed
    text = builtin_certificate_text() + "comon_factor 256\n"
    lineno = len(text.splitlines())
    with pytest.raises(ValueError,
                       match=f"line {lineno}: unknown field 'comon_factor'"):
        parse_certificate(text)
    path = tmp_path / "cert.txt"
    path.write_text(text)
    assert main(["verify", "witness", str(path), "--T", "20"]) == 2
    assert "unknown field 'comon_factor'" in capsys.readouterr().err


# -- parser fuzzing ---------------------------------------------------------------

_SHIPPED_LINES = builtin_certificate_text().splitlines()
_FIELD_CHARS = "0123456789 -:,^*fqx#\t"


@st.composite
def mutated_certificates(draw):
    """The shipped file with one line replaced, cut, duplicated or edited."""
    lines = list(_SHIPPED_LINES)
    i = draw(st.integers(0, len(lines) - 1))
    key = lines[i].partition(" ")[0]
    action = draw(st.sampled_from(["value", "text", "delete", "duplicate",
                                   "edit"]))
    if action == "value":
        lines[i] = key + " " + draw(st.text(_FIELD_CHARS, max_size=30))
    elif action == "text":
        lines[i] = draw(st.text(max_size=40))
    elif action == "delete":
        del lines[i]
    elif action == "duplicate":
        lines.insert(i, lines[i])
    else:
        j = draw(st.integers(0, len(lines[i])))
        cut = draw(st.integers(0, 3))
        lines[i] = lines[i][:j] + draw(st.text(_FIELD_CHARS, max_size=3)) \
            + lines[i][j + cut:]
    return "\n".join(lines) + "\n"


@settings(deadline=None, derandomize=True, max_examples=400)
@given(st.one_of(mutated_certificates(), st.text(max_size=200)))
def test_parse_certificate_raises_only_value_error(text):
    try:
        parse_certificate(text)
    except ValueError:
        pass
