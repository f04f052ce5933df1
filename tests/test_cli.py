"""Command-line surface: output formats, exit codes, regression blessing."""

import ast
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from qcongruence import cli, congruences, dissect, families, series, witness
from qcongruence.cli import main
from qcongruence.congruences import (_ORACLE_MAX_N, _ORACLE_MAX_T, DEFAULT_N_MAX,
                                     ClaimReport, CongruenceClaim)
from qcongruence.dissect import IdentityReport
from qcongruence.eta import format_eta_quotient
from qcongruence.series import (DEFAULT_BUDGET, EXACT, LaurentSeries, euler_factor,
                                int_text)
from qcongruence.witness import WitnessReport, builtin_certificate, format_certificate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_overpartition_example(capsys):
    code, out, _ = run(capsys, "expand", "f2^1 * f1^-2", "--T", "8")
    assert code == 0
    values = [line.split(": ")[1] for line in out.splitlines()
              if line.startswith("q^")]
    assert values == ["1", "2", "4", "8", "14", "24", "40", "64"]


def test_expand_euler_product(capsys):
    code, out, _ = run(capsys, "expand", "f1^1", "--T", "3")
    assert code == 0
    assert [l for l in out.splitlines() if l.startswith("q^")] == \
        ["q^0: 1", "q^1: -1", "q^2: -1"]


def test_expand_negative_shift_lists_negative_exponents(capsys):
    code, out, _ = run(capsys, "expand", "q^-1 * f1^1", "--T", "2")
    assert code == 0
    assert [l for l in out.splitlines() if l.startswith("q^")] == \
        ["q^-1: 1", "q^0: -1", "q^1: -1"]


def test_expand_mod2k_ring(capsys):
    # f1^3 mod 2 is supported on the triangular numbers (its Jacobi
    # expansion has odd coefficients exactly there): 0, 1, 3 below 6
    code, out, _ = run(capsys, "expand", "f1^3", "--T", "6", "--ring", "mod2k:1")
    assert code == 0
    assert [l for l in out.splitlines() if l.startswith("q^")] == \
        ["q^0: 1", "q^1: 1", "q^2: 0", "q^3: 1", "q^4: 0", "q^5: 0"]


def test_expand_bad_grammar_is_usage_error(capsys):
    code, _, err = run(capsys, "expand", "f2^1 * nope", "--T", "8")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command, rest", [("expand", []), ("extract", ["8", "0"])])
@pytest.mark.parametrize("shift, accepted", [(100001, False), (99999, True)])
def test_q_shift_counts_against_the_budget(capsys, monkeypatch, command, rest,
                                           shift, accepted):
    # T - qshift coefficients are expanded; the check runs before any of them
    calls = []
    monkeypatch.setattr(cli, "expand", lambda eq, ring, T: calls.append(T)
                        or LaurentSeries.one(ring, 1))
    code, _, err = run(capsys, command, f"q^-{shift} * f1^1", *rest, "--T", "1")
    if accepted:
        assert (code, calls) == (0, [1])
    else:
        assert (code, calls) == (2, [])
        assert (f"expansion length {shift + 1} (--T 1 minus q-shift -{shift}) "
                f"is over the budget of {DEFAULT_BUDGET}") in err


def test_expand_truncation_below_shift_is_usage_error(capsys):
    code, _, err = run(capsys, "expand", "q^5 * f1^1", "--T", "3")
    assert code == 2


def test_extract_bad_residue_is_usage_error(capsys):
    code, _, err = run(capsys, "extract", "f1^-1", "4", "4", "--T", "20")
    assert code == 2


@pytest.mark.parametrize("m, j, message", [
    ("8", "9", "residue j=9 not in [0, 8)"),
    ("0", "0", "progression step m must be positive"),
])
def test_extract_checks_its_progression_before_expanding(capsys, monkeypatch, m, j,
                                                         message):
    # a bad progression is refused before the spec is expanded, not after
    calls = []
    monkeypatch.setattr(cli, "expand", lambda eq, ring, T: calls.append(T)
                        or LaurentSeries.one(ring, 1))
    code, out, err = run(capsys, "extract", "f1^-50", m, j, "--T", "100000")
    assert (code, out, calls) == (2, "", [])
    assert message in err


def test_extract_stream(capsys):
    code, out, _ = run(capsys, "extract", "f2^5 * f1^-10", "8", "7",
                       "--T", "32")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("n=")]
    assert lines[0] == "n=0 (q^7): 37760"


def test_verify_theorems_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "theorems", "--n-max", "40")
    assert code == 0
    assert out.count("holds") == 24
    assert "# options:" in out


def test_verify_theorems_records_format(capsys):
    code, out, _ = run(capsys, "verify", "theorems", "--n-max", "10",
                       "--format", "records")
    assert code == 0
    recs = [l for l in out.splitlines() if l.startswith("claim ")]
    assert len(recs) == 24
    assert recs[0].startswith("claim t=5 m=8 j=1 k=1 n_max=10 verdict=holds "
                              "counterexample_n=- counterexample_value=- ms=")


@pytest.mark.parametrize("argv", [
    ("verify", "theorems", "--ring", "mod2k:8"),
    ("oracle", "--T", "5"),
    ("oracle", "--ring", "mod2k:8"),
    ("expand", "f1^1", "--n-max", "3"),
    ("extract", "f1^1", "2", "0", "--n-max", "3"),
    ("verify", "theorems", "--workers", "2"),
    ("verify", "eq1", "--T", "50", "--n-max", "5", "--family-n-max", "3"),
    ("verify", "theorems", "--T", "50"),
    ("verify", "conjecture", "3", "--T", "50"),
    ("verify", "conjecture", "--family-n-max", "3"),
    ("verify", "dissections", "--n-max", "5"),
    ("verify", "witness", "--family-n-max", "3"),
    ("verify", "families", "--n-max", "5"),
    ("verify", "theorems", "17"),
    ("verify", "eq1", "junk"),
    ("verify", "dissections", "3"),
    ("verify", "families", "3"),
    ("verify", "all", "17"),
    ("verify", "families", "--family-n-max", "3"),
    ("verify", "all", "--family-n-max", "3"),
])
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_all_reads_every_flag(capsys, monkeypatch):
    seen = {}
    monkeypatch.setattr(cli, "_run", lambda args: seen.update(vars(args)) or 0)
    assert main(["verify", "all", "--T", "50", "--n-max", "5"]) == 0
    assert (seen["T"], seen["n_max"]) == (50, 5)


def test_each_verify_target_reads_exactly_its_flags(capsys, monkeypatch):
    values = {"--T": "50", "--n-max": "5", "--ring": "exact"}
    assert set(values) == set(cli._INPUT_FLAGS)
    seen = {}
    monkeypatch.setattr(cli, "_run", lambda args: seen.update(vars(args)) or 0)
    for name, target in cli._TARGETS.items():
        for flag, value in values.items():
            argv = ["verify", name, flag, value]
            if flag in target.reads:
                assert main(argv) == 0, argv
                assert str(seen[flag[2:].replace("-", "_")]) == value, argv
            else:
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2, argv
        argv = ["verify", name, "3"]
        if target.positionals:
            _, type_, _ = target.positionals
            assert main(argv) == 0 and seen["args"] == [type_("3")], argv
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv


def test_verify_header_names_default_options(capsys):
    code, out, _ = run(capsys, "verify", "eq1", "--T", "60")
    assert code == 0
    assert f"# options: T=60 n_max={DEFAULT_N_MAX}\n" in out


@pytest.mark.parametrize("argv, flag", [
    (("expand", "f1^1", "--T", "300000000"), "--T"),
    (("extract", "f1^1", "2", "0", "--T", "0"), "--T"),
    (("verify", "theorems", "--n-max", "-6"), "--n-max"),
    (("verify", "witness", "--T", str(DEFAULT_BUDGET + 1)), "--T"),
    (("verify", "families", "--T", "0"), "--T"),
    (("oracle", "--n-max", "100001"), "--n-max"),
    (("oracle", "--t", "5", "--n-max", "15"), "--n-max"),
    (("oracle", "--t", "6"), "--t"),
    (("oracle", "--t", "0"), "--t"),
])
def test_sizes_outside_the_budget_are_usage_errors(capsys, argv, flag):
    # rejected while parsing, before any series is allocated or any
    # overpartition enumerated; the oracle is bounded by the enumeration
    bound = ({"--t": _ORACLE_MAX_T, "--n-max": _ORACLE_MAX_N}[flag]
             if argv[0] == "oracle" else DEFAULT_BUDGET)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"argument {flag}: must be in 1..{bound}," in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("expand", "f1^1", "--ring", "mod2k:x"), "argument --ring: must be 'exact' or"),
    (("expand", "f1^1", "--ring", "mod2k:65"), "argument --ring: must be 'exact' or"),
    (("extract", "f1^1", "2", "0", "--ring", "foo"), "argument --ring: must be 'exact' or"),
    (("verify", "eq1", "--bless", "a.txt", "--check", "b.txt"),
     "argument --check: not allowed with argument --bless"),
    (("expand", "f1^1", "--check", "b.txt", "--bless", "a.txt"),
     "argument --bless: not allowed with argument --check"),
    (("verify", "conjecture", "3", "x"),
     "verify conjecture: error: argument PRIME: invalid int value: 'x'"),
    (("verify", "conjecture", "3.5", "--bless", "a.txt"),
     "verify conjecture: error: argument PRIME: invalid int value: '3.5'"),
], ids=["ring-mod2k-x", "ring-mod2k-65", "ring-foo", "bless-check", "check-bless",
        "conjecture-x", "conjecture-3.5"])
def test_malformed_flag_values_are_usage_errors(capsys, monkeypatch, tmp_path,
                                                argv, message):
    # argparse's message names the flag or argument and the command;
    # neither --bless nor --check runs
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, want", [
    (["verify", "witness", "--T=50"], {"T": 50}),
    (["verify", "theorems", "--n-max=5"], {"n_max": 5}),
    (["verify", "all", "--T=50", "--n-max=5"], {"T": 50, "n_max": 5}),
    (["verify", "theorems", "--n", "5"], {"n_max": 5}),
    (["verify", "theorems", "--n=5", "--f", "records"], {"n_max": 5, "format": "records"}),
    (["verify", "conjecture", "3", "--n-max", "50", "17"], {"args": [3, 17], "n_max": 50}),
    (["verify", "witness", "--T", "60", "--", "-cert.txt"], {"args": ["-cert.txt"], "T": 60}),
], ids=["T=", "n-max=", "all-both=", "abbreviated", "abbreviated=", "primes-around-flag",
        "dashes"])
def test_flag_spellings_and_positionals_among_flags(monkeypatch, argv, want):
    # --flag=value, a unique prefix of a flag, positionals on either side
    # of a flag, and a dash word after --
    seen = {}
    monkeypatch.setattr(cli, "_run", lambda args: seen.update(vars(args)) or 0)
    assert main(argv) == 0
    assert {k: seen[k] for k in want} == want


def test_negative_integer_is_a_positional(capsys):
    # -1 is read as j, and Progression refuses it as data
    code, _, err = run(capsys, "extract", "f1^1", "8", "-1", "--T", "5")
    assert code == 2
    assert "residue j=-1" in err


@pytest.mark.parametrize("argv, message", [
    (["verify", "theorems", "--x", "5"], "unrecognized arguments: --x 5"),
    (["verify", "theorems", "--n-maxx", "5"], "unrecognized arguments: --n-maxx 5"),
    (["verify", "theorems", "--fo", "records"],
     "ambiguous option: --fo could match --format, --fork"),
    (["verify", "theorems", "--n-max"], "argument --n-max: expected one argument"),
    (["verify", "theorems", "--n-max", "--format", "records"],
     "argument --n-max: expected one argument"),
    (["verify", "theorems", "--format", "json"], "argument --format: invalid choice: 'json'"),
    (["extract", "f1^1", "8"], "the following arguments are required: j"),
    (["extract", "f1^1", "x", "0"], "argument m: invalid int value: 'x'"),
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["verify"], "the following arguments are required: target"),
    (["verify", "everything"], "argument target: invalid choice: 'everything'"),
], ids=["unknown-flag", "longer-than-flag", "ambiguous-prefix", "no-value", "flag-as-value",
        "format-choice", "missing-positional", "bad-int", "empty", "unknown-command",
        "no-target", "unknown-target"])
def test_parse_errors_exit_2_with_usage(capsys, monkeypatch, argv, message):
    # a second output flag sharing a prefix with --format makes --fo ambiguous
    monkeypatch.setitem(cli._OUTPUT_FLAGS, "--fork", (str, "X", "test only"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qcongruence") and message in err


_OUT = ["--format", "--bless", "--check"]


@pytest.mark.parametrize("argv, names", [
    (["-h"], list(cli._COMMANDS)),
    (["--help"], list(cli._COMMANDS)),
    (["--he"], list(cli._COMMANDS)),
    (["verify", "-h"], [*cli._TARGETS, "all"]),
    (["expand", "--help"], ["--T", "--ring", *_OUT, "spec"]),
    (["extract", "-h"], ["--T", "--ring", *_OUT, "spec", "m", "j"]),
    (["oracle", "-h"], ["--t", "--n-max", *_OUT]),
    *((["verify", name, "-h"], [*t.reads, *_OUT, *(t.positionals or ())[:1]])
      for name, t in cli._TARGETS.items()),
    (["verify", "all", "-h"], ["--n-max", "--T", *_OUT]),
    (["verify", "theorems", "--n-max", "5", "--h"], ["--n-max", *_OUT]),
])
def test_help_exits_0_and_names_each_flag(capsys, argv, names):
    # at the top, verify and every command or target: each row starts with
    # a command, a flag or a positional
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    words = [w for w in argv[:2] if not w.startswith("-")]
    assert out.startswith(" ".join(["usage: qcongruence", *words, "[-h]"]))
    rows = [line.split()[0] for line in out.splitlines()[2:]]
    assert rows == names


def test_main_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no argv
    monkeypatch.setattr(sys, "argv", ["qcongruence", "expand", "f1^1", "--T", "2"])
    assert main() == 0
    assert "q^1: -1" in capsys.readouterr().out


def test_verify_conjecture_explicit_primes(capsys):
    code, out, _ = run(capsys, "verify", "conjecture", "3", "17",
                       "--n-max", "50")
    assert code == 0
    assert out.count("holds") == 14


def test_verify_conjecture_nonprime_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "conjecture", "4")
    assert code == 2
    assert "not prime" in err


@pytest.mark.parametrize("argv, want", [
    # one kernel pass for the four t, mod 2^(the largest k)
    (["theorems"], [((-5, -7, -11, -13), 8)]),
    # one pass mod 2^8 for both primes' claims and valuations: no row of
    # either vanishes mod 2^8, so neither is read again
    (["conjecture", "3", "17"], [((-3, -17), 8)]),
], ids=["theorems", "conjecture"])
def test_verify_expands_one_table_per_run_of_claims(capsys, monkeypatch, argv, want):
    calls = []
    real = series._gauss_power_mod2k

    def spy(es, k, n):
        calls.append((tuple(es), k))
        assert n == 8 * 51
        return real(es, k, n)

    monkeypatch.setattr(series, "_gauss_power_mod2k", spy)
    code, _, _ = run(capsys, "verify", *argv, "--n-max", "50")
    assert code == 0
    assert calls == want


@pytest.mark.parametrize("argv, want", [
    (["conjecture", "3", "17"], [([3, 17], 8)]),
    # 13's 8n+7 row vanishes mod 2^8 (its minimum is 8), so 13 alone is read
    # again mod 2^16, where every minimum is decided
    (["conjecture", "3", "13"], [([3, 13], 8), ([13], 16)]),
    (["theorems"], [([5, 7, 11, 13], 8)]),
], ids=["conjecture-3-17", "conjecture-3-13", "theorems"])
def test_verify_reads_each_prime_once_mod_2_8(capsys, monkeypatch, argv, want):
    reads = []
    real = congruences.overpartition_residues

    def spy(ts, ring, m, n_max):
        reads.append((list(ts), ring.k))
        return real(ts, ring, m, n_max)

    monkeypatch.setattr(congruences, "overpartition_residues", spy)
    code, _, _ = run(capsys, "verify", *argv, "--n-max", "200")
    assert code == 0
    assert reads == want


def test_verify_witness_builtin(capsys):
    code, out, _ = run(capsys, "verify", "witness", "builtin", "--T", "80")
    assert code == 0
    assert "matched" in out and "128" in out


def test_verify_witness_from_file(capsys, tmp_path):
    path = tmp_path / "cert.txt"
    path.write_text(format_certificate(builtin_certificate()))
    code, out, _ = run(capsys, "verify", "witness", str(path), "--T", "80")
    assert code == 0


def test_verify_witness_mutated_file_fails(capsys, tmp_path):
    cert = format_certificate(builtin_certificate())
    # perturb one polynomial coefficient, keeping the claimed factor valid
    cert = cert.replace("common_factor 128", "common_factor 1")
    cert = cert.replace(" 37760", " 37761")
    path = tmp_path / "bad.txt"
    path.write_text(cert)
    code, out, _ = run(capsys, "verify", "witness", str(path), "--T", "80")
    assert code == 1
    assert "MISMATCH" in out


def test_verify_witness_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "witness", "/nonexistent/cert.txt")
    assert code == 2


@pytest.mark.parametrize("m, T, length", [
    (8, 100_000, 800_008),         # the builtin certificate at a large --T
    (1_000_000, 500, 500_000_008),  # a large progression step at the default --T
])
def test_verify_witness_over_budget_is_usage_error(capsys, tmp_path, monkeypatch,
                                                  m, T, length):
    # the budget covers the base expansion m*T + max(P) + 1, not just --T
    def no_expansion(*args):
        raise AssertionError("expanded a series past the budget")

    monkeypatch.setattr(witness, "expand", no_expansion)
    cert = format_certificate(builtin_certificate()).replace("m 8\n", f"m {m}\n")
    path = tmp_path / "cert.txt"
    path.write_text(cert)
    source = "builtin" if m == 8 else str(path)
    code, _, err = run(capsys, "verify", "witness", source, "--T", str(T))
    assert code == 2
    assert f"expanded to {length} terms" in err and str(DEFAULT_BUDGET) in err


@pytest.mark.parametrize("sources, T, message", [
    (["builtin", "builtin", "BIG"], 1500, "needs its base expanded to 1500000008 terms"),
    (["builtin", "/nonexistent/cert.txt"], 1000, "/nonexistent/cert.txt"),
    (["builtin", "builtin", "DEG18"], 1500,
     "poly degree 18 times the hauptmodul's pole order 1 is 18, past the left "
     "side's pole order 17"),
])
def test_verify_witness_loads_and_bounds_every_certificate_before_any_check(
        capsys, tmp_path, monkeypatch, sources, T, message):
    # a certificate over the budget, one that cannot be read, or one whose
    # poly is past its pole order fails the run before any certificate named
    # ahead of it is checked
    checked = []

    def spy(cert, T):
        checked.append(cert.id)
        return WitnessReport(cert.id, T, None, 128)

    monkeypatch.setattr(cli, "verify_witness", spy)
    text = format_certificate(builtin_certificate())
    files = {"BIG": text.replace("m 8\n", "m 1000000\n"),
             "DEG18": text.replace("\ncommon_factor", " 128\ncommon_factor")}
    for name, cert in files.items():
        (tmp_path / name).write_text(cert)
    argv = [str(tmp_path / src) if src in files else src for src in sources]
    code, out, err = run(capsys, "verify", "witness", *argv, "--T", str(T))
    assert (code, out, checked) == (2, "", [])
    assert message in err


@pytest.mark.parametrize("extra, hauptmodul, reach", [
    (1, "q^-1 * f2^-4 * f4^12 * f8^-8", "pole order 1 is 18"),
    (100000, "q^-1 * f2^-4 * f4^12 * f8^-8", "pole order 1 is 100017"),
    # with no pole, D*h is 0 at any degree, yet each degree costs a product
    (2983, "f2^-4 * f4^12 * f8^-8", "pole order 0, taken as 1, is 3000"),
], ids=["1", "100000", "no-pole"])
def test_verify_witness_poly_past_pole_order_is_usage_error(capsys, tmp_path,
                                                            monkeypatch, extra,
                                                            hauptmodul, reach):
    # the builtin poly has degree 17 = the prefactor's pole order; one more
    # coefficient, or 10^5 more, is refused before any product, at any --T
    def no_product(*args):
        raise AssertionError("multiplied a series")

    monkeypatch.setattr(LaurentSeries, "mul", no_product)
    cert = builtin_certificate()
    poly = " ".join(str(c) for c in cert.poly + (128,) * extra)
    text = format_certificate(cert).replace(
        "poly " + " ".join(str(c) for c in cert.poly), "poly " + poly)
    text = text.replace(format_eta_quotient(cert.hauptmodul), hauptmodul)
    path = tmp_path / "cert.txt"
    path.write_text(text)
    for T in ("1", "50", "100000"):
        code, out, err = run(capsys, "verify", "witness", str(path), "--T", T)
        assert (code, out) == (2, "")
        assert f"degree {17 + extra}" in err
        assert reach in err and "pole order 17" in err


def test_verify_witness_pole_order_past_T_is_usage_error(capsys, tmp_path,
                                                          monkeypatch):
    # a prefactor pole of order 100017 admits a poly of degree 100017 under
    # the degree cap, but the window q^-100017..q^-99518 at T=500 never
    # reaches q^0, so the certificate is refused before any product
    def no_product(*args):
        raise AssertionError("multiplied a series")

    monkeypatch.setattr(LaurentSeries, "mul", no_product)
    cert = builtin_certificate()
    poly = " ".join(str(c) for c in cert.poly + (128,) * 100000)
    text = format_certificate(cert).replace(
        "poly " + " ".join(str(c) for c in cert.poly), "poly " + poly)
    text = text.replace("prefactor q^-17 ", "prefactor q^-100017 ")
    path = tmp_path / "cert.txt"
    path.write_text(text)
    code, _, err = run(capsys, "verify", "witness", str(path), "--T", "500")
    assert code == 2
    assert "pole order 100017" in err and "T=500" in err


def _record_sections(monkeypatch) -> list[str]:
    """Stand each verify target in with one that only notes that it ran."""
    ran = []
    for name, t in cli._TARGETS.items():
        monkeypatch.setitem(cli._TARGETS, name, cli._Target(
            lambda rep, args, name=name: ran.append(name), t.reads, t.positionals))
    return ran


@pytest.mark.parametrize("T, message", [
    (20000, "witness t5-8n+7-mod128 needs its base expanded to 160008 terms, "
            f"over the budget of {DEFAULT_BUDGET}"),
    (12500, "needs its base expanded to 100008 terms"),
    (17, "the prefactor's pole order 17 is at least T=17"),
])
def test_verify_all_refuses_a_T_the_witness_cannot_take_before_any_section(
        capsys, monkeypatch, T, message):
    # the witness section's own bounds, checked before any section runs
    ran = _record_sections(monkeypatch)
    code, out, err = run(capsys, "verify", "all", "--T", str(T), "--n-max", "10")
    assert (code, out, ran) == (2, "", [])
    assert message in err


@pytest.mark.parametrize("T", [18, 12499])
def test_verify_all_runs_every_section_at_the_witness_bounds(capsys, monkeypatch, T):
    ran = _record_sections(monkeypatch)
    code, out, _ = run(capsys, "verify", "all", "--T", str(T), "--n-max", "10")
    assert (code, ran) == (0, list(cli._TARGETS))
    assert out.count("\n-- ") == len(ran)


def test_verify_eq1(capsys):
    code, out, _ = run(capsys, "verify", "eq1", "--T", "120")
    assert code == 0
    assert "matched" in out


def test_verify_families_reports_inf4_both_ways(capsys):
    code, out, _ = run(capsys, "verify", "families", "--T", "60")
    # the stated inf4 instance fails, so the suite exit code is 1 and both
    # the stated and corrected-offset reports appear
    assert code == 1
    assert "neither q-factor candidate matched" in out
    assert "[corrected offset]" in out and "rhs 4*q*f7^6" in out


def test_verify_dissections(capsys):
    code, out, _ = run(capsys, "verify", "dissections", "--T", "120")
    assert code == 0
    assert out.count("matched") == 6


def test_verify_dissections_forms_the_n7_quotients_once(capsys, monkeypatch):
    # dissection7 is ramanathan(7, T) under its textbook name
    calls = []
    real = dissect._theta_quotient
    monkeypatch.setattr(dissect, "_theta_quotient", lambda num, den, n, T:
                        calls.append(n) or real(num, den, n, T))
    code, out, _ = run(capsys, "verify", "dissections")
    assert code == 0 and out.count("matched") == 6
    assert calls.count(7) == 3


@pytest.mark.parametrize("argv, code, records", [
    *[(("verify", target, "--T", str(T)), code, n)
      for target, code, n in (("dissections", 0, 6), ("eq1", 0, 1), ("families", 1, 11))
      for T in (1, 2, 3, 22, 23)],
    (("verify", "theorems", "--n-max", "1"), 0, 24),
    (("verify", "conjecture", "3", "--n-max", "1"), 0, 14),
    # the builtin certificate's comparison window starts at its pole q^-17
    (("verify", "witness", "--T", "17"), 2, 0),
])
def test_verify_targets_at_their_smallest_sizes(capsys, argv, code, records):
    # a q-shifted term past the truncation drops out of a right side, so
    # every record is printed; only inf4 as stated fails, by design
    got, out, err = run(capsys, *argv, "--format", "records")
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    failed = [l.split(" T=")[0] for l in lines if "matched=false" in l
              or (l.startswith("claim ") and "verdict=holds" not in l)]
    assert (got, len(lines)) == (code, records), err
    assert failed == (['identity name="inf4(alpha=0, beta=0, gamma=0)"']
                      if code == 1 else [])
    assert code < 2 or "pole order 17" in err


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--t", "2", "--n-max", "6")
    assert code == 0
    assert "DISAGREE" not in out


def test_bless_then_check_round_trip(capsys, tmp_path):
    path = tmp_path / "expected.txt"
    code, _, _ = run(capsys, "verify", "eq1", "--T", "60", "--bless", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "eq1", "--T", "60", "--check", str(path))
    assert code == 0
    assert "matches" in out


def test_check_detects_regression(capsys, tmp_path):
    path = tmp_path / "expected.txt"
    run(capsys, "verify", "eq1", "--T", "60", "--bless", str(path))
    path.write_text(path.read_text().replace("matched=true", "matched=false"))
    code, out, _ = run(capsys, "verify", "eq1", "--T", "60", "--check", str(path))
    assert code == 1
    assert "REGRESSION" in out


def test_blessed_output_is_byte_stable(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run(capsys, "verify", "theorems", "--n-max", "15", "--bless", str(a))
    run(capsys, "verify", "theorems", "--n-max", "15", "--bless", str(b))
    assert a.read_bytes() == b.read_bytes()


# Blessed records of a fast subset of runs.  --check must keep matching them
# byte for byte; re-bless one only for an intended change of output.
GOLDEN = Path(__file__).parent / "golden"


GOLDEN_RUNS = [
    ("verify_witness", ["verify", "witness", "--T", "120"]),
    ("verify_theorems", ["verify", "theorems", "--n-max", "200"]),
    ("verify_dissections", ["verify", "dissections", "--T", "200"]),
    ("verify_eq1", ["verify", "eq1", "--T", "100"]),
    ("extract_witness_base", ["extract", "f2^5 * f1^-10", "8", "7", "--T", "400"]),
    ("verify_conjecture", ["verify", "conjecture", "3", "17", "--n-max", "200"]),
    ("verify_dissections_T3000", ["verify", "dissections", "--T", "3000"]),
    # the witness prefactor's exact coefficients, through both exact kernel
    # paths and expand's factor order
    ("expand_witness_prefactor",
     ["expand", "q^-17 * f1^79 * f2^-38 * f4^36 * f8^-72", "--T", "400"]),
    # the claims at the theorems benchmark's largest size and far above it,
    # a prime past 2^(k-1) for every claimed k, and more primes than one
    # mod-2^k pass of the kernel takes
    ("verify_theorems_n1535", ["verify", "theorems", "--n-max", "1535"]),
    ("verify_theorems_n20000", ["verify", "theorems", "--n-max", "20000"]),
    ("verify_conjecture_3_1999",
     ["verify", "conjecture", "3", "1999", "--n-max", "1000"]),
    ("verify_conjecture_11_primes",
     ["verify", "conjecture", *"3 5 7 11 13 17 19 23 29 31 1999".split(),
      "--n-max", "300"]),
    # every rung of the valuation ladder: 3 is decided mod 2^8, while 4093's
    # 8n+7 row (minimum 16) and 8191's rows (minima 14, 15, 17) are read
    # again mod 2^16 and then mod 2^64
    ("verify_conjecture_3_4093_8191",
     ["verify", "conjecture", "3", "4093", "8191", "--n-max", "300"]),
]


# The table form, byte for byte as printed: --check compares records only.
TABLE_RUNS = [
    ("verify_all", ["verify", "all", "--T", "120", "--n-max", "200"]),
    ("expand_q-1_f1", ["expand", "q^-1 * f1^1", "--T", "5"]),
    ("extract_witness_base_T40", ["extract", "f2^5 * f1^-10", "8", "7", "--T", "40"]),
    ("oracle_t2", ["oracle", "--t", "2", "--n-max", "8"]),
]


def test_every_golden_file_is_checked():
    checked = ({f"{name}.txt" for name, _ in GOLDEN_RUNS}
               | {"verify_families.txt", "verify_families_T2040.txt", "verify_all.txt"}
               | {f"{name}.table" for name, _ in TABLE_RUNS})
    assert {p.name for p in GOLDEN.iterdir()} == checked


@pytest.mark.parametrize("name, argv", TABLE_RUNS)
def test_table_output_matches_golden(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert out == (GOLDEN / f"{name}.table").read_text()
    assert code == (1 if argv[:2] == ["verify", "all"] else 0)


def test_verify_all_records_match_golden(capsys):
    # every section's records under its "# section" marker; inf4 fails by
    # design, so the run exits 1 even when every record matches
    path = GOLDEN / "verify_all.txt"
    code, out, _ = run(capsys, "verify", "all", "--T", "120", "--n-max", "200",
                       "--format", "records", "--check", str(path))
    assert f"# matches {path}" in out
    assert code == 1


@pytest.mark.parametrize("name, argv", GOLDEN_RUNS)
def test_records_match_golden(capsys, name, argv):
    path = GOLDEN / f"{name}.txt"
    code, out, _ = run(capsys, *argv, "--format", "records", "--check", str(path))
    assert f"# matches {path}" in out
    assert code == 0


def test_families_records_match_golden(capsys):
    # inf4 fails by design, so the suite exits 1 even when every record
    # matches; the base-7 step reads 9,813 terms of 4*f1^6
    path = GOLDEN / "verify_families.txt"
    code, out, _ = run(capsys, "verify", "families", "--T", "200",
                       "--format", "records", "--check", str(path))
    assert f"# matches {path}" in out
    assert code == 1
    # the CLI only prints what the suite returns
    records = [l for l in out.splitlines() if l.startswith("identity ")]
    assert records == [r.record() for r in families.verify_suite(200)]


def test_families_records_at_T_2040_match_golden(capsys):
    # the base-7 step reads 100,013 terms of 4*f1^6, the most any --T took
    # before the right sides became theta series; blessed with that route
    path = GOLDEN / "verify_families_T2040.txt"
    code, out, _ = run(capsys, "verify", "families", "--T", "2040",
                       "--format", "records", "--check", str(path))
    assert f"# matches {path}" in out
    assert code == 1


@pytest.mark.parametrize("target, records", [("families", 11), ("all", 127)])
def test_families_take_T_past_2040(capsys, monkeypatch, target, records):
    # --T 2041 asks the base-7 step for 49*2041 + 13 = 100,022 terms of
    # 4*f1^6; every record is printed and only inf4 as stated fails
    # `verify all` runs the witness check first; at T = 2041 it takes
    # seconds and has nothing to do with the families
    real = witness.verify_witness
    monkeypatch.setattr(cli, "verify_witness", lambda cert, T: real(cert, 120))
    code, out, err = run(capsys, "verify", target, "--T", "2041",
                         "--format", "records")
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    failed = [l.split(" T=")[0] for l in lines if "matched=false" in l
              or (l.startswith("claim ") and "verdict=holds" not in l)]
    assert (code, len(lines)) == (1, records), err
    assert failed == ['identity name="inf4(alpha=0, beta=0, gamma=0)"']
    steps = [l for l in lines if "induction step" in l
             or l.startswith('identity name="extract(')]
    assert len(steps) == 3 and all(" T=2041 " in l for l in steps)


def test_expand_prints_coefficients_past_4300_digits(capsys):
    code, out, err = run(capsys, "expand", "f1^-100000", "--T", "3000",
                         "--format", "records")
    assert code == 0, err
    last = out.splitlines()[-1]
    assert last.startswith("coeff e=2999 value=")
    value = Decimal(last.removeprefix("coeff e=2999 value="))
    assert len(str(value)) > 4300
    assert value == euler_factor(1, -100000, EXACT, 3000).coefficient(2999)


def _src_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_int_text_at_the_digit_limit():
    # str() below the limit, Decimal past it, and the limit left as it was
    for n in (7 * (10**4300 - 1) // 9, 7 * (10**4301 - 1) // 9, -(10**4999 + 12345)):
        assert int_text(n) == str(Decimal(n))
    script = ("import sys\n"
              "from qcongruence.series import int_text\n"
              "print(int_text(10**699 + 1))\n"
              "print(sys.get_int_max_str_digits())\n")
    proc = subprocess.run([sys.executable, "-X", "int_max_str_digits=640", "-c", script],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["1" + "0" * 698 + "1", "640"]


_BIG = 10**4400 + 1  # past str()'s default limit of 4,300 digits


@pytest.mark.parametrize("report, ok, record", [
    (ClaimReport(CongruenceClaim(5, 8, 7, 7, "Theorem5col"), 2000, None, 12.34), True,
     "claim t=5 m=8 j=7 k=7 n_max=2000 verdict=holds counterexample_n=- "
     "counterexample_value=- ms=12.3"),
    (ClaimReport(CongruenceClaim(1, 8, 7, 7), 50, (0, 64)), False,
     "claim t=1 m=8 j=7 k=7 n_max=50 verdict=fails counterexample_n=0 "
     "counterexample_value=64 ms=0.0"),
    (IdentityReport("eq1", 800), True,
     'identity name="eq1" T=800 matched=true mismatch_exponent=- lhs=- rhs=- note=""'),
    (IdentityReport("big", 10, (3, _BIG, -2), "rhs"), False,
     'identity name="big" T=10 matched=false mismatch_exponent=3 '
     f'lhs=1{"0" * 4399}1 rhs=-2 note="rhs"'),
    (WitnessReport("t5-8n+7-mod128", 400, None, 384), True,
     "witness id=t5-8n+7-mod128 T=400 matched=true mismatch_exponent=- lhs=- rhs=- "
     "gcd=384 implied_modulus=128"),
    (WitnessReport("w", 5, (-2, 7, 9), 0), False,
     "witness id=w T=5 matched=false mismatch_exponent=-2 lhs=7 rhs=9 gcd=0 "
     "implied_modulus=-"),
], ids=["claim-holds", "claim-fails", "identity-matched", "identity-past-4300-digits",
        "witness-matched", "witness-gcd-0"])
def test_report_record_line(report, ok, record):
    # the golden files hold no failed witness, no gcd 0 and no value past
    # 4,300 digits, so each record line is pinned here
    assert report.ok is ok
    assert report.record() == record


def test_readme_flag_table_matches_the_parser():
    # each `verify` row of README's subcommand table lists exactly the flags
    # its subparser reads; `all` reads their union
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        if line.startswith("| `verify "):
            names, flags = line.split(" | ")[:2]
            for name in re.findall(r"`verify (\w+)`", names):
                rows[name] = set(re.findall(r"`(--[\w-]+)", flags))
    want = {name: set(t.reads) for name, t in cli._TARGETS.items()}
    want["all"] = set().union(*want.values())
    assert rows == want


def test_cli_runs_without_numpy():
    # numpy costs every CLI start-up about 0.15 s; the package never needs it
    script = ("import sys\n"
              "from qcongruence.cli import main\n"
              "code = main(['expand', 'f1^1', '--T', '1'])\n"
              "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "q^0: 1" in proc.stdout


def test_cli_start_up_imports_only_what_it_uses():
    # each of these costs a CLI run milliseconds of start-up (dataclasses
    # pulls in inspect, ast, dis and tokenize, argparse gettext and locale)
    # and none is needed there;
    # -S keeps site's own imports out, and what the interpreter loaded
    # before the package does not count
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "from qcongruence.cli import main\n"
              "codes = [main(['expand', 'f1^1', '--T', '1']),\n"
              "         main(['verify', 'theorems', '--n-max', '10'])]\n"
              "print(repr((codes, sorted(set(sys.modules) - before))), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    codes, new = ast.literal_eval(proc.stderr.splitlines()[-1])
    assert codes == [0, 0]
    unused = {"dataclasses", "inspect", "typing", "decimal", "pathlib",
              "importlib.resources", "argparse", "gettext", "locale"}
    assert not unused & set(new), sorted(unused & set(new))
