"""Command-line surface: output formats, exit codes, regression blessing."""

import pytest

from qcongruence import cli, witness
from qcongruence.cli import main
from qcongruence.congruences import DEFAULT_N_MAX
from qcongruence.families import DEFAULT_BUDGET
from qcongruence.witness import builtin_certificate, format_certificate


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


def test_expand_truncation_below_shift_is_usage_error(capsys):
    code, _, err = run(capsys, "expand", "q^5 * f1^1", "--T", "3")
    assert code == 2


def test_extract_bad_residue_is_usage_error(capsys):
    code, _, err = run(capsys, "extract", "f1^-1", "4", "4", "--T", "20")
    assert code == 2


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
])
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_all_reads_every_flag(capsys, monkeypatch):
    seen = {}
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.update(vars(args)) or 0)
    assert main(["verify", "all", "--T", "50", "--n-max", "5",
                 "--family-n-max", "3"]) == 0
    assert (seen["T"], seen["n_max"], seen["family_n_max"]) == (50, 5, 3)


def test_verify_header_names_default_options(capsys):
    code, out, _ = run(capsys, "verify", "eq1", "--T", "60")
    assert code == 0
    assert f"# options: T=60 n_max={DEFAULT_N_MAX}\n" in out


@pytest.mark.parametrize("argv, flag", [
    (("expand", "f1^1", "--T", "300000000"), "--T"),
    (("extract", "f1^1", "2", "0", "--T", "0"), "--T"),
    (("verify", "theorems", "--n-max", "-6"), "--n-max"),
    (("verify", "witness", "--T", str(DEFAULT_BUDGET + 1)), "--T"),
    (("verify", "families", "--family-n-max", "0"), "--family-n-max"),
    (("oracle", "--n-max", "100001"), "--n-max"),
])
def test_sizes_outside_the_budget_are_usage_errors(capsys, argv, flag):
    # rejected while parsing, before any series is allocated
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"argument {flag}: must be in 1..{DEFAULT_BUDGET}" in capsys.readouterr().err


def test_verify_conjecture_explicit_primes(capsys):
    code, out, _ = run(capsys, "verify", "conjecture", "3", "17",
                       "--n-max", "50")
    assert code == 0
    assert out.count("holds") == 14


def test_verify_conjecture_nonprime_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "conjecture", "4")
    assert code == 2
    assert "not prime" in err


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


def test_verify_eq1(capsys):
    code, out, _ = run(capsys, "verify", "eq1", "--T", "120")
    assert code == 0
    assert "matched" in out


def test_verify_families_reports_inf4_both_ways(capsys):
    code, out, _ = run(capsys, "verify", "families", "--T", "60",
                       "--family-n-max", "25")
    # the stated inf4 instance fails, so the suite exit code is 1 and both
    # the stated and corrected-offset reports appear
    assert code == 1
    assert "neither q-factor candidate matched" in out
    assert "[corrected offset]" in out and "rhs 4*q*f7^6" in out


def test_verify_dissections(capsys):
    code, out, _ = run(capsys, "verify", "dissections", "--T", "120")
    assert code == 0
    assert out.count("matched") == 6


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
