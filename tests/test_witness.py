"""Witness certificates: the shipped certificate, the identity checker, the
common-factor computation and the text format."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qcongruence import witness
from qcongruence.cli import main
from qcongruence.congruences import check_claims, CongruenceClaim
from qcongruence.eta import EtaQuotient, expand
from qcongruence.series import EXACT, InsufficientTruncation
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


def test_verify_witness_refuses_an_expansion_that_comes_back_short(monkeypatch):
    # the plan guard: every expansion one term short leaves the left side
    # below lo + T, which a comparison would silently accept as a shorter
    # window, so the check refuses to report instead
    real = witness.expand
    monkeypatch.setattr(witness, "expand", lambda eq, ring, T: real(eq, ring, T - 1))
    with pytest.raises(InsufficientTruncation, match="plan fell short"):
        verify_witness(builtin_certificate(), 40)


_TINY = WitnessCertificate(
    N=1, M=1, r={}, m=1, j=0, pset=frozenset({0}),
    prefactor=EtaQuotient(1, {}), hauptmodul=EtaQuotient(1, {1: 1}),
    poly=(1,), poly_min_degree=0, claimed_common_factor=1, id="tiny")


def test_constant_term_certificate_verifies():
    # trivial identity 1 = 1 exercises poly_min_degree = 0 end to end
    rep = verify_witness(_TINY, 40)
    assert rep.identity_matched


# -- the base expansion beside the rest ------------------------------------------

# A check runs its base expansion in a forked child only in a process with no
# other thread, and a test process has them (numpy's BLAS pool among them),
# so these tests run their checks in a fresh interpreter: in dev mode, with
# every warning an error (a fork among threads warns from Python 3.12 on, and
# a file left open warns when collected).  ``run`` takes one check forked or
# inline, whatever the machine's CPUs, and returns its report and record, or
# its exception's type and message, then whether every child was reaped and
# whether the open file descriptors are those it started with.  ``forks``
# counts the forks, and ``jobs`` the base jobs run in this process.
_PRELUDE = r"""
import json, os, time
from qcongruence import witness
from qcongruence.witness import builtin_certificate, verify_witness

forks, real_fork = [], os.fork
os.fork = lambda: forks.append(1) or real_fork()
parent, jobs, real_job = os.getpid(), [], witness._base_streams

def job(*args):
    if os.getpid() == parent:
        jobs.append(1)
    return real_job(*args)

witness._base_streams = job

def run(c, T, forked):
    witness._can_fork = lambda: forked
    fds = os.listdir("/proc/self/fd")
    try:
        report = verify_witness(c, T)
        out = [repr(report), list(report.record())]
    except Exception as exc:
        out = [f"{type(exc).__module__}.{type(exc).__name__}", str(exc)]
    try:
        os.waitpid(-1, os.WNOHANG)
        reaped = False
    except ChildProcessError:
        reaped = True
    return out + [reaped, os.listdir("/proc/self/fd") == fds]
"""

needs_fork = pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc/self/task")),
                                reason="the platform forks no child beside a check")


def _src_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _in_a_fresh_process(script: str):
    """What ``_PRELUDE + script`` prints as JSON, run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", _PRELUDE + script],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout)


@needs_fork
def test_forked_and_inline_checks_agree():
    # the builtin at both ends of its range, a mutated poly that mismatches,
    # and two residues, whose streams come back in one payload in residue order
    cert = builtin_certificate()
    poly = list(cert.poly)
    poly[-1] += 1
    two = WitnessCertificate(**{**vars(cert), "pset": frozenset({3, 7}), "id": "two"})
    cases = [(cert, 18), (cert, 40), (cert, 200), (cert, 401),
             (replace_poly(cert, poly), 200), (two, 60)]
    runs = _in_a_fresh_process(
        "from qcongruence.witness import parse_certificate\n"
        f"cases = {[(format_certificate(c), T) for c, T in cases]!r}\n"
        "runs = [[run(parse_certificate(text), T, forked) for forked in (True, False)]\n"
        "        for text, T in cases]\n"
        "print(json.dumps([runs, len(forks), len(jobs)]))\n")
    results, forks, jobs = runs
    # one fork per forked check, and the job ran here only in the inline ones
    assert forks == jobs == len(cases)
    reports = [verify_witness(c, T) for c, T in cases]
    for report, (forked, inline) in zip(reports, results):
        assert forked == inline == [repr(report), list(report.record()), True, True]
    assert [report.ok for report in reports] == [True] * 4 + [False, False]


@needs_fork
def test_an_error_in_the_forked_job_is_raised_as_inline():
    # a child that raises returns no result, so the job runs again here and
    # raises its own exception; the child is reaped and the pipe closed
    results = _in_a_fresh_process(
        "from qcongruence.series import InsufficientTruncation\n"
        "def refuse(base, p):\n"
        "    raise InsufficientTruncation(f'no stream {p.m}n+{p.j}')\n"
        "witness.extract = refuse\n"
        "print(json.dumps([run(builtin_certificate(), 40, forked)\n"
        "                  for forked in (True, False)]))\n")
    assert results == [["qcongruence.series.InsufficientTruncation", "no stream 8n+7",
                        True, True]] * 2


@needs_fork
def test_an_error_beside_the_forked_job_kills_and_reaps_it():
    # the child would sleep a minute; an error in this process's half ends
    # it at once, and no child outlives the call
    results = _in_a_fresh_process(
        "def refuse(c, T):\n"
        "    raise ValueError('no right side')\n"
        "witness._base_streams = lambda c, n, T: time.sleep(60)\n"
        "witness._prefactor_and_rhs = refuse\n"
        "start = time.monotonic()\n"
        "result = run(builtin_certificate(), 40, True)\n"
        "print(json.dumps([result, time.monotonic() - start]))\n")
    result, seconds = results
    assert result == ["builtins.ValueError", "no right side", True, True]
    assert seconds < 30


@needs_fork
def test_an_error_in_the_forked_job_keeps_its_traceback():
    # the exception raised is the one the job raised in this process, so its
    # traceback holds the job's own frame
    results = _in_a_fresh_process(
        "import traceback\n"
        "from qcongruence.series import InsufficientTruncation\n"
        "def refuse(base, p):\n"
        "    raise InsufficientTruncation(f'no stream {p.m}n+{p.j}')\n"
        "witness.extract = refuse\n"
        "witness._can_fork = lambda: True\n"
        "try:\n"
        "    verify_witness(builtin_certificate(), 40)\n"
        "except InsufficientTruncation as exc:\n"
        "    frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]\n"
        "print(json.dumps([frames[-1], len(forks)]))\n")
    assert results == ["refuse", 1]


@needs_fork
def test_a_forked_job_that_ends_without_a_result_reruns_inline():
    # the child exits 3 before it writes; the check still ends with the
    # inline report, after one fork, with the child reaped and no fd leaked
    want = verify_witness(builtin_certificate(), 40)
    results = _in_a_fresh_process(
        "witness._base_streams = lambda *args: (os._exit(3) if os.getpid() != parent\n"
        "                                       else real_job(*args))\n"
        "print(json.dumps([run(builtin_certificate(), 40, True), len(forks)]))\n")
    assert results == [[repr(want), list(want.record()), True, True], 1]


def _running(pid: int) -> bool:
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


@needs_fork
def test_a_killed_check_leaves_no_child_running():
    # SIGKILL gives the CLI no chance to kill its child, so the child ends
    # itself once the pipe has no reader.  It would compute for seconds at
    # T = 12000; it must be gone within 1 s, and a survivor is killed here
    me = os.getpid()
    if (len(os.sched_getaffinity(0)) < 2
            or not os.path.exists(f"/proc/{me}/task/{me}/children")):
        pytest.skip("the CLI forks no child here, or /proc lists no children")
    cli = subprocess.Popen([sys.executable, "-m", "qcongruence.cli", "verify", "witness",
                            "--T", "12000"], env=_src_env(), stdout=subprocess.DEVNULL)
    child = None
    try:
        deadline = time.monotonic() + 60
        while child is None and cli.poll() is None and time.monotonic() < deadline:
            with open(f"/proc/{cli.pid}/task/{cli.pid}/children") as f:
                child = next(map(int, f.read().split()), None)
            time.sleep(0.001)
        assert child is not None, "the CLI forked no child"
        cli.kill()
        cli.wait()
        deadline = time.monotonic() + 1
        while _running(child) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(child)
    finally:
        cli.kill()
        cli.wait()
        if child is not None and _running(child):
            os.kill(child, signal.SIGKILL)


@needs_fork
def test_a_check_forks_only_with_two_cpus_and_one_thread():
    results = _in_a_fresh_process(
        "import threading\n"
        "alone = witness._can_fork()\n"
        "stop = threading.Event()\n"
        "thread = threading.Thread(target=stop.wait)\n"
        "thread.start()\n"
        "beside_a_thread = witness._can_fork()\n"
        "stop.set()\n"
        "thread.join()\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "on_one_cpu = witness._can_fork()\n"
        "print(json.dumps([alone, beside_a_thread, on_one_cpu]))\n")
    assert results == [len(os.sched_getaffinity(0)) > 1, False, False]


def test_a_failed_fork_runs_the_job_inline(monkeypatch):
    def no_fork():
        raise BlockingIOError("no process to spare")
    want = verify_witness(builtin_certificate(), 40)
    monkeypatch.setattr(witness, "_can_fork", lambda: True)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert verify_witness(builtin_certificate(), 40) == want


# -- text format ------------------------------------------------------------------


def _without(text: str, *keys: str) -> str:
    return "".join(l for l in text.splitlines(keepends=True)
                   if l.partition(" ")[0] not in keys)


def test_format_parse_round_trip():
    cert = builtin_certificate()
    assert parse_certificate(format_certificate(cert)) == cert
    # every field away from its default, poly_min_degree 0 among them
    other = WitnessCertificate(
        N=16, M=4, r={1: -10, 2: 5, 4: 1}, m=16, j=7, pset=frozenset({3, 7}),
        prefactor=cert.prefactor, hauptmodul=cert.hauptmodul, poly=cert.poly[:-1],
        poly_min_degree=0, claimed_common_factor=64, id="other")
    assert parse_certificate(format_certificate(other)) == other
    # the builtin formats as its packaged file's lines, comments aside
    assert format_certificate(cert) == "".join(
        l + "\n" for l in builtin_certificate_text().splitlines() if not l.startswith("#"))
    # an empty r is written "-" and read back as {}
    assert "\nr -\n" in format_certificate(_TINY)
    assert parse_certificate(format_certificate(_TINY)) == _TINY
    # the format's table writes every record field once, in a line of its own
    fields = [field for field, _, _, _ in witness._FORMAT.values()]
    assert sorted(fields) == sorted(WitnessCertificate._fields)
    lines = format_certificate(cert).splitlines()
    assert [l.partition(" ")[0] for l in lines] == list(witness._FORMAT)
    # without the optional lines a certificate takes the record's defaults
    bare = parse_certificate(_without(format_certificate(cert), "id", "poly_min_degree"))
    assert (bare.id, bare.poly_min_degree) == ("M2-m8-j7", 1)
    assert bare == WitnessCertificate(**{**vars(cert), "id": "M2-m8-j7"})


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
    for key in ("N", "M", "r", "m", "j", "P", "prefactor", "hauptmodul", "poly",
                "common_factor"):
        with pytest.raises(ValueError, match=f"^certificate is missing fields: {key}$"):
            parse_certificate(_without(good, key))
    with pytest.raises(ValueError, match="^certificate is missing fields: M, poly$"):
        parse_certificate(_without(good, "poly", "M"))
    # fields convert in file order: N's line comes before r's
    with pytest.raises(ValueError, match=r"with base 10: 'x'$"):
        parse_certificate(good.replace("N 8", "N x").replace("r 1:-10 2:5", "r 1:1 1:2"))
    with pytest.raises(ValueError, match="duplicate"):
        parse_certificate(good + "N 8\n")
    for line in ("AB 1", "AB 1,2"):  # twelve lines, then an unknown field
        with pytest.raises(ValueError, match=r"^line 13: unknown field 'AB'$"):
            parse_certificate(good + line + "\n")
    with pytest.raises(ValueError, match="no value"):
        parse_certificate(good + "stray\n")


def test_parse_rejects_a_repeated_r_divisor(capsys, tmp_path):
    # keeping the last pair would check f1^3 * f2^5 in place of the stated
    # quotient; the certificate is rejected as input instead
    text = builtin_certificate_text().replace("r 1:-10 2:5", "r 1:-10 2:5 1:3")
    with pytest.raises(ValueError, match="^line 7: field 'r': repeats divisor 1$"):
        parse_certificate(text)
    path = tmp_path / "cert.txt"
    path.write_text(text)
    assert main(["verify", "witness", str(path), "--T", "60"]) == 2
    assert "line 7: field 'r': repeats divisor 1" in capsys.readouterr().err


@pytest.mark.parametrize("line, lineno, message", [
    ("N abc", 5, "invalid literal for int() with base 10: 'abc'"),
    ("r 1:x", 7, "invalid literal for int() with base 10: 'x'"),
    ("P 1,,7", 10, "invalid literal for int() with base 10: ''"),
    ("prefactor f0^1", 11, "divisor must be positive in 'f0^1' at position 0 in 'f0^1'"),
    ("poly 1 x 3", 14, "invalid literal for int() with base 10: 'x'"),
])
def test_a_bad_value_names_its_line_and_field(line, lineno, message):
    # the builtin file's comment takes lines 1-3, so N is on line 5
    key = line.split()[0]
    text = "".join(line + "\n" if l.partition(" ")[0] == key else l
                   for l in builtin_certificate_text().splitlines(keepends=True))
    with pytest.raises(ValueError) as exc:
        parse_certificate(text)
    assert str(exc.value) == f"line {lineno}: field {key!r}: {message}"


def test_a_bad_value_exits_2_naming_its_line_and_field(capsys, tmp_path):
    path = tmp_path / "cert.txt"
    path.write_text(builtin_certificate_text().replace("N 8\n", "N abc\n"))
    assert main(["verify", "witness", str(path), "--T", "60", "--format", "records"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: line 5: field 'N': invalid literal for int() "
                              "with base 10: 'abc'\n")


@pytest.mark.parametrize("line", ["id t5 ms=9 x", "id t5\tx"])
def test_an_id_with_whitespace_is_rejected(capsys, tmp_path, line):
    # a record's id= is one token: 't5 ms=9 x' would print as three fields,
    # and --bless would drop the ms=9 among them
    text = builtin_certificate_text().replace("id t5-8n+7-mod128", line)
    assert line in text
    with pytest.raises(ValueError, match=r"^witness id 't5.*x' holds whitespace"):
        parse_certificate(text)
    path = tmp_path / "cert.txt"
    path.write_text(text)
    assert main(["verify", "witness", str(path), "--T", "40", "--format", "records"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "holds whitespace" in err
    with pytest.raises(ValueError, match="holds whitespace"):
        WitnessCertificate(**{**vars(builtin_certificate()), "id": "a b"})
    # the builtin id and the default M-m-j id are one token each
    assert builtin_certificate().id == "t5-8n+7-mod128"
    assert parse_certificate(_without(text, "id")).id == "M2-m8-j7"


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
