"""Command-line surface: expand series, extract progressions, and run every
verification suite with reproducible, machine-readable reports.

Exit codes: 0 all checks passed, 1 at least one verification failed (or a
--check regression diff), 2 usage or data errors.  Record output is
line-stable for identical inputs; timing fields (``ms=``) are the only
volatile part and are ignored by --check.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from . import congruences, dissect, families
from .congruences import (DEFAULT_N_MAX, THEOREM_CLAIMS, check_claims,
                          conjecture_claims, enumerate_colored_overpartitions)
from .dissect import Progression, extract
from .eta import expand, overpartition_gf, parse_eta_quotient
from .series import (DEFAULT_BUDGET, EXACT, MAX_MOD2K_BITS, LaurentSeries, Ring,
                     _Record, int_text, mod2k)
from .witness import builtin_certificate, load_certificate, verify_witness

DEFAULT_T = 500
DEFAULT_CONJECTURE_PRIMES = (3, 17, 19, 23, 29, 31)

VERIFY_FAILURE = 1
USAGE_ERROR = 2


def _bounded(hi: int) -> Callable[[str], int]:
    """An argparse type: an integer in 1..hi."""
    def integer(text: str) -> int:
        v = int(text)
        if not 1 <= v <= hi:
            raise argparse.ArgumentTypeError(f"must be in 1..{hi}, got {v}")
        return v
    return integer


# A truncation or progression bound, capped by the expansion budget.
_size = _bounded(DEFAULT_BUDGET)


def _parse_ring(text: str) -> Ring:
    """The --ring type: ``exact``, or ``mod2k:K`` for Z/2^K."""
    if text == "exact":
        return EXACT
    if text.startswith("mod2k:"):
        try:
            return mod2k(int(text.removeprefix("mod2k:")))
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"must be 'exact' or 'mod2k:K' with 1 <= K <= {MAX_MOD2K_BITS}, got {text!r}")


def _ring_name(ring: Ring) -> str:
    return "exact" if ring.is_exact else f"mod2k:{ring.k}"


class Report:
    """Collects result lines in both human and record form."""

    def __init__(self, command: str, options: dict):
        self.header = [f"# qcongruence {command}"]
        opts = " ".join(f"{k}={v}" for k, v in options.items())
        if opts:
            self.header.append(f"# options: {opts}")
        self.table: list[str] = []
        self.records: list[str] = []
        self.ok = True

    def add(self, summary: str, record: str, ok: bool = True):
        self.table.append(summary)
        self.records.append(record)
        if not ok:
            self.ok = False

    def add_reports(self, reports):
        """Add each report's ``summary()`` and ``record()``; any failed
        report fails the run."""
        for r in reports:
            self.add(r.summary(), r.record(), ok=r.ok)

    def lines(self, fmt: str) -> list[str]:
        return self.header + (self.records if fmt == "records" else self.table)


def _strip_volatile(line: str) -> str:
    return " ".join(tok for tok in line.split(" ") if not tok.startswith("ms="))


def _emit(report: Report, args) -> int:
    lines = report.lines(args.format)
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    stable = "\n".join(_strip_volatile(l) for l in report.lines("records")) + "\n"
    if args.bless:
        with open(args.bless, "w") as f:
            f.write(stable)
        sys.stdout.write(f"# blessed -> {args.bless}\n")
    elif args.check:
        with open(args.check) as f:
            expected = f.read()
        if expected != stable:
            sys.stdout.write(f"# REGRESSION: output differs from {args.check}\n")
            return VERIFY_FAILURE
        sys.stdout.write(f"# matches {args.check}\n")
    return 0 if report.ok else VERIFY_FAILURE


# -- commands ---------------------------------------------------------------


def _expand_spec(args) -> LaurentSeries:
    """Expand ``args.spec`` to ``args.T``; a q-shift may not stretch the
    expansion past the size budget."""
    eq = parse_eta_quotient(args.spec)
    if args.T - eq.qshift > DEFAULT_BUDGET:
        raise ValueError(
            f"expansion length {args.T - eq.qshift} (--T {args.T} minus q-shift "
            f"{eq.qshift}) is over the budget of {DEFAULT_BUDGET}")
    return expand(eq, args.ring, args.T)


def cmd_expand(args) -> int:
    series = _expand_spec(args)
    rep = Report("expand", {"spec": f'"{args.spec}"', "T": args.T,
                            "ring": _ring_name(args.ring)})
    for i, c in enumerate(map(int_text, series.coeffs())):
        e = series.offset + i
        rep.add(f"q^{e}: {c}", f"coeff e={e} value={c}")
    return _emit(rep, args)


def cmd_extract(args) -> int:
    series = _expand_spec(args)
    stream = extract(series, Progression(args.m, args.j))
    rep = Report("extract", {"spec": f'"{args.spec}"', "m": args.m, "j": args.j,
                             "T": args.T, "ring": _ring_name(args.ring)})
    for n, c in enumerate(map(int_text, stream.coeffs())):
        rep.add(f"n={n} (q^{args.m * n + args.j}): {c}", f"coeff n={n} value={c}")
    return _emit(rep, args)


def cmd_oracle(args) -> int:
    rep = Report("oracle", {"t": args.t, "n_max": args.n_max})
    gf = overpartition_gf(args.t, EXACT, args.n_max + 1)
    for n in range(args.n_max + 1):
        enum = enumerate_colored_overpartitions(args.t, n)
        coeff = gf.coefficient(n)
        match = enum == coeff
        enum, coeff = int_text(enum), int_text(coeff)
        rep.add(f"n={n}: enumeration {enum}, series {coeff}"
                + ("" if match else "  <-- DISAGREE"),
                f"oracle t={args.t} n={n} enumeration={enum} series={coeff} "
                f"agree={str(match).lower()}", ok=match)
    return _emit(rep, args)


def _verify_conjecture(rep: Report, args):
    primes = args.args or list(DEFAULT_CONJECTURE_PRIMES)
    claims = [c for p in primes for c in conjecture_claims(p)]
    rep.add_reports(check_claims(claims, args.n_max))
    # how sharp each claimed modulus is: every prime's table mod 2^16, and
    # mod 2^64 only the primes with a class that vanishes mod 2^16
    valuations = congruences.observed_two_adic_valuations(primes, 8, args.n_max)
    for p, observed in zip(primes, valuations):
        for m, j, k in congruences.CONJECTURE_PATTERN:  # m = 8 in every row
            v = observed[j]
            rep.add(f"  observed min 2-adic valuation of p̄_-{p}({m}n+{j}): "
                    f"{v}{'+' if v == 64 else ''} (claimed {k})",
                    f"valuation t={p} m={m} j={j} claimed_k={k} observed_min_v2={v}")


class _Target(_Record):
    run: Callable[[Report, argparse.Namespace], None]
    reads: tuple[str, ...]  # its input flags; any other is a usage error
    # (metavar, type, help text) of its positionals, if it takes any
    positionals: tuple[str, Callable[[str], object], str] | None = None


_TARGETS = {
    "theorems": _Target(lambda rep, args: rep.add_reports(
        check_claims(THEOREM_CLAIMS, args.n_max)), ("--n-max",)),
    "conjecture": _Target(_verify_conjecture, ("--n-max",),
                          ("PRIME", int, "primes to scan (default: the built-in six)")),
    "dissections": _Target(lambda rep, args: rep.add_reports(
        dissect.verify_suite(args.T)), ("--T",)),
    "witness": _Target(lambda rep, args: rep.add_reports(
        verify_witness(builtin_certificate() if src == "builtin"
                       else load_certificate(src), args.T)
        for src in args.args or ["builtin"]),
        ("--T",), ("CERT", str, "builtin or certificate file paths (default builtin)")),
    "families": _Target(lambda rep, args: rep.add_reports(
        families.verify_suite(args.T)), ("--T",)),
    "eq1": _Target(lambda rep, args: rep.add_reports(
        [families.verify_eq1(args.T)]), ("--T",)),
}


def _verify_all(rep: Report, args):
    for name, target in _TARGETS.items():
        rep.table.append(f"-- {name} --")
        rep.records.append(f"# section {name}")
        target.run(rep, args)


def cmd_verify(args) -> int:
    rep = Report(f"verify {args.target}", {"T": args.T, "n_max": args.n_max})
    args.run(rep, args)
    return _emit(rep, args)


# The input flags a subcommand may read, with their types and help.
_INPUT_FLAGS = {
    "--T": (_size, f"series truncation (default {DEFAULT_T})"),
    "--n-max": (_size, f"progression bound (default {DEFAULT_N_MAX})"),
    "--ring": (_parse_ring, "coefficient ring: exact or mod2k:K (default exact)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcongruence",
        description="q-series expansion and congruence verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, reads=()):
        """Register the input flags in ``reads``, plus the output flags."""
        for flag in reads:
            type_, help_ = _INPUT_FLAGS[flag]
            p.add_argument(flag, type=type_, help=help_)
        p.add_argument("--format", choices=("table", "records"), default="table")
        out = p.add_mutually_exclusive_group()
        out.add_argument("--bless", metavar="PATH",
                         help="write the stable record output to PATH")
        out.add_argument("--check", metavar="PATH",
                         help="compare the stable record output against PATH")

    p = sub.add_parser("expand", help="expand an eta-quotient expression")
    p.add_argument("spec", help='e.g. "q^-1 * f2^1 * f1^-2"')
    common(p, ("--T", "--ring"))
    p.set_defaults(func=cmd_expand, T=DEFAULT_T, ring=EXACT)

    p = sub.add_parser("extract", help="extract an arithmetic progression "
                       "from an eta-quotient expansion")
    p.add_argument("spec")
    p.add_argument("m", type=int)
    p.add_argument("j", type=int)
    common(p, ("--T", "--ring"))
    p.set_defaults(func=cmd_extract, T=DEFAULT_T, ring=EXACT)

    verify = sub.add_parser("verify", help="run a verification suite").add_subparsers(
        dest="target", required=True)
    all_reads = tuple(dict.fromkeys(f for t in _TARGETS.values() for f in t.reads))
    for name, target in [*_TARGETS.items(), ("all", _Target(_verify_all, all_reads))]:
        p = verify.add_parser(name)
        if target.positionals:
            metavar, type_, help_ = target.positionals
            p.add_argument("args", nargs="*", metavar=metavar, type=type_, help=help_)
        common(p, target.reads)
        # every header names T and n_max, even for a target that reads neither
        p.set_defaults(func=cmd_verify, run=target.run, T=DEFAULT_T,
                       n_max=DEFAULT_N_MAX, args=[])

    p = sub.add_parser("oracle", help="cross-check series coefficients "
                       "against direct enumeration")
    p.add_argument("--t", type=_bounded(congruences._ORACLE_MAX_T),
                   help="color count (default 2)")
    p.add_argument("--n-max", type=_bounded(congruences._ORACLE_MAX_N),
                   help="enumeration bound (default 8)")
    common(p)
    p.set_defaults(func=cmd_oracle, t=2, n_max=8)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
