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
from pathlib import Path

from . import congruences, dissect, families
from .congruences import (DEFAULT_N_MAX, THEOREM_CLAIMS, ClaimReport,
                          check_claim, conjecture_claims,
                          enumerate_colored_overpartitions)
from .dissect import IdentityReport, Progression, extract
from .eta import expand, overpartition_gf, parse_eta_quotient
from .series import EXACT, Ring, mod2k
from .witness import (WitnessReport, builtin_certificate, load_certificate,
                      verify_witness)

DEFAULT_T = 500
DEFAULT_CONJECTURE_PRIMES = (3, 17, 19, 23, 29, 31)
DEFAULT_FAMILY_INSTANCES = (
    (0, 0, 0, "inf"), (1, 0, 0, "inf"), (0, 1, 0, "inf"), (0, 0, 1, "inf"),
    (0, 0, 0, "inf2"), (0, 0, 0, "inf3"), (0, 0, 0, "inf4"),
)
# Per-instance n_max targets roughly this expansion length; each instance
# computes its own mod-8 overpartition series of about this many terms.
_FAMILY_TARGET_T = 20000

VERIFY_FAILURE = 1
USAGE_ERROR = 2

# The input flags each verify target reads; giving any other is a usage error.
_TARGET_FLAGS = {
    "theorems": ("n_max",), "conjecture": ("n_max",),
    "dissections": ("T",), "witness": ("T",), "eq1": ("T",),
    "families": ("T", "family_n_max"),
    "all": ("T", "n_max", "family_n_max"),
}


def _size(text: str) -> int:
    """A truncation or progression bound, capped by the families budget."""
    v = int(text)
    if not 1 <= v <= families.DEFAULT_BUDGET:
        raise argparse.ArgumentTypeError(
            f"must be in 1..{families.DEFAULT_BUDGET}, got {v}")
    return v


def _parse_ring(text: str) -> Ring:
    if text == "exact":
        return EXACT
    if text.startswith("mod2k:"):
        return mod2k(int(text.split(":", 1)[1]))
    raise ValueError(f"ring must be 'exact' or 'mod2k:K', got {text!r}")


def _fmt_value(v) -> str:
    return "-" if v is None else str(v)


def _claim_record(rep: ClaimReport) -> str:
    c = rep.claim
    cn, cv = rep.counterexample if rep.counterexample else (None, None)
    return (f"claim t={c.t} m={c.m} j={c.j} k={c.k} n_max={rep.n_max} "
            f"verdict={rep.verdict} counterexample_n={_fmt_value(cn)} "
            f"counterexample_value={_fmt_value(cv)} ms={rep.ms:.1f}")


def _identity_record(rep: IdentityReport) -> str:
    if rep.first_mismatch:
        e, lhs, rhs = rep.first_mismatch
    else:
        e = lhs = rhs = None
    return (f'identity name="{rep.name}" T={rep.truncation} '
            f"matched={str(rep.matched).lower()} mismatch_exponent={_fmt_value(e)} "
            f'lhs={_fmt_value(lhs)} rhs={_fmt_value(rhs)} note="{rep.note}"')


def _witness_record(rep: WitnessReport) -> str:
    if rep.first_mismatch:
        e, lhs, rhs = rep.first_mismatch
    else:
        e = lhs = rhs = None
    return (f"witness id={rep.certificate_id} T={rep.truncation} "
            f"matched={str(rep.identity_matched).lower()} "
            f"mismatch_exponent={_fmt_value(e)} lhs={_fmt_value(lhs)} "
            f"rhs={_fmt_value(rhs)} gcd={rep.gcd_of_poly} "
            f"implied_modulus={_fmt_value(rep.implied_modulus)}")


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

    def lines(self, fmt: str) -> list[str]:
        return self.header + (self.records if fmt == "records" else self.table)


def _strip_volatile(line: str) -> str:
    return " ".join(tok for tok in line.split(" ") if not tok.startswith("ms="))


def _emit(report: Report, args) -> int:
    lines = report.lines(args.format)
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    stable = "\n".join(_strip_volatile(l) for l in report.lines("records")) + "\n"
    if getattr(args, "bless", None):
        Path(args.bless).write_text(stable)
        sys.stdout.write(f"# blessed -> {args.bless}\n")
    elif getattr(args, "check", None):
        expected = Path(args.check).read_text()
        if expected != stable:
            sys.stdout.write(f"# REGRESSION: output differs from {args.check}\n")
            return VERIFY_FAILURE
        sys.stdout.write(f"# matches {args.check}\n")
    return 0 if report.ok else VERIFY_FAILURE


# -- commands ---------------------------------------------------------------


def cmd_expand(args) -> int:
    eq = parse_eta_quotient(args.spec)
    ring = _parse_ring(args.ring)
    series = expand(eq, ring, args.T)
    rep = Report("expand", {"spec": f'"{args.spec}"', "T": args.T, "ring": args.ring})
    for i, c in enumerate(series.coeffs()):
        e = series.offset + i
        rep.add(f"q^{e}: {c}", f"coeff e={e} value={c}")
    return _emit(rep, args)


def cmd_extract(args) -> int:
    eq = parse_eta_quotient(args.spec)
    ring = _parse_ring(args.ring)
    series = expand(eq, ring, args.T)
    stream = extract(series, Progression(args.m, args.j))
    rep = Report("extract", {"spec": f'"{args.spec}"', "m": args.m, "j": args.j,
                             "T": args.T, "ring": args.ring})
    for n, c in enumerate(stream.coeffs()):
        rep.add(f"n={n} (q^{args.m * n + args.j}): {c}", f"coeff n={n} value={c}")
    return _emit(rep, args)


def cmd_oracle(args) -> int:
    rep = Report("oracle", {"t": args.t, "n_max": args.n_max})
    gf = overpartition_gf(args.t, EXACT, args.n_max + 1)
    ok = True
    for n in range(args.n_max + 1):
        enum = enumerate_colored_overpartitions(args.t, n)
        coeff = gf.coefficient(n)
        match = enum == coeff
        ok = ok and match
        rep.add(f"n={n}: enumeration {enum}, series {coeff}"
                + ("" if match else "  <-- DISAGREE"),
                f"oracle t={args.t} n={n} enumeration={enum} series={coeff} "
                f"agree={str(match).lower()}", ok=match)
    return _emit(rep, args)


def _run_claims(rep: Report, claims, n_max: int):
    for c in claims:
        r = check_claim(c, n_max)
        rep.add(r.summary(), _claim_record(r), ok=r.holds)


def _verify_theorems(rep: Report, args):
    _run_claims(rep, THEOREM_CLAIMS, args.n_max)


def _verify_conjecture(rep: Report, args):
    primes = [int(p) for p in args.args] if args.args else list(DEFAULT_CONJECTURE_PRIMES)
    claims = [c for p in primes for c in conjecture_claims(p)]
    _run_claims(rep, claims, args.n_max)
    # observed sharpness per residue class, to inform whether the conjectured
    # moduli are tight; 64 is a floor (the scan works mod 2^64)
    for p in primes:
        for m, j, k in congruences.CONJECTURE_PATTERN:
            v = congruences.observed_two_adic_valuation(p, m, j, args.n_max)
            rep.add(f"  observed min 2-adic valuation of p̄_-{p}({m}n+{j}): "
                    f"{v}{'+' if v == 64 else ''} (claimed {k})",
                    f"valuation t={p} m={m} j={j} claimed_k={k} observed_min_v2={v}")


def _verify_dissections(rep: Report, args):
    checks = [
        dissect.dissection3_f1cubed(args.T),
        dissect.dissection5(args.T),
        dissect.dissection7(args.T),
        dissect.ramanathan(5, args.T),
        dissect.ramanathan(7, args.T),
        dissect.ramanathan(13, args.T),
    ]
    for r in checks:
        rep.add(r.summary(), _identity_record(r), ok=r.matched)


def _verify_witness(rep: Report, args):
    sources = args.args or ["builtin"]
    for src in sources:
        cert = builtin_certificate() if src == "builtin" else load_certificate(src)
        r = verify_witness(cert, args.T)
        rep.add(r.summary(), _witness_record(r), ok=r.identity_matched)


def _family_n_max(s: int, o: int, requested: int | None) -> int:
    auto = max(10, (_FAMILY_TARGET_T - o) // s)
    cap = (families.DEFAULT_BUDGET - o) // s
    return min(requested if requested is not None else auto, cap)


def _verify_families(rep: Report, args):
    for a, b, c, variant in DEFAULT_FAMILY_INSTANCES:
        fi = families.FamilyInstance(a, b, c, variant)
        s, o = fi.progression()
        r = families.verify_family_instance(fi, _family_n_max(s, o, args.family_n_max))
        rep.add(r.summary(), _identity_record(r), ok=r.matched)
        if variant == "inf4":
            s, o = fi.corrected_progression()
            r = families.verify_family_instance(
                fi, _family_n_max(s, o, args.family_n_max), corrected_offset=True)
            rep.add(r.summary(), _identity_record(r), ok=r.matched)
    for base in (3, 5, 7):
        r = families.verify_induction_step(base, args.T)
        rep.add(r.summary(), _identity_record(r), ok=r.matched)


def _verify_eq1(rep: Report, args):
    r = families.verify_eq1(args.T)
    rep.add(r.summary(), _identity_record(r), ok=r.matched)


_TARGETS = {
    "theorems": _verify_theorems,
    "conjecture": _verify_conjecture,
    "dissections": _verify_dissections,
    "witness": _verify_witness,
    "families": _verify_families,
    "eq1": _verify_eq1,
}


def cmd_verify(args) -> int:
    if args.T is None:
        args.T = DEFAULT_T
    if args.n_max is None:
        args.n_max = DEFAULT_N_MAX
    rep = Report(f"verify {args.target}", {"T": args.T, "n_max": args.n_max})
    if args.target == "all":
        for name in ("theorems", "conjecture", "dissections", "witness",
                     "families", "eq1"):
            rep.table.append(f"-- {name} --")
            rep.records.append(f"# section {name}")
            _TARGETS[name](rep, args)
    else:
        _TARGETS[args.target](rep, args)
    return _emit(rep, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcongruence",
        description="q-series expansion and congruence verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, T=False, n_max=None, ring=False):
        """Register the output flags, plus the input flags ``p`` reads."""
        if T:
            p.add_argument("--T", type=_size, default=DEFAULT_T,
                           help=f"series truncation (default {DEFAULT_T})")
        if n_max is not None:
            p.add_argument("--n-max", dest="n_max", type=_size, default=n_max,
                           help=f"progression bound (default {n_max})")
        if ring:
            p.add_argument("--ring", default="exact",
                           help="coefficient ring: exact or mod2k:K (default exact)")
        p.add_argument("--format", choices=("table", "records"), default="table")
        p.add_argument("--bless", metavar="PATH",
                       help="write the stable record output to PATH")
        p.add_argument("--check", metavar="PATH",
                       help="compare the stable record output against PATH")

    p = sub.add_parser("expand", help="expand an eta-quotient expression")
    p.add_argument("spec", help='e.g. "q^-1 * f2^1 * f1^-2"')
    common(p, T=True, ring=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("extract", help="extract an arithmetic progression "
                       "from an eta-quotient expansion")
    p.add_argument("spec")
    p.add_argument("m", type=int)
    p.add_argument("j", type=int)
    common(p, T=True, ring=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("target", choices=("theorems", "conjecture", "dissections",
                                      "witness", "families", "eq1", "all"))
    p.add_argument("args", nargs="*",
                   help="conjecture: primes to scan; witness: builtin or "
                        "certificate file paths")
    # None defaults let main tell an explicit flag from an omitted one;
    # cmd_verify fills in the defaults
    p.add_argument("--T", type=_size,
                   help=f"identity and witness truncation (default {DEFAULT_T})")
    p.add_argument("--n-max", dest="n_max", type=_size,
                   help=f"progression bound (default {DEFAULT_N_MAX})")
    p.add_argument("--family-n-max", dest="family_n_max", type=_size,
                   help="per-instance bound for family checks (default: auto)")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="cross-check series coefficients "
                       "against direct enumeration")
    p.add_argument("--t", type=int, default=2, help="color count (default 2)")
    common(p, n_max=8)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        reads = _TARGET_FLAGS[args.target]
        unread = [dest for dest in ("T", "n_max", "family_n_max")
                  if getattr(args, dest) is not None and dest not in reads]
        if unread:
            flags = lambda dests: " ".join("--" + d.replace("_", "-") for d in dests)
            parser.error(f"unrecognized arguments: {flags(unread)} "
                         f"(verify {args.target} reads only {flags(reads)})")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
