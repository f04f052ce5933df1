"""Command-line surface: expand series, extract progressions, and run every
verification suite with reproducible, machine-readable reports.

Exit codes: 0 all checks passed, 1 at least one verification failed (or a
--check regression diff), 2 usage or data errors.  Record output is
line-stable for identical inputs; timing fields (``ms=``) are the only
volatile part and are ignored by --check.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from types import SimpleNamespace

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


class _BadValue(ValueError):
    """A value its flag's type rejects; the message follows "argument FLAG: "."""


def _bounded(hi: int) -> Callable[[str], int]:
    """A flag type: an integer in 1..hi."""
    def integer(text: str) -> int:
        v = int(text)
        if not 1 <= v <= hi:
            raise _BadValue(f"must be in 1..{hi}, got {v}")
        return v
    return integer


def _format(text: str) -> str:
    """The --format type."""
    if text in ("table", "records"):
        return text
    raise _BadValue(f"invalid choice: {text!r} (choose from 'table', 'records')")


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
    raise _BadValue(
        f"must be 'exact' or 'mod2k:K' with 1 <= K <= {MAX_MOD2K_BITS}, got {text!r}")


def _option_text(value) -> str:
    """A header value: a ring as --ring spells it, a string quoted."""
    if isinstance(value, Ring):
        return "exact" if value.is_exact else f"mod2k:{value.k}"
    return f'"{value}"' if isinstance(value, str) else str(value)


class Report:
    """A run's header and its rows, each a (table line, record line) pair."""

    def __init__(self, command: str, options: dict):
        self.header = [f"# qcongruence {command}"]
        opts = " ".join(f"{k}={v}" for k, v in options.items())
        if opts:
            self.header.append(f"# options: {opts}")
        self.rows: list[tuple[str, str]] = []
        self.ok = True

    def add(self, summary: str, record: str, ok: bool = True):
        self.rows.append((summary, record))
        self.ok = self.ok and ok

    def add_reports(self, reports):
        """Add each report's ``summary()`` and ``record()``; any failed
        report fails the run."""
        for r in reports:
            self.add(r.summary(), r.record(), ok=r.ok)

    def lines(self, fmt: str) -> list[str]:
        return self.header + [row[fmt == "records"] for row in self.rows]


def _strip_volatile(line: str) -> str:
    return " ".join(tok for tok in line.split(" ") if not tok.startswith("ms="))


def _emit(report: Report, args) -> int:
    """Print the form --format names; the stable record text is built only
    for --bless or --check."""
    sys.stdout.write("\n".join(report.lines(args.format)) + "\n")
    if args.bless or args.check:
        stable = "\n".join(_strip_volatile(l) for l in report.lines("records")) + "\n"
    if args.bless:
        with open(args.bless, "w") as f:
            f.write(stable)
        sys.stdout.write(f"# blessed -> {args.bless}\n")
    elif args.check:
        with open(args.check) as f:
            if f.read() != stable:
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


def _expand(rep: Report, args):
    series = _expand_spec(args)
    for e, c in enumerate(map(int_text, series.coeffs()), series.offset):
        rep.add(f"q^{e}: {c}", f"coeff e={e} value={c}")


def _extract(rep: Report, args):
    p = Progression(args.m, args.j)  # a bad progression fails before any expansion
    for n, c in enumerate(map(int_text, extract(_expand_spec(args), p).coeffs())):
        rep.add(f"n={n} (q^{p.m * n + p.j}): {c}", f"coeff n={n} value={c}")


def _oracle(rep: Report, args):
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


def _verify_conjecture(rep: Report, args):
    primes = args.args or list(DEFAULT_CONJECTURE_PRIMES)
    claims = [c for p in primes for c in conjecture_claims(p)]
    # one table per prime mod 2^8 answers its claims and how sharp they are
    reports, valuations = congruences.check_with_valuations(claims, primes, 8, args.n_max)
    rep.add_reports(reports)
    del reports  # its rows are built: free it before the valuations' rows
    for p, observed in zip(primes, valuations):
        for m, j, k in congruences.CONJECTURE_PATTERN:  # m = 8 in every row
            v = observed[j]
            rep.add(f"  observed min 2-adic valuation of p̄_-{p}({m}n+{j}): "
                    f"{v}{'+' if v == 64 else ''} (claimed {k})",
                    f"valuation t={p} m={m} j={j} claimed_k={k} observed_min_v2={v}")


def _certificates(args) -> list:
    """The certificates the run names (default builtin), each loaded and
    bounded at --T before any is checked, so a bad one fails the run first."""
    certs = [builtin_certificate() if src == "builtin" else load_certificate(src)
             for src in args.args or ["builtin"]]
    for c in certs:
        c.base_terms(args.T)
    return certs


class _Target(_Record):
    run: Callable[[Report, SimpleNamespace], None]
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
        verify_witness(c, args.T) for c in _certificates(args)),
        ("--T",), ("CERT", str, "builtin or certificate file paths (default builtin)")),
    "families": _Target(lambda rep, args: rep.add_reports(
        families.verify_suite(args.T)), ("--T",)),
    "eq1": _Target(lambda rep, args: rep.add_reports(
        [families.verify_eq1(args.T)]), ("--T",)),
}


def _verify_all(rep: Report, args):
    _certificates(args)  # over the budget: fail before any section
    for name, target in _TARGETS.items():
        rep.add(f"-- {name} --", f"# section {name}")
        target.run(rep, args)


def _run(args) -> int:
    """Run one command: its builder fills a Report headed by its options."""
    rep = Report(args.command, {name: _option_text(getattr(args, name))
                                for name in args.header})
    args.run(rep, args)
    return _emit(rep, args)


# The input flags a subcommand may read: (type, metavar, help) of each.
_INPUT_FLAGS = {
    "--T": (_size, "T", f"series truncation (default {DEFAULT_T})"),
    "--n-max": (_size, "N", f"progression bound (default {DEFAULT_N_MAX})"),
    "--ring": (_parse_ring, "RING", "coefficient ring: exact or mod2k:K (default exact)"),
}
# Every subcommand's output flags; --bless and --check exclude each other.
_OUTPUT_FLAGS = {
    "--format": (_format, "{table,records}", "output form (default table)"),
    "--bless": (str, "PATH", "write the stable record output to PATH"),
    "--check": (str, "PATH", "compare the stable record output against PATH"),
}
_COMMANDS = {
    "expand": "expand an eta-quotient expression",
    "extract": "extract an arithmetic progression from an eta-quotient expansion",
    "verify": "run a verification suite",
    "oracle": "cross-check series coefficients against direct enumeration",
}


def _fail(usage: str, prog: str, message: str):
    sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
    raise SystemExit(USAGE_ERROR)


def _help(usage: str, rows: list[tuple[str, str]]):
    width = max(len(name) for name, _ in rows)
    print(usage, "", *(f"  {name:<{width}}  {text}" for name, text in rows), sep="\n")
    raise SystemExit(0)


def _is_option(word: str) -> bool:
    """A dash word that is not ``-``, a negative number or spaced."""
    return (word[:1] == "-" and word != "-" and " " not in word
            and not word[1:].replace(".", "", 1).isdecimal())


def _choose(prog: str, argv: list[str], choices: dict[str, str], dest: str) -> str:
    """``argv[0]``, which must be a key of ``choices`` (name -> help)."""
    usage = f"usage: {prog} [-h] {{{','.join(choices)}}} ..."
    word = argv[0] if argv else ""
    if word == "-h" or word.startswith("--h") and "--help".startswith(word):
        _help(usage, list(choices.items()))
    if word not in choices:
        _fail(usage, prog, f"argument {dest}: invalid choice: {word!r} (choose from "
              f"{', '.join(map(repr, choices))})" if argv
              else f"the following arguments are required: {dest}")
    return word


def _parse(command: str, argv: list[str], flags: dict, run, fixed=(), rest=(), **header):
    """One command's options, read as argparse reads them.  Its ``flags``
    and the output flags come as ``--flag value``, ``--flag=value`` or a
    unique prefix of the flag; positionals sit anywhere, and a negative
    number or any word after ``--`` is one.  ``fixed`` holds the (name,
    type, help) of each positional a run must give, ``rest`` those of at
    most one more that takes any number of words, into ``args``.  The
    report's header names the ``fixed`` positionals, then the options
    ``header`` gives defaults for; ``run`` fills its rows."""
    prog = f"qcongruence {command}"
    flags = {**flags, **_OUTPUT_FLAGS}
    usage = " ".join([f"usage: {prog} [-h]",
                      *(f"[{flag} {meta}]" for flag, (_, meta, _) in flags.items()),
                      *(name for name, _, _ in fixed), *(f"[{name} ...]" for name, _, _ in rest)])

    def convert(name, type_, text):
        try:
            return type_(text)
        except _BadValue as exc:
            _fail(usage, prog, f"argument {name}: {exc}")
        except ValueError:
            _fail(usage, prog, f"argument {name}: invalid {type_.__name__} value: {text!r}")

    args = SimpleNamespace(command=command, run=run, format="table", bless=None, check=None,
                           header=(*(name for name, _, _ in fixed), *header), **header)
    words, extras, tokens, dashes = [], [], iter(argv), False
    for token in tokens:
        if dashes or not _is_option(token):
            words.append(token)
            continue
        if token == "--":
            dashes = True
            continue
        name, eq, text = token.partition("=")
        match = [flag for flag in (*flags, "-h", "--help")
                 if flag == name or name[:2] == "--" and flag.startswith(name)]
        if len(match) > 1 and name not in match:
            _fail(usage, prog, f"ambiguous option: {name} could match {', '.join(match)}")
        if not match:
            extras.append(token)
            continue
        flag = name if name in match else match[0]
        if flag in ("-h", "--help"):
            _help(usage, [*((f"{flag} {meta}", text) for flag, (_, meta, text) in flags.items()),
                          *((name, text) for name, _, text in (*fixed, *rest))])
        if not eq:
            text = next(tokens, None)
            if text is None or _is_option(text):
                _fail(usage, prog, f"argument {flag}: expected one argument")
        other = {"--bless": "--check", "--check": "--bless"}.get(flag)
        if other and getattr(args, other[2:]) is not None:
            _fail(usage, prog, f"argument {flag}: not allowed with argument {other}")
        setattr(args, flag[2:].replace("-", "_"), convert(flag, flags[flag][0], text))
    places = (*fixed, *rest * len(words))
    values = [convert(name, type_, word) for (name, type_, _), word in zip(places, words)]
    if len(words) < len(fixed):
        _fail(usage, prog, "the following arguments are required: "
              + ", ".join(name for name, _, _ in fixed[len(words):]))
    if extras or words[len(places):]:
        _fail(usage, prog, f"unrecognized arguments: {' '.join(extras + words[len(places):])}")
    vars(args).update(zip((name for name, _, _ in fixed), values), args=values[len(fixed):])
    return args


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The options of the one command ``argv`` names, with ``run``, the
    builder that fills its report."""
    command = _choose("qcongruence", argv, _COMMANDS, "command")
    argv = argv[1:]
    if command == "verify":
        targets = {**_TARGETS, "all": _Target(_verify_all, tuple(dict.fromkeys(
            f for t in _TARGETS.values() for f in t.reads)))}
        name = _choose("qcongruence verify", argv,
                       {n: " ".join(t.reads) for n, t in targets.items()}, "target")
        t = targets[name]
        # every header names T and n_max, even for a target that reads neither
        return _parse(f"verify {name}", argv[1:], {f: _INPUT_FLAGS[f] for f in t.reads},
                      t.run, rest=(t.positionals,) if t.positionals else (),
                      T=DEFAULT_T, n_max=DEFAULT_N_MAX)
    if command == "oracle":
        return _parse(command, argv, {
            "--t": (_bounded(congruences._ORACLE_MAX_T), "T", "color count (default 2)"),
            "--n-max": (_bounded(congruences._ORACLE_MAX_N), "N",
                        "enumeration bound (default 8)")}, _oracle, t=2, n_max=8)
    fixed = (("spec", str, 'e.g. "q^-1 * f2^1 * f1^-2"'),)
    if command == "extract":
        fixed += (("m", int, "progression step"), ("j", int, "residue, 0 <= j < m"))
    return _parse(command, argv, {f: _INPUT_FLAGS[f] for f in ("--T", "--ring")},
                  _extract if command == "extract" else _expand, fixed, T=DEFAULT_T, ring=EXACT)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return _run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
