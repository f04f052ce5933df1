"""Witness certificates: prefactor * (product of extracted progressions) ==
polynomial(hauptmodul), plus the common-factor divisibility that yields a
congruence.

A certificate packages the output of a Ramanujan-Kolberg style search: an
eta-quotient prefactor, a hauptmodul eta-quotient t, and exact integer
polynomial coefficients.  Verification here is truncation-bounded
coefficient equality of both sides as Laurent series — explicitly "checked
through q^T", never "proved"; the modular-function argument that upgrades
the check to a proof is out of scope and the curve level N is carried as
data only.
"""

from __future__ import annotations

import math
import os

from .dissect import Progression, extract
from .eta import EtaQuotient, expand, format_eta_quotient, parse_eta_quotient
from .series import (DEFAULT_BUDGET, EXACT, InsufficientTruncation, LaurentSeries,
                     _Record, field_text, first_difference, int_text)


class WitnessCertificate(_Record):
    """One witness-identity record.

    ``r`` is the input eta-quotient (divisor -> exponent on divisors of M)
    whose expansion generates the sequence being dissected; ``pset`` is the
    full set of residues whose extracted streams multiply into the identity;
    ``poly`` lists exact coefficients from degree ``poly_min_degree`` up.
    """

    N: int
    M: int
    r: dict[int, int]
    m: int
    j: int
    pset: frozenset[int]
    prefactor: EtaQuotient
    hauptmodul: EtaQuotient
    poly: tuple[int, ...]
    poly_min_degree: int = 1
    claimed_common_factor: int = 1
    id: str = ""

    def __post_init__(self):
        if self.N < 1 or self.M < 1 or self.m < 1:
            raise ValueError("N, M, m must be positive")
        for d in self.r:
            if d < 1 or self.M % d != 0:
                raise ValueError(f"input divisor {d} does not divide M={self.M}")
        if self.j not in self.pset:
            raise ValueError(f"j={self.j} must belong to the residue set {set(self.pset)}")
        for jp in self.pset:
            if not 0 <= jp < self.m:
                raise ValueError(f"residue {jp} not in [0, {self.m})")
        if not self.poly:
            raise ValueError("certificate polynomial must be nonempty")
        if self.poly_min_degree not in (0, 1):
            raise ValueError("poly_min_degree must be 0 or 1")
        if self.claimed_common_factor < 1:
            raise ValueError("claimed common factor must be positive")
        for c in self.poly:
            if c % self.claimed_common_factor != 0:
                raise ValueError(
                    f"claimed common factor {self.claimed_common_factor} does not "
                    f"divide polynomial coefficient {int_text(c)}")
        if not self.id:
            object.__setattr__(self, "id", f"M{self.M}-m{self.m}-j{self.j}")
        # the extracted streams are power series, so the left side's pole order
        # is at most the prefactor's, p: D*max(h, 1) <= p keeps the right side's
        # within it and, as base_terms holds p below T, its D products below T
        lhs_pole, h_pole = -self.prefactor.qshift, -self.hauptmodul.qshift
        if (reach := self.degree * max(h_pole, 1)) > lhs_pole:
            raise ValueError(
                f"witness {self.id}: poly degree {self.degree} times the hauptmodul's "
                f"pole order {h_pole}{'' if h_pole >= 1 else ', taken as 1,'} is "
                f"{reach}, past the left side's pole order {lhs_pole}")

    @property
    def degree(self) -> int:
        return self.poly_min_degree + len(self.poly) - 1

    def base_terms(self, T: int) -> int:
        """How many terms of the base quotient a check through T reads; a
        ValueError if no check can run at T.  Its window q^lo..q^(lo+T-1)
        starts at the left side's deepest pole, the prefactor's: past T it
        never reaches q^0."""
        if T < 1:
            raise InsufficientTruncation("need T >= 1 output coefficients")
        pole = -self.prefactor.qshift
        if pole >= T:
            raise ValueError(f"witness {self.id}: the prefactor's pole order {pole} is at "
                             f"least T={T}, so the comparison window never reaches q^0")
        n = self.m * T + max(self.pset) + 1
        if n > DEFAULT_BUDGET:
            raise ValueError(f"witness {self.id} needs its base expanded to {n} "
                             f"terms, over the budget of {DEFAULT_BUDGET}")
        return n


class WitnessReport(_Record):
    certificate_id: str
    truncation: int
    first_mismatch: tuple[int, int, int] | None
    gcd_of_poly: int

    @property
    def identity_matched(self) -> bool:
        return self.first_mismatch is None

    ok = identity_matched

    @property
    def implied_modulus(self) -> int | None:
        """The largest power of 2 dividing the gcd; None when the gcd is 0."""
        return (self.gcd_of_poly & -self.gcd_of_poly) or None

    def summary(self) -> str:
        state = ("matched" if self.identity_matched
                 else f"MISMATCH at q^{self.first_mismatch[0]}: "
                      f"{int_text(self.first_mismatch[1])} != "
                      f"{int_text(self.first_mismatch[2])}")
        mod = ("undefined" if self.implied_modulus is None
               else int_text(self.implied_modulus))
        return (f"witness {self.certificate_id}: identity {state} "
                f"(checked through q^{self.truncation - 1}); "
                f"poly gcd {int_text(self.gcd_of_poly)}, 2-power part {mod}")

    def record(self) -> str:
        e, lhs, rhs = self.first_mismatch or (None, None, None)
        return (f"witness id={self.certificate_id} T={self.truncation} "
                f"matched={str(self.identity_matched).lower()} "
                f"mismatch_exponent={field_text(e)} lhs={field_text(lhs)} "
                f"rhs={field_text(rhs)} gcd={field_text(self.gcd_of_poly)} "
                f"implied_modulus={field_text(self.implied_modulus)}")


def certificate_common_factor(c: WitnessCertificate) -> tuple[int, int | None]:
    """gcd of the polynomial coefficients and its 2-adic valuation.

    Degenerate all-zero polynomials report gcd 0 with valuation None rather
    than adopting an arbitrary convention.
    """
    g = math.gcd(*c.poly)
    if g == 0:
        return 0, None
    return g, (g & -g).bit_length() - 1


def verify_witness(c: WitnessCertificate, T: int) -> WitnessReport:
    """Compare prefactor * prod_{j' in pset} extracted-stream against
    poly(hauptmodul), coefficient-wise over T Laurent coefficients starting
    at the lower of the two sides' lowest exponents.  ``c.base_terms(T)``
    rules whether c can be checked at T; the guard below only checks what
    the expansions delivered."""
    base = expand(EtaQuotient(c.M, c.r), EXACT, c.base_terms(T))
    lhs = expand(c.prefactor, EXACT, c.prefactor.qshift + T)
    for jp in sorted(c.pset):
        lhs = lhs.mul(extract(base, Progression(c.m, jp)).truncate(T))

    h = expand(c.hauptmodul, EXACT, c.hauptmodul.qshift + T)
    rhs = None
    power = LaurentSeries.one(EXACT, T) if c.poly_min_degree == 0 else h
    for i, coeff in enumerate(c.poly):
        term = power.scale(coeff)
        rhs = term if rhs is None else rhs.add(term)
        if i + 1 < len(c.poly):
            power = power.mul(h)

    lo = min(lhs.offset, rhs.offset)
    through = lo + T
    if min(lhs.trunc, rhs.trunc) < through:
        raise InsufficientTruncation(
            "internal truncation plan fell short of the comparison window")
    return WitnessReport(
        certificate_id=c.id,
        truncation=through,
        first_mismatch=first_difference(lhs, rhs, through=through),
        gcd_of_poly=certificate_common_factor(c)[0],
    )


def builtin_certificate() -> WitnessCertificate:
    """The shipped 5-colored / 8n+7 / mod-128 witness certificate, read
    from its packaged file."""
    return parse_certificate(builtin_certificate_text())


# -- line-oriented text format -------------------------------------------
#
#   id t5-8n+7-mod128
#   N 8
#   M 2
#   r 1:-10 2:5
#   m 8
#   j 7
#   P 7
#   AB 1
#   prefactor q^-17 * f1^79 * f2^-38 * f4^36 * f8^-72
#   hauptmodul q^-1 * f2^-4 * f4^12 * f8^-8
#   poly_min_degree 1
#   poly 162177965096960 12820855335682048 ... 37760
#   common_factor 128
#
# '#' starts a comment; blank lines are ignored; poly is lowest-degree-first
# exact decimals.  AB and poly_min_degree are optional (defaults "1").  Only
# AB = 1 is supported: the general per-g section is reserved but no data
# exercises it.


def format_certificate(c: WitnessCertificate) -> str:
    lines = [
        f"id {c.id}",
        f"N {c.N}",
        f"M {c.M}",
        "r " + " ".join(f"{d}:{e}" for d, e in sorted(c.r.items())),
        f"m {c.m}",
        f"j {c.j}",
        "P " + ",".join(str(x) for x in sorted(c.pset)),
        "AB 1",
        f"prefactor {format_eta_quotient(c.prefactor)}",
        f"hauptmodul {format_eta_quotient(c.hauptmodul)}",
        f"poly_min_degree {c.poly_min_degree}",
        "poly " + " ".join(str(x) for x in c.poly),
        f"common_factor {c.claimed_common_factor}",
    ]
    return "\n".join(lines) + "\n"


_FIELDS = ("id", "N", "M", "r", "m", "j", "P", "AB", "prefactor", "hauptmodul",
           "poly_min_degree", "poly", "common_factor")


def parse_certificate(text: str) -> WitnessCertificate:
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        if not value.strip():
            raise ValueError(f"line {lineno}: field {key!r} has no value")
        if key not in _FIELDS:
            raise ValueError(f"line {lineno}: unknown field {key!r}")
        if key in fields:
            raise ValueError(f"line {lineno}: duplicate field {key!r}")
        fields[key] = value.strip()

    required = ("N", "M", "r", "m", "j", "P", "prefactor", "hauptmodul",
                "poly", "common_factor")
    missing = [k for k in required if k not in fields]
    if missing:
        raise ValueError(f"certificate is missing fields: {', '.join(missing)}")
    if fields.get("AB", "1") != "1":
        raise ValueError("only AB = 1 certificates are supported; the per-g "
                         "section for larger AB sets is reserved but unimplemented")

    r = {}
    for pair in fields["r"].split():
        d, _, e = pair.partition(":")
        if int(d) in r:
            raise ValueError(f"field 'r' repeats divisor {int(d)}")
        r[int(d)] = int(e)
    return WitnessCertificate(
        N=int(fields["N"]),
        M=int(fields["M"]),
        r=r,
        m=int(fields["m"]),
        j=int(fields["j"]),
        pset=frozenset(int(x) for x in fields["P"].split(",")),
        prefactor=parse_eta_quotient(fields["prefactor"]),
        hauptmodul=parse_eta_quotient(fields["hauptmodul"]),
        poly=tuple(int(x) for x in fields["poly"].split()),
        poly_min_degree=int(fields.get("poly_min_degree", "1")),
        claimed_common_factor=int(fields["common_factor"]),
        id=fields.get("id", ""),
    )


def load_certificate(path: str | os.PathLike) -> WitnessCertificate:
    with open(path) as f:
        return parse_certificate(f.read())


def save_certificate(c: WitnessCertificate, path: str | os.PathLike) -> None:
    with open(path, "w") as f:
        f.write(format_certificate(c))


def builtin_certificate_text() -> str:
    """The shipped certificate file, as packaged."""
    from importlib import resources
    return resources.files("qcongruence").joinpath(
        "data/builtin_certificate.txt").read_text()
