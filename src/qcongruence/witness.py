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

import _thread
import marshal
import math
import os

from .dissect import Progression, extract
from .eta import EtaQuotient, expand, format_eta_quotient, parse_eta_quotient
from .series import (DEFAULT_BUDGET, EXACT, InsufficientTruncation, LaurentSeries,
                     _Record, first_difference, int_text, record_text)


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
        elif self.id.split() != [self.id]:
            raise ValueError(f"witness id {self.id!r} holds whitespace; an id is one token")
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

    def record(self) -> tuple[str, str]:
        e, lhs, rhs = self.first_mismatch or (None, None, None)
        return record_text("witness", dict(id=self.certificate_id, T=self.truncation,
                                           matched=self.identity_matched, mismatch_exponent=e,
                                           lhs=lhs, rhs=rhs, gcd=self.gcd_of_poly,
                                           implied_modulus=self.implied_modulus))


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
    the expansions delivered.

    The check's two halves meet only in the left side's last products, so
    they run side by side (see ``_side_by_side``): a forked child expands
    the base quotient and extracts its streams, while this process expands
    the prefactor and the hauptmodul and builds poly(h).  Where the job
    cannot fork (no ``os.fork``, one CPU in the affinity mask, other
    threads in the process) the same job runs inline first; where the
    child returns no result, it runs here after the parent's half, so any
    error it raises is raised as inline."""
    n = c.base_terms(T)
    streams, (lhs, rhs) = _side_by_side(lambda: _base_streams(c, n, T),
                                        lambda: _prefactor_and_rhs(c, T))
    for coeffs in streams:
        lhs = lhs.mul(LaurentSeries(0, coeffs, EXACT))

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


def _base_streams(c: WitnessCertificate, n: int, T: int) -> list[list[int]]:
    """The coefficients through q^(T-1) of each stream that the left side
    takes from the base quotient expanded to n terms, in increasing residue
    order; each stream is a power series from q^0."""
    base = expand(EtaQuotient(c.M, c.r), EXACT, n)
    return [extract(base, Progression(c.m, jp)).truncate(T).coeffs()
            for jp in sorted(c.pset)]


def _prefactor_and_rhs(c: WitnessCertificate, T: int) -> tuple[LaurentSeries, LaurentSeries]:
    """The prefactor's expansion and poly(hauptmodul), each T terms long."""
    prefactor = expand(c.prefactor, EXACT, c.prefactor.qshift + T)
    h = expand(c.hauptmodul, EXACT, c.hauptmodul.qshift + T)
    rhs = None
    power = LaurentSeries.one(EXACT, T) if c.poly_min_degree == 0 else h
    for i, coeff in enumerate(c.poly):
        term = power.scale(coeff)
        rhs = term if rhs is None else rhs.add(term)
        if i + 1 < len(c.poly):
            power = power.mul(h)
    return prefactor, rhs


def _can_fork() -> bool:
    """Whether a forked child can run beside this process: the platform
    has ``os.fork``, the affinity mask holds two CPUs or more, and the
    process has no other thread, which a fork would copy mid-step (and
    which Python 3.12 warns of).  Where the platform cannot tell its
    threads or CPUs (no ``/proc/self/task``, no ``sched_getaffinity``),
    it cannot."""
    try:
        return (hasattr(os, "fork") and len(os.sched_getaffinity(0)) > 1
                and len(os.listdir("/proc/self/task")) == 1)
    except (AttributeError, OSError):
        return False


def _side_by_side(job, work):
    """``(job(), work())``.  Where ``_can_fork()``, job runs in a forked
    child beside work, and its result, which must be marshal-able, comes
    back over a pipe as one marshal payload.  A child that ends any other
    way (an exception, a signal, a nonzero exit status) leaves job to run
    here, after work, so its error is raised as inline.  Elsewhere, or if
    the fork fails, job runs inline before work.  Any exception in this
    process kills and reaps the child, and a child whose parent dies ends
    itself (``_run_child``), so no child outlives a call."""
    if not _can_fork():
        return job(), work()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return job(), work()
    if pid == 0:
        _run_child(job, read, write)
    os.close(write)
    with open(read, "rb") as pipe:
        try:
            other = work()
            payload = pipe.read()
        except BaseException:
            import signal  # here only: its enums cost every run start-up time
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    return (marshal.loads(payload) if status == 0 else job()), other


def _run_child(job, read: int, write: int):
    """The forked child's whole life: job's result written to the pipe as
    one marshal payload, then exit status 0; anything else exits 1.  A
    watcher thread exits as soon as the pipe has no reader, so a parent
    killed outright (SIGKILL) leaves no child computing.  The write end
    stays open until the exit: closed, it would wake the watcher, which
    could exit 1 after a good write.  It never returns: ``os._exit`` skips
    the parent's atexit handlers and buffers."""
    status = 1
    try:
        os.close(read)
        _thread.start_new_thread(_exit_unread, (write,))
        payload = marshal.dumps(job())
        with open(write, "wb", closefd=False) as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _exit_unread(fd: int):
    """Exit once the pipe whose write end is fd has no reader: its POLLERR."""
    import select  # here only: it costs every run start-up time
    poll = select.poll()
    poll.register(fd, 0)  # POLLERR, POLLHUP and POLLNVAL come unasked
    poll.poll()
    os._exit(1)


def builtin_certificate() -> WitnessCertificate:
    """The shipped 5-colored / 8n+7 / mod-128 witness certificate, read
    from its packaged file."""
    return parse_certificate(builtin_certificate_text())


def _read_r(text: str) -> dict[int, int]:
    if text == "-":  # the empty map
        return {}
    r = {}
    for pair in text.split():
        d, _, e = pair.partition(":")
        if int(d) in r:
            raise ValueError(f"repeats divisor {int(d)}")
        r[int(d)] = int(e)
    return r


# The line-oriented text format, one row per line in file order: key ->
# (record field, reader, writer, whether the line is required).  A missing
# optional line takes the record's default; '#' starts a comment, blank
# lines are ignored, poly is lowest-degree-first exact decimals and an
# empty r is '-'.
_FORMAT = {
    "id": ("id", str, str, False),
    "N": ("N", int, str, True),
    "M": ("M", int, str, True),
    "r": ("r", _read_r,
          lambda r: " ".join(f"{d}:{e}" for d, e in sorted(r.items())) or "-", True),
    "m": ("m", int, str, True),
    "j": ("j", int, str, True),
    "P": ("pset", lambda text: frozenset(int(x) for x in text.split(",")),
          lambda pset: ",".join(map(str, sorted(pset))), True),
    "prefactor": ("prefactor", parse_eta_quotient, format_eta_quotient, True),
    "hauptmodul": ("hauptmodul", parse_eta_quotient, format_eta_quotient, True),
    "poly_min_degree": ("poly_min_degree", int, str, False),
    "poly": ("poly", lambda text: tuple(int(x) for x in text.split()),
             lambda poly: " ".join(map(str, poly)), True),
    "common_factor": ("claimed_common_factor", int, str, True),
}


def format_certificate(c: WitnessCertificate) -> str:
    return "".join(f"{key} {write(getattr(c, field))}\n"
                   for key, (field, _, write, _) in _FORMAT.items())


def parse_certificate(text: str) -> WitnessCertificate:
    """A certificate from its text; a value its reader rejects fails with
    ``line L: field 'K': `` and the reader's message."""
    fields: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        if not value.strip():
            raise ValueError(f"line {lineno}: field {key!r} has no value")
        if key not in _FORMAT:
            raise ValueError(f"line {lineno}: unknown field {key!r}")
        if key in fields:
            raise ValueError(f"line {lineno}: duplicate field {key!r}")
        fields[key] = lineno, value.strip()

    missing = [key for key, (_, _, _, required) in _FORMAT.items()
               if required and key not in fields]
    if missing:
        raise ValueError(f"certificate is missing fields: {', '.join(missing)}")
    values = {}
    for key, (field, read, _, _) in _FORMAT.items():
        if key in fields:
            lineno, value = fields[key]
            try:
                values[field] = read(value)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: field {key!r}: {exc}") from None
    return WitnessCertificate(**values)


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
