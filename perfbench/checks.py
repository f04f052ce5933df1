"""Output checks for the benchmark's CLI invocations.

Each checker reads the ``--format records`` output of one invocation and
either returns the verified work (coefficients) or raises ``CheckFailed``.
The expected claim tables are written out here rather than imported from
the package, so a program that changed its own tables cannot pass.  The
2-adic valuations of the conjecture scan are compared against
``GaussReference``, an independent computation in plain numpy.
"""

from __future__ import annotations

import math
import re

# (t, j, k) for the 24 proved claims p-bar_{-t}(8n + j) == 0 (mod 2^k).
THEOREM_ROWS = (
    (5, 1, 1), (5, 2, 2), (5, 3, 3), (5, 4, 1), (5, 5, 3), (5, 6, 3), (5, 7, 7),
    (7, 1, 1), (7, 2, 4), (7, 3, 5), (7, 4, 1), (7, 7, 7),
    (11, 1, 1), (11, 2, 3), (11, 3, 4), (11, 4, 1), (11, 7, 6),
    (13, 1, 1), (13, 2, 2), (13, 3, 3), (13, 4, 1), (13, 5, 3), (13, 6, 3),
    (13, 7, 8),
)

# (j, k) of the conjectured p-bar_{-t}(8n + j) == 0 (mod 2^k) for prime t.
CONJECTURE_ROWS = ((1, 1), (2, 2), (3, 3), (4, 1), (5, 3), (6, 3), (7, 5))

# verify families: record names in order; inf4 as stated is the one line
# the program must report as refuted.
FAMILY_NAMES = (
    "inf(alpha=0, beta=0, gamma=0)",
    "inf(alpha=1, beta=0, gamma=0)",
    "inf(alpha=0, beta=1, gamma=0)",
    "inf(alpha=0, beta=0, gamma=1)",
    "inf2(alpha=0, beta=0, gamma=0)",
    "inf3(alpha=0, beta=0, gamma=0)",
    "inf4(alpha=0, beta=0, gamma=0)",
    "inf4(alpha=0, beta=0, gamma=0) [corrected offset]",
    "base-3 induction step (mod 8)",
    "extract(4*f1^6, 5n+1) = 4*q*f5^6 (mod 8)",
    "extract(extract(4*f1^6, 7n+5), 7n+1) = 4*f1^6 (mod 8)",
)
REFUTED_FAMILY = "inf4(alpha=0, beta=0, gamma=0)"
REFUTED_NOTE = "neither q-factor candidate matched"

DISSECTION_COUNT = 6


class CheckFailed(Exception):
    """An invocation's output is wrong."""


_FIELD = re.compile(r'(\w+)=(?:"([^"]*)"|(\S*))')


def parse_records(text: str) -> list[tuple[str, dict[str, str]]]:
    """(kind, fields) for every record line; '#' lines are skipped."""
    out = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        kind, _, rest = line.partition(" ")
        fields = {m.group(1): m.group(2) if m.group(2) is not None else m.group(3)
                  for m in _FIELD.finditer(rest)}
        out.append((kind, fields))
    return out


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _records(text: str, **counts: int) -> dict[str, list[dict[str, str]]]:
    """Records of the output grouped by kind; the kinds and their counts
    must be exactly ``counts``."""
    got: dict[str, list[dict[str, str]]] = {}
    for kind, fields in parse_records(text):
        got.setdefault(kind, []).append(fields)
    seen = {kind: len(recs) for kind, recs in got.items()}
    _require(seen == counts, f"records {seen}, want {counts}")
    return got


def _check_claims(claims, rows, n_max: int):
    for rec, (t, j, k) in zip(claims, rows):
        want = {"t": str(t), "m": "8", "j": str(j), "k": str(k), "n_max": str(n_max)}
        got = {key: rec.get(key) for key in want}
        _require(got == want, f"claim {got} is not the expected {want}")
        _require(rec.get("verdict") == "holds",
                 f"claim t={t} j={j} k={k}: verdict {rec.get('verdict')}")


def check_theorems(text: str, n_max: int) -> int:
    claims = _records(text, claim=len(THEOREM_ROWS))["claim"]
    _check_claims(claims, THEOREM_ROWS, n_max)
    return len(claims) * (n_max + 1)


def check_conjecture(text: str, primes: list[int], n_max: int,
                     reference: "GaussReference") -> int:
    rows = [(p, j, k) for p in primes for j, k in CONJECTURE_ROWS]
    records = _records(text, claim=len(rows), valuation=len(rows))
    claims, vals = records["claim"], records["valuation"]
    _check_claims(claims, rows, n_max)
    for rec, (t, j, k) in zip(vals, rows):
        where = f"valuation t={t} j={j}"
        _require((rec.get("t"), rec.get("m"), rec.get("j"), rec.get("claimed_k"))
                 == (str(t), "8", str(j), str(k)), f"{where}: unexpected record {rec}")
        observed = int(rec.get("observed_min_v2", "-1"))
        _require(k <= observed < 64,
                 f"{where}: observed_min_v2={observed} outside [{k}, 64)")
        expected = reference.valuation(t, 8, j, n_max)
        _require(observed == expected,
                 f"{where}: observed_min_v2={observed}, reference {expected}")
    return (len(claims) + len(vals)) * (n_max + 1)


def check_witness(text: str) -> int:
    (rec,) = _records(text, witness=1)["witness"]
    for key, want in (("id", "t5-8n+7-mod128"), ("matched", "true"),
                      ("gcd", "128"), ("implied_modulus", "128")):
        _require(rec.get(key) == want, f"witness {key}={rec.get(key)}, want {want}")
    T = int(rec.get("T", "0"))
    _require(T > 0, f"witness T={T}")
    return T


def _identities(text: str, count: int) -> list[dict[str, str]]:
    recs = _records(text, identity=count)["identity"]
    for rec in recs:
        _require(int(rec.get("T", "0")) > 0, f'identity "{rec.get("name")}" T<=0')
    return recs


def check_families(text: str) -> int:
    recs = _identities(text, len(FAMILY_NAMES))
    for rec, name in zip(recs, FAMILY_NAMES):
        _require(rec.get("name") == name, f'family record "{rec.get("name")}", want "{name}"')
        if name == REFUTED_FAMILY:
            _require(rec.get("matched") == "false" and rec.get("note") == REFUTED_NOTE,
                     f'{name}: matched={rec.get("matched")} note="{rec.get("note")}", '
                     f'want the refutation "{REFUTED_NOTE}"')
        else:
            _require(rec.get("matched") == "true", f"{name}: not matched")
    return sum(int(r["T"]) for r in recs)


def check_identities(text: str, count: int, T: int) -> int:
    recs = _identities(text, count)
    for rec in recs:
        _require(rec.get("matched") == "true", f'{rec.get("name")}: not matched')
        _require(rec.get("T") == str(T), f'{rec.get("name")}: T={rec.get("T")}, want {T}')
    return count * T


class GaussReference:
    """t-colored overpartition counts mod 2^64 via Gauss's identity.

    f2^t / f1^(2t) = (1 + 2X)^(-t) with X = sum_{n>=1} (-1)^n q^(n^2), so
    mod 2^64 it is sum_{i<64} C(-t, i) 2^i X^i.  The powers of X are shared
    by every t.  This shares no code with the package.
    """

    def __init__(self, T: int):
        import numpy as np

        self._np = np
        self.T = T
        power = np.zeros(T, dtype=np.uint64)
        power[0] = 1
        self._powers = [power]
        squares = [(n * n, n % 2) for n in range(1, math.isqrt(T - 1) + 1)]
        for _ in range(1, 64):
            nxt = np.zeros(T, dtype=np.uint64)
            for sq, odd in squares:
                if odd:
                    nxt[sq:] -= power[:T - sq]
                else:
                    nxt[sq:] += power[:T - sq]
            power = nxt
            self._powers.append(power)
        self._series: dict[int, object] = {}

    def series(self, t: int):
        """p-bar_{-t}(n) mod 2^64 for n < T, as a uint64 array."""
        np = self._np
        if t not in self._series:
            acc = np.zeros(self.T, dtype=np.uint64)
            for i, power in enumerate(self._powers):
                c = (-1) ** i * math.comb(t + i - 1, i) << i
                acc += power * np.uint64(c % (1 << 64))
            self._series[t] = acc
        return self._series[t]

    def valuation(self, t: int, m: int, j: int, n_max: int) -> int:
        """Minimal 2-adic valuation of p-bar_{-t}(m n + j), n <= n_max; 64
        when every value vanishes mod 2^64."""
        _require(m * n_max + j < self.T, "reference series too short")
        np = self._np
        stream = self.series(t)[j::m][:n_max + 1]
        nz = stream[stream != 0]
        if nz.size == 0:
            return 64
        lowest = nz & (~nz + np.uint64(1))
        return int(lowest.min()).bit_length() - 1
