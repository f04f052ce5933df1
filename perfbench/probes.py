"""Fixed-size kernel probes through the public qcongruence API.

    PYTHONPATH=src python3 perfbench/probes.py --seed 1

Times, in this process, LaurentSeries.mul mod 2^64 at 4096 and 16384 terms,
exact mul at 1600 and 3200 terms (random signed EXACT_BITS-bit operands),
the mod-2^64 inverse at 16384 terms, and expand(f2^5 * f1^-10) mod 2^64 at
T = 16384 and exact at T = 2000.  Each
probe reports the median of REPEATS runs as ``probe.<name>.s`` and its
dense-equivalent coefficient products as ``probe.<name>.products`` (for
expand, summed over the products and inverses a traced run performs).

Each probe's result is checked: products against an independent
computation, the inverse by multiplying back, and the two expand rings
against each other.  Prints one JSON object: {"metrics": ..., "error": ...}.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

import numpy as np

import tracer
from qcongruence import EXACT, LaurentSeries, expand, mod2k, parse_eta_quotient

REPEATS = 3
QUOTIENT = "f2^5 * f1^-10"
MOD64 = mod2k(64)
EXACT_BITS = 256  # witness products run from small coefficients up to about 580 bits


def timed(fn) -> tuple[float, object]:
    """Median wall seconds of REPEATS calls, and the last result."""
    walls = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls), result


class ProbeFailed(Exception):
    """A probe computed a wrong result."""


def _require(cond: bool, message: str):
    if not cond:
        raise ProbeFailed(message)


def run(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    metrics = {}

    def record(name, seconds, products):
        metrics[f"probe.{name}.s"] = seconds
        metrics[f"probe.{name}.products"] = products

    for n in (4096, 16384):
        a, b = (LaurentSeries(0, rng.integers(0, 2 ** 64 - 1, n, dtype=np.uint64,
                                              endpoint=True), MOD64) for _ in range(2))
        s, prod = timed(lambda: a.mul(b))
        ref = np.convolve(a._coeffs[:256], b._coeffs[:256])[:256]
        _require(np.array_equal(prod._coeffs[:256], ref), f"mul mod {n}: wrong product")
        record(f"mul.mod.{n}", s, tracer.mul_products(n, n, n))

    bits = random.Random(seed)
    for n in (1600, 3200):
        a, b = (LaurentSeries(0, [bits.getrandbits(EXACT_BITS) * bits.choice((1, -1))
                                  for _ in range(n)], EXACT) for _ in range(2))
        s, prod = timed(lambda: a.mul(b))
        x, y = a.coeffs(), b.coeffs()
        want = [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(64)]
        _require(prod.coeffs()[:64] == want, f"mul exact {n}: wrong product")
        record(f"mul.exact.{n}", s, tracer.mul_products(n, n, n))

    n = 16384
    coeffs = rng.integers(0, 2 ** 64 - 1, n, dtype=np.uint64, endpoint=True)
    coeffs[0] |= np.uint64(1)
    a = LaurentSeries(0, coeffs, MOD64)
    s, inv = timed(a.inverse)
    _require(a.mul(inv) == LaurentSeries.one(MOD64, n), "inverse mod: a * a^-1 != 1")
    record(f"inverse.mod.{n}", s, tracer.inverse_products(n))

    eq = parse_eta_quotient(QUOTIENT)
    expands = {"expand.mod.16384": (MOD64, 16384), "expand.exact.2000": (EXACT, 2000)}
    results = {}
    for name, (ring, T) in expands.items():
        s, results[name] = timed(lambda: expand(eq, ring, T))
        metrics[f"probe.{name}.s"] = s
    _require(results["expand.mod.16384"].truncate(2000)
             == results["expand.exact.2000"].to_ring(MOD64),
             "expand: mod 2^64 and exact disagree below q^2000")

    # Counted last: the tracer stays installed for the rest of the process.
    t = tracer.Tracer()
    t.install()
    for name, (ring, T) in expands.items():
        t.spans.clear()
        expand(eq, ring, T)
        summary = tracer.summarize([{"spans": t.spans}])
        metrics[f"probe.{name}.products"] = sum(
            row["products"] for layer, row in summary.items()
            if layer.startswith(("series.mul.", "series.inverse.")))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        metrics, error = run(args.seed), None
    except ProbeFailed as exc:
        metrics, error = {}, str(exc)
    print(json.dumps({"metrics": metrics, "error": error}))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
