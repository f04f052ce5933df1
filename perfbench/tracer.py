"""Span tracer for the qcongruence layers, and the traced CLI entry point.

Run as a script, it executes one CLI invocation with the public functions
of every layer wrapped in spans:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json OP_ID -- verify witness builtin --T 200

Each span is (name, start, end, parent, attributes, tax).  ``tax`` is the
time spent computing the attributes after the call returned; the parent's
self time excludes it.  Spans stay in memory and are written to SPANS.json
when the command ends.  The exit code is the CLI's.

``summarize`` turns the span files of a run into per-layer totals.  Importing
this module loads neither numpy nor qcongruence, so run.py can
summarize without loading the program it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def mul_products(la: int, lb: int, n: int) -> int:
    """Coefficient products of a dense product of operands of lengths la and
    lb truncated to n terms: sum over i < min(la, n) of min(lb, n - i)."""
    la, lb = min(la, n), min(lb, n)
    full = max(0, min(la, n - lb + 1))  # rows i where all lb terms fit
    return full * lb + (la - full) * n - (la - 1 + full) * (la - full) // 2


def inverse_products(n: int) -> int:
    """Coefficient products of a Newton inverse to n terms: each doubling
    step to precision p forms a*x and x*(2 - a*x), both truncated to p."""
    total, prec = 0, 1
    while prec < n:
        old, prec = prec, min(2 * prec, n)
        total += mul_products(prec, old, prec) + mul_products(old, prec, prec)
    return total


def _max_bits(s) -> int:
    cs = s._coeffs
    return max(max(cs), -min(cs)).bit_length()


def _mul_attrs(out, a, b):
    attrs = {"out_coeffs": len(out), "max_len": max(len(a), len(b)),
             "products": mul_products(len(a), len(b), len(out))}
    if a.ring.is_exact:
        attrs["max_bits"] = max(_max_bits(a), _max_bits(b))
    return attrs


def _inverse_attrs(out, a):
    return {"products": inverse_products(len(out))}


def _expand_attrs(out, eq, ring, T):
    return {"max_T": T}


def _extract_attrs(out, a, p):
    return {"coeffs_out": len(out)}


def _first_difference_attrs(out, a, b, through=None):
    lo = min(a.offset, b.offset)
    hi = min(a.trunc, b.trunc)
    if through is not None:
        hi = min(hi, through)
    return {"coeffs": hi - lo if out is None else out[0] - lo + 1}


# (module, function, span name, attribute function).  Every module-level
# name bound to the function is patched, so calls through imported names
# (``witness.expand``, ``congruences.overpartition_gf``) are traced too.
FUNCTIONS = (
    ("congruences", "check_claim", "congruences.check_claim", None),
    ("congruences", "observed_two_adic_valuation",
     "congruences.observed_two_adic_valuation", None),
    ("witness", "verify_witness", "witness.verify_witness", None),
    ("families", "verify_family_instance", "families.verify_family_instance", None),
    ("families", "verify_induction_step", "families.verify_induction_step", None),
    ("families", "verify_eq1", "families.verify_eq1", None),
    ("dissect", "extract", "dissect.extract", _extract_attrs),
    ("dissect", "report_from_comparison", "dissect.report_from_comparison", None),
    ("dissect", "dissection3_f1cubed", "dissect.checks", None),
    ("dissect", "dissection5", "dissect.checks", None),
    ("dissect", "dissection7", "dissect.checks", None),
    ("dissect", "ramanathan", "dissect.checks", None),
    ("dissect", "rogers_ramanujan", "dissect.checks", None),
    ("eta", "expand", "eta.expand", _expand_attrs),
    ("eta", "overpartition_gf", "eta.overpartition_gf", None),
    ("series", "euler_factor", "series.euler_factor", None),
    ("series", "first_difference", "series.first_difference",
     _first_difference_attrs),
)

# LaurentSeries methods; True appends the ring ("mod" or "exact") to the name.
METHODS = (
    ("mul", "series.mul", True, _mul_attrs),
    ("inverse", "series.inverse", True, _inverse_attrs),
    ("pow", "series.pow", False, None),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, attrs=None, by_ring: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if by_ring:
                label += ".exact" if args[0].ring.is_exact else ".mod"
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(out, *args, **kwargs)
                rec[5] = clock() - rec[2]
            return out

        return traced

    def install(self) -> list[str]:
        """Patch every layer function and method; returns the names of the
        ones this version of the package does not have."""
        import qcongruence.cli  # noqa: F401  (loads every layer module)
        from qcongruence.series import LaurentSeries

        modules = [m for n, m in list(sys.modules.items())
                   if n == "qcongruence" or n.startswith("qcongruence.")]
        missing = []
        for mod, attr, name, attrs in FUNCTIONS:
            fn = getattr(sys.modules.get(f"qcongruence.{mod}"), attr, None)
            if fn is None:
                missing.append(f"{mod}.{attr}")
                continue
            wrapped = self.wrap(fn, name, attrs)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
        for attr, name, by_ring, attrs in METHODS:
            fn = LaurentSeries.__dict__.get(attr)
            if fn is None:
                missing.append(f"LaurentSeries.{attr}")
                continue
            wrapped = self.wrap(fn, name, attrs, by_ring)
            for key, value in list(vars(LaurentSeries).items()):
                if value is fn:
                    setattr(LaurentSeries, key, wrapped)
        return missing


def _kernel(name: str) -> bool:
    return name.startswith(("series.mul.", "series.inverse."))


def summarize(span_files: list[dict]) -> dict:
    """Per-layer totals over the span files of several invocations.

    Returns {layer: {"calls", "s", "self_s", attribute sums and maxima}}
    plus the entries "_kernel_s" (time in outermost series.mul/inverse
    spans) and "_reused" (overpartition_gf calls with no nested expand).
    """
    layers: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    kernel_s = 0.0
    reused = 0
    for doc in span_files:
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        expanded = [False] * len(spans)
        in_kernel = [False] * len(spans)
        for i, (name, start, end, parent, attrs, tax) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end + tax - start
                in_kernel[i] = in_kernel[parent] or _kernel(spans[parent][0])
            if name == "eta.expand":
                p = parent
                while p >= 0 and spans[p][0] != "eta.overpartition_gf":
                    p = spans[p][3]
                if p >= 0:
                    expanded[p] = True
        for i, (name, start, end, parent, attrs, tax) in enumerate(spans):
            row = layers[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
            for key, value in (attrs or {}).items():
                if key.startswith("max_"):
                    row[key] = max(row.get(key, 0), value)
                else:
                    row[key] = row.get(key, 0) + value
            if _kernel(name) and not in_kernel[i]:
                kernel_s += end - start
            if name == "eta.overpartition_gf" and not expanded[i]:
                reused += 1
    out = {name: dict(row) for name, row in layers.items()}
    out["_kernel_s"] = kernel_s
    out["_reused"] = reused
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json OP_ID -- CLI-ARGS...", file=sys.stderr)
        return 2
    path, op_id, cli_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    missing = tracer.install()
    from qcongruence import cli

    try:
        return tracer.wrap(cli.main, "cli.main")(cli_argv)
    finally:
        with open(path, "w") as fh:
            json.dump({"op": op_id, "missing": missing, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
