"""End-to-end and per-layer benchmark for the qcongruence command line.

    python3 perfbench/run.py --workload theorems --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is the ``src/`` tree
next to this directory and needs no build step.  The benchmark is a closed
loop with one client: it runs one CLI invocation at a time, each in a fresh
child process with BLAS/OpenMP threads pinned to 1, and starts the next only
when the previous one has exited.  Inputs come from ``--seed``.

Operation sizes follow a seeded golden-ratio sequence over the workload's
size range; a run stops at the operation boundary nearest to
``--seconds``.  Each operation is
preceded by a trivial invocation (set-up time) and by the fixed reference
task ``reference.py``; operation times are reported in multiples of the
reference time, which cancels the drift of a shared machine's speed.
Every output is checked after the timed loop (see ``checks.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
TRACE_OPS operations (a cycle) traced (``tracer.py``) and untraced,
alternately, in whole cycles while time remains, and prints per-layer
totals per cycle, the tracing overhead and
the fixed-size kernel probes (``probes.py``).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

Exit codes: 0 with a result printed, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TRACE_OPS = 3
TRIVIAL = ["expand", "f1^1", "--T", "1"]
LOOP_LIMIT_S = 120.0   # no operation starts after this, whatever --seconds says
CHILD_TIMEOUT_S = 150.0

PHI = (5 ** 0.5 - 1) / 2


def _binary_weight(p: int) -> int:
    """Squarings plus multiplications binary powering spends on exponent p."""
    return p.bit_length() + bin(p).count("1")


# Conjecture primes ordered by binary weight, so a quantile runs from the
# cheapest expansion to the costliest.
PRIMES = sorted((p for p in range(3, 2001) if all(p % d for d in range(2, int(p ** 0.5) + 1))),
                key=lambda p: (_binary_weight(p), p))

# Times are in "ref", multiples of the reference task's mean time in the
# same run (reference.py).  The speed of a shared VM drifts; on the 2-core
# Xeon VM this was built on, by up to 1.7x within minutes (README.md).  That
# drift cancels in the ratio.  The seconds behind every ratio are printed in
# the report.
END_TO_END = {
    "op_ref.p50": "ref",
    "op_cpu_ref.p50": "ref",
    "coeffs_per_ref": "coeffs/ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Call:
    """One CLI invocation, its expected exit code and its output check.

    ``check(stdout, gauss)`` returns the verified coefficients or raises
    checks.CheckFailed; ``gauss`` is the checks.GaussReference of length
    ``gauss_T``, built once for the largest length any check needs."""

    argv: list[str]
    rc: int
    check: Callable[[str, object], int]
    gauss_T: int = 0


@dataclass
class Outcome:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    outputs: list[tuple[Call, int, str, str]] = field(default_factory=list)
    work: int = 0
    error: str | None = None


def _at(lo: int, hi: int, q: float) -> int:
    """The size at quantile q of [lo, hi]."""
    return int(lo + (hi - lo) * q)


# Each generator turns a quantile q in [0, 1) into one operation.  Where an
# operation can hold two sizes it takes them at q and 1 - q, a small one
# with a large one, so that operations cost about the same and the median
# rests on every sample of a run, not on the few near the middle size.

def _theorems(q):
    # 1024..1535 share the package's 12288-term expansion bucket; below 1024
    # an operation costs a third as much, which made per-run medians jump
    # with the share of small N a run happened to draw
    n = _at(1024, 1535, q)
    return [Call(["verify", "theorems", "--n-max", str(n)], 0,
                 lambda out, gauss: checks.check_theorems(out, n))]


def _conjecture(q):
    i = int(q * len(PRIMES))
    j = len(PRIMES) - 1 - i
    primes = [PRIMES[i], PRIMES[j if j != i else i - 1]]
    n = _at(500, 1000, q)
    return [Call(["verify", "conjecture", *map(str, primes), "--n-max", str(n)], 0,
                 lambda out, gauss: checks.check_conjecture(out, primes, n, gauss),
                 gauss_T=8 * n + 8)]


def _witness(q):
    return [Call(["verify", "witness", "builtin", "--T", str(T)], 0,
                 lambda out, gauss: checks.check_witness(out))
            for T in (_at(200, 400, q), _at(200, 400, 1 - q))]


def _identities(q):
    D = _at(2000, 4000, q)
    E = _at(800, 1600, 1 - q)
    return [
        # exit 1: the catalogued inf4 line is refuted by design
        Call(["verify", "families"], 1, lambda out, gauss: checks.check_families(out)),
        Call(["verify", "dissections", "--T", str(D)], 0,
             lambda out, gauss: checks.check_identities(out, checks.DISSECTION_COUNT, D)),
        Call(["verify", "eq1", "--T", str(E)], 0,
             lambda out, gauss: checks.check_identities(out, 1, E)),
    ]


WORKLOADS = {
    "theorems": _theorems,
    "conjecture": _conjecture,
    "witness": _witness,
    "identities": _identities,
}


def make_op(workload: str, seed: int, index: int) -> list[Call]:
    """The index-th operation: quantile (u + index * PHI) mod 1, u seeded.

    This golden-ratio sequence spreads any number of operations evenly over
    [0, 1), so every run covers its whole size range and the per-run
    medians barely depend on the seed."""
    u = random.Random(f"{workload}/{seed}").random()
    return WORKLOADS[workload]((u + index * PHI) % 1.0)


class Runner:
    """Spawns CLI children and measures each with os.wait4."""

    def __init__(self):
        self.out = ROOT / ".perfbench_out"
        self.out.mkdir(exist_ok=True)
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   NUMEXPR_NUM_THREADS="1")
        self.env = env
        self._spans = 0

    def spawn(self, argv: list[str]) -> tuple[int, float, float, float, str, str]:
        """(exit code, wall s, user+sys s, peak RSS MB, stdout, stderr)."""
        out_path, err_path = self.out / "stdout", self.out / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def cli(self, args: list[str]):
        return self.spawn([sys.executable, "-m", "qcongruence.cli", *args])

    def run_op(self, op: list[Call], spans: list | None = None) -> Outcome:
        """Run an operation's invocations in order; with ``spans`` each runs
        under the tracer and its span file is appended to the list."""
        res = Outcome()
        for call in op:
            args = [*call.argv, "--format", "records"]
            if spans is None:
                rc, wall, cpu, rss, out, err = self.cli(args)
            else:
                path = self.out / f"spans-{self._spans}.json"
                self._spans += 1
                rc, wall, cpu, rss, out, err = self.spawn(
                    [sys.executable, str(HERE / "tracer.py"), str(path),
                     str(self._spans), "--", *args])
                if path.exists():
                    spans.append(json.loads(path.read_text()))
                    path.unlink()
            res.wall += wall
            res.cpu += cpu
            res.rss_mb = max(res.rss_mb, rss)
            res.outputs.append((call, rc, out, err))
        return res


def check_outcomes(outcomes: list[Outcome]) -> int:
    """Check every output; sets each outcome's work or error and returns the
    number of failed operations.  Runs after the timed loop."""
    gauss_T = max((c.gauss_T for o in outcomes for c, *_ in o.outputs), default=0)
    gauss = checks.GaussReference(gauss_T) if gauss_T else None
    failed = 0
    for o in outcomes:
        try:
            for call, rc, out, err in o.outputs:
                cmd = " ".join(call.argv)
                if rc != call.rc:
                    last = err.strip().splitlines()[-1:] or [""]
                    raise checks.CheckFailed(f"{cmd}: exit {rc}, want {call.rc} {last[0]}")
                try:
                    o.work += call.check(out, gauss)
                except checks.CheckFailed as exc:
                    raise checks.CheckFailed(f"{cmd}: {exc}") from None
        except checks.CheckFailed as exc:
            o.error = str(exc)
            o.work = 0
            failed += 1
    return failed


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at least
    ten samples beyond it, or the maximum (percentile 100) when that
    percentile would fall below the median, i.e. under 20 samples."""
    xs = sorted(values)
    i = len(xs) - 11
    if len(xs) >= 20:
        return 100.0 * (i + 1) / len(xs), xs[i]
    return 100.0, xs[-1]


def run_ops(seconds: float, run) -> int:
    """Call run(index) for index = 0, 1, ..., stopping at the operation
    boundary nearest to ``seconds`` (at least one).  Returns the count."""
    start = time.perf_counter()
    n = 0
    while True:
        run(n)
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n / 2 >= seconds or elapsed >= LOOP_LIMIT_S:
            return n


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float):
    runner.cli(TRIVIAL)  # warm-up: writes the bytecode cache once
    setup: list[float] = []
    ref: list[tuple[float, float]] = []
    aux_ok = True
    outcomes: list[Outcome] = []

    def run(index):
        nonlocal aux_ok
        # set-up and reference samples spread over the run, each next to the
        # operation it is compared with
        rc, wall, _, _, out, _ = runner.cli(TRIVIAL)
        setup.append(wall)
        aux_ok = aux_ok and rc == 0 and out.splitlines()[-1:] == ["q^0: 1"]
        rc, wall, cpu, _, out, _ = runner.spawn([sys.executable, str(HERE / "reference.py")])
        ref.append((wall, cpu))
        aux_ok = aux_ok and rc == 0 and out.strip().isdigit()
        outcomes.append(runner.run_op(make_op(workload, seed, index)))

    run_ops(seconds, run)
    failed = check_outcomes(outcomes)
    walls = [o.wall for o in outcomes]
    pct, tail_s = tail(walls)
    # the mean, not the median: a 0.3 s reference run sees the machine in
    # its fast or its slow state, and the mean weighs them as they occurred
    ref_s = statistics.fmean(w for w, _ in ref)
    ref_cpu_s = statistics.fmean(c for _, c in ref)
    seconds_view = {
        "op_s.p50": statistics.median(walls),
        "op_s.tail": tail_s,
        "op_cpu_s.p50": statistics.median(o.cpu for o in outcomes),
        "coeffs_per_s": sum(o.work for o in outcomes) / sum(walls),
        "ref_s": ref_s,
        "ref_cpu_s": ref_cpu_s,
    }
    metrics = {
        "op_ref.p50": seconds_view["op_s.p50"] / ref_s,
        "op_cpu_ref.p50": seconds_view["op_cpu_s.p50"] / ref_cpu_s,
        "coeffs_per_ref": seconds_view["coeffs_per_s"] * ref_s,
        "peak_rss_mb": statistics.median(o.rss_mb for o in outcomes),
        "setup_s": statistics.median(setup),
    }
    lines = [f"samples={len(outcomes)} setup_runs={len(setup)} "
             f"reference_runs={len(ref)} tail=p{pct:.1f}"
             + (" (max: under 20 samples)" if len(walls) < 20 else ""),
             f"fail_ratio={failed}/{len(outcomes)}={failed / len(outcomes):g}",
             "in seconds: " + " ".join(f"{k}={v:.6g}" for k, v in seconds_view.items())]
    if not aux_ok:
        lines.append("a set-up or reference invocation failed")
    return outcomes, failed, aux_ok, metrics, END_TO_END, lines


# Per-layer metrics: name -> (unit, better).  A name "<layer>.<key>" reads
# key from the layer's totals; the others are derived in layer_metrics.
PER_LAYER = {
    "cli.main.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "congruences.check_claim.calls": ("count", "lower"),
    "congruences.check_claim.self_s": ("s", "lower"),
    "congruences.observed_two_adic_valuation.calls": ("count", "lower"),
    "congruences.observed_two_adic_valuation.self_s": ("s", "lower"),
    "witness.verify_witness.calls": ("count", "lower"),
    "witness.verify_witness.self_s": ("s", "lower"),
    "families.verify_family_instance.self_s": ("s", "lower"),
    "families.verify_induction_step.self_s": ("s", "lower"),
    "families.verify_eq1.self_s": ("s", "lower"),
    "dissect.extract.calls": ("count", "lower"),
    "dissect.extract.s": ("s", "lower"),
    "dissect.extract.coeffs_out": ("coeffs", "lower"),
    "dissect.report_from_comparison.self_s": ("s", "lower"),
    "dissect.checks.self_s": ("s", "lower"),
    "eta.expand.calls": ("count", "lower"),
    "eta.expand.self_s": ("s", "lower"),
    "eta.expand.max_T": ("coeffs", "lower"),
    "eta.overpartition_gf.calls": ("count", "lower"),
    "eta.overpartition_gf.s": ("s", "lower"),
    "eta.overpartition_gf.reuse_ratio": ("ratio", "higher"),
    "series.mul.mod.calls": ("count", "lower"),
    "series.mul.mod.s": ("s", "lower"),
    "series.mul.mod.out_coeffs": ("coeffs", "lower"),
    "series.mul.mod.max_len": ("coeffs", "lower"),
    "series.inverse.mod.calls": ("count", "lower"),
    "series.inverse.mod.s": ("s", "lower"),
    "series.mul.exact.calls": ("count", "lower"),
    "series.mul.exact.s": ("s", "lower"),
    "series.mul.exact.out_coeffs": ("coeffs", "lower"),
    "series.mul.exact.max_bits": ("bits", "lower"),
    "series.inverse.exact.calls": ("count", "lower"),
    "series.inverse.exact.s": ("s", "lower"),
    "series.pow.self_s": ("s", "lower"),
    "series.euler_factor.self_s": ("s", "lower"),
    "series.first_difference.calls": ("count", "lower"),
    "series.first_difference.s": ("s", "lower"),
    "series.first_difference.coeffs": ("coeffs", "lower"),
    "series.kernel_share": ("ratio", "lower"),
    "trace.overhead": ("ratio", "lower"),
}
PROBES = ("mul.mod.4096", "mul.mod.16384", "mul.exact.1600", "mul.exact.3200",
          "inverse.mod.16384", "expand.mod.16384", "expand.exact.2000")
for _p in PROBES:
    PER_LAYER[f"probe.{_p}.s"] = ("s", "lower")
    PER_LAYER[f"probe.{_p}.products"] = ("count", "lower")


_DERIVED = ("series.kernel_share", "eta.overpartition_gf.reuse_ratio")


def layer_metrics(summary: dict, cycles: int) -> dict[str, float]:
    """Per-cycle values of the span-derived PER_LAYER metrics."""
    out = {}
    for name in PER_LAYER:
        if name.startswith(("probe.", "trace.")) or name in _DERIVED:
            continue
        layer, _, key = name.rpartition(".")
        if name == "cli.self_s":
            layer = "cli.main"
        value = summary.get(layer, {}).get(key, 0)
        out[name] = value if key.startswith("max_") else value / cycles
    main_s = summary.get("cli.main", {}).get("s", 0.0)
    out["series.kernel_share"] = summary["_kernel_s"] / main_s if main_s else 0.0
    gf_calls = summary.get("eta.overpartition_gf", {}).get("calls", 0)
    out["eta.overpartition_gf.reuse_ratio"] = summary["_reused"] / gf_calls if gf_calls else 0.0
    return out


def run_probes(runner: Runner, seed: int) -> tuple[dict, str | None]:
    rc, wall, _, _, out, err = runner.spawn(
        [sys.executable, str(HERE / "probes.py"), "--seed", str(seed)])
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {}, f"probes: exit {rc}, no result: {err.strip()[-300:]}"
    if rc != 0 or result.get("error"):
        return result.get("metrics", {}), f"probes: exit {rc}: {result.get('error')}"
    return result["metrics"], None


def per_layer(runner: Runner, workload: str, seed: int, seconds: float):
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    spans: list[dict] = []

    cycle = [make_op(workload, seed, i) for i in range(TRACE_OPS)]

    def run(index):
        pair = [(plain, None), (traced, spans)]
        if index % 2:  # alternate which side runs first
            pair.reverse()
        for sink, where in pair:
            sink.append(runner.run_op(cycle[index % TRACE_OPS], where))

    # whole cycles only, so that per-cycle counts repeat exactly
    cycles = -(-run_ops(seconds, run) // TRACE_OPS)
    for index in range(len(plain), cycles * TRACE_OPS):
        run(index)
    failed = check_outcomes(plain + traced)
    summary = tracer.summarize(spans)
    metrics = layer_metrics(summary, cycles)
    metrics["trace.overhead"] = (statistics.median(o.wall for o in traced)
                                 / statistics.median(o.wall for o in plain))
    probes, probe_error = run_probes(runner, seed)
    for p in PROBES:
        for key in ("s", "products"):
            metrics[f"probe.{p}.{key}"] = probes.get(f"probe.{p}.{key}", 0)
    missing = sorted({m for doc in spans for m in doc.get("missing", [])})
    lines = [f"traced cycles={cycles} ops/cycle={TRACE_OPS} "
             f"samples={len(traced)} traced + {len(plain)} untraced; "
             f"per-layer values are per cycle"]
    if missing:
        lines.append(f"untraced (absent from the package): {', '.join(missing)}")
    if probe_error:
        lines.append(probe_error)
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    return plain + traced, failed, probe_error is None, metrics, units, lines


def machine_line() -> str:
    import numpy  # only now: run.py stays small while children run

    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} platform={platform.platform()}")


def describe(outcomes: list[Outcome]) -> list[str]:
    lines = []
    for o in outcomes:
        cmd = " ; ".join(" ".join(c.argv) for c, *_ in o.outputs)
        status = "ok" if o.error is None else f"FAILED {o.error}"
        lines.append(f"op {o.wall:.3f}s cpu={o.cpu:.3f}s rss={o.rss_mb:.1f}MB "
                     f"work={o.work} [{cmd}] {status}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qcongruence" / "cli.py").is_file():
        print(f"error: no qcongruence source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated run stops its child too (see Runner.spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    runner = Runner()
    measure = per_layer if args.trace else end_to_end
    outcomes, failed, aux_ok, metrics, units, lines = measure(
        runner, args.workload, args.seed, args.seconds)

    print(f"# {machine_line()}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} loop=closed clients=1 threads/child=1")
    for line in lines + describe(outcomes):
        print(f"# {line}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and aux_ok,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
