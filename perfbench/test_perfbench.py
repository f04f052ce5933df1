"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random

import pytest

import checks
import run
import tracer


@pytest.fixture(scope="module")
def runner():
    return run.Runner()


def test_metrics_and_workloads_match_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == run.PER_LAYER


def test_product_counts_match_brute_force():
    rng = random.Random(0)
    for _ in range(500):
        la, lb, n = (rng.randint(1, 30) for _ in range(3))
        want = sum(min(lb, n - i) for i in range(min(la, n)))
        assert tracer.mul_products(la, lb, n) == want


def test_tail_needs_ten_samples_beyond():
    xs = [float(i) for i in range(25)]
    assert run.tail(xs) == (100.0 * 15 / 25, 14.0)
    assert run.tail(xs[:19]) == (100.0, 18.0)


def test_gauss_reference_matches_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    from qcongruence import mod2k, overpartition_gf

    ref = checks.GaussReference(600)
    for t in (1, 3, 17, 1999):
        series = overpartition_gf(t, mod2k(64), 600).coeffs()
        assert ref.series(t).tolist() == series


def _conjecture_output(runner, n_max=60):
    rc, *_, out, err = runner.cli(["verify", "conjecture", "3", "5", "--n-max", str(n_max),
                                   "--format", "records"])
    assert rc == 0, err
    return out


def test_checks_accept_the_real_output(runner):
    out = _conjecture_output(runner)
    ref = checks.GaussReference(8 * 60 + 8)
    assert checks.check_conjecture(out, [3, 5], 60, ref) == 28 * 61


@pytest.mark.parametrize("doctor", [
    # an all-zero stream reads as valuation 64
    lambda out: out.replace("j=7 claimed_k=5 observed_min_v2=6",
                            "j=7 claimed_k=5 observed_min_v2=64", 1),
    # a valuation inside [k, 64) that differs from the reference
    lambda out: out.replace("j=7 claimed_k=5 observed_min_v2=6",
                            "j=7 claimed_k=5 observed_min_v2=7", 1),
    lambda out: out.replace("verdict=holds counterexample_n=- counterexample_value=-",
                            "verdict=fails counterexample_n=4 counterexample_value=2", 1),
    lambda out: "\n".join(l for l in out.splitlines() if "j=3" not in l),
])
def test_checks_reject_doctored_output(runner, doctor):
    out = _conjecture_output(runner)
    doctored = doctor(out)
    assert doctored != out
    ref = checks.GaussReference(8 * 60 + 8)
    with pytest.raises(checks.CheckFailed):
        checks.check_conjecture(doctored, [3, 5], 60, ref)


def test_checks_reject_a_flipped_theorem_verdict(runner):
    rc, *_, out, _ = runner.cli(["verify", "theorems", "--n-max", "20", "--format", "records"])
    assert rc == 0
    assert checks.check_theorems(out, 20) == 24 * 21
    with pytest.raises(checks.CheckFailed):
        checks.check_theorems(out.replace("verdict=holds", "verdict=fails", 1), 20)
    with pytest.raises(checks.CheckFailed):
        checks.check_theorems(out, 21)


def test_family_check_requires_the_inf4_refutation():
    lines = [f'identity name="{name}" T=10 matched=true note="rhs"'
             for name in checks.FAMILY_NAMES]
    i = checks.FAMILY_NAMES.index(checks.REFUTED_FAMILY)
    with pytest.raises(checks.CheckFailed):
        checks.check_families("\n".join(lines))
    lines[i] = (f'identity name="{checks.REFUTED_FAMILY}" T=10 matched=false '
                f'note="{checks.REFUTED_NOTE}"')
    assert checks.check_families("\n".join(lines)) == 10 * len(lines)


def _tiny(q):
    """Every traced layer at small sizes except the family instances."""
    primes = run.PRIMES[:2]
    n = run._at(30, 60, q)
    return [
        run.Call(["verify", "conjecture", *map(str, primes), "--n-max", str(n)], 0,
                 lambda out, gauss: checks.check_conjecture(out, primes, n, gauss),
                 gauss_T=8 * n + 8),
        run.Call(["verify", "witness", "builtin", "--T", "30"], 0,
                 lambda out, gauss: checks.check_witness(out)),
        run.Call(["verify", "dissections", "--T", "150"], 0,
                 lambda out, gauss: checks.check_identities(out, checks.DISSECTION_COUNT, 150)),
        run.Call(["verify", "eq1", "--T", "40"], 0,
                 lambda out, gauss: checks.check_identities(out, 1, 40)),
    ]


def test_two_traced_runs_of_one_seed_count_the_same(runner, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", _tiny)
    monkeypatch.setattr(run, "run_probes", lambda runner, seed: ({}, None))
    counted = [name for name, (unit, _) in run.PER_LAYER.items()
               if unit in ("count", "coeffs", "bits") and not name.startswith("probe.")]
    counted.append("eta.overpartition_gf.reuse_ratio")
    results = []
    for _ in range(2):
        outcomes, failed, ok, metrics, units, lines = run.per_layer(runner, "tiny", 7, 0)
        assert failed == 0 and ok, run.describe(outcomes)
        results.append({name: metrics[name] for name in counted})
    assert results[0] == results[1]
    assert results[0]["series.mul.mod.calls"] > 0
    assert results[0]["series.mul.exact.calls"] > 0
    assert results[0]["eta.overpartition_gf.reuse_ratio"] > 0
