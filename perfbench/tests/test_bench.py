"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import speed  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from penseq import HyperParams, SignalSpec, make_signal  # noqa: E402
from penseq.cli import PRESETS, ExperimentConfig  # noqa: E402

# Self times telescope to the root span; the invocation's wall time adds only
# the outermost wrapper's own overhead, well inside this fraction.
SELF_SUM_TOLERANCE = 0.01


@pytest.fixture
def scratch():
    path = ROOT / ".perfbench_out" / "tests"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _truth_size(doc: dict, epsilon: float) -> int:
    sig = doc["signal"]
    spec = SignalSpec(kind=sig["kind"], gamma=HyperParams.from_dict(doc["gamma"]),
                      radius=doc["radius"], epsilon=epsilon,
                      placement=sig.get("placement", "even"))
    return make_signal(spec).size


def test_spread_corr_config_is_valid():
    doc = json.loads(workloads.SPREAD_CORR_CONFIG.read_text())
    cfg = ExperimentConfig.from_dict(doc)
    dense = ExperimentConfig.from_dict(PRESETS["dense"])
    assert cfg.gamma == dense.gamma and cfg.epsilons == dense.epsilons
    assert cfg.signal_kind == "besov_spread"
    assert (cfg.noise_covariance, cfg.noise_rho) == ("tridiagonal", 0.25)
    # the penalty must dominate the noise eigenvalues: xi1 >= 1 + 2|rho|
    assert cfg.penalty.xi1 >= cfg.noise_spec(cfg.epsilons[0]).xi1


def test_coefficient_counts_follow_from_inputs():
    sparse = PRESETS["sparse"]
    spread = json.loads(workloads.SPREAD_CORR_CONFIG.read_text())
    expect = {
        "sweep-sparse": workloads.SPARSE_REPLICATES
        * sum(_truth_size(sparse, e) for e in sparse["epsilons"]),
        "sweep-spread-corr": workloads.SPREAD_REPLICATES
        * sum(_truth_size(spread, e) for e in spread["epsilons"]),
        "oracle-check": 1000 * sum(range(1, 13))
        + sparse["replicates"] * _truth_size(sparse, sparse["epsilon"]),
    }
    assert {n: w.coefs for n, w in workloads.WORKLOADS.items()} == expect


def test_tracer_patches_every_binding_and_restores_it():
    targets = {name: tracer_mod.bindings(module, path)
               for name, module, path in tracer_mod.TARGETS}
    originals = {(id(owner), attr): getattr(owner, attr)
                 for found in targets.values() for owner, attr in found}
    select_k_owners = {getattr(owner, "__name__", "") for owner, _ in
                       targets["estimator.select_k"]}
    assert {"penseq", "penseq.estimator", "penseq.cli"} <= select_k_owners

    t = tracer_mod.Tracer()
    with t:
        for found in targets.values():
            for owner, attr in found:
                assert getattr(getattr(owner, attr), tracer_mod.MARKER, False)
    for found in targets.values():
        for owner, attr in found:
            assert getattr(owner, attr) is originals[(id(owner), attr)]
    for name, mod in list(sys.modules.items()):
        if name == "penseq" or name.startswith("penseq."):
            for value in list(vars(mod).values()) + list(
                    vars(getattr(mod, "MultiresSequence", object)).values()):
                assert not getattr(value, tracer_mod.MARKER, False), (name, value)


def test_self_times_telescope():
    spans = tracer_mod.Spans()
    for row in [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("b", 2.0, 3.0, 1),
                ("rates.x", 5.0, 9.0, 0), ("rates.y", 6.0, 7.0, 3)]:
        spans.append(*row)
    per = tracer_mod.self_times(spans)
    assert per["a"] == [1, 3.0, 10.0]
    assert per["b"] == [2, 3.0, 3.0]
    assert sum(v[1] for v in per.values()) == 10.0
    assert tracer_mod.group_total(spans, "rates.") == 4.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_invocation_matches_untraced(name, scratch):
    reference = harness.load_reference()
    cli_seed = workloads.SEED_POOL[5]
    plain = harness.invoke(name, cli_seed, scratch / "plain", reference)
    t = tracer_mod.Tracer()
    with t:
        traced = harness.invoke(name, cli_seed, scratch / "traced", reference, t)
    assert plain.errors == [] and traced.errors == []
    assert plain.files == traced.files
    assert plain.identical and traced.identical

    layers = traced.layers
    assert abs(layers["self_sum_s"] - traced.seconds) <= SELF_SUM_TOLERANCE * traced.seconds
    assert layers["estimator.select_k.coefs"] == workloads.WORKLOADS[name].coefs
    if name == "oracle-check":
        assert layers["estimator.subset_oracle.calls"] == 12_000
        assert layers["penalty.m_prime.self_s"] > 0
    else:
        assert layers["simulate.normals"] == workloads.WORKLOADS[name].coefs
        assert layers["estimator.subset_oracle.calls"] == 0
    kept = layers["estimator.select_k.kept"]
    assert (kept > 0) == (name == "sweep-spread-corr")


def test_speed_probe_samples_the_invocation_and_restores_the_alarm(scratch):
    reference = harness.load_reference()
    name = "sweep-spread-corr"
    cli_seed = workloads.SEED_POOL[7]
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(workloads.WORKLOADS[name].snippet)
    probed = harness.invoke(name, cli_seed, scratch / "probed", reference, probe=probe)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    plain = harness.invoke(name, cli_seed, scratch / "plain", reference)
    assert probed.errors == [] and probed.files == plain.files
    # one sample before the invocation, then one per period while it ran
    # (fewer when a tick waits for a long numpy call)
    assert len(probe.samples) >= 1 + probed.seconds / speed.PERIOD_S / 2
    assert 0 < probe.in_handler < 0.1 * probed.seconds
    ref_s = probe.reference_seconds(probed.seconds)
    assert math.isfinite(ref_s) and ref_s > 0


def test_check_rejects_a_wrong_mean():
    reference = harness.load_reference()
    name = "sweep-spread-corr"
    sd = harness.mc_spread(reference[name])[0]
    ref = reference[name][str(workloads.SEED_POOL[0])]
    assert harness.check(name, ref, ref, sd) == []
    wrong = list(ref["mean_sse"])
    wrong[3] *= 1.05  # the tolerance at this point is about 2%
    assert harness.check(name, ref | {"mean_sse": wrong}, ref, sd)
    assert harness.check(name, ref | {"replicates": [25] * 7}, ref, sd)
    oracle = reference["oracle-check"][str(workloads.SEED_POOL[0])]
    bad = json.loads(json.dumps(oracle))
    bad["equivalence"]["mismatches"] = 1
    assert harness.check("oracle-check", bad, oracle, None)


def test_reported_stderr_does_not_widen_the_tolerance():
    reference = harness.load_reference()
    name = "sweep-spread-corr"
    recorded = reference[name]
    sd = harness.mc_spread(recorded)[0]
    rows = list(recorded.values())
    assert harness.stderr_errors(rows, recorded) == []
    # what a run of a quarter of the replicates would report: 4x the
    # variance, hence 2x the stderr, and a mean off by a few stderr
    inflated = [r | {"stderr": [2 * se for se in r["stderr"]],
                     "mean_sse": [m + 2 * se for m, se in zip(r["mean_sse"], r["stderr"])]}
                for r in rows]
    assert harness.stderr_errors(inflated, recorded)
    # a larger reported stderr leaves the mean tolerance as it was
    ref = rows[0]
    shifted = list(ref["mean_sse"])
    shifted[3] += 7 * math.sqrt(2.0) * sd[3]
    for factor in (1, 4):
        row = ref | {"mean_sse": shifted, "stderr": [factor * se for se in ref["stderr"]]}
        assert harness.check(name, row, ref, sd)
    # sweep-sparse keeps nothing: its stderr is rounding noise and not gated
    sparse = reference["sweep-sparse"]
    assert harness.stderr_errors(
        [r | {"stderr": [0.0] * 7} for r in sparse.values()], sparse) == []


def test_run_refuses_a_directory_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    shutil.copytree(BENCH, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle-check",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
