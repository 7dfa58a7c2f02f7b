"""penseq benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-spread-corr --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/NOTES.md for why each was chosen):
    sweep-sparse       sweep --preset sparse, 20 replicates (large n, keeps nothing)
    sweep-spread-corr  sweep of configs/sweep_spread_corr.json, 100 replicates
                       (tridiagonal noise, signal on every level, keeps ~1%)
    oracle-check       oracle-check --preset sparse (exhaustive subset oracle)

With --trace 0 the metrics are run_ref_s, coef_per_ref_s, setup_s and
peak_rss_mb (BENCHMARK.json "end_to_end"); run_s, the median wall time, and
coef_per_s are printed beside them.  With --trace 1 they are the per-layer metrics
("per_layer").  Every invocation's outputs are checked; fail_frac is
failed / attempted.  The last line of stdout is the JSON result.  This file
uses only the standard library: the program runs in child interpreters with
PYTHONPATH=src and one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SEED_POOL, WORKLOADS, cli_argv

HERE = Path(__file__).resolve().parent
HARNESS = HERE / "harness.py"

# Half of the set-up probes run before the workload and half after it, so
# that their median samples the host over the whole run.
SETUP_PROBES = 8
# A set-up probe imports nothing but penseq.cli, resolves the workload's
# config and prints the wall clock; the parent subtracts its spawn time.
PROBE = ("import sys, time\n"
         "import penseq.cli as cli\n"
         "cli.load_config(cli.build_parser().parse_args(sys.argv[1:]))\n"
         "print(repr(time.time()))\n")
# The whole run must end within 180 s; the child gets what is left of this
# after the first probes, less 2 s for each probe that follows it.
DEADLINE_S = 170.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def git_sha(root: Path):
    # The ceiling stops git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure_setup(workload: str, env: dict, root: Path, probes: int) -> list:
    """Seconds from spawning a fresh interpreter to penseq.cli imported and
    the workload's config resolved, once per probe."""
    argv = cli_argv(workload, SEED_POOL[0], Path("."))
    times = []
    for _ in range(probes):
        spawned = time.time()
        done = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) - spawned)
    return times


def run_child(args, env: dict, root: Path, out_root: Path, budget: float) -> dict:
    cmd = [sys.executable, str(HARNESS), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-root", str(out_root)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload did not finish within {budget:.0f} s")
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "penseq" / "cli.py").is_file() or not spec_path.is_file():
        print("run from the root of a penseq checkout (src/penseq and BENCHMARK.json "
              "not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    out_root = root / ".perfbench_out" / args.workload
    out_root.mkdir(parents=True, exist_ok=True)
    env = child_env(root)

    try:
        half = 0 if args.trace else SETUP_PROBES // 2
        setup = measure_setup(args.workload, env, root, half)
        report = run_child(args, env, root, out_root,
                           DEADLINE_S - half * 2.0 - (time.monotonic() - started))
        setup += measure_setup(args.workload, env, root, half)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    expected = root / "src" / "penseq" / "__init__.py"
    if Path(report["penseq_file"]).resolve() != expected.resolve():
        print(f"benchmarked {report['penseq_file']}, not {expected}", file=sys.stderr)
        return 1

    attempted, failed = report["attempted"], report["failed"]
    n = report["invocations"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} invocations attempted, {failed} failed, "
          f"{report['outputs_identical']} byte-identical to the reference")
    if args.trace:
        values = report["layers"]
        entries = spec["per_layer"]
        print(f"  per-layer medians over {report['traced_invocations']} traced "
              f"invocations; overhead from {n} untraced")
    else:
        values = {"run_ref_s": report["run_ref_s"],
                  "coef_per_ref_s": report["coefs"] / report["run_ref_s"],
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": report["peak_rss_mb"]}
        entries = spec["end_to_end"]
        print(f"  run_ref_s: median of {n} invocations at the reference host speed "
              f"(perfbench/speed.py); setup_s: median of {len(setup)} fresh "
              f"interpreters; coef_per_ref_s: {report['coefs']} coefficients per "
              f"invocation")
        print(f"  {'run_s (wall, not gated)':<42} {report['run_s']:.6g} s")
        print(f"  {'coef_per_s (wall, not gated)':<42} "
              f"{report['coefs'] / report['run_s']:.6g} 1/s")
    metrics = {}
    for entry in entries:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"  {entry['name']:<42} {values[entry['name']]:.6g} {entry['unit']}")
    print(f"  {'fail_frac':<42} {failed / attempted:.6g}")
    environment = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                   "machine": platform.machine(), "git_sha": git_sha(root),
                   **report["versions"]}
    print(f"  environment: {json.dumps(environment, sort_keys=True)}")
    result = {"correct": failed == 0 and not report["run_errors"],
              "attempted": attempted, "failed": failed, "metrics": metrics}
    (out_root / f"result_trace{args.trace}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "environment": environment, "fail_frac": failed / attempted,
         "setup_samples": setup, "run_s_samples": report["run_s_samples"],
         "run_ref_s_samples": report["run_ref_s_samples"], **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
