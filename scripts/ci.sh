#!/usr/bin/env bash
# The CI checks, runnable offline from the repository root:
#   bash scripts/ci.sh
# tier-1 tests, the benchmark's own tests, and a short run of each benchmark
# workload, untraced and traced, checked against perfbench/reference.json.
set -e
cd "$(dirname "$0")/.."

# --durations shows where the tier-1 time goes; it adds output only
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors --durations=15
# the noise tests again under the OpenBLAS kernels of an x86 CPU without
# AVX-512: their references are recorded bytes and the port, never a live
# LAPACK call, so they must pass on any kernel.  The golden tests stay out of
# this step: numpy's dot and np.polyfit still move their last digit (ROADMAP
# item 21)
OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python -m pytest -q tests/test_simulate.py
# the size of src/ and the peak RSS of one sparse sweep in a fresh interpreter,
# which the ROADMAP tracks; printed only, not checked
wc -l src/penseq/*.py | tail -1
# microseconds per call of the estimator's layers, the source of ROADMAP's
# per-call figures; printed only, not checked
PYTHONPATH=src python3 scripts/layers.py
rss_dir=$(mktemp -d)
PYTHONPATH=src python3 -c 'import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "penseq.cli", "sweep", "--preset", "sparse",
                "--replicates", "20", "--out", sys.argv[1]], check=True)
mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS of sweep --preset sparse --replicates 20: {mb:.1f} MB")' "$rss_dir"
rm -rf "$rss_dir"
# the benchmark's own tests read ExperimentConfig; the tier-1 command collects tests/ only
PYTHONPATH=src python -m pytest -q perfbench/tests

# a short run of each workload; every invocation must match perfbench/reference.json.
# Each run's result line is printed first, so the log shows peak_rss_mb and run_ref_s
for w in sweep-sparse sweep-spread-corr oracle-check; do
  result=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 3 --trace 0 | tail -n 1)
  echo "$result"
  echo "$result" \
    | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)' \
    || { echo "workload $w does not match perfbench/reference.json"; exit 1; }
done

# a short traced run of each workload: every invocation's outputs must be
# byte-identical to perfbench/reference.json (a mean_sse within tolerance is
# not enough), and the tracer must resolve every target it wraps
for w in sweep-sparse sweep-spread-corr oracle-check; do
  result=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 3 --trace 1 | tail -n 1)
  echo "$result"
  echo "$result" \
    | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["metrics"]["cli.outputs_identical"]["value"] == r["attempted"] else 1)' \
    || { echo "workload $w is not byte-identical to perfbench/reference.json"; exit 1; }
done
# outputs must not depend on the CPU count: a Monte Carlo run over 2^15 or
# more coefficients shares its replicates between threads when two CPUs are
# free, each thread with its own generator, and pinned to one CPU it runs on
# one thread.  The second seed has two 32-bit words
if command -v taskset > /dev/null; then
  cpus=$(mktemp -d)
  for seed in 5 4294967301; do
    PYTHONPATH=src python3 -m penseq.cli sweep --preset sparse --replicates 4 --seed "$seed" \
      --out "$cpus/any-$seed"
    PYTHONPATH=src taskset -c 0 python3 -m penseq.cli sweep --preset sparse --replicates 4 \
      --seed "$seed" --out "$cpus/one-$seed"
    for f in sweep.json sweep.csv; do
      cmp "$cpus/any-$seed/$f" "$cpus/one-$seed/$f" \
        || { echo "$f differs between all CPUs and one CPU at seed $seed"; exit 1; }
    done
  done
  rm -rf "$cpus"
else
  echo "ci: taskset not found; skipping the one-CPU output comparison"
fi
# outputs must not depend on the BLAS thread count: numpy's dot product of more
# than 10,000 elements runs OpenBLAS's threaded kernel, whose last bit depends
# on it. Each run goes once with OpenBLAS's default (one thread per CPU) and
# once with OPENBLAS_NUM_THREADS=1
blas=$(mktemp -d)
runs=("sweep --preset sparse --replicates 4"
      "sweep --config perfbench/configs/sweep_spread_corr.json --replicates 4"
      "oracle-check --preset sparse --replicates 4")
for i in "${!runs[@]}"; do
  read -ra args <<< "${runs[$i]}"
  env -u OPENBLAS_NUM_THREADS -u GOTO_NUM_THREADS -u OMP_NUM_THREADS PYTHONPATH=src \
    python3 -m penseq.cli "${args[@]}" --out "$blas/$i-default"
  OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 -m penseq.cli "${args[@]}" --out "$blas/$i-one"
  for f in "$blas/$i-default"/*; do
    cmp "$f" "$blas/$i-one/${f##*/}" \
      || { echo "${args[0]} writes other bytes with one BLAS thread"; exit 1; }
  done
done
rm -rf "$blas"
# every run value is in the config an output echoes: rerunning on that
# config writes the same bytes
echo_dir=$(mktemp -d)
PYTHONPATH=src python3 -m penseq.cli oracle-check --preset sparse --replicates 4 \
  --out "$echo_dir/first"
python3 -c 'import json, sys; print(json.dumps(json.load(open(sys.argv[1]))["config"]))' \
  "$echo_dir/first/oracle_check.json" > "$echo_dir/config.json"
PYTHONPATH=src python3 -m penseq.cli oracle-check --config "$echo_dir/config.json" \
  --out "$echo_dir/again"
cmp "$echo_dir/first/oracle_check.json" "$echo_dir/again/oracle_check.json" \
  || { echo "oracle_check.json differs when rerun on its echoed config"; exit 1; }
rm -rf "$echo_dir"
# oracle-check, the rate report and a tridiagonal sweep need no SciPy: in an
# interpreter where every scipy import fails, each exits 0 and writes the
# bytes of a normal run
blocked=$(mktemp -d)
runs=("oracle-check --preset sparse --replicates 4"
      "rates --preset sparse"
      "sweep --config perfbench/configs/sweep_spread_corr.json --replicates 4")
for i in "${!runs[@]}"; do
  read -ra args <<< "${runs[$i]}"
  cmd=${args[0]}
  PYTHONPATH=src python3 -m penseq.cli "${args[@]}" --out "$blocked/$i"
  PYTHONPATH=src python3 -c 'import sys; sys.modules["scipy"] = None
from penseq.cli import main; sys.exit(main())' "${args[@]}" --out "$blocked/$i-noscipy" \
    || { echo "$cmd fails without SciPy"; exit 1; }
  for f in "$blocked/$i"/*; do
    cmp "$f" "$blocked/$i-noscipy/${f##*/}" \
      || { echo "$cmd writes other bytes without SciPy"; exit 1; }
  done
done
rm -rf "$blocked"
echo "ci: all checks passed"
