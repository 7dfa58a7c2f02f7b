#!/usr/bin/env bash
# The CI checks, runnable offline from the repository root:
#   bash scripts/ci.sh
# tier-1 tests, the benchmark's own tests, and a short run of each benchmark
# workload, untraced and traced, checked against perfbench/reference.json.
set -e
cd "$(dirname "$0")/.."

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
# the benchmark's own tests read ExperimentConfig; the tier-1 command collects tests/ only
PYTHONPATH=src python -m pytest -q perfbench/tests

# a short run of each workload; every invocation must match perfbench/reference.json
for w in sweep-sparse sweep-spread-corr oracle-check; do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 3 --trace 0 \
    | tail -n 1 \
    | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)' \
    || { echo "workload $w does not match perfbench/reference.json"; exit 1; }
done

# a short traced run of each workload: every invocation's outputs must be
# byte-identical to perfbench/reference.json (a mean_sse within tolerance is
# not enough), and the tracer must resolve every target it wraps
for w in sweep-sparse sweep-spread-corr oracle-check; do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 3 --trace 1 \
    | tail -n 1 \
    | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["metrics"]["cli.outputs_identical"]["value"] == r["attempted"] else 1)' \
    || { echo "workload $w is not byte-identical to perfbench/reference.json"; exit 1; }
done
# outputs must not depend on the CPU count: a Monte Carlo run over 2^15 or
# more coefficients shares its replicates between threads when two CPUs are
# free, and pinned to one CPU it runs on one thread
if command -v taskset > /dev/null; then
  cpus=$(mktemp -d)
  PYTHONPATH=src python3 -m penseq.cli sweep --preset sparse --replicates 4 --seed 5 \
    --out "$cpus/any"
  PYTHONPATH=src taskset -c 0 python3 -m penseq.cli sweep --preset sparse --replicates 4 \
    --seed 5 --out "$cpus/one"
  for f in sweep.json sweep.csv; do
    cmp "$cpus/any/$f" "$cpus/one/$f" \
      || { echo "$f differs between all CPUs and one CPU"; exit 1; }
  done
  rm -rf "$cpus"
else
  echo "ci: taskset not found; skipping the one-CPU output comparison"
fi
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
echo "ci: all checks passed"
