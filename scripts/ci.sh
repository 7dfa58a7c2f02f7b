#!/usr/bin/env bash
# The CI checks, runnable offline from the repository root:
#   bash scripts/ci.sh
# tier-1 tests, the benchmark's own tests, and a short run of each benchmark
# workload, untraced and traced, checked against perfbench/reference.json.
set -e
cd "$(dirname "$0")/.."

# --durations shows where the tier-1 time goes; it adds output only
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors --durations=15
# tier-1 again under the OpenBLAS kernels of an x86 CPU without AVX-512: the
# noise tests' references are recorded bytes and the port, never a live LAPACK
# call, so they must pass on any kernel.  The golden tests stay out of this
# step: numpy's dot and np.polyfit still move their last digit (ROADMAP item 21)
OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python -m pytest -q --continue-on-collection-errors \
  --deselect tests/test_golden.py
# the floor draw's tail values must not depend on the SIMD code numpy picks for
# this CPU: on a host where numpy reports X86_V4, _tails draws from a fixed
# stream are hashed in a fresh interpreter as numpy dispatches them, then with
# X86_V4 and every feature above it disabled, and the two hashes must match
v4=$(python3 -c 'from numpy._core._multiarray_umath import __cpu_dispatch__ as d, __cpu_features__ as f
print(" ".join(x for x in d[d.index("X86_V4"):] if f[x]) if f.get("X86_V4") else "")')
if [ -n "$v4" ]; then
  tails=$(mktemp -d)
  hash_tails='import hashlib, numpy as np
from penseq.simulate import _tails
rng, h = np.random.default_rng(20261022), hashlib.sha256()
for c in (1.6, 4.7, 38.0):
    for k in (1, 7, 5000):
        h.update(_tails(rng, k, c).tobytes())
print(h.hexdigest())'
  PYTHONPATH=src python3 -c "$hash_tails" > "$tails/host"
  NPY_DISABLE_CPU_FEATURES="$v4" PYTHONPATH=src python3 -c "$hash_tails" > "$tails/lowered"
  cmp "$tails/host" "$tails/lowered" \
    || { echo "_tails draws other bits with $v4 disabled"; exit 1; }
  rm -rf "$tails"
  echo "tail draws: the same bits with $v4 disabled"
else
  echo "tail-draw dispatch check skipped: numpy reports no X86_V4 on this host"
fi
# the size of src/ and the peak RSS of one sparse sweep in a fresh interpreter,
# which the ROADMAP tracks; printed only, not checked
wc -l src/penseq/*.py | tail -1
# code lines per module and in total, the count simplicity changes report: the
# lines a token spans, less blank lines, comment-only lines and docstrings;
# printed only, not checked
python3 - src/penseq/*.py <<'PY'
import ast, io, sys, tokenize
total = 0
for path in sys.argv[1:]:
    text = open(path).read()
    docs = set()                                  # the lines of every docstring
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()                                  # the lines a code token spans
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    total += len(code - docs)
    print(f"{len(code - docs):6d} {path}")
print(f"{total:6d} code lines in total")
PY
# dead names, checked: no module but __init__.py imports a name it never reads
# (__future__ aside), and every top-level private name (_x, not __x__) of a
# module is read somewhere under src/, so a deletion leaves no unread import or
# uncalled helper behind
python3 - src/penseq/*.py <<'PY'
import ast, sys
from pathlib import Path
trees = {path: ast.parse(Path(path).read_text()) for path in sys.argv[1:]}
read = set()                                      # every name src/ reads or imports by name
for tree in trees.values():
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
dead = []
for path, tree in trees.items():
    if path.endswith("__init__.py"):
        continue
    own = {node.id for node in ast.walk(tree)
           if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)
               or isinstance(node, ast.ImportFrom) and node.module != "__future__"]
    for node in imports:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in own:
                dead.append(f"{path}:{node.lineno}: imports {name} and never reads it")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [(n.id, node.lineno) for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name, line in names:
            if name.startswith("_") and not name.startswith("__") and name not in read:
                dead.append(f"{path}:{line}: defines {name} and nothing under src/ reads it")
if dead:
    sys.exit("dead names:\n" + "\n".join(dead))
print(f"dead-name gate: {len(trees)} modules, no unread import or private name")
PY
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
# every one of the 64 pool seeds of the two identity-noise workloads must write
# the bytes perfbench/reference.json records: the Monte Carlo loop draws only
# what select_k can read there, and that must move no output byte.  perfbench/
# is only read: its harness runs each invocation, and no bytecode is written
pool=$(mktemp -d)
PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src python3 - "$pool" <<'PY'
import sys
from pathlib import Path
sys.path.insert(0, "perfbench")
import harness
from workloads import SEED_POOL
reference = harness.load_reference()
differ = [(name, seed) for name in ("sweep-sparse", "oracle-check") for seed in SEED_POOL
          if not harness.invoke(name, seed, Path(sys.argv[1]) / "out", reference).identical]
if differ:
    sys.exit(f"outputs differ from perfbench/reference.json at {differ}")
print(f"sweep-sparse and oracle-check: all {len(SEED_POOL)} pool seeds byte-identical")
PY
rm -rf "$pool"
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
