"""Record the reference outputs that the benchmark checks invocations against.

For every workload and every CLI seed in ``harness.SEED_POOL`` this runs the
invocation once and stores the SHA-256 of each output file and the values
the checks compare (per-point mean_sse and stderr, or the oracle-check
results) in ``perfbench/reference.json``.  Run it from the repository root:

    python3 perfbench/record_reference.py

Re-record only at a commit whose outputs are known to be right, and say so
in CHANGES.md: every later run is judged against this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The reference bytes must come from the same thread settings as the runs.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    doc = {"workloads": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "out"
        for name in sorted(harness.WORKLOADS):
            recorded = {}
            for cli_seed in harness.SEED_POOL:
                code = harness.penseq.cli.main(harness.cli_argv(name, cli_seed, out))
                if code != 0:
                    print(f"{name} seed {cli_seed}: exit code {code}", file=sys.stderr)
                    return 1
                recorded[str(cli_seed)] = harness.summarize(
                    name, harness.read_outputs(name, out))
            doc["workloads"][name] = recorded
            print(f"recorded {name}: {len(recorded)} seeds")
    doc["recorded_with"] = {"python": platform.python_version(),
                            "numpy": harness.numpy.__version__,
                            "scipy": harness.scipy.__version__}
    harness.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
