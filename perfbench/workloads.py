"""The benchmark's workloads: CLI arguments, outputs and input sizes.

Standard library only, so that ``run.py`` can build a workload's command line
without importing the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPREAD_CORR_CONFIG = HERE / "configs" / "sweep_spread_corr.json"

# Grid point i of a sweep runs with seed + i, so pool seeds are 1000 apart to
# keep invocations from sharing noise draws.
SEED_POOL = tuple(20260811 + 1000 * k for k in range(64))


@dataclass(frozen=True)
class Workload:
    argv: tuple          # CLI arguments before --seed/--out
    outputs: tuple       # files the invocation writes
    coefs: int           # coefficients passed through the estimator per invocation
    grid: int = 0        # sweep grid size (0 for oracle-check)
    replicates: int = 0  # Monte Carlo replicates per sweep point (0 for oracle-check)
    snippet: str = "small-calls"  # speed.SNIPPETS entry shaped like the hot path


# Coefficient counts come from the inputs: replicates x sum of 2^j over the
# stored levels of each grid point's truth (sparse: 505,842 per replicate;
# spread-corr: 3,698), and for oracle-check the equivalence batch
# (1000 instances at each n = 1..12, sum 78,000) plus 100 replicates of the
# 8,190-coefficient truth.  test_bench.py re-derives them from the public API.
SPARSE_REPLICATES = 20
SPREAD_REPLICATES = 100
WORKLOADS = {
    "sweep-sparse": Workload(
        argv=("sweep", "--preset", "sparse", "--replicates", str(SPARSE_REPLICATES)),
        outputs=("sweep.csv", "sweep.json"), coefs=505_842 * SPARSE_REPLICATES, grid=7,
        replicates=SPARSE_REPLICATES, snippet="large-sort"),
    "sweep-spread-corr": Workload(
        argv=("sweep", "--config", str(SPREAD_CORR_CONFIG),
              "--replicates", str(SPREAD_REPLICATES)),
        outputs=("sweep.csv", "sweep.json"), coefs=3_698 * SPREAD_REPLICATES, grid=7,
        replicates=SPREAD_REPLICATES),
    "oracle-check": Workload(
        argv=("oracle-check", "--preset", "sparse"),
        outputs=("oracle_check.json",), coefs=78_000 + 100 * 8_190),
}


def cli_argv(name: str, cli_seed: int, out: Path) -> list:
    return list(WORKLOADS[name].argv) + ["--seed", str(cli_seed), "--out", str(out)]
