"""Golden outputs of the CLI: SHA-256 of every file each run writes.

The runs below cover every subcommand, every sweep preset that finishes in
well under a second at a reduced replicate count, and the keep-path of the
estimator (a tridiagonal besov_spread sweep and an estimate on a seeded
input with large coefficients).  A refactor that leaves the program's
behaviour alone must leave every hash unchanged.

A change that moves a hash on purpose re-records them by strip-and-compare:
take the old tree's outputs, make to them only the edits the change intends
(delete or rename the keys it moves, bump ``schema_version``), re-serialize
them as ``cli._json_text`` does, and check that they hash to the new tree's
outputs.  A change that moves *values* re-records by value substitution in
the same way: load the old tree's output, put in the new tree's value for
each value that moved (j_plus and R_plus, say, when the root search
changes), re-serialize, and check that the hash equals the new tree's, so
no other byte moved.  Copy the new hashes from the failing assertion's diff,
and name the keys or values that moved and the hashes that changed in
CHANGES.md.  The benchmark's ``perfbench/reference.json`` holds hashes of
sweep.json and oracle_check.json too, so a change that moves those bytes is
a change to the benchmark and re-records its reference as well.

The hashes were recorded with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1,
on OpenBLAS 0.3.31 with its SkylakeX kernel.  Other versions of numpy or of
the C math library may round differently in the last bit and change the
bytes.  The tridiagonal sweep's Cholesky factor does not depend on the
LAPACK build: it is a standard-library port that gives the floats OpenBLAS's
LAPACK gave when they were recorded.  The hashes still depend on OpenBLAS's
kernel, which it picks by CPU: numpy's `@` and `dot` sums and `np.polyfit`
in the rate fit run through it, and under OPENBLAS_CORETYPE=Haswell four
sweep cases move in the last digit (ROADMAP item 21).
"""

import hashlib
import json

import numpy as np
import pytest

from penseq.cli import main

# Inline copy of the benchmark's tridiagonal besov_spread config: signal on
# every level, so select_k keeps coefficients and the threshold path runs.
SPREAD_CORR = {
    "gamma": {"alpha": 1.0, "p": 2.0, "q": 2.0, "beta": 0.5},
    "radius": 1.0,
    "penalty": {"zeta": 2.0, "nu": 40.0, "xi1": 1.5, "jeps_scale": 1.0},
    "noise": {"covariance": "tridiagonal", "rho": 0.25},
    "signal": {"kind": "besov_spread", "placement": "even"},
    "epsilons": [2.0 ** -j for j in range(6, 13)],
    "epsilon": 2.0 ** -8,
    "replicates": 100,
    "seed": 20260811,
}

ESTIMATE_CONFIG = {
    "gamma": {"alpha": 1.0, "p": 2.0, "q": 2.0, "beta": 0.5},
    "radius": 1.0,
    "penalty": {"zeta": 2.0, "nu": 40.0, "xi1": 1.0},
    "noise": {"covariance": "identity"},
    "signal": {"kind": "zero"},
    "epsilon": 2.0 ** -6,
    "seed": 7,
}


def _estimate_input() -> dict:
    # Levels 1..7: small noise everywhere plus a few large spikes per level,
    # so every level keeps some coefficients and drops others.
    rng = np.random.default_rng(np.random.SeedSequence(20260811))
    levels = []
    for j in range(1, 8):
        level = 2.0 ** -6 * 2.0 ** (0.5 * j) * rng.standard_normal(2 ** j)
        spikes = rng.choice(2 ** j, size=max(1, 2 ** j // 8), replace=False)
        level[spikes] += 2.0
        levels.append(level.tolist())
    return {"j0": 1, "levels": levels}


def _run_sweep_spread(tmp_path):
    cfg = tmp_path / "spread_corr.json"
    cfg.write_text(json.dumps(SPREAD_CORR))
    return ["sweep", "--config", str(cfg), "--replicates", "10"]


def _run_estimate(tmp_path):
    cfg = tmp_path / "estimate_config.json"
    cfg.write_text(json.dumps(ESTIMATE_CONFIG))
    seq = tmp_path / "sequence.json"
    seq.write_text(json.dumps(_estimate_input()))
    return ["estimate", str(seq), "--config", str(cfg)]


RUNS = {
    "rates-critical": lambda tmp: ["rates", "--preset", "critical"],
    "sweep-dense": lambda tmp: ["sweep", "--preset", "dense", "--replicates", "10"],
    # a seed of two 32-bit words (2^32 + 5): each grid point's stream is seeded
    # from more than one word of entropy
    "sweep-dense-wide-seed": lambda tmp: ["sweep", "--preset", "dense", "--seed", "4294967301",
                                          "--replicates", "8"],
    "sweep-sparse": lambda tmp: ["sweep", "--preset", "sparse", "--replicates", "4"],
    "sweep-critical": lambda tmp: ["sweep", "--preset", "critical", "--replicates", "10"],
    "sweep-spread-corr": _run_sweep_spread,
    "oracle-check-sparse": lambda tmp: ["oracle-check", "--preset", "sparse",
                                        "--replicates", "10"],
    "estimate": _run_estimate,
}

GOLDEN = {
    "estimate": {
        "fit.json":
            "bdd9b7f6d72b571c4180cdc570c687b5cfe235583a14c178866dc2e2995dca0a",
    },
    "oracle-check-sparse": {
        "oracle_check.json":
            "319d8f9c12559907d552cc4436d840f2d44b6445c031ecd3b2befaba84ba199d",
    },
    "rates-critical": {
        "rate_report.json":
            "93c0a7c64b6418043027dde449553fe018c2d1080162b696f90774961949d9a0",
        "shell_profile.csv":
            "12063ae52ce673c47bc3be148824e7fa86ee7a1cfd331bccc2ff92ed720dee86",
    },
    "sweep-critical": {
        "sweep.csv":
            "ea76e1aa5da7a3c9ffbbbb483b44444f94bc03fc5dd0b85159f3329250c369c7",
        "sweep.json":
            "4213b4887c6b671c6c098c8950a13bc369803a1a2bb13e3919072e9653f4dff4",
    },
    "sweep-dense": {
        "sweep.csv":
            "f0b8ef3b9b19805ca5f1abe1a062b22c4b3a0e9687904a976dcf303047400cc0",
        "sweep.json":
            "625fb60ba3892767672409a99c00cee94e034d1d1e5792a344d8f36b327ffbc2",
    },
    "sweep-dense-wide-seed": {
        "sweep.csv":
            "eca6b8890bcfba6f635d356933ab90dd5ef155afdb3af253a87b76e69a956e9c",
        "sweep.json":
            "03140ae91fadcc904345ec87588f4a6da47629697e9baf1153deb96474e0d5d9",
    },
    "sweep-sparse": {
        "sweep.csv":
            "b6ee508d7650b4dc71d9a89d4ba99d167798693c7238d400fa9651325ef922b4",
        "sweep.json":
            "83fa38434e6adb6a8950118b613e51c69c66cd43d42b4ff4b34fb88cf03c6878",
    },
    "sweep-spread-corr": {
        "sweep.csv":
            "a4e39a747070389993e5327340b2e482c8f51ec344b4941f7752a1ad89165fe4",
        "sweep.json":
            "9f19ea7b4ff16a3c08abe057df4fb8969d9e2f008311cbdab71bc66f50e0f024",
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_hashes(tmp_path, name):
    out = tmp_path / "out"
    assert main(RUNS[name](tmp_path) + ["--out", str(out)]) == 0
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(out.iterdir())}
    assert hashes == GOLDEN[name]
