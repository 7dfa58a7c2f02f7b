"""No path imports SciPy.

A fresh interpreter imports the CLI, loads every preset and a tridiagonal
config, and runs estimate, rates and a short sweep on the dense preset,
rates on the sparse and critical presets, a short sweep on the sparse one
(each locates j_plus), a short oracle-check on the sparse one (the
complexity sums), and a short sweep and an estimate on the tridiagonal
config (the banded Cholesky factor).  It then calls m_prime, m_prime_many and
t1_complexity_sum directly and runs a tridiagonal Monte Carlo run: it must
hold no scipy module afterwards, and every value must equal this process's
bit for bit.

Every error the package raises is a PenseqError: no raise statement in its
source names a builtin exception class.
"""
import ast
import builtins
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import penseq

TRIDIAGONAL = {
    "gamma": {"alpha": 1.0, "p": 2.0, "q": 2.0, "beta": 0.5},
    "noise": {"covariance": "tridiagonal", "rho": 0.25},
    "penalty": {"xi1": 1.5},
    "signal": {"kind": "besov_spread"},
    "epsilons": [2.0 ** -j for j in range(6, 10)],
    "epsilon": 2.0 ** -6,
}


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


def complexity_values():
    """[(name, float.hex)] of the complexity sums, each called directly."""
    from penseq import PenaltyConfig, m_prime, m_prime_many, t1_complexity_sum

    cfg = PenaltyConfig(beta=0.5, nu=3.0)
    values = [("m_prime", m_prime(PenaltyConfig(), 1024)),
              ("m_prime beta=0.5", m_prime(cfg, 2.0 ** 40))]
    values += [(f"m_prime_many[{i}]", v) for i, v in enumerate(m_prime_many(cfg, [1, 7, 4096]))]
    values += [("t1_complexity_sum", t1_complexity_sum(cfg, 2.0 ** -6))]
    return [(name, float(v).hex()) for name, v in values]


def tridiagonal_values():
    """[(name, float.hex)] of a tridiagonal Monte Carlo run and of j_plus."""
    from penseq import (HyperParams, NoiseSpec, PenaltyConfig, SignalSpec, j_plus,
                        make_signal, mc_risk_for_truth)

    gamma = HyperParams(alpha=1.0, p=2.0, q=2.0, beta=0.5)
    truth = make_signal(SignalSpec("besov_spread", gamma, 1.0, 2.0 ** -6, jmax=6))
    noise = NoiseSpec(epsilon=2.0 ** -6, beta=0.5, covariance="tridiagonal", rho=0.25)
    mc = mc_risk_for_truth(truth, PenaltyConfig(beta=0.5, xi1=1.5), noise, 4, seed=11)
    values = [("mc.mean_sse", mc.mean_sse), ("mc.stderr_sse", mc.stderr_sse)]
    values += [(f"mc.per_level_sse[{i}]", float(v)) for i, v in enumerate(mc.per_level_sse)]
    values += [("j_plus", j_plus(HyperParams(alpha=0.75, p=1.0, q=1.0, beta=0.5),
                                 1.0, 2.0 ** -9))]
    return [(name, float(v).hex()) for name, v in values]


CHILD = "".join(textwrap.dedent(inspect.getsource(f)) + "\n"
                for f in (scipy_modules, complexity_values, tridiagonal_values)) + \
    textwrap.dedent("""
    import json
    import sys
    from pathlib import Path

    import penseq
    import penseq.cli as cli

    work = Path(sys.argv[1])
    for name in cli.PRESETS:
        cli.load_config(cli.build_parser().parse_args(["rates", "--preset", name]))
    tridiagonal = str(work / "tridiagonal.json")
    cli.load_config(cli.build_parser().parse_args(["sweep", "--config", tridiagonal]))
    runs = (["estimate", str(work / "seq.json"), "--preset", "dense"],
            ["rates", "--preset", "dense"],
            ["sweep", "--preset", "dense", "--replicates", "2"],
            ["rates", "--preset", "sparse"],
            ["rates", "--preset", "critical"],
            ["sweep", "--preset", "sparse", "--replicates", "2"],
            ["oracle-check", "--preset", "sparse", "--replicates", "4"],
            ["sweep", "--config", tridiagonal, "--replicates", "2"],
            ["estimate", str(work / "seq.json"), "--config", tridiagonal])
    codes = [cli.main(argv + ["--out", str(work / f"run{i}")]) for i, argv in enumerate(runs)]
    values = complexity_values() + tridiagonal_values()
    print(json.dumps({"codes": codes, "scipy": scipy_modules(), "values": values}))
    """)


def test_numpy_only_paths_import_no_scipy(tmp_path):
    (tmp_path / "tridiagonal.json").write_text(json.dumps(TRIDIAGONAL))
    seq = {"j0": 1, "levels": [[0.5, -0.01], [3.0, 0.02, -0.03, 0.0]]}
    (tmp_path / "seq.json").write_text(json.dumps(seq))
    src = str(Path(penseq.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    child = json.loads(done.stdout.splitlines()[-1])
    assert child["codes"] == [0] * 9
    assert child["scipy"] == []
    values = complexity_values() + tridiagonal_values()
    assert [list(v) for v in values] == child["values"]


def test_no_builtin_exception_raised():
    builtin = {name for name, obj in vars(builtins).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)}
    found = []
    for path in sorted(Path(penseq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in builtin:
                    found.append(f"{path.name}:{node.lineno} raises {exc.id}")
    assert found == []
