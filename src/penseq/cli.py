"""Command-line front end: config parsing, experiment presets, result emission.

Subcommands:
    estimate      fit one observed sequence, write the fit as JSON
    sweep         Monte Carlo risk over an epsilon grid + rate-exponent fit
    rates         rate report and shell-risk profile for one (gamma, C, eps)
    oracle-check  exhaustive-oracle equivalence batch + risk-bound Monte Carlo

Every experiment is a single JSON config document (or a named preset).
sweep and oracle-check take --seed / --replicates to override those fields;
every subcommand takes --out.  rates, estimate and oracle-check run at the
config's 'epsilon', sweep over its 'epsilons' grid.  Outputs embed the fully
resolved config and a schema_version field and contain no timestamps, so a
rerun on an output's echoed config writes the same files.

Exit codes: 0 success, 2 validation error (an --out that cannot be written
included; such a run leaves none of its files), 3 numerical failure,
4 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError, as_float, dataclass_kwargs, require, whole
from .model import HyperParams, MultiresSequence, NoiseSpec
from .penalty import PenaltyConfig, m_prime, nu_schedule
from .estimator import fit_multiscale, select_k, subset_oracle
from .rates import log_factor, rate_control, rate_exponent, shell_profile
from .simulate import (SignalSpec, check_rate_grid, fit_rate_exponent, make_signal,
                       mc_risk_for_truth, oracle_inequality_check)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4

# oracle-check's equivalence batch: this many N(0,1) instances at each n = 1..12
EQUIVALENCE_PER_N = 1000

# Fields every preset shares; each preset adds its gamma and signal and may
# override the rest.
_PRESET_BASE = {
    "radius": 1.0,
    "penalty": {"zeta": 2.0, "nu": 40.0, "xi1": 1.0, "jeps_scale": 1.0},
    "noise": {"covariance": "identity", "rho": 0.0},
    "epsilons": [2.0 ** -j for j in range(6, 13)],
    "epsilon": 2.0 ** -8,
    "replicates": 100,
    "seed": 20260811,
}
_DENSE_GAMMA = {"alpha": 1.0, "p": 2.0, "q": 2.0, "beta": 0.5}

PRESETS = {name: {**_PRESET_BASE, **own} for name, own in {
    "dense": {"gamma": _DENSE_GAMMA,
              "signal": {"kind": "shell_dense", "placement": "even"}},
    "sparse": {"gamma": {"alpha": 0.75, "p": 1.0, "q": 1.0, "beta": 0.5},
               "signal": {"kind": "shell_sparse", "placement": "even"}},
    "zero": {"gamma": _DENSE_GAMMA, "signal": {"kind": "zero"},
             "epsilons": [2.0 ** -j for j in range(6, 11)], "replicates": 200},
    "critical": {"gamma": {"alpha": 1.0, "p": 1.0, "q": 2.0, "beta": 0.5},
                 "signal": {"kind": "critical_prior", "rho1": 1.05, "rho2": 1.25}},
}.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (one JSON document).

    ``noise`` and ``signal`` hold the NoiseSpec and SignalSpec keyword
    arguments the document sets; epsilon, beta, gamma, radius and jmax come
    from the rest of the config.
    """

    gamma: HyperParams
    radius: float
    penalty: PenaltyConfig
    noise: dict
    signal: dict
    epsilons: tuple
    replicates: int
    seed: int
    jmax: int | None
    epsilon: float | None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        require(isinstance(doc, dict), "config must be a JSON object")
        # the zone follows from gamma; schema_version 1 echoes it as null
        require(doc.get("zone") is None, "'zone' follows from gamma and cannot be set")
        unknown = set(doc) - {f.name for f in fields(cls)} - {"schema_version", "zone"}
        require(not unknown, f"unknown config fields: {sorted(unknown)}")
        require("gamma" in doc, "config is missing 'gamma'")
        version = doc.get("schema_version", SCHEMA_VERSION)
        require(type(version) is int and version == SCHEMA_VERSION,
                f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
        gamma = HyperParams.from_dict(doc["gamma"])
        radius = as_float(doc.get("radius", 1.0), "radius")
        require(isinstance(doc.get("penalty", {}), dict), "penalty must be a JSON object")
        penalty = PenaltyConfig.from_dict({"beta": gamma.beta, **doc.get("penalty", {})})
        require(penalty.beta == gamma.beta, "penalty beta must match gamma beta")
        noise = dataclass_kwargs(doc.get("noise", {}), NoiseSpec, "noise", {"epsilon", "beta"})
        signal = dataclass_kwargs(doc.get("signal", {}), SignalSpec, "signal",
                                  {"gamma", "radius", "epsilon", "jmax"})
        eps = doc.get("epsilons", [])
        require(isinstance(eps, (list, tuple)), "'epsilons' must be a list")
        epsilon, jmax = doc.get("epsilon"), doc.get("jmax")
        cfg = cls(
            gamma=gamma, radius=radius, penalty=penalty, noise=noise, signal=signal,
            epsilons=tuple(as_float(e, "epsilons entry") for e in eps),
            replicates=whole(doc.get("replicates", 100), "replicates", 2),
            seed=whole(doc.get("seed", 0), "seed", 0),
            jmax=None if jmax is None else whole(jmax, "jmax", 1),
            epsilon=None if epsilon is None else as_float(epsilon, "epsilon"),
        )
        cfg.cross_validate()
        return cfg

    @property
    def signal_kind(self) -> str:
        return self.signal["kind"]

    @property
    def noise_covariance(self) -> str:
        return self.noise["covariance"]

    @property
    def noise_rho(self) -> float:
        return self.noise["rho"]

    def cross_validate(self) -> None:
        # build the commands' specs, so bad fields fail before any work (SignalSpec: e < radius)
        self.noise_spec(0.0)
        for e in self.epsilons + (() if self.epsilon is None else (self.epsilon,)):
            require(0.0 < e < 1.0, f"epsilon must lie in (0, 1), got {e}")
            self.signal_spec(e)

    def noise_spec(self, epsilon: float) -> NoiseSpec:
        return NoiseSpec(epsilon=epsilon, beta=self.gamma.beta, **self.noise)

    def signal_spec(self, epsilon: float) -> SignalSpec:
        return SignalSpec(gamma=self.gamma, radius=self.radius, epsilon=epsilon,
                          jmax=self.jmax, **self.signal)

    def single_epsilon(self) -> float:
        require(self.epsilon is not None,
                "this command needs a single 'epsilon'; the 'epsilons' grid is sweep's")
        return self.epsilon

    def resolved_dict(self) -> dict:
        doc = asdict(self)
        doc.update(schema_version=SCHEMA_VERSION, epsilons=list(self.epsilons), zone=None)
        return doc


def _read_text(path: Path, what: str) -> str:
    """The UTF-8 text of the input file path; ValidationError naming it
    (what it is, then the path) if it is missing or cannot be read."""
    require(path.exists(), f"{what} not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc


def load_config(args) -> ExperimentConfig:
    if getattr(args, "preset", None):
        require(args.preset in PRESETS,
                f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}")
        doc = json.loads(json.dumps(PRESETS[args.preset]))
    else:
        require(getattr(args, "config", None) is not None,
                "either --config PATH or --preset NAME is required")
        text = _read_text(Path(args.config), "config file")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed config JSON: {exc}") from exc
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if getattr(args, "replicates", None) is not None:
        doc["replicates"] = args.replicates
    return ExperimentConfig.from_dict(doc)


def _json_text(config: ExperimentConfig, **body) -> str:
    """body as an output document, with schema_version and the resolved config."""
    doc = {"schema_version": SCHEMA_VERSION, "config": config.resolved_dict(), **body}
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_outputs(args, texts: dict) -> None:
    """Write each text of texts (file name -> text) into the output directory,
    making it.  The texts are formed before the first write, so a run either
    writes them all or, when one cannot be written, removes those this call
    wrote and raises ValidationError naming the file."""
    out = Path(args.out) if args.out else Path(".")
    written = []
    for name, text in texts.items():
        path = out / name
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        except OSError as exc:
            for done in written:
                done.unlink(missing_ok=True)
            raise ValidationError(f"cannot write output file {path}: {exc}") from exc
        written.append(path)


def cmd_estimate(args) -> int:
    config = load_config(args)
    y = MultiresSequence.from_json(_read_text(Path(args.input), "input sequence"))
    epsilon = config.single_epsilon()
    fit = fit_multiscale(y, config.penalty, config.noise_spec(epsilon))
    _write_outputs(args, {"fit.json": _json_text(config, epsilon=epsilon,
                                                  fit=fit.to_json_dict())})
    return EXIT_OK


def _sweep_point(config: ExperimentConfig, epsilon: float, index: int) -> dict:
    result = mc_risk_for_truth(make_signal(config.signal_spec(epsilon)), config.penalty,
                               config.noise_spec(epsilon), config.replicates,
                               seed=config.seed + index)
    return {"epsilon": epsilon, "mean_sse": result.mean_sse,
            "stderr": result.stderr_sse, "replicates": result.replicates}


def cmd_sweep(args) -> int:
    config = load_config(args)
    check_rate_grid(config.epsilons)              # the fit's rule, before any Monte Carlo
    require(config.signal_kind != "zero",
            "sweep cannot fit a rate to a zero signal: a truth with no energy has no "
            "risk decay to fit; 'rates' and 'oracle-check' accept it")
    factors = {e: log_factor(config.gamma, config.radius, e) for e in config.epsilons}
    order = sorted(range(len(config.epsilons)), key=lambda i: config.epsilons[i])
    rows = [_sweep_point(config, config.epsilons[i], i) for i in order]
    corrected = [(row["epsilon"], row["mean_sse"] / factors[row["epsilon"]])
                 for row in rows]
    slope, intercept, r_hat = fit_rate_exponent(corrected)
    r_theory = rate_exponent(config.gamma)
    summary = {"slope": slope, "intercept": intercept, "r_hat": r_hat,
               "r_theory": r_theory,
               "relative_error": abs(r_hat - r_theory) / r_theory,
               "log_corrected": any(f != 1.0 for f in factors.values())}
    csv_lines = ["epsilon,mean_sse,stderr,replicates"]
    for row in rows:
        csv_lines.append(f"{row['epsilon']:.17g},{row['mean_sse']:.17g},"
                         f"{row['stderr']:.17g},{row['replicates']}")
    _write_outputs(args, {"sweep.json": _json_text(config, rows=rows, summary=summary),
                          "sweep.csv": "\n".join(csv_lines) + "\n"})
    return EXIT_OK


def cmd_rates(args) -> int:
    config = load_config(args)
    epsilon = config.single_epsilon()
    report = rate_control(config.gamma, config.radius, epsilon)
    profile = shell_profile(config.gamma, config.radius, epsilon)
    _write_outputs(args, {"rate_report.json": _json_text(config, epsilon=epsilon,
                                                         report=report.to_json_dict()),
                          "shell_profile.csv": profile.to_csv_text()})
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    config = load_config(args)
    epsilon = config.single_epsilon()
    # the bound's complexity sums need nu_j > e^(1/(1+2*beta)), and nu_j grows
    # with j: the bound's first term, at level 1, refuses a config before any work
    m_prime(config.penalty, 2, nu_schedule(config.penalty, epsilon, 1))
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    mismatches = 0
    for n in range(1, 13):
        # one draw per n: the rows are the normals of per-instance draws, in order
        for y in rng.standard_normal((EQUIVALENCE_PER_N, n)):
            fit = select_k(y, config.penalty, 1.0)
            indices, _ = subset_oracle(y, config.penalty, 1.0)
            if not indices and fit.k_hat == 0:
                continue                          # both estimates are all +0.0
            kept = list(indices)
            proj = np.zeros(n)
            proj[kept] = y[kept]
            if not (proj == fit.estimate).all():
                mismatches += 1
    lhs, rhs, ratio = oracle_inequality_check(
        config.signal_spec(epsilon), config.penalty, config.noise_spec(epsilon),
        config.replicates, config.seed)
    _write_outputs(args, {"oracle_check.json": _json_text(
        config, seed=config.seed,
        equivalence={"instances": 12 * EQUIVALENCE_PER_N, "mismatches": mismatches},
        oracle_inequality={"epsilon": epsilon, "lhs": lhs, "rhs": rhs,
                           "ratio": ratio, "holds": ratio <= 1.0})})
    if mismatches > 0 or ratio > 1.0:
        print(f"oracle check FAILED: {mismatches} mismatches, ratio={ratio:.4g}",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penseq",
        description="Adaptive complexity-penalized estimation in multiresolution "
                    "Gaussian sequence models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, monte_carlo):
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--preset", help=f"named preset: {', '.join(sorted(PRESETS))}")
        if monte_carlo:
            p.add_argument("--seed", type=int, default=None, help="override config seed")
            p.add_argument("--replicates", type=int, default=None,
                           help="override config replicate count")
        p.add_argument("--out", default=".", help="output directory")

    p_est = sub.add_parser("estimate", help="fit one observed sequence")
    p_est.add_argument("input", help="path to a sequence JSON file")
    common(p_est, False)
    p_est.set_defaults(func=cmd_estimate)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo risk over an epsilon grid")
    common(p_sweep, True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_rates = sub.add_parser("rates", help="rate report and shell-risk profile")
    common(p_rates, False)
    p_rates.set_defaults(func=cmd_rates)

    p_oracle = sub.add_parser("oracle-check",
                              help="oracle equivalence batch and risk-bound check")
    common(p_oracle, True)
    p_oracle.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
