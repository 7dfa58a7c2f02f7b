"""Command-line front end: config parsing, experiment presets, result emission.

Subcommands:
    estimate      fit one observed sequence, write the fit as JSON
    sweep         Monte Carlo risk over an epsilon grid + rate-exponent fit
    rates         rate report and shell-risk profile for one (gamma, C, eps)
    oracle-check  exhaustive-oracle equivalence batch + risk-bound Monte Carlo

Every experiment is a single JSON config document (or a named preset);
--seed / --replicates / --out override individual fields.  Outputs embed the
fully resolved config and a schema_version field and contain no timestamps,
so reruns produce identical files.

Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError, dataclass_kwargs, require
from .model import HyperParams, MultiresSequence, NoiseSpec
from .penalty import PenaltyConfig
from .estimator import fit_multiscale, select_k, subset_oracle
from .rates import log_factor, rate_control, rate_exponent, shell_profile
from .simulate import (SignalSpec, fit_rate_exponent, make_signal, mc_risk_for_truth,
                       oracle_inequality_check)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4

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


def _count(value, name: str) -> int:
    """A whole number >= 0; int() alone would truncate 2.7 to 2 and read true as 1."""
    number = int(value)
    if isinstance(value, bool) or number < 0 or (isinstance(value, float) and number != value):
        raise ValueError(f"{name} must be a whole number >= 0, got {value!r}")
    return number


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
        # float(), int() and the field lookups raise ValueError or
        # TypeError on a value of the wrong type or form, int() of an
        # infinity OverflowError
        try:
            gamma = HyperParams.from_dict(doc["gamma"])
            radius = float(doc.get("radius", 1.0))
            penalty = PenaltyConfig.from_dict({"beta": gamma.beta, **doc.get("penalty", {})})
            require(penalty.beta == gamma.beta, "penalty beta must match gamma beta")
            noise = dataclass_kwargs(doc.get("noise", {}), NoiseSpec, "noise",
                                     {"epsilon", "beta"})
            signal = dataclass_kwargs(doc.get("signal", {}), SignalSpec, "signal",
                                      {"gamma", "radius", "epsilon", "jmax"})
            eps = doc.get("epsilons", [])
            require(isinstance(eps, (list, tuple)), "'epsilons' must be a list")
            cfg = cls(
                gamma=gamma, radius=radius, penalty=penalty, noise=noise, signal=signal,
                epsilons=tuple(float(e) for e in eps),
                replicates=_count(doc.get("replicates", 100), "replicates"),
                seed=_count(doc.get("seed", 0), "seed"),
                jmax=doc.get("jmax"),
                epsilon=None if doc.get("epsilon") is None else float(doc["epsilon"]),
            )
            cfg.cross_validate()
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed config value: {exc}") from exc
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
        for e in self.epsilons:
            require(0.0 < e < min(self.radius, 1.0),
                    f"every epsilon must lie in (0, min(radius, 1)), got {e}")
        if self.epsilon is not None:
            require(0.0 < self.epsilon < 1.0,
                    f"epsilon must lie in (0, 1), got {self.epsilon}")
        require(self.replicates >= 2, "replicates must be >= 2")
        # build the specs the commands will build, so bad fields fail before any work
        self.noise_spec(0.0)
        for e in self.epsilons + (() if self.epsilon is None else (self.epsilon,)):
            self.signal_spec(e)

    def noise_spec(self, epsilon: float) -> NoiseSpec:
        return NoiseSpec(epsilon=epsilon, beta=self.gamma.beta, **self.noise)

    def signal_spec(self, epsilon: float) -> SignalSpec:
        return SignalSpec(gamma=self.gamma, radius=self.radius, epsilon=epsilon,
                          jmax=self.jmax, **self.signal)

    def single_epsilon(self) -> float:
        if self.epsilon is not None:
            return self.epsilon
        require(len(self.epsilons) == 1,
                "this command needs a single 'epsilon' (or a one-entry epsilon grid)")
        return self.epsilons[0]

    def resolved_dict(self) -> dict:
        doc = asdict(self)
        doc.update(schema_version=SCHEMA_VERSION, epsilons=list(self.epsilons), zone=None)
        return doc


def load_config(args) -> ExperimentConfig:
    if getattr(args, "preset", None):
        require(args.preset in PRESETS,
                f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}")
        doc = json.loads(json.dumps(PRESETS[args.preset]))
    else:
        require(getattr(args, "config", None) is not None,
                "either --config PATH or --preset NAME is required")
        path = Path(args.config)
        require(path.exists(), f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed config JSON: {exc}") from exc
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if getattr(args, "replicates", None) is not None:
        doc["replicates"] = args.replicates
    return ExperimentConfig.from_dict(doc)


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_estimate(args) -> int:
    config = load_config(args)
    seq_path = Path(args.input)
    require(seq_path.exists(), f"input sequence not found: {seq_path}")
    y = MultiresSequence.from_json(seq_path.read_text())
    epsilon = config.single_epsilon()
    fit = fit_multiscale(y, config.penalty, config.noise_spec(epsilon))
    doc = {"schema_version": SCHEMA_VERSION, "config": config.resolved_dict(),
           "epsilon": epsilon, "fit": fit.to_json_dict()}
    _write_json(_out_dir(args) / "fit.json", doc)
    return EXIT_OK


def _sweep_point(config: ExperimentConfig, epsilon: float, index: int) -> dict:
    result = mc_risk_for_truth(make_signal(config.signal_spec(epsilon)), config.penalty,
                               config.noise_spec(epsilon), config.replicates,
                               seed=config.seed + index)
    return {"epsilon": epsilon, "mean_sse": result.mean_sse,
            "stderr": result.stderr_sse, "replicates": result.replicates}


def cmd_sweep(args) -> int:
    config = load_config(args)
    require(len(config.epsilons) >= 4, "sweep needs an epsilon grid of >= 4 points")
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
    out = _out_dir(args)
    csv_lines = ["epsilon,mean_sse,stderr,replicates"]
    for row in rows:
        csv_lines.append(f"{row['epsilon']:.17g},{row['mean_sse']:.17g},"
                         f"{row['stderr']:.17g},{row['replicates']}")
    (out / "sweep.csv").write_text("\n".join(csv_lines) + "\n")
    _write_json(out / "sweep.json",
                {"schema_version": SCHEMA_VERSION, "config": config.resolved_dict(),
                 "rows": rows, "summary": summary})
    return EXIT_OK


def cmd_rates(args) -> int:
    config = load_config(args)
    epsilon = config.single_epsilon()
    report = rate_control(config.gamma, config.radius, epsilon)
    profile = shell_profile(config.gamma, config.radius, epsilon)
    out = _out_dir(args)
    _write_json(out / "rate_report.json",
                {"schema_version": SCHEMA_VERSION, "config": config.resolved_dict(),
                 "epsilon": epsilon, "report": report.to_json_dict()})
    (out / "shell_profile.csv").write_text(profile.to_csv_text())
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    config = load_config(args)
    epsilon = config.single_epsilon()
    # the batch runs the same number of instances at each n = 1..12
    require(args.instances > 0 and args.instances % 12 == 0,
            f"--instances must be a positive multiple of 12, got {args.instances}")
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    mismatches = 0
    for n in range(1, 13):
        for _ in range(args.instances // 12):
            y = rng.standard_normal(n)
            fit = select_k(y, config.penalty, 1.0)
            indices, _ = subset_oracle(y, config.penalty, 1.0)
            proj = np.zeros(n)
            proj[list(indices)] = y[list(indices)]
            if not np.array_equal(proj, fit.estimate):
                mismatches += 1
    lhs, rhs, ratio = oracle_inequality_check(
        config.signal_spec(epsilon), config.penalty, config.noise_spec(epsilon),
        config.replicates, config.seed)
    doc = {"schema_version": SCHEMA_VERSION, "config": config.resolved_dict(),
           "seed": config.seed,
           "equivalence": {"instances": args.instances, "mismatches": mismatches},
           "oracle_inequality": {"epsilon": epsilon, "lhs": lhs, "rhs": rhs,
                                 "ratio": ratio, "holds": ratio <= 1.0}}
    _write_json(_out_dir(args) / "oracle_check.json", doc)
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

    def common(p):
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--preset", help=f"named preset: {', '.join(sorted(PRESETS))}")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--replicates", type=int, default=None,
                       help="override config replicate count")
        p.add_argument("--out", default=".", help="output directory")

    p_est = sub.add_parser("estimate", help="fit one observed sequence")
    p_est.add_argument("input", help="path to a sequence JSON file")
    common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo risk over an epsilon grid")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_rates = sub.add_parser("rates", help="rate report and shell-risk profile")
    common(p_rates)
    p_rates.set_defaults(func=cmd_rates)

    p_oracle = sub.add_parser("oracle-check",
                              help="oracle equivalence batch and risk-bound check")
    p_oracle.add_argument("--instances", type=int, default=12000,
                          help="total random instances for the equivalence batch; "
                               "a positive multiple of 12")
    common(p_oracle)
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
