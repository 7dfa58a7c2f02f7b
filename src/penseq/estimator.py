"""Penalized least-squares estimation by order-statistic model selection.

At one level the estimator minimizes ||y - theta||^2 + eps^2 * pen(N(theta))
over all theta, which reduces to choosing the number k_hat of retained order
statistics and hard thresholding at eps * t_{k_hat}.  The multiscale fit
applies the monoscale rule level by level with noise eps_j = eps * 2^(beta*j)
and the nu schedule from the penalty module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, require
from .model import MultiresSequence, NoiseSpec
from .penalty import PenaltyConfig, nu_schedule, pen_vector


def oracle_constant(zeta: float) -> float:
    """Constant D(zeta) = 2*zeta*(zeta+1)^3 / (zeta-1)^3 of the oracle inequality."""
    require(zeta > 1, f"zeta must be > 1, got {zeta}")
    return 2.0 * zeta * (zeta + 1.0) ** 3 / (zeta - 1.0) ** 3


@dataclass(frozen=True, eq=False)
class MonoscaleFit:
    """Result of the penalized fit on one level.

    threshold is on the data scale (eps * t_{k_hat}); it is +inf when
    k_hat = 0, i.e. nothing is kept.  estimate keeps y_i iff |y_i| > threshold
    (strict), so with no ties at the boundary it has exactly k_hat nonzeros.
    """

    k_hat: int
    threshold: float
    estimate: np.ndarray
    objective: float

    def __post_init__(self):
        est = np.asarray(self.estimate, dtype=float).copy()
        est.flags.writeable = False
        object.__setattr__(self, "estimate", est)


def _penalized_objective(v: np.ndarray, cfg: PenaltyConfig, epsilon: float,
                         nu_eff: float | None):
    """(obj, pens) with obj[k] = sum_{i>k} |v|_(i)^2 + eps^2 * pen(k), k = 0..n."""
    sq = np.sort(np.abs(v))[::-1] ** 2
    cum = np.concatenate(([0.0], np.cumsum(sq)))
    pens = pen_vector(cfg, v.size, nu_eff)
    residual = cum[-1] - cum                      # residual[k] = sum_{i>k} |v|_(i)^2
    return residual + (epsilon * epsilon) * pens, pens


def _checked_level(y, epsilon: float) -> np.ndarray:
    """y as a float vector; the input check of every single-level entry point."""
    y = np.asarray(y, dtype=float)
    require(y.ndim == 1 and y.size >= 1, f"y must be a non-empty vector, got shape {y.shape}")
    require(bool(np.all(np.isfinite(y))), "y contains non-finite values")
    require(math.isfinite(float(epsilon)) and epsilon >= 0,
            f"epsilon must be finite and >= 0, got {epsilon}")
    return y


def select_k(y, cfg: PenaltyConfig, epsilon: float,
             nu_eff: float | None = None) -> MonoscaleFit:
    """Minimize sum_{i>k} |y|_(i)^2 + eps^2 * pen(k) over k = 0..n.

    Ties in the objective resolve to the smallest k.  The fitted vector is
    hard thresholding of y at eps * t_{k_hat}.
    """
    y = _checked_level(y, epsilon)
    obj, pens = _penalized_objective(y, cfg, epsilon, nu_eff)
    k_hat = int(np.argmin(obj))                   # first minimum = smallest k
    if k_hat == 0:
        threshold = math.inf
    else:
        step = pens[k_hat] - pens[k_hat - 1]
        if step < 0.0:
            # happens only for nu so close to 1 that pen loses monotonicity
            raise NumericalError(
                f"penalty not increasing at k={k_hat}; nu={cfg.nu} is too small "
                "for the hard-threshold representation")
        threshold = epsilon * math.sqrt(step)
    estimate = np.where(np.abs(y) > threshold, y, 0.0)
    return MonoscaleFit(k_hat=k_hat, threshold=threshold,
                        estimate=estimate, objective=float(obj[k_hat]))


_SUBSET_ORACLE_MAX_N = 20


def subset_oracle(y, cfg: PenaltyConfig, epsilon: float,
                  nu_eff: float | None = None):
    """Exhaustive minimizer of C_eps(J, y) = sum_{i not in J} y_i^2 + eps^2 pen(|J|).

    Enumerates all 2^n coordinate subsets (n <= 20).  Ties resolve to the
    minimal objective, then minimal cardinality, then the lexicographically
    smallest index set.  Returns (indices, objective).
    """
    y = _checked_level(y, epsilon)
    require(y.size <= _SUBSET_ORACLE_MAX_N,
            f"exhaustive search supports n <= {_SUBSET_ORACLE_MAX_N}, got n = {y.size}")
    n = y.size
    sq = y * y
    total = float(sq.sum())
    size = 1 << n
    masks = np.arange(size, dtype=np.int64)
    kept = np.zeros(size)
    card = np.zeros(size, dtype=np.int64)
    for i in range(n):
        bit = 1 << i
        has = (masks & bit) != 0
        kept[has] = kept[masks[has] ^ bit] + sq[i]
        card[has] = card[masks[has] ^ bit] + 1
    pens = pen_vector(cfg, n, nu_eff)
    obj = (total - kept) + (epsilon * epsilon) * pens[card]
    best = obj.min()
    cand = np.flatnonzero(obj == best)
    cand = cand[card[cand] == card[cand].min()]
    indices = min(tuple(i for i in range(n) if (int(m) >> i) & 1) for m in cand)
    return indices, float(best)


def ideal_risk(theta, cfg: PenaltyConfig, epsilon: float,
               nu_eff: float | None = None) -> float:
    """Best penalized trade-off min_k sum_{i>k} theta_(i)^2 + eps^2 pen(k).

    This equals the exhaustive subset minimum of C_eps(J, theta), evaluated
    over sorted |theta|; it is the oracle benchmark of the risk bound.
    """
    theta = _checked_level(theta, epsilon)
    return float(np.min(_penalized_objective(theta, cfg, epsilon, nu_eff)[0]))


@dataclass(frozen=True, eq=False)
class MultiscaleFit:
    """Level-wise penalized fit: one MonoscaleFit per level j0 .. jmax."""

    j0: int
    fits: tuple              # of MonoscaleFit

    @property
    def jmax(self) -> int:
        return self.j0 + len(self.fits) - 1

    def level_estimate(self, j: int) -> np.ndarray:
        require(self.j0 <= j <= self.jmax, f"level {j} outside [{self.j0}, {self.jmax}]")
        return self.fits[j - self.j0].estimate

    def to_json_dict(self) -> dict:
        meta = [{"j": self.j0 + i,
                 "k_hat": f.k_hat,
                 "threshold": None if math.isinf(f.threshold) else f.threshold,
                 "objective": f.objective}
                for i, f in enumerate(self.fits)]
        # "fit_j0" is kept so fit.json keeps its layout; every level is fitted
        return {"j0": self.j0, "fit_j0": self.j0,
                "levels": [f.estimate.tolist() for f in self.fits],
                "per_level": meta}


def fit_multiscale(y: MultiresSequence, cfg: PenaltyConfig, noise: NoiseSpec) -> MultiscaleFit:
    """Apply select_k at every level with eps_j and the nu schedule.

    The penalty beta must equal the noise beta, and the penalty xi1 must
    dominate the noise covariance bound.
    """
    require(cfg.beta == noise.beta,
            f"penalty beta ({cfg.beta}) must match noise beta ({noise.beta})")
    require(cfg.xi1 >= noise.xi1 - 1e-12,
            f"penalty xi1 ({cfg.xi1}) must dominate noise xi1 ({noise.xi1})")
    fits = []
    for j, level in y.iter_levels():
        nu_j = nu_schedule(cfg, noise.epsilon, j)
        fits.append(select_k(level, cfg, noise.epsilon_at(j), nu_j))
    return MultiscaleFit(j0=y.j0, fits=tuple(fits))


def per_level_sse(fit: MultiscaleFit, truth: MultiresSequence) -> np.ndarray:
    """Squared error sum per level."""
    require(fit.j0 == truth.j0 and fit.jmax == truth.jmax,
            f"shape mismatch: fit spans [{fit.j0}, {fit.jmax}], "
            f"truth spans [{truth.j0}, {truth.jmax}]")
    out = np.empty(truth.jmax - truth.j0 + 1)
    for idx, j in enumerate(range(truth.j0, truth.jmax + 1)):
        diff = fit.level_estimate(j) - truth.level(j)
        out[idx] = float(diff @ diff)
    return out


def empirical_risk(fit: MultiscaleFit, truth: MultiresSequence) -> float:
    """Total squared error ||estimate - truth||^2 over the stored levels."""
    return float(per_level_sse(fit, truth).sum())
