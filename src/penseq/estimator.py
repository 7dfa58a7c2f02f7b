"""Penalized least-squares estimation by order-statistic model selection.

At one level the estimator minimizes ||y - theta||^2 + eps^2 * pen(N(theta))
over all theta, which reduces to choosing the number k_hat of retained order
statistics and hard thresholding at eps * t_{k_hat}.  The multiscale fit
applies the monoscale rule level by level with noise eps_j = eps * 2^(beta*j)
and the nu schedule from the penalty module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, require
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
    The fit takes ownership of the estimate array it is given and makes it
    read-only.
    """

    k_hat: int
    threshold: float
    estimate: np.ndarray
    objective: float

    def __post_init__(self):
        est = np.asarray(self.estimate, dtype=float)
        est.setflags(write=False)
        object.__setattr__(self, "estimate", est)


def _penalized_objective(a: np.ndarray, pens: np.ndarray, epsilon: float) -> np.ndarray:
    """obj[k] = sum_{i>k} a_(i)^2 + eps^2 * pen(k), k = 0..n, for a = |v|."""
    sq = a * a
    sq.sort()                                     # ascending squares, as squaring is monotone
    obj = np.zeros(sq.size + 1)
    np.add.accumulate(sq[::-1], out=obj[1:])      # running sums of the descending squares
    np.subtract(obj[-1], obj, out=obj)            # obj[k] = sum_{i>k} |v|_(i)^2
    obj += (epsilon * epsilon) * pens
    return obj


_FLOAT_MAX = float(np.finfo(float).max)


def _checked_level(y, cfg: PenaltyConfig, epsilon: float, nu_eff: float | None):
    """(y, |y|, pen_vector) of one level; the input check of every single-level
    entry point.  It runs per level of every replicate: messages are built on failure."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise ValidationError(f"y must be a non-empty vector, got shape {y.shape}")
    a = np.abs(y)
    peak = float(a[a.argmax()])                   # nan if any entry is nan
    if not math.isfinite(peak):
        raise ValidationError("y contains non-finite values")
    if not (math.isfinite(float(epsilon)) and epsilon >= 0):
        raise ValidationError(f"epsilon must be finite and >= 0, got {epsilon}")
    # checked before anything is squared: above the limit the sum of squares overflows
    limit = math.sqrt(_FLOAT_MAX / (2 * y.size))
    if peak > limit:
        raise NumericalError(
            f"max|y| = {peak!r} exceeds {limit!r} at n={y.size}; its sum of squares overflows")
    pens = pen_vector(cfg, y.size, nu_eff)
    if not math.isfinite(float(epsilon) * float(epsilon) * float(pens[-1])):
        raise NumericalError(f"epsilon = {epsilon!r} at n={y.size}: eps^2 * pen(n) overflows")
    return y, a, pens


def select_k(y, cfg: PenaltyConfig, epsilon: float,
             nu_eff: float | None = None) -> MonoscaleFit:
    """Minimize sum_{i>k} |y|_(i)^2 + eps^2 * pen(k) over k = 0..n.

    Ties in the objective resolve to the smallest k.  The fitted vector is
    hard thresholding of y at eps * t_{k_hat}.
    """
    y, a, pens = _checked_level(y, cfg, epsilon, nu_eff)
    obj = _penalized_objective(a, pens, epsilon)
    k_hat = int(obj.argmin())                     # first minimum = smallest k
    if k_hat == 0:
        return MonoscaleFit(0, math.inf, np.zeros(y.size), float(obj[0]))
    step = pens[k_hat] - pens[k_hat - 1]
    if step < 0.0:
        # happens only for nu so close to 1 that pen loses monotonicity
        nu = cfg.nu if nu_eff is None else nu_eff
        raise NumericalError(
            f"penalty not increasing at k={k_hat} (n={y.size}, nu_eff={nu}); "
            "nu_eff is too small for the hard-threshold representation")
    threshold = epsilon * math.sqrt(step)
    return MonoscaleFit(k_hat=k_hat, threshold=threshold,
                        estimate=np.where(a > threshold, y, 0.0), objective=float(obj[k_hat]))


_SUBSET_ORACLE_MAX_N = 20


@functools.lru_cache(maxsize=_SUBSET_ORACLE_MAX_N + 1)
def _cardinalities(n: int) -> np.ndarray:
    """card[m] = number of set bits of m, for every mask m < 2^n (read-only)."""
    card = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        half = 1 << i
        np.add(card[:half], 1, out=card[half:2 * half])
    card.flags.writeable = False
    return card


def subset_oracle(y, cfg: PenaltyConfig, epsilon: float,
                  nu_eff: float | None = None):
    """Exhaustive minimizer of C_eps(J, y) = sum_{i not in J} y_i^2 + eps^2 pen(|J|).

    Enumerates all 2^n coordinate subsets (n <= 20).  Ties resolve to the
    minimal objective, then minimal cardinality, then the lexicographically
    smallest index set.  Returns (indices, objective).
    """
    y, _, pens = _checked_level(y, cfg, epsilon, nu_eff)
    require(y.size <= _SUBSET_ORACLE_MAX_N,
            f"exhaustive search supports n <= {_SUBSET_ORACLE_MAX_N}, got n = {y.size}")
    n = y.size
    sq = y * y
    total = float(sq.sum())
    # kept[m] = sum of sq[i] over the bits i of m, added in ascending i: the
    # masks with top bit i are those below 2^i with sq[i] added
    kept = np.empty(1 << n)
    kept[0] = 0.0
    for i in range(n):
        half = 1 << i
        np.add(kept[:half], sq[i], out=kept[half:2 * half])
    card = _cardinalities(n)
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
    _, a, pens = _checked_level(theta, cfg, epsilon, nu_eff)
    return float(np.min(_penalized_objective(a, pens, epsilon)))


@dataclass(frozen=True, eq=False)
class MultiscaleFit:
    """Level-wise penalized fit: one MonoscaleFit per level j0 .. jmax."""

    j0: int
    fits: tuple              # of MonoscaleFit

    @property
    def jmax(self) -> int:
        return self.j0 + len(self.fits) - 1

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


def _level_schedule(cfg: PenaltyConfig, noise: NoiseSpec, j0: int, jmax: int) -> list:
    """[(j, eps_j, nu_j)] for j = j0..jmax, once the penalty is checked against the noise."""
    require(cfg.beta == noise.beta,
            f"penalty beta ({cfg.beta}) must match noise beta ({noise.beta})")
    require(cfg.xi1 >= noise.xi1 - 1e-12,
            f"penalty xi1 ({cfg.xi1}) must dominate noise xi1 ({noise.xi1})")
    return [(j, noise.epsilon_at(j), nu_schedule(cfg, noise.epsilon, j))
            for j in range(j0, jmax + 1)]


def _fit_level(j: int, level, cfg: PenaltyConfig, eps_j: float, nu_j: float) -> MonoscaleFit:
    """select_k on level j; a NumericalError names the level."""
    try:
        return select_k(level, cfg, eps_j, nu_j)
    except NumericalError as err:
        raise NumericalError(f"level j={j}: {err}") from err


def fit_multiscale(y: MultiresSequence, cfg: PenaltyConfig, noise: NoiseSpec) -> MultiscaleFit:
    """Apply select_k at every level with eps_j and the nu schedule.

    The penalty beta must equal the noise beta, and the penalty xi1 must
    dominate the noise covariance bound.
    """
    schedule = zip(_level_schedule(cfg, noise, y.j0, y.jmax), y.levels)
    return MultiscaleFit(j0=y.j0, fits=tuple(_fit_level(j, level, cfg, eps_j, nu_j)
                                             for (j, eps_j, nu_j), level in schedule))


def per_level_sse(fit: MultiscaleFit, truth: MultiresSequence) -> np.ndarray:
    """Squared error sum per level."""
    require(fit.j0 == truth.j0 and fit.jmax == truth.jmax,
            f"shape mismatch: fit spans [{fit.j0}, {fit.jmax}], "
            f"truth spans [{truth.j0}, {truth.jmax}]")
    diffs = (f.estimate - theta_j for f, theta_j in zip(fit.fits, truth.levels))
    return np.array([float(d @ d) for d in diffs])

