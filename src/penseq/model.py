"""Domain types for the multiresolution Gaussian sequence model.

Observations live on dyadic levels j >= j0 with n_j = 2^j coefficients per
level and level noise scale eps_j = epsilon * 2^(beta*j).  The exponent
beta >= 0 measures how strongly an ill-posed operator inflates fine-scale
noise (beta = 0 is direct estimation).  Signal classes are Besov balls of
coefficient sequences, indexed by smoothness alpha, norm index p, fine
index q and radius C.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (NumericalError, ValidationError, all_numbers, as_float, dataclass_kwargs,
                     real_array, require, require_finite, whole)

# Absolute tolerance for detecting the measure-zero critical manifold
# alpha = (2*beta + 1) * (1/p - 1/2).
CRITICAL_ZONE_TOL = 1e-12


class Zone(Enum):
    """Rate regime of a hyper-parameter vector."""

    DENSE = "Dense"
    SPARSE = "Sparse"
    CRITICAL = "Critical"


@dataclass(frozen=True)
class HyperParams:
    """Besov smoothness / ill-posedness parameter vector (alpha, p, q, beta).

    Construction enforces the rate hypotheses: compactness
    alpha > (1/p - 1/2)_+ and, for p < 2, alpha + beta > 1/p.  So every
    instance has a rate zone and a shell exponent a > 0.
    """

    alpha: float
    p: float
    q: float
    beta: float = 0.0

    def __post_init__(self):
        require_finite(self, "alpha", "p", "q", "beta")
        require(self.p > 0, f"p must be > 0, got {self.p}")
        require(self.q > 0, f"q must be > 0, got {self.q}")
        require(self.beta >= 0, f"beta must be >= 0, got {self.beta}")
        require(self.alpha > max(1.0 / self.p - 0.5, 0.0),
                f"compactness requires alpha > (1/p - 1/2)_+; got alpha={self.alpha}, p={self.p}")
        require(self.p >= 2.0 or self.alpha + self.beta > 1.0 / self.p,
                f"hyper-parameters need alpha + beta > 1/p for p < 2; "
                f"got alpha={self.alpha}, beta={self.beta}, p={self.p}")

    @property
    def a(self) -> float:
        """Shell-radius decay exponent a = alpha + 1/2 - 1/p."""
        return self.alpha + 0.5 - 1.0 / self.p

    @classmethod
    def from_dict(cls, d: dict) -> "HyperParams":
        return cls(**dataclass_kwargs(d, cls, "gamma"))


def classify_zone(gamma: HyperParams) -> Zone:
    """Classify a hyper-parameter vector into Dense / Sparse / Critical.

    For p < 2 the zones meet at alpha = (2*beta+1)*(1/p - 1/2); equality is
    detected with absolute tolerance CRITICAL_ZONE_TOL.
    """
    if gamma.p >= 2.0:
        return Zone.DENSE
    gap = gamma.alpha - (2.0 * gamma.beta + 1.0) * (1.0 / gamma.p - 0.5)
    if abs(gap) <= CRITICAL_ZONE_TOL:
        return Zone.CRITICAL
    return Zone.DENSE if gap > 0 else Zone.SPARSE


def _frozen_level(j: int, arr: np.ndarray) -> np.ndarray:
    """arr as level j of a sequence, made read-only; ValidationError unless it
    is a finite vector of 2^j coefficients."""
    require(arr.ndim == 1, f"level {j} must be one-dimensional, got shape {arr.shape}")
    require(arr.size == 2 ** j,
            f"level length mismatch at level {j}: expected {2 ** j}, got {arr.size}")
    require(bool(np.all(np.isfinite(arr))), f"level {j} contains non-finite coefficients")
    arr.flags.writeable = False
    return arr


def _own_copy(lev, name: str) -> np.ndarray:
    """lev as a float64 array that shares no memory with it: real_array's result,
    copied only when that is the caller's own array or a view of it."""
    arr = real_array(lev, name)
    if isinstance(lev, np.ndarray) and np.may_share_memory(arr, lev):
        arr = arr.copy()
    return arr


@dataclass(frozen=True, eq=False)
class MultiresSequence:
    """Ragged coefficient array theta = (theta_j)_{j0 <= j <= jmax}, n_j = 2^j.

    Levels above jmax are implicitly zero.  Instances are immutable: level
    arrays are stored read-only.  The constructor copies the levels it is
    given, so the caller's arrays stay its own; the arrays that zeros, add,
    scale and simulate.make_signal build are adopted as they are, with the
    same checks and no second copy.
    """

    j0: int
    levels: tuple

    def __post_init__(self):
        object.__setattr__(self, "j0", whole(self.j0, "j0", 1))
        require(len(self.levels) >= 1, "at least one level is required")
        object.__setattr__(self, "levels", tuple(
            _frozen_level(j, _own_copy(lev, f"level {j}"))
            for j, lev in enumerate(self.levels, self.j0)))

    @classmethod
    def _adopt(cls, j0: int, levels) -> "MultiresSequence":
        """The sequence with these levels, float64 arrays that the caller has just
        built and shares with no one: checked like the constructor's input and
        made read-only in place, not copied."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "j0", j0)
        object.__setattr__(seq, "levels", tuple(
            _frozen_level(j, arr) for j, arr in enumerate(levels, j0)))
        return seq

    @property
    def jmax(self) -> int:
        return self.j0 + len(self.levels) - 1

    def level(self, j: int) -> np.ndarray:
        require(self.j0 <= j <= self.jmax, f"level {j} outside [{self.j0}, {self.jmax}]")
        return self.levels[j - self.j0]

    def iter_levels(self):
        """Yield (j, coefficients) pairs in increasing j."""
        for offset, arr in enumerate(self.levels):
            yield self.j0 + offset, arr

    @property
    def size(self) -> int:
        return sum(arr.size for arr in self.levels)

    @classmethod
    def zeros(cls, j0: int, jmax: int) -> "MultiresSequence":
        j0 = whole(j0, "j0", 1)
        require(jmax >= j0, f"jmax must be >= j0, got j0={j0}, jmax={jmax}")
        return cls._adopt(j0, [np.zeros(2 ** j) for j in range(j0, jmax + 1)])

    def add(self, other: "MultiresSequence") -> "MultiresSequence":
        require(self.j0 == other.j0 and self.jmax == other.jmax,
                "sequences must share j0 and jmax")
        return self._adopt(self.j0, [a + b for a, b in zip(self.levels, other.levels)])

    def scale(self, c: float) -> "MultiresSequence":
        c = as_float(c, "c")
        return self._adopt(self.j0, [c * a for a in self.levels])

    def to_json(self) -> str:
        return json.dumps({"j0": self.j0, "levels": [arr.tolist() for arr in self.levels]})

    @classmethod
    def from_json(cls, text: str) -> "MultiresSequence":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed sequence JSON: {exc}") from exc
        kwargs = dataclass_kwargs(doc, cls, "sequence")
        require(isinstance(kwargs["levels"], list) and all(
            isinstance(lev, list) and all_numbers(lev)
            for lev in kwargs["levels"]), "levels must be a list of lists of numbers")
        return cls(**kwargs)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-level Gaussian noise description.

    eps_j = epsilon * 2^(beta*j); each level draws z_j ~ N(0, Sigma_j) with
    Sigma_j either the identity or the stationary tridiagonal matrix with
    unit diagonal and off-diagonal rho (positive definite iff |rho| < 1/2).
    xi0 and xi1 bound the eigenvalues of Sigma_j uniformly over levels; they
    default to the exact bounds of the chosen family.

    epsilon = 0 is allowed as the degenerate noiseless case.
    """

    epsilon: float
    beta: float = 0.0
    covariance: str = "identity"
    rho: float = 0.0
    xi0: float | None = None
    xi1: float | None = None

    def __post_init__(self):
        require_finite(self, "epsilon", "beta", "rho")
        require(self.epsilon >= 0, f"epsilon must be >= 0, got {self.epsilon}")
        require(self.beta >= 0, f"beta must be >= 0, got {self.beta}")
        require(self.covariance in ("identity", "tridiagonal"),
                f"covariance must be 'identity' or 'tridiagonal', got {self.covariance!r}")
        if self.covariance == "identity":
            require(self.rho == 0.0, "identity covariance requires rho = 0")
            lo, hi = 1.0, 1.0
        else:
            require(abs(self.rho) < 0.5,
                    f"tridiagonal covariance needs |rho| < 1/2, got rho={self.rho}")
            lo, hi = 1.0 - 2.0 * abs(self.rho), 1.0 + 2.0 * abs(self.rho)
        for name, bound in (("xi0", lo), ("xi1", hi)):    # None: the family's exact bound
            given = getattr(self, name)
            object.__setattr__(self, name, bound if given is None else as_float(given, name))
        xi0, xi1 = self.xi0, self.xi1
        require(xi0 > 0, f"xi0 must be > 0, got {xi0}")
        require(xi1 >= xi0, f"xi1 must be >= xi0, got xi0={xi0}, xi1={xi1}")
        require(xi0 <= lo + 1e-12 and hi <= xi1 + 1e-12,
                f"eigenvalue bounds must satisfy xi0 <= {lo} <= {hi} <= xi1; "
                f"got xi0={xi0}, xi1={xi1}")

    def epsilon_at(self, j: int | float) -> float:
        """Level noise scale eps_j of this noise; see level_noise."""
        return level_noise(self.epsilon, self.beta, j)


def level_noise(epsilon: float, beta: float, j: int | float) -> float:
    """Level noise scale eps_j = epsilon * 2^(beta*j); NumericalError past the float range."""
    try:
        eps_j = epsilon * 2.0 ** (beta * j)
    except OverflowError:
        eps_j = math.inf
    if not math.isfinite(eps_j):
        raise NumericalError(f"level j={j}: eps_j = epsilon * 2^(beta*j) overflows "
                             f"at beta={beta}, epsilon={epsilon}")
    return eps_j


def _lp_norm(x: np.ndarray, p: float) -> tuple:
    """(v, s) with ||x||_p = v * 2^s.  s = 0 while |x|^p, its sum and root stay well
    inside the normal float range; else the one temporary |x| is first scaled in
    place by 2^-s, s the exponent of max|x|, which is exact for p = 1 and p = 2.
    The scaled sum S' lies in [0.5^p, n], but at a small p its root can still
    overflow; only then is S' = m * 2^e split before the root, whose log2 is
    t = (e + log2 m) / p, into 2^(t - i) in [1, 2) and 2^i with i = floor(t)."""
    ax = np.abs(x)                                # the one temporary: powers are taken in place
    s = math.frexp(ax.max())[1]
    if (p + 1.0) * abs(s) + x.size.bit_length() / min(p, 1.0) < 960.0:
        s = 0
    else:
        np.ldexp(ax, -s, out=ax)
    if p == 2.0:
        ax *= ax
        return float(np.sqrt(np.sum(ax))), s
    ax **= p
    total, root = float(np.sum(ax)), 1.0 / p
    try:
        return total ** root, s
    except OverflowError:
        m, e = math.frexp(total)
        t = e * root + math.log2(m) * root
        i = math.floor(t)
        return 2.0 ** (t - i), s + i


def besov_norm(theta: MultiresSequence, gamma: HyperParams) -> float:
    """Weighted level-wise norm ( sum_j 2^(a*q*j) ||theta_j||_p^q )^(1/q).

    The weight exponent a = alpha + 1/2 - 1/p; beta plays no role.  The sum
    runs over the stored levels (levels above jmax are zero by convention).
    Where a level norm or term would leave the normal float range, the sum
    runs instead on level norms m * 2^e, m in [0.5, 1), shifted by one power
    of two; NumericalError names the largest level when the norm overflows.
    """
    a, q = gamma.a, gamma.q
    norms = [(j, *_lp_norm(coeffs, gamma.p)) for j, coeffs in theta.iter_levels()
             if coeffs.any()]                     # an all-zero level adds nothing
    norms = [(j, *math.frexp(v), s) for j, v, s in norms if v > 0.0]     # v = m * 2^e
    total = 0.0
    if all(not s and q * (a * j + abs(e) + 1.0) < 960.0 for j, _, e, s in norms):
        for j, m, e, _ in norms:                  # every weight, power and term a normal float
            total += 2.0 ** (a * q * j) * math.ldexp(m, e) ** q
        return total ** (1.0 / q)
    shifts = [math.ceil(a * j) + e + s for j, _, e, s in norms]
    t = max(shifts)
    for j, m, e, s in norms:                      # each term below 1, the largest above 4^-q
        total += (m * 2.0 ** (a * j - (t - e - s))) ** q
    try:
        return math.ldexp(total ** (1.0 / q), t)
    except OverflowError:
        raise NumericalError(f"level j={norms[shifts.index(t)][0]}: the Besov norm, at least "
                             f"2^(a*j) * ||theta_j||_p, overflows at alpha={gamma.alpha}, "
                             f"p={gamma.p}") from None


def shell_radius(gamma: HyperParams, C: float, j: int | float) -> float:
    """Radius C_j = C * 2^(-a*j) of the level-j shell of the ball of radius C.

    besov_norm(theta, gamma) <= C implies ||theta_j||_p <= C_j for every j.
    """
    return C * 2.0 ** (-gamma.a * j)
