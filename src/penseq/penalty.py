"""Complexity penalty family, per-level thresholds and complexity sums.

The penalty charged for keeping k of n coordinates is

    pen(k) = xi1 * zeta * k * (1 + sqrt(2 * L_{n,k}))^2,
    L_{n,k} = (1 + 2*beta) * log(nu_eff * n / k),

with zeta > 1 and nu_eff >= nu > e^(1/(1+2*beta)).  Equivalently
pen(k) = k * lambda_{n,k}^2 with lambda_{n,k} = sqrt(xi1*zeta) * (1 + sqrt(2 L_{n,k})),
and the data-dependent hard threshold satisfies t_k^2 = pen(k) - pen(k-1).

The schedule nu_schedule inflates nu quadratically above the working depth
j_eps = jeps_scale * log2(eps^-2) so that the complexity remainder stays
summable over levels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import NumericalError, dataclass_kwargs, require, require_finite


@dataclass(frozen=True)
class PenaltyConfig:
    """Parameters (zeta, nu, beta, xi1, jeps_scale) of the penalty family.

    nu defaults to 40 = 2/0.05, the false-discovery-rate calibration at
    level 0.05 for direct estimation.  Construction requires only nu > 1
    (log terms positive); the stronger condition nu > e^(1/(1+2*beta)) is
    what makes the complexity sums summable and is enforced where those are
    computed (see :func:`require_complexity_condition`).
    """

    zeta: float = 2.0
    nu: float = 40.0
    beta: float = 0.0
    xi1: float = 1.0
    jeps_scale: float = 1.0

    def __post_init__(self):
        require_finite(self, "zeta", "nu", "beta", "xi1", "jeps_scale")
        require(self.zeta > 1, f"zeta must be > 1, got {self.zeta}")
        require(self.beta >= 0, f"beta must be >= 0, got {self.beta}")
        require(self.xi1 > 0, f"xi1 must be > 0, got {self.xi1}")
        require(self.jeps_scale >= 1, f"jeps_scale must be >= 1, got {self.jeps_scale}")
        require(self.nu > 1.0, f"nu must be > 1, got {self.nu}")

    @property
    def nu_floor(self) -> float:
        """Summability floor e^(1/(1+2*beta)) for the complexity sums."""
        return math.exp(1.0 / (1.0 + 2.0 * self.beta))

    @classmethod
    def from_dict(cls, d: dict) -> "PenaltyConfig":
        return cls(**dataclass_kwargs(d, cls, "penalty"))


def _resolve_nu(cfg: PenaltyConfig, nu_eff: float | None) -> float:
    if nu_eff is None:
        return cfg.nu
    require(nu_eff >= cfg.nu, f"nu_eff must be >= nu = {cfg.nu}, got {nu_eff}")
    return float(nu_eff)


def require_complexity_condition(cfg: PenaltyConfig, nu: float) -> None:
    """Enforce nu > e^(1/(1+2*beta)), without which M'_n is not summable."""
    require(nu > cfg.nu_floor,
            f"complexity sums need nu > e^(1/(1+2*beta)) = {cfg.nu_floor:.6f}, got {nu}")


@functools.lru_cache(maxsize=128)
def pen_vector(cfg: PenaltyConfig, n: int, nu_eff: float | None = None) -> np.ndarray:
    """Vector [pen(0), pen(1), ..., pen(n)] for a single level of size n.

    The one evaluator of the penalty formula: pen(0) = 0 and, for 1 <= k <= n,
    pen(k) = xi1 * zeta * k * (1 + sqrt(2 L_{n,k}))^2.  Computed once per
    (cfg, n, nu_eff) and shared between callers, so the returned array is
    read-only.
    """
    nu = _resolve_nu(cfg, nu_eff)
    require(n >= 1, f"n must be >= 1, got {n}")
    k = np.arange(1, n + 1, dtype=float)
    L = (1.0 + 2.0 * cfg.beta) * (math.log(nu) + math.log(n) - np.log(k))
    out = np.concatenate(([0.0], cfg.xi1 * cfg.zeta * k * (1.0 + np.sqrt(2.0 * L)) ** 2))
    out.flags.writeable = False
    return out


def nu_schedule(cfg: PenaltyConfig, epsilon: float, j: int) -> float:
    """Level-dependent nu: constant up to j_eps, quadratic growth beyond.

    j_eps = jeps_scale * log2(eps^-2) is real-valued; epsilon = 0 gives
    j_eps = +inf (schedule identically nu).
    """
    require(j >= 1, f"j must be >= 1, got {j}")
    require(0 <= epsilon < 1,
            f"epsilon must lie in [0, 1) for the schedule, got {epsilon}")
    if epsilon == 0.0:
        return cfg.nu
    j_eps = cfg.jeps_scale * 2.0 * math.log2(1.0 / epsilon)
    if j <= j_eps:
        return cfg.nu
    return cfg.nu * (1.0 + (j - j_eps)) ** 2


# -- complexity sums ---------------------------------------------------------
#
# M'_n = sum_{k=1}^n binom(n,k) * exp(-k * L_{n,k})
#      = sum_{k=1}^n binom(n,k) * (k / (nu_eff * n))^(k*(1+2*beta)).
#
# Terms are dominated by r0^k / sqrt(2*pi*k) with r0 = e / nu_eff^(1+2*beta)
# (< 1 whenever the config is valid), so the sum over k > K is at most
# r0^(K+1) / (1 - r0).  The summation below truncates only once that bound
# falls below 1e-18 of a lower bound on the total, i.e. the returned value
# equals the exact finite sum to double precision.

_CHUNK_ROWS = 4096
_MAX_TERMS = 1 << 22


def _certified_k(cfg: PenaltyConfig, nu: float, log_t1: float, n_max: float) -> int:
    # Smallest K with r0^(K+1)/(1-r0) < 1e-18 * exp(log_t1); capped at n_max.
    r0 = math.e / nu ** (1.0 + 2.0 * cfg.beta)
    target = math.log(1e-18) + log_t1 + math.log1p(-r0)
    k_cert = max(1, int(math.ceil(target / math.log(r0))))
    if n_max <= k_cert:
        return int(n_max)
    if k_cert > _MAX_TERMS:
        raise NumericalError(
            f"complexity sum at n={n_max:.17g}, nu={nu!r}, beta={cfg.beta!r} needs "
            f"{k_cert} certified terms (nu too close to its floor {cfg.nu_floor!r})")
    return k_cert


def _m_prime_log(cfg: PenaltyConfig, ns: np.ndarray, nu: float) -> np.ndarray:
    b = 1.0 + 2.0 * cfg.beta
    log_nu = math.log(nu)
    out = np.empty(ns.size)
    for start in range(0, ns.size, _CHUNK_ROWS):
        chunk = ns[start:start + _CHUNK_ROWS]
        n_max = float(chunk.max())
        # t_1 = n^(-2*beta) * nu^(-(1+2*beta)) lower-bounds every row sum
        log_t1_min = float((-2.0 * cfg.beta) * np.log(chunk).max() - b * log_nu) \
            if cfg.beta > 0 else -b * log_nu
        K = _certified_k(cfg, nu, log_t1_min, n_max)
        ks = np.arange(1, K + 1, dtype=float)
        valid = ks[None, :] <= chunk[:, None]
        # log binom(n, k) = sum_{i<k} log(n - i) - log k!, stable for huge n
        diffs = chunk[:, None] - (ks[None, :] - 1.0)
        log_binom = np.cumsum(np.log(np.where(valid, diffs, 1.0)), axis=1) \
            - gammaln(ks + 1.0)[None, :]
        log_terms = log_binom - ks[None, :] * b * (
            log_nu + np.log(chunk)[:, None] - np.log(ks)[None, :])
        log_terms = np.where(valid, log_terms, -np.inf)
        out[start:start + _CHUNK_ROWS] = logsumexp(log_terms, axis=1)
    return out


def m_prime(cfg: PenaltyConfig, n: int | float, nu_eff: float | None = None) -> float:
    """Complexity sum M'_n over all nonempty coordinate subsets of 1..n.

    Subsets of equal size share the same log-term, so the 2^n-term sum
    collapses to n binomial terms evaluated in log space.  n may be a large
    real quantity (levels n_j = 2^j with j beyond integer-index range).
    """
    return float(m_prime_many(cfg, [n], nu_eff)[0])


def m_prime_many(cfg: PenaltyConfig, ns, nu_eff: float | None = None) -> np.ndarray:
    """Vectorized M'_n over an array of sizes (shared nu_eff)."""
    arr = np.asarray(ns, dtype=float)
    require(arr.ndim == 1 and arr.size >= 1, "ns must be a non-empty 1-d array")
    require(bool(np.all(arr >= 1)), f"all sizes must be >= 1, got {float(arr.min())}")
    nu = _resolve_nu(cfg, nu_eff)
    require_complexity_condition(cfg, nu)
    return np.exp(_m_prime_log(cfg, arr, nu))


def m_prime_bound_constant(beta: float, nu: float) -> float:
    """Constant C_beta with M'_n <= C_beta * n^(-2*beta) / nu.

    C_beta = sum_{k>=1} k^(2*beta) * (e / sqrt(2*pi*k)) * (e / nu^(1+2*beta))^(k-1),
    summed until the geometric tail bound drops below 1e-15 of the partial sum.
    """
    require(beta >= 0, f"beta must be >= 0, got {beta}")
    b = 1.0 + 2.0 * beta
    r0 = math.e / nu ** b
    require(r0 < 1.0,
            f"series diverges: nu must exceed e^(1/(1+2*beta)) = {math.exp(1.0 / b):.6f}")
    c = 2.0 * beta - 0.5
    coef = math.e / math.sqrt(2.0 * math.pi)
    total = 0.0
    k0 = 1
    block = 1 << 20
    while True:
        ks = np.arange(k0, k0 + block, dtype=float)
        total += float(np.sum(coef * ks ** c * r0 ** (ks - 1.0)))
        k_last = k0 + block - 1
        # ratio of consecutive terms is at most q beyond k_last
        q = r0 * ((k_last + 1.0) / k_last) ** max(c, 0.0)
        last = coef * k_last ** c * r0 ** (k_last - 1.0)
        if q < 1.0 and last * q / (1.0 - q) < 1e-15 * total:
            return total
        k0 += block
        if k0 > _MAX_TERMS * 256:
            raise NumericalError(
                f"bound-constant series did not converge (beta={beta!r}, nu={nu!r})")
