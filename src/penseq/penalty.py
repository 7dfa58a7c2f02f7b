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

Everything here runs on numpy and the standard library alone.  The
complexity sums (m_prime, m_prime_many) take log k! and a row-wise
log-sum-exp from step-for-step ports of SciPy's gammaln (Cephes lgam) and
logsumexp, which give SciPy's floats bit for bit.  Their bound constant
(m_prime_bound_constant) sums its series in one loop, each term divided by
the largest, so only the final product can leave the float range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, as_float, dataclass_kwargs, require, require_finite, whole

# Up to this beta, (1+2*beta) times a log below 1.5e3 (of nu, n or k) times a
# term index below 2^30 stays inside the float range, as the complexity sums
# and their bound constant need
_BETA_MAX = 1e290


@dataclass(frozen=True)
class PenaltyConfig:
    """Parameters (zeta, nu, beta, xi1, jeps_scale) of the penalty family.

    nu defaults to 40 = 2/0.05, after a false-discovery-rate level of 0.05;
    it is not calibrated to that level: with the default zeta = 2, noise-only
    and sparse-spike draws at eps = 1 (n = 64 to 16,384) gave no false
    discovery at all (ROADMAP item 6).  Construction requires only nu > 1
    (log terms positive) and 0 <= beta <= 1e290; the stronger condition
    nu > e^(1/(1+2*beta)) is what makes the complexity sums summable and is
    enforced where those are computed (see :func:`_summable_ratio`).
    ``key`` is the tuple of field values: the per-level caches key on it, so
    a lookup hashes and compares floats, not the config.
    """

    zeta: float = 2.0
    nu: float = 40.0
    beta: float = 0.0
    xi1: float = 1.0
    jeps_scale: float = 1.0

    def __post_init__(self):
        require_finite(self, "zeta", "nu", "beta", "xi1", "jeps_scale")
        require(self.zeta > 1, f"zeta must be > 1, got {self.zeta}")
        require(0 <= self.beta <= _BETA_MAX,
                f"beta must lie in [0, {_BETA_MAX:g}], got {self.beta}")
        require(self.xi1 > 0, f"xi1 must be > 0, got {self.xi1}")
        require(self.jeps_scale >= 1, f"jeps_scale must be >= 1, got {self.jeps_scale}")
        require(self.nu > 1.0, f"nu must be > 1, got {self.nu}")
        object.__setattr__(self, "key",
                           (self.zeta, self.nu, self.beta, self.xi1, self.jeps_scale))

    @property
    def nu_floor(self) -> float:
        """Summability floor e^(1/(1+2*beta)) for the complexity sums."""
        return math.exp(1.0 / (1.0 + 2.0 * self.beta))

    def j_eps(self, epsilon: float) -> float:
        """Working depth j_eps = jeps_scale * log2(eps^-2), for 0 < epsilon < 1."""
        return self.jeps_scale * 2.0 * math.log2(1.0 / epsilon)

    @classmethod
    def from_dict(cls, d: dict) -> "PenaltyConfig":
        return cls(**dataclass_kwargs(d, cls, "penalty"))


def _resolve_nu(cfg: PenaltyConfig, nu_eff: float | None) -> float:
    if nu_eff is None:
        return cfg.nu
    if type(nu_eff) is not float or not cfg.nu <= nu_eff < math.inf:   # else the fast path
        nu_eff = as_float(nu_eff, "nu_eff")
        require(nu_eff >= cfg.nu, f"nu_eff must be >= nu = {cfg.nu}, got {nu_eff}")
    return nu_eff


def pen_vector(cfg: PenaltyConfig, n: int, nu_eff: float | None = None) -> np.ndarray:
    """Vector [pen(0), pen(1), ..., pen(n)] for a single level of size n.

    pen(0) = 0 and, for 1 <= k <= n, pen(k) = xi1 * zeta * k * (1 + sqrt(2 L_{n,k}))^2.
    Computed once per (cfg, n, nu_eff) and shared between callers, so the
    returned array is read-only and cannot be made writable.  The estimator
    asks for it only on a level with a coefficient above its floor eps * t_n;
    see _level_record.
    """
    if type(n) is not int or n < 1:               # else the fast path
        n = whole(n, "n", 1)
    return _pen_vector(cfg.key, n, _resolve_nu(cfg, nu_eff))


def _penalties(key: tuple, n: int, nu: float, k: np.ndarray) -> np.ndarray:
    """pen(k) at a level of size n for the sizes k >= 1: the one evaluator of the
    penalty formula.  It acts elementwise, so pen(k) has the same bits whichever
    other sizes share the array."""
    zeta, _, beta, xi1, _ = key
    L = (1.0 + 2.0 * beta) * (math.log(nu) + math.log(n) - np.log(k))
    return xi1 * zeta * k * (1.0 + np.sqrt(2.0 * L)) ** 2


def _read_only_view(arr: np.ndarray) -> np.ndarray:
    """A view of arr, made read-only, that no caller can make writable: numpy
    refuses setflags(write=True) on a view whose base is read-only."""
    arr.flags.writeable = False
    return arr[:]


@functools.lru_cache(maxsize=128)
def _pen_vector(key: tuple, n: int, nu: float) -> np.ndarray:
    return _read_only_view(
        np.concatenate(([0.0], _penalties(key, n, nu, np.arange(1, n + 1, dtype=float)))))


_FLOAT_MAX = float(np.finfo(float).max)


@functools.lru_cache(maxsize=128)
def _level_record(key: tuple, n: int, nu: float) -> tuple:
    """(t_n, pen(n), limit) of a level of size n: the smallest threshold
    sqrt(pen(n) - pen(n-1)) (0 where pen is not increasing at n), pen(n), both the
    bits of pen_vector's last entries without building it, and the largest max|y|
    whose sum of squares over n coefficients stays finite."""
    last = _penalties(key, n, nu, np.arange(max(n - 1, 1), n + 1, dtype=float))
    top = float(last[-1])
    step = top - (float(last[0]) if n > 1 else 0.0)   # t_n^2
    return (math.sqrt(step) if step > 0.0 else 0.0), top, math.sqrt(_FLOAT_MAX / (2 * n))


def nu_schedule(cfg: PenaltyConfig, epsilon: float, j: int) -> float:
    """Level-dependent nu: constant up to j_eps, quadratic growth beyond.

    j_eps = jeps_scale * log2(eps^-2) is real-valued; epsilon = 0 gives
    j_eps = +inf (schedule identically nu).
    """
    epsilon = as_float(epsilon, "epsilon")
    require(as_float(j, "j") >= 1, f"j must be >= 1, got {j}")
    require(0 <= epsilon < 1,
            f"epsilon must lie in [0, 1) for the schedule, got {epsilon}")
    if epsilon == 0.0:
        return cfg.nu
    j_eps = cfg.j_eps(epsilon)
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
_BLOCK_TERMS = 1 << 20


def _summable_ratio(cfg: PenaltyConfig, nu: float) -> tuple:
    """(r0, log r0) for r0 = e / nu^(1+2*beta), the ratio by which the terms
    of M'_n and of its bound constant decay.

    ValidationError unless nu > e^(1/(1+2*beta)), the summability condition of
    both sums; a few ulps above that floor r0 can still round to 1, so r0 < 1
    is part of the check.  log r0 comes from 1 - (1+2*beta)*log(nu) where
    nu^(1+2*beta) overflows.
    """
    b = 1.0 + 2.0 * cfg.beta
    try:
        r0 = math.e / nu ** b
        log_r0 = math.log(r0)
    except OverflowError:
        log_r0 = 1.0 - b * math.log(nu)
        r0 = math.exp(log_r0)
    require(nu > cfg.nu_floor and r0 < 1.0,
            f"complexity sums need nu > e^(1/(1+2*beta)) = {cfg.nu_floor:.6f}, got {nu}")
    return r0, log_r0


def _certified_k(cfg: PenaltyConfig, nu: float, log_t1: float, n_max: float) -> int:
    # Smallest K with r0^(K+1)/(1-r0) < 1e-18 * exp(log_t1); capped at n_max.
    r0, log_r0 = _summable_ratio(cfg, nu)
    target = math.log(1e-18) + log_t1 + math.log1p(-r0)
    k_cert = max(1, int(math.ceil(target / log_r0)))
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
        log_fact = _lgam(ks + 1.0)                 # SciPy's gammaln(ks + 1), ported
        # rows are independent: a block of them holds about 2^20 terms at a time
        rows = max(1, _BLOCK_TERMS // K)
        for lo in range(0, chunk.size, rows):
            block = chunk[lo:lo + rows]
            valid = ks[None, :] <= block[:, None]
            # log binom(n, k) = sum_{i<k} log(n - i) - log k!, stable for huge n
            diffs = block[:, None] - (ks[None, :] - 1.0)
            log_binom = np.cumsum(np.log(np.where(valid, diffs, 1.0)), axis=1) \
                - log_fact[None, :]
            log_terms = log_binom - ks[None, :] * b * (
                log_nu + np.log(block)[:, None] - np.log(ks)[None, :])
            log_terms = np.where(valid, log_terms, -np.inf)
            # SciPy's logsumexp(log_terms, axis=1), ported
            out[start + lo:start + lo + block.size] = _logsumexp_rows(log_terms)
    return out


# Cephes lgam, which is SciPy's gammaln, at integers x >= 13: Stirling's
# series, with a correction term up to x = 1e8
_LS2PI = 0.91893853320467274178                 # log(sqrt(2*pi))
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LOG_SMALL_FACTORIALS = np.array([math.log(math.factorial(k)) for k in range(12)])


def _lgam(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) at integers x >= 2, the same floats as scipy.special.gammaln.

    A port of Cephes lgam: below x = 13 the log of the exact factorial (x-1)!,
    above it Stirling's series.  Every log is libm's (math.log), as in Cephes;
    numpy's vectorised log differs from it in the last bit at some integers.
    numpy's separate products and sums round as the C code does.
    """
    log_x = np.fromiter(map(math.log, x.tolist()), float, x.size)
    q = (x - 0.5) * log_x - x + _LS2PI
    p = 1.0 / (x * x)
    poly = np.full(x.size, _LGAM_A[0])          # Cephes polevl(p, A, 4)
    for a in _LGAM_A[1:]:
        poly = poly * p + a
    three = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
             + 0.0833333333333333333333)
    q += np.where(x < 1000.0, poly, np.where(x <= 1e8, three, 0.0)) / x
    small = x < 13.0
    q[small] = _LOG_SMALL_FACTORIALS[x[small].astype(int) - 1]
    return q


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)), the same floats as scipy.special.logsumexp.

    SciPy's steps for real input whose rows each hold a finite maximum: the
    maxima are taken out of the sum and counted, so
    out = log1p(sum(exp(a - max)) / count) + log(count) + max.  a is a
    temporary and is overwritten.
    """
    a_max = a.max(axis=1, keepdims=True)
    top = a == a_max
    m = top.sum(axis=1, keepdims=True, dtype=float)
    a[top] = -np.inf
    s = np.exp(a - a_max).sum(axis=1, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return (np.log1p(s) + np.log(m) + a_max)[:, 0]


def m_prime(cfg: PenaltyConfig, n: int | float, nu_eff: float | None = None) -> float:
    """Complexity sum M'_n over all nonempty coordinate subsets of 1..n.

    Subsets of equal size share the same log-term, so the 2^n-term sum
    collapses to n binomial terms evaluated in log space.  n may be a large
    real quantity (levels n_j = 2^j with j beyond integer-index range).
    """
    return float(m_prime_many(cfg, [as_float(n, "n")], nu_eff)[0])


def m_prime_many(cfg: PenaltyConfig, ns, nu_eff: float | None = None) -> np.ndarray:
    """Vectorized M'_n over an array of sizes (shared nu_eff)."""
    return np.exp(_checked_m_prime_log(cfg, ns, nu_eff))


def _checked_m_prime_log(cfg: PenaltyConfig, ns, nu_eff: float | None) -> np.ndarray:
    # log M'_n after m_prime_many's checks: finite where M'_n underflows to 0;
    # _certified_k checks nu against the summability condition
    if not (isinstance(ns, np.ndarray) and ns.dtype.kind in "fiu"):
        # each size meets the number rule; a float or integer array holds numbers only
        require(isinstance(ns, (list, tuple, np.ndarray)),
                f"ns must be a sequence of sizes, got {ns!r}")
        ns = [as_float(n, "ns") for n in ns]
    arr = np.asarray(ns, dtype=float)
    require(arr.ndim == 1 and arr.size >= 1, "ns must be a non-empty 1-d array")
    require(bool(np.all(arr >= 1)), f"ns must hold sizes >= 1, got {float(arr.min())}")
    require(bool(np.all(arr < math.inf)), f"ns must hold finite sizes, got {float(arr.max())}")
    return _m_prime_log(cfg, arr, _resolve_nu(cfg, nu_eff))


def m_prime_bound_constant(beta: float, nu: float) -> float:
    """Constant C_beta with M'_n <= C_beta * n^(-2*beta) / nu.

    C_beta = sum_{k>=1} k^(2*beta) * (e / sqrt(2*pi*k)) * (e / nu^(1+2*beta))^(k-1).
    One loop sums the terms divided by the largest, exp(log-term - top), in
    blocks; it stops once, past the peak, the geometric tail bound drops below
    1e-15 of the partial sum.  NumericalError where C_beta leaves the float
    range or needs more than 2^30 terms.  beta and nu are checked as
    PenaltyConfig's fields, and by the summability condition of M'_n.
    """
    cfg = PenaltyConfig(beta=beta, nu=nu)
    beta, nu = float(cfg.beta), float(cfg.nu)
    _, log_r0 = _summable_ratio(cfg, nu)
    c = 2.0 * beta - 0.5
    # the log-term c*log(k) + (k-1)*log(r0) is concave and peaks at k = c / -log(r0),
    # so its largest value at an integer k >= 1, top, is at one of the two beside it
    k_peak = max(c / -log_r0, 1.0)
    top = max(c * math.log(k) + (k - 1.0) * log_r0
              for k in (math.floor(k_peak), math.ceil(k_peak)))
    total, k0, block = 0.0, 1, 16      # blocks double up to 2^20 terms
    while True:
        if max(k0, k_peak) > _MAX_TERMS * 256:
            raise NumericalError(
                f"bound-constant series did not converge (beta={beta!r}, nu={nu!r})")
        ks = np.arange(k0, k0 + block, dtype=float)
        terms = np.exp(c * np.log(ks) + (ks - 1.0) * log_r0 - top)
        total += float(np.sum(terms))
        k_last = k0 + block - 1
        if k_last >= k_peak:
            # past the peak, the ratio of consecutive terms beyond k_last is at most q
            q = math.exp(log_r0 + max(c, 0.0) * math.log1p(1.0 / k_last))
            if q < 1.0 and terms[-1] * q / (1.0 - q) < 1e-15 * total:
                break
        k0 += block
        block = min(2 * block, _BLOCK_TERMS)
    try:
        return math.exp(math.log(math.e / math.sqrt(2.0 * math.pi)) + top + math.log(total))
    except OverflowError:
        raise NumericalError(f"bound constant overflows at beta={beta!r}, nu={nu!r}") from None
