"""Penalized least-squares estimation by order-statistic model selection.

At one level the estimator minimizes ||y - theta||^2 + eps^2 * pen(N(theta))
over all theta, which reduces to choosing the number k_hat of retained order
statistics and hard thresholding at eps * t_{k_hat}.  The multiscale fit
applies the monoscale rule level by level with noise eps_j = eps * 2^(beta*j)
and the nu schedule from the penalty module.

The objective sum_{i>k} |y|_(i)^2 + eps^2 * pen(k) is formed without
subtraction: coefficients with |y| <= eps * t_n can never be kept (t_k^2 =
pen(k) - pen(k-1) never falls below t_n^2), so their squares are summed once,
and only the coefficients above that floor are sorted and their squares
added to that sum smallest first.  A huge coefficient therefore cannot wash
out the small squares.  A level where nothing clears the floor is not sorted
at all, and it forms no |y| and no pen(0..n): its maximum comes from argmax
and argmin, its objective is y @ y, and the floor needs only t_n and pen(n).
The floor is this module's alone: _checked_level decides it for every entry
point, and _null_floor gives it, with the overflow limit, to the Monte Carlo
loop, which leaves undrawn the noise select_k would drop.
A level of at most _SMALL_LEVEL coefficients where one clears the floor is
fitted on Python floats, where numpy's fixed cost per call would dominate; it
runs the array kernel's operations in the same order, so every bit of its
fit is the same.  Every fit that keeps nothing at one n shares one estimate,
a zero vector that cannot be made writable, so it allocates nothing of the
level's size.  subset_oracle enumerates a level of at most _SMALL_ORACLE
coordinates on Python floats in the same way, with the same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, as_float, real_array, require
from .model import MultiresSequence, NoiseSpec
from .penalty import (PenaltyConfig, _level_record, _pen_vector, _read_only_view, _resolve_nu,
                      nu_schedule)

_FLOAT = np.dtype(float)


def oracle_constant(zeta: float) -> float:
    """Constant D(zeta) = 2*zeta*(zeta+1)^3 / (zeta-1)^3 of the oracle inequality."""
    zeta = as_float(zeta, "zeta")
    require(zeta > 1, f"zeta must be > 1, got {zeta}")
    return 2.0 * zeta * (zeta + 1.0) ** 3 / (zeta - 1.0) ** 3


@dataclass(frozen=True, eq=False, init=False)
class MonoscaleFit:
    """Result of the penalized fit on one level.

    threshold is on the data scale (eps * t_{k_hat}); it is +inf when
    k_hat = 0, i.e. nothing is kept.  estimate keeps y_i iff |y_i| > threshold
    (strict), so with no ties at the boundary it has exactly k_hat nonzeros.
    The fit takes ownership of the estimate array it is given and makes it
    read-only.  Every fit with k_hat = 0 at one n shares one estimate, a zero
    vector that cannot be made writable.
    """

    k_hat: int
    threshold: float
    estimate: np.ndarray
    objective: float

    def __init__(self, k_hat: int, threshold: float, estimate: np.ndarray, objective: float):
        # one construction per fitted level: the fields are written in one update
        if type(estimate) is not np.ndarray or estimate.dtype is not _FLOAT:   # else already float
            estimate = np.asarray(estimate, dtype=float)
        estimate.setflags(write=False)
        self.__dict__.update(k_hat=k_hat, threshold=threshold, estimate=estimate,
                             objective=objective)


@functools.lru_cache(maxsize=64)
def _zeros(n: int) -> np.ndarray:
    """The estimate of every fit that keeps nothing at n: n zeros (+0.0), shared."""
    return _read_only_view(np.zeros(n))


def _keep_nothing(n: int, objective: float) -> MonoscaleFit:
    """The fit with k_hat = 0: built without __init__, whose coercion a shared,
    read-only float vector does not need."""
    fit = object.__new__(MonoscaleFit)
    fit.__dict__.update(k_hat=0, threshold=math.inf, estimate=_zeros(n), objective=objective)
    return fit


# The floor eps * t_n is shrunk by 4 ulps: while it stays in the normal range
# its three roundings (a sqrt and two products) add less than that, so a
# coefficient at or below the shrunk floor lies below the exact one.
_SHRINK = 1.0 - 4.0 * float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _penalized_objective(y: np.ndarray, cut: float, epsilon: float, cfg: PenaltyConfig,
                         nu: float):
    """(obj, |y|, pen_vector) with obj[k] = sum_{i>k} a_(i)^2 + eps^2 * pen(k),
    k = 0..m, for a = |y| and its order statistics a_(1) >= a_(2) >= ..., on a
    level with a coefficient above the floor cut of _checked_level.

    pen is concave, so t_k^2 = pen(k) - pen(k-1) >= t_n^2: a coefficient with
    |y| <= cut never lowers the objective by being kept, and the first
    minimizer is at most m, the number of coefficients above the floor.  The
    others are dropped before the sort; their squares sum to one term, and
    the kept squares are added to it smallest first, so no objective is
    formed by subtraction.  Without a floor (cut = 0.0) nothing is dropped
    and m = n.
    """
    a = np.abs(y)
    kept = a
    rest = 0.0
    if cut:
        keep = a > cut
        dropped = a[~keep]
        rest = float(dropped @ dropped)
        kept = a[keep]
    obj = np.empty(kept.size + 1)
    obj[0] = rest
    sq = obj[1:]
    np.multiply(kept, kept, out=sq)
    sq.sort()                                     # ascending squares of the kept coefficients
    np.add.accumulate(obj, out=obj)               # rest + the i smallest kept squares
    obj = obj[::-1]                               # obj[k] = rest + the m - k smallest
    pens = _pen_vector(cfg.key, y.size, nu)       # pen_vector's cache
    obj += (epsilon * epsilon) * pens[:obj.size]
    return obj, a, pens


def _checked_level(y, cfg: PenaltyConfig, epsilon: float, nu_eff: float | None):
    """(y, max|y|, cut, nu, eps) of one level once checked: nu is nu_eff (or
    cfg.nu) and eps is epsilon, each as the float it was checked as, and cut is
    select_k's floor eps * t_n * _SHRINK, or 0.0 where that is not a positive
    normal float (no floor: eps = 0, or pen not increasing at n).  The input
    check of every single-level entry point, every input error before any
    numerical one.  It runs per level of every replicate: messages are built on
    failure, and the level's constants come from one cached record per
    (penalty, n, nu)."""
    if type(y) is not np.ndarray or y.dtype is not _FLOAT:   # the loop's views skip it
        y = real_array(y, "y")
    n = y.size
    if y.ndim != 1 or n < 1:
        raise ValidationError(f"y must be a non-empty vector, got shape {y.shape}")
    # argmax and argmin find the first nan, so peak is nan if any entry is
    peak = max(y.item(y.argmax()), -y.item(y.argmin()))
    if not math.isfinite(peak):
        raise ValidationError("y contains non-finite values")
    if type(epsilon) is not float or not 0.0 <= epsilon < math.inf:   # else the fast path
        epsilon, given = as_float(epsilon, "epsilon"), epsilon
        require(epsilon >= 0, f"epsilon must be >= 0, got {given!r}")
    nu = _resolve_nu(cfg, nu_eff)
    root, top, limit = _level_record(cfg.key, n, nu)
    # checked before anything is squared: above the limit the sum of squares overflows
    if peak > limit:
        raise NumericalError(
            f"max|y| = {peak!r} exceeds {limit!r} at n={n}; its sum of squares overflows")
    if not math.isfinite(epsilon * epsilon * top):
        raise NumericalError(f"epsilon = {epsilon!r} at n={n}: eps^2 * pen(n) overflows")
    cut = epsilon * root * _SHRINK
    return y, peak, (cut if cut >= _TINY else 0.0), nu, epsilon


def _null_floor(cfg: PenaltyConfig, n: int, eps_j: float, nu_j: float):
    """(c, floor) of a level of n coefficients at noise eps_j, for the Monte
    Carlo loop's draw of what select_k reads: no null (theta_i = 0) with
    |z| <= c can be kept by select_k or raise its overflow, and floor bounds
    their |y|.  None where _checked_level's cut is 0.0: select_k has no floor
    and drops nothing.

    floor = min(cut, limit) for _checked_level's floor cut and overflow limit.
    c is stepped down from floor / eps_j until fl(eps_j * c) <= floor.
    Rounding is monotone, so a null with |z| <= c has
    |y| = fl(eps_j * |z|) <= fl(eps_j * c) <= floor <= cut: select_k drops it,
    and it cannot overflow.
    """
    root, _, limit = _level_record(cfg.key, n, _resolve_nu(cfg, nu_j))
    cut = eps_j * root * _SHRINK                  # _checked_level's floor, bit for bit
    if not cut >= _TINY:
        return None
    floor = min(cut, limit)
    c = floor / eps_j
    while eps_j * c > floor:
        c = math.nextafter(c, 0.0)
    return c, floor


def _kept_threshold(pens, k_hat: int, epsilon: float, n: int, nu_shown) -> float:
    """eps * t_{k_hat} = eps * sqrt(pen(k_hat) - pen(k_hat - 1)), k_hat >= 1."""
    step = pens[k_hat] - pens[k_hat - 1]
    if step < 0.0:
        # happens only for nu so close to 1 that pen loses monotonicity
        raise NumericalError(
            f"penalty not increasing at k={k_hat} (n={n}, nu_eff={nu_shown}); "
            "nu_eff is too small for the hard-threshold representation")
    return epsilon * math.sqrt(step)


# A level of at most this many coefficients, one of which clears the floor, is
# fitted on Python floats.  Up to here the loops cost less than the numpy calls'
# fixed cost: a select_k call took 6.1 / 14.4 / 25.2 us on floats against
# 14.0 / 14.5 / 14.3 us on arrays at n = 2 / 32 / 64 with every coefficient
# above the floor, and 12.9 against 14.7 us at n = 32 with one in eight
# (Python 3.11, numpy 2.4).
_SMALL_LEVEL = 32


@functools.lru_cache(maxsize=128)
def _pen_tuple(key: tuple, n: int, nu: float) -> tuple:
    """pen(0..n) as Python floats, the bits of pen_vector, per (penalty, n, nu)."""
    return tuple(_pen_vector(key, n, nu).tolist())


def _select_small(y: np.ndarray, cut: float, epsilon: float, pens: tuple, nu_shown):
    """select_k's fit of a level of at most _SMALL_LEVEL coefficients, one of which
    clears the floor, on Python floats.  It runs the operations of
    _penalized_objective and select_k in their order, so every bit is theirs; only
    the dropped squares, when there are any, are summed by numpy's dot, whose order
    of summation a loop does not share."""
    ys = y.tolist()
    kept = sorted([v for v in map(abs, ys) if v > cut] if cut else map(abs, ys))
    rest = 0.0
    if len(kept) < len(ys):
        a = np.abs(y)
        dropped = a[a <= cut]
        rest = float(dropped @ dropped)
    tails = [rest]                                # rest + the i smallest kept squares
    for v in kept:
        rest += v * v
        tails.append(rest)
    e2 = epsilon * epsilon
    obj = [t + e2 * p for t, p in zip(reversed(tails), pens)]
    objective = min(obj)
    k_hat = obj.index(objective)                  # first minimum = smallest k
    if k_hat == 0:
        return _keep_nothing(y.size, objective)
    threshold = _kept_threshold(pens, k_hat, epsilon, y.size, nu_shown)
    return MonoscaleFit(k_hat, threshold, np.array([v if abs(v) > threshold else 0.0
                                                    for v in ys]), objective)


def select_k(y, cfg: PenaltyConfig, epsilon: float,
             nu_eff: float | None = None) -> MonoscaleFit:
    """Minimize sum_{i>k} |y|_(i)^2 + eps^2 * pen(k) over k = 0..n.

    Ties in the objective resolve to the smallest k.  The fitted vector is
    hard thresholding of y at eps * t_{k_hat}.
    """
    y, peak, cut, nu, epsilon = _checked_level(y, cfg, epsilon, nu_eff)
    if peak <= cut:                               # nothing clears the floor, or y = 0
        return _keep_nothing(y.size, float(y.dot(y)))
    nu_shown = cfg.nu if nu_eff is None else nu_eff
    if y.size <= _SMALL_LEVEL:
        return _select_small(y, cut, epsilon, _pen_tuple(cfg.key, y.size, nu), nu_shown)
    obj, a, pens = _penalized_objective(y, cut, epsilon, cfg, nu)
    k_hat = int(obj.argmin())                     # first minimum = smallest k
    if k_hat == 0:
        return _keep_nothing(y.size, float(obj[0]))
    threshold = _kept_threshold(pens, k_hat, epsilon, y.size, nu_shown)
    return MonoscaleFit(k_hat=k_hat, threshold=threshold,
                        estimate=np.where(a > threshold, y, 0.0), objective=float(obj[k_hat]))


_SUBSET_ORACLE_MAX_N = 20


# Row i holds bit i of every mask below 2^_LOW_BITS (the bits of one byte), as
# 0.0 or 1.0 (read-only): subset_oracle sums the subset sums of its low bits in
# one reduction over it.
_LOW_BITS = 8
_BIT_ROWS = np.unpackbits(np.arange(1 << _LOW_BITS, dtype=np.uint8)[None], axis=0,
                          bitorder="little").astype(float)
_BIT_ROWS.setflags(write=False)


@functools.lru_cache(maxsize=_SUBSET_ORACLE_MAX_N + 1)
def _dropped_penalties(key: tuple, n: int, nu: float, e2: float) -> np.ndarray:
    """e2 * pen(n - |d|) for every mask d < 2^n of dropped coordinates, per
    (penalty, n, nu, eps^2) (read-only), nu as _checked_level resolves it; key
    is PenaltyConfig.key, so a lookup never hashes the config object."""
    card = np.zeros(1 << n, dtype=np.int64)       # card[d] = number of set bits of d
    for i in range(n):
        half = 1 << i
        np.add(card[:half], 1, out=card[half:2 * half])
    out = e2 * _pen_vector(key, n, nu)[n - card]
    out.setflags(write=False)
    return out


# A level of at most this many coordinates is enumerated on Python floats, where
# numpy's fixed cost per call would dominate: a subset_oracle call took 3.4 / 3.9
# / 4.8 / 5.7 / 8.0 us on floats against 6.7 / 6.6 / 7.0 / 7.1 / 7.4 us on arrays
# at n = 1 / 2 / 3 / 4 / 5 (Python 3.11, numpy 2.4).
_SMALL_ORACLE = 4


def _oracle_small(y: np.ndarray, cfg: PenaltyConfig, epsilon: float, nu: float):
    """subset_oracle at n <= _SMALL_ORACLE on Python floats.  The table doubles in
    the order of the array path, each mask adding its squares in ascending
    coordinate order, so every objective has the array path's bits."""
    obj = [0.0]
    for v in y.tolist():
        s = v * v
        obj += [t + s for t in obj]
    pens = _dropped_penalties(cfg.key, y.size, nu, epsilon * epsilon).tolist()
    obj = [t + p for t, p in zip(obj, pens)]
    best = min(obj)
    full = len(obj) - 1
    if obj.count(best) == 1:                      # a unique minimizer needs no tie rule
        return _bits(full ^ obj.index(best)), best
    return _tie_break([d for d, v in enumerate(obj) if v == best], full), best


def subset_oracle(y, cfg: PenaltyConfig, epsilon: float,
                  nu_eff: float | None = None):
    """Exhaustive minimizer of C_eps(J, y) = sum_{i not in J} y_i^2 + eps^2 pen(|J|).

    Enumerates all 2^n coordinate subsets (n <= 20).  Ties resolve to the
    minimal objective, then minimal cardinality, then the lexicographically
    smallest index set.  Returns (indices, objective).  Each objective is
    formed without subtraction, as the sum of the squares the subset drops,
    so like select_k it keeps small squares next to a huge one.
    """
    y, _, _, nu, epsilon = _checked_level(y, cfg, epsilon, nu_eff)
    if y.size > _SUBSET_ORACLE_MAX_N:
        raise ValidationError(
            f"exhaustive search supports n <= {_SUBSET_ORACLE_MAX_N}, got n = {y.size}")
    n = y.size
    if n <= _SMALL_ORACLE:
        return _oracle_small(y, cfg, epsilon, nu)
    # obj[d] = C_eps(J, y) for the J that drops the bits of d: the squares of
    # those bits added in ascending i, plus eps^2 pen(n - |d|).  The low bits are
    # one reduction down the rows of _BIT_ROWS * sq, which adds in that order (a
    # product by 1.0 or 0.0 and a sum with +0.0 are exact); each higher bit i
    # doubles the table, as the masks with top bit i are those below 2^i with
    # sq[i] added.
    sq = y * y
    low = min(n, _LOW_BITS)
    half = 1 << low
    obj = np.empty(1 << n)
    np.add.reduce(_BIT_ROWS[:low, :half] * sq[:low, None], axis=0, out=obj[:half])
    for s in sq[low:].tolist():
        np.add(obj[:half], s, out=obj[half:2 * half])
        half *= 2
    obj += _dropped_penalties(cfg.key, n, nu, epsilon * epsilon)
    d = int(obj.argmin())
    best = float(obj[d])
    full = obj.size - 1
    if d == full:                                 # d is the first minimizer
        return (), best
    rest = obj[d + 1:]
    if rest[rest.argmin()] > best:                # a unique one needs no tie rule
        return _bits(full ^ d), best
    return _tie_break((obj == best).nonzero()[0].tolist(), full), best


def _tie_break(cand: list, full: int) -> tuple:
    """The index set that wins among the masks cand of dropped coordinates whose
    objectives tie: the fewest kept (the most dropped), then the smallest set."""
    most = max(d.bit_count() for d in cand)
    return min(_bits(full ^ d) for d in cand if d.bit_count() == most)


def _bits(m: int) -> tuple:
    """The index set of mask m: its set bits, ascending."""
    return tuple(i for i in range(m.bit_length()) if (m >> i) & 1) if m else ()


def ideal_risk(theta, cfg: PenaltyConfig, epsilon: float,
               nu_eff: float | None = None) -> float:
    """Best penalized trade-off min_k sum_{i>k} theta_(i)^2 + eps^2 pen(k).

    This equals the exhaustive subset minimum of C_eps(J, theta), evaluated
    over sorted |theta|; it is the oracle benchmark of the risk bound.
    """
    theta, peak, cut, nu, epsilon = _checked_level(theta, cfg, epsilon, nu_eff)
    if peak <= cut:                               # nothing clears the floor, or theta = 0
        return float(theta.dot(theta))
    return float(np.min(_penalized_objective(theta, cut, epsilon, cfg, nu)[0]))


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

