"""Signal generators, correlated-noise sampling and Monte Carlo risk estimation.

Generators place deterministic extremal signals inside a Besov ball: a
single-shell dense signal at the large/small-signal boundary level, a
single-shell spike signal at the sparse/highly-sparse boundary level, a
multi-level spread signal, and the multi-level near-critical configuration.
Every generated signal has besov_norm(theta, gamma) <= radius exactly.

All randomness is driven by integer seeds through numpy SeedSequence;
replicate streams derive from (seed, replicate index), so results are
reproducible and independent of any execution schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded

from .errors import ValidationError, require, require_finite
from .model import (HyperParams, MultiresSequence, NoiseSpec, Zone, besov_norm,
                    classify_zone, shell_radius)
from .penalty import PenaltyConfig, m_prime
from .estimator import _fit_level, _level_schedule, ideal_risk, oracle_constant
from .rates import j_plus, j_star

_JMAX_CAP = 20


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class SignalSpec:
    """Description of a deterministic test signal inside a Besov ball.

    epsilon is the nominal noise scale used to locate the boundary levels
    j_star / j_plus; jmax defaults to three levels past the relevant peak,
    capped at 20.  rho1/rho2 choose the level window of the near-critical
    construction and xi0 anchors its spike magnitude.
    """

    kind: str
    gamma: HyperParams
    radius: float
    epsilon: float
    jmax: int | None = None
    placement: str = "even"
    xi0: float = 1.0
    rho1: float = 1.05
    rho2: float = 1.25

    def __post_init__(self):
        require(self.kind in _LEVEL_FILLERS,
                f"unknown signal kind {self.kind!r}; expected one of {tuple(_LEVEL_FILLERS)}")
        require_finite(self, "radius", "xi0", "rho1", "rho2")
        require(self.radius > 0, f"radius must be > 0, got {self.radius}")
        require(0 < self.epsilon < self.radius,
                f"need 0 < epsilon < radius, got epsilon={self.epsilon}, radius={self.radius}")
        require(self.placement == "even", f"placement must be 'even', got {self.placement!r}")
        require(self.xi0 > 0, f"xi0 must be > 0, got {self.xi0}")
        if self.jmax is not None:
            require(type(self.jmax) is int and 1 <= self.jmax <= _JMAX_CAP,
                    f"jmax must be an integer in 1..{_JMAX_CAP}, got {self.jmax}")
        if self.kind == "shell_sparse":
            require(self.gamma.p < 2, "shell_sparse signals need p < 2")
        if self.kind == "critical_prior":
            require(classify_zone(self.gamma) is Zone.CRITICAL,
                    "critical_prior requires hyper-parameters in the critical zone")
            require(1.0 < self.rho1 < self.rho2,
                    f"need 1 < rho1 < rho2, got rho1={self.rho1}, rho2={self.rho2}")
            if self.gamma.beta > 0:
                cap = (2.0 * self.gamma.beta + 1.0) / (2.0 * self.gamma.beta)
                require(self.rho2 < cap,
                        f"rho2 must be < (2*beta+1)/(2*beta) = {cap:.4f}, got {self.rho2}")


def _peak_level(spec: SignalSpec) -> float:
    if spec.kind in ("shell_sparse", "critical_prior"):
        return j_plus(spec.gamma, spec.radius, spec.epsilon)
    return j_star(spec.gamma, spec.radius, spec.epsilon)


def resolve_jmax(spec: SignalSpec) -> int:
    """Stored depth: ceil of the relevant peak plus 3, capped at 20."""
    if spec.jmax is not None:
        return spec.jmax
    depth = int(math.ceil(_peak_level(spec))) + 3
    if spec.kind == "critical_prior":
        # the level window itself may extend past j_plus + 3
        window_top = int(math.ceil(spec.rho2 * j_star(spec.gamma, spec.radius, spec.epsilon)))
        depth = max(depth, window_top)
    return min(depth, _JMAX_CAP)


def _spike_indices(n: int, m: int) -> np.ndarray:
    return np.floor(np.arange(m) * (n / m)).astype(int)


# Level fillers: each sets the zero levels 1..jmax of one signal kind in place.

def _shell_levels(spec: SignalSpec, levels: list) -> None:
    """Single-shell extremal signal at the rounded peak level.

    shell_dense spreads equal magnitudes over all n_j coordinates of level
    j = round(j_star); shell_sparse places m = max(1, round(n_j * eta_j^p))
    equal spikes at level j = round(j_plus), eta_j = (C_j/eps_j) * n_j^(-1/p).
    Either way ||theta_j||_p = C_j, so the ball constraint is met with
    equality.
    """
    gamma = spec.gamma
    j = max(_round_half_up(_peak_level(spec)), 1)
    if j > len(levels):
        raise ValidationError(
            f"peak level {j} exceeds jmax={len(levels)}; increase jmax or epsilon")
    n = 2 ** j
    c_j = shell_radius(gamma, spec.radius, j)
    if spec.kind == "shell_dense":
        m = n
        idx = np.arange(n)
    else:
        eps_j = spec.epsilon * 2.0 ** (gamma.beta * j)
        eta_p = (c_j / eps_j) ** gamma.p / n
        m = min(max(1, _round_half_up(n * eta_p)), n)
        idx = _spike_indices(n, m)
    levels[j - 1][idx] = c_j * m ** (-1.0 / gamma.p)


def _critical_levels(spec: SignalSpec, levels: list) -> None:
    """Multi-level near-critical signal on levels rho1*j_star < j <= rho2*j_star.

    Per level, n0_j coordinates carry magnitude
    delta0_j = c0 * xi0 * eps_j * sqrt(log2(C/eps)) with
    n0_j = floor(c1 * (C/eps)^p * 2^(-2*beta*j) * (jhi-jlo)^(-p/q)
                 * log2(C/eps)^(-p/2)); the constants start at c0 = c1 = 1
    and the whole signal is scaled down into the ball.
    """
    gamma = spec.gamma
    js = j_star(gamma, spec.radius, spec.epsilon)
    j_lo = int(math.floor(spec.rho1 * js))
    j_hi = int(math.ceil(spec.rho2 * js))
    if j_hi > len(levels):
        raise ValidationError(f"level window top {j_hi} exceeds jmax={len(levels)}")
    if j_hi <= j_lo:
        j_hi = j_lo + 1
    span = j_hi - j_lo
    snr = spec.radius / spec.epsilon
    log2_snr = math.log2(snr)
    placed = 0
    for j in range(j_lo + 1, j_hi + 1):
        n_j = 2 ** j
        n0 = int(math.floor(snr ** gamma.p * 2.0 ** (-2.0 * gamma.beta * j)
                            * span ** (-gamma.p / gamma.q) * log2_snr ** (-gamma.p / 2.0)))
        n0 = min(n0, n_j)
        if n0 < 1:
            continue
        delta0 = spec.xi0 * spec.epsilon * 2.0 ** (gamma.beta * j) * math.sqrt(log2_snr)
        levels[j - 1][_spike_indices(n_j, n0)] = delta0
        placed += n0
    if placed == 0:
        raise ValidationError(
            "critical construction infeasible: no level admits a spike "
            f"(C/eps={snr:.3g}, window {j_lo + 1}..{j_hi})")


def _spread_levels(spec: SignalSpec, levels: list) -> None:
    # every level filled evenly with an equal share of the ball budget, so
    # the constraint is met with equality
    for j, level in enumerate(levels, start=1):
        budget = shell_radius(spec.gamma, spec.radius, j) * len(levels) ** (-1.0 / spec.gamma.q)
        level[:] = budget * (2 ** j) ** (-1.0 / spec.gamma.p)


# one filler per signal kind; 'zero' leaves the levels empty
_LEVEL_FILLERS = {"shell_dense": _shell_levels, "shell_sparse": _shell_levels,
                   "besov_spread": _spread_levels, "critical_prior": _critical_levels,
                   "zero": lambda spec, levels: None}


def make_signal(spec: SignalSpec) -> MultiresSequence:
    """The signal spec describes, on levels 1..resolve_jmax(spec).

    The kind's level filler sets the levels; the result is then scaled so
    that besov_norm(theta, spec.gamma) <= spec.radius holds exactly.  'zero'
    yields the all-zero sequence.
    """
    levels = [np.zeros(2 ** j) for j in range(1, resolve_jmax(spec) + 1)]
    _LEVEL_FILLERS[spec.kind](spec, levels)
    signal = MultiresSequence(j0=1, levels=tuple(levels))
    norm = besov_norm(signal, spec.gamma)
    if norm == 0.0:
        return signal
    # Rescale (by at most a few ulps in the intended case) until the weighted
    # norm is <= the radius under exact comparison.
    factor = spec.radius / norm
    for _ in range(64):
        scaled = signal.scale(factor)
        if besov_norm(scaled, spec.gamma) <= spec.radius:
            return scaled
        factor *= 1.0 - 4.0 * np.finfo(float).eps
    raise ValidationError("could not normalize signal into the ball")


# -- noise sampling -----------------------------------------------------------

def _noise_bands(noise: NoiseSpec, j0: int, jmax: int):
    """None for identity noise, else the diagonal and subdiagonal of the
    block-diagonal Cholesky factor over levels j0..jmax laid end to end; the
    subdiagonal is zero across each level boundary, so levels stay independent.
    The factorization runs front to back, so the leading 2^j block of the
    top-level factor is the level-j factor bit for bit: one serves all levels."""
    if noise.covariance == "identity":
        return None
    sizes = [1 << j for j in range(j0, jmax + 1)]
    top = cholesky_banded(np.vstack([np.ones(sizes[-1]), np.full(sizes[-1], noise.rho)]),
                          lower=True)
    factor = np.concatenate([top[:, :n] for n in sizes], axis=1)
    factor[1, np.cumsum(sizes) - 1] = 0.0
    return factor[0], factor[1, :-1]


def _draw_noise(rng: np.random.Generator, size: int, bands) -> np.ndarray:
    """z_j ~ N(0, Sigma_j) for levels laid end to end, from one standard-normal
    draw of every coefficient: the normals of one draw per level in increasing j."""
    g = rng.standard_normal(size)
    if bands is None:
        return g
    diag, sub = bands
    z = diag * g
    z[1:] += sub * g[:-1]
    return z


def sample_noise(noise: NoiseSpec, jmax: int, rng_seed: int, j0: int = 1) -> MultiresSequence:
    """Draw eps_j * z_j with z_j ~ N(0, Sigma_j), independent across levels.

    One standard-normal draw of every coefficient is split by level, which
    gives the normals of one draw per level in increasing j.  The tridiagonal
    family is sampled through its (bidiagonal) Cholesky factor, an exact
    factorization at any level size.  Deterministic given the seed.
    """
    require(jmax >= j0, f"jmax must be >= j0, got jmax={jmax}, j0={j0}")
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    z = _draw_noise(rng, (2 << jmax) - (1 << j0), _noise_bands(noise, j0, jmax))
    z_levels = np.split(z, [(2 << j) - (1 << j0) for j in range(j0, jmax)])
    return MultiresSequence(j0=j0, levels=tuple(
        noise.epsilon_at(j) * z_j for j, z_j in enumerate(z_levels, start=j0)))


# -- Monte Carlo risk ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class McResult:
    """Replicated squared-error summary for one configuration."""

    replicates: int
    mean_sse: float
    stderr_sse: float
    per_level_sse: np.ndarray


def _replicate_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


def mc_risk_for_truth(truth: MultiresSequence, cfg: PenaltyConfig, noise: NoiseSpec,
                      replicates: int, seed: int) -> McResult:
    """Monte Carlo risk at a fixed truth: per replicate, the numbers of sample_noise ->
    add -> fit_multiscale -> per_level_sse, from a level plan built once per call."""
    require(replicates >= 2, f"replicates must be >= 2, got {replicates}")
    schedule = _level_schedule(cfg, noise, truth.j0, truth.jmax)
    size, bands = truth.size, _noise_bands(noise, truth.j0, truth.jmax)
    plan = [(j, (1 << j) - (1 << truth.j0), theta_j, eps_j, nu_j, float(theta_j @ theta_j))
            for (j, eps_j, nu_j), theta_j in zip(schedule, truth.levels)]
    sses = np.empty(replicates)
    level_sse = np.empty(len(plan))
    per_level = np.zeros(len(plan))
    for rep in range(replicates):
        z = _draw_noise(_replicate_rng(seed, rep), size, bands)
        for idx, (j, start, theta_j, eps_j, nu_j, energy) in enumerate(plan):
            y_j = z[start:start + theta_j.size]
            y_j *= eps_j                          # y_j = theta_j + eps_j * z_j, in place
            y_j += theta_j
            fit = _fit_level(j, y_j, cfg, eps_j, nu_j)
            if fit.k_hat == 0:
                level_sse[idx] = energy           # the estimate is +0.0 everywhere
            else:
                diff = fit.estimate - theta_j
                level_sse[idx] = float(diff @ diff)
        per_level += level_sse
        sses[rep] = level_sse.sum()
    mean = float(sses.mean())
    stderr = float(sses.std(ddof=1) / math.sqrt(replicates))
    return McResult(replicates=replicates, mean_sse=mean, stderr_sse=stderr,
                    per_level_sse=per_level / replicates)


def fit_rate_exponent(results) -> tuple:
    """Least squares of log2(mean_sse) on log2(epsilon): (slope, intercept, r_hat).

    Needs at least 4 distinct epsilon values spanning at least 2 octaves;
    r_hat = slope / 2 estimates the rate exponent.
    """
    pts = [(float(e), float(m)) for e, m in results]
    eps = np.array([e for e, _ in pts])
    sse = np.array([m for _, m in pts])
    require(np.unique(eps).size >= 4, "need at least 4 distinct epsilon values")
    require(bool(np.all(eps > 0)), "epsilon values must be positive")
    require(eps.max() / eps.min() >= 4.0, "epsilon grid must span at least 2 octaves")
    require(bool(np.all(sse > 0)), "mean_sse values must be positive to take logs")
    slope, intercept = np.polyfit(np.log2(eps), np.log2(sse), 1)
    return float(slope), float(intercept), float(slope) / 2.0


def oracle_inequality_check(spec: SignalSpec, cfg: PenaltyConfig, noise: NoiseSpec,
                            replicates: int, seed: int) -> tuple:
    """Monte Carlo check of the risk bound; returns (lhs, rhs, ratio).

    lhs is the Monte Carlo mean of ||theta_hat - theta||^2; rhs is
    D * [2 * sum_j xi1 * M'_{n_j} eps_j^2 + sum_j ideal_risk_j] over the
    stored levels.  ratio = lhs / rhs is expected to be <= 1.
    """
    truth = make_signal(spec)
    mc = mc_risk_for_truth(truth, cfg, noise, replicates, seed)
    rhs = 0.0
    schedule = _level_schedule(cfg, noise, truth.j0, truth.jmax)
    for (j, eps_j, nu_j), theta_j in zip(schedule, truth.levels):
        rhs += 2.0 * cfg.xi1 * m_prime(cfg, 2 ** j, nu_j) * eps_j ** 2
        rhs += ideal_risk(theta_j, cfg, eps_j, nu_j)
    rhs *= oracle_constant(cfg.zeta)
    return mc.mean_sse, rhs, mc.mean_sse / rhs
