"""Signal generators, correlated-noise sampling and Monte Carlo risk estimation.

Every test signal is a list of spike blocks (j, m, magnitude): m equal,
evenly spaced spikes on level j.  The ball kinds take their blocks from one
rule, m spikes with ||theta_j||_p = share * C_j: a dense single shell at the
large/small-signal boundary level, a sparse single shell at the
sparse/highly-sparse boundary level, and a spread signal with an equal
share on every level.  The near-critical configuration sizes its blocks
from epsilon instead.  Every generated signal has besov_norm(theta, gamma)
<= radius exactly.

Noise is drawn for all levels at once, one standard-normal draw of every
coefficient; the Monte Carlo loop is the only sampler.  All randomness is
driven by integer seeds through numpy SeedSequence; replicate streams
derive from (seed, replicate index), so results are reproducible and
independent of any execution schedule.  The loop takes its replicates in
blocks of consecutive ones, up to 2^12 coefficients to a block: each
replicate still draws from its own stream, into its row of the block, and
the noise filter and y = theta + eps_j * z then run once over the whole
block, so small truths pay numpy's per-call cost once per block rather than
once per replicate.  A Monte Carlo run over at least 2^15 coefficients
(one replicate to a block) shares its blocks between up to two threads
(numpy's normal fill and large-array operations release the GIL); each
replicate's per-level SSE lands in its own row, and the rows are reduced in
replicate order, so neither the block size nor the number of threads moves
a bit.  The BLAS thread
count can: numpy's dot product (`@`) of more than 10,000 elements runs
OpenBLAS's threaded kernel, whose last bit depends on OPENBLAS_NUM_THREADS,
and levels of 2^14 or more coefficients pass through it.  The presets write
the same bytes either way (scripts/ci.sh compares them), other inputs need
not; set OPENBLAS_NUM_THREADS=1 for bits that cannot depend on it.
Tridiagonal noise takes its Cholesky factor from a standard-library port of
LAPACK's banded factorisation, so every Monte Carlo run is numpy alone.

A failed Monte Carlo run raises its lowest failing replicate's error, on any
block size and thread count: a block fits its replicates in order and raises
its first error, a failed draw is raised after the rows drawn before it, and
an overflow while forming y_j = theta_j + eps_j * z_j is named by level.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, as_float, require, require_finite, whole
from .model import (HyperParams, MultiresSequence, NoiseSpec, Zone, besov_norm,
                    classify_zone, level_noise, shell_radius)
from .penalty import PenaltyConfig, m_prime
from .estimator import _fit_level, _level_schedule, ideal_risk, oracle_constant
from .rates import j_plus, j_star

_JMAX_CAP = 20
# a truth has 2^(J+1) - 2 coefficients, so the smallest threaded run has J = 15
# (65,534).  Two threads against one, 100 zero-signal replicates, took 1.01x
# the time at 16,382 coefficients; at 32,766 runs read 0.86x, 1.04x and 0.60x
# as a second CPU was free or not, too unsteady to lower the threshold
_THREADED_SIZE = 1 << 15
# The Monte Carlo loop draws, filters and scales the noise of up to this many
# coefficients at once, a block of max(1, _BLOCK_COEFS // size) replicates, so
# numpy's per-call cost is paid once per block.  It lies below _THREADED_SIZE,
# so a threaded run keeps one replicate per block.  Over 100 sweep-spread-corr
# invocations in one interpreter, blocks of 2^13 coefficients raised the peak
# RSS by 0.3-0.4 MB and blocks of 2^12 by under 0.1 MB
_BLOCK_COEFS = 1 << 12
_SIGNAL_KINDS = ("shell_dense", "shell_sparse", "besov_spread", "critical_prior", "zero")


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
        require(self.kind in _SIGNAL_KINDS,
                f"unknown signal kind {self.kind!r}; expected one of {_SIGNAL_KINDS}")
        require(isinstance(self.gamma, HyperParams), "gamma must be a HyperParams")
        require_finite(self, "radius", "epsilon", "xi0", "rho1", "rho2")
        require(self.radius > 0, f"radius must be > 0, got {self.radius}")
        require(0 < self.epsilon < self.radius,
                f"need 0 < epsilon < radius, got epsilon={self.epsilon}, radius={self.radius}")
        require(self.placement == "even", f"placement must be 'even', got {self.placement!r}")
        require(self.xi0 > 0, f"xi0 must be > 0, got {self.xi0}")
        if self.jmax is not None:
            object.__setattr__(self, "jmax", whole(self.jmax, "jmax", 1))
            require(self.jmax <= _JMAX_CAP, f"jmax must be <= {_JMAX_CAP}, got {self.jmax}")
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


def _ball_block(spec: SignalSpec, j: int, m: int, share: float = 1.0) -> tuple:
    """The spike block (j, m, magnitude) of m equal spikes at level j with
    ||theta_j||_p = share * C_j: magnitude C_j * share * m^(-1/p)."""
    return j, m, shell_radius(spec.gamma, spec.radius, j) * share * m ** (-1.0 / spec.gamma.p)


def _critical_blocks(spec: SignalSpec, jmax: int) -> list:
    """Multi-level near-critical signal on levels rho1*j_star < j <= rho2*j_star.

    Per level, n0_j coordinates carry magnitude
    delta0_j = c0 * xi0 * eps_j * sqrt(log2(C/eps)) with
    n0_j = floor(c1 * (C/eps)^p * 2^(-2*beta*j) * (jhi-jlo)^(-p/q)
                 * log2(C/eps)^(-p/2)); the constants start at c0 = c1 = 1
    and make_signal scales the whole signal down into the ball.
    """
    gamma = spec.gamma
    js = j_star(gamma, spec.radius, spec.epsilon)
    j_lo = int(math.floor(spec.rho1 * js))
    j_hi = int(math.ceil(spec.rho2 * js))
    if j_hi > jmax:
        raise ValidationError(f"level window top {j_hi} exceeds jmax={jmax}")
    if j_hi <= j_lo:
        j_hi = j_lo + 1
    span = j_hi - j_lo
    snr = spec.radius / spec.epsilon
    log2_snr = math.log2(snr)
    blocks = []
    for j in range(j_lo + 1, j_hi + 1):
        n0 = int(math.floor(snr ** gamma.p * 2.0 ** (-2.0 * gamma.beta * j)
                            * span ** (-gamma.p / gamma.q) * log2_snr ** (-gamma.p / 2.0)))
        n0 = min(n0, 2 ** j)
        if n0 >= 1:
            delta0 = spec.xi0 * spec.epsilon * 2.0 ** (gamma.beta * j) * math.sqrt(log2_snr)
            blocks.append((j, n0, delta0))
    if not blocks:
        raise ValidationError(
            "critical construction infeasible: no level admits a spike "
            f"(C/eps={snr:.3g}, window {j_lo + 1}..{j_hi})")
    return blocks


def _signal_blocks(spec: SignalSpec, jmax: int) -> list:
    """The spike blocks (j, m, magnitude) of the signal spec describes.

    shell_dense is m = n_j at j = round(j_star); shell_sparse is
    m = max(1, round(n_j * eta_j^p)) at j = round(j_plus), with
    eta_j = (C_j/eps_j) * n_j^(-1/p); besov_spread is m = n_j at every level,
    each with the share jmax^(-1/q) of the ball budget.  Each of these meets
    the ball constraint with equality.
    """
    gamma = spec.gamma
    if spec.kind == "zero":
        return []
    if spec.kind == "critical_prior":
        return _critical_blocks(spec, jmax)
    if spec.kind == "besov_spread":
        share = jmax ** (-1.0 / gamma.q)
        return [_ball_block(spec, j, 2 ** j, share) for j in range(1, jmax + 1)]
    j = max(_round_half_up(_peak_level(spec)), 1)
    if j > jmax:
        raise ValidationError(f"peak level {j} exceeds jmax={jmax}; increase jmax or epsilon")
    n = 2 ** j
    if spec.kind == "shell_dense":
        return [_ball_block(spec, j, n)]
    eps_j = level_noise(spec.epsilon, gamma.beta, j)
    eta_p = (shell_radius(gamma, spec.radius, j) / eps_j) ** gamma.p / n
    return [_ball_block(spec, j, min(max(1, _round_half_up(n * eta_p)), n))]


def make_signal(spec: SignalSpec) -> MultiresSequence:
    """The signal spec describes, on levels 1..resolve_jmax(spec).

    Each spike block (j, m, magnitude) sets m evenly spaced coordinates of
    level j; the result is then scaled so that besov_norm(theta, spec.gamma)
    <= spec.radius holds exactly.  'zero' yields the all-zero sequence.
    """
    jmax = resolve_jmax(spec)
    levels = [np.zeros(2 ** j) for j in range(1, jmax + 1)]
    for j, m, magnitude in _signal_blocks(spec, jmax):
        levels[j - 1][_spike_indices(2 ** j, m)] = magnitude
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

def _tridiagonal_cholesky(rho: float, n: int) -> np.ndarray:
    """The lower Cholesky factor of the n x n matrix with unit diagonal and rho
    beside it, in LAPACK's lower band layout: row 0 the diagonal, row 1 the
    subdiagonal with its last entry 0.

    A port of LAPACK's unblocked dpbtf2 at kd = 1, the same floats as
    scipy.linalg.cholesky_banded over OpenBLAS: d_i = sqrt(a_i),
    l_i = rho * (1/d_i) (dscal multiplies by the reciprocal) and
    a_(i+1) = 1 - l_i^2 rounded once (dsyr's fused multiply-add), which the
    exact integer ratio of l_i gives.  Once a_(i+1) == a_i every later entry
    repeats, so the rest of both rows is filled in one step.
    """
    factor = np.zeros((2, n))
    a = 1.0
    for i in range(n - 1):
        d = math.sqrt(a)
        sub = rho * (1.0 / d)
        num, den = sub.as_integer_ratio()
        a, last = (den * den - num * num) / (den * den), a
        factor[0, i], factor[1, i] = d, sub
        if a == last:                             # the fixed point: d and l repeat
            factor[0, i + 1:], factor[1, i + 1:-1] = d, sub
            return factor
    factor[0, n - 1] = math.sqrt(a)
    return factor


def _noise_bands(noise: NoiseSpec, j0: int, jmax: int):
    """None for identity noise, else the diagonal and subdiagonal of the
    block-diagonal Cholesky factor over levels j0..jmax laid end to end; the
    subdiagonal is zero across each level boundary, so levels stay independent.
    The factorization runs front to back, so the leading 2^j block of the
    top-level factor is the level-j factor bit for bit: one serves all levels."""
    if noise.covariance == "identity":
        return None
    sizes = [1 << j for j in range(j0, jmax + 1)]
    top = _tridiagonal_cholesky(noise.rho, sizes[-1])
    factor = np.concatenate([top[:, :n] for n in sizes], axis=1)
    factor[1, np.cumsum(sizes) - 1] = 0.0
    return factor[0], factor[1, :-1]


def _draw_block(seed: int, first: int, normals: np.ndarray, bands, z: np.ndarray):
    """z_j ~ N(0, Sigma_j) for levels laid end to end, for replicates first,
    first + 1, ... in the rows of a block: each row of normals is one
    standard-normal draw of every coefficient from its replicate's own stream,
    the normals of one draw per level in increasing j, and is filtered into the
    same row of z.  Returns the rows drawn, filtered (normals itself for
    identity noise), and the error of the draw that failed after them, or None."""
    error = None
    for row, out in enumerate(normals):
        try:
            _replicate_rng(seed, first + row).standard_normal(out.size, out=out)
        except Exception as err:
            normals, error = normals[:row], err
            break
    if bands is None:
        return normals, error
    return _correlate(normals, bands, z[:len(normals)]), error


def _correlate(g: np.ndarray, bands, out: np.ndarray) -> np.ndarray:
    """out = L g for the factor L of _noise_bands, row by row when g holds a block
    of draws (the subdiagonal never reaches across a row); g is overwritten."""
    diag, sub = bands
    np.multiply(diag, g, out=out)
    lag = g[..., :-1]
    lag *= sub
    out[..., 1:] += lag
    return out


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


def _replicate_threads(size: int) -> int:
    """Threads for a Monte Carlo run over size coefficients: up to two, as
    the CPUs the process may run on allow, from _THREADED_SIZE on."""
    if size < _THREADED_SIZE:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:                        # not every platform has it
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def mc_risk_for_truth(truth: MultiresSequence, cfg: PenaltyConfig, noise: NoiseSpec,
                      replicates: int, seed: int) -> McResult:
    """Monte Carlo risk at a fixed truth: per replicate, the numbers of one noise draw
    -> add -> fit_multiscale -> per_level_sse, from a level plan built once per call.

    Replicates run in blocks of consecutive ones, max(1, _BLOCK_COEFS // size) to
    a block: each replicate draws its normals from its own stream into its row
    of the block, the noise filter and y = theta + eps_j * z run once over the
    whole block, and then each replicate's levels are fitted in turn.  The
    blocks may run on more than one thread.  The result depends on neither, nor
    does the error a failed run raises (see the module docstring).
    """
    replicates, seed = whole(replicates, "replicates", 2), whole(seed, "seed", 0)
    schedule = _level_schedule(cfg, noise, truth.j0, truth.jmax)
    size, bands = truth.size, _noise_bands(noise, truth.j0, truth.jmax)
    plan = [(j, (1 << j) - (1 << truth.j0), theta_j, eps_j, nu_j, float(theta_j @ theta_j))
            for (j, eps_j, nu_j), theta_j in zip(schedule, truth.levels)]
    rows = np.empty((replicates, len(plan)))      # rows[rep]: replicate rep's per-level SSE
    block = max(1, _BLOCK_COEFS // size)
    firsts = iter(range(0, replicates, block))    # next() on it is atomic under the GIL
    failed = {}
    stop = threading.Event()

    def run_block(first: int, normals: np.ndarray, z: np.ndarray) -> None:
        """Fit the replicates of the block from first on, in order."""
        z, error = _draw_block(seed, first, normals[:replicates - first], bands, z)
        with np.errstate(over="ignore"):          # an overflow is named by its level below
            for _, start, theta_j, eps_j, *_ in plan:
                y_j = z[:, start:start + theta_j.size]
                y_j *= eps_j                      # y_j = theta_j + eps_j * z_j, in place
                y_j += theta_j
        for y, level_sse in zip(z, rows[first:]):
            for idx, (j, start, theta_j, eps_j, nu_j, energy) in enumerate(plan):
                y_j = y[start:start + theta_j.size]
                try:
                    fit = _fit_level(j, y_j, cfg, eps_j, nu_j)
                except ValidationError:
                    if np.isfinite(y_j).all():    # theta_j, eps_j and z_j are finite
                        raise
                    raise NumericalError(f"level j={j}: y_j = theta_j + eps_j * z_j overflows "
                                         f"at n={theta_j.size}, eps_j={eps_j!r}") from None
                if fit.k_hat == 0:
                    level_sse[idx] = energy       # the estimate is +0.0 everywhere
                else:
                    diff = fit.estimate - theta_j
                    level_sse[idx] = float(diff @ diff)
        if error is not None:
            raise error

    def work():
        normals = np.empty((block, size))
        z = normals if bands is None else np.empty((block, size))
        for first in firsts:
            if stop.is_set():
                return
            try:
                run_block(first, normals, z)
            except Exception as err:              # raised by the caller's thread below
                failed[first] = err
                stop.set()

    # Each thread takes the next block as it frees up, so a thread the host
    # starves takes fewer.  Every block below a failing one was taken before
    # it and runs to its end, so min(failed) names the lowest failure.
    workers = []
    try:
        for _ in range(_replicate_threads(size) - 1):
            worker = threading.Thread(target=work)
            worker.start()
            workers.append(worker)
        work()
    finally:
        stop.set()
        for worker in workers:
            worker.join()
    if failed:
        raise failed[min(failed)]
    sses = np.empty(replicates)
    per_level = np.zeros(len(plan))
    for rep, level_sse in enumerate(rows):
        per_level += level_sse
        sses[rep] = level_sse.sum()
    mean = float(sses.mean())
    stderr = float(sses.std(ddof=1) / math.sqrt(replicates))
    return McResult(replicates=replicates, mean_sse=mean, stderr_sse=stderr,
                    per_level_sse=per_level / replicates)


def check_rate_grid(epsilons) -> np.ndarray:
    """The epsilon grid of a rate fit as an array: at least 4 distinct, positive,
    finite values spanning at least 2 octaves; ValidationError otherwise."""
    eps = np.array([as_float(e, "epsilon") for e in epsilons])
    require(np.unique(eps).size >= 4, "need at least 4 distinct epsilon values")
    require(bool(np.all(eps > 0)), "epsilon values must be positive")
    require(eps.max() / eps.min() >= 4.0, "epsilon grid must span at least 2 octaves")
    return eps


def fit_rate_exponent(results) -> tuple:
    """Least squares of log2(mean_sse) on log2(epsilon): (slope, intercept, r_hat).

    The epsilon values must meet check_rate_grid; r_hat = slope / 2 estimates
    the rate exponent.
    """
    pts = [(as_float(e, "epsilon"), as_float(m, "mean_sse")) for e, m in results]
    eps = check_rate_grid(e for e, _ in pts)
    sse = np.array([m for _, m in pts])
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
