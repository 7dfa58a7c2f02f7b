"""Signal generators, correlated-noise sampling and Monte Carlo risk estimation.

Every test signal is a list of spike blocks (j, m, magnitude): m equal,
evenly spaced spikes on level j.  The ball kinds take their blocks from one
rule, m spikes with ||theta_j||_p = share * C_j: a dense single shell at the
large/small-signal boundary level, a sparse single shell at the
sparse/highly-sparse boundary level, and a spread signal with an equal
share on every level.  The near-critical configuration sizes its blocks
from epsilon instead.  Every generated signal has besov_norm(theta, gamma)
<= radius exactly.  A level that holds no block is left as the np.zeros it
was made as, never written, so its pages need not be resident.

Noise is one standard-normal draw of every coefficient, level by level in
increasing j; the Monte Carlo loop is the only sampler.  Replicate rep of a
run with seed s draws from PCG64 seeded by
SeedSequence(entropy=s, spawn_key=(rep,)), so results are reproducible and
independent of any execution schedule.  The loop seeds that stream through a
port of numpy's seeding, computed for all of a run's replicates at once, and
sets the state of one generator per thread before each replicate's draw;
TestReplicateStreams in tests/test_simulate.py checks the port against numpy,
and the one-generator-per-replicate reference loop there matches the loop bit
for bit.  The loop takes its replicates in
blocks of consecutive ones, up to 2^12 coefficients to a block: each
replicate still draws from its own stream, into its row of the block, and
the noise filter and y = theta + eps_j * z then run once over the whole
block, so small truths pay numpy's per-call cost once per block rather than
once per replicate.  A block is drawn, filtered, formed and fitted in parts
of whole levels, one part before the next is drawn: a block of several
replicates is one part, a block of one (a truth of more than 2^11
coefficients) two, the levels below the top and then the top level, so its
buffer holds the top level's size.  A row's later part continues its
stream, so the numbers are those of one draw.  A Monte Carlo run over at
least 2^15 coefficients (one replicate to a block) shares its blocks between
up to two threads (numpy's normal fill and large-array operations release
the GIL); each replicate's per-level SSE lands in its own row, and the rows
are reduced in replicate order, so neither the block size nor the number of
threads moves a bit.  The BLAS thread count can: numpy's dot product (`@`)
of more than 10,000 elements runs OpenBLAS's threaded kernel, whose last bit
depends on OPENBLAS_NUM_THREADS, and levels of 2^14 or more coefficients
pass through it.  The presets write
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
    <= spec.radius holds exactly.  'zero' yields the all-zero sequence.  A
    level without a block stays the np.zeros it was made as, never written.
    """
    jmax = resolve_jmax(spec)
    levels = [np.zeros(2 ** j) for j in range(1, jmax + 1)]
    spiked = set()
    for j, m, magnitude in _signal_blocks(spec, jmax):
        levels[j - 1][_spike_indices(2 ** j, m)] = magnitude
        spiked.add(j)
    signal = MultiresSequence._adopt(1, levels)
    norm = besov_norm(signal, spec.gamma)
    if norm == 0.0:
        return signal
    # Rescale (by at most a few ulps in the intended case) until the weighted
    # norm is <= the radius under exact comparison.  The factor is checked as
    # MultiresSequence.scale checks c; a finite factor > 0 takes +0.0 to +0.0,
    # so only the levels with a block are scaled
    factor = as_float(spec.radius / norm, "c")
    for _ in range(64):
        scaled = MultiresSequence._adopt(1, [factor * level if j in spiked else level
                                             for j, level in enumerate(levels, 1)])
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


# -- replicate streams -------------------------------------------------------
#
# Replicate rep of a run with seed s draws from PCG64 (O'Neill 2014) seeded by
# SeedSequence(entropy=s, spawn_key=(rep,)) (NEP 19).  Building those objects
# takes 12-20 us a replicate, so the loop seeds the stream through a port of
# numpy's seeding: SeedSequence's hash of the entropy words into a pool of four
# 32-bit words and of the pool into four 64-bit words, then pcg64_set_seed,
# which seeds the state with the first two and the increment with the last two.

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875         # the hash of the words into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED         # the hash of the pool into the output
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _hashmix(value, const: int, mult: int) -> tuple:
    """SeedSequence's hash of a 32-bit word (an int or a uint64 array of them) and
    the hash constant that follows const."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words (ints or uint64 arrays of them)."""
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _stream_words(seed: int, reps) -> np.ndarray:
    """SeedSequence(entropy=seed, spawn_key=(rep,)).generate_state(4, np.uint64)
    in row i for the i-th rep of reps, for reps below 2^32 (one spawn word each).

    The seed's 32-bit words, any number of them, are hashed into the pool once,
    zero-padded to the pool's four words as numpy pads an entropy with a spawn
    key; then the replicate word of every rep is mixed in at once, in uint64
    arithmetic whose low 32 bits are SeedSequence's uint32 arithmetic.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    pool, const = [], _INIT_A
    for word in words[:4]:
        hashed, const = _hashmix(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[4:] + [np.asarray(reps, dtype=np.uint64)]:
        for dst in range(4):
            hashed, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    out, const = [], _INIT_B
    for i in range(8):
        hashed, const = _hashmix(pool[i % 4], const, _MULT_B)
        out.append(hashed)
    # two 32-bit words make one 64-bit word, low word first
    return np.stack([out[i] | out[i + 1] << 32 for i in (0, 2, 4, 6)], axis=1)


def _stream(gen: np.random.Generator, words: np.ndarray, rep: int) -> np.random.Generator:
    """gen, its PCG64 set to the stream of row rep of words, _stream_words' array.
    A port of pcg64_set_seed: state 0, inc = (w2 * 2^64 + w3) * 2 + 1, one LCG
    step, the state plus w0 * 2^64 + w1, one more step."""
    w0, w1, w2, w3 = words[rep].tolist()
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    gen.bit_generator.state = {
        "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
        "state": {"state": ((w0 << 64 | w1) + inc) * _PCG64_MULT + inc & _MASK128, "inc": inc}}
    return gen


def _draw(gen: np.random.Generator, words: np.ndarray, first: int, a: int, b: int,
          normals: np.ndarray, bands, z: np.ndarray):
    """z_j ~ N(0, Sigma_j) over coefficients a..b-1 of the levels laid end to end,
    for replicates first, first + 1, ... in the rows of a block: the front of
    each row of normals gets the standard normals of its replicate's own stream,
    one draw per level in increasing j, and is filtered into the front of the
    same row of z; bands is the a..b slice of _noise_bands'.  At a = 0 each row
    sets gen to its replicate's stream (see _stream).  At a > 0 the block holds
    one row and gen is the stream the draw of the coefficients before a
    returned, which this draw continues, so the numbers are those of one draw;
    a must lie on a level boundary.  Returns the stream drawn from last, the
    rows drawn, filtered (normals itself for identity noise), and the error of
    the draw that failed after them, or None."""
    error, stream, normals = None, gen, normals[:, :b - a]
    for row, out in enumerate(normals):
        try:
            if a == 0:
                stream = _stream(gen, words, first + row)
            stream.standard_normal(b - a, out=out)
        except Exception as err:
            normals, error = normals[:row], err
            break
    if bands is not None:
        normals = _correlate(normals, bands, z[:len(normals), :b - a])
    return stream, normals, error


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
    a block, and a block in parts of whole levels: for each part in turn, each
    replicate draws its normals from its own stream into its row of the block,
    the noise filter and y = theta + eps_j * z run once over the whole block,
    and then each replicate's levels are fitted in turn.  A block of several
    replicates is one part, a block of one two, so its buffer is the size of
    the top level.  The blocks may run on more than one thread.  The result
    depends on neither, nor does the error a failed run raises (see the module
    docstring).
    """
    replicates, seed = whole(replicates, "replicates", 2), whole(seed, "seed", 0)
    schedule = _level_schedule(cfg, noise, truth.j0, truth.jmax)
    size, bands = truth.size, _noise_bands(noise, truth.j0, truth.jmax)
    plan = [(j, (1 << j) - (1 << truth.j0), theta_j, eps_j, nu_j, float(theta_j @ theta_j))
            for (j, eps_j, nu_j), theta_j in zip(schedule, truth.levels)]
    words = _stream_words(seed, np.arange(replicates))
    rows = np.empty((replicates, len(plan)))      # rows[rep]: replicate rep's per-level SSE
    block = max(1, _BLOCK_COEFS // size)
    firsts = iter(range(0, replicates, block))    # next() on it is atomic under the GIL
    failed = {}
    stop = threading.Event()

    def fit_levels(levels: list, z: np.ndarray, sse: np.ndarray) -> None:
        """Form y_j = theta_j + eps_j * z_j in place for levels, consecutive entries
        of the plan whose coefficients each row of z holds, and fit them: a row's
        squared errors go to the same row of sse, in order, the rows in turn."""
        offset = levels[0][1]
        views = [z[:, start - offset:start - offset + theta_j.size]
                 for _, start, theta_j, *_ in levels]
        with np.errstate(over="ignore"):          # an overflow is named by its level below
            for y_j, (_, _, theta_j, eps_j, *_) in zip(views, levels):
                y_j *= eps_j
                y_j += theta_j
        for level_sse, ys in zip(sse, zip(*views)):
            for idx, ((j, _, theta_j, eps_j, nu_j, energy), y_j) in enumerate(zip(levels, ys)):
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

    # A part is levels lo..hi-1 of the plan, coefficients a..b-1 and their bands.
    # A block of one replicate has two: the levels below the top (2^jmax - 2^j0
    # coefficients), then the top level
    cuts = [0, len(plan) - 1, len(plan)] if block == 1 and len(plan) > 1 else [0, len(plan)]
    edges = [start for _, start, *_ in plan] + [size]
    parts = [(lo, hi, a, b, None if bands is None else (bands[0][a:b], bands[1][a:b - 1]))
             for lo, hi in zip(cuts, cuts[1:]) for a, b in [(edges[lo], edges[hi])]]
    shape = (block, max(b - a for _, _, a, b, _ in parts))

    def run(gen, first: int, normals: np.ndarray, z: np.ndarray) -> None:
        """Fit the replicates of the block from first on, in order, part by part."""
        for lo, hi, a, b, part_bands in parts:
            gen, drawn, error = _draw(gen, words, first, a, b, normals[:replicates - first],
                                      part_bands, z)
            fit_levels(plan[lo:hi], drawn, rows[first:, lo:hi])
            if error is not None:
                raise error

    def work() -> None:
        gen = np.random.Generator(np.random.PCG64(0))   # this thread's; seeded per replicate
        normals = np.empty(shape)
        z = normals if bands is None else np.empty(shape)
        for first in firsts:
            if stop.is_set():
                return
            try:
                run(gen, first, normals, z)
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
