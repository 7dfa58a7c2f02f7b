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

The Monte Carlo loop is the only sampler, and it runs its replicates in
order on the calling thread.  Replicate rep of a run with seed s draws from
PCG64 seeded by SeedSequence(entropy=s, spawn_key=(rep,)), level by level in
increasing j, so results are reproducible.  The loop seeds each stream
through a port of numpy's seeding, computed for all of a run's replicates at
once, and sets the state of one generator before each replicate's draw;
TestReplicateStreams in tests/test_simulate.py checks the port against
numpy, and the one-generator-per-replicate reference loops there match the
loop bit for bit.

The loop has two paths.  A truth of at most 2^12 coefficients, unless it is
drawn by what select_k reads (below), takes its replicates in blocks of
consecutive ones, up to 2^12 coefficients to a block: each replicate draws
every coefficient from its own stream, in one draw into its row of the
block, and the noise filter and y = theta + eps_j * z then run once over the
whole block, so small truths pay numpy's per-call cost once per block rather
than once per replicate.  A larger truth runs one replicate at a time, level
by level: each level is drawn with one draw into the front of a buffer of
the top level's size, on tridiagonal noise filtered with its own level's
factor, then formed and fitted before the next is drawn.  A stream's normals
drawn level by level are those of one draw, so the path moves no bit.  On
identity noise a truth of any size runs level by level where some level can
be drawn by what select_k reads: the coefficients with theta_j != 0, the
number of nulls (theta_j = 0) above select_k's floor eps_j * t_n and their
values, the law of the full draw restricted to them (see _level_draws);
every other null is left +0.0.  A level without such a floor, without a null
or with over an eighth of its nulls above the floor is drawn in full, and so
is a replicate with a fit whose threshold lies below the floor (a stand-in
for select_k).

Each replicate's per-level SSE lands in its own row, and the rows are
reduced in replicate order, so neither the path nor the block size moves a
bit.  The BLAS thread count can: numpy's dot product (`@`) of more than
10,000 elements runs OpenBLAS's threaded kernel, whose last bit depends on
OPENBLAS_NUM_THREADS, and levels of 2^14 or more coefficients pass through
it.  The presets write the same bytes either way (scripts/ci.sh compares
them), other inputs need not; set OPENBLAS_NUM_THREADS=1 for bits that
cannot depend on it.  Tridiagonal noise takes its Cholesky factor from a
standard-library port of LAPACK's banded factorisation, so every Monte Carlo
run is numpy alone.

A failed Monte Carlo run raises its lowest failing replicate's error, on
either path and any block size: replicates and blocks run in replicate
order, a block fits its replicates in order and raises its first error, a
failed draw is raised after the rows drawn before it, and an overflow while
forming y_j = theta_j + eps_j * z_j is named by level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, as_float, require, require_finite, whole
from .model import (HyperParams, MultiresSequence, NoiseSpec, Zone, besov_norm,
                    classify_zone, level_noise, shell_radius)
from .penalty import PenaltyConfig, m_prime
from .estimator import _fit_level, _level_schedule, _null_floor, ideal_risk, oracle_constant
from .rates import j_plus, j_star

_JMAX_CAP = 20
# The Monte Carlo loop draws, filters and scales the noise of up to this many
# coefficients at once, a block of _BLOCK_COEFS // size replicates, so numpy's
# per-call cost is paid once per block; a truth of more coefficients runs one
# replicate at a time, level by level.  Over 100 sweep-spread-corr invocations
# in one interpreter, blocks of 2^13 coefficients raised the peak RSS by
# 0.3-0.4 MB and blocks of 2^12 by under 0.1 MB
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


def _noise_bands(noise: NoiseSpec, jmax: int):
    """None for identity noise, else the lower band Cholesky factor of level jmax
    (see _tridiagonal_cholesky).  The factorization runs front to back, so its
    leading 2^j columns, less the last subdiagonal entry, are the level-j
    factor bit for bit: one factor serves every level."""
    if noise.covariance == "identity":
        return None
    return _tridiagonal_cholesky(noise.rho, 1 << jmax)


def _end_to_end(factor: np.ndarray, j0: int, jmax: int) -> tuple:
    """The diagonal and subdiagonal of the block-diagonal factor over levels
    j0..jmax laid end to end, from _noise_bands' factor of level jmax; the
    subdiagonal is zero across each level boundary, so levels stay independent."""
    sizes = [1 << j for j in range(j0, jmax + 1)]
    bands = np.concatenate([factor[:, :n] for n in sizes], axis=1)
    bands[1, np.cumsum(sizes) - 1] = 0.0
    return bands[0], bands[1, :-1]


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


def _draw(gen: np.random.Generator, words: np.ndarray, first: int, normals: np.ndarray,
          bands, z: np.ndarray):
    """z ~ N(0, Sigma) over the levels laid end to end, for replicates first,
    first + 1, ... in the rows of a block: each row of normals gets the standard
    normals of its replicate's own stream (see _stream), one draw of the row,
    and is filtered into the same row of z by bands, _end_to_end's.  Returns the
    rows drawn, filtered (normals itself for identity noise), and the error of
    the draw that failed after them, or None."""
    error = None
    for row, out in enumerate(normals):
        try:
            _stream(gen, words, first + row).standard_normal(out.size, out=out)
        except Exception as err:
            normals, error = normals[:row], err
            break
    if bands is not None:
        normals = _correlate(normals, bands, z[:len(normals)])
    return normals, error


def _correlate(g: np.ndarray, bands, out: np.ndarray) -> np.ndarray:
    """out = L g for the factor L of _noise_bands, row by row when g holds a block
    of draws (the subdiagonal never reaches across a row); g is overwritten."""
    diag, sub = bands
    np.multiply(diag, g, out=out)
    lag = g[..., :-1]
    lag *= sub
    out[..., 1:] += lag
    return out


# -- the identity-noise draw of what select_k can read ----------------------------
#
# On identity noise a null coordinate (theta_i = 0) of level j is y_i = eps_j * z_i.
# select_k drops every |y| at or below its floor eps_j * t_n before it sorts
# (pen is concave, so no threshold eps_j * t_k lies below it): a dropped null
# only adds its square to the sum `rest`, one constant in every objective,
# which does not move the argmin, and the estimate is 0 there either way.  So
# the loop draws, per level, the coordinates with theta_i != 0, then the number
# K of nulls above the floor and their values, and leaves the other nulls
# +0.0.  K ~ Binomial(n - m, q) with q = P(|z| > c) = erfc(c / sqrt 2) for the
# floor c in units of eps_j, and a null above it is |z| drawn by Marsaglia's
# tail method (Technometrics 1964; Devroye, Non-Uniform Random Variate
# Generation, 1986, IX.1), its sign an independent coin.  This is the law of
# the full draw restricted to what select_k reads.  Only the sum of the
# dropped squares differs from the full draw's, and its rounding can settle a
# near-tie of two objectives the other way.  The floor is the estimator's own:
# estimator._null_floor gives it, with select_k's overflow limit.

_SQRT2 = math.sqrt(2.0)
# A level whose nulls lie above the floor with probability over this is drawn
# in full.  It takes in floors as low as that of zeta = 1.01, nu = 2.8 at
# beta = 0 (q = 0.109), where _tails keeps at least 0.77 of its candidates.  A
# value above the floor costs about 45 ns against 12 ns a normal of the full
# draw, and a call of _tails about 8 us (numpy 2.4, one x86 core): at this share
# the values cost half the full draw, but a level of 64 coefficients still draws
# faster in full, 4 against 18 us (scripts/layers.py times both)
_TAIL_SHARE = 1.0 / 8.0


def _tails(stream: np.random.Generator, k: int, c: float) -> np.ndarray:
    """k standard normals conditioned on |z| > c > 0, by Marsaglia's tail
    method: in rounds of k candidates x = sqrt(c^2 + 2e), e exponential, each
    kept when u * x < c for a uniform u, the first k kept in order; then each
    sign from a uniform of stream, z < 0 below 1/2.  Only exponentials,
    uniforms and correctly rounded arithmetic and sqrt go in, not numpy's log,
    so the bits do not depend on the SIMD code numpy picks for the CPU."""
    kept = np.empty(0)
    while kept.size < k:
        x = np.sqrt(c * c + 2.0 * stream.standard_exponential(k))
        kept = np.concatenate((kept, x[stream.random(k) * x < c]))
    z = kept[:k]
    np.negative(z, out=z, where=stream.random(k) < 0.5)
    return z


def _level_draws(cfg: PenaltyConfig, schedule: list, levels) -> list:
    """How identity noise draws each level, given its (j, eps_j, nu_j) of
    _level_schedule and its theta_j: None to draw all its coefficients, else
    (spikes, values, nulls, q, c, floor), the indices and values of
    theta_j != 0, the count of nulls, the share q = erfc(c / sqrt 2) of them
    above _null_floor's c, and c and its floor.  A level is drawn in full where
    it has no such floor, where q > _TAIL_SHARE, and where it holds no null, so
    that its draw is the full one.
    """
    draws = []
    for (_, eps_j, nu_j), theta_j in zip(schedule, levels):
        found = _null_floor(cfg, theta_j.size, eps_j, nu_j)
        q = math.erfc(found[0] / _SQRT2) if found else 1.0
        nulls = theta_j.size - np.count_nonzero(theta_j)
        draw = None
        if q <= _TAIL_SHARE and nulls:
            spikes = np.flatnonzero(theta_j)
            draw = (spikes, theta_j[spikes], nulls, q, *found)
        draws.append(draw)
    return draws


def _draw_level(stream: np.random.Generator, draw, theta_j: np.ndarray, eps_j: float,
                y: np.ndarray, filt=None):
    """y_j of one replicate from stream into y by its entry of _level_draws:
    every coordinate where draw is None, on tridiagonal noise drawn into g and
    filtered into y by filt = (g, the level's bands); else the normals of the
    spikes, then K, then the first K nulls' values, into the level's size of
    +0.0.  Returns the coordinates written."""
    if draw is None:
        if filt is None:
            stream.standard_normal(y.size, out=y)
        else:
            g, bands = filt
            _correlate(stream.standard_normal(g.size, out=g), bands, y)
        y *= eps_j
        y += theta_j
        return slice(None)
    spikes, values, nulls, q, c, _ = draw
    if spikes.size:
        z = stream.standard_normal(spikes.size)
        z *= eps_j
        z += values
        y[spikes] = z
    k = int(stream.binomial(nulls, q))
    if k == 0:
        return spikes
    at = np.flatnonzero(theta_j[:k + spikes.size] == 0.0)[:k]
    z = _tails(stream, k, c)
    z *= eps_j
    y[at] = z
    return np.concatenate((spikes, at))


# -- Monte Carlo risk ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class McResult:
    """Replicated squared-error summary for one configuration."""

    replicates: int
    mean_sse: float
    stderr_sse: float
    per_level_sse: np.ndarray


def mc_risk_for_truth(truth: MultiresSequence, cfg: PenaltyConfig, noise: NoiseSpec,
                      replicates: int, seed: int) -> McResult:
    """Monte Carlo risk at a fixed truth: per replicate, one noise draw, then per
    level y_j = theta_j + eps_j * z_j, _fit_level and the level's squared error,
    from a level plan built once per call.  Replicates run in order on the
    calling thread.

    A truth with a level that _level_draws draws by what select_k can read, or
    with more than _BLOCK_COEFS coefficients, runs one replicate at a time,
    level by level: each level is drawn into the front of a buffer of the top
    level's size (on tridiagonal noise, normals drawn into a scratch buffer and
    filtered by the level's own factor), then fitted.  A level drawn by what
    select_k reads gets the coordinates with theta_j != 0 and the nulls above
    select_k's floor, in +0.0; select_k is still called once per level, on the
    level's whole size.  A fit whose threshold lies below the floor (a stand-in
    for select_k) could keep a null left undrawn: its replicate is drawn again
    from the start of its stream, every level in full, and fitted again.

    Every other truth runs in blocks of _BLOCK_COEFS // size consecutive
    replicates: each draws its normals from its own stream into its row of the
    block, the noise filter and y = theta + eps_j * z run once over the whole
    block, and then each replicate's levels are fitted in turn.  Neither the
    result nor the error a failed run raises depends on the path or the block
    size (see the module docstring).
    """
    replicates, seed = whole(replicates, "replicates", 2), whole(seed, "seed", 0)
    schedule = _level_schedule(cfg, noise, truth.j0, truth.jmax)
    plan = [(j, theta_j, eps_j, nu_j, float(theta_j @ theta_j))
            for (j, eps_j, nu_j), theta_j in zip(schedule, truth.levels)]
    factor = _noise_bands(noise, truth.jmax)
    draws = _level_draws(cfg, schedule, truth.levels) if factor is None else [None] * len(plan)
    floor = any(draw is not None for draw in draws)
    words = _stream_words(seed, np.arange(replicates))
    rows = np.empty((replicates, len(plan)))      # rows[rep]: replicate rep's per-level SSE
    gen = np.random.Generator(np.random.PCG64(0))   # seeded per replicate

    def fit_sse(level: tuple, y_j: np.ndarray) -> tuple:
        """_fit_level on y_j = theta_j + eps_j * z_j of the plan entry level, and
        the fit's squared error."""
        j, theta_j, eps_j, nu_j, energy = level
        try:
            fit = _fit_level(j, y_j, cfg, eps_j, nu_j)
        except ValidationError:
            if np.isfinite(y_j).all():            # theta_j, eps_j and z_j are finite
                raise
            raise NumericalError(f"level j={j}: y_j = theta_j + eps_j * z_j overflows "
                                 f"at n={theta_j.size}, eps_j={eps_j!r}") from None
        if fit.k_hat == 0:
            return fit, energy                    # the estimate is +0.0 everywhere
        diff = fit.estimate - theta_j
        return fit, float(diff @ diff)

    def run(rep: int, levels: list) -> bool:
        """Fit replicate rep, level by level: each entry of levels, (plan entry,
        y_j, draw, filt), is drawn into y_j by _draw_level, fitted and set back
        to +0.0; False is returned, at once, after a fit whose threshold lies
        below the floor of a level drawn by what select_k reads."""
        stream, sse = _stream(gen, words, rep), rows[rep]
        # an overflow of y_j is named by its level in fit_sse; select_k checks
        # its own before they happen, so the state is set once per replicate
        with np.errstate(over="ignore"):
            for idx, (level, y_j, draw, filt) in enumerate(levels):
                written = _draw_level(stream, draw, level[1], level[2], y_j, filt)
                fit, sse[idx] = fit_sse(level, y_j)
                y_j[written] = 0.0
                if draw is not None and fit.threshold < draw[5]:
                    return False
        return True

    block = _BLOCK_COEFS // truth.size
    if floor or not block:
        # every level's views bound once: y_j the front of a +0.0 buffer of the
        # top level's size, and on tridiagonal noise a scratch buffer of that
        # size for the normals and the level's factor, the front of the top's
        top = plan[-1][1].size
        buf, g = np.zeros(top), None if factor is None else np.empty(top)
        levels = [(level, buf[:n], draw, None if g is None else (
                       g[:n], (factor[0, :n], factor[1, :n - 1])))
                  for level, draw in zip(plan, draws) for n in [level[1].size]]
        # a fit below the floor: the replicate takes the numbers of the full draw
        full = [(level, y_j, None, filt) for level, y_j, _, filt in levels]
        for rep in range(replicates):
            if not run(rep, levels):
                run(rep, full)
    else:
        bands = None if factor is None else _end_to_end(factor, truth.j0, truth.jmax)
        normals = np.empty((block, truth.size))
        z = normals if factor is None else np.empty(normals.shape)
        low = 1 << truth.j0
        # blocks in replicate order, and a block's rows fitted in order with a
        # failed draw returned after the rows drawn before it: the first error
        # raised is the lowest failing replicate's
        for first in range(0, replicates, block):
            drawn, error = _draw(gen, words, first, normals[:replicates - first], bands, z)
            views = [drawn[:, (1 << j) - low:(2 << j) - low] for j, *_ in plan]
            with np.errstate(over="ignore"):      # an overflow is named by its level in fit_sse
                for y_j, (_, theta_j, eps_j, *_) in zip(views, plan):
                    y_j *= eps_j
                    y_j += theta_j
            for level_sse, ys in zip(rows[first:], zip(*views)):
                for idx, (level, y_j) in enumerate(zip(plan, ys)):
                    level_sse[idx] = fit_sse(level, y_j)[1]
            if error is not None:
                raise error
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
