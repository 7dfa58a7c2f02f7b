import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from penseq import (HyperParams, MultiresSequence, NoiseSpec,
                    NumericalError, PenaltyConfig, SignalSpec, ValidationError, besov_norm,
                    fit_multiscale, fit_rate_exponent, make_signal,
                    mc_risk_for_truth, oracle_inequality_check, pen_vector, per_level_sse,
                    shell_radius)
import penseq.estimator as estimator
import penseq.penalty as penalty
import penseq.simulate as simulate
from penseq.cli import PRESETS, ExperimentConfig
from penseq.rates import j_plus, j_star
from penseq.simulate import (_draw, _end_to_end, _noise_bands, _stream, _stream_words,
                             _tridiagonal_cholesky, resolve_jmax)
from test_cli import keep_everything, universal_threshold

DENSE_GAMMA = HyperParams(1.0, 2.0, 2.0, 0.5)
SPARSE_GAMMA = HyperParams(0.75, 1.0, 1.0, 0.5)
CRITICAL_GAMMA = HyperParams(1.0, 1.0, 2.0, 0.5)


def spec_for(kind, gamma, eps=2.0 ** -8, **kw):
    return SignalSpec(kind=kind, gamma=gamma, radius=1.0, epsilon=eps, **kw)


def replicate_rng(seed, rep):
    """Replicate rep's stream as numpy seeds it: the reference of the loop's port."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


def per_level_noise(rng, noise, jmax, j0=1):
    """The first noise sampler, one draw and one factorization per level, kept as
    the reference; the factor is the port's, which matches LAPACK's recorded
    bytes (test_tridiagonal_cholesky_matches_lapack)."""
    levels = []
    for j in range(j0, jmax + 1):
        n = 2 ** j
        g = rng.standard_normal(n)
        if noise.covariance == "identity" or n == 1:
            z = g
        else:
            lo = _tridiagonal_cholesky(noise.rho, n)
            z = lo[0] * g
            z[1:] += lo[1, :-1] * g[:-1]
        levels.append(noise.epsilon_at(j) * z)
    return MultiresSequence(j0=j0, levels=tuple(levels))


class ConstantNormals:
    """A stand-in for a replicate's generator whose normals all equal value and
    whose binomial draws are 0: on identity noise no null is drawn."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, size, out=None):
        out = np.empty(size) if out is None else out
        out.fill(self.value)
        return out

    def binomial(self, n, p):
        return 0


def sequence_mc_risk(truth, cfg, noise, replicates, seed):
    """The first Monte Carlo loop, one sequence per draw and fit, kept verbatim as
    the reference; also returns the number of coefficients kept."""
    sses = np.empty(replicates)
    per_level = np.zeros(truth.jmax - truth.j0 + 1)
    kept = 0
    for rep in range(replicates):
        rng = replicate_rng(seed, rep)
        y = truth.add(per_level_noise(rng, noise, truth.jmax, truth.j0))
        fit = fit_multiscale(y, cfg, noise)
        kept += sum(f.k_hat for f in fit.fits)
        level_sse = per_level_sse(fit, truth)
        per_level += level_sse
        sses[rep] = level_sse.sum()
    mean = float(sses.mean())
    stderr = float(sses.std(ddof=1) / math.sqrt(replicates))
    return mean, stderr, per_level / replicates, kept


def floor_sequence_mc_risk(truth, cfg, noise, replicates, seed):
    """The Monte Carlo loop on identity noise as a plain per-replicate reference
    of its draw: per level in increasing j, from the replicate's stream, every
    normal where simulate._level_draws draws the level in full, else the normals
    of theta_j != 0, K ~ Binomial(nulls, q) and K values above the floor at the
    first K nulls; then add -> fit_multiscale -> per_level_sse.  A replicate
    with a fit whose threshold lies below its level's floor takes
    sequence_mc_risk's full draw instead.  Returns what sequence_mc_risk does."""
    schedule = estimator._level_schedule(cfg, noise, truth.j0, truth.jmax)
    draws = simulate._level_draws(cfg, schedule, truth.levels)
    sses = np.empty(replicates)
    per_level = np.zeros(len(schedule))
    kept = 0
    for rep in range(replicates):
        rng = replicate_rng(seed, rep)
        levels = []
        for (_, eps_j, _), theta_j, draw in zip(schedule, truth.levels, draws):
            if draw is None:
                levels.append(eps_j * rng.standard_normal(theta_j.size))
                continue
            spikes, _, nulls, q, c, _ = draw
            z = np.zeros(theta_j.size)
            z[spikes] = eps_j * rng.standard_normal(spikes.size)
            k = rng.binomial(nulls, q)
            if k:
                z[np.flatnonzero(theta_j == 0.0)[:k]] = eps_j * simulate._tails(rng, k, c)
            levels.append(z)
        fit = fit_multiscale(truth.add(MultiresSequence(truth.j0, tuple(levels))), cfg, noise)
        if any(d is not None and f.threshold < d[5] for f, d in zip(fit.fits, draws)):
            y = truth.add(per_level_noise(replicate_rng(seed, rep), noise, truth.jmax, truth.j0))
            fit = fit_multiscale(y, cfg, noise)
        kept += sum(f.k_hat for f in fit.fits)
        level_sse = per_level_sse(fit, truth)
        per_level += level_sse
        sses[rep] = level_sse.sum()
    mean = float(sses.mean())
    stderr = float(sses.std(ddof=1) / math.sqrt(replicates))
    return mean, stderr, per_level / replicates, kept


class TestShellSignals:
    def test_dense_norm_and_membership(self):
        spec = spec_for("shell_dense", DENSE_GAMMA)
        sig = make_signal(spec)
        assert besov_norm(sig, DENSE_GAMMA) <= 1.0
        assert besov_norm(sig, DENSE_GAMMA) == pytest.approx(1.0, rel=1e-12)

    def test_sparse_signal_is_not_copied_again(self):
        # make_signal adopts the levels it builds and their scaled copy, and the
        # norm takes its powers in place: a signal of 262,142 coefficients peaks
        # at 2.5x its bytes, and a second copy of each built array would make it 4x
        spec = spec_for("shell_sparse", SPARSE_GAMMA, eps=2.0 ** -12)
        make_signal(spec)                         # the level search's caches
        tracemalloc.start()
        try:
            sig = make_signal(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sig.size == 262_142
        assert peak <= 3 * sum(level.nbytes for level in sig.levels)

    def test_dense_per_coordinate_magnitude(self):
        spec = spec_for("shell_dense", DENSE_GAMMA)
        sig = make_signal(spec)
        js = j_star(DENSE_GAMMA, 1.0, spec.epsilon)
        j = int(math.floor(js + 0.5))
        level = sig.level(j)
        expected = shell_radius(DENSE_GAMMA, 1.0, j) / math.sqrt(2 ** j)
        assert np.all(level > 0)
        assert level[0] == pytest.approx(expected, rel=1e-12)
        # every other level is empty
        for jj, coeffs in sig.iter_levels():
            if jj != j:
                assert not coeffs.any()

    def test_sparse_spike_count_and_norm(self):
        spec = spec_for("shell_sparse", SPARSE_GAMMA)
        sig = make_signal(spec)
        g = SPARSE_GAMMA
        j = int(math.floor(j_plus(g, 1.0, spec.epsilon) + 0.5))
        n = 2 ** j
        c_j = shell_radius(g, 1.0, j)
        eps_j = spec.epsilon * 2.0 ** (g.beta * j)
        m_expected = max(1, int(math.floor((c_j / eps_j) ** g.p + 0.5)))
        level = sig.level(j)
        m = int(np.count_nonzero(level))
        assert m == m_expected
        lp = float(np.sum(np.abs(level) ** g.p) ** (1 / g.p))
        assert lp == pytest.approx(c_j, rel=1e-12)
        assert besov_norm(sig, g) <= 1.0

    def test_sparse_boundary_identity(self):
        # at the exact (real) boundary level, C_j / eps_j = sqrt(1 + log n_j)
        g = SPARSE_GAMMA
        for k in (6, 10, 14):
            eps = 2.0 ** -k
            jp = j_plus(g, 1.0, eps)
            c_j = 2.0 ** (-g.a * jp)
            eps_j = eps * 2.0 ** (g.beta * jp)
            assert c_j / eps_j == pytest.approx(math.sqrt(1 + jp * math.log(2)), rel=1e-10)

    def test_spike_magnitude_scale(self):
        # spike size stays within a small factor of eps_j * sqrt(1 + log n_j)
        spec = spec_for("shell_sparse", SPARSE_GAMMA, eps=2.0 ** -10)
        sig = make_signal(spec)
        g = SPARSE_GAMMA
        j = int(math.floor(j_plus(g, 1.0, spec.epsilon) + 0.5))
        level = sig.level(j)
        mag = float(np.max(np.abs(level)))
        eps_j = spec.epsilon * 2.0 ** (g.beta * j)
        anchor = eps_j * math.sqrt(1 + math.log(2.0 ** j))
        assert 0.2 <= mag / anchor <= 1.5

    def test_peak_above_jmax_rejected(self):
        spec = spec_for("shell_dense", DENSE_GAMMA, eps=2.0 ** -10, jmax=2)
        with pytest.raises(ValidationError):
            make_signal(spec)

    def test_sparse_requires_p_below_two(self):
        with pytest.raises(ValidationError):
            make_signal(spec_for("shell_sparse", DENSE_GAMMA))

    def test_jmax_default(self):
        spec = spec_for("shell_dense", DENSE_GAMMA)          # j* = 4
        assert resolve_jmax(spec) == 7
        spec = spec_for("shell_dense", DENSE_GAMMA, eps=2.0 ** -40)
        assert resolve_jmax(spec) == 20                      # capped

    @pytest.mark.parametrize("preset, levels, jmaxes", [
        ("sparse", [6, 8, 9, 10, 11, 12, 14, 9], [10, 11, 12, 14, 15, 16, 17, 12]),
        ("critical", [5, 6, 7, 8, 9, 10, 10, 7], [8, 9, 10, 11, 12, 13, 14, 10]),
    ], ids=["sparse", "critical"])
    def test_preset_levels_read_from_j_plus(self, preset, levels, jmaxes):
        # what the benchmarked outputs read of j_plus, at each epsilon of the
        # preset and at its single epsilon: a root search that moves a signal
        # level or a depth fails here, not only against the benchmark's hashes
        cfg = ExperimentConfig.from_dict(PRESETS[preset])
        specs = [cfg.signal_spec(eps) for eps in cfg.epsilons + (cfg.epsilon,)]
        assert [simulate._round_half_up(simulate._peak_level(s)) for s in specs] == levels
        assert [resolve_jmax(s) for s in specs] == jmaxes


class TestCriticalSignal:
    def test_membership_by_construction(self):
        sig = make_signal(spec_for("critical_prior", CRITICAL_GAMMA))
        assert besov_norm(sig, CRITICAL_GAMMA) <= 1.0

    def test_energy_shape(self):
        # total l2 energy tracks eps^2 (C/eps)^p log(C/eps)^((1-p/2)+(1-p/q))
        g = CRITICAL_GAMMA
        ratios = []
        for k in (6, 8, 10, 12, 14):
            eps = 2.0 ** -k
            sig = make_signal(spec_for("critical_prior", g, eps=eps))
            energy = sum(float(a @ a) for a in sig.levels)
            snr = 1.0 / eps
            shape = eps ** 2 * snr ** g.p * math.log2(snr) ** ((1 - g.p / 2) + (1 - g.p / g.q))
            ratios.append(energy / shape)
        assert all(0.2 <= r <= 1.5 for r in ratios)

    def test_zone_required(self):
        with pytest.raises(ValidationError):
            make_signal(spec_for("critical_prior", DENSE_GAMMA))

    def test_rho_window_validated(self):
        with pytest.raises(ValidationError):
            spec_for("critical_prior", CRITICAL_GAMMA, rho1=1.3, rho2=1.2)
        with pytest.raises(ValidationError):
            # (2*beta+1)/(2*beta) = 2 at beta = 0.5
            spec_for("critical_prior", CRITICAL_GAMMA, rho2=2.5)

    def test_single_level_degenerate_case(self):
        # a narrow window occupies one level: a sparse-shell-like signal
        sig = make_signal(spec_for("critical_prior", CRITICAL_GAMMA,
                                            rho1=1.05, rho2=1.1))
        occupied = [j for j, lev in sig.iter_levels() if lev.any()]
        assert len(occupied) == 1

    def test_infeasible_rejected(self):
        # C/eps = 1.82 makes n0 = 0.98 at the only window level: no spikes fit
        g = CRITICAL_GAMMA
        with pytest.raises(ValidationError):
            make_signal(SignalSpec(kind="critical_prior", gamma=g,
                                            radius=1.0, epsilon=0.55))

    def test_subnormal_norm_cannot_be_scaled(self):
        # xi0 = 1e-320 makes the norm subnormal and radius / norm infinite: no
        # level is scaled, the zero levels included, and scale's check fails
        with pytest.raises(ValidationError, match=r"^c must be a finite number, got inf$"):
            make_signal(spec_for("critical_prior", CRITICAL_GAMMA, xi0=1e-320))


class TestSpreadAndZero:
    def test_spread_membership_and_support(self):
        spec = spec_for("besov_spread", SPARSE_GAMMA)
        sig = make_signal(spec)
        assert besov_norm(sig, SPARSE_GAMMA) <= 1.0
        assert besov_norm(sig, SPARSE_GAMMA) == pytest.approx(1.0, rel=1e-12)
        for _, coeffs in sig.iter_levels():
            assert np.all(coeffs > 0)

    def test_zero_signal(self):
        sig = make_signal(spec_for("zero", DENSE_GAMMA))
        assert sig.size == sum(2 ** j for j in range(1, sig.jmax + 1))
        assert besov_norm(sig, DENSE_GAMMA) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            SignalSpec(kind="bogus", gamma=DENSE_GAMMA, radius=1.0, epsilon=0.1)


# The golden grid of make_signal: every kind, gammas with p >= 2, p < 2 dense,
# sparse and critical, eps = 2^-4 .. 2^-12, and jmax left to resolve_jmax or
# set to 6, which is below some peaks and some critical windows.
GOLDEN_GAMMAS = (HyperParams(1.0, 2.0, 2.0, 0.5), HyperParams(0.5, 3.0, 1.0, 0.0),
                 HyperParams(1.0, 1.5, 2.0, 0.5), HyperParams(0.75, 1.0, 1.0, 0.5),
                 HyperParams(0.6, 1.2, 3.0, 1.0), HyperParams(1.0, 1.0, 2.0, 0.5),
                 HyperParams(1.5, 1.0, 1.0, 1.0))
SIGNAL_KINDS = ("shell_dense", "shell_sparse", "besov_spread", "critical_prior", "zero")


def test_make_signal_golden_hash():
    # SHA-256 over the grid of each case's levels, bit for bit, or its
    # ValidationError text; a refactor of the generators must keep it
    digest = hashlib.sha256()
    for kind, gamma, k, jmax in itertools.product(SIGNAL_KINDS, GOLDEN_GAMMAS,
                                                   range(4, 13), (None, 6)):
        digest.update(repr((kind, gamma, k, jmax)).encode())
        try:
            sig = make_signal(spec_for(kind, gamma, eps=2.0 ** -k, jmax=jmax))
        except ValidationError as exc:
            digest.update(str(exc).encode())
            continue
        digest.update(str(sig.jmax).encode())
        for level in sig.levels:
            digest.update(level.tobytes())
    assert digest.hexdigest() == \
        "0a525096fd85ca8ece2ad55148ac2af72cbe31124966d3943704f3e07e68dc61"


# rho from both ends of (-1/2, 1/2), the signed zeros and a tiny rho
CHOLESKY_RHOS = [0.0, -0.0, 1e-300, 0.25, 0.4999999, -0.4999999, 0.5 - 1e-10,
                 -(0.5 - 1e-10)] + np.random.default_rng(20).uniform(-0.5, 0.5, 24).tolist()


# SHA-256, per n, of scipy.linalg.cholesky_banded's lower band factor of the
# n x n unit-diagonal tridiagonal matrix at every rho of CHOLESKY_RHOS in turn,
# its last subdiagonal entry (LAPACK leaves it as given) set to 0.  Recorded
# once with scipy 1.17.1 on OpenBLAS 0.3.31, SkylakeX kernel; LAPACK's last
# bit moves with OpenBLAS's kernel, so the reference is these bytes, not a
# live call
LAPACK_FACTOR_SHA256 = {
    1: "a375ec241c6c135658b8cbc23a217f4a5169e0dc4b2b0011e48edf49425beb16",
    2: "7b6aea4692ecc842da56d0602729d302f48622ff3e735395cd045d48019c366e",
    3: "752acadfa3558aff7f5eb62511b0d702f2d52ef3532bafb4fb69954e7e511042",
    512: "d221f01903515361e36b22fa4def3fc3d588b290fab416b5af75f8d9452374c4",
    1 << 17: "5858ccd791ee473636350963df0ad9247bbc8cf0199723f8cae9f6bbb82efa35",
}


def draw_levels(noise, jmax, seed, j0=1):
    """Replicate 0's z_j ~ N(0, Sigma_j) as the Monte Carlo loop's block path draws
    it, one draw of every coefficient, split by level."""
    size = (2 << jmax) - (1 << j0)
    factor = _noise_bands(noise, jmax)
    bands = None if factor is None else _end_to_end(factor, j0, jmax)
    (z,), error = _draw(np.random.default_rng(0), _stream_words(seed, [0]), 0,
                        np.empty((1, size)), bands, np.empty((1, size)))
    assert error is None
    return np.split(z, [(2 << j) - (1 << j0) for j in range(j0, jmax)])


# seeds of one to four 32-bit words, and replicates at both ends of one spawn word
STREAM_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 7, 2 ** 64 + 3, 2 ** 100 + 12345, 20260811]
STREAM_REPS = list(range(300)) + [2 ** 31, 2 ** 32 - 1]


def assert_stream_is_numpys(gen, words, index, seed, rep):
    """_stream sets gen to replicate rep's numpy-seeded state, and both draw the same."""
    ref = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
    assert _stream(gen, words, index).bit_generator.state == ref.state, (seed, rep)
    assert np.array_equal(gen.standard_normal(5), np.random.Generator(ref).standard_normal(5))


class TestReplicateStreams:
    """The loop's port of SeedSequence -> PCG64 seeding against the installed numpy."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_port_matches_numpy(self, seed):
        # one generator serves every replicate, as one serves the loop; a
        # 32-bit draw between them leaves a buffered word that must not leak
        gen = np.random.default_rng(0)
        words = _stream_words(seed, STREAM_REPS)
        for index, rep in enumerate(STREAM_REPS):
            assert_stream_is_numpys(gen, words, index, seed, rep)
            gen.integers(1 << 31, dtype=np.uint32)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2 ** 160), st.integers(0, 2 ** 32 - 1))
    def test_property_port_matches_numpy(self, seed, rep):
        assert_stream_is_numpys(np.random.default_rng(0), _stream_words(seed, [rep]), 0,
                                seed, rep)


class TestSampleNoise:
    """The noise draw of the Monte Carlo loop, before the eps_j scaling."""

    def test_deterministic(self):
        noise = NoiseSpec(epsilon=0.3, beta=0.5)
        a = draw_levels(noise, jmax=6, seed=123)
        b = draw_levels(noise, jmax=6, seed=123)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        c = draw_levels(noise, jmax=6, seed=124)
        assert not np.array_equal(a[-1], c[-1])

    def test_level_scaling(self):
        # Sigma_j has unit diagonal, so z_j has unit variance and eps_j * z_j std eps_j
        for noise in (NoiseSpec(epsilon=0.25, beta=1.0),
                      NoiseSpec(epsilon=0.25, beta=1.0, covariance="tridiagonal", rho=0.3)):
            z = draw_levels(noise, jmax=12, seed=5)[-1]
            assert np.std(z) == pytest.approx(1.0, rel=0.05)

    def test_tridiagonal_lag_one_correlation(self):
        noise = NoiseSpec(epsilon=1.0, covariance="tridiagonal", rho=0.3)
        z = draw_levels(noise, jmax=14, seed=7)[-1]
        lag1 = float(np.corrcoef(z[:-1], z[1:])[0, 1])
        assert lag1 == pytest.approx(0.3, abs=0.02)

    def test_tridiagonal_exact_covariance_small_n(self):
        # empirical covariance over many draws approaches the tridiagonal target
        noise = NoiseSpec(epsilon=1.0, covariance="tridiagonal", rho=-0.25)
        draws = np.stack([draw_levels(noise, jmax=2, seed=s)[-1] for s in range(4000)])
        cov = np.cov(draws.T)
        target = np.eye(4) - 0.25 * (np.eye(4, k=1) + np.eye(4, k=-1))
        assert np.max(np.abs(cov - target)) < 0.1

    def test_noise_bands_factor_each_level(self):
        # per level, L L^T is the unit-diagonal tridiagonal covariance: the
        # level-5 factor's leading columns laid end to end for levels 2..5
        factor = _noise_bands(NoiseSpec(epsilon=1.0, covariance="tridiagonal", rho=0.25), 5)
        assert factor.shape == (2, 32)
        diag, sub = _end_to_end(factor, j0=2, jmax=5)
        sub = np.append(sub, 0.0)
        start = 0
        for n in (4, 8, 16, 32):
            full = np.diag(diag[start:start + n]) + np.diag(sub[start:start + n - 1], k=-1)
            target = np.eye(n) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1))
            assert np.allclose(full @ full.T, target, rtol=0.0, atol=1e-14)
            assert sub[start + n - 1] == 0.0          # no coupling into the next level
            start += n
        assert start == diag.size

    @pytest.mark.parametrize("n", [1, 2, 3, 512, 1 << 17])
    def test_tridiagonal_cholesky_matches_lapack(self, n):
        # the port gives cholesky_banded's floats bit for bit (signed zeros included)
        digest = hashlib.sha256()
        for rho in CHOLESKY_RHOS:
            digest.update(_tridiagonal_cholesky(rho, n).tobytes())
        assert digest.hexdigest() == LAPACK_FACTOR_SHA256[n]

    def test_tridiagonal_cholesky_reaches_both_exits(self):
        # CHOLESKY_RHOS reach the fixed point early (0.25, a few dozen entries) and
        # never within n = 2^17 (-(1/2 - 1e-10)), where every entry is computed
        early = _tridiagonal_cholesky(0.25, 1 << 17)
        assert np.all(early[:, 64:-1] == early[:, -2:-1])
        late = _tridiagonal_cholesky(-(0.5 - 1e-10), 1 << 17)
        assert late[0, -1] != late[0, -2] and late[1, -2] != late[1, -3]
        assert {0.25, -(0.5 - 1e-10)} <= set(CHOLESKY_RHOS)

    @pytest.mark.parametrize("noise", [NoiseSpec(epsilon=1.0)] + [
        NoiseSpec(epsilon=1.0, covariance="tridiagonal", rho=rho) for rho in (0.25, -0.4999, 0.49)])
    def test_one_draw_equals_per_level_draws(self, noise):
        # one draw of every normal, split by level, is bit for bit one draw per
        # level; eps = 1 and beta = 0 make the reference's level scale exactly 1
        for seed in range(5):
            one = draw_levels(noise, jmax=17, seed=seed, j0=2)
            ref = per_level_noise(replicate_rng(seed, 0), noise, jmax=17, j0=2)
            assert len(one) == len(ref.levels) == 16
            for a, b in zip(one, ref.levels):
                assert np.array_equal(a, b)

    def test_zero_epsilon(self):
        noise = NoiseSpec(epsilon=0.0)
        for j, z_j in enumerate(draw_levels(noise, jmax=4, seed=0), start=1):
            assert not (noise.epsilon_at(j) * z_j).any()


def overflow_case(j, covariance="identity"):
    """A zero truth on level j alone, its config and a noise with eps_j = 0.9 * 2^1023."""
    beta = 1023 / j                               # 93, 85.25, 63.9375 at j = 11, 12, 16: exact
    noise = NoiseSpec(0.9, beta, covariance=covariance,
                      rho=0.25 if covariance == "tridiagonal" else 0.0)
    return MultiresSequence.zeros(j, j), PenaltyConfig(beta=beta, xi1=noise.xi1), noise


# (normals, message): replicate r's normals all equal normals[r], and the
# lowest failing replicate's error is message
OVERFLOW_CASES = [
    ((0, 3, 3, 0, 3), r"epsilon = .* at n=2048: eps\^2 \* pen\(n\) overflows"),
    ((3, 0, 3, 0, 3), r"y_j = theta_j \+ eps_j \* z_j overflows at n=2048"),
]


class TestMcRisk:
    def test_zero_signal_zero_noise(self):
        cfg = PenaltyConfig(beta=0.0)
        truth = MultiresSequence.zeros(1, 4)
        res = mc_risk_for_truth(truth, cfg, NoiseSpec(epsilon=0.0, beta=0.0),
                                replicates=3, seed=1)
        assert res.mean_sse == 0.0 and res.stderr_sse == 0.0

    def test_bitwise_reproducible(self):
        cfg = PenaltyConfig(beta=0.5)
        spec = spec_for("shell_dense", DENSE_GAMMA)
        noise = NoiseSpec(epsilon=spec.epsilon, beta=0.5)
        a = mc_risk_for_truth(make_signal(spec), cfg, noise, replicates=5, seed=77)
        b = mc_risk_for_truth(make_signal(spec), cfg, noise, replicates=5, seed=77)
        assert a.mean_sse == b.mean_sse and a.stderr_sse == b.stderr_sse
        assert np.array_equal(a.per_level_sse, b.per_level_sse)

    def test_mean_stable_under_more_replicates(self):
        # near-threshold spikes give genuine replicate variance
        cfg = PenaltyConfig(beta=0.0, nu=3.0)
        eps = 0.5
        levels = [np.zeros(2 ** j) for j in range(1, 4)]
        levels[1][0] = eps * math.sqrt(pen_vector(cfg, 4)[1])
        truth = MultiresSequence(j0=1, levels=tuple(levels))
        noise = NoiseSpec(epsilon=eps, beta=0.0)
        a = mc_risk_for_truth(truth, cfg, noise, replicates=120, seed=3)
        b = mc_risk_for_truth(truth, cfg, noise, replicates=240, seed=3)
        assert a.stderr_sse > 0
        assert abs(a.mean_sse - b.mean_sse) <= 3.0 * (a.stderr_sse + b.stderr_sse)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("rho", [0.0, 0.25])
    @pytest.mark.parametrize("kind, jmax", [("besov_spread", 12), ("besov_spread", 5),
                                            ("shell_dense", 9), ("besov_spread", 15),
                                            ("shell_dense", 12), ("near_threshold", 4)])
    def test_matches_sequence_loop_exactly(self, beta, rho, kind, jmax, monkeypatch):
        # jmax = 15 is 65,534 coefficients, too many for a block, so drawn one
        # replicate at a time, level by level; the dense shell at jmax = 12
        # leaves most levels of a deep truth zero
        gamma = HyperParams(1.0, 2.0, 2.0, beta)
        if rho:
            noise = NoiseSpec(epsilon=2.0 ** -10, beta=beta, covariance="tridiagonal", rho=rho)
        else:
            noise = NoiseSpec(epsilon=2.0 ** -10, beta=beta)
        cfg = PenaltyConfig(beta=beta, xi1=noise.xi1)
        first = 4
        if kind == "near_threshold":
            # level jmax alone, with spikes at its first threshold, so the SSE
            # varies between replicates; 128 of them in one block check that
            # the level's SSE is summed in replicate order
            ((_, eps_j, nu_j),) = estimator._level_schedule(cfg, noise, jmax, jmax)
            level = np.zeros(2 ** jmax)
            level[::4] = eps_j * math.sqrt(pen_vector(cfg, 2 ** jmax, nu_j)[1])
            truth, first = MultiresSequence(jmax, (level,)), 128
        else:
            truth = make_signal(spec_for(kind, gamma, eps=2.0 ** -10, jmax=jmax))
        # first replicates in blocks of the default size, then 7 in blocks of 3:
        # two full blocks and a short last one.  At the default size a truth of
        # more than 2^12 coefficients fits no block: it is drawn one replicate
        # at a time, level by level, and never through _draw.  On identity
        # noise a truth with a zero coordinate is drawn by what select_k reads,
        # level by level at any block size, and matches floor_sequence_mc_risk;
        # the spread signal has none, so it takes the full draw there too
        reads_floor = not rho and kind != "besov_spread"
        draw, drawn = simulate._draw, []

        def recording(gen, words, first, normals, *args):
            drawn.extend(range(first, first + len(normals)))
            return draw(gen, words, first, normals, *args)

        monkeypatch.setattr(simulate, "_draw", recording)
        default = simulate._BLOCK_COEFS
        for replicates, block_coefs in ((first, default), (7, 3 * truth.size)):
            monkeypatch.setattr(simulate, "_BLOCK_COEFS", block_coefs)
            mean, stderr, per_level, kept = sequence_mc_risk(truth, cfg, noise, replicates, 11)
            # the spread signal and the spikes keep coefficients, the dense shell none
            assert (kept > 0) == (kind != "shell_dense")
            if not rho:
                mean, stderr, per_level, _ = floor_sequence_mc_risk(truth, cfg, noise,
                                                                    replicates, 11)
            level_by_level = reads_floor or (block_coefs == default and truth.size > 1 << 12)
            drawn.clear()
            got = mc_risk_for_truth(truth, cfg, noise, replicates=replicates, seed=11)
            assert drawn == ([] if level_by_level else list(range(replicates)))
            assert got.mean_sse.hex() == mean.hex() and got.stderr_sse.hex() == stderr.hex()
            assert np.array_equal(got.per_level_sse, per_level)

    @pytest.mark.parametrize("jmax, replicates, covariance", [
        pytest.param(7, 100, "tridiagonal", id="7-100"),
        pytest.param(15, 6, "tridiagonal", id="15-6"),
        pytest.param(7, 100, "identity", id="identity-7-100"),
        pytest.param(15, 6, "identity", id="identity-15-6")])
    def test_one_select_k_call_per_replicate_and_level(self, jmax, replicates, covariance,
                                                        monkeypatch):
        # the count the benchmark reads: on tridiagonal noise 254 coefficients
        # run in blocks of 16 replicates, the last one short, and 65,534 one
        # replicate at a time, level by level; on identity noise the dense
        # shell, zero on every level but one, is drawn by what select_k reads,
        # still on the full levels
        gamma = HyperParams(1.0, 2.0, 2.0, 0.5)
        kind = "besov_spread" if covariance == "tridiagonal" else "shell_dense"
        truth = make_signal(spec_for(kind, gamma, eps=2.0 ** -10, jmax=jmax))
        noise = NoiseSpec(epsilon=2.0 ** -10, beta=0.5, covariance=covariance,
                          rho=0.25 if covariance == "tridiagonal" else 0.0)
        select_k, sizes = estimator.select_k, []

        def counting(y, *args):
            fit = select_k(y, *args)
            sizes.append(fit.estimate.size)
            return fit

        monkeypatch.setattr(estimator, "select_k", counting)
        mc_risk_for_truth(truth, PenaltyConfig(beta=0.5, xi1=noise.xi1), noise,
                          replicates=replicates, seed=2)
        assert sorted(sizes) == sorted(2 ** j for j in range(1, jmax + 1)
                                       for _ in range(replicates))
        assert sum(sizes) == replicates * truth.size

    @staticmethod
    def deep_truth_peak(value, covariance="identity"):
        """Peak traced bytes of a second Monte Carlo run over levels 1..17 with
        every coefficient equal to value; the first fills the estimator's caches
        (its shared zero estimate of 2^17 floats among them)."""
        truth = MultiresSequence(1, tuple(np.full(1 << j, value) for j in range(1, 18)))
        noise = NoiseSpec(epsilon=0.1, beta=0.5, covariance=covariance,
                          rho=0.25 if covariance == "tridiagonal" else 0.0)
        args = (truth, PenaltyConfig(beta=0.5, xi1=noise.xi1), noise, 2, 0)
        mc_risk_for_truth(*args)
        tracemalloc.start()
        try:
            mc_risk_for_truth(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_of_a_deep_truth(self):
        # a zero truth of levels 1..17 is drawn by what select_k reads, level by
        # level into a +0.0 buffer of the top level's 2^17 coefficients, not a
        # row of all 262,142
        assert self.deep_truth_peak(0.0) <= 1.25 * (1 << 17) * 8

    def test_peak_memory_of_a_deep_truth_drawn_in_full(self):
        # without a zero coordinate a truth of levels 1..17 is drawn in full, one
        # replicate at a time, level by level into a buffer of the top level's size
        assert self.deep_truth_peak(1e-3) <= 1.25 * (1 << 17) * 8

    def test_peak_memory_of_a_deep_truth_on_tridiagonal_noise(self):
        # the level-17 factor (2 x 2^17 floats) serves every level through its
        # leading columns, and each level's normals go to a scratch buffer of
        # the top level's size before the filter: four times 2^17 floats, no
        # bands of levels 1..17 laid end to end
        assert self.deep_truth_peak(0.0, "tridiagonal") <= 1.1 * 4 * (1 << 20)

    @pytest.mark.parametrize("covariance", ["tridiagonal", "identity"])
    def test_lowest_failing_replicate_is_raised(self, covariance, monkeypatch):
        # replicates 3, 4 and 7 fail, and 3 is raised.  With one replicate per
        # block 4 is never taken; two per block put 3 and 4 in different blocks,
        # and the default block holds all 40 replicates, so there the failing
        # replicates share one; a truth of 4,094 coefficients is a one-row
        # default block, and one of 8,190 fits no block, so it runs one
        # replicate at a time, level by level; each fails either from its first
        # level on or only at its top level.  Each replicate's normals all
        # equal its index, so a level's first coefficient names the replicate
        # it belongs to.  On identity noise, drawn one replicate at a time by
        # what select_k reads, that coefficient is a spike of 1.0, the only one
        # of its level drawn
        noise = NoiseSpec(epsilon=0.1, beta=0.5, covariance=covariance,
                          rho=0.25 if covariance == "tridiagonal" else 0.0)
        spike = 0.0 if covariance == "tridiagonal" else 1.0

        def truth(jmax):
            return MultiresSequence(1, tuple(np.eye(1, 1 << j)[0] * spike
                                             for j in range(1, jmax + 1)))

        small, fit_level = truth(5), simulate._fit_level

        def fit(j, level, cfg, eps_j, nu_j):
            rep = round((level[0] - spike) / eps_j)
            if rep in (3, 4, 7) and j >= lowest:     # the case's lowest failing level
                raise NumericalError(f"replicate {rep}")
            return fit_level(j, level, cfg, eps_j, nu_j)

        monkeypatch.setattr(simulate, "_stream", lambda gen, words, rep: ConstantNormals(rep))
        monkeypatch.setattr(simulate, "_fit_level", fit)
        for case, block_coefs, lowest in (
                (small, small.size, 1), (small, 2 * small.size, 1),
                (small, simulate._BLOCK_COEFS, 1),
                *((truth(jmax), simulate._BLOCK_COEFS, low)
                  for jmax in (11, 12) for low in (1, jmax))):
            monkeypatch.setattr(simulate, "_BLOCK_COEFS", block_coefs)
            with pytest.raises(NumericalError, match=r"^replicate 3$"):
                mc_risk_for_truth(case, PenaltyConfig(beta=0.5, xi1=noise.xi1), noise,
                                  replicates=40, seed=1)

    @pytest.mark.parametrize("failing, message", [
        ({"draw"}, r"^draw 5$"), ({"draw", "fit"}, r"^replicate 3$"),
        ({"filter", "fit"}, r"^filter$")])
    def test_failures_outside_the_fits_are_raised(self, failing, message, monkeypatch):
        # all 40 replicates share one block: a failed draw is raised once the
        # replicates below it are fitted, and a failed noise filter, a step of
        # the whole block, before any fit
        truth, fit_level = MultiresSequence.zeros(1, 5), simulate._fit_level
        noise = NoiseSpec(epsilon=0.1, beta=0.5, covariance="tridiagonal", rho=0.25)

        def rng(gen, words, rep):
            if "draw" in failing and rep == 5:
                raise RuntimeError("draw 5")
            return ConstantNormals(rep)

        def fit(j, level, cfg, eps_j, nu_j):
            # a level's first coefficient is filtered by 1.0 alone: eps_j * rep
            if "fit" in failing and round(level[0] / eps_j) == 3:
                raise NumericalError("replicate 3")
            return fit_level(j, level, cfg, eps_j, nu_j)

        def correlate(g, bands, out):
            raise RuntimeError("filter")

        monkeypatch.setattr(simulate, "_stream", rng)
        monkeypatch.setattr(simulate, "_fit_level", fit)
        if "filter" in failing:
            monkeypatch.setattr(simulate, "_correlate", correlate)
        with pytest.raises(Exception, match=message):
            mc_risk_for_truth(truth, PenaltyConfig(beta=0.5, xi1=noise.xi1), noise,
                              replicates=40, seed=1)

    def test_interrupt_propagates_from_the_first_fit(self, monkeypatch):
        # an interrupt in the first fit ends the run there: no later fit runs
        fit_level, fitted = simulate._fit_level, []

        def fit(j, *args):
            fitted.append(j)
            if len(fitted) == 1:
                raise KeyboardInterrupt
            return fit_level(j, *args)

        monkeypatch.setattr(simulate, "_fit_level", fit)
        with pytest.raises(KeyboardInterrupt):
            mc_risk_for_truth(MultiresSequence.zeros(1, 3), PenaltyConfig(beta=0.5),
                              NoiseSpec(epsilon=0.1, beta=0.5), replicates=1000, seed=1)
        assert fitted == [1]

    def test_noise_overflow_names_the_level(self):
        # eps_j = 0.9 * 2^1023 is finite, eps_j * z overflows for |z| > 2.23; the
        # 4,096 coefficients of j = 12 run one replicate to a block, and the
        # 65,536 of j = 16 one replicate at a time, level by level
        for j in (11, 12, 16):
            with pytest.raises(NumericalError, match=rf"^level j={j}: y_j = theta_j \+ eps_j \* "
                               rf"z_j overflows at n={2 ** j}, eps_j=8\.0\d+e\+307$"):
                mc_risk_for_truth(*overflow_case(j), 2, 0)

    @staticmethod
    def overflow_in_order(normals, message, covariance, monkeypatch):
        """Replicate r's normals all equal normals[r] at level j of overflow_case(j):
        the lowest failing replicate's error, message at n = 2^j, is raised."""
        monkeypatch.setattr(simulate, "_stream",
                            lambda gen, words, rep: ConstantNormals(normals[rep]))
        for j, block_coefs in ((11, 4 * 2048), (12, simulate._BLOCK_COEFS),
                               (16, simulate._BLOCK_COEFS)):
            monkeypatch.setattr(simulate, "_BLOCK_COEFS", block_coefs)
            with pytest.raises(NumericalError, match=rf"^level j={j}: "
                               + message.replace("2048", str(2 ** j))):
                mc_risk_for_truth(*overflow_case(j, covariance), len(normals), 0)

    @pytest.mark.parametrize("normals, message", OVERFLOW_CASES)
    def test_noise_overflow_in_a_block_is_raised_in_replicate_order(
            self, normals, message, monkeypatch):
        # at eps_j = 0.9 * 2^1023 every fit fails, and 3 * eps_j (times the
        # filter's 1 + 0.26 or so) overflows before the fit.  At j = 11 the
        # overflow is found for the whole first block of 4 before any fit; at
        # j = 12 the default block holds one replicate, and j = 16 fits no block,
        # so its replicates run one at a time, level by level.  Each way the
        # error of the lowest failing replicate is raised
        self.overflow_in_order(normals, message, "tridiagonal", monkeypatch)

    @pytest.mark.parametrize("normals, message", OVERFLOW_CASES)
    def test_noise_overflow_on_identity_noise_is_raised_in_replicate_order(
            self, normals, message, monkeypatch):
        # on identity noise the floor is the overflow limit, below 1e-155 * eps_j,
        # so the level is drawn in full, one replicate at a time
        self.overflow_in_order(normals, message, "identity", monkeypatch)

    def test_numerical_error_names_the_level(self):
        # eps_j = 0.5 * 2^(100 j): the level-6 noise is too large to square
        with pytest.raises(NumericalError, match=r"level j=6: max\|y\| = .* at n=64"):
            mc_risk_for_truth(MultiresSequence.zeros(1, 6), PenaltyConfig(beta=100.0),
                              NoiseSpec(epsilon=0.5, beta=100.0), replicates=2, seed=0)

    @pytest.mark.parametrize("call", ["mc_risk_for_truth", "fit_multiscale"])
    def test_level_scale_overflow_names_the_level(self, call):
        # 2^(100 j) leaves the float range at j = 11, before any level is fitted
        zeros, cfg = MultiresSequence.zeros(1, 11), PenaltyConfig(beta=100.0)
        noise = NoiseSpec(epsilon=0.5, beta=100.0)
        run = {"mc_risk_for_truth": lambda: mc_risk_for_truth(zeros, cfg, noise, 2, 0),
               "fit_multiscale": lambda: fit_multiscale(zeros, cfg, noise)}[call]
        with pytest.raises(NumericalError, match=r"level j=11: .* beta=100.0, epsilon=0.5"):
            run()

    def test_replicates_validated(self):
        cfg = PenaltyConfig(beta=0.5)
        spec = spec_for("shell_dense", DENSE_GAMMA)
        with pytest.raises(ValidationError):
            mc_risk_for_truth(make_signal(spec), cfg, NoiseSpec(epsilon=spec.epsilon, beta=0.5),
                              replicates=1, seed=0)

    @pytest.mark.parametrize("replicates, seed, message", [
        (2.5, 0, r"replicates must be an integer >= 2, got 2\.5"),
        (True, 0, r"replicates must be an integer >= 2, got True"),
        (4, -1, r"seed must be an integer >= 0, got -1"),
        (4, 1.5, r"seed must be an integer >= 0, got 1\.5"),
        (4, True, r"seed must be an integer >= 0, got True"),
    ])
    def test_replicates_and_seed_typed(self, replicates, seed, message):
        with pytest.raises(ValidationError, match=message):
            mc_risk_for_truth(MultiresSequence.zeros(1, 3), PenaltyConfig(beta=0.5),
                              NoiseSpec(epsilon=0.1, beta=0.5), replicates, seed)
        # an integer of any integral type is accepted
        assert mc_risk_for_truth(MultiresSequence.zeros(1, 3), PenaltyConfig(beta=0.5),
                                 NoiseSpec(epsilon=0.1, beta=0.5), np.int64(2),
                                 np.int64(3)).replicates == 2


# The floor of the two-sample check: zeta = 1.01, nu = 2.8, beta = 0 and
# eps = 0.5 at n = 1024, t_n = 1.60 and q = 0.109, so about 112 nulls a
# replicate lie above it; jeps_scale = 5 keeps nu_j = nu up to j = 10
K_COMMON_CFG = PenaltyConfig(zeta=1.01, nu=2.8, beta=0.0, jeps_scale=5.0)
K_COMMON_NOISE = NoiseSpec(epsilon=0.5)


def spiked_level(n, every, size):
    level = np.zeros(n)
    level[::every] = size
    return level


class Stream:
    """A stand-in for a stream whose exponentials and uniforms are the given
    values, each taken in turn."""

    def __init__(self, exponentials, uniforms):
        self.exponentials, self.uniforms = list(exponentials), list(uniforms)

    def standard_exponential(self, k):
        out, self.exponentials = self.exponentials[:k], self.exponentials[k:]
        return np.array(out)

    def random(self, k):
        out, self.uniforms = self.uniforms[:k], self.uniforms[k:]
        return np.array(out)


class TestFloorDraw:
    """The identity-noise draw of what select_k can read."""

    @pytest.mark.parametrize("c", [6.06, 38.0])
    def test_tails_law(self, c):
        # 4,000 values above c = 6.06, about the floor at the presets' zeta = 2,
        # nu = 40, and above c = 38, where q = erfc(c / sqrt 2) is subnormal:
        # |z| against the normal law above c, F(x) = 1 - exp(logsf(x) - logsf(c)),
        # and the signs against a fair coin.  The p-value bound 1e-3 was fixed
        # before the run
        z = simulate._tails(np.random.default_rng(38), 4000, c)
        assert z.shape == (4000,) and np.abs(z).min() >= c * (1.0 - 2.0 ** -52)
        logsf_c = stats.norm.logsf(c)
        cdf = lambda x: -np.expm1(stats.norm.logsf(x) - logsf_c)
        assert stats.kstest(np.abs(z), cdf).pvalue > 1e-3
        assert stats.binomtest(int((z > 0).sum()), z.size).pvalue > 1e-3

    def test_tails_draw_rounds_until_k_are_kept(self):
        # at c = 2 the first round of 3 candidates keeps 2 (u * x < c for the
        # first and third), the second round keeps its last 2; the first 3 kept
        # are returned, the first round's first, and each then takes its sign
        e = [0.5, 1.0, 2.0, 3.0, 0.0, 4.0]
        u = [0.5, 0.99, 0.1, 0.9, 0.2, 0.3]
        stream = Stream(e, u + [0.25, 0.75, 0.5])
        z = simulate._tails(stream, 3, 2.0)
        assert not stream.exponentials and not stream.uniforms
        np.testing.assert_array_equal(z, [-math.sqrt(5.0), math.sqrt(8.0), 2.0])

    def test_tails_at_a_zero_exponential(self):
        # e = 0 gives x = sqrt(fl(c^2)), the least value, within two roundings of
        # c, over floors from the lowest drawn (q = 1/8) to where q reaches 0
        for c in np.geomspace(1.53, 38.6, 10_001).tolist():
            z = simulate._tails(Stream([0.0], [0.0, 0.0]), 1, c)
            assert z.size == 1 and -z[0] >= c * (1.0 - 2.0 ** -52)

    @pytest.mark.parametrize("cfg", [PenaltyConfig(), PenaltyConfig(beta=0.5), K_COMMON_CFG])
    @pytest.mark.parametrize("n", [1, 2, 64, 1 << 17])
    @pytest.mark.parametrize("eps", [1e-300, 1e-5, 0.3, 1.0, 7.0, 1e100, 1e300])
    def test_no_null_select_k_could_read_goes_undrawn(self, cfg, n, eps):
        # a null left undrawn has |y| <= fl(eps * c): select_k drops it, below its
        # floor and its overflow limit.  c lies a few ulps below floor / eps
        c, floor = estimator._null_floor(cfg, n, eps, cfg.nu)
        cut = eps * penalty._level_record(cfg.key, n, cfg.nu)[0] * estimator._SHRINK
        assert eps * c <= floor <= cut
        assert c >= floor / eps * (1.0 - 1e-15)
        if math.isfinite(eps * eps * penalty._level_record(cfg.key, n, cfg.nu)[1]):
            y = np.zeros(n)
            y[-1] = -(eps * c)
            fit = estimator.select_k(y, cfg, eps, cfg.nu)
            assert fit.k_hat == 0 and fit.objective == y[-1] ** 2

    @pytest.mark.parametrize("cfg", [PenaltyConfig(), PenaltyConfig(beta=0.5), K_COMMON_CFG,
                                     PenaltyConfig(nu=1.05)])
    @pytest.mark.parametrize("n", [1, 2, 64, 1 << 17])
    @pytest.mark.parametrize("eps", [0.0, 5e-324, 1e-300, 1e-5, 0.3, 1.0, 7.0, 1e100, 1e300])
    def test_null_floor_is_the_floor_select_k_checks(self, cfg, n, eps):
        # the draw's floor and select_k's come from one level check: no floor
        # (cut 0.0) exactly where _null_floor gives None, else floor = min(cut, limit)
        limit = penalty._level_record(cfg.key, n, cfg.nu)[2]
        try:
            _, _, cut, _, _ = estimator._checked_level(np.zeros(n), cfg, eps, cfg.nu)
        except NumericalError as err:                 # eps^2 * pen(n) overflows: no fit
            assert "overflows" in str(err) and eps == 1e300
            return
        found = estimator._null_floor(cfg, n, eps, cfg.nu)
        assert (found is None) == (cut == 0.0)
        if found is not None:
            assert found[1] == min(cut, limit)

    def test_levels_without_a_floor_are_drawn_in_full(self):
        # eps = 0, and pen not increasing at n = 64 for nu = 1.05, leave select_k
        # no floor; at xi1 = 1e-4 almost every null lies above it (q = 0.96); a
        # level of spikes only has no null
        assert estimator._null_floor(PenaltyConfig(), 64, 0.0, 40.0) is None
        assert estimator._null_floor(PenaltyConfig(nu=1.05), 64, 1.0, 1.05) is None
        cfg = PenaltyConfig(xi1=1e-4)
        schedule = [(6, 1e-3, cfg.nu)] * 3
        levels = [np.zeros(64), spiked_level(64, 1, 1.0), spiked_level(64, 2, 1.0)]
        assert simulate._level_draws(cfg, schedule, levels) == [None] * 3
        spikes, values, nulls, q, _, floor = simulate._level_draws(
            PenaltyConfig(), schedule, levels)[2]
        assert spikes.tolist() == list(range(0, 64, 2)) and values.tolist() == [1.0] * 32
        assert nulls == 32 and 0 < q < 1e-5 and floor > 4e-3

    def test_law_of_k_and_of_the_values_above_the_floor(self):
        # level 10 of a zero truth at the two-sample floor (q = 0.109), 4,000
        # draws from one stream: K against Binomial(1024, q), the values against
        # the normal law above the floor and their signs against a fair coin.
        # The p-value bound 1e-3 was fixed before the run
        ((j, eps, nu),) = schedule = estimator._level_schedule(K_COMMON_CFG, K_COMMON_NOISE,
                                                               10, 10)
        theta = np.zeros(1024)
        (draw,) = simulate._level_draws(K_COMMON_CFG, schedule, [theta])
        _, _, nulls, q, c, floor = draw
        assert (c, floor) == estimator._null_floor(K_COMMON_CFG, 1024, eps, nu)
        assert nulls == 1024 and nulls * q > 100
        rng, y, ks, values = np.random.default_rng(2026), np.zeros(1024), [], []
        for _ in range(4000):
            written = simulate._draw_level(rng, draw, theta, eps, y)
            assert written.tolist() == list(range(written.size))   # the first K nulls
            ks.append(written.size)
            values.append(y[written] / eps)
            y[written] = 0.0
        assert not y.any()
        ks, values = np.array(ks), np.concatenate(values)
        # K: chi-square over 90 or less, 91..134 and 135 or more (mean 112, sd 10)
        edges = np.arange(90, 136)
        observed = np.bincount(np.clip(ks, 90, 135) - 90, minlength=46)
        expected = stats.binom.pmf(edges, nulls, q)
        expected[0], expected[-1] = stats.binom.cdf(90, nulls, q), stats.binom.sf(134, nulls, q)
        assert stats.chisquare(observed, 4000 * expected).pvalue > 1e-3
        assert np.abs(values).min() > c * (1.0 - 1e-14)
        cdf = lambda x: -np.expm1(np.log(stats.norm.sf(x)) - np.log(q / 2))
        assert stats.kstest(np.abs(values), cdf).pvalue > 1e-3
        assert stats.binomtest(int((values > 0).sum()), values.size).pvalue > 1e-3

    def test_matches_its_reference_where_nulls_are_drawn(self):
        # levels 8..10 at the two-sample floor, with 128 spikes of 8 eps on level
        # 10 and 8 of 3 eps on level 9: nulls above the floor are drawn on every
        # level of most replicates, and kept
        truth = MultiresSequence(8, (np.zeros(256), spiked_level(512, 64, 1.5),
                                     spiked_level(1024, 8, 4.0)))
        mean, stderr, per_level, kept = floor_sequence_mc_risk(truth, K_COMMON_CFG,
                                                               K_COMMON_NOISE, 200, 8)
        assert kept > 0
        got = mc_risk_for_truth(truth, K_COMMON_CFG, K_COMMON_NOISE, replicates=200, seed=8)
        assert got.mean_sse.hex() == mean.hex() and got.stderr_sse.hex() == stderr.hex()
        assert np.array_equal(got.per_level_sse, per_level)

    def test_two_sample_against_the_full_draw(self, monkeypatch):
        # level 10 at the two-sample floor with 128 spikes of 8 eps: about 112
        # nulls a replicate lie above the floor, and with the spikes kept the
        # threshold falls to where nulls are kept too.  The mean SSE and the mean k_hat of
        # the draw of what select_k reads against sequence_mc_risk's full draw,
        # 3,000 replicates each at independent seeds: each two-sample |z| must
        # stay within 4, a bound fixed before the run
        truth = MultiresSequence(10, (spiked_level(1024, 8, 4.0),))
        select, k_hats = estimator.select_k, []

        def recording(y, *args):
            fit = select(y, *args)
            k_hats[-1].append(fit.k_hat)
            return fit

        monkeypatch.setattr(estimator, "select_k", recording)
        k_hats.append([])
        ref = sequence_mc_risk(truth, K_COMMON_CFG, K_COMMON_NOISE, 3000, 1)
        k_hats.append([])
        got = mc_risk_for_truth(truth, K_COMMON_CFG, K_COMMON_NOISE, replicates=3000, seed=2)
        full, floor = (np.array(k) for k in k_hats)
        assert full.size == floor.size == 3000 and full.max() > 128
        z_sse = (got.mean_sse - ref[0]) / math.hypot(got.stderr_sse, ref[1])
        z_k = (floor.mean() - full.mean()) / math.sqrt((floor.var() + full.var()) / 3000)
        assert abs(z_sse) <= 4.0 and abs(z_k) <= 4.0

    @pytest.mark.parametrize("stand_in", [keep_everything, universal_threshold])
    @pytest.mark.parametrize("jmax", [9, 12])
    def test_stand_ins_are_fitted_on_the_full_draw(self, stand_in, jmax, monkeypatch):
        # a stand-in for select_k whose threshold lies below the floor could keep a
        # null left undrawn, so its replicate is drawn and fitted again in full:
        # the loop gives sequence_mc_risk's numbers bit for bit.  The redraw runs
        # the level loop again from the start of the replicate's stream, every
        # level drawn in full, as a truth too large for a block is drawn
        truth = make_signal(spec_for("shell_dense", DENSE_GAMMA, eps=2.0 ** -10, jmax=jmax))
        cfg, noise = PenaltyConfig(beta=0.5), NoiseSpec(epsilon=2.0 ** -10, beta=0.5)
        monkeypatch.setattr(estimator, "select_k", stand_in)
        mean, stderr, per_level, kept = sequence_mc_risk(truth, cfg, noise, 6, 3)
        assert kept > 0
        got = mc_risk_for_truth(truth, cfg, noise, replicates=6, seed=3)
        assert got.mean_sse.hex() == mean.hex() and got.stderr_sse.hex() == stderr.hex()
        assert np.array_equal(got.per_level_sse, per_level)


class TestFitRateExponent:
    def test_exact_power_law(self):
        eps = [2.0 ** -k for k in range(4, 10)]
        rows = [(e, e ** 0.8) for e in eps]
        slope, intercept, r_hat = fit_rate_exponent(rows)
        assert slope == pytest.approx(0.8, abs=1e-12)
        assert r_hat == pytest.approx(0.4, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            fit_rate_exponent([(0.5, 1.0), (0.25, 0.5), (0.125, 0.25)])
        with pytest.raises(ValidationError):
            fit_rate_exponent([(0.5, 1.0), (0.4, 0.5), (0.45, 0.25), (0.42, 0.1)])
        with pytest.raises(ValidationError):
            fit_rate_exponent([(0.5, 1.0), (0.25, 0.0), (0.125, 0.25), (0.0625, 0.1)])
        # checked before the fit: LAPACK would fail on inf, and nan is not "not positive"
        with pytest.raises(ValidationError, match="epsilon must be a finite number"):
            fit_rate_exponent([(0.5, 1.0), (0.25, 0.5), (0.125, 0.25), (math.inf, 0.1)])
        with pytest.raises(ValidationError, match="mean_sse must be a finite number"):
            fit_rate_exponent([(0.5, 1.0), (0.25, math.nan), (0.125, 0.25), (0.0625, 0.1)])


class TestOracleInequality:
    def test_zero_signal_ratio(self):
        cfg = PenaltyConfig(beta=0.5)
        spec = spec_for("zero", DENSE_GAMMA)
        noise = NoiseSpec(epsilon=spec.epsilon, beta=0.5)
        lhs, rhs, ratio = oracle_inequality_check(spec, cfg, noise,
                                                  replicates=20, seed=13)
        assert rhs > 0
        assert ratio <= 1.0

    def test_dense_shell_ratio(self):
        cfg = PenaltyConfig(beta=0.5)
        spec = spec_for("shell_dense", DENSE_GAMMA)
        noise = NoiseSpec(epsilon=spec.epsilon, beta=0.5)
        lhs, rhs, ratio = oracle_inequality_check(spec, cfg, noise,
                                                  replicates=20, seed=13)
        assert 0.0 < ratio <= 1.0
