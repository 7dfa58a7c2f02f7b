import hashlib
import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penseq import (HyperParams, MultiresSequence, NoiseSpec,
                    NumericalError, PenaltyConfig, SignalSpec, ValidationError, besov_norm,
                    fit_multiscale, fit_rate_exponent, make_signal,
                    mc_risk_for_truth, oracle_inequality_check, pen_vector, per_level_sse,
                    shell_radius)
import penseq.estimator as estimator
import penseq.simulate as simulate
from penseq.cli import PRESETS, ExperimentConfig
from penseq.rates import j_plus, j_star
from penseq.simulate import (_draw, _noise_bands, _stream, _stream_words,
                             _tridiagonal_cholesky, resolve_jmax)

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
    """A stand-in for a replicate's generator whose normals all equal value."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, size, out):
        out.fill(self.value)
        return out


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
    """Replicate 0's z_j ~ N(0, Sigma_j) as the Monte Carlo loop draws it, split by level."""
    size = (2 << jmax) - (1 << j0)
    _, (z,), error = _draw(np.random.default_rng(0), _stream_words(seed, [0]), 0, 0, size,
                           np.empty((1, size)), _noise_bands(noise, j0, jmax),
                           np.empty((1, size)))
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
        # one generator serves every replicate, as one serves each thread of the
        # loop; a 32-bit draw between them leaves a buffered word that must not leak
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
        # per level, L L^T is the unit-diagonal tridiagonal covariance
        diag, sub = _noise_bands(NoiseSpec(epsilon=1.0, covariance="tridiagonal", rho=0.25),
                                 j0=2, jmax=5)
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


def overflow_case(j):
    """A zero truth on level j alone, its config and a noise with eps_j = 0.9 * 2^1023."""
    beta = 1023 / j                               # 93 at j = 11, 85.25 at j = 12: exact
    return MultiresSequence.zeros(j, j), PenaltyConfig(beta=beta), NoiseSpec(0.9, beta)


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
        # jmax = 15 is 65,534 coefficients, past the size that shares replicates;
        # the dense shell at jmax = 12 leaves most levels of a deep truth zero
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
        # more than 2^11 coefficients has one replicate to a block, drawn in parts;
        # a draw from a > 0 on is the second part of a replicate
        draw, drawn = simulate._draw, []
        monkeypatch.setattr(simulate, "_draw",
                            lambda *args: (args[3] > 0 and drawn.append(args[2])) or draw(*args))
        default = simulate._BLOCK_COEFS
        for replicates, block_coefs in ((first, default), (7, 3 * truth.size)):
            monkeypatch.setattr(simulate, "_BLOCK_COEFS", block_coefs)
            mean, stderr, per_level, kept = sequence_mc_risk(truth, cfg, noise, replicates, 11)
            # the spread signal and the spikes keep coefficients, the dense shell none
            assert (kept > 0) == (kind != "shell_dense")
            in_parts = block_coefs == default and truth.size > 1 << 11
            for threads in (1, 2):
                monkeypatch.setattr(simulate, "_replicate_threads", lambda size: threads)
                drawn.clear()
                got = mc_risk_for_truth(truth, cfg, noise, replicates=replicates, seed=11)
                assert sorted(drawn) == (list(range(replicates)) if in_parts else [])
                assert got.mean_sse.hex() == mean.hex() and got.stderr_sse.hex() == stderr.hex()
                assert np.array_equal(got.per_level_sse, per_level)

    @pytest.mark.parametrize("jmax, threads, replicates", [(7, 1, 100), (7, 2, 100), (15, 2, 6)])
    def test_one_select_k_call_per_replicate_and_level(self, jmax, threads, replicates,
                                                        monkeypatch):
        # the count the benchmark reads: 254 coefficients run in blocks of 16
        # replicates, the last one short, and 65,534 in blocks of one
        gamma = HyperParams(1.0, 2.0, 2.0, 0.5)
        truth = make_signal(spec_for("besov_spread", gamma, eps=2.0 ** -10, jmax=jmax))
        noise = NoiseSpec(epsilon=2.0 ** -10, beta=0.5, covariance="tridiagonal", rho=0.25)
        select_k, sizes = estimator.select_k, []

        def counting(y, *args):
            fit = select_k(y, *args)
            sizes.append(fit.estimate.size)
            return fit

        monkeypatch.setattr(estimator, "select_k", counting)
        monkeypatch.setattr(simulate, "_replicate_threads", lambda size: threads)
        mc_risk_for_truth(truth, PenaltyConfig(beta=0.5, xi1=noise.xi1), noise,
                          replicates=replicates, seed=2)
        assert sorted(sizes) == sorted(2 ** j for j in range(1, jmax + 1)
                                       for _ in range(replicates))
        assert sum(sizes) == replicates * truth.size

    def test_peak_memory_of_a_deep_truth(self, monkeypatch):
        # a truth of levels 1..17 has one replicate to a block, drawn in two
        # parts into a buffer of the top level's 2^17 normals, not a row of all
        # 262,142; the first run fills the estimator's caches (its shared zero
        # estimate of 2^17 floats among them), the second is measured
        monkeypatch.setattr(simulate, "_replicate_threads", lambda size: 1)
        args = (MultiresSequence.zeros(1, 17), PenaltyConfig(beta=0.5),
                NoiseSpec(epsilon=0.1, beta=0.5), 2, 0)
        mc_risk_for_truth(*args)
        tracemalloc.start()
        try:
            mc_risk_for_truth(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (1 << 17) * 8

    def test_replicate_threads(self):
        assert simulate._replicate_threads(simulate._THREADED_SIZE - 1) == 1
        assert 1 <= simulate._replicate_threads(simulate._THREADED_SIZE) <= 2

    def test_threads_under_a_short_switch_interval_match_one_thread(self, monkeypatch):
        # more threads than CPUs, switching as often as the interpreter allows:
        # a replicate lost or run twice would move the mean or the stderr
        gamma = HyperParams(1.0, 2.0, 2.0, 0.5)
        truth = make_signal(spec_for("besov_spread", gamma, eps=2.0 ** -6, jmax=7))
        noise = NoiseSpec(epsilon=2.0 ** -6, beta=0.5)
        cfg = PenaltyConfig(beta=0.5)
        one = mc_risk_for_truth(truth, cfg, noise, replicates=300, seed=5)
        monkeypatch.setattr(simulate, "_replicate_threads", lambda size: 4)
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            four = mc_risk_for_truth(truth, cfg, noise, replicates=300, seed=5)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert one.stderr_sse > 0
        assert four.mean_sse.hex() == one.mean_sse.hex()
        assert four.stderr_sse.hex() == one.stderr_sse.hex()
        assert np.array_equal(four.per_level_sse, one.per_level_sse)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lowest_failing_replicate_is_raised(self, threads, monkeypatch):
        # replicate 3 starts late, so with one replicate per block on two threads
        # replicate 4 fails first and 3 is in flight; on one thread 4 is never
        # taken: 3 is raised either way.  Two per block put 3 and 4 in different
        # blocks, and the default block holds all 40 replicates, so there the
        # failing replicates share one; a truth of 4,094 coefficients has one
        # replicate to a default block, drawn in parts, and fails either in the
        # levels below the top or only at the top level, the second part, whose
        # normals must continue the replicate's stream.  Each replicate's
        # normals all equal its index, so a level names the replicate it belongs to
        small, fit_level = MultiresSequence.zeros(1, 5), simulate._fit_level
        deep = MultiresSequence.zeros(1, 11)

        def rng(gen, words, rep):
            if rep == 3:
                time.sleep(0.05)
            return ConstantNormals(rep)

        def fit(j, level, cfg, eps_j, nu_j):
            rep = round(level[0] / eps_j)
            if rep in (3, 4, 7) and j >= lowest:     # the case's lowest failing level
                raise NumericalError(f"replicate {rep}")
            return fit_level(j, level, cfg, eps_j, nu_j)

        monkeypatch.setattr(simulate, "_replicate_threads", lambda size: threads)
        monkeypatch.setattr(simulate, "_stream", rng)
        monkeypatch.setattr(simulate, "_fit_level", fit)
        before = threading.active_count()
        for truth, block_coefs, lowest in (
                (small, small.size, 1), (small, 2 * small.size, 1),
                (small, simulate._BLOCK_COEFS, 1), (deep, simulate._BLOCK_COEFS, 1),
                (deep, simulate._BLOCK_COEFS, deep.jmax)):
            monkeypatch.setattr(simulate, "_BLOCK_COEFS", block_coefs)
            for _ in range(5):
                with pytest.raises(NumericalError, match=r"^replicate 3$"):
                    mc_risk_for_truth(truth, PenaltyConfig(beta=0.5),
                                      NoiseSpec(epsilon=0.1, beta=0.5), replicates=40, seed=1)
                assert threading.active_count() == before

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("failing, message", [
        ({"draw"}, r"^draw 5$"), ({"draw", "fit"}, r"^replicate 3$"),
        ({"filter", "fit"}, r"^filter$")])
    def test_failures_outside_the_fits_are_raised(self, failing, message, threads,
                                                   monkeypatch):
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

        monkeypatch.setattr(simulate, "_replicate_threads", lambda size: threads)
        monkeypatch.setattr(simulate, "_stream", rng)
        monkeypatch.setattr(simulate, "_fit_level", fit)
        if "filter" in failing:
            monkeypatch.setattr(simulate, "_correlate", correlate)
        before = threading.active_count()
        with pytest.raises(Exception, match=message):
            mc_risk_for_truth(truth, PenaltyConfig(beta=0.5, xi1=noise.xi1), noise,
                              replicates=40, seed=1)
        assert threading.active_count() == before

    def test_interrupt_stops_and_joins_the_worker(self, monkeypatch):
        # the main thread is interrupted in its first replicate; the worker
        # finishes the block of replicates it holds and is joined before the
        # interrupt propagates, far short of the 100,000 replicates asked for
        fit_level, main, done = simulate._fit_level, threading.main_thread(), []

        def fit(j, *args):
            if threading.current_thread() is main:
                raise KeyboardInterrupt
            done.append(j)
            return fit_level(j, *args)

        monkeypatch.setattr(simulate, "_replicate_threads", lambda size: 2)
        monkeypatch.setattr(simulate, "_fit_level", fit)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            mc_risk_for_truth(MultiresSequence.zeros(1, 3), PenaltyConfig(beta=0.5),
                              NoiseSpec(epsilon=0.1, beta=0.5), replicates=100_000, seed=1)
        assert threading.active_count() == before
        assert len(done) < 3 * 50_000

    def test_noise_overflow_names_the_level(self):
        # eps_j = 0.9 * 2^1023 is finite, eps_j * z overflows for |z| > 2.23; the
        # 4,096 coefficients of j = 12 run one replicate to a block
        for j in (11, 12):
            with pytest.raises(NumericalError, match=rf"^level j={j}: y_j = theta_j \+ eps_j \* "
                               rf"z_j overflows at n={2 ** j}, eps_j=8\.0\d+e\+307$"):
                mc_risk_for_truth(*overflow_case(j), 2, 0)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("normals, message", [
        ((0, 3, 3, 0, 3), r"epsilon = .* at n=2048: eps\^2 \* pen\(n\) overflows"),
        ((3, 0, 3, 0, 3), r"y_j = theta_j \+ eps_j \* z_j overflows at n=2048"),
    ])
    def test_noise_overflow_in_a_block_is_raised_in_replicate_order(
            self, normals, message, threads, monkeypatch):
        # replicate r's normals all equal normals[r]: at eps_j = 0.9 * 2^1023
        # every fit fails, and 3 * eps_j overflows before the fit.  At j = 11 the
        # overflow is found for the whole first block of 4 before any fit; at
        # j = 12 the default block holds one replicate.  Either way the error of
        # the lowest failing replicate is raised
        monkeypatch.setattr(simulate, "_stream",
                            lambda gen, words, rep: ConstantNormals(normals[rep]))
        monkeypatch.setattr(simulate, "_replicate_threads", lambda size: threads)
        for j, block_coefs in ((11, 4 * 2048), (12, simulate._BLOCK_COEFS)):
            monkeypatch.setattr(simulate, "_BLOCK_COEFS", block_coefs)
            with pytest.raises(NumericalError, match=rf"^level j={j}: "
                               + message.replace("2048", str(2 ** j))):
                mc_risk_for_truth(*overflow_case(j), len(normals), 0)

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
