import math

import numpy as np
import pytest
from scipy.linalg import cholesky_banded

from penseq import (HyperParams, MultiresSequence, NoiseSpec,
                    NumericalError, PenaltyConfig, SignalSpec, ValidationError, besov_norm,
                    fit_multiscale, fit_rate_exponent, make_signal,
                    mc_risk_for_truth, oracle_inequality_check, pen_vector, per_level_sse,
                    sample_noise, shell_radius)
from penseq.rates import j_plus, j_star
from penseq.simulate import _noise_bands, _replicate_rng, resolve_jmax

DENSE_GAMMA = HyperParams(1.0, 2.0, 2.0, 0.5)
SPARSE_GAMMA = HyperParams(0.75, 1.0, 1.0, 0.5)
CRITICAL_GAMMA = HyperParams(1.0, 1.0, 2.0, 0.5)


def spec_for(kind, gamma, eps=2.0 ** -8, **kw):
    return SignalSpec(kind=kind, gamma=gamma, radius=1.0, epsilon=eps, **kw)


def per_level_noise(rng, noise, jmax, j0=1):
    """The first noise sampler, one draw and one factorization per level, kept as
    the reference."""
    levels = []
    for j in range(j0, jmax + 1):
        n = 2 ** j
        g = rng.standard_normal(n)
        if noise.covariance == "identity" or n == 1:
            z = g
        else:
            ab = np.vstack([np.ones(n), np.full(n, noise.rho)])
            ab[1, -1] = 0.0
            lo = cholesky_banded(ab, lower=True)
            z = lo[0] * g
            z[1:] += lo[1, :-1] * g[:-1]
        levels.append(noise.epsilon_at(j) * z)
    return MultiresSequence(j0=j0, levels=tuple(levels))


def sequence_mc_risk(truth, cfg, noise, replicates, seed):
    """The first Monte Carlo loop, one sequence per draw and fit, kept verbatim as
    the reference; also returns the number of coefficients kept."""
    sses = np.empty(replicates)
    per_level = np.zeros(truth.jmax - truth.j0 + 1)
    kept = 0
    for rep in range(replicates):
        rng = _replicate_rng(seed, rep)
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


class TestSampleNoise:
    def test_deterministic(self):
        noise = NoiseSpec(epsilon=0.3, beta=0.5)
        a = sample_noise(noise, jmax=6, rng_seed=123)
        b = sample_noise(noise, jmax=6, rng_seed=123)
        for (_, x), (_, y) in zip(a.iter_levels(), b.iter_levels()):
            assert np.array_equal(x, y)
        c = sample_noise(noise, jmax=6, rng_seed=124)
        assert not np.array_equal(a.level(6), c.level(6))

    def test_level_scaling(self):
        noise = NoiseSpec(epsilon=0.25, beta=1.0)
        seq = sample_noise(noise, jmax=8, rng_seed=5)
        # z_j has unit variance, so level j has empirical std near eps * 2^j
        z = seq.level(8)
        assert np.std(z) == pytest.approx(noise.epsilon_at(8), rel=0.1)

    def test_identity_mean_concentration(self):
        # mean of the first coordinate over 10^4 replicate draws
        noise = NoiseSpec(epsilon=1.0)
        vals = np.empty(10_000)
        rng = np.random.default_rng(99)
        for i in range(vals.size):
            vals[i] = rng.standard_normal(2)[0]
        assert abs(vals.mean()) <= 4.0 / math.sqrt(vals.size)
        seq = sample_noise(noise, jmax=2, rng_seed=1)
        assert seq.level(1).size == 2

    def test_tridiagonal_lag_one_correlation(self):
        noise = NoiseSpec(epsilon=1.0, covariance="tridiagonal", rho=0.3)
        z = sample_noise(noise, jmax=14, rng_seed=7).level(14)
        lag1 = float(np.corrcoef(z[:-1], z[1:])[0, 1])
        assert lag1 == pytest.approx(0.3, abs=0.02)

    def test_tridiagonal_exact_covariance_small_n(self):
        # empirical covariance over many draws approaches the tridiagonal target
        noise = NoiseSpec(epsilon=1.0, covariance="tridiagonal", rho=-0.25)
        draws = np.stack([sample_noise(noise, jmax=2, rng_seed=s).level(2)
                          for s in range(4000)])
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

    @pytest.mark.parametrize("noise", [NoiseSpec(epsilon=0.3, beta=0.5)] + [
        NoiseSpec(epsilon=0.3, covariance="tridiagonal", rho=rho) for rho in (0.25, -0.4999, 0.49)])
    def test_one_draw_equals_per_level_draws(self, noise):
        # one draw of every normal, split by level, is bit for bit one draw per level
        for seed in range(5):
            one = sample_noise(noise, jmax=17, rng_seed=seed, j0=2)
            ref = per_level_noise(np.random.default_rng(np.random.SeedSequence(seed)),
                                  noise, jmax=17, j0=2)
            assert one.j0 == ref.j0 and one.jmax == ref.jmax
            for a, b in zip(one.levels, ref.levels):
                assert np.array_equal(a, b)

    def test_zero_epsilon(self):
        seq = sample_noise(NoiseSpec(epsilon=0.0), jmax=4, rng_seed=0)
        for _, coeffs in seq.iter_levels():
            assert not coeffs.any()


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
                                            ("shell_dense", 9)])
    def test_matches_sequence_loop_exactly(self, beta, rho, kind, jmax):
        gamma = HyperParams(1.0, 2.0, 2.0, beta)
        truth = make_signal(spec_for(kind, gamma, eps=2.0 ** -10, jmax=jmax))
        if rho:
            noise = NoiseSpec(epsilon=2.0 ** -10, beta=beta, covariance="tridiagonal", rho=rho)
        else:
            noise = NoiseSpec(epsilon=2.0 ** -10, beta=beta)
        cfg = PenaltyConfig(beta=beta, xi1=noise.xi1)
        got = mc_risk_for_truth(truth, cfg, noise, replicates=4, seed=11)
        mean, stderr, per_level, kept = sequence_mc_risk(truth, cfg, noise, 4, 11)
        # the spread signal keeps coefficients, the dense shell keeps none
        assert (kept > 0) == (kind == "besov_spread")
        assert got.mean_sse == mean and got.stderr_sse == stderr
        assert np.array_equal(got.per_level_sse, per_level)

    def test_numerical_error_names_the_level(self):
        # eps_j = 0.5 * 2^(100 j): the level-6 noise is too large to square
        with pytest.raises(NumericalError, match=r"level j=6: max\|y\| = .* at n=64"):
            mc_risk_for_truth(MultiresSequence.zeros(1, 6), PenaltyConfig(beta=100.0),
                              NoiseSpec(epsilon=0.5, beta=100.0), replicates=2, seed=0)

    @pytest.mark.parametrize("call", ["mc_risk_for_truth", "fit_multiscale", "sample_noise"])
    def test_level_scale_overflow_names_the_level(self, call):
        # 2^(100 j) leaves the float range at j = 11, before any level is fitted
        zeros, cfg = MultiresSequence.zeros(1, 11), PenaltyConfig(beta=100.0)
        noise = NoiseSpec(epsilon=0.5, beta=100.0)
        run = {"mc_risk_for_truth": lambda: mc_risk_for_truth(zeros, cfg, noise, 2, 0),
               "fit_multiscale": lambda: fit_multiscale(zeros, cfg, noise),
               "sample_noise": lambda: sample_noise(noise, 11, 0)}[call]
        with pytest.raises(NumericalError, match=r"level j=11: .* beta=100.0, epsilon=0.5"):
            run()

    def test_replicates_validated(self):
        cfg = PenaltyConfig(beta=0.5)
        spec = spec_for("shell_dense", DENSE_GAMMA)
        with pytest.raises(ValidationError):
            mc_risk_for_truth(make_signal(spec), cfg, NoiseSpec(epsilon=spec.epsilon, beta=0.5),
                              replicates=1, seed=0)


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
