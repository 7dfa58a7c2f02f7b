import math

import numpy as np
import pytest

from penseq import (MultiresSequence, NoiseSpec, NumericalError, PenaltyConfig,
                    ValidationError, fit_multiscale, ideal_risk, oracle_constant,
                    pen_vector, per_level_sse, select_k, subset_oracle)
from penseq.rates import CONTROL_BOUND_BASE, control_function

CFG = PenaltyConfig(zeta=2.0, nu=40.0, beta=0.0, xi1=1.0)


def oracle_projection(y, cfg, epsilon, nu_eff=None):
    idx, obj = subset_oracle(y, cfg, epsilon, nu_eff)
    proj = np.zeros(len(y))
    proj[list(idx)] = np.asarray(y)[list(idx)]
    return proj, obj


def mask_dp_oracle(y, cfg, epsilon, nu_eff=None):
    """The first subset_oracle's mask DP, kept verbatim as the reference."""
    y = np.asarray(y, dtype=float)
    n = y.size
    sq = y * y
    total = float(sq.sum())
    size = 1 << n
    masks = np.arange(size, dtype=np.int64)
    kept = np.zeros(size)
    card = np.zeros(size, dtype=np.int64)
    for i in range(n):
        bit = 1 << i
        has = (masks & bit) != 0
        kept[has] = kept[masks[has] ^ bit] + sq[i]
        card[has] = card[masks[has] ^ bit] + 1
    pens = pen_vector(cfg, n, nu_eff)
    obj = (total - kept) + (epsilon * epsilon) * pens[card]
    best = obj.min()
    cand = np.flatnonzero(obj == best)
    cand = cand[card[cand] == card[cand].min()]
    indices = min(tuple(i for i in range(n) if (int(m) >> i) & 1) for m in cand)
    return indices, float(best)


# Inputs on which two supports of minimal size tie through rounding: the 1e8
# coordinate absorbs the difference between y_0^2 and y_1^2 in the kept sum, so
# (0, 2, 3) and (1, 2, 3) reach the same objective (see test_lexicographic_tie_break).
ROUNDING_TIES = {
    0.0: ([1.000000000014552, 1.0000000000582077, 1e8, 1.0000000000873115],
          2.306811896628435e-05),
    0.5: ([1.0000000003929017, 1.0000000004656613, 1e8, 1.000000000014552],
          3.2526009647863515e-05),
}


def subset_objectives(y, cfg, epsilon):
    """{J: C_eps(J, y)} over every subset J, with subset_oracle's operations."""
    y = np.asarray(y, dtype=float)
    sq = y * y
    total = float(sq.sum())
    pens = pen_vector(cfg, y.size)
    out = {}
    for m in range(1 << y.size):
        J = tuple(i for i in range(y.size) if (m >> i) & 1)
        kept = 0.0
        for i in J:
            kept = kept + sq[i]
        out[J] = (total - kept) + (epsilon * epsilon) * pens[len(J)]
    return out


class TestSelectK:
    def test_zero_input(self):
        fit = select_k(np.zeros(16), CFG, 1.0)
        assert fit.k_hat == 0
        assert math.isinf(fit.threshold)
        assert not fit.estimate.any()
        assert fit.objective == 0.0

    def test_single_large_spike(self):
        n = 16
        big = 50.0 * math.sqrt(pen_vector(CFG, n)[1])
        y = np.zeros(n)
        y[0] = big
        fit = select_k(y, CFG, 1.0)
        assert fit.k_hat == 1
        assert np.array_equal(fit.estimate, y)

    @pytest.mark.parametrize("spike, k_hat", [(0.0, 0), (50.0, 1)])
    def test_caller_y_left_writable_and_estimate_read_only(self, spike, k_hat):
        # the fit freezes the estimate it builds, never the caller's y
        y = np.zeros(16)
        y[0] = spike * math.sqrt(pen_vector(CFG, 16)[1])
        before = y.copy()
        fit = select_k(y, CFG, 1.0)
        assert fit.k_hat == k_hat
        assert y.flags.writeable and np.array_equal(y, before)
        assert not fit.estimate.flags.writeable
        assert not np.shares_memory(fit.estimate, y)
        with pytest.raises(ValueError):
            fit.estimate[0] = 1.0

    def test_agrees_with_subset_oracle(self):
        rng = np.random.default_rng(21)
        for beta in (0.0, 0.5):
            cfg = PenaltyConfig(zeta=2.0, nu=40.0, beta=beta)
            for _ in range(60):
                n = int(rng.integers(1, 13))
                y = rng.standard_normal(n) * rng.uniform(0.5, 4.0)
                fit = select_k(y, cfg, 1.0)
                proj, obj = oracle_projection(y, cfg, 1.0)
                assert np.array_equal(proj, fit.estimate)
                assert fit.objective == pytest.approx(obj, rel=1e-12)

    def test_joint_scaling(self):
        rng = np.random.default_rng(22)
        y = rng.standard_normal(32)
        base = select_k(y, CFG, 0.7)
        for c in (0.1, 3.0):
            scaled = select_k(c * y, CFG, c * 0.7)
            assert scaled.k_hat == base.k_hat
            assert np.allclose(scaled.estimate, c * base.estimate, rtol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        y = rng.standard_normal(64)
        perm = rng.permutation(64)
        a = select_k(y, CFG, 1.0).estimate
        b = select_k(y[perm], CFG, 1.0).estimate
        assert np.array_equal(a[perm], b)

    def test_sign_equivariance(self):
        rng = np.random.default_rng(24)
        y = rng.standard_normal(64)
        signs = rng.choice([-1.0, 1.0], size=64)
        a = select_k(y, CFG, 1.0).estimate
        b = select_k(signs * y, CFG, 1.0).estimate
        assert np.array_equal(signs * a, b)

    def test_objective_consistency_and_threshold_form(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            y = rng.standard_normal(n) * 3.0
            fit = select_k(y, CFG, 1.0)
            recomputed = float(np.sum((y - fit.estimate) ** 2)) + pen_vector(CFG, n)[fit.k_hat]
            assert fit.objective == pytest.approx(recomputed, rel=1e-12)
            # hard-threshold representation, no shrinkage
            kept = fit.estimate != 0
            assert np.array_equal(fit.estimate[kept], y[kept])
            assert np.all(np.abs(y[kept]) > fit.threshold)
            assert np.all(np.abs(y[~kept]) <= fit.threshold)
            assert int(np.count_nonzero(fit.estimate)) == fit.k_hat

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            select_k(np.array([1.0, np.nan]), CFG, 1.0)
        with pytest.raises(ValidationError):
            select_k(np.array([]), CFG, 1.0)

    def test_nonmonotone_penalty_error_names_n_k_and_nu_eff(self):
        # with nu_eff this close to 1, pen(64) < pen(63); the error names the
        # nu_eff the penalty used, not cfg.nu
        with pytest.raises(NumericalError, match=r"k=64 \(n=64, nu_eff=1\.0002\)"):
            select_k(np.full(64, 3.0), PenaltyConfig(nu=1.0001), 1.0, nu_eff=1.0002)

    def test_zero_epsilon_keeps_everything_nonzero(self):
        y = np.array([1.0, 0.0, -2.0, 0.0])
        fit = select_k(y, CFG, 0.0)
        assert fit.k_hat == 2
        assert np.array_equal(fit.estimate, y)


class TestSubsetOracle:
    def test_zero_input(self):
        idx, obj = subset_oracle(np.zeros(5), CFG, 1.0)
        assert idx == ()
        assert obj == 0.0

    def test_two_point_enumeration(self):
        # hand enumeration of all four subsets; with zeta = 2 the single-keep
        # threshold is sqrt(pen(1)) = 3.77, so y = (3, 0.1) drops everything
        # while y = (5, 0.1) keeps the large coordinate
        cfg = PenaltyConfig(zeta=2.0, nu=2.0, beta=0.0, xi1=1.0)

        def enumerate_objs(y):
            return {
                (): y[0] ** 2 + y[1] ** 2,
                (0,): y[1] ** 2 + pen_vector(cfg, 2)[1],
                (1,): y[0] ** 2 + pen_vector(cfg, 2)[1],
                (0, 1): pen_vector(cfg, 2)[2],
            }

        y = np.array([3.0, 0.1])
        objs = enumerate_objs(y)
        idx, obj = subset_oracle(y, cfg, 1.0)
        assert idx == min(objs, key=objs.get) == ()
        assert obj == pytest.approx(objs[()], rel=1e-14)

        y = np.array([5.0, 0.1])
        objs = enumerate_objs(y)
        idx, obj = subset_oracle(y, cfg, 1.0)
        assert idx == min(objs, key=objs.get) == (0,)
        assert obj == pytest.approx(objs[(0,)], rel=1e-14)
        assert objs[(0,)] < objs[()] and objs[(0,)] < objs[(0, 1)]

    def test_size_limit(self):
        with pytest.raises(ValidationError):
            subset_oracle(np.zeros(21), CFG, 1.0)

    def test_tie_breaking_prefers_small_support(self):
        # epsilon = 0 makes every superset of the support tie at objective 0
        y = np.array([1.0, 0.0, 2.0, 0.0])
        idx, obj = subset_oracle(y, CFG, 0.0)
        assert idx == (0, 2)
        assert obj == 0.0

    @pytest.mark.parametrize("beta", sorted(ROUNDING_TIES))
    def test_lexicographic_tie_break(self, beta):
        cfg = PenaltyConfig(beta=beta)
        y, eps = ROUNDING_TIES[beta]
        objs = subset_objectives(y, cfg, eps)
        best = min(objs.values())
        size = min(len(J) for J, v in objs.items() if v == best)
        # the input really ties: two supports of minimal size reach the minimum
        assert [J for J, v in objs.items() if v == best and len(J) == size] == [(0, 2, 3),
                                                                              (1, 2, 3)]
        assert subset_oracle(y, cfg, eps) == ((0, 2, 3), best)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_doubling_table_matches_mask_dp_exactly(self, beta):
        cfg = PenaltyConfig(zeta=2.0, nu=40.0, beta=beta)
        rng = np.random.default_rng(29)
        for n in range(1, 13):
            t1 = math.sqrt(pen_vector(cfg, n)[1])
            signs = np.where(np.arange(n) % 3 == 1, -1.0, 1.0)
            cases = [(rng.standard_normal(n), 1.0) for _ in range(20)]
            cases += [(rng.standard_normal(n) * t1 * 2.0 ** rng.uniform(-2.0, 1.5), 1.0)
                      for _ in range(20)]
            # ties: all zero, equal magnitudes (every support of one size ties),
            # and eps = 0 (every superset of the support ties at objective 0)
            cases += [(np.zeros(n), 1.0)]
            cases += [(c * t1 * signs, 1.0) for c in (0.5, 0.9, 1.0, 1.1, 1.5, 3.0)]
            cases += [(np.where(rng.random(n) < 0.5, 0.0, rng.standard_normal(n)), 0.0)
                      for _ in range(5)]
            if n == 4:
                # supports of minimal size that tie through rounding
                cases += [(np.array(y), eps) for y, eps in ROUNDING_TIES.values()]
            for y, eps in cases:
                assert subset_oracle(y, cfg, eps) == mask_dp_oracle(y, cfg, eps)


class TestIdealRisk:
    def test_zero(self):
        assert ideal_risk(np.zeros(8), CFG, 1.0) == 0.0

    def test_single_spike_keeps(self):
        n = 8
        theta = np.zeros(n)
        theta[3] = 10.0 * math.sqrt(pen_vector(CFG, n)[1])
        assert ideal_risk(theta, CFG, 1.0) == pytest.approx(pen_vector(CFG, n)[1], rel=1e-13)

    def test_matches_subset_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            theta = rng.standard_normal(n) * rng.uniform(0.2, 5.0)
            _, obj = subset_oracle(theta, CFG, 1.0)
            assert ideal_risk(theta, CFG, 1.0) == pytest.approx(obj, rel=1e-12)

    def test_control_function_bound(self):
        # ideal risk <= frozen-constant * log(nu) * eps^2 * r_{n,p}(||theta||_p/eps)
        rng = np.random.default_rng(27)
        for beta in (0.0, 0.5):
            cfg = PenaltyConfig(zeta=2.0, nu=40.0, beta=beta)
            scale = CONTROL_BOUND_BASE * cfg.zeta * cfg.xi1 * (1 + 2 * beta) * math.log(cfg.nu)
            for p in (0.5, 1.0, 2.0):
                for _ in range(30):
                    n = int(rng.integers(4, 512))
                    m = int(rng.integers(1, n + 1))
                    c_over_eps = float(rng.uniform(0.1, 2.0) * n ** (1 / p))
                    theta = np.zeros(n)
                    theta[:m] = c_over_eps * m ** (-1.0 / p)
                    bound = scale * control_function(n, p, c_over_eps)
                    assert ideal_risk(theta, cfg, 1.0) <= bound


class TestMultiscale:
    def test_zero_fit(self):
        noise = NoiseSpec(epsilon=0.1, beta=0.0)
        y = MultiresSequence.zeros(1, 5)
        fit = fit_multiscale(y, CFG, noise)
        assert per_level_sse(fit, y).sum() == 0.0
        for f in fit.fits:
            assert f.k_hat == 0

    def test_recovers_isolated_spike(self):
        noise = NoiseSpec(epsilon=0.01, beta=0.5)
        cfg = PenaltyConfig(zeta=2.0, nu=40.0, beta=0.5)
        levels = [np.zeros(2 ** j) for j in range(1, 6)]
        spike = 100.0 * noise.epsilon_at(3) * math.sqrt(pen_vector(cfg, 8)[1])
        levels[2][5] = spike
        truth = MultiresSequence(j0=1, levels=tuple(levels))
        fit = fit_multiscale(truth, cfg, noise)
        assert per_level_sse(fit, truth).sum() == 0.0
        assert fit.fits[2].k_hat == 1

    def test_white_noise_beta_zero_threshold_structure(self):
        rng = np.random.default_rng(28)
        noise = NoiseSpec(epsilon=0.5, beta=0.0)
        levels = tuple(rng.standard_normal(2 ** j) for j in range(1, 7))
        y = MultiresSequence(j0=1, levels=levels)
        fit = fit_multiscale(y, CFG, noise)
        for j, f in zip(range(1, 7), fit.fits):
            assert noise.epsilon_at(j) == noise.epsilon
            pens = pen_vector(CFG, 2 ** j)
            t = np.sqrt(np.diff(pens))
            assert np.all(np.diff(t) < 0) or t.size == 1

    def test_beta_mismatch_rejected(self):
        noise = NoiseSpec(epsilon=0.1, beta=0.5)
        y = MultiresSequence.zeros(1, 3)
        with pytest.raises(ValidationError):
            fit_multiscale(y, CFG, noise)

    def test_numerical_error_names_the_level(self):
        levels = [np.zeros(2 ** j) for j in range(1, 7)]
        levels[5][:] = 3.0 / 16
        y = MultiresSequence(j0=1, levels=tuple(levels))
        # eps = 1/16 puts j_eps = 8 above every level, so nu_j = nu
        with pytest.raises(NumericalError,
                           match=r"level j=6: .*k=64 \(n=64, nu_eff=1\.0001\)"):
            fit_multiscale(y, PenaltyConfig(nu=1.0001), NoiseSpec(epsilon=1 / 16, beta=0.0))

    def test_overflowing_penalty_names_the_level(self):
        # eps_j = 0.5 * 2^(100 j): eps_6^2 = 2^1198 overflows, eps_5^2 * pen(32) does not
        cfg = PenaltyConfig(beta=100.0)
        with pytest.raises(NumericalError, match=r"level j=6: epsilon = .* at n=64"):
            fit_multiscale(MultiresSequence.zeros(1, 6), cfg, NoiseSpec(epsilon=0.5, beta=100.0))
        fit_multiscale(MultiresSequence.zeros(1, 5), cfg, NoiseSpec(epsilon=0.5, beta=100.0))

    def test_xi1_must_dominate(self):
        noise = NoiseSpec(epsilon=0.1, beta=0.0, covariance="tridiagonal", rho=0.3)
        y = MultiresSequence.zeros(1, 3)
        with pytest.raises(ValidationError):
            fit_multiscale(y, CFG, noise)  # cfg.xi1 = 1 < 1.6
        cfg = PenaltyConfig(zeta=2.0, nu=40.0, beta=0.0, xi1=1.6)
        fit_multiscale(y, cfg, noise)


class TestEmpiricalRisk:
    # the empirical risk ||estimate - truth||^2 is per_level_sse(...).sum()
    def test_exact_fit(self):
        y = MultiresSequence.zeros(1, 4)
        fit = fit_multiscale(y, CFG, NoiseSpec(epsilon=0.1, beta=0.0))
        assert per_level_sse(fit, y).sum() == 0.0

    def test_single_entry(self):
        truth = MultiresSequence.zeros(1, 3)
        levels = [np.zeros(2 ** j) for j in range(1, 4)]
        levels[1][2] = 5.0 * 0.5 * math.sqrt(pen_vector(CFG, 4)[1])
        y = MultiresSequence(j0=1, levels=tuple(levels))
        fit = fit_multiscale(y, CFG, NoiseSpec(epsilon=0.5, beta=0.0))
        v = levels[1][2]
        assert per_level_sse(fit, truth).sum() == pytest.approx(v * v, rel=1e-14)

    def test_additivity(self):
        rng = np.random.default_rng(31)
        levels = tuple(rng.standard_normal(2 ** j) for j in range(1, 6))
        y = MultiresSequence(j0=1, levels=levels)
        truth = MultiresSequence(j0=1, levels=tuple(rng.standard_normal(2 ** j)
                                                    for j in range(1, 6)))
        fit = fit_multiscale(y, CFG, NoiseSpec(epsilon=0.3, beta=0.0))
        # the level sums add up to ||estimate - truth||^2 over the whole sequence
        diff = np.concatenate([f.estimate for f in fit.fits]) - np.concatenate(truth.levels)
        assert per_level_sse(fit, truth).sum() == pytest.approx(float(diff @ diff), rel=1e-14)

    def test_shape_mismatch(self):
        y = MultiresSequence.zeros(1, 4)
        fit = fit_multiscale(y, CFG, NoiseSpec(epsilon=0.1, beta=0.0))
        with pytest.raises(ValidationError):
            per_level_sse(fit, MultiresSequence.zeros(1, 5))


@pytest.mark.parametrize("fn", [select_k, subset_oracle, ideal_risk])
@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -1.0])
def test_bad_epsilon_rejected(fn, epsilon):
    with pytest.raises(ValidationError):
        fn(np.array([1.0, -2.0, 0.5]), CFG, epsilon)


@pytest.mark.parametrize("fn", [select_k, subset_oracle, ideal_risk])
def test_overflowing_input_raises_numerical_error(fn):
    # 1e200 squares to inf; the check runs before anything is squared
    with pytest.raises(NumericalError, match=r"max\|y\| = 1e\+200 .* n=3"):
        fn(np.array([1e200, 1.0, -3.0]), CFG, 1.0)
    # at the limit sqrt(float max / (2n)) the sum of squares is still finite
    limit = math.sqrt(np.finfo(float).max / 6.0)
    fn(np.array([limit, -limit, limit]), CFG, 1.0)


@pytest.mark.parametrize("fn", [select_k, subset_oracle, ideal_risk])
def test_overflowing_penalty_raises_numerical_error(fn):
    # eps^2 = inf would make the k = 0 objective inf * 0 = nan
    with pytest.raises(NumericalError, match=r"epsilon = 1e\+200 at n=3"):
        fn(np.array([1.0, 2.0, 3.0]), CFG, 1e200)
    # eps^2 * pen(3) = 1e300 * 82.9 is still finite
    fn(np.array([1.0, 2.0, 3.0]), CFG, 1e150)


def test_oracle_constant_example():
    assert oracle_constant(2.0) == pytest.approx(108.0, rel=1e-15)
    with pytest.raises(ValidationError):
        oracle_constant(1.0)
