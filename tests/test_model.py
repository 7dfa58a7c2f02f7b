import json

import numpy as np
import pytest

from penseq import (HyperParams, MultiresSequence, NoiseSpec, NumericalError,
                    ValidationError, Zone, besov_norm, classify_zone, shell_radius)


def random_sequence(rng, j0=1, jmax=5):
    return MultiresSequence(
        j0=j0, levels=tuple(rng.standard_normal(2 ** j) for j in range(j0, jmax + 1)))


class TestHyperParams:
    def test_field_validation(self):
        with pytest.raises(ValidationError):
            HyperParams(alpha=0.0, p=2.0, q=2.0)
        with pytest.raises(ValidationError):
            HyperParams(alpha=1.0, p=-1.0, q=2.0)
        with pytest.raises(ValidationError):
            HyperParams(alpha=1.0, p=2.0, q=0.0)
        with pytest.raises(ValidationError):
            HyperParams(alpha=1.0, p=2.0, q=2.0, beta=-0.1)
        with pytest.raises(ValidationError):
            HyperParams(alpha=float("nan"), p=2.0, q=2.0)

    def test_validate_raises_on_rate_hypotheses(self):
        # construction enforces the rate hypotheses; compactness failure first
        with pytest.raises(ValidationError) as err:
            HyperParams(alpha=0.3, p=1.0, q=1.0, beta=2.0)
        assert str(err.value) == "compactness requires alpha > (1/p - 1/2)_+; got alpha=0.3, p=1.0"
        # alpha + beta <= 1/p with p < 2
        with pytest.raises(ValidationError) as err:
            HyperParams(alpha=0.6, p=1.0, q=1.0, beta=0.2)
        assert str(err.value) == ("hyper-parameters need alpha + beta > 1/p for p < 2; "
                                  "got alpha=0.6, beta=0.2, p=1.0")
        HyperParams(alpha=1.0, p=2.0, q=2.0, beta=0.5)

    def test_shell_exponent(self):
        g = HyperParams(alpha=1.0, p=2.0, q=2.0)
        assert g.a == 1.0


class TestBesovNorm:
    def test_zero_sequence(self):
        theta = MultiresSequence.zeros(1, 4)
        assert besov_norm(theta, HyperParams(1.0, 2.0, 2.0)) == 0.0

    def test_single_level_hand_value(self):
        # one level j=1 with theta = (1, 0): weight 2^(a*q*j) = 4, norm = 2
        theta = MultiresSequence(j0=1, levels=(np.array([1.0, 0.0]),))
        g = HyperParams(alpha=1.0, p=2.0, q=2.0, beta=0.0)
        assert besov_norm(theta, g) == pytest.approx(2.0, rel=1e-15)

    def test_beta_does_not_enter(self):
        rng = np.random.default_rng(11)
        theta = random_sequence(rng)
        g0 = HyperParams(alpha=0.8, p=1.5, q=1.2, beta=0.0)
        g1 = HyperParams(alpha=0.8, p=1.5, q=1.2, beta=1.7)
        assert besov_norm(theta, g0) == besov_norm(theta, g1)

    def test_absolutely_homogeneous(self):
        rng = np.random.default_rng(12)
        theta = random_sequence(rng)
        g = HyperParams(alpha=1.0, p=1.0, q=3.0, beta=0.5)
        base = besov_norm(theta, g)
        for c in (0.0, 0.25, 3.0):
            assert besov_norm(theta.scale(c), g) == pytest.approx(c * base, rel=1e-12)

    @pytest.mark.parametrize("x, gamma", [
        (1e-200, HyperParams(1.0, 2.0, 2.0)),    # the square underflows to 0
        (1e160, HyperParams(1.0, 2.0, 2.0)),     # the square overflows
        (1e300, HyperParams(2.0, 3.0, 2.0)),     # the cube overflows
    ])
    def test_single_coefficient_past_the_float_range(self, x, gamma):
        # one coefficient x at level 1: the norm is 2^a * |x| exactly
        theta = MultiresSequence(j0=1, levels=(np.array([x, 0.0]),))
        assert besov_norm(theta, gamma) == pytest.approx(2.0 ** gamma.a * x, rel=1e-15, abs=0.0)

    def test_weight_past_the_float_range(self):
        # 2^(a*q*j) = 2^1040 overflows, 2^1040 * |theta_1| = 2^-5 does not
        g = HyperParams(alpha=1040.5, p=1.0, q=1.0)
        theta = MultiresSequence(j0=1, levels=(np.array([2.0 ** -1045, 0.0]),))
        assert besov_norm(theta, g) == 2.0 ** -5

    def test_small_p_root_past_the_float_range(self):
        # level 12 filled with 2^-1070 at p = 0.01: the scaled sum S' is about
        # 2^12, so S'^(1/p) overflowed before 2^s was applied.  The level norm
        # is 4096^100 * 2^-1070 = 2^130 and its weight 2^(1.5 * 12)
        levels = [np.zeros(2 ** j) for j in range(1, 12)] + [np.full(4096, 2.0 ** -1070)]
        theta = MultiresSequence(j0=1, levels=tuple(levels))
        g = HyperParams(alpha=101.0, p=0.01, q=1.0)
        assert besov_norm(theta, g) == pytest.approx(2.0 ** 148, rel=1e-12, abs=0.0)
        # at p = 1/1100 the level norm of 129 coefficients 2^-1074 is about
        # 2^(1100 * 7) * 2^-1074: an overflow, never 0 from an underflowing m^(1/p)
        level = np.zeros(256)
        level[:129] = 2.0 ** -1074
        with pytest.raises(NumericalError, match=r"level j=8: "):
            besov_norm(MultiresSequence(j0=8, levels=(level,)),
                       HyperParams(alpha=1100.0 - 0.49, p=1.0 / 1100.0, q=1.0, beta=1.0))

    def test_overflowing_norm_raises_numerical_error(self):
        theta = MultiresSequence(j0=1, levels=(np.zeros(2), np.array([1e308, 0.0, 0.0, 0.0])))
        with pytest.raises(NumericalError, match=r"level j=2: .*alpha=1\.0, p=2\.0"):
            besov_norm(theta, HyperParams(1.0, 2.0, 2.0))

    def test_nonfinite_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            MultiresSequence(j0=1, levels=(np.array([np.nan, 0.0]),))
        with pytest.raises(ValidationError):
            MultiresSequence(j0=1, levels=(np.array([np.inf, 0.0]),))


class TestShellRadius:
    def test_boundary_exponent_zero(self):
        # alpha = 1/p - 1/2 exactly would give a = 0 and a constant C_j;
        # compactness excludes it, so every shell radius decays
        with pytest.raises(ValidationError, match="compactness"):
            HyperParams(alpha=0.5, p=1.0, q=1.0, beta=1.0)
        g = HyperParams(alpha=0.5 + 1e-9, p=1.0, q=1.0, beta=1.0)
        assert g.a > 0
        assert shell_radius(g, 1.0, 0) == 1.0
        assert 0.0 < 1.0 - shell_radius(g, 1.0, 17) < 1e-7

    def test_hand_value(self):
        g = HyperParams(alpha=1.0, p=2.0, q=2.0, beta=0.0)
        assert shell_radius(g, 4.0, 2) == pytest.approx(1.0, rel=1e-15)

    def test_geometric_decay(self):
        g = HyperParams(alpha=1.0, p=2.0, q=2.0, beta=0.3)
        for j in range(6):
            ratio = shell_radius(g, 2.0, j + 1) / shell_radius(g, 2.0, j)
            assert ratio == pytest.approx(2.0 ** (-g.a), rel=1e-12)

    def test_membership_implies_shell_bound(self):
        rng = np.random.default_rng(13)
        g = HyperParams(alpha=0.9, p=1.5, q=2.5, beta=0.4)
        for _ in range(25):
            raw = random_sequence(rng, jmax=6)
            norm = besov_norm(raw, g)
            theta = raw.scale(rng.uniform(0.1, 1.0) / norm)
            assert besov_norm(theta, g) <= 1.0
            for j, coeffs in theta.iter_levels():
                lp = float(np.sum(np.abs(coeffs) ** g.p) ** (1 / g.p))
                assert lp <= shell_radius(g, 1.0, j) * (1 + 1e-12)


class TestClassifyZone:
    def test_examples(self):
        assert classify_zone(HyperParams(2.0, 2.0, 2.0, 1.0)) is Zone.DENSE
        assert classify_zone(HyperParams(0.6, 1.0, 1.0, 1.0)) is Zone.SPARSE
        assert classify_zone(HyperParams(1.0, 1.0, 2.0, 0.5)) is Zone.CRITICAL

    def test_invalid_cases(self):
        # no zone exists off the rate hypotheses: construction rejects them
        with pytest.raises(ValidationError, match="compactness"):
            HyperParams(0.4, 1.0, 1.0, 1.0)
        with pytest.raises(ValidationError, match="alpha \\+ beta > 1/p"):
            HyperParams(0.6, 1.0, 1.0, 0.3)

    def test_p_ge_2_never_sparse_or_critical(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            g = HyperParams(alpha=float(rng.uniform(0.05, 4.0)),
                            p=float(rng.uniform(2.0, 6.0)),
                            q=float(rng.uniform(0.5, 4.0)),
                            beta=float(rng.uniform(0.0, 2.0)))
            assert classify_zone(g) is Zone.DENSE

    def test_partition_of_valid_set(self):
        rng = np.random.default_rng(15)
        seen = set()
        for _ in range(500):
            alpha, p, q, beta = (float(rng.uniform(0.05, 4.0)), float(rng.uniform(0.3, 4.0)),
                                 float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.0, 2.0)))
            valid = alpha > max(1 / p - 0.5, 0) and (p >= 2 or alpha + beta > 1 / p)
            try:
                zone = classify_zone(HyperParams(alpha, p, q, beta))
            except ValidationError:
                assert not valid
                seen.add(None)
                continue
            assert valid and zone in (Zone.DENSE, Zone.SPARSE, Zone.CRITICAL)
            seen.add(zone)
        assert Zone.DENSE in seen and None in seen

    def test_critical_tolerance_and_override(self):
        boundary = 2.0 * 0.5  # (2*beta+1)*(1/p-1/2) at p=1, beta=0.5
        near = HyperParams(boundary + 1e-13, 1.0, 2.0, 0.5)
        assert classify_zone(near) is Zone.CRITICAL
        off = HyperParams(boundary + 1e-9, 1.0, 2.0, 0.5)
        assert classify_zone(off) is Zone.DENSE


class TestMembership:
    def test_boundary_scaling(self):
        rng = np.random.default_rng(16)
        g = HyperParams(1.2, 1.0, 1.0, 0.5)
        raw = random_sequence(rng, jmax=5)
        theta = raw.scale(2.0 / besov_norm(raw, g))
        while besov_norm(theta, g) > 2.0:
            theta = theta.scale(1.0 - 1e-15)
        assert besov_norm(theta, g) <= 2.0
        assert not besov_norm(theta.scale(1.0 + 1e-6), g) <= 2.0


class TestMultiresSequence:
    def test_level_length_validated(self):
        with pytest.raises(ValidationError, match="level length"):
            MultiresSequence(j0=1, levels=(np.array([1.0, 2.0, 3.0]),))
        with pytest.raises(ValidationError, match="level length"):
            MultiresSequence(j0=2, levels=(np.zeros(2),))

    def test_j0_validated(self):
        with pytest.raises(ValidationError):
            MultiresSequence(j0=0, levels=(np.zeros(1),))

    def test_levels_read_only(self):
        seq = MultiresSequence.zeros(1, 3)
        with pytest.raises(ValueError):
            seq.level(2)[0] = 1.0

    @pytest.mark.parametrize("kind", ["list", "float", "view", "int", "subclass"])
    def test_levels_are_copies_of_the_input(self, kind):
        # each stored level owns its memory and is read-only; the caller's input
        # stays writable, whether the level was converted or copied
        base = np.arange(16.0)
        given = {"list": base[:4].tolist(), "float": base[:4].copy(), "view": base[::4],
                 "int": np.arange(4), "subclass": base[:4].copy().view(np.memmap)}[kind]
        level = MultiresSequence(2, [given]).level(2)
        assert np.array_equal(level, [0.0, 1.0, 2.0, 3.0] if kind != "view" else base[::4])
        assert not level.flags.writeable
        if kind != "list":
            assert not np.shares_memory(level, given) and given.flags.writeable
            given[0] = 99
            assert level[0] == 0.0

    def test_json_round_trip(self):
        rng = np.random.default_rng(17)
        seq = random_sequence(rng, j0=2, jmax=4)
        back = MultiresSequence.from_json(seq.to_json())
        assert back.j0 == seq.j0 and back.jmax == seq.jmax
        for j, lev in seq.iter_levels():
            assert np.array_equal(lev, back.level(j))

    def test_from_json_rejects_malformed(self):
        with pytest.raises(ValidationError, match="level length"):
            MultiresSequence.from_json(json.dumps({"j0": 1, "levels": [[0.0, 1.0, 2.0]]}))
        with pytest.raises(ValidationError):
            MultiresSequence.from_json("not json {{{")
        with pytest.raises(ValidationError):
            MultiresSequence.from_json(json.dumps({"levels": [[0.0, 1.0]]}))


class TestNoiseSpec:
    def test_level_scale(self):
        noise = NoiseSpec(epsilon=0.25, beta=0.5)
        assert noise.epsilon_at(4) == pytest.approx(0.25 * 4.0, rel=1e-15)
        assert NoiseSpec(epsilon=0.1, beta=0.0).epsilon_at(9) == pytest.approx(0.1)

    def test_default_eigen_bounds(self):
        white = NoiseSpec(epsilon=1.0)
        assert white.xi0 == 1.0 and white.xi1 == 1.0
        tri = NoiseSpec(epsilon=1.0, covariance="tridiagonal", rho=0.3)
        assert tri.xi0 == pytest.approx(0.4)
        assert tri.xi1 == pytest.approx(1.6)

    def test_eigen_bounds_must_bracket(self):
        with pytest.raises(ValidationError):
            NoiseSpec(epsilon=1.0, covariance="tridiagonal", rho=0.3, xi0=0.5, xi1=1.6)
        with pytest.raises(ValidationError):
            NoiseSpec(epsilon=1.0, covariance="tridiagonal", rho=0.3, xi0=0.4, xi1=1.5)
        NoiseSpec(epsilon=1.0, covariance="tridiagonal", rho=0.3, xi0=0.3, xi1=2.0)

    def test_rho_range(self):
        with pytest.raises(ValidationError):
            NoiseSpec(epsilon=1.0, covariance="tridiagonal", rho=0.5)
        with pytest.raises(ValidationError):
            NoiseSpec(epsilon=1.0, covariance="tridiagonal", rho=-0.7)

    def test_epsilon_zero_allowed(self):
        assert NoiseSpec(epsilon=0.0).epsilon_at(3) == 0.0

    @pytest.mark.parametrize("epsilon, beta, j", [(0.5, 100.0, 11), (4.0, 1.0, 1023)])
    def test_level_scale_past_float_range(self, epsilon, beta, j):
        # the power overflows at 2^1100; 4 * 2^1023 overflows in the product
        with pytest.raises(NumericalError, match=f"level j={j}: .*beta={beta}, epsilon={epsilon}"):
            NoiseSpec(epsilon=epsilon, beta=beta).epsilon_at(j)
