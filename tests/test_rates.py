import math

import numpy as np
import pytest

from penseq import (HyperParams, NumericalError, PenaltyConfig, ValidationError, Zone,
                    classify_zone, control_function, j_plus, j_star,
                    rate_control, rate_exponent, shell_profile, shell_risk,
                    shell_risk_closed_form, t1_complexity_sum)
from penseq.cli import PRESETS, ExperimentConfig
from penseq.rates import RateReport, _shell, shell_peak_value, shell_sparse_peak_value

LOG2 = math.log(2.0)

ZONE_PRESETS = [
    HyperParams(1.0, 2.0, 2.0, 0.5),   # dense, p >= 2
    HyperParams(2.0, 3.0, 2.0, 1.0),   # dense, p >= 2
    HyperParams(2.0, 1.0, 1.0, 0.4),   # dense, p < 2
    HyperParams(0.6, 1.0, 1.0, 1.0),   # sparse
    HyperParams(0.75, 1.0, 1.0, 0.5),  # sparse
    HyperParams(1.0, 1.0, 2.0, 0.5),   # critical
]


class TestControlFunction:
    def test_hand_values(self):
        assert control_function(16, 2.0, 2.0) == pytest.approx(4.0, rel=1e-15)
        assert control_function(8, 1.0, 10.0) == 8.0
        assert control_function(8, 1.0, 1.0) == 1.0      # C <= sqrt(1 + log 8) = 1.7548
        assert control_function(8, 1.0, 0.0) == 0.0

    def test_middle_branch_value(self):
        n, p, C = 64.0, 1.0, 4.0
        assert math.sqrt(1 + math.log(n)) < C < n
        expected = C * (1.0 + math.log(n / C)) ** 0.5
        assert control_function(n, p, C) == pytest.approx(expected, rel=1e-14)

    def test_monotone_in_C_within_branches(self):
        # the sparse/highly-sparse boundary carries a documented order-level
        # jump (downward), so monotonicity is asserted per branch and across
        # the dense boundary only
        n = 256.0
        for p in (0.5, 1.0, 1.7, 2.0, 4.0):
            cut = math.sqrt(1 + math.log(n))
            branches = ([(1e-3, cut), (cut * (1 + 1e-12), 1e3)] if p < 2
                        else [(1e-3, 1e3)])
            for lo, hi in branches:
                grid = np.geomspace(lo, hi, 120)
                vals = [control_function(n, p, c) for c in grid]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_n(self):
        for p in (0.5, 1.0, 1.7, 2.0, 4.0):
            for c in (0.5, 3.0, 40.0):
                vn = [control_function(n, p, c) for n in (2, 8, 64, 512)]
                assert all(b >= a - 1e-12 for a, b in zip(vn, vn[1:]))

    def test_continuity_at_dense_boundary(self):
        for p in (0.5, 1.0, 1.9, 2.0, 3.0):
            n = 128.0
            c = n ** (1.0 / p)
            below = control_function(n, p, c * (1 - 1e-9))
            above = control_function(n, p, c * (1 + 1e-9))
            assert below == pytest.approx(above, rel=1e-6)
            # C = n^(1/p) itself belongs to the large-signal branch
            assert control_function(n, p, c) == n
        # value and label take the same branch; these shells sit exactly on
        # the boundary, C_j / eps_j = n_j^(1/p) at j = j_star
        for p, alpha, j in ((0.5, 2.0, 4), (1.0, 1.0, 4), (2.0, 1.0, 4), (3.0, 1.0, 3)):
            g = HyperParams(alpha, p, 1.0, 0.5)
            eps = 2.0 ** (-(alpha + 1.0) * j)
            assert control_function(2.0 ** j, p, (2.0 ** j) ** (1.0 / p)) == 2.0 ** j
            assert _shell(g, 1.0, eps, j)[1] == "large-signal"

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            control_function(8, 1.0, -1.0)


class TestRateExponent:
    def test_examples(self):
        assert rate_exponent(HyperParams(1.0, 2.0, 2.0, 1.0)) == pytest.approx(0.4)
        assert rate_exponent(HyperParams(1.0, 1.0, 2.0, 0.5)) == pytest.approx(0.5)
        assert rate_exponent(HyperParams(0.6, 1.0, 1.0, 1.0)) == pytest.approx(0.2 / 2.2)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            try:
                g = HyperParams(alpha=float(rng.uniform(0.05, 4.0)),
                                p=float(rng.uniform(0.3, 4.0)),
                                q=float(rng.uniform(0.5, 4.0)),
                                beta=float(rng.uniform(0.0, 2.0)))
            except ValidationError:     # off the rate hypotheses
                continue
            assert 0.0 < rate_exponent(g) < 1.0

    def test_continuity_at_zone_boundary(self):
        p, q, beta = 1.0, 2.0, 0.5
        boundary = (2 * beta + 1) * (1 / p - 0.5)
        target = 1.0 - p / 2.0
        for d in (1e-6, 1e-8):
            dense = rate_exponent(HyperParams(boundary + d, p, q, beta))
            sparse = rate_exponent(HyperParams(boundary - d, p, q, beta))
            assert dense == pytest.approx(target, abs=2.0 * d)
            assert sparse == pytest.approx(target, abs=2.0 * d)


class TestRateControl:
    def test_dense_unit_radius(self):
        g = HyperParams(1.0, 2.0, 2.0, 0.5)
        r = rate_exponent(g)
        rep = rate_control(g, 1.0, 2.0 ** -10)
        assert rep.rate_value == pytest.approx((2.0 ** -10) ** (2 * r), rel=1e-12)
        assert math.isnan(rep.j_plus) and math.isnan(rep.R_plus)

    def test_critical_log_exponent_p_equals_q(self):
        g = HyperParams(1.5, 1.0, 1.0, 1.0)     # critical with p = q
        assert classify_zone(g) is Zone.CRITICAL
        r = rate_exponent(g)
        eps = 2.0 ** -8
        rep = rate_control(g, 1.0, eps)
        expected = eps ** (2 * r) * (1 + math.log(1 / eps)) ** r
        assert rep.rate_value == pytest.approx(expected, rel=1e-12)

    def test_critical_log_exponent_p_below_q(self):
        g = HyperParams(1.0, 1.0, 2.0, 0.5)     # critical with p < q
        assert classify_zone(g) is Zone.CRITICAL
        eps = 2.0 ** -8
        rep = rate_control(g, 1.0, eps)
        expected = eps ** 1.0 * (1 + math.log(1 / eps)) ** (0.5 + 0.5)
        assert rep.rate_value == pytest.approx(expected, rel=1e-12)

    def test_sparse_hand_value(self):
        g = HyperParams(0.6, 1.0, 1.0, 1.0)
        eps = 2.0 ** -10
        r = 1.0 / 11.0
        rep = rate_control(g, 1.0, eps)
        expected = eps ** (2 * r) * (1 + 10 * LOG2) ** r
        assert rep.r == pytest.approx(r, rel=1e-12)
        assert rep.rate_value == pytest.approx(expected, rel=1e-12)

    def test_epsilon_must_be_small(self):
        g = HyperParams(1.0, 2.0, 2.0, 0.5)
        with pytest.raises(ValidationError):
            rate_control(g, 1.0, 1.0)
        with pytest.raises(ValidationError):
            rate_control(g, 1.0, 2.0)

    def test_report_json(self):
        rep = rate_control(HyperParams(1.0, 2.0, 2.0, 0.5), 1.0, 2.0 ** -8)
        doc = rep.to_json_dict()
        assert doc["zone"] == "Dense"
        assert doc["j_plus"] is None and doc["R_plus"] is None

    def test_report_invariant(self):
        with pytest.raises(ValidationError):
            RateReport(zone=Zone.DENSE, r=1.2, rate_value=1.0, j_star=1.0,
                       j_plus=math.nan, R_star=1.0, R_plus=math.nan)


class TestCriticalIndices:
    def test_j_star_hand_value(self):
        g = HyperParams(1.0, 2.0, 2.0, 0.5)
        assert j_star(g, 1.0, 2.0 ** -10) == pytest.approx(5.0, rel=1e-14)
        assert j_star(g, 1.0, 1.0) == 0.0

    def test_j_star_log_linearity(self):
        g = HyperParams(0.8, 1.5, 2.0, 0.7)
        step = 1.0 / (g.alpha + g.beta + 0.5)
        for k in range(4, 10):
            d = j_star(g, 1.0, 2.0 ** -(k + 1)) - j_star(g, 1.0, 2.0 ** -k)
            assert d == pytest.approx(step, rel=1e-12)

    def test_j_plus_constructed_solution(self):
        g = HyperParams(1.0, 1.0, 2.0, 0.5)       # delta = a + beta = 1
        eps = 1.0 / (2.0 ** 5 * math.sqrt(1 + math.log(2.0 ** 5)))
        assert j_plus(g, 1.0, eps) == pytest.approx(5.0, abs=1e-10)
        assert j_plus(g, 1.0, 1.0) == 0.0

    def test_j_plus_defining_equation(self):
        g = HyperParams(0.75, 1.0, 1.0, 0.5)
        for k in (4, 8, 16):
            eps = 2.0 ** -k
            jp = j_plus(g, 1.0, eps)
            delta = g.a + g.beta
            lhs = 2.0 ** (delta * jp) * math.sqrt(1 + jp * LOG2)
            assert lhs == pytest.approx(1.0 / eps, rel=1e-10)

    def test_j_plus_exceeds_j_star_in_sparse(self):
        g = HyperParams(0.6, 1.0, 1.0, 1.0)
        for k in range(4, 24, 2):
            eps = 2.0 ** -k
            assert j_plus(g, 1.0, eps) > j_star(g, 1.0, eps)

    def test_j_plus_validation(self):
        with pytest.raises(ValidationError):
            j_plus(HyperParams(1.0, 2.0, 2.0, 0.5), 1.0, 0.1)   # p >= 2


def j_plus_equation(gamma, C, eps):
    """j_plus's equation in logs, g(j) = 0, with g built from gamma.a + gamma.beta
    as j_plus builds it."""
    delta = gamma.a + gamma.beta
    target = math.log(C / eps)
    return lambda j: delta * j * LOG2 + 0.5 * math.log1p(j * LOG2) - target


def gamma_with_delta(delta):
    # p = 1, beta = 0: delta = a + beta = alpha - 1/2
    return HyperParams(alpha=delta + 0.5, p=1.0, q=1.0, beta=0.0)


def j_plus_misses(gamma, C, eps):
    """None if j_plus is the first float past g's sign change (0.0 at C = eps) and
    within brentq's tolerance plus one ulp of brentq's root; else the inputs and j_plus."""
    from scipy.optimize import brentq

    jp = j_plus(gamma, C, eps)
    if C == eps:
        return None if jp == 0.0 else (gamma, C, eps, jp)
    g = j_plus_equation(gamma, C, eps)
    hi = math.log2(C / eps) / (gamma.a + gamma.beta)
    want = brentq(g, 0.0, hi, xtol=1e-13, rtol=8.9e-16)
    if (g(math.nextafter(jp, 0.0)) < 0.0 <= g(jp)
            and abs(jp - want) <= 1e-13 + 8.9e-16 * want + math.ulp(jp)):
        return None
    return (gamma, C, eps, jp)


class TestBrentPort:
    """j_plus against scipy.optimize.brentq, the reference it once matched bit for bit:
    the bisection lands on the first float past the sign change, within brentq's
    tolerance (plus one ulp) of brentq's root."""

    def test_random_brackets_match_brentq(self):
        rng = np.random.default_rng(20261019)
        deltas = 6.0 - rng.uniform(0.0, 5.5, 20_000)        # (0.5, 6]
        log2_ratios = rng.uniform(0.0, 80.0, 20_000)         # C/eps up to 2^80
        misses = [j_plus_misses(gamma_with_delta(delta), 1.0, 2.0 ** -u)
                  for delta, u in zip(deltas.tolist(), log2_ratios.tolist())]
        assert [m for m in misses if m is not None] == []

    @pytest.mark.parametrize("delta, C, eps", [
        (1.25, 1.0, 1.0),                    # C/eps = 1: the root is 0
        (1.25, 1.0 + 1e-15, 1.0),
        (1.25, 1e300, 1.0),
        (6.0, 1e300, 1e-8),
        (0.5 + 1e-12, 1.0, 2.0 ** -20),
        (0.5 + 1e-12, 1e300, 1.0),           # j_plus = 1982.7, 2.3e-13 between floats
    ])
    def test_edge_brackets_match_brentq(self, delta, C, eps):
        assert j_plus_misses(gamma_with_delta(delta), C, eps) is None

    @pytest.mark.parametrize("name", ["sparse", "critical"])
    def test_preset_inputs_match_brentq(self, name):
        # every epsilon of the presets that place signals at j_plus
        cfg = ExperimentConfig.from_dict(PRESETS[name])
        misses = [j_plus_misses(cfg.gamma, cfg.radius, eps)
                  for eps in cfg.epsilons + (cfg.epsilon,)]
        assert [m for m in misses if m is not None] == []


class TestShellRisk:
    @pytest.mark.parametrize("gamma", ZONE_PRESETS, ids=lambda g: f"a{g.alpha}p{g.p}b{g.beta}")
    def test_definition_matches_closed_form(self, gamma):
        C, eps = 1.0, 2.0 ** -8
        js = j_star(gamma, C, eps)
        jp = j_plus(gamma, C, eps) if gamma.p < 2 else None
        end = (jp if jp is not None else js) + 5.0
        for j in np.arange(0.0, end, 0.1):
            if abs(j - js) < 0.05 or (jp is not None and abs(j - jp) < 0.05):
                continue
            a = shell_risk(gamma, C, eps, j)
            b = shell_risk_closed_form(gamma, C, eps, j)
            assert a == pytest.approx(b, rel=1e-10)

    def test_large_signal_growth_ratio(self):
        g = HyperParams(1.0, 2.0, 2.0, 0.5)
        C, eps = 2.0, 2.0 ** -12
        js = j_star(g, C, eps)
        for j in np.arange(0.0, js - 1.0, 0.5):
            ratio = shell_risk(g, C, eps, j + 1) / shell_risk(g, C, eps, j)
            assert ratio == pytest.approx(2.0 ** (2 * g.beta + 1), rel=1e-12)

    def test_peak_value_dense_identity(self):
        for g in ZONE_PRESETS[:3]:
            C, eps = 1.5, 2.0 ** -9
            r = rate_exponent(g)
            assert shell_peak_value(g, C, eps) == pytest.approx(
                C ** (2 * (1 - r)) * eps ** (2 * r), rel=1e-12)

    def test_sparse_peak_is_third_branch_endpoint(self):
        g = HyperParams(0.75, 1.0, 1.0, 0.5)
        C, eps = 1.0, 2.0 ** -10
        jp = j_plus(g, C, eps)
        r_plus = shell_sparse_peak_value(g, C, eps)
        assert shell_risk(g, C, eps, jp) == pytest.approx(r_plus, rel=1e-10)
        # log-factor form of the same quantity
        r = rate_exponent(g)
        n_jp = 2.0 ** jp
        alt = C ** 2 * (C ** 2 / eps ** 2) ** (-r) * (1 + math.log(n_jp)) ** r
        assert r_plus == pytest.approx(alt, rel=1e-10)

    def test_sparse_middle_bound(self):
        g = HyperParams(0.6, 1.0, 1.0, 1.0)
        C, eps = 1.0, 2.0 ** -10
        js, jp = j_star(g, C, eps), j_plus(g, C, eps)
        rho = g.alpha - (2 * g.beta + 1) * (1 / g.p - 0.5)
        tau = -g.p * rho
        assert tau > 0
        r_plus = shell_sparse_peak_value(g, C, eps)
        for j in np.arange(js, jp, 0.05):
            assert shell_risk(g, C, eps, j) <= r_plus * 2.0 ** (-tau * (jp - j)) * (1 + 1e-9)

    def test_zone_labels(self):
        C, eps = 1.0, 2.0 ** -8

        def label_at(g, j):
            # the profile's label at its grid point nearest to j (step 0.1)
            prof = shell_profile(g, C, eps)
            i = int(np.argmin(np.abs(prof.j - j)))
            assert abs(prof.j[i] - j) <= 0.05 + 1e-12
            return prof.labels[i]

        g = HyperParams(0.75, 1.0, 1.0, 0.5)
        js, jp = j_star(g, C, eps), j_plus(g, C, eps)
        assert label_at(g, js - 1.0) == "large-signal"
        assert label_at(g, (js + jp) / 2) == "sparse"
        assert label_at(g, jp + 1.0) == "highly-sparse"
        g2 = HyperParams(1.0, 2.0, 2.0, 0.5)
        js2 = j_star(g2, C, eps)
        assert label_at(g2, js2 - 1.0) == "large-signal"
        assert label_at(g2, js2 + 1.0) == "small-signal"

    def test_profile_shape_dense(self):
        g = HyperParams(1.0, 2.0, 2.0, 0.5)
        prof = shell_profile(g, 1.0, 2.0 ** -8)
        peak = int(np.argmax(prof.values))
        assert np.all(np.diff(prof.values[:peak + 1]) > 0)
        assert np.all(np.diff(prof.values[peak + 1:]) < 0)
        text = prof.to_csv_text()
        assert text.startswith("j,R_j,zone_label")

    def test_overflow_raises_numerical_error(self):
        # eps_6 = 0.5 * 2^600: eps_6^2 overflows although R_6 itself is small
        g = HyperParams(alpha=1.0, p=2.0, q=2.0, beta=100.0)
        with pytest.raises(NumericalError, match=r"level j=6: .*beta=100\.0, epsilon=0\.5"):
            shell_risk(g, 1.0, 0.5, 6)
        # eps_206^2 = 2^822 is finite, but R_206 = eps_206^2 * 2^206 is not
        g = HyperParams(alpha=1.0, p=2.0, q=2.0, beta=2.0)
        with pytest.raises(NumericalError, match=r"level j=206\.0: .*beta=2\.0, epsilon=0\.5"):
            shell_risk(g, 1e300, 0.5, 206.0)


class TestOrderings:
    def test_r_plus_below_r_star_dense(self):
        g = HyperParams(2.0, 1.0, 1.0, 0.4)
        for k in range(8, 20, 2):
            eps = 2.0 ** -k
            assert shell_sparse_peak_value(g, 1.0, eps) <= shell_peak_value(g, 1.0, eps)

    def test_r_star_below_r_plus_sparse(self):
        for g in (HyperParams(0.6, 1.0, 1.0, 1.0), HyperParams(0.75, 1.0, 1.0, 0.5)):
            for k in range(8, 20, 2):
                eps = 2.0 ** -k
                assert shell_peak_value(g, 1.0, eps) <= shell_sparse_peak_value(g, 1.0, eps)


class TestRiskUpperBound:
    def test_t1_dominated_by_eps2_log(self):
        for beta in (0.0, 0.5, 1.0):
            cfg = PenaltyConfig(beta=beta)
            for k in (6, 10, 16):
                eps = 2.0 ** -k
                assert t1_complexity_sum(cfg, eps) <= 0.2 * eps ** 2 * math.log2(eps ** -2)

    def test_t1_values_unchanged(self):
        for beta, nu, k, value in [(0.0, 40.0, 6, 0.0001614122865680769),
                                   (0.5, 40.0, 10, 2.3943970598242277e-08),
                                   (1.0, 40.0, 16, 2.329575239956566e-13),
                                   (2.0, 3.0, 10, 1.5756226020590077e-07)]:
            cfg = PenaltyConfig(beta=beta, nu=nu)
            assert t1_complexity_sum(cfg, 2.0 ** -k) == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("beta", [3.0, 30.0, 100.0])
    def test_t1_finite_where_m_prime_underflows(self, beta):
        # M'_{n_j} underflows to 0 at these betas while eps_j^2 * M'_{n_j} does not
        cfg = PenaltyConfig(beta=beta)
        t1 = t1_complexity_sum(cfg, 0.5)
        assert math.isfinite(t1) and t1 >= 0.0
        assert t1_complexity_sum(cfg, 0.25) <= t1

    def test_t1_levels_past_the_float_range_raise_numerical_error(self):
        # j_cap = 2 * 412 + 200 = 1024 is the first level where n_j = 2^j overflows;
        # at 2^-411 the sum stops at j = 1022
        cfg = PenaltyConfig()
        assert t1_complexity_sum(cfg, 2.0 ** -411) == float.fromhex("0x1.5a753a0ac9f5bp-817")
        message = r"epsilon = 9\.45\d*e-125: .* j = 1024, .*overflows from j = 1024"
        with pytest.raises(NumericalError, match=message):
            t1_complexity_sum(cfg, 2.0 ** -412)


class TestSparseDenseIdentity:
    # for p < 2 the rate exponent is the smaller of the dense and sparse
    # exponents, the two agreeing exactly on the critical boundary
    @staticmethod
    def smaller_exponent(g):
        al, be, p = g.alpha, g.beta, g.p
        return min(2.0 * al / (2.0 * al + 2.0 * be + 1.0),
                   (2.0 * al - 2.0 / p + 1.0) / (2.0 * al + 2.0 * be - 2.0 / p + 1.0))

    def test_examples(self):
        for g, zone in ((HyperParams(1.0, 1.0, 2.0, 0.5), Zone.CRITICAL),
                        (HyperParams(0.6, 1.0, 1.0, 1.0), Zone.SPARSE),
                        (HyperParams(2.0, 1.0, 1.0, 0.4), Zone.DENSE)):
            assert classify_zone(g) is zone
            assert rate_exponent(g) == self.smaller_exponent(g)

    def test_random_sweep(self):
        rng = np.random.default_rng(42)
        zones = {Zone.DENSE: 0, Zone.SPARSE: 0}
        while sum(zones.values()) < 2000:
            try:
                g = HyperParams(alpha=float(rng.uniform(0.1, 3.0)),
                                p=float(rng.uniform(0.3, 1.99)),
                                q=float(rng.uniform(0.5, 4.0)),
                                beta=float(rng.uniform(0.0, 2.0)))
            except ValidationError:     # off the rate hypotheses
                continue
            zone = classify_zone(g)
            if zone not in zones:       # critical: a measure-zero set
                continue
            zones[zone] += 1
            assert rate_exponent(g) == self.smaller_exponent(g)
        assert min(zones.values()) > 0
