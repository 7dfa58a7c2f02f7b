import math

import numpy as np
import pytest

from penseq import (HyperParams, PenaltyConfig, ValidationError, Zone,
                    classify_zone, control_function, j_plus, j_star,
                    lp_minimax_lower, rate_control, rate_exponent,
                    risk_upper_bound, shell_profile, shell_risk,
                    shell_risk_closed_form, sparse_dense_identity_check,
                    t1_complexity_sum)
from penseq.rates import (RateReport, shell_peak_value, shell_sparse_peak_value,
                          shell_zone_label)

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
            g = HyperParams(alpha, p, 1.0, 0.5).validate()
            eps = 2.0 ** (-(alpha + 1.0) * j)
            assert control_function(2.0 ** j, p, (2.0 ** j) ** (1.0 / p)) == 2.0 ** j
            assert shell_zone_label(g, 1.0, eps, j) == "large-signal"

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            control_function(8, 1.0, -1.0)


class TestRateExponent:
    def test_examples(self):
        assert rate_exponent(HyperParams(1.0, 2.0, 2.0, 1.0)) == pytest.approx(0.4)
        assert rate_exponent(HyperParams(1.0, 1.0, 2.0, 0.5)) == pytest.approx(0.5)
        assert rate_exponent(HyperParams(0.6, 1.0, 1.0, 1.0)) == pytest.approx(0.2 / 2.2)

    def test_invalid_rejected(self):
        with pytest.raises(ValidationError):
            rate_exponent(HyperParams(0.4, 1.0, 1.0, 1.0))

    def test_in_unit_interval(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            g = HyperParams(alpha=float(rng.uniform(0.05, 4.0)),
                            p=float(rng.uniform(0.3, 4.0)),
                            q=float(rng.uniform(0.5, 4.0)),
                            beta=float(rng.uniform(0.0, 2.0)))
            if classify_zone(g) is Zone.INVALID:
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
        g = HyperParams(0.75, 1.0, 1.0, 0.5)
        C, eps = 1.0, 2.0 ** -8
        js, jp = j_star(g, C, eps), j_plus(g, C, eps)
        assert shell_zone_label(g, C, eps, js - 1.0) == "large-signal"
        assert shell_zone_label(g, C, eps, (js + jp) / 2) == "sparse"
        assert shell_zone_label(g, C, eps, jp + 1.0) == "highly-sparse"
        g2 = HyperParams(1.0, 2.0, 2.0, 0.5)
        js2 = j_star(g2, C, eps)
        assert shell_zone_label(g2, C, eps, js2 - 1.0) == "large-signal"
        assert shell_zone_label(g2, C, eps, js2 + 1.0) == "small-signal"

    def test_profile_shape_dense(self):
        g = HyperParams(1.0, 2.0, 2.0, 0.5)
        prof = shell_profile(g, 1.0, 2.0 ** -8)
        peak = int(np.argmax(prof.values))
        assert np.all(np.diff(prof.values[:peak + 1]) > 0)
        assert np.all(np.diff(prof.values[peak + 1:]) < 0)
        text = prof.to_csv_text()
        assert text.startswith("j,R_j,zone_label")


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

    def test_tracks_rate_control(self):
        # the bound-to-rate ratio stays in a fixed window over 4+ decades;
        # observed ranges: dense 1.8e4-1.9e4, sparse 5.6e4-8.2e4, critical
        # 1.5e4-2.0e4 (constants frozen with headroom)
        for g in (HyperParams(1.0, 2.0, 2.0, 0.5),
                  HyperParams(0.75, 1.0, 1.0, 0.5),
                  HyperParams(1.0, 1.0, 2.0, 0.5)):
            cfg = PenaltyConfig(beta=g.beta)
            ratios = [risk_upper_bound(g, 1.0, 2.0 ** -k, cfg)
                      / rate_control(g, 1.0, 2.0 ** -k).rate_value
                      for k in range(6, 21, 2)]
            assert 1e3 <= min(ratios) and max(ratios) <= 1e6
            assert max(ratios) / min(ratios) <= 4.0

    def test_large_radius_slope(self):
        g = HyperParams(1.0, 2.0, 2.0, 0.5)
        cfg = PenaltyConfig(beta=0.5)
        eps = 2.0 ** -10
        r = rate_exponent(g)
        cs = np.array([2.0 ** k for k in range(3, 9)])
        vals = np.array([risk_upper_bound(g, c, eps, cfg) for c in cs])
        slope = np.polyfit(np.log2(cs), np.log2(vals), 1)[0]
        assert slope == pytest.approx(2 * (1 - r), abs=0.05)

    def test_invalid_zone_rejected(self):
        with pytest.raises(ValidationError):
            risk_upper_bound(HyperParams(0.4, 1.0, 1.0, 0.2), 1.0, 2.0 ** -8,
                             PenaltyConfig(beta=0.2))


class TestLpMinimaxLower:
    def test_capped_dense_case(self):
        # eta >= 1 with p = 2: the value saturates at n * eps^2
        assert lp_minimax_lower(64, 2.0, 100.0, 1.0) == pytest.approx(64.0)
        assert lp_minimax_lower(64, 2.0, 8.0, 1.0) == pytest.approx(64.0)

    def test_dense_shell_anchor(self):
        # at the large/small-signal boundary level the lower bound tracks
        # Xi0^2 * C^(2(1-r)) * eps^(2r) (ratio observed in [0.6, 1.05])
        g = HyperParams(1.0, 2.0, 2.0, 0.5)
        r = rate_exponent(g)
        xi0 = 0.8
        for k in (6, 8, 10, 12, 14):
            eps = 2.0 ** -k
            j = int(math.floor(j_star(g, 1.0, eps) + 0.5))
            n = 2 ** j
            c_j = 2.0 ** (-g.a * j)
            eps_j = xi0 * eps * 2.0 ** (g.beta * j)
            low = lp_minimax_lower(n, g.p, c_j, eps_j)
            ratio = low / (xi0 ** 2 * eps ** (2 * r))
            assert 0.5 <= ratio <= 1.1

    def test_sparse_shell_anchor(self):
        # at the sparse/highly-sparse boundary the bound tracks
        # Xi0^2 * eps_j^2 * log n_j (ratio observed in [1.2, 2.1])
        g = HyperParams(0.75, 1.0, 1.0, 0.5)
        xi0 = 0.8
        for k in (6, 8, 10, 12, 14):
            eps = 2.0 ** -k
            j = int(math.floor(j_plus(g, 1.0, eps) + 0.5))
            n = 2 ** j
            c_j = 2.0 ** (-g.a * j)
            eps_j = xi0 * eps * 2.0 ** (g.beta * j)
            low = lp_minimax_lower(n, g.p, c_j, eps_j)
            ratio = low / (eps_j ** 2 * math.log(n))
            assert 1.0 <= ratio <= 2.5

    def test_validation(self):
        with pytest.raises(ValidationError):
            lp_minimax_lower(1, 2.0, 1.0, 0.1)


class TestSparseDenseIdentity:
    def test_examples(self):
        assert sparse_dense_identity_check(HyperParams(1.0, 1.0, 2.0, 0.5))   # critical
        assert sparse_dense_identity_check(HyperParams(0.6, 1.0, 1.0, 1.0))   # sparse
        assert sparse_dense_identity_check(HyperParams(2.0, 1.0, 1.0, 0.4))   # dense p<2

    def test_random_sweep(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 300:
            g = HyperParams(alpha=float(rng.uniform(0.1, 3.0)),
                            p=float(rng.uniform(0.3, 1.99)),
                            q=float(rng.uniform(0.5, 4.0)),
                            beta=float(rng.uniform(0.0, 2.0)))
            if g.a + g.beta <= 0:
                continue
            checked += 1
            assert sparse_dense_identity_check(g)

    def test_requires_p_below_two(self):
        with pytest.raises(ValidationError):
            sparse_dense_identity_check(HyperParams(1.0, 2.0, 2.0, 0.5))
        with pytest.raises(ValidationError):
            sparse_dense_identity_check(HyperParams(0.2, 0.45, 3.0, 0.9))
