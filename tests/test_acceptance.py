"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Exact oracle equivalences and closed-form identities are checked at tight
tolerances; Monte Carlo rate-recovery experiments at the stated desk-scale
tolerances.
"""

import math

import numpy as np
import pytest

from penseq import (HyperParams, NoiseSpec, PenaltyConfig, SignalSpec,
                    fit_rate_exponent, m_prime_bound_constant, m_prime_many,
                    mc_risk, oracle_inequality_check, pen_vector, select_k,
                    subset_oracle, t1_complexity_sum)
from penseq.model import Zone, classify_zone
from penseq.rates import (j_plus, j_star, rate_exponent, shell_peak_value,
                          shell_risk, shell_risk_closed_form,
                          shell_sparse_peak_value)

ZONE_PRESETS = [
    ("dense p>=2 ", HyperParams(1.0, 2.0, 2.0, 0.5)),
    ("dense p>=2 ", HyperParams(2.0, 3.0, 2.0, 1.0)),
    ("dense p<2  ", HyperParams(2.0, 1.0, 1.0, 0.4)),
    ("sparse     ", HyperParams(0.6, 1.0, 1.0, 1.0)),
    ("sparse     ", HyperParams(0.75, 1.0, 1.0, 0.5)),
    ("critical   ", HyperParams(1.0, 1.0, 2.0, 0.5)),
]


def report(num, ok, detail):
    print(f"[criterion {num:>02}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_c01_exhaustive_oracle_equivalence():
    rng = np.random.default_rng(20260811)
    mismatches = 0
    total = 0
    for beta in (0.0, 0.5):
        cfg = PenaltyConfig(zeta=2.0, nu=40.0, beta=beta, xi1=1.0)
        for n in range(1, 13):
            for _ in range(1000):
                y = rng.standard_normal(n)
                fit = select_k(y, cfg, 1.0)
                idx, obj = subset_oracle(y, cfg, 1.0)
                proj = np.zeros(n)
                proj[list(idx)] = y[list(idx)]
                total += 1
                if not np.array_equal(proj, fit.estimate):
                    mismatches += 1
    report(1, mismatches == 0,
           f"select_k vs exhaustive subset oracle: {mismatches} mismatches "
           f"over {total} instances")


def test_c01b_exhaustive_oracle_equivalence_with_kept_coefficients():
    # c01's N(0,1) draws lie below the smallest threshold, so they all keep
    # nothing; y = z * t_1 * 2^U with U ~ U[-2, 1.5] spreads k_hat over 0..n
    rng = np.random.default_rng(20261018)
    mismatches = 0
    total = 0
    k_counts = np.zeros(13, dtype=int)
    for beta in (0.0, 0.5):
        cfg = PenaltyConfig(zeta=2.0, nu=40.0, beta=beta, xi1=1.0)
        for n in range(1, 13):
            t1 = math.sqrt(pen_vector(cfg, n)[1])
            for _ in range(1000):
                y = rng.standard_normal(n) * t1 * 2.0 ** rng.uniform(-2.0, 1.5)
                fit = select_k(y, cfg, 1.0)
                idx, obj = subset_oracle(y, cfg, 1.0)
                proj = np.zeros(n)
                proj[list(idx)] = y[list(idx)]
                total += 1
                k_counts[fit.k_hat] += 1
                if not np.array_equal(proj, fit.estimate):
                    mismatches += 1
    report("01b", mismatches == 0 and bool(np.all(k_counts > 0)),
           f"select_k vs exhaustive subset oracle on scaled draws: {mismatches} "
           f"mismatches over {total} instances; k_hat counts 0..12: {k_counts.tolist()}")


def test_c02_penalty_identities():
    worst_pen = 0.0
    worst_tel = 0.0
    worst_gap = 0.0
    for beta in (0.0, 0.5, 1.0):
        for nu in (10.0, 40.0):
            cfg = PenaltyConfig(zeta=2.0, nu=nu, beta=beta, xi1=1.0)
            for n in (1, 2, 3, 17, 256, 4096, 2 ** 14):
                pens = pen_vector(cfg, n)
                ks = np.arange(1, n + 1, dtype=float)
                lam = np.sqrt(pens[1:] / ks)
                worst_pen = max(worst_pen, float(np.max(
                    np.abs(pens[1:] - ks * lam ** 2) / pens[1:])))
                tsq = np.diff(pens)
                partial = np.cumsum(tsq)
                worst_tel = max(worst_tel, float(np.max(
                    np.abs(partial - pens[1:]) / pens[1:])))
                worst_gap = max(worst_gap, float(np.max(
                    np.abs(np.sqrt(tsq) - lam) * lam)))
    ok = worst_pen <= 1e-12 and worst_tel <= 1e-12 and worst_gap <= 10.0
    report(2, ok,
           f"pen = k*lambda^2 (rel {worst_pen:.2e}), telescoping (rel {worst_tel:.2e}), "
           f"|t-lambda|*lambda bounded by 10 (max {worst_gap:.3f})")


def test_c03_complexity_sum_bound():
    worst = 0.0
    ns = np.arange(1, 2 ** 16 + 1, dtype=float)
    for beta in (0.0, 0.25, 0.5, 1.0):
        nu_floor = math.exp(1.0 / (1.0 + 2.0 * beta))
        for nu in (nu_floor * 1.1, 10.0, 40.0):
            cfg = PenaltyConfig(zeta=2.0, nu=nu, beta=beta, xi1=1.0)
            c_beta = m_prime_bound_constant(beta, nu)
            vals = m_prime_many(cfg, ns) * ns ** (2.0 * beta) * nu
            worst = max(worst, float(np.max(vals) / c_beta))
    report(3, worst <= 1.0,
           f"M'_n * n^(2 beta) * nu <= C_beta over n = 1..2^16, "
           f"beta x nu grid (worst ratio {worst:.4f})")


def test_c04_shell_risk_closed_forms():
    C, eps = 1.0, 2.0 ** -8
    worst = 0.0
    worst_star = 0.0
    worst_plus = 0.0
    for _, g in ZONE_PRESETS:
        js = j_star(g, C, eps)
        jp = j_plus(g, C, eps) if g.p < 2 else None
        end = (jp if jp is not None else js) + 5.0
        for j in np.arange(0.0, end, 0.1):
            if abs(j - js) < 0.05 or (jp is not None and abs(j - jp) < 0.05):
                continue
            a = shell_risk(g, C, eps, j)
            b = shell_risk_closed_form(g, C, eps, j)
            worst = max(worst, abs(a - b) / b)
        zone = classify_zone(g)
        if zone is Zone.DENSE:
            r = rate_exponent(g)
            rstar = shell_peak_value(g, C, eps)
            worst_star = max(worst_star, abs(
                rstar - C ** (2 * (1 - r)) * eps ** (2 * r)) / rstar)
        if zone is Zone.SPARSE:
            r = rate_exponent(g)
            jp_val = j_plus(g, C, eps)
            rplus = shell_sparse_peak_value(g, C, eps)
            alt = C ** 2 * (C ** 2 / eps ** 2) ** (-r) * (1 + math.log(2.0 ** jp_val)) ** r
            worst_plus = max(worst_plus, abs(rplus - alt) / rplus)
    ok = worst <= 1e-10 and worst_star <= 1e-12 and worst_plus <= 1e-10
    report(4, ok,
           f"shell risk definition vs piecewise forms on 6 zone presets "
           f"(max rel {worst:.2e}); R* identity {worst_star:.2e}; "
           f"R+ identity {worst_plus:.2e}")


def test_c05_peak_orderings():
    ok = True
    details = []
    dense_p_lt_2 = [HyperParams(2.0, 1.0, 1.0, 0.4), HyperParams(1.5, 1.5, 2.0, 0.3)]
    sparse = [HyperParams(0.6, 1.0, 1.0, 1.0), HyperParams(0.75, 1.0, 1.0, 0.5)]
    for g in dense_p_lt_2:
        for k in range(8, 21, 2):
            eps = 2.0 ** -k
            if shell_sparse_peak_value(g, 1.0, eps) > shell_peak_value(g, 1.0, eps):
                ok = False
                details.append(f"R+ > R* at dense gamma={g}, eps=2^-{k}")
    for g in sparse:
        for k in range(8, 21, 2):
            eps = 2.0 ** -k
            if shell_peak_value(g, 1.0, eps) > shell_sparse_peak_value(g, 1.0, eps):
                ok = False
                details.append(f"R_j* > R_j+ at sparse gamma={g}, eps=2^-{k}")
    report(5, ok, "R+ <= R* (dense, p<2) and R_j* <= R_j+ (sparse) "
                  "for eps <= 2^-8" + ("" if ok else "; " + "; ".join(details)))


def test_c06_oracle_inequality_presets():
    eps = 2.0 ** -8
    ratios = {}
    for name, gamma, kind in [
        ("shell_dense", HyperParams(1.0, 2.0, 2.0, 0.5), "shell_dense"),
        ("shell_sparse", HyperParams(0.75, 1.0, 1.0, 0.5), "shell_sparse"),
        ("zero", HyperParams(1.0, 2.0, 2.0, 0.5), "zero"),
    ]:
        cfg = PenaltyConfig(zeta=2.0, nu=40.0, beta=gamma.beta, xi1=1.0)
        spec = SignalSpec(kind=kind, gamma=gamma, radius=1.0, epsilon=eps)
        noise = NoiseSpec(epsilon=eps, beta=gamma.beta)
        lhs, rhs, ratio = oracle_inequality_check(spec, cfg, noise,
                                                  replicates=200, seed=20260811)
        ratios[name] = ratio
    ok = all(r <= 1.0 for r in ratios.values())
    report(6, ok, "Monte Carlo risk <= D * [complexity + ideal-risk] bound, "
                  "200 replicates: " +
                  ", ".join(f"{k} ratio={v:.3g}" for k, v in ratios.items()))


def test_c07_dense_rate_recovery():
    g = HyperParams(1.0, 2.0, 2.0, 0.5)
    cfg = PenaltyConfig(zeta=2.0, nu=40.0, beta=0.5, xi1=1.0)
    rows = []
    for i, k in enumerate(range(6, 13)):
        eps = 2.0 ** -k
        spec = SignalSpec(kind="shell_dense", gamma=g, radius=1.0, epsilon=eps)
        noise = NoiseSpec(epsilon=eps, beta=0.5)
        res = mc_risk(spec, cfg, noise, replicates=100, seed=414243 + i)
        rows.append((eps, res.mean_sse))
    _, _, r_hat = fit_rate_exponent(rows)
    r = rate_exponent(g)
    rel = abs(r_hat - r) / r
    report(7, rel <= 0.15,
           f"dense rate recovery: r_hat={r_hat:.4f} vs r={r} "
           f"(relative error {rel:.2%}, tolerance 15%)")


def test_c08_sparse_rate_recovery_log_corrected():
    # the rate exponent follows (2a - 2/p + 1)/(2a + 2b - 2/p + 1), which is
    # 0.5/1.5 = 1/3 at (alpha, p, beta) = (0.75, 1, 0.5)
    g = HyperParams(0.75, 1.0, 1.0, 0.5)
    assert g.alpha + g.beta > 1.0 / g.p
    cfg = PenaltyConfig(zeta=2.0, nu=40.0, beta=0.5, xi1=1.0)
    r = rate_exponent(g)
    rows = []
    for i, k in enumerate(range(6, 13)):
        eps = 2.0 ** -k
        spec = SignalSpec(kind="shell_sparse", gamma=g, radius=1.0, epsilon=eps)
        noise = NoiseSpec(epsilon=eps, beta=0.5)
        res = mc_risk(spec, cfg, noise, replicates=100, seed=515253 + i)
        rows.append((eps, res.mean_sse / (1.0 + math.log(1.0 / eps)) ** r))
    _, _, r_hat = fit_rate_exponent(rows)
    rel = abs(r_hat - r) / r
    report(8, rel <= 0.20,
           f"sparse rate recovery (log-corrected): r_hat={r_hat:.4f} vs r={r:.4f} "
           f"(relative error {rel:.2%}, tolerance 20%)")


def test_c09_complexity_remainder_negligible():
    ok = True
    details = []
    for beta in (0.0, 0.5, 1.0):
        cfg = PenaltyConfig(zeta=2.0, nu=40.0, beta=beta, xi1=1.0)
        vals = []
        for k in range(4, 21):
            eps = 2.0 ** -k
            vals.append(t1_complexity_sum(cfg, eps) / (eps * eps * math.log2(eps ** -2)))
        bounded = max(vals) <= 0.2
        nonincreasing = all(b <= a * (1.0 + 1e-9) for a, b in zip(vals, vals[1:]))
        if not (bounded and nonincreasing):
            ok = False
        details.append(f"beta={beta}: max={max(vals):.4g}, "
                       f"{'monotone' if nonincreasing else 'NOT monotone'}")
    report(9, ok, "T1 / (eps^2 log2 eps^-2) bounded and non-increasing over "
                  "eps = 2^-4..2^-20: " + "; ".join(details))


def test_c10_zone_boundary_continuity():
    # the dense and sparse formulas are smooth in alpha with slope of order
    # 0.1-1, so a value at distance d sits O(d) from the boundary value: the
    # convergence claim is checked on (a) the extrapolated one-sided limits
    # of the path starting at distance 1e-6 (Richardson, O(d^2) residual) and
    # (b) the raw values just outside the critical-detection tolerance, where
    # O(d) is itself far below 1e-9
    ok = True
    details = []
    for p, beta in ((1.0, 0.5), (0.5, 1.0), (1.5, 0.75)):
        boundary = (2 * beta + 1) * (1 / p - 0.5)
        target = 1.0 - p / 2.0
        q = 2.0

        def r_at(alpha):
            return rate_exponent(HyperParams(alpha, p, q, beta))

        for side in (+1, -1):
            d = 1e-6
            a1, a2 = boundary + side * d, boundary + side * d / 2
            limit = 2.0 * r_at(a2) - r_at(a1)       # linear extrapolation to d = 0
            if abs(limit - target) > 1e-9:
                ok = False
                details.append(f"p={p}, beta={beta}, side={side:+d}: "
                               f"extrapolated {limit!r}")
            # handoff: last classified-dense/sparse point before the tolerance
            edge = boundary + side * 2e-12
            expected_zone = Zone.DENSE if side > 0 else Zone.SPARSE
            if classify_zone(HyperParams(edge, p, q, beta)) is not expected_zone:
                ok = False
                details.append(f"p={p}, beta={beta}, side={side:+d}: zone handoff")
            if abs(r_at(edge) - target) > 1e-9:
                ok = False
                details.append(f"p={p}, beta={beta}, side={side:+d}: edge value")
        if abs(r_at(boundary) - target) > 1e-15:
            ok = False
            details.append(f"p={p}, beta={beta}: boundary value off")
    report(10, ok, "rate exponent continuous across the dense/sparse boundary "
                   "(extrapolated limits and tolerance-edge values within 1e-9)" +
                   ("" if ok else "; " + "; ".join(details)))
