import dataclasses
import inspect
import math
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

import penseq
from penseq import (NumericalError, PenaltyConfig, ValidationError, m_prime,
                    m_prime_bound_constant, m_prime_many, nu_schedule, pen_vector,
                    select_k, subset_oracle)
from penseq.penalty import (_CHUNK_ROWS, _certified_k, _checked_m_prime_log, _lgam,
                            _level_record, _logsumexp_rows, _m_prime_log)

# monotone-regime sweep used by the property tests below; the recorded
# empirical bound for |t_k - lambda_k| * lambda_k over it is 39.5
SWEEP_CONFIGS = [
    PenaltyConfig(zeta=z, nu=nu, beta=b, xi1=x)
    for b in (0.0, 0.5, 1.0)
    for nu in (2.0, 10.0, 40.0)
    for z in (1.5, 2.0, 4.0)
    for x in (1.0, 1.3)
]
T_LAMBDA_BOUND = 45.0


# beta = 1 just above its floor e^(1/3): the bound constant's terms peak near
# k = 1.5 / (3e-4) = 5000, far past the series' first 16-term block
PEAK_PAST_FIRST_BLOCK = (1.0, math.exp(1.0 / 3.0) * (1 + 1e-4))


def log_terms(cfg, n, nu_eff=None):
    """[L_{n,1}, ..., L_{n,n}] recovered from pen(k) = xi1*zeta*k*(1 + sqrt(2 L_{n,k}))^2."""
    root = np.sqrt(pen_vector(cfg, n, nu_eff)[1:] / (cfg.xi1 * cfg.zeta * np.arange(1, n + 1)))
    return (root - 1.0) ** 2 / 2.0


def brute_force_m_prime(n, beta, nu):
    return sum(math.comb(n, k) * (k / (nu * n)) ** (k * (1 + 2 * beta))
               for k in range(1, n + 1))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            PenaltyConfig(zeta=1.0)
        with pytest.raises(ValidationError):
            PenaltyConfig(nu=1.0)
        with pytest.raises(ValidationError):
            PenaltyConfig(beta=-0.5)
        with pytest.raises(ValidationError):
            PenaltyConfig(xi1=0.0)
        with pytest.raises(ValidationError):
            PenaltyConfig(jeps_scale=0.5)

    def test_complexity_condition_enforced_at_use(self):
        # nu = 2 < e is constructible (thresholds fine) but M' must reject it
        cfg = PenaltyConfig(nu=2.0, beta=0.0)
        pen_vector(cfg, 8)
        with pytest.raises(ValidationError):
            m_prime(cfg, 8)


class TestLogTerm:
    def test_hand_values(self):
        cfg = PenaltyConfig(nu=2.0, beta=0.0)
        assert log_terms(cfg, 8)[1] == pytest.approx(math.log(8.0), rel=1e-14)
        cfg = PenaltyConfig(nu=math.exp(1.0 / 3.0) * 2.0, beta=1.0)
        assert log_terms(cfg, 4)[0] == pytest.approx(3.0 * math.log(8.0) + 1.0, rel=1e-14)

    def test_k_equals_n(self):
        for cfg in (PenaltyConfig(nu=5.0, beta=0.0), PenaltyConfig(nu=5.0, beta=0.7)):
            assert log_terms(cfg, 32)[-1] == pytest.approx(
                (1 + 2 * cfg.beta) * math.log(5.0), rel=1e-14)

    def test_decreasing_and_positive(self):
        cfg = PenaltyConfig(nu=3.0, beta=0.5)
        vals = log_terms(cfg, 64)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] >= (1 + 2 * cfg.beta) * math.log(cfg.nu) - 1e-12


class TestPen:
    def test_zero_model(self):
        assert pen_vector(PenaltyConfig(), 16)[0] == 0.0

    def test_hand_value(self):
        cfg = PenaltyConfig(zeta=2.0, nu=2.0, beta=0.0, xi1=1.0)
        expected = 2.0 * 8.0 * (1.0 + math.sqrt(2.0 * math.log(2.0))) ** 2
        assert pen_vector(cfg, 8)[8] == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(75.86, abs=0.01)

    def test_pen_equals_k_lambda_sq(self):
        for cfg in SWEEP_CONFIGS[::5]:
            for n in (1, 7, 64):
                pens = pen_vector(cfg, n)
                for k in range(1, n + 1):
                    L = (1 + 2 * cfg.beta) * math.log(cfg.nu * n / k)
                    lam = math.sqrt(cfg.xi1 * cfg.zeta) * (1.0 + math.sqrt(2.0 * L))
                    assert pens[k] == pytest.approx(k * lam * lam, rel=1e-12)

    def test_increasing_and_concave_per_coordinate(self):
        for cfg in SWEEP_CONFIGS:
            pens = pen_vector(cfg, 512)
            diffs = np.diff(pens)
            assert np.all(diffs > 0)
            per_coord = pens[1:] / np.arange(1, 513)
            assert np.all(np.diff(per_coord) < 1e-12)

    def test_vector_matches_scalar(self):
        # each pen(k) written out on its own with math.log / math.sqrt
        for cfg in SWEEP_CONFIGS:
            for nu_eff in (None, 1.7 * cfg.nu):
                nu = cfg.nu if nu_eff is None else nu_eff
                for n in (1, 2, 33, 300):
                    pens = pen_vector(cfg, n, nu_eff)
                    assert pens.shape == (n + 1,) and pens[0] == 0.0
                    for k in range(1, n + 1):
                        L = (1 + 2 * cfg.beta) * math.log(nu * n / k)
                        expected = cfg.xi1 * cfg.zeta * k * (1 + math.sqrt(2 * L)) ** 2
                        assert pens[k] == pytest.approx(expected, rel=1e-14)
        with pytest.raises(ValidationError):
            pen_vector(PenaltyConfig(), 0)

    def test_record_is_the_vector_tail(self):
        # _level_record's (t_n, pen(n)) come from k = n-1 and n alone, yet they
        # are the bits of pen_vector's last two entries: every n <= 2^12 and the
        # powers of two to 2^20, with nu_eff from the schedule on both sides of
        # j_eps = 8, and a config whose pen is not increasing at n (t_n = 0)
        for cfg in (PenaltyConfig(), PenaltyConfig(zeta=1.5, nu=3.0, beta=0.5, xi1=1.3),
                    PenaltyConfig(zeta=4.0, nu=1.0001, beta=1.0)):
            for n in [*range(1, (1 << 12) + 1), *(1 << j for j in range(13, 21))]:
                nu = nu_schedule(cfg, 2.0 ** -4, max(n.bit_length() - 1, 1))
                pens = pen_vector(cfg, n, nu)
                step = float(pens[-1] - pens[-2])
                root = math.sqrt(step) if step > 0.0 else 0.0
                assert _level_record(cfg.key, n, nu)[:2] == (root, float(pens[-1])), (cfg, n, nu)

    def test_vector_is_read_only_and_repeatable(self):
        cfg = PenaltyConfig(zeta=3.0, nu=7.0, beta=0.25, xi1=1.1)
        pens = pen_vector(cfg, 33, 9.0)
        assert pens.flags.writeable is False
        with pytest.raises(ValueError):
            pens[1] = 0.0
        with pytest.raises(ValueError):
            pens *= 2.0
        assert np.array_equal(pen_vector(cfg, 33, 9.0), pens)
        assert np.array_equal(pen_vector(cfg, 33), pen_vector(cfg, 33, 7.0))
        # the cache never skips the nu_eff >= nu check
        for _ in range(2):
            with pytest.raises(ValidationError):
                pen_vector(cfg, 33, 6.0)

    def test_vector_cannot_be_made_writable(self):
        # every caller shares the cached vector: one that could set it writable
        # would change pen_vector, subset_oracle and ideal_risk for all later ones
        cfg = PenaltyConfig(zeta=3.0, nu=7.0, beta=0.25, xi1=1.1)
        pens = pen_vector(cfg, 8)
        before = pens.tobytes()
        with pytest.raises(ValueError):
            pens.setflags(write=True)
        with pytest.raises(ValueError):
            pens.flags.writeable = True
        assert pen_vector(cfg, 8) is pens and pens.tobytes() == before

    def test_lookup_does_not_hash_the_config(self, monkeypatch):
        cfg = PenaltyConfig(zeta=3.0, nu=7.0, beta=0.25)
        pens = pen_vector(cfg, 12)

        def forbidden(*args):
            raise AssertionError("a per-level lookup hashed or compared the config")
        monkeypatch.setattr(PenaltyConfig, "__hash__", forbidden)
        monkeypatch.setattr(PenaltyConfig, "__eq__", forbidden)
        twin = PenaltyConfig(zeta=3.0, nu=7.0, beta=0.25)
        assert pen_vector(twin, 12) is pens      # equal configs share one vector
        y = np.linspace(-3.0, 3.0, 12)
        for _ in range(2):
            select_k(y, twin, 0.5)
            subset_oracle(y, twin, 0.5)

    def test_cache_adds_no_knob(self):
        assert list(inspect.signature(pen_vector).parameters) == ["cfg", "n", "nu_eff"]
        assert [f.name for f in dataclasses.fields(PenaltyConfig)] == \
            ["zeta", "nu", "beta", "xi1", "jeps_scale"]
        for path in Path(penseq.__file__).parent.glob("*.py"):
            text = path.read_text()
            assert "environ" not in text and "getenv" not in text, path.name


class TestThresholds:
    def test_lambda_hand_value(self):
        cfg = PenaltyConfig(zeta=4.0, nu=math.e, beta=0.0, xi1=1.0)
        assert math.sqrt(pen_vector(cfg, 1)[1]) == pytest.approx(2.0 * (1.0 + math.sqrt(2.0)),
                                                                 rel=1e-14)

    def test_lambda_decreasing(self):
        for cfg in SWEEP_CONFIGS[::4]:
            lams = np.sqrt(pen_vector(cfg, 256)[1:] / np.arange(1, 257))
            assert np.all(np.diff(lams) < 0)

    def test_t2_hand_value(self):
        # n = 8, nu = 2: L_{8,1} = log 16 and L_{8,2} = log 8
        cfg = PenaltyConfig(zeta=2.0, nu=2.0, beta=0.0, xi1=1.0)
        expected = math.sqrt(4.0 * (1.0 + math.sqrt(2.0 * math.log(8.0))) ** 2
                             - 2.0 * (1.0 + math.sqrt(2.0 * math.log(16.0))) ** 2)
        assert math.sqrt(np.diff(pen_vector(cfg, 8))[1]) == pytest.approx(expected, rel=1e-14)

    def test_telescoping(self):
        for cfg in SWEEP_CONFIGS[::3]:
            n = 2048
            pens = pen_vector(cfg, n)
            tsq = np.diff(pens)
            partial = np.cumsum(tsq)
            assert np.allclose(partial, pens[1:], rtol=1e-12, atol=0.0)

    def test_t_close_to_lambda(self):
        worst = 0.0
        for cfg in SWEEP_CONFIGS:
            pens = pen_vector(cfg, 4096)
            t = np.sqrt(np.diff(pens))
            lam = np.sqrt(pens[1:] / np.arange(1, 4097))
            worst = max(worst, float(np.max(np.abs(t - lam) * lam)))
        assert worst <= T_LAMBDA_BOUND


class TestNuSchedule:
    def test_hand_values(self):
        cfg = PenaltyConfig(nu=40.0)
        assert nu_schedule(cfg, 0.5, 2) == 40.0          # j_eps = 2
        assert nu_schedule(cfg, 0.5, 4) == pytest.approx(9.0 * 40.0, rel=1e-14)

    def test_constant_below_depth(self):
        cfg = PenaltyConfig(nu=10.0)
        eps = 2.0 ** -8                                   # j_eps = 16
        assert all(nu_schedule(cfg, eps, j) == 10.0 for j in range(1, 17))

    def test_monotone_and_continuous(self):
        cfg = PenaltyConfig(nu=5.0)
        eps = 2.0 ** -3                                   # j_eps = 6
        vals = [nu_schedule(cfg, eps, j) for j in range(1, 30)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert nu_schedule(cfg, eps, 6) == 5.0            # at the knot exactly nu

    def test_jeps_scale(self):
        cfg = PenaltyConfig(nu=5.0, jeps_scale=2.0)
        eps = 2.0 ** -3                                   # j_eps = 2 * 6 = 12
        assert nu_schedule(cfg, eps, 12) == 5.0
        assert nu_schedule(cfg, eps, 13) == pytest.approx(5.0 * 4.0, rel=1e-12)

    def test_epsilon_validation(self):
        cfg = PenaltyConfig()
        with pytest.raises(ValidationError):
            nu_schedule(cfg, 1.0, 3)
        with pytest.raises(ValidationError):
            nu_schedule(cfg, 1.5, 3)
        assert nu_schedule(cfg, 0.0, 3) == cfg.nu


class TestMPrime:
    def test_n1(self):
        for nu, beta in ((40.0, 0.0), (10.0, 0.5)):
            cfg = PenaltyConfig(nu=nu, beta=beta)
            assert m_prime(cfg, 1) == pytest.approx(nu ** -(1 + 2 * beta), rel=1e-13)

    def test_n2_hand_expansion(self):
        nu = 40.0
        cfg = PenaltyConfig(nu=nu, beta=0.0)
        assert m_prime(cfg, 2) == pytest.approx(1.0 / nu + 1.0 / nu ** 2, rel=1e-13)

    def test_matches_brute_force(self):
        for beta in (0.0, 0.25, 1.0):
            nu_lo = math.exp(1 / (1 + 2 * beta)) * 1.1
            for nu in (nu_lo, 40.0):
                cfg = PenaltyConfig(nu=nu, beta=beta)
                for n in (1, 2, 3, 17, 64, 200):
                    assert m_prime(cfg, n) == pytest.approx(
                        brute_force_m_prime(n, beta, nu), rel=1e-12)

    def test_many_matches_single(self):
        cfg = PenaltyConfig(nu=11.0, beta=0.5)
        ns = np.array([1.0, 2.0, 7.0, 100.0, 4096.0, 65536.0])
        many = m_prime_many(cfg, ns)
        for n, v in zip(ns, many):
            assert v == pytest.approx(m_prime(cfg, n), rel=1e-13)

    def test_huge_level_sizes(self):
        # levels n_j = 2^j far beyond integer range must still evaluate
        cfg = PenaltyConfig(nu=40.0, beta=1.0)
        v = m_prime(cfg, 2.0 ** 200)
        assert 0.0 < v < 1e-100

    def test_too_many_terms_error_names_inputs(self):
        cfg = PenaltyConfig(nu=math.exp(0.5) * (1 + 1e-9), beta=0.5)
        with pytest.raises(NumericalError,
                           match=r"n=1099511627776, nu=1\.6487212\d*, beta=0\.5 needs"):
            m_prime(cfg, 2 ** 40)

    def test_nu_eff_from_schedule(self):
        cfg = PenaltyConfig(nu=10.0, beta=0.5)
        assert m_prime(cfg, 64, nu_eff=90.0) < m_prime(cfg, 64)

    def test_bound_on_modest_grid(self):
        for beta in (0.0, 0.5):
            nu = 40.0
            cfg = PenaltyConfig(nu=nu, beta=beta)
            cb = m_prime_bound_constant(beta, nu)
            ns = np.arange(1, 2049, dtype=float)
            vals = m_prime_many(cfg, ns) * ns ** (2 * beta) * nu
            assert float(np.max(vals)) <= cb


def exact_log_m_prime(n, beta, nu):
    """log M'_n from exact rationals, for an integral 1 + 2*beta: finite where
    brute_force_m_prime underflows to 0."""
    b = int(1 + 2 * beta)
    assert b == 1 + 2 * beta
    total = sum(math.comb(n, k) * (Fraction(k) / (Fraction(nu) * n)) ** (k * b)
                for k in range(1, n + 1))
    return math.log(total.numerator) - math.log(total.denominator)


class TestLargeBeta:
    """nu^(1+2*beta) leaves the float range at beta = 100, nu = 40; M'_n stays
    representable in logs, and the bound constant from the logs of its terms."""

    def test_m_prime_matches_brute_force(self):
        cfg = PenaltyConfig(beta=100.0)
        for n in (1, 2, 8):
            assert m_prime(cfg, n) == brute_force_m_prime(n, 100.0, 40.0)
        assert m_prime(cfg, 8) == 0.0

    @pytest.mark.parametrize("beta, nu", [(100.0, 40.0), (100.0, 1e3), (30.0, 40.0)])
    def test_log_m_prime_matches_exact_sum(self, beta, nu):
        cfg = PenaltyConfig(beta=beta, nu=nu)
        ns = [1, 2, 3, 8, 17]
        got = _checked_m_prime_log(cfg, ns, None)
        for n, v in zip(ns, got):
            assert v == pytest.approx(exact_log_m_prime(n, beta, nu), rel=1e-13)

    @pytest.mark.parametrize("beta, nu", [(100.0, 40.0), (30.0, 40.0), (30.0, 1.2),
                                          pytest.param(*PEAK_PAST_FIRST_BLOCK,
                                                       id="1.0-near-floor")])
    def test_bound_constant_bounds_m_prime(self, beta, nu):
        cb = m_prime_bound_constant(beta, nu)
        assert math.isfinite(cb) and cb >= math.e / math.sqrt(2 * math.pi)
        for n in range(1, 18):
            bound = math.log(cb) - 2 * beta * math.log(n) - math.log(nu)
            assert exact_log_m_prime(n, beta, nu) <= bound

    def test_bound_constant_keeps_the_first_term_alone(self):
        # the k = 2 term is 2^199.5 * e^(1 - 201*log 40) ~ e^-602 of the first
        assert m_prime_bound_constant(100.0, 40.0) == pytest.approx(
            math.e / math.sqrt(2 * math.pi), rel=1e-15)

    def test_bound_constant_overflow_is_numerical_error(self):
        with pytest.raises(NumericalError, match="overflows at beta=1000"):
            m_prime_bound_constant(1000.0, 1.05)


class TestMPrimeBoundConstant:
    def test_large_nu_limit(self):
        # only the k = 1 term survives
        assert m_prime_bound_constant(0.0, 1e9) == pytest.approx(
            math.e / math.sqrt(2 * math.pi), rel=1e-6)

    def test_peak_past_the_first_block_matches_fsum(self):
        beta, nu = PEAK_PAST_FIRST_BLOCK
        r0 = math.e / nu ** 3
        # beyond k = 2e5 the terms are below 1e-18
        terms = [math.e / math.sqrt(2 * math.pi) * k ** 1.5 * r0 ** (k - 1)
                 for k in range(1, 200_001)]
        assert m_prime_bound_constant(beta, nu) == pytest.approx(math.fsum(terms), rel=1e-13)

    def test_divergence_rejected(self):
        with pytest.raises(ValidationError):
            m_prime_bound_constant(0.0, math.e)
        with pytest.raises(ValidationError):
            m_prime_bound_constant(0.5, 1.2)

    @pytest.mark.parametrize("beta, nu", [
        *[(beta, math.exp(1.0 / (1.0 + 2.0 * beta))) for beta in (0.0, 0.1, 0.25, 0.5, 2.0, 3.0)],
        (0.23312336194594274, 1.9778560579919273),     # one float above the floor, r0 = 1.0
    ])
    def test_both_sums_reject_nu_at_the_floor(self, beta, nu):
        # M'_n and its bound constant share one summability check, so both
        # reject nu at its floor at once, also where r0 rounds below 1 there
        # (beta = 0.1, 0.5, 2) and where it rounds to 1 above it (the last case)
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=r"nu > e\^\(1/\(1\+2\*beta\)\)"):
            m_prime(PenaltyConfig(beta=beta, nu=nu), 4)
        with pytest.raises(ValidationError, match=r"nu > e\^\(1/\(1\+2\*beta\)\)"):
            m_prime_bound_constant(beta, nu)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("beta", [3e306, 1e307, 1e308])
    def test_absurd_beta_rejected(self, beta):
        # past the limit 1 + 2*beta times the sums' logs leaves the float range
        with pytest.raises(ValidationError, match="beta"):
            PenaltyConfig(beta=beta)
        with pytest.raises(ValidationError, match="beta"):
            m_prime_bound_constant(beta, 40.0)

    def test_large_beta_values_unchanged(self):
        assert m_prime_bound_constant(1e6, 2.0) == float.fromhex("0x1.1035e4829785cp+1")
        assert m_prime_bound_constant(1e6, 40.0) == float.fromhex("0x1.159db309e65ffp+0")

    @pytest.mark.slow
    def test_near_floor_stress(self):
        val = m_prime_bound_constant(0.0, math.exp(1.0000001))
        assert math.isfinite(val) and val > 1e3


def scipy_m_prime_log(cfg, ns, nu):
    """penalty._m_prime_log as it was with scipy.special, verbatim: the reference."""
    b = 1.0 + 2.0 * cfg.beta
    log_nu = math.log(nu)
    out = np.empty(ns.size)
    for start in range(0, ns.size, _CHUNK_ROWS):
        chunk = ns[start:start + _CHUNK_ROWS]
        n_max = float(chunk.max())
        # t_1 = n^(-2*beta) * nu^(-(1+2*beta)) lower-bounds every row sum
        log_t1_min = float((-2.0 * cfg.beta) * np.log(chunk).max() - b * log_nu) \
            if cfg.beta > 0 else -b * log_nu
        K = _certified_k(cfg, nu, log_t1_min, n_max)
        ks = np.arange(1, K + 1, dtype=float)
        valid = ks[None, :] <= chunk[:, None]
        # log binom(n, k) = sum_{i<k} log(n - i) - log k!, stable for huge n
        diffs = chunk[:, None] - (ks[None, :] - 1.0)
        log_binom = np.cumsum(np.log(np.where(valid, diffs, 1.0)), axis=1) \
            - gammaln(ks + 1.0)[None, :]
        log_terms = log_binom - ks[None, :] * b * (
            log_nu + np.log(chunk)[:, None] - np.log(ks)[None, :])
        log_terms = np.where(valid, log_terms, -np.inf)
        out[start:start + _CHUNK_ROWS] = logsumexp(log_terms, axis=1)
    return out


def hexes(values):
    return [float(v).hex() for v in values]


class TestScipyPorts:
    """The complexity sums run on numpy and the standard library alone, and
    give SciPy's floats: every comparison is of float.hex, bit for bit."""

    def test_log_factorials_match_gammaln(self):
        k = np.arange(1.0, 200_001.0)
        assert hexes(_lgam(k + 1.0)) == hexes(gammaln(k + 1.0))

    def test_lgam_branch_edges_match_gammaln(self):
        # exact factorial below 13, the polynomial correction below 1000,
        # the three-term one up to 1e8 and none above
        x = np.array([2.0, 3.0, 12.0, 13.0, 14.0, 999.0, 1000.0, 1001.0, 3e6,
                      1e8 - 1.0, 1e8, 1e8 + 1.0, 2.0 ** 40])
        assert hexes(_lgam(x)) == hexes(gammaln(x))

    def test_log_factorials_of_each_length_match_gammaln(self):
        # [log 1!, ..., log K!] as _m_prime_log builds it for each chunk
        for K in (3, 40, 12, 1500):
            ks = np.arange(1.0, K + 1.0)
            assert hexes(_lgam(ks + 1.0)) == hexes(gammaln(ks + 1.0))

    def test_logsumexp_rows_match_scipy(self):
        rng = np.random.default_rng(1917)
        for width in (1, 2, 7, 64, 129, 3000, 4099):
            for scale in (1e-3, 1.0, 40.0, 700.0):
                a = rng.normal(0.0, scale, (24, width))
                a[rng.random(a.shape) < 0.3] = -np.inf
                a[:, 0] = np.where(np.isinf(a[:, 0]), 0.25, a[:, 0])    # a finite maximum
                if width > 2:
                    a[::2, 2] = a[::2].max(axis=1)            # tied maxima
                    a[::3] = np.round(a[::3])
                expected = hexes(logsumexp(a, axis=1))
                assert hexes(_logsumexp_rows(a.copy())) == expected

    def test_m_prime_log_matches_the_scipy_version(self):
        sizes = (np.arange(1.0, 3000.0), 2.0 ** np.arange(1, 60),
                 np.random.default_rng(19).uniform(1.0, 1e6, 500))
        checked = 0
        for beta in (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 30.0):
            for nu in (1.2, 1.5, 2.0, 3.0, 10.0, 40.0, 400.0):
                cfg = PenaltyConfig(beta=beta, nu=nu)
                if nu <= cfg.nu_floor:
                    continue
                for ns in sizes:
                    assert hexes(_m_prime_log(cfg, ns, nu)) == \
                        hexes(scipy_m_prime_log(cfg, ns, nu)), (beta, nu, ns.size)
                    checked += ns.size
        assert checked == 142_320

    def test_wide_chunk_is_summed_in_blocks(self):
        # 1024 rows with K = 4045 terms each: unblocked, each of the (rows x K)
        # temporaries took 33 MB and the peak was 260 MB
        cfg = PenaltyConfig(nu=2.75)
        ns = np.round(np.geomspace(1.0, 1e9, 1024))
        assert _certified_k(cfg, 2.75, -math.log(2.75), 1e9) == 4045
        tracemalloc.start()
        try:
            got = _m_prime_log(cfg, ns, 2.75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        # at beta = 0, K depends on the largest n alone: with the row n = 1e9
        # in each group, the reference sums every row with the same K unblocked
        expected = np.concatenate([scipy_m_prime_log(cfg, np.append(group, 1e9), 2.75)[:-1]
                                   for group in np.split(ns, 16)])
        assert hexes(got) == hexes(expected)
