import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from penseq import (MultiresSequence, NoiseSpec, NumericalError, PenaltyConfig,
                    MonoscaleFit, ValidationError, fit_multiscale, ideal_risk, oracle_constant,
                    pen_vector, per_level_sse, select_k, subset_oracle)
from penseq import estimator, penalty
from penseq.estimator import _SHRINK, _TINY, _penalized_objective
from penseq.rates import control_function

CFG = PenaltyConfig(zeta=2.0, nu=40.0, beta=0.0, xi1=1.0)


def oracle_projection(y, cfg, epsilon, nu_eff=None):
    idx, obj = subset_oracle(y, cfg, epsilon, nu_eff)
    proj = np.zeros(len(y))
    proj[list(idx)] = np.asarray(y)[list(idx)]
    return proj, obj


def mask_dp_oracle(y, cfg, epsilon, nu_eff=None):
    """The first subset_oracle's mask DP, kept as the reference; each objective is
    the complement's kept sum plus the penalty, as subset_oracle forms it."""
    y = np.asarray(y, dtype=float)
    n = y.size
    sq = y * y
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
    obj = kept[size - 1 - masks] + (epsilon * epsilon) * pens[card]   # the complement's sum
    best = obj.min()
    cand = np.flatnonzero(obj == best)
    cand = cand[card[cand] == card[cand].min()]
    indices = min(tuple(i for i in range(n) if (int(m) >> i) & 1) for m in cand)
    return indices, float(best)


# Inputs on which two supports of minimal size tie exactly: (config, y, eps).
# pen is concave, so with exact penalties a minimal support never keeps one of
# two equal magnitudes without the other.  With eps^2 = 2^-1074 every objective
# below 1 lies on the subnormal grid, where sums are exact and eps^2 * pen(k)
# rounds to whole units of 2^-1074; rounded, the penalty steps up by c^2 from
# 3 to 4 coefficients and by less from 2 to 3.  So the two supports that keep
# one of the equal magnitudes c tie at the minimum, and so does the one that
# keeps both.
_SUB = 2.0 ** -537
EXACT_TIES = {
    0.0: (PenaltyConfig(zeta=2.0, nu=40.0, beta=0.0, xi1=0.05),
          [math.sqrt(2.0) * _SUB, -math.sqrt(2.0) * _SUB, 1.0, 0.5], _SUB),
    0.5: (PenaltyConfig(zeta=1.01, nu=1000.0, beta=0.5, xi1=0.1),
          [2.0 * _SUB, -2.0 * _SUB, 1.0, 0.5], _SUB),
}


def subset_objectives(y, cfg, epsilon):
    """{J: C_eps(J, y)} over every subset J, with subset_oracle's operations."""
    y = np.asarray(y, dtype=float)
    sq = y * y
    pens = pen_vector(cfg, y.size)
    out = {}
    for m in range(1 << y.size):
        J = tuple(i for i in range(y.size) if (m >> i) & 1)
        dropped = 0.0
        for i in range(y.size):
            if i not in J:
                dropped = dropped + sq[i]
        out[J] = dropped + (epsilon * epsilon) * pens[len(J)]
    return out


def unfiltered_objective(a, pens, epsilon):
    """The level kernel before the pre-filter, kept verbatim as a reference: it
    sorts every coefficient and forms each objective as total - prefix."""
    sq = a * a
    sq.sort()
    obj = np.zeros(sq.size + 1)
    np.add.accumulate(sq[::-1], out=obj[1:])
    np.subtract(obj[-1], obj, out=obj)
    obj += (epsilon * epsilon) * pens
    return obj


def reference_objective(a, peak, pens, epsilon):
    """The level kernel before the per-level record, kept verbatim as the
    reference of the fast paths: it derives t_n from pens on every call and
    returns a one-element array when nothing clears the floor."""
    step = float(pens[-1] - pens[-2])             # t_n^2
    cut = epsilon * math.sqrt(step) * _SHRINK if step > 0.0 else 0.0
    rest = 0.0
    if cut >= _TINY:
        if peak <= cut:
            return np.array([float(a @ a)])       # m = 0; pen(0) = 0
        keep = a > cut
        dropped = a[~keep]
        rest = float(dropped @ dropped)
        a = a[keep]
    sq = a * a
    sq.sort()                                     # ascending squares of the kept coefficients
    obj = np.empty(sq.size + 1)
    obj[0] = rest
    obj[1:] = sq
    np.add.accumulate(obj, out=obj)               # rest + the i smallest kept squares
    obj = obj[::-1]                               # obj[k] = rest + the m - k smallest
    obj += (epsilon * epsilon) * pens[:obj.size]
    return obj


def reference_select_k(y, cfg, epsilon, nu_eff=None):
    """select_k before the per-level record and the keep-nothing return, kept
    verbatim after its input check (valid input only)."""
    y = np.asarray(y, dtype=float)
    a = np.abs(y)
    peak = float(a[a.argmax()])
    pens = pen_vector(cfg, y.size, nu_eff)
    obj = reference_objective(a, peak, pens, epsilon)
    k_hat = int(obj.argmin())                     # first minimum = smallest k
    if k_hat == 0:
        return MonoscaleFit(0, math.inf, np.zeros(y.size), float(obj[0]))
    step = pens[k_hat] - pens[k_hat - 1]
    if step < 0.0:
        # happens only for nu so close to 1 that pen loses monotonicity
        nu = cfg.nu if nu_eff is None else nu_eff
        raise NumericalError(
            f"penalty not increasing at k={k_hat} (n={y.size}, nu_eff={nu}); "
            "nu_eff is too small for the hard-threshold representation")
    threshold = epsilon * math.sqrt(step)
    return MonoscaleFit(k_hat=k_hat, threshold=threshold,
                        estimate=np.where(a > threshold, y, 0.0), objective=float(obj[k_hat]))


def reference_ideal_risk(theta, cfg, epsilon, nu_eff=None):
    a = np.abs(np.asarray(theta, dtype=float))
    pens = pen_vector(cfg, a.size, nu_eff)
    return float(np.min(reference_objective(a, float(a[a.argmax()]), pens, epsilon)))


def assert_same_as_reference(y, cfg, epsilon, nu_eff=None):
    """select_k and ideal_risk give the reference's results bit for bit, or its error."""
    assert ideal_risk(y, cfg, epsilon, nu_eff) == reference_ideal_risk(y, cfg, epsilon, nu_eff)
    try:
        want = reference_select_k(y, cfg, epsilon, nu_eff)
    except NumericalError as err:
        with pytest.raises(NumericalError, match=re.escape(str(err))):
            select_k(y, cfg, epsilon, nu_eff)
        return
    got = select_k(y, cfg, epsilon, nu_eff)
    assert (got.k_hat, got.threshold, got.objective) == (want.k_hat, want.threshold,
                                                         want.objective)
    assert type(got.objective) is float
    assert got.estimate.dtype == want.estimate.dtype
    assert got.estimate.tobytes() == want.estimate.tobytes()    # signed zeros included


def exact_objectives(y, pens, epsilon):
    """[C(k)] for k = 0..n in exact arithmetic: sum_{i>k} y_(i)^2 + eps^2 * pens[k],
    on the float inputs and the float pen_vector values."""
    sq = sorted(Fraction(float(v)) ** 2 for v in y)          # ascending
    e2 = Fraction(float(epsilon)) ** 2
    n = len(sq)
    obj = [Fraction(0)] * (n + 1)
    tail = Fraction(0)                                        # the n - k smallest squares
    for k in range(n, -1, -1):
        obj[k] = tail + e2 * Fraction(float(pens[k]))
        if k:
            tail += sq[n - k]
    return obj


# Every objective the kernel forms is a sum of at most n + 2 non-negative
# rounded terms, so its relative error is below (2n + 8) unit roundoffs.
def _tolerance(n):
    return Fraction((2 * n + 8) * 2.0 ** -53)


def assert_matches_exact(y, cfg, epsilon, nu_eff=None, strict=False):
    """select_k and ideal_risk agree with the exact first minimizer, up to
    objectives that the float evaluation cannot tell apart (none if strict)."""
    y = np.asarray(y, dtype=float)
    pens = pen_vector(cfg, y.size, nu_eff)
    exact = exact_objectives(y, pens, epsilon)
    best = min(exact)
    k_star = exact.index(best)
    tol = _tolerance(y.size)
    near = [k for k, v in enumerate(exact) if v - best <= 2 * tol * best]
    risk = Fraction(ideal_risk(y, cfg, epsilon, nu_eff))
    assert abs(risk - best) <= tol * best
    try:
        fit = select_k(y, cfg, epsilon, nu_eff)
    except NumericalError:
        # pen decreases at the float minimizer; it must at an exact near-minimizer too
        assert any(k and pens[k] < pens[k - 1] for k in near)
        return None
    k_hat = fit.k_hat
    assert k_hat in near
    if strict or near == [k_star]:
        assert k_hat == k_star
    # the first minimizer: no smaller k reaches the same exact objective
    assert all(exact[k] != exact[k_hat] for k in range(k_hat))
    assert abs(Fraction(fit.objective) - exact[k_hat]) <= tol * exact[k_hat]
    return fit


@pytest.fixture
def each_kernel(monkeypatch):
    """Call it and loop over it to run a test's cases once per level kernel: the
    first pass sets estimator._SMALL_LEVEL to 0, so numpy fits every level that
    keeps a coefficient, the second to 2^10, so every level these tests build is
    fitted on Python floats."""
    def kernels():
        for small in (0, 1 << 10):
            monkeypatch.setattr(estimator, "_SMALL_LEVEL", small)
            yield small
    return kernels


@pytest.fixture
def each_oracle(monkeypatch):
    """Call it and loop over it to run a test's cases once per subset_oracle path:
    the first pass sets estimator._SMALL_ORACLE to 0, so numpy enumerates every
    level, the second to 20, so every level is enumerated on Python floats."""
    def paths():
        for small in (0, 20):
            monkeypatch.setattr(estimator, "_SMALL_ORACLE", small)
            yield small
    return paths


def floor_band(cfg, n, epsilon, nu_eff=None, below=10, above=2):
    """eps * t_n, the filter floor, and its float neighbours from `below` ulps
    under it to `above` ulps over it; none when pen is not increasing at n."""
    pens = pen_vector(cfg, n, nu_eff)
    if pens[-1] <= pens[-2]:
        return []
    floor = epsilon * math.sqrt(pens[-1] - pens[-2])
    vals = [floor]
    for direction, count in ((-math.inf, below), (math.inf, above)):
        v = floor
        for _ in range(count):
            v = float(np.nextafter(v, direction))
            vals.append(v)
    return vals


class TestMonoscaleFit:
    @pytest.mark.parametrize("estimate", [[1, 0, -2], (1.0, 0, -2), np.array([1, 0, -2]),
                                          np.array([1.0, 0.0, -2.0], dtype=np.float32)])
    def test_converts_to_a_read_only_float_estimate(self, estimate):
        fit = MonoscaleFit(2, 0.5, estimate, 0.25)
        assert type(fit.estimate) is np.ndarray and fit.estimate.dtype == np.float64
        assert fit.estimate.tolist() == [1.0, 0.0, -2.0]
        assert not fit.estimate.flags.writeable
        with pytest.raises(ValueError):
            fit.estimate[0] = 3.0

    def test_takes_a_float_array_as_it_is(self):
        estimate = np.array([1.0, 0.0, -2.0])
        fit = MonoscaleFit(2, 0.5, estimate, 0.25)
        assert fit.estimate is estimate
        assert not estimate.flags.writeable


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

    def test_nonmonotone_penalty_error_on_a_small_level(self):
        # the same error from the fit on Python floats, where pen(8) < pen(7)
        assert 8 <= estimator._SMALL_LEVEL
        with pytest.raises(NumericalError, match=r"k=8 \(n=8, nu_eff=1\.0002\)"):
            select_k(np.full(8, 3.0), PenaltyConfig(nu=1.0001), 1.0, nu_eff=1.0002)
        with pytest.raises(NumericalError, match=r"k=8 \(n=8, nu_eff=1\.0001\)"):
            select_k(np.full(8, 3.0), PenaltyConfig(nu=1.0001), 1.0)

    def test_zero_epsilon_keeps_everything_nonzero(self):
        y = np.array([1.0, 0.0, -2.0, 0.0])
        fit = select_k(y, CFG, 0.0)
        assert fit.k_hat == 2
        assert np.array_equal(fit.estimate, y)


BETAS = (0.0, 0.25, 0.5, 1.0, 2.0)
NUS = (1.0001, 1.01, 1.5, math.e, 40.0, 1e3)


@st.composite
def level_inputs(draw):
    """(y, cfg, epsilon, nu_eff): magnitudes over up to 80 decades, ties, zeros,
    values at the filter floor and a few ulps either side, epsilon = 0 and
    nu_eff at or next to nu, which may sit near its floor."""
    beta = draw(st.sampled_from(BETAS))
    cfg = PenaltyConfig(beta=beta, nu=draw(st.sampled_from(
        NUS[::-1] + (PenaltyConfig(beta=beta).nu_floor * (1 + 1e-9),))))
    nu_eff = draw(st.sampled_from([None, cfg.nu, float(np.nextafter(cfg.nu, math.inf)),
                                   1.5 * cfg.nu]))
    n = draw(st.one_of(st.integers(1, 16), st.integers(17, 1 << 10)))
    decades = draw(st.integers(0, 40))
    # hypothesis draws small seeds often: n and the decades tell their streams apart
    rng = np.random.default_rng([draw(st.integers(0, 2 ** 32 - 1)), n, decades])
    y = rng.standard_normal(n) * 10.0 ** rng.uniform(-decades, decades, n)
    epsilon = draw(st.sampled_from([1.0, 0.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        epsilon *= 10.0 ** rng.uniform(-decades, decades)
    if draw(st.booleans()):
        y[rng.random(n) < 0.5] = y[0]                          # ties
    if draw(st.booleans()):
        y[rng.random(n) < 0.3] = 0.0
    band = floor_band(cfg, n, epsilon, nu_eff) if epsilon > 0 else []
    if band and draw(st.booleans()):
        at = rng.random(n) < draw(st.sampled_from([0.1, 0.5, 1.0]))
        y[at] = rng.choice(band, size=int(at.sum()))
    y *= rng.choice([-1.0, 1.0], size=n)
    return y, cfg, epsilon, nu_eff


class TestExactReference:
    """select_k and ideal_risk against exact Fraction arithmetic on the float
    pen_vector values, never against the float subset oracle."""

    def test_huge_spike_among_noise(self, each_kernel):
        # one coefficient near 1e9 among N(0, 81) ones: total - prefix lost
        # every bit of the small squares to the spike's 1e18
        for _ in each_kernel():
            rng = np.random.default_rng(20261018)
            for _ in range(300):
                n = int(rng.integers(4, 64))
                y = 9.0 * rng.standard_normal(n)
                y[rng.integers(n)] = 1e9 * (1.0 + rng.random())
                assert_matches_exact(y, CFG, 1.0, strict=True)

    def test_subset_oracle_huge_spike_among_noise(self):
        # the same family at n <= 20: each objective is the sum of the dropped
        # squares, so the spike's square never meets the small ones
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            n = int(rng.integers(4, 21))
            y = 9.0 * rng.standard_normal(n)
            y[rng.integers(n)] = 1e9 * (1.0 + rng.random())
            exact = exact_objectives(y, pen_vector(CFG, n), 1.0)
            k_star = exact.index(min(exact))
            indices, objective = subset_oracle(y, CFG, 1.0)
            assert indices == tuple(sorted(np.argsort(-np.abs(y))[:k_star]))
            assert abs(Fraction(objective) - exact[k_star]) <= _tolerance(n) * exact[k_star]

    @settings(max_examples=120, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(case=level_inputs())
    @example(case=(np.array([1.0, 0.0, -2.0, 0.0]), CFG, 0.0, None))
    def test_property_matches_exact(self, each_kernel, case):
        y, cfg, epsilon, nu_eff = case
        for _ in each_kernel():
            assert_matches_exact(y, cfg, epsilon, nu_eff)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1 << 10])
    @pytest.mark.parametrize("epsilon", [1.0, 0.37, 3e-5])
    def test_values_at_the_filter_floor(self, n, epsilon, each_kernel):
        # one coefficient, or every coefficient, at each value from 10 ulps
        # below the floor eps * t_n to 2 ulps above it
        for _ in each_kernel():
            for v in floor_band(CFG, n, epsilon):
                single = np.zeros(n)
                single[0] = v
                assert_matches_exact(single, CFG, epsilon)
                assert_matches_exact(np.full(n, -v), CFG, epsilon)

    @pytest.mark.parametrize("beta", sorted(EXACT_TIES))
    def test_exact_ties_resolve_to_the_first_minimum(self, beta, each_kernel):
        # on the subnormal grid the float objectives of keeping 3 and 4
        # coefficients tie exactly: the fit keeps 3
        cfg, y, eps = EXACT_TIES[beta]
        y = np.array(y)
        _, _, cut, nu, _ = estimator._checked_level(y, cfg, eps, None)
        obj = _penalized_objective(y, cut, eps, cfg, nu)[0]
        assert obj.size == 5 and obj[3] == obj[4] == obj.min() < obj[2]
        for _ in each_kernel():
            fit = select_k(y, cfg, eps)
            assert (fit.k_hat, fit.objective) == (3, obj[3])

    def test_large_levels_keep_spikes(self, each_kernel):
        for _ in each_kernel():
            rng = np.random.default_rng(31)
            for beta in (0.0, 0.5):
                cfg = PenaltyConfig(beta=beta)
                for _ in range(4):
                    n = 1 << 10
                    y = rng.standard_normal(n)
                    spikes = rng.choice(n, size=int(rng.integers(1, 40)), replace=False)
                    y[spikes] *= 10.0 ** rng.uniform(0.5, 6.0, spikes.size)
                    fit = assert_matches_exact(y, cfg, 1.0)
                    assert fit.k_hat > 0

    def test_kernel_sorts_only_what_can_be_kept(self):
        # 3 coefficients above eps * t_n: the kernel returns obj[0..3] only
        n = 1 << 12
        rng = np.random.default_rng(32)
        y = rng.standard_normal(n)
        y[[5, 70, 900]] = [40.0, -50.0, 1e4]
        _, _, cut, nu, _ = estimator._checked_level(y, CFG, 1.0, None)
        obj, a, pens = _penalized_objective(y, cut, 1.0, CFG, nu)
        assert (a == np.abs(y)).all() and pens is pen_vector(CFG, n)
        exact = exact_objectives(y, pens, 1.0)
        assert obj.size == 4
        for k in range(4):
            assert abs(Fraction(obj[k]) - exact[k]) <= _tolerance(n) * exact[k]

    def test_nothing_above_the_floor_forms_no_objective(self, monkeypatch):
        # a level with no coefficient above the floor: neither select_k nor
        # ideal_risk calls the kernel, and each returns y @ y
        y = np.random.default_rng(32).standard_normal(1 << 12)[1000:1100]
        _, peak, cut, _, _ = estimator._checked_level(y, CFG, 1.0, None)
        assert 0.0 < peak <= cut
        calls = []
        monkeypatch.setattr(estimator, "_penalized_objective",
                            lambda *args: calls.append(args))
        fit = select_k(y, CFG, 1.0)
        assert (fit.k_hat, fit.objective) == (0, float(y @ y))
        assert ideal_risk(y, CFG, 1.0) == float(y @ y)
        assert calls == []


class TestFastPaths:
    """The per-level record and the keep-nothing return move no bit: select_k and
    ideal_risk against reference_select_k and reference_ideal_risk."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(case=level_inputs())
    def test_property_same_as_reference(self, each_kernel, case):
        for _ in each_kernel():
            assert_same_as_reference(*case)

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_zero_epsilon(self, n):
        rng = np.random.default_rng(40)
        for y in (np.zeros(n), rng.standard_normal(n),
                  np.where(rng.random(n) < 0.5, 0.0, -rng.standard_normal(n))):
            assert_same_as_reference(y, CFG, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 64, 1 << 12])
    def test_nothing_above_the_floor(self, n):
        # zeros, noise well under eps * t_n, and every coefficient at the floor
        rng = np.random.default_rng(41)
        floor = floor_band(CFG, n, 1.0)[0]
        for y in (np.zeros(n), 0.1 * rng.standard_normal(n), np.full(n, -floor)):
            assert_same_as_reference(y, CFG, 1.0)
            assert select_k(y, CFG, 1.0).k_hat == 0

    def test_keep_nothing_builds_no_vector(self):
        # a noise-only level of 2^17 reads t_n and pen(n) alone: no pen(0..n) is
        # built and, but for the estimate's zeros, which the first fit at n makes
        # and every later one shares, nothing of its size
        cfg = PenaltyConfig(zeta=2.25)            # a config no other test uses
        y = np.random.default_rng(43).standard_normal(1 << 17)
        built = penalty._pen_vector.cache_info().misses
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                fit = select_k(y, cfg, 1.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        ideal_risk(y, cfg, 1.0)
        assert fit.k_hat == 0 and penalty._pen_vector.cache_info().misses == built
        assert peaks[0] < 1.5 * y.nbytes and peaks[1] < 1 << 12
        y[5] = 1e3                                # a level that keeps something adds one
        assert select_k(y, cfg, 1.0).k_hat == 1
        assert penalty._pen_vector.cache_info().misses == built + 1

    @pytest.mark.parametrize("offset", [1, 3])
    @pytest.mark.parametrize("n", [9_999, 10_001, 1 << 14])
    def test_keep_nothing_objective_is_y_dot_y(self, n, offset):
        # y @ y adds the products |y_i| * |y_i| in the order |y| @ |y| does, on
        # both sides of OpenBLAS's threaded dot (over 10,000 elements) and for
        # views that start at an odd element
        y = 0.5 * np.random.default_rng(44).standard_normal(n + offset)
        y = y[offset:]
        a = np.abs(y)
        assert a.max() < floor_band(CFG, n, 1.0)[0]  # nothing clears the floor
        fit = select_k(y, CFG, 1.0)
        assert fit.k_hat == 0 and fit.objective == float(a.dot(a))
        assert ideal_risk(y, CFG, 1.0) == float(a.dot(a))

    def test_penalty_not_increasing(self):
        # pen(64) < pen(63) at nu = 1.0001: no floor, and k_hat = 64 raises
        cfg = PenaltyConfig(nu=1.0001)
        pens = pen_vector(cfg, 64)
        assert pens[-1] < pens[-2]
        rng = np.random.default_rng(42)
        for y in (np.zeros(64), np.full(64, 3.0), 0.5 * rng.standard_normal(64),
                  np.where(np.arange(64) < 8, 5.0, 0.01)):
            assert_same_as_reference(y, cfg, 1.0)
            assert_same_as_reference(y, cfg, 1.0, 1.0002)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-3, 1.0, 1e150])
    def test_one_coefficient(self, epsilon, each_kernel):
        for _ in each_kernel():
            for v in (0.0, -0.0, 1e-300, 0.5, -3.0, 4.0, 1e9):
                assert_same_as_reference(np.array([v]), CFG, epsilon)
            for v in floor_band(CFG, 1, epsilon) if epsilon > 0 else []:
                assert_same_as_reference(np.array([v]), CFG, epsilon)


# read once: each_kernel changes estimator._SMALL_LEVEL between examples
SMALL_LEVEL = estimator._SMALL_LEVEL


@st.composite
def small_levels(draw, max_n=SMALL_LEVEL):
    """(y, cfg, epsilon, nu_eff) with n <= max_n: largest magnitudes from
    2^-500 to 2^500 and up to 2^-60 below them, ties, signed zeros, values within
    4 ulps of the floor, epsilon = 0 and penalties that are not increasing."""
    beta = draw(st.sampled_from(BETAS))
    cfg = PenaltyConfig(beta=beta, nu=draw(st.sampled_from(
        NUS + (PenaltyConfig(beta=beta).nu_floor * (1 + 1e-9),))))
    nu_eff = draw(st.sampled_from([None, 1.5 * cfg.nu]))
    n = draw(st.integers(1, max_n))
    power = draw(st.integers(-500, 500))
    scale = 2.0 ** power
    # hypothesis draws small seeds often: n and the scale tell their streams apart
    rng = np.random.default_rng([draw(st.integers(0, 2 ** 32 - 1)), n, power + 500])
    y = scale * rng.standard_normal(n) * 2.0 ** rng.uniform(-draw(st.integers(0, 60)), 0.0, n)
    epsilon = (rng.random() > 0.1) * scale * 2.0 ** draw(st.floats(-8.0, 1.0))
    if draw(st.booleans()):
        y[rng.random(n) < 0.5] = y[0]                          # ties, of either sign below
    if draw(st.booleans()):
        y[rng.random(n) < 0.3] = draw(st.sampled_from([0.0, -0.0]))
    band = floor_band(cfg, n, epsilon, nu_eff, below=4, above=4) if epsilon > 0 else []
    if band and draw(st.booleans()):
        at = rng.random(n) < draw(st.sampled_from([0.2, 0.5, 1.0]))
        y[at] = rng.choice(band, size=int(at.sum()))
    y *= rng.choice([-1.0, 1.0], size=n)
    return y, cfg, epsilon, nu_eff


def fit_bits(y, cfg, epsilon, nu_eff):
    """select_k's result as bits, signed zeros included, or its error's message."""
    try:
        fit = select_k(y, cfg, epsilon, nu_eff)
    except NumericalError as err:
        return str(err)
    return (fit.k_hat, fit.threshold.hex(), fit.objective.hex(), fit.estimate.dtype,
            fit.estimate.tobytes())


def oracle_bits(oracle, y, cfg, epsilon, nu_eff):
    """An oracle's (indices, objective as float.hex), or its error's message."""
    try:
        indices, objective = oracle(y, cfg, epsilon, nu_eff)
    except NumericalError as err:
        return str(err)
    return indices, objective.hex()


class TestSmallLevels:
    """A level of at most _SMALL_LEVEL coefficients, one of which clears the
    floor, is fitted on Python floats; numpy's kernel gives the same bits."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(case=small_levels())
    def test_property_same_bits_as_numpy(self, each_kernel, case):
        on_arrays, on_floats = [fit_bits(*case) for _ in each_kernel()]
        assert on_floats == on_arrays


class TestSharedZeroEstimate:
    """Each of select_k's three k_hat = 0 returns gives the zero vector shared by
    every fit that keeps nothing at its n: +0.0 everywhere, read-only, and never
    writable."""

    @pytest.mark.parametrize("branch", ["nothing-clears-the-floor", "small-level", "array"])
    def test_one_read_only_zero_vector_per_n(self, branch, monkeypatch):
        n = 8
        floor = floor_band(CFG, n, 1.0)[0]
        calls = []
        for name in ("_select_small", "_penalized_objective"):
            def spy(*args, _name=name, _real=getattr(estimator, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(estimator, name, spy)
        levels = [np.full(n, -0.0), np.full(n, -0.5 * floor)]
        if branch != "nothing-clears-the-floor":
            # one coefficient just above the floor: sorted, yet not worth pen(1)
            monkeypatch.setattr(estimator, "_SMALL_LEVEL", n if branch == "small-level" else 0)
            levels[0][0] = float(np.nextafter(floor, math.inf))
            levels[1][3] = -levels[0][0]
        fits = [select_k(y, CFG, 1.0) for y in levels]
        assert calls == {"nothing-clears-the-floor": [], "small-level": ["_select_small"] * 2,
                         "array": ["_penalized_objective"] * 2}[branch]
        for fit in fits:
            assert fit.k_hat == 0 and fit.threshold == math.inf
            assert fit.estimate.dtype == np.float64
            assert fit.estimate.tobytes() == np.zeros(n).tobytes()     # +0.0, never -0.0
            assert not fit.estimate.flags.writeable
            with pytest.raises(ValueError):
                fit.estimate.setflags(write=True)
            with pytest.raises(ValueError):
                fit.estimate[0] = 1.0
        # one vector for every fit at n, whichever branch returned it
        assert fits[0].estimate is fits[1].estimate is select_k(np.zeros(n), CFG, 1.0).estimate
        assert select_k(np.zeros(n + 1), CFG, 1.0).estimate.size == n + 1


class TestFilterPremise:
    """The pre-filter drops |y| <= eps * t_n because t_k^2 = pen(k) - pen(k-1)
    never falls below t_n^2; these tests check that premise on the float
    pen_vector values and compare with the kernel that filters nothing."""

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("nu", NUS)
    def test_threshold_non_increasing(self, beta, nu):
        cfg = PenaltyConfig(beta=beta, nu=nu)
        for n in (1, 2, 3, 64, 1000, 1 << 17):
            t2 = np.diff(pen_vector(cfg, n))
            assert np.all(np.diff(t2) <= 0.0), (beta, nu, n)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
    def test_same_k_hat_as_unfiltered_kernel(self, beta):
        rng = np.random.default_rng(33)
        cfg = PenaltyConfig(beta=beta)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            epsilon = float(10.0 ** rng.uniform(-3.0, 1.0))
            pens = pen_vector(cfg, n)
            floor = epsilon * math.sqrt(pens[-1] - pens[-2])
            t1 = epsilon * math.sqrt(pens[1])
            cases = [
                rng.standard_normal(n) * t1 * 2.0 ** rng.uniform(-2.0, 1.5),
                rng.standard_normal(n) * epsilon,
                floor * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, n)),
                np.where(rng.random(n) < 0.5, floor, t1 * 1.5) * rng.choice([-1.0, 1.0], n),
            ]
            for y in cases:
                legacy = int(unfiltered_objective(np.abs(y), pens, epsilon).argmin())
                assert select_k(y, cfg, epsilon).k_hat == legacy


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

    def test_tie_breaking_prefers_small_support(self, each_oracle):
        # epsilon = 0 makes every superset of the support tie at objective 0
        y = np.array([1.0, 0.0, 2.0, 0.0])
        for _ in each_oracle():
            idx, obj = subset_oracle(y, CFG, 0.0)
            assert idx == (0, 2)
            assert obj == 0.0

    @pytest.mark.parametrize("beta", sorted(EXACT_TIES))
    def test_lexicographic_tie_break(self, beta, each_oracle):
        cfg, y, eps = EXACT_TIES[beta]
        objs = subset_objectives(y, cfg, eps)
        best = min(objs.values())
        size = min(len(J) for J, v in objs.items() if v == best)
        # the input really ties: two supports of minimal size reach the minimum
        assert [J for J, v in objs.items() if v == best and len(J) == size] == [(0, 2, 3),
                                                                              (1, 2, 3)]
        for _ in each_oracle():
            assert subset_oracle(y, cfg, eps) == ((0, 2, 3), best)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_doubling_table_matches_mask_dp_exactly(self, beta, each_oracle):
        for _ in each_oracle():
            self.check_doubling_table(beta)

    @staticmethod
    def check_doubling_table(beta):
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
            for y, eps in cases:
                assert subset_oracle(y, cfg, eps) == mask_dp_oracle(y, cfg, eps)
        # supports of minimal size that tie exactly
        tie_cfg, y, eps = EXACT_TIES[beta]
        assert subset_oracle(y, tie_cfg, eps) == mask_dp_oracle(y, tie_cfg, eps)
        # the low 8 bits are summed in one reduction and the rest by doubling: n up
        # to 14 crosses that boundary; eps off {0, 1}, an explicit nu_eff and
        # magnitudes of 10^+-150 each give other roundings of the sums and of
        # eps^2 * pen
        for n in range(1, 15):
            for nu_eff in (None, 97.0):
                t1 = math.sqrt(pen_vector(cfg, n, nu_eff)[1])
                for scale in (1e-150, 1.0, 1e150):
                    for eps in (0.3 * scale, 2.5 * scale):
                        cases = [rng.standard_normal(n) * eps for _ in range(2)]
                        cases += [rng.standard_normal(n) * eps * t1 * 2.0 ** rng.uniform(-2.0, 1.5)
                                  for _ in range(3)]
                        for y in cases:
                            assert (subset_oracle(y, cfg, eps, nu_eff)
                                    == mask_dp_oracle(y, cfg, eps, nu_eff))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(case=small_levels(max_n=6))
    def test_property_both_paths_match_the_mask_dp(self, each_oracle, case):
        # scales 2^-500..2^500, ties, signed zeros, eps = 0 and nu_eff None or
        # explicit: the Python-float path has the array path's bits
        on_arrays, on_floats = [oracle_bits(subset_oracle, *case) for _ in each_oracle()]
        assert on_floats == on_arrays
        if not isinstance(on_arrays, str):
            assert oracle_bits(mask_dp_oracle, *case) == on_arrays


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
        # ideal risk <= 7 * zeta * xi1 * (1 + 2 beta) * log(nu) * eps^2 * r_{n,p}(||theta||_p/eps)
        # on equal-spike signals; 7 is an empirical constant (largest ratio seen 5.62)
        rng = np.random.default_rng(27)
        for beta in (0.0, 0.5):
            cfg = PenaltyConfig(zeta=2.0, nu=40.0, beta=beta)
            scale = 7.0 * cfg.zeta * cfg.xi1 * (1 + 2 * beta) * math.log(cfg.nu)
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
    for zeta in (math.inf, math.nan, True, "2"):
        with pytest.raises(ValidationError, match="zeta must be a finite number"):
            oracle_constant(zeta)


def _clear_level_caches():
    """Empty every cache keyed on PenaltyConfig.key, so the next call computes afresh."""
    for cache in (penalty._pen_vector, penalty._level_record, estimator._pen_tuple,
                  estimator._dropped_penalties):
        cache.cache_clear()


def _scalar_run(cfg, epsilon, noise):
    """The bits of select_k, ideal_risk, subset_oracle and fit_multiscale on seeded
    levels, each computed afresh: no cache another config filled is read."""
    _clear_level_caches()
    rng = np.random.default_rng(36)
    out = []
    for _ in range(300):
        y = 0.3 * rng.standard_normal(16)
        y[rng.integers(16)] *= 10.0
        fit = select_k(y, cfg, epsilon)
        assert type(fit.threshold) is float and type(fit.objective) is float
        out.append((fit.k_hat, fit.threshold, fit.objective, fit.estimate.tobytes(),
                    ideal_risk(y, cfg, epsilon)))
    for n in (3, 6):
        for _ in range(50):
            out.append(subset_oracle(0.3 * rng.standard_normal(n), cfg, epsilon))
    seq = MultiresSequence(j0=1, levels=[0.3 * rng.standard_normal(2 ** j) for j in range(1, 7)])
    fit = fit_multiscale(seq, cfg, NoiseSpec(epsilon=noise, beta=cfg.beta))
    out.append(repr(fit.to_json_dict()))
    return out


class TestCheckedScalars:
    """A scalar is computed with as the float it was checked as: float32, numpy
    scalars and ints give the bits of the same values given as floats, whichever
    config fills the per-level caches first."""

    @pytest.mark.parametrize("kind, values", [
        (np.float32, dict(zeta=1.1, nu=40.0, beta=0.5, xi1=1.3, epsilon=0.1, noise=0.01)),
        (np.float64, dict(zeta=1.1, nu=40.0, beta=0.5, xi1=1.3, epsilon=0.1, noise=0.01)),
        (int, dict(zeta=3, nu=40, beta=1, xi1=2, epsilon=1, noise=0)),
    ], ids=["float32", "numpy-scalar", "int"])
    def test_same_bits_as_floats(self, kind, values):
        given_ = {k: kind(v) for k, v in values.items()}
        floats = {k: float(v) for k, v in given_.items()}
        runs, cfgs = [], []
        for scalars in (given_, floats):
            epsilon, noise = scalars.pop("epsilon"), scalars.pop("noise")
            cfgs.append(PenaltyConfig(**scalars))
            runs.append(_scalar_run(cfgs[-1], epsilon, noise))
        assert runs[0] == runs[1]
        assert all(type(v) is float for cfg in cfgs for v in cfg.key)

    def test_pen_vector_does_not_depend_on_cache_order(self):
        given_ = PenaltyConfig(zeta=np.float32(1.1), xi1=np.float32(1.3))
        floats = PenaltyConfig(zeta=float(np.float32(1.1)), xi1=float(np.float32(1.3)))
        bits = []
        for first, second in ((given_, floats), (floats, given_)):
            _clear_level_caches()
            bits += [pen_vector(first, 64).tobytes(), pen_vector(second, 64).tobytes()]
        assert len(set(bits)) == 1

    def test_messages_show_the_value_as_given(self):
        with pytest.raises(ValidationError, match=re.escape("got np.float32(-0.5)")):
            select_k(np.ones(4), CFG, np.float32(-0.5))
