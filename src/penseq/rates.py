"""Closed-form risk theory: control functions, shell risks and rate zones.

The ideal risk over an l_p ball of radius C at noise level eps is, up to
constants, eps^2 * r_{n,p}(C/eps) for the piecewise control function
r_{n,p}.  Restricting a Besov ball to level j gives an l_p ball of radius
C_j = C * 2^(-a*j), whose contribution ("shell risk") is

    R_j = eps_j^2 * r_{n_j, p}(C_j / eps_j),      n_j = 2^j, eps_j = eps * 2^(beta*j),

with j treated as a real variable.  R_j peaks at the large/small-signal
boundary j_star and, for p < 2, at the sparse/highly-sparse boundary j_plus;
away from the peaks it decays geometrically, which is what makes the
level-wise estimator rate adaptive.

j_plus is found by bisection down to adjacent floats, and the complexity
sum t1_complexity_sum comes from penalty's numpy-only M'_n, so nothing here
imports SciPy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, as_float, require
from .model import HyperParams, Zone, classify_zone, level_noise, shell_radius
from .penalty import PenaltyConfig, _checked_m_prime_log, nu_schedule

_LOG2 = math.log(2.0)


def _control(n: float, p: float, C: float) -> tuple:
    """(r_{n,p}(C), branch label): the value and the signal regime that gives it."""
    require(n >= 1, f"n must be >= 1, got {n}")
    require(p > 0, f"p must be > 0, got {p}")
    require(C >= 0, f"C must be >= 0, got {C}")
    n = float(n)
    if C >= n ** (1.0 / p):
        return n, "large-signal"
    if p >= 2.0:
        return n ** (1.0 - 2.0 / p) * C * C, "small-signal"
    if C <= math.sqrt(1.0 + math.log(n)):
        return C * C, "highly-sparse"
    return C ** p * (1.0 + math.log(n) - p * math.log(C)) ** (1.0 - p / 2.0), "sparse"


def control_function(n: float, p: float, C: float) -> float:
    """Piecewise control function r_{n,p}(C); n may be a real quantity >= 1.

    p < 2:  C^2                                  for C <= sqrt(1 + log n)
            C^p * (1 + log(n / C^p))^(1 - p/2)   below C = n^(1/p)
            n                                    from there on.
    p >= 2: n^(1 - 2/p) * C^2 below C = n^(1/p), then n.

    Continuous at the dense boundary C = n^(1/p); the sparse/highly-sparse
    boundary carries an order-level jump, branches are evaluated as written.
    """
    return _control(as_float(n, "n"), as_float(p, "p"), as_float(C, "C"))[0]


def rate_exponent(gamma: HyperParams) -> float:
    """Rate exponent r of the minimax rate C^(2(1-r)) * eps^(2r).

    Dense: 2a/(2a+2b+1); Sparse: (2a-2/p+1)/(2a+2b-2/p+1); Critical: 1-p/2.
    """
    zone = classify_zone(gamma)
    al, be, p = gamma.alpha, gamma.beta, gamma.p
    if zone is Zone.DENSE:
        return 2.0 * al / (2.0 * al + 2.0 * be + 1.0)
    if zone is Zone.SPARSE:
        return (2.0 * al - 2.0 / p + 1.0) / (2.0 * al + 2.0 * be - 2.0 / p + 1.0)
    return 1.0 - p / 2.0


def j_star(gamma: HyperParams, C: float, epsilon: float) -> float:
    """Real solution of 2^((alpha+beta+1/2) j) = C/eps: the large/small-signal boundary."""
    C, epsilon = as_float(C, "C"), as_float(epsilon, "epsilon")
    require(0 < epsilon <= C, f"need 0 < epsilon <= C, got epsilon={epsilon}, C={C}")
    return math.log2(C / epsilon) / (gamma.alpha + gamma.beta + 0.5)


def j_plus(gamma: HyperParams, C: float, epsilon: float) -> float:
    """Real solution of 2^(delta*j) * (1 + log 2^j)^(1/2) = C/eps, delta = a + beta.

    Defined for 0 < p < 2, where the rate hypotheses give delta > 1/2.  In logs
    the equation reads g(j) = 0 with g strictly increasing on j >= 0, g(0) <= 0
    and g(log2(C/eps) / delta) >= 0, since the log factor is >= 1.  Bisection
    keeps g(lo) < 0 <= g(hi) until no float lies between lo and hi and returns
    hi, the first float at which g is not negative (0.0 when C = eps).
    """
    C, epsilon = as_float(C, "C"), as_float(epsilon, "epsilon")
    require(0 < gamma.p < 2, f"j_plus requires 0 < p < 2, got p={gamma.p}")
    require(0 < epsilon <= C, f"need 0 < epsilon <= C, got epsilon={epsilon}, C={C}")
    delta = gamma.a + gamma.beta
    target = math.log(C / epsilon)

    def g(j):
        return delta * j * _LOG2 + 0.5 * math.log1p(j * _LOG2) - target

    lo, hi = 0.0, math.log2(C / epsilon) / delta
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def shell_peak_value(gamma: HyperParams, C: float, epsilon: float) -> float:
    """R_star = R_{j_star} = n_{j*} eps_{j*}^2 = eps^2 * 2^((2 beta + 1) j*)."""
    try:
        return epsilon ** 2 * 2.0 ** ((2.0 * gamma.beta + 1.0) * j_star(gamma, C, epsilon))
    except OverflowError:
        raise NumericalError(f"R_star = eps^2 * 2^((2*beta+1)*j_star) overflows at "
                             f"beta={gamma.beta}, epsilon={epsilon}") from None


def shell_sparse_peak_value(gamma: HyperParams, C: float, epsilon: float) -> float:
    """R_plus = R_{j_plus} = C^2 * 2^(-2 a j_plus) (p < 2 only)."""
    return C ** 2 * 2.0 ** (-2.0 * gamma.a * j_plus(gamma, C, epsilon))


def _shell(gamma: HyperParams, C: float, epsilon: float, j: float) -> tuple:
    """(R_j, branch label) of the level-j shell, with R_j = eps_j^2 * r_{n_j,p}(C_j / eps_j)."""
    eps_j = level_noise(epsilon, gamma.beta, j)
    value, label = _control(2.0 ** j, gamma.p, shell_radius(gamma, C, j) / eps_j)
    return eps_j ** 2 * value, label


def shell_risk(gamma: HyperParams, C: float, epsilon: float, j: float) -> float:
    """Definitional shell risk R_j = eps_j^2 * r_{n_j,p}(C_j / eps_j), real j >= 0;
    NumericalError when it overflows."""
    C, epsilon = as_float(C, "C"), as_float(epsilon, "epsilon")
    require(as_float(j, "j") >= 0, f"j must be >= 0, got {j}")
    try:
        risk = _shell(gamma, C, epsilon, j)[0]
    except OverflowError:                         # Python floats raise where numpy gives inf
        risk = math.inf
    if not math.isfinite(risk):
        raise NumericalError(f"level j={j}: R_j = eps_j^2 * r(C_j / eps_j) overflows "
                             f"at beta={gamma.beta}, epsilon={epsilon}")
    return risk


def shell_risk_closed_form(gamma: HyperParams, C: float, epsilon: float, j: float) -> float:
    """Piecewise closed form of the shell risk, anchored at the peaks.

    p >= 2:  R* * 2^((2b+1)(j-j*)) below j*, R* * 2^(-2a(j-j*)) above.
    p < 2:   the same growth below j*, then
             R* * 2^(-p*rho*(j-j*)) * (1 + phi*(j-j*))^(1-p/2) on [j*, j+),
             R+ * 2^(-2a(j-j+)) beyond, with rho = alpha - (2b+1)(1/p - 1/2)
             and phi = p*(alpha+beta+1/2)*log 2.
    """
    C, epsilon = as_float(C, "C"), as_float(epsilon, "epsilon")
    require(as_float(j, "j") >= 0, f"j must be >= 0, got {j}")
    al, be, p = gamma.alpha, gamma.beta, gamma.p
    js = j_star(gamma, C, epsilon)
    r_star = shell_peak_value(gamma, C, epsilon)
    if p >= 2.0:
        if j <= js:
            return r_star * 2.0 ** ((2.0 * be + 1.0) * (j - js))
        return r_star * 2.0 ** (-2.0 * al * (j - js))
    jp = j_plus(gamma, C, epsilon)
    if j < js:
        return r_star * 2.0 ** ((2.0 * be + 1.0) * (j - js))
    if j < jp:
        rho = al - (2.0 * be + 1.0) * (1.0 / p - 0.5)
        phi = p * (al + be + 0.5) * _LOG2
        return r_star * 2.0 ** (-p * rho * (j - js)) * (1.0 + phi * (j - js)) ** (1.0 - p / 2.0)
    r_plus = C ** 2 * 2.0 ** (-2.0 * gamma.a * jp)
    return r_plus * 2.0 ** (-2.0 * gamma.a * (j - jp))


@dataclass(frozen=True)
class RateReport:
    """Zone, rate exponent and shell-peak summary for one (gamma, C, eps)."""

    zone: Zone
    r: float
    rate_value: float
    j_star: float
    j_plus: float   # NaN when p >= 2
    R_star: float
    R_plus: float   # NaN when p >= 2

    def __post_init__(self):
        require(0.0 < self.r < 1.0, f"rate exponent must lie in (0,1), got {self.r}")

    def to_json_dict(self) -> dict:
        def clean(x):
            return None if (isinstance(x, float) and not math.isfinite(x)) else x
        return {"zone": self.zone.value, "r": self.r,
                "rate_value": self.rate_value,
                "j_star": clean(self.j_star), "j_plus": clean(self.j_plus),
                "R_star": clean(self.R_star), "R_plus": clean(self.R_plus)}


def log_factor(gamma: HyperParams, C: float, epsilon: float) -> float:
    """Zone log factor of the rate: 1 when Dense, (1 + log(C/eps))^r when
    Sparse and (1 + log(C/eps))^(r + (1 - p/q)_+) when Critical."""
    zone = classify_zone(gamma)
    if zone is Zone.DENSE:
        return 1.0
    r = rate_exponent(gamma)
    logf = 1.0 + math.log(C / epsilon)
    if zone is Zone.SPARSE:
        return logf ** r
    return logf ** (r + max(1.0 - gamma.p / gamma.q, 0.0))


def rate_control(gamma: HyperParams, C: float, epsilon: float) -> RateReport:
    """Rate control value R(C, eps; gamma) = C^(2(1-r)) eps^(2r) times the
    zone's log_factor."""
    C, epsilon = as_float(C, "C"), as_float(epsilon, "epsilon")
    zone = classify_zone(gamma)
    require(0 < epsilon < C,
            f"rate control needs 0 < epsilon < C, got epsilon={epsilon}, C={C}")
    r = rate_exponent(gamma)
    value = C ** (2.0 * (1.0 - r)) * epsilon ** (2.0 * r) * log_factor(gamma, C, epsilon)
    js = j_star(gamma, C, epsilon)
    if gamma.p < 2.0:
        jp = j_plus(gamma, C, epsilon)
        r_plus = shell_sparse_peak_value(gamma, C, epsilon)
    else:
        jp, r_plus = math.nan, math.nan
    return RateReport(zone=zone, r=r, rate_value=value, j_star=js, j_plus=jp,
                      R_star=shell_peak_value(gamma, C, epsilon), R_plus=r_plus)


@dataclass(frozen=True, eq=False)
class ShellRiskProfile:
    """Shell risk sampled on a real j grid with per-point regime labels."""

    j: np.ndarray
    values: np.ndarray
    labels: tuple

    def to_csv_text(self) -> str:
        lines = ["j,R_j,zone_label"]
        for j, v, lab in zip(self.j, self.values, self.labels):
            lines.append(f"{float(j):.6g},{float(v):.17g},{lab}")
        return "\n".join(lines) + "\n"


def shell_profile(gamma: HyperParams, C: float, epsilon: float) -> ShellRiskProfile:
    """Sample R_j on [0, 5 past the last peak] in steps of 0.1; NumericalError on overflow."""
    C, epsilon = as_float(C, "C"), as_float(epsilon, "epsilon")
    peak = j_plus(gamma, C, epsilon) if gamma.p < 2.0 else j_star(gamma, C, epsilon)
    grid = np.arange(0.0, peak + 5.0 + 0.05, 0.1)    # half a step of slack keeps the end
    with np.errstate(over="ignore", invalid="ignore"):    # numpy grid points: inf, not a warning
        values, labels = zip(*[_shell(gamma, C, epsilon, j) for j in grid])
    if not np.isfinite(values).all():
        raise NumericalError(f"shell risk R_j overflows at beta={gamma.beta}, epsilon={epsilon}")
    return ShellRiskProfile(j=grid, values=np.array(values), labels=labels)


_LEVEL_CAP_EXTRA = 200
# n_j = 2^j is a finite float up to this level
_LAST_FLOAT_LEVEL = sys.float_info.max_exp - 1


def t1_complexity_sum(cfg: PenaltyConfig, epsilon: float) -> float:
    """Complexity remainder T1 = 2 * sum_j xi1 * M'_{n_j} * eps_j^2.

    Levels run from 1 to ceil(j_eps) + 200; beyond that the schedule has
    pushed per-level terms below any fixed relative tolerance.
    """
    epsilon = as_float(epsilon, "epsilon")
    require(0 < epsilon < 1, f"epsilon must lie in (0, 1), got {epsilon}")
    j_cap = int(math.ceil(cfg.j_eps(epsilon))) + _LEVEL_CAP_EXTRA
    if j_cap > _LAST_FLOAT_LEVEL:
        raise NumericalError(
            f"epsilon = {epsilon!r}: the complexity sum runs to level j = {j_cap}, but "
            f"n_j = 2^j overflows from j = {_LAST_FLOAT_LEVEL + 1}")
    log_eps2 = 2.0 * math.log(epsilon)
    total = 0.0
    for j in range(1, j_cap + 1):
        # in logs: M'_{n_j} underflows to 0 long before its term does at a large beta
        log_mp = float(_checked_m_prime_log(cfg, [2.0 ** j], nu_schedule(cfg, epsilon, j))[0])
        total += math.exp(log_mp + log_eps2 + 2.0 * cfg.beta * j * _LOG2)
    return 2.0 * cfg.xi1 * total
