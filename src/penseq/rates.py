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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import require
from .model import HyperParams, Zone, classify_zone
from .penalty import PenaltyConfig, m_prime, nu_schedule
from .estimator import oracle_constant

_LOG2 = math.log(2.0)

# Empirical constant in the ideal-risk control bound
#   ideal_risk(theta, eps) <= CONTROL_BOUND_BASE * zeta * xi1 * (1+2*beta)
#                             * log(nu) * eps^2 * r_{n,p}(||theta||_p / eps).
# Calibrated once over n in {16..4096}, p in {0.5, 1, 1.5, 2, 3},
# beta in {0, 0.5, 1}, nu in {1.1*e^(1/(1+2b)), 10, 40, 100} and extremal
# equal-spike signals (max observed 5.62, frozen with headroom).
CONTROL_BOUND_BASE = 7.0


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
    return _control(n, p, C)[0]


def rate_exponent(gamma: HyperParams) -> float:
    """Rate exponent r of the minimax rate C^(2(1-r)) * eps^(2r).

    Dense: 2a/(2a+2b+1); Sparse: (2a-2/p+1)/(2a+2b-2/p+1); Critical: 1-p/2.
    """
    zone = classify_zone(gamma.validate())
    al, be, p = gamma.alpha, gamma.beta, gamma.p
    if zone is Zone.DENSE:
        return 2.0 * al / (2.0 * al + 2.0 * be + 1.0)
    if zone is Zone.SPARSE:
        return (2.0 * al - 2.0 / p + 1.0) / (2.0 * al + 2.0 * be - 2.0 / p + 1.0)
    return 1.0 - p / 2.0


def j_star(gamma: HyperParams, C: float, epsilon: float) -> float:
    """Real solution of 2^((alpha+beta+1/2) j) = C/eps: the large/small-signal boundary."""
    require(0 < epsilon <= C, f"need 0 < epsilon <= C, got epsilon={epsilon}, C={C}")
    return math.log2(C / epsilon) / (gamma.alpha + gamma.beta + 0.5)


def j_plus(gamma: HyperParams, C: float, epsilon: float) -> float:
    """Real solution of 2^(delta*j) * (1 + log 2^j)^(1/2) = C/eps, delta = a + beta.

    Defined for 0 < p < 2; the left side is strictly increasing for j >= 0
    when delta > 0, so the root is bracketed and found by Brent's method.
    """
    require(0 < gamma.p < 2, f"j_plus requires 0 < p < 2, got p={gamma.p}")
    require(0 < epsilon <= C, f"need 0 < epsilon <= C, got epsilon={epsilon}, C={C}")
    delta = gamma.a + gamma.beta
    require(delta > 0, f"need alpha + beta - 1/p + 1/2 > 0, got {delta}")
    target = math.log(C / epsilon)

    def g(j):
        return delta * j * _LOG2 + 0.5 * math.log1p(j * _LOG2) - target

    hi = math.log2(C / epsilon) / delta  # g(hi) >= 0 since the log factor is >= 1
    if hi == 0.0:
        return 0.0
    return float(brentq(g, 0.0, hi, xtol=1e-13, rtol=8.9e-16))


def shell_peak_value(gamma: HyperParams, C: float, epsilon: float) -> float:
    """R_star = R_{j_star} = n_{j*} eps_{j*}^2 = eps^2 * 2^((2 beta + 1) j*)."""
    return epsilon ** 2 * 2.0 ** ((2.0 * gamma.beta + 1.0) * j_star(gamma, C, epsilon))


def shell_sparse_peak_value(gamma: HyperParams, C: float, epsilon: float) -> float:
    """R_plus = R_{j_plus} = C^2 * 2^(-2 a j_plus) (p < 2 only)."""
    return C ** 2 * 2.0 ** (-2.0 * gamma.a * j_plus(gamma, C, epsilon))


def _shell(gamma: HyperParams, C: float, epsilon: float, j: float) -> tuple:
    """(R_j, branch label) of the level-j shell, with R_j = eps_j^2 * r_{n_j,p}(C_j / eps_j)."""
    eps_j = epsilon * 2.0 ** (gamma.beta * j)
    c_j = C * 2.0 ** (-gamma.a * j)
    value, label = _control(2.0 ** j, gamma.p, c_j / eps_j)
    return eps_j ** 2 * value, label


def shell_risk(gamma: HyperParams, C: float, epsilon: float, j: float) -> float:
    """Definitional shell risk R_j = eps_j^2 * r_{n_j,p}(C_j / eps_j), real j >= 0."""
    require(j >= 0, f"j must be >= 0, got {j}")
    return _shell(gamma, C, epsilon, j)[0]


def shell_risk_closed_form(gamma: HyperParams, C: float, epsilon: float, j: float) -> float:
    """Piecewise closed form of the shell risk, anchored at the peaks.

    p >= 2:  R* * 2^((2b+1)(j-j*)) below j*, R* * 2^(-2a(j-j*)) above.
    p < 2:   the same growth below j*, then
             R* * 2^(-p*rho*(j-j*)) * (1 + phi*(j-j*))^(1-p/2) on [j*, j+),
             R+ * 2^(-2a(j-j+)) beyond, with rho = alpha - (2b+1)(1/p - 1/2)
             and phi = p*(alpha+beta+1/2)*log 2.
    """
    require(j >= 0, f"j must be >= 0, got {j}")
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


def shell_zone_label(gamma: HyperParams, C: float, epsilon: float, j: float) -> str:
    """Signal-regime label of the level-j shell (for profile output)."""
    return _shell(gamma, C, epsilon, j)[1]


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


def log_factor(gamma: HyperParams, zone: Zone, C: float, epsilon: float) -> float:
    """Zone log factor of the rate: 1 when Dense, (1 + log(C/eps))^r when
    Sparse and (1 + log(C/eps))^(r + (1 - p/q)_+) when Critical.

    The zone is an argument so that a caller can pass a declared zone (see
    classify_zone) in place of the detected one.
    """
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
    zone = classify_zone(gamma.validate())
    require(0 < epsilon < C,
            f"rate control needs 0 < epsilon < C, got epsilon={epsilon}, C={C}")
    r = rate_exponent(gamma)
    value = C ** (2.0 * (1.0 - r)) * epsilon ** (2.0 * r) * log_factor(gamma, zone, C, epsilon)
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
    """Sample R_j on [0, 5 past the last peak] in steps of 0.1."""
    gamma.validate()
    peak = j_plus(gamma, C, epsilon) if gamma.p < 2.0 else j_star(gamma, C, epsilon)
    grid = np.arange(0.0, peak + 5.0 + 0.05, 0.1)    # half a step of slack keeps the end
    points = [_shell(gamma, C, epsilon, j) for j in grid]
    return ShellRiskProfile(j=grid, values=np.array([v for v, _ in points]),
                            labels=tuple(label for _, label in points))


# -- rate upper bound --------------------------------------------------------

_LEVEL_TAIL_REL = 1e-12
_LEVEL_CAP_EXTRA = 200


def control_bound_constant(cfg: PenaltyConfig) -> float:
    """Frozen constant c(cfg) of the ideal-risk control bound (see CONTROL_BOUND_BASE)."""
    return CONTROL_BOUND_BASE * cfg.zeta * cfg.xi1 * (1.0 + 2.0 * cfg.beta)


def t1_complexity_sum(cfg: PenaltyConfig, epsilon: float) -> float:
    """Complexity remainder T1 = 2 * sum_j xi1 * M'_{n_j} * eps_j^2.

    Levels run from 1 to ceil(j_eps) + 200; beyond that the schedule has
    pushed per-level terms below any fixed relative tolerance.
    """
    require(0 < epsilon < 1, f"epsilon must lie in (0, 1), got {epsilon}")
    j_eps = cfg.jeps_scale * 2.0 * math.log2(1.0 / epsilon)
    j_cap = int(math.ceil(j_eps)) + _LEVEL_CAP_EXTRA
    log_eps2 = 2.0 * math.log(epsilon)
    total = 0.0
    for j in range(1, j_cap + 1):
        nu_j = nu_schedule(cfg, epsilon, j)
        log_mp = math.log(m_prime(cfg, 2.0 ** j, nu_j))
        total += math.exp(log_mp + log_eps2 + 2.0 * cfg.beta * j * _LOG2)
    return 2.0 * cfg.xi1 * total


def t2_control_sum(gamma: HyperParams, C: float, epsilon: float,
                   cfg: PenaltyConfig) -> float:
    """Level sum sum_j log(nu_{n,j}) * R_j, truncated once the tail is negligible."""
    require(0 < epsilon < min(C, 1.0),
            f"need 0 < epsilon < min(C, 1), got epsilon={epsilon}, C={C}")
    if gamma.p < 2.0:
        require(gamma.a + gamma.beta > 0,
                "level sum diverges: alpha + beta - 1/p + 1/2 must be positive")
        peak = j_plus(gamma, C, epsilon)
    else:
        peak = j_star(gamma, C, epsilon)
    j_cap = int(math.ceil(peak)) + _LEVEL_CAP_EXTRA
    total = 0.0
    prev = math.inf
    for j in range(1, j_cap + 1):
        term = math.log(nu_schedule(cfg, epsilon, j)) * shell_risk(gamma, C, epsilon, j)
        total += term
        if j > peak + 1 and 0.0 < term < prev:
            q = term / prev
            if term * q / (1.0 - q) < _LEVEL_TAIL_REL * total:
                break
        prev = term
    return total


def risk_upper_bound(gamma: HyperParams, C: float, epsilon: float,
                     cfg: PenaltyConfig) -> float:
    """Computable risk bound D * [T1 + c * sum_j log(nu_{n,j}) R_j].

    T1 is the complexity remainder, the second term bounds the summed ideal
    risks over Besov shells via the frozen control-bound constant.  Within
    each zone the bound tracks rate_control up to constants.
    """
    gamma.validate()
    t1 = t1_complexity_sum(cfg, epsilon)
    t2 = control_bound_constant(cfg) * t2_control_sum(gamma, C, epsilon, cfg)
    return oracle_constant(cfg.zeta) * (t1 + t2)


# -- minimax lower-bound anchors ---------------------------------------------

def _bayes_minimax_value(p: float, eta: float) -> float:
    """Order-level minimax value per coordinate at signal-to-noise eta, capped at 1.

    Uses the small-eta asymptote eta^p * (2 log eta^-p)^(1-p/2) for p < 2
    (frozen at its maximum for larger eta) and min(eta^2, 1) for p >= 2.
    """
    if eta <= 0.0:
        return 0.0
    if p >= 2.0:
        return min(eta * eta, 1.0)
    s = 1.0 - p / 2.0
    eta_peak = math.exp(-s / p)
    e = min(eta, eta_peak)
    return min(e ** p * (2.0 * (-p) * math.log(e)) ** s, 1.0)


def lp_minimax_lower(n: int, p: float, C: float, epsilon: float) -> float:
    """Asymptotic minimax risk over the l_p ball l_{n,p}(C) at noise eps.

    Dense regime (eta_n = n^(-1/p) C/eps not small, or p >= 2):
    n * eps^2 * beta_p(eta_n).  Sparse regime (delta_n = (C/eps)/sqrt(2 log n)
    bounded by 1): lambda_n^2 * eps^2 * ([delta]^p + {delta^p}^(2/p)) with
    lambda_n = sqrt(2 log n).  Values are order-of-magnitude anchors, not
    sharp constants.
    """
    require(n >= 2, f"n must be >= 2, got {n}")
    require(p > 0 and C > 0 and epsilon > 0, "p, C and epsilon must be positive")
    snr = C / epsilon
    eta = n ** (-1.0 / p) * snr
    if p >= 2.0:
        return n * epsilon ** 2 * _bayes_minimax_value(p, eta)
    two_log_n = 2.0 * math.log(n)
    delta = snr / math.sqrt(two_log_n)
    if delta <= 1.0:
        frac = delta ** p - math.floor(delta ** p)
        return two_log_n * epsilon ** 2 * (math.floor(delta) ** p + frac ** (2.0 / p))
    return n * epsilon ** 2 * _bayes_minimax_value(p, eta)


def sparse_dense_identity_check(gamma: HyperParams) -> bool:
    """Self-test of the zone algebra: the exponent comparison

        alpha/(alpha+beta+1/2)  >=  (alpha-1/p+1/2)/(alpha+beta-1/p+1/2)

    holds exactly when alpha <= (2*beta+1)*(1/p - 1/2), with equality on one
    side forcing equality on the other.  Returns True when the two sides of
    the equivalence agree (they always should; False flags a formula bug).
    """
    require(0 < gamma.p < 2, f"identity requires 0 < p < 2, got p={gamma.p}")
    al, be, p = gamma.alpha, gamma.beta, gamma.p
    # the equivalence needs the sparse-exponent denominator positive, which
    # the rate hypotheses guarantee (delta = a + beta > 1/2)
    require(gamma.a + gamma.beta > 0,
            f"identity requires alpha + beta - 1/p + 1/2 > 0, got {gamma.a + gamma.beta}")
    lhs = al / (al + be + 0.5) - (al - 1.0 / p + 0.5) / (al + be - 1.0 / p + 0.5)
    rhs = gamma.sparse_boundary - al

    def sign(x):
        return 0 if abs(x) <= 1e-12 else (1 if x > 0 else -1)

    return sign(lhs) == sign(rhs)
