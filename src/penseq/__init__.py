"""Adaptive complexity-penalized estimation in multiresolution Gaussian
sequence models with level-dependent noise inflation, together with the
closed-form risk theory (control functions, shell risks, rate zones) and a
Monte Carlo verification harness."""

from .errors import NumericalError, PenseqError, ValidationError
from .model import (HyperParams, MultiresSequence, NoiseSpec, Zone, besov_norm,
                    classify_zone, shell_radius)
from .penalty import (PenaltyConfig, m_prime, m_prime_bound_constant, m_prime_many,
                      nu_schedule, pen_vector)
from .estimator import (MonoscaleFit, MultiscaleFit, fit_multiscale, ideal_risk,
                        oracle_constant, per_level_sse, select_k, subset_oracle)
from .rates import (RateReport, ShellRiskProfile, control_function, j_plus,
                    j_star, rate_control, rate_exponent, shell_profile, shell_risk,
                    shell_risk_closed_form, t1_complexity_sum)
from .simulate import (McResult, SignalSpec, fit_rate_exponent, make_signal,
                       mc_risk_for_truth, oracle_inequality_check)

__version__ = "0.1.0"
