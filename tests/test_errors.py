"""The typed-error contract of every scalar input.

Each field of the public constructors, of each from_dict and of the Monte
Carlo, single-level and penalty entry points (nu_eff, n and each size in
m_prime_many's ns included) and of the bound constant raises ValidationError
naming the field
on a value that is not a finite number (a bool, a string, None, nan, inf).
A numpy scalar, and a whole float in an integer field, gives the same
result as the plain Python value.  Each array input (y of the single-level
entry points, a level of a MultiresSequence) raises ValidationError on
anything but real numbers, and takes real numbers of any numeric type.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from penseq import (HyperParams, McResult, MonoscaleFit, MultiresSequence, NoiseSpec,
                    PenaltyConfig, SignalSpec, ValidationError, ideal_risk, m_prime,
                    m_prime_bound_constant, m_prime_many, mc_risk_for_truth, pen_vector, select_k,
                    subset_oracle)
from penseq.cli import PRESETS, ExperimentConfig
from penseq.errors import real_array

GAMMA = {"alpha": 1.0, "p": 2.0, "q": 2.0, "beta": 0.5}
PENALTY = {"zeta": 2.0, "nu": 40.0, "beta": 0.0, "xi1": 1.0, "jeps_scale": 1.0}
INTEGER = {"replicates", "seed", "jmax", "j0", "n"}


def signal(**kw):
    return SignalSpec(**{"kind": "shell_dense", "gamma": HyperParams(**GAMMA), "radius": 1.0,
                         "epsilon": 0.1, **kw})


def mc_risk(replicates=2, seed=0):
    return mc_risk_for_truth(MultiresSequence.zeros(1, 3), PenaltyConfig(beta=0.5),
                             NoiseSpec(epsilon=0.1, beta=0.5), replicates, seed)


def config(**kw):
    return ExperimentConfig.from_dict({**PRESETS["dense"], **kw})


# name -> (call taking field overrides, {field: a valid plain value}, fields None is valid for)
CALLS = {
    "HyperParams": (lambda **kw: HyperParams(**{**GAMMA, **kw}), GAMMA, ()),
    "HyperParams.from_dict": (lambda **kw: HyperParams.from_dict({**GAMMA, **kw}), GAMMA, ()),
    "PenaltyConfig": (PenaltyConfig, PENALTY, ()),
    "PenaltyConfig.from_dict": (lambda **kw: PenaltyConfig.from_dict(kw), PENALTY, ()),
    "NoiseSpec": (lambda **kw: NoiseSpec(**{"epsilon": 0.1, **kw}),
                  {"epsilon": 0.1, "beta": 0.5, "covariance": "identity", "rho": 0.0,
                   "xi0": 1.0, "xi1": 2.0}, ("xi0", "xi1")),
    "SignalSpec": (signal, {"kind": "shell_dense", "gamma": HyperParams(**GAMMA),
                            "radius": 2.0, "epsilon": 0.1, "jmax": 6, "placement": "even",
                            "xi0": 2.0, "rho1": 1.1, "rho2": 1.2}, ("jmax",)),
    "MultiresSequence": (lambda j0=1: MultiresSequence(j0, (np.zeros(2),)), {"j0": 1}, ()),
    "ExperimentConfig.from_dict": (config, {"radius": 2.0, "epsilon": 0.1, "replicates": 3,
                                            "seed": 3, "jmax": 6}, ("epsilon", "jmax")),
    "mc_risk_for_truth": (mc_risk, {"replicates": 3, "seed": 3}, ()),
    "select_k": (lambda epsilon=0.1, nu_eff=None: select_k(np.ones(4), PenaltyConfig(),
                                                           epsilon, nu_eff),
                 {"epsilon": 0.5, "nu_eff": 50.0}, ("nu_eff",)),
    "subset_oracle": (lambda nu_eff=None: subset_oracle(np.ones(4), PenaltyConfig(), 0.1,
                                                        nu_eff), {"nu_eff": 50.0}, ("nu_eff",)),
    "ideal_risk": (lambda nu_eff=None: ideal_risk(np.ones(4), PenaltyConfig(), 0.1, nu_eff),
                   {"nu_eff": 50.0}, ("nu_eff",)),
    "pen_vector": (lambda n=4, nu_eff=None: pen_vector(PenaltyConfig(), n, nu_eff),
                   {"n": 4, "nu_eff": 50.0}, ("nu_eff",)),
    "m_prime": (lambda n=4, nu_eff=None: m_prime(PenaltyConfig(), n, nu_eff),
                {"n": 4, "nu_eff": 50.0}, ("nu_eff",)),
    "m_prime_many": (lambda ns=4.0, nu_eff=None: m_prime_many(PenaltyConfig(), [ns], nu_eff),
                     {"ns": 4.0, "nu_eff": 50.0}, ("nu_eff",)),
    "m_prime_bound_constant": (lambda beta=0.5, nu=40.0: m_prime_bound_constant(beta, nu),
                               {"beta": 0.5, "nu": 40.0}, ()),
}
CASES = [(call, field) for call, (_, fields, _) in CALLS.items() for field in fields]


def contents(result):
    """What a result holds, comparable with ==."""
    if isinstance(result, MultiresSequence):
        return result.j0, [level.tolist() for level in result.levels]
    if isinstance(result, MonoscaleFit):
        return result.k_hat, result.threshold, result.estimate.tolist()
    if isinstance(result, McResult):
        return result.replicates, result.mean_sse, result.stderr_sse
    if isinstance(result, np.ndarray):
        return result.tolist()
    return result


@pytest.mark.parametrize("call, field", CASES, ids=[f"{c}-{f}" for c, f in CASES])
def test_scalar_field_typed(call, field):
    run, fields, optional = CALLS[call]
    for value in (True, "1", "x", None, math.nan, math.inf):
        if value is None and field in optional:
            continue
        with pytest.raises(ValidationError, match=field):
            run(**{field: value})
    plain = fields[field]
    if isinstance(plain, (str, HyperParams)):
        return
    expected = contents(run(**{field: plain}))
    variants = [np.float64(plain)] + ([np.int64(plain), float(plain)] if field in INTEGER
                                      else [])
    for variant in variants:
        got = run(**{field: variant})
        assert contents(got) == expected
        if field in INTEGER and hasattr(got, field):
            assert type(getattr(got, field)) is int


def test_seed_past_the_float_range_accepted():
    assert mc_risk(seed=10 ** 400).replicates == 2
    assert config(seed=10 ** 400).seed == 10 ** 400


# y -> what a single-level entry point's ValidationError says about it
ARRAYS = {
    "text": ("abc", "must hold real numbers"),
    "ragged": ([[1.0], [2.0, 3.0]], "must hold real numbers"),
    "dict": ({"a": 1}, "must hold real numbers"),
    "huge-int": ([10 ** 400, 1.0], "has a coefficient outside the float range"),
    "complex": (np.array([1 + 2j, 3.0]), "must hold real numbers"),
    "bool": (np.array([True, False]), "must hold real numbers"),
    "bool-in-list": ([1.0, True], "must hold real numbers"),
    "complex-in-list": ([1.0, 2j], "must hold real numbers"),
    "text-in-list": ([1.0, "2"], "must hold real numbers"),
    "nested": ([[1.0, 2.0], [3.0, 4.0]], r"must be a non-empty vector, got shape \(2, 2\)"),
    "mixed-shapes": ([np.zeros((2, 2)), np.zeros((2, 3))], "must hold real numbers"),
}


@pytest.mark.parametrize("call", [select_k, subset_oracle, ideal_risk])
@pytest.mark.parametrize("name", ARRAYS)
def test_array_input_typed(call, name):
    y, message = ARRAYS[name]
    with pytest.raises(ValidationError, match=f"^y {message}"):
        call(y, PenaltyConfig(), 0.1)
    # real numbers of any numeric type give the float64 result
    ints = np.array([3, 0, 1], dtype=np.int8)
    assert contents(call(ints, PenaltyConfig(), 0.1)) == contents(
        call(ints.astype(float), PenaltyConfig(), 0.1))


@pytest.mark.parametrize("name", ["text", "huge-int", "complex", "bool", "bool-in-list",
                                  "complex-in-list", "text-in-list"])
def test_sequence_level_typed(name):
    level, message = ARRAYS[name]
    with pytest.raises(ValidationError, match=f"^level 1 {message}"):
        MultiresSequence(1, (level,))
    for level in (np.array([1, 2], dtype=np.int8), np.array([1.5, 2], dtype=np.float32)):
        assert contents(MultiresSequence(1, (level,))) == (1, [level.astype(float).tolist()])


def test_list_of_numbers_gives_the_floats_of_each():
    # a flat list skips the object array: each element converts as float() does
    values = [1, 2.5, np.float32(0.1), np.int64(-3), Fraction(1, 3), 2 ** 60 + 1, -0.0]
    got = real_array(values, "y")
    assert got.dtype == np.float64 and got.shape == (7,)
    assert got.tobytes() == np.array([float(v) for v in values]).tobytes()
