"""Microseconds per call of the estimator's layers, one line each.

    PYTHONPATH=src python3 scripts/layers.py

Each line is the best of REPEATS runs over a fixed list of inputs, drawn from
SEED, divided by the calls in a run; the whole script takes a few seconds.
The numbers are printed and never checked: they are the source of the
per-call figures that ROADMAP.md quotes.  select_k's lines say whether the
level keeps nothing (every |y| under the floor eps * t_n) or keeps a
coefficient; the script stops if an input does not do what its line says.
"""

import platform
import sys
import timeit

import numpy as np

from penseq import (MultiresSequence, NoiseSpec, PenaltyConfig, fit_multiscale, select_k,
                    subset_oracle)
from penseq.simulate import _draw, _stream_words

SEED = 20261020
REPEATS = 15
CFG = PenaltyConfig()


def per_call_us(fn, args: list) -> float:
    """Best of REPEATS runs of fn over every tuple in args, in us per call."""
    def run():
        for a in args:
            fn(*a)
    run()                                         # warm the caches
    return min(timeit.repeat(run, number=1, repeat=REPEATS)) / len(args) * 1e6


def select_k_inputs(rng, n: int, keep: bool, count: int) -> list:
    """count levels of n N(0, 1/100) coefficients, with one at 50 when keep."""
    inputs = []
    for _ in range(count):
        y = 0.1 * rng.standard_normal(n)
        if keep:
            y[rng.integers(n)] = 50.0
        if (select_k(y, CFG, 1.0).k_hat > 0) != keep:
            sys.exit(f"a level of n = {n} meant to {'keep one' if keep else 'keep nothing'} "
                     "does not")
        inputs.append((y, CFG, 1.0))
    return inputs


def main() -> int:
    rng = np.random.default_rng(SEED)
    rows = []
    for n, count in ((8, 400), (1 << 17, 20)):
        for keep in (False, True):
            label = f"select_k, {'keeps one' if keep else 'keeps nothing'}, n = {n}"
            rows.append((label, per_call_us(select_k, select_k_inputs(rng, n, keep, count))))
    for n, count in ((1, 400), (4, 400), (8, 200), (12, 20)):
        inputs = [(rng.standard_normal(n), CFG, 1.0) for _ in range(count)]
        rows.append((f"subset_oracle, n = {n}", per_call_us(subset_oracle, inputs)))
    # one replicate's standard normals over levels 1..17, as the Monte Carlo loop
    # draws them: levels 1..16, then level 17, into a buffer of level 17's size
    top = 1 << 17
    words = _stream_words(SEED, np.arange(10))
    gen = np.random.Generator(np.random.PCG64(0))
    buffer = np.empty((1, top))

    def draw(rep: int) -> None:
        stream = _draw(gen, words, rep, 0, top - 2, buffer, None, buffer)[0]
        _draw(stream, words, rep, top - 2, 2 * top - 2, buffer, None, buffer)

    rows.append((f"noise draw, {2 * top - 2} normals",
                 per_call_us(draw, [(rep,) for rep in range(10)])))
    # a noise-only sequence over levels 1..17 at eps = 0.01: every level keeps nothing
    noise = NoiseSpec(epsilon=0.01)
    seqs = [(MultiresSequence(1, [0.01 * rng.standard_normal(1 << j) for j in range(1, 18)]),
             CFG, noise) for _ in range(5)]
    rows.append(("fit_multiscale, levels 1..17, keeps nothing", per_call_us(fit_multiscale, seqs)))
    print(f"# us per call, best of {REPEATS}; Python {platform.python_version()}, "
          f"numpy {np.__version__}")
    for label, us in rows:
        print(f"{us:10.1f}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
