"""Microseconds per call of the estimator's layers, one line each.

    PYTHONPATH=src python3 scripts/layers.py

Each line is the best of REPEATS runs over a fixed list of inputs, drawn from
SEED, divided by the calls in a run (by the replicates too on
mc_risk_for_truth's line); the whole script takes a few seconds.
The numbers are printed and never checked: they are the source of the
per-call figures that ROADMAP.md quotes.  select_k's lines say whether the
level keeps nothing (every |y| under the floor eps * t_n) or keeps a
coefficient; the script stops if an input does not do what its line says.
"""

import platform
import sys
import timeit

import numpy as np

from penseq import (MultiresSequence, NoiseSpec, PenaltyConfig, fit_multiscale,
                    mc_risk_for_truth, select_k, subset_oracle)
from penseq.estimator import _level_schedule
from penseq.simulate import _draw_level, _level_draws, _stream, _stream_words

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
    # draws a truth too large for a block: one draw per level in increasing j,
    # each into the front of a buffer of level 17's size
    top = 1 << 17
    words = _stream_words(SEED, np.arange(10))
    gen = np.random.Generator(np.random.PCG64(0))
    row = np.empty(top)

    def draw(rep: int) -> None:
        stream = _stream(gen, words, rep)
        for j in range(1, 18):
            stream.standard_normal(1 << j, out=row[:1 << j])

    rows.append((f"noise draw, {2 * top - 2} normals, level by level",
                 per_call_us(draw, [(rep,) for rep in range(10)])))
    # the same replicates' identity-noise draw of what select_k reads, for a zero
    # truth on levels 1..17 at eps = 0.01: per level K ~ Binomial(2^j, q) and K
    # values above the floor, into the buffer, set back to +0.0 after each level
    noise = NoiseSpec(epsilon=0.01)
    schedule = _level_schedule(CFG, noise, 1, 17)
    zeros = [np.zeros(1 << j) for j in range(1, 18)]
    draws = _level_draws(CFG, schedule, zeros)
    row.fill(0.0)

    def floor_draw(rep: int) -> None:
        stream = _stream(gen, words, rep)
        for (_, eps_j, _), theta_j, level_draw in zip(schedule, zeros, draws):
            y = row[:theta_j.size]
            y[_draw_level(stream, level_draw, theta_j, eps_j, y)] = 0.0

    rows.append(("identity draw, levels 1..17 of a zero truth",
                 per_call_us(floor_draw, [(rep,) for rep in range(10)])))
    # one zero level at zeta = 1.01, nu = 2.8, whose low floor (q = 0.11) puts
    # about n / 9 nulls above it, drawn by what select_k reads and in full, from
    # one stream; each call sets what it wrote back to +0.0
    low = PenaltyConfig(zeta=1.01, nu=2.8)
    stream = np.random.default_rng(SEED)

    def one_level(entry, theta_j: np.ndarray, eps_j: float) -> None:
        y = row[:theta_j.size]
        y[_draw_level(stream, entry, theta_j, eps_j, y)] = 0.0

    for j in (6, 10):
        level_schedule = _level_schedule(low, noise, j, j)
        theta_j = np.zeros(1 << j)
        (entry,) = _level_draws(low, level_schedule, [theta_j])
        if entry is None:
            sys.exit(f"the level of n = {1 << j} at zeta = 1.01 is drawn in full")
        eps_j = level_schedule[0][1]
        for label, how in (("what select_k reads", entry), ("in full", None)):
            rows.append((f"identity draw, {label}, n = {1 << j}, zeta = 1.01, nu = 2.8",
                         per_call_us(one_level, [(how, theta_j, eps_j)] * 200)))
    # a noise-only sequence over levels 1..17 at eps = 0.01: every level keeps nothing
    seqs = [(MultiresSequence(1, [0.01 * rng.standard_normal(1 << j) for j in range(1, 18)]),
             CFG, noise) for _ in range(5)]
    rows.append(("fit_multiscale, levels 1..17, keeps nothing", per_call_us(fit_multiscale, seqs)))
    # the Monte Carlo loop on a zero truth over levels 1..17 with tridiagonal
    # noise, which draws every coefficient: a deep full draw, per replicate
    tridiagonal = NoiseSpec(epsilon=0.01, covariance="tridiagonal", rho=0.25)
    replicates = 4
    mc_args = [(MultiresSequence.zeros(1, 17), PenaltyConfig(xi1=tridiagonal.xi1), tridiagonal,
                replicates, SEED)]
    rows.append(("mc_risk_for_truth per replicate, levels 1..17, tridiagonal rho = 0.25",
                 per_call_us(mc_risk_for_truth, mc_args) / replicates))
    print(f"# us per call, best of {REPEATS}; Python {platform.python_version()}, "
          f"numpy {np.__version__}")
    for label, us in rows:
        print(f"{us:10.1f}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
