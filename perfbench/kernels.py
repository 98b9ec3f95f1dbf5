"""Layer kernels: fixed inputs timed one layer at a time, in a child process
that has src/ on its path.

Inputs come from a fixed generator, except the word_splits words, which
the workload seed draws; every word_splits call sees a word it has not seen
before, so its cache never answers.  commutation_matrix fills the uqn
caches, so it is timed alone in fresh interpreters (see child.py).
"""

from __future__ import annotations

import itertools
import random
import statistics
import time

from qcfrob import (CycloInt, CycloRing, IntLaurent, Point, RatFunc,
                    SeedExpander, cartan_preset, cluster_monomial,
                    commutation_matrix, mutate_seed, qfactorial, quantum_minor,
                    seed_from_word, spec_torus)
from qcfrob.coeff import specialize
from qcfrob.qtorus import exact_right_divide
from qcfrob.uqn import word_splits

A3_WORD = (0, 1, 0, 2, 1, 0)
B2_WORD = (0, 1, 0, 1)


def per_call(fn, *, rounds: int = 5, min_round_s: float = 0.04) -> float:
    """Median seconds per call over rounds, each round long enough to
    swamp the clock's resolution."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        dt = time.perf_counter() - t0
        if dt >= min_round_s:
            break
        reps *= 2
    samples = [dt / reps]
    for _ in range(rounds - 1):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples)


def _laurent(rng, lo: int, hi: int) -> IntLaurent:
    return IntLaurent({e: rng.randint(-9, 9) for e in range(lo, hi + 1)})


def run_kernels(seed: int) -> dict:
    out = {}

    # uqn first, while its caches hold nothing for B2.
    b2 = cartan_preset("B2")
    gamma = quantum_minor(b2, b2.fundamental(B2_WORD[3]), B2_WORD).gamma.coords
    letters = [i for i, c in enumerate(gamma) for _ in range(3 * c)]
    rng = random.Random(f"word_splits:{seed}")
    words = set()
    while len(words) < 15:
        rng.shuffle(letters)
        words.add(tuple(letters))
    samples = []
    for w in sorted(words):
        t0 = time.perf_counter()
        word_splits(b2, w)
        samples.append(time.perf_counter() - t0)
    out["uqn.word_splits_us"] = statistics.median(samples) * 1e6

    rng = random.Random(20230519)
    for l in (3, 5):
        a = CycloInt(l, [rng.randint(-9, 9) for _ in range(l - 1)])
        b = CycloInt(l, [rng.randint(-9, 9) for _ in range(l - 1)])
        out[f"coeff.cyclo_mul_us.l{l}"] = per_call(lambda: a * b) * 1e6
    f, g = _laurent(rng, -6, 6), _laurent(rng, -4, 8)
    out["coeff.laurent_mul_us"] = per_call(lambda: f * g) * 1e6
    # Denominators [3]! and [4]! share the factor [3]!, so the sum reduces.
    p = RatFunc(_laurent(rng, 0, 3), qfactorial(3))
    q = RatFunc(_laurent(rng, 0, 3), qfactorial(4))
    out["coeff.ratfunc_add_gcd_us"] = per_call(lambda: p + q) * 1e6
    h = _laurent(rng, -20, 20)
    out["coeff.specialize_eps_us"] = per_call(lambda: specialize(h, 5, Point.EPS)) * 1e6

    a3 = cartan_preset("A3")
    seed0 = seed_from_word(a3, A3_WORD, commutation_matrix(a3, A3_WORD))
    seed1 = mutate_seed(seed0, 0)
    seed12 = mutate_seed(seed1, 1)
    left = cluster_monomial(seed12, (2, 1, 1, 0, 0, 0))
    right = cluster_monomial(seed12, (1, 2, 1, 0, 0, 0))
    pairs = {"laurent": (left, right)}
    for point in (Point.ONE, Point.EPS):
        pairs[point.value] = (spec_torus(left, 3, point), spec_torus(right, 3, point))
    for kind, (x, y) in pairs.items():
        out[f"qtorus.mul_us.{kind}"] = per_call(lambda: x * y) * 1e6
    product = left * right
    out["qtorus.right_divide_us"] = per_call(lambda: exact_right_divide(product, right)) * 1e6
    out["cluster.mutate_seed_ms"] = per_call(lambda: mutate_seed(seed12, 2)) * 1e3

    box = list(itertools.product(range(4), repeat=len(A3_WORD)))

    def expand_box():
        expander = SeedExpander(seed1, CycloRing(3, Point.ONE))
        for vec in box:
            expander.monomial(vec)

    out["frobsplit.expander_box_ms"] = per_call(expand_box, rounds=3) * 1e3
    return out


def time_commutation_a3() -> float:
    """Seconds for one commutation_matrix call on A3, on cold caches when
    the interpreter is fresh."""
    a3 = cartan_preset("A3")
    t0 = time.perf_counter()
    commutation_matrix(a3, A3_WORD)
    return time.perf_counter() - t0
