"""Benchmark workloads: campaign configs generated from a seed, the check
records each config must produce, and the input properties worth citing.

Everything here is derived from the generated inputs alone, independently
of the program under test, so the correctness gate in run.py can hold the
program's report against it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache

# Cartan matrices of the presets the workloads use.  Rows and columns are
# 0-based letters; column j holds alpha_j in fundamental-weight coordinates.
CARTAN = {
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
}

A2_WORD = (1, 2, 1)
A3_WORD = (1, 2, 1, 3, 2, 1)

# The theorem-scatter vectors: entries 0..3, distinct block prefixes (the
# block being positions 1-3, up to the last exchangeable one), so the prefix
# memo is shared only through the shorter prefixes it builds on the way.
# The set is fixed and the seed only orders it: drawing the set per seed
# moved a launch's work by up to 30%, depending on how much exponent weight
# landed in the block.
SCATTER_VECTORS = (
    (1, 3, 1, 2, 2, 0), (1, 0, 2, 1, 2, 3), (2, 3, 1, 0, 2, 1), (0, 3, 2, 1, 1, 2),
    (3, 1, 0, 2, 2, 1), (1, 1, 2, 2, 3, 0), (2, 0, 3, 1, 1, 2), (0, 2, 1, 3, 1, 2),
)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("theorem-box", 1,
                 "A3 theorem over the full 4^6 box after 0-1 mutations: torus "
                 "stack, prefix memo hit often; single-threaded baseline"),
        Workload("theorem-scatter", 2,
                 "A3 theorem, 188 batches of 8 scattered vectors at l=3,5: "
                 "few shared prefixes, per-batch replay and pool dispatch"),
        Workload("oracle-a2", 2,
                 "A2 minor oracle checks at l=3,5: U_q(n) and RatFunc gcd, "
                 "never the cluster torus; bypass for torus changes"),
    )
}


def exchangeable(word) -> tuple:
    """0-based positions whose letter recurs later in the word."""
    return tuple(t for t in range(len(word)) if word[t] in word[t + 1:])


def pruned_sequences(positions, depth: int) -> list:
    """Every mutation sequence up to the given length without an immediate
    repeat, shortest first."""
    out, frontier = [()], [()]
    for _ in range(depth):
        frontier = [seq + (p,) for seq in frontier for p in positions
                    if not seq or seq[-1] != p]
        out.extend(frontier)
    return out


def make_config(name: str, seed: int, *, tiny: bool = False) -> dict:
    """The campaign config of a workload; the same seed gives the same
    config.  tiny shrinks every workload to well under a second, for the
    benchmark's own tests."""
    rng = random.Random(f"{name}:{seed}")
    positions = exchangeable(A3_WORD)
    if name == "theorem-box":
        # The seed orders the box; the prefix memo ends up holding the same
        # products whatever the order, so the work does not depend on it.
        vectors = list(itertools.product(range(2 if tiny else 4), repeat=len(A3_WORD)))
        rng.shuffle(vectors)
        sequences = pruned_sequences(positions, 0 if tiny else 1)
        return {"cartan": "A3", "word": list(A3_WORD), "l_values": [3],
                "mutations": {"sequences": [[p + 1 for p in s] for s in sequences]},
                "exponents": {"vectors": [list(v) for v in vectors]},
                "checks": ["LAMBDA", "THEOREM", "SPLIT_AXIOMS", "REDUCTION"],
                "reduction_prefix": 3, "trials": 20 if tiny else 200,
                "rng_seed": seed}
    if name == "theorem-scatter":
        depth, vectors = (1, list(SCATTER_VECTORS[:2])) if tiny else (5, list(SCATTER_VECTORS))
        rng.shuffle(vectors)
        sequences = pruned_sequences(positions, depth)
        return {"cartan": "A3", "word": list(A3_WORD),
                "l_values": [3] if tiny else [3, 5],
                "mutations": {"sequences": [[p + 1 for p in s] for s in sequences]},
                "exponents": {"vectors": [list(v) for v in vectors]},
                "checks": ["LAMBDA", "THEOREM", "SPLIT_AXIOMS", "REDUCTION"],
                "reduction_prefix": 3, "trials": 20 if tiny else 50,
                "rng_seed": seed}
    if name == "oracle-a2":
        return {"cartan": "A2", "word": list(A2_WORD),
                "l_values": [3] if tiny else [3, 5],
                "checks": ["LAMBDA", "BASE_CASE", "KKKO", "SPLIT_AXIOMS", "REDUCTION"],
                "reduction_prefix": 2, "trials": 20 if tiny else 50,
                "rng_seed": seed}
    raise KeyError(name)


# -- what a config implies -------------------------------------------------

def _vectors(config) -> list:
    return [tuple(v) for v in config["exponents"]["vectors"]]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def minor_weight(cartan, word, t: int) -> tuple:
    """Root coordinates of gamma_t = w_t(omega) subtracted from omega, for
    omega the fundamental weight of letter t and w_t the word's prefix up to
    position t (0-based letters)."""
    n = len(cartan)
    lam = [int(i == word[t]) for i in range(n)]
    gamma = [0] * n
    for i in reversed(word[:t + 1]):
        c = lam[i]
        gamma[i] += c
        for j in range(n):
            lam[j] -= c * cartan[j][i]
    return tuple(gamma)


@lru_cache(maxsize=None)
def divided_word_count(gamma: tuple) -> int:
    """Products of divided generator powers e_i^(p), p >= 1, of weight gamma."""
    if not any(gamma):
        return 1
    total = 0
    for i, c in enumerate(gamma):
        for p in range(1, c + 1):
            total += divided_word_count(gamma[:i] + (c - p,) + gamma[i + 1:])
    return total


def word_count(gamma) -> int:
    """Words with gamma_i copies of letter i."""
    out = math.factorial(sum(gamma))
    for c in gamma:
        out //= math.factorial(c)
    return out


def expected_records(config: dict) -> list:
    """(name, params, checked) of every record a passing report carries, in
    report order."""
    word = [i - 1 for i in config["word"]]
    cartan = CARTAN[config["cartan"]]
    checks = config["checks"]
    ls = config["l_values"]
    primes = [l for l in ls if _is_prime(l)]
    trials = config["trials"]
    out = []
    if "LAMBDA" in checks:
        out.append(("lambda-oracle", {"word": config["word"]}, 2))
    if "THEOREM" in checks:
        n = len(_vectors(config))
        for l in ls:
            for seq in config["mutations"]["sequences"]:
                out.append(("theorem", {"l": l, "mutations": list(seq),
                                        "exponents": n}, 2 * n))
    for check, name, count in (("BASE_CASE", "minor-base-case", divided_word_count),
                               ("KKKO", "minor-power", word_count)):
        if check in checks:
            for l in ls:
                for t in range(len(word)):
                    gamma = tuple(l * c for c in minor_weight(cartan, word, t))
                    out.append((name, {"position": t + 1, "l": l}, count(gamma)))
    if "SPLIT_AXIOMS" in checks:
        for p in primes:
            out.append(("splitting-axioms", {"p": p, "trials": trials}, 1 + 2 * trials))
    if "REDUCTION" in checks:
        for p in primes:
            out.append(("splitting-reduction", {"p": p, "prefix": config["reduction_prefix"],
                                                "samples": trials}, trials))
    return out


def input_properties(config: dict) -> dict:
    """Batch count, vector count and prefix reuse of a theorem campaign.

    Prefix reuse is 1 - distinct block prefixes / lookups over the vectors a
    and l*a, the block being the positions up to the last exchangeable one:
    the share of SeedExpander prefix lookups that some earlier vector of the
    same batch already paid for.
    """
    if "THEOREM" not in config["checks"]:
        return {"batches": 0, "vectors": 0, "prefix_reuse": 0.0}
    word = [i - 1 for i in config["word"]]
    block = max(exchangeable(word)) + 1
    vectors = _vectors(config)
    lookups = distinct = 0
    for l in config["l_values"]:
        for scale in (1, l):
            keys = {tuple(scale * x for x in v[:block]) for v in vectors}
            distinct += len(keys)
            lookups += len(vectors)
    return {"batches": len(config["l_values"]) * len(config["mutations"]["sequences"]),
            "vectors": len(vectors),
            "prefix_reuse": round(1 - distinct / lookups, 6)}
