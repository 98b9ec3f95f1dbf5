"""Acceptance gate: the headline identities at desk scale, all exact.

Each criterion is one test that prints a single PASS or FAIL line; run
with -s (or read the -v test list) to see them.  No tolerances anywhere:
every comparison is exact equality in the relevant ring.
"""

import functools
import itertools
import random

import sympy

from qcfrob.cli import enumerate_mutation_sequences
from qcfrob.cluster import btilde_from_word, check_compatible, mutate_seed
from qcfrob.coeff import Point, qbinom, specialize
from qcfrob.frobsplit import (SeedExpander, TheoremSession, check_modp_division,
                              check_split_axioms, fr_star, frp_star,
                              random_torus_element, reduction_commutes)
from qcfrob.qtorus import CycloRing, PrimeField, SkewForm
from qcfrob.rootdatum import cartan_preset, frozen_split
from qcfrob.uqn import check_frobenius_on_minor, check_minor_power, commutation_matrix

from _classical import classical_mutate_matrix, classical_mutate_vars, torus_at_one
from _seeds import A2_WORD, A3_WORD, B2_WORD, cell_form, cell_seed

# the three theorem workloads: preset, word, mutation depth, exponent box top
GRIDS = {
    "A2": ("A2", A2_WORD, 4, None),   # box top = l for each order
    "A3": ("A3", A3_WORD, 2, 3),
    "B2": ("B2", B2_WORD, 3, 3),
}


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL", flush=True)
                raise
            print(f"{label}: PASS", flush=True)
        return wrapper
    return deco


def exchangeable(preset, word):
    return frozen_split(cartan_preset(preset), word)[0]


def pruned_sequences(preset, word, depth):
    return enumerate_mutation_sequences(exchangeable(preset, word), depth)


def run_theorem_box(preset, word, depth, top, l):
    total = 0
    for seq in pruned_sequences(preset, word, depth):
        session = TheoremSession(cell_seed(preset, word, seq), l)
        for a in itertools.product(range(top + 1), repeat=len(word)):
            out = session.check(a)
            assert out.passed, (seq, a, out.witness)
            total += out.checked
    return total


@criterion("criterion 1, main identity on the A2 cell, orders 3 and 5")
def test_criterion_01_theorem_a2():
    assert pruned_sequences("A2", A2_WORD, 4) == [(), (0,)]
    for l in (3, 5):
        checked = run_theorem_box("A2", A2_WORD, 4, l, l)
        assert checked == 2 * 2 * (l + 1) ** 3


@criterion("criterion 2, main identity on the A3 cell, order 3")
def test_criterion_02_theorem_a3():
    assert len(pruned_sequences("A3", A3_WORD, 2)) == 10
    checked = run_theorem_box("A3", A3_WORD, 2, 3, 3)
    assert checked == 2 * 10 * 4 ** 6


@criterion("criterion 3, main identity on the B2 cell, order 3")
def test_criterion_03_theorem_b2():
    assert len(pruned_sequences("B2", B2_WORD, 3)) == 7
    checked = run_theorem_box("B2", B2_WORD, 3, 3, 3)
    assert checked == 2 * 7 * 4 ** 4


@criterion("criterion 4, base case on every minor of the A2 cell, order 3")
def test_criterion_04_minor_base_case():
    datum = cartan_preset("A2")
    for t in range(3):
        out = check_frobenius_on_minor(datum, A2_WORD, t, 3)
        assert out.passed and out.checked > 0, (t, out.witness)


@criterion("criterion 5, minor power identity on the A2 cell, order 3")
def test_criterion_05_minor_power():
    datum = cartan_preset("A2")
    for t in range(3):
        out = check_minor_power(datum, A2_WORD, t, 3)
        assert out.passed and out.checked > 0, (t, out.witness)


@criterion("criterion 6, commutation oracle feeds compatible pairs")
def test_criterion_06_oracle_compatibility():
    a2 = commutation_matrix(cartan_preset("A2"), A2_WORD)
    d = check_compatible(btilde_from_word(cartan_preset("A2"), A2_WORD), SkewForm(a2))
    assert d == (2,)
    assert a2[1][2] == 0
    assert a2[0][2] - a2[0][1] == 2
    for preset, word, want in (("A3", A3_WORD, (2, 2, 2)), ("B2", B2_WORD, (2, 4))):
        datum = cartan_preset(preset)
        d = check_compatible(btilde_from_word(datum, word), cell_form(preset, word))
        sym_at = tuple(2 * datum.sym[word[k]]
                       for k in btilde_from_word(datum, word).cols)
        assert d == want == sym_at


@criterion("criterion 7, Gauss binomials vanish at the root of unity")
def test_criterion_07_gauss_vanishing():
    for l in (3, 5, 7):
        for d in (1, 2):
            for t in range(1, l):
                value = specialize(qbinom(l, t, d), l, Point.EPS)
                assert not value, (l, t, d)


@criterion("criterion 8, exponent map identities, 1000 trials per property")
def test_criterion_08_torus_map_properties():
    cases = [(cell_form("A2", A2_WORD), 3), (cell_form("A3", A3_WORD), 5)]
    for form, l in cases:
        rng = random.Random(f"torus-properties:{l}")
        one_ring = CycloRing(l, Point.ONE)
        eps_ring = CycloRing(l, Point.EPS)
        for _ in range(500):
            f = random_torus_element(rng, one_ring, form)
            g = random_torus_element(rng, one_ring, form)
            assert fr_star(f * g) == fr_star(f) * fr_star(g)
            assert frp_star(fr_star(f)) == f
            u = random_torus_element(rng, eps_ring, form)
            w = random_torus_element(rng, eps_ring, form)
            assert frp_star(fr_star(f) * u) == f * frp_star(u)
            assert frp_star(u * w) == frp_star(w * u)


@criterion("criterion 9, mod-p splitting: axioms, degree division, reduction")
def test_criterion_09_modp_splitting():
    for p in (3, 5):
        rng = random.Random(f"split-axioms:{p}")
        out = check_split_axioms(len(A3_WORD), PrimeField(p), rng, trials=1000)
        assert out.passed, out.witness

    # degree division over every cluster monomial the theorem grids visit
    jobs = [("A2", A2_WORD, 4, 3, 3), ("A2", A2_WORD, 4, 5, 5),
            ("A3", A3_WORD, 2, 3, 3), ("B2", B2_WORD, 3, 3, 3)]
    for preset, word, depth, top, p in jobs:
        for seq in pruned_sequences(preset, word, depth):
            expander = SeedExpander(cell_seed(preset, word, seq), PrimeField(p))
            for a in itertools.product(range(top + 1), repeat=len(word)):
                out = check_modp_division(expander, a)
                assert out.passed, (preset, seq, a, out.witness)

    rng = random.Random("reduction")
    out = reduction_commutes(cartan_preset("A3"), A3_WORD, 3, PrimeField(3), rng, 200)
    assert out.passed and out.checked == 200


@criterion("criterion 10, mutation mechanics against the commutative oracle")
def test_criterion_10_mutation_mechanics():
    rng = random.Random("mutation-walks")
    cells = [(preset, word) for preset, word, _, _ in GRIDS.values()]
    for walk in range(500):
        preset, word = cells[walk % len(cells)]
        positions = exchangeable(preset, word)
        seed = cell_seed(preset, word)
        for _ in range(rng.randint(1, 6)):
            k = rng.choice(positions)
            stepped = mutate_seed(seed, k)
            assert mutate_seed(stepped, k) == seed
            assert stepped.d == seed.d
            seed = stepped

    # every seed the theorem grids visit classicalizes to the fraction-field
    # mutation of commuting variables
    for preset, word, depth, _ in GRIDS.values():
        datum = cartan_preset(preset)
        xs = list(sympy.symbols(f"x0:{len(word)}"))
        for seq in pruned_sequences(preset, word, depth):
            seed = cell_seed(preset, word, seq)
            bt = btilde_from_word(datum, word)
            rows = [list(r) for r in bt.rows]
            exprs = list(xs)
            for pos in seq:
                exprs = classical_mutate_vars(rows, bt.cols, exprs, pos)
                rows = classical_mutate_matrix(rows, bt.cols, pos)
            for t, y in enumerate(seed.variables):
                diff = torus_at_one(y, xs) - exprs[t]
                assert sympy.simplify(diff) == 0, (preset, seq, t)
