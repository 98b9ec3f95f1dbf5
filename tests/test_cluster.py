"""Seeds, exchange matrices, and quantum mutation."""

import random

import pytest
import sympy

from qcfrob.coeff import IntLaurent
from qcfrob.cluster import (
    ExchangeMatrix,
    NotCompatibleError,
    QuantumSeed,
    btilde_from_word,
    check_compatible,
    cluster_monomial,
    mutate_pair,
    mutate_seed,
    seed_from_word,
)
from qcfrob.qtorus import LaurentRing, SkewForm, TorusElement
from qcfrob.rootdatum import NonReducedWordError, cartan_preset

from _classical import classical_mutate_matrix, classical_mutate_vars, torus_at_one
from _seeds import cell_form

A2 = cartan_preset("A2")
A3 = cartan_preset("A3")
B2 = cartan_preset("B2")

# commutation form of the three variables attached to the word (0, 1, 0);
# derived from the generator pairing and pinned by the compatibility check below
A2_LAMBDA = ((0, -1, 1), (1, 0, 0), (-1, 0, 0))

LR = LaurentRing()


def test_btilde_a2():
    bt = btilde_from_word(A2, (0, 1, 0))
    assert bt.cols == (0,)
    assert bt.rows == ((0,), (1,), (-1,))


def test_btilde_a3():
    bt = btilde_from_word(A3, (0, 1, 0, 2, 1, 0))
    assert bt.cols == (0, 1, 2)
    assert bt.rows == (
        (0, -1, 1),
        (1, 0, -1),
        (-1, 1, 0),
        (0, 1, 0),
        (0, -1, 1),
        (0, 0, -1),
    )


def test_btilde_b2():
    bt = btilde_from_word(B2, (0, 1, 0, 1))
    assert bt.cols == (0, 1)
    assert bt.rows == ((0, -2), (1, 0), (-1, 2), (0, -1))


def test_btilde_rejects_nonreduced():
    with pytest.raises(NonReducedWordError):
        btilde_from_word(A2, (0, 0, 1))


def test_compatibility_a2():
    bt = btilde_from_word(A2, (0, 1, 0))
    d = check_compatible(bt, SkewForm(A2_LAMBDA))
    assert d == (2,)


def test_compatibility_failure_reports_entry():
    bt = btilde_from_word(A2, (0, 1, 0))
    bad = SkewForm(((0, 1, 1), (-1, 0, 0), (-1, 0, 0)))
    with pytest.raises(NotCompatibleError):
        check_compatible(bt, bad)


def test_exchange_matrix_accessors():
    bt = btilde_from_word(A3, (0, 1, 0, 2, 1, 0))
    assert bt.column(1) == (-1, 0, 1, 1, -1, 0)
    assert bt.column(2)[4] == 1
    with pytest.raises(ValueError):
        bt.column(3)  # frozen position
    # the square block on the exchangeable rows
    assert tuple(bt.rows[p] for p in bt.cols) == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))
    # an entry int() would truncate is an error, in the matrix, its columns
    # or a raw commutation form
    for bad in (lambda: ExchangeMatrix([[0.9]], [0]), lambda: ExchangeMatrix([[0]], [0.5]),
                lambda: seed_from_word(A2, (0, 1, 0), [[x / 2 for x in row] for row in A2_LAMBDA])):
        with pytest.raises(ValueError, match="must be integers"):
            bad()


def test_mutate_pair_matches_classical_formula():
    rng = random.Random(13)
    for _ in range(50):
        r = rng.randrange(2, 5)
        cols = tuple(sorted(rng.sample(range(r), rng.randrange(1, r + 1))))
        rows = [[rng.randrange(-2, 3) for _ in cols] for _ in range(r)]
        for j, c in enumerate(cols):
            rows[c][j] = 0  # exchange columns vanish at their own position
        rows = tuple(tuple(row) for row in rows)
        lam = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                lam[i][j] = rng.randrange(-2, 3)
                lam[j][i] = -lam[i][j]
        bt = ExchangeMatrix(rows, cols)
        pos = rng.choice(cols)
        new_bt, _ = mutate_pair(bt, SkewForm(lam), pos)
        assert new_bt.rows == classical_mutate_matrix(rows, cols, pos)


# commutation_matrix of G2 on (0, 1, 0, 1), pinned because it takes seconds
# to compute; seed_from_word checks that it is compatible with diagonal 2 t_i
G2_LAMBDA = ((0, -3, -1, -3), (3, 0, 0, -3), (1, 0, 0, -3), (3, 3, 3, 0))


def dense_mutate_pair(btilde, lam, pos):
    """Mutation by the dense products B~' = E B~ F and L' = E^T L E."""
    r = btilde.nrows
    cols = btilde.cols
    kc = btilde.slot(pos)
    bcol = btilde.column(pos)
    brow = btilde.rows[pos]
    E = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for i in range(r):
        E[i][pos] = -1 if i == pos else max(0, -bcol[i])
    F = [[1 if i == j else 0 for j in range(len(cols))] for i in range(len(cols))]
    for j in range(len(cols)):
        F[kc][j] = -1 if j == kc else max(0, brow[j])
    eb = [[sum(E[i][t] * btilde.rows[t][j] for t in range(r))
           for j in range(len(cols))] for i in range(r)]
    new_rows = [[sum(eb[i][t] * F[t][j] for t in range(len(cols)))
                 for j in range(len(cols))] for i in range(r)]
    le = [[sum(lam.mat[i][t] * E[t][j] for t in range(r)) for j in range(r)]
          for i in range(r)]
    new_lam = [[sum(E[t][i] * le[t][j] for t in range(r)) for j in range(r)]
               for i in range(r)]
    return ExchangeMatrix(new_rows, cols), SkewForm(new_lam)


@pytest.mark.parametrize("preset, word", [
    ("A2", (0, 1, 0)), ("A3", (0, 1, 0, 2, 1, 0)), ("A3", (1, 0, 2, 1)),
    ("B2", (0, 1, 0, 1)), ("B2", (1, 0, 1, 0)), ("G2", (0, 1, 0, 1)),
])
def test_mutate_pair_matches_dense_products(preset, word):
    # 30 random walks of 8 mutations from the word's seed
    lam = SkewForm(G2_LAMBDA) if preset == "G2" else cell_form(preset, word)
    seed = seed_from_word(cartan_preset(preset), word, lam)
    rng = random.Random(f"{preset}:{word}")
    for _ in range(30):
        bt, form = seed.btilde, seed.lam
        for _ in range(8):
            pos = rng.choice(bt.cols)
            got = mutate_pair(bt, form, pos)
            assert got == dense_mutate_pair(bt, form, pos), (bt, form, pos)
            bt, form = got


def test_mutate_pair_involutive_on_compatible_square():
    bt = ExchangeMatrix(((0, 1), (-1, 0)), (0, 1))
    lam = SkewForm(((0, 1), (-1, 0)))
    assert check_compatible(bt, lam) == (1, 1)
    for pos in (0, 1):
        b1, l1 = mutate_pair(bt, lam, pos)
        check_compatible(b1, l1)
        b2, l2 = mutate_pair(b1, l1, pos)
        assert b2 == bt and l2 == lam


def test_seed_from_word_validates_lambda():
    seed = seed_from_word(A2, (0, 1, 0), A2_LAMBDA)
    assert seed.d == (2,)
    with pytest.raises(NotCompatibleError):
        seed_from_word(A2, (0, 1, 0), ((0, 1), (-1, 0)))
    negated = tuple(tuple(-x for x in row) for row in A2_LAMBDA)
    with pytest.raises(NotCompatibleError):
        seed_from_word(A2, (0, 1, 0), negated)
    doubled = tuple(tuple(2 * x for x in row) for row in A2_LAMBDA)
    with pytest.raises(NotCompatibleError):
        seed_from_word(A2, (0, 1, 0), doubled)


def test_mutation_a2_explicit_expansion():
    seed = seed_from_word(A2, (0, 1, 0), A2_LAMBDA)
    s1 = mutate_seed(seed, 0)
    x0p = s1.variables[0]
    one = IntLaurent.one()
    assert x0p.terms == {(-1, 1, 0): one, (-1, 0, 1): one}
    # frozen variables untouched
    assert s1.variables[1] == seed.variables[1]
    assert s1.variables[2] == seed.variables[2]


def test_mutation_involutive_on_seed():
    seed = seed_from_word(A2, (0, 1, 0), A2_LAMBDA)
    back = mutate_seed(mutate_seed(seed, 0), 0)
    assert back == seed


def test_seed_hash_agrees_with_eq():
    # two mutation sequences that reach one seed on A3 (1-based (1,2) and
    # (1,3,2,3)), and two that do not ((1,2) and (2,1))
    word = (0, 1, 0, 2, 1, 0)
    seed = seed_from_word(A3, word, cell_form("A3", word))

    def walk(seq):
        out = seed
        for pos in seq:
            out = mutate_seed(out, pos)
        return out

    a, b, c = walk((0, 1)), walk((0, 2, 1, 2)), walk((1, 0))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != c and len({a, c}) == 2


def test_mutation_preserves_diagonal():
    seed = seed_from_word(A2, (0, 1, 0), A2_LAMBDA)
    assert mutate_seed(seed, 0).d == seed.d


def test_mutated_variables_q_commute_by_mutated_form():
    # y_i y_j = v^{2 lambda_ij} y_j y_i in every seed up to depth 2
    seed = seed_from_word(A2, (0, 1, 0), A2_LAMBDA)
    for s in (seed, mutate_seed(seed, 0), mutate_seed(mutate_seed(seed, 0), 0)):
        ys = s.variables
        for i in range(len(ys)):
            for j in range(i + 1, len(ys)):
                twist = IntLaurent({2 * s.lam.mat[i][j]: 1})
                assert ys[i] * ys[j] == (ys[j] * ys[i]).scale(twist), (i, j)


def test_cluster_monomial_square_after_mutation():
    seed = seed_from_word(A2, (0, 1, 0), A2_LAMBDA)
    s1 = mutate_seed(seed, 0)
    sq = cluster_monomial(s1, (2, 0, 0))
    assert sq == s1.variables[0] * s1.variables[0]
    assert len(sq.terms) == 3
    assert sq.coeff((-2, 1, 1)) == IntLaurent({2: 1, -2: 1})


def test_cluster_monomial_on_initial_seed_is_basis_monomial():
    seed = seed_from_word(A2, (0, 1, 0), A2_LAMBDA)
    for a in [(1, 0, 0), (2, 1, 0), (1, 1, 2), (0, 3, 2)]:
        assert cluster_monomial(seed, a) == TorusElement.monomial(LR, seed.lam, a)


def test_rank_two_pattern_is_periodic():
    # the square rank-2 pattern has a pentagon exchange graph; ten alternating
    # mutations return the seed exactly, and every division along the way is exact
    bt = ExchangeMatrix(((0, 1), (-1, 0)), (0, 1))
    lam = SkewForm(((0, 1), (-1, 0)))
    gens = [TorusElement.monomial(LR, lam, (1, 0)),
            TorusElement.monomial(LR, lam, (0, 1))]
    seed = QuantumSeed(None, bt, lam, gens)
    cur = seed
    seen = []
    for step in range(10):
        cur = mutate_seed(cur, step % 2)
        seen.append(cur)
    assert cur == seed
    assert all(s != seed for s in seen[:9])


def test_quantum_mutation_classicalizes():
    # setting v = 1 must reproduce ordinary cluster mutation
    y = sympy.symbols("y0:3")
    seed = seed_from_word(A2, (0, 1, 0), A2_LAMBDA)
    rows = [list(r) for r in seed.btilde.rows]
    exprs = list(y)
    s1 = mutate_seed(seed, 0)
    exprs = classical_mutate_vars(rows, list(seed.btilde.cols), exprs, 0)
    for t in range(3):
        assert sympy.simplify(torus_at_one(s1.variables[t], y)
                              - sympy.cancel(exprs[t]).expand()) == 0

    bt = ExchangeMatrix(((0, 1), (-1, 0)), (0, 1))
    lam = SkewForm(((0, 1), (-1, 0)))
    gens = [TorusElement.monomial(LR, lam, (1, 0)),
            TorusElement.monomial(LR, lam, (0, 1))]
    qseed = QuantumSeed(None, bt, lam, gens)
    z = sympy.symbols("z0:2")
    rows2 = [list(r) for r in bt.rows]
    exprs2 = list(z)
    for pos in (0, 1, 0):
        qseed = mutate_seed(qseed, pos)
        exprs2 = classical_mutate_vars(rows2, [0, 1], exprs2, pos)
        rows2 = [list(r) for r in classical_mutate_matrix(rows2, [0, 1], pos)]
        for t in range(2):
            got = torus_at_one(qseed.variables[t], z)
            want = sympy.expand(sympy.cancel(exprs2[t]))
            assert sympy.simplify(got - want) == 0
