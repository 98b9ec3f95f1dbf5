"""Coproduct, modules, quantum minors, and divided-power maps."""

import itertools
import math
import random
from collections import Counter

import pytest

from qcfrob import uqn
from qcfrob.cli import Campaign, run
from qcfrob.coeff import (ExactDivisionError, IntLaurent, Point, RatFunc, qbinom, qfactorial,
                          qint, specialize)
from qcfrob.rootdatum import CartanData, RootVector, Weight, cartan_preset
from qcfrob.uqn import (
    cell_minors,
    chain_minor_weight,
    check_frobenius_on_minor,
    NotQCommutingError,
    check_minor_power,
    commutation_matrix,
    counit,
    divided_value,
    divided_word_count,
    divided_word_rank,
    divided_words_of,
    extremal_fword,
    fr_divided,
    quantum_minor,
    word_count,
    word_rank,
    word_splits,
)

import _ratfunc_uqn as oracle
import _split_uqn as per_word
from _ratfunc_uqn import (FreeElt, coproduct, divided_to_free, extremal_vector,
                          pair_vectors, tensor_mul, weight_space_rank)
from _split_uqn import (divided_words_of_weight, splits_with_right_weight, word_weight,
                        words_of_weight)

A1 = cartan_preset("A1")
A2 = cartan_preset("A2")
B2 = cartan_preset("B2")
G2 = cartan_preset("G2")

A2_LAMBDA = ((0, -1, 1), (1, 0, 0), (-1, 0, 0))

ONE = IntLaurent.one()


def vp(e):
    return RatFunc.v_power(e)


def lp(*exps):
    """The Laurent polynomial sum of v^e over the given exponents."""
    return IntLaurent(Counter(exps))


def word_elt(word):
    return FreeElt({tuple(word): RatFunc.one()})


def test_word_enumeration_counts():
    assert len(words_of_weight(A2, RootVector((2, 1)))) == 3
    assert len(words_of_weight(A2, RootVector((2, 2)))) == 6
    assert words_of_weight(A2, RootVector((0, 0))) == [()]
    assert words_of_weight(A2, RootVector((-1, 0))) == []


def test_divided_word_enumeration():
    got = divided_words_of_weight(A2, RootVector((2, 0)))
    assert sorted(got) == [((0, 1), (0, 1)), ((0, 2),)]
    assert len(list(divided_words_of_weight(A2, RootVector((2, 1))))) == 5
    assert list(divided_words_of_weight(A2, RootVector((0, 0)))) == [()]
    assert list(divided_words_of_weight(A2, RootVector((-1, 0)))) == []


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_counts_without_enumeration(name):
    datum = cartan_preset(name)
    for coords in [(0,) * datum.n, (1,) * datum.n, (3,) + (0,) * (datum.n - 1),
                   (2, 3) + (1,) * (datum.n - 2)]:
        gamma = RootVector(coords)
        assert word_count(gamma) == len(words_of_weight(datum, gamma))
        assert divided_word_count(gamma) == len(list(
            divided_words_of_weight(datum, gamma)))


def test_coproduct_of_generator_and_square():
    assert coproduct(A2, word_elt((0,))) == {((0,), ()): RatFunc.one(),
                                             ((), (0,)): RatFunc.one()}
    sq = coproduct(A2, word_elt((0, 0)))
    assert sq[((0,), (0,))] == RatFunc.one() + vp(-4)  # 1 + q^-2


def test_coproduct_is_multiplicative():
    rng = random.Random(17)
    for _ in range(20):
        w1 = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 3)))
        w2 = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 3)))
        lhs = coproduct(B2, word_elt(w1 + w2))
        rhs = tensor_mul(B2, coproduct(B2, word_elt(w1)), coproduct(B2, word_elt(w2)))
        assert lhs == rhs


def test_coproduct_coassociative():
    # splitting left factors again must agree with splitting right factors
    for word in [(0, 1), (0, 0, 1), (1, 0, 1, 0)]:
        def triple_via_left(word):
            out = {}
            for lw, rw, e1 in word_splits(B2, word):
                for l2, m2, e2 in word_splits(B2, lw):
                    k = (l2, m2, rw)
                    out[k] = out.get(k, RatFunc.zero()) + vp(e1 + e2)
            return out

        def triple_via_right(word):
            out = {}
            for lw, rw, e1 in word_splits(B2, word):
                for m2, r2, e2 in word_splits(B2, rw):
                    k = (lw, m2, r2)
                    out[k] = out.get(k, RatFunc.zero()) + vp(e1 + e2)
            return out

        assert triple_via_left(word) == triple_via_right(word)


def test_divided_coproduct_coefficient_is_v_power():
    # single-letter divided powers split with coefficient q_i^{-K(N-K)}
    for datum, i, N, K in [(A2, 0, 3, 1), (A2, 0, 6, 3), (B2, 1, 2, 1)]:
        x = divided_to_free(datum, ((i, N),))
        cop = coproduct(datum, x)
        raw = cop[((i,) * K, (i,) * (N - K))]
        c = raw * RatFunc.from_laurent(qfactorial(K, datum.sym[i])) \
                * RatFunc.from_laurent(qfactorial(N - K, datum.sym[i]))
        assert c == vp(-2 * datum.sym[i] * K * (N - K))


def test_minor_products_kill_serre_relations():
    # D_0 D_1 on the word i j ... has the weight (1 - a_ij) alpha_i + alpha_j
    # of the quantum Serre element
    #   sum_k (-1)^k [1 - a_ij choose k]_i e_i^{1 - a_ij - k} e_j e_i^k,
    # and as a matrix coefficient of an integrable module it must vanish there
    for datum, words in [(A2, [(0, 1, 0), (1, 0, 1)]),
                         (B2, [(0, 1, 0, 1), (1, 0, 1, 0)]),
                         (G2, [(0, 1, 0, 1), (1, 0, 1, 0)])]:
        for word in words:
            i, j = word[0], word[1]
            m = 1 - datum.matrix[i][j]
            d0, d1 = cell_minors(datum, word)[:2]
            product = d0 * d1
            counts = [0] * datum.n
            counts[i], counts[j] = m, 1
            assert product.gamma == RootVector(tuple(counts))
            value = IntLaurent.zero()
            for k in range(m + 1):
                c = qbinom(m, k, datum.sym[i]) * product((i,) * (m - k) + (j,) + (i,) * k)
                value = value - c if k % 2 else value + c
            assert not value, (datum, word)
            assert any(product(w)
                       for w in words_of_weight(datum, product.gamma))


def test_module_weight_space_ranks():
    hw = A2.fundamental(0)
    assert weight_space_rank(A2, hw, RootVector((0, 0))) == 1
    assert weight_space_rank(A2, hw, RootVector((1, 0))) == 1
    assert weight_space_rank(A2, hw, RootVector((1, 1))) == 1
    assert weight_space_rank(A2, hw, RootVector((0, 1))) == 0


def test_divided_power_norm_in_module():
    # (f^(n) v, f^(n) v) = qbinom(m, n) at highest weight m varpi
    for m in range(1, 5):
        hw = Weight((m,))
        for n in range(0, m + 1):
            fword = (0,) * n
            coeff = RatFunc.one()
            if n > 1:
                coeff = coeff / RatFunc.from_laurent(qfactorial(n, 1))
            v = {fword: coeff}
            got = pair_vectors(A1, hw, v, v)
            assert got == RatFunc.from_laurent(qbinom(m, n, 1))


def test_extremal_vectors():
    assert extremal_fword(A2, A2.fundamental(1), (0, 1)) == ((0, 1), ONE)
    assert extremal_fword(A2, A2.fundamental(0), (0, 1, 0)) == ((1, 0), ONE)
    assert extremal_fword(A2, Weight((2, 0)), (0, 1, 0)) == (
        (1, 1, 0, 0), qint(2, 1) * qint(2, 1))
    # the oracle's vector is the fword over the divisor
    for datum, hw, word in [(A2, Weight((2, 0)), (0, 1, 0)),
                            (B2, Weight((0, 3)), (1, 0, 1)),
                            (G2, Weight((2, 1)), (0, 1, 0))]:
        fword, divisor = extremal_fword(datum, hw, word)
        assert extremal_vector(datum, hw, word) == {
            fword: RatFunc.one() / RatFunc.from_laurent(divisor)}
    with pytest.raises(ValueError, match="dominant"):
        extremal_fword(A2, Weight((-1, 0)), (0,))


def test_minor_values_on_word_basis():
    d0, d1, d2 = cell_minors(A2, (0, 1, 0))
    assert d0((0,)) == ONE
    assert not d0((1,))
    assert d1((1, 0)) == ONE
    assert not d1((0, 1))
    assert d2((0, 1)) == ONE
    assert not d2((1, 0))
    assert d0.gamma == RootVector((1, 0))
    assert d1.gamma == RootVector((1, 1))
    assert d2.gamma == RootVector((1, 1))


def test_functional_product_values():
    d0, d1, _ = cell_minors(A2, (0, 1, 0))
    p01 = d0 * d1
    p10 = d1 * d0
    assert p01((0, 1, 0)) == ONE
    assert p01((1, 0, 0)) == lp(2, -2)
    assert not p01((0, 0, 1))
    assert p10((0, 1, 0)) == lp(-2)
    assert p10((1, 0, 0)) == lp(0, -4)
    # q-commutation: D0 D1 = q * (D1 D0)
    for w in words_of_weight(A2, p01.gamma):
        assert p01(w) == p10(w).shifted(2)


def test_counit_is_identity_for_functional_product():
    _, d1, _ = cell_minors(A2, (0, 1, 0))
    eps = counit(A2)
    for w in words_of_weight(A2, d1.gamma):
        assert (eps * d1)(w) == d1(w)
        assert (d1 * eps)(w) == d1(w)


def test_commutation_matrix_a2():
    assert commutation_matrix(A2, (0, 1, 0)) == A2_LAMBDA


def test_commutation_matrix_longer_words():
    a3 = commutation_matrix(cartan_preset("A3"), (0, 1, 0, 2, 1, 0))
    assert a3 == ((0, -1, 1, -1, 0, 1),
                  (1, 0, 0, -1, 0, 1),
                  (-1, 0, 0, -1, 0, 1),
                  (1, 1, 1, 0, 0, 0),
                  (0, 0, 0, 0, 0, 0),
                  (-1, -1, -1, 0, 0, 0))
    b2 = commutation_matrix(cartan_preset("B2"), (0, 1, 0, 1))
    assert b2 == ((0, -2, 0, 0),
                  (2, 0, 0, 0),
                  (0, 0, 0, 0),
                  (0, 0, 0, 0))
    assert commutation_matrix(G2, (0, 1, 0, 1)) == ((0, -3, -1, -3),
                                                    (3, 0, 0, -3),
                                                    (1, 0, 0, -3),
                                                    (3, 3, 3, 0))
    assert commutation_matrix(G2, (1, 0, 1, 0)) == ((0, -3, -3, -3),
                                                    (3, 0, 0, -1),
                                                    (3, 0, 0, -3),
                                                    (3, 1, 3, 0))


def test_divided_frobenius_maps():
    assert fr_divided(((0, 3), (1, 6)), 3) == ((0, 1), (1, 2))
    assert fr_divided(((0, 2),), 3) is None
    assert fr_divided(((0, 10), (1, 5)), 5) == ((0, 2), (1, 1))


def test_minor_power_identity_a2():
    out = check_minor_power(A2, (0, 1, 0), 0, 3)
    assert out.passed, out.note
    assert out.checked == 1  # only the word (0, 0, 0)
    out2 = check_minor_power(A2, (0, 1, 0), 1, 3)
    assert out2.passed, out2.note
    assert out2.checked == 20


def test_minor_power_twist_exponent_value():
    # the A2 chain start has (hw, hw - w hw) = (varpi_0, alpha_0) = 1,
    # so the l = 3 prefactor is v^{-6}
    hw = A2.fundamental(0)
    low = A2.apply_word((0,), hw)
    assert A2.pairing(hw, hw - low) * 3 * 2 == 6


def test_frobenius_on_minor_a2_all_positions():
    for t in range(3):
        out = check_frobenius_on_minor(A2, (0, 1, 0), t, 3)
        assert out.passed, (t, out.note, out.witness)
        assert out.checked == len(list(divided_words_of_weight(
            A2, 3 * cell_minors(A2, (0, 1, 0))[t].gamma)))


def test_specialization_example_inside_check():
    # worked example kept as a regression anchor: the cube of the first chain
    # minor on the fully split word is (1 + q^-1)(1 + q^-1 + q^-2) in q = v^2,
    # which dies at a primitive cube root of unity
    d0 = cell_minors(A2, (0, 1, 0))[0]
    cubed = d0 ** 3
    val = cubed((0, 0, 0))
    assert val == lp(0, -4) * lp(0, -4, -8)
    assert not specialize(val, 3, Point.EPS)
    # while dividing by [3]! first leaves the unit q^-3
    assert val.exact_div(qint(2, 1) * qint(3, 1)) == lp(-6)
    assert divided_value(cubed, ((0, 3),), {}) == lp(-6)


def test_word_rank_is_enumeration_order():
    for datum, coords in [(A2, (2, 2)), (B2, (3, 1)), (cartan_preset("A3"), (1, 2, 1))]:
        words = words_of_weight(datum, RootVector(coords))
        assert [word_rank(datum.n, w) for w in words] == list(range(1, len(words) + 1))


_DIVIDED_WEIGHTS = [(A2, (3, 2)), (A2, (4, 4)), (B2, (3, 1)),
                    (cartan_preset("A3"), (1, 2, 1)), (G2, (3, 2))]


def test_divided_word_rank_is_enumeration_order():
    for datum, coords in _DIVIDED_WEIGHTS:
        every = list(divided_words_of_weight(datum, RootVector(coords)))
        assert every == sorted(every)
        assert [divided_word_rank(datum.n, d) for d in every] == list(range(1, len(every) + 1))


def test_divided_words_of_groups_the_enumeration():
    for datum, coords in _DIVIDED_WEIGHTS:
        grouped = {}
        for d in divided_words_of_weight(datum, RootVector(coords)):
            grouped.setdefault(tuple(i for i, p in d for _ in range(p)), []).append(d)
        assert len(grouped) == word_count(RootVector(coords))
        for word, dwords in grouped.items():
            assert divided_words_of(word) == dwords


# -- the quantum shuffles against the per-word oracle ----------------------
#
# On every word of its weight: each minor, product and power that the
# sample campaigns and workloads form (A2 at l = 3 and 5, B2 at l = 3, the
# A3 and B2 commutation pairs), and those of A3 at l = 3 and G2 [1,2,1].

def _assert_same_values(datum, new, old):
    assert new.gamma == old.gamma
    words = words_of_weight(datum, new.gamma)
    assert set(new.values) <= set(words) and all(new.values.values())
    assert [new(w) for w in words] == [old(w) for w in words]


@pytest.mark.parametrize("name, word, l, positions", [
    ("A2", (0, 1, 0), 3, range(3)),
    ("A2", (0, 1, 0), 5, range(3)),
    ("B2", (0, 1, 0, 1), 3, range(4)),
    # position 5 has D^3 on 18,480 words: 14 s on the per-word oracle
    ("A3", (0, 1, 0, 2, 1, 0), 3, (0, 1, 2, 3, 5)),
], ids=["A2-l3", "A2-l5", "B2-l3", "A3-l3"])
def test_minor_powers_match_per_word_oracle(name, word, l, positions):
    # BASE_CASE and KKKO: D_t, each power up to D_t^l, and the l hw minor
    datum = cartan_preset(name)
    for t in positions:
        hw, prefix = datum.fundamental(word[t]), word[: t + 1]
        new = quantum_minor(datum, hw, prefix)
        old = per_word.quantum_minor(datum, hw, prefix)
        _assert_same_values(datum, new, old)
        pn, po = counit(datum), per_word.counit(datum)
        for _ in range(l):
            pn, po = pn * new, po * old
            _assert_same_values(datum, pn, po)
        _assert_same_values(datum, quantum_minor(datum, l * hw, prefix),
                            per_word.quantum_minor(datum, l * hw, prefix))


@pytest.mark.parametrize("name, word", [
    ("A3", (0, 1, 0, 2, 1, 0)), ("B2", (0, 1, 0, 1)), ("G2", (0, 1, 0)),
])
def test_commutation_products_match_per_word_oracle(name, word):
    datum = cartan_preset(name)
    new, old = cell_minors(datum, word), per_word.cell_minors(datum, word)
    for t, k in itertools.combinations(range(len(word)), 2):
        _assert_same_values(datum, new[k] * new[t], old[k] * old[t])
        _assert_same_values(datum, new[t] * new[k], old[t] * old[k])


def _base_case_on_every_divided_word(datum, word, t, l):
    """check_frobenius_on_minor without the supports: every divided word of
    the weight evaluated, in order."""
    minor = quantum_minor(datum, datum.fundamental(word[t]), word[: t + 1])
    power = minor ** l
    checked = 0
    for dword in divided_words_of_weight(datum, l * minor.gamma):
        checked += 1
        down = fr_divided(dword, l)
        try:
            lhs = specialize(IntLaurent.zero() if down is None
                             else divided_value(minor, down, {}), l, Point.ONE)
            rhs = specialize(divided_value(power, dword, {}), l, Point.EPS)
        except ExactDivisionError:
            return (False, checked, dword)
        if lhs != rhs:
            return (False, checked, dword)
    return (True, checked, None)


@pytest.mark.parametrize("drop", [False, True])
def test_pruned_base_case_matches_every_divided_word(monkeypatch, drop):
    # a power that lost its first support word fails some checks, and the
    # check on supports must name the same witness with the same count
    if drop:
        power = uqn.Functional.__pow__

        def dropping(self, n):
            out = power(self, n)
            del out.values[min(out.values)]
            return out

        monkeypatch.setattr(uqn.Functional, "__pow__", dropping)
    verdicts = []
    for name, word, positions in [("A2", (0, 1, 0), range(3)), ("B2", (0, 1, 0, 1), range(3))]:
        datum = cartan_preset(name)
        for t in positions:
            out = check_frobenius_on_minor(datum, word, t, 3)
            assert (out.passed, out.checked, out.witness) == (
                _base_case_on_every_divided_word(datum, word, t, 3))
            verdicts.append(out.passed)
    assert all(verdicts) != drop


def test_inexact_divided_value_matches_every_divided_word(monkeypatch):
    # [3]! off by a factor v + 2, which divides no value, when a divided
    # word is evaluated: the A2 minors build, and the walk fails at the
    # first divided word with a cube in it
    factorial = uqn.qfactorial
    monkeypatch.setattr(uqn, "qfactorial", lambda n, d=1: (
        factorial(n, d) * IntLaurent({0: 2, 1: 1}) if n == 3 else factorial(n, d)))
    verdicts = []
    for t in range(3):
        out = check_frobenius_on_minor(A2, (0, 1, 0), t, 3)
        assert (out.passed, out.checked, out.witness) == (
            _base_case_on_every_divided_word(A2, (0, 1, 0), t, 3))
        verdicts.append(out.passed)
        if not out.passed:
            assert out.checked and 3 in [p for _, p in out.witness]
            assert out.note.startswith("value not specializable")
    assert not all(verdicts)


@pytest.mark.parametrize("side", ["big", "power"])
def test_dropped_support_word_fails_kkko(monkeypatch, side):
    # the l hw minor, or D_t^l, loses its first support word: KKKO fails
    # there, with the word's rank among all words of the weight as its count
    dropped = []

    def drop_first(out):
        dropped.append(min(out.values))
        del out.values[dropped[-1]]
        return out

    if side == "big":
        minor = uqn.quantum_minor
        fundamentals = [A2.fundamental(i) for i in range(A2.n)]
        monkeypatch.setattr(uqn, "quantum_minor", lambda datum, hw, prefix, cache=None: (
            minor(datum, hw, prefix, cache) if hw in fundamentals
            else drop_first(minor(datum, hw, prefix, cache))))
    else:
        power = uqn.Functional.__pow__
        monkeypatch.setattr(uqn.Functional, "__pow__", lambda f, n: drop_first(power(f, n)))
    for t in range(3):
        out = check_minor_power(A2, (0, 1, 0), t, 3)
        assert not out.passed
        assert out.witness == dropped[-1]
        gamma = 3 * chain_minor_weight(A2, (0, 1, 0), t)
        assert out.checked == words_of_weight(A2, gamma).index(out.witness) + 1


@pytest.mark.parametrize("side", [0, 1])
def test_product_missing_a_word_fails_commutation(monkeypatch, side):
    # D_k D_t is formed before D_t D_k; one of the two loses its last
    # support word, where only the other is then nonzero
    shuffle = uqn.shuffle_product
    calls = []

    def dropping(phi, psi):
        out = shuffle(phi, psi)
        if len(calls) % 2 == side:
            del out.values[max(out.values)]
        calls.append(None)
        return out

    monkeypatch.setattr(uqn, "shuffle_product", dropping)
    with pytest.raises(NotQCommutingError, match="vanishes on one side only"):
        commutation_matrix(A2, (0, 1, 0))


def test_flipped_shuffle_twist_fails_lambda(monkeypatch):
    # root_form feeds only the shuffle's twist at run time; negating it
    # conjugates every product, and the form comes out as -Lambda
    root_form = CartanData.root_form
    monkeypatch.setattr(CartanData, "root_form", lambda self, i, j: -root_form(self, i, j))
    assert commutation_matrix(A2, (0, 1, 0)) == tuple(
        tuple(-x for x in row) for row in A2_LAMBDA)
    for doc in [{"cartan": "A2", "word": [1, 2, 1], "checks": ["LAMBDA"]},
                {"cartan": "B2", "word": [1, 2, 1, 2], "checks": ["LAMBDA"]}]:
        report = run(Campaign.from_dict(doc))
        assert [(r["name"], r["verdict"]) for r in report["checks"]] == [
            ("lambda-oracle", "FAIL")]


# -- the integral path against the RatFunc oracle --------------------------

@pytest.mark.parametrize("name, words", [
    ("A2", [(0, 0, 1, 0), (1, 0, 1, 0, 0)]),
    ("B2", [(0, 1, 1, 0, 1), (1, 0, 0, 1, 0, 1)]),
    ("G2", [(0, 0, 1, 0, 1, 0), (1, 0, 1, 1, 0)]),
])
def test_restricted_splits_match_word_splits(name, words):
    datum = cartan_preset(name)
    for word in words:
        full = word_splits(datum, word)
        for gamma in {word_weight(datum, rw) for _, rw, _ in full}:
            want = Counter(s for s in full if word_weight(datum, s[1]) == gamma)
            assert Counter(splits_with_right_weight(datum, word, gamma)) == want


def test_interleavings_count_the_per_word_splits():
    # the commutation-form charge: a shuffle of full supports of weights a
    # and b enumerates as many interleavings as the per-word model visited
    # splits over the words of weight a + b; with every value 1, each
    # interleaving adds 1 at v = 1
    def full(gamma):
        return uqn.Functional(A2, gamma, dict.fromkeys(words_of_weight(A2, gamma), ONE))

    for a, b in [((1, 0), (1, 1)), ((2, 1), (1, 2)), ((0, 3), (2, 0)), ((1, 1), (1, 1))]:
        a, b = RootVector(a), RootVector(b)
        m, k = sum(a.coords), sum(b.coords)
        charge = word_count(a) * word_count(b) * math.comb(m + k, m)
        assert charge == sum(val.at_one() for val in (full(a) * full(b)).values.values())
        assert charge == sum(len(list(splits_with_right_weight(A2, w, b)))
                             for w in words_of_weight(A2, a + b))


@pytest.mark.parametrize("name, word", [
    ("A2", (0, 1, 0)), ("B2", (0, 1, 0, 1)), ("G2", (0, 1, 0)),
    ("A3", (0, 1, 0, 2, 1, 0)),
])
def test_minor_values_match_ratfunc_oracle(name, word):
    # every chain minor, its square and each adjacent product, on every
    # word of its weight
    datum = cartan_preset(name)
    new, old = cell_minors(datum, word), oracle.cell_minors(datum, word)
    pairs = list(zip(new, old))
    pairs += [(d * d, o * o) for d, o in zip(new, old)]
    pairs += [(new[t] * new[t + 1], old[t] * old[t + 1]) for t in range(len(word) - 1)]
    pairs += [(new[t + 1] * new[t], old[t + 1] * old[t]) for t in range(len(word) - 1)]
    for f, g in pairs:
        assert f.gamma == g.gamma
        values = [f(w) for w in words_of_weight(datum, f.gamma)]
        assert values == [g(w).as_laurent() for w in words_of_weight(datum, f.gamma)]
        assert any(values)


def test_divided_values_match_ratfunc_oracle():
    # D_t^3 on the divided words of its weight, B2 position 2
    word, t = (0, 1, 0, 1), 1
    hw = B2.fundamental(word[t])
    power = quantum_minor(B2, hw, word[: t + 1]) ** 3
    old = oracle.quantum_minor(B2, hw, word[: t + 1]) ** 3
    dwords = list(divided_words_of_weight(B2, power.gamma))
    assert len(dwords) == 1944
    divisors = {}
    for dword in dwords:
        assert divided_value(power, dword, divisors) == old.evaluate(
            divided_to_free(B2, dword)).as_laurent()


def test_chain_minor_weight():
    for name, word in [("A2", (0, 1, 0)), ("B2", (0, 1, 0, 1)), ("A3", (0, 1, 0, 2, 1, 0))]:
        datum = cartan_preset(name)
        assert [chain_minor_weight(datum, word, t) for t in range(len(word))] == [
            d.gamma for d in cell_minors(datum, word)]
