"""Cartan data, reflections, and word combinatorics."""

from fractions import Fraction

import pytest

from qcfrob.cluster import btilde_from_word, seed_from_word
from qcfrob.rootdatum import (
    CartanData,
    RootVector,
    Weight,
    beta_sequence,
    cartan_preset,
    frozen_split,
    is_reduced,
)
from qcfrob.uqn import (cell_minors, chain_minor_weight, check_frobenius_on_minor,
                        check_minor_power, commutation_matrix, extremal_fword, quantum_minor)

from _seeds import A2_WORD, cell_form

A2 = cartan_preset("A2")
A3 = cartan_preset("A3")
B2 = cartan_preset("B2")
G2 = cartan_preset("G2")


def test_coords_compare_by_type_and_stay_fixed():
    w, r = Weight((1, 0)), RootVector((1, 0))
    assert w == Weight((1, 0)) and w != r and w != (1, 0)
    assert hash(w) == hash(Weight((1, 0))) == hash(((1, 0),))
    assert len({w, Weight((1, 0)), r}) == 2
    assert (w + Weight((0, 2)), 2 * r, r - r) == (Weight((1, 2)), RootVector((2, 0)),
                                                  RootVector((0, 0)))
    assert repr(r) == "RootVector(coords=(1, 0))"
    with pytest.raises(AttributeError):
        w.coords = (0, 0)


def test_preset_validation_catches_bad_input():
    with pytest.raises(ValueError):
        cartan_preset("F4")
    with pytest.raises(ValueError):
        CartanData([[2, -1], [-1, 3]], [1, 1])
    with pytest.raises(ValueError):
        CartanData([[2, 1], [-1, 2]], [1, 1])
    with pytest.raises(ValueError):
        CartanData([[2, 0], [-1, 2]], [1, 1])
    with pytest.raises(ValueError):
        CartanData([[2, -2], [-1, 2]], [1, 1])  # not symmetrized
    with pytest.raises(ValueError):
        CartanData([[2, -2], [-1, 2]], [2, 4])  # gcd 2
    with pytest.raises(ValueError):
        CartanData([[2, -1], [-1, 2]], [1, -1])
    # an entry int() would truncate is an error, not the entry truncated
    for matrix, sym in [([[2, -1], [-1, 2]], [1, 1.7]), ([[2, -1.5], [-1, 2]], [1, 1])]:
        with pytest.raises(ValueError, match="must be integers"):
            CartanData(matrix, sym)


def test_beta_sequence_a2():
    assert beta_sequence(A2, (0, 1, 0)) == [
        RootVector((1, 0)),
        RootVector((1, 1)),
        RootVector((0, 1)),
    ]


def test_beta_sequence_b2():
    assert beta_sequence(B2, (0, 1, 0, 1)) == [
        RootVector((1, 0)),
        RootVector((2, 1)),
        RootVector((1, 1)),
        RootVector((0, 1)),
    ]


def test_is_reduced():
    assert is_reduced(A2, (0, 1, 0))
    assert is_reduced(A2, (1, 0, 1))
    assert not is_reduced(A2, (0, 1, 0, 1))
    assert not is_reduced(A2, (0, 0))
    assert is_reduced(B2, (0, 1, 0, 1))
    assert not is_reduced(B2, (0, 1, 0, 1, 0))
    assert is_reduced(G2, (0, 1, 0, 1, 0, 1))
    assert not is_reduced(G2, (0, 1, 0, 1, 0, 1, 0))
    assert is_reduced(A3, (0, 1, 0, 2, 1, 0))


def test_frozen_split():
    assert frozen_split(A2, (0, 1, 0)) == ((0,), (1, 2))
    assert frozen_split(A3, (0, 1, 0, 2, 1, 0)) == ((0, 1, 2), (3, 4, 5))
    assert frozen_split(B2, (0, 1, 0, 1)) == ((0, 1), (2, 3))
    assert frozen_split(A2, (0,)) == ((), (0,))


def test_pairing_values():
    w0, w1 = A2.fundamental(0), A2.fundamental(1)
    assert A2.pairing(w0, w0) == Fraction(2, 3)
    assert A2.pairing(w0, w1) == Fraction(1, 3)
    b0, b1 = B2.fundamental(0), B2.fundamental(1)
    assert B2.pairing(b0, b0) == 1
    assert B2.pairing(b1, b1) == 2
    assert B2.pairing(b0, b1) == 1


def test_pairing_agrees_with_root_form():
    for datum in (A2, A3, B2, G2):
        for i in range(datum.n):
            for j in range(datum.n):
                got = datum.pairing(datum.alpha(i), datum.alpha(j))
                assert got == datum.root_form(i, j)
                assert got == datum.pairing(datum.alpha(j), datum.alpha(i))


def test_pairing_normalization():
    # (varpi_i, alpha_j) = delta_ij t_j
    for datum in (A2, B2, G2):
        for i in range(datum.n):
            for j in range(datum.n):
                got = datum.pairing(datum.fundamental(i), datum.alpha(j))
                assert got == (datum.sym[j] if i == j else 0)


def test_reflections_are_involutions():
    for datum in (A2, B2, G2):
        for i in range(datum.n):
            lam = Weight(tuple(range(1, datum.n + 1)))
            assert datum.reflect(i, datum.reflect(i, lam)) == lam
            rv = RootVector(tuple(range(1, datum.n + 1)))
            assert datum.reflect_root(i, datum.reflect_root(i, rv)) == rv


def _root_to_weight(datum, rv: RootVector) -> Weight:
    """The weight sum_i c_i alpha_i of simple-root coordinates c."""
    return Weight(tuple(sum(datum.matrix[j][i] * rv.coords[i] for i in range(datum.n))
                        for j in range(datum.n)))


def test_reflect_and_reflect_root_agree():
    for datum in (A2, B2, G2):
        for i in range(datum.n):
            for rv in (RootVector((1, 0)), RootVector((0, 1)), RootVector((2, 3))):
                as_weight = _root_to_weight(datum, rv)
                lhs = datum.reflect(i, as_weight)
                rhs = _root_to_weight(datum, datum.reflect_root(i, rv))
                assert lhs == rhs


def test_weight_root_round_trip():
    for datum in (A2, A3, B2):
        rv = RootVector(tuple(1 + k for k in range(datum.n)))
        assert datum.weight_to_root(_root_to_weight(datum, rv)) == rv
    with pytest.raises(ValueError):
        A2.weight_to_root(A2.fundamental(0))


def test_apply_word_composition_order():
    # rightmost letter acts first: word (0,1) sends mu to s_0(s_1(mu))
    mu = A2.fundamental(1)
    assert A2.apply_word((0, 1), mu) == A2.reflect(0, A2.reflect(1, mu))
    assert A2.apply_word((), mu) == mu


def test_word_letter_validation():
    with pytest.raises(ValueError):
        beta_sequence(A2, (0, 2))
    with pytest.raises(ValueError):
        frozen_split(A2, (-1,))
    with pytest.raises(ValueError, match="must be integers"):
        beta_sequence(A2, (0, 1.5))


# Every public function that takes a word, each reading the A2 word
# (0, 1, 0) into something comparable.
WORD_READERS = {
    "seed_from_word": lambda w: seed_from_word(A2, w, cell_form("A2", A2_WORD)),
    "btilde_from_word": lambda w: btilde_from_word(A2, w),
    "apply_word": lambda w: A2.apply_word(w, A2.fundamental(0)),
    "extremal_fword": lambda w: extremal_fword(A2, A2.fundamental(0), w),
    "quantum_minor": lambda w: quantum_minor(A2, A2.fundamental(0), w).values,
    "cell_minors": lambda w: [minor.values for minor in cell_minors(A2, w)],
    "chain_minor_weight": lambda w: chain_minor_weight(A2, w, 1),
    "commutation_matrix": lambda w: commutation_matrix(A2, w),
    "check_frobenius_on_minor": lambda w: check_frobenius_on_minor(A2, w, 1, 3),
    "check_minor_power": lambda w: check_minor_power(A2, w, 1, 3),
}


@pytest.mark.parametrize("name", sorted(WORD_READERS))
def test_words_are_read_as_letters(name):
    # an integral float letter is that letter; a non-integral, negative or
    # out-of-range one raises ValueError, not TypeError or IndexError, and a
    # negative one does not index from the end
    read = WORD_READERS[name]
    assert read((0, 1.0, 0)) == read((0, 1, 0))
    with pytest.raises(ValueError, match="entries must be integers"):
        read((0, 1.5, 0))
    for letter in (2, -1):
        with pytest.raises(ValueError, match=f"letter {letter} outside"):
            read((0, letter, 0))
