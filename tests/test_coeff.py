"""Exact coefficient arithmetic: Laurent polynomials, quantum integers,
cyclotomic specialization, rational functions."""

import random

import pytest
import sympy

from qcfrob.coeff import (
    CycloInt,
    ExactDivisionError,
    IntLaurent,
    Point,
    RatFunc,
    cyclotomic_coeffs,
    qbinom,
    qfactorial,
    qint,
    specialize,
)

from _seeds import eps_power


def L(d):
    return IntLaurent(d)


def rand_laurent(rng, span=6, coeff=9):
    terms = {}
    for _ in range(rng.randrange(0, 5)):
        terms[rng.randrange(-span, span + 1)] = rng.randrange(-coeff, coeff + 1)
    return IntLaurent(terms)


# -- IntLaurent basics -----------------------------------------------------

def test_laurent_constructor_drops_zeros():
    f = L({3: 0, 1: 2, -1: 0})
    assert f.terms == {1: 2}
    assert not IntLaurent.zero()
    assert IntLaurent.one().is_one


def test_laurent_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (rand_laurent(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a - b) + b == a


def test_exact_div_roundtrip_random():
    rng = random.Random(23)
    done = 0
    while done < 150:
        a, b = rand_laurent(rng), rand_laurent(rng)
        if not b:
            continue
        assert (a * b).exact_div(b) == a
        done += 1


def test_exact_div_failures():
    # reports carry these messages as "engine error: coefficient not divisible: ..."
    with pytest.raises(ExactDivisionError, match="^degree of divisor exceeds dividend$"):
        IntLaurent.one().exact_div(L({1: 1, 0: 1}))
    # coefficient 2 is not divisible by 3 over the integers
    with pytest.raises(ExactDivisionError, match="^leading coefficient does not divide$"):
        L({0: 2}).exact_div(L({0: 3}))
    # v^2 + 1 = (v - 1)(v + 1) + 2
    with pytest.raises(ExactDivisionError, match="^nonzero remainder$"):
        L({2: 1, 0: 1}).exact_div(L({1: 1, 0: 1}))
    with pytest.raises(ZeroDivisionError):
        IntLaurent.one().exact_div(IntLaurent.zero())


def test_laurent_repr_readable():
    assert repr(L({2: 1, 0: 2, -2: 1})) == "v^2 + 2 + v^-2"
    assert repr(IntLaurent.zero()) == "0"


# -- quantum integers ------------------------------------------------------

def test_qint_frozen_values():
    assert qint(0) == IntLaurent.zero()
    assert qint(1) == IntLaurent.one()
    assert qint(2, 1) == L({2: 1, -2: 1})
    assert qint(3, 1) == L({4: 1, 0: 1, -4: 1})
    assert qint(3, 2) == L({8: 1, 0: 1, -8: 1})
    assert qint(-3, 1) == -qint(3, 1)


def test_qbinom_frozen_values():
    # exponents live in v with q = v^2
    assert qbinom(3, 1, 1) == L({4: 1, 0: 1, -4: 1})
    assert qbinom(4, 2, 1) == L({8: 1, 4: 1, 0: 2, -4: 1, -8: 1})
    assert qbinom(5, 0, 3) == IntLaurent.one()
    assert qbinom(5, 5, 3) == IntLaurent.one()
    with pytest.raises(ValueError):
        qbinom(3, 4, 1)
    with pytest.raises(ValueError):
        qbinom(3, -1, 1)
    with pytest.raises(ValueError):
        qint(2, 0)


def test_qfactorial():
    assert qfactorial(0) == IntLaurent.one()
    assert qfactorial(3, 1) == qint(2) * qint(3)
    with pytest.raises(ValueError):
        qfactorial(-1)


def _sympy_of(f):
    v = sympy.Symbol("v")
    return sum(c * v ** e for e, c in f.terms.items())


def test_qbinom_against_sympy_product_formula():
    # independent oracle: prod_{j=1}^{k} (v^{2d(n-k+j)} - v^{-...}) / (v^{2dj} - ...)
    v = sympy.Symbol("v")
    for n, k, d in [(4, 2, 1), (5, 2, 1), (6, 3, 1), (5, 2, 2), (4, 1, 3), (7, 3, 1)]:
        expr = sympy.Integer(1)
        for j in range(1, k + 1):
            num = v ** (2 * d * (n - k + j)) - v ** (-2 * d * (n - k + j))
            den = v ** (2 * d * j) - v ** (-2 * d * j)
            expr *= num / den
        assert sympy.cancel(expr - _sympy_of(qbinom(n, k, d))) == 0


def test_qbinom_pascal_recursion():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, n)
        d = rng.randrange(1, 4)
        lhs = qbinom(n, k, d)
        rhs = (L({2 * d * k: 1}) * qbinom(n - 1, k, d)
               + L({-2 * d * (n - k): 1}) * qbinom(n - 1, k - 1, d))
        assert lhs == rhs


# -- cyclotomic layer ------------------------------------------------------

def test_cyclotomic_polynomials_match_sympy():
    x = sympy.Symbol("x")
    for l in (3, 5, 7, 9, 15, 21):
        ours = sympy.Poly(list(reversed(cyclotomic_coeffs(l))), x)
        assert ours == sympy.Poly(sympy.cyclotomic_poly(l, x), x)


def test_cycloint_root_identities():
    for l in (3, 5, 9):
        eps = eps_power(l, 1)
        assert eps ** 0 if hasattr(eps, "__pow__") else True
        acc = CycloInt(l, [])
        for k in range(l):
            acc = acc + eps_power(l, k)
        assert not acc
        prod = CycloInt.from_int(l, 1)
        for _ in range(l):
            prod = prod * eps
        assert prod == CycloInt.from_int(l, 1)


def _dense_product(a, b):
    """The plain polynomial product of two coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def test_cycloint_product_matches_dense_convolution():
    # a * b and the fused a * b * eps^k, both by one cyclic convolution,
    # against the plain product reduced mod Phi_l; composite l included
    rng = random.Random("cyclo-mul")
    for l in (3, 5, 7, 9, 15, 21):
        deg = len(cyclotomic_coeffs(l)) - 1
        samples = ([[], [1], [-1], [0] * (deg - 1) + [3]]
                   + [[rng.randint(-9, 9) for _ in range(deg)] for _ in range(6)]
                   + [[rng.randrange(-10 ** 30, 10 ** 30) for _ in range(deg)]]
                   + [[-rng.randint(1, 9) for _ in range(deg)]])
        elements = [CycloInt(l, cs) for cs in samples]
        for a in elements:
            for b in elements:
                dense = _dense_product(list(a.coeffs), list(b.coeffs))
                assert a * b == CycloInt(l, dense)
                for k in range(l):
                    assert a.mul_eps(b, k) == CycloInt(l, [0] * k + dense)


def test_cycloint_hash_agrees_with_eq():
    rng = random.Random("cyclo-hash")
    for l in (3, 5, 9):
        for _ in range(50):
            raw = [rng.randint(-3, 3) for _ in range(rng.randint(0, 2 * l))]
            a = CycloInt(l, raw)
            # the same element from another representative: add a multiple of Phi_l
            shift = [rng.randint(-2, 2) for _ in range(3)]
            phi = cyclotomic_coeffs(l)
            padded = raw + [0] * (len(shift) + len(phi))
            for i, s in enumerate(shift):
                for j, c in enumerate(phi):
                    padded[i + j] += s * c
            b = CycloInt(l, padded)
            assert a == b and hash(a) == hash(b)
            assert len({a, b}) == 1
    # equal coefficient tuples at different orders are different elements
    assert CycloInt.from_int(3, 2) != CycloInt.from_int(5, 2)
    assert len({CycloInt.from_int(3, 2), CycloInt.from_int(5, 2)}) == 2
    assert eps_power(5, 7) == eps_power(5, 2)
    assert hash(eps_power(5, 7)) == hash(eps_power(5, 2))


def test_intlaurent_hash_agrees_with_eq():
    # an explicit zero coefficient is dropped on construction
    a = IntLaurent({-1: 3, 0: 1, 2: 0})
    b = IntLaurent({0: 1, -1: 3})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert IntLaurent({1: 0}) == IntLaurent.zero()
    assert hash(IntLaurent({1: 0})) == hash(IntLaurent.zero())


def test_cycloint_rejects_bad_order_and_mixing():
    with pytest.raises(ValueError):
        CycloInt.from_int(4, 1)
    with pytest.raises(ValueError):
        CycloInt.from_int(1, 1)
    with pytest.raises(ValueError):
        CycloInt.from_int(3, 1) + CycloInt.from_int(5, 1)


def test_specialize_at_one():
    rng = random.Random(31)
    for _ in range(50):
        f = rand_laurent(rng)
        assert specialize(f, 5, Point.ONE) == CycloInt.from_int(5, f.at_one())


def test_specialize_eps_square_root_convention():
    # v maps to the square root eps^{(l+1)/2} of eps, so v^2 maps to eps
    for l in (3, 5, 7, 9):
        assert specialize(L({2: 1}), l, Point.EPS) == eps_power(l, 1)
        s = specialize(L({1: 1}), l, Point.EPS)
        assert s * s == eps_power(l, 1)


def test_specialize_eps_kills_quantum_integers():
    # [l] and the Gauss binomials (l choose k), 0 < k < l, vanish at eps
    for l in (3, 5):
        assert not specialize(qint(l, 1), l, Point.EPS)
        for k in range(1, l):
            assert not specialize(qbinom(l, k, 1), l, Point.EPS)
        assert specialize(qbinom(l, 0, 1), l, Point.EPS)


def test_specialize_is_ring_map():
    rng = random.Random(47)
    for l in (3, 5):
        for point in (Point.ONE, Point.EPS):
            for _ in range(60):
                a, b = rand_laurent(rng), rand_laurent(rng)
                assert specialize(a + b, l, point) == specialize(a, l, point) + specialize(b, l, point)
                assert specialize(a * b, l, point) == specialize(a, l, point) * specialize(b, l, point)


def test_specialize_rejects_even_order():
    with pytest.raises(ValueError):
        specialize(IntLaurent.one(), 4, Point.EPS)


# -- rational functions ----------------------------------------------------

def test_ratfunc_cancellation():
    a = RatFunc.from_laurent(L({1: 1, 0: 1}))  # v + 1
    b = RatFunc.from_laurent(L({2: 1, 0: -1}))  # v^2 - 1
    q = b / a
    assert q == RatFunc.from_laurent(L({1: 1, 0: -1}))
    assert q.as_laurent() == L({1: 1, 0: -1})


def test_ratfunc_field_axioms_random():
    rng = random.Random(61)
    done = 0
    while done < 80:
        fa, fb, fc, fd = (rand_laurent(rng) for _ in range(4))
        if not fb or not fd:
            continue
        a = RatFunc.from_laurent(fa) / RatFunc.from_laurent(fb)
        c = RatFunc.from_laurent(fc) / RatFunc.from_laurent(fd)
        assert a + c == c + a
        assert a * c == c * a
        if not c.is_zero:
            assert (a / c) * c == a
            assert c * c.inv() == RatFunc.one()
        assert a - a == RatFunc.zero()
        done += 1


def test_ratfunc_as_laurent_rejects_proper_fractions():
    f = RatFunc.one() / RatFunc.from_laurent(L({1: 1, 0: 1}))
    with pytest.raises(ExactDivisionError):
        f.as_laurent()


def test_ratfunc_canonical_den_normalization():
    # same value built two ways compares equal syntactically
    a = RatFunc(L({3: 2}), L({1: 4}))
    b = RatFunc(L({2: 1}), L({0: 2}))
    assert a == b
    f = RatFunc(L({0: -1}), L({1: -2, 0: 2}))
    assert f.den.leading_coeff() > 0
    assert f.den.min_exp() == 0
