"""Quantum torus arithmetic, normalized products, and right division."""

import random

import pytest

from qcfrob.coeff import CycloInt, ExactDivisionError, IntLaurent, Point
from qcfrob.frobsplit import random_torus_element, to_ring
from qcfrob.qtorus import (
    CycloRing,
    LaurentRing,
    PrimeField,
    SkewForm,
    TorusElement,
    exact_right_divide,
    is_prime,
    normal_product,
)

from _seeds import eps_power

LR = LaurentRing()


def const(ring, n):
    """The integer n in ring."""
    return ring.from_laurent(IntLaurent.from_int(n))


def v_power(ring, k):
    """The image of v^k in ring, by the ring map rather than a unit shift."""
    return ring.from_laurent(IntLaurent({k: 1}))


def rand_skew(rng, r, bound=3):
    m = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            m[i][j] = rng.randrange(-bound, bound + 1)
            m[j][i] = -m[i][j]
    return SkewForm(m)


def rand_elt(rng, form, nterms=3, span=2):
    terms = {}
    for _ in range(rng.randrange(1, nterms + 1)):
        a = tuple(rng.randrange(-span, span + 1) for _ in range(form.r))
        coeff = IntLaurent({rng.randrange(-2, 3): rng.choice([1, -1, 2])})
        terms[a] = coeff
    return TorusElement(LR, form, terms)


def test_skew_form_validation():
    with pytest.raises(ValueError):
        SkewForm([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        SkewForm([[1, 2], [-2, 1]])
    with pytest.raises(ValueError):
        SkewForm([[0, 1]])
    # an entry int() would truncate is an error, not the entry truncated
    for mat in ([[0, 1.9], [-1.9, 0]], [[0, 0.5], [-0.5, 0]]):
        with pytest.raises(ValueError, match="must be integers"):
            SkewForm(mat)
    assert SkewForm([[0, 1.0], [-1.0, 0]]) == SkewForm([[0, 1], [-1, 0]])


def test_monomial_multiplication_rule():
    form = SkewForm([[0, 3], [-3, 0]])
    x0 = TorusElement.monomial(LR, form, (1, 0))
    x1 = TorusElement.monomial(LR, form, (0, 1))
    prod = x0 * x1
    assert prod == TorusElement.monomial(LR, form, (1, 1), IntLaurent({3: 1}))
    # commutation x0 x1 = v^{2 l_01} x1 x0
    assert x0 * x1 == (x1 * x0).scale(IntLaurent({6: 1}))


def test_monomial_inverse():
    # v^k x^a times v^-k x^-a is 1 on either side, since form(a, -a) = 0
    rng = random.Random(19)
    for _ in range(30):
        form = rand_skew(rng, 3)
        a = tuple(rng.randrange(-2, 3) for _ in range(3))
        k = rng.randrange(-3, 4)
        m = TorusElement.monomial(LR, form, a, IntLaurent({k: 1}))
        inv = TorusElement.monomial(LR, form, tuple(-e for e in a), IntLaurent({-k: 1}))
        assert m * inv == inv * m == TorusElement.one(LR, form)
        # even a monomial, a unit of the torus, has no negative power
        for n in (-1, -2):
            with pytest.raises(ValueError, match="nonnegative"):
                m ** n


def test_associativity_and_distributivity_random():
    rng = random.Random(7)
    for _ in range(60):
        form = rand_skew(rng, 3)
        a, b, c = (rand_elt(rng, form) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_normal_product_reproduces_monomials():
    # v^{twist(a)} x_1^{a_1} ... x_r^{a_r} is exactly the basis monomial x^a
    rng = random.Random(3)
    for _ in range(40):
        form = rand_skew(rng, 4)
        gens = [TorusElement.monomial(LR, form, tuple(int(i == k) for i in range(4)))
                for k in range(4)]
        a = tuple(rng.randrange(4) for _ in range(4))
        assert normal_product(gens, form, a) == TorusElement.monomial(LR, form, a)


def test_right_division_round_trip():
    rng = random.Random(41)
    done = 0
    while done < 120:
        form = rand_skew(rng, 3)
        h, f = rand_elt(rng, form), rand_elt(rng, form)
        if not f:
            continue
        g = h * f
        assert exact_right_divide(g, f) == h
        done += 1


def test_division_by_monomial_always_succeeds():
    # monomials are units, so x^{e0} divides everything
    form = SkewForm([[0, 1], [-1, 0]])
    g = TorusElement.monomial(LR, form, (1, 0)) + TorusElement.monomial(LR, form, (0, 1))
    f = TorusElement.monomial(LR, form, (1, 0))
    h = exact_right_divide(g, f)
    assert h * f == g
    assert set(h.terms) == {(0, 0), (-1, 1)}


def test_division_failures():
    form = SkewForm([[0, 1], [-1, 0]])
    one = TorusElement.one(LR, form)
    f = one + TorusElement.monomial(LR, form, (1, 0))
    with pytest.raises(ExactDivisionError):
        exact_right_divide(one, f)
    with pytest.raises(ExactDivisionError):
        exact_right_divide(one.scale(IntLaurent.from_int(2)),
                           one.scale(IntLaurent.from_int(3)))
    with pytest.raises(ZeroDivisionError):
        exact_right_divide(one, TorusElement.zero(LR, form))
    # only Z[v, v^-1] divides exactly
    for ring in (CycloRing(3, Point.ONE), PrimeField(3)):
        with pytest.raises(ValueError, match="Z\\[v, v\\^-1\\]"):
            exact_right_divide(to_ring(one, ring), to_ring(one, ring))


def test_mixed_torus_arithmetic_rejected():
    f1 = SkewForm([[0, 1], [-1, 0]])
    f2 = SkewForm([[0, 2], [-2, 0]])
    a = TorusElement.one(LR, f1)
    b = TorusElement.one(LR, f2)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b


def test_cyclo_ring_v_power():
    # v^k is the unit shift of one by k
    r3, r5 = CycloRing(3, Point.EPS), CycloRing(5, Point.ONE)
    assert r3.v_shift(r3.one(), 2) == eps_power(3, 1)
    assert r3.v_shift(r3.one(), 1) * r3.v_shift(r3.one(), 1) == eps_power(3, 1)
    assert r5.v_shift(r5.one(), 7) == CycloInt.from_int(5, 1)
    with pytest.raises(ValueError):
        CycloRing(4, Point.EPS)


def test_ring_adapters_share_five_operations():
    ops = {"one", "from_laurent", "mul_v", "v_shift", "canon"}
    for adapter in (LaurentRing, CycloRing, PrimeField):
        assert {name for name in vars(adapter) if not name.startswith("_")} == ops


def test_prime_field_basics():
    fp = PrimeField(5)
    assert const(fp, 12) == 2
    assert fp.v_shift(fp.one(), 9) == 1
    with pytest.raises(ValueError):
        PrimeField(6)


def test_power_small_cases():
    form = SkewForm([[0, 1], [-1, 0]])
    x = TorusElement.monomial(LR, form, (1, 0)) + TorusElement.monomial(LR, form, (0, 1))
    assert x ** 0 == TorusElement.one(LR, form)
    assert x ** 1 == x
    assert x ** 3 == x * x * x
    sq = x * x
    assert sq.coeff((1, 1)) == IntLaurent({1: 1, -1: 1})


CANON_RINGS = {"laurent": LR, "one3": CycloRing(3, Point.ONE), "eps3": CycloRing(3, Point.EPS),
               "one5": CycloRing(5, Point.ONE), "eps5": CycloRing(5, Point.EPS),
               "f3": PrimeField(3), "f5": PrimeField(5)}


def assert_canonical(f):
    ring = f.ring
    for c in f.terms.values():
        assert c
        if isinstance(ring, PrimeField):
            assert type(c) is int and 1 <= c < ring.p


@pytest.mark.parametrize("name", CANON_RINGS)
def test_coefficients_canonical_in_every_ring(name):
    ring = CANON_RINGS[name]
    rng = random.Random(31)
    form = rand_skew(rng, 2)
    for _ in range(25):
        f, g = (random_torus_element(rng, ring, form) + to_ring(rand_elt(rng, form), ring)
                for _ in range(2))
        results = [f + g, f - g, f + f.scale(const(ring, -1)), f * g,
                   f.scale(const(ring, 2)), f.scale(v_power(ring, 3)), f.scale(const(ring, 0)),
                   f ** 2, f ** 3]
        assert not results[2].terms and not results[6].terms
        # exact division works over Z[v, v^-1] only
        if g and ring == LR:
            quot = exact_right_divide(f * g, g)
            assert quot == f
            results.append(quot)
        for h in [f, g] + results:
            assert_canonical(h)


def naive_product(f, g):
    """The product as the sum of ca * cb * v^L(a, b) over term pairs, with
    the ring's general multiplication and the form's own evaluation."""
    ring, form = f.ring, f.form
    out = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            key = tuple(x + y for x, y in zip(a, b))
            c = ca * cb * v_power(ring, form(a, b))
            out[key] = out[key] + c if key in out else c
    return TorusElement(ring, form, out)


# l = 9 is composite: Phi_9 = x^6 + x^3 + 1 has degree 6, so subtracting the
# x^(l-1) coefficient from the others, a full reduction for prime l, leaves
# eight coefficients there where the canonical form has six
FUSED_RINGS = {"laurent": LR, "f3": PrimeField(3), "f5": PrimeField(5),
               **{f"{point.value}{l}": CycloRing(l, point)
                  for l in (3, 5, 9) for point in Point}}


@pytest.mark.parametrize("name", FUSED_RINGS)
def test_fused_product_matches_naive(name):
    ring = FUSED_RINGS[name]
    rng = random.Random(f"fused:{name}")
    for _ in range(40):
        form = rand_skew(rng, rng.randrange(1, 5))
        f, g = (random_torus_element(rng, ring, form, nterms=4)
                + to_ring(rand_elt(rng, form), ring) for _ in range(2))
        assert f * g == naive_product(f, g)
        if g and ring == LR:
            assert exact_right_divide(f * g, g) == f


# -- unit shifts and the split twist ----------------------------------------

def _shift_samples(rng, ring):
    """Zero, +-1, single terms, large and all-negative coefficients."""
    if isinstance(ring, PrimeField):
        return list(range(ring.p))
    if isinstance(ring, CycloRing):
        l, deg = ring.l, len(ring.one().coeffs)
        make = lambda cs: CycloInt(l, cs)
        single = [eps_power(l, j) * const(ring, n)
                  for j in range(l) for n in (1, -3)]
    else:
        make = lambda cs: IntLaurent(dict(enumerate(cs, -2)))
        deg = 5
        single = [IntLaurent({j: n}) for j in range(-3, 4) for n in (1, -3)]
    large = [make([rng.randrange(-10 ** 30, 10 ** 30) for _ in range(deg)]) for _ in range(3)]
    negative = [make([-rng.randrange(1, 9) for _ in range(deg)]) for _ in range(3)]
    return [const(ring, 0), ring.one(), const(ring, -1)] + single + large + negative


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@pytest.mark.parametrize("l", [3, 5, 7, 9, 15, 21])
def test_v_shift_matches_fused_product(l):
    # c v^k by a unit shift, against the fused product with 1 and against
    # the general product with the image of v^k; composite l reduces mod a
    # Phi_l of degree below l - 1
    rng = random.Random(f"v_shift:{l}")
    rings = [LR, CycloRing(l, Point.ONE), CycloRing(l, Point.EPS), PrimeField(_next_prime(l))]
    for ring in rings:
        for c in _shift_samples(rng, ring):
            for k in range(-2 * l, 2 * l):
                got = ring.v_shift(c, k)
                assert got == ring.mul_v(c, ring.one(), k), (ring, c, k)
                if isinstance(ring, CycloRing):
                    half = (l + 1) // 2 if ring.point is Point.EPS else 0
                    assert got == c * eps_power(l, k * half)
                    assert type(got.coeffs) is tuple and len(got.coeffs) == len(c.coeffs)
                elif isinstance(ring, PrimeField):
                    assert got == c * v_power(ring, k) % ring.p
                else:
                    assert got == c * IntLaurent({k: 1})

