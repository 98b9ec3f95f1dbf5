"""Specialized tori, the exponent-scaling maps, and the theorem checker."""

import itertools
import random
import types
from operator import add

import pytest
import sympy

from qcfrob import frobsplit
from qcfrob.cluster import QuantumSeed, cluster_monomial, mutate_seed, seed_from_word
from qcfrob.coeff import CycloInt, IntLaurent, Point
from qcfrob.frobsplit import (
    ProductTable,
    SeedExpander,
    TheoremSession,
    check_modp_division,
    check_split_axioms,
    embed_padded,
    fr_star,
    frp_star,
    modp_split,
    random_torus_element,
    reduction_commutes,
    require_valid_order,
    spec_torus,
    to_ring,
)
from qcfrob.qtorus import CycloRing, LaurentRing, PrimeField, SkewForm, TorusElement
from qcfrob.rootdatum import beta_sequence, cartan_preset
from qcfrob.uqn import CheckOutcome

from _classical import classical_mutate_vars
from _seeds import A2_WORD, A3_WORD, B2_WORD, cell_form, cell_seed, eps_power

LR = LaurentRing()
A2 = cartan_preset("A2")


def rand_skew(rng, r, bound=3):
    m = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            m[i][j] = rng.randint(-bound, bound)
            m[j][i] = -m[i][j]
    return SkewForm(m)


def rand_laurent_elt(rng, form, nterms=4):
    out = TorusElement.zero(LR, form)
    for _ in range(nterms):
        a = tuple(rng.randint(-2, 2) for _ in range(form.r))
        c = IntLaurent({rng.randint(-3, 3): rng.randint(-4, 4)})
        out = out + TorusElement.monomial(LR, form, a, c)
    return out


# -- specialization --------------------------------------------------------

def test_spec_torus_constants_and_eps_powers():
    form = SkewForm([[0, 1], [-1, 0]])
    one = TorusElement.one(LR, form)
    for point in (Point.ONE, Point.EPS):
        assert spec_torus(one, 3, point) == TorusElement.one(CycloRing(3, point), form)
    # v x^(1,1) at eps, l=3: v goes to eps^2
    f = TorusElement.monomial(LR, form, (1, 1), IntLaurent({1: 1}))
    got = spec_torus(f, 3, Point.EPS)
    assert got.coeff((1, 1)) == eps_power(3, 2)


def test_spec_torus_is_multiplicative():
    rng = random.Random(20)
    for _ in range(40):
        form = rand_skew(rng, 3)
        f = rand_laurent_elt(rng, form)
        g = rand_laurent_elt(rng, form)
        for point in (Point.ONE, Point.EPS):
            assert spec_torus(f * g, 5, point) == spec_torus(f, 5, point) * spec_torus(g, 5, point)


def test_spec_one_of_mutated_variable_matches_commutative_oracle():
    seed = cell_seed("A2", A2_WORD, (0,))
    xs = list(sympy.symbols("x0:3"))
    classical = classical_mutate_vars([[0], [1], [-1]], (0,), xs, 0)
    at_one = spec_torus(seed.variables[0], 3, Point.ONE)
    expr = sum(
        int(c.coeffs[0]) * sympy.prod([x ** e for x, e in zip(xs, a)])
        for a, c in at_one.terms.items())
    assert sympy.simplify(expr - classical[0]) == 0


def test_reduce_mod_p():
    form = SkewForm([[0, 1], [-1, 0]])
    f = TorusElement.monomial(LR, form, (1, 0), IntLaurent({0: 3, 2: 2}))
    g = to_ring(f, PrimeField(5))
    assert g.coeff((1, 0)) == 0  # 3 + 2 = 5
    assert to_ring(f, PrimeField(3)).coeff((1, 0)) == 2


# -- the exponent maps -----------------------------------------------------

def test_fr_star_monomials_and_point_guards():
    form = SkewForm([[0, 2], [-2, 0]])
    x = TorusElement.monomial(CycloRing(3, Point.ONE), form, (1, -2))
    y = fr_star(x)
    assert set(y.terms) == {(3, -6)}
    assert fr_star(TorusElement.one(CycloRing(3, Point.ONE), form)) == \
        TorusElement.one(CycloRing(3, Point.EPS), form)
    with pytest.raises(ValueError):
        fr_star(y)  # already at eps
    with pytest.raises(ValueError):
        frp_star(x)  # wrong point


def test_fr_star_is_multiplicative():
    rng = random.Random(21)
    ring = CycloRing(3, Point.ONE)
    for _ in range(60):
        form = rand_skew(rng, 3)
        f = random_torus_element(rng, ring, form)
        g = random_torus_element(rng, ring, form)
        assert fr_star(f * g) == fr_star(f) * fr_star(g)


def test_frp_star_sections_and_projection_formula():
    rng = random.Random(22)
    ring_eps = CycloRing(5, Point.EPS)
    ring_one = CycloRing(5, Point.ONE)
    for _ in range(60):
        form = rand_skew(rng, 2)
        f = random_torus_element(rng, ring_one, form)
        g = random_torus_element(rng, ring_eps, form)
        assert frp_star(fr_star(f)) == f
        assert frp_star(fr_star(f) * g) == f * frp_star(g)


def test_frp_star_kills_nondivisible():
    form = SkewForm([[0, 1], [-1, 0]])
    ring = CycloRing(3, Point.EPS)
    x = TorusElement.monomial(ring, form, (3, 1))
    assert not frp_star(x)
    y = TorusElement.monomial(ring, form, (-3, 6))
    assert set(frp_star(y).terms) == {(-1, 2)}


def test_trace_property_at_eps():
    # frp(fg) = frp(gf): only monomial pairs with a+b divisible by l
    # survive, and there L(a,b) = 0 mod l so both orders agree.
    rng = random.Random(23)
    ring = CycloRing(3, Point.EPS)
    for _ in range(60):
        form = rand_skew(rng, 3)
        f = random_torus_element(rng, ring, form)
        g = random_torus_element(rng, ring, form)
        assert frp_star(f * g) == frp_star(g * f)


def test_grading_scales_by_l():
    datum = A2
    betas = beta_sequence(datum, A2_WORD)

    def weights(elem):
        out = set()
        for a in elem.terms:
            acc = 0 * betas[0]
            for x, b in zip(a, betas):
                acc = acc + x * b
            out.add(acc)
        return out

    rng = random.Random(24)
    form = cell_form("A2", A2_WORD)
    f = random_torus_element(rng, CycloRing(3, Point.ONE), form)
    scaled = {3 * w for w in weights(f)}
    assert weights(fr_star(f)) == scaled


# -- characteristic p ------------------------------------------------------

def test_modp_split_monomials():
    form = SkewForm([[0, 1], [-1, 0]])
    ring = PrimeField(3)
    one = TorusElement.one(ring, form)
    assert modp_split(one) == one
    x = TorusElement.monomial(ring, form, (3, -6), 2)
    assert modp_split(x) == TorusElement.monomial(ring, form, (1, -2), 2)
    assert not modp_split(TorusElement.monomial(ring, form, (1, 3)))


def test_split_axioms_random():
    rng = random.Random(25)
    for p in (3, 5):
        out = check_split_axioms(rand_skew(rng, 3), PrimeField(p), rng, trials=40)
        assert out.passed, out.witness


def test_split_respects_frozen_divisor():
    # splitting a multiple of a frozen variable stays a multiple of it
    rng = random.Random(26)
    ring = PrimeField(3)
    form = rand_skew(rng, 3)
    t = 2
    for _ in range(40):
        g = TorusElement.zero(ring, form)
        for _ in range(4):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            g = g + TorusElement.monomial(ring, form, a, rng.randint(0, 2))
        prod = TorusElement.monomial(ring, form, (0, 0, 1)) * g
        for a in modp_split(prod).terms:
            assert a[t] >= 1 and all(x >= 0 for x in a)


def test_reduction_commutes_on_a3_prefix():
    rng = random.Random(27)
    datum = cartan_preset("A3")
    form = rand_skew(rng, 3)
    out = reduction_commutes(datum, A3_WORD, form, PrimeField(3), rng, 25)
    assert out.passed and out.checked == 25


def test_reduction_commutes_validates_input():
    datum = cartan_preset("A3")
    rng = random.Random(0)
    with pytest.raises(ValueError, match="not reduced"):
        reduction_commutes(datum, (0, 0, 1), SkewForm([[0]]), PrimeField(3), rng, 1)
    with pytest.raises(ValueError, match="out of range"):
        reduction_commutes(datum, A3_WORD, SkewForm([]), PrimeField(3), rng, 1)
    with pytest.raises(ValueError, match="out of range"):
        reduction_commutes(datum, A3_WORD, SkewForm([[0] * 7] * 7), PrimeField(3),
                           rng, 1)


def test_embed_padded_guards():
    form = SkewForm([[0, 1], [-1, 0]])
    f = TorusElement.one(PrimeField(3), form)
    with pytest.raises(ValueError):
        embed_padded(f, SkewForm([[0]]))


# -- expander consistency --------------------------------------------------

EXPANDER_CELLS = [("A2", A2_WORD, ()), ("A2", A2_WORD, (0,)),
                  ("A3", A3_WORD, ()), ("A3", A3_WORD, (0,)), ("A3", A3_WORD, (0, 1)),
                  ("B2", B2_WORD, ()), ("B2", B2_WORD, (1,)), ("B2", B2_WORD, (0, 1))]


@pytest.mark.parametrize("preset, word, mutations", EXPANDER_CELLS,
                         ids=[f"{p}-" + ("-".join(map(str, m)) or "id")
                              for p, _, m in EXPANDER_CELLS])
def test_expander_matches_direct_expansion(preset, word, mutations):
    _check_expander(cell_seed(preset, word, mutations), f"{preset}:{mutations}")


# l = 9 and 15 are composite: their eps rings reduce mod a Phi_l of degree
# below l - 1
EXPANDER_RINGS = [LR, PrimeField(3)] + [CycloRing(l, point)
                                        for l in (3, 5, 7, 9, 15) for point in Point]


def _check_expander(seed, label):
    """SeedExpander.monomial on every ring against cluster_monomial, the
    normal-ordered product over Z[v, v^-1], mapped into the ring."""
    expanders = [SeedExpander(seed, ring) for ring in EXPANDER_RINGS]
    rng = random.Random(f"expander:{label}")
    vectors = [(0,) * seed.rank] + [
        tuple(rng.randrange(3) for _ in range(seed.rank)) for _ in range(12)]
    for a in vectors:
        exact = cluster_monomial(seed, a)
        for ring, exp in zip(EXPANDER_RINGS, expanders):
            want = to_ring(exact, ring)
            got = exp.monomial(a)
            assert got == want, (ring, a)
            assert got.terms == ring.canon(got.terms)
    return expanders


@pytest.mark.parametrize("scale", [IntLaurent({1: 1}), IntLaurent({-2: -1})])
def test_expander_with_frozen_variable_scaled_by_v(scale):
    # a frozen variable times a unit other than 1: the tail part then
    # carries a coefficient that is not the ring's one, except at v = 1 for
    # v, and the expansion multiplies by it
    expanders = _check_expander(_scaled_frozen_seed(scale), f"scaled:{scale!r}")
    for ring, exp in zip(EXPANDER_RINGS, expanders):
        tail = exp.part(exp.block, (1,) + (0,) * (exp.size - exp.block - 1))
        assert list(tail.terms.values()) == [ring.from_laurent(scale)], ring


def _scaled_frozen_seed(scale):
    """The A3 seed after mutating position 1, with its first frozen
    variable times scale."""
    base = cell_seed("A3", A3_WORD, (0,))
    frozen = max(base.btilde.cols) + 1
    variables = list(base.variables)
    variables[frozen] = variables[frozen].scale(scale)
    return QuantumSeed(base.datum, base.btilde, base.lam, variables)


def test_expander_rejects_non_monomial_frozen_product():
    base = cell_seed("A2", A2_WORD)
    variables = list(base.variables)
    variables[2] = variables[2] + variables[0]
    seed = QuantumSeed(base.datum, base.btilde, base.lam, variables)
    with pytest.raises(ValueError, match="not monomials"):
        SeedExpander(seed, CycloRing(3, Point.ONE))


def test_non_integral_exponents_raise():
    # an entry int() would truncate is an error, not the vector truncated,
    # and so is a negative entry, in the block or in the frozen tail; check
    # and check_all are covered by test_check_all_raises_what_check_raises
    seed = cell_seed("A3", A3_WORD, (0,))
    field = PrimeField(3)
    calls = [lambda: SeedExpander(seed, field).monomial((True, 0.9, 0, 0, 0, 0)),
             lambda: check_modp_division(SeedExpander(seed, field), (0.5,) * 6),
             lambda: TorusElement.monomial(field, seed.lam, (1, 0, 0, 0, 0, 0.5)),
             lambda: cluster_monomial(seed, (0, 0, 0, 0, 0, 1.5))]
    for call in calls:
        with pytest.raises(ValueError, match="must be integers"):
            call()
    for a in [(0, -1, 0, 0, 0, 0), (0, 0, 0, 0, -1, 0)]:
        for call in (lambda: SeedExpander(seed, field).monomial(a),
                     lambda: check_modp_division(SeedExpander(seed, field), a),
                     lambda: cluster_monomial(seed, a)):
            with pytest.raises(ValueError, match="must be nonnegative"):
                call()
    session = TheoremSession(seed, 3)
    assert session.check((1.0, 0, 2, 0, 0, 0)) == session.check((1, 0, 2, 0, 0, 0))


# -- the theorem -----------------------------------------------------------

def test_require_valid_order():
    require_valid_order(A2, 9)  # only 2 t_i matters, not primality
    with pytest.raises(ValueError):
        require_valid_order(A2, 4)
    with pytest.raises(ValueError):
        require_valid_order(A2, 1)
    with pytest.raises(ValueError):
        require_valid_order(cartan_preset("G2"), 3)  # shares a factor with t_2 = 3
    require_valid_order(cartan_preset("B2"), 9)


def test_theorem_initial_cluster_explicit():
    session = TheoremSession(cell_seed("A2", A2_WORD), 3)
    out = session.check((3, 0, 0))
    assert out.passed and out.checked == 2
    split = frp_star(session.at_eps.monomial((3, 0, 0)))
    assert split == session.at_one.monomial((1, 0, 0))
    assert set(split.terms) == {(1, 0, 0)}


def test_theorem_mutated_cluster():
    session = TheoremSession(cell_seed("A2", A2_WORD, (0,)), 3)
    # splitting branch lands on zero when l does not divide a
    out = session.check((1, 0, 0))
    assert out.passed
    assert not frp_star(session.at_eps.monomial((1, 0, 0)))
    # and on the divided monomial when it does
    out = session.check((3, 3, 0))
    assert out.passed
    # the expansions involved are genuinely nonzero
    assert len(session.at_eps.monomial((3, 3, 0)).terms) > 1


def test_theorem_check_is_not_vacuous():
    session = TheoremSession(cell_seed("A2", A2_WORD, (0,)), 3)
    pushed = fr_star(session.at_one.monomial((1, 1, 0)))
    assert pushed
    # deliberately compare against the wrong exponent: must differ
    assert pushed != session.at_eps.monomial((3, 3, 3))


def test_verify_theorem_wrapper():
    # the whole pipeline from a reduced word: seed, mutation, both branches
    seed = mutate_seed(seed_from_word(A2, A2_WORD, cell_form("A2", A2_WORD)), 0)
    assert TheoremSession(seed, 3).check((2, 1, 1)).passed
    assert TheoremSession(seed, 5).check((1, 2, 0)).passed


def _seeds_to_depth_two(preset, word):
    """Every seed of the cell reached by at most two mutations, no immediate
    repeat."""
    cols = cell_seed(preset, word).btilde.cols
    sequences = [()] + [(p,) for p in cols] + [(p, q) for p in cols for q in cols if p != q]
    return [cell_seed(preset, word, seq) for seq in sequences]


@pytest.mark.parametrize("preset, word", [("A3", A3_WORD), ("B2", B2_WORD)])
def test_shared_power_table_matches_fresh_sessions(preset, word):
    # one table across every seed and both orders, as one cli process keeps it
    table = ProductTable()
    rng = random.Random(f"shared-powers:{preset}")
    vectors = [(0,) * len(word), (1,) * len(word)] + [
        tuple(rng.randrange(3) for _ in word) for _ in range(4)]
    private = 0
    for seed in _seeds_to_depth_two(preset, word):
        for l in (3, 5):
            shared, fresh = TheoremSession(seed, l, table), TheoremSession(seed, l)
            for a in vectors:
                got, want = shared.check(a), fresh.check(a)
                assert (got.passed, got.checked, got.witness) == (
                    want.passed, want.checked, want.witness)
                for b in (a, tuple(l * x for x in a)):
                    assert shared.at_one.monomial(b) == fresh.at_one.monomial(b)
                    assert shared.at_eps.monomial(b) == fresh.at_eps.monomial(b)
            private += len(fresh.at_one._table) + len(fresh.at_eps._table)
    # the cluster variables recur from seed to seed, so the table is reused
    assert 0 < len(table) < private / 2


def test_shared_power_table_keys_the_element_raised():
    # over one ring and one form, a product of variables two seeds have in
    # common shares an entry, with a power as its one-factor case; other
    # rings and exponents get their own, and zero exponents drop out
    seed = cell_seed("A2", A2_WORD)
    table = ProductTable()
    ring = CycloRing(3, Point.EPS)
    first = SeedExpander(seed, ring, table)
    mutated = SeedExpander(cell_seed("A2", A2_WORD, (0,)), ring, table)
    y = first.variables[1]
    assert mutated.variables[1] == y and mutated.variables[0] != first.variables[0]
    assert first._product(((1, 2),)) == y * y
    assert mutated._product(((1, 2),)) is first._product(((1, 2),))
    assert first._product(((1, 3),)) == y * y * y
    assert mutated.part(0, (0, 2)) is first.part(0, (0, 2))
    assert mutated.part(0, (1, 2)) == mutated.variables[0] * y * y != first.part(0, (1, 2))
    at_one = SeedExpander(seed, CycloRing(3, Point.ONE), table)
    assert at_one._product(((1, 2),)).ring == CycloRing(3, Point.ONE)
    # y^2 and y^3, y_0 and y_0 y^2 for each seed at eps, and y^2 at 1
    assert len(table) == 7
    assert table.terms == sum(len(f.terms) for f in table.values())


def test_splitting_compared_when_l_divides_a_and_no_term_is_kept(monkeypatch):
    # a split that keeps no term is the expected one only when l does not
    # divide a: a frp_star that returns zero must fail where l does
    monkeypatch.setattr(frobsplit, "frp_star",
                        lambda f: TorusElement.zero(CycloRing(f.ring.l, Point.ONE), f.form))
    session = TheoremSession(cell_seed("A2", A2_WORD, (0,)), 3)
    assert session.check((1, 0, 0)).passed
    out = session.check((3, 3, 0))
    assert (out.passed, out.checked, out.witness["branch"]) == (False, 2, "splitting")


def test_theorem_rejects_negative_exponents():
    session = TheoremSession(cell_seed("A2", A2_WORD), 3)
    with pytest.raises(ValueError):
        session.check((-1, 0, 0))


def _box(r, max_entry, l):
    """Every vector with entries up to max_entry, then l times every 0-1
    vector, so that l divides some at every order."""
    return (list(itertools.product(range(max_entry + 1), repeat=r))
            + [tuple(l * x for x in e) for e in itertools.product(range(2), repeat=r)])


def _depth_one(preset, word):
    return [cell_seed(preset, word)] + [cell_seed(preset, word, (p,))
                                        for p in cell_seed(preset, word).btilde.cols]


def _box_failures(seeds, orders, max_entry) -> int:
    """The FAILs of check, which compares whole expansions, on every vector
    of the box at every order."""
    failed = 0
    for seed in seeds:
        for l in orders:
            session = TheoremSession(seed, l)
            failed += sum(not session.check(a).passed for a in _box(seed.rank, max_entry, l))
    return failed


G2_WORD = (0, 1, 0)
DIFFERENTIAL = {
    "A3-box": (lambda: _depth_one("A3", A3_WORD), (3, 5), 3),
    "B2": (lambda: _seeds_to_depth_two("B2", B2_WORD), (3, 5, 7), 2),
    "G2": (lambda: _depth_one("G2", G2_WORD), (5, 7), 3),
    "A2-composite": (lambda: _seeds_to_depth_two("A2", A2_WORD), (9, 15), 3),
    "frozen-scaled": (lambda: [_scaled_frozen_seed(s) for s in (
        IntLaurent({1: 1}), IntLaurent({-2: -1}))], (3, 5), 2),
}


@pytest.mark.parametrize("case", list(DIFFERENTIAL))
def test_check_matches_whole_expansions(case):
    # the theorem holds on every box: check, the definition on whole
    # expansions, passes every vector
    seeds, orders, max_entry = DIFFERENTIAL[case]
    assert _box_failures(seeds(), orders, max_entry) == 0


def _reversed_eps_shift(monkeypatch):
    shift = CycloInt.eps_shift
    monkeypatch.setattr(CycloInt, "eps_shift", lambda c, k: shift(c, -k))


def _a3_block() -> int:
    """Where the exchangeable block of the A3 seeds ends."""
    return max(cell_seed("A3", A3_WORD).btilde.cols) + 1


def _twist_without_cross_term(monkeypatch):
    # twist(p + s) read as twist(p + 0) + twist(0 + s), p the block part
    twist, block = SkewForm.twist, _a3_block()
    monkeypatch.setattr(SkewForm, "twist", lambda form, a: (
        twist(form, a[:block]) + twist(form, (0,) * block + tuple(a[block:]))))


def _fr_star_times_eps(monkeypatch):
    push = frobsplit.fr_star

    def broken(f):
        out = push(f)
        return out.scale(eps_power(out.ring.l, 1)) if len(out.terms) > 1 else out

    monkeypatch.setattr(frobsplit, "fr_star", broken)


def _frp_star_negated(monkeypatch):
    split = frobsplit.frp_star
    monkeypatch.setattr(frobsplit, "frp_star",
                        lambda f: -out if len((out := split(f)).terms) > 1 else out)


# a broken primitive that check and check_all call, and whether check must fail
BROKEN = {"reversed-eps-shift": (_reversed_eps_shift, False),
          "no-cross-term": (_twist_without_cross_term, False),
          "fr-star-times-eps": (_fr_star_times_eps, True),
          "frp-star-negated": (_frp_star_negated, True)}


@pytest.mark.parametrize("name", list(BROKEN))
def test_check_matches_whole_expansions_with_a_broken_primitive(name, monkeypatch):
    # check_all fails under every break exactly when check does.  A break
    # that check need not catch must still reach an expansion at eps, or
    # the case would compare unbroken code.
    seeds = _depth_one("A3", A3_WORD)
    probe = (1, 1, 1, 1, 0, 0)
    before = [SeedExpander(seed, CycloRing(3, Point.EPS)).monomial(probe) for seed in seeds]
    breaks, must_fail = BROKEN[name]
    breaks(monkeypatch)
    after = [SeedExpander(seed, CycloRing(3, Point.EPS)).monomial(probe) for seed in seeds]
    assert must_fail or before != after
    failed = _box_failures(seeds, (3, 5), 1)
    assert failed or not must_fail
    rng = random.Random(f"check-all:{name}")
    assert bool(_compare_batches(seeds, (3, 5), _shuffled_box(1, rng))) == bool(failed)


def _check_each(session, vectors) -> CheckOutcome:
    """check(a) on each vector in order, up to the first FAIL: the loop
    check_all replaces."""
    checked = 0
    for a in vectors:
        step = session.check(a)
        checked += step.checked
        if not step.passed:
            return CheckOutcome(False, checked, step.witness, step.note)
    return CheckOutcome(True, checked)


def _compare_batches(seeds, orders, batches) -> int:
    """Assert check_all and _check_each give the same outcome on each batch
    (a function of seed and l), each side on a fresh session; the FAIL
    count."""
    failed = 0
    for seed in seeds:
        for l in orders:
            vectors = batches(seed, l)
            got = TheoremSession(seed, l).check_all(vectors)
            assert got == _check_each(TheoremSession(seed, l), vectors), (l, vectors)
            failed += not got.passed
    return failed


def _shuffled_box(max_entry, rng):
    """The box of _box, a quarter of it repeated, in a random order."""
    def batch(seed, l):
        vectors = _box(seed.rank, max_entry, l)
        vectors += rng.sample(vectors, len(vectors) // 4)
        rng.shuffle(vectors)
        return vectors
    return batch


@pytest.mark.parametrize("case", list(DIFFERENTIAL))
def test_check_all_matches_the_loop(case):
    # the same outcome as the loop, and on a passing batch only the vectors
    # l divides go through check(a)
    seeds, orders, max_entry = DIFFERENTIAL[case]
    batches = _shuffled_box(max_entry, random.Random(f"check-all:{case}"))
    for seed in seeds():
        for l in orders:
            vectors = batches(seed, l)
            session, fallbacks = TheoremSession(seed, l), []
            check = session.check
            session.check = lambda a: fallbacks.append(a) or check(a)
            got = session.check_all(vectors)
            assert got == _check_each(TheoremSession(seed, l), vectors)
            assert got.passed
            assert fallbacks == [a for a in vectors if not any(x % l for x in a)]


def _fr_star_extra_term(monkeypatch):
    # -1 is no multiple of l, so the term lands off every pushed support
    push = frobsplit.fr_star

    def broken(f):
        out = push(f)
        if len(out.terms) < 2:
            return out
        return out + TorusElement.monomial(out.ring, out.form, (-1,) * out.form.r)

    monkeypatch.setattr(frobsplit, "fr_star", broken)


def _changed_tail_at_one(monkeypatch, change):
    # each nonzero tail part at v = 1 passed through change
    part = SeedExpander.part

    def changed(expander, start, exponents):
        got = part(expander, start, exponents)
        if expander.ring.point is Point.ONE and start == expander.block and any(exponents):
            return change(got)
        return got

    monkeypatch.setattr(SeedExpander, "part", changed)


def _suffix_moved_at_one(monkeypatch):
    # the tail part at v = 1 one step along x_1, off from the one at eps
    def moved(tail):
        (b, c), = tail.terms.items()
        return TorusElement.monomial(tail.ring, tail.form, (b[0] + 1,) + b[1:], c)

    _changed_tail_at_one(monkeypatch, moved)


def _suffix_negated_at_one(monkeypatch):
    # the tail part at v = 1 times -1, against the one at eps
    _changed_tail_at_one(monkeypatch, TorusElement.__neg__)


def _twist_plus_one(monkeypatch, on_tail):
    # a twist one too large on each vector with a nonzero block part, or
    # with a nonzero tail part
    twist, block = SkewForm.twist, _a3_block()
    monkeypatch.setattr(SkewForm, "twist", lambda form, a: twist(form, a) + any(
        a[block:] if on_tail else a[:block]))


def _prefix_twist_plus_one(monkeypatch):
    _twist_plus_one(monkeypatch, False)


def _suffix_twist_plus_one(monkeypatch):
    _twist_plus_one(monkeypatch, True)


# breaks that the pushforward comparison sees on some vectors and not others
PUSHED_BREAKS = {"times-eps": _fr_star_times_eps, "extra-term": _fr_star_extra_term,
                 "suffix-moved": _suffix_moved_at_one,
                 "suffix-negated": _suffix_negated_at_one,
                 "prefix-twist": _prefix_twist_plus_one,
                 "suffix-twist": _suffix_twist_plus_one}


@pytest.mark.parametrize("name", list(PUSHED_BREAKS))
def test_check_all_stops_at_a_failure_mid_batch(name, monkeypatch):
    # the batch passes a run of vectors, fails at one, and leaves the rest
    seed = _depth_one("A3", A3_WORD)[1]
    PUSHED_BREAKS[name](monkeypatch)
    vectors = sorted(_box(seed.rank, 2, 3), key=sum)
    out = TheoremSession(seed, 3).check_all(vectors)
    assert out == _check_each(TheoremSession(seed, 3), vectors)
    assert not out.passed and 2 < out.checked < len(vectors)
    assert out.witness["branch"] == "pushforward"


def _term_at_three(expander, prefix, product):
    """An extra term x^{3 e_1} on each prefix 3 does not divide."""
    if not any(x % 3 for x in prefix):
        return product
    return product + TorusElement.monomial(expander.ring, expander.ambient,
                                           (3,) + (0,) * (expander.size - 1))


def _zero_at_three(expander, prefix, product):
    """No term on each nonzero prefix of entries 0 and 3."""
    if any(prefix) and set(prefix) <= {0, 3}:
        return TorusElement.zero(expander.ring, expander.ambient)
    return product


# a change to the block parts at eps that only the splitting sees, and
# the batch it must fail on at l = 3: a term kept where 3 does not divide a,
# or no term kept where it does
SPLIT_ONLY = {"kept-term": (_term_at_three, lambda r: _box(r, 1, 3)),
              "no-term": (_zero_at_three, lambda r: _box(r, 1, 3)[2 ** r:])}


@pytest.mark.parametrize("name", list(SPLIT_ONLY))
def test_check_all_compares_the_splitting_where_the_loop_does(name, monkeypatch):
    change, batch = SPLIT_ONLY[name]
    part = SeedExpander.part

    def changed(expander, start, exponents):
        product = part(expander, start, exponents)
        if expander.ring.point is Point.EPS and start == 0:
            product = change(expander, exponents, product)
        return product

    monkeypatch.setattr(SeedExpander, "part", changed)
    seeds = _depth_one("A3", A3_WORD)
    failed = _compare_batches(seeds, (3,), lambda seed, l: batch(seed.rank))
    assert failed == len(seeds)


class _Stub:
    """An expander for check_all's line-ups whose block parts all have the
    terms given, so with fr_star the identity every block part lines up,
    and whose tail parts are the terms given for each."""

    def __init__(self, size, terms, tails):
        self.block, self.size, self.terms, self.tails = size - 1, size, terms, tails

    def part(self, start, exponents):
        # an empty exponent tuple is the block part of a one-entry vector
        tail = start == self.block and exponents
        return types.SimpleNamespace(terms=self.tails[exponents] if tail else self.terms)


def _residue_session(l, exponents, b) -> TheoremSession:
    """A session at l, on a zero form, whose block parts at eps have the
    given term exponents and whose tail part (1,) is x^b at eps, lined up
    with x^0 at 1; check(a) records a and passes.  The caller makes fr_star
    the identity."""
    r = len(b)
    terms = dict.fromkeys(exponents, 1)
    zero = {(0,) * r: 1}
    session = TheoremSession.__new__(TheoremSession)
    session.l, session.seed = l, types.SimpleNamespace(lam=SkewForm([[0] * r] * r))
    session.at_one = _Stub(r, terms, {(1,): zero})
    session.at_eps = _Stub(r, terms, {(1,): {b: 1}, (l,): zero})
    session.fallbacks = []
    session.check = lambda a: session.fallbacks.append(a) or CheckOutcome(True, 2)
    return session


@pytest.mark.parametrize("l", [3, 5, 9, 15])
def test_residue_test_matches_the_exponent_loop(l, monkeypatch):
    # check_all passes a vector l does not divide exactly when no term
    # exponent q of its block part at eps has l | q + b, the loop it
    # replaced; q and b take negative entries and every residue class
    monkeypatch.setattr(frobsplit, "fr_star", lambda f: f)
    rng = random.Random(f"residues:{l}")
    decisions = set()
    for _ in range(400):
        r = rng.randint(1, 4)
        b = tuple(rng.randrange(-2 * l, 2 * l) for _ in range(r))
        exponents = {tuple(rng.randrange(-2 * l, 2 * l) for _ in range(r))
                     for _ in range(rng.randint(0, 6))}
        if rng.random() < 0.5:
            # one term at -b mod l, or one coordinate off it
            q = [l * rng.randint(-2, 2) - x for x in b]
            q[rng.randrange(r)] += rng.random() < 0.5
            exponents.add(tuple(q))
        session = _residue_session(l, exponents, b)
        a = tuple(rng.randrange(3 * l) for _ in range(r - 1)) + (1,)
        assert session.check_all([a]) == CheckOutcome(True, 2)
        passes = all(any(map(l.__rmod__, map(add, q, b))) for q in exponents)
        assert session.fallbacks == ([] if passes else [a]), (exponents, b)
        decisions.add(passes)
    assert decisions == {True, False}


@pytest.mark.parametrize("as_list", [False, True])
def test_check_all_raises_what_check_raises(as_list):
    # a bad vector after passing ones, some of them with its block or tail
    # part, or with a part equal to an integral one
    seed = _depth_one("A3", A3_WORD)[1]
    session = TheoremSession(seed, 3)
    good = [(1, 1, 0, 2, 1, 1), (1, 1, 0, 1, 2, 2), (2, 0, 1, 1, 1, 1)]
    bad = [(1, 1, 0, 1, 1, -1), (-1, 1, 0, 1, 1, 1), (1, 1, 0, 1, 1),
           (1, 1, 0, 2, 1, 1, 0), (1, 1, -1, 1, 1), (),
           (1, 1, 0, 2, 1, 1.5), (1.7, 1, 0, 2, 1, 1), (1.0, 1.0, 0.0, 2, 1, 0.5),
           (2.5, 1), (1, 1, 0, 2, 1, 1.0, 0.5)]
    for vector in bad:
        vectors = [list(v) if as_list else v for v in good + [vector]]
        assert session.check_all(vectors[:-1]).passed
        with pytest.raises(ValueError) as single:
            session.check(vectors[-1])
        with pytest.raises(ValueError, match=f"^{single.value}$"):
            session.check_all(vectors)
        with pytest.raises(ValueError, match=f"^{single.value}$"):
            TheoremSession(seed, 3).check_all(vectors)


def test_modp_division_on_cluster_monomials():
    for mutations in [(), (0,)]:
        seed = cell_seed("A2", A2_WORD, mutations)
        exp = SeedExpander(seed, PrimeField(3))
        for a in itertools.product(range(4), repeat=3):
            out = check_modp_division(exp, a)
            assert out.passed, (mutations, a, out.witness)


def test_modp_division_explicit_values():
    exp = SeedExpander(cell_seed("A2", A2_WORD), PrimeField(3))
    got = modp_split(exp.monomial((3, 0, 0)))
    assert set(got.terms) == {(1, 0, 0)}
    assert not modp_split(exp.monomial((1, 0, 0)))


@pytest.mark.parametrize("p", [3, 5])
def test_modp_division_matches_the_whole_split(p):
    # check_modp_division against an oracle that never uses SeedExpander:
    # the split of x^a expanded over Z[v, v^-1] and mapped to F_p, against
    # x^{a/p} mapped the same way, or zero, on the A3 0-1 box and p times it
    field = PrimeField(p)
    for seed in _depth_one("A3", A3_WORD):
        expander = SeedExpander(seed, field)
        for a in _box(6, 1, p):
            split = modp_split(to_ring(cluster_monomial(seed, a), field))
            if any(x % p for x in a):
                want = TorusElement.zero(field, split.form)
            else:
                want = to_ring(cluster_monomial(seed, tuple(x // p for x in a)), field)
            got = check_modp_division(expander, a)
            assert (got.passed, got.checked) == (split == want, 1), (a, got.witness)
