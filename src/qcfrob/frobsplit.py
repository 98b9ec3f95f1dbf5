"""Root-of-unity specialization of torus expansions and the exponent maps
between the specialized tori.

The engine computes cluster variables exactly over integer Laurent
coefficients; here those expansions are pushed to the cyclotomic rings at
v = 1 and v = eps (or to a prime field with v = 1), where the maps that
scale exponent vectors by l, divide them by l, or divide them by p live.
The headline identity checked by TheoremSession is that both maps send
cluster monomials to cluster monomials.
"""

from __future__ import annotations

import math
from operator import add, mul

from .coeff import CycloInt, IntLaurent, Point
from .qtorus import CycloRing, PrimeField, SkewForm, TorusElement
from .rootdatum import int_vector, is_reduced
from .uqn import CheckOutcome


# -- moving expansions between coefficient rings ---------------------------

def to_ring(f: TorusElement, ring) -> TorusElement:
    """Map integer-Laurent coefficients into ring, coefficientwise on the
    monomial basis; multiplicative because ring.from_laurent is a ring map
    sending v^m to the ring's v_shift(one(), m), so products of mapped
    variables, as SeedExpander takes them, are the mapped products."""
    return TorusElement(ring, f.form, {a: ring.from_laurent(c) for a, c in f.terms.items()})


def spec_torus(f: TorusElement, l: int, point: Point) -> TorusElement:
    """Specialize integer-Laurent coefficients at v = 1 or v = eps."""
    return to_ring(f, CycloRing(l, point))


def _cyclo_ring(f: TorusElement, point: Point) -> CycloRing:
    ring = f.ring
    if not isinstance(ring, CycloRing) or ring.point is not point:
        raise ValueError(f"expected a cyclotomic torus element at {point.name}")
    return ring


# -- the exponent-scaling maps ---------------------------------------------

def fr_star(f: TorusElement) -> TorusElement:
    """Push forward from the v=1 torus to the v=eps torus by a -> l a.

    A ring homomorphism: the image monomials commute up to
    eps^{(l+1)/2 * L(la, lb)} and l divides l^2 L(a, b), so the inserted
    root-of-unity powers are all 1.  Both tori have Z[eps] coefficients, so
    f's canonical terms stay canonical.
    """
    l = _cyclo_ring(f, Point.ONE).l
    return TorusElement.from_canonical(
        CycloRing(l, Point.EPS), f.form,
        {tuple(l * x for x in a): c for a, c in f.terms.items()})


def _divide_exponents(f: TorusElement, d: int, ring) -> TorusElement:
    """Keep the monomials of f with all exponents divisible by d, divide
    those by d, kill everything else; the result lives over ring, whose
    canonical form is f's, so the kept terms stay canonical."""
    return TorusElement.from_canonical(ring, f.form, {
        tuple(x // d for x in a): c for a, c in f.terms.items()
        if all(x % d == 0 for x in a)})


def frp_star(f: TorusElement) -> TorusElement:
    """Split back from the v=eps torus: keep monomials with all exponents
    divisible by l, divide those by l, kill everything else."""
    l = _cyclo_ring(f, Point.EPS).l
    return _divide_exponents(f, l, CycloRing(l, Point.ONE))


def modp_split(f: TorusElement) -> TorusElement:
    """Characteristic-p splitting on the commutative mod-p torus: keep
    monomials with exponents divisible by p and divide them by p.

    Coefficients are fixed since x -> x^p is the identity on F_p.
    """
    if not isinstance(f.ring, PrimeField):
        raise ValueError("expected a mod-p torus element")
    return _divide_exponents(f, f.ring.p, f.ring)


def embed_padded(f: TorusElement, wide_form: SkewForm) -> TorusElement:
    """Reindex into a wider torus by padding exponent vectors with zeros."""
    extra = wide_form.r - f.form.r
    if extra < 0:
        raise ValueError("target torus is narrower than the source")
    pad = (0,) * extra
    return TorusElement(f.ring, wide_form, {a + pad: c for a, c in f.terms.items()})


def reduction_commutes(datum, word, prefix: int, field: PrimeField, rng,
                       trials: int) -> CheckOutcome:
    """Splitting on the torus of the word's first prefix letters agrees with
    splitting after the zero-padding embedding into the full word's torus,
    on trials random elements over field drawn from rng.

    The mod-p torus is commutative, so both tori carry the zero form.
    """
    if not is_reduced(datum, word):
        raise ValueError("word is not reduced")
    if not 1 <= prefix <= len(word):
        raise ValueError("prefix length out of range")
    # every prefix of a reduced word is reduced, so the prefix needs no check
    block, wide_form = (SkewForm([[0] * r] * r) for r in (prefix, len(word)))
    for checked in range(1, trials + 1):
        f = random_torus_element(rng, field, block, nterms=5)
        left = embed_padded(modp_split(f), wide_form)
        right = modp_split(embed_padded(f, wide_form))
        if left != right:
            witness = _first_difference(left, right)
            witness["element"] = repr(f)
            return CheckOutcome(False, checked, witness=witness)
    return CheckOutcome(True, trials)


# -- expanding cluster monomials over a specialized ring -------------------

class ProductTable(dict):
    """Products of cluster-variable powers over specialized rings, keyed by
    their factors, for every SeedExpander given the table.

    A product y_{t_1}^{e_1} ... y_{t_k}^{e_k} (t_1 < ... < t_k, every e
    nonzero) is keyed by the ring, the ambient form and the tuple of
    (terms of y_t, e); a power y^e is the one-factor case, and the empty
    product is 1.  An entry names the elements multiplied, not a seed: the
    seeds of a cell share most of their cluster variables, and every seed
    of a word shares its frozen ones, which never mutate.  terms counts the
    terms the entries hold.  A table lives as long as its owner: an
    expander's private one, or the one a group of theorem batches shares.
    """

    terms = 0


class SeedExpander:
    """Cluster-monomial expansions of one seed over a fixed coefficient ring.

    Expanding directly over the specialized ring is legitimate because the
    coefficient specialization is a ring map, so it commutes with the
    normal-ordered product defining x^a.  Split a = p + s at the end of the
    leading block of positions (up to the last exchangeable one).  Positions
    past the block are never mutated, and each of their variables is one
    term, so part(block, s) is one term c x^b.  monomial(a) is one pass of
    unit shifts over part(0, p):
    c_q x^q -> v_shift(c_q, twist(a) + L(q, b)) x^{q+b},
    times c only where c is not the ring's one.  Each term is a product of
    nonzero coefficients over a domain (Z[v, v^-1], Z[eps] or F_p), so none
    needs canon.

    The parts come from a ProductTable: a private one by default, or the
    products table passed in, which may serve every expander of every seed
    over any ring whose coefficients hash.  The twist, which reads the
    seed's form, is taken per vector.
    """

    def __init__(self, seed, ring, products: ProductTable | None = None):
        self.seed = seed
        self.ring = ring
        self.size = len(seed.variables)
        self.variables = [to_ring(y, ring) for y in seed.variables]
        self.ambient = self.variables[0].form
        cols = seed.btilde.cols
        self.block = (max(cols) + 1) if cols else 0
        if any(len(y.terms) != 1 for y in self.variables[self.block:]):
            raise ValueError("variables past the exchangeable block are not monomials")
        self._one = ring.one()
        self._table = ProductTable() if products is None else products
        self._keys = [frozenset(y.terms.items()) for y in self.variables]
        self._parts: dict = {}

    def _product(self, factors) -> TorusElement:
        """The ordered product of y_t^e over factors, (t, e) pairs with e
        nonzero and t increasing, from the table."""
        key = self.ring, self.ambient, tuple([(self._keys[t], e) for t, e in factors])
        got = self._table.get(key)
        if got is None:
            if not factors:
                got = TorusElement.one(self.ring, self.ambient)
            elif len(factors) == 1:
                (t, e), = factors
                got = self.variables[t] ** e
            else:
                got = self._product(factors[:-1]) * self._product(factors[-1:])
            self._table[key] = got
            self._table.terms += len(got.terms)
        return got

    def part(self, start: int, exponents: tuple) -> TorusElement:
        """The ordered product of y_t^{e_t} over t = start, start + 1, ...,
        e_t the exponents in turn.  A negative e_t raises ValueError from
        the power, so no part or product with one is ever stored."""
        got = self._parts.get((start, exponents))
        if got is None:
            got = self._parts[start, exponents] = self._product(
                tuple([(t, e) for t, e in enumerate(exponents, start) if e]))
        return got

    def monomial(self, a) -> TorusElement:
        """Expansion of the normalized cluster monomial x^a at this ring."""
        a = int_vector(a)
        if len(a) != self.size:
            raise ValueError("exponent vector has wrong length")
        ring, block = self.ring, self.block
        (b, c), = self.part(block, a[block:]).terms.items()
        mb, twist = self.ambient.image(b), self.seed.lam.twist(a)
        shift = ring.v_shift if c == self._one else lambda cq, k: ring.mul_v(cq, c, k)
        return TorusElement.from_canonical(ring, self.ambient, {
            tuple(map(add, q, b)): shift(cq, twist + sum(map(mul, q, mb)))
            for q, cq in self.part(0, a[:block]).terms.items()})


def _first_difference(left: TorusElement, right: TorusElement) -> dict:
    for key in sorted(set(left.terms) | set(right.terms)):
        cl, cr = left.coeff(key), right.coeff(key)
        if cl != cr:
            return {"monomial": list(key), "left": repr(cl), "right": repr(cr)}
    raise AssertionError("elements do not differ")


def _split_mismatch(split: TorusElement, expander: SeedExpander, a, d: int) -> dict | None:
    """None when split, x^a's expansion split by d, is the expansion of
    x^{a/d} on expander (zero when d does not divide a); else a witness."""
    if all(x % d == 0 for x in a):
        expected = expander.monomial(tuple(x // d for x in a))
    else:
        expected = TorusElement.zero(expander.ring, expander.ambient)
    if split == expected:
        return None
    witness = _first_difference(split, expected)
    witness["exponent"] = list(a)
    return witness


# -- the theorem checker ---------------------------------------------------

def require_valid_order(datum, l: int):
    """The root-of-unity order must be odd and coprime to twice every
    symmetrizer entry."""
    if l < 3 or l % 2 == 0:
        raise ValueError("order must be an odd integer >= 3")
    for t in datum.sym:
        if math.gcd(l, 2 * t) != 1:
            raise ValueError(f"order {l} is not coprime to the root length 2*{t}")


class TheoremSession:
    """Checks, for one mutated seed and one odd order l, that the exponent
    maps between the v=1 and v=eps tori send cluster monomials to cluster
    monomials: the pushforward takes x^a at 1 to x^{la} at eps, and the
    splitting takes x^a at eps to x^{a/l} at 1 (zero when l does not
    divide a).

    check(a) checks one vector by the definition, on whole expansions: its
    pushforward branch compares fr_star of x^a at 1 with x^{la} at eps, and
    its splitting branch frp_star of x^a at eps with x^{a/l} at 1, or zero.

    check_all(vectors) checks a batch with the same outcome as check on
    each vector in turn.  It compares the two sides of the pushforward once
    per block part and once per tail part, where every unit shift between
    them is trivial, and builds no expansion for a vector that passes.  A
    vector whose splitting has something to compare, or whose block or
    tail part does not line up, goes through check.

    products, when given, is the ProductTable both expanders share.  It may
    outlive the session: its products serve every later seed with the same
    factors, at either point and order, while the twists are read from
    each session's seed."""

    def __init__(self, seed, l: int, products: ProductTable | None = None):
        require_valid_order(seed.datum, l)
        self.seed = seed
        self.l = l
        self.at_one = SeedExpander(seed, CycloRing(l, Point.ONE), products)
        self.at_eps = SeedExpander(seed, CycloRing(l, Point.EPS), products)

    def check(self, a) -> CheckOutcome:
        l = self.l
        a = int_vector(a)
        pushed = fr_star(self.at_one.monomial(a))
        scaled = self.at_eps.monomial(tuple([l * x for x in a]))
        if pushed != scaled:
            witness = _first_difference(pushed, scaled)
            witness.update(branch="pushforward", exponent=list(a))
            return CheckOutcome(False, 1, witness=witness)

        witness = _split_mismatch(frp_star(self.at_eps.monomial(a)), self.at_one, a, l)
        if witness is not None:
            witness["branch"] = "splitting"
            return CheckOutcome(False, 2, witness=witness)
        return CheckOutcome(True, 2)

    def check_all(self, vectors) -> CheckOutcome:
        """check(a) on each vector in order, up to the first FAIL: the
        batch's verdict, the checks counted up to there, and that FAIL's
        witness and note.

        Split a = p + s at the end of the block, so that x^{la} at eps is
        v^{twist(l a)} part(0, l p) part(block, l s) at eps.  twist(l a)
        = l^2 twist(a), and where part(0, l p) and part(block, l s) at eps
        have the terms of the pushforwards of part(0, p) and part(block, s)
        at 1, with l dividing twist(l p + 0) and twist(0 + l s), every shift
        between the two sides is eps^{k(l+1)/2} for k a multiple of l, which
        is 1.  So x^{la} at eps is then the pushforward of x^a.  With q an
        exponent of part(0, p) at eps and x^b the one term of part(block, s)
        at eps, the splitting keeps the term of x^a at eps at q + b exactly
        when l divides q + b, that is when q = -b mod l.  So a vector whose
        parts both line up, that l does not divide (l does not divide both
        p and s), and whose -b mod l is none of the residues mod l of the
        exponents of part(0, p) at eps passes with no expansion built.  The
        int conversion, the line-ups, divisibility and residues are worked
        out once per block part and once per tail part; a negative entry
        raises from part, in a line-up or in check.  Every other vector, or
        one of the wrong length, goes through check(a), the only code that
        builds witnesses."""
        block, size = self.at_one.block, self.at_one.size
        heads: dict = {}
        tails: dict = {}
        checked = 0
        for a in vectors:
            a = tuple(a)
            if len(a) == size:
                head, tail = a[:block], a[block:]
                p, s = heads.get(head), tails.get(tail)
                if p is None or s is None:
                    ints = int_vector(a)
                    if p is None:
                        p = heads[head] = self._lined_up(0, ints[:block], 1)
                    if s is None:
                        s = tails[tail] = self._lined_up(block, ints[block:], -1)
                (p_divides, residues), (s_divides, negated) = p, s
                if residues is not None and negated is not None and not (
                        p_divides and s_divides) and residues.isdisjoint(negated):
                    checked += 2
                    continue
            step = self.check(a)
            checked += step.checked
            if not step.passed:
                return CheckOutcome(False, checked, step.witness, step.note)
        return CheckOutcome(True, checked)

    def _lined_up(self, start: int, u: tuple, sign: int) -> tuple:
        """(whether l divides u, the residues mod l of sign times the
        exponents of part(start, u) at eps), the residues None unless l
        divides twist(0 + l u) and part(start, l u) at eps has the terms of
        the pushforward of part(start, u) at 1."""
        l = self.l
        lu = tuple([l * x for x in u])
        divides = not any(map(l.__rmod__, u))
        if self.seed.lam.twist((0,) * start + lu) % l or (
                self.at_eps.part(start, lu).terms != fr_star(self.at_one.part(start, u)).terms):
            return divides, None
        return divides, {tuple([sign * x % l for x in q]) for q in self.at_eps.part(start, u).terms}


def check_modp_division(expander: SeedExpander, a) -> CheckOutcome:
    """Mod-p shadow of the theorem: the splitting of the mod-p expansion of
    x^a is the expansion of x^{a/p}, or zero when p does not divide a."""
    a, p = int_vector(a), expander.ring.p
    witness = _split_mismatch(modp_split(expander.monomial(a)), expander, a, p)
    return CheckOutcome(witness is None, 1, witness=witness)


# -- randomized property material ------------------------------------------

def random_torus_element(rng, ring, form: SkewForm, *, nterms=3):
    """Small random element for property trials: exponents in -2..2,
    coefficients exercising the whole ring (all powers of eps over a
    cyclotomic ring) with integer entries in -4..4."""
    terms: dict = {}
    for _ in range(nterms):
        a = tuple(rng.randint(-2, 2) for _ in range(form.r))
        if isinstance(ring, CycloRing):
            c = CycloInt(ring.l, [rng.randint(-4, 4) for _ in range(ring.l - 1)])
        else:
            c = ring.from_laurent(IntLaurent.from_int(rng.randint(-4, 4)))
        terms[a] = terms[a] + c if a in terms else c
    return TorusElement(ring, form, terms)


def check_split_axioms(rank: int, field: PrimeField, rng, trials: int) -> CheckOutcome:
    """The defining identities of a splitting on the torus of the given rank
    over field = F_p, which is commutative and so carries the zero form:
    fixes 1, satisfies the projection formula phi(f^p g) = f phi(g), and
    inverts the p-th power map."""
    form = SkewForm([[0] * rank] * rank)
    one = TorusElement.one(field, form)
    if modp_split(one) != one:
        return CheckOutcome(False, 1, witness={"identity": "phi(1) != 1"})
    # each trial checks two identities, after the 1 checked above
    for checked in range(2, 2 * trials + 2, 2):
        f = random_torus_element(rng, field, form)
        g = random_torus_element(rng, field, form)
        fp = f ** field.p
        if modp_split(fp * g) != f * modp_split(g):
            return CheckOutcome(False, checked,
                                witness={"identity": "projection formula",
                                         "f": repr(f), "g": repr(g)})
        if modp_split(fp) != f:
            return CheckOutcome(False, checked + 1,
                                witness={"identity": "phi(f^p) != f", "f": repr(f)})
    return CheckOutcome(True, 2 * trials + 1)
