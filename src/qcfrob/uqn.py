"""The positive half of a quantized enveloping algebra, seen through its
integrable modules.

Integrable highest-weight modules are realized on formal lowering words,
and every functional here is a matrix coefficient of the action on such a
module, so it kills the quantum Serre relations without any quotient being
taken (the tests check this on the minors).  Quantum minors are the matrix
coefficients at extremal vectors; divided powers carry the Frobenius-type
exponent division by the root-of-unity order.

A functional is held on its support, as {word: value} over the words where
it does not vanish.  The product of two functionals, dual to the twisted
coproduct, is the quantum shuffle of their supports (Rosso, Invent. Math.
133, 1998; Leclerc, Adv. Math. 190, 2004): each pair of support words
contributes on every interleaving of the two, times a v power.  A minor
finds its support by a depth-first search over e-actions from its extremal
vector that stops wherever the vector dies.

Every module vector and functional value lies in Z[v, v^-1]: divided powers
act integrally on integrable modules (Lusztig's integral form).  A minor
acts on the extremal lowering word with coefficient 1 and divides its value
once, exactly, by prod [a_t]! over the word's divided-power exponents; a
divided word is evaluated on its underlying word and divided exactly by
prod [n]!.  These are the only two divisions, and an inexact one raises
ExactDivisionError.

Each check compares two sides on the words, or divided words, over their
supports in lexicographic order, as every other one is zero on both sides,
and ranks a failure among all those of its weight (word_rank,
divided_word_rank).

The e-action memo and every support are owned by one top-level call
(commutation_matrix, check_frobenius_on_minor or check_minor_power) and
die with it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import comb

from .coeff import ExactDivisionError, IntLaurent, Point, qfactorial, qint, specialize
from .rootdatum import CartanData, RootVector, Weight


class NotQCommutingError(ValueError):
    """Two functionals failed to commute up to a single integer power of q."""


def word_count(gamma: RootVector) -> int:
    """Number of words of weight gamma, without enumerating them: the
    multinomial coefficient, as binomials placing the rarer letters among
    the commonest, so it stays cheap when one count is huge."""
    out, total = 1, 0
    for c in sorted(gamma.coords, reverse=True):
        total += c
        out *= comb(total, c)
    return out


# -- twisted coproduct -----------------------------------------------------

def word_splits(datum: CartanData, word):
    """Every two-sided split of a word with its coproduct twist exponent.

    Returns (left, right, e) triples: the term v^e (left x right) of the
    coproduct of the word, where e collects -(alpha_s, alpha_k) over pairs
    with s earlier than k, s sent right and k sent left.
    """
    m = len(word)
    rf = datum.root_form
    out = []
    for mask in range(1 << m):
        left, right = [], []
        expo = 0
        for k in range(m):
            if mask >> k & 1:
                for s in range(k):
                    if not (mask >> s & 1):
                        expo -= 2 * rf(word[s], word[k])
                left.append(word[k])
            else:
                right.append(word[k])
        out.append((tuple(left), tuple(right), expo))
    return out


# -- integrable modules on lowering words ----------------------------------
#
# A vector in V(hw) is a dict {fword: IntLaurent}; the fword (j_1, ..., j_m)
# stands for f_{j_1} ... f_{j_m} applied to the highest weight vector.
# Radical vectors are carried along formally and die under the pairing.
# `cache` memoizes e_on_fword for one top-level call.

def e_on_fword(datum: CartanData, hw: Weight, i: int, fword, cache: dict) -> dict:
    key = (hw, i, fword)
    hit = cache.get(key)
    if hit is not None:
        return hit
    out: dict = {}
    mu = hw  # weight below the removed part: hw - sum_{s > p} alpha_{j_s}
    for p in range(len(fword) - 1, -1, -1):
        if fword[p] == i:
            c = qint(mu.coords[i], datum.sym[i])
            if c:
                rest = fword[:p] + fword[p + 1:]
                cur = out.get(rest)
                out[rest] = c if cur is None else cur + c
        mu = mu - datum.alpha(fword[p])
    out = {w: c for w, c in out.items() if c}
    cache[key] = out
    return out


def e_act(datum: CartanData, hw: Weight, i: int, vec: dict, cache: dict) -> dict:
    out: dict = {}
    for fword, c in vec.items():
        for rest, step in e_on_fword(datum, hw, i, fword, cache).items():
            cur = out.get(rest)
            out[rest] = c * step if cur is None else cur + c * step
    return {w: c for w, c in out.items() if c}


def extremal_fword(datum: CartanData, hw: Weight, word):
    """The extremal vector of weight word(hw) as (fword, divisor): the
    lowering word f_{i_1}^{a_1} ... f_{i_r}^{a_r} and prod [a_t]!, the
    vector being fword / divisor.

    Exponents are read off hw right to left: a_t = <h_{i_t}, s_{i_{t+1}}
    ... s_{i_r} hw>.  Requires a dominant hw and a word along which all
    exponents stay nonnegative.
    """
    if not hw.is_dominant:
        raise ValueError("highest weight must be dominant")
    running = hw
    exps = [0] * len(word)
    for t in range(len(word) - 1, -1, -1):
        a = running.coords[word[t]]
        if a < 0:
            raise ValueError(f"negative divided power at position {t}")
        exps[t] = a
        running = datum.reflect(word[t], running)
    fword = []
    divisor = IntLaurent.one()
    for t, i in enumerate(word):
        fword.extend([i] * exps[t])
        if exps[t] > 1:
            divisor = divisor * qfactorial(exps[t], datum.sym[i])
    return tuple(fword), divisor


# -- functionals and quantum minors ----------------------------------------

class Functional:
    """Weight-homogeneous functional on the free algebra, held as its
    nonzero values {word: IntLaurent}, all on words of weight gamma."""

    __slots__ = ("datum", "gamma", "values")

    def __init__(self, datum, gamma: RootVector, values: dict):
        self.datum = datum
        self.gamma = gamma
        self.values = values

    def __call__(self, word) -> IntLaurent:
        hit = self.values.get(tuple(word))
        return IntLaurent.zero() if hit is None else hit

    def __mul__(self, other: "Functional") -> "Functional":
        return shuffle_product(self, other)

    def __pow__(self, n: int) -> "Functional":
        if n < 0:
            raise ValueError("functional powers need n >= 0")
        out = counit(self.datum)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self):
        return f"Functional(gamma={self.gamma.coords})"


def counit(datum: CartanData) -> Functional:
    return Functional(datum, RootVector((0,) * datum.n), {(): IntLaurent.one()})


def shuffle_product(phi: Functional, psi: Functional) -> Functional:
    """Product in the graded dual, dual to the twisted coproduct: the
    quantum shuffle of the two supports.

    For u in supp phi and r in supp psi, every interleaving w of u (read on
    the left factor's positions) and r gets phi(u) psi(r) v^e, where e is
    the twist of the coproduct split sending u left and r right: -2 times
    the sum of (alpha_{w_s}, alpha_{w_k}) over pairs s < k with s from r
    and k from u.
    """
    if phi.datum != psi.datum:
        raise ValueError("functionals over different Cartan data")
    datum = phi.datum
    rf = datum.root_form
    acc: dict = {}
    if phi.values and psi.values:
        m = len(next(iter(phi.values)))
        k = len(next(iter(psi.values)))
        # per interleaving: the index in u + r of the letter at each
        # position, and for each letter of u the number of letters of r
        # before it
        shapes = []
        for pos in itertools.combinations(range(m + k), m):
            order = [0] * (m + k)
            for i, p in enumerate(pos):
                order[p] = i
            rest = (p for p in range(m + k) if p not in pos)
            for j, p in enumerate(rest):
                order[p] = m + j
            shapes.append((order, [p - i for i, p in enumerate(pos)]))
        letters = range(datum.n)
        for r, b in psi.values.items():
            # before[j][x] = -2 * sum over the first j letters y of r of (alpha_y, alpha_x)
            before = [[0] * datum.n]
            for y in r:
                before.append([c - 2 * rf(y, x) for c, x in zip(before[-1], letters)])
            for u, a in phi.values.items():
                ur = u + r
                twists = [[row[x] for row in before] for x in u]
                # interleavings that spell one word: how many per twist
                spelled: dict = {}
                for order, ahead in shapes:
                    word = tuple(map(ur.__getitem__, order))
                    e = sum(map(list.__getitem__, twists, ahead))
                    counts = spelled.get(word)
                    if counts is None:
                        spelled[word] = {e: 1}
                    else:
                        counts[e] = counts.get(e, 0) + 1
                terms = (a * b).terms.items()
                for word, counts in spelled.items():
                    out = acc.get(word)
                    if out is None:
                        out = acc[word] = {}
                    for e, n in counts.items():
                        for ex, c in terms:
                            out[ex + e] = out.get(ex + e, 0) + n * c
    values = {}
    for word, terms in acc.items():
        val = IntLaurent(terms)
        if val:
            values[word] = val
    return Functional(datum, phi.gamma + psi.gamma, values)


def quantum_minor(datum: CartanData, hw: Weight, prefix, cache=None) -> Functional:
    """Matrix coefficient x -> (x v_{w hw}, v_hw) for w the given word prefix.

    Supported on the single weight hw - w(hw).  The value on a word is the
    empty-fword coefficient after acting on the extremal fword, divided by
    prod [a_t]!; the words where it is nonzero are found by applying e_i
    for the word's letters from the right, depth first, leaving a branch
    as soon as the vector is zero.  `cache` memoizes the e-action; by
    default the minor owns one.  An inexact division raises
    ExactDivisionError with the first such word, in lexicographic order,
    as its witness.
    """
    prefix = tuple(prefix)
    fword, divisor = extremal_fword(datum, hw, prefix)
    low = datum.apply_word(prefix, hw)
    gamma = datum.weight_to_root(hw - low)
    if any(c < 0 for c in gamma.coords):
        raise ValueError("extremal weight not below the highest weight")
    cache = {} if cache is None else cache
    values: dict = {}
    suffix: list = []

    def search(vec):
        if len(suffix) == len(fword):
            values[tuple(reversed(suffix))] = vec[()]
            return
        for i in range(datum.n):
            step = e_act(datum, hw, i, vec, cache)
            if step:
                suffix.append(i)
                search(step)
                suffix.pop()

    search({fword: IntLaurent.one()})
    if not divisor.is_one:
        for word in sorted(values):
            try:
                values[word] = values[word].exact_div(divisor)
            except ExactDivisionError as exc:
                raise ExactDivisionError(str(exc), witness=word) from None
    return Functional(datum, gamma, values)


def cell_minors(datum: CartanData, word) -> list:
    """The chain of minors D_t attached to the prefixes of a word, sharing
    one e-action memo."""
    word = tuple(word)
    cache: dict = {}
    return [quantum_minor(datum, datum.fundamental(word[t]), word[: t + 1], cache)
            for t in range(len(word))]


def chain_minor_weight(datum: CartanData, word, t: int) -> RootVector:
    """The weight gamma_t = varpi - w_{<=t} varpi of the chain minor D_t."""
    hw = datum.fundamental(word[t])
    return datum.weight_to_root(hw - datum.apply_word(word[: t + 1], hw))


def commutation_matrix(datum: CartanData, word) -> tuple:
    """Commutation exponents of the minor chain: D_k D_t = q^{m_tk} D_t D_k for t < k.

    Each pair is compared on the union of the two products' supports, in
    lexicographic order; every other word of the weight is zero on both
    sides.  Failure to q-commute by a single even power of v raises
    NotQCommutingError.
    """
    word = tuple(word)
    minors = cell_minors(datum, word)
    r = len(word)
    mat = [[0] * r for _ in range(r)]
    for t in range(r):
        for k in range(t + 1, r):
            left = minors[k] * minors[t]    # D_k D_t
            right = minors[t] * minors[k]   # D_t D_k
            m = None
            for w in sorted(left.values.keys() | right.values.keys()):
                a, b = left(w), right(w)
                if bool(a) != bool(b):
                    raise NotQCommutingError(
                        f"minors {t}, {k}: value vanishes on one side only at {w}")
                expo = a.min_exp() - b.min_exp()
                if expo % 2 or a != b.shifted(expo):
                    raise NotQCommutingError(
                        f"minors {t}, {k}: ratio at {w} is not an integer power of q")
                if m is None:
                    m = expo // 2
                elif m != expo // 2:
                    raise NotQCommutingError(
                        f"minors {t}, {k}: inconsistent powers {m} and {expo // 2}")
            if m is None:
                raise NotQCommutingError(f"minors {t}, {k}: product vanishes identically")
            mat[t][k] = m
            mat[k][t] = -m
    return tuple(tuple(row) for row in mat)


# -- divided words and Frobenius-type exponent maps ------------------------

def divided_word_count(gamma: RootVector) -> int:
    """Number of divided words of weight gamma, without enumerating them:
    the entries of letter i form a composition of gamma_i into some k_i
    parts, and the entries of different letters interleave freely."""
    total = 0
    for parts in itertools.product(*(range(1, c + 1) if c else (0,)
                                     for c in gamma.coords)):
        ways = word_count(RootVector(parts))
        for c, k in zip(gamma.coords, parts):
            if c:
                ways *= comb(c - 1, k - 1)
        total += ways
    return total


def divided_value(f: Functional, dword, memo: dict) -> IntLaurent:
    """f on e_{i_1}^{(n_1)} e_{i_2}^{(n_2)} ...: f on the underlying word,
    divided exactly by prod [n]!.  `memo` holds, for one f and per multiset
    of powers, the divisor and the quotients taken by it."""
    word = tuple(i for i, n in dword for _ in range(n))
    val = f(word)
    if not val:
        return val
    key = tuple(sorted(dword))
    entry = memo.get(key)
    if entry is None:
        divisor = IntLaurent.one()
        for i, n in key:
            if n > 1:
                divisor = divisor * qfactorial(n, f.datum.sym[i])
        entry = memo[key] = (divisor, {})
    divisor, quotients = entry
    hit = quotients.get(word)
    if hit is None:
        hit = quotients[word] = val.exact_div(divisor)
    return hit


def fr_divided(dword, l: int):
    """Exponent division on divided powers; None when some power is not l-divisible."""
    out = []
    for i, n in dword:
        if n % l:
            return None
        out.append((i, n // l))
    return tuple(out)


def word_rank(n: int, word) -> int:
    """1-based position of a word over letters 0..n-1 in the lexicographic
    order of the words of its weight, without enumerating them."""
    counts = [0] * n
    for i in word:
        counts[i] += 1
    rank = 1
    for x in word:
        for i in range(x):
            if counts[i]:
                counts[i] -= 1
                rank += word_count(RootVector(tuple(counts)))
                counts[i] += 1
        counts[x] -= 1
    return rank


def divided_words_of(word) -> list:
    """The divided words over one word, in lexicographic order: each run of
    a letter is cut into powers anywhere, a run of length r in the 2^(r-1)
    compositions of r."""
    def cuts(i, r):
        if not r:
            return [()]
        return [((i, p),) + rest for p in range(1, r + 1) for rest in cuts(i, r - p)]

    runs = [cuts(i, len(list(group))) for i, group in itertools.groupby(word)]
    return [sum(parts, ()) for parts in itertools.product(*runs)]


def divided_word_rank(n: int, dword) -> int:
    """1-based position of a divided word over letters 0..n-1 in the
    lexicographic order of (letter, power) pairs among the divided words of
    its weight, without enumerating them."""
    counts = [0] * n
    for i, p in dword:
        counts[i] += p
    rank = 1
    for x, q in dword:
        for i in range(x + 1):
            for p in range(1, q if i == x else counts[i] + 1):
                counts[i] -= p
                rank += divided_word_count(RootVector(tuple(counts)))
                counts[i] += p
        counts[x] -= q
    return rank


# -- specialization checks -------------------------------------------------

# a verdict, the checks counted, and a failure's witness and note
CheckOutcome = namedtuple("CheckOutcome", "passed checked witness note", defaults=(None, ""))


def _not_specializable(checked: int, witness, exc) -> CheckOutcome:
    return CheckOutcome(False, checked, witness=witness,
                        note=f"value not specializable: {exc}")


def check_frobenius_on_minor(datum: CartanData, word, t: int, l: int) -> CheckOutcome:
    """Base-case transfer identity for one chain minor.

    For every divided word f of weight l * gamma_t, the value of D_t on
    the exponent-divided image of f, specialized at v = 1, must equal the
    value of D_t^l on f specialized at the root of unity.  Divided words
    with some power not divisible by l must be killed on the root-of-unity
    side.  Only the divided words over a word of supp D_t^l, and the l-fold
    stretches of those over a word of supp D_t, can be nonzero on either
    side; they are compared in lexicographic order, and every other divided
    word is zero on both.  `checked` is the number of divided words of the
    weight, or on a failure the rank of the first failing one among them.
    An inexact minor division fails with the minor's word as witness and
    nothing checked.
    """
    word = tuple(word)
    try:
        minor = quantum_minor(datum, datum.fundamental(word[t]), word[: t + 1])
    except ExactDivisionError as exc:
        return _not_specializable(0, exc.witness, exc)
    power = minor ** l
    candidates = {d for w in power.values for d in divided_words_of(w)}
    candidates.update(tuple((i, l * p) for i, p in d)
                      for u in minor.values for d in divided_words_of(u))
    minor_memo: dict = {}
    power_memo: dict = {}
    for dword in sorted(candidates):
        down = fr_divided(dword, l)
        try:
            if down is None:
                lhs = specialize(IntLaurent.zero(), l, Point.ONE)
            else:
                lhs = specialize(divided_value(minor, down, minor_memo), l, Point.ONE)
            rhs = specialize(divided_value(power, dword, power_memo), l, Point.EPS)
        except ExactDivisionError as exc:
            return _not_specializable(divided_word_rank(datum.n, dword), dword, exc)
        if lhs != rhs:
            return CheckOutcome(False, divided_word_rank(datum.n, dword), witness=dword,
                                note=f"one-side {lhs!r} vs eps-side {rhs!r}")
    return CheckOutcome(True, divided_word_count(power.gamma))


def check_minor_power(datum: CartanData, word, t: int, l: int) -> CheckOutcome:
    """Generic-q identity: D_t^l equals the rescaled-weight minor up to a v power.

    The l-th dual power of D(w hw, hw) must equal v^{-l(l-1)(hw, hw - w hw)}
    times D(w(l hw), l hw).  Both sides are compared on the union of their
    supports; `checked` is the number of words of the common weight, or on
    a failure the rank of the first failing word in lexicographic order.
    An inexact minor division fails with the minor's word as witness and
    nothing checked.
    """
    word = tuple(word)
    prefix = word[: t + 1]
    hw = datum.fundamental(word[t])
    cache: dict = {}
    try:
        minor = quantum_minor(datum, hw, prefix, cache)
        big = quantum_minor(datum, l * hw, prefix, cache)
    except ExactDivisionError as exc:
        return _not_specializable(0, exc.witness, exc)
    power = minor ** l
    low = datum.apply_word(prefix, hw)
    # an integer, as (hw, alpha_j) = t_i delta_ij and hw - low is in the root lattice
    shift = -int(datum.pairing(hw, hw - low) * l * (l - 1))
    for w in sorted(power.values.keys() | big.values.keys()):
        lhs, rhs = power(w), big(w).shifted(shift)
        if lhs != rhs:
            return CheckOutcome(False, word_rank(datum.n, w), witness=w,
                                note=f"{lhs!r} vs {rhs!r}")
    return CheckOutcome(True, word_count(power.gamma))
