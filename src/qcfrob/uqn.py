"""The positive half of a quantized enveloping algebra, seen through its
integrable modules.

Integrable highest-weight modules are realized on formal lowering words,
and every functional here is a matrix coefficient of the action on such a
module, so it kills the quantum Serre relations without any quotient being
taken (the tests check this on the minors).  Quantum minors are the matrix
coefficients at extremal vectors; they multiply through the twisted
coproduct, and divided powers carry the Frobenius-type exponent division by
the root-of-unity order.

Every module vector and functional value lies in Z[v, v^-1]: divided powers
act integrally on integrable modules (Lusztig's integral form).  A minor
acts on the extremal lowering word with coefficient 1 and divides its value
once, exactly, by prod [a_t]! over the word's divided-power exponents; a
divided word is evaluated on its underlying word and divided exactly by
prod [n]!.  These are the only two divisions, and an inexact one raises
ExactDivisionError.

The e-action memo is owned by one top-level call (commutation_matrix,
check_frobenius_on_minor or check_minor_power) and dies with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial, prod

from .coeff import ExactDivisionError, IntLaurent, Point, qfactorial, qint, specialize
from .rootdatum import CartanData, RootVector, Weight


class NotQCommutingError(ValueError):
    """Two functionals failed to commute up to a single integer power of q."""


def word_weight(datum: CartanData, word) -> RootVector:
    counts = [0] * datum.n
    for i in word:
        counts[i] += 1
    return RootVector(tuple(counts))


def words_of_weight(datum: CartanData, gamma: RootVector):
    """All words using exactly gamma_i copies of each letter i."""
    counts = list(gamma.coords)
    if any(c < 0 for c in counts):
        return []
    out = []

    def rec(acc):
        if not any(counts):
            out.append(tuple(acc))
            return
        for i in range(datum.n):
            if counts[i]:
                counts[i] -= 1
                acc.append(i)
                rec(acc)
                acc.pop()
                counts[i] += 1

    rec([])
    return out


def word_count(gamma: RootVector) -> int:
    """Number of words of weight gamma, without enumerating them."""
    out = factorial(sum(gamma.coords))
    for c in gamma.coords:
        out //= factorial(c)
    return out


def split_count(gamma: RootVector, right: RootVector) -> int:
    """Number of splits of one word of weight gamma whose right part has
    weight right: the positions of each letter i sent right are any right_i
    of its gamma_i."""
    return prod(map(comb, gamma.coords, right.coords))


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


def splits_with_right_weight(datum: CartanData, word, gamma: RootVector):
    """The (left, right, e) triples of word_splits whose right part has
    weight gamma, enumerated directly: gamma_i of the positions of each
    letter i go right.

    With suf[s] = sum over k > s of (alpha_{w_s}, alpha_{w_k}), the twist of
    a right part R is -2 (sum over s in R of suf[s], minus the pairs inside
    R); the pairs inside R sum to ((gamma, gamma) - sum_i gamma_i (alpha_i,
    alpha_i)) / 2 whatever R is, as the form is symmetric.
    """
    rf = datum.root_form
    n, m = datum.n, len(word)
    after = [0] * n
    suf = [0] * m
    for s in range(m - 1, -1, -1):
        i = word[s]
        suf[s] = sum(rf(i, j) * after[j] for j in range(n) if after[j])
        after[i] += 1
    g = gamma.coords
    inner = (sum(g[i] * g[j] * rf(i, j) for i in range(n) for j in range(n))
             - sum(g[i] * rf(i, i) for i in range(n))) // 2
    # per letter: (right positions, left positions, sum of suf over the right)
    per_letter = []
    for i in range(n):
        positions = [p for p in range(m) if word[p] == i]
        per_letter.append([(list(c), [p for p in positions if p not in c],
                            sum(suf[p] for p in c))
                           for c in itertools.combinations(positions, g[i])])
    letter = word.__getitem__
    for choice in itertools.product(*per_letter):
        rpos, lpos, total = [], [], 0
        for r, lft, sr in choice:
            rpos += r
            lpos += lft
            total += sr
        rpos.sort()
        lpos.sort()
        yield (tuple(map(letter, lpos)), tuple(map(letter, rpos)),
               2 * (inner - total))


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


def word_act(datum: CartanData, hw: Weight, word, vec: dict, cache: dict) -> dict:
    """Apply e_{a_1} ... e_{a_m} to a vector, rightmost factor first."""
    for i in reversed(word):
        if not vec:
            break
        vec = e_act(datum, hw, i, vec, cache)
    return vec


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
    """Weight-homogeneous functional on the free algebra, cached per word."""

    __slots__ = ("datum", "gamma", "_fn", "_cache")

    def __init__(self, datum, gamma: RootVector, fn):
        self.datum = datum
        self.gamma = gamma
        self._fn = fn
        self._cache: dict = {}

    def __call__(self, word) -> IntLaurent:
        word = tuple(word)
        hit = self._cache.get(word)
        if hit is None:
            if word_weight(self.datum, word) == self.gamma:
                hit = self._fn(word)
            else:
                hit = IntLaurent.zero()
            self._cache[word] = hit
        return hit

    def __mul__(self, other: "Functional") -> "Functional":
        return functional_mul(self, other)

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
    zero_wt = RootVector((0,) * datum.n)
    return Functional(datum, zero_wt, lambda word: IntLaurent.one())


def functional_mul(phi: Functional, psi: Functional) -> Functional:
    """Product in the graded dual: evaluate through the twisted coproduct.

    (phi psi)(x) pairs phi with the left coproduct factor and psi with the
    right one, including the split twist; only the splits whose right part
    has psi's weight can contribute.
    """
    if phi.datum != psi.datum:
        raise ValueError("functionals over different Cartan data")
    datum = phi.datum

    def fn(word):
        acc: dict = {}
        for lw, rw, expo in splits_with_right_weight(datum, word, psi.gamma):
            a = phi(lw)
            if not a:
                continue
            b = psi(rw)
            if not b:
                continue
            for ea, ca in a.terms.items():
                for eb, cb in b.terms.items():
                    e = ea + eb + expo
                    acc[e] = acc.get(e, 0) + ca * cb
        return IntLaurent(acc)

    return Functional(datum, phi.gamma + psi.gamma, fn)


def quantum_minor(datum: CartanData, hw: Weight, prefix, cache=None) -> Functional:
    """Matrix coefficient x -> (x v_{w hw}, v_hw) for w the given word prefix.

    Supported on the single weight hw - w(hw); the pairing against the
    highest weight vector picks the empty-fword coefficient after acting on
    the extremal fword, which is then divided by prod [a_t]!.  `cache`
    memoizes the e-action; by default the minor owns one.
    """
    prefix = tuple(prefix)
    fword, divisor = extremal_fword(datum, hw, prefix)
    low = datum.apply_word(prefix, hw)
    gamma = datum.weight_to_root(hw - low)
    if any(c < 0 for c in gamma.coords):
        raise ValueError("extremal weight not below the highest weight")
    cache = {} if cache is None else cache
    target = {fword: IntLaurent.one()}

    def fn(word):
        val = word_act(datum, hw, word, target, cache).get(())
        return IntLaurent.zero() if val is None else val.exact_div(divisor)

    return Functional(datum, gamma, fn)


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

    Each pair is verified on every word of the combined weight; failure to
    q-commute by a single even power of v raises NotQCommutingError.
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
            for w in words_of_weight(datum, left.gamma):
                a, b = left(w), right(w)
                if a.is_zero != b.is_zero:
                    raise NotQCommutingError(
                        f"minors {t}, {k}: value vanishes on one side only at {w}")
                if a.is_zero:
                    continue
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

def divided_words_of_weight(datum: CartanData, gamma: RootVector):
    """Yield every product of divided generator powers with the given total
    weight.

    Entries are (letter, power) pairs with power >= 1; consecutive equal
    letters are allowed, so e_i^{(1)} e_i^{(1)} and e_i^{(2)} both occur.
    """
    remaining = list(gamma.coords)
    if any(c < 0 for c in remaining):
        return

    def rec(acc):
        if not any(remaining):
            yield tuple(acc)
            return
        for i in range(datum.n):
            for p in range(1, remaining[i] + 1):
                remaining[i] -= p
                acc.append((i, p))
                yield from rec(acc)
                acc.pop()
                remaining[i] += p

    yield from rec([])


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


def divided_value(f: Functional, dword, divisors: dict) -> IntLaurent:
    """f on e_{i_1}^{(n_1)} e_{i_2}^{(n_2)} ...: f on the underlying word,
    divided exactly by prod [n]!.  `divisors` memoizes the divisor per
    multiset of powers."""
    val = f([i for i, n in dword for _ in range(n)])
    if not val:
        return val
    key = tuple(sorted(dword))
    divisor = divisors.get(key)
    if divisor is None:
        divisor = IntLaurent.one()
        for i, n in key:
            divisor = divisor * qfactorial(n, f.datum.sym[i])
        divisors[key] = divisor
    return val.exact_div(divisor)


def fr_divided(dword, l: int):
    """Exponent division on divided powers; None when some power is not l-divisible."""
    out = []
    for i, n in dword:
        if n % l:
            return None
        out.append((i, n // l))
    return tuple(out)


# -- specialization checks -------------------------------------------------

@dataclass
class CheckOutcome:
    passed: bool
    checked: int
    witness: object = None
    note: str = ""


def check_frobenius_on_minor(datum: CartanData, word, t: int, l: int) -> CheckOutcome:
    """Base-case transfer identity for one chain minor.

    For every divided word f of weight l * gamma_t, the value of D_t on
    the exponent-divided image of f, specialized at v = 1, must equal the
    value of D_t^l on f specialized at the root of unity.  Divided words
    with some power not divisible by l must be killed on the root-of-unity
    side.
    """
    word = tuple(word)
    minor = quantum_minor(datum, datum.fundamental(word[t]), word[: t + 1])
    power = minor ** l
    divisors: dict = {}
    checked = 0
    for dword in divided_words_of_weight(datum, l * minor.gamma):
        checked += 1
        down = fr_divided(dword, l)
        try:
            if down is None:
                lhs = specialize(IntLaurent.zero(), l, Point.ONE)
            else:
                lhs = specialize(divided_value(minor, down, divisors), l, Point.ONE)
            rhs = specialize(divided_value(power, dword, divisors), l, Point.EPS)
        except ExactDivisionError as exc:
            return CheckOutcome(False, checked, witness=dword,
                                note=f"value not specializable: {exc}")
        if lhs != rhs:
            return CheckOutcome(False, checked, witness=dword,
                                note=f"one-side {lhs!r} vs eps-side {rhs!r}")
    return CheckOutcome(True, checked)


def check_minor_power(datum: CartanData, word, t: int, l: int) -> CheckOutcome:
    """Generic-q identity: D_t^l equals the rescaled-weight minor up to a v power.

    The l-th dual power of D(w hw, hw) must equal v^{-l(l-1)(hw, hw - w hw)}
    times D(w(l hw), l hw), compared on every word of the common weight.
    """
    word = tuple(word)
    prefix = word[: t + 1]
    hw = datum.fundamental(word[t])
    cache: dict = {}
    minor = quantum_minor(datum, hw, prefix, cache)
    power = minor ** l
    big = quantum_minor(datum, l * hw, prefix, cache)
    low = datum.apply_word(prefix, hw)
    # an integer, as (hw, alpha_j) = t_i delta_ij and hw - low is in the root lattice
    shift = datum.pairing(hw, hw - low) * l * (l - 1)
    checked = 0
    for w in words_of_weight(datum, power.gamma):
        checked += 1
        try:
            lhs = power(w)
            rhs = big(w).shifted(-int(shift))
        except ExactDivisionError as exc:
            return CheckOutcome(False, checked, witness=w,
                                note=f"value not specializable: {exc}")
        if lhs != rhs:
            return CheckOutcome(False, checked, witness=w,
                                note=f"{lhs!r} vs {rhs!r}")
    return CheckOutcome(True, checked)
