"""The positive half of a quantized enveloping algebra, seen through its
integrable modules.

Elements are sums of words in the raising generators over Q(v), never
reduced modulo the Serre relations.  Integrable highest-weight modules are
realized on formal lowering words, and every functional here is a matrix
coefficient of the action on such a module, so it kills the quantum Serre
relations without any quotient being taken (the tests check this on the
minors).  Quantum minors are the matrix coefficients at extremal vectors;
they multiply through the twisted coproduct, and divided powers carry the
Frobenius-type exponent division by the root-of-unity order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import (
    ExactDivisionError,
    IntLaurent,
    Point,
    RatFunc,
    qfactorial,
    qint,
    specialize,
)
from .rootdatum import CartanData, RootVector, Weight

_SPLIT_CACHE: dict = {}
_EACT_CACHE: dict = {}


class NotQCommutingError(ValueError):
    """Two functionals failed to commute up to a single integer power of q."""


# -- free algebra ----------------------------------------------------------

class FreeElt:
    """Sum of words in the raising generators with rational-function coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {w: c for w, c in terms.items() if not c.is_zero}


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


# -- twisted coproduct -----------------------------------------------------

def word_splits(datum: CartanData, word):
    """Every two-sided split of a word with its coproduct twist exponent.

    Returns (left, right, e) triples: the term v^e (left x right) of the
    coproduct of the word, where e collects -(alpha_s, alpha_k) over pairs
    with s earlier than k, s sent right and k sent left.
    """
    key = (datum, word)
    hit = _SPLIT_CACHE.get(key)
    if hit is not None:
        return hit
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
    _SPLIT_CACHE[key] = out
    return out


def coproduct(datum: CartanData, x: FreeElt) -> dict:
    """Twisted coproduct as a dict {(left, right): coefficient}."""
    out: dict = {}
    for w, c in x.terms.items():
        for lw, rw, expo in word_splits(datum, w):
            key = (lw, rw)
            out[key] = out.get(key, RatFunc.zero()) + c * RatFunc.v_power(expo)
    return {k: v for k, v in out.items() if not v.is_zero}


def tensor_mul(datum: CartanData, a: dict, b: dict) -> dict:
    """Product on split dicts: (x1 @ x2)(y1 @ y2) = q^{-(wt x2, wt y1)} x1 y1 @ x2 y2."""
    out: dict = {}
    for (x1, x2), ca in a.items():
        for (y1, y2), cb in b.items():
            expo = 0
            for s in x2:
                for k in y1:
                    expo -= 2 * datum.root_form(s, k)
            key = (x1 + y1, x2 + y2)
            out[key] = out.get(key, RatFunc.zero()) + ca * cb * RatFunc.v_power(expo)
    return {k: v for k, v in out.items() if not v.is_zero}


# -- integrable modules on lowering words ----------------------------------
#
# A vector in V(hw) is a dict {fword: coefficient}; the fword (j_1, ..., j_m)
# stands for f_{j_1} ... f_{j_m} applied to the highest weight vector.
# Radical vectors are carried along formally and die under the pairing.

def e_on_fword(datum: CartanData, hw: Weight, i: int, fword) -> dict:
    key = (datum, hw, i, fword)
    hit = _EACT_CACHE.get(key)
    if hit is not None:
        return hit
    out: dict = {}
    mu = hw  # weight below the removed part: hw - sum_{s > p} alpha_{j_s}
    for p in range(len(fword) - 1, -1, -1):
        if fword[p] == i:
            c = qint(mu.coords[i], datum.sym[i])
            if not c.is_zero:
                rest = fword[:p] + fword[p + 1:]
                cur = out.get(rest)
                coeff = RatFunc.from_laurent(c)
                out[rest] = coeff if cur is None else cur + coeff
        mu = mu - datum.alpha(fword[p])
    out = {w: c for w, c in out.items() if not c.is_zero}
    _EACT_CACHE[key] = out
    return out


def e_act(datum: CartanData, hw: Weight, i: int, vec: dict) -> dict:
    out: dict = {}
    for fword, c in vec.items():
        for rest, step in e_on_fword(datum, hw, i, fword).items():
            out[rest] = out.get(rest, RatFunc.zero()) + c * step
    return {w: c for w, c in out.items() if not c.is_zero}


def word_act(datum: CartanData, hw: Weight, word, vec: dict) -> dict:
    """Apply e_{a_1} ... e_{a_m} to a vector, rightmost factor first."""
    for i in reversed(word):
        if not vec:
            break
        vec = e_act(datum, hw, i, vec)
    return vec


def pair_fwords(datum: CartanData, hw: Weight, u, w) -> RatFunc:
    """Contravariant form on V(hw): (f_j u', w) = (u', e_j w), (vac, vac) = 1."""
    if len(u) != len(w):
        return RatFunc.zero()
    if not u:
        return RatFunc.one()
    if sorted(u) != sorted(w):
        return RatFunc.zero()
    j, rest = u[0], u[1:]
    total = RatFunc.zero()
    for w2, c in e_on_fword(datum, hw, j, w).items():
        sub = pair_fwords(datum, hw, rest, w2)
        if not sub.is_zero:
            total = total + c * sub
    return total


def pair_vectors(datum: CartanData, hw: Weight, u: dict, w: dict) -> RatFunc:
    total = RatFunc.zero()
    for fu, cu in u.items():
        for fw, cw in w.items():
            val = pair_fwords(datum, hw, fu, fw)
            if not val.is_zero:
                total = total + cu * cw * val
    return total


def extremal_vector(datum: CartanData, hw: Weight, word) -> dict:
    """Extremal vector of weight word(hw) as divided lowering powers.

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
    coeff = RatFunc.one()
    for t, i in enumerate(word):
        fword.extend([i] * exps[t])
        if exps[t] > 1:
            coeff = coeff / RatFunc.from_laurent(qfactorial(exps[t], datum.sym[i]))
    return {tuple(fword): coeff}


def weight_space_rank(datum: CartanData, hw: Weight, depth: RootVector) -> int:
    """Rank of the contravariant form on the span of fwords at hw - depth."""
    basis = words_of_weight(datum, depth)
    gram = [[pair_fwords(datum, hw, u, w) for w in basis] for u in basis]
    # Gaussian elimination over the fraction field
    rank = 0
    rows = [list(r) for r in gram]
    ncols = len(basis)
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(rows)) if not rows[r][col].is_zero), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        inv = rows[row][col].inv()
        rows[row] = [x * inv for x in rows[row]]
        for r in range(len(rows)):
            if r != row and not rows[r][col].is_zero:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[row])]
        row += 1
        rank += 1
    return rank


# -- functionals and quantum minors ----------------------------------------

class Functional:
    """Weight-homogeneous functional on the free algebra, cached per word."""

    __slots__ = ("datum", "gamma", "_fn", "_cache", "label")

    def __init__(self, datum, gamma: RootVector, fn, label=""):
        self.datum = datum
        self.gamma = gamma
        self._fn = fn
        self._cache: dict = {}
        self.label = label

    def __call__(self, word) -> RatFunc:
        word = tuple(word)
        if word_weight(self.datum, word) != self.gamma:
            return RatFunc.zero()
        hit = self._cache.get(word)
        if hit is None:
            hit = self._fn(word)
            self._cache[word] = hit
        return hit

    def evaluate(self, x: FreeElt) -> RatFunc:
        total = RatFunc.zero()
        for w, c in x.terms.items():
            val = self(w)
            if not val.is_zero:
                total = total + c * val
        return total

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
        return f"Functional({self.label or 'anon'}, gamma={self.gamma.coords})"


def counit(datum: CartanData) -> Functional:
    zero_wt = RootVector((0,) * datum.n)
    return Functional(datum, zero_wt, lambda word: RatFunc.one(), label="counit")


def functional_mul(phi: Functional, psi: Functional) -> Functional:
    """Product in the graded dual: evaluate through the twisted coproduct.

    (phi psi)(x) pairs phi with the left coproduct factor and psi with the
    right one, including the split twist.
    """
    if phi.datum != psi.datum:
        raise ValueError("functionals over different Cartan data")
    datum = phi.datum
    gamma = phi.gamma + psi.gamma
    lheight = phi.gamma.height

    def fn(word):
        total = RatFunc.zero()
        for lw, rw, expo in word_splits(datum, word):
            if len(lw) != lheight:
                continue
            a = phi(lw)
            if a.is_zero:
                continue
            b = psi(rw)
            if b.is_zero:
                continue
            total = total + a * b * RatFunc.v_power(expo)
        return total

    label = f"{phi.label or 'phi'}*{psi.label or 'psi'}"
    return Functional(datum, gamma, fn, label=label)


def quantum_minor(datum: CartanData, hw: Weight, prefix) -> Functional:
    """Matrix coefficient x -> (x v_{w hw}, v_hw) for w the given word prefix.

    Supported on the single weight hw - w(hw); the pairing against the
    highest weight vector picks the empty-fword coefficient after acting.
    """
    prefix = tuple(prefix)
    target = extremal_vector(datum, hw, prefix)
    low = datum.apply_word(prefix, hw)
    gamma = datum.weight_to_root(hw - low)
    if any(c < 0 for c in gamma.coords):
        raise ValueError("extremal weight not below the highest weight")

    def fn(word):
        vec = word_act(datum, hw, word, target)
        return vec.get((), RatFunc.zero())

    return Functional(datum, gamma, fn,
                      label=f"D(hw={hw.coords}, w={prefix})")


def cell_minors(datum: CartanData, word) -> list:
    """The chain of minors D_t attached to the prefixes of a word."""
    word = tuple(word)
    return [quantum_minor(datum, datum.fundamental(word[t]), word[: t + 1])
            for t in range(len(word))]


def _as_v_power(r: RatFunc):
    if r.is_zero or len(r.num.terms) != 1 or len(r.den.terms) != 1:
        return None
    (en, cn), = r.num.terms.items()
    (ed, cd), = r.den.terms.items()
    if cn != cd:
        return None
    return en - ed


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
            gamma = left.gamma
            m = None
            seen_nonzero = False
            for w in words_of_weight(datum, gamma):
                a, b = left(w), right(w)
                if a.is_zero != b.is_zero:
                    raise NotQCommutingError(
                        f"minors {t}, {k}: value vanishes on one side only at {w}")
                if a.is_zero:
                    continue
                seen_nonzero = True
                expo = _as_v_power(a / b)
                if expo is None or expo % 2:
                    raise NotQCommutingError(
                        f"minors {t}, {k}: ratio at {w} is not an integer power of q")
                if m is None:
                    m = expo // 2
                elif m != expo // 2:
                    raise NotQCommutingError(
                        f"minors {t}, {k}: inconsistent powers {m} and {expo // 2}")
            if not seen_nonzero:
                raise NotQCommutingError(f"minors {t}, {k}: product vanishes identically")
            mat[t][k] = m
            mat[k][t] = -m
    return tuple(tuple(row) for row in mat)


# -- divided words and Frobenius-type exponent maps ------------------------

def divided_words_of_weight(datum: CartanData, gamma: RootVector):
    """All products of divided generator powers with the given total weight.

    Entries are (letter, power) pairs with power >= 1; consecutive equal
    letters are allowed, so e_i^{(1)} e_i^{(1)} and e_i^{(2)} both occur.
    """
    remaining = list(gamma.coords)
    if any(c < 0 for c in remaining):
        return []
    out = []

    def rec(acc):
        if not any(remaining):
            out.append(tuple(acc))
            return
        for i in range(datum.n):
            if remaining[i]:
                for p in range(1, remaining[i] + 1):
                    remaining[i] -= p
                    acc.append((i, p))
                    rec(acc)
                    acc.pop()
                    remaining[i] += p

    rec([])
    return out


def divided_to_free(datum: CartanData, dword) -> FreeElt:
    """Expand e_{i_1}^{(n_1)} ... into the word basis: one word, factorial coefficient."""
    word = []
    coeff = RatFunc.one()
    for i, n in dword:
        if n < 1:
            raise ValueError("divided powers must be >= 1")
        word.extend([i] * n)
        if n > 1:
            coeff = coeff / RatFunc.from_laurent(qfactorial(n, datum.sym[i]))
    return FreeElt({tuple(word): coeff})


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
    name: str
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
    name = f"frobenius-minor[t={t}, l={l}]"
    minor = quantum_minor(datum, datum.fundamental(word[t]), word[: t + 1])
    power = minor ** l
    big_gamma = RootVector(tuple(l * c for c in minor.gamma.coords))
    checked = 0
    for dword in divided_words_of_weight(datum, big_gamma):
        checked += 1
        down = fr_divided(dword, l)
        try:
            if down is None:
                lhs = specialize(IntLaurent.zero(), l, Point.ONE)
            else:
                lhs_val = minor.evaluate(divided_to_free(datum, down))
                lhs = specialize(lhs_val.as_laurent(), l, Point.ONE)
            rhs_val = power.evaluate(divided_to_free(datum, dword))
            rhs = specialize(rhs_val.as_laurent(), l, Point.EPS)
        except ExactDivisionError as exc:
            return CheckOutcome(name, False, checked, witness=dword,
                                note=f"value not specializable: {exc}")
        if lhs != rhs:
            return CheckOutcome(name, False, checked, witness=dword,
                                note=f"one-side {lhs!r} vs eps-side {rhs!r}")
    return CheckOutcome(name, True, checked)


def check_minor_power(datum: CartanData, word, t: int, l: int) -> CheckOutcome:
    """Generic-q identity: D_t^l equals the rescaled-weight minor up to a v power.

    The l-th dual power of D(w hw, hw) must equal v^{-l(l-1)(hw, hw - w hw)}
    times D(w(l hw), l hw), compared on every word of the common weight.
    """
    word = tuple(word)
    name = f"minor-power[t={t}, l={l}]"
    prefix = word[: t + 1]
    hw = datum.fundamental(word[t])
    minor = quantum_minor(datum, hw, prefix)
    power = minor ** l
    big = quantum_minor(datum, Weight(tuple(l * c for c in hw.coords)), prefix)
    low = datum.apply_word(prefix, hw)
    shift = datum.pairing(hw, hw - low) * l * (l - 1)
    if shift.denominator != 1:
        return CheckOutcome(name, False, 0, note="twist exponent not an integer")
    twist = RatFunc.v_power(-int(shift))
    checked = 0
    for w in words_of_weight(datum, power.gamma):
        checked += 1
        lhs = power(w)
        rhs = big(w) * twist
        if lhs != rhs:
            return CheckOutcome(name, False, checked, witness=w,
                                note=f"{lhs!r} vs {rhs!r}")
    return CheckOutcome(name, True, checked)
