"""The per-word minor model, kept as the tests' oracle for the quantum
shuffles of qcfrob.uqn.

This is the path the runtime used before functionals were held on their
supports: a functional is evaluated one word at a time and cached per
word, a product sums over the coproduct splits of the word whose right
part has the right factor's weight (`splits_with_right_weight`), and a
minor acts on its extremal fword with every word of its weight.  Its
values are IntLaurent, as the runtime's are, so the two compare directly.

`word_weight`, `words_of_weight` and `divided_words_of_weight` live here
as well: only tests and this oracle enumerate every word or divided word
of a weight.
"""

import itertools

from qcfrob.coeff import IntLaurent
from qcfrob.rootdatum import RootVector
from qcfrob.uqn import e_act, extremal_fword


def word_weight(datum, word) -> RootVector:
    counts = [0] * datum.n
    for i in word:
        counts[i] += 1
    return RootVector(tuple(counts))


def words_of_weight(datum, gamma: RootVector):
    """All words using exactly gamma_i copies of each letter i, in
    lexicographic order."""
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


def divided_words_of_weight(datum, gamma: RootVector):
    """Yield every product of divided generator powers with the given total
    weight, in lexicographic order of (letter, power) pairs: the order
    uqn.divided_word_rank ranks."""
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


def splits_with_right_weight(datum, word, gamma: RootVector):
    """The (left, right, e) triples of uqn.word_splits whose right part has
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


def word_act(datum, hw, word, vec: dict, cache: dict) -> dict:
    """Apply e_{a_1} ... e_{a_m} to a vector, rightmost factor first."""
    for i in reversed(word):
        if not vec:
            break
        vec = e_act(datum, hw, i, vec, cache)
    return vec


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
        out = counit(self.datum)
        for _ in range(n):
            out = out * self
        return out


def counit(datum) -> Functional:
    return Functional(datum, RootVector((0,) * datum.n), lambda word: IntLaurent.one())


def functional_mul(phi: Functional, psi: Functional) -> Functional:
    """Product in the graded dual: evaluate through the twisted coproduct,
    on the splits whose right part has psi's weight."""
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


def quantum_minor(datum, hw, prefix, cache=None) -> Functional:
    """Matrix coefficient x -> (x v_{w hw}, v_hw), evaluated word by word."""
    prefix = tuple(prefix)
    fword, divisor = extremal_fword(datum, hw, prefix)
    gamma = datum.weight_to_root(hw - datum.apply_word(prefix, hw))
    cache = {} if cache is None else cache
    target = {fword: IntLaurent.one()}

    def fn(word):
        val = word_act(datum, hw, word, target, cache).get(())
        return IntLaurent.zero() if val is None else val.exact_div(divisor)

    return Functional(datum, gamma, fn)


def cell_minors(datum, word) -> list:
    word = tuple(word)
    cache: dict = {}
    return [quantum_minor(datum, datum.fundamental(word[t]), word[: t + 1], cache)
            for t in range(len(word))]
