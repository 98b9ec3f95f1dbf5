"""The minor model over Q(v), kept as the tests' oracle for qcfrob.uqn.

This is the path the runtime used before its values moved to Z[v, v^-1]:
module vectors carry RatFunc coefficients, the extremal vector carries the
factor 1/prod [a_t]!, a divided word is expanded into the word basis with
1/prod [n]!, and functionals multiply through the full twisted coproduct
(every split of `word_splits`).  Nothing is divided exactly, so a value
that is not a Laurent polynomial shows up as a proper fraction here.

The free-algebra helpers (FreeElt, coproduct, tensor_mul) and the
contravariant form (pair_fwords, pair_vectors, weight_space_rank) live here
as well: only tests use them.
"""

from qcfrob.coeff import RatFunc, qfactorial, qint
from qcfrob.rootdatum import RootVector
from qcfrob.uqn import word_splits

from _split_uqn import word_weight, words_of_weight

_EACT_CACHE: dict = {}


class FreeElt:
    """Sum of words in the raising generators with rational-function coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {w: c for w, c in terms.items() if c}


def coproduct(datum, x: FreeElt) -> dict:
    """Twisted coproduct as a dict {(left, right): coefficient}."""
    out: dict = {}
    for w, c in x.terms.items():
        for lw, rw, expo in word_splits(datum, w):
            key = (lw, rw)
            out[key] = out.get(key, RatFunc.zero()) + c * RatFunc.v_power(expo)
    return {k: v for k, v in out.items() if v}


def tensor_mul(datum, a: dict, b: dict) -> dict:
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
    return {k: v for k, v in out.items() if v}


def e_on_fword(datum, hw, i: int, fword) -> dict:
    key = (datum, hw, i, fword)
    hit = _EACT_CACHE.get(key)
    if hit is not None:
        return hit
    out: dict = {}
    mu = hw
    for p in range(len(fword) - 1, -1, -1):
        if fword[p] == i:
            c = qint(mu.coords[i], datum.sym[i])
            if c:
                rest = fword[:p] + fword[p + 1:]
                cur = out.get(rest)
                coeff = RatFunc.from_laurent(c)
                out[rest] = coeff if cur is None else cur + coeff
        mu = mu - datum.alpha(fword[p])
    out = {w: c for w, c in out.items() if c}
    _EACT_CACHE[key] = out
    return out


def e_act(datum, hw, i: int, vec: dict) -> dict:
    out: dict = {}
    for fword, c in vec.items():
        for rest, step in e_on_fword(datum, hw, i, fword).items():
            out[rest] = out.get(rest, RatFunc.zero()) + c * step
    return {w: c for w, c in out.items() if c}


def word_act(datum, hw, word, vec: dict) -> dict:
    for i in reversed(word):
        if not vec:
            break
        vec = e_act(datum, hw, i, vec)
    return vec


def pair_fwords(datum, hw, u, w) -> RatFunc:
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
        if sub:
            total = total + c * sub
    return total


def pair_vectors(datum, hw, u: dict, w: dict) -> RatFunc:
    total = RatFunc.zero()
    for fu, cu in u.items():
        for fw, cw in w.items():
            val = pair_fwords(datum, hw, fu, fw)
            if val:
                total = total + cu * cw * val
    return total


def weight_space_rank(datum, hw, depth: RootVector) -> int:
    """Rank of the contravariant form on the span of fwords at hw - depth."""
    basis = words_of_weight(datum, depth)
    rows = [[pair_fwords(datum, hw, u, w) for w in basis] for u in basis]
    # Gaussian elimination over the fraction field
    rank = 0
    for col in range(len(basis)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def extremal_vector(datum, hw, word) -> dict:
    """Extremal vector of weight word(hw) as divided lowering powers."""
    running = hw
    exps = [0] * len(word)
    for t in range(len(word) - 1, -1, -1):
        exps[t] = running.coords[word[t]]
        running = datum.reflect(word[t], running)
    fword = []
    coeff = RatFunc.one()
    for t, i in enumerate(word):
        fword.extend([i] * exps[t])
        if exps[t] > 1:
            coeff = coeff / RatFunc.from_laurent(qfactorial(exps[t], datum.sym[i]))
    return {tuple(fword): coeff}


def divided_to_free(datum, dword) -> FreeElt:
    """Expand e_{i_1}^{(n_1)} ... into the word basis: one word, factorial coefficient."""
    word = []
    coeff = RatFunc.one()
    for i, n in dword:
        word.extend([i] * n)
        if n > 1:
            coeff = coeff / RatFunc.from_laurent(qfactorial(n, datum.sym[i]))
    return FreeElt({tuple(word): coeff})


class Functional:
    """Weight-homogeneous functional with RatFunc values, cached per word."""

    def __init__(self, datum, gamma: RootVector, fn):
        self.datum = datum
        self.gamma = gamma
        self._fn = fn
        self._cache: dict = {}

    def __call__(self, word) -> RatFunc:
        word = tuple(word)
        if word_weight(self.datum, word) != self.gamma:
            return RatFunc.zero()
        hit = self._cache.get(word)
        if hit is None:
            hit = self._cache[word] = self._fn(word)
        return hit

    def evaluate(self, x: FreeElt) -> RatFunc:
        total = RatFunc.zero()
        for w, c in x.terms.items():
            val = self(w)
            if val:
                total = total + c * val
        return total

    def __mul__(self, other: "Functional") -> "Functional":
        """Product in the graded dual, through every split of the coproduct."""
        lheight = sum(self.gamma.coords)

        def fn(word):
            total = RatFunc.zero()
            for lw, rw, expo in word_splits(self.datum, word):
                if len(lw) != lheight:
                    continue
                a = self(lw)
                if not a:
                    continue
                b = other(rw)
                if b:
                    total = total + a * b * RatFunc.v_power(expo)
            return total

        return Functional(self.datum, self.gamma + other.gamma, fn)

    def __pow__(self, n: int) -> "Functional":
        out = counit(self.datum)
        for _ in range(n):
            out = out * self
        return out


def counit(datum) -> Functional:
    return Functional(datum, RootVector((0,) * datum.n), lambda word: RatFunc.one())


def quantum_minor(datum, hw, prefix) -> Functional:
    """Matrix coefficient x -> (x v_{w hw}, v_hw) for w the given word prefix."""
    prefix = tuple(prefix)
    target = extremal_vector(datum, hw, prefix)
    gamma = datum.weight_to_root(hw - datum.apply_word(prefix, hw))
    return Functional(datum, gamma,
                      lambda word: word_act(datum, hw, word, target).get((), RatFunc.zero()))


def cell_minors(datum, word) -> list:
    word = tuple(word)
    return [quantum_minor(datum, datum.fundamental(word[t]), word[: t + 1])
            for t in range(len(word))]
