"""Quantum seeds and mutation.

A seed is a compatible pair (L, B) together with a list of cluster
variables realized inside the initial quantum torus.  Mutation replaces
one exchangeable variable through the quantum exchange relation and
transforms the pair; everything stays exact over Z[v, v^-1].
"""

from __future__ import annotations

from operator import mul

from .qtorus import LaurentRing, SkewForm, TorusElement, exact_right_divide, normal_product
from .rootdatum import CartanData, frozen_split, int_vector, is_reduced, NonReducedWordError


class NotCompatibleError(ValueError):
    """B^T L failed the diagonal shape required of a compatible pair, or a
    commutation matrix does not fit the word's exchange matrix."""


def pos_part(vec):
    return tuple(x if x > 0 else 0 for x in vec)


def neg_part(vec):
    """Positive part of -vec, entrywise."""
    return tuple(-x if x < 0 else 0 for x in vec)


class ExchangeMatrix:
    """Integer matrix with rows over all positions, columns over exchangeable ones.

    cols records which position each column belongs to, in increasing order.
    """

    __slots__ = ("rows", "cols", "nrows")

    def __init__(self, rows, cols):
        self.rows = tuple(map(int_vector, rows))
        self.cols = int_vector(cols)
        self.nrows = len(self.rows)
        m = len(self.cols)
        if any(len(row) != m for row in self.rows):
            raise ValueError("ragged exchange matrix")
        if list(self.cols) != sorted(set(self.cols)) or any(
                not 0 <= c < self.nrows for c in self.cols):
            raise ValueError("column positions must be distinct, sorted, in range")

    def __eq__(self, other):
        return (isinstance(other, ExchangeMatrix)
                and self.rows == other.rows and self.cols == other.cols)

    def __hash__(self):
        return hash((self.rows, self.cols))

    def __repr__(self):
        return f"ExchangeMatrix(rows={self.rows}, cols={self.cols})"

    def slot(self, pos: int) -> int:
        try:
            return self.cols.index(pos)
        except ValueError:
            raise ValueError(f"position {pos} is not exchangeable") from None

    def column(self, pos: int) -> tuple:
        """Full length-nrows exchange column attached to an exchangeable position."""
        j = self.slot(pos)
        return tuple(row[j] for row in self.rows)


def check_compatible(btilde: ExchangeMatrix, lam: SkewForm) -> tuple:
    """Verify B^T L = (D | 0) with positive diagonal D; return the diagonal.

    Rows of the product are indexed by exchangeable positions; the entry at
    the matching position must be positive and every other entry zero.
    Row j of B^T L is -L b_j for the exchange column b_j, as L is skew.
    """
    if lam.r != btilde.nrows:
        raise ValueError("form size does not match exchange matrix rows")
    d = []
    for j, pos in enumerate(btilde.cols):
        for i, val in enumerate(-x for x in lam.image([row[j] for row in btilde.rows])):
            if i == pos:
                if val <= 0:
                    raise NotCompatibleError(
                        f"(B^T L)[{pos}][{i}] = {val}, expected a positive integer")
                d.append(val)
            elif val != 0:
                raise NotCompatibleError(f"(B^T L)[{pos}][{i}] = {val}, expected 0")
    return tuple(d)


def mutate_pair(btilde: ExchangeMatrix, lam: SkewForm, pos: int):
    """One matrix mutation of the compatible pair at an exchangeable position k.

    B~ mutates entrywise: b'_ij = -b_ij in row or column k, otherwise
    b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2.  L' = E^T L E, read off as
    L'_ij = L(E e_i, E e_j); E is the identity but in column k, which holds
    -1 at k and max(0, -b_ik) in row i (Berenstein-Zelevinsky's E_+).
    """
    kc = btilde.slot(pos)
    bcol = btilde.column(pos)
    brow = btilde.rows[pos]
    if bcol[pos] != 0:
        raise ValueError(f"exchange column {pos} must vanish at its own position")
    new_rows = [[-b if i == pos or j == kc
                 else b + (abs(row[kc]) * brow[j] + row[kc] * abs(brow[j])) // 2
                 for j, b in enumerate(row)]
                for i, row in enumerate(btilde.rows)]
    ecols = [tuple(int(i == t) for i in range(btilde.nrows)) for t in range(btilde.nrows)]
    ecols[pos] = tuple(-1 if i == pos else max(0, -b) for i, b in enumerate(bcol))
    images = [lam.image(b) for b in ecols]
    return (ExchangeMatrix(new_rows, btilde.cols),
            SkewForm([[sum(map(mul, a, mb)) for mb in images] for a in ecols]))


def btilde_from_word(datum: CartanData, word) -> ExchangeMatrix:
    """Exchange matrix of a reduced word, columns at repeating positions.

    Entry at (t, k) is +-1 linking consecutive occurrences of the same
    letter and a Cartan entry (up to sign) for interleaved occurrences of
    distinct letters.
    """
    word = tuple(word)
    if not is_reduced(datum, word):
        raise NonReducedWordError(f"{word} is not reduced")
    r = len(word)

    def succ(t):
        for k in range(t + 1, r):
            if word[k] == word[t]:
                return k
        return r  # sentinel: no later occurrence

    ex, _ = frozen_split(datum, word)
    rows = []
    for t in range(r):
        tp = succ(t)
        row = []
        for k in ex:
            kp = succ(k)
            if t == k:
                row.append(0)
            elif tp == k:
                row.append(1)
            elif t == kp:
                row.append(-1)
            elif t < k < tp < kp:
                row.append(datum.matrix[word[t]][word[k]])
            elif k < t < kp < tp:
                row.append(-datum.matrix[word[t]][word[k]])
            else:
                row.append(0)
        rows.append(row)
    return ExchangeMatrix(rows, ex)


class QuantumSeed:
    """Compatible pair plus cluster variables expanded in the initial torus."""

    __slots__ = ("datum", "btilde", "lam", "variables", "d")

    def __init__(self, datum, btilde, lam, variables):
        self.datum = datum
        self.btilde = btilde
        self.lam = lam
        self.variables = list(variables)
        self.d = check_compatible(btilde, lam)

    @property
    def rank(self):
        return self.btilde.nrows

    def __eq__(self, other):
        return (isinstance(other, QuantumSeed)
                and self.btilde == other.btilde
                and self.lam == other.lam
                and self.variables == other.variables)

    def __hash__(self):
        return hash((self.btilde, self.lam,
                     tuple(frozenset(y.terms.items()) for y in self.variables)))

    def __repr__(self):
        return f"QuantumSeed(rank={self.rank}, exchangeable={self.btilde.cols})"


def seed_from_word(datum: CartanData, word, lam) -> QuantumSeed:
    """Initial seed for a reduced word, given the commutation form of its variables.

    The pair must be compatible with diagonal entries 2 t_{i_k} at each
    exchangeable position k; anything else gets rejected.
    """
    word = tuple(word)
    btilde = btilde_from_word(datum, word)
    if not isinstance(lam, SkewForm):
        lam = SkewForm(lam)
    if lam.r != len(word):
        raise NotCompatibleError("commutation matrix size differs from word length")
    ring = LaurentRing()
    gens = [TorusElement.monomial(ring, lam, tuple(int(i == t) for i in range(len(word))))
            for t in range(len(word))]
    seed = QuantumSeed(datum, btilde, lam, gens)
    for d, pos in zip(seed.d, btilde.cols):
        want = 2 * datum.sym[word[pos]]
        if d != want:
            raise NotCompatibleError(f"diagonal entry {d} at position {pos}, expected {want}")
    return seed


def mutate_seed(seed: QuantumSeed, pos: int) -> QuantumSeed:
    """Mutate at an exchangeable position via the quantum exchange relation.

    The replacement variable solves x' x_pos = v^{L(b+, e)} X^{b+} +
    v^{L(b-, e)} X^{b-} by exact right division in the initial torus,
    where b+- are the positive and negative parts of the exchange column
    and X^c is the normalized monomial in the current variables.
    """
    bcol = seed.btilde.column(pos)
    bplus, bminus = pos_part(bcol), neg_part(bcol)
    ek = tuple(int(i == pos) for i in range(seed.rank))
    ring = seed.variables[pos].ring
    unit = ring.one()
    lhs = (normal_product(seed.variables, seed.lam, bplus)
           .scale(ring.v_shift(unit, seed.lam(bplus, ek)))
           + normal_product(seed.variables, seed.lam, bminus)
           .scale(ring.v_shift(unit, seed.lam(bminus, ek))))
    new_var = exact_right_divide(lhs, seed.variables[pos])
    new_btilde, new_lam = mutate_pair(seed.btilde, seed.lam, pos)
    new_vars = list(seed.variables)
    new_vars[pos] = new_var
    return QuantumSeed(seed.datum, new_btilde, new_lam, new_vars)


def cluster_monomial(seed: QuantumSeed, a) -> TorusElement:
    """Normalized monomial in the current cluster, expanded in the initial torus."""
    return normal_product(seed.variables, seed.lam, a)
