"""Symmetrizable Cartan data and Weyl-word combinatorics.

Words are stored as tuples (i_1, ..., i_r) of 0-based letter indices.  A
partial product over the first t letters acts on a vector with s_{i_t}
applied first and s_{i_1} last, matching the product s_{i_1} ... s_{i_t}
read as a composition of operators.  All weight arithmetic is exact, with
fractions only where the inverse Cartan matrix demands them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd


def int_vector(a) -> tuple:
    """a as a tuple of ints; ValueError when an entry is not integral."""
    a = tuple(a)
    out = tuple(map(int, a))
    if out != a:
        raise ValueError("entries must be integers")
    return out


class NonReducedWordError(ValueError):
    """A word failed the positivity test on its root sequence."""


class _Coords:
    """Immutable integer coordinate vector, equal to another of its own type
    with the same coords; sums, differences and integer multiples keep the
    subclass."""

    def __init__(self, coords: tuple[int, ...]):
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.coords,))

    def __repr__(self):
        return f"{type(self).__qualname__}(coords={self.coords!r})"

    def __add__(self, other):
        return type(self)(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return type(self)(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, n: int):
        return type(self)(tuple(n * a for a in self.coords))


class Weight(_Coords):
    """Integral weight in the basis of fundamental weights."""

    @property
    def is_dominant(self) -> bool:
        return all(a >= 0 for a in self.coords)


class RootVector(_Coords):
    """Element of the root lattice in the basis of simple roots."""

    @property
    def is_positive(self) -> bool:
        return any(self.coords) and all(a >= 0 for a in self.coords)


class CartanData:
    """A symmetrizable generalized Cartan matrix with its minimal symmetrizer.

    matrix[i][j] = a_ij with a_ii = 2 and a_ij <= 0 off the diagonal;
    symmetrizers t_i are positive integers with gcd 1 making diag(t) * A
    symmetric.  The symmetric form on simple roots is (alpha_i, alpha_j)
    = t_i * a_ij.
    """

    __slots__ = ("matrix", "sym", "n", "_inv")

    def __init__(self, matrix, symmetrizers):
        mat = tuple(map(int_vector, matrix))
        sym = int_vector(symmetrizers)
        n = len(mat)
        if any(len(row) != n for row in mat) or len(sym) != n:
            raise ValueError("Cartan matrix and symmetrizers have mismatched sizes")
        for i in range(n):
            if mat[i][i] != 2:
                raise ValueError(f"diagonal entry a_{i}{i} must be 2")
            if sym[i] <= 0:
                raise ValueError("symmetrizers must be positive")
            for j in range(n):
                if i != j:
                    if mat[i][j] > 0:
                        raise ValueError(f"off-diagonal entry a_{i}{j} must be <= 0")
                    if (mat[i][j] == 0) != (mat[j][i] == 0):
                        raise ValueError(f"zero pattern of a_{i}{j}, a_{j}{i} not symmetric")
                    if sym[i] * mat[i][j] != sym[j] * mat[j][i]:
                        raise ValueError("symmetrizers do not symmetrize the matrix")
        if reduce(gcd, sym) != 1:
            raise ValueError("symmetrizers must have gcd 1")
        self.matrix = mat
        self.sym = sym
        self.n = n
        self._inv = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, CartanData):
            return NotImplemented
        return self.matrix == other.matrix and self.sym == other.sym

    def __hash__(self) -> int:
        return hash((self.matrix, self.sym))

    def __repr__(self) -> str:
        return f"CartanData(n={self.n}, matrix={self.matrix}, sym={self.sym})"

    # -- basic weights and roots ------------------------------------------

    def fundamental(self, i: int) -> Weight:
        return Weight(tuple(1 if j == i else 0 for j in range(self.n)))

    def alpha(self, i: int) -> Weight:
        """Simple root alpha_i written in the fundamental-weight basis."""
        return Weight(tuple(self.matrix[j][i] for j in range(self.n)))

    def root_form(self, i: int, j: int) -> int:
        """(alpha_i, alpha_j) = t_i * a_ij."""
        return self.sym[i] * self.matrix[i][j]

    def inverse(self):
        """The inverse Cartan matrix over Q; ValueError when it is singular."""
        if self._inv is None:
            n = self.n
            aug = [[Fraction(self.matrix[i][j]) for j in range(n)]
                   + [Fraction(1 if j == i else 0) for j in range(n)]
                   for i in range(n)]
            for col in range(n):
                piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
                if piv is None:
                    raise ValueError("Cartan matrix is singular; weight pairing undefined")
                aug[col], aug[piv] = aug[piv], aug[col]
                inv = 1 / aug[col][col]
                aug[col] = [x * inv for x in aug[col]]
                for r in range(n):
                    if r != col and aug[r][col] != 0:
                        f = aug[r][col]
                        aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
            self._inv = tuple(tuple(row[n:]) for row in aug)
        return self._inv

    def pairing(self, lam: Weight, mu: Weight) -> Fraction:
        """Symmetric form (lambda, mu) normalized by (alpha_i, alpha_i) = 2 t_i."""
        inv = self.inverse()
        total = Fraction(0)
        for i, a in enumerate(lam.coords):
            if a == 0:
                continue
            for j, b in enumerate(mu.coords):
                if b:
                    total += a * b * self.sym[i] * inv[i][j]
        return total

    def weight_to_root(self, lam: Weight) -> RootVector:
        """Express a root-lattice weight in simple-root coordinates."""
        inv = self.inverse()
        out = []
        for i in range(self.n):
            c = sum(Fraction(inv[i][j]) * lam.coords[j] for j in range(self.n))
            if c.denominator != 1:
                raise ValueError(f"{lam} is not in the root lattice")
            out.append(int(c))
        return RootVector(tuple(out))

    # -- reflections ------------------------------------------------------

    def reflect(self, i: int, lam: Weight) -> Weight:
        """s_i(lambda) = lambda - <h_i, lambda> alpha_i."""
        c = lam.coords[i]
        if c == 0:
            return lam
        return Weight(tuple(a - c * self.matrix[j][i] for j, a in enumerate(lam.coords)))

    def reflect_root(self, i: int, rv: RootVector) -> RootVector:
        pair = sum(self.matrix[i][j] * rv.coords[j] for j in range(self.n))
        return RootVector(tuple(c - pair if j == i else c
                                for j, c in enumerate(rv.coords)))

    def apply_word(self, word, lam: Weight) -> Weight:
        """s_{i_1} ... s_{i_r} (lambda), rightmost letter acting first."""
        for i in reversed(_validate_letters(self, word)):
            lam = self.reflect(i, lam)
        return lam

    def apply_word_root(self, word, rv: RootVector) -> RootVector:
        for i in reversed(word):
            rv = self.reflect_root(i, rv)
        return rv


# -- presets ---------------------------------------------------------------

_PRESETS = {
    "A1": ([[2]], [1]),
    "A2": ([[2, -1], [-1, 2]], [1, 1]),
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1]),
    "B2": ([[2, -2], [-1, 2]], [1, 2]),
    "G2": ([[2, -3], [-1, 2]], [1, 3]),
}


def cartan_preset(name: str) -> CartanData:
    try:
        matrix, sym = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown Cartan type {name!r}; choose from {sorted(_PRESETS)}")
    return CartanData(matrix, sym)


# -- word combinatorics ----------------------------------------------------

def _validate_letters(datum: CartanData, word) -> tuple[int, ...]:
    """word as a tuple of int letters; ValueError when a letter is not
    integral or lies outside 0..n-1."""
    word = int_vector(word)
    for i in word:
        if not 0 <= i < datum.n:
            raise ValueError(f"letter {i} outside index set 0..{datum.n - 1}")
    return word


def beta_sequence(datum: CartanData, word) -> list[RootVector]:
    """Roots beta_k = s_{i_1} ... s_{i_{k-1}} (alpha_{i_k}), in root coordinates."""
    word = _validate_letters(datum, word)
    out = []
    for k, i in enumerate(word):
        rv = RootVector(tuple(1 if j == i else 0 for j in range(datum.n)))
        out.append(datum.apply_word_root(word[:k], rv))
    return out


def is_reduced(datum: CartanData, word) -> bool:
    """True when every beta_k is a positive root."""
    word = _validate_letters(datum, word)
    return all(b.is_positive for b in beta_sequence(datum, word))


def frozen_split(datum: CartanData, word) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Partition positions 0..r-1 into (exchangeable, frozen).

    A position is frozen when its letter never occurs again later in the word.
    """
    word = _validate_letters(datum, word)
    r = len(word)
    fz = tuple(k for k in range(r) if word[k] not in word[k + 1:])
    ex = tuple(k for k in range(r) if k not in fz)
    return ex, fz
