"""Exact coefficient arithmetic.

Everything downstream runs over one of three coefficient domains built
here: Laurent polynomials in v = q^(1/2) with integer coefficients,
cyclotomic integers Z[x]/Phi_l(x) for odd l, and (elsewhere) prime fields.
Coefficients test zero by truthiness.  Reduced rational functions in v
(RatFunc) are no longer on any runtime path; the tests' minor oracle and
the benchmark's coefficient kernels (perfbench/kernels.py) still import
them.  No floating point, no truncation: all operations are exact and all
equality checks are syntactic on canonical forms.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, neg, sub


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder;
    `witness`, when the raiser gives one, names the value's input."""

    def __init__(self, message: str = "", witness=None):
        super().__init__(message)
        self.witness = witness


class Point(enum.Enum):
    """Specialization target for v: the value 1, or eps^((l+1)/2) for a
    primitive l-th root of unity eps."""

    ONE = "one"
    EPS = "eps"


class IntLaurent:
    """Sparse Laurent polynomial in v over Z, keyed exponent -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        self.terms = {int(e): int(c) for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "IntLaurent":
        return cls()

    @classmethod
    def one(cls) -> "IntLaurent":
        return cls({0: 1})

    @classmethod
    def from_int(cls, n: int) -> "IntLaurent":
        return cls({0: n})

    @property
    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # terms holds no zero coefficient, so equal elements hash alike
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "IntLaurent") -> "IntLaurent":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return IntLaurent(out)

    def __sub__(self, other: "IntLaurent") -> "IntLaurent":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return IntLaurent(out)

    def __neg__(self) -> "IntLaurent":
        return IntLaurent({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "IntLaurent") -> "IntLaurent":
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return IntLaurent(out)

    def min_exp(self) -> int:
        return min(self.terms)

    def max_exp(self) -> int:
        return max(self.terms)

    def shifted(self, k: int) -> "IntLaurent":
        return IntLaurent({e + k: c for e, c in self.terms.items()})

    def leading_coeff(self) -> int:
        return self.terms[self.max_exp()]

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, abs(c))
        return g

    def at_one(self) -> int:
        """Evaluate at v = 1."""
        return sum(self.terms.values())

    def exact_div(self, other: "IntLaurent") -> "IntLaurent":
        """Exact quotient self / other over Z[v, v^-1]; raises if inexact."""
        if not other:
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if not self:
            return IntLaurent.zero()
        lo, dlo = self.min_exp(), other.min_exp()
        num = [self.terms.get(e, 0) for e in range(lo, self.max_exp() + 1)]
        den = [other.terms.get(e, 0) for e in range(dlo, other.max_exp() + 1)]
        quot = _poly_div_exact(num, den)
        return IntLaurent({e + lo - dlo: c for e, c in enumerate(quot)})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif mag == 1:
                body = f"v^{e}"
            else:
                body = f"{mag}*v^{e}"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out


def qint(n: int, d: int = 1) -> IntLaurent:
    """Balanced quantum integer [n] in q^d = v^(2d).

    [n] = (q_i^n - q_i^(-n)) / (q_i - q_i^(-1)); symmetric under v -> v^(-1).
    Extended to negative n by [-n] = -[n].
    """
    if d < 1:
        raise ValueError("symmetrizer exponent d must be >= 1")
    if n < 0:
        return -qint(-n, d)
    return IntLaurent({2 * d * (n - 1 - 2 * j): 1 for j in range(n)})


def qfactorial(n: int, d: int = 1) -> IntLaurent:
    """[n]! = [1][2]...[n] in q^d."""
    if n < 0:
        raise ValueError("negative quantum factorial")
    out = IntLaurent.one()
    for j in range(1, n + 1):
        out = out * qint(j, d)
    return out


def qbinom(n: int, k: int, d: int = 1) -> IntLaurent:
    """Balanced Gaussian binomial [n choose k] in q^d; exact over Z[v,v^-1]."""
    if k < 0 or k > n:
        raise ValueError(f"binomial index k={k} outside 0..{n}")
    return qfactorial(n, d).exact_div(qfactorial(k, d) * qfactorial(n - k, d))


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of dense integer polynomials, low to high, each with a
    nonzero leading coefficient; the messages reach reports."""
    dd = len(den) - 1
    if len(num) - 1 < dd:
        raise ExactDivisionError("degree of divisor exceeds dividend")
    num = list(num)
    lead = den[dd]
    out = [0] * (len(num) - dd)
    for pos in range(len(num) - 1, dd - 1, -1):
        c = num[pos]
        if c == 0:
            continue
        if c % lead != 0:
            raise ExactDivisionError("leading coefficient does not divide")
        f = c // lead
        out[pos - dd] = f
        for j in range(dd + 1):
            num[pos - dd + j] -= f * den[j]
    if any(num):
        raise ExactDivisionError("nonzero remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_coeffs(l: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the l-th cyclotomic polynomial Phi_l."""
    if l < 1:
        raise ValueError("cyclotomic index must be positive")
    if l == 1:
        return (-1, 1)
    poly = [-1] + [0] * (l - 1) + [1]
    for d in range(1, l):
        if l % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_coeffs(d)))
    return tuple(poly)


def _reduce_mod_phi(l: int, work: list[int]) -> tuple[int, ...]:
    """The reduced coefficient tuple of work mod Phi_l; work is consumed."""
    phi = cyclotomic_coeffs(l)
    deg = len(phi) - 1
    for pos in range(len(work) - 1, deg - 1, -1):
        c = work[pos]
        if c == 0:
            continue
        work[pos] = 0
        for j in range(deg):
            work[pos - deg + j] -= c * phi[j]
    work = work[:deg]
    work += [0] * (deg - len(work))
    return tuple(work)


class CycloInt:
    """Element of Z[eps] = Z[x]/Phi_l(x), stored as a reduced coefficient tuple."""

    __slots__ = ("l", "coeffs")

    def __init__(self, l: int, coeffs):
        if l < 3 or l % 2 == 0:
            raise ValueError("cyclotomic order must be odd and >= 3")
        self.l = l
        self.coeffs = _reduce_mod_phi(l, list(coeffs))

    @classmethod
    def _reduced(cls, l: int, coeffs: tuple) -> "CycloInt":
        """Wrap a reduced coefficient tuple of an order already checked."""
        out = object.__new__(cls)
        out.l = l
        out.coeffs = coeffs
        return out

    @classmethod
    def from_int(cls, l: int, n: int) -> "CycloInt":
        return cls(l, [n])

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def _check(self, other: "CycloInt") -> None:
        if self.l != other.l:
            raise ValueError("mixed cyclotomic orders")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloInt):
            return NotImplemented
        return self.l == other.l and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # coeffs is the reduced form, so equal elements hash alike
        return hash((self.l, self.coeffs))

    # sums, differences and negatives of reduced forms are reduced
    def __add__(self, other: "CycloInt") -> "CycloInt":
        self._check(other)
        return CycloInt._reduced(self.l, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycloInt") -> "CycloInt":
        self._check(other)
        return CycloInt._reduced(self.l, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycloInt":
        return CycloInt._reduced(self.l, tuple(map(neg, self.coeffs)))

    def mul_eps(self, other: "CycloInt", k: int = 0) -> "CycloInt":
        """self * other * eps^k by one cyclic convolution (x^l = 1 mod Phi_l);
        at k = 0 this is the product, so it is also `*`."""
        self._check(other)
        l = self.l
        out = [0] * l
        for i, ca in enumerate(self.coeffs, k):
            if ca:
                for j, cb in enumerate(other.coeffs, i):
                    if cb:
                        out[j % l] += ca * cb
        return CycloInt._reduced(l, _reduce_mod_phi(l, out))

    __mul__ = mul_eps

    def eps_shift(self, k: int) -> "CycloInt":
        """self * eps^k: the length-l cyclic form rotated by k, reduced."""
        l = self.l
        k %= l
        if not k:
            return self
        cyclic = self.coeffs + (0,) * (l - len(self.coeffs))
        return CycloInt._reduced(l, _reduce_mod_phi(l, list(cyclic[-k:] + cyclic[:-k])))

    def __repr__(self) -> str:
        if not self:
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                parts.append(f"{c:+d}")
            elif abs(c) == 1:
                parts.append(f"{'+' if c > 0 else '-'}e^{e}" if e > 1 else f"{'+' if c > 0 else '-'}e")
            else:
                parts.append(f"{c:+d}*e^{e}" if e > 1 else f"{c:+d}*e")
        s = " ".join(parts)
        return s[1:] if s.startswith("+") else s


def specialize(f: IntLaurent, l: int, point: Point) -> CycloInt:
    """Send v to 1 (Point.ONE) or to eps^((l+1)/2) (Point.EPS) in Z[eps].

    l must be odd and >= 3; (l+1)/2 is then an integer, so both maps land in
    integer powers of eps and the two images generate the same ring.
    """
    if l < 3 or l % 2 == 0:
        raise ValueError("specialization order must be odd and >= 3")
    if point is Point.ONE:
        return CycloInt.from_int(l, f.at_one())
    half = (l + 1) // 2
    acc = [0] * l
    for m, c in f.terms.items():
        acc[(m * half) % l] += c
    return CycloInt(l, acc)


def _frac_lists_divmod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    # remainder of a by b over Q, destructive on a copy
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        f = a[-1] / b[-1]
        off = len(a) - 1 - db
        for j in range(db + 1):
            a[off + j] -= f * b[j]
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_gcd(a: IntLaurent, b: IntLaurent) -> IntLaurent:
    """Primitive gcd over Z of two nonzero polynomials with min exponent 0."""
    fa = [Fraction(a.terms.get(e, 0)) for e in range(a.max_exp() + 1)]
    fb = [Fraction(b.terms.get(e, 0)) for e in range(b.max_exp() + 1)]
    while fb:
        fa, fb = fb, _frac_lists_divmod(fa, fb)
    denom = 1
    for c in fa:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in fa]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return IntLaurent({e: c for e, c in enumerate(ints)})


class RatFunc:
    """Reduced rational function num/den in v over Z.

    Canonical form: den has min exponent 0, positive leading coefficient, and
    no common polynomial factor or integer content with num.  Equality is
    syntactic on this form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntLaurent, den: IntLaurent | None = None):
        if den is None:
            den = IntLaurent.one()
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num = IntLaurent.zero()
            self.den = IntLaurent.one()
            return
        if den.is_one:
            self.num = num
            self.den = den
            return
        shift = num.min_exp() - den.min_exp()
        n = num.shifted(-num.min_exp())
        d = den.shifted(-den.min_exp())
        g = _poly_gcd(n, d)
        if not g.is_one:
            n = n.exact_div(g)
            d = d.exact_div(g)
        c = gcd(n.content(), d.content())
        if c > 1:
            n = IntLaurent({e: cc // c for e, cc in n.terms.items()})
            d = IntLaurent({e: cc // c for e, cc in d.terms.items()})
        if d.leading_coeff() < 0:
            n, d = -n, -d
        self.num = n.shifted(shift)
        self.den = d

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(IntLaurent.zero())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(IntLaurent.one())

    @classmethod
    def from_int(cls, n: int) -> "RatFunc":
        return cls(IntLaurent.from_int(n))

    @classmethod
    def from_laurent(cls, f: IntLaurent) -> "RatFunc":
        return cls(f)

    @classmethod
    def v_power(cls, e: int) -> "RatFunc":
        return cls(IntLaurent({e: 1}))

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_one(self) -> bool:
        return self.num.is_one and self.den.is_one

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den.is_one and other.den.is_one:
            return RatFunc(self.num + other.num)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        if self.den.is_one and other.den.is_one:
            return RatFunc(self.num - other.num)
        return RatFunc(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __neg__(self) -> "RatFunc":
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.den.is_one and other.den.is_one:
            return RatFunc(self.num * other.num)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inv(self) -> "RatFunc":
        return RatFunc.one() / self

    def as_laurent(self) -> IntLaurent:
        """Return the numerator when the reduced denominator is 1."""
        if not self.den.is_one:
            raise ExactDivisionError(f"not a Laurent polynomial: denominator {self.den!r}")
        return self.num

    def __repr__(self) -> str:
        if self.den.is_one:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"
