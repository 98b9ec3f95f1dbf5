"""Based quantum tori over exact coefficient rings.

Elements are finite sums of normalized monomials x^a indexed by integer
exponent vectors.  The defining relations come from a skew-symmetric
integer form L: x^a * x^b = v^{L(a,b)} x^{a+b}, where v is a square root
of q.  Depending on the coefficient ring, v is kept symbolic (Laurent
coefficients), sent to a root of unity, or sent to 1.
"""

from __future__ import annotations

import math
from operator import add, mul

from .coeff import CycloInt, ExactDivisionError, IntLaurent, Point, specialize
from .rootdatum import int_vector


# -- coefficient ring adapters --------------------------------------------
#
# A ring adapter has five operations, so torus code stays generic: one(),
# from_laurent(c), the ring map from Z[v, v^-1] (constants are its images),
# the fused product mul_v(a, b, k) = a b v^k, the unit shift
# v_shift(c, k) = c v^k (so v^k itself is v_shift(one(), k)), and
# canon(terms), the canonical form of a term dict.
# Coefficients test zero by truthiness; only IntLaurent divides exactly.

class LaurentRing:
    """Integer Laurent polynomials in v."""

    def one(self):
        return IntLaurent.one()

    def mul_v(self, a, b, k):
        return (a * b).shifted(k)

    def v_shift(self, c, k):
        return c.shifted(k)

    def canon(self, terms):
        return {a: c for a, c in terms.items() if c}

    def from_laurent(self, c):
        return c

    def __eq__(self, other):
        return type(other) is LaurentRing

    def __hash__(self):
        return hash("laurent")


class CycloRing:
    """Z[eps] for a primitive odd l-th root of unity eps.

    point selects where v goes: at ONE every v power collapses to 1, at
    EPS the power v^e maps to eps^{e(l+1)/2} using the square root
    eps^{(l+1)/2} of eps.
    """

    def __init__(self, l: int, point: Point):
        if l < 3 or l % 2 == 0:
            raise ValueError("order must be an odd integer >= 3")
        self.l = l
        self.point = point
        self._half = (l + 1) // 2 if point is Point.EPS else 0

    def one(self):
        return CycloInt.from_int(self.l, 1)

    def mul_v(self, a, b, k):
        return a.mul_eps(b, k * self._half)

    def v_shift(self, c, k):
        return c.eps_shift(k * self._half) if self._half else c

    def canon(self, terms):
        return {a: c for a, c in terms.items() if c}

    def from_laurent(self, c):
        return specialize(c, self.l, self.point)

    def __eq__(self, other):
        return type(other) is CycloRing and (self.l, self.point) == (other.l, other.point)

    def __hash__(self):
        return hash(("cyclo", self.l, self.point))


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class PrimeField:
    """F_p with v already sent to 1; elements are ints in range(p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def one(self):
        return 1

    def mul_v(self, a, b, k):
        return a * b % self.p

    def v_shift(self, c, k):
        return c

    def canon(self, terms):
        p = self.p
        return {a: r for a, c in terms.items() if (r := c % p)}

    def from_laurent(self, c):
        return c.at_one() % self.p

    def __eq__(self, other):
        return type(other) is PrimeField and self.p == other.p

    def __hash__(self):
        return hash(("primefield", self.p))


# -- the skew form ---------------------------------------------------------

class SkewForm:
    """Skew-symmetric integer matrix on Z^r, applied to exponent vectors."""

    __slots__ = ("mat", "r")

    def __init__(self, mat):
        m = tuple(map(int_vector, mat))
        r = len(m)
        if any(len(row) != r for row in m):
            raise ValueError("form matrix must be square")
        for i in range(r):
            for j in range(i, r):
                if m[i][j] != -m[j][i]:
                    raise ValueError(f"form not skew-symmetric at ({i}, {j})")
        self.mat = m
        self.r = r

    def __eq__(self, other):
        return isinstance(other, SkewForm) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"SkewForm({self.mat})"

    def __call__(self, a, b) -> int:
        """L(a, b), the dot product of a with image(b)."""
        return sum(map(mul, a, self.image(b)))

    def image(self, b) -> tuple:
        """M b, so that L(a, b) is the dot product of a with it."""
        return tuple([sum(map(mul, row, b)) for row in self.mat])

    def twist(self, a) -> int:
        """Exponent of v normalizing the ordered product x_1^{a_1} ... x_r^{a_r}."""
        return sum([ai * sum(map(mul, row, a[:i]))
                    for i, (ai, row) in enumerate(zip(a, self.mat)) if ai])


# -- torus elements --------------------------------------------------------

class TorusElement:
    """Finite sum of monomials c_a x^a over a fixed ring and skew form."""

    __slots__ = ("ring", "form", "terms")

    def __init__(self, ring, form: SkewForm, terms: dict):
        self.ring = ring
        self.form = form
        self.terms = ring.canon(terms)

    @classmethod
    def from_canonical(cls, ring, form, terms: dict):
        """Wrap terms already in the ring's canonical form, with no zero
        coefficient, without passing them through ring.canon."""
        out = object.__new__(cls)
        out.ring, out.form, out.terms = ring, form, terms
        return out

    @classmethod
    def zero(cls, ring, form):
        return cls(ring, form, {})

    @classmethod
    def one(cls, ring, form):
        return cls(ring, form, {(0,) * form.r: ring.one()})

    @classmethod
    def monomial(cls, ring, form, a, coeff=None):
        a = int_vector(a)
        if len(a) != form.r:
            raise ValueError("exponent vector has wrong length")
        return cls(ring, form, {a: ring.one() if coeff is None else coeff})

    def __bool__(self):
        return bool(self.terms)

    def _check_peer(self, other):
        if self.ring != other.ring or self.form != other.form:
            raise ValueError("mixed torus arithmetic")

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return (self.ring == other.ring and self.form == other.form
                and self.terms == other.terms)

    __hash__ = None

    def __add__(self, other):
        self._check_peer(other)
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out[a] + c if a in out else c
        return TorusElement(self.ring, self.form, out)

    def __neg__(self):
        return TorusElement(self.ring, self.form, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_peer(other)
        ring, form, mul_v = self.ring, self.form, self.ring.mul_v
        right = [(b, cb, form.image(b)) for b, cb in other.terms.items()]
        out: dict = {}
        for a, ca in self.terms.items():
            for b, cb, mb in right:
                key = tuple(map(add, a, b))
                c = mul_v(ca, cb, sum(map(mul, a, mb)))
                out[key] = out[key] + c if key in out else c
        return TorusElement(ring, form, out)

    def scale(self, coeff):
        return TorusElement(self.ring, self.form,
                            {a: c * coeff for a, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("exponents must be nonnegative")
        result = TorusElement.one(self.ring, self.form)
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def coeff(self, a):
        """The coefficient of x^a; the integer 0 off the support."""
        return self.terms.get(tuple(a), 0)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for a in sorted(self.terms, reverse=True):
            bits.append(f"({self.terms[a]!r})*x^{a}")
        return " + ".join(bits)


def normal_product(variables, cluster_form: SkewForm, a) -> TorusElement:
    """Normalized monomial v^{twist(a)} y_1^{a_1} ... y_r^{a_r}.

    The y_i are torus elements commuting by cluster_form (in the given
    order); the result lives wherever the y_i do, typically the initial
    torus.
    """
    a = int_vector(a)
    if len(variables) != cluster_form.r or len(a) != cluster_form.r:
        raise ValueError("variable list, form and exponent sizes disagree")
    ring = variables[0].ring
    ambient = variables[0].form
    out = TorusElement.one(ring, ambient).scale(ring.v_shift(ring.one(), cluster_form.twist(a)))
    for y, e in zip(variables, a):
        if e:
            out = out * (y ** e)
    return out


def exact_right_divide(g: TorusElement, f: TorusElement) -> TorusElement:
    """Solve h * f = g in the torus; raise ExactDivisionError when no h exists.

    Works over Z[v, v^-1] by cancelling lex-leading terms.  Candidate
    exponents of h are confined to the box [min(g) - min(f), max(g) - max(f)]
    taken coordinatewise over supports, which bounds the search and forces
    termination; any step outside the box proves there is no solution.
    """
    g._check_peer(f)
    if g.ring != LaurentRing():
        raise ValueError("exact division needs Z[v, v^-1] coefficients")
    if not f:
        raise ZeroDivisionError("right division by zero")
    ring, form = g.ring, g.form
    if not g:
        return TorusElement.zero(ring, form)
    r = form.r
    g_sup, f_sup = list(g.terms), list(f.terms)
    lo = tuple(min(a[i] for a in g_sup) - min(b[i] for b in f_sup) for i in range(r))
    hi = tuple(max(a[i] for a in g_sup) - max(b[i] for b in f_sup) for i in range(r))
    lm_f = max(f.terms)
    lc_f, m_lm = f.terms[lm_f], form.image(lm_f)
    f_terms = [(b, cb, form.image(b)) for b, cb in f.terms.items()]
    rem = dict(g.terms)
    quot: dict = {}
    while rem:
        lm_r = max(rem)
        t = tuple(x - y for x, y in zip(lm_r, lm_f))
        if any(not lo[i] <= t[i] <= hi[i] for i in range(r)):
            raise ExactDivisionError(f"required exponent {t} escapes the quotient box")
        try:
            c = rem[lm_r].exact_div(lc_f.shifted(sum(map(mul, t, m_lm))))
        except ExactDivisionError as exc:
            raise ExactDivisionError(f"coefficient not divisible: {exc}") from exc
        quot[t] = c
        for b, cb, mb in f_terms:
            key = tuple(map(add, t, b))
            delta = ring.mul_v(c, cb, sum(map(mul, t, mb)))
            cur = rem[key] - delta if key in rem else -delta
            if not cur:
                rem.pop(key, None)
            else:
                rem[key] = cur
    return TorusElement(ring, form, quot)
