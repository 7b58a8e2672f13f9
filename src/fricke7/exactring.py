"""Exact polynomial arithmetic over ZZ, QQ, and the cubic field QQ(r).

Three layers, all exact:

* dense univariate polynomials as plain lists (low degree first) over any
  coefficient type supporting ring operations (int, Fraction, CubicNum, ...);
* ``CubicNum``: elements of QQ(r) where r^3 - 8r^2 + 5r + 1 = 0;
* ``MPoly``: sparse multivariate polynomials over a pluggable coefficient ring,
  with exact division.

List polynomials only add, multiply and take pseudo-remainders (``prem``,
which divides by nothing); ``MPoly.exact_div`` is the one division, and it
raises where it would not be exact.  ``resultant`` and ``discriminant`` run
one subresultant PRS over coefficient lists in ZZ or in one MPoly ring; each
of its divisions is exact and checked.
``power`` is the one square-and-multiply loop, shared by every ring type here
and in ``ffpoly`` and ``qseries``.

``homogenize`` composes a coefficient list with a fraction num/den and clears
the denominator; it only needs + and *, so it serves MPoly and FpPoly alike.

Everything here is pure and immutable-by-convention; no floating point.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

# ---------------------------------------------------------------------------
# dense univariate polynomials, low degree first


def ptrim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def pdeg(c: Sequence) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(c) - 1


def padd(a: Sequence, b: Sequence) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x + y)
    return ptrim(out)


def pneg(a: Sequence) -> list:
    return [-c for c in a]


def psub(a: Sequence, b: Sequence) -> list:
    return padd(a, pneg(list(b)))


def pscale(a: Sequence, s) -> list:
    if not s:
        return []
    return ptrim([c * s for c in a])


def pmul(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    out = [a[0] * b[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return ptrim(out)


def pmul_many(polys: Iterable[Sequence]) -> list:
    out = [1]
    for p in polys:
        out = pmul(out, p)
    return out


def power(base, k: int, one, mul: Callable = operator.mul):
    """base^k by square-and-multiply from `one`: out = mul(out, base) at each
    set bit of k from the lowest, base = mul(base, base) between them.  A
    negative k raises ValueError; types with inverses handle it before."""
    if k < 0:
        raise ValueError("negative power")
    out = one
    while k:
        if k & 1:
            out = mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return out


def ppow(a: Sequence, k: int) -> list:
    return power(list(a), k, [1], pmul)


def peval(a: Sequence, x):
    out = 0
    for c in reversed(list(a)):
        out = out * x + c
    return out


# Ranges of at most this many coefficients run Horner's rule; longer ones
# split in two.  Measured on a 2-core x86-64 VM for `hasse_poly` (FpPoly, num
# and den of degree 24): 8 and 16 were within noise of each other, 64 was
# slower.
_HORNER_LEAF = 16


def _powers(p):
    """p^s for s >= 1, by squaring, each power kept once computed."""
    cache = {1: p}

    def nth(s: int):
        if s not in cache:
            half = nth(s // 2)
            cache[s] = half * half * p if s % 2 else half * half
        return cache[s]

    return nth


def homogenize(coeffs: Sequence, num, den):
    """sum_k c_k num^k den^(n-k), n = len(coeffs) - 1: the polynomial
    sum c_k y^k at y = num/den, cleared of denominators.

    Balanced: the sum over k = lo..hi, S(lo, hi) = sum c_k num^(k-lo)
    den^(hi-k), is S(lo, mid) den^(hi-mid) + S(mid+1, hi) num^(mid+1-lo), so
    long sums multiply operands of similar size.  The powers of num and den
    are cached, and short ranges run Horner's rule in num.  Only + and * are
    used, so num and den may be FpPoly, MPoly or ints.
    """
    num_pow, den_pow = _powers(num), _powers(den)

    def part(lo: int, hi: int):
        if hi - lo < _HORNER_LEAF:
            out = num * 0 + coeffs[hi]
            for j, c in enumerate(reversed(coeffs[lo:hi]), 1):
                out = out * num + c * den_pow(j)
            return out
        mid = (lo + hi) // 2
        return part(lo, mid) * den_pow(hi - mid) + part(mid + 1, hi) * num_pow(mid + 1 - lo)

    return part(0, len(coeffs) - 1)


def pderiv(a: Sequence) -> list:
    return ptrim([i * a[i] for i in range(1, len(a))])


def pshift(a: Sequence, k: int) -> list:
    """Multiply by x^k."""
    if not a:
        return []
    return [0] * k + list(a)


# ---------------------------------------------------------------------------
# resultants via the subresultant PRS (fraction-free)


def _exact_div(a, b):
    """a / b in ZZ or in an MPoly ring; raises ValueError when b does not
    divide a, where floor division would round silently."""
    return a.exact_div(b) if isinstance(a, MPoly) else _coeff_div(a, b)


def _one_ring(*polys: Sequence) -> List[list]:
    """The coefficient lists, trimmed, with ints lifted to the MPoly ring of
    any MPoly coefficient among them."""
    ring = next((c for p in polys for c in p if isinstance(c, MPoly)), None)
    if ring is None:
        return [ptrim(list(p)) for p in polys]
    return [ptrim([c if isinstance(c, MPoly) else MPoly.const(c, ring.vars) for c in p])
            for p in polys]


def prem(a: list, b: list) -> list:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a  mod b, without division."""
    da, db = pdeg(a), pdeg(b)
    lb = b[-1]
    r = list(a)
    e = da - db + 1
    while r and pdeg(r) >= db:
        k = pdeg(r) - db
        lr = r[-1]
        r = [lb * c for c in r]
        for i in range(db + 1):
            r[k + i] -= lr * b[i]
        ptrim(r)
        e -= 1
    if e > 0:
        f = lb**e
        r = [c * f for c in r]
    return r


def resultant(a: Sequence, b: Sequence):
    """Res(a, b) of two coefficient lists (low degree first) over ZZ or over
    one MPoly ring, by the subresultant PRS (Collins 1967; Brown-Traub 1971):
    every division in it is exact, so no fractions arise."""
    A, B = _one_ring(a, b)
    if not A or not B:
        raise ValueError("resultant of the zero polynomial")
    s = 1
    if pdeg(A) < pdeg(B):
        if pdeg(A) & 1 and pdeg(B) & 1:
            s = -s
        A, B = B, A
    if pdeg(B) == 0:
        return s * B[0] ** pdeg(A)
    g = h = 1
    while True:
        dA, dB = pdeg(A), pdeg(B)
        d = dA - dB
        if dA & 1 and dB & 1:
            s = -s
        R = prem(A, B)
        A = B
        if not R:
            return A[-1] * 0
        denom = g * h**d
        B = [_exact_div(c, denom) for c in R]
        g = A[-1]
        if d > 0:
            h = _exact_div(g**d, h ** (d - 1))
        if pdeg(B) == 0:
            dA = pdeg(A)
            return s * _exact_div(B[0] ** dA, h ** (dA - 1))


def discriminant(a: Sequence):
    """disc(a) = (-1)^(n(n-1)/2) Res(a, a') / lc(a), n = deg a, over ZZ or
    over one MPoly ring."""
    (A,) = _one_ring(a)
    n = pdeg(A)
    sign = -1 if (n * (n - 1) // 2) & 1 else 1
    return _exact_div(sign * resultant(A, pderiv(A)), A[-1])


# ---------------------------------------------------------------------------
# the cubic field QQ(r), r^3 = 8r^2 - 5r - 1


class CubicNum:
    """Element a0 + a1*r + a2*r^2 of QQ(r) with r^3 - 8r^2 + 5r + 1 = 0."""

    __slots__ = ("c",)

    def __init__(self, c0=0, c1=0, c2=0):
        self.c = (Fraction(c0), Fraction(c1), Fraction(c2))

    @classmethod
    def _raw(cls, triple) -> "CubicNum":
        out = object.__new__(cls)
        out.c = triple
        return out

    @classmethod
    def gen(cls) -> "CubicNum":
        return cls(0, 1, 0)

    def __bool__(self) -> bool:
        return any(self.c)

    def __eq__(self, other) -> bool:
        other = _as_cubic(other)
        return other is not None and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other):
        other = _as_cubic(other)
        if other is None:
            return NotImplemented
        a, b = self.c, other.c
        return CubicNum._raw((a[0] + b[0], a[1] + b[1], a[2] + b[2]))

    __radd__ = __add__

    def __neg__(self):
        return CubicNum._raw(tuple(-x for x in self.c))

    def __sub__(self, other):
        other = _as_cubic(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_cubic(other) + (-self)

    def __mul__(self, other):
        other = _as_cubic(other)
        if other is None:
            return NotImplemented
        a, b = self.c, other.c
        c = [Fraction(0)] * 5
        for i in range(3):
            if a[i]:
                for j in range(3):
                    c[i + j] += a[i] * b[j]
        # r^3 = 8r^2 - 5r - 1,  r^4 = 59r^2 - 41r - 8
        c0 = c[0] - c[3] - 8 * c[4]
        c1 = c[1] - 5 * c[3] - 41 * c[4]
        c2 = c[2] + 8 * c[3] + 59 * c[4]
        return CubicNum._raw((c0, c1, c2))

    __rmul__ = __mul__

    def inverse(self) -> "CubicNum":
        """sigma(a) sigma^2(a) / N(a)."""
        if not self:
            raise ZeroDivisionError("inverse of zero in QQ(r)")
        _, s, s2 = self.conjugates()
        adj = s * s2
        return adj * (1 / (self * adj).rational())

    def __truediv__(self, other):
        other = _as_cubic(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _as_cubic(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, CubicNum(1))

    def sigma(self) -> "CubicNum":
        """The Galois automorphism r -> -r^2 + 7r + 2 of QQ(r)/QQ."""
        img = CubicNum(2, 7, -1)
        a = self.c
        return CubicNum(a[0]) + a[1] * img + a[2] * (img * img)

    def conjugates(self) -> Tuple["CubicNum", "CubicNum", "CubicNum"]:
        s = self.sigma()
        return (self, s, s.sigma())

    def norm(self) -> Fraction:
        e, s, s2 = self.conjugates()
        prod = e * s * s2
        if prod.c[1] or prod.c[2]:
            raise ArithmeticError("norm did not land in QQ")
        return prod.c[0]

    def rational(self) -> Fraction:
        if self.c[1] or self.c[2]:
            raise ArithmeticError("element not rational")
        return self.c[0]

    def __repr__(self):
        return f"CubicNum({self.c[0]}, {self.c[1]}, {self.c[2]})"


def _as_cubic(x):
    if isinstance(x, CubicNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CubicNum(x)
    return None


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over a duck-typed coefficient ring


class MPoly:
    """Multivariate polynomial: dict of exponent tuples -> nonzero coefficient.

    Coefficients may be ints, Fractions, or CubicNum; mixing within one
    polynomial is allowed as long as the operations close.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Dict[Tuple[int, ...], object]):
        self.vars = tuple(vars)
        self.terms = {e: c for e, c in terms.items() if c}

    # -- constructors

    @classmethod
    def const(cls, c, vars: Sequence[str]) -> "MPoly":
        vars = tuple(vars)
        z = (0,) * len(vars)
        return cls(vars, {z: c} if c else {})

    @classmethod
    def var(cls, name: str, vars: Sequence[str]) -> "MPoly":
        vars = tuple(vars)
        e = tuple(1 if v == name else 0 for v in vars)
        if sum(e) != 1:
            raise ValueError(f"unknown variable {name!r}")
        return cls(vars, {e: 1})

    @classmethod
    def from_univar(cls, coeffs: Sequence, name: str, vars: Sequence[str]) -> "MPoly":
        vars = tuple(vars)
        i = vars.index(name)
        terms = {}
        for k, c in enumerate(coeffs):
            if c:
                e = [0] * len(vars)
                e[i] = k
                terms[tuple(e)] = c
        return cls(vars, terms)

    # -- basics

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.vars == other.vars and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def _check(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if other.vars != self.vars:
                raise ValueError("variable mismatch")
            return other
        return MPoly.const(other, self.vars)

    def __add__(self, other):
        other = self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return MPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        other = self._check(other)
        terms: Dict[Tuple[int, ...], object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(i + j for i, j in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return MPoly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, MPoly.const(1, self.vars))

    def degree(self, name: str) -> int:
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=-1)

    def coeff_of(self, name: str, k: int) -> "MPoly":
        """Coefficient of name^k, as an MPoly in the same variable set."""
        i = self.vars.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == k:
                e2 = list(e)
                e2[i] = 0
                terms[tuple(e2)] = c
        return MPoly(self.vars, terms)

    def as_univar(self, name: str) -> List["MPoly"]:
        """Coefficient list in `name`, low degree first."""
        d = self.degree(name)
        return [self.coeff_of(name, k) for k in range(d + 1)]

    def map_coeffs(self, fn: Callable) -> "MPoly":
        return MPoly(self.vars, {e: fn(c) for e, c in self.terms.items()})

    def _leading(self):
        e = max(self.terms)  # lex on exponent tuples
        return e, self.terms[e]

    def exact_div(self, other: "MPoly") -> "MPoly":
        """Exact division; raises ValueError when `other` does not divide self."""
        other = self._check(other)
        if other.is_zero:
            raise ZeroDivisionError
        rem = dict(self.terms)
        quot: Dict[Tuple[int, ...], object] = {}
        le, lc = other._leading()
        while rem:
            e = max(rem)
            c = rem[e]
            qe = tuple(i - j for i, j in zip(e, le))
            if any(i < 0 for i in qe):
                raise ValueError("inexact multivariate division")
            qc = _coeff_div(c, lc)
            quot[qe] = qc
            for oe, oc in other.terms.items():
                t = tuple(i + j for i, j in zip(qe, oe))
                s = rem.get(t, 0) - qc * oc
                if s:
                    rem[t] = s
                else:
                    rem.pop(t, None)
        return MPoly(self.vars, quot)

    def __repr__(self):
        if self.is_zero:
            return "MPoly(0)"
        bits = []
        for e in sorted(self.terms, reverse=True):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k
            )
            bits.append(f"({self.terms[e]}){'*' + mono if mono else ''}")
        return " + ".join(bits)


def _coeff_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise ValueError("inexact coefficient division")
        return q
    if isinstance(b, CubicNum) or isinstance(a, CubicNum):
        return _as_cubic(a) / _as_cubic(b)
    return Fraction(a) / Fraction(b)
