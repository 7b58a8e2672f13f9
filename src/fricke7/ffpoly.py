"""Prime-field arithmetic plus a univariate polynomial toolbox over F_l:
factorization (squarefree / distinct-degree / equal-degree), resultants,
perfect square roots, and root finding in F_l and F_{l^2}.

`FpPoly` is the one F_l[x] type.  It holds the modulus and one dense numpy
coefficient vector, reduced, without trailing zeros, lowest degree first; no
other module sees that vector.  Products and divisions compute in int64 while
the sums they build provably fit (the bound is at `_dtype`), and in `object`
arrays of Python ints otherwise, so moduli up to 2^63 run the same code.
Long products go through a float64 FFT inside an asserted exactness bound
(`_fft_error`), and long quotients through the Newton inverse of the
reversed divisor (`_inv_series`); short ones keep `np.convolve` and the row
loop.  All randomized steps draw from a PRNG seeded deterministically from the
modulus and the input coefficients, so every run (and every process) produces
identical output.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .classnum import kronecker
from .errors import NotASquareError, StructuralError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 2^63."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod(a: int, p: int) -> Optional[int]:
    """A square root of a mod p (odd prime), or None if a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = smallest_nonresidue(p)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def smallest_nonresidue(p: int) -> int:
    for z in range(2, p):
        if pow(z, (p - 1) // 2, p) == p - 1:
            return z
    raise ValueError(f"no nonresidue mod {p}?")


# ---------------------------------------------------------------------------
# prime context


MODULUS_LIMIT = 2**63  # PrimeContext takes primes below this


@dataclass(frozen=True)
class PrimeContext:
    """A prime l != 2, 7 together with its derived character data."""

    l: int
    r: int
    s: int
    n: int
    mu7: int

    @classmethod
    def make(cls, l: int) -> "PrimeContext":
        if l in (2, 7) or l >= MODULUS_LIMIT or not is_prime(l):
            raise ValueError(f"modulus must be an odd prime != 7 below 2^63, got {l}")
        return cls(
            l=l,
            r=(1 - kronecker(-3, l)) // 2,
            s=(1 - kronecker(-4, l)) // 2,
            n=l // 12,
            mu7=(1 - kronecker(-7, l)) // 2,
        )


# ---------------------------------------------------------------------------
# coefficient-vector kernel (private; `FpPoly` is its only interface)

# A coefficient of a product of vectors of lengths m and n sums at most
# min(m, n) < m + n terms below (l-1)^2; a row of the division loop sums at
# most that many plus one reduced coefficient.  With (l-1)^2 (m + n) < 2^62
# both stay below 2^62 + l < 2^63, so int64 is exact.  Any vector kept in
# int64 also has (l-1)^2 < 2^62, so sums and scalings of two reduced vectors
# fit as well.
_INT64_BOUND = 2**62
assert 2 * _INT64_BOUND - 1 == np.iinfo(np.int64).max


def _dtype(l: int, n: int):
    """int64 when n terms below (l-1)^2 sum below 2^62, else Python ints."""
    return np.int64 if (l - 1) ** 2 * n < _INT64_BOUND else object


def _trim(v):
    n = len(v)
    while n and not v[n - 1]:
        n -= 1
    return v[:n]


def _add(l: int, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] = (out[: len(b)] + b) % l
    return _trim(out)


def _sub(l: int, a, b):
    return _add(l, a, (-b) % l)


def _scale(l: int, a, c: int):
    c %= l
    if not c:
        return a[:0]
    return a * c % l


# Float FFT product.  For a convolution computed by a radix-2 FFT of size 2^n
# in double precision, Percival (Math. Comp. 72, 2003, Thm 5.1) bounds the
# error of every output coefficient by
#     ||a||_2 ||b||_2 ((1+eps)^(3n) (1+eps sqrt5)^(3n+1) (1+beta)^(3n) - 1),
# with eps = 2^-53 and beta the error of the twiddle factors, taken as eps.
# Coefficients lie in [0, l-1]; with m the shorter length and the longer one
# at most 2^n, ||a||_2 ||b||_2 <= (l-1)^2 sqrt(m 2^n).  `_fft_error` is that
# bound.  Below 1/2, rint recovers every coefficient exactly; the bound is at
# least ||a|| ||b|| eps >= |coefficient| eps, so each exact coefficient is
# then also below 2^52 and representable.  At l = 9973 and two operands of
# length 20000 (n = 16) it is 0.08.  From l = 5 10^5 on it exceeds 1/2 at
# every length the FFT path takes (m >= _FFT_MIN_LEN), so large moduli, and
# with them every object-dtype one, always convolve directly.
_EPS = 2.0**-53


def _fft_error(l: int, m: int, n: int) -> float:
    """Percival's bound on the FFT product error: l-1 coefficient bound, m
    shorter operand length, 2^n FFT size."""
    growth = 6 * n * math.log1p(_EPS) + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5))
    return (l - 1) ** 2 * math.sqrt(m << n) * math.expm1(growth)


# The FFT product beats np.convolve once the shorter operand reaches this
# length.  Measured on a 2-core x86-64 VM (numpy 2.4, l = 1999), convolve vs
# FFT: operands of equal length m took 5 vs 27 us at m = 64, 23 vs 38 us at
# m = 128, 63 vs 45 us at m = 256 and 0.89 vs 0.10 ms at m = 1024; with the
# longer operand of length 1000, 51 vs 67 us at m = 64 and 120 vs 97 us at
# m = 128.
_FFT_MIN_LEN = 128


def _mul(l: int, a, b):
    """The product of a and b, reduced (a is b squares with one transform)."""
    if not len(a) or not len(b):
        return a[:0]
    m = min(len(a), len(b))
    n = (len(a) + len(b) - 2).bit_length()  # 2^n >= the product's length
    if m >= _FFT_MIN_LEN and _fft_error(l, m, n) < 0.5:
        return _mul_fft(l, a, b, m, n)
    dt = _dtype(l, len(a) + len(b))
    return np.convolve(a.astype(dt, copy=False), b.astype(dt, copy=False)) % l


def _mul_fft(l: int, a, b, m: int, n: int):
    assert _fft_error(l, m, n) < 0.5, "FFT product outside its exactness bound"
    fa = np.fft.rfft(a.astype(np.float64), 1 << n)
    fb = fa if a is b else np.fft.rfft(b.astype(np.float64), 1 << n)
    c = np.fft.irfft(fa * fb, 1 << n)[: len(a) + len(b) - 1]
    return np.rint(c).astype(np.int64) % l


def _inv_series(l: int, h, n: int):
    """g with h g = 1 mod x^n (h[0] a unit), length n, by Newton iteration:
    if h g = 1 + e x^k mod x^2k, then g - g e x^k is the inverse mod x^2k."""
    h = np.concatenate([h[:n], np.zeros(max(0, n - len(h)), dtype=h.dtype)])
    g = np.array([pow(int(h[0]), -1, l)], dtype=h.dtype)
    while len(g) < n:
        k = min(2 * len(g), n)
        e = _mul(l, h[:k], g)[len(g) : k]
        g = np.concatenate([g, -_mul(l, g, e)[: k - len(g)] % l])
    return g


# Division computes the quotient from the inverse of the reversed divisor
# (Newton) once the quotient has this many coefficients, and runs the row
# loop below it; Euclid steps in gcd have quotients of length 1-2.  Measured
# as for _FFT_MIN_LEN, row loop vs Newton with a fresh inverse vs Newton with
# a reused one: a degree-(2d-2) dividend by a degree-d divisor (a powmod
# step) took 45 / 69 / 16 us at d = 17, 86 / 84 / 17 us at d = 33 and
# 175 / 113 / 25 us at d = 65; a divisor of degree 2000 took 85 / 133 / 73 us
# for a quotient of length 16, 151 / 165 / 91 us at 32 and 277 / 221 / 133 us
# at 64.
_NEWTON_MIN_QUOT = 32


def _divmod(l: int, a, b, binv=None):
    """Quotient and remainder of a by the nonzero trimmed b.

    binv, if given, is `_inv_series` of b reversed to at least the quotient
    length; repeated divisions by one b reuse it.
    """
    db = len(b) - 1
    if db == 0:
        return _scale(l, a, pow(int(b[0]), -1, l)), a[:0]
    if len(a) <= db:
        return a[:0], a
    nq = len(a) - db
    if nq >= _NEWTON_MIN_QUOT:
        if binv is None or len(binv) < nq:
            binv = _inv_series(l, b[::-1], nq)
        q = _mul(l, a[: db - 1 : -1], binv[:nq])[nq - 1 :: -1]
        return _trim(q), _sub(l, a[:db], _mul(l, q, b)[:db])
    inv = pow(int(b[-1]), -1, l)
    dt = _dtype(l, len(a) + len(b))
    r = a.astype(dt)
    q = np.zeros(nq, dtype=dt)
    bb = b[:db].astype(dt, copy=False)
    for i in range(len(r) - 1, db - 1, -1):
        c = int(r[i]) % l
        if c:
            c = c * inv % l
            q[i - db] = c
            r[i - db : i] -= c * bb
    return _trim(q), _trim(r[:db] % l)


# ---------------------------------------------------------------------------
# the polynomial type


class FpPoly:
    """Dense univariate polynomial over F_l, coefficients reduced, no trailing zeros.

    Values are immutable: every operation returns a new polynomial, and `==`
    and `hash` compare the modulus and the coefficients.
    """

    __slots__ = ("modulus", "_v")

    def __init__(self, modulus: int, v):
        """Wrap a coefficient vector already reduced mod `modulus` (low degree
        first); `make` accepts arbitrary integers."""
        self.modulus = modulus
        self._v = _trim(v)

    @classmethod
    def make(cls, l: int, coeffs: Iterable[int]) -> "FpPoly":
        return cls(l, np.array([c % l for c in coeffs], dtype=_dtype(l, 1)))

    @classmethod
    def zero(cls, l: int) -> "FpPoly":
        return cls.make(l, [])

    @classmethod
    def one(cls, l: int) -> "FpPoly":
        return cls.make(l, [1])

    @classmethod
    def x(cls, l: int) -> "FpPoly":
        return cls.make(l, [0, 1])

    # -- basics

    @property
    def coeffs(self) -> Tuple[int, ...]:
        return tuple(map(int, self._v.tolist()))

    @property
    def degree(self) -> int:
        return len(self._v) - 1

    @property
    def is_zero(self) -> bool:
        return not len(self._v)

    @property
    def lc(self) -> int:
        return int(self._v[-1]) if len(self._v) else 0

    @property
    def is_monic(self) -> bool:
        return self.lc == 1

    def __eq__(self, other):
        if not isinstance(other, FpPoly):
            return NotImplemented
        return self.modulus == other.modulus and np.array_equal(self._v, other._v)

    def __hash__(self):
        return hash((self.modulus, self.coeffs))

    def __repr__(self):
        return f"FpPoly(modulus={self.modulus}, coeffs={self.coeffs})"

    def _bin(self, other) -> "FpPoly":
        if isinstance(other, int):
            return FpPoly.make(self.modulus, [other])
        if not isinstance(other, FpPoly) or other.modulus != self.modulus:
            raise TypeError("modulus mismatch")
        return other

    def __add__(self, other):
        return FpPoly(self.modulus, _add(self.modulus, self._v, self._bin(other)._v))

    __radd__ = __add__

    def __neg__(self):
        return FpPoly(self.modulus, (-self._v) % self.modulus)

    def __sub__(self, other):
        return FpPoly(self.modulus, _sub(self.modulus, self._v, self._bin(other)._v))

    def __rsub__(self, other):
        return FpPoly(self.modulus, _sub(self.modulus, self._bin(other)._v, self._v))

    def __mul__(self, other):
        if isinstance(other, int):
            return FpPoly(self.modulus, _scale(self.modulus, self._v, other))
        return FpPoly(self.modulus, _mul(self.modulus, self._v, self._bin(other)._v))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out, base = FpPoly.one(self.modulus), self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __divmod__(self, other):
        other = self._bin(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod(self.modulus, self._v, other._v)
        return FpPoly(self.modulus, q), FpPoly(self.modulus, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = (out * x + c) % self.modulus
        return out

    def monic(self) -> "FpPoly":
        if self.is_zero or self.is_monic:
            return self
        return self * pow(self.lc, -1, self.modulus)

    def derivative(self) -> "FpPoly":
        v = self._v
        return FpPoly(self.modulus, (v * np.arange(len(v)))[1:] % self.modulus)

    def gcd(self, other: "FpPoly") -> "FpPoly":
        l, a, b = self.modulus, self._v, self._bin(other)._v
        while len(b):
            a, b = b, _divmod(l, a, b)[1]
        return FpPoly(l, a).monic()

    def powmod(self, e: int, mod: "FpPoly") -> "FpPoly":
        if mod.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        l, m = self.modulus, mod._v
        # products of two reduced vectors have quotients of length < deg(mod)
        binv = _inv_series(l, m[::-1], len(m) - 2) if len(m) - 2 >= _NEWTON_MIN_QUOT else None
        out = np.ones(1, dtype=m.dtype)
        base = _divmod(l, self._v, m, binv)[1]
        while e:
            if e & 1:
                out = _divmod(l, _mul(l, out, base), m, binv)[1]
            e >>= 1
            if e:
                base = _divmod(l, _mul(l, base, base), m, binv)[1]
        return FpPoly(l, out)

    def pretty(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        bits = []
        coeffs = self.coeffs
        for k in range(self.degree, -1, -1):
            c = coeffs[k]
            if not c:
                continue
            if k == 0:
                bits.append(str(c))
            else:
                xs = var if k == 1 else f"{var}^{k}"
                bits.append(xs if c == 1 else f"{c}{xs}")
        return " + ".join(bits)


def _sort_key(f: FpPoly):
    return (f.degree, tuple(reversed(f.coeffs)))


@dataclass(frozen=True)
class Factorization:
    """unit * prod factor^mult, factors monic irreducible, pairwise distinct."""

    unit: int
    factors: Tuple[Tuple[FpPoly, int], ...]

    def expand(self, l: Optional[int] = None) -> FpPoly:
        if self.factors:
            l = self.factors[0][0].modulus
        if l is None:
            raise ValueError("empty factorization needs an explicit modulus")
        out = FpPoly.make(l, [self.unit])
        for f, m in self.factors:
            out = out * f**m
        return out

    def pretty(self, var: str = "x") -> str:
        bits = [] if self.unit == 1 else [str(self.unit)]
        for f, m in self.factors:
            if f.degree == 1 and f.coeffs[0] == 0:
                s = var  # the bare factor x, printed without parentheses
            else:
                s = f"({f.pretty(var)})"
            bits.append(s if m == 1 else f"{s}^{m}")
        return "".join(bits) if bits else "1"


# ---------------------------------------------------------------------------
# factorization pipeline


def _seed_rng(f: FpPoly) -> random.Random:
    h = hashlib.sha256()
    h.update(f.modulus.to_bytes(8, "little"))
    for c in f.coeffs:
        h.update(c.to_bytes(8, "little"))
    return random.Random(int.from_bytes(h.digest()[:8], "little"))


def squarefree_decomposition(f: FpPoly) -> List[Tuple[FpPoly, int]]:
    """Squarefree decomposition of f / lc(f) in characteristic l (full char-p version)."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    l = f.modulus
    out: List[Tuple[FpPoly, int]] = []

    def rec(g: FpPoly, outer_mult: int) -> None:
        if g.degree <= 0:
            return
        d = g.derivative()
        if d.is_zero:
            # g is an l-th power: g(x) = sum a_i x^(l i); a_i^(1/l) = a_i over F_l
            rec(FpPoly(l, g._v[::l]), outer_mult * l)
            return
        c = g.gcd(d)
        w = g // c
        i = 1
        while w.degree > 0:
            y = w.gcd(c)
            z = w // y
            if z.degree > 0:
                out.append((z, i * outer_mult))
            w = y
            c = c // y
            i += 1
        if c.degree > 0:
            rec(c, outer_mult)

    rec(f.monic(), 1)
    return out


def _ddf(f: FpPoly, upto: Optional[int] = None):
    """Distinct-degree split of monic squarefree f.

    Returns (parts, rem): parts maps d -> product of the irreducible degree-d
    factors; rem is the unsplit remainder (nontrivial only when `upto` stopped
    the walk early).
    """
    l = f.modulus
    parts: Dict[int, FpPoly] = {}
    x = FpPoly.x(l)
    h = x
    d = 0
    while f.degree > 0:
        d += 1
        if upto is not None and d > upto:
            return parts, f
        if 2 * d > f.degree:
            parts[f.degree] = f
            f = FpPoly.one(l)
            break
        h = h.powmod(l, f)
        g = f.gcd(h - x)
        if g.degree > 0:
            parts[d] = g
            f = f // g
            h = h % f
    return parts, f


# Random splitting attempts per factor.  A product of distinct degree-d
# irreducibles splits on each attempt with probability about 1/2, so valid
# input never gets near the cap; other input raises instead of spinning.
_SPLIT_TRIES = 64


def _edf(f: FpPoly, d: int) -> List[FpPoly]:
    """Cantor-Zassenhaus equal-degree splitting of monic f into degree-d factors."""
    l = f.modulus
    rng = _seed_rng(f)
    out: List[FpPoly] = []
    stack = [f]
    e = (l**d - 1) // 2
    while stack:
        g = stack.pop()
        dg = g.degree
        if dg == d:
            out.append(g)
            continue
        for tries in range(1, _SPLIT_TRIES + 1):
            if tries <= 8:
                u = FpPoly.make(l, [rng.randrange(l), 1])
            else:
                u = FpPoly.make(l, [rng.randrange(l) for _ in range(min(dg, 2 * d) + 1)])
            h = g.gcd(u.powmod(e, g) - 1)
            if 0 < h.degree < dg:
                stack.append(h)
                stack.append(g // h)
                break
        else:
            raise StructuralError(
                f"degree-{dg} factor did not split into degree-{d} factors mod l={l}"
                f" after {_SPLIT_TRIES} tries"
            )
    return out


def factorize(f: FpPoly) -> Factorization:
    """Complete factorization over F_l; deterministic output ordering."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree == 0:
        return Factorization(unit=f.lc, factors=())
    found: List[Tuple[FpPoly, int]] = []
    for comp, mult in squarefree_decomposition(f):
        parts, rem = _ddf(comp)
        assert rem.degree <= 0
        for d, prod in sorted(parts.items()):
            found.extend((g.monic(), mult) for g in _edf(prod, d))
    found.sort(key=lambda fm: _sort_key(fm[0]))
    return Factorization(unit=f.lc, factors=tuple(found))


def radical(f: FpPoly) -> FpPoly:
    """Product of the distinct monic irreducible factors of f."""
    out = FpPoly.one(f.modulus)
    for comp, _ in squarefree_decomposition(f):
        out = out * comp
    return out


def poly_sqrt(f: FpPoly) -> FpPoly:
    """Monic g with g^2 = f / lc(f) for f a square; raises NotASquareError
    otherwise, also when lc(f) is not a square in F_l."""
    if f.is_zero:
        raise NotASquareError("zero polynomial")
    if f.degree % 2:
        raise NotASquareError("odd degree")
    if kronecker(f.lc, f.modulus) != 1:
        raise NotASquareError("leading coefficient is not a square")
    out = FpPoly.one(f.modulus)
    for comp, mult in squarefree_decomposition(f):
        if mult % 2:
            raise NotASquareError(f"odd multiplicity {mult}")
        out = out * comp ** (mult // 2)
    return out


def _linear_part(f: FpPoly) -> FpPoly:
    """gcd(f, x^l - x): the product of x - a over the distinct roots a of f in F_l."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    x = FpPoly.x(f.modulus)
    return f.gcd(x.powmod(f.modulus, f) - x)


def distinct_roots_in_fp(f: FpPoly) -> List[int]:
    """The distinct roots of f in F_l, sorted."""
    g = _linear_part(f)
    if g.degree <= 0:
        return []
    return sorted(-lin.coeffs[0] % f.modulus for lin in _edf(g, 1))


def count_roots_in_fp(f: FpPoly) -> int:
    """Number of distinct roots of f in F_l."""
    return _linear_part(f).degree


# ---------------------------------------------------------------------------
# resultants


def resultant(f: FpPoly, g: FpPoly) -> int:
    """Res(f, g) in F_l via the Euclidean remainder sequence."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial")
    l = f.modulus
    res = 1
    a, b = f, g
    while True:
        da, db = a.degree, b.degree
        if db == 0:
            return res * pow(b.coeffs[0], da, l) % l
        rem = a % b
        if rem.is_zero:
            return 0
        if (da * db) & 1:
            res = -res
        res = res * pow(b.lc, da - rem.degree, l) % l
        a, b = b, rem


def resultant_in_X(f: FpPoly, a1: FpPoly, a0: FpPoly) -> FpPoly:
    """Res_X(f(X), X^2 + a1(Y) X + a0(Y)) as a polynomial in Y.

    Horner's rule reduces f modulo the monic quadratic to U(Y) X + V(Y), using
    X^2 = -a1 X - a0.  The resultant is the product of U alpha + V over the
    two roots alpha, which is U^2 a0 - a1 U V + V^2.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    l = f.modulus
    na1, na0 = (-a1)._v, (-a0)._v
    fv = f._v
    u, v = fv[:0], fv[:0]
    for k in range(len(fv) - 1, -1, -1):
        # (u X + v) X + f_k = (v - a1 u) X + (f_k - a0 u)
        u, v = _add(l, v, _mul(l, na1, u)), _add(l, _mul(l, na0, u), fv[k : k + 1])
    uu, uv, vv = _mul(l, u, u), _mul(l, u, v), _mul(l, v, v)
    return FpPoly(l, _add(l, _sub(l, _mul(l, uu, a0._v), _mul(l, uv, a1._v)), vv))


# ---------------------------------------------------------------------------
# roots in F_{l^2}


@dataclass(frozen=True)
class Fp2Elem:
    """a + b*theta in F_{l^2} = F_l(theta), theta^2 = smallest_nonresidue(l)."""

    modulus: int
    a: int
    b: int

    @property
    def in_prime_field(self) -> bool:
        return self.b == 0


def roots_in_fp2(f: FpPoly) -> List[Fp2Elem]:
    """The distinct roots of f in F_{l^2}, sorted by (a, b).

    They are the roots of the linear and quadratic factors of rad(f), which
    one distinct-degree split stopped at degree 2 separates.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    l = f.modulus
    parts, _ = _ddf(radical(f), upto=2)
    out = [Fp2Elem(l, -g.coeffs[0] % l, 0) for g in _edf(parts[1], 1)] if 1 in parts else []
    if 2 in parts:
        nu_inv = pow(smallest_nonresidue(l), -1, l)
        inv2 = pow(2, -1, l)
        for g in _edf(parts[2], 2):
            # x^2 + a x + b irreducible: the discriminant is nu s^2, and the
            # roots are (-a +- s theta) / 2
            b, a = g.coeffs[:2]
            s = sqrt_mod((a * a - 4 * b) * nu_inv, l)
            if s is None:
                raise StructuralError("quadratic with no root in F_{l^2}?")
            out.extend(Fp2Elem(l, -a * inv2 % l, sign * s * inv2 % l) for sign in (1, -1))
    out.sort(key=lambda e: (e.a, e.b))
    return out
