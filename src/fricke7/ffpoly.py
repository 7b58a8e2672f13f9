"""Prime-field arithmetic plus a univariate polynomial toolbox over F_l:
factorization (squarefree / distinct-degree / equal-degree), resultants,
perfect square roots, and root finding in F_l and F_{l^2}.

Dense representation throughout, on numpy coefficient vectors: int64 for
moduli small enough that coefficient products fit, Python ints in object
arrays otherwise, so moduli up to 2^63 run the same code unchanged.
All randomized steps draw from a PRNG seeded deterministically from the
modulus and the input coefficients, so every run (and every process) produces
identical output.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
        if l in (2, 7) or l.bit_length() > 63 or not is_prime(l):
            raise ValueError(f"modulus must be an odd prime != 7 below 2^63, got {l}")
        return cls(
            l=l,
            r=(1 - kronecker(-3, l)) // 2,
            s=(1 - kronecker(-4, l)) // 2,
            n=l // 12,
            mu7=(1 - kronecker(-7, l)) // 2,
        )


# ---------------------------------------------------------------------------
# raw coefficient-vector arithmetic (private)

_NP_LIMIT = 2**62


class _Ring:
    """Dense F_l[x] arithmetic on raw coefficient vectors.

    Vectors are numpy arrays: int64 when products and their sums stay below
    int64 range for the advertised maximum degree, else Python ints in an
    `object` array, so the same code is exact for moduli up to 2^63.
    """

    def __init__(self, l: int, max_deg: int = 1 << 14):
        self.l = l
        self.dtype = np.int64 if (l - 1) ** 2 * (2 * max_deg + 2) < _NP_LIMIT else object

    # -- conversions

    def vec(self, coeffs: Sequence[int]):
        return np.asarray([c % self.l for c in coeffs], dtype=self.dtype)

    def tup(self, v) -> Tuple[int, ...]:
        return tuple(int(c) for c in self.trim(v))

    def trim(self, v):
        n = len(v)
        while n and not v[n - 1]:
            n -= 1
        return v[:n]

    def deg(self, v) -> int:
        return len(self.trim(v)) - 1

    # -- arithmetic

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[: len(b)] = (out[: len(b)] + b) % self.l
        return self.trim(out)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return (-a) % self.l

    def scale(self, a, c: int):
        c %= self.l
        if not c:
            return a[:0]
        return (a * c) % self.l

    def mul(self, a, b):
        if not len(a) or not len(b):
            return a[:0]
        return np.convolve(a, b) % self.l

    def monic(self, a):
        a = self.trim(a)
        if not len(a):
            return a
        lc = int(a[-1])
        if lc == 1:
            return a
        return self.scale(a, pow(lc, -1, self.l))

    def divmod(self, a, b):
        b = self.trim(b)
        if not len(b):
            raise ZeroDivisionError("polynomial division by zero")
        inv = pow(int(b[-1]), -1, self.l)
        db = len(b) - 1
        if db == 0:
            return self.scale(a, inv), a[:0]
        r = a.copy()
        q = np.zeros(max(0, len(a) - db), dtype=self.dtype)
        bb = b[:db]
        for i in range(len(r) - 1, db - 1, -1):
            c = int(r[i]) % self.l
            if c:
                c = c * inv % self.l
                q[i - db] = c
                r[i - db : i] -= c * bb
            r[i] = 0
        r = r % self.l
        return self.trim(q), self.trim(r[:db])

    def rem(self, a, b):
        return self.divmod(a, b)[1]

    def gcd(self, a, b):
        a, b = self.trim(a), self.trim(b)
        while len(b):
            a, b = b, self.rem(a, b)
        return self.monic(a)

    def powmod(self, base, e: int, mod):
        mod = self.trim(mod)
        out = self.vec([1])
        base = self.rem(base, mod)
        while e:
            if e & 1:
                out = self.rem(self.mul(out, base), mod)
            e >>= 1
            if e:
                base = self.rem(self.mul(base, base), mod)
        return out

    def xpowmod(self, e: int, mod):
        return self.powmod(self.vec([0, 1]), e, mod)

    def deriv(self, a):
        return self.trim((a * np.arange(len(a), dtype=self.dtype))[1:] % self.l)

    def eval(self, a, x: int) -> int:
        out = 0
        for c in reversed(list(a)):
            out = (out * x + int(c)) % self.l
        return out

    def xminus(self, v):
        """v - x."""
        return self.sub(v, self.vec([0, 1]))


# ---------------------------------------------------------------------------
# public polynomial type


@dataclass(frozen=True)
class FpPoly:
    """Dense univariate polynomial over F_l, coefficients reduced, no trailing zeros."""

    modulus: int
    coeffs: Tuple[int, ...]

    @classmethod
    def make(cls, l: int, coeffs: Iterable[int]) -> "FpPoly":
        c = [x % l for x in coeffs]
        while c and not c[-1]:
            c.pop()
        return cls(l, tuple(c))

    @classmethod
    def zero(cls, l: int) -> "FpPoly":
        return cls(l, ())

    @classmethod
    def one(cls, l: int) -> "FpPoly":
        return cls.make(l, [1])

    @classmethod
    def x(cls, l: int) -> "FpPoly":
        return cls.make(l, [0, 1])

    @classmethod
    def from_roots(cls, l: int, roots: Iterable[int]) -> "FpPoly":
        out = cls.one(l)
        for r in roots:
            out = out * cls.make(l, [-r, 1])
        return out

    # -- basics

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _bin(self, other) -> "FpPoly":
        if isinstance(other, int):
            return FpPoly.make(self.modulus, [other])
        if not isinstance(other, FpPoly) or other.modulus != self.modulus:
            raise TypeError("modulus mismatch")
        return other

    def __add__(self, other):
        other = self._bin(other)
        r = _Ring(self.modulus, max(self.degree, other.degree, 1))
        return FpPoly(self.modulus, r.tup(r.add(r.vec(self.coeffs), r.vec(other.coeffs))))

    __radd__ = __add__

    def __neg__(self):
        return FpPoly.make(self.modulus, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._bin(other))

    def __rsub__(self, other):
        return self._bin(other) + (-self)

    def __mul__(self, other):
        other = self._bin(other)
        r = _Ring(self.modulus, max(self.degree, other.degree, 1) + 1)
        return FpPoly(self.modulus, r.tup(r.mul(r.vec(self.coeffs), r.vec(other.coeffs))))

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
        r = _Ring(self.modulus, max(self.degree, other.degree, 1))
        q, rem = r.divmod(r.vec(self.coeffs), r.vec(other.coeffs))
        return FpPoly(self.modulus, r.tup(q)), FpPoly(self.modulus, r.tup(rem))

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
        inv = pow(self.lc, -1, self.modulus)
        return FpPoly.make(self.modulus, [c * inv for c in self.coeffs])

    def derivative(self) -> "FpPoly":
        return FpPoly.make(self.modulus, [i * c for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other: "FpPoly") -> "FpPoly":
        other = self._bin(other)
        r = _Ring(self.modulus, max(self.degree, other.degree, 1))
        return FpPoly(self.modulus, r.tup(r.gcd(r.vec(self.coeffs), r.vec(other.coeffs))))

    def powmod(self, e: int, mod: "FpPoly") -> "FpPoly":
        r = _Ring(self.modulus, max(self.degree, mod.degree, 1))
        return FpPoly(
            self.modulus, r.tup(r.powmod(r.vec(self.coeffs), e, r.vec(mod.coeffs)))
        )

    def pretty(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        bits = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
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


def _seed_rng(l: int, coeffs: Sequence[int]) -> random.Random:
    h = hashlib.sha256()
    h.update(l.to_bytes(8, "little"))
    for c in coeffs:
        h.update(int(c).to_bytes(8, "little"))
    return random.Random(int.from_bytes(h.digest()[:8], "little"))


def _sqfree_decomp(r: _Ring, f) -> List[Tuple[object, int]]:
    """Squarefree decomposition of monic f in characteristic l (full char-p version)."""
    l = r.l
    out: List[Tuple[object, int]] = []

    def rec(g, outer_mult: int) -> None:
        if r.deg(g) <= 0:
            return
        d = r.deriv(g)
        if not len(d):
            # g is an l-th power: g(x) = sum a_i x^(l i); a_i^(1/l) = a_i over F_l
            root = r.vec([int(g[i]) for i in range(0, len(g), l)])
            rec(root, outer_mult * l)
            return
        c = r.gcd(g, d)
        w = r.divmod(g, c)[0]
        i = 1
        while r.deg(w) > 0:
            y = r.gcd(w, c)
            z = r.divmod(w, y)[0]
            if r.deg(z) > 0:
                out.append((z, i * outer_mult))
            w = y
            c = r.divmod(c, y)[0]
            i += 1
        if r.deg(c) > 0:
            rec(c, outer_mult)

    rec(r.monic(f), 1)
    return out


def _radical(r: _Ring, f):
    out = r.vec([1])
    for comp, _ in _sqfree_decomp(r, f):
        out = r.mul(out, comp)
    return out


def _ddf(r: _Ring, f, upto: Optional[int] = None):
    """Distinct-degree split of monic squarefree f.

    Returns (parts, rem): parts maps d -> product of the irreducible degree-d
    factors; rem is the unsplit remainder (nontrivial only when `upto` stopped
    the walk early).
    """
    parts: Dict[int, object] = {}
    h = r.vec([0, 1])
    d = 0
    while r.deg(f) > 0:
        d += 1
        if upto is not None and d > upto:
            return parts, f
        if 2 * d > r.deg(f):
            parts[r.deg(f)] = f
            f = r.vec([1])
            break
        h = r.powmod(h, r.l, f)
        g = r.gcd(f, r.xminus(h))
        if r.deg(g) > 0:
            parts[d] = g
            f = r.divmod(f, g)[0]
            h = r.rem(h, f)
    return parts, f


# Random splitting attempts per factor.  A product of distinct degree-d
# irreducibles splits on each attempt with probability about 1/2, so valid
# input never gets near the cap; other input raises instead of spinning.
_SPLIT_TRIES = 64


def _edf(r: _Ring, f, d: int, rng: random.Random) -> List:
    """Cantor-Zassenhaus equal-degree splitting of monic f into degree-d factors."""
    out: List = []
    stack = [f]
    e = (r.l**d - 1) // 2
    while stack:
        g = stack.pop()
        dg = r.deg(g)
        if dg == d:
            out.append(g)
            continue
        for tries in range(1, _SPLIT_TRIES + 1):
            if tries <= 8:
                u = r.vec([rng.randrange(r.l), 1])
            else:
                u = r.vec([rng.randrange(r.l) for _ in range(min(dg, 2 * d) + 1)])
            w = r.powmod(u, e, g)
            w = r.sub(w, r.vec([1]))
            h = r.gcd(g, w)
            if 0 < r.deg(h) < dg:
                stack.append(h)
                stack.append(r.divmod(g, h)[0])
                break
        else:
            raise StructuralError(
                f"degree-{dg} factor did not split into degree-{d} factors mod l={r.l}"
                f" after {_SPLIT_TRIES} tries"
            )
    return out


def factorize(f: FpPoly) -> Factorization:
    """Complete factorization over F_l; deterministic output ordering."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    l = f.modulus
    if f.degree == 0:
        return Factorization(unit=f.coeffs[0], factors=())
    r = _Ring(l, f.degree + 1)
    rng = _seed_rng(l, f.coeffs)
    unit = f.lc
    work = r.monic(r.vec(f.coeffs))
    found: List[Tuple[FpPoly, int]] = []
    for comp, mult in _sqfree_decomp(r, work):
        parts, rem = _ddf(r, comp)
        assert r.deg(rem) <= 0
        for d, prod in sorted(parts.items()):
            for g in _edf(r, prod, d, rng):
                found.append((FpPoly(l, r.tup(r.monic(g))), mult))
    found.sort(key=lambda fm: _sort_key(fm[0]))
    return Factorization(unit=unit, factors=tuple(found))


def is_irreducible(g: FpPoly) -> bool:
    """Certificate: x^(l^n) = x mod g and gcd(x^(l^(n/q)) - x, g) = 1 for primes q | n."""
    n = g.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    l = g.modulus
    r = _Ring(l, n + 1)
    gv = r.monic(r.vec(g.coeffs))
    full = r.xpowmod(l**n, gv)
    if r.tup(r.xminus(full)):
        return False
    m = n
    primes = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        primes.append(m)
    for q in primes:
        part = r.xpowmod(l ** (n // q), gv)
        if r.deg(r.gcd(gv, r.xminus(part))) != 0:
            return False
    return True


def squarefree_decomposition(f: FpPoly) -> List[Tuple[FpPoly, int]]:
    if f.is_zero:
        raise ValueError("zero polynomial")
    r = _Ring(f.modulus, f.degree + 1)
    return [
        (FpPoly(f.modulus, r.tup(c)), m) for c, m in _sqfree_decomp(r, r.vec(f.coeffs))
    ]


def radical(f: FpPoly) -> FpPoly:
    """Product of the distinct monic irreducible factors of f."""
    r = _Ring(f.modulus, f.degree + 1)
    return FpPoly(f.modulus, r.tup(_radical(r, r.vec(f.coeffs))))


def poly_sqrt(f: FpPoly, require_square_lc: bool = False) -> FpPoly:
    """Monic g with g^2 = f / lc(f); raises NotASquareError otherwise."""
    if f.is_zero:
        raise NotASquareError("zero polynomial")
    if f.degree % 2:
        raise NotASquareError("odd degree")
    if require_square_lc and kronecker(f.lc, f.modulus) != 1:
        raise NotASquareError("leading coefficient is not a square")
    out = FpPoly.one(f.modulus)
    for comp, mult in squarefree_decomposition(f):
        if mult % 2:
            raise NotASquareError(f"odd multiplicity {mult}")
        out = out * comp ** (mult // 2)
    return out


def roots_in_fp(f: FpPoly) -> List[Tuple[int, int]]:
    """All roots in F_l with multiplicities, sorted by root."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    l = f.modulus
    r = _Ring(l, f.degree + 1)
    rng = _seed_rng(l, f.coeffs)
    out: List[Tuple[int, int]] = []
    for comp, mult in _sqfree_decomp(r, r.monic(r.vec(f.coeffs))):
        g = r.gcd(comp, r.xminus(r.xpowmod(l, comp)))
        if r.deg(g) > 0:
            for lin in _edf(r, g, 1, rng):
                root = (-int(lin[0])) % l
                out.append((root, mult))
    out.sort()
    return out


def count_roots_in_fp(f: FpPoly) -> int:
    """Number of distinct roots of f in F_l."""
    l = f.modulus
    r = _Ring(l, f.degree + 1)
    sf = _radical(r, r.vec(f.coeffs))
    return r.deg(r.gcd(sf, r.xminus(r.xpowmod(l, sf))))


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
    w = max(a1.degree, a0.degree, 1)  # deg_Y of U and V is at most w * deg f
    r = _Ring(l, w * (f.degree + 1))
    va1, va0 = r.vec(a1.coeffs), r.vec(a0.coeffs)
    na1, na0 = r.neg(va1), r.neg(va0)
    fv = r.vec(f.coeffs)
    u, v = fv[:0], fv[:0]
    for k in range(len(fv) - 1, -1, -1):
        # (u X + v) X + f_k = (v - a1 u) X + (f_k - a0 u)
        u, v = r.add(v, r.mul(na1, u)), r.add(r.mul(na0, u), fv[k : k + 1])
    uu, uv, vv = r.mul(u, u), r.mul(u, v), r.mul(v, v)
    return FpPoly(l, r.tup(r.add(r.sub(r.mul(uu, va0), r.mul(uv, va1)), vv)))


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
    """All roots of f in F_{l^2}, with multiplicity, in a deterministic order."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    l = f.modulus
    nu_inv = pow(smallest_nonresidue(l), -1, l)
    inv2 = pow(2, -1, l)
    out: List[Fp2Elem] = []
    for comp, mult in squarefree_decomposition(f):
        for g, _ in factorize(comp).factors:
            if g.degree == 1:
                out.extend([Fp2Elem(l, (-g.coeffs[0]) % l, 0)] * mult)
            elif g.degree == 2:
                # x^2 + a x + b irreducible: the discriminant is nu s^2, and the
                # roots are (-a +- s theta) / 2
                a, b = g.coeffs[1], g.coeffs[0]
                s = sqrt_mod((a * a - 4 * b) * nu_inv, l)
                if s is None:
                    raise StructuralError("quadratic with no root in F_{l^2}?")
                for sign in (1, -1):
                    out.extend([Fp2Elem(l, -a * inv2 % l, sign * s * inv2 % l)] * mult)
            # factors of degree > 2 have no roots in F_{l^2}
    out.sort(key=lambda e: (e.a, e.b))
    return out
