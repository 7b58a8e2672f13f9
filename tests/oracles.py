"""Independent test oracles, kept out of the production code paths."""

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from fricke7 import constants as C
from fricke7.classnum import kronecker
from fricke7.errors import StructuralError
from fricke7.exactring import pdeg
from fricke7.ffpoly import Factorization, FpPoly, PrimeContext, _ddf, _edf, distinct_roots_in_fp, radical
from fricke7.hasse7 import hasse_poly
from fricke7.ss7star import _root_pairs


def b_value(l: int, a: int, b: int) -> int:
    """B(a, b) mod l, the membership test of the quadratic families."""
    return C.b_form(a, b) % l


def dirichlet_class_number(D: int) -> int:
    """h(D) for a fundamental discriminant D < 0 via the truncated L-series
    h = w sqrt(|D|) L(1, chi) / (2 pi), with an explicit partial-sum tail bound
    making the rounding unambiguous."""
    if D >= 0:
        raise ValueError("negative discriminant required")
    w = 6 if D == -3 else 4 if D == -4 else 2
    absD = -D
    chi = np.array([0] + [kronecker(D, n) for n in range(1, absD)], dtype=np.float64)
    partial = np.cumsum(chi)
    M = float(np.max(np.abs(partial)))
    scale = w * math.sqrt(absD) / (2 * math.pi)
    # tail of sum chi(n)/n beyond N is bounded by 2M/N (Abel summation)
    N = int(scale * 2 * M / 0.4) + 16
    n = np.arange(1, N + 1)
    vals = chi[n % absD] / n
    h = scale * float(np.sum(vals))
    rounded = round(h)
    if abs(h - rounded) > 0.45:
        raise ArithmeticError(f"L-series estimate not conclusive for D={D}: {h}")
    return int(rounded)


def legendre_by_euler(a: int, p: int) -> int:
    """Legendre symbol via Euler's criterion (odd prime p)."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def schoolbook_mul(l: int, a, b):
    """The product of coefficient lists (lowest degree first) mod l, term by term."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % l
    return out


def packed_mul(l: int, a, b):
    """The product of coefficient lists mod l by one big-integer product
    (Kronecker substitution): each coefficient in w bytes, with 2^(8w) above
    every coefficient of the product over ZZ, so none carries into the next."""
    a, b = [int(c) % l for c in a], [int(c) % l for c in b]
    if not a or not b:
        return []
    w = ((min(len(a), len(b)) * (l - 1) ** 2).bit_length() + 8) // 8

    def pack(v):
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in v), "little")

    raw = (pack(a) * pack(b)).to_bytes(w * (len(a) + len(b) - 1), "little")
    return [int.from_bytes(raw[i : i + w], "little") % l for i in range(0, len(raw), w)]


def schoolbook_divmod(l: int, a, b):
    """Quotient and remainder lists of a by b (b[-1] a unit mod l), one
    quotient coefficient at a time."""
    inv = pow(b[-1], -1, l)
    r = [c % l for c in a]
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + len(b) - 1] * inv % l
        for j, y in enumerate(b):
            r[i + j] = (r[i + j] - c * y) % l
    return q, r[: len(b) - 1]


def schoolbook_powmod(l: int, a, e: int, b):
    """a^e mod b for coefficient lists, by square-and-multiply on
    `schoolbook_mul` and `schoolbook_divmod`."""
    out, a = [1], schoolbook_divmod(l, a, b)[1]
    for bit in bin(e)[2:]:
        out = schoolbook_divmod(l, schoolbook_mul(l, out, out), b)[1]
        if bit == "1":
            out = schoolbook_divmod(l, schoolbook_mul(l, out, a), b)[1]
    return out


def schoolbook_gcd(l: int, a, b):
    """The monic gcd of coefficient lists a and b, not both zero, by Euclid on
    `schoolbook_divmod`."""

    def trim(v):
        v = [c % l for c in v]
        while v and not v[-1]:
            v.pop()
        return v

    a, b = trim(a), trim(b)
    while b:
        a, b = b, trim(schoolbook_divmod(l, a, b)[1])
    inv = pow(a[-1], -1, l)
    return [c * inv % l for c in a]


def pgcd_monic(a: Sequence, b: Sequence) -> list:
    """The monic gcd over QQ of coefficient lists a and b (lowest degree
    first, not both zero), by Euclid's remainder sequence over Fraction."""

    def trim(v):
        while v and not v[-1]:
            v.pop()
        return v

    def rem(a, b):
        while len(a) >= len(b):
            c, k = a[-1] / b[-1], len(a) - len(b)
            for i, y in enumerate(b):
                a[k + i] -= c * y
            trim(a)
        return a

    a, b = trim([Fraction(c) for c in a]), trim([Fraction(c) for c in b])
    while b:
        a, b = b, rem(a, b)
    return [c / a[-1] for c in a]


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


def bareiss_det(matrix: Sequence[Sequence], one, exact_div: Callable):
    """Determinant of a square matrix by fraction-free Gaussian elimination.

    `one` is the ring's multiplicative identity, `exact_div(a, b)` performs the
    (guaranteed exact) divisions arising in Bareiss' recurrence.
    """
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return one
    sign = 1
    prev = one
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k]  # structurally zero column -> det 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = exact_div(num, prev)
            m[i][k] = m[i][k] * 0
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def sylvester_matrix(f: Sequence, g: Sequence, zero):
    """Sylvester matrix of f (degree m) and g (degree n): (m+n) x (m+n).

    f and g are coefficient lists, low degree first, entries in any ring.
    """
    m, n = pdeg(f), pdeg(g)
    if m < 0 or n < 0:
        raise ValueError("sylvester matrix of zero polynomial")
    size = m + n
    rows = []
    frow = list(reversed(list(f)))  # high first
    grow = list(reversed(list(g)))
    for i in range(n):
        rows.append([zero] * i + frow + [zero] * (size - i - m - 1))
    for i in range(m):
        rows.append([zero] * i + grow + [zero] * (size - i - n - 1))
    return rows


def expand(fac: Factorization, l: Optional[int] = None) -> FpPoly:
    """unit * prod factor^mult of a `Factorization`; l is needed only when it
    has no factors."""
    if fac.factors:
        l = fac.factors[0][0].modulus
    if l is None:
        raise ValueError("empty factorization needs an explicit modulus")
    out = FpPoly.make(l, [fac.unit])
    for f, m in fac.factors:
        out = out * f**m
    return out


def is_irreducible(g: FpPoly) -> bool:
    """Certificate: x^(l^n) = x mod g and gcd(x^(l^(n/q)) - x, g) = 1 for primes q | n."""
    n = g.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    l = g.modulus
    g = g.monic()
    x = FpPoly.x(l)
    frobenius = [x]  # frobenius[i] = x^(l^i) mod g
    for _ in range(n):
        frobenius.append(frobenius[-1].powmod(l, g))
    if frobenius[n] != x:
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
        if g.gcd(frobenius[n // q] - x).degree != 0:
            return False
    return True


def divisor_points(f: FpPoly, g):
    """The t0 in F_l, sorted, with g(x, t0) | f, where
    g(x, t) = x^k + sum_{j<k} g[j](t) x^j.

    One Horner pass reduces f modulo g(x, t0) at every t0 at once: row j of
    the k x l state holds the x^j coefficient of the remainder at each t0.
    """
    l, k = f.modulus, len(g)
    # A state entry takes at most k subtractions below (l-1)^2 before it
    # moves to the top row and is reduced.
    assert k * (l - 1) ** 2 + l < 2**62
    t = np.arange(l, dtype=np.int64)
    gt = np.zeros((k, l), dtype=np.int64)
    for j, gj in enumerate(g):
        for c in reversed(gj.coeffs):  # Horner in t
            gt[j] = (gt[j] * t + c) % l
    state = np.zeros((k, l), dtype=np.int64)
    for fi in f.coeffs[::-1]:
        # x r + f_i, with x^k = -sum_j g_j x^j
        top = state[k - 1] % l
        state[1:] = state[:-1]
        state[0] = fi
        state -= top * gt
    return np.flatnonzero(~(state % l).any(axis=0)).tolist()


def divisor_counts(ctx: PrimeContext):
    """(N1, N2, N3, N6) of the Hasse invariant by the route that tests every
    t0 in F_l: the radical, then `divisor_points` for the f_7(x, t0) (each
    certified by `is_irreducible`) and, for l = 1, 6 mod 7, for the three
    quadratic families x^2 + ((alpha-1) b - alpha) x + b (kept when
    irreducible)."""
    l = ctx.l
    sf = radical(hasse_poly(ctx))
    parts = _ddf(sf)
    n1 = parts[1].degree if 1 in parts else 0
    n3 = parts[3].degree // 3 if 3 in parts else 0
    if l % 7 in (1, 6):
        found = set()
        for alpha in distinct_roots_in_fp(FpPoly.make(l, C.P_CUBIC)):
            a_poly = FpPoly.make(l, [-alpha, alpha - 1])  # a(b) = (alpha-1) b - alpha
            for b0 in divisor_points(sf, [FpPoly.x(l), a_poly]):
                a0 = ((alpha - 1) * b0 - alpha) % l
                if kronecker(a0 * a0 - 4 * b0, l) == -1:
                    found.add((a0, b0))
        n2 = len(found)
    else:
        quads = [q.coeffs for q in _edf(parts[2], 2)] if 2 in parts else []
        n2 = sum(b_value(l, q[1], q[0]) == 0 for q in quads)
    at0, at1 = C.expand_f7(0), C.expand_f7(1)
    f7 = [FpPoly.make(l, [c0, c1 - c0]) for c0, c1 in zip(at0[:6], at1[:6])]
    n6 = sum(is_irreducible(FpPoly.make(l, C.expand_f7(t0))) for t0 in divisor_points(sf, f7))
    return n1, n2, n3, n6


def edf_counts(ctx: PrimeContext):
    """(N1, N2, N3, N6) of the Hasse invariant by plain equal-degree splitting
    of the degree-2 and degree-6 parts of its distinct-degree split, then
    reading off which factors have the B(a, b) = 0 or f_7(x, t) shape; the
    production counts find those factors with a Frobenius shape test instead."""
    l = ctx.l
    parts = _ddf(radical(hasse_poly(ctx)))

    def factors(d):
        return [g.monic().coeffs for g in _edf(parts[d], d)] if d in parts else []

    n1 = parts[1].degree if 1 in parts else 0
    n3 = parts[3].degree // 3 if 3 in parts else 0
    n2 = sum(b_value(l, g[1], g[0]) == 0 for g in factors(2))
    n6 = sum(g == tuple(c % l for c in C.expand_f7((-g[5] - 3) % l)) for g in factors(6))
    return n1, n2, n3, n6


def ss7star_per_pair(ctx: PrimeContext, ss: FpPoly) -> FpPoly:
    """ss_p^(7*) by the norm route one pair (a, c) at a time: the radical of
    each norm, its own check that it divides Y^(p^2) - Y, and the running lcm
    of the radicals; `ss7star_bruteforce` takes one radical of the product of
    the norms and checks it once."""
    p = ctx.l
    A, B, Y = FpPoly.make(p, C.R7_A), FpPoly.make(p, C.R7_B), FpPoly.x(p)
    out = FpPoly.one(p)
    for a, c in _root_pairs(ss):
        P = B - a * A + (a * a + c)
        rad = radical(P * P - c * (2 * a - A) ** 2)
        if Y.powmod(p * p, rad) != Y % rad:
            raise StructuralError(f"j_7^* value outside F_(p^2) at p={p}")
        out = out * (rad // out.gcd(rad))
    return out
