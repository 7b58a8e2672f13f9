"""Independent test oracles, kept out of the production code paths."""

import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import numpy as np

from fricke7 import constants as C
from fricke7.classnum import kronecker
from fricke7.errors import StructuralError
from fricke7.exactring import homogenize, pdeg
from fricke7.ffpoly import (
    Factorization,
    FpPoly,
    PrimeContext,
    _ddf,
    _edf,
    _linear_part,
    radical,
    resultant_roots_in_fp,
)
from fricke7.hasse7 import FactorCountReport, _hasse_pieces, hasse_poly, ss_poly
from fricke7.ss7star import _root_pairs


def distinct_roots_in_fp(f: FpPoly) -> List[int]:
    """The distinct roots of f in F_l, sorted: gcd(f, x^l - x), split."""
    g = _linear_part(f)
    if g.degree <= 0:
        return []
    return sorted(-lin.coeffs[0] % f.modulus for lin in _edf(g, 1))


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


# ---------------------------------------------------------------------------
# the shape-test route: the need-restricted counts as one gcd on G_T


def homogenize_mod(coeffs: Sequence[int], num: FpPoly, den: FpPoly, f: FpPoly) -> FpPoly:
    """sum_k c_k num^k den^(n-k) mod one f, n = len(coeffs) - 1, by baby and
    giant steps (Paterson-Stockmeyer) on `FpPoly` products: the baby rows
    u^i d^(K-1-i) and one matrix product give the blocks, the top one of
    r <= K coefficients with its own rows, then Horner's rule in U = u^K with
    the powers of D = d^K."""
    l = f.modulus
    k = max(1, math.isqrt(len(coeffs)))
    padded = [c % l for c in coeffs] + [0] * (-len(coeffs) % k)
    rows = np.array(padded, dtype=object).reshape(-1, k)
    r = len(coeffs) - (len(rows) - 1) * k
    u, w = num % f, den % f
    up, dp = [FpPoly.one(l)], [FpPoly.one(l)]
    for _ in range(k):
        up.append(up[-1] * u % f)
        dp.append(dp[-1] * w % f)

    def block(row, s):
        """sum_i row[i] u^i d^(s-1-i) mod f."""
        out = FpPoly.make(l, [])
        for i in range(s):
            out = out + int(row[i]) * (up[i] * dp[s - 1 - i] % f)
        return out

    acc = block(rows[-1], r)
    power_d = dp[r]
    for j in range(len(rows) - 2, -1, -1):
        acc = (acc * up[k] + block(rows[j], k) * power_d) % f
        if j:
            power_d = power_d * dp[k] % f
    return acc


def fibre_gcd(ctx: PrimeContext, ss: FpPoly) -> FpPoly:
    """G_T = gcd(P, H mod P), P = prod_(t in T) f_7(x, t) = homogenize(prod
    (Y - t), n, m): the factors of the Hasse polynomial H over the F_l-roots
    t of ss^(7*), without building H (its Deuring sum reduced mod P)."""
    l = ctx.l
    T = resultant_roots_in_fp(ss, -FpPoly.make(l, C.R7_A), FpPoly.make(l, C.R7_B))
    over_t = math.prod((FpPoly.make(l, [-t, 1]) for t in T), start=FpPoly.one(l))
    P = homogenize(over_t.coeffs, FpPoly.make(l, C.F7_N), FpPoly.make(l, C.F7_M))
    c, u, den, extra = _hasse_pieces(ctx)
    return P.gcd(homogenize_mod(c, u, den, P) * extra % P)


def b_residue(q: FpPoly, h: FpPoly) -> FpPoly:
    """B(-(x + h), x h) mod q, for q a product of distinct irreducible quadratics
    and h = x^l mod a multiple of q.  On a factor x^2 + a x + b with roots r, r^l,
    x maps to r and h to r^l, so -(x + h) and x h reduce to a and b: by the CRT
    the residue is zero exactly when B(a, b) = 0 on every factor, unsplit, and
    its gcd with q is the product of the factors with B(a, b) = 0."""
    x = FpPoly.x(q.modulus)
    h = h % q
    return C.b_form(-(x + h) % q, x * h % q) % q


def _at(p: FpPoly, table) -> FpPoly:
    """p(h) mod f, from table[k] = h^k mod f, k <= deg p."""
    out = FpPoly.make(p.modulus, [])
    for c, hk in zip(p.coeffs, table):
        out = out + c * hk
    return out


def f7_pair(l: int):
    """f_7(x, t) = n - t m: an irreducible sextic with root b equals
    f_7(x, t0) exactly when (n/m)(b) = t0 lies in F_l."""
    return [(FpPoly.make(l, C.F7_N), FpPoly.make(l, C.F7_M))]


def family_pairs(l: int):
    """The three quadratic families x^2 + a x + b with a = (alpha-1) b - alpha,
    alpha a root of x^3 - 8x^2 + 5x + 1 (l = 1, 6 mod 7): an irreducible
    quadratic with root r is in the alpha family exactly when
    (x^2 - alpha x) / ((alpha-1) x + 1) takes an F_l value at r."""
    alphas = distinct_roots_in_fp(FpPoly.make(l, C.P_CUBIC))
    if len(alphas) != 3:
        raise StructuralError(f"p-cubic does not split at l={l} = {l % 7} (mod 7)")
    return [(FpPoly.make(l, [0, -alpha, 1]), FpPoly.make(l, [1, alpha - 1])) for alpha in alphas]


def shape_test_counts(ctx: PrimeContext, need: Sequence[str], ss: Optional[FpPoly] = None):
    """The counts `need` asks for, as a dict, by the shape-test route on
    f = G_T (`fibre_gcd`): with e = 2 for l = 1, 6 (mod 7) and e = 6
    otherwise and h_d = x^(l^d) mod f, G is the gcd of f with the product of
    h_d - x over the divisors d the counts need and of the Frobenius shape
    test n(h_1) m - n m(h_1) for `f7_pair` (N6) or `family_pairs` (N2),
    which vanishes at a root b exactly when (n/m)(b) is in F_l; the split of
    G gives the counts, and N2 is half the degree of the gcd of G's
    quadratic part with its B residue (`b_residue`).  At e = 2 every family
    quadratic must have B(a, b) = 0."""
    need = frozenset(need)
    l = ctx.l
    f = fibre_gcd(ctx, ss_poly(ctx) if ss is None else ss)
    one, x = FpPoly.one(l), FpPoly.x(l)
    if l % 7 in (1, 6):
        e = 2
        pairs = family_pairs(l) if "N2" in need else []
        divisors = {1} if "N1" in need else set()
    else:
        e = 6
        pairs = f7_pair(l) if "N6" in need else []
        divisors = {d for d, n in ((2, "N2"), (3, "N3")) if n in need} or ({1} if "N1" in need else set())
    powers = [x]
    for _ in range(max([*divisors, 1 if pairs else 0])):
        powers.append(powers[-1].powmod(l, f))
    test, table = one, [one]
    for _ in range(max((max(n.degree, m.degree) for n, m in pairs), default=0)):
        table.append(table[-1] * powers[1] % f)
    for n, m in pairs:
        test = test * ((_at(n, table) * m - n * _at(m, table)) % f) % f
    for d in divisors:
        test = test * (powers[d] - x) % f
    g = f.gcd(test)
    parts = _ddf(g, powers)
    out = {k: parts.get(d, one).degree // d for k, d in (("N1", 1), ("N3", 3), ("N6", 6)) if k in need}
    if "N2" in need:
        q = parts.get(2)
        out["N2"] = q.gcd(b_residue(q, powers[1] % g)).degree // 2 if q is not None else 0
        if e == 2 and out["N2"] != parts.get(2, one).degree // 2:
            raise StructuralError("family quadratic violates B(a, b) = 0")
    return out


def fibre_pieces(ctx: PrimeContext):
    """{t: (counts, n2)} for the t in T over which the Hasse polynomial H has
    a factor: the piece gcd(f_7(x, t), H), built from H itself and split by
    `_ddf` ({degree: number of factors}), and the number of its quadratic
    factors x^2 + a x + b with B(a, b) = 0, split by `_edf`."""
    l = ctx.l
    H = hasse_poly(ctx)
    T = resultant_roots_in_fp(ss_poly(ctx), -FpPoly.make(l, C.R7_A), FpPoly.make(l, C.R7_B))
    out = {}
    for t in T:
        piece = FpPoly.make(l, C.expand_f7(t)).gcd(H)
        if piece.degree > 0:
            parts = _ddf(piece)
            quads = [g.monic().coeffs for g in _edf(parts[2], 2)] if 2 in parts else []
            out[t] = ({d: g.degree // d for d, g in parts.items()}, sum(b_value(l, q[1], q[0]) == 0 for q in quads))
    return out


# ---------------------------------------------------------------------------
# the split route on the Hasse polynomial: the histogram from a gcd and a
# distinct-degree split


def hasse_split(ctx: PrimeContext):
    """N1, N3, the degree histogram and the classification verdict of the
    Hasse polynomial H, made monic, as a dict, by a gcd and a split of H.

    With e = 2 for l = 1, 6 (mod 7) and e = 6 otherwise and h_d =
    x^(l^d) mod H, G is the gcd of H with the product of h_d - x over the
    proper divisors d of e (d = 2, 3 at e = 6 also hold d = 1); one
    `_ddf(G, powers)` gives the counts.  h_e = x mod H certifies that every
    factor degree divides e, so the degree-e count is what the smaller
    degrees leave over; the only quadratic allowed at l = 2..5 (mod 7) is
    x^2 - x + 1.  If the certificate fails, so does the classification, and
    the rest of H is split to show the offending degree."""
    l = ctx.l
    f = hasse_poly(ctx).monic()
    one, x = FpPoly.one(l), FpPoly.x(l)
    e, divisors = (2, (1,)) if l % 7 in (1, 6) else (6, (2, 3))
    powers = [x]
    for _ in range(e):
        powers.append(powers[-1].powmod(l, f))
    test = one
    for d in divisors:
        test = test * (powers[d] - x) % f
    parts = _ddf(f.gcd(test), powers)
    done = {d: g for d, g in parts.items() if d < e and e % d == 0}
    histogram = {d: g.degree // d for d, g in done.items()}
    if powers[e] == x % f:
        left = f.degree - sum(g.degree for g in done.values())
        if left:
            histogram[e] = left // e
        allowed = {1: {2}, 6: {1, 2}, 2: {2, 6}, 4: {2, 6}}.get(l % 7, {2, 3, 6})
        ok = set(histogram) <= allowed
        if ok and l % 7 in (2, 3, 4, 5) and 2 in done:
            ok = done[2].monic() == FpPoly.make(l, C.X2X1)
    else:
        rest = f // math.prod(done.values(), start=one)
        histogram.update((d, g.degree // d) for d, g in _ddf(rest, powers).items())
        ok = False
    return {
        "N1": parts.get(1, one).degree,
        "N3": parts.get(3, one).degree // 3,
        "degree_histogram": dict(sorted(histogram.items())),
        "classification_ok": ok,
    }


def hasse_report(ctx: PrimeContext, ss: Optional[FpPoly] = None) -> FactorCountReport:
    """The whole `FactorCountReport` of `count_factors(ctx)` by routes that
    share none of its fibre counts or certificates: `hasse_split` for N1,
    N3, the histogram and the verdict, and `shape_test_counts` on G_T for
    N2 and N6."""
    return FactorCountReport(**hasse_split(ctx), **shape_test_counts(ctx, ("N2", "N6"), ss))
