"""Prime-field arithmetic plus a univariate polynomial toolbox over F_l:
factorization (squarefree / distinct-degree / equal-degree), the resultant
in X behind ss^(7*), its F_l-roots found pointwise, the cleared composition
reduced mod a small polynomial, and root finding in F_l.  `_ddf` is the one
split of a squarefree polynomial by degree.

`FpPoly` is the one F_l[x] type.  It holds the modulus and one dense numpy
coefficient vector, reduced, without trailing zeros, lowest degree first; no
other module sees that vector.  Moduli are at most `PRIME_LIMIT`, where
every sum that a product or a reduction builds fits in int64 (`_INT64_BOUND`,
asserted where the sums are formed).  Long products go through a float64 FFT
inside an asserted exactness bound (`_fft_error`, Percival's error bound
below 1/2, at the size each transform runs), on operands centred into
[-(l-1)/2, (l-1)/2] where the bound fails for operands in [0, l) but holds
for centred ones; short ones keep `np.convolve`.
A product a little longer than a power of two N runs as the size-N cyclic
product, less the top coefficients that wrapped around, which come exactly
from a small product of the operands' top coefficients.

Every division goes through one `_Modulus`, the divisor prepared: a constant
divisor scales by its inverse, and otherwise the quotient is the product of
the dividend's top with the Newton inverse of the reversed divisor
(`_inv_series`).  Each `FpPoly` keeps the `_Modulus` of itself as a divisor,
and that keeps the prefix of the inverse its quotients have needed, extended
on demand, with the transforms of the inverse and of the divisor, so powmod
chains and repeated reductions mod one f build them once.  The remainder
a - q b is computed mod x^N - 1 with N >= deg b + 1, half the transform of
the full q b, and the coefficients that must vanish there are checked.  A
powmod by a divisor b of degree d up to `_MATRIX_MAX_DEG` (96) reduces each
product of two residues instead by a matrix kept on b, whose row i is
x^(d+i) mod b: one int64 vector-matrix product.  Euclid's steps with a one-
or two-coefficient quotient run in float64 on unreduced integer vectors
(`_euclid`), inside a second asserted bound: every integer the step computes
stays below 2^52, which holds for l (l - 1) < 2^52; other steps divide
through a one-off `_Modulus`.  All randomized steps draw from a PRNG seeded
with the bytes of the modulus and of the input coefficients (`_seed_rng`),
which `random` hashes with its built-in SHA-512, so every run (and every
process) produces identical output without loading `hashlib`.
Two kernels evaluate by baby steps and giant steps, with the blocks summed
as one int64 matrix product inside an asserted bound (`_block_fits`): the
resultant in X at every t in F_l at once (`resultant_roots_in_fp`), and a
cleared composition mod every polynomial of a stack (`homogenize_mod`).
A stack (`Moduli`) holds monic polynomials of one small degree d as the rows
of one array; its `Residues` multiply mod every row at once through a table
of x^i mod each row, and `Moduli.factor_counts` reads each row's factor
degrees off the traces of the powers of its Frobenius matrix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .classnum import kronecker
from .errors import StructuralError
from .exactring import power

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n <= PRIME_LIMIT (the bases make it
    exact far beyond that)."""
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


# ---------------------------------------------------------------------------
# prime context


# The largest modulus, which every exactness bound below covers; PrimeContext,
# FpPoly.make and the CLI refuse larger ones.  J_l and the Hasse polynomial
# have degree about l/12 and 2l, so a prime far past the l < 10^5 band the
# sweeps are sized for would run for hours or exhaust memory.
PRIME_LIMIT = 10**6


@dataclass(frozen=True)
class PrimeContext:
    """A prime l the paper's theorems cover (l != 2, 3, 7, at most
    `PRIME_LIMIT`) together with its derived character data."""

    l: int
    r: int
    s: int
    n: int
    mu7: int

    @staticmethod
    def admits(l: int) -> bool:
        """Whether l is such a prime: the one test of the primes a sweep
        covers."""
        return 5 <= l <= PRIME_LIMIT and l != 7 and is_prime(l)

    def __post_init__(self):
        if not self.admits(self.l):
            raise ValueError(f"modulus must be a prime >= 5, != 7, at most {PRIME_LIMIT:,}, got {self.l}")

    @classmethod
    def make(cls, l: int) -> "PrimeContext":
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
# min(m, n) < m + n terms below (l-1)^2; a coefficient of the reduction of a
# length-m vector by a reduction matrix sums fewer than m such terms plus one
# reduced coefficient.  With (l-1)^2 (m + n) < 2^62, or (l-1)^2 m < 2^62,
# both stay below 2^62 + l, inside int64 (whose maximum is 2^62 + (2^62 - 1)),
# so int64 is exact; `_mul` and `_Modulus.residue` assert it.  At
# l <= PRIME_LIMIT it holds up to m + n = 4.6 10^6, and the largest product a
# count forms, of two residues mod the Hasse polynomial H (m + n <= 2 deg H,
# about 4 l), uses 0.87 of it at l = 999983.  Sums and scalings of two
# reduced vectors fit as well.
_INT64_BOUND = 2**62
assert 2 * _INT64_BOUND - 1 == np.iinfo(np.int64).max


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
# Coefficients lie in [0, l-1], or, centred (c - l for c > (l-1)/2), in
# [-(l-1)/2, (l-1)/2]; with B = l-1 or (l-1)/2 that size bound, m the shorter
# length and the longer one at most 2^n, ||a||_2 ||b||_2 <= B^2 sqrt(m 2^n).
# `_fft_error` is that bound.  It covers the cyclic product mod x^(2^n) - 1
# that the transforms compute, whether or not it wraps.  Below 1/2, rint
# recovers every coefficient exactly.  Each exact coefficient of the cyclic
# product sums at most m products, so its size is at most
# m B^2 <= B^2 sqrt(m 2^n), and the bound is at least B^2 sqrt(m 2^n) eps:
# below 1/2 it gives m B^2 < 2^52, that is m ((l-1)/2)^2 < 2^52 when
# centred, and every exact coefficient is representable.  Centred, the
# coefficients are signed integers, which `_residues` (int64 %) maps into
# [0, l) exactly.  Centring divides the bound by 4.  At l = 9973 and two
# operands of length 20000 (n = 16) the plain bound is 0.08.  The square of a
# residue mod the Hasse polynomial (degree 2l) passes 1/2 from l = 18433 on
# (n = 17, 0.57), where the centred bound is 0.14; the centred one passes 1/2
# from l = 30407 on (0.48 at l = 30011).  `_fft_ok` takes the plain route
# wherever it holds, and centres only where it fails.  At every product
# length the FFT path takes (m >= _FFT_MIN_LEN, n >= 8) the plain bound
# exceeds 1/2 from l = 489336 on and the centred one from l = 978671 on, so
# products there convolve directly, inside `_INT64_BOUND`; only a remainder
# by a divisor of degree 127 (m = 128, n = 7) keeps the centred FFT up to
# PRIME_LIMIT.
_EPS = 2.0**-53


def _fft_error(bound: int, m: int, n: int) -> float:
    """Percival's bound on the FFT product error: `bound` the size bound of
    the operands' coefficients (l-1, or (l-1)/2 centred), m the shorter
    operand length, 2^n the FFT size."""
    growth = 6 * n * math.log1p(_EPS) + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5))
    return bound**2 * math.sqrt(m << n) * math.expm1(growth)


# The FFT product beats np.convolve once the shorter operand reaches this
# length.  Measured on a 2-core x86-64 VM (numpy 2.4, l = 1999), convolve vs
# FFT: operands of equal length m took 5 vs 27 us at m = 64, 23 vs 38 us at
# m = 128, 63 vs 45 us at m = 256 and 0.89 vs 0.10 ms at m = 1024; with the
# longer operand of length 1000, 51 vs 67 us at m = 64 and 120 vs 97 us at
# m = 128.
_FFT_MIN_LEN = 128

# A product of length L with N < L <= N + N / 2^_WRAP_SHIFT, N >= _WRAP_MIN a
# power of two holding both operands, runs as the size-N cyclic product: its
# coefficients [0, t), t = L - N, also hold the top t coefficients of the
# product, which depend only on the top t coefficients of each operand and
# come from one small product (`_mul_fft`).  Measured as for _FFT_MIN_LEN
# (l = 2083, timings interleaved, median of 31), size 2N vs wrapped size N
# for a square and a product of two operands: at N = 8192, 325 vs 213 and
# 451 vs 281 us for t = 127, 367 vs 249 and 497 vs 315 us at t = 255 and
# 449 vs 405 and 664 vs 573 us at t = 2047 = N/4; at N = 4096, 165 vs 118
# and 242 vs 157 us at t = 127, 180 vs 144 and 269 vs 211 us at t = 511; at
# N = 2048, 93 vs 82 and 126 vs 100 us at t = 127, 100 vs 105 and 109 vs
# 102 us at t = 255, 106 vs 122 and 143 vs 156 us at t = 511; at N = 1024,
# 44 vs 49 and 64 vs 63 us at t = 127, and at N = 512 the wrap never gains:
# below N = 2048 the fixed cost of the transforms and of the small product
# outweighs the halved size.
_WRAP_SHIFT = 3
_WRAP_MIN = 2048


def _fft_log2(la: int, lb: int) -> int:
    """log2 of the FFT size for a product of lengths la and lb: the smallest
    power of two N that holds the product, or N/2 when N/2 >= _WRAP_MIN, the
    product passes N/2 by at most N/2 / 2^_WRAP_SHIFT and both operands fit
    in N/2."""
    L = la + lb - 1
    n = max(L - 1, 1).bit_length()
    half = 1 << (n - 1)
    if half >= _WRAP_MIN and max(la, lb) <= half and (L - half) << _WRAP_SHIFT <= half:
        return n - 1
    return n


def _fft_ok(l: int, m: int, n: int) -> int:
    """The route of a product with shorter operand length m and FFT size 2^n,
    as the coefficient size bound its transforms run at: l - 1 (operands in
    [0, l)) where Percival's bound holds for it, else (l - 1) // 2 (operands
    centred) where it holds for that, else 0, and the product convolves."""
    if m < _FFT_MIN_LEN:
        return 0
    if _fft_error(l - 1, m, n) < 0.5:
        return l - 1
    half = (l - 1) // 2
    return half if _fft_error(half, m, n) < 0.5 else 0


def _mul(l: int, a, b, fb=None):
    """The product of a and b, reduced (a is b squares with one transform);
    fb, if given, gives b's transform as a callable of (n, bound), where the
    product runs by FFT of size 2^n on the route `bound` (`_fft_ok`)."""
    if not len(a) or not len(b):
        return a[:0]
    m = min(len(a), len(b))
    if m >= _FFT_MIN_LEN:
        n = _fft_log2(len(a), len(b))
        bound = _fft_ok(l, m, n)
        if bound:
            return _mul_fft(l, a, b, n, bound, fb and fb(n, bound))
    assert (l - 1) ** 2 * (len(a) + len(b)) < _INT64_BOUND, "product outside the int64 bound"
    return np.convolve(a, b) % l


def _rfft(a, n: int):
    assert len(a) <= 1 << n, "rfft would truncate its input"
    return np.fft.rfft(a.astype(np.float64), 1 << n)


def _centre(l: int, a):
    """a, with coefficients in [0, l), centred into [-(l-1)/2, (l-1)/2]."""
    return np.where(a > l // 2, a - l, a)


def _residues(l: int, v):
    """The residues in [0, l) of the integer-valued float vector v (|v| < 2^52),
    as int64."""
    return v.astype(np.int64) % l


def _cyclic(l: int, a, b, n: int, bound: int, fb=None):
    """The cyclic product a b mod x^(2^n) - 1 on the route `bound`
    (`_fft_ok`: l - 1 plain, (l - 1) // 2 centred), unreduced, as
    integer-valued floats; fb, if given, is the transform of b on that
    route."""
    plain = bound == l - 1
    assert plain or bound == (l - 1) // 2, "FFT product on an unknown route"
    assert _fft_error(bound, min(len(a), len(b)), n) < 0.5, "FFT product outside its exactness bound"
    fa = _rfft(a if plain else _centre(l, a), n)
    if fb is None:
        fb = fa if a is b else _rfft(b if plain else _centre(l, b), n)
    c = np.fft.irfft(fa * fb, 1 << n)
    return np.rint(c, out=c)


def _mul_fft(l: int, a, b, n: int, bound: int, fb=None):
    """The product of a and b from the cyclic product of size N = 2^n (bound
    and fb as for `_cyclic`).  If the product is t coefficients longer than
    N, they wrapped onto coefficients [0, t): they are the top t of the
    product of the operands' top t coefficients, computed apart and
    subtracted."""
    c = _cyclic(l, a, b, n, bound, fb)
    L = len(a) + len(b) - 1
    t = L - len(c)
    if t <= 0:
        return _residues(l, c[:L])
    at = a[-t:]
    top = _mul(l, at, at if a is b else b[-t:])[-t:]
    c[:t] -= top
    return np.concatenate([_residues(l, c), top])


def _fold(l: int, v, n: int):
    """v mod x^(2^n) - 1, reduced."""
    size = 1 << n
    if len(v) <= size:
        return v
    w = np.zeros(-(-len(v) // size) * size, dtype=v.dtype)
    w[: len(v)] = v
    return w.reshape(-1, size).sum(axis=0) % l


def _inv_series(l: int, h, n: int, g):
    """g with h g = 1 mod x^n (h[0] a unit), length n, by Newton iteration from
    the prefix g, the inverse mod x^len(g): if h g = 1 + e x^k mod x^2k, then
    g - g e x^k is the inverse mod x^2k."""
    h = np.concatenate([h[:n], np.zeros(max(0, n - len(h)), dtype=h.dtype)])
    while len(g) < n:
        k = min(2 * len(g), n)
        e = _mul(l, h[:k], g)[len(g) : k]
        g = np.concatenate([g, -_mul(l, g, e)[: k - len(g)] % l])
    return g


# A divisor b of degree d with 2 <= d <= _MATRIX_MAX_DEG reduces a product of
# two residues (length at most 2d - 1) by a matrix R kept on b: row i of R is
# x^(d+i) mod b, so the product a reduces to a[:d] + a[d:] R, one int64
# vector-matrix product (numpy's own loop, not BLAS, so no BLAS threads).
# Larger divisors take the Newton quotient.  Measured as for _FFT_MIN_LEN: a
# whole powmod by a fresh divisor, so R and the inverse are built inside the
# timing, per reduction, Newton / matrix (one process, the paths alternating,
# median of 31).  At l = 997 and e = l (16 reductions):
# 21 / 15 us at d = 31, 28 / 28 us at 64, 42 / 41 us at 96, 47 / 50 us at
# 112, 67 / 75 us at 128 and 107 / 126 us at 192.  At e = (l^2 - 1)/2 (29
# reductions): 20 / 12 us at d = 31, 29 / 21 us at 64, 72 / 59 us at 96 and
# 174 / 166 us at 192.  Past d = 96 building R (about 7 us a row) outweighs
# its gain for short exponents: x^l mod J_l at l = 1801 (degree 150) took
# 1.8 ms by the matrix and 1.4 ms by Newton.
_MATRIX_MAX_DEG = 96


def _reduction_matrix(l: int, b):
    """The (d - 1) x d matrix R, d = deg b >= 2, whose row i is x^(d+i) mod b:
    row 0 is x^d = -b[:d] / lc(b), and row i is x times row i - 1, whose x^d
    term reduces by row 0."""
    d = len(b) - 1
    R = np.zeros((d - 1, d), dtype=np.int64)
    R[0] = -b[:d] * pow(int(b[-1]), -1, l) % l
    for i in range(1, d - 1):
        R[i, 1:] = R[i - 1, :-1]
        R[i] += R[i - 1, -1] * R[0]
        R[i] %= l
    return R


class _Modulus:
    """A nonzero divisor b prepared for division: the prefix of the Newton
    inverse of b reversed that its quotients have needed so far (from
    lc(b)^-1, extended on demand), the transforms of that inverse and of b,
    kept per size and route (centred once, where the route centres), and
    the reduction matrix of a small b.

    `FpPoly` keeps one on each divisor, so a powmod chain, or the many
    reductions mod one f, build the inverse once.
    """

    __slots__ = ("l", "b", "inv", "_ffts", "_mat")

    def __init__(self, l: int, b):
        self.l, self.b = l, b
        self.inv = np.array([pow(int(b[-1]), -1, l)], dtype=b.dtype)
        self._ffts: Dict[tuple, np.ndarray] = {}
        self._mat = None  # the reduction matrix, once needed

    def _inverse(self, n: int):
        """The inverse of b reversed mod x^n, extending the kept prefix."""
        if len(self.inv) < n:
            self.inv = _inv_series(self.l, self.b[::-1], n, self.inv)
        return self.inv[:n]

    def _transform(self, name: str, c, n: int, bound: int):
        """The transform of c, the inverse or the divisor (named by `name`),
        on the route `bound` (`_fft_ok`), kept."""
        key = (name, len(c), n, bound)
        fc = self._ffts.get(key)
        if fc is None:
            fc = self._ffts[key] = _rfft(c if bound == self.l - 1 else _centre(self.l, c), n)
        return fc

    def divmod(self, a):
        """Quotient and remainder of a."""
        l, b = self.l, self.b
        db = len(b) - 1
        if db == 0:
            return _scale(l, a, int(self.inv[0])), a[:0]
        nq = len(a) - db
        if nq <= 0:
            return a[:0], a
        inv = self._inverse(nq)
        q = _mul(l, a[: db - 1 : -1], inv, lambda n, bound: self._transform("inv", inv, n, bound))
        q = _trim(q[nq - 1 :: -1])
        return q, self._remainder(a, q)

    def residue(self, a):
        """a mod b, for a product a of two residues mod b (length at most
        2 deg b - 1).  Up to `_MATRIX_MAX_DEG` it is a[:d] + a[d:] R with the
        reduction matrix R, built at the first such product; otherwise the
        quotient, with the inverse sized for every such product at once."""
        l, d = self.l, len(self.b) - 1
        if not 2 <= d <= _MATRIX_MAX_DEG:
            self._inverse(d - 1)
            return self.divmod(a)[1]
        if len(a) <= d:
            return a
        assert len(a) < 2 * d, "reduction matrix applied to a longer vector"
        assert (l - 1) ** 2 * len(a) < _INT64_BOUND, "reduction outside the int64 bound"
        if self._mat is None:
            self._mat = _reduction_matrix(l, self.b)
        return _trim((a[:d] + a[d:] @ self._mat[: len(a) - d]) % l)

    def _remainder(self, a, q):
        """a - q b, which has degree below deg b, computed mod x^N - 1 with N
        the power of two >= deg b + 1: (a mod x^N - 1) - (q b mod x^N - 1),
        a cyclic product of size N with b's transform kept.  Coefficients
        [deg b, N) of the difference must vanish, and are checked."""
        l, b = self.l, self.b
        db = len(b) - 1
        n = db.bit_length()
        bound = _fft_ok(l, min(len(q), 1 << n, len(b)), n)
        if not bound:
            return _sub(l, a[:db], _mul(l, q, b)[:db])
        c = _cyclic(l, _fold(l, q, n), b, n, bound, self._transform("b", b, n, bound))
        af = _fold(l, a, n)
        np.subtract(af, c[: len(af)], out=c[: len(af)])
        c[len(af) :] *= -1
        r = _residues(l, c)
        assert not r[db:].any(), "wrapped remainder is nonzero past deg b"
        return _trim(r[:db])


# Float Euclid.  A normal Euclid step has a quotient of one or two
# coefficients, q1 x + q0 (q1 alone if deg a = deg b), so its remainder
# a - (q1 x + q0) b is one short convolution.
# `_euclid` runs those steps in float64 on integer vectors it leaves
# unreduced, with q0 and q1 in [-(l-1)/2, (l-1)/2] and the sign of each
# remainder flipped (a unit, which the gcd ignores).  If |a| <= A and |b| <= B
# coefficientwise, every product and partial sum in the step is an integer of
# size at most A + (|q0| + |q1|) B; below 2^52 float64 holds it exactly.  Just
# before the tracked bound would pass 2^52, b (the newer vector, whose bound
# is the larger) is reduced in place by v - l rint(v / l), and a too if that
# is not enough: for |v| < 2^52 the computed v / l is within 1/2 of the true
# one, so the result is exact and below l in size.
# After reducing both the bound is at most (l-1) + (l-1)(l-1) = l (l-1), so
# the float steps are exact for l (l-1) < 2^52, l <= 2^26, far past
# PRIME_LIMIT.  Long quotients (the first step, and any after a degree drop
# of two or more) and constant divisors divide through a one-off `_Modulus`.
_FLOAT_EXACT = 2**52
assert PRIME_LIMIT * (PRIME_LIMIT - 1) < _FLOAT_EXACT


def _reduce_float(l: int, v):
    """v - l rint(v / l), in place; returns v."""
    t = v * (1.0 / l)
    np.rint(t, out=t)
    t *= l
    v -= t
    return v


def _euclid(l: int, a, b):
    """The last nonzero remainder of Euclid's sequence on a and b (a unit
    multiple of their gcd), with the float steps described above."""
    half = l // 2
    fa, fb = a.astype(np.float64), b.astype(np.float64)
    ba = bb = l - 1  # bounds on |fa| and |fb|
    while len(fb):
        nq = len(fa) - len(fb) + 1
        if not 1 <= nq <= 2 or len(fb) == 1:
            rb = _residues(l, fb)
            r = _Modulus(l, rb).divmod(_residues(l, fa))[1]
            fa, fb, ba, bb = rb.astype(np.float64), r.astype(np.float64), l - 1, l - 1
            continue
        inv = pow(int(fb.item(-1)) % l, -1, l)
        q1 = int(fa.item(-1)) * inv % l
        q0 = (int(fa.item(-2)) - q1 * int(fb.item(-2))) * inv % l if nq == 2 else 0
        q1 -= l if q1 > half else 0
        q0 -= l if q0 > half else 0
        s = abs(q0) + abs(q1)
        bound = ba + s * bb
        if bound >= _FLOAT_EXACT:
            _reduce_float(l, fb)
            bb = l - 1
            bound = ba + s * bb
            if bound >= _FLOAT_EXACT:
                _reduce_float(l, fa)
                ba = l - 1
                bound = ba + s * bb
        assert bound < _FLOAT_EXACT, "float Euclid step outside its exactness bound"
        r = np.convolve(fb, (q0, q1) if nq == 2 else (q1,))
        r -= fa
        n = len(fb) - 1
        while n and not r.item(n - 1) % l:
            n -= 1
        fa, fb, ba, bb = fb, r[:n], bb, bound
    return _residues(l, fa)


# ---------------------------------------------------------------------------
# the polynomial type


class FpPoly:
    """Dense univariate polynomial over F_l, coefficients reduced, no trailing zeros.

    Values are immutable: every operation returns a new polynomial, and `==`
    and `hash` compare the modulus and the coefficients.
    """

    __slots__ = ("modulus", "_v", "_mod")

    def __init__(self, modulus: int, v):
        """Wrap a coefficient vector already reduced mod `modulus` (low degree
        first); `make` accepts arbitrary integers."""
        self.modulus = modulus
        self._v = _trim(v)
        self._mod = None  # the `_Modulus` of self as a divisor, once needed

    def __reduce__(self):
        return FpPoly, (self.modulus, self._v)

    @classmethod
    def make(cls, l: int, coeffs: Iterable[int]) -> "FpPoly":
        if l > PRIME_LIMIT:
            raise ValueError(f"modulus must be at most {PRIME_LIMIT:,}, got {l}")
        return cls(l, np.array([c % l for c in coeffs], dtype=np.int64))

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
        return power(self, k, FpPoly.one(self.modulus))

    def __divmod__(self, other):
        other = self._bin(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = other._prepared().divmod(self._v)
        return FpPoly(self.modulus, q), FpPoly(self.modulus, r)

    def _prepared(self) -> _Modulus:
        """The `_Modulus` of self as a nonzero divisor, built once and kept."""
        if self._mod is None:
            self._mod = _Modulus(self.modulus, self._v)
        return self._mod

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
        l = self.modulus
        return FpPoly(l, _euclid(l, self._v, self._bin(other)._v)).monic()

    def powmod(self, e: int, mod: "FpPoly") -> "FpPoly":
        if mod.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        l, m = self.modulus, mod._prepared()
        base = m.divmod(self._v)[1]
        one = np.ones(1, dtype=mod._v.dtype)
        return FpPoly(l, power(base, e, one, lambda a, b: m.residue(_mul(l, a, b))))

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
    """A PRNG seeded by the bytes of f: the modulus (8 bytes, little-endian),
    then the coefficient vector as little-endian int64.  `random` hashes a
    bytes seed with its built-in SHA-512, so every process draws the same
    numbers without loading `hashlib` (and OpenSSL with it); `hash()` would
    not do, being randomized per process for bytes."""
    return random.Random(f.modulus.to_bytes(8, "little") + f._v.astype("<i8", copy=False).tobytes())


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


def _ddf(f: FpPoly) -> Dict[int, FpPoly]:
    """Distinct-degree split of monic squarefree f: maps d -> the product of
    the irreducible degree-d factors (von zur Gathen-Gerhard, ch. 14)."""
    l = f.modulus
    parts: Dict[int, FpPoly] = {}
    x = FpPoly.x(l)
    h = x
    d = 0
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            parts[f.degree] = f
            break
        h = h.powmod(l, f)
        g = f.gcd(h - x)
        if g.degree > 0:
            parts[d] = g
            f = f // g
    return parts


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
        for d, prod in sorted(_ddf(comp).items()):
            found.extend((g.monic(), mult) for g in _edf(prod, d))
    found.sort(key=lambda fm: _sort_key(fm[0]))
    return Factorization(unit=f.lc, factors=tuple(found))


def radical(f: FpPoly) -> FpPoly:
    """Product of the distinct monic irreducible factors of f."""
    out = FpPoly.one(f.modulus)
    for comp, _ in squarefree_decomposition(f):
        out = out * comp
    return out


def _linear_part(f: FpPoly) -> FpPoly:
    """gcd(f, x^l - x): the product of x - a over the distinct roots a of f in F_l."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    x = FpPoly.x(f.modulus)
    return f.gcd(x.powmod(f.modulus, f) - x)


def count_roots_in_fp(f: FpPoly) -> int:
    """Number of distinct roots of f in F_l."""
    return _linear_part(f).degree


# ---------------------------------------------------------------------------
# the resultant in X


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
# blocked evaluation: baby steps, one matrix product, giant steps

# Both kernels below sum K-term rows of residues in one int64 matrix product
# (numpy's own loop, not BLAS), and the resultant's giant steps add at most
# three products of two residues and one residue.  Each such sum stays below
# (l-1)^2 max(K, 3) + (l-1) <= (l-1)^2 (K + 3), so int64 is exact while
# (l-1)^2 (K + 3) < `_INT64_BOUND`; `_block_fits` is that test, and both
# kernels assert it.  At l <= PRIME_LIMIT it holds for K < 4.6 10^6, where a
# block is never longer than the square root of the coefficients it splits.
def _block_fits(l: int, k: int) -> bool:
    """Whether sums of k products of two residues mod l, or of three and one
    residue, stay inside `_INT64_BOUND`."""
    return (l - 1) ** 2 * (k + 3) < _INT64_BOUND


def _blocks(l: int, coeffs, k: int):
    """coeffs, int64 and reduced, zero-padded at the top to a multiple of k
    and cut into rows of k: row j holds coefficients j k .. j k + k - 1."""
    assert _block_fits(l, k), "blocked sum outside the int64 bound"
    rows = np.zeros(-(-len(coeffs) // k) * k, dtype=np.int64)
    rows[: len(coeffs)] = coeffs
    return rows.reshape(-1, k)


# t-values per slice of the pointwise resultant: its work arrays hold
# (K + M) x 2 slices of this length for K + M about 2 sqrt(deg f).  Measured
# on a 2-core x86-64 VM (one run each), slices of 1024 / 2048 / 4096 / 8192
# took 0.24 s at every size at l = 29989 and 0.65 / 0.74 / 0.83 / 0.85 s at
# l = 50021.
_POINT_SLICE = 1024


def _resultant_at(f: FpPoly, a1: FpPoly, a0: FpPoly, t):
    """Res_X(f(X), X^2 + a1(t) X + a0(t)) at every t of the int64 vector t
    of residues, as an int64 vector: f reduces modulo Q_t = X^2 + a1(t) X +
    a0(t) to u X + v, and the resultant is u^2 a0(t) - a1(t) u v + v^2.

    The reduction is Horner's rule by blocks of K ~ sqrt(deg f)
    coefficients: with X^i = a_i X + b_i mod Q_t for i <= K (baby steps, K
    vector steps), each block's sum of f_(jK+i) (a_i X + b_i) is one matrix
    product over all blocks, and the giant steps multiply by
    X^K = a_K X + b_K, one block at a time.
    """
    l = f.modulus
    k = max(1, math.isqrt(len(f._v)))
    rows = _blocks(l, f._v, k)
    na1, p0 = np.zeros_like(t), np.zeros_like(t)
    for c in reversed(a1.coeffs):
        na1 = (na1 * t + c) % l
    for c in reversed(a0.coeffs):
        p0 = (p0 * t + c) % l
    na1, na0 = -na1 % l, -p0 % l
    # X^(i+1) = a_i X^2 + b_i X = (b_i - a1 a_i) X - a0 a_i
    a, b = np.zeros((k + 1, len(t)), dtype=np.int64), np.zeros((k + 1, len(t)), dtype=np.int64)
    b[0] = 1
    for i in range(k):
        a[i + 1] = (na1 * a[i] + b[i]) % l
        b[i + 1] = na0 * a[i] % l
    su, sv = rows @ a[:k] % l, rows @ b[:k] % l
    ak, bk = a[k], b[k]
    # (u X + v) X^K = (u (b_K - a1 a_K) + v a_K) X + (v b_K - u a0 a_K)
    w1, w0 = (na1 * ak + bk) % l, na0 * ak % l
    u, v = su[-1], sv[-1]
    for j in range(len(rows) - 2, -1, -1):
        u, v = (u * w1 + v * ak + su[j]) % l, (u * w0 + v * bk + sv[j]) % l
    return (u * u % l * p0 + na1 * u % l * v + v * v) % l


def resultant_roots_in_fp(f: FpPoly, a1: FpPoly, a0: FpPoly) -> List[int]:
    """The t in F_l, sorted, at which Res_X(f(X), X^2 + a1(t) X + a0(t)) = 0:
    the F_l-roots of `resultant_in_X(f, a1, a0)`, found pointwise
    (`_resultant_at`, every t of a slice at once) without forming that
    polynomial."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    l = f.modulus
    roots: List[int] = []
    for lo in range(0, l, _POINT_SLICE):
        t = np.arange(lo, min(l, lo + _POINT_SLICE), dtype=np.int64)
        roots.extend((t[_resultant_at(f, a1, a0, t) == 0]).tolist())
    return roots


# ---------------------------------------------------------------------------
# a stack of monic moduli of one degree

# A `Moduli` stack of degree d sums at most d^2 products of two residues: a
# product of two residues mod f_t is the sum of the d^2 reduced products of
# their coefficients times x^(i+j) mod f_t, and an entry of a product of two
# d x d matrices of residues sums d.  It asserts `_block_fits(l, d^2)` when it
# is built (at `PRIME_LIMIT` that allows d up to 2144; the fibres have d = 6),
# and its reduction of a vector of length n asserts the bound for n.


class Moduli:
    """Monic polynomials f_0, ..., f_(T-1) over F_l of one degree d >= 1, the
    rows of a (T, d + 1) int64 array, with the table of x^i mod f_t
    (extended on demand) that reduces a vector of length n mod every f_t at
    once as one product with its first n rows."""

    __slots__ = ("l", "f", "_table", "_pairs")

    def __init__(self, l: int, f):
        d = f.shape[1] - 1
        assert d >= 1 and (f[:, -1] % l == 1).all(), "moduli must be monic of degree >= 1"
        assert _block_fits(l, d * d), "stacked product outside the int64 bound"
        self.l, self.f = l, f % l
        self._table = np.broadcast_to(np.eye(d, dtype=np.int64), (len(f), d, d)).copy()
        self._pairs = None  # x^(i+j) mod f_t at row i d + j, once needed

    @classmethod
    def pencil(cls, l: int, n: Sequence[int], m: Sequence[int], ts: Sequence[int]) -> "Moduli":
        """The stack n - t m over t in ts, for n monic and deg m < deg n."""
        nv = np.array([c % l for c in n], dtype=np.int64)
        mv = np.zeros_like(nv)
        mv[: len(m)] = [c % l for c in m]
        t = np.array(ts, dtype=np.int64).reshape(-1, 1)
        return cls(l, (nv - t * mv) % l)

    @property
    def degree(self) -> int:
        return self.f.shape[1] - 1

    def _rows(self, n: int):
        """x^i mod f_t for i < n, shape (T, n, d): row i is x times row
        i - 1, whose x^d term reduces by x^d = -(f_t - x^d)."""
        have = self._table.shape[1]
        if have < n:
            l, d = self.l, self.degree
            low, last, rows = -self.f[:, :d] % l, self._table[:, -1], [self._table]
            for _ in range(n - have):
                up = np.zeros_like(last)
                up[:, 1:] = last[:, :-1]
                last = (up + last[:, -1:] * low) % l
                rows.append(last[:, None])
            self._table = np.concatenate(rows, axis=1)
        return self._table[:, :n]

    def _reduce(self, v):
        """The vector v mod every f_t, reduced, shape (T, d)."""
        assert _block_fits(self.l, len(v)), "stacked reduction outside the int64 bound"
        return v @ self._rows(len(v)) % self.l

    def _mulmod(self, a, b):
        """The products a_t b_t mod f_t of two stacks of residues: the d^2
        products of coefficients, reduced, times x^(i+j) mod f_t, summed as
        one matrix product per row."""
        l, d = self.l, self.degree
        if self._pairs is None:
            self._pairs = self._rows(2 * d - 1)[:, (np.arange(d)[:, None] + np.arange(d)).reshape(-1)]
        prod = (a[:, :, None] * b[:, None, :]).reshape(len(a), d * d) % l
        return (prod[:, None] @ self._pairs)[:, 0] % l

    def residues(self, p: FpPoly) -> "Residues":
        """p mod every f_t."""
        return Residues(self, self._reduce(p._v))

    def poly(self, i: int) -> FpPoly:
        """f_i."""
        return FpPoly(self.l, self.f[i].copy())

    def factor_counts(self, h: "Residues") -> List[Optional[Dict[int, int]]]:
        """For each f_t, given h = x^l mod f_t: {k: a_k}, a_k > 0 the number
        of its irreducible factors of degree k, or None where f_t is not
        certified squarefree.

        Row i of the Frobenius matrix Q_t is h^i mod f_t.  On F_l[x]/(f_t),
        for f_t squarefree a product of fields F_(l^k), Frobenius^j has the
        trace k on F_(l^k) if k | j and 0 otherwise (a power of the cyclic
        shift of a normal basis), so tr(Q_t^j) = sum_(k | j) k a_k mod l, and
        a_j follows from j = 1 up.  That is exact while every a_k < l and j
        is a unit mod l.  For d < l or d = l + 1 (a sextic at every l >= 5):
        a_1 <= l - 1, since below l there is no room for l linear factors,
        and at l + 1 they would leave degree 1, which no factor of another
        degree fills; a_k <= d / k < l for k >= 2; and j = l is the only
        degree that is not a unit, whose count follows from sum k a_k = d.
        At d = l the bound fails: x^l - x has a_1 = l = 0 mod l, and the
        traces would read it as one factor of degree l.
        The certificate: with L the lcm of the degrees found, Q_t^L = I says
        f_t divides x^(l^L) - x, so f_t is squarefree with every factor
        degree dividing L, and the counts are its own; a non-squarefree f_t
        fails it.
        """
        l, d = self.l, self.degree
        assert d < l or d == l + 1, "factor counts from traces need d < l or d = l + 1"
        rows = [self.residues(FpPoly.one(l)).v, h.v]
        while len(rows) < d:
            rows.append(self._mulmod(rows[-1], h.v))
        q = np.stack(rows[:d], axis=1)
        powers = [q]  # powers[j - 1] = Q^j
        while len(powers) < d:
            powers.append(powers[-1] @ q % l)
        a = np.zeros((len(q), d + 1), dtype=np.int64)
        for j in range(1, d + 1):
            if j != l:
                s = np.trace(powers[j - 1], axis1=1, axis2=2) - sum(k * a[:, k] for k in range(1, j) if j % k == 0)
                a[:, j] = s % l * pow(j, -1, l) % l
        if l <= d:
            rest = d - a @ np.arange(d + 1)
            a[:, l] = np.where(rest % l, -1, rest // l)
        partition = (a >= 0).all(axis=1) & (a @ np.arange(d + 1) == d)
        lcms = [math.lcm(*np.flatnonzero(row[1:]) + 1) if ok else 0 for row, ok in zip(a, partition)]
        while len(powers) < max(lcms, default=0):
            powers.append(powers[-1] @ q % l)
        eye = np.eye(d, dtype=np.int64)
        return [{k: c for k, c in enumerate(row) if k and c} if L and np.array_equal(powers[L - 1][i], eye) else None
                for i, (row, L) in enumerate(zip(a.tolist(), lcms))]


class Residues:
    """Elements of the product of the rings F_l[x]/(f_t) over a `Moduli`
    stack, one reduced row of d coefficients per f_t.  They add, subtract and
    multiply with each other and with integers and take powers, so a formula
    written for `FpPoly` (`constants.b_form`, say) evaluates mod every f_t at
    once."""

    __slots__ = ("moduli", "v")

    def __init__(self, moduli: Moduli, v):
        self.moduli, self.v = moduli, v

    def _other(self, other):
        if isinstance(other, int):
            out = np.zeros_like(self.v)
            out[:, 0] = other % self.moduli.l
            return out
        if not isinstance(other, Residues) or other.moduli is not self.moduli:
            raise TypeError("residues over different moduli")
        return other.v

    def _new(self, v) -> "Residues":
        return Residues(self.moduli, v % self.moduli.l)

    def __add__(self, other):
        return self._new(self.v + self._other(other))

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.v)

    def __sub__(self, other):
        return self._new(self.v - self._other(other))

    def __rsub__(self, other):
        return self._new(self._other(other) - self.v)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._new(self.v * (other % self.moduli.l))
        return Residues(self.moduli, self.moduli._mulmod(self.v, self._other(other)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, self.moduli.residues(FpPoly.one(self.moduli.l)))

    def is_zero(self) -> List[bool]:
        """Whether each row is zero."""
        return (~self.v.any(axis=1)).tolist()

    def poly(self, i: int) -> FpPoly:
        """Row i, mod f_i."""
        return FpPoly(self.moduli.l, self.v[i].copy())


def homogenize_mod(coeffs: Sequence[int], num: FpPoly, den: FpPoly, moduli: Moduli) -> Residues:
    """sum_k c_k num^k den^(n-k) mod every f_t of `moduli`, n = len(coeffs) - 1:
    what `exactring.homogenize` gives, reduced mod each f_t.

    Baby steps and giant steps (Paterson-Stockmeyer): with K ~ sqrt(n + 1)
    and u, d = num, den mod f_t, the baby rows u^i d^(K-1-i) (i < K) and one
    matrix product give every block G_j = sum_i c_(jK+i) u^i d^(K-1-i) but
    the top one, of r <= K coefficients, which takes its own rows
    u^i d^(r-1-i).  Then the sum is G_top U^(M-1) + d^r sum_j G_j U^j D^(M-2-j)
    over the M - 1 full blocks, U = u^K and D = d^K, by Horner's rule in U:
    about 3 K + 3 M products of stacked residues in all, where Horner's rule
    on the coefficients takes 2 n.
    """
    l = moduli.l
    k = max(1, math.isqrt(len(coeffs)))
    rows = _blocks(l, np.array([c % l for c in coeffs], dtype=np.int64), k)
    r = len(coeffs) - (len(rows) - 1) * k
    u, w = moduli.residues(num), moduli.residues(den)
    up = dp = [moduli.residues(FpPoly.one(l))]
    for _ in range(k):
        up, dp = up + [up[-1] * u], dp + [dp[-1] * w]

    def babies(s: int):
        """Rows u^i d^(s-1-i), i < s, shape (T, s, d)."""
        return np.stack([(up[i] * dp[s - 1 - i]).v for i in range(s)], axis=1)

    acc = Residues(moduli, rows[-1, :r] @ babies(r) % l)
    if len(rows) > 1:
        full = rows[:-1] @ babies(k) % l
        power_d = dp[r]
        for j in range(len(rows) - 2, -1, -1):
            acc = acc * up[k] + Residues(moduli, full[:, j]) * power_d
            if j:
                power_d = power_d * dp[k]
    return acc
