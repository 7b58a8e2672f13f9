"""Independent test oracles, kept out of the production code paths."""

import math

import numpy as np

from fricke7 import constants as C
from fricke7.classnum import kronecker
from fricke7.ffpoly import PrimeContext, _ddf, _edf, radical
from fricke7.hasse7 import _b_value, hasse_poly


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


def edf_counts(ctx: PrimeContext):
    """(N1, N2, N3, N6) of the Hasse invariant by plain equal-degree splitting
    of the degree-2 and degree-6 parts of its distinct-degree split; the
    production counts take N2 (l = 1, 6 mod 7) and N6 from `divisor_points`."""
    l = ctx.l
    parts, _ = _ddf(radical(hasse_poly(ctx)))

    def factors(d):
        return [g.monic().coeffs for g in _edf(parts[d], d)] if d in parts else []

    n1 = parts[1].degree if 1 in parts else 0
    n3 = parts[3].degree // 3 if 3 in parts else 0
    n2 = sum(_b_value(l, g[1], g[0]) == 0 for g in factors(2))
    n6 = sum(g == tuple(c % l for c in C.expand_f7((-g[5] - 3) % l)) for g in factors(6))
    return n1, n2, n3, n6
