"""Arbitrary-precision complex evaluation of h at CM points w/7, validating the
minimal-polynomial table P_d numerically and the reference factorizations mod l.

All numeric comparisons are against explicitly propagated error bounds, never a
bare epsilon: eval_h returns a certified absolute error alongside the value.

mpmath is imported inside the functions that evaluate, so importing this
module (or the package) does not load it; only `cm` does, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from . import constants as C
from .classnum import class_number
from .ffpoly import FpPoly, factorize, is_prime

MIN_BITS = 128  # the least working precision eval_h_tau accepts


@dataclass(frozen=True)
class CMPoint:
    """w = (v + sqrt(-d))/2 with 49 | N(w); the evaluation point is tau = w/7."""

    d: int
    v: int

    def __post_init__(self):
        if self.d <= 0 or (-self.d) % 4 not in (0, 1):
            raise ValueError(f"-{self.d} is not a discriminant")
        if (self.v - self.d) % 2:
            raise ValueError("v = d (mod 2) required for an algebraic integer")
        if (self.v * self.v + self.d) % 196:
            raise ValueError("N(w) = (v^2+d)/4 = 0 (mod 49) required")

    @property
    def norm(self) -> int:
        return (self.v * self.v + self.d) // 4


def select_w(d: int) -> CMPoint:
    """Smallest |v| > 0 with v = d (mod 2) and v^2 = -d (mod 196)."""
    if d <= 0 or (-d) % 4 not in (0, 1):
        raise ValueError(f"-{d} is not a discriminant")
    for v in range(1, 4 * 196 + 1):
        if (v - d) % 2:
            continue
        if (v * v + d) % 196:
            continue
        return CMPoint(d=d, v=v)
    raise ValueError(f"no admissible v below the search bound for d={d}")


@dataclass(frozen=True)
class CertifiedValue:
    value: object  # mpmath mpc
    abs_err: object  # mpmath mpf


def eval_h(point: CMPoint, bits: int = 300) -> CertifiedValue:
    """h(w/7) via the defining product, truncated with a certified tail bound."""
    import mpmath as mp

    with mp.workprec(bits + 96):
        tau = mp.mpc(point.v, mp.sqrt(point.d)) / 14
    return eval_h_tau(tau, bits)


def eval_h_tau(tau, bits: int = 300) -> CertifiedValue:
    """h(tau) for any tau in the upper half-plane with |q| bounded away from 1."""
    import mpmath as mp

    if bits < MIN_BITS:
        raise ValueError(f"bits >= {MIN_BITS} required")
    guard = 96
    with mp.workprec(bits + guard):
        tau = mp.mpc(tau)
        q = mp.exp(2j * mp.pi * tau)
        absq = abs(q)
        if absq > mp.mpf("0.75"):
            raise ValueError("Im(tau) too small: |q| too close to 1")
        # choose M with the geometric tail below 2^-(bits+guard-8)
        weight = sum(abs(e) for _, e in C.H_EXPONENTS)  # per period of 7
        target = mp.mpf(2) ** (-(bits + guard - 8))
        M = 1
        while weight * 2 * absq ** (M + 1) / (1 - absq) > target:
            M += 1
        val = 1 / q
        n = 1
        while True:
            done = True
            for res, e in C.H_EXPONENTS:
                k = 7 * n - res
                if k <= M:
                    done = False
                    val *= (1 - q**k) ** e
            if done:
                break
            n += 1
        # |log tail| <= weight * sum_{k>M} 2|q|^k; |h| * (e^t - 1) <= 2 |h| t for small t
        tail = weight * 2 * absq ** (M + 1) / (1 - absq)
        err = abs(val) * tail * 2 + abs(val) * mp.mpf(2) ** (-(bits + guard // 2))
        return CertifiedValue(value=val, abs_err=err)


def _poly_abs_eval(coeffs: Sequence[int], x) -> object:
    import mpmath as mp

    out = mp.mpf(0)
    ax = abs(x)
    for c in reversed(list(coeffs)):
        out = out * ax + abs(c)
    return out


def eval_int_poly(coeffs: Sequence[int], z: CertifiedValue) -> CertifiedValue:
    """P(z) with first-order error propagation |P'(z)| err + rounding slack."""
    import mpmath as mp

    val = mp.mpc(0)
    for c in reversed(list(coeffs)):
        val = val * z.value + c
    deriv_coeffs = [i * coeffs[i] for i in range(1, len(coeffs))]
    deriv_bound = _poly_abs_eval(deriv_coeffs, z.value) if deriv_coeffs else mp.mpf(0)
    slack = _poly_abs_eval(coeffs, z.value) * mp.mpf(2) ** (-mp.mp.prec + 8)
    return CertifiedValue(value=val, abs_err=deriv_bound * z.abs_err + slack)


def phi_of_h(h: CertifiedValue) -> CertifiedValue:
    """j_7^*(tau) = (h^2-h+1)^3 / (h (h-1) (h^3-8h^2+5h+1)) with error propagation."""
    import mpmath as mp

    num = eval_int_poly(C.F7_N, h)
    den = eval_int_poly(C.F7_M, h)
    val = num.value / den.value
    ad = abs(den.value)
    err = (num.abs_err + abs(val) * den.abs_err) / (ad - den.abs_err)
    return CertifiedValue(value=val, abs_err=err)


@dataclass(frozen=True)
class CMVerdict:
    d: int
    v: int
    residual: float
    ok: bool


def _root_verdict(point: CMPoint, coeffs: Sequence[int], bits: int, of_h=lambda h: h) -> CMVerdict:
    """|P(of_h(h(w/7)))| below both 2^(-bits/2) and the certified error
    envelope, for P = `coeffs` and w the `point`."""
    import mpmath as mp

    with mp.workprec(bits + 96):
        val = eval_int_poly(coeffs, of_h(eval_h(point, bits)))
        tol = float(mp.mpf(2) ** (-bits / 2))
        resid = float(abs(val.value))
        ok = resid < tol and resid <= float(val.abs_err) + tol
    return CMVerdict(d=point.d, v=point.v, residual=resid, ok=ok)


def verify_pd_root(d: int, bits: int = 300) -> CMVerdict:
    """P_d(h(w/7)) vanishes, within `_root_verdict`'s bounds, at the point
    `select_w(d)`."""
    if d not in C.PD_TABLE:
        raise KeyError(f"no P_d stored for d={d}")
    return _root_verdict(select_w(d), C.PD_TABLE[d], bits)


def verify_psi7_root(bits: int = 300) -> CMVerdict:
    """Phi(h(w/7)) is a root of Psi_7 at the reference point w = 29 + sqrt(-41)."""
    return _root_verdict(CMPoint(*C.PSI7_CM_POINT), C.PSI7, bits, phi_of_h)


# ---------------------------------------------------------------------------
# reference factorizations (exact, no floating point)


def verify_pd_factorization(d: int, l: int) -> Dict[str, object]:
    """P_d mod l matches both the reference factorization and the square pattern:
    squares of 3h distinct linears (l = 6 mod 7) or of h distinct cubics of
    shape x^3 + a x^2 - (a+3) x + 1 (l = 3, 5 mod 7), h = h(-d)."""
    if (d, l) not in C.PD_FACTORIZATION_REF:
        raise KeyError(f"no reference factorization stored for (d, l) = ({d}, {l})")
    if not is_prime(l):
        raise ValueError(f"{l} is not prime")
    fac = factorize(FpPoly.make(l, C.PD_TABLE[d]))
    got = sorted((f.coeffs, m) for f, m in fac.factors)
    want = sorted(
        (tuple(c % l for c in coeffs), m) for coeffs, m in C.PD_FACTORIZATION_REF[(d, l)]
    )
    reference_ok = got == want and fac.unit == 1
    h = class_number(-d)
    if l % 7 == 6:
        pattern_ok = (
            len(fac.factors) == 3 * h
            and all(m == 2 and f.degree == 1 for f, m in fac.factors)
        )
    elif l % 7 in (3, 5):
        pattern_ok = len(fac.factors) == h and all(
            m == 2 and f.degree == 3 and f == FpPoly.make(l, C.g_cubic(f.coeffs[2]))
            for f, m in fac.factors
        )
    else:
        pattern_ok = False
    return {
        "reference_ok": reference_ok,
        "pattern_ok": pattern_ok,
        "class_number": h,
        "factors": fac,
    }


def verify_psi7_factorization() -> bool:
    """Psi_7 mod 41 = (x+1)(x+14)(x+8)^2(x+29)^2(x+31)^2."""
    fac = factorize(FpPoly.make(41, C.PSI7))
    got = sorted((f.coeffs, m) for f, m in fac.factors)
    want = sorted((tuple(c % 41 for c in coeffs), m) for coeffs, m in C.PSI7_MOD41_REF)
    return got == want and fac.unit == 1
