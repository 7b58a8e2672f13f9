"""Truncated Laurent series with exact integer coefficients, in q or in
u = q^(1/7), plus the eta-quotient / Klein-curve series and the registry of
q-expansion identities they satisfy.

A series knows its least exponent (offset, in units of the scale variable),
its coefficient window, and nothing beyond it: arithmetic propagates the
valid window, so an identity passing "through prec" is a verified congruence
of that many coefficients.  `verify_series_identity` runs one case of
`REGISTRY` by id; the `qseries` command of the CLI runs them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import constants as C
from .errors import StructuralError
from .exactring import power

DEFAULT_PREC = 200
MIN_PREC = 10  # the least precision verify_series_identity accepts


@dataclass(frozen=True)
class LaurentSeries:
    """scale = 1: exponents count powers of q; scale = 7: powers of u = q^(1/7)."""

    scale: int
    offset: int
    coeffs: Tuple[int, ...]

    def __post_init__(self):
        if self.scale not in (1, 7):
            raise ValueError("scale must be 1 or 7")

    @property
    def prec(self) -> int:
        """Number of valid coefficient slots starting at `offset`."""
        return len(self.coeffs)

    @property
    def end(self) -> int:
        """First exponent beyond the known window."""
        return self.offset + len(self.coeffs)

    # -- normalization helpers

    def _strip(self) -> "LaurentSeries":
        """Drop leading zero coefficients (they are exact zeros)."""
        c = list(self.coeffs)
        off = self.offset
        while c and c[0] == 0:
            c.pop(0)
            off += 1
        return LaurentSeries(self.scale, off if c else self.end, tuple(c))

    def _common(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if other.scale != self.scale:
            raise ValueError("scale mismatch; convert explicitly")
        return other

    # -- ring operations

    def __add__(self, other):
        if isinstance(other, int):
            # an exact integer constant does not narrow the window
            return self._add_exact_const(other)
        other = self._common(other)
        off = min(self.offset, other.offset)
        end = min(self.end, other.end)
        if end <= off:
            raise ValueError("empty window in addition")
        out = [0] * (end - off)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                e = s.offset + i
                if e < end:
                    out[e - off] += c
        return LaurentSeries(self.scale, off, tuple(out))

    def _add_exact_const(self, c: int) -> "LaurentSeries":
        if self.offset > 0:
            # exponents below the offset are exact zeros: widen the window
            return LaurentSeries(
                self.scale, 0, (c,) + (0,) * (self.offset - 1) + self.coeffs
            )
        out = list(self.coeffs)
        out[-self.offset] += c
        return LaurentSeries(self.scale, self.offset, tuple(out))

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.scale, self.offset, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            return self._add_exact_const(-other)
        return self + (-self._common(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentSeries(
                self.scale, self.offset, tuple(c * other for c in self.coeffs)
            )
        other = self._common(other)
        a, b = self._strip(), other._strip()
        if a.prec == 0 or b.prec == 0:
            # an exactly-zero factor: the product is zero over the combined window
            n = min(self.prec, other.prec)
            if n <= 0:
                raise ValueError("empty window in multiplication")
            return LaurentSeries(self.scale, self.offset + other.offset, (0,) * n)
        n = min(a.prec, b.prec)
        out = [0] * n
        for i, x in enumerate(a.coeffs[:n]):
            if x:
                top = n - i
                for j, y in enumerate(b.coeffs[:top]):
                    if y:
                        out[i + j] += x * y
        return LaurentSeries(self.scale, a.offset + b.offset, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, constant(1, self.scale, window=self.prec + abs(self.offset) * 8 + 8))

    def inverse(self) -> "LaurentSeries":
        s = self._strip()
        if not s.coeffs:
            raise ZeroDivisionError("inverse of zero series")
        lead = s.coeffs[0]
        if lead not in (1, -1):
            raise StructuralError("series inverse requires a unit (+-1) leading term")
        n = s.prec
        inv = [0] * n
        inv[0] = lead
        for k in range(1, n):
            acc = 0
            for i in range(1, k + 1):
                if i < n and s.coeffs[i]:
                    acc += s.coeffs[i] * inv[k - i]
            inv[k] = -lead * acc
        return LaurentSeries(s.scale, -s.offset, tuple(inv))

    def __truediv__(self, other):
        other = self._common(other)
        return self * other.inverse()

    # -- scale conversions

    def to_scale7(self) -> "LaurentSeries":
        if self.scale == 7:
            return self
        out = [0] * (7 * (self.prec - 1) + 1 if self.coeffs else 0)
        for i, c in enumerate(self.coeffs):
            out[7 * i] = c
        return LaurentSeries(7, 7 * self.offset, tuple(out))

    def to_scale1(self) -> "LaurentSeries":
        if self.scale == 1:
            return self
        s = self._strip()
        if s.offset % 7:
            raise StructuralError("leading exponent not a multiple of 7")
        for i, c in enumerate(s.coeffs):
            if c and (s.offset + i) % 7:
                raise StructuralError(
                    f"exponent {s.offset + i} not a multiple of 7 in down-conversion"
                )
        n = (s.prec + 6) // 7
        out = [0] * n
        for i in range(0, s.prec, 7):
            out[i // 7] = s.coeffs[i]
        # the last q-slot is only valid if all 7 u-slots under it were seen
        full = s.prec // 7
        return LaurentSeries(1, s.offset // 7, tuple(out[:full] if full else out[:1]))

    # -- inspection

    def coefficient(self, exponent: int) -> int:
        """Coefficient of (scale variable)^exponent; must lie inside the window."""
        if not (self.offset <= exponent < self.end):
            raise IndexError(f"exponent {exponent} outside window [{self.offset}, {self.end})")
        return self.coeffs[exponent - self.offset]

    def first_nonzero_exponent(self) -> Optional[int]:
        for i, c in enumerate(self.coeffs):
            if c:
                return self.offset + i
        return None


def constant(c: int, scale: int = 1, window: int = 64) -> LaurentSeries:
    return LaurentSeries(scale, 0, tuple([c] + [0] * (window - 1)))


def from_polynomial(coeffs: Sequence[int], series: LaurentSeries) -> LaurentSeries:
    """Evaluate an integer polynomial on a series (Horner)."""
    coeffs = list(coeffs)
    if not coeffs:
        return constant(0, series.scale, window=series.prec)
    out = constant(coeffs[-1], series.scale, window=series.prec + 8)
    for c in reversed(coeffs[:-1]):
        out = out * series
        out = out + c
    return out


# ---------------------------------------------------------------------------
# eta-type products


def _product_block(residues: Sequence[Tuple[int, int]], prec: int) -> List[int]:
    """prod_{n>=1} prod_(res,e) (1 - q^(7n-res))^e, truncated after q^(prec-1)."""
    e = dict(residues)
    return _geometric_product(lambda n: e.get(-n % 7, 0), prec)


def _geometric_product(exponent_of_n: Callable[[int], int], prec: int) -> List[int]:
    """prod_{n>=1} (1 - q^n)^(e(n)) truncated after q^(prec-1)."""
    coeff = [0] * prec
    coeff[0] = 1
    for n in range(1, prec):
        e = exponent_of_n(n)
        if e > 0:
            for _ in range(e):
                for i in range(prec - 1, n - 1, -1):
                    coeff[i] -= coeff[i - n]
        elif e < 0:
            for _ in range(-e):
                for i in range(n, prec):
                    coeff[i] += coeff[i - n]
    return coeff


def eta_quotient4(prec: int = DEFAULT_PREC) -> LaurentSeries:
    """(eta(tau)/eta(7 tau))^4 = q^-1 prod (1-q^n)^4 / (1-q^(7n))^4."""
    if prec < 1:
        raise ValueError("prec >= 1")
    # the n = 7m factors of the numerator cancel against the eta(7 tau) block
    c = _geometric_product(lambda n: 0 if n % 7 == 0 else 4, prec)
    return LaurentSeries(1, -1, tuple(c))


def h_series(prec: int = DEFAULT_PREC) -> LaurentSeries:
    """h = q^-1 prod (1-q^(7n-3))(1-q^(7n-4))(1-q^(7n-2))^2(1-q^(7n-5))^2
    / ((1-q^(7n-1))^3 (1-q^(7n-6))^3)."""
    c = _product_block(C.H_EXPONENTS, prec)
    return LaurentSeries(1, -1, tuple(c))


def hm1_series(prec: int = DEFAULT_PREC) -> LaurentSeries:
    """h - 1 = q^-1 prod (1-q^(7n-3))^3 (1-q^(7n-4))^3
    / ((1-q^(7n-1))^2 (1-q^(7n-6))^2 (1-q^(7n-2)) (1-q^(7n-5)))."""
    c = _product_block([(3, 3), (4, 3), (1, -2), (6, -2), (2, -1), (5, -1)], prec)
    return LaurentSeries(1, -1, tuple(c))


def hA_series(prec: int = DEFAULT_PREC) -> LaurentSeries:
    """h((2 tau - 1)/(7 tau - 3)) = prod (1-q^(7n-1))(1-q^(7n-6))(1-q^(7n-3))^2
    (1-q^(7n-4))^2 / ((1-q^(7n-2))^3 (1-q^(7n-5))^3); equals (h-1)/h."""
    c = _product_block([(1, 1), (6, 1), (3, 2), (4, 2), (2, -3), (5, -3)], prec)
    return LaurentSeries(1, 0, tuple(c))


def s_series(prec: int = DEFAULT_PREC) -> LaurentSeries:
    """s = q^(-3/7) prod (1-q^(7n-3))(1-q^(7n-4)) / ((1-q^(7n-1))(1-q^(7n-6)));
    returned at scale 7 (a series in u = q^(1/7))."""
    c = _product_block([(3, 1), (4, 1), (1, -1), (6, -1)], prec)
    up = LaurentSeries(1, 0, tuple(c)).to_scale7()
    return LaurentSeries(7, up.offset - 3, up.coeffs)


def t_series(prec: int = DEFAULT_PREC) -> LaurentSeries:
    """t = q^(-2/7) prod (1-q^(7n-2))(1-q^(7n-5)) / ((1-q^(7n-1))(1-q^(7n-6)))."""
    c = _product_block([(2, 1), (5, 1), (1, -1), (6, -1)], prec)
    up = LaurentSeries(1, 0, tuple(c)).to_scale7()
    return LaurentSeries(7, up.offset - 2, up.coeffs)


def j7star_series(prec: int = DEFAULT_PREC) -> LaurentSeries:
    """j_7^* = (eta/eta_7)^4 + 13 + 49 (eta_7/eta)^4."""
    e = eta_quotient4(prec + 2)
    return e + 13 + 49 * e.inverse()


def classical_j_series(prec: int) -> LaurentSeries:
    """j = E_4^3 / Delta with E_4 = 1 + 240 sum sigma_3(n) q^n, Delta = q prod (1-q^n)^24.

    Built independently of the level-7 machinery (the anti-circularity oracle).
    """
    n = prec + 2
    sigma3 = [0] * n
    for d in range(1, n):
        cube = d * d * d
        for m in range(d, n, d):
            sigma3[m] += cube
    e4 = LaurentSeries(1, 0, tuple([1] + [240 * sigma3[k] for k in range(1, n)]))
    delta_tail = _geometric_product(lambda _: 24, n)
    delta = LaurentSeries(1, 1, tuple(delta_tail))
    return (e4**3) / delta


# ---------------------------------------------------------------------------
# identity registry


@dataclass(frozen=True)
class SeriesIdentityResult:
    id: str
    ok: bool
    checked_terms: int
    first_failing_exponent: Optional[int] = None
    detail: str = ""


def _residual_result(case_id: str, residual: LaurentSeries) -> SeriesIdentityResult:
    bad = residual.first_nonzero_exponent()
    return SeriesIdentityResult(
        id=case_id,
        ok=bad is None,
        checked_terms=residual.prec,
        first_failing_exponent=bad,
        detail="" if bad is None else f"coefficient {residual.coefficient(bad)} at exponent {bad}",
    )


def _check_reference(case_id: str, series: LaurentSeries, reference) -> SeriesIdentityResult:
    lead, coeffs = reference
    for i, want in enumerate(coeffs):
        got = series.coefficient(lead + i)
        if got != want:
            return SeriesIdentityResult(
                id=case_id, ok=False, checked_terms=len(coeffs),
                first_failing_exponent=lead + i,
                detail=f"reference mismatch at exponent {lead + i}: {got} != {want}",
            )
    return SeriesIdentityResult(id=case_id, ok=True, checked_terms=len(coeffs))


def _case_eta_h(prec: int) -> SeriesIdentityResult:
    m = prec + 8
    e, h = eta_quotient4(m), h_series(m)
    lhs = e * h * (h - 1)
    rhs = from_polynomial(C.P_CUBIC, h)
    return _residual_result("ETA_H", lhs - rhs)


def _case_klein(prec: int) -> SeriesIdentityResult:
    m = prec + 8
    s = s_series(m)
    s7 = (s**7).to_scale1()
    h = h_series(m)
    return _residual_result("KLEIN", s7 - h * (h - 1) ** 2)


def _case_st2h(prec: int) -> SeriesIdentityResult:
    m = prec + 8
    st2 = (s_series(m) * t_series(m) ** 2).to_scale1()
    return _residual_result("ST2H", st2 - h_series(m))


def _case_hm1(prec: int) -> SeriesIdentityResult:
    m = prec + 8
    return _residual_result("HM1_PROD", hm1_series(m) - (h_series(m) - 1))


def _case_ha_ratio(prec: int) -> SeriesIdentityResult:
    m = prec + 8
    h = h_series(m)
    return _residual_result("H_A_RATIO", hA_series(m) - (h - 1) / h)


def _case_z_def(prec: int) -> SeriesIdentityResult:
    m = prec + 8
    h = h_series(m)
    lhs = from_polynomial(C.g_cubic(0), h) / (h * (h - 1))
    return _residual_result("Z_DEF", lhs - (eta_quotient4(m) + 8))


def _case_j7star(prec: int) -> SeriesIdentityResult:
    j7 = j7star_series(max(prec, 8))
    return _check_reference("J7STAR", j7, C.REF_J7STAR)


def _case_f7_vanish(prec: int) -> SeriesIdentityResult:
    m = prec + 10
    h = h_series(m)
    t = j7star_series(m)
    lhs = from_polynomial(C.F7_N, h) - t * from_polynomial(C.F7_M, h)
    return _residual_result("F7_VANISH", lhs)


def _case_j_7tau(prec: int) -> SeriesIdentityResult:
    depth = min(prec, 50)  # j-series terms compared; h is needed to ~7x this depth
    m = 7 * depth + 30
    h = h_series(m)
    lhs = from_polynomial(C.J7_NUM, h) / from_polynomial(C.J7_DEN, h)
    # j(7 tau) is j with q -> q^7: the scale-7 spread of j, read as a q-series
    j7 = classical_j_series(depth + 2).to_scale7()
    rhs = LaurentSeries(1, j7.offset, j7.coeffs)
    return _residual_result("J_7TAU", lhs - rhs)


def _case_j_tau(prec: int) -> SeriesIdentityResult:
    depth = min(prec, 50)
    m = depth + 30
    h = h_series(m)
    lhs = from_polynomial(C.J77_NUM, h) / from_polynomial(C.J77_DEN, h)
    return _residual_result("J_TAU", lhs - classical_j_series(depth + 2))


REGISTRY: Dict[str, Callable[[int], SeriesIdentityResult]] = {
    "ETA_H": _case_eta_h,
    "KLEIN": _case_klein,
    "ST2H": _case_st2h,
    "HM1_PROD": _case_hm1,
    "H_A_RATIO": _case_ha_ratio,
    "Z_DEF": _case_z_def,
    "J7STAR": _case_j7star,
    "F7_VANISH": _case_f7_vanish,
    "J_7TAU": _case_j_7tau,
    "J_TAU": _case_j_tau,
}


def verify_series_identity(case_id: str, prec: int = DEFAULT_PREC) -> SeriesIdentityResult:
    if case_id not in REGISTRY:
        raise KeyError(f"unknown series identity {case_id!r}")
    if prec < MIN_PREC:
        raise ValueError(f"prec >= {MIN_PREC} required")
    return REGISTRY[case_id](prec)
