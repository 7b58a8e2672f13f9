"""The Hasse invariant of the order-7 Tate normal form over F_l: construction,
factor-type counting (N1, N2, N3, N6), and the verification routines for the
factor-type classification, the class-number count formulas, and the
supporting factorization statements about f_0, f_1728 and G(x, j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import constants as C
from .classnum import class_number, field_discriminant, kronecker
from .errors import StructuralError
from .exactring import homogenize
from .ffpoly import (
    FpPoly,
    PrimeContext,
    _ddf,
    _edf,
    count_roots_in_fp,
    distinct_roots_in_fp,
    radical as _radical,  # perfbench/traced.py times hasse7._radical and hasse7._ddf
    sqrt_mod,
)

ALL_COUNTS = frozenset({"N1", "N2", "N3", "N6"})


def _deuring_coeffs(ctx: PrimeContext) -> List[int]:
    """c_k = C(2n+s, 2k+s) C(2n-2k, n-k) (-432)^(n-k) mod l, k = 0..n."""
    if ctx.l < 5 or ctx.l == 7:
        raise ValueError("l >= 5, l != 7 required")
    l, n, s = ctx.l, ctx.n, ctx.s
    return [
        math.comb(2 * n + s, 2 * k + s)
        * math.comb(2 * n - 2 * k, n - k)
        * (-432) ** (n - k)
        % l
        for k in range(n + 1)
    ]


def deuring_J(ctx: PrimeContext) -> FpPoly:
    """J_l(t) = sum_k c_k (t-1728)^k mod l, c_k from `_deuring_coeffs`."""
    return homogenize(_deuring_coeffs(ctx), FpPoly.make(ctx.l, [-1728, 1]), 1)


def ss_poly(ctx: PrimeContext) -> FpPoly:
    """The supersingular polynomial X^r (X-1728)^s J_l(X), monic, after
    certifying it squarefree: J_l must be squarefree and prime to t (t - 1728),
    or `StructuralError` names l.

    The same certificate makes the Hasse polynomial squarefree.  For
    j_7 = num/den, num' den - num den' = 7 (x^2-x+1)^2 S^2 F1728 x^6 (x-1)^6
    with S = SEXTIC_J0 (an entry of `constants.self_check`), so for l != 2, 3, 7
    a repeated root of num - j den lies over j = 0, 1728 or infinity.  The
    j = 0 and j = 1728 blocks that `hasse_poly` multiplies in are squarefree mod
    l (their discriminants involve only 2, 3 and 7), so the whole product is
    squarefree when J_l is squarefree and prime to t (t - 1728).
    """
    l = ctx.l
    J = deuring_J(ctx)
    if J(0) * J(1728) % l == 0 or J.gcd(J.derivative()).degree > 0:
        raise StructuralError(f"J_l is not squarefree and prime to t(t - 1728) at l={l}")
    out = J
    if ctx.r:
        out = out * FpPoly.x(l)
    if ctx.s:
        out = out * FpPoly.make(l, [-1728, 1])
    return out.monic()


def supersingular_j_in_fp(ctx: PrimeContext) -> List[int]:
    """All supersingular j-invariants lying in F_l, sorted."""
    return distinct_roots_in_fp(ss_poly(ctx))


def hasse_poly(ctx: PrimeContext) -> FpPoly:
    """The Hasse invariant of E_7 mod l, with J_l(j_7(x)) cleared of denominators.

    Writing J_l(t) = sum c_k (t-1728)^k, the last factor is
    sum_k c_k (num - 1728 den)^k den^(n-k) with num = j7_num, den = x^7(x-1)^7 p(x);
    the total degree is 8r + 12s + 24 n_l.
    """
    l, n, s, r = ctx.l, ctx.n, ctx.s, ctx.r
    den = FpPoly.make(l, C.J7_DEN)
    out = homogenize(_deuring_coeffs(ctx), FpPoly.make(l, C.J7_NUM) - 1728 * den, den)
    if r:
        out = out * FpPoly.make(l, C.X2X1) * FpPoly.make(l, C.SEXTIC_J0)
    if s:
        out = out * FpPoly.make(l, C.F1728)
    if out.degree != 8 * r + 12 * s + 24 * n:
        raise StructuralError("Hasse invariant has unexpected degree")
    return out


# ---------------------------------------------------------------------------
# factor counting


@dataclass(frozen=True)
class FactorCountReport:
    l: int
    N1: Optional[int] = None
    N2: Optional[int] = None
    N3: Optional[int] = None
    N6: Optional[int] = None
    degree_histogram: Optional[Dict[int, int]] = None
    classification_ok: Optional[bool] = None
    formula_N1: Optional[Fraction] = None
    formula_N3: Optional[Fraction] = None
    formula_N6_by_case: Optional[Fraction] = None
    formula_N2_by_case: Optional[Fraction] = None
    h_minus_l: Optional[int] = None
    h_minus_7l: Optional[int] = None
    L: Optional[int] = None
    verdicts: Dict[str, str] = field(default_factory=dict)


def _b_value(l: int, a: int, b: int) -> int:
    """B(a, b) mod l for the quadratic-factor membership test."""
    return (
        a**3
        + (-5 * b + 8) * a**2
        + (-8 * b**2 + 6 * b + 5) * a
        - b**3
        - 5 * b**2
        + 8 * b
        - 1
    ) % l


def _at(p: FpPoly, h: FpPoly, f: FpPoly) -> FpPoly:
    """p(h) mod f, by Horner."""
    out = FpPoly.zero(f.modulus)
    for c in reversed(p.coeffs):
        out = (out * h + c) % f
    return out


def _shape_part(f: FpPoly, pairs, d: int) -> FpPoly:
    """The product of the irreducible degree-d factors of monic squarefree f at
    whose roots some n/m, (n, m) in `pairs`, takes a value in F_l.

    At a root b of f with m(b) != 0, (n/m)(b) lies in F_l exactly when it equals
    its l-th power (n/m)(b^l), that is when n(h) m - n m(h) vanishes at b, where
    h = x^l mod f.  The gcd of f with the product of these tests over `pairs`
    holds every such factor; its distinct-degree split picks out degree d.
    """
    l = f.modulus
    if f.degree < d:
        return FpPoly.one(l)
    h = FpPoly.x(l).powmod(l, f)
    test = FpPoly.one(l)
    for n, m in pairs:
        test = test * (_at(n, h, f) * m - n * _at(m, h, f)) % f
    parts, _ = _ddf(f.gcd(test), upto=d)
    return parts.get(d, FpPoly.one(l))


def _count_n6(f: FpPoly) -> int:
    """Count the sextic factors of f (monic squarefree) equal to some f_7(x, t0).

    f_7(x, t) = N(x) - t D(x) with N = (x^2-x+1)^3 and D = x(x-1)p(x), so an
    irreducible sextic with root b equals f_7(x, t0) exactly when (N/D)(b) = t0
    lies in F_l: both are then the minimal polynomial of b.
    """
    l = f.modulus
    n = FpPoly.make(l, C.expand_f7(0))
    return _shape_part(f, [(n, n - FpPoly.make(l, C.expand_f7(1)))], 6).degree // 6


def _count_n2(f: FpPoly, ctx: PrimeContext) -> int:
    """Count irreducible quadratics x^2+ax+b | f (monic squarefree) with
    B(a, b) = 0, for l = 1, 6 (mod 7), via the parametrization
    a = (alpha-1) b - alpha over the three roots alpha of x^3 - 8x^2 + 5x + 1
    (equivalent to B(a, b) = 0).

    x^2 + a x + b = (x^2 - alpha x) + b ((alpha-1) x + 1), so an irreducible
    quadratic with root r is in the alpha family exactly when
    (x^2 - alpha x) / ((alpha-1) x + 1) takes an F_l value at r.
    """
    l = ctx.l
    alphas = distinct_roots_in_fp(FpPoly.make(l, C.P_CUBIC))
    if len(alphas) != 3:
        raise StructuralError(f"p-cubic does not split at l={l} = {l % 7} (mod 7)")
    pairs = [(FpPoly.make(l, [0, -alpha, 1]), FpPoly.make(l, [1, alpha - 1])) for alpha in alphas]
    quads = _shape_part(f, pairs, 2)
    for g in _edf(quads, 2) if quads.degree > 0 else []:
        b, a = g.coeffs[:2]
        if _b_value(l, a, b) != 0:
            raise StructuralError("family quadratic violates B(a, b) = 0")
    return quads.degree // 2


def count_factors(
    ctx: PrimeContext,
    need: Sequence[str] = ("N1", "N2", "N3", "N6"),
    with_histogram: bool = True,
) -> FactorCountReport:
    """Factor-type counts over the Hasse invariant, and L, the number of
    supersingular j in F_l, both from the ss_l that `ss_poly` certifies; that
    certificate makes the Hasse invariant squarefree.

    N1/N3 are the distinct linear/irreducible-cubic counts; N2 counts only
    irreducible quadratics x^2+ax+b with B(a, b) = 0; N6 only sextics equal to
    f_7(x, t) for some t in F_l.

    `need` restricts the work; `with_histogram` controls whether the full
    distinct-degree walk runs (needed for the degree histogram and the
    factor-type classification).  N2 for l = 1, 6 (mod 7) and N6 come from one
    Frobenius shape test (`_shape_part`) on the degree-2 or degree-6 part of the
    full walk, or on the unsplit remainder of a partial one; with no such part
    there is nothing to test.  The test suite checks both against plain
    equal-degree splitting and against an all-points divisor test.
    """
    need = frozenset(need)
    if not need <= ALL_COUNTS:
        raise ValueError(f"unknown count selector in {sorted(need)}")
    l = ctx.l
    ss = ss_poly(ctx)
    sf = hasse_poly(ctx).monic()

    upto: Optional[int] = None
    if not with_histogram:
        upto = 0
        if "N1" in need:
            upto = max(upto, 1)
        if "N3" in need:
            upto = max(upto, 3)
        if "N2" in need and l % 7 not in (1, 6):
            upto = max(upto, 2)
    parts, rem = _ddf(sf, upto=upto)
    full_walk = rem.degree <= 0
    histogram = {d: p.degree // d for d, p in sorted(parts.items())} if full_walk else None

    def candidates(d: int) -> FpPoly:  # where the degree-d factors are
        return parts.get(d, FpPoly.one(l)) if full_walk else rem

    n1 = parts[1].degree if 1 in parts else 0
    n3 = parts[3].degree // 3 if 3 in parts else 0

    n2 = None
    if "N2" in need:
        if l % 7 in (1, 6):
            n2 = _count_n2(candidates(2), ctx)
        else:
            quads = _edf(parts[2], 2) if 2 in parts else []
            n2 = sum(_b_value(l, g.coeffs[1], g.coeffs[0]) == 0 for g in quads)

    n6 = _count_n6(candidates(6)) if "N6" in need else None

    return FactorCountReport(
        l=l,
        N1=n1 if ("N1" in need or full_walk) else None,
        N2=n2,
        N3=n3 if ("N3" in need or full_walk) else None,
        N6=n6,
        degree_histogram=histogram,
        classification_ok=_factor_type_rules(ctx, histogram, parts) if full_walk else None,
        L=count_roots_in_fp(ss),
    )


def _factor_type_rules(ctx: PrimeContext, histogram, parts) -> bool:
    """Degree histogram obeys the factor-type rules for l mod 7."""
    l7 = ctx.l % 7
    degrees = {d for d, c in histogram.items() if c}
    if l7 == 1:
        ok = degrees <= {2}
    elif l7 == 6:
        ok = degrees <= {1, 2}
    elif l7 in (2, 4):
        ok = degrees <= {2, 6}
    else:  # 3, 5
        ok = degrees <= {2, 3, 6}
    if ok and l7 in (2, 3, 4, 5) and 2 in parts:
        # the only admissible quadratic is x^2 - x + 1
        ok = parts[2].monic() == FpPoly.make(ctx.l, C.X2X1)
    return ok


# ---------------------------------------------------------------------------
# formula sides


def linear_count_formula(l: int, h: int) -> Fraction:
    if l % 4 == 1:
        return Fraction(3 * h)
    return Fraction(3 * (3 - kronecker(2, l)) * h)


def cubic_count_formula(l: int, h: int) -> Fraction:
    if l % 4 == 1:
        return Fraction(h)
    return Fraction((3 - kronecker(2, l)) * h)


def _mod8_multiplier(l: int) -> Fraction:
    if l % 8 == 1:
        return Fraction(1, 2)
    if l % 8 == 5:
        return Fraction(1)
    return Fraction(1, 4)  # l = 3 mod 4


def sextic_count_formula(l: int, h7l: int) -> Fraction:
    """Predicted count of f_7-shaped sextics, l = 2,3,4,5 mod 7."""
    k3 = kronecker(-3, l)
    if l % 7 in (2, 4):
        sub = Fraction(1 - k3, 2)
    elif l % 7 in (3, 5):
        sub = Fraction(3 - k3, 2)
    else:
        raise ValueError("the sextic count formula applies to l = 2,3,4,5 mod 7")
    return _mod8_multiplier(l) * h7l - sub


def quadratic_count_formula(l: int, h7l: int) -> Fraction:
    """Predicted count of B-quadratics, l = 1,6 mod 7."""
    k3 = kronecker(-3, l)
    if l % 7 == 1:
        sub = Fraction(1 - k3)
    elif l % 7 == 6:
        sub = Fraction(4 - k3)
    else:
        raise ValueError("the quadratic count formula applies to l = 1,6 mod 7")
    return 3 * _mod8_multiplier(l) * h7l - sub


def verify_count_formulas(ctx: PrimeContext, report: Optional[FactorCountReport] = None) -> FactorCountReport:
    """Fill in formula predictions and verdicts next to the measured counts.

    The proven linear/cubic count formulas apply for l != 2, 3, 7; the conjectured
    sextic/quadratic formulas for l > 7 in their congruence classes.  Also
    checks N1 = 6 L(l) and N3 = 2 L(l).
    """
    l = ctx.l
    if report is None:
        report = count_factors(ctx)
    verdicts: Dict[str, str] = {}
    h_l = class_number(field_discriminant(l))
    h_7l = class_number(field_discriminant(7 * l))
    Lc = report.L
    f_n1 = f_n3 = f_n6 = f_n2 = None
    l7 = l % 7

    if l7 == 6:
        f_n1 = linear_count_formula(l, h_l)
        ok = l > 3 and report.N1 == f_n1 == Fraction(6 * Lc)
        verdicts["count_formula"] = "PASS" if ok else "FAIL"
        verdicts["six_L"] = "PASS" if report.N1 == 6 * Lc else "FAIL"
    elif l7 in (3, 5):
        f_n3 = cubic_count_formula(l, h_l)
        ok = l > 3 and report.N3 == f_n3 == Fraction(2 * Lc)
        verdicts["count_formula"] = "PASS" if ok else "FAIL"
        verdicts["two_L"] = "PASS" if report.N3 == 2 * Lc else "FAIL"
    else:
        verdicts["count_formula"] = "SKIP"

    if l7 in (2, 3, 4, 5):
        if l > 7 and report.N6 is not None:
            f_n6 = sextic_count_formula(l, h_7l)
            verdicts["sextic_formula"] = "PASS" if report.N6 == f_n6 else "FAIL"
        else:
            verdicts["sextic_formula"] = "SKIP"
    if l7 in (1, 6):
        if l > 7 and report.N2 is not None:
            f_n2 = quadratic_count_formula(l, h_7l)
            verdicts["quadratic_formula"] = "PASS" if report.N2 == f_n2 else "FAIL"
        else:
            verdicts["quadratic_formula"] = "SKIP"

    if report.classification_ok is not None:
        verdicts["factor_types"] = "PASS" if report.classification_ok else "FAIL"

    return replace(
        report,
        formula_N1=f_n1,
        formula_N3=f_n3,
        formula_N6_by_case=f_n6,
        formula_N2_by_case=f_n2,
        h_minus_l=h_l,
        h_minus_7l=h_7l,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# factor counts of the fixed special polynomials and of G(x, j)


def _factor_degrees(f: FpPoly) -> List[int]:
    parts, rem = _ddf(_radical(f))
    assert rem.degree <= 0
    return [d for d, p in sorted(parts.items()) for _ in range(p.degree // d)]


def _six_linear_or_two_cubics(degs: List[int], want_linear: bool) -> bool:
    """Exactly six distinct linear factors (l = 6 mod 7), or exactly two
    irreducible cubics and no linear factor (l = 3, 5 mod 7)."""
    if want_linear:
        return degs.count(1) == 6
    return degs.count(3) == 2 and degs.count(1) == 0


def verify_special_factorizations(ctx: PrimeContext) -> Dict[str, str]:
    """Linear/cubic factor counts of f_0 and f_1728, plus the C+/C- parity split.

    f_0 (when l = 2 mod 3) and f_1728 (when l = 3 mod 4) must show exactly six
    distinct linear factors for l = 6 mod 7, and exactly two irreducible cubic
    factors for l = 3, 5 mod 7.  The f_1728 case additionally splits over
    F_l(sqrt 7) as C+ C- with one all-linear (or two-cubic) and one
    all-quadratic (or one-sextic) half.
    """
    l = ctx.l
    out: Dict[str, str] = {}
    # the linear case assumes l > 7 with l = 6 mod 7; the cubic case l > 3, l != 7
    if l <= 3 or l == 7 or l % 7 not in (3, 5, 6):
        return {"f0": "SKIP", "f1728": "SKIP", "psv_split": "SKIP"}
    want_linear = l % 7 == 6

    if l % 3 == 2:
        ok = _six_linear_or_two_cubics(_factor_degrees(FpPoly.make(l, C.F0)), want_linear)
        out["f0"] = "PASS" if ok else "FAIL"
    else:
        out["f0"] = "SKIP"

    if l % 4 == 3:
        ok = _six_linear_or_two_cubics(_factor_degrees(FpPoly.make(l, C.F1728)), want_linear)
        out["f1728"] = "PASS" if ok else "FAIL"
        s7 = sqrt_mod(7, l)
        if s7 is None:
            out["psv_split"] = "FAIL"  # sqrt(7) must exist when (-7/l) = -1, l = 3 mod 4
        else:
            xb = FpPoly.make(l, [0, 1]) * FpPoly.make(l, [-1, 1]) * FpPoly.make(l, C.B_POLY)
            a_poly = FpPoly.make(l, C.A_POLY)
            c_plus = a_poly + (2 * s7) * xb
            c_minus = a_poly - (2 * s7) * xb
            shapes = sorted(tuple(sorted(_factor_degrees(c))) for c in (c_plus, c_minus))
            if want_linear:
                ok = shapes == [(1, 1, 1, 1, 1, 1), (2, 2, 2)]
            else:
                ok = shapes == [(3, 3), (6,)]
            out["psv_split"] = "PASS" if ok else "FAIL"
    else:
        out["f1728"] = "SKIP"
        out["psv_split"] = "SKIP"
    return out


def g_of_x_j(l: int, j: int) -> FpPoly:
    """G(x, j) mod l."""
    return FpPoly.make(l, C.J77_NUM) - j * FpPoly.make(l, C.J77_DEN)


def verify_g_factor_counts(ctx: PrimeContext) -> Dict[str, object]:
    """For each supersingular j != 0, 1728 in F_l: G(x, j) has exactly six
    distinct linear factors (l = 6 mod 7) or exactly two irreducible cubic
    factors (l = 3, 5 mod 7)."""
    l = ctx.l
    if l % 7 not in (3, 5, 6):
        return {"status": "SKIP", "checked": 0}
    js = [j for j in supersingular_j_in_fp(ctx) if j not in (0, 1728 % l)]
    for j in js:
        degs = _factor_degrees(g_of_x_j(l, j))
        if not _six_linear_or_two_cubics(degs, l % 7 == 6):
            return {"status": "FAIL", "checked": len(js), "j": j, "degrees": degs}
    return {"status": "PASS" if js else "PASS-VACUOUS", "checked": len(js)}
