"""The Hasse invariant of the order-7 Tate normal form over F_l: construction,
factor-type counting (N1, N2, N3, N6) from one gcd and one distinct-degree
split, and the verdicts on the factor-type classification and the
class-number count formulas.  The factorization statements about f_0, f_1728
and G(x, j), which no sweep reports, are checked in `tests/paper_checks.py`.
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
    _ddf,  # perfbench/traced.py times hasse7._ddf
    count_roots_in_fp,
    distinct_roots_in_fp,
)

ALL_COUNTS = frozenset({"N1", "N2", "N3", "N6"})


def _deuring_coeffs(ctx: PrimeContext) -> List[int]:
    """c_k = C(2n+s, 2k+s) C(2n-2k, n-k) (-432)^(n-k) mod l, k = 0..n, from
    c_n = 1 and c_k / c_(k+1) = (2k+s+1)(2k+s+2)(-432) / (n-k)^2, where
    0 < n - k < l is a unit mod l."""
    l, n, s = ctx.l, ctx.n, ctx.s
    out = [1] * (n + 1)
    for k in range(n - 1, -1, -1):
        out[k] = out[k + 1] * (2 * k + s + 1) * (2 * k + s + 2) * -432 * pow((n - k) ** 2, -1, l) % l
    return out


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


def _b_residue(q: FpPoly, h: FpPoly) -> FpPoly:
    """B(-(x + h), x h) mod q, for q a product of distinct irreducible quadratics
    and h = x^l mod a multiple of q.  On a factor x^2 + a x + b with roots r, r^l,
    x maps to r and h to r^l, so -(x + h) and x h reduce to a and b: by the CRT
    the residue is zero exactly when B(a, b) = 0 on every factor, unsplit, and
    its gcd with q is the product of the factors with B(a, b) = 0."""
    x = FpPoly.x(q.modulus)
    h = h % q
    return C.b_form(-(x + h) % q, x * h % q) % q


def _at(p: FpPoly, table: List[FpPoly]) -> FpPoly:
    """p(h) mod f, from table[k] = h^k mod f, k <= deg p."""
    out = FpPoly.zero(p.modulus)
    for c, hk in zip(p.coeffs, table):
        out = out + c * hk
    return out


def _f7_pair(l: int):
    """f_7(x, t) = n - t m with n = (x^2-x+1)^3 and m = x(x-1)p(x): an
    irreducible sextic with root b equals f_7(x, t0) exactly when
    (n/m)(b) = t0 lies in F_l, both being the minimal polynomial of b."""
    return [(FpPoly.make(l, C.F7_N), FpPoly.make(l, C.F7_M))]


def _family_pairs(l: int):
    """The three quadratic families x^2 + a x + b with a = (alpha-1) b - alpha,
    alpha a root of x^3 - 8x^2 + 5x + 1 (equivalent to B(a, b) = 0, l = 1, 6
    mod 7).  x^2 + a x + b = (x^2 - alpha x) + b ((alpha-1) x + 1), so an
    irreducible quadratic with root r is in the alpha family exactly when
    (x^2 - alpha x) / ((alpha-1) x + 1) takes an F_l value at r."""
    alphas = distinct_roots_in_fp(FpPoly.make(l, C.P_CUBIC))
    if len(alphas) != 3:
        raise StructuralError(f"p-cubic does not split at l={l} = {l % 7} (mod 7)")
    return [(FpPoly.make(l, [0, -alpha, 1]), FpPoly.make(l, [1, alpha - 1])) for alpha in alphas]


def count_factors(
    ctx: PrimeContext,
    need: Sequence[str] = ("N1", "N2", "N3", "N6"),
    with_histogram: bool = True,
    ss: Optional[FpPoly] = None,
) -> FactorCountReport:
    """Factor-type counts over the Hasse invariant f, which the certificate
    of `ss_poly` makes squarefree (pass its `ss` if it already ran).
    N1/N3 count the distinct linear/irreducible cubic factors, N2 only the
    irreducible quadratics x^2+ax+b with B(a, b) = 0, N6 only the sextics
    f_7(x, t) with t in F_l.

    One gcd on f finds them.  With e = 2 for l = 1, 6 (mod 7) and e = 6
    otherwise (the lcm of the degrees the factor-type rules allow), and
    h_d = x^(l^d) mod f, G is the gcd of f with the product mod f of h_d - x
    over the proper divisors d of e (d = 2, 3 at e = 6 also hold d = 1) and of
    the Frobenius shape test n(h_1) m - n m(h_1) for `_f7_pair` (N6) or
    `_family_pairs` (N2), which vanishes at a root b exactly when (n/m)(b) is
    in F_l; n(h_1) and m(h_1) come from one table of h_1^k mod f.  The
    distinct-degree split of G, of small degree, gives the counts: one
    `_ddf(G, powers)` with the h_d already at hand, which needs no further
    power when the last one certifies G.  h_e = x mod f certifies that every
    factor degree divides e, so the degree-e count of the histogram is what
    the smaller degrees leave over; if that certificate fails, so does the
    classification, and the rest of f is split, by the same powers, to show
    the offending degree.  N2 is half the degree of the gcd of
    the degree-2 part with its B residue (`_b_residue`), unsplit, at both e;
    at e = 2 every family quadratic must have B(a, b) = 0, so that count must
    equal the degree-2 count.
    `with_histogram=False` takes only the tests and powers that `need` asks for.
    """
    need = frozenset(need)
    if not need <= ALL_COUNTS:
        raise ValueError(f"unknown count selector in {sorted(need)}")
    l = ctx.l
    if ss is None:
        ss_poly(ctx)
    f = hasse_poly(ctx).monic()
    one, x = FpPoly.one(l), FpPoly.x(l)

    if l % 7 in (1, 6):
        e = 2
        pairs = _family_pairs(l) if "N2" in need else []
        divisors = {1} if with_histogram or "N1" in need else set()
    else:
        e = 6
        pairs = _f7_pair(l) if "N6" in need else []
        divisors = {d for d, n in ((2, "N2"), (3, "N3")) if with_histogram or n in need} or (
            {1} if "N1" in need else set())
    powers = [x]  # powers[d] = x^(l^d) mod f
    for _ in range(e if with_histogram else max([*divisors, 1 if pairs else 0])):
        powers.append(powers[-1].powmod(l, f))

    test = one
    table = [one]  # table[k] = h_1^k mod f, up to the largest degree in pairs
    for _ in range(max((max(n.degree, m.degree) for n, m in pairs), default=0)):
        table.append(table[-1] * powers[1] % f)
    for n, m in pairs:
        test = test * ((_at(n, table) * m - n * _at(m, table)) % f) % f
    for d in divisors:
        test = test * (powers[d] - x) % f
    certified = with_histogram and powers[e] == x % f
    g = f.gcd(test)
    parts = _ddf(g, powers)

    def count(d: int) -> int:
        return parts.get(d, one).degree // d

    n2 = None
    if "N2" in need:
        q = parts.get(2)
        # h_1 mod G reuses the inverse the split prepared for G; q holds none yet
        n2 = q.gcd(_b_residue(q, powers[1] % g)).degree // 2 if q is not None else 0
        if e == 2 and n2 != count(2):
            raise StructuralError("family quadratic violates B(a, b) = 0")

    histogram = classification_ok = None
    if with_histogram:
        done = {d: g for d, g in parts.items() if d < e and e % d == 0}  # every factor of degree d
        histogram = {d: g.degree // d for d, g in done.items()}
        if certified:
            left = f.degree - sum(g.degree for g in done.values())
            if left:
                histogram[e] = left // e
            classification_ok = _factor_type_rules(ctx, histogram, done)
        else:  # some factor degree does not divide e: split the rest to show it
            rest = f // math.prod(done.values(), start=one)
            histogram.update((d, g.degree // d) for d, g in _ddf(rest, powers).items())
            classification_ok = False
        histogram = dict(sorted(histogram.items()))

    return FactorCountReport(
        l=l,
        N1=count(1) if ("N1" in need or with_histogram) else None,
        N2=n2,
        N3=count(3) if ("N3" in need or with_histogram) else None,
        N6=count(6) if "N6" in need else None,
        degree_histogram=histogram,
        classification_ok=classification_ok,
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


def verify_count_formulas(ctx: PrimeContext, report: FactorCountReport, ss: FpPoly) -> FactorCountReport:
    """Fill in L, the number of supersingular j in F_l counted on `ss` (the
    ss_l that `ss_poly` certified for `report`), h(-l), h(-7l), and the formula
    predictions and verdicts next to the measured counts.

    The proven linear/cubic count formulas apply at every l a `PrimeContext`
    admits; the conjectured sextic/quadratic formulas for l > 7 in their
    congruence classes.  Also checks N1 = 6 L(l) and N3 = 2 L(l).
    """
    l = ctx.l
    verdicts: Dict[str, str] = {}
    h_l = class_number(field_discriminant(l))
    h_7l = class_number(field_discriminant(7 * l))
    L = count_roots_in_fp(ss)
    f_n1 = f_n3 = f_n6 = f_n2 = None
    l7 = l % 7

    if l7 == 6:
        f_n1 = linear_count_formula(l, h_l)
        ok = report.N1 == f_n1 == Fraction(6 * L)
        verdicts["count_formula"] = "PASS" if ok else "FAIL"
        verdicts["six_L"] = "PASS" if report.N1 == 6 * L else "FAIL"
    elif l7 in (3, 5):
        f_n3 = cubic_count_formula(l, h_l)
        ok = report.N3 == f_n3 == Fraction(2 * L)
        verdicts["count_formula"] = "PASS" if ok else "FAIL"
        verdicts["two_L"] = "PASS" if report.N3 == 2 * L else "FAIL"
    else:
        verdicts["count_formula"] = "SKIP"

    if l7 in (2, 3, 4, 5):
        if l > 7 and report.N6 is not None:
            f_n6 = sextic_count_formula(l, h_7l)
            verdicts["sextic_formula"] = "PASS" if report.N6 == f_n6 else "FAIL"
        else:
            verdicts["sextic_formula"] = "SKIP"
    if l7 in (1, 6):
        if report.N2 is not None:  # no admitted l < 7 is 1, 6 (mod 7)
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
        L=L,
        verdicts=verdicts,
    )
