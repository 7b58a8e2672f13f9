"""The Hasse invariant of the order-7 Tate normal form over F_l: construction,
factor-type counting (N1, N2, N3, N6) fibre by fibre over the F_l-rational
t = n/m, with one batched Frobenius over the sextics f_7(x, t), the degree
histogram and the factor-type classification from one Frobenius power on
the Hasse polynomial and those counts, and the verdicts on the
classification and the class-number count formulas.  The factorization
statements about f_0, f_1728 and G(x, j), which no sweep reports, are
checked in `tests/paper_checks.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import constants as C
from .classnum import class_number, field_discriminant, kronecker
from .errors import StructuralError
from .exactring import homogenize
from .ffpoly import (
    FpPoly,
    Moduli,
    PrimeContext,
    _ddf,  # perfbench/traced.py times hasse7._ddf
    count_roots_in_fp,
    homogenize_mod,
    resultant_roots_in_fp,
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


def _hasse_pieces(ctx: PrimeContext):
    """(c, u, den, extra) with the Hasse polynomial = extra times
    sum_k c_k u^k den^(n-k): c from `_deuring_coeffs`, u = num - 1728 den for
    j_7 = num/den, and extra the j = 0 block (x^2-x+1) S (r = 1) times the
    j = 1728 block F1728 (s = 1)."""
    l = ctx.l
    den = FpPoly.make(l, C.J7_DEN)
    extra = FpPoly.one(l)
    if ctx.r:
        extra = extra * FpPoly.make(l, C.X2X1) * FpPoly.make(l, C.SEXTIC_J0)
    if ctx.s:
        extra = extra * FpPoly.make(l, C.F1728)
    return _deuring_coeffs(ctx), FpPoly.make(l, C.J7_NUM) - 1728 * den, den, extra


def hasse_poly(ctx: PrimeContext) -> FpPoly:
    """The Hasse invariant of E_7 mod l, with J_l(j_7(x)) cleared of denominators.

    Writing J_l(t) = sum c_k (t-1728)^k, the last factor is
    sum_k c_k (num - 1728 den)^k den^(n-k) with num = j7_num, den = x^7(x-1)^7 p(x);
    the total degree is 8r + 12s + 24 n_l.
    """
    c, u, den, extra = _hasse_pieces(ctx)
    out = homogenize(c, u, den) * extra
    if out.degree != 8 * ctx.r + 12 * ctx.s + 24 * ctx.n:
        raise StructuralError("Hasse invariant has unexpected degree")
    return out


def _fibres(ctx: PrimeContext, ss: FpPoly, with_n2: bool) -> Dict[int, Tuple[Dict[int, int], Optional[int]]]:
    """The factors of the Hasse polynomial H over the F_l-roots t of
    ss^(7*), fibre by fibre: {t: (counts, n2)} for each such t over which H
    has a factor, with counts = {d: number of irreducible factors of degree
    d} of the piece gcd(f_7(x, t), H) and, with `with_n2`, n2 the number of
    its quadratic factors x^2 + a x + b with B(a, b) = 0 (else None).

    T is the set of t in F_l where Res_X(ss_l, X^2 - A(t) X + B(t)) = 0, A
    and B from R_7 (`resultant_roots_in_fp`).  That resultant is the product
    of R_7(j, t) over the supersingular j, so T is the set of F_l-roots of
    ss^(7*) by its definition, read off ss_l and not off ss^(7*).  A root b
    of H with t(b) = (n/m)(b) in F_l lies over T: with A-hat = m^7 A(n/m)
    and B-hat = m^8 B(n/m), num^2 m^8 - num den m A-hat + den^2 B-hat = 0
    for j_7 = num/den, so R_7(j_7(b), t(b)) = 0 with j_7(b) supersingular,
    and the resultant vanishes at t(b).  The fibres f_7(x, t) = n - t m over
    distinct t are coprime, n and m being coprime, so the pieces are
    disjoint.

    The fibres are one `Moduli` stack of monic sextics, and H mod each is
    the Deuring sum reduced mod the stack (`homogenize_mod`): H itself is
    never built.  A zero residue certifies that f_7(x, t) divides H, so it
    is squarefree by the certificate of `ss_poly`, and its counts are read
    off x^l mod f_7(x, t) and the traces of its Frobenius matrix
    (`Moduli.factor_counts`, whose own certificate must then hold).  Any
    other piece is gcd(f_7(x, t), residue), split by `_ddf`; it is 1 where H
    has no factor over t, and such t are few (below 1000, only 0, -1 and 27,
    over which f_7 is not squarefree).

    B: on a quadratic factor with roots r, r^l, -(x + h) and x h with
    h = x^l take the values a and b at r, so B(-(x + h), x h) vanishes there
    exactly when B(a, b) = 0.  On a full piece (h - x) B(-(x + h), x h) also
    vanishes on the linear factors, so where it is zero every quadratic
    factor has B(a, b) = 0.  Elsewhere, if there are quadratic factors, the
    split gives their product q and n2 is half the degree of
    gcd(q, B(-(x + h), x h) mod q).
    """
    l = ctx.l
    T = resultant_roots_in_fp(ss, -FpPoly.make(l, C.R7_A), FpPoly.make(l, C.R7_B))
    fibres = Moduli.pencil(l, C.F7_N, C.F7_M, T)
    c, u, den, extra = _hasse_pieces(ctx)
    residue = homogenize_mod(c, u, den, fibres) * fibres.residues(extra)
    x = fibres.residues(FpPoly.x(l))
    h = x ** l
    counts = fibres.factor_counts(h)
    on_b = None
    if with_n2 and any(a and 2 in a for a in counts):
        on_b = ((h - x) * C.b_form(-(x + h), x * h)).is_zero()
    out = {}
    for i, (t, full) in enumerate(zip(T, residue.is_zero())):
        a = counts[i]
        if full and a is None:
            raise StructuralError(f"f_7(x, {t}) divides the Hasse polynomial but is not squarefree at l={l}")
        if full and not (with_n2 and 2 in a and not on_b[i]):
            out[t] = (a, a.get(2, 0) if with_n2 else None)
            continue
        piece = fibres.poly(i) if full else fibres.poly(i).gcd(residue.poly(i))
        if piece.degree > 0:
            parts = _ddf(piece)
            q, n2 = parts.get(2), (0 if with_n2 else None)
            if with_n2 and q is not None:  # q divides f_7(x, t), so h reduces to x^l mod q
                xq, hq = FpPoly.x(l), h.poly(i) % q
                n2 = q.gcd(C.b_form(-(xq + hq) % q, xq * hq % q) % q).degree // 2
            out[t] = ({d: g.degree // d for d, g in parts.items()}, n2)
    return out


# ---------------------------------------------------------------------------
# factor counting


@dataclass(frozen=True)
class FactorCountReport:
    """The counts `count_factors` takes; a count it was not asked for is None."""

    N1: Optional[int] = None
    N2: Optional[int] = None
    N3: Optional[int] = None
    N6: Optional[int] = None
    # no row shows it and only tests read it; it stays because the tests
    # compare whole reports, histogram included, with `oracles.hasse_report`
    degree_histogram: Optional[Dict[int, int]] = None
    classification_ok: Optional[bool] = None


# the factor degrees of the Hasse polynomial the classification allows, by
# l mod 7; the only quadratic allowed at l = 2..5 is x^2 - x + 1
_ALLOWED_DEGREES = {1: (2,), 2: (2, 6), 3: (2, 3, 6), 4: (2, 6), 5: (2, 3, 6), 6: (1, 2)}


def _count_on_hasse(ctx: PrimeContext, n1: int, n3: int) -> Dict[str, object]:
    """The degree histogram and the classification verdict of the Hasse
    polynomial H, from N1 and N3 (counted on the fibres) and one Frobenius
    power on H, with no gcd or split of H when its test holds.

    Let e be the lcm of the allowed factor degrees (`_ALLOWED_DEGREES`): 2
    for l = 1, 6 (mod 7), else 6.  Let f be the monic H, h = x^(l^2) mod f
    (x^l needs no reduction, l < deg f), q = x^2 - x + 1 and
    tau(x) = 1/(1 - x).  The test is h = x at e = 2; at e = 6 it is
    ((1 - x) h - 1)(x h - (x - 1)) = 0 mod f and, at r = 0,
    gcd(q, f mod q) = 1.  f being squarefree (`ss_poly`), the product
    vanishes mod f exactly when every root b of f (neither factor vanishes
    at 0 or 1) has b^(l^2) = tau^(+-1)(b).  tau, of order 3 over F_l,
    commutes with Frobenius, so b^(l^6) = b: every factor degree divides 6,
    and one dividing 2 has b = tau(b), so q(b) = 0.  At r = 1, q is
    irreducible (-3 is a non-residue mod l) and divides H (the j = 0
    block); at r = 0 the gcd rules out its roots.  With the test, the
    histogram is what the fibre counts (`count_factors`) leave: {1: N1,
    2: rest} at e = 2 and {2: r, 3: N3, 6: rest} at e = 6, each division
    exact or `StructuralError`.

    The test holds where the classification does, unless an involution
    sigma_alpha (`count_factors`) fixes a root b of f: tau and sigma_alpha
    fix t = n/m (exact identities in the tests) and generate the S3 of the
    cover x -> t, and t(b) is in F_(l^2), so b^(l^2) = g(b) with g in S3; an
    involution g would make b^(l^6) the image of b under the product of the
    three involutions (Frobenius permutes the alpha cyclically at e = 6).
    A failed test makes no FAIL: the verdict is read off the split of f.
    """
    l = ctx.l
    f = hasse_poly(ctx).monic()
    x, q = FpPoly.x(l), FpPoly.make(l, C.X2X1)
    allowed = _ALLOWED_DEGREES[l % 7]
    e = math.lcm(*allowed)
    h = x.powmod(l, f).powmod(l, f)
    test = h - x if e == 2 else x * (x - 1) * (h * h % f) - (x * x - 3 * x + 1) * h - x + 1  # the product, expanded
    if (test % f).is_zero and (e == 2 or ctx.r or q.gcd(f % q).degree == 0):
        known = {1: n1} if e == 2 else {2: ctx.r, 3: n3}
        top, left = divmod(f.degree - sum(d * c for d, c in known.items()), e)
        if left or top < 0:
            raise StructuralError(f"the fibre counts do not fill the Hasse polynomial at l={l}")
        histogram = {d: c for d, c in {**known, e: top}.items() if c}
        return {"degree_histogram": histogram, "classification_ok": set(histogram).issubset(allowed)}
    parts = _ddf(f)
    ok = set(parts).issubset(allowed) and (e == 2 or parts.get(2, q) == q)
    return {"degree_histogram": {d: g.degree // d for d, g in parts.items()}, "classification_ok": ok}


def count_factors(
    ctx: PrimeContext,
    need: Sequence[str] = ("N1", "N2", "N3", "N6"),
    with_histogram: bool = True,
    ss: Optional[FpPoly] = None,
) -> FactorCountReport:
    """Factor-type counts over the Hasse invariant H, which the certificate
    of `ss_poly` makes squarefree (pass its `ss` if it already ran).
    N1/N3 count the distinct linear/irreducible cubic factors, N2 only the
    irreducible quadratics x^2+ax+b with B(a, b) = 0, N6 only the sextics
    f_7(x, t) with t in F_l.

    Every counted factor lies over an F_l-root t of ss^(7*), so the counts
    are sums over `_fibres`' pieces: a root b of H has t(b) a root of
    ss^(7*) (`_fibres`), whose roots lie in F_(l^2); on a linear or cubic
    factor t(b) lies in F_l or F_(l^3), hence in F_l; N6 counts the fibres
    over t in F_l by definition; and on an alpha-family quadratic with roots
    r, r^l, sigma(x) = (alpha - x) / ((alpha - 1) x + 1) maps r to r^l and
    preserves t = n/m (both exact identities in the tests), so
    t(r)^l = t(r^l) = t(r) is in F_l.  The quadratic x^2 - x + 1 of l = 2..5
    (mod 7) lies over t = 0.  At e = 2 (l = 1, 6 mod 7) every quadratic over
    these t must have B(a, b) = 0, so N2 must equal their number.

    Every count comes from the fibres.  Without the histogram H is not
    built; with it, N1 and N3 are counted too, and H gives the degree
    histogram and the classification verdict from one Frobenius power and
    those counts (`_count_on_hasse`).
    """
    need = frozenset(need)
    if not need <= ALL_COUNTS:
        raise ValueError(f"unknown count selector in {sorted(need)}")
    l = ctx.l
    if ss is None:
        ss = ss_poly(ctx)
    report = {}
    if with_histogram:
        need |= {"N1", "N3"}
    if need:
        pieces = _fibres(ctx, ss, "N2" in need).values()

        def total(d: int) -> int:
            return sum(a.get(d, 0) for a, _ in pieces)

        report.update((k, total(d)) for k, d in (("N1", 1), ("N3", 3), ("N6", 6)) if k in need)
        if "N2" in need:
            report["N2"] = sum(n2 for _, n2 in pieces)
            if l % 7 in (1, 6) and report["N2"] != total(2):
                raise StructuralError(f"a quadratic factor over the F_l-roots of ss^(7*) violates B(a, b) = 0 at l={l}")
    if with_histogram:
        report.update(_count_on_hasse(ctx, report["N1"], report["N3"]))
    return FactorCountReport(**report)


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


def sextic_count_formula(ctx: PrimeContext, h7l: int) -> Fraction:
    """Predicted count of f_7-shaped sextics, l = 2,3,4,5 mod 7."""
    l = ctx.l
    if l % 7 in (2, 4):
        sub = ctx.r
    elif l % 7 in (3, 5):
        sub = 1 + ctx.r
    else:
        raise ValueError("the sextic count formula applies to l = 2,3,4,5 mod 7")
    return _mod8_multiplier(l) * h7l - sub


def quadratic_count_formula(ctx: PrimeContext, h7l: int) -> Fraction:
    """Predicted count of B-quadratics, l = 1,6 mod 7."""
    l = ctx.l
    if l % 7 == 1:
        sub = 2 * ctx.r
    elif l % 7 == 6:
        sub = 3 + 2 * ctx.r
    else:
        raise ValueError("the quadratic count formula applies to l = 1,6 mod 7")
    return 3 * _mod8_multiplier(l) * h7l - sub


def verify_count_formulas(ctx: PrimeContext, report: FactorCountReport, ss: FpPoly) -> Dict[str, object]:
    """The formula columns of the hasse row for the counts in `report`: L, the
    number of supersingular j in F_l counted on `ss` (the ss_l that `ss_poly`
    certified for `report`), h(-l), h(-7l), the formula predictions (None
    where a formula does not apply) and the verdicts.

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
            f_n6 = sextic_count_formula(ctx, h_7l)
            verdicts["sextic_formula"] = "PASS" if report.N6 == f_n6 else "FAIL"
        else:
            verdicts["sextic_formula"] = "SKIP"
    if l7 in (1, 6):
        if report.N2 is not None:  # no admitted l < 7 is 1, 6 (mod 7)
            f_n2 = quadratic_count_formula(ctx, h_7l)
            verdicts["quadratic_formula"] = "PASS" if report.N2 == f_n2 else "FAIL"
        else:
            verdicts["quadratic_formula"] = "SKIP"

    if report.classification_ok is not None:
        verdicts["factor_types"] = "PASS" if report.classification_ok else "FAIL"

    return {
        "L": L,
        "h_minus_l": h_l,
        "h_minus_7l": h_7l,
        "formula_N1": f_n1,
        "formula_N3": f_n3,
        "formula_N6": f_n6,
        "formula_N2": f_n2,
        "verdicts": verdicts,
    }
