"""Supersingular polynomials for the level-7 Fricke group: ss_p^(7*)(Y) from
the resultant congruence on ss_p(X) and, independently, from its definition;
the L / L^(7*) counts; Nakaya's predicted linear-factor count; and the
factor-count consistency identities that tie L^(7*) to the Hasse-invariant
counts.

ss_p(X) comes from `hasse7.ss_poly`, which certifies J_p squarefree for both
sweeps; L is its number of roots in F_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from . import constants as C
from .classnum import kronecker, nakaya_class_term
from .errors import StructuralError
from .ffpoly import (
    FpPoly,
    PrimeContext,
    count_roots_in_fp,
    poly_sqrt,
    radical,
    resultant_in_X,
    roots_in_fp2,
    smallest_nonresidue,
)
from .hasse7 import FactorCountReport, count_factors, ss_poly  # perfbench times ss7star.ss_poly


def _check_p(ctx: PrimeContext) -> None:
    if ctx.l < 5 or ctx.l == 7:
        raise ValueError("p >= 5 and p != 7 required")


def ss7star_resultant(ctx: PrimeContext, ss: FpPoly) -> FpPoly:
    """ss_p^(7*) from the resultant congruence

    (Y+1)^mu (Y-27)^mu Res_X(ss_p, R_7) =
        (Y^2+224Y+448)^(2r) (Y^4-528Y^3-9024Y^2-5120Y-1728)^s ss_p^(7*)(Y)^2,

    where R_7 = X^2 - A(Y) X + B(Y) and `ss` is ss_p(X) from `ss_poly`.
    The exact divisions and the square root are demanded; failure of either is
    a structural error, not a data condition.
    """
    _check_p(ctx)
    p = ctx.l
    lhs = resultant_in_X(ss, -FpPoly.make(p, C.R7_A), FpPoly.make(p, C.R7_B))
    if ctx.mu7:
        lhs = lhs * FpPoly.make(p, [1, 1]) * FpPoly.make(p, [-27, 1])
    for corr, e in ((C.QUAD_CORR, 2 * ctx.r), (C.QUARTIC_CORR, ctx.s)):
        if e:
            q, r = divmod(lhs, FpPoly.make(p, corr) ** e)
            if not r.is_zero:
                raise StructuralError(
                    f"correction factor {corr} does not divide the resultant at p={p}"
                )
            lhs = q
    out = poly_sqrt(lhs)
    if out.gcd(out.derivative()).degree > 0:
        raise StructuralError(f"ss^(7*)_{p} from resultant is not squarefree")
    return out


def ss7star_bruteforce(ctx: PrimeContext, ss: FpPoly) -> FpPoly:
    """ss_p^(7*) from the definition: the product of (Y - j_7^*) over the
    distinct roots j_7^* of R_7(j, Y), j running over the supersingular j in
    F_{p^2} (the roots of `ss`, which is ss_p(X) from `ss_poly`).

    With j = a + b theta and c = (j - a)^2 = nu b^2 in F_p,
    R_7(j, Y) = P + (j - a)(2a - A) with P = B - aA + a^2 + c over F_p[Y].
    Its norm P^2 - c (2a - A)^2 has the roots of R_7(j, Y) and of its
    conjugate R_7(j^p, Y), so the lcm of the radicals of the norms is the
    product.  A root outside F_{p^2} (a radical not dividing Y^(p^2) - Y)
    would contradict the defining congruence and is a structural error.
    """
    _check_p(ctx)
    p = ctx.l
    nu = smallest_nonresidue(p)
    A, B, Y = FpPoly.make(p, C.R7_A), FpPoly.make(p, C.R7_B), FpPoly.x(p)
    out = FpPoly.one(p)
    # j and its conjugate share (a, c), hence the norm
    for a, c in sorted({(j.a, nu * j.b * j.b % p) for j in roots_in_fp2(ss)}):
        P = B - a * A + (a * a + c)
        rad = radical(P * P - c * (2 * a - A) ** 2)
        if Y.powmod(p * p, rad) != Y % rad:
            raise StructuralError(f"j_7^* value outside F_(p^2) at p={p}")
        out = out * (rad // out.gcd(rad))
    return out


def nakaya_predicted(p: int, L: int) -> Fraction:
    """(1/2)(1 + (-p/7)) L + a_p h(-7p), with L = L(p) the number of
    supersingular j in F_p."""
    a_p, h = nakaya_class_term(p)
    return Fraction(1 + kronecker(-p, 7), 2) * L + a_p * h


@dataclass(frozen=True)
class SS7StarReport:
    p: int
    ss: FpPoly
    ss7star: FpPoly
    L: int
    L7star: int
    nakaya_predicted: Fraction
    oracle_match: Optional[bool]    # None when the brute-force oracle did not run
    nakaya_ok: bool


def counts_and_nakaya(ctx: PrimeContext, check_oracle: bool = False) -> SS7StarReport:
    """Compute ss_p^(7*) from the resultant congruence and the Nakaya verdict.

    `ss7star_bruteforce` (the definition) is the independent oracle.  It is
    only cheap for small p, so it runs for p <= 300, or for every p with
    `check_oracle`; the two must agree exactly.
    """
    _check_p(ctx)
    p = ctx.l
    ss = ss_poly(ctx)
    ss7 = ss7star_resultant(ctx, ss)
    oracle_match: Optional[bool] = None
    if check_oracle or p <= 300:
        oracle_match = ss7star_bruteforce(ctx, ss) == ss7
        if not oracle_match:
            raise StructuralError(f"resultant and brute force disagree at p={p}")
    L = count_roots_in_fp(ss)
    pred = nakaya_predicted(p, L)
    L7 = count_roots_in_fp(ss7)
    return SS7StarReport(
        p=p,
        ss=ss,
        ss7star=ss7,
        L=L,
        L7star=L7,
        nakaya_predicted=pred,
        oracle_match=oracle_match,
        nakaya_ok=(pred == L7),
    )


def count_consistency(
    ctx: PrimeContext,
    report: Optional[SS7StarReport] = None,
    counts: Optional[FactorCountReport] = None,
) -> Dict[str, object]:
    """Recompute L^(7*) from the measured N-counts via the case derivations.

    p = 2,4 (7): L = N6 + (1-(-3/p))/2
    p = 3,5 (7): L = (N3-2)/2 + 2 + N6 + (1-(-3/p))/2
    p = 1   (7): L = (N2 - (1-(-3/p))/2)/3 + (1-(-3/p))/2
    p = 6   (7): L = (N1-6)/6 + 2 + (N2 - (1-(-3/p))/2)/3 + (1-(-3/p))/2
    """
    p = ctx.l
    if p < 11 or p == 7:
        raise ValueError("p >= 11, p != 7 required")
    if report is None:
        report = counts_and_nakaya(ctx)
    half = Fraction(1 - kronecker(-3, p), 2)
    p7 = p % 7
    if counts is None:
        need = {1: ("N2",), 6: ("N1", "N2"), 2: ("N6",), 4: ("N6",), 3: ("N3", "N6"), 5: ("N3", "N6")}[p7]
        counts = count_factors(ctx, need=need, with_histogram=False)
    if p7 in (2, 4):
        formula = counts.N6 + half
    elif p7 in (3, 5):
        formula = Fraction(counts.N3 - 2, 2) + 2 + counts.N6 + half
    elif p7 == 1:
        formula = Fraction(1, 3) * (counts.N2 - half) + half
    else:
        formula = Fraction(counts.N1 - 6, 6) + 2 + Fraction(1, 3) * (counts.N2 - half) + half
    return {
        "p": p,
        "branch": p7,
        "formula_value": formula,
        "L7star": report.L7star,
        "ok": formula == report.L7star,
    }
