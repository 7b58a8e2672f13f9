"""Supersingular polynomials for the level-7 Fricke group: ss_p^(7*)(Y) from
the resultant congruence on ss_p(X) and, independently, from its definition;
the L / L^(7*) counts; Nakaya's predicted linear-factor count; and the
factor-count consistency identities that tie L^(7*) to the Hasse-invariant
counts.

ss_p(X) comes from `hasse7.ss_poly`, which certifies J_p squarefree for both
sweeps, so the oracle reads its roots in F_{p^2} off ss_p's factors without
decomposing it again; L is its number of roots in F_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from . import constants as C
from .classnum import kronecker, nakaya_class_term
from .errors import StructuralError
from .ffpoly import (
    FpPoly,
    PrimeContext,
    _ddf,
    _edf,
    count_roots_in_fp,
    radical,
    resultant_in_X,
    squarefree_decomposition,
)
from .hasse7 import FactorCountReport, count_factors, ss_poly  # perfbench times ss7star.ss_poly


def ss7star_resultant(ctx: PrimeContext, ss: FpPoly) -> FpPoly:
    """ss_p^(7*) from the resultant congruence

    (Y+1)^mu (Y-27)^mu Res_X(ss_p, R_7) =
        (Y^2+224Y+448)^(2r) (Y^4-528Y^3-9024Y^2-5120Y-1728)^s ss_p^(7*)(Y)^2,

    where R_7 = X^2 - A(Y) X + B(Y) and `ss` is ss_p(X) from `ss_poly`.
    The exact divisions are demanded, and one squarefree decomposition of
    what is left both takes its square root and certifies that root
    squarefree: it must be c g^2 with c a square in F_p and g squarefree (no
    component, or one of multiplicity 2), and g is returned.  Any other shape
    is a structural error, not a data condition.
    """
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
    if lhs.is_zero:
        raise StructuralError(f"the resultant side of ss^(7*) is zero at p={p}")
    parts = squarefree_decomposition(lhs)
    if [m for _, m in parts] not in ([], [2]) or kronecker(lhs.lc, p) != 1:
        raise StructuralError(
            f"the resultant side at p={p} is not c g^2 with c a square and g squarefree"
        )
    return parts[0][0] if parts else FpPoly.one(p)


def _root_pairs(ss: FpPoly) -> List[Tuple[int, int]]:
    """The pairs (a, c), a = (j + j^p)/2 and c = (j - a)^2, both in F_p, over
    the roots j of the monic squarefree `ss` in F_{p^2}; one pair per
    conjugate pair, sorted.

    They are read off ss's factors over F_p: x - j gives (j, 0), and an
    irreducible x^2 + u x + v, with roots (-u +- sqrt(u^2 - 4v))/2, gives
    (-u/2, (u^2 - 4v)/4).  A factor of degree > 2 has its roots outside
    F_{p^2}, a structural error for ss_p.
    """
    p = ss.modulus
    parts = _ddf(ss)
    if max(parts, default=0) > 2:
        raise StructuralError(f"ss_{p} has a factor of degree {max(parts)} > 2")
    pairs = [(-g.coeffs[0] % p, 0) for g in _edf(parts[1], 1)] if 1 in parts else []
    half = pow(2, -1, p)
    for g in _edf(parts[2], 2) if 2 in parts else []:
        v, u = g.coeffs[:2]
        pairs.append((-u * half % p, (u * u - 4 * v) * half * half % p))
    return sorted(pairs)


def ss7star_bruteforce(ctx: PrimeContext, ss: FpPoly) -> FpPoly:
    """ss_p^(7*) from the definition: the product of (Y - j_7^*) over the
    distinct roots j_7^* of R_7(j, Y), j running over the supersingular j in
    F_{p^2} (the roots of `ss`, which is ss_p(X) from `ss_poly`).

    With (a, c) from `_root_pairs`, R_7(j, Y) = P + (j - a)(2a - A) with
    P = B - aA + a^2 + c over F_p[Y].
    Its norm P^2 - c (2a - A)^2 has the roots of R_7(j, Y) and of its
    conjugate R_7(j^p, Y), so the product is the lcm of the norms' radicals,
    taken as one radical of the product of the norms.  A root outside
    F_{p^2} would contradict the defining congruence and is a structural
    error; the lcm is squarefree and has every radical's roots, so one check
    that it divides Y^(p^2) - Y covers every norm.
    """
    p = ctx.l
    A, B, Y = FpPoly.make(p, C.R7_A), FpPoly.make(p, C.R7_B), FpPoly.x(p)
    norms = FpPoly.one(p)
    # j and its conjugate share (a, c), hence the norm
    for a, c in _root_pairs(ss):
        P = B - a * A + (a * a + c)
        norms = norms * (P * P - c * (2 * a - A) ** 2)
    out = radical(norms)
    if Y.powmod(p * p, out) != Y % out:
        raise StructuralError(f"j_7^* value outside F_(p^2) at p={p}")
    return out


def nakaya_predicted(p: int, L: int) -> Fraction:
    """(1/2)(1 + (-p/7)) L + a_p h(-7p), with L = L(p) the number of
    supersingular j in F_p."""
    a_p, h = nakaya_class_term(p)
    return Fraction(1 + kronecker(-p, 7), 2) * L + a_p * h


@dataclass(frozen=True)
class SS7StarReport:
    ss: FpPoly
    ss7star: FpPoly
    L: int
    L7star: int
    nakaya_predicted: Fraction
    oracle_match: Optional[bool]    # None when the brute-force oracle did not run
    nakaya_ok: bool


def counts_and_nakaya(ctx: PrimeContext, check_oracle: bool = False) -> SS7StarReport:
    """Compute ss_p^(7*) from the resultant congruence and the Nakaya verdict.

    `ss7star_bruteforce` (the definition) is the independent oracle; the two
    must agree exactly.  It runs for p <= 300, or for every p with
    `check_oracle`.  The cut-off is not a matter of cost: with the oracle,
    this call took 0.07 s at p = 997 (0.05 s of it the oracle) and 0.15 s at
    p = 1999 (0.11 s), against 0.02 and 0.03 s without (2-core x86-64 VM,
    medians of 5).  `oracle_match` is null above it, and the golden payload
    digests and the benchmark's expected payloads record that, so moving it
    is a change of results.
    """
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
        ss=ss,
        ss7star=ss7,
        L=L,
        L7star=L7,
        nakaya_predicted=pred,
        oracle_match=oracle_match,
        nakaya_ok=(pred == L7),
    )


# the N-counts that `l7star_from_counts` reads, by p mod 7
L7STAR_NEED = {1: ("N2",), 6: ("N1", "N2"), 2: ("N6",), 4: ("N6",), 3: ("N3", "N6"), 5: ("N3", "N6")}


def l7star_from_counts(ctx: PrimeContext, counts: FactorCountReport) -> Fraction:
    """L^(7*) from the N-counts of `count_factors` via the case derivations,
    for p >= 11, with r = (1-(-3/p))/2 (`PrimeContext.r`):

    p = 2,4 (7): L = N6 + r
    p = 3,5 (7): L = (N3-2)/2 + 2 + N6 + r
    p = 1   (7): L = (N2 - r)/3 + r
    p = 6   (7): L = (N1-6)/6 + 2 + (N2 - r)/3 + r
    """
    r, p7 = ctx.r, ctx.l % 7
    if p7 in (2, 4):
        return Fraction(counts.N6 + r)
    if p7 in (3, 5):
        return Fraction(counts.N3 - 2, 2) + 2 + counts.N6 + r
    if p7 == 1:
        return Fraction(counts.N2 - r, 3) + r
    return Fraction(counts.N1 - 6, 6) + 2 + Fraction(counts.N2 - r, 3) + r


def count_consistency(ctx: PrimeContext, report: SS7StarReport) -> Optional[bool]:
    """Whether `l7star_from_counts` on the counts its case reads equals
    report.L7star, for the `report` of `counts_and_nakaya`; None below
    p = 11, where the case derivations do not apply.

    The counts are `count_factors`' need-restricted ones, taken on the
    factors of the Hasse polynomial over the F_p-roots t of ss^(7*), which it
    finds pointwise from report.ss (ss_p), never from report.ss7star: the
    resultant route's L^(7*) is checked against counts over that t-set."""
    p = ctx.l
    if p < 11:
        return None
    counts = count_factors(ctx, need=L7STAR_NEED[p % 7], with_histogram=False, ss=report.ss)
    return l7star_from_counts(ctx, counts) == report.L7star
