from fractions import Fraction
from unittest import mock

import pytest

from fricke7 import constants as C
from fricke7 import ffpoly, sweep
from fricke7.classnum import class_number
from fricke7.errors import StructuralError
from fricke7.ffpoly import FpPoly, PrimeContext, count_roots_in_fp, factorize
from fricke7.ss7star import (
    counts_and_nakaya,
    nakaya_predicted,
    count_consistency,
    ss7star_bruteforce,
    ss7star_resultant,
    ss_poly,
)
from fricke7.sweep import primes_in

SMALL_PRIMES = [p for p in primes_in(5, 300) if p != 7]


class TestSsPoly:
    def test_small_values(self):
        assert ss_poly(PrimeContext.make(5)) == FpPoly.x(5)
        assert ss_poly(PrimeContext.make(11)) == FpPoly.x(11) * FpPoly.make(11, [-1728, 1])
        assert ss_poly(PrimeContext.make(13)) == FpPoly.make(13, [8, 1])

    def test_monic_squarefree_sweep(self):
        from fricke7.ffpoly import squarefree_decomposition

        for p in SMALL_PRIMES:
            ss = ss_poly(PrimeContext.make(p))
            assert ss.is_monic
            decomp = squarefree_decomposition(ss)
            assert len(decomp) == 1 and decomp[0][1] == 1

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            ss_poly(PrimeContext(l=3, r=1, s=1, n=0, mu7=0))


class TestRoutes:
    def test_bruteforce_p5(self):
        ctx = PrimeContext.make(5)
        b = ss7star_bruteforce(ctx, ss_poly(ctx))
        assert b == FpPoly.x(5) * FpPoly.make(5, [1, 1]) * FpPoly.make(5, [3, 1])

    def test_bruteforce_p11(self):
        # enumeration over j in {0, 1728 = 1}
        ctx = PrimeContext.make(11)
        b = ss7star_bruteforce(ctx, ss_poly(ctx))
        assert b.is_monic and b.degree >= 2

    def test_bruteforce_rejects_non_supersingular_j(self):
        # j = 1 is not supersingular mod 13, so some j_7^* over it leaves F_(13^2)
        ctx = PrimeContext.make(13)
        with pytest.raises(StructuralError, match="outside F_"):
            ss7star_bruteforce(ctx, FpPoly.make(13, [-1, 1]))

    def test_route_equality_11_to_300(self):
        for p in [q for q in SMALL_PRIMES if q >= 11]:
            ctx = PrimeContext.make(p)
            ss = ss_poly(ctx)
            assert ss7star_resultant(ctx, ss) == ss7star_bruteforce(ctx, ss), p

    def test_ss41_table_row(self):
        rep = counts_and_nakaya(PrimeContext.make(41))
        fac = factorize(rep.ss7star)
        roots = sorted((41 - f.coeffs[0]) % 41 for f, _ in fac.factors if f.degree == 1)
        assert roots == sorted((41 - c) % 41 for c in C.SS41_LINEAR_ROOTS)
        quads = sorted(f.coeffs for f, _ in fac.factors if f.degree == 2)
        assert quads == sorted(t for t in C.SS41_QUADRATICS)
        assert rep.L7star == 11

    def test_squarefree_monic_and_degree_bounds(self):
        for p in (53, 97, 199, 293):
            rep = counts_and_nakaya(PrimeContext.make(p))
            assert rep.ss7star.is_monic
            assert rep.ss7star.degree >= rep.L7star


class TestNakaya:
    def test_p41(self):
        rep = counts_and_nakaya(PrimeContext.make(41))
        assert rep.L == 4 and rep.L7star == 11
        assert rep.nakaya_predicted == Fraction(11) and rep.nakaya_ok

    def test_p5(self):
        rep = counts_and_nakaya(PrimeContext.make(5))
        assert rep.L7star == 3 and rep.nakaya_ok

    def test_p13_branch(self):
        # 13 = 6 mod 7: the (-13/7) = +1 branch contributes L(13)
        L = count_roots_in_fp(ss_poly(PrimeContext.make(13)))
        assert L == 1 and nakaya_predicted(13, L) == Fraction(3)

    @pytest.mark.parametrize("p", [307, 311])
    def test_nakaya_row_decomposes_once(self, p):
        """Above the oracle cut-off a sweep row runs one squarefree
        decomposition, the square root's; ss_p and the root of the resultant
        are checked by gcds."""
        with mock.patch.object(
            ffpoly, "squarefree_decomposition", wraps=ffpoly.squarefree_decomposition
        ) as sqf:
            row = sweep._nakaya_worker((p, False, True))
        assert sqf.call_count == 1
        assert row.report.oracle_match is None and row.consistency["ok"]

    def test_oracle_flag_set_small(self):
        rep = counts_and_nakaya(PrimeContext.make(53))
        assert rep.oracle_match is True
        rep = counts_and_nakaya(PrimeContext.make(307))
        assert rep.oracle_match is None
        rep = counts_and_nakaya(PrimeContext.make(307), check_oracle=True)
        assert rep.oracle_match is True


class TestCountConsistency:
    def test_branches(self):
        for p in (41, 13, 23, 29, 11, 17, 19, 37, 43):
            out = count_consistency(PrimeContext.make(p))
            assert out["ok"], (p, out)

    def test_p_too_small_rejected(self):
        with pytest.raises(ValueError):
            count_consistency(PrimeContext.make(5))


def test_deuring_eichler_class_number_relation():
    """L(l) in terms of h(-l), h(-4l): the classical supersingular count
    relation, checked without computing class polynomials."""
    for l in [q for q in primes_in(5, 2000) if q != 7]:
        L = count_roots_in_fp(ss_poly(PrimeContext.make(l)))
        if l % 4 == 3:
            expect = 1 + (class_number(-l) - 1) // 2 + (class_number(-4 * l) - 1) // 2
        else:
            expect = class_number(-4 * l) // 2
        assert L == expect, l


def test_correction_divisions_always_succeed():
    # implicitly exercised by ss7star_resultant; spot-check odd character mixes
    for p in (311, 467, 587, 683):
        ctx = PrimeContext.make(p)
        ss7star_resultant(ctx, ss_poly(ctx))
