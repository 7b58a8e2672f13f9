"""The need-restricted counts on the fibres of f_7 = n - t m over the
F_l-rational t: the exact facts that make the t-set complete, the pointwise
t-set against the resultant and the definition of ss^(7*), `homogenize_mod`
against `homogenize`, and the fibre gcd G_T inside the count consistency."""

import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from fricke7 import constants as C
from fricke7 import ffpoly, hasse7
from fricke7.exactring import CubicNum, homogenize, padd, pmul, ppow, pscale, psub, resultant
from fricke7.ffpoly import (
    PRIME_LIMIT,
    FpPoly,
    PrimeContext,
    distinct_roots_in_fp,
    homogenize_mod,
    resultant_in_X,
    resultant_roots_in_fp,
)
from fricke7.hasse7 import count_factors, hasse_poly, ss_poly
from fricke7.ss7star import count_consistency, counts_and_nakaya, ss7star_bruteforce, ss7star_resultant
from fricke7.sweep import primes_in

ONE_PER_CLASS = [113, 37, 59, 53, 61, 41]  # one prime per class l mod 7, 1..6
NEAR_2000 = [2003, 1997, 1949, 1999, 1993, 1987]


def _hom(coeffs, num, den, deg):
    """sum c_k num^k den^(deg-k) on list polynomials."""
    out = []
    for k, c in enumerate(coeffs):
        out = padd(out, pscale(pmul(ppow(num, k), ppow(den, deg - k)), c))
    return out


def _r7_residual(r7_a):
    """num^2 m^8 - num den m A-hat + den^2 B-hat, A-hat and B-hat the given
    A and R7_B homogenized in (n, m) to degrees 7 and 8."""
    n, m, num, den = list(C.F7_N), list(C.F7_M), list(C.J7_NUM), list(C.J7_DEN)
    a_hat, b_hat = _hom(r7_a, n, m, 7), _hom(C.R7_B, n, m, 8)
    out = psub(pmul(pmul(num, num), ppow(m, 8)), pmul(pmul(pmul(num, den), m), a_hat))
    return padd(out, pmul(pmul(den, den), b_hat))


def _t_set(ss: FpPoly):
    l = ss.modulus
    return resultant_roots_in_fp(ss, -FpPoly.make(l, C.R7_A), FpPoly.make(l, C.R7_B))


class TestWhyTheTSetIsComplete:
    def test_n_and_m_are_coprime_away_from_7(self):
        """Res(n, m) = 7^6: the fibres f_7(x, t) over distinct t are coprime
        mod every admitted l."""
        assert resultant(list(C.F7_N), list(C.F7_M)) == 7**6

    def test_j7_lies_on_r7_over_t(self):
        """R_7(j_7(x), t(x)) = 0 with t = n/m, cleared: every root b of H,
        j_7(b) being supersingular, lies over a root t(b) of the resultant."""
        assert not any(_r7_residual(C.R7_A))

    def test_a_wrong_r7_a_breaks_it(self):
        wrong = list(C.R7_A)
        wrong[3] += 1
        assert any(_r7_residual(wrong))

    def test_sigma_preserves_t(self):
        """n(sigma x) m(x) = n(x) m(sigma x) for sigma(x) = (alpha - x) /
        ((alpha - 1) x + 1) over Q(alpha), cleared by ((alpha - 1) x + 1)^6."""
        alpha = CubicNum.gen()
        num, den = [alpha, -1], [1, alpha - 1]
        n, m = list(C.F7_N), list(C.F7_M)
        lhs = pmul(_hom(C.F7_N, num, den, 6), m)
        rhs = pmul(pmul(n, _hom(C.F7_M, num, den, 5)), den)
        assert not any(psub(lhs, rhs))

    def test_sigma_swaps_the_roots_of_each_family_quadratic(self):
        """phi(sigma x) = phi(x) for phi = (x^2 - alpha x) / ((alpha - 1) x + 1),
        cleared: sigma maps each root of phi = -b, the alpha-family quadratic
        x^2 + ((alpha - 1) b - alpha) x + b, to a root of it, and to the
        other one, as r1 r2 = b and r1 + r2 = alpha - (alpha - 1) b give
        alpha - r1 = r2 ((alpha - 1) r1 + 1)."""
        alpha = CubicNum.gen()
        num, den = [alpha, -1], [1, alpha - 1]
        top = psub(pmul(num, num), pscale(pmul(num, den), alpha))  # den^2 times phi's numerator at sigma
        bottom = padd(pscale(num, alpha - 1), den)  # den times phi's denominator at sigma
        assert not any(psub(top, pmul([0, -alpha, 1], bottom)))


class TestPointwiseTSet:
    @pytest.mark.parametrize("p", [13, 101])
    def test_values_are_the_resultant_at_every_t(self, p):
        ss = ss_poly(PrimeContext.make(p))
        a1, a0 = -FpPoly.make(p, C.R7_A), FpPoly.make(p, C.R7_B)
        res = resultant_in_X(ss, a1, a0)
        got = ffpoly._resultant_at(ss, a1, a0, np.arange(p, dtype=np.int64))
        assert got.tolist() == [res(t) for t in range(p)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 23, 24, 25])
    def test_blocks_of_every_shape(self, n):
        """Polynomials of n coefficients: blocks of K = isqrt(n) from 1
        (Horner's rule on the coefficients) to 5, the top one full or not."""
        p = 101
        rng = random.Random(n)
        f = FpPoly.make(p, [rng.randrange(p) for _ in range(n - 1)] + [1 + rng.randrange(p - 1)])
        a1, a0 = FpPoly.make(p, [rng.randrange(p) for _ in range(4)]), FpPoly.make(p, [3, 0, 1])
        got = ffpoly._resultant_at(f, a1, a0, np.arange(p, dtype=np.int64))
        assert got.tolist() == [resultant_in_X(f, a1, a0)(x) for x in range(p)]

    def test_slices_join(self, monkeypatch):
        p = 101
        ss = ss_poly(PrimeContext.make(p))
        whole = _t_set(ss)
        monkeypatch.setattr(ffpoly, "_POINT_SLICE", 7)
        assert _t_set(ss) == whole and whole

    @pytest.mark.parametrize("p", [p for p in primes_in(5, 399) if p != 7] + [1999])
    def test_t_set_is_the_roots_of_ss7star(self, p):
        ctx = PrimeContext.make(p)
        ss = ss_poly(ctx)
        T = _t_set(ss)
        assert T == distinct_roots_in_fp(ss7star_resultant(ctx, ss))
        assert T == distinct_roots_in_fp(ss7star_bruteforce(ctx, ss))

    def test_int64_bound(self):
        """The block bound at the largest modulus, through its helper only:
        it holds for the longest block the kernels take there (ss_l and the
        Deuring sum have about l/12 coefficients, K ~ their square root) and
        fails just past the largest K it allows."""
        l = PRIME_LIMIT
        assert ffpoly._block_fits(l, math.isqrt(l // 12 + 3))
        k_max = (ffpoly._INT64_BOUND - 1) // (l - 1) ** 2 - 3
        assert ffpoly._block_fits(l, k_max) and not ffpoly._block_fits(l, k_max + 1)


class TestHomogenizeMod:
    @pytest.mark.parametrize("deg_f", [0, 1, 2, 7, 96, 97, 150])
    def test_against_homogenize(self, deg_f):
        """Against the reduction of the full composition, on both residue
        routes (the matrix up to degree 96, Newton past it) and mod a
        constant (an empty T), with a top coefficient zero or not and sums
        of one coefficient."""
        p = 101
        rng = random.Random(deg_f)
        f = FpPoly.make(p, [rng.randrange(p) for _ in range(deg_f)] + [1 + rng.randrange(p - 1)])
        num = FpPoly.make(p, [rng.randrange(p) for _ in range(9)])
        den = FpPoly.make(p, [rng.randrange(p) for _ in range(7)])
        for n in (0, 1, 2, 3, 15, 16, 17, 40):
            coeffs = [rng.randrange(p) for _ in range(n)] + [rng.choice((0, 1, 5))]
            assert homogenize_mod(coeffs, num, den, f) == homogenize(coeffs, num, den) % f, n

    @pytest.mark.parametrize("p", ONE_PER_CLASS + [1999])
    def test_is_the_hasse_polynomial_mod_p(self, p):
        ctx = PrimeContext.make(p)
        T = _t_set(ss_poly(ctx))
        over_t = math.prod((FpPoly.make(p, [-t, 1]) for t in T), start=FpPoly.one(p))
        P = homogenize(over_t.coeffs, FpPoly.make(p, C.F7_N), FpPoly.make(p, C.F7_M))
        assert P.degree == 6 * len(T)
        c, u, den, extra = hasse7._hasse_pieces(ctx)
        assert homogenize_mod(c, u, den, P) * extra % P == hasse_poly(ctx) % P


class TestFibreGcd:
    @pytest.mark.parametrize("p", ONE_PER_CLASS)
    def test_a_non_root_t_changes_nothing(self, p):
        ctx = PrimeContext.make(p)
        ss = ss_poly(ctx)
        T = _t_set(ss)
        extra = min(set(range(p)) - set(T))
        G = hasse7._fibres(ctx, ss)
        with mock.patch.object(hasse7, "resultant_roots_in_fp", return_value=sorted(T + [extra])):
            assert hasse7._fibres(ctx, ss) == G

    @pytest.mark.parametrize("p", ONE_PER_CLASS)
    def test_a_dropped_root_fails_the_consistency(self, p):
        """Without the largest t of T, the counts miss its fibre and the
        recount no longer gives L^(7*)."""
        ctx = PrimeContext.make(p)
        report = counts_and_nakaya(ctx)
        assert count_consistency(ctx, report)
        T = _t_set(report.ss)
        with mock.patch.object(hasse7, "resultant_roots_in_fp", return_value=T[:-1]):
            assert count_consistency(ctx, report) is False

    @pytest.mark.parametrize("p", ONE_PER_CLASS)
    def test_consistency_does_not_read_ss7star(self, p):
        """T comes from ss_l, not from the report's ss^(7*), which would
        check the resultant against its own roots."""
        ctx = PrimeContext.make(p)
        report = counts_and_nakaya(ctx)
        assert count_consistency(ctx, replace(report, ss7star=FpPoly.one(p)))

    @pytest.mark.parametrize("p", NEAR_2000)
    def test_counts_equal_the_hasse_route_near_2000(self, p):
        ctx = PrimeContext.make(p)
        full = count_factors(ctx)
        for need in (("N1", "N3"), ("N2",), ("N6",)):
            fibre = count_factors(ctx, need=need, with_histogram=False)
            assert all(getattr(fibre, k) == getattr(full, k) for k in need), (p, need)

    def test_the_hasse_polynomial_is_not_built(self):
        ctx = PrimeContext.make(1999)
        with mock.patch.object(hasse7, "hasse_poly", wraps=hasse7.hasse_poly) as built:
            count_factors(ctx, need=("N1", "N2", "N3", "N6"), with_histogram=False)
        assert not built.called
