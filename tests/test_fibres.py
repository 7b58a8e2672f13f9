"""The counts on the fibres of f_7 = n - t m over the F_l-rational t: the
exact facts that make the t-set complete, the pointwise t-set against the
resultant and the definition of ss^(7*), the stacked kernel (`Moduli`,
`homogenize_mod`, the trace counts) against `FpPoly`, and the fibre pieces
against a split of gcd(f_7(x, t), H) with H built, inside the counts and the
count consistency."""

import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import oracles
from fricke7 import constants as C
from fricke7 import ffpoly, hasse7
from fricke7.exactring import CubicNum, homogenize, padd, pmul, ppow, pscale, psub, resultant
from fricke7.errors import StructuralError
from fricke7.ffpoly import (
    PRIME_LIMIT,
    FpPoly,
    Moduli,
    PrimeContext,
    _ddf,
    homogenize_mod,
    resultant_in_X,
    resultant_roots_in_fp,
)
from fricke7.hasse7 import count_factors, hasse_poly, ss_poly
from fricke7.ss7star import count_consistency, counts_and_nakaya, ss7star_bruteforce, ss7star_resultant
from fricke7.sweep import primes_in
from oracles import distinct_roots_in_fp

ONE_PER_CLASS = [113, 37, 59, 53, 61, 41]  # one prime per class l mod 7, 1..6
NEAR_2000 = [2003, 1997, 1949, 1999, 1993, 1987]


def _hom(coeffs, num, den, deg):
    """sum c_k num^k den^(deg-k) on list polynomials."""
    out = []
    for k, c in enumerate(coeffs):
        out = padd(out, pscale(pmul(ppow(num, k), ppow(den, deg - k)), c))
    return out


def _t_moved(num, den):
    """n(num/den) m - n m(num/den), cleared by den^6; zero exactly when
    x -> num/den preserves t = n/m."""
    n, m = list(C.F7_N), list(C.F7_M)
    return psub(pmul(_hom(C.F7_N, num, den, 6), m), pmul(pmul(n, _hom(C.F7_M, num, den, 5)), den))


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
        assert not any(_t_moved([alpha, -1], [1, alpha - 1]))

    @pytest.mark.parametrize("num, den", [([1], [1, -1]), ([-1, 1], [0, 1])], ids=["tau", "tau^2"])
    def test_tau_preserves_t(self, num, den):
        """n(tau x) m(x) = n(x) m(tau x) over ZZ for tau(x) = 1/(1 - x) and
        tau^2(x) = (x - 1)/x, cleared by the denominator^6: b^(l^2) and
        tau^(+-1)(b) lie in one t-fibre, which the Frobenius test on the
        Hasse polynomial compares (`hasse7._count_on_hasse`)."""
        assert not any(_t_moved(num, den))

    def test_a_wrong_mobius_map_moves_t(self):
        """x -> 1/(1 + x) does not preserve t."""
        assert any(_t_moved([1], [1, 1]))

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


def _fibres(p):
    """The stack of fibres f_7(x, t), t in T, with T."""
    T = _t_set(ss_poly(PrimeContext.make(p)))
    return Moduli.pencil(p, C.F7_N, C.F7_M, T), T


def _random_stack(p, d, rows, rng):
    f = [[rng.randrange(p) for _ in range(d)] + [1] for _ in range(rows)]
    return Moduli(p, np.array(f, dtype=np.int64).reshape(rows, d + 1))


class TestStackKernel:
    """`Moduli` and its `Residues` against `FpPoly` mod each row."""

    @pytest.mark.parametrize("p,d", [(5, 1), (5, 6), (101, 2), (101, 6), (101, 12), (1999, 6)])
    def test_products_and_powers(self, p, d):
        rng = random.Random(p * d)
        stack = _random_stack(p, d, 7, rng)
        a, b = (FpPoly.make(p, [rng.randrange(p) for _ in range(3 * d)]) for _ in range(2))
        ra, rb = stack.residues(a), stack.residues(b)
        for i in range(7):
            f = stack.poly(i)
            assert ra.poly(i) == a % f and (ra * rb).poly(i) == a * b % f
            assert (3 - ra * 5 + rb).poly(i) == (3 - a * 5 + b) % f
            assert (ra ** p).poly(i) == a.powmod(p, f)
            assert (-ra).poly(i) == -a % f and (ra - 1).poly(i) == (a - 1) % f

    def test_pencil_is_the_fibres(self):
        stack, T = _fibres(59)
        assert [stack.poly(i) for i in range(len(T))] == [FpPoly.make(59, C.expand_f7(t)) for t in T]

    def test_moduli_of_two_stacks_do_not_mix(self):
        rng = random.Random(3)
        one, two = _random_stack(13, 6, 2, rng), _random_stack(13, 6, 2, rng)
        with pytest.raises(TypeError):
            one.residues(FpPoly.x(13)) + two.residues(FpPoly.x(13))

    def test_int64_bound(self):
        """A stack of sextics sums at most 11 products of two residues, and a
        reduction of a vector of length n sums n: the Deuring sum's num and
        den (25 coefficients) reduce inside the bound at `PRIME_LIMIT`."""
        assert ffpoly._block_fits(PRIME_LIMIT, 2 * 6 - 1) and ffpoly._block_fits(PRIME_LIMIT, 25)


class TestFactorCounts:
    """The factor counts from the traces of the Frobenius powers against
    `_ddf` on each row, with non-squarefree rows refused."""

    @staticmethod
    def _check(stack):
        l = stack.l
        got = stack.factor_counts(stack.residues(FpPoly.x(l)) ** l)
        for i, counts in enumerate(got):
            f = stack.poly(i)
            if f.gcd(f.derivative()).degree:
                assert counts is None, f
            else:
                assert counts == {d: g.degree // d for d, g in _ddf(f).items()}, f
        return got

    @pytest.mark.parametrize("p", [5, 7, 11, 101])
    def test_random_sextics(self, p):
        got = self._check(_random_stack(p, 6, 300, random.Random(p)))
        assert None in got or p > 5
        assert len({tuple(sorted(c)) for c in got if c}) >= 6

    def test_l_5_at_its_bounds(self):
        """At l = 5 the degree-5 count follows from the degree, and a
        squarefree sextic has at most four linear factors: both ends of the
        bound the traces need, and squares refused."""
        l = 5
        lin = [FpPoly.make(l, [-c, 1]) for c in range(l)]
        quad = FpPoly.make(l, [2, 0, 1])  # x^2 + 2, irreducible mod 5
        quintic = FpPoly.make(l, [1, 4, 0, 0, 0, 1])  # x^5 - x + 1, irreducible mod 5 (Artin-Schreier)
        sextics = [
            lin[0] * lin[1] * lin[2] * lin[3] * quad,  # a_1 = 4
            lin[4] * quintic,  # a_5 = 1
            quad ** 3,
            lin[0] ** 2 * lin[1] * lin[2] * quad,
            FpPoly.make(l, C.expand_f7(0)),  # (x^2 - x + 1)^3
        ]
        got = self._check(Moduli(l, np.array([f.coeffs for f in sextics], dtype=np.int64)))
        assert got == [{1: 4, 2: 1}, {1: 1, 5: 1}, None, None, None]

    def test_other_degrees(self):
        for p, d in ((7, 1), (7, 8), (13, 12)):
            self._check(_random_stack(p, d, 60, random.Random(d)))

    def test_degree_l_is_refused(self):
        """At d = l, x^l - x has l linear factors, a_1 = 0 mod l, which the
        traces cannot tell from one factor of degree l."""
        l = 5
        stack = Moduli(l, np.array([FpPoly.make(l, [0, -1, 0, 0, 0, 1]).coeffs], dtype=np.int64))
        with pytest.raises(AssertionError, match="d < l or d = l"):
            stack.factor_counts(stack.residues(FpPoly.x(l)) ** l)


class TestHomogenizeMod:
    @pytest.mark.parametrize("deg_f", [0, 1, 2, 7, 96, 97, 150])
    def test_against_homogenize(self, deg_f):
        """Against the reduction of the full composition mod each row of a
        stack of degree deg_f (0 stands for an empty stack of sextics, an
        empty T; past degree 12 one row, since the table of x^(i+j) holds
        d^3 entries a row), with a top coefficient zero or not and sums of
        one coefficient."""
        p = 101
        rng = random.Random(deg_f)
        rows = 0 if not deg_f else 3 if deg_f <= 12 else 1
        stack = _random_stack(p, deg_f or 6, rows, rng)
        num = FpPoly.make(p, [rng.randrange(p) for _ in range(9)])
        den = FpPoly.make(p, [rng.randrange(p) for _ in range(7)])
        for n in (0, 1, 2, 3, 15, 16, 17, 40):
            coeffs = [rng.randrange(p) for _ in range(n)] + [rng.choice((0, 1, 5))]
            got = homogenize_mod(coeffs, num, den, stack)
            assert got.v.shape == (len(stack.f), stack.degree)
            want = homogenize(coeffs, num, den)
            assert all(got.poly(i) == want % stack.poly(i) for i in range(len(stack.f))), n

    @pytest.mark.parametrize("p", ONE_PER_CLASS + [1999])
    def test_is_the_hasse_polynomial_mod_p(self, p):
        """The Deuring sum reduced mod the fibres, times the j = 0 and 1728
        blocks, is the Hasse polynomial mod each fibre, and it is zero mod
        most of them."""
        ctx = PrimeContext.make(p)
        stack, T = _fibres(p)
        c, u, den, extra = hasse7._hasse_pieces(ctx)
        got = homogenize_mod(c, u, den, stack) * stack.residues(extra)
        H = hasse_poly(ctx)
        assert [got.poly(i) for i in range(len(T))] == [H % stack.poly(i) for i in range(len(T))]
        assert sum(got.is_zero()) >= len(T) - 3


class TestFibreGcd:
    @pytest.mark.parametrize("p", ONE_PER_CLASS)
    def test_a_non_root_t_changes_nothing(self, p):
        """A t outside T adds no piece: H has no factor over it."""
        ctx = PrimeContext.make(p)
        ss = ss_poly(ctx)
        T = _t_set(ss)
        extra = min(set(range(p)) - set(T))
        pieces = hasse7._fibres(ctx, ss, True)
        with mock.patch.object(hasse7, "resultant_roots_in_fp", return_value=sorted(T + [extra])):
            assert hasse7._fibres(ctx, ss, True) == pieces

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
        """Every count, restricted or from the full count, equals the
        shape-test route on G_T (`oracles.shape_test_counts`)."""
        ctx = PrimeContext.make(p)
        ss = ss_poly(ctx)
        full = count_factors(ctx, ss=ss)
        want = oracles.shape_test_counts(ctx, ("N1", "N2", "N3", "N6"), ss)
        assert {k: getattr(full, k) for k in want} == want
        for need in (("N1", "N3"), ("N2",), ("N6",)):
            fibre = count_factors(ctx, need=need, with_histogram=False, ss=ss)
            assert {k: getattr(fibre, k) for k in need} == {k: want[k] for k in need}, need

    def test_the_hasse_polynomial_is_not_built(self):
        """A restricted count builds neither H nor any composition by n and m
        (given ss_l, whose J_l is one)."""
        ctx = PrimeContext.make(1999)
        ss = ss_poly(ctx)
        with mock.patch.object(hasse7, "hasse_poly", wraps=hasse7.hasse_poly) as built, \
                mock.patch.object(hasse7, "homogenize", wraps=hasse7.homogenize) as composed:
            count_factors(ctx, need=("N1", "N2", "N3", "N6"), with_histogram=False, ss=ss)
        assert not built.called and not composed.called


class TestFibrePieces:
    """The batched pieces against `oracles.fibre_pieces`, which builds H and
    splits gcd(f_7(x, t), H) for each t in T by `_ddf` and `_edf`."""

    @pytest.mark.parametrize("p", [p for p in primes_in(5, 399) if p != 7])
    def test_pieces_equal_the_split(self, p):
        ctx = PrimeContext.make(p)
        assert hasse7._fibres(ctx, ss_poly(ctx), True) == {
            t: (counts, n2) for t, (counts, n2) in oracles.fibre_pieces(ctx).items()}

    @pytest.mark.parametrize("p", [5, 11, 41, 59, 83, 1999])
    def test_special_fibres_are_radicals(self, p):
        """Over t = 0 (r = 1) the piece is x^2 - x + 1, the radical of
        f_7(x, 0) = (x^2 - x + 1)^3; over t = -1 and 27 (mu = 1) it is the
        radical of a square, a cubic; no other t in T has a nonzero residue."""
        ctx = PrimeContext.make(p)
        stack, T = _fibres(p)
        c, u, den, extra = hasse7._hasse_pieces(ctx)
        residue = homogenize_mod(c, u, den, stack) * stack.residues(extra)
        special = {t for t, zero in zip(T, residue.is_zero()) if not zero}
        want = ({0} if ctx.r else set()) | ({p - 1, 27 % p} if ctx.mu7 else set())
        assert special == want
        pieces = hasse7._fibres(ctx, ss_poly(ctx), True)
        for t in special:
            degree = sum(d * k for d, k in pieces[t][0].items())
            assert degree == (2 if t == 0 else 3), t

    @pytest.mark.parametrize("p", [59, 83])  # r = mu = 1
    def test_a_tampered_residue_is_refused(self, p):
        """A zero residue certifies its fibre: made zero over t = 0, whose
        fibre (x^2 - x + 1)^3 is not squarefree, the trace certificate
        refuses it; made nonzero over a t whose fibre divides H, that fibre
        is no longer a full piece and the counts change."""
        ctx = PrimeContext.make(p)
        ss = ss_poly(ctx)
        T = _t_set(ss)
        pieces = hasse7._fibres(ctx, ss, True)
        full = next(t for t, (counts, _) in pieces.items() if sum(d * k for d, k in counts.items()) == 6)

        def tampered(at, value):
            def run(*args):
                out = homogenize_mod(*args)
                out.v[T.index(at)] = value
                return out
            return run

        with mock.patch.object(hasse7, "homogenize_mod", tampered(0, 0)):
            with pytest.raises(StructuralError, match=rf"f_7\(x, 0\) .* not squarefree at l={p}"):
                hasse7._fibres(ctx, ss, True)
        with mock.patch.object(hasse7, "homogenize_mod", tampered(full, 1)):
            assert full not in hasse7._fibres(ctx, ss, True)
