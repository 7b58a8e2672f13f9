import json
import math
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import oracles
from fricke7 import constants as C
from fricke7 import cli, ffpoly, hasse7, ss7star, sweep
from fricke7.classnum import kronecker
from fricke7.errors import StructuralError
from fricke7.ffpoly import FpPoly, PrimeContext, factorize, radical
from fricke7.hasse7 import (
    count_factors,
    deuring_J,
    hasse_poly,
    ss_poly,
    verify_count_formulas,
)
from fricke7.ss7star import L7STAR_NEED, counts_and_nakaya
from fricke7.sweep import primes_in
from oracles import distinct_roots_in_fp
from paper_checks import g_of_x_j, verified_report, verify_g_factor_counts, verify_special_factorizations

SWEEP_PRIMES = [p for p in primes_in(5, 400) if p != 7]
NEAR_2000 = [2003, 1997, 1949, 1999, 1993, 1987]  # one prime per class l mod 7, 1..6
ONE_PER_CLASS = [113, 37, 59, 53, 61, 41]  # the same, small
# prime -> [N1, N2, N3, N6, L, classification_ok, degree histogram] of the hasse sweep's report
COUNT_REPORTS = json.loads((Path(__file__).parent / "count_reports_below_700.json").read_text())


class TestDeuringJ:
    def test_small_cases(self):
        assert deuring_J(PrimeContext.make(5)).coeffs == (1,)
        assert deuring_J(PrimeContext.make(11)).coeffs == (1,)
        # J_13 = t - 2592 = t + 8 mod 13
        assert deuring_J(PrimeContext.make(13)).coeffs == (8, 1)

    def test_monic_of_degree_n(self):
        for p in (17, 101, 397):
            ctx = PrimeContext.make(p)
            J = deuring_J(ctx)
            assert J.degree == ctx.n and J.is_monic

    def test_roots_avoid_0_and_1728(self):
        for p in (83, 101, 199):
            ctx = PrimeContext.make(p)
            J = deuring_J(ctx)
            assert J(0) != 0 and J(1728 % p) != 0

    @pytest.mark.parametrize("p", [5, 11, 13, 17, 19, 23, 401, 1997, 1999, 9949])
    def test_coefficients_are_the_binomial_definition(self, p):
        """The factorial-table coefficients equal the binomials taken as
        integers, then reduced."""
        ctx = PrimeContext.make(p)
        n, s = ctx.n, ctx.s
        want = [
            math.comb(2 * n + s, 2 * k + s) * math.comb(2 * n - 2 * k, n - k) * (-432) ** (n - k) % p
            for k in range(n + 1)
        ]
        assert hasse7._deuring_coeffs(ctx) == want


class TestHassePoly:
    def test_l5_is_f0(self):
        assert hasse_poly(PrimeContext.make(5)) == FpPoly.make(5, C.F0)

    def test_l11_degree_20(self):
        ctx = PrimeContext.make(11)
        H = hasse_poly(ctx)
        assert H.degree == 20
        f0 = FpPoly.make(11, C.F0)
        f1728 = FpPoly.make(11, C.F1728)
        assert H % f0 == FpPoly.make(11, []) and H % f1728 == FpPoly.make(11, [])

    def test_l13_degree_24(self):
        assert hasse_poly(PrimeContext.make(13)).degree == 24

    def test_degree_formula_sweep(self):
        for p in SWEEP_PRIMES:
            ctx = PrimeContext.make(p)
            assert hasse_poly(ctx).degree == 8 * ctx.r + 12 * ctx.s + 24 * ctx.n


class TestCounts:
    def test_l5(self):
        rep = count_factors(PrimeContext.make(5))
        assert rep.N3 == 2 and rep.N1 == 0 and rep.N6 == 0
        assert rep.classification_ok

    def test_l13(self):
        rep = count_factors(PrimeContext.make(13))
        assert rep.N1 == 6

    def test_l83(self):
        rep = count_factors(PrimeContext.make(83))
        assert rep.N1 == 36  # 3(3-(2/83)) h(-83) with (2/83) = -1, h = 3

    def test_restricted_need(self):
        rep = count_factors(PrimeContext.make(83), need=("N1",), with_histogram=False)
        assert rep.N1 == 36 and rep.N2 is None and rep.degree_histogram is None

    def test_fast_and_edf_routes_agree(self):
        for p in (41, 43, 103, 113, 127, 37, 59, 53):  # every class l mod 7
            ctx = PrimeContext.make(p)
            a = count_factors(ctx)
            assert (a.N1, a.N2, a.N3, a.N6) == oracles.edf_counts(ctx), p


def _agrees_with_divisor_route(p):
    ctx = PrimeContext.make(p)
    want = dict(zip(("N1", "N2", "N3", "N6"), oracles.divisor_counts(ctx)))
    full = count_factors(ctx)
    assert {k: getattr(full, k) for k in want} == want, p
    need = L7STAR_NEED[p % 7]
    part = count_factors(ctx, need=need, with_histogram=False)
    assert {k: getattr(part, k) for k in need} == {k: want[k] for k in need}, p


def test_shape_test_matches_divisor_route_small():
    for p in primes_in(11, 250):
        _agrees_with_divisor_route(p)


@pytest.mark.parametrize("p", NEAR_2000)
def test_shape_test_matches_divisor_route_near_2000(p):
    _agrees_with_divisor_route(p)


class TestSquarefreeCertificate:
    """count_factors takes the Hasse polynomial as its own squarefree part once
    J_l is squarefree; the radical is the oracle."""

    def test_radical_is_monic_hasse_small(self):
        for p in SWEEP_PRIMES + [p for p in primes_in(401, 599)]:
            H = hasse_poly(PrimeContext.make(p))
            assert radical(H) == H.monic(), p

    @pytest.mark.parametrize("p", NEAR_2000)
    def test_radical_is_monic_hasse_near_2000(self, p):
        H = hasse_poly(PrimeContext.make(p))
        assert radical(H) == H.monic()

    def test_repeated_factor_in_J_is_refused(self):
        ctx = PrimeContext.make(101)
        J = deuring_J(ctx)
        square = J * FpPoly.make(101, [-J.coeffs[0], 1]) ** 2  # one root, taken twice
        assert square.degree == J.degree + 2
        with mock.patch.object(hasse7, "deuring_J", return_value=square):
            with pytest.raises(StructuralError, match="l=101"):
                count_factors(ctx)

    @pytest.mark.parametrize("p", [103, 101])  # r = 0 and r = 1
    def test_root_at_zero_in_J_is_refused(self, p):
        """J_l t is squarefree, and at r = 0 so is ss_l; only the J(0) term
        of the certificate refuses it there."""
        ctx = PrimeContext.make(p)
        assert ctx.r == (p % 3 == 2)
        with mock.patch.object(hasse7, "deuring_J", return_value=deuring_J(ctx) * FpPoly.x(p)):
            for run in (count_factors, counts_and_nakaya):
                with pytest.raises(StructuralError, match=rf"l={p}\b"):
                    run(ctx)


class TestCountingPath:
    """Spies, as in test_ffpoly.TestKernelAgainstSchoolbook, on the calls the
    structure-aware counting leaves out."""

    @pytest.mark.parametrize("p", ONE_PER_CLASS)
    def test_no_radical_or_divisor_test(self, p):
        spies = [
            mock.patch.object(mod, name, wraps=getattr(mod, name))
            for mod, name in (
                (ffpoly, "radical"),
                (ffpoly, "squarefree_decomposition"),
                (oracles, "divisor_points"),
                (oracles, "is_irreducible"),
            )
        ]
        ctx = PrimeContext.make(p)
        for full in (True, False):
            with spies[0] as a, spies[1] as b, spies[2] as c, spies[3] as d:
                count_factors(ctx, with_histogram=full)
            assert not any(s.called for s in (a, b, c, d)), (p, full)

    @pytest.mark.parametrize("p", ONE_PER_CLASS)
    def test_hasse_row_certifies_J_once(self, p):
        """A sweep row builds J_l once, in `ss_poly`, whose certificate is a
        gcd: no squarefree decomposition runs."""
        with mock.patch.object(
            hasse7, "deuring_J", wraps=hasse7.deuring_J
        ) as J, mock.patch.object(
            ffpoly, "squarefree_decomposition", wraps=ffpoly.squarefree_decomposition
        ) as sqf:
            row = sweep._hasse_worker((p,))
        assert J.call_count == 1 and sqf.call_count == 0
        assert row["L"] > 0  # some supersingular j lies in F_l

    def test_nakaya_row_certifies_J_once(self):
        """A nakaya row with count consistency hands the ss_p its report
        certified to the recount, so J_p is built once."""
        with mock.patch.object(hasse7, "deuring_J", wraps=hasse7.deuring_J) as J:
            row = sweep._nakaya_worker((599, False))
        assert J.call_count == 1 and "error" not in row and row["consistency"] == "PASS"

    @pytest.mark.parametrize("p", ONE_PER_CLASS)
    def test_rows_count_L_once(self, p):
        """A hasse row counts roots in F_l once, for L; a nakaya row with
        count consistency twice, for L and L7star, and its recount of the
        N-counts counts none."""
        counted = []

        def spy(f):
            counted.append(ffpoly.count_roots_in_fp(f))
            return counted[-1]

        with mock.patch.object(hasse7, "count_roots_in_fp", spy), mock.patch.object(ss7star, "count_roots_in_fp", spy):
            row = sweep._hasse_worker((p,))
            assert counted == [row["L"]]
            counted.clear()
            row = sweep._nakaya_worker((p, False))
        assert counted == [row["L"], row["L7star"]] and row["consistency"] == "PASS"

    @pytest.mark.parametrize("p", [113, 41, 2003, 1987])  # l = 1, 6 (mod 7)
    def test_no_n6_work_without_sextics(self, p):
        """The rules allow no sextic here: the traces find no factor of degree
        above 2 on any fibre over T, so N6 = 0 needs no split."""
        real, found = ffpoly.Moduli.factor_counts, []

        def spy(self, h):
            out = real(self, h)
            found.extend(c for c in out if c is not None)
            return out

        with mock.patch.object(ffpoly.Moduli, "factor_counts", autospec=True, side_effect=spy) as counts:
            rep = count_factors(PrimeContext.make(p))
        assert counts.call_count == 1 and found
        assert rep.N6 == 0 and all(max(c) <= 2 for c in found)

    @pytest.mark.parametrize("p", NEAR_2000)
    def test_one_gcd_on_hasse(self, p):
        """A certified full count runs no gcd with an operand of degree >= l
        (the Hasse polynomial has degree about 2l) and splits nothing of
        that degree: the histogram comes from the one Frobenius test on H
        and the fibre counts, and every gcd and split works on a fibre of
        degree 6, on x^2 - x + 1 or on ss_l's side."""
        with mock.patch.object(FpPoly, "gcd", autospec=True, side_effect=FpPoly.gcd) as gcd, \
                mock.patch.object(hasse7, "_ddf", wraps=hasse7._ddf) as ddf:
            rep = count_factors(PrimeContext.make(p))
        assert rep.classification_ok
        assert not [c for c in gcd.call_args_list if max(op.degree for op in c.args) >= p]
        assert all(c.args[0].degree < 6 for c in ddf.call_args_list)

    @pytest.mark.parametrize("p", NEAR_2000)
    def test_one_newton_inverse_of_hasse(self, p):
        """The two powmods and the Frobenius test reduce mod the monic Hasse
        polynomial f through the one `_Modulus` kept on f: one Newton
        inverse of f, and none of another operand of degree >= l."""
        ctx = PrimeContext.make(p)
        rev = hasse_poly(ctx).monic().coeffs[::-1]
        with mock.patch.object(ffpoly, "_inv_series", wraps=ffpoly._inv_series) as inv:
            count_factors(ctx)
        big = [tuple(map(int, c.args[1])) for c in inv.call_args_list if len(c.args[1]) > p]
        assert big == [rev]

    def test_every_division_enters_a_modulus(self):
        """Over `count_factors` at the six primes near 2000 and one nakaya
        worker at 283, every division by a non-constant `FpPoly` enters
        `_Modulus.divmod` once, and every powmod by one reduces its base there
        and each of its products through `_Modulus.residue`."""
        entered = {"divmod": 0, "residue": 0}
        modulus_divmod, modulus_residue = ffpoly._Modulus.divmod, ffpoly._Modulus.residue
        poly_divmod, poly_powmod = FpPoly.__divmod__, FpPoly.powmod
        divisions, powmods = [], []

        def counted(name, method):
            def run(self, a):
                entered[name] += 1
                return method(self, a)
            return run

        def divmod_(self, other):
            before = entered["divmod"]
            out = poly_divmod(self, other)
            if isinstance(other, FpPoly) and other.degree > 0:
                divisions.append(entered["divmod"] - before)
            return out

        def powmod(self, e, mod):
            before = dict(entered)
            out = poly_powmod(self, e, mod)
            if mod.degree > 0:
                products = bin(e).count("1") + e.bit_length() - 1
                powmods.append((entered["divmod"] > before["divmod"], entered["residue"] - before["residue"] - products))
            return out

        with mock.patch.object(ffpoly._Modulus, "divmod", counted("divmod", modulus_divmod)), \
                mock.patch.object(ffpoly._Modulus, "residue", counted("residue", modulus_residue)), \
                mock.patch.object(FpPoly, "__divmod__", divmod_), mock.patch.object(FpPoly, "powmod", powmod):
            reps = [count_factors(PrimeContext.make(p)) for p in NEAR_2000]
            row = sweep._nakaya_worker((283, False))
        assert all(rep.classification_ok for rep in reps) and "error" not in row and row["consistency"] == "PASS"
        assert len(divisions) > 50 and set(divisions) == {1}
        assert len(powmods) > 10 and set(powmods) == {(True, 0)}


class TestSplitByPowers:
    """The whole reports against routes that split the Hasse polynomial:
    `oracles.hasse_report` (a gcd of H with the product of h_d - x and one
    `_ddf` for N1, N3, the histogram and the verdict, the
    shape tests on G_T for N2 and N6) on every prime below 300,
    `oracles.edf_counts` (whose radical and full walk of the Hasse
    polynomial are slow) on the largest prime below 300 in each class l mod
    7, and the reports of every prime 11 <= l < 700 recorded in
    count_reports_below_700.json from the split of commit 7d0000f, which took
    the powers only after a passed certificate and split G afresh otherwise."""

    def test_against_ddf_and_edf_below_300(self):
        """Every report equals the split oracle's; the only splits are of
        the fibres' special pieces, each of degree below 6."""
        ddf = hasse7._ddf
        seen = []

        def checked(g):
            seen.append(g.degree)
            return ddf(g)

        primes = [p for p in primes_in(5, 300) if p != 7]
        top = {p % 7: p for p in primes}
        assert sorted(top) == [1, 2, 3, 4, 5, 6]
        with mock.patch.object(hasse7, "_ddf", side_effect=checked):
            for p in primes:
                ctx = PrimeContext.make(p)
                rep = count_factors(ctx)
                assert rep.classification_ok, p
                assert rep == oracles.hasse_report(ctx), p
                if p in top.values():
                    assert (rep.N1, rep.N2, rep.N3, rep.N6) == oracles.edf_counts(ctx), p
        assert seen and all(d < 6 for d in seen)

    @pytest.mark.parametrize("p", NEAR_2000)
    def test_equals_the_split_oracle_near_2000(self, p):
        ctx = PrimeContext.make(p)
        assert count_factors(ctx) == oracles.hasse_report(ctx)

    def test_reports_below_700_are_the_recorded_ones(self):
        """The full report, and the need-restricted ones, which hold the
        recorded counts they ask for and None elsewhere; L, counted by
        `verify_count_formulas` on the certified ss_l, is the recorded one."""
        assert [int(p) for p in COUNT_REPORTS] == primes_in(11, 699)
        for p, (n1, n2, n3, n6, L, ok, histogram) in COUNT_REPORTS.items():
            l, counts = int(p), {"N1": n1, "N2": n2, "N3": n3, "N6": n6}
            ctx = PrimeContext.make(l)
            ss = ss_poly(ctx)
            want = hasse7.FactorCountReport(
                **counts, degree_histogram={int(d): c for d, c in histogram.items()},
                classification_ok=ok)
            full = count_factors(ctx, ss=ss)
            assert full == want and verify_count_formulas(ctx, full, ss)["L"] == L, l
            for need in (("N1",), ("N2",), ("N3",), ("N6",), ("N1", "N3")):
                want = hasse7.FactorCountReport(**{k: counts[k] for k in need})
                assert count_factors(ctx, need=need, with_histogram=False, ss=ss) == want, (l, need)

    def test_full_count_takes_two_frobenius_powers(self):
        """In every class l mod 7 a full count takes two powmods mod the
        monic Hasse polynomial f, x^l and then x^(l^2), both with exponent
        l, and none mod another operand of degree >= l: no powmod chain and
        no w^(l-1).  At l = 59 (3 mod 7, r = mu = 1), full or restricted, a
        count splits only the pieces of the fibres whose residue is not
        zero, over t = 0, -1 and 27, each of degree below 6; the restricted
        counts do not build H."""
        ddf, powmod = hasse7._ddf, FpPoly.powmod
        runs = []

        def ddf_spy(g):
            runs.append(g.degree)
            return ddf(g)

        def powmod_spy(self, e, mod):
            if mod.degree >= p:
                on_f.append((e, mod == f))
            return powmod(self, e, mod)

        with mock.patch.object(FpPoly, "powmod", powmod_spy):
            for p in ONE_PER_CLASS:
                ctx = PrimeContext.make(p)
                f, on_f = hasse_poly(ctx).monic(), []
                count_factors(ctx)
                assert on_f == [(p, True)] * 2, p
        ctx = PrimeContext.make(59)
        assert (ctx.r, ctx.mu7) == (1, 1)
        with mock.patch.object(hasse7, "_ddf", ddf_spy):
            full = count_factors(ctx)
            with mock.patch.object(hasse7, "hasse_poly", side_effect=AssertionError("H built")):
                n3 = count_factors(ctx, need=("N1", "N3"), with_histogram=False)
                n6 = count_factors(ctx, need=("N6",), with_histogram=False)
        assert len(runs) == 9 and all(0 < d < 6 for d in runs)
        assert (n3.N1, n3.N3, n6.N6) == (full.N1, full.N3, full.N6) and n3.N3 > 0 and n6.N6 > 0


class TestFailedCertificate:
    """A factor of a degree the rules forbid fails the Frobenius test on H:
    at e = 2 one whose degree does not divide 2 fails x^(l^2) = x mod f; at
    e = 6 a quartic, a linear factor or a quadratic other than x^2 - x + 1
    fails ((1 - x) h - 1)(x h - (x - 1)) = 0 mod f, h = x^(l^2), and a root
    of x^2 - x + 1 at r = 0, which passes it, fails gcd(q, f mod q) = 1.
    The split then decides: the classification is a hard FAIL and the
    histogram shows the degree, while the counts, read off the fibres, stay
    as they were.  A test that fails on a good H leaves the verdict to the
    split too, which PASSes it."""

    @staticmethod
    def _with_extra_factor(p, degree, capsys, extra=None):
        """An irreducible factor prime to the Hasse polynomial joins it (by
        default x^degree + x + c, x + c at degree 1): the hasse row FAILs,
        with the counts of the unchanged row, and the histogram gains one
        factor of that degree."""
        ctx = PrimeContext.make(p)
        H = hasse_poly(ctx)
        extra = extra or next(
            q
            for q in (FpPoly.make(p, [c, 1] + [0] * (degree - 2) + [1] * (degree > 1)) for c in range(p))
            if set(ffpoly._ddf(q)) == {degree} and H.gcd(q).degree == 0
        )
        assert extra.degree == degree and H.gcd(extra).degree == 0
        base, base_formulas = verified_report(ctx)
        with mock.patch.object(hasse7, "hasse_poly", return_value=H * extra):
            rep, formulas = verified_report(ctx)
            assert cli.main(["hasse", "--primes", str(p)]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert formulas["verdicts"]["factor_types"] == "FAIL"
        assert base_formulas["verdicts"]["factor_types"] == "PASS"
        histogram = dict(base.degree_histogram)
        histogram[degree] = histogram.get(degree, 0) + 1
        assert rep.degree_histogram == histogram
        assert (rep.N1, rep.N2, rep.N3, rep.N6) == (base.N1, base.N2, base.N3, base.N6)

    @pytest.mark.parametrize("p", [41, 59])  # e = 2, e = 6
    def test_extra_quartic(self, p, capsys):
        self._with_extra_factor(p, 4, capsys)

    @pytest.mark.parametrize("degree", [2, 1])
    def test_extra_factor_failing_the_product_test(self, degree, capsys):
        """At l = 59 (e = 6, r = 1) the roots b of a linear factor, or of a
        quadratic other than x^2 - x + 1, have b^(l^2) = b, and b is not
        fixed by tau(x) = 1/(1 - x) or tau^2, whose fixed points are the
        roots of x^2 - x + 1: the product test fails."""
        self._with_extra_factor(59, degree, capsys)

    def test_root_of_x2_x_1_at_r_0(self, capsys):
        """At l = 37 (e = 6, r = 0) x^2 - x + 1 splits, and its root rho has
        tau(rho) = rho = rho^(l^2): x - rho joined to H passes the product
        test, and only gcd(q, f mod q) = 1 fails.  Without that check the
        degree arithmetic would count x - rho as part of a sextic."""
        p = 37
        assert PrimeContext.make(p).r == 0 and p % 7 in (2, 3, 4, 5)
        rho = next(c for c in range(p) if (c * c - c + 1) % p == 0)
        self._with_extra_factor(p, 1, capsys, FpPoly.make(p, [-rho, 1]))

    @pytest.mark.parametrize("p", ONE_PER_CLASS)
    def test_a_failed_test_on_a_good_hasse_polynomial(self, p):
        """x^(l^2) mod f made wrong (the second powmod mod f adds 1): the
        test fails on a good H, f is split, and the whole report is still
        the split oracle's, with the classification PASS."""
        ctx = PrimeContext.make(p)
        f = hasse_poly(ctx).monic()
        powmod, on_f = FpPoly.powmod, []

        def wrong_second(self, e, mod):
            out = powmod(self, e, mod)
            if mod == f:
                on_f.append(e)
                if len(on_f) == 2:
                    return out + 1
            return out

        with mock.patch.object(FpPoly, "powmod", wrong_second), \
                mock.patch.object(hasse7, "_ddf", wraps=hasse7._ddf) as ddf:
            rep = count_factors(ctx)
        assert f in [c.args[0] for c in ddf.call_args_list]
        assert rep.classification_ok and rep == oracles.hasse_report(ctx)


class TestBResidue:
    """B(a, b) = 0 on every quadratic factor, checked mod a whole stack of
    sextics at once: (h - x) B(-(x + h), x h) with h = x^l vanishes mod a
    sextic whose factors are linear and quadratic exactly when every
    quadratic has B(a, b) = 0; the oracle splits each sextic and reads B on
    each factor."""

    @pytest.mark.parametrize("l", [29, 41, 43, 83])
    def test_against_split_oracle(self, l):
        rng = random.Random(l)
        irreducible = [(a, b) for a in range(l) for b in range(l) if kronecker(a * a - 4 * b, l) == -1]
        on_b = [q for q in irreducible if oracles.b_value(l, *q) == 0]
        off_b = [q for q in irreducible if oracles.b_value(l, *q) != 0]
        assert on_b and off_b
        rows, want = [], []
        for _ in range(40):
            k = rng.randrange(1, 4)
            picks = rng.sample(on_b, k - rng.randrange(0, k)) if rng.randrange(2) else rng.sample(on_b, k)
            picks += rng.sample(off_b, k - len(picks))
            q = FpPoly.one(l)
            for a, b in picks:
                q = q * FpPoly.make(l, [b, a, 1])
            for c in rng.sample(range(l), 6 - q.degree):
                q = q * FpPoly.make(l, [-c, 1])
            rows.append(q.coeffs)
            want.append(all(oracles.b_value(l, g.coeffs[1], g.coeffs[0]) == 0 for g in ffpoly._edf(
                ffpoly._ddf(q)[2], 2)))
        stack = ffpoly.Moduli(l, np.array(rows, dtype=np.int64))
        x = stack.residues(FpPoly.x(l))
        h = x ** l
        assert ((h - x) * C.b_form(-(x + h), x * h)).is_zero() == want
        assert set(want) == {True, False}

    @pytest.mark.parametrize("l", [41, 43, 83])
    def test_wrong_family_is_refused(self, l):
        """A quadratic with B(a, b) != 0 over T is refused by the N2 count.
        No fibre f_7(x, t) has one (sigma_alpha preserves t), so one is
        planted: a sextic with such a factor takes the place of the fibre
        over a t added to T, and the Hasse polynomial gains it as a factor.
        The traces give its factor counts, the stacked B test fails on it,
        and its split counts fewer B-quadratics than quadratics."""
        ctx = PrimeContext.make(l)
        ss = ss_poly(ctx)
        T = hasse7.resultant_roots_in_fp(ss, -FpPoly.make(l, C.R7_A), FpPoly.make(l, C.R7_B))
        t = min(set(range(l)) - set(T))
        a, b = next((a, b) for a in range(l) for b in range(l)
                    if kronecker(a * a - 4 * b, l) == -1 and oracles.b_value(l, a, b))
        planted = FpPoly.make(l, [b, a, 1]) * FpPoly.make(l, [0, 1]) * FpPoly.make(l, [1, 1]) \
            * FpPoly.make(l, [2, 1]) * FpPoly.make(l, [3, 1])
        real = hasse7._hasse_pieces

        def pieces(ctx):
            c, u, den, extra = real(ctx)
            return c, u, den, extra * planted

        class Planted(ffpoly.Moduli):
            @classmethod
            def pencil(cls, l, n, m, ts):
                stack = ffpoly.Moduli.pencil(l, n, m, ts)
                stack.f[list(ts).index(t)] = planted.coeffs
                return stack

        assert count_factors(ctx, need=("N2",), with_histogram=False, ss=ss).N2 > 0
        with mock.patch.object(hasse7, "resultant_roots_in_fp", return_value=sorted(T + [t])), \
                mock.patch.object(hasse7, "_hasse_pieces", pieces), mock.patch.object(hasse7, "Moduli", Planted):
            with pytest.raises(StructuralError, match=r"violates B\(a, b\) = 0"):
                count_factors(ctx, need=("N2",), with_histogram=False, ss=ss)


class TestFactorTypeRules:
    def test_l29_all_quadratic(self):
        rep = count_factors(PrimeContext.make(29))
        assert set(d for d, c in rep.degree_histogram.items() if c) == {2}
        assert rep.classification_ok

    def test_l13_linear_quadratic_only(self):
        rep = count_factors(PrimeContext.make(13))
        assert set(rep.degree_histogram) <= {1, 2}

    def test_l5_shape(self):
        rep = count_factors(PrimeContext.make(5))
        assert set(rep.degree_histogram) <= {2, 3, 6}


class TestCountFormulas:
    def test_spec_rows(self):
        _, v41 = verified_report(PrimeContext.make(41))
        assert v41["h_minus_7l"] == 14 and v41["verdicts"]["quadratic_formula"] == "PASS"
        n13, v13 = verified_report(PrimeContext.make(13))
        assert n13.N1 == 6 and v13["L"] == 1 and v13["verdicts"]["six_L"] == "PASS"
        n17, v17 = verified_report(PrimeContext.make(17))
        assert n17.N3 == 4 and v17["formula_N3"] == 4 and v17["verdicts"]["count_formula"] == "PASS"

    def test_modular_constraints(self):
        # N1 = 0 mod 6 when l = 6 (7); N3 = 0 mod 2 when l = 3,5 (7)
        for p in SWEEP_PRIMES[:40]:
            rep = count_factors(PrimeContext.make(p), need=("N1", "N3"))
            if p % 7 == 6:
                assert rep.N1 % 6 == 0
            if p % 7 in (3, 5):
                assert rep.N3 % 2 == 0


class TestSpecialFactorizations:
    def test_in_hypothesis_primes(self):
        assert verify_special_factorizations(PrimeContext.make(41))["f0"] == "PASS"
        assert verify_special_factorizations(PrimeContext.make(5))["f0"] == "PASS"
        r19 = verify_special_factorizations(PrimeContext.make(19))
        assert r19["f1728"] == "PASS" and r19["psv_split"] == "PASS"
        r83 = verify_special_factorizations(PrimeContext.make(83))
        assert r83 == {"f0": "PASS", "f1728": "PASS", "psv_split": "PASS"}

    def test_out_of_hypothesis_skips(self):
        assert verify_special_factorizations(PrimeContext.make(11))["f0"] == "SKIP"  # 11 = 4 mod 7
        assert verify_special_factorizations(PrimeContext.make(29))["f0"] == "SKIP"  # 29 = 1 mod 7

    def test_sweep_all_pass_or_skip(self):
        for p in SWEEP_PRIMES:
            r = verify_special_factorizations(PrimeContext.make(p))
            assert all(v in ("PASS", "SKIP") for v in r.values()), (p, r)

    def test_g_factor_counts(self):
        assert verify_g_factor_counts(PrimeContext.make(13))["status"] == "PASS"
        assert verify_g_factor_counts(PrimeContext.make(5))["status"] == "PASS-VACUOUS"
        assert verify_g_factor_counts(PrimeContext.make(83))["status"] == "PASS"
        for p in SWEEP_PRIMES[:30]:
            status = verify_g_factor_counts(PrimeContext.make(p))["status"]
            if p % 7 in (3, 5, 6):
                assert status.startswith("PASS"), p
            else:
                assert status == "SKIP", p


class TestStructuralProperties:
    def test_cubic_factors_have_g_shape(self):
        """Every irreducible cubic factor is x^3 + a x^2 - (a+3) x + 1."""
        for p in (5, 17, 19, 61, 101, 103):
            ctx = PrimeContext.make(p)
            if p % 7 not in (3, 5):
                continue
            H = hasse_poly(ctx)
            from fricke7.ffpoly import radical

            for f, _ in factorize(radical(H)).factors:
                if f.degree == 3:
                    a = f.coeffs[2]
                    assert f.coeffs[1] == (-(a + 3)) % p, (p, f)
                    assert f.coeffs[0] == 1

    def test_sextic_factors_tie_to_f7(self):
        for p in (11, 23, 101):
            ctx = PrimeContext.make(p)
            H = hasse_poly(ctx)
            from fricke7.ffpoly import radical

            for f, _ in factorize(radical(H)).factors:
                if f.degree == 6:
                    t = (-f.coeffs[5] - 3) % p
                    cand = FpPoly.make(p, C.expand_f7(t))
                    if f == cand:
                        assert H % cand == FpPoly.make(p, [])

    def test_root_set_closed_under_g7_maps(self):
        """Roots of the squarefree part are permuted by phi, and by T_alpha when
        the p-cubic splits mod l."""
        from fricke7.ffpoly import radical

        for p in (13, 29, 41, 43):
            ctx = PrimeContext.make(p)
            sf = radical(hasse_poly(ctx)).monic()
            n = sf.degree
            # phi: sum c_k (1-x)^(n-k) built from sf's coefficients
            acc = FpPoly.make(p, [])
            omx = FpPoly.make(p, [1, -1])
            for k, c in enumerate(sf.coeffs):
                if c:
                    acc = acc + c * omx ** (n - k)
            assert acc.monic() == sf, f"phi does not permute roots at {p}"
            if p % 7 in (1, 6):
                alphas = distinct_roots_in_fp(FpPoly.make(p, C.P_CUBIC))
                assert len(alphas) == 3
                alpha = alphas[0]
                accT = FpPoly.make(p, [])
                num = FpPoly.make(p, [-alpha, 1])
                den = FpPoly.make(p, [-1, 1 - alpha])
                for k, c in enumerate(sf.coeffs):
                    if c:
                        accT = accT + c * num**k * den ** (n - k)
                assert accT.monic() == sf, f"T_alpha does not permute roots at {p}"

    def test_psv_parity_of_F(self):
        """(disc_z F(z, a) / l) = (-7/l) = (-1)^(number of irreducible factors)."""
        rng = random.Random(17)
        for p in (11, 13, 23, 41, 83):
            for _ in range(6):
                a = rng.randrange(2, p)
                if a % p in (0, 1728 % p):
                    continue
                fz = FpPoly.make(p, C.F_Z_NUM) - a * FpPoly.make(p, [-8, 1])
                fac = factorize(fz)
                if any(m > 1 for _, m in fac.factors):
                    continue  # PSV needs a separable polynomial
                assert kronecker(-7, p) == (-1) ** len(fac.factors), (p, a)


def test_L_count_examples():
    assert distinct_roots_in_fp(ss_poly(PrimeContext.make(5))) == [0]
    assert distinct_roots_in_fp(ss_poly(PrimeContext.make(13))) == [5]
    assert verified_report(PrimeContext.make(41))[1]["L"] == 4


def test_g_of_x_j_values():
    # G(0, j) = G(1, j) = 1 for every j
    for p, j in ((13, 5), (83, 17)):
        G = g_of_x_j(p, j)
        assert G(0) == 1 and G(1) == 1
