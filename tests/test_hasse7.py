import json
import math
import random
from pathlib import Path
from unittest import mock

import pytest

import oracles
from fricke7 import constants as C
from fricke7 import cli, ffpoly, hasse7, ss7star, sweep
from fricke7.classnum import kronecker
from fricke7.errors import StructuralError
from fricke7.ffpoly import FpPoly, PrimeContext, distinct_roots_in_fp, factorize, radical
from fricke7.hasse7 import (
    count_factors,
    deuring_J,
    hasse_poly,
    ss_poly,
    verify_count_formulas,
)
from fricke7.ss7star import L7STAR_NEED, counts_and_nakaya
from fricke7.sweep import primes_in
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
        assert H % f0 == FpPoly.zero(11) and H % f1728 == FpPoly.zero(11)

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
        """The rules allow no sextic here: the count builds no f_7 pair."""
        with mock.patch.object(hasse7, "_f7_pair", wraps=hasse7._f7_pair) as f7:
            rep = count_factors(PrimeContext.make(p))
        assert rep.N6 == 0 and not f7.called

    @pytest.mark.parametrize("p", NEAR_2000)
    def test_one_gcd_on_hasse(self, p):
        """A full count runs one gcd with an operand of degree >= l (the Hasse
        polynomial has degree about 2l); the distinct-degree split that follows
        works on that gcd's small output.  Only l = 2..5 (mod 7) builds the
        f_7 pair, and only l = 1, 6 takes the roots of the p-cubic."""
        cubic = FpPoly.make(p, C.P_CUBIC)
        with mock.patch.object(
            FpPoly, "gcd", autospec=True, side_effect=FpPoly.gcd
        ) as gcd, mock.patch.object(
            hasse7, "_f7_pair", wraps=hasse7._f7_pair
        ) as f7, mock.patch.object(
            hasse7, "distinct_roots_in_fp", wraps=hasse7.distinct_roots_in_fp
        ) as roots:
            rep = count_factors(PrimeContext.make(p))
        big = [c for c in gcd.call_args_list if max(op.degree for op in c.args) >= p]
        assert len(big) == 1
        sextics_allowed = p % 7 in (2, 3, 4, 5)
        assert f7.called == sextics_allowed
        assert any(c.args == (cubic,) for c in roots.call_args_list) != sextics_allowed
        assert rep.classification_ok


    @pytest.mark.parametrize("p", NEAR_2000)
    def test_one_newton_inverse_of_hasse(self, p):
        """The powmod chain, the table of h_1^k and the test product all reduce
        mod the Hasse polynomial f through the one `_Modulus` kept on f."""
        ctx = PrimeContext.make(p)
        rev = hasse_poly(ctx).monic().coeffs[::-1]
        with mock.patch.object(ffpoly, "_inv_series", wraps=ffpoly._inv_series) as inv:
            count_factors(ctx)
        of_f = [c for c in inv.call_args_list if tuple(map(int, c.args[1])) == rev]
        assert len(of_f) == 1

    def test_every_division_enters_a_modulus(self):
        """Over one `count_factors` at l = 1999 and one nakaya worker at 283,
        every division by a non-constant `FpPoly` enters `_Modulus.divmod`
        once, and every powmod by one reduces its base there and each of its
        products through `_Modulus.residue`."""
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
            rep = count_factors(PrimeContext.make(1999))
            row = sweep._nakaya_worker((283, False))
        assert rep.classification_ok and "error" not in row and row["consistency"] == "PASS"
        assert len(divisions) > 50 and set(divisions) == {1}
        assert len(powmods) > 10 and set(powmods) == {(True, 0)}


class TestSplitByPowers:
    """G is split by one `_ddf(G, powers)` with the powers x^(l^d) mod f that
    the count already holds.  Oracles: the plain `_ddf(G)` on every prime
    below 300, `oracles.edf_counts` (whose radical and full walk of the Hasse
    polynomial are slow) on the largest prime below 300 in each class l mod 7,
    and the reports of every prime 11 <= l < 700 recorded in
    count_reports_below_700.json from the split of commit 7d0000f, which took
    the powers only after a passed certificate and split G afresh otherwise."""

    def test_against_ddf_and_edf_below_300(self):
        ddf = hasse7._ddf
        seen = []

        def checked(g, powers=()):
            parts = ddf(g, powers)
            assert parts == ffpoly._ddf(g)
            seen.append(g.modulus)
            return parts

        primes = [p for p in primes_in(5, 300) if p != 7]
        top = {p % 7: p for p in primes}
        assert sorted(top) == [1, 2, 3, 4, 5, 6]
        with mock.patch.object(hasse7, "_ddf", side_effect=checked):
            for p in primes:
                ctx = PrimeContext.make(p)
                rep = count_factors(ctx)
                assert rep.classification_ok, p
                if p in top.values():
                    assert (rep.N1, rep.N2, rep.N3, rep.N6) == oracles.edf_counts(ctx), p
        assert seen == primes

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
                l=l, **counts, degree_histogram={int(d): c for d, c in histogram.items()},
                classification_ok=ok)
            full = count_factors(ctx, ss=ss)
            assert full == want and verify_count_formulas(ctx, full, ss).L == L, l
            for need in (("N1",), ("N2",), ("N3",), ("N6",), ("N1", "N3")):
                want = hasse7.FactorCountReport(l=l, **{k: counts[k] for k in need})
                assert count_factors(ctx, need=need, with_histogram=False, ss=ss) == want, (l, need)

    def test_restricted_split_takes_the_given_powers(self):
        """At l = 59 (3 mod 7) the N1/N3 count holds h_d = x^(l^d) mod f for
        d <= 3, and G = gcd(f, h_3 - x) has only cubic factors: its split
        takes one gcd, at d = 1, and no powmod.  The N6 count holds h_1 alone:
        step 1 takes it, and only the later steps run a powmod."""
        ctx = PrimeContext.make(59)
        ddf, powmod, gcd = hasse7._ddf, FpPoly.powmod, FpPoly.gcd
        runs, log = [], None

        def ddf_spy(g, powers=()):
            nonlocal log
            log = []
            try:
                return ddf(g, powers)
            finally:
                runs.append((len(powers) - 1, log))
                log = None

        def powmod_spy(self, e, mod):
            if log is not None:
                log.append("powmod")
            return powmod(self, e, mod)

        def gcd_spy(self, other):
            if log is not None:
                log.append("gcd")
            return gcd(self, other)

        with mock.patch.object(hasse7, "_ddf", ddf_spy), mock.patch.object(FpPoly, "powmod", powmod_spy), \
                mock.patch.object(FpPoly, "gcd", gcd_spy):
            n3 = count_factors(ctx, need=("N1", "N3"), with_histogram=False)
            assert runs == [(3, ["gcd"])] and n3.N3 > 0
            runs.clear()
            n6 = count_factors(ctx, need=("N6",), with_histogram=False)
        ((e, steps),) = runs
        assert e == 1 and n6.N6 > 0
        assert steps[0] == "gcd" and steps.count("powmod") == steps.count("gcd") - 1 > 0
        assert (n3.N3, n6.N6) == (count_factors(ctx).N3, count_factors(ctx).N6)


class TestFailedCertificate:
    """A factor degree that does not divide e (2 or 6) fails the certificate
    x^(l^e) = x mod f: the classification is a hard FAIL and the histogram
    shows the degree, while the counts stay as they were."""

    @pytest.mark.parametrize("p", [41, 59])  # e = 2, e = 6
    def test_extra_quartic(self, p, capsys):
        ctx = PrimeContext.make(p)
        H = hasse_poly(ctx)
        quartic = next(
            q
            for q in (FpPoly.make(p, [c, 1, 0, 0, 1]) for c in range(p))
            if set(ffpoly._ddf(q)) == {4} and H.gcd(q).degree == 0
        )
        base = verified_report(ctx)
        with mock.patch.object(hasse7, "hasse_poly", return_value=H * quartic):
            rep = verified_report(ctx)
            assert cli.main(["hasse", "--primes", str(p)]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert rep.verdicts["factor_types"] == "FAIL"
        assert base.verdicts["factor_types"] == "PASS"
        assert rep.degree_histogram == {**base.degree_histogram, 4: 1}
        assert (rep.N1, rep.N2, rep.N3, rep.N6) == (base.N1, base.N2, base.N3, base.N6)


class TestBResidue:
    """`_b_residue` checks B(a, b) = 0 on every quadratic of a product at once,
    and its gcd with the product counts the quadratics with B(a, b) = 0; the
    oracle splits the product and reads B on each factor."""

    @pytest.mark.parametrize("l", [29, 41, 43, 83])
    def test_against_split_oracle(self, l):
        rng = random.Random(l)
        irreducible = [(a, b) for a in range(l) for b in range(l) if kronecker(a * a - 4 * b, l) == -1]
        on_b = [q for q in irreducible if oracles.b_value(l, *q) == 0]
        off_b = [q for q in irreducible if oracles.b_value(l, *q) != 0]
        assert on_b and off_b
        seen = set()
        for _ in range(40):
            picks = rng.sample(on_b, rng.randrange(1, 5)) + rng.sample(off_b, rng.randrange(0, 3))
            q = FpPoly.one(l)
            for a, b in picks:
                q = q * FpPoly.make(l, [b, a, 1])
            h = FpPoly.x(l).powmod(l, q)
            on = [oracles.b_value(l, g.coeffs[1], g.coeffs[0]) == 0 for g in ffpoly._edf(q, 2)]
            split = all(on)
            residue = hasse7._b_residue(q, h)
            assert residue.is_zero == split, picks
            assert q.gcd(residue).degree // 2 == sum(on), picks
            seen.add(split)
        assert seen == {True, False}

    @pytest.mark.parametrize("l", [41, 43, 83])
    def test_wrong_family_is_refused(self, l):
        """Shifting the family roots to alpha + 1 brings quadratics with
        B(a, b) != 0 into the family part, and the count refuses them."""
        roots = hasse7.distinct_roots_in_fp
        cubic = FpPoly.make(l, C.P_CUBIC)

        def shifted(f):
            return [(a + 1) % l for a in roots(f)] if f == cubic else roots(f)

        with mock.patch.object(hasse7, "distinct_roots_in_fp", side_effect=shifted):
            with pytest.raises(StructuralError, match=r"violates B\(a, b\) = 0"):
                count_factors(PrimeContext.make(l))


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
        v41 = verified_report(PrimeContext.make(41))
        assert v41.h_minus_7l == 14 and v41.verdicts["quadratic_formula"] == "PASS"
        v13 = verified_report(PrimeContext.make(13))
        assert v13.N1 == 6 and v13.L == 1 and v13.verdicts["six_L"] == "PASS"
        v17 = verified_report(PrimeContext.make(17))
        assert v17.N3 == 4 and v17.formula_N3 == 4 and v17.verdicts["count_formula"] == "PASS"

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
                        assert H % cand == FpPoly.zero(p)

    def test_root_set_closed_under_g7_maps(self):
        """Roots of the squarefree part are permuted by phi, and by T_alpha when
        the p-cubic splits mod l."""
        from fricke7.ffpoly import radical

        for p in (13, 29, 41, 43):
            ctx = PrimeContext.make(p)
            sf = radical(hasse_poly(ctx)).monic()
            n = sf.degree
            # phi: sum c_k (1-x)^(n-k) built from sf's coefficients
            acc = FpPoly.zero(p)
            omx = FpPoly.make(p, [1, -1])
            for k, c in enumerate(sf.coeffs):
                if c:
                    acc = acc + c * omx ** (n - k)
            assert acc.monic() == sf, f"phi does not permute roots at {p}"
            if p % 7 in (1, 6):
                alphas = distinct_roots_in_fp(FpPoly.make(p, C.P_CUBIC))
                assert len(alphas) == 3
                alpha = alphas[0]
                accT = FpPoly.zero(p)
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
    assert verified_report(PrimeContext.make(41)).L == 4


def test_g_of_x_j_values():
    # G(0, j) = G(1, j) = 1 for every j
    for p, j in ((13, 5), (83, 17)):
        G = g_of_x_j(p, j)
        assert G(0) == 1 and G(1) == 1
