import mpmath as mp
import pytest

from fricke7 import constants as C
from fricke7.cmeval import (
    CMPoint,
    eval_h,
    eval_h_tau,
    select_w,
    verify_pd_factorization,
    verify_pd_root,
    verify_psi7_factorization,
    verify_psi7_root,
)
from fricke7.qseries import MIN_PREC, REGISTRY, h_series, verify_series_identity


class TestSelectW:
    def test_paper_discriminants(self):
        assert select_w(20).v == 34   # w = 17 + sqrt(-5)
        assert select_w(52).v == 12   # w = 6 + sqrt(-13)
        assert select_w(68).v == 18   # w = 9 + sqrt(-17)
        assert select_w(83).v == 41

    def test_norm_divisible_by_49(self):
        for d in (20, 52, 68, 83, 164):
            pt = select_w(d)
            assert pt.norm % 49 == 0

    def test_d7_rejected(self):
        # N(w) = 0 (mod 49) forces 7 | v and then 49 | 7, impossible
        with pytest.raises(ValueError):
            select_w(7)

    def test_cmpoint_validation(self):
        with pytest.raises(ValueError):
            CMPoint(d=20, v=33)  # parity
        with pytest.raises(ValueError):
            CMPoint(d=20, v=2)  # norm not divisible by 49

    def test_psi7_point_is_admissible(self):
        d, v = C.PSI7_CM_POINT
        pt = CMPoint(d=d, v=v)
        assert (pt.v, pt.d) == (58, 164) and pt.norm % 49 == 0


class TestEvalH:
    def test_series_vs_product_at_10i(self):
        """tau = 10i comes from the admissible point d = 19600, v = 0."""
        pt = CMPoint(d=19600, v=0)
        val = eval_h(pt, bits=256)
        with mp.workprec(360):
            q = mp.exp(-20 * mp.pi)
            h = h_series(12)
            approx = mp.mpf(0)
            for i, c in enumerate(h.coeffs):
                approx += c * q ** (h.offset + i)
            # series truncation at q^11 is ~1e-300 here; the certified product
            # error dominates (the value itself is ~2e27)
            assert abs(val.value - approx) <= val.abs_err + mp.mpf(10) ** -100

    def test_shifted_tau_is_finite_and_consistent(self):
        v1 = eval_h_tau(mp.mpc(0, 2), bits=200)
        v2 = eval_h_tau(mp.mpc(1, 2), bits=200)  # tau + 1: q unchanged
        assert abs(v1.value - v2.value) < mp.mpf(10) ** -40

    def test_precision_unreachable(self):
        with pytest.raises(ValueError):
            eval_h_tau(mp.mpc(0, 0.001), bits=200)

    def test_error_bound_is_certified(self):
        pt = select_w(20)
        lo = eval_h(pt, bits=150)
        hi = eval_h(pt, bits=400)
        assert abs(lo.value - hi.value) <= lo.abs_err + hi.abs_err


class TestPdRoots:
    @pytest.mark.parametrize("d", [20, 52, 68, 83])
    def test_root_at_300_bits(self, d):
        v = verify_pd_root(d, bits=300)
        assert v.ok and v.residual < 1e-30

    def test_psi7_root(self):
        v = verify_psi7_root(bits=300)
        assert v.ok and v.residual < 1e-30 and v.v == 58

    def test_unknown_d(self):
        with pytest.raises(KeyError):
            verify_pd_root(11)


def test_wrong_h_exponents_fail_the_h_cases_and_pd_root(monkeypatch):
    """`qseries.h_series` and `eval_h_tau` read the one h-product table: with
    the exponent of class 2 miscopied, every q-series case built on h fails
    (J7STAR alone does not use h), and so does the P_d root check."""
    wrong = tuple((res, 1 if res == 2 else e) for res, e in C.H_EXPONENTS)
    monkeypatch.setattr(C, "H_EXPONENTS", wrong)
    failed = [case for case in REGISTRY if not verify_series_identity(case, MIN_PREC).ok]
    assert failed == [case for case in REGISTRY if case != "J7STAR"]
    assert not verify_pd_root(20).ok


class TestFactorizations:
    @pytest.mark.parametrize("d,l", [(20, 5), (52, 13), (68, 17), (83, 83)])
    def test_pd_mod_l(self, d, l):
        r = verify_pd_factorization(d, l)
        assert r["reference_ok"] and r["pattern_ok"]

    def test_psi7_mod_41(self):
        assert verify_psi7_factorization()

    def test_unknown_pair(self):
        with pytest.raises(KeyError):
            verify_pd_factorization(20, 13)
