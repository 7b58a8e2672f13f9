import random

import pytest

from fricke7 import constants as C
from fricke7.errors import StructuralError
from fricke7.qseries import (
    LaurentSeries,
    classical_j_series,
    constant,
    eta_quotient4,
    from_polynomial,
    h_series,
    hA_series,
    hm1_series,
    j7star_series,
    s_series,
    t_series,
    verify_series_identity,
)


def is_zero_through(series: LaurentSeries) -> bool:
    """Every coefficient in the window of `series` is zero."""
    return all(c == 0 for c in series.coeffs)


class TestReferenceExpansions:
    def test_h_expansion(self):
        h = h_series(16)
        lead, coeffs = C.REF_H
        for i, c in enumerate(coeffs):
            assert h.coefficient(lead + i) == c
        assert h.coefficient(3) == 0  # the q^3 coefficient vanishes

    def test_eta_quotient(self):
        e = eta_quotient4(16)
        lead, coeffs = C.REF_ETA4
        for i, c in enumerate(coeffs):
            assert e.coefficient(lead + i) == c

    def test_j7star(self):
        j7 = j7star_series(12)
        lead, coeffs = C.REF_J7STAR
        for i, c in enumerate(coeffs):
            assert j7.coefficient(lead + i) == c

    def test_s_leading_pattern(self):
        s = s_series(16)
        lead, coeffs = C.REF_S
        for i, c in enumerate(coeffs):
            assert s.coefficient(lead + 7 * i) == c
        # all exponents are = -3 mod 7
        for i, c in enumerate(s.coeffs):
            if c:
                assert (s.offset + i) % 7 == 4

    def test_hm1_plus_one_is_h(self):
        m = 40
        assert is_zero_through(hm1_series(m) + 1 - h_series(m))

    def test_reciprocal_identity(self):
        e = eta_quotient4(40)
        assert is_zero_through(e * (49 * e.inverse()) - 49)


class TestArithmetic:
    def test_division_round_trip(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(8, 24)
            a_coeffs = [rng.choice([1, -1])] + [rng.randint(-9, 9) for _ in range(n - 1)]
            b_coeffs = [rng.choice([1, -1])] + [rng.randint(-9, 9) for _ in range(n - 1)]
            a = LaurentSeries(1, rng.randint(-3, 3), tuple(a_coeffs))
            b = LaurentSeries(1, rng.randint(-3, 3), tuple(b_coeffs))
            q = a / b
            assert is_zero_through((q * b) - a)

    def test_inverse_requires_unit(self):
        with pytest.raises(StructuralError):
            LaurentSeries(1, 0, (2, 1, 1)).inverse()

    def test_scale_conversion_guard(self):
        s = s_series(12)
        with pytest.raises(StructuralError):
            s.to_scale1()  # offset -3 is not a multiple of 7
        ok = (s * s * s * s * s * s * s).to_scale1()  # s^7 has pure q exponents
        assert ok.scale == 1

    def test_down_up_round_trip(self):
        h = h_series(12)
        again = h.to_scale7().to_scale1()
        assert is_zero_through(again - h)

    def test_polynomial_evaluation(self):
        h = h_series(12)
        direct = h * h - h + 1
        via = from_polynomial((1, -1, 1), h)
        assert is_zero_through(direct - via)

    def test_coefficient_window_guard(self):
        h = h_series(8)
        with pytest.raises(IndexError):
            h.coefficient(10**6)


class TestRegistry:
    @pytest.mark.parametrize(
        "case_id",
        ["ETA_H", "KLEIN", "ST2H", "HM1_PROD", "H_A_RATIO", "Z_DEF", "J7STAR", "F7_VANISH"],
    )
    def test_case_passes_at_80(self, case_id):
        res = verify_series_identity(case_id, 80)
        assert res.ok and (res.checked_terms >= 80 or case_id == "J7STAR")

    def test_j_series_oracles(self):
        for case_id in ("J_TAU", "J_7TAU"):
            res = verify_series_identity(case_id, 50)
            assert res.ok and res.checked_terms >= 50

    def test_min_precision_enforced(self):
        with pytest.raises(ValueError):
            verify_series_identity("ETA_H", 5)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            verify_series_identity("NOPE", 50)

    def test_detects_wrong_constant(self):
        # mutate: compare h(h-1) eta^4 against a wrong cubic; must fail fast
        m = 40
        h = h_series(m)
        e = eta_quotient4(m)
        residual = e * h * (h - 1) - from_polynomial((1, 5, -8, 2), h)
        assert residual.first_nonzero_exponent() is not None


def test_classical_j_values():
    j = classical_j_series(4)
    assert j.coefficient(-1) == 1
    assert j.coefficient(0) == 744
    assert j.coefficient(1) == 196884
    assert j.coefficient(2) == 21493760


def test_t_series_offset():
    t = t_series(10)
    assert t.offset == -2 and t.coefficient(-2) == 1
