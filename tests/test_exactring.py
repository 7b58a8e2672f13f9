import random
from fractions import Fraction

import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fricke7 import exactring
from fricke7.exactring import (
    CubicNum,
    MPoly,
    discriminant,
    homogenize,
    pderiv,
    pdeg,
    peval,
    pmul,
    ppow,
    ptrim,
    resultant,
)
from fricke7.ffpoly import FpPoly


def mul_matrix(a: CubicNum):
    """3x3 rational matrix of multiplication by a on the basis 1, r, r^2."""
    cols = []
    for basis in (CubicNum(1), CubicNum.gen(), CubicNum.gen() ** 2):
        cols.append((a * basis).c)
    # columns are images; return row-major matrix
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def eval_all(p: MPoly, point):
    """Full evaluation of p at `point` (variable name -> value); returns a
    coefficient-ring element."""
    out = 0
    for e, c in p.terms.items():
        t = c
        for name, k in zip(p.vars, e):
            if k:
                t = t * point[name] ** k
        out = out + t
    return out


small_poly = st.lists(st.integers(-20, 20), min_size=2, max_size=7).map(
    lambda c: ptrim(list(c))
)


@settings(max_examples=150, deadline=None)
@given(small_poly, small_poly)
def test_resultant_matches_sylvester_determinant(f, g):
    if pdeg(f) < 1 or pdeg(g) < 1:
        return
    assert resultant(f, g) == sylvester_resultant(f, g)


V2 = ("x", "t")
ZERO2, ONE2 = MPoly.const(0, V2), MPoly.const(1, V2)
# a polynomial in x, of degree 1..3, whose coefficients are polynomials in t
# of degree <= 2: the coefficient list of an MPoly in (x, t) in x
bivariate = st.lists(
    st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(
        lambda c: MPoly.from_univar(c, "t", V2)),
    min_size=2, max_size=4).map(ptrim)


def _div(a, b):
    """a / b for the oracles, asserted exact over ZZ."""
    if isinstance(a, MPoly):
        return a.exact_div(b)
    q, r = divmod(a, b)
    assert r == 0
    return q


def sylvester_resultant(f, g, zero=0, one=1):
    """Res(f, g) by the definition: Bareiss elimination of the Sylvester matrix."""
    return oracles.bareiss_det(oracles.sylvester_matrix(f, g, zero), one, _div)


@settings(max_examples=100, deadline=None)
@given(bivariate, bivariate)
def test_resultant_over_mpoly_matches_sylvester_determinant(f, g):
    assume(pdeg(f) >= 1 and pdeg(g) >= 1)
    assert resultant(f, g) == sylvester_resultant(f, g, ZERO2, ONE2)


def _disc_by_definition(f, zero=0, one=1):
    """(-1)^(n(n-1)/2) Res(f, f') / lc(f), the resultant by the oracle."""
    n = pdeg(f)
    res = sylvester_resultant(f, pderiv(f), zero, one)
    return _div(-res if (n * (n - 1) // 2) & 1 else res, f[-1])


@settings(max_examples=100, deadline=None)
@given(small_poly)
def test_discriminant_matches_definition_over_zz(f):
    assume(pdeg(f) >= 2)
    assert discriminant(f) == _disc_by_definition(f)


@settings(max_examples=60, deadline=None)
@given(bivariate)
def test_discriminant_matches_definition_over_mpoly(f):
    assume(pdeg(f) >= 2)
    assert discriminant(f) == _disc_by_definition(f, ZERO2, ONE2)


def test_resultant_lifts_int_coefficients():
    """Mixed int/MPoly lists, as expand_f7(t) gives, are taken in one ring:
    Res(x - t, x^2 + 1) = t^2 + 1."""
    t = MPoly.var("t", V2)
    assert resultant([-t, 1], [1, 0, 1]) == t * t + 1


def test_prs_division_is_checked():
    """The PRS divides through one helper that raises on an inexact
    quotient where floor division would round."""
    with pytest.raises(ValueError):
        exactring._exact_div(7, 2)
    assert exactring._exact_div(-8, 2) == -4
    x = MPoly.var("x", V2)
    with pytest.raises(ValueError):
        exactring._exact_div(x + 1, x)
    assert exactring._exact_div(x * x - 1, x + 1) == x - 1


@settings(max_examples=80, deadline=None)
@given(small_poly, st.integers(-8, 8))
def test_resultant_evaluation_property(g, a):
    if pdeg(g) < 1:
        return
    assert resultant([-a, 1], g) == peval(g, a)


def test_resultant_multiplicativity():
    rng = random.Random(11)
    for _ in range(60):
        f, g, h = (
            ptrim([rng.randint(-9, 9) for _ in range(rng.randint(2, 5))]) for _ in range(3)
        )
        if min(pdeg(f), pdeg(g), pdeg(h)) < 1:
            continue
        assert resultant(f, pmul(g, h)) == resultant(f, g) * resultant(f, h)


def _direct_homogenize(coeffs, num, den, zero):
    n = len(coeffs) - 1
    return sum((c * num**k * den ** (n - k) for k, c in enumerate(coeffs)), zero)


coeff_list = st.lists(st.integers(-50, 50), min_size=1, max_size=8)
short_list = st.lists(st.integers(-50, 50), min_size=1, max_size=4)
prime = st.sampled_from([13, 1999])


@settings(max_examples=60, deadline=None)
@given(prime, coeff_list, short_list, short_list)
def test_homogenize_fppoly(l, coeffs, num, den):
    num, den = FpPoly.make(l, num), FpPoly.make(l, den)
    assert homogenize(coeffs, num, den) == _direct_homogenize(coeffs, num, den, FpPoly.make(l, []))


@settings(max_examples=60, deadline=None)
@given(prime, coeff_list, short_list, st.integers(-50, 50))
def test_homogenize_fppoly_int_den(l, coeffs, num, den):
    num = FpPoly.make(l, num)
    assert homogenize(coeffs, num, den) == _direct_homogenize(coeffs, num, den, FpPoly.make(l, []))


@settings(max_examples=40, deadline=None)
@given(coeff_list, short_list, short_list)
def test_homogenize_mpoly(coeffs, a, b):
    V = ("x", "y")
    x, y = MPoly.var("x", V), MPoly.var("y", V)
    num = MPoly.from_univar(a, "x", V) + y
    den = MPoly.from_univar(b, "y", V) - x
    assert homogenize(coeffs, num, den) == _direct_homogenize(coeffs, num, den, MPoly.const(0, V))


def _horner_homogenize(coeffs, num, den):
    """The Horner form: Horner's rule in num, the powers of den built from
    the top down."""
    n = len(coeffs) - 1
    out = num * 0 + coeffs[n]
    den_pow = 1
    for c in reversed(coeffs[:n]):
        den_pow = den_pow * den
        out = out * num + c * den_pow
    return out


LEAF = exactring._HORNER_LEAF
# lengths on both sides of the leaf size and of the first two splits
long_list = st.integers(1, 3 * LEAF + 2).flatmap(
    lambda n: st.lists(st.integers(-50, 50), min_size=n, max_size=n))


@settings(max_examples=40, deadline=None)
@given(prime, long_list, short_list, short_list, st.integers(-50, 50))
def test_balanced_homogenize_fppoly(l, coeffs, num, den, k):
    num, den = FpPoly.make(l, num), FpPoly.make(l, den)
    assert homogenize(coeffs, num, den) == _horner_homogenize(coeffs, num, den)
    assert homogenize(coeffs, num, k) == _horner_homogenize(coeffs, num, k)


@settings(max_examples=40, deadline=None)
@given(long_list, st.integers(-9, 9), st.integers(-9, 9))
def test_balanced_homogenize_ints(coeffs, num, den):
    assert homogenize(coeffs, num, den) == _horner_homogenize(coeffs, num, den)


@pytest.mark.parametrize("n", [LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 1])
def test_balanced_homogenize_mpoly(n):
    rng = random.Random(n)
    V = ("x", "y")
    coeffs = [rng.randint(-9, 9) for _ in range(n)] + [1]
    num = MPoly.var("x", V) + MPoly.var("y", V) * 2 - 1
    den = MPoly.var("y", V) - 3
    assert homogenize(coeffs, num, den) == _horner_homogenize(coeffs, num, den)


def test_known_discriminants():
    assert discriminant([1, -2, -1, 1]) == 7**2
    assert discriminant([1, 12, -15, 1]) == 3**6 * 7**2
    # disc(x^2 + bx + c) = b^2 - 4c
    assert discriminant([5, 3, 1]) == 9 - 20


def test_pdiv_exact_and_errors():
    """Exact division of integer polynomials, as `MINPOLY_GCD` takes its
    cofactors: in the MPoly ring of one variable, by the PRS's checked division."""
    Y = ("Y",)

    def uni(coeffs):
        return MPoly.from_univar(coeffs, "Y", Y)

    f = pmul([1, 2, 1], [3, 0, 1])
    assert exactring._exact_div(uni(f), uni([1, 2, 1])) == uni([3, 0, 1])
    with pytest.raises(ValueError):
        exactring._exact_div(uni([1, 1, 1]), uni([1, 1]))


class TestCubicNum:
    def test_minimal_polynomial(self):
        r = CubicNum.gen()
        assert not (r**3 - 8 * r**2 + 5 * r + 1)

    def test_sigma_orbit(self):
        r = CubicNum.gen()
        s = r.sigma()
        assert s == -r**2 + 7 * r + 2
        assert s.sigma() == r**2 - 8 * r + 6
        assert s.sigma().sigma() == r

    def test_norms(self):
        r = CubicNum.gen()
        assert (r + 2).norm() == 49
        eta = (19 * r**2 - 15 * r - 1) / 7
        assert eta.norm() == 1

    def test_matrix_representation_oracle(self):
        """Reduction via r^3 -> 8r^2 - 5r - 1 matches the regular representation."""

        def matmul(m, n):
            return [
                [sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)
            ]

        rng = random.Random(5)
        for _ in range(50):
            a = CubicNum(*[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)])
            b = CubicNum(*[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)])
            prod = a * b
            mat = matmul(mul_matrix(a), mul_matrix(b))
            # first column of the product matrix is the image of 1, i.e. a*b
            assert (mat[0][0], mat[1][0], mat[2][0]) == prod.c

    def test_inverse(self):
        rng = random.Random(6)
        for _ in range(30):
            a = CubicNum(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            if not a:
                continue
            assert a * a.inverse() == CubicNum(1)
        for _ in range(30):
            a = CubicNum(*[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)])
            if not a:
                continue
            assert a * a.inverse() == CubicNum(1)
            assert a.inverse().inverse() == a
        with pytest.raises(ZeroDivisionError):
            CubicNum(0).inverse()


class TestMPoly:
    def test_ring_axioms_smoke(self):
        x = MPoly.var("x", ("x", "y"))
        y = MPoly.var("y", ("x", "y"))
        assert (x + y) * (x - y) == x**2 - y**2
        assert ((x + 1) ** 3).coeff_of("x", 2) == MPoly.const(3, ("x", "y"))

    def test_exact_div(self):
        x = MPoly.var("x", ("x", "y"))
        y = MPoly.var("y", ("x", "y"))
        f = (x**2 + y) * (x - 3 * y + 1)
        assert f.exact_div(x**2 + y) == x - 3 * y + 1
        with pytest.raises(ValueError):
            (x + 1).exact_div(y)

    def test_mpoly_resultant_agrees_with_integer_resultant(self):
        # evaluate the symbolic resultant and compare with per-point PRS values
        x = MPoly.var("x", ("x", "t"))
        t = MPoly.var("t", ("x", "t"))
        f = x**3 + t * x + 1
        g = x**2 - (t + 2)
        res = resultant(f.as_univar("x"), g.as_univar("x"))
        for t0 in range(-6, 7):
            fv = [1, t0, 0, 1]
            gv = [-(t0 + 2), 0, 1]
            assert eval_all(res, {"x": 0, "t": t0}) == resultant(fv, gv)


def test_pgcd_monic():
    """The Fraction Euclid of the oracle, which `MINPOLY_GCD`'s certificate
    is tested against."""
    f = [Fraction(c) for c in pmul([1, 1], [2, 0, 1])]
    g = [Fraction(c) for c in pmul([1, 1], [-1, 1])]
    assert oracles.pgcd_monic(f, g) == [Fraction(1), Fraction(1)]
    assert oracles.pgcd_monic(pmul([3, 2], [1, 1]), [6, 4]) == [Fraction(3, 2), 1]
    assert oracles.pgcd_monic([], [0, 5]) == [0, 1]
