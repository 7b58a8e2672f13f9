import random
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fricke7 import constants as C
from fricke7 import ffpoly
from fricke7.errors import NotASquareError, StructuralError
from fricke7.exactring import padd, pscale, psub
from fricke7.ffpoly import (
    _FFT_MIN_LEN,
    _NEWTON_MIN_QUOT,
    FpPoly,
    PrimeContext,
    _dtype,
    _edf,
    factorize,
    is_prime,
    poly_sqrt,
    resultant,
    distinct_roots_in_fp,
    resultant_in_X,
    roots_in_fp2,
    smallest_nonresidue,
    sqrt_mod,
    squarefree_decomposition,
)

PRIMES = [5, 11, 13, 41, 97, 1009]


def random_poly(rng, l, max_deg=64):
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randrange(l) for _ in range(deg)] + [rng.randrange(1, l)]
    return FpPoly.make(l, coeffs)


class TestPrimeContext:
    def test_character_data(self):
        ctx = PrimeContext.make(41)
        assert (ctx.r, ctx.s, ctx.n, ctx.mu7) == (1, 0, 3, 1)

    def test_rejects_bad_moduli(self):
        for bad in (2, 7, 9, 1):
            with pytest.raises(ValueError):
                PrimeContext.make(bad)


class TestFactorize:
    def test_example_x2_plus_1_mod_5(self):
        fac = factorize(FpPoly.make(5, [1, 0, 1]))
        assert [f.coeffs for f, _ in fac.factors] == [(2, 1), (3, 1)]

    def test_example_f7_minus_one(self):
        # the cubic x^3-x^2-2x+1 is irreducible mod 11 (11 = 4 mod 7) and
        # splits mod 13 (13 = 6 mod 7)
        fac11 = factorize(FpPoly.make(11, C.expand_f7(-1)))
        assert [(f.degree, m) for f, m in fac11.factors] == [(3, 2)]
        fac13 = factorize(FpPoly.make(13, C.expand_f7(-1)))
        assert [(f.degree, m) for f, m in fac13.factors] == [(1, 2)] * 3

    def test_example_xl_minus_x(self):
        l = 11
        f = FpPoly.make(l, [0, -1] + [0] * (l - 2) + [1])
        fac = factorize(f)
        assert len(fac.factors) == l and all(f.degree == 1 for f, _ in fac.factors)

    def test_round_trip_100_cases(self):
        rng = random.Random(2024)
        for i in range(100):
            l = PRIMES[i % len(PRIMES)]
            f = random_poly(rng, l, max_deg=64 if l > 64 else 20)
            fac = factorize(f)
            assert fac.expand() == f
            for g, _ in fac.factors:
                assert g.is_monic

    def test_factors_certified_irreducible_100_cases(self):
        rng = random.Random(7)
        certified = 0
        for _ in range(40):
            l = rng.choice(PRIMES)
            f = random_poly(rng, l, max_deg=24)
            for g, _ in factorize(f).factors:
                assert oracles.is_irreducible(g), (l, g)
                certified += 1
        assert certified >= 100

    def test_deterministic_output(self):
        rng = random.Random(3)
        for _ in range(10):
            f = random_poly(rng, 101, max_deg=30)
            assert factorize(f) == factorize(f)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(FpPoly.zero(5))

    def test_big_modulus_python_path(self):
        l = (1 << 61) - 1
        assert is_prime(l)
        rng = random.Random(4)
        f = random_poly(rng, l, max_deg=10)
        fac = factorize(f)
        assert fac.expand() == f
        assert all(oracles.is_irreducible(g) for g, _ in fac.factors)


class TestResultant:
    def test_evaluation_property(self):
        rng = random.Random(5)
        for _ in range(40):
            l = rng.choice(PRIMES)
            g = random_poly(rng, l, max_deg=12)
            a = rng.randrange(l)
            assert resultant(FpPoly.make(l, [-a, 1]), g) == g(a)

    def test_swap_symmetry_and_multiplicativity(self):
        rng = random.Random(6)
        for _ in range(100):
            l = rng.choice(PRIMES)
            f = random_poly(rng, l, max_deg=8)
            g = random_poly(rng, l, max_deg=8)
            h = random_poly(rng, l, max_deg=6)
            sign = -1 if (f.degree * g.degree) % 2 else 1
            assert resultant(f, g) == sign * resultant(g, f) % l
            assert resultant(f, g * h) == resultant(f, g) * resultant(f, h) % l

    def test_paper_values(self):
        for l in (11, 101, 1009):
            assert resultant(
                FpPoly.make(l, C.X2X1), FpPoly.make(l, C.F1728)
            ) == (2**6 * 3**3 * 7) % l
        rng = random.Random(8)
        for _ in range(10):
            l = 1009
            a0, t0 = rng.randrange(l), rng.randrange(l)
            lhs = resultant(
                FpPoly.make(l, C.g_cubic(a0)), FpPoly.make(l, C.expand_f7(t0))
            )
            assert lhs == pow((a0 + 8) * t0 + a0 * a0 + 3 * a0 + 9, 3, l)


class TestResultantInX:
    """Res_X(f, R_7) with R_7 = X^2 + a1 X + a0, a1 = -A(Y), a0 = B(Y)."""

    @staticmethod
    def _r7(l):
        return -FpPoly.make(l, C.R7_A), FpPoly.make(l, C.R7_B)

    @staticmethod
    def _r7_at(l, y0):
        a1, a0 = TestResultantInX._r7(l)
        return FpPoly.make(l, [a0(y0), a1(y0), 1])

    def test_linear_f_gives_evaluation(self):
        l = 101
        j0 = 17
        out = resultant_in_X(FpPoly.make(l, [-j0, 1]), *self._r7(l))
        direct = padd(psub([j0 * j0], pscale(list(C.R7_A), j0)), list(C.R7_B))
        assert out == FpPoly.make(l, direct)

    def test_ss5_value(self):
        out = resultant_in_X(FpPoly.x(5), *self._r7(5))
        assert out == FpPoly.make(5, [0, 0, 1]) * FpPoly.make(5, [3, 4, 1]) ** 3

    def test_agreement_with_pointwise_oracle(self):
        l = 101
        rng = random.Random(9)
        f = FpPoly.make(l, [3, 1, 4, 1, 5, 9, 2, 6, 1])
        R = resultant_in_X(f, *self._r7(l))
        for y0 in rng.sample(range(l), 20):
            assert R(y0) == resultant(f, self._r7_at(l, y0))

    def test_every_point_small_modulus(self):
        l = 13
        f = FpPoly.make(l, [8, 1])
        R = resultant_in_X(f, *self._r7(l))
        for y0 in range(l):
            assert R(y0) == resultant(f, self._r7_at(l, y0))


class TestBoundedSplitting:
    """Input that is not a product of degree-d factors raises, it never spins."""

    def test_edf_irreducible_quartic(self):
        quartic = FpPoly.make(13, [2, 0, 0, 0, 1])
        assert factorize(quartic).factors[0][0].degree == 4  # irreducible mod 13
        with pytest.raises(StructuralError, match=r"degree-2 .*l=13"):
            _edf(quartic, 2)


class TestInt64Boundary:
    """Exactness on both sides of the int64/object choice.

    At l near 2^28, (l-1)^2 is about 2^56, so int64 holds sums of up to 64
    coefficient products: degree-20 operands compute in int64, degree-300
    operands in Python ints (300 products would overflow int64).  Coefficients
    near l - 1 make the sums close to that worst case.
    """

    L = 268435399

    @pytest.mark.parametrize("deg, dtype", [(20, np.int64), (300, object)])
    def test_mul_and_divmod(self, deg, dtype):
        l = self.L
        assert is_prime(l)
        rng = random.Random(deg)

        def poly(n):
            return FpPoly.make(l, [-1 - rng.randrange(1 << 16) for _ in range(n + 1)])

        f, g, a = poly(deg), poly(deg), poly(2 * deg)
        assert _dtype(l, 2 * (deg + 1)) is dtype and _dtype(l, 3 * deg + 2) is dtype
        prod = f * g
        q, r = divmod(a, f)
        assert q * f + r == a and r.degree < f.degree
        for x0 in rng.sample(range(l), 8):
            assert prod(x0) == f(x0) * g(x0) % l
            assert a(x0) == (q(x0) * f(x0) + r(x0)) % l


def _vec(l, coeffs):
    return np.array(coeffs, dtype=_dtype(l, 1))


def _trimmed(coeffs):
    out = [int(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


class TestKernelAgainstSchoolbook:
    """`_mul` and `_divmod` against the schoolbook oracles, on both sides of
    the FFT length crossover, of the FFT exactness bound and of the Newton
    quotient crossover, with the path each case takes pinned by spies.

    At operand lengths from _FFT_MIN_LEN to a few hundred the bound holds for
    l = 13, 1999 and 9973 and fails for l = 268435399 and 2^61 - 1 (object
    dtype), so those convolve directly.
    """

    MODULI = [13, 1999, 9973, 268435399, (1 << 61) - 1]
    FFT_EXACT = {13, 1999, 9973}

    @staticmethod
    def coeffs(rng, l, n, monic_like=False):
        # half the draws near l - 1, where the sums of products are largest
        if rng.random() < 0.5:
            out = [rng.randrange(l) for _ in range(n)]
        else:
            out = [l - 1 - rng.randrange(min(l, 256)) for _ in range(n)]
        if monic_like:
            out[-1] = out[-1] or 1
        return out

    @pytest.mark.parametrize("l", MODULI)
    @pytest.mark.parametrize("long", [False, True], ids=["short", "long"])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_mul(self, l, long, seed):
        rng = random.Random(seed)
        m = rng.randint(_FFT_MIN_LEN, 2 * _FFT_MIN_LEN) if long else rng.randint(1, _FFT_MIN_LEN - 1)
        a = self.coeffs(rng, l, m)
        b = a if rng.random() < 0.25 else self.coeffs(rng, l, m + rng.randint(0, 200))
        av = _vec(l, a)
        bv = av if b is a else _vec(l, b)
        with mock.patch.object(ffpoly, "_mul_fft", wraps=ffpoly._mul_fft) as fft:
            out = ffpoly._mul(l, av, bv)
        assert fft.called == (long and l in self.FFT_EXACT)
        assert _trimmed(out) == _trimmed(oracles.schoolbook_mul(l, a, b))

    @pytest.mark.parametrize("l", MODULI)
    @pytest.mark.parametrize("path", ["loop", "newton", "reused-inverse"])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_divmod(self, l, path, seed):
        rng = random.Random(seed)
        db = rng.randint(1, 150)
        if path == "loop":
            nq = rng.randint(1, _NEWTON_MIN_QUOT - 1)
        else:
            nq = rng.randint(_NEWTON_MIN_QUOT, 300)
        a = self.coeffs(rng, l, db + nq, monic_like=True)
        b = self.coeffs(rng, l, db + 1, monic_like=True)
        bv, binv = _vec(l, b), None
        if path == "reused-inverse":
            n = nq + rng.randint(0, 50)
            binv = ffpoly._inv_series(l, bv[::-1], n)
            assert _trimmed(oracles.schoolbook_mul(l, b[::-1], _trimmed(binv))[:n]) == [1]
        with mock.patch.object(ffpoly, "_mul", wraps=ffpoly._mul) as mul, mock.patch.object(
            ffpoly, "_inv_series", wraps=ffpoly._inv_series
        ) as inv:
            q, r = ffpoly._divmod(l, _vec(l, a), bv, binv)
        assert mul.called == (path != "loop")
        assert inv.called == (path == "newton")
        want_q, want_r = oracles.schoolbook_divmod(l, a, b)
        assert _trimmed(q) == _trimmed(want_q)
        assert _trimmed(r) == _trimmed(want_r)


@pytest.mark.parametrize("l", [13, 101])
def test_divisor_points_against_pointwise_division(l):
    rng = random.Random(l)
    # g(x, t) = x^3 + (t^2 + 1) x^2 + 5 t x + (t - 2)
    g = [FpPoly.make(l, [-2, 1]), FpPoly.make(l, [0, 5]), FpPoly.make(l, [1, 0, 1])]

    def at(t0):
        return FpPoly.make(l, [gj(t0) for gj in g] + [1])

    chosen = rng.sample(range(l), 3)
    f = at(chosen[0]) * at(chosen[1]) * at(chosen[2]) * random_poly(rng, l, max_deg=20)
    want = [t0 for t0 in range(l) if (f % at(t0)).is_zero]
    assert set(chosen) <= set(want)
    assert oracles.divisor_points(f, g) == want
    assert oracles.divisor_points(FpPoly.make(l, [0, 0, 1]), g) == []


class TestPolySqrt:
    def test_constructed_square(self):
        f = FpPoly.make(7, [1, 1]) ** 2 * FpPoly.make(7, [3, 1]) ** 4
        assert poly_sqrt(f) == FpPoly.make(7, [1, 1]) * FpPoly.make(7, [3, 1]) ** 2

    def test_f7_at_27(self):
        assert poly_sqrt(FpPoly.make(11, C.expand_f7(27))) == FpPoly.make(11, C.CUBIC_D28)

    def test_non_square_rejected(self):
        with pytest.raises(NotASquareError):
            poly_sqrt(FpPoly.make(7, [1, 0, 1]))

    def test_round_trip_100_cases(self):
        rng = random.Random(10)
        for _ in range(100):
            l = rng.choice(PRIMES)
            g = random_poly(rng, l, max_deg=32).monic()
            assert poly_sqrt(g * g) == g

    def test_high_multiplicity_at_small_modulus(self):
        # multiplicities divisible by l exercise the l-th power branch
        g = FpPoly.make(5, [1, 1]) ** 10 * FpPoly.make(5, [2, 1]) ** 2
        assert poly_sqrt(g) == FpPoly.make(5, [1, 1]) ** 5 * FpPoly.make(5, [2, 1])


class TestFp2:
    def test_roots_of_x2_plus_1_mod_3(self):
        roots = roots_in_fp2(FpPoly.make(3, [1, 0, 1]))
        assert len(roots) == 2 and all(r.b != 0 for r in roots)
        nu = smallest_nonresidue(3)
        for r in roots:
            # (a + b theta)^2 = (a^2 + nu b^2) + 2ab theta
            sq = ((r.a * r.a + nu * r.b * r.b) % 3, 2 * r.a * r.b % 3)
            assert sq == (2, 0)  # -1 mod 3

    def test_ss13_single_rational_root(self):
        assert [(r.a, r.b) for r in roots_in_fp2(FpPoly.make(13, [8, 1]))] == [(5, 0)]

    def test_conjugate_quadratic_roots(self):
        roots = roots_in_fp2(FpPoly.make(5, [1, -1, 1]))
        assert len(roots) == 2
        assert all(not r.in_prime_field for r in roots)
        assert roots[0].b == (5 - roots[1].b) % 5  # conjugates

    def test_multiplicity(self):
        f = FpPoly.make(5, [1, 1]) ** 3
        roots = roots_in_fp2(f)
        assert [(r.a, r.b) for r in roots] == [(4, 0)]

    @pytest.mark.parametrize("l", [5, 13, 31])
    def test_against_every_point_of_fp2(self, l):
        """The roots are the a + b theta at which f vanishes, found by
        evaluating f at all l^2 points, for f with repeated factors and
        factors of degree > 2."""
        rng = random.Random(l)
        nu = smallest_nonresidue(l)
        points = [(a, b) for a in range(l) for b in range(l)]
        for _ in range(12):
            f = FpPoly.one(l)
            for _ in range(rng.randint(1, 4)):
                f = f * random_poly(rng, l, max_deg=5) ** rng.randint(1, 3)
            want = []
            for a, b in points:
                # Horner in F_l(theta): (u + v theta)(a + b theta) = (ua + nu vb) + (ub + va) theta
                u = v = 0
                for c in reversed(f.coeffs):
                    u, v = (u * a + nu * v * b + c) % l, (u * b + v * a) % l
                if not u and not v:
                    want.append((a, b))
            assert [(r.a, r.b) for r in roots_in_fp2(f)] == want, f


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([5, 13, 101]),
    st.lists(st.integers(0, 100), min_size=1, max_size=12),
    st.lists(st.integers(0, 100), min_size=1, max_size=12),
)
def test_mul_add_consistency_hypothesis(l, a, b):
    fa, fb = FpPoly.make(l, a), FpPoly.make(l, b)
    x0 = 3
    assert (fa * fb)(x0) == fa(x0) * fb(x0) % l
    assert (fa + fb)(x0) == (fa(x0) + fb(x0)) % l
    if not fb.is_zero:
        q, r = divmod(fa, fb)
        assert q * fb + r == fa
        assert r.degree < fb.degree


def test_sqrt_mod_and_nonresidue():
    rng = random.Random(12)
    for l in (5, 13, 41, 97, 1009):
        nu = smallest_nonresidue(l)
        assert pow(nu, (l - 1) // 2, l) == l - 1
        for _ in range(20):
            a = rng.randrange(1, l)
            s = sqrt_mod(a, l)
            if s is None:
                assert pow(a, (l - 1) // 2, l) == l - 1
            else:
                assert s * s % l == a


def test_squarefree_decomposition_reassembles():
    rng = random.Random(13)
    for _ in range(40):
        l = rng.choice([5, 13, 101])
        f = FpPoly.one(l)
        for _ in range(rng.randint(1, 3)):
            f = f * random_poly(rng, l, max_deg=4) ** rng.randint(1, 6)
        re = FpPoly.make(l, [f.lc])
        for comp, m in squarefree_decomposition(f):
            re = re * comp**m
        assert re == f


def test_roots_in_fp():
    f = FpPoly.make(7, [3, 1]) ** 2 * FpPoly.make(7, [1, 0, 1])
    assert distinct_roots_in_fp(f) == [4]
