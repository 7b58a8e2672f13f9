import math
import pickle
import random
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fricke7 import constants as C
from fricke7 import ffpoly
from fricke7.errors import StructuralError
from fricke7.exactring import padd, pscale, psub
from fricke7.ss7star import _root_pairs
from fricke7.ffpoly import (
    _FFT_MIN_LEN,
    _MATRIX_MAX_DEG,
    PRIME_LIMIT,
    FpPoly,
    PrimeContext,
    _edf,
    factorize,
    is_prime,
    radical,
    distinct_roots_in_fp,
    resultant_in_X,
    squarefree_decomposition,
)
from oracles import resultant
from paper_checks import smallest_nonresidue, sqrt_mod

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
        """1000003, the first prime above PRIME_LIMIT, is refused, also as the
        bare modulus of a polynomial, before a product could overflow int64;
        999983, the largest prime below the limit, is accepted."""
        assert is_prime(1000003) and is_prime(999983)
        assert not any(map(is_prime, range(999984, PRIME_LIMIT + 1))) and PRIME_LIMIT < 1000003
        for bad in (2, 7, 9, 1, 1000003):
            with pytest.raises(ValueError):
                PrimeContext.make(bad)
        with pytest.raises(ValueError, match="at most 1,000,000"):
            FpPoly.make(1000003, [1, 2])
        assert PrimeContext.make(999983).l == 999983
        assert FpPoly.make(999983, [1, 2]).coeffs == (1, 2)

    def test_int64_bound_is_asserted(self):
        """Vectors built past the limit trip the int64 assertion of the
        direct product."""
        l = (1 << 61) - 1
        v = np.full(10, l - 1, dtype=np.int64)
        with pytest.raises(AssertionError, match="int64 bound"):
            ffpoly._mul(l, v, v)


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
            assert oracles.expand(fac) == f
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

    def test_largest_modulus(self):
        l = 999983
        rng = random.Random(4)
        f = random_poly(rng, l, max_deg=10)
        fac = factorize(f)
        assert oracles.expand(fac) == f
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


class TestDistinctDegreeSplit:
    """`_ddf(f, powers)`, given powers[d] = x^(l^d) mod a multiple of f for
    d <= e, splits f as the plain `_ddf(f)` does: for random e, and for e the
    lcm of the factor degrees, where powers[e] = x mod f limits the split to
    the divisors of e."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([3, 5, 7, 13]), st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 7))
    def test_given_powers_split_as_the_plain_ddf(self, l, seed, certify, e):
        rng = random.Random(seed)

        def monic(deg):
            return FpPoly.make(l, [rng.randrange(l) for _ in range(deg)] + [1])

        f = radical(math.prod((monic(rng.randint(1, 8)) for _ in range(rng.randint(1, 4))), start=FpPoly.one(l)))
        plain = ffpoly._ddf(f)
        x = FpPoly.x(l)
        if certify:
            e = math.lcm(*plain)
        multiple = f * monic(rng.randint(0, 8))
        powers = [x]
        for _ in range(e):
            powers.append(powers[-1].powmod(l, multiple))
        if certify:
            assert powers[-1] % f == x % f
        assert ffpoly._ddf(f, powers) == plain


def _vec(l, coeffs):
    return np.array(coeffs, dtype=np.int64)


def _trimmed(coeffs):
    out = [int(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


class TestKernelAgainstSchoolbook:
    """`_mul` and `_Modulus.divmod` against the schoolbook oracles, on both
    sides of the FFT length crossover and of the FFT exactness bound, with
    the path each case takes pinned by spies.

    At operand lengths from _FFT_MIN_LEN to a few hundred the bound holds for
    l = 13, 1999 and 9973 and fails for l = 999983, the largest prime at
    most PRIME_LIMIT (it fails there at every length), which convolves
    directly.
    """

    MODULI = [13, 1999, 9973, 999983]
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
    @pytest.mark.parametrize("path", ["newton", "reused-inverse"])
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_divmod(self, l, path, seed):
        """Quotients of 1, 31, 32 and a drawn 1 to 300 coefficients, by a
        constant divisor and by one of degree 1 to 150.  "newton" divides
        through a one-off `_Modulus`, whose inverse starts at lc(b)^-1;
        "reused-inverse" through one kept `_Modulus` per divisor, met first by
        a drawn quotient, whose inverse each longer quotient extends from the
        prefix the earlier ones left."""
        rng = random.Random(seed)
        lengths = [1, 31, 32, rng.randint(1, 300)]
        for db in (0, rng.randint(1, 150)):
            b = self.coeffs(rng, l, db + 1, monic_like=True)
            bv = _vec(l, b)
            kept = ffpoly._Modulus(l, bv)
            if path == "reused-inverse":
                kept.divmod(_vec(l, self.coeffs(rng, l, db + rng.randint(1, 300))))
                n = len(kept.inv)
                assert _trimmed(oracles.schoolbook_mul(l, b[::-1], _trimmed(kept.inv))[:n]) == [1]
            for nq in lengths:
                a = self.coeffs(rng, l, db + nq, monic_like=True)
                prepared = kept if path == "reused-inverse" else ffpoly._Modulus(l, bv)
                had = len(prepared.inv)
                with mock.patch.object(ffpoly, "_mul", wraps=ffpoly._mul) as mul, mock.patch.object(
                    ffpoly, "_mul_fft", wraps=ffpoly._mul_fft
                ) as fft, mock.patch.object(ffpoly, "_inv_series", wraps=ffpoly._inv_series) as inv:
                    q, r = prepared.divmod(_vec(l, a))
                assert (mul.called or fft.called) == (db > 0)
                assert [(len(c.args[3]), c.args[2]) for c in inv.call_args_list] == (
                    [(had, nq)] if db and nq > had else []
                )
                assert len(prepared.inv) == (max(had, nq) if db else 1)
                want_q, want_r = oracles.schoolbook_divmod(l, a, b)
                assert _trimmed(q) == _trimmed(want_q)
                assert _trimmed(r) == _trimmed(want_r)


class TestWrappedProducts:
    """The cyclic (wrapped) FFT paths against the schoolbook oracles: products
    whose length L is just past a power of two N run at size N and subtract
    the wrapped top coefficients, and the remainder of a prepared division is
    taken mod x^N - 1 with N >= deg b + 1, folding a and quotients longer than
    N.  Lengths sit on both sides of each switch, with spies pinning the FFT
    size each case runs at.  The wrapped products run from N = _WRAP_MIN on;
    the schoolbook tests lower that to 256, where the oracle is quick (the
    arithmetic does not depend on N), and the degree-4164 powmod runs at the
    real threshold."""

    L = 1999

    @staticmethod
    def sizes(spy):
        return [c.args[3] for c in spy.call_args_list]

    @pytest.mark.parametrize("N", [256, 512])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_mul_around_a_power_of_two(self, N, data):
        """L from just below N to past the wrap limit N + N / 2^_WRAP_SHIFT."""
        limit = N + (N >> ffpoly._WRAP_SHIFT)
        L = data.draw(st.sampled_from([N - 1, N, N + 1, N + 2, limit - 1, limit, limit + 1]))
        la = data.draw(st.integers(_FFT_MIN_LEN, L + 1 - _FFT_MIN_LEN))
        lb = L + 1 - la
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        a = TestKernelAgainstSchoolbook.coeffs(rng, self.L, la)
        square = la == lb and data.draw(st.booleans())
        b = a if square else TestKernelAgainstSchoolbook.coeffs(rng, self.L, lb)
        av = _vec(self.L, a)
        with mock.patch.object(ffpoly, "_mul_fft", wraps=ffpoly._mul_fft) as fft, mock.patch.object(
            ffpoly, "_WRAP_MIN", 256
        ):
            out = ffpoly._mul(self.L, av, av if square else _vec(self.L, b))
        wrapped = N < L <= limit and max(la, lb) <= N
        assert self.sizes(fft)[0] == N.bit_length() - (1 if L <= N or wrapped else 0)
        assert len(out) == L
        assert _trimmed(out) == _trimmed(oracles.schoolbook_mul(self.L, a, b))

    @pytest.mark.parametrize("db", [255, 256, 300])
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), long_quotient=st.booleans())
    def test_remainder_mod_x_n_minus_1(self, db, seed, long_quotient):
        """deg b = 255 wraps at N = 256, deg b = 256 and 300 at N = 512; a long
        quotient (more than N coefficients) is folded first."""
        rng = random.Random(seed)
        size = 1 << db.bit_length()
        nq = rng.randint(size + 1, size + 200) if long_quotient else rng.randint(_FFT_MIN_LEN, size)
        a = TestKernelAgainstSchoolbook.coeffs(rng, self.L, db + nq, monic_like=True)
        b = TestKernelAgainstSchoolbook.coeffs(rng, self.L, db + 1, monic_like=True)
        prepared = ffpoly._Modulus(self.L, _vec(self.L, b))
        prepared._inverse(nq)
        with mock.patch.object(ffpoly, "_rfft", wraps=ffpoly._rfft) as rfft, mock.patch.object(
            ffpoly, "_fold", wraps=ffpoly._fold
        ) as fold:
            q, r = prepared.divmod(_vec(self.L, a))
        assert (db + 1, db.bit_length()) in [(len(c.args[0]), c.args[1]) for c in rfft.call_args_list]
        folded = [len(c.args[1]) > size for c in fold.call_args_list]
        assert folded == [long_quotient, len(a) > size]  # q, then a
        want_q, want_r = oracles.schoolbook_divmod(self.L, a, b)
        assert _trimmed(q) == _trimmed(want_q)
        assert _trimmed(r) == _trimmed(want_r)

    def test_powmod_at_degree_4164_wraps(self):
        """The Frobenius powers mod the Hasse polynomial at l = 2083 (degree
        4164, class 4 mod 7): every square has length 8327 and wraps at 2^13,
        no transform is larger, and x^(l^6) = x certifies the chain."""
        from fricke7.hasse7 import hasse_poly

        l = 2083
        f = hasse_poly(PrimeContext.make(l)).monic()
        assert f.degree == 4164
        x = FpPoly.x(l)
        with mock.patch.object(ffpoly, "_mul_fft", wraps=ffpoly._mul_fft) as fft, mock.patch.object(
            ffpoly, "_rfft", wraps=ffpoly._rfft
        ) as rfft:
            h = x
            for _ in range(6):
                h = h.powmod(l, f)
        assert h == x
        wrapped = [c for c in fft.call_args_list if len(c.args[1]) + len(c.args[2]) - 1 > 1 << c.args[3]]
        assert any(len(c.args[1]) + len(c.args[2]) - 1 == 8327 and c.args[3] == 13 for c in wrapped)
        assert max(c.args[1] for c in rfft.call_args_list) == 13


class TestFloatEuclid:
    """`FpPoly.gcd` against Euclid on `oracles.schoolbook_divmod`, up to
    l = 999983, the largest prime at most PRIME_LIMIT, with spies pinning
    which steps leave the float path and which vectors are reduced.

    Inputs are built from their remainder sequence, bottom up, as
    r_(i-1) = q_i r_i + r_(i+1) from the gcd g and r_(k+1) = 0, so the degree
    of each quotient is chosen rather than hoped for.  A quotient of degree
    two or more is a degree drop of two or more in the sequence: the
    coefficients the float step leaves on top of that remainder are multiples
    of l but not zero (the vectors are unreduced), and the next step has a
    long quotient, which a one-off `_Modulus` takes.
    """

    MODULI = [13, 1999, 9973, 999983]

    @staticmethod
    def sequence(rng, l, steps, drops):
        g = [rng.randrange(l) for _ in range(rng.randint(1, 3))] + [rng.randrange(1, l)]
        lower, upper = [], g
        for _ in range(steps):
            dq = rng.choice([1, 1, 2, 3, 5]) if drops else 1
            q = [rng.randrange(l) for _ in range(dq)] + [rng.randrange(1, l)]
            lower, upper = upper, padd(oracles.schoolbook_mul(l, q, upper), lower)
        return [c % l for c in upper], lower, g

    def test_limit_inside_both_bounds(self):
        """At l = 999983 the float Euclid's bound l (l - 1) < 2^52 holds, and so
        does the int64 bound (l - 1)^2 (m + n) < 2^62 for the largest m + n a
        count forms: a product of two residues mod the Hasse polynomial, whose
        degree is 8 r + 12 s + 24 n."""
        l = 999983
        ctx = PrimeContext.make(l)
        deg_h = 8 * ctx.r + 12 * ctx.s + 24 * ctx.n
        assert l * (l - 1) < ffpoly._FLOAT_EXACT
        assert (l - 1) ** 2 * 2 * deg_h < ffpoly._INT64_BOUND

    @pytest.mark.parametrize("l", MODULI)
    @pytest.mark.parametrize("drops", [False, True], ids=["normal", "drops"])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gcd(self, l, drops, seed):
        rng = random.Random(seed)
        a, b, g = self.sequence(rng, l, rng.randint(20, 60), drops)
        with mock.patch.object(ffpoly, "_Modulus", wraps=ffpoly._Modulus) as div:
            out = FpPoly.make(l, a).gcd(FpPoly.make(l, b))
        # normal steps never leave the float path; a drop of two or more does
        assert div.called == drops
        want = oracles.schoolbook_gcd(l, a, b)
        assert list(out.coeffs) == want == list(FpPoly.make(l, g).monic().coeffs)

    @pytest.mark.parametrize("l", MODULI)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_worst_case_growth(self, l, sign):
        """Quotients c + c x with c = (l -+ 1)/2, the largest centred digits,
        make the unreduced values grow about as fast as the tracked bound."""
        for c in ((l - 1) // 2, (l + 1) // 2):
            lower, upper = [], [1, 1]
            for _ in range(60):
                step = padd(oracles.schoolbook_mul(l, [c, c], upper), [sign * v for v in lower])
                lower, upper = upper, [v % l for v in step]
            out = FpPoly.make(l, upper).gcd(FpPoly.make(l, lower))
            assert list(out.coeffs) == oracles.schoolbook_gcd(l, upper, lower) == [1, 1]

    @pytest.mark.parametrize("l, both", [(9973, False), (999983, True)])
    def test_newer_vector_reduced_first(self, l, both):
        """A step whose bound would pass 2^52 reduces the newer vector b, and a
        as well only when b alone is not enough.  Quotients x let the bounds
        grow as Fibonacci numbers towards 2^52, and a quotient c + c x with
        c = (l - 1)/2 every 32nd step then needs b alone reduced.  Both need
        it when the older bound is within (l - 1)^2 of 2^52.  At l = 999983
        the first four steps get there, with quotients whose digit sums
        s = |q0| + |q1| are 8192, 549631, 1 and l - 1: from l - 1 the tracked
        bounds reach 8193 (l - 1), then 4.50305 10^15, within (l - 1)^2 of
        2^52, then that plus 8193 (l - 1), still below 2^52.  A spy on
        `_reduce_float` sees the two cases apart: a step that reduces both
        reduces b and then the longer a, while later steps reduce ever
        shorter remainders."""
        c = (l - 1) // 2
        first = [[4096, 4096], [49640, c], [0, 1], [c, c]] if both else []
        quotients = first + [[c, c] if i % 32 == 31 else [0, 1] for i in reversed(range(100))]
        lower, upper = [], [1, 1]
        for q in reversed(quotients):  # bottom up, the first step's quotient last
            lower, upper = upper, [v % l for v in padd(oracles.schoolbook_mul(l, q, upper), lower)]
        with mock.patch.object(ffpoly, "_reduce_float", wraps=ffpoly._reduce_float) as red:
            out = FpPoly.make(l, upper).gcd(FpPoly.make(l, lower))
        lengths = [len(call.args[1]) for call in red.call_args_list]
        pairs = sum(b >= a for a, b in zip(lengths, lengths[1:]))
        assert len(lengths) - 2 * pairs > 0  # steps that reduced b alone
        assert (pairs > 0) == both
        assert list(out.coeffs) == oracles.schoolbook_gcd(l, upper, lower) == [1, 1]

    @pytest.mark.parametrize("l", [13, 1999, 999983])
    def test_unrelated_and_degenerate(self, l):
        rng = random.Random(l)
        for _ in range(10):
            a = [rng.randrange(l) for _ in range(rng.randint(1, 80))]
            b = [rng.randrange(l) for _ in range(rng.randint(1, 80))]
            if not any(a) and not any(b):
                continue
            out = FpPoly.make(l, a).gcd(FpPoly.make(l, b))
            assert list(out.coeffs) == oracles.schoolbook_gcd(l, a, b)
        f = FpPoly.make(l, [3, 1, 4, 1, 5])
        assert f.gcd(FpPoly.zero(l)) == f.monic() == FpPoly.zero(l).gcd(f)
        assert f.gcd(FpPoly.make(l, [7])) == FpPoly.one(l)


class TestPreparedModulus:
    """Division by an `FpPoly` goes through the `_Modulus` it keeps, built at
    the first division; results equal the schoolbook division for quotients
    of every length, with long products through the FFT (l = 1999) and
    through `np.convolve` (l = 999983), whatever order the quotient lengths
    come in, and the kept inverse grows only as far as the longest quotient
    so far needs."""

    @pytest.mark.parametrize("l", [1999, 999983], ids=["int64", "convolve"])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_against_plain_divmod(self, l, seed):
        rng = random.Random(seed)
        db = rng.randint(1, 200)
        bc = [rng.randrange(l) for _ in range(db)] + [rng.randrange(1, l)]
        b = FpPoly.make(l, bc)
        longest = 1
        for _ in range(4):
            nq = rng.randint(1, 31) if rng.random() < 0.5 else rng.randint(32, 2 * db + 40)
            longest = max(longest, nq)
            ac = [rng.randrange(l) for _ in range(db + nq - 1)] + [rng.randrange(1, l)]
            a = FpPoly.make(l, ac)
            q, r = divmod(a, b)
            want_q, want_r = oracles.schoolbook_divmod(l, ac, bc)
            assert list(q.coeffs) == _trimmed(want_q) and list(r.coeffs) == _trimmed(want_r)
            assert a // b == q and a % b == r
            assert len(b._mod.inv) == longest
        assert q * b + r == a

    def test_short_then_long_extends_one_inverse(self):
        """A short quotient builds the kept inverse only as far as it needs;
        a long one then extends that prefix, and no `_inv_series` call starts
        again from lc(b)^-1."""
        l = 1999
        rng = random.Random(1)
        b = random_poly(rng, l, max_deg=100) * FpPoly.make(l, [0] * 100 + [1])
        short = b * FpPoly.make(l, [rng.randrange(l) for _ in range(4)] + [1]) + 5
        long = b * FpPoly.make(l, [rng.randrange(l) for _ in range(149)] + [1]) + 7
        with mock.patch.object(ffpoly, "_Modulus", wraps=ffpoly._Modulus) as prep, mock.patch.object(
            ffpoly, "_inv_series", wraps=ffpoly._inv_series
        ) as inv:
            assert short % b == FpPoly.make(l, [5]) and (short - 5) // b * b == short - 5
            assert long % b == FpPoly.make(l, [7]) and (long - 7) // b * b == long - 7
        assert prep.call_count == 1
        assert [(len(c.args[3]), c.args[2]) for c in inv.call_args_list] == [(1, 5), (5, 150)]

    def test_powmod_reuses_one_inverse(self):
        l = 1999
        f = random_poly(random.Random(2), l, max_deg=300).monic() * FpPoly.make(l, [0] * 200 + [1])
        with mock.patch.object(ffpoly, "_inv_series", wraps=ffpoly._inv_series) as inv:
            h = FpPoly.x(l).powmod(l, f)
            h2 = h.powmod(l, f)
            assert (h * h2) % f == FpPoly.x(l).powmod(l + l * l, f)
        assert inv.call_count == 1

    def test_pickle_drops_the_cache(self):
        f = FpPoly.make(1999, list(range(1, 200)))
        FpPoly.make(1999, list(range(1, 400))) % f
        assert f._mod is not None
        g = pickle.loads(pickle.dumps(f))
        assert g == f and g._mod is None


class TestReductionMatrix:
    """A powmod by a divisor of degree at most _MATRIX_MAX_DEG reduces every
    product of two residues by the matrix its `_Modulus` keeps
    (`_Modulus.residue`); reductions and whole powmods equal the schoolbook
    oracle at degree 2 and on both sides of the threshold, at l = 999983 with
    coefficients near l - 1 as well, where the sums come nearest the int64
    bound."""

    DEGREES = [2, _MATRIX_MAX_DEG - 1, _MATRIX_MAX_DEG, _MATRIX_MAX_DEG + 1]

    @staticmethod
    def coeffs(rng, l, n):
        return TestKernelAgainstSchoolbook.coeffs(rng, l, n, monic_like=True)

    @pytest.mark.parametrize("l", [3, 1999, 999983])
    @pytest.mark.parametrize("d", DEGREES)
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reduction(self, l, d, seed):
        rng = random.Random(seed)
        b = self.coeffs(rng, l, d + 1)
        f = FpPoly.make(l, b)
        for n in (d + 1, rng.randint(d + 1, 2 * d - 1), 2 * d - 1):
            a = self.coeffs(rng, l, n)
            want = oracles.schoolbook_divmod(l, a, b)[1]
            assert _trimmed(f._prepared().residue(_vec(l, a))) == _trimmed(want)
        assert (f._mod._mat is not None) == (d <= _MATRIX_MAX_DEG)

    @pytest.mark.parametrize("l", [3, 1999, 999983])
    @pytest.mark.parametrize("d", DEGREES)
    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_powmod(self, l, d, seed):
        rng = random.Random(seed)
        b = self.coeffs(rng, l, d + 1)
        base = self.coeffs(rng, l, rng.randint(1, 2 * d))
        e = rng.randint(2, 40)
        f = FpPoly.make(l, b)
        out = FpPoly.make(l, base).powmod(e, f)
        assert list(out.coeffs) == _trimmed(oracles.schoolbook_powmod(l, base, e, b))

    def test_matrix_rows(self):
        """Row i of the matrix is x^(d+i) mod b, also for a non-monic b."""
        l, b = 1999, [5, 0, 7, 1, 3]
        R = ffpoly._reduction_matrix(l, _vec(l, b))
        assert R.shape == (3, 4)
        for i, row in enumerate(R):
            assert _trimmed(row) == _trimmed(oracles.schoolbook_divmod(l, [0] * (4 + i) + [1], b)[1])

    def test_powmod_by_degree_31_reduces_by_the_matrix(self):
        """Every reduction of a powmod mod a degree-31 divisor goes through
        the one matrix built on it: no quotient is formed (the base is
        already reduced), and no inverse is built.  With the matrix path off,
        the products take Newton quotients of up to 30 coefficients."""
        l = 997
        rng = random.Random(3)
        f = FpPoly.make(l, [rng.randrange(l) for _ in range(31)] + [1])
        e = (l * l - 1) // 2

        def quotients(spy):
            return [len(c.args[1]) - 31 for c in spy.call_args_list if len(c.args[1]) > 31]

        divmod_ = ffpoly._Modulus.divmod
        with mock.patch.object(ffpoly._Modulus, "divmod", autospec=True, side_effect=divmod_) as div, \
                mock.patch.object(ffpoly, "_reduction_matrix", wraps=ffpoly._reduction_matrix) as build:
            h = FpPoly.x(l).powmod(e, f)
            assert FpPoly.x(l).powmod(e, f) == h
        assert quotients(div) == [] and build.call_count == 1 and len(f._mod.inv) == 1
        g = FpPoly(l, f._v)
        with mock.patch.object(ffpoly, "_MATRIX_MAX_DEG", 0), mock.patch.object(
            ffpoly._Modulus, "divmod", autospec=True, side_effect=divmod_
        ) as div:
            assert FpPoly.x(l).powmod(e, g) == h
        assert 30 in quotients(div) and g._mod._mat is None

    def test_int64_bound_is_asserted(self):
        l = (1 << 61) - 1
        f = FpPoly(l, np.full(5, l - 1, dtype=np.int64))
        with pytest.raises(AssertionError, match="int64 bound"):
            f._prepared().residue(np.full(7, l - 1, dtype=np.int64))


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
    """A square root read off one squarefree decomposition, as
    `ss7star_resultant` takes it: f / lc(f) = g^2 exactly when every
    multiplicity is even, and halving them gives g."""

    def test_constructed_square(self):
        x1, x3 = FpPoly.make(7, [1, 1]), FpPoly.make(7, [3, 1])
        assert squarefree_decomposition(x1**2 * x3**4) == [(x1, 2), (x3, 4)]

    def test_f7_at_27(self):
        f = FpPoly.make(11, C.expand_f7(27))
        assert squarefree_decomposition(f) == [(FpPoly.make(11, C.CUBIC_D28), 2)]

    def test_non_square_rejected(self):
        f = FpPoly.make(7, [1, 0, 1])
        assert squarefree_decomposition(f) == [(f, 1)]

    def test_round_trip_100_cases(self):
        rng = random.Random(10)
        for _ in range(100):
            l = rng.choice(PRIMES)
            g = random_poly(rng, l, max_deg=32).monic()
            assert squarefree_decomposition(g * g) == [(c, 2 * m) for c, m in squarefree_decomposition(g)]

    def test_high_multiplicity_at_small_modulus(self):
        # multiplicities divisible by l exercise the l-th power branch
        x1, x2 = FpPoly.make(5, [1, 1]), FpPoly.make(5, [2, 1])
        assert squarefree_decomposition(x1**10 * x2**2) == [(x2, 2), (x1, 10)]


class TestFp2:
    """The roots of a squarefree f in F_{l^2} as the ss^(7*) oracle reads them
    off f's linear and quadratic factors: one pair (a, c) = (Re j, (j - a)^2)
    per conjugate pair j, j^l."""

    def test_roots_of_x2_plus_1_mod_3(self):
        # j = +-theta with theta^2 = -1: a = 0, c = -1
        assert _root_pairs(FpPoly.make(3, [1, 0, 1])) == [(0, 2)]

    def test_ss13_single_rational_root(self):
        assert _root_pairs(FpPoly.make(13, [8, 1])) == [(5, 0)]

    def test_conjugate_quadratic_roots(self):
        # x^2 - x + 1: a = 1/2 = 3, c = (1 - 4)/4 = 3, a nonresidue mod 5
        assert _root_pairs(FpPoly.make(5, [1, -1, 1])) == [(3, 3)]

    @pytest.mark.parametrize("l", [5, 13, 31])
    def test_against_every_point_of_fp2(self, l):
        """The pairs are those of the a + b theta at which f vanishes, found
        by evaluating f at all l^2 points, for squarefree f built from random
        linear and quadratic factors."""
        rng = random.Random(l)
        nu = smallest_nonresidue(l)
        points = [(a, b) for a in range(l) for b in range(l)]
        for _ in range(12):
            f = FpPoly.one(l)
            for _ in range(rng.randint(1, 6)):
                f = f * random_poly(rng, l, max_deg=2)
            f = radical(f)
            want = set()
            for a, b in points:
                # Horner in F_l(theta): (u + v theta)(a + b theta) = (ua + nu vb) + (ub + va) theta
                u = v = 0
                for c in reversed(f.coeffs):
                    u, v = (u * a + nu * v * b + c) % l, (u * b + v * a) % l
                if not u and not v:
                    want.add((a, nu * b * b % l))
            assert _root_pairs(f) == sorted(want), f


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
