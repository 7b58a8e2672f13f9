"""sympy's galoistools as an oracle for the F_l[x] kernel.

sympy's dense F_l arithmetic shares no code with the numpy kernel behind
`factorize` and `count_factors`, so agreement here checks the kernel up to
l = 999983, the largest prime the kernel takes, where every product
convolves directly.
"""

import random

import pytest

gt = pytest.importorskip("sympy.polys.galoistools")
from sympy.polys.domains import ZZ  # noqa: E402

from fricke7.ffpoly import FpPoly, PrimeContext, factorize  # noqa: E402
from fricke7.hasse7 import count_factors, hasse_poly  # noqa: E402
from fricke7.sweep import primes_in  # noqa: E402


def _gf(f: FpPoly):
    """f as a galoistools dense list, highest degree first."""
    return ZZ.map(list(reversed(f.coeffs)))


def _sympy_factorization(f: FpPoly):
    lc, facs = gt.gf_factor(_gf(f), f.modulus, ZZ)
    return int(lc), sorted((tuple(int(c) for c in reversed(g)), m) for g, m in facs)


def _random_product(rng, l, max_deg):
    """unit * prod g_i^(m_i) for a few random g_i, so that repeated and
    several distinct factors occur even for a huge modulus."""
    f = FpPoly.make(l, [rng.randrange(1, l)])
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(1, max_deg)
        g = FpPoly.make(l, [rng.randrange(l) for _ in range(deg)] + [1])
        f = f * g ** rng.randint(1, 3)
    return f


@pytest.mark.parametrize("l", [5, 13, 101, 1009, 999983])
def test_factorize_matches_sympy(l):
    rng = random.Random(l)
    for _ in range(15):
        f = _random_product(rng, l, max_deg=6)
        fac = factorize(f)
        ours = (fac.unit, sorted((g.coeffs, m) for g, m in fac.factors))
        assert ours == _sympy_factorization(f), f.coeffs


def test_hasse_n1_n3_match_sympy():
    """N1 = deg gcd(sf, x^l - x) and 3 N3 = deg gcd(sf, x^(l^3) - x) - N1 on the
    squarefree part sf of the Hasse polynomial, all in galoistools."""
    x = [ZZ(1), ZZ(0)]
    for l in [p for p in primes_in(5, 199) if p != 7]:
        ctx = PrimeContext.make(l)
        sf = gt.gf_sqf_part(_gf(hasse_poly(ctx)), l, ZZ)

        def split_degree(e):
            h = gt.gf_pow_mod(x, e, sf, l, ZZ)
            return gt.gf_degree(gt.gf_gcd(sf, gt.gf_sub(h, x, l, ZZ), l, ZZ))

        n1 = split_degree(l)
        n3 = (split_degree(l**3) - n1) // 3
        rep = count_factors(ctx, need=("N1", "N3"), with_histogram=False)
        assert (rep.N1, rep.N3) == (n1, n3), l
