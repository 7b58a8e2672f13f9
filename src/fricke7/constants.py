"""Fixed polynomials, rational maps and reference tables used throughout the
package.

Single source of truth: every constant is stored with exact integer (or
rational) coefficients; reductions mod l are derived on demand elsewhere.
Coefficient lists are dense, low degree first.  A polynomial built from
others (f_7's n and m, R_7's b, the j-maps) is computed from them, not typed
again; ``self_check()`` verifies the structural identities that the registries
do not prove, so a transcription slip fails loudly at import-test time.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .exactring import (
    CubicNum,
    MPoly,
    discriminant,
    homogenize,
    pderiv,
    pdeg,
    pmul,
    pmul_many,
    ppow,
    pscale,
    pshift,
    psub,
    resultant,
)

# ---------------------------------------------------------------------------
# building blocks

X2X1 = (1, -1, 1)                                   # x^2 - x + 1
P_CUBIC = (1, 5, -8, 1)                             # x^3 - 8x^2 + 5x + 1
CUBIC_D7 = (1, -2, -1, 1)                           # x^3 - x^2 - 2x + 1
CUBIC_D28 = (1, 12, -15, 1)                         # x^3 - 15x^2 + 12x + 1
SEXTIC_J0 = (1, 5, -10, -15, 30, -11, 1)            # x^6 - 11x^5 + ... + 1
SEXTIC_229 = (1, -235, 1430, -1695, 270, 229, 1)    # x^6 + 229x^5 + ... + 1
Z2_3Z_9 = (9, -3, 1)                                # z^2 - 3z + 9
Z2_11Z_25 = (25, -11, 1)                            # z^2 - 11z + 25
Z2_229Z_505 = (505, 229, 1)                         # z^2 + 229z + 505

F0 = tuple(pmul(X2X1, SEXTIC_J0))                   # degree 8

# f_7(x, t) = n - t m with n = (x^2 - x + 1)^3 and m = x(x - 1) p(x)
F7_N = tuple(ppow(X2X1, 3))
F7_M = tuple(pmul_many([(0, 1), (-1, 1), P_CUBIC]))

F1728 = (1, 6, -15, -46, 174, -222, 273, -486, 570, -354, 117, -18, 1)
A_POLY = (1, 3, 2, -29, 32, -9, 1)                  # x^6 - 9x^5 + 32x^4 - ...
B_POLY = (1, 1, -4, 1)                              # x^3 - 4x^2 + x + 1
Q_Z = (393, -298, 111, -18, 1)                      # z^4 - 18z^3 + 111z^2 - 298z + 393

# j_7(x) = J7_NUM / J7_DEN,  j_{7,7}(x) = J77_NUM / J77_DEN
J7_NUM = tuple(pmul(ppow(X2X1, 3), ppow(SEXTIC_J0, 3)))        # degree 24
J7_DEN = tuple(pmul_many([pshift([1], 7), ppow((-1, 1), 7), P_CUBIC]))  # x^7(x-1)^7 p(x)
J77_NUM = tuple(pmul(ppow(X2X1, 3), ppow(SEXTIC_229, 3)))      # degree 24
J77_DEN = tuple(pmul_many([(0, 1), (-1, 1), ppow(P_CUBIC, 7)]))  # x(x-1) p(x)^7

# correction factors in the ss_p^(7*) resultant congruence
QUAD_CORR = (448, 224, 1)                    # Y^2 + 224Y + 448
QUARTIC_CORR = (-1728, -5120, -9024, -528, 1)  # Y^4 - 528Y^3 - 9024Y^2 - 5120Y - 1728

# modular relation R_7(X, Y) = X^2 - a7(Y) X + b7(Y)
R7_A = tuple(pmul_many([(0, 1), (8, -21, 1), (-1280, -1008, 454, -42, 1)]))  # deg 7
R7_B = tuple(pshift(ppow(QUAD_CORR, 3), 2))                                  # Y^2 QUAD_CORR^3

# Klein-curve / eqn (6)(7) pieces
F_Z_NUM = tuple(pmul(Z2_3Z_9, ppow(Z2_11Z_25, 3)))      # (z^2-3z+9)(z^2-11z+25)^3
G1_Z_NUM = tuple(pmul(Z2_3Z_9, ppow(Z2_229Z_505, 3)))   # (z^2-3z+9)(z^2+229z+505)^3

# h = q^-1 prod_n prod_(res, e) (1 - q^(7n-res))^e: (residue class mod 7, exponent)
H_EXPONENTS = ((3, 1), (4, 1), (2, 2), (5, 2), (1, -3), (6, -3))


def g_cubic(a) -> list:
    """x^3 + a x^2 - (a+3) x + 1; `a` may be an int, Fraction or symbol."""
    return [1, -(a + 3), a, 1]


def expand_f7(t) -> Tuple:
    """f_7(x, t) = F7_N - t F7_M, expanded in x."""
    return tuple(n - t * m for n, m in zip(F7_N, F7_M + (0,)))


def b_form(a, b):
    """B(a, b), whose zeros (l = 1, 6 mod 7) are the quadratics x^2 + a x + b
    the N2 count takes; a and b are integers or polynomials (`FpPoly`, `MPoly`)."""
    return a**3 + (8 - 5 * b) * a**2 + (5 + 6 * b - 8 * b**2) * a - b**3 - 5 * b**2 + 8 * b - 1


# ---------------------------------------------------------------------------
# bivariate forms (for the exact identity suite)

_ZJ = ("z", "j")
_AB = ("x", "y")  # (a, b) of B(a, b) and C(a, b), named x, y
_UV = ("u", "v")


def _uni(coeffs, name, vars) -> MPoly:
    return MPoly.from_univar(coeffs, name, vars)


def F_mpoly() -> MPoly:
    z = MPoly.var("z", _ZJ)
    j = MPoly.var("j", _ZJ)
    return _uni(F_Z_NUM, "z", _ZJ) - j * (z - 8)


def C_mpoly() -> MPoly:
    a = MPoly.var("x", _AB)
    b = MPoly.var("y", _AB)
    return (
        a**3
        + (-5 * b + 8) * a**2
        + (-8 * b**2 - 43 * b + 5) * a
        - b**3
        - 54 * b**2
        - 41 * b
        - 1
    )


def c_factors_over_qr() -> List[MPoly]:
    """The three reference linear factors of C(a, b) over QQ(r)."""
    r = CubicNum.gen()
    a = MPoly.var("x", _AB).map_coeffs(lambda c: CubicNum(c))
    b = MPoly.var("y", _AB).map_coeffs(lambda c: CubicNum(c))
    one = MPoly.const(CubicNum(1), _AB)
    return [
        (r - 1) * b + ((r * r - 7 * r - 2) * one) - a,
        (r * r - 7 * r - 1) * b + ((r * r - 8 * r + 6) * one) + a,
        (r * r - 8 * r + 5) * b - r * one - a,
    ]


# reference expansion of the quadratic-in-t resultant Res_x(x^2+ax+b, f_7(x,t))
def quadratic_resultant_ref() -> Tuple[MPoly, MPoly, MPoly]:
    """(coefficient of t^2, of t, of 1), each an MPoly in (a, b) = vars (x, y)."""
    a = MPoly.var("x", _AB)
    b = MPoly.var("y", _AB)
    t2 = -b * (b + 1 + a) * C_mpoly()
    t1 = (
        (-b + 1) * a**5
        + (4 * b**2 + 9) * a**4
        + (13 * b**3 + 23 * b**2 + 16 * b + 13) * a**3
        + (9 * b**4 + 30 * b**3 + 78 * b**2 - 4 * b + 4) * a**2
        + (b**5 - 6 * b**4 + 82 * b**3 + 48 * b**2 - 33 * b - 1) * a
        - 12 * b**5
        + 24 * b**4
        + 26 * b**3
        + 2 * b**2
        - 14 * b
    )
    t0 = (a**2 + a * b + b**2 + a - b + 1) ** 3
    return t2, t1, t0


def quadratic_disc_ref() -> MPoly:
    """The discriminant of that quadratic in t: (a^2-4b)(ab+b^2+a+3b+1)^2 B(a,b)^2."""
    a = MPoly.var("x", _AB)
    b = MPoly.var("y", _AB)
    return (a**2 - 4 * b) * (a * b + b**2 + a + 3 * b + 1) ** 2 * b_form(a, b) ** 2


# the octic F(u, v) = uv (J(u+8) - J(v+8))/(u - v), reference expansion
def uv_octic_ref() -> MPoly:
    u = MPoly.var("u", _UV)
    v = MPoly.var("v", _UV)
    return (
        u**7 * v
        + (v**2 + 28 * v) * u**6
        + (v**3 + 28 * v**2 + 322 * v) * u**5
        + v * (v**3 + 28 * v**2 + 322 * v + 1904) * u**4
        + v * (v**4 + 28 * v**3 + 322 * v**2 + 1904 * v + 5915) * u**3
        + v * (v**5 + 28 * v**4 + 322 * v**3 + 1904 * v**2 + 5915 * v + 8624) * u**2
        + v * (v**6 + 28 * v**5 + 322 * v**4 + 1904 * v**3 + 5915 * v**2 + 8624 * v + 4018) * u
        - 49
    )


def uv_octic_symmetric_form() -> MPoly:
    """A_8 + 28A_7 + 322A_6 + 1904A_5 + 5915A_4 + 8624A_3 + 4018A_2 - 49."""
    u = MPoly.var("u", _UV)
    v = MPoly.var("v", _UV)

    def A(k: int) -> MPoly:
        out = MPoly.const(0, _UV)
        for i in range(1, k):
            out = out + u**i * v ** (k - i)
        return out

    weights = {8: 1, 7: 28, 6: 322, 5: 1904, 4: 5915, 3: 8624, 2: 4018}
    out = MPoly.const(-49, _UV)
    for k, w in weights.items():
        out = out + w * A(k)
    return out


# ---------------------------------------------------------------------------
# fractional-linear maps (projective matrices)

PHI_MATRIX = ((0, 1), (-1, 1))          # x -> 1/(1-x)


def t_matrix(r) -> Tuple[Tuple, Tuple]:
    """x -> (x - r)/((1-r)x - 1) for a root r of P_CUBIC."""
    return ((1, -r), (1 - r, -1))


# ---------------------------------------------------------------------------
# reference tables

ETA_UNIT = CubicNum(Fraction(-1, 7), Fraction(-15, 7), Fraction(19, 7))
EPSILON_R_REF = CubicNum(-56645954512, -290993856257, 413283046371)

H_MINUS: Dict[int, Tuple[int, ...]] = {
    3: (0, 1),
    12: (-54000, 1),
    20: (-681472000, -1264000, 1),
    52: (-567663552000000, -6896880000, 1),
    19: (884736, 1),  # X + 96^3
}

M_D: Dict[int, Tuple[int, ...]] = {
    3: (9, -3, 1),
    12: (25, -5, 1),
    20: (305, -50, -9, -2, 1),
    52: (67825, -17770, 1599, -58, 1),
    19: (73, -11, 1),
}

PD_TABLE: Dict[int, Tuple[int, ...]] = {
    20: (1, -10, 25, 90, -250, -302, 1377, -1430, 530, -10, -19, -2, 1),
    52: (1, 46, 1073, 6962, -6530, -92782, 247929, -250342, 112498, -20442, 1645, -58, 1),
    68: (
        1, -12, 1550, 3744, -34875, 235800, 495178, -5340652, 7200858,
        -2645876, 89881766, -446384584, 999381181, -1314407496, 1111176102,
        -626494580, 241323226, -66497132, 14397706, -2647784, 391173,
        -36832, 1550, -12, 1,
    ),
    83: (
        1, 119, 4589, 25892, -69346, -92082, 1092050, -6393600, 20853979,
        -38751299, 43709339, -31178560, 14472274, -4517362, 953694,
        -116316, 6765, -137, 1,
    ),
}

PSI7 = (20123648, 14082048, 527245312, 38845440, 78235776, -5914240, 125056, -464, 1)

# reference mod-l factorizations (factor coefficient tuple low-first, multiplicity)
PD_FACTORIZATION_REF: Dict[Tuple[int, int], Tuple[Tuple[Tuple[int, ...], int], ...]] = {
    (20, 5): (((1, 2, 0, 1), 2), ((1, 3, 4, 1), 2)),
    (52, 13): tuple(((c, 1), 2) for c in (2, 4, 5, 7, 8, 10)),
    (68, 17): (
        ((1, 10, 4, 1), 2),
        ((1, 15, 16, 1), 2),
        ((1, 8, 6, 1), 2),
        ((1, 12, 2, 1), 2),
    ),
    (83, 83): tuple(((c, 1), 2) for c in (18, 22, 27, 35, 42, 48, 53, 63, 80)),
}

PSI7_MOD41_REF: Tuple[Tuple[Tuple[int, ...], int], ...] = (
    ((1, 1), 1),
    ((14, 1), 1),
    ((8, 1), 2),
    ((29, 1), 2),
    ((31, 1), 2),
)

SS41_LINEAR_ROOTS = (0, 1, 8, 12, 13, 14, 17, 29, 31, 33, 39)  # factors (Y + c) -> root -c
SS41_QUADRATICS = ((18, 1, 1), (26, 37, 1))  # Y^2 + Y + 18, Y^2 + 37Y + 26

# reference q-expansions (leading exponent, then successive coefficients)
REF_H = (-1, (1, 3, 4, 3, 0, -5, -7, -2, 8, 16, 12))
REF_ETA4 = (-1, (1, -4, 2, 8, -5, -4, -10, 12, -7, 8, 46))
REF_J7STAR = (-1, (1, 9, 51, 204, 681, 1956, 5135))
REF_S = (-3, (1, 1, 1, 0, -1, -1, 0, 1, 2, 1, -1, -3))  # u^-3 * (series in q)

# the reference CM point for the Psi_7 check: w = 29 + sqrt(-41)
PSI7_CM_POINT = (164, 58)  # d = 4*41, w = (58 + sqrt(-164))/2 = 29 + sqrt(-41)


# ---------------------------------------------------------------------------
# transcription self-check


def self_check() -> List[Tuple[str, bool]]:
    """Re-verify the structural identities among the stored constants that
    the exact identity registry (`exactalg.REGISTRY`) does not prove.

    Returns (name, ok) pairs; any False indicates a transcription slip.
    """
    results: List[Tuple[str, bool]] = []

    def check(name: str, ok: bool) -> None:
        results.append((name, bool(ok)))

    # f7 is the square of a cubic at t = -1 and t = 27, where its discriminant vanishes
    check(
        "f7_expand_univar",
        list(expand_f7(-1)) == ppow(CUBIC_D7, 2) and list(expand_f7(27)) == ppow(CUBIC_D28, 2),
    )

    # q(z) = (z^2 - 9z + 29)^2 - 28(z - 4)^2
    check("qz_norm_form", list(Q_Z) == psub(ppow((29, -9, 1), 2), pscale(ppow((-4, 1), 2), 28)))

    # f1728(x) = x^4 (x-1)^4 q((x^3-3x+1)/(x(x-1))), cleared of denominators
    x = MPoly.var("x", ("x",))
    via_qz = homogenize(Q_Z, _uni(g_cubic(0), "x", ("x",)), x * (x - 1))
    check("f1728_via_qz", via_qz == _uni(F1728, "x", ("x",)))

    # discriminants quoted in the factor-orbit argument
    check("disc_cubic_d7", discriminant(CUBIC_D7) == 49)
    check("disc_cubic_d28", discriminant(CUBIC_D28) == 3**6 * 7**2)

    # phi has order 3, T_1 order 2 (projectively)
    def matmul(m, n):
        return tuple(
            tuple(sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    phi3 = matmul(matmul(PHI_MATRIX, PHI_MATRIX), PHI_MATRIX)
    check("phi_order_3", phi3[0][1] == 0 and phi3[1][0] == 0 and phi3[0][0] == phi3[1][1] != 0)
    r = CubicNum.gen()
    tm = t_matrix(r)
    t2 = matmul(tm, tm)
    check(
        "t1_order_2",
        (not t2[0][1]) and (not t2[1][0]) and t2[0][0] == t2[1][1] and bool(t2[0][0]),
    )

    # unit eta and the epsilon = r^8 (r-1)^8 expansion
    check("eta_unit_norm", ETA_UNIT.norm() == 1)
    check("norm_r_plus_2", (r + 2).norm() == 49)
    check("epsilon_expansion", (r**8) * (r - 1) ** 8 == EPSILON_R_REF)

    # block degrees entering the Hasse invariant
    check(
        "hasse_block_degrees",
        pdeg(list(F0)) == 8
        and pdeg(list(F1728)) == 12
        and pdeg(list(J7_NUM)) == 24
        and pdeg(list(J7_DEN)) == 17
        and pdeg(list(J77_NUM)) == 24
        and pdeg(list(J77_DEN)) == 23,
    )

    # the squarefree certificate of the Hasse invariant: num' den - num den' of
    # j_7 vanishes only over j = 0, 1728 and infinity, and the j = 0, 1728 blocks
    # have discriminant 2^a 3^b 7^c
    check(
        "j7_wronskian",
        psub(pmul(pderiv(J7_NUM), J7_DEN), pmul(J7_NUM, pderiv(J7_DEN)))
        == pscale(pmul_many([ppow(X2X1, 2), ppow(SEXTIC_J0, 2), F1728, pshift([1], 6), ppow((-1, 1), 6)]), 7),
    )
    disc = abs(discriminant(pmul(F0, F1728)))
    for q in (2, 3, 7):
        while disc % q == 0:
            disc //= q
    check("hasse_blocks_disc_237", disc == 1)

    # scattered resultants entering the factor-orbit arguments
    check("res_x2x1_d7", resultant(X2X1, CUBIC_D7) == 7)
    check("res_x2x1_d28", resultant(X2X1, CUBIC_D28) == 3**3 * 7)
    check("res_sextic_d28", resultant(SEXTIC_J0, CUBIC_D28) == 5**3 * 17**3)

    # table shape sanity
    check(
        "pd_degrees",
        {d: pdeg(list(p)) for d, p in PD_TABLE.items()} == {20: 12, 52: 12, 68: 24, 83: 18}
        and pdeg(list(PSI7)) == 8,
    )
    return results


def self_check_ok() -> bool:
    return all(ok for _, ok in self_check())
