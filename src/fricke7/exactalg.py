"""Exact verification of the polynomial identities underlying the level-7
supersingular machinery, over ZZ, QQ, QQ(r) with r^3-8r^2+5r+1 = 0, and
ZZ[t][z]/(z^2-(t+3)z+(8t+9)).

Every case evaluates both sides with exact arithmetic and reports the residual;
a pass is a proof of the identity (grid checks use strictly more points per
variable than the degree bound, so they are proofs too).  `verify_identity`
runs one case of `REGISTRY` by id; the `identities` command of the CLI runs
them all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Sequence

from . import constants as C
from .exactring import (
    CubicNum,
    MPoly,
    discriminant,
    homogenize,
    peval,
    pmul,
    pmul_many,
    ppow,
    prem,
    pscale,
    pshift,
    psub,
    resultant,
)

# RES_G_F7_R7 evaluation grid: both sides have deg_X <= 6, deg_Y <= 24, and the
# spec's stated bound is deg_X <= 12, deg_Y <= 48; 60 points per axis exceeds all.
GRID_POINTS = 60


@dataclass(frozen=True)
class IdentityResult:
    id: str
    ok: bool
    seconds: float
    detail: str = ""


def _is_zero_residual(x) -> bool:
    if isinstance(x, MPoly):
        return x.is_zero
    if isinstance(x, (int, Fraction)):
        return x == 0
    if isinstance(x, CubicNum):
        return not x
    if isinstance(x, (list, tuple)):
        return all(_is_zero_residual(e) for e in x)
    raise TypeError(type(x))


# ---------------------------------------------------------------------------
# helpers


def _cubic_mpoly(coeffs: Sequence, name: str, vars) -> MPoly:
    return MPoly.from_univar([_lift(c) for c in coeffs], name, vars)


def _lift(c):
    return c if isinstance(c, (CubicNum, MPoly)) else CubicNum(c)


def _t1_clear(coeffs: Sequence, vars) -> MPoly:
    """sum_k c_k (x - r)^k ((1-r)x - 1)^(n-k): the cleared substitution x -> T_1(x)."""
    r = CubicNum.gen()
    x = MPoly.var("x", vars)
    return homogenize(coeffs, x - r, (1 - r) * x - 1)


def _phi_clear(coeffs: Sequence, vars) -> MPoly:
    """(1-x)^n f(1/(1-x)) = sum_k c_k (1-x)^(n-k) for f = sum c_k x^k."""
    return homogenize(coeffs, MPoly.const(1, vars), 1 - MPoly.var("x", vars))


# ---------------------------------------------------------------------------
# the cases


def _case_disc_f7():
    t = MPoly.var("t", ("t",))
    disc = discriminant(C.expand_f7(t))
    rhs = 7**4 * t**4 * (t + 1) ** 3 * (t - 27) ** 3
    return disc - rhs


def _case_res_g_f7():
    vars = ("a", "t")
    a = MPoly.var("a", vars)
    t = MPoly.var("t", vars)
    res = resultant(C.g_cubic(a), C.expand_f7(t))
    rhs = ((a + 8) * t + a**2 + 3 * a + 9) ** 3
    return res - rhs


def _case_lemma_b_disc():
    # Res_x(x^2 + ax + b, f7(x,t)), a quadratic in t
    vars = ("x", "y", "t")  # a, b named x, y to align with B(x, y); t is t
    a = MPoly.var("x", vars)
    b = MPoly.var("y", vars)
    t = MPoly.var("t", vars)
    res = resultant([b, a, 1], C.expand_f7(t))
    # term-for-term comparison against the reference quadratic in t
    t2_d, t1_d, t0_d = C.quadratic_resultant_ref()
    residues = []
    for k, disp in ((2, t2_d), (1, t1_d), (0, t0_d)):
        got = res.coeff_of("t", k)
        want = MPoly(vars, {e + (0,): c for e, c in disp.terms.items()})
        residues.append(got - want)
    # discriminant factorization
    c2, c1, c0 = (res.coeff_of("t", k) for k in (2, 1, 0))
    D = c1 * c1 - 4 * c2 * c0
    disp_D = C.quadratic_disc_ref()
    want_D = MPoly(vars, {e + (0,): c for e, c in disp_D.terms.items()})
    residues.append(D - want_D)
    return residues


def _case_c_factor():
    f1, f2, f3 = C.c_factors_over_qr()
    lhs = f1 * f2 * f3
    rhs = C.C_mpoly().map_coeffs(lambda c: CubicNum(c))
    return lhs - rhs


def _case_f7_t1():
    vars = ("x", "t")
    f7_coeffs = C.expand_f7(MPoly.var("t", vars))
    lhs = _t1_clear(f7_coeffs, vars)
    r = CubicNum.gen()
    eta = (19 * r**2 - 15 * r - 1) / 7
    scale = eta * (r + 2) ** 3
    return lhs - scale * homogenize(f7_coeffs, MPoly.var("x", vars), 1)


def _case_f7_phi():
    vars = ("x", "t")
    f7_coeffs = C.expand_f7(MPoly.var("t", vars))
    return _phi_clear(f7_coeffs, vars) - homogenize(f7_coeffs, MPoly.var("x", vars), 1)


def _case_j7_ti():
    # j_7(T_1(x)) = j_{7,7}(x) cleared: Ntilde * D2 == N2 * Dtilde * ((1-r)x-1)^7
    vars = ("x",)
    N_t = _t1_clear(C.J7_NUM, vars)
    D_t = _t1_clear(C.J7_DEN, vars)
    N2 = _cubic_mpoly(C.J77_NUM, "x", vars)
    D2 = _cubic_mpoly(C.J77_DEN, "x", vars)
    r = CubicNum.gen()
    x = MPoly.var("x", vars).map_coeffs(_lift)
    den = MPoly.const(CubicNum(1) - r, vars) * x - MPoly.const(CubicNum(1), vars)
    return N_t * D2 - N2 * D_t * den**7


def _case_res_g_f7_r7():
    # Res_h(G(h, X), f7(h, Y)) = 7^42 R7(X, Y)^3, proven on a grid strictly
    # exceeding the degree bounds in X and Y on both sides.
    span = range(-(GRID_POINTS // 2), GRID_POINTS - GRID_POINTS // 2)
    bad = []
    g0 = list(C.J77_NUM)
    gden = list(C.J77_DEN)
    for X0 in span:
        gx = psub(g0, pscale(gden, X0))
        for Y0 in span:
            f7 = list(C.expand_f7(Y0))
            lhs = resultant(gx, f7)
            r7 = X0 * X0 - X0 * peval(C.R7_A, Y0) + peval(C.R7_B, Y0)
            if lhs != 7**42 * r7**3:
                bad.append((X0, Y0, lhs - 7**42 * r7**3))
    return bad


def _case_g_t1_h():
    vars = ("x", "j")
    j = MPoly.var("j", vars).map_coeffs(_lift)
    coeffs = []
    for k in range(25):
        n2 = C.J77_NUM[k] if k < len(C.J77_NUM) else 0
        d2 = C.J77_DEN[k] if k < len(C.J77_DEN) else 0
        coeffs.append(MPoly.const(_lift(n2), vars) - j * MPoly.const(_lift(d2), vars))
    lhs = _t1_clear(coeffs, vars)
    r = CubicNum.gen()
    eps = r**8 * (r - 1) ** 8
    x = MPoly.var("x", vars).map_coeffs(_lift)
    H = _cubic_mpoly(C.J7_NUM, "x", vars) - j * _cubic_mpoly(C.J7_DEN, "x", vars)
    return lhs - MPoly.const(_lift(7**14) * eps, vars) * H


def _case_g_cubic_t1():
    vars = ("x", "a")
    a = MPoly.var("a", vars).map_coeffs(_lift)
    lhs = _t1_clear(C.g_cubic(a), vars)
    r = CubicNum.gen()
    x = MPoly.var("x", vars).map_coeffs(_lift)
    rhs = MPoly.const(r * (CubicNum(1) - r), vars) * (
        (a + 8) * x**3 - (8 * a + 15) * x**2 + (5 * a - 9) * x + (a + 8)
    )
    return lhs - rhs


def _case_f1728_split():
    residues = []
    rhs = psub(
        ppow(C.A_POLY, 2),
        pscale(pmul_many([pshift([1], 2), ppow((-1, 1), 2), ppow(C.B_POLY, 2)]), 28),
    )
    residues.append(psub(list(C.F1728), rhs))
    # phi-equivariance of A and B
    vars = ("x",)
    A_phi = _phi_clear(C.A_POLY, vars)
    B_phi = _phi_clear(C.B_POLY, vars)
    A = MPoly.from_univar(C.A_POLY, "x", vars)
    B = MPoly.from_univar(C.B_POLY, "x", vars)
    residues.append(A_phi - A)
    residues.append(B_phi + B)
    return residues


def _case_g1_to_f():
    vars = ("z", "j")
    z = MPoly.var("z", vars)
    j = MPoly.var("j", vars)
    den = z - 8
    lhs = homogenize(C.G1_Z_NUM, 8 * z - 15, den)
    # (z-8)^8 * (-j) * ((8z-15)/(z-8) - 8)^7 = -j (z-8) 49^7
    lhs = lhs - j * (49**7) * den
    rhs = 7**14 * (MPoly.from_univar(C.F_Z_NUM, "z", vars) - j * den)
    return lhs - rhs


def _case_split_quadratic():
    # f_7 = g(x, -z) g(x, -z') in ZZ[t][z]/(z^2 - (t+3) z + (8t+9)), z' = t + 3 - z,
    # with g(x, a) = x^3 + a x^2 - (a+3) x + 1
    vars = ("x", "t", "z")
    x, t, z = (MPoly.var(v, vars) for v in vars)
    prod = homogenize(C.g_cubic(-z), x, 1) * homogenize(C.g_cubic(z - t - 3), x, 1)
    p0, p1, p2 = (prod.coeff_of("z", k) for k in range(3))
    # z^2 = (t+3) z - (8t+9); the z-part must vanish, the rest must be f_7
    return [p1 + (t + 3) * p2, p0 - (8 * t + 9) * p2 - homogenize(C.expand_f7(t), x, 1)]


def _case_lemma2_f():
    vars = ("u", "v")
    Pu = pmul((49, 13, 1), ppow((1, 5, 1), 3))  # P(u) with J(u+8) = P(u)/u
    u = MPoly.var("u", vars)
    v = MPoly.var("v", vars)
    P_u = MPoly.from_univar(Pu, "u", vars)
    P_v = MPoly.from_univar(Pu, "v", vars)
    num = v * P_u - u * P_v
    F = num.exact_div(u - v)
    residues = [F - C.uv_octic_ref(), F - C.uv_octic_symmetric_form()]
    return residues


def _z_coeffs(P: MPoly) -> list:
    """The coefficient list, low degree first, of a polynomial in z alone."""
    return [P.terms.get((k,), 0) for k in range(P.degree("z") + 1)]


def _gcd_residual(A: MPoly, B: MPoly, M: MPoly) -> list:
    """[prem(A, M), prem(B, M), flag] for A, B, M in z alone over ZZ, all
    zero exactly when M is the monic gcd of A and B over QQ: M is monic and
    divides both, and the cofactors A/M and B/M have a nonzero resultant, so
    they are coprime and every common divisor of A and B divides M.  flag is
    1 when M is not monic, leaves a remainder or the resultant vanishes; the
    cofactors are only formed once M divides, so a wrong M never raises."""
    m = _z_coeffs(M)
    rems = [prem(_z_coeffs(P), m) for P in (A, B)]
    flag = (m[-1] != 1 or any(rems)
            or not resultant(_z_coeffs(A.exact_div(M)), _z_coeffs(B.exact_div(M))))
    return rems + [int(flag)]


def _case_minpoly_gcd():
    # M_d = gcd(H_{-d}(F/(z-8)), H_{-d}(G/(z-8)^7)), cleared, by certificate
    vars = ("z",)
    z = MPoly.var("z", vars)
    F, G = MPoly.from_univar(C.F_Z_NUM, "z", vars), MPoly.from_univar(C.G1_Z_NUM, "z", vars)
    residues = []
    for d, m in C.M_D.items():
        h = C.H_MINUS[d]
        A, B = homogenize(h, F, z - 8), homogenize(h, G, (z - 8) ** 7)
        residues.append(_gcd_residual(A, B, MPoly.from_univar(m, "z", vars)))
    return residues


def _case_res_disc_small():
    residues = []
    F = C.F_mpoly()
    disc = discriminant(F.as_univar("z"))
    j = MPoly.var("j", ("z", "j"))
    residues.append(disc - (-(7**7)) * j**4 * (j - 1728) ** 4)
    residues.append(resultant(C.X2X1, C.F1728) - 2**6 * 3**3 * 7)
    residues.append(resultant(C.SEXTIC_J0, C.CUBIC_D7) - 3**3 * 5**3)
    residues.append(discriminant(C.SEXTIC_J0) - 2**12 * 3**3 * 7**5)
    residues.append(resultant(pmul(C.Z2_3Z_9, C.Z2_11Z_25), (-8, 1)) - 7**2)
    return residues


def _case_t1_cubic_eta():
    # ((1-r)x-1)^3 (T^3 - 3T + 1 - (eta+8) T (T-1))
    #   = r(r-1) (eta x^3 + (-8 eta - 49) x^2 + (5 eta + 49) x + eta),
    # with eta a free indeterminate and T = T_1(x); the cubic in T is
    # g(T, -(eta+8)), so this is G_CUBIC_T1 at a = -(eta+8).
    vars = ("x", "e")
    r = CubicNum.gen()
    x = MPoly.var("x", vars).map_coeffs(_lift)
    eta = MPoly.var("e", vars).map_coeffs(_lift)
    lhs = _t1_clear(C.g_cubic(-(eta + 8)), vars)
    rhs = MPoly.const(r * (r - 1), vars) * (
        eta * x**3 + (-8 * eta - 49) * x**2 + (5 * eta + 49) * x + eta
    )
    return lhs - rhs


REGISTRY: Dict[str, Callable[[], object]] = {
    "DISC_F7": _case_disc_f7,
    "RES_G_F7": _case_res_g_f7,
    "LEMMA_B_DISC": _case_lemma_b_disc,
    "C_FACTOR": _case_c_factor,
    "F7_T1": _case_f7_t1,
    "F7_PHI": _case_f7_phi,
    "J7_TI": _case_j7_ti,
    "RES_G_F7_R7": _case_res_g_f7_r7,
    "G_T1_H": _case_g_t1_h,
    "G_CUBIC_T1": _case_g_cubic_t1,
    "F1728_SPLIT": _case_f1728_split,
    "G1_TO_F": _case_g1_to_f,
    "SPLIT_QUADRATIC": _case_split_quadratic,
    "LEMMA2_F": _case_lemma2_f,
    "MINPOLY_GCD": _case_minpoly_gcd,
    "RES_DISC_SMALL": _case_res_disc_small,
    "T1_CUBIC_ETA": _case_t1_cubic_eta,
}


def verify_identity(case_id: str) -> IdentityResult:
    if case_id not in REGISTRY:
        raise KeyError(f"unknown identity id {case_id!r}")
    t0 = time.perf_counter()
    residual = REGISTRY[case_id]()
    ok = _is_zero_residual(residual)
    dt = time.perf_counter() - t0
    detail = "" if ok else f"nonzero residual: {residual!r:.200s}"
    return IdentityResult(id=case_id, ok=ok, seconds=dt, detail=detail)
