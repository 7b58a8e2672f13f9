"""Checks of the paper's statements that no CLI command or sweep reports, and
the runners over the identity registries; only the tests call them.

* `verify_special_factorizations`: the linear/cubic factor counts of f_0 and
  f_1728 and the C+/C- split of f_1728 over F_l(sqrt 7);
* `verify_g_factor_counts`: the factor counts of G(x, j) at the supersingular
  j in F_l other than 0 and 1728;
* `run_all_identities`, `run_all_series_identities`: every case of the exact
  and of the q-series identity registry.
"""

from typing import Dict, List, Optional, Sequence

from fricke7 import constants as C
from fricke7.exactalg import REGISTRY as IDENTITIES
from fricke7.exactalg import IdentityResult, verify_identity
from fricke7.ffpoly import FpPoly, PrimeContext, _ddf, radical
from fricke7.hasse7 import supersingular_j_in_fp
from fricke7.qseries import DEFAULT_PREC, SeriesIdentityResult, verify_series_identity
from fricke7.qseries import REGISTRY as SERIES_IDENTITIES


def sqrt_mod(a: int, p: int) -> Optional[int]:
    """A square root of a mod p (odd prime), or None if a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = smallest_nonresidue(p)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def smallest_nonresidue(p: int) -> int:
    for z in range(2, p):
        if pow(z, (p - 1) // 2, p) == p - 1:
            return z
    raise ValueError(f"no nonresidue mod {p}?")


# ---------------------------------------------------------------------------
# factor counts of the fixed special polynomials and of G(x, j)


def _factor_degrees(f: FpPoly) -> List[int]:
    parts = _ddf(radical(f))
    return [d for d, p in sorted(parts.items()) for _ in range(p.degree // d)]


def _six_linear_or_two_cubics(degs: List[int], want_linear: bool) -> bool:
    """Exactly six distinct linear factors (l = 6 mod 7), or exactly two
    irreducible cubics and no linear factor (l = 3, 5 mod 7)."""
    if want_linear:
        return degs.count(1) == 6
    return degs.count(3) == 2 and degs.count(1) == 0


def verify_special_factorizations(ctx: PrimeContext) -> Dict[str, str]:
    """Linear/cubic factor counts of f_0 and f_1728, plus the C+/C- parity split.

    f_0 (when l = 2 mod 3) and f_1728 (when l = 3 mod 4) must show exactly six
    distinct linear factors for l = 6 mod 7, and exactly two irreducible cubic
    factors for l = 3, 5 mod 7.  The f_1728 case additionally splits over
    F_l(sqrt 7) as C+ C- with one all-linear (or two-cubic) and one
    all-quadratic (or one-sextic) half.
    """
    l = ctx.l
    out: Dict[str, str] = {}
    # the linear case assumes l > 7 with l = 6 mod 7; the cubic case l > 3, l != 7
    if l <= 3 or l == 7 or l % 7 not in (3, 5, 6):
        return {"f0": "SKIP", "f1728": "SKIP", "psv_split": "SKIP"}
    want_linear = l % 7 == 6

    if l % 3 == 2:
        ok = _six_linear_or_two_cubics(_factor_degrees(FpPoly.make(l, C.F0)), want_linear)
        out["f0"] = "PASS" if ok else "FAIL"
    else:
        out["f0"] = "SKIP"

    if l % 4 == 3:
        ok = _six_linear_or_two_cubics(_factor_degrees(FpPoly.make(l, C.F1728)), want_linear)
        out["f1728"] = "PASS" if ok else "FAIL"
        s7 = sqrt_mod(7, l)
        if s7 is None:
            out["psv_split"] = "FAIL"  # sqrt(7) must exist when (-7/l) = -1, l = 3 mod 4
        else:
            xb = FpPoly.make(l, [0, 1]) * FpPoly.make(l, [-1, 1]) * FpPoly.make(l, C.B_POLY)
            a_poly = FpPoly.make(l, C.A_POLY)
            c_plus = a_poly + (2 * s7) * xb
            c_minus = a_poly - (2 * s7) * xb
            shapes = sorted(tuple(sorted(_factor_degrees(c))) for c in (c_plus, c_minus))
            if want_linear:
                ok = shapes == [(1, 1, 1, 1, 1, 1), (2, 2, 2)]
            else:
                ok = shapes == [(3, 3), (6,)]
            out["psv_split"] = "PASS" if ok else "FAIL"
    else:
        out["f1728"] = "SKIP"
        out["psv_split"] = "SKIP"
    return out


def g_of_x_j(l: int, j: int) -> FpPoly:
    """G(x, j) mod l."""
    return FpPoly.make(l, C.J77_NUM) - j * FpPoly.make(l, C.J77_DEN)


def verify_g_factor_counts(ctx: PrimeContext) -> Dict[str, object]:
    """For each supersingular j != 0, 1728 in F_l: G(x, j) has exactly six
    distinct linear factors (l = 6 mod 7) or exactly two irreducible cubic
    factors (l = 3, 5 mod 7)."""
    l = ctx.l
    if l % 7 not in (3, 5, 6):
        return {"status": "SKIP", "checked": 0}
    js = [j for j in supersingular_j_in_fp(ctx) if j not in (0, 1728 % l)]
    for j in js:
        degs = _factor_degrees(g_of_x_j(l, j))
        if not _six_linear_or_two_cubics(degs, l % 7 == 6):
            return {"status": "FAIL", "checked": len(js), "j": j, "degrees": degs}
    return {"status": "PASS" if js else "PASS-VACUOUS", "checked": len(js)}


# ---------------------------------------------------------------------------
# the identity registries


def run_all_identities(ids: Optional[Sequence[str]] = None) -> List[IdentityResult]:
    if ids is None:
        ids = list(IDENTITIES)
    ids = list(ids)
    if not ids:
        raise ValueError("no identity cases selected")
    return [verify_identity(i) for i in ids]


def run_all_series_identities(prec: int = DEFAULT_PREC) -> List[SeriesIdentityResult]:
    return [verify_series_identity(i, prec) for i in SERIES_IDENTITIES]
