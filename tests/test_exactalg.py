from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fricke7 import constants as C
from fricke7 import exactalg
from fricke7.exactalg import REGISTRY, _gcd_residual, verify_identity
from fricke7.errors import StructuralError
from fricke7.exactring import MPoly, pmul
from fricke7.ffpoly import PrimeContext
from fricke7.hasse7 import count_factors
from paper_checks import run_all_identities


def test_registry_has_17_cases():
    assert len(REGISTRY) == 17
    assert list(REGISTRY)[0] == "DISC_F7" and "RES_DISC_SMALL" in REGISTRY


@pytest.mark.parametrize("case_id", list(REGISTRY))
def test_identity(case_id):
    res = verify_identity(case_id)
    assert res.ok, f"{case_id}: {res.detail}"


def test_run_all_pass():
    results = run_all_identities()
    assert sum(r.ok for r in results) == len(results) == 17


def test_unknown_id_rejected():
    with pytest.raises(KeyError):
        verify_identity("NOPE")


def test_empty_filter_rejected():
    with pytest.raises(ValueError):
        run_all_identities([])


_expand_f7 = C.expand_f7


def _wrong_expand_f7(t):
    """expand_f7 with 9t + 6 miscopied as 9t + 7."""
    c = list(_expand_f7(t))
    c[4] = c[4] + 1
    return tuple(c)


_b_form = C.b_form


def _wrong_b_form(a, b):
    """b_form with 8b miscopied as 7b."""
    return _b_form(a, b) - b


MUTATIONS = {
    # a sign flip in R_7 must surface as a nonzero residual in RES_G_F7_R7
    "R7_A": (tuple(-c for c in C.R7_A), ["RES_G_F7_R7"]),
    # a miscopied f_7 coefficient must fail every case built on expand_f7
    "expand_f7": (
        _wrong_expand_f7,
        ["LEMMA_B_DISC", "F7_T1", "F7_PHI", "RES_G_F7_R7", "SPLIT_QUADRATIC"],
    ),
    # a miscopied B must fail the discriminant the registry certifies
    "b_form": (_wrong_b_form, ["LEMMA_B_DISC"]),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutation_detected(name, monkeypatch):
    wrong, cases = MUTATIONS[name]
    monkeypatch.setattr(C, name, wrong)
    monkeypatch.setattr(exactalg, "GRID_POINTS", 6)  # detection only, not a proof
    failed = [r.id for r in run_all_identities() if not r.ok]
    assert failed == cases
    assert dict(C.self_check())["f7_expanded_form"] is (name != "expand_f7")


@pytest.mark.parametrize("l", [29, 13])  # l = 1, 6 (mod 7)
def test_wrong_b_form_fails_the_n2_count(l, monkeypatch):
    """The N2 count reads the B that LEMMA_B_DISC certifies: at e = 2 every
    family quadratic must have B(a, b) = 0, so a miscopied B is refused."""
    ctx = PrimeContext.make(l)
    assert count_factors(ctx, need=("N2",), with_histogram=False).N2 > 0
    monkeypatch.setattr(C, "b_form", _wrong_b_form)
    with pytest.raises(StructuralError, match="violates B"):
        count_factors(ctx, need=("N2",), with_histogram=False)


def test_grid_exceeds_degree_bounds():
    # both sides have deg_X <= 6 and deg_Y <= 24; the working bound is
    # (12, 48); the grid must strictly exceed the bound per variable
    assert exactalg.GRID_POINTS > 48 >= 24
    assert exactalg.GRID_POINTS > 12 >= 6


def _z(coeffs) -> MPoly:
    return MPoly.from_univar(list(coeffs), "z", ("z",))


def _poly(max_deg: int, monic: bool = False):
    """Integer coefficient lists, low degree first, with a nonzero (or unit)
    leading coefficient."""
    low = st.lists(st.integers(-4, 4), max_size=max_deg)
    top = st.just(1) if monic else st.integers(-3, 3).filter(bool)
    return st.builds(lambda c, t: c + [t], low, top)


@settings(max_examples=60, deadline=None)
@given(m=_poly(3, monic=True), w=_poly(2), u=_poly(3), v=_poly(3),
       shared=st.booleans(), tweak=st.sampled_from(["planted", "oracle", "shifted", "doubled", "one"]))
def test_gcd_certificate_matches_the_fraction_euclid(m, w, u, v, shared, tweak):
    """A = m u, B = m v with a planted monic common factor m (and, when
    `shared`, a further common factor w): the certificate of a candidate M
    holds exactly when the oracle's Fraction Euclid returns M.  Candidates:
    m itself (the gcd only when u and v are coprime), the oracle's gcd, m
    with its constant shifted, 2m (not monic) and 1."""
    if shared:
        u, v = pmul(w, u), pmul(w, v)
    A, B = pmul(m, u), pmul(m, v)
    gcd = oracles.pgcd_monic(A, B)
    M = {"planted": m, "oracle": gcd, "shifted": [m[0] + 1] + m[1:], "doubled": [2 * c for c in m],
         "one": [1]}[tweak]
    residual = _gcd_residual(_z(A), _z(B), _z(M))
    assert len(residual) == 3 and residual[2] in (0, 1)
    certified = not residual[0] and not residual[1] and residual[2] == 0
    assert certified == ([Fraction(c) for c in M] == gcd)
    if tweak == "oracle":
        assert certified


@pytest.mark.parametrize("wrong", ["constant", "leading", "extra_factor", "squared", "one"])
def test_minpoly_gcd_rejects_a_wrong_m_d(wrong, monkeypatch):
    """A perturbed M_20 reads FAIL with a nonzero residual, and raises
    nothing: a shifted constant, an extra factor z + 1 and M_20^2 leave
    remainders, a doubled M_20 is not monic, and 1 leaves cofactors with the
    common factor M_20, so their resultant vanishes."""
    m = list(C.M_D[20])
    bad = {
        "constant": [m[0] + 1] + m[1:],
        "leading": [2 * c for c in m],
        "extra_factor": pmul(m, [1, 1]),
        "squared": pmul(m, m),
        "one": [1],
    }[wrong]
    monkeypatch.setitem(C.M_D, 20, tuple(bad))
    res = verify_identity("MINPOLY_GCD")
    assert not res.ok and res.detail.startswith("nonzero residual")
    residual = exactalg.REGISTRY["MINPOLY_GCD"]()
    assert [r == [[], [], 0] for r in residual] == [d != 20 for d in C.M_D]
