import ast
from fractions import Fraction
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fricke7 import constants as C
from fricke7 import exactalg, qseries
from fricke7.cmeval import verify_psi7_root
from fricke7.exactalg import REGISTRY, _gcd_residual, verify_identity
from fricke7.errors import StructuralError
from fricke7.exactring import MPoly, pmul
from fricke7.ffpoly import PrimeContext
from fricke7.hasse7 import count_factors
from fricke7.ss7star import counts_and_nakaya
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


def _rebuilt(name, value):
    """The constants that change when the assignment to `name` in
    constants.py reads `value`: the module runs again from its source with
    that one assignment replaced, so every constant built from `name` at
    import follows it, as it would after a miscopied literal."""
    tree = ast.parse(Path(C.__file__).read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == name]
    node.value = ast.copy_location(ast.Constant(value), node.value)
    namespace = {"__name__": C.__name__, "__package__": C.__package__}
    exec(compile(tree, C.__file__, "exec"), namespace)
    return {k: v for k, v in namespace.items() if isinstance(v, tuple) and v != getattr(C, k)}


def _mutate(monkeypatch, name, wrong):
    if callable(wrong):
        monkeypatch.setattr(C, name, wrong)
    else:
        for k, v in _rebuilt(name, wrong).items():
            monkeypatch.setattr(C, k, v)


def _off_by_one(value, k):
    """The coefficients `value` with coefficient k one too large."""
    return tuple(c + (i == k) for i, c in enumerate(value))


def _miscopied(fn, k):
    """fn with coefficient k of the list it returns one too large."""
    return lambda *args: _off_by_one(fn(*args), k)


def _wrong_b_form(a, b, _b_form=C.b_form):
    """b_form with 8b miscopied as 7b."""
    return _b_form(a, b) - b


# every registry case built on f_7
F7_CASES = ["DISC_F7", "RES_G_F7", "LEMMA_B_DISC", "F7_T1", "F7_PHI", "RES_G_F7_R7", "SPLIT_QUADRATIC"]
MUTATIONS = {
    # name: (wrong value, failing identities, failing q-series cases, failing self_check entries)
    # a sign flip in R_7 must surface as a nonzero residual in RES_G_F7_R7
    "R7_A": (tuple(-c for c in C.R7_A), ["RES_G_F7_R7"], [], []),
    # a miscopied f_7, n or m must fail every case built on f_7 (9t + 6 read as 9t + 7,
    # -7 as -6 in n, -4 as -3 in m); n and m also fail the q-series vanishing of f_7
    "expand_f7": (_miscopied(C.expand_f7, 4), F7_CASES, [], ["f7_expand_univar"]),
    "F7_N": (_off_by_one(C.F7_N, 3), F7_CASES, ["F7_VANISH"], ["f7_expand_univar"]),
    "F7_M": (_off_by_one(C.F7_M, 2), F7_CASES, ["F7_VANISH"], ["f7_expand_univar"]),
    # a miscopied g, -(a + 3) read as -(a + 2), must fail every case and check built on g
    "g_cubic": (
        _miscopied(C.g_cubic, 1),
        ["RES_G_F7", "G_CUBIC_T1", "SPLIT_QUADRATIC", "T1_CUBIC_ETA"],
        ["Z_DEF"],
        ["f1728_via_qz"],
    ),
    # R_7's b is built from the quadratic factor, so a miscopied factor fails R_7
    "QUAD_CORR": (_off_by_one(C.QUAD_CORR, 1), ["RES_G_F7_R7"], [], []),
    # a miscopied B must fail the discriminant the registry certifies
    "b_form": (_wrong_b_form, ["LEMMA_B_DISC"], [], []),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutation_detected(name, monkeypatch):
    wrong, cases, series, checks = MUTATIONS[name]
    _mutate(monkeypatch, name, wrong)
    monkeypatch.setattr(exactalg, "GRID_POINTS", 6)  # detection only, not a proof
    assert [r.id for r in run_all_identities() if not r.ok] == cases
    assert [c for c in qseries.REGISTRY if not qseries.verify_series_identity(c, qseries.MIN_PREC).ok] == series
    assert [k for k, ok in C.self_check() if not ok] == checks


def test_rebuilt_constants_follow_what_they_are_built_from():
    """R_7's b follows a miscopied quadratic factor; no constant is built
    from m, so a miscopied m moves alone."""
    assert set(_rebuilt("QUAD_CORR", _off_by_one(C.QUAD_CORR, 1))) == {"QUAD_CORR", "R7_B"}
    assert set(_rebuilt("F7_M", _off_by_one(C.F7_M, 2))) == {"F7_M"}


def test_wrong_f7_m_fails_the_program(monkeypatch):
    """The CM evaluation of j_7^* and the N6 count read the m that the
    registries certify: a miscopied m fails the Psi_7 root and changes N6."""
    ctx = PrimeContext.make(37)  # l = 2 (mod 7)
    n6 = count_factors(ctx, need=("N6",), with_histogram=False).N6
    assert n6 > 0 and verify_psi7_root().ok
    _mutate(monkeypatch, "F7_M", _off_by_one(C.F7_M, 2))
    assert count_factors(ctx, need=("N6",), with_histogram=False).N6 != n6
    assert not verify_psi7_root().ok
    assert not qseries.verify_series_identity("F7_VANISH", qseries.MIN_PREC).ok


def test_wrong_quad_corr_fails_ss7star(monkeypatch):
    """The resultant route of ss^(7*) divides by the R_7 the registry
    certifies: a miscopied quadratic factor is refused at p = 41."""
    _mutate(monkeypatch, "QUAD_CORR", _off_by_one(C.QUAD_CORR, 1))
    with pytest.raises(StructuralError):
        counts_and_nakaya(PrimeContext.make(41))


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
