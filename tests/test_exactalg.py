import pytest

from fricke7 import constants as C
from fricke7 import exactalg
from fricke7.exactalg import REGISTRY, verify_identity
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


MUTATIONS = {
    # a sign flip in R_7 must surface as a nonzero residual in RES_G_F7_R7
    "R7_A": (tuple(-c for c in C.R7_A), ["RES_G_F7_R7"]),
    # a miscopied f_7 coefficient must fail every case built on expand_f7
    "expand_f7": (
        _wrong_expand_f7,
        ["LEMMA_B_DISC", "F7_T1", "F7_PHI", "RES_G_F7_R7", "SPLIT_QUADRATIC"],
    ),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutation_detected(name, monkeypatch):
    wrong, cases = MUTATIONS[name]
    monkeypatch.setattr(C, name, wrong)
    monkeypatch.setattr(exactalg, "GRID_POINTS", 6)  # detection only, not a proof
    failed = [r.id for r in run_all_identities() if not r.ok]
    assert failed == cases
    assert dict(C.self_check())["f7_expanded_form"] is (name != "expand_f7")


def test_grid_exceeds_degree_bounds():
    # both sides have deg_X <= 6 and deg_Y <= 24; the working bound is
    # (12, 48); the grid must strictly exceed the bound per variable
    assert exactalg.GRID_POINTS > 48 >= 24
    assert exactalg.GRID_POINTS > 12 >= 6
