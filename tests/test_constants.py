from fricke7 import constants as C
from fricke7.classnum import class_number
from fricke7.exactring import pdeg, pmul, ppow, resultant


def test_self_check_passes():
    results = C.self_check()
    failing = [name for name, ok in results if not ok]
    assert not failing, f"transcription checks failed: {failing}"
    assert len(results) >= 18


def test_self_check_has_the_squarefree_certificate():
    results = dict(C.self_check())
    assert results["j7_wronskian"] is True
    assert results["hasse_blocks_disc_237"] is True


def test_expand_f7_matches_special_values():
    assert list(C.expand_f7(0)) == ppow(C.X2X1, 3)
    assert list(C.expand_f7(-1)) == ppow(C.CUBIC_D7, 2)
    assert list(C.expand_f7(27)) == ppow(C.CUBIC_D28, 2)


def test_pd_degrees_are_six_times_class_number():
    for d, poly in C.PD_TABLE.items():
        assert pdeg(list(poly)) == 6 * class_number(-d)


def test_r7_leading_structure():
    # R7 is monic of degree 8 in Y and degree 2 in X
    r7 = C.R7_mpoly()
    assert r7.degree("X") == 2 and r7.degree("Y") == 8
    assert pdeg(list(C.R7_A)) == 7 and pdeg(list(C.R7_B)) == 8
    assert C.R7_B[-1] == 1


def test_scattered_resultants():
    assert resultant(C.X2X1, C.F1728) == 2**6 * 3**3 * 7
    assert resultant(C.X2X1, C.CUBIC_D7) == 7
    assert resultant(C.X2X1, C.CUBIC_D28) == 3**3 * 7
    # the j77 numerator block is coprime to the p-cubic with resultant 7^14
    block = pmul(C.X2X1, C.SEXTIC_229)
    assert resultant(block, C.P_CUBIC) == 7**14


def test_j7_at_t1_fixed_points():
    # j_7(eta) = -15^3 at the fixed cubic of T_1, j_7 = 255^3 at the other
    # (checked via the resultant: j7_num - j * j7_den shares a root with the cubic)
    for cubic, jval in ((C.CUBIC_D7, -(15**3)), (C.CUBIC_D28, 255**3)):
        from fricke7.exactring import pscale, psub

        h = psub(list(C.J7_NUM), pscale(list(C.J7_DEN), jval))
        assert resultant(h, list(cubic)) == 0
