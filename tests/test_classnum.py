import random
from fractions import Fraction

import pytest

import oracles
from fricke7.classnum import (
    class_number,
    field_discriminant,
    is_squarefree,
    kronecker,
    nakaya_class_term,
)


def test_kronecker_examples():
    assert kronecker(-3, 13) == 1
    assert kronecker(-7, 41) == -1
    assert kronecker(2, 7) == 1
    assert kronecker(0, 2) == 0
    assert kronecker(5, 1) == 1


def test_kronecker_matches_euler_criterion():
    rng = random.Random(1)
    for p in (3, 5, 7, 13, 41, 97, 311):
        for _ in range(25):
            a = rng.randrange(-200, 200)
            assert kronecker(a, p) == oracles.legendre_by_euler(a, p), (a, p)


def test_kronecker_multiplicativity():
    rng = random.Random(2)
    for _ in range(200):
        a, b = rng.randrange(-60, 60), rng.randrange(-60, 60)
        n = rng.randrange(1, 120)
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_field_discriminant():
    assert field_discriminant(7) == -7
    assert field_discriminant(5) == -20
    assert field_discriminant(287) == -287
    with pytest.raises(ValueError):
        field_discriminant(12)


def test_class_number_examples():
    assert class_number(-3) == 1
    assert class_number(-83) == 3
    assert class_number(-52) == 2
    assert class_number(-287) == 14
    assert class_number(field_discriminant(5)) == 2
    with pytest.raises(ValueError):
        class_number(-5)


def test_class_number_against_l_series_oracle():
    """Form counting agrees with the truncated Dirichlet L-series for all
    squarefree m <= 500."""
    for m in range(1, 501):
        if not is_squarefree(m):
            continue
        D = field_discriminant(m)
        assert class_number(D) == oracles.dirichlet_class_number(D), m


def test_nakaya_class_term():
    a41, h41 = nakaya_class_term(41)
    assert a41 == Fraction(1, 2) and h41 == 14
    a5, _ = nakaya_class_term(5)
    assert a5 == 1
    a11, _ = nakaya_class_term(11)
    assert a11 == Fraction(1, 4)
