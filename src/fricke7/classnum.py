"""Class numbers of imaginary quadratic orders via reduced-form counting,
Kronecker symbols, and the class-number term in Nakaya's formula.

Form counting is the only production algorithm here (exact integer
arithmetic); the truncated Dirichlet L-series lives in the test suite purely
as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Tuple


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) with the standard conventions, n != 0."""
    if n == 0:
        raise ValueError("Kronecker symbol undefined for n = 0")
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker(a, -n)
    # strip factors of 2 from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        k2 = 1 if a % 8 in (1, 7) else -1
        if t % 2 == 0:
            k2 = 1
    else:
        k2 = 1
    # Jacobi symbol (a/n) for odd n > 0
    a %= n
    result = k2
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    if n != 1:
        return 0
    return result


def is_squarefree(m: int) -> bool:
    if m <= 0:
        return False
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        if m % d == 0:
            m //= d
        d += 1
    return True


@dataclass(frozen=True)
class Discriminant:
    """Negative discriminant D = 0, 1 (mod 4) of an imaginary quadratic order."""

    D: int

    def __post_init__(self):
        if self.D >= 0 or self.D % 4 not in (0, 1):
            raise ValueError(f"invalid imaginary quadratic discriminant {self.D}")


def field_discriminant(m: int) -> Discriminant:
    """Discriminant of Q(sqrt(-m)) for squarefree m > 0."""
    if not is_squarefree(m):
        raise ValueError(f"{m} is not squarefree")
    if (-m) % 4 == 1:
        return Discriminant(-m)
    return Discriminant(-4 * m)


def class_number(D) -> int:
    """Number of primitive reduced forms (a, b, c) of discriminant D < 0."""
    if isinstance(D, Discriminant):
        D = D.D
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"invalid discriminant {D}")
    count = 0
    a_max = isqrt(-D // 3)
    for a in range(1, a_max + 1):
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue  # (a,-b,c) counted via its b >= 0 representative
            if gcd(gcd(a, b), c) != 1:
                continue
            count += 1
    return count


def nakaya_class_term(p: int) -> Tuple[Fraction, int]:
    """(a_p, h(-7p)): the class-number weight and class number in Nakaya's formula.

    a_p = (1/8) * (2 + (1 - (-1/7p)) (2 + (-2/7p))).
    """
    if p == 7:
        raise ValueError("p = 7 excluded")
    if p < 5:
        raise ValueError("p >= 5 required")
    a_p = Fraction(2 + (1 - kronecker(-1, 7 * p)) * (2 + kronecker(-2, 7 * p)), 8)
    h = class_number(field_discriminant(7 * p))
    return a_p, h
