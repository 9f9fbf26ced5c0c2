import random
from fractions import Fraction

import pytest

from skeinlab.cli import _parse_scalar
from skeinlab.cyclotomic import (
    Cyclotomic,
    DualNumber,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity_root,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert euler_phi(15) == 8
    assert euler_phi(20) == 8


def test_root_of_unity_identities():
    z3 = Cyclotomic.zeta(3)
    assert z3 * z3**2 == 1
    z5 = Cyclotomic.zeta(5)
    assert z5 + 0 == z5
    # 1 + z + z^2 = 0 in Q(zeta_3)
    assert (1 + z3) * (1 + z3**2) == 1


def test_equality_is_canonical():
    z = Cyclotomic.zeta(5)
    a = z**7
    b = z**2
    assert a == b and a.coeffs == b.coeffs
    assert Cyclotomic(5, [1, 0, 0, 0]) == 1


def test_field_axioms_random():
    rng = random.Random(99)
    for m in (3, 5, 7, 15, 20):
        z = Cyclotomic.zeta(m)
        for _ in range(10):
            a = Cyclotomic(
                m, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(m))]
            )
            b = z ** rng.randrange(m) + rng.randint(-2, 2)
            c = 1 - z
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.rational(3, 0).inverse()


def test_order_mismatch_raises():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) + Cyclotomic.zeta(5)


def test_embedding():
    z3 = Cyclotomic.zeta(3)
    up = z3.embed(15)
    assert up == Cyclotomic.zeta(15, 5)
    assert up**3 == 1
    with pytest.raises(ValueError):
        z3.embed(10)


def test_root_of_unity_root():
    # (zeta_M'^t)^n == zeta_M^k, with M' = M when t exists there, else M n
    for M, k, n, expect_M in [
        (5, 1, 3, 5), (5, 1, 5, 25), (7, 1, 3, 7), (4, 1, 5, 4), (3, 0, 7, 3),
        (6, 3, 3, 6), (9, 2, 3, 27), (9, 3, 3, 9),
    ]:
        M2, t = root_of_unity_root(M, k, n)
        assert M2 == expect_M
        assert Cyclotomic.zeta(M2, t) ** n == Cyclotomic.zeta(M, k).embed(M2)


def test_json_round_trip():
    # the CLI's matrix-entry reader is the one reader of a cyclotomic number
    x = Cyclotomic(5, [Fraction(1, 2), -2, 0, Fraction(7, 3)])
    assert _parse_scalar(x.to_json()) == x


def test_dual_numbers():
    one = DualNumber(1)
    h = DualNumber(0, 1)
    assert (one + h) * (one - h) == one
    assert h * h == DualNumber(0)
    assert (one + h).inverse() == one - h
    assert DualNumber(2, 3) / DualNumber(2, 3) == one
    with pytest.raises(ZeroDivisionError):
        h.inverse()
