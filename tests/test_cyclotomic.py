import random
from fractions import Fraction

import pytest

from skeinlab.cli import _parse_scalar
from skeinlab.cyclotomic import (
    MAX_ORDER,
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
    # the largest order is a field; the next one, like 0, is refused
    assert euler_phi(MAX_ORDER) == 192
    for m in (0, MAX_ORDER + 1):
        with pytest.raises(ValueError, match=f"^cyclotomic order must be in 1..720, not {m}$"):
            cyclotomic_polynomial(m)


def test_root_of_unity_identities():
    z3 = Cyclotomic.zeta(3)
    assert z3 * Cyclotomic.zeta(3, 2) == 1
    z5 = Cyclotomic.zeta(5)
    assert z5 + 0 == z5
    # 1 + z + z^2 = 0 in Q(zeta_3)
    assert (1 + z3) * (1 + Cyclotomic.zeta(3, 2)) == 1


def test_equality_is_canonical():
    # z^7, reduced modulo Phi_5, is z^2
    a = Cyclotomic(5, [0] * 7 + [1])
    b = Cyclotomic.zeta(5, 2)
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
            b = Cyclotomic.zeta(m, rng.randrange(m)) + rng.randint(-2, 2)
            c = -z + 1
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a - b) + b == a and -(a * c) == a * -c


def test_order_mismatch_raises():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) + Cyclotomic.zeta(5)


def test_embedding():
    z3 = Cyclotomic.zeta(3)
    up = z3.embed(15)
    assert up == Cyclotomic.zeta(15, 5)
    assert up * up * up == 1
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
        assert Cyclotomic.zeta(M2, t * n) == Cyclotomic.zeta(M, k).embed(M2)


def test_json_round_trip():
    # the CLI's matrix-entry reader is the one reader of a cyclotomic number
    x = Cyclotomic(5, [Fraction(1, 2), -2, 0, Fraction(7, 3)])
    assert _parse_scalar(x.to_json()) == x


def test_dual_numbers():
    one = DualNumber(1)
    h = DualNumber(0, 1)
    assert (one + h) * (one + -1 * h) == one
    assert h * h == DualNumber(0)
    assert 2 * DualNumber(2, 3) + 1 == DualNumber(5, 6)
