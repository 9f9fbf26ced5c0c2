import hashlib
import json
import random
from fractions import Fraction

import pytest

from skeinlab.cli import _parse_scalar
from skeinlab.cyclotomic import MAX_ORDER, Cyclotomic, cyclotomic_polynomial
from skeinlab.poisson import DualNumber, Poly


def _degree(m):
    return len(cyclotomic_polynomial(m)) - 1


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert _degree(15) == 8
    assert _degree(20) == 8
    # the largest order is a field; the next one, like 0, is refused
    assert _degree(MAX_ORDER) == 192
    for m in (0, MAX_ORDER + 1):
        with pytest.raises(ValueError, match=f"^cyclotomic order must be in 1..720, not {m}$"):
            cyclotomic_polynomial(m)


def test_cyclotomic_polynomials_agree_with_sympy():
    """Independent oracle: every order up to 150 and every divisor of the
    largest order, recomputed in sympy."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    orders = set(range(1, 151)) | {d for d in range(1, MAX_ORDER + 1) if MAX_ORDER % d == 0}
    for m in sorted(orders):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == tuple(int(c) for c in expected), m


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
    for m in (3, 5, 7, 15, 20, MAX_ORDER):
        z = Cyclotomic.zeta(m)
        for _ in range(10):
            a = Cyclotomic(
                m, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(_degree(m))]
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


def test_json_round_trip():
    # the CLI's matrix-entry reader is the one reader of a cyclotomic number
    x = Cyclotomic(5, [Fraction(1, 2), -2, 0, Fraction(7, 3)])
    assert _parse_scalar(x.to_json(), x.order) == x


def _corpus():
    """Sums, products, embeddings and zeta powers with rational
    coefficients, seeded, at small orders and the largest one."""
    rng = random.Random(2202)
    out = []
    for m in (3, 4, 5, 8, 12, 15, 20, 720):
        for _ in range(3):
            a = Cyclotomic(
                m, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(_degree(m))]
            )
            b = Cyclotomic.zeta(m, rng.randrange(m)) * Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            c = Cyclotomic(m, [rng.randint(-3, 3) for _ in range(2 * m)]) + rng.randint(-2, 2)
            out += [a + b, a * b, b * c - a, c * c, (a * c).embed(720), b.embed(720)]
    return out


def test_canonical_forms_are_pinned():
    # the JSON of a seeded corpus; the digest comes from an independent
    # reduction, general long division over Fraction coefficients
    text = json.dumps([x.to_json() for x in _corpus()])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "89223ee40b40f7860bd4aee2138d2d101c82213f2f2227c55688ef685a893337"
    )


def test_equal_scalars_hash_equal():
    # Python's rule: objects that compare equal have equal hashes
    for x in (Cyclotomic.rational(3, 2), DualNumber(2), Poly({(0, 0, 0, 0): 2})):
        assert x == 2 and hash(x) == hash(2) and len({x, 2}) == 1
    assert Cyclotomic.rational(5, Fraction(1, 2)) == Fraction(1, 2)
    assert len({Cyclotomic.rational(5, Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert hash(Poly()) == hash(0) and hash(DualNumber(Fraction(3, 4), 0)) == hash(Fraction(3, 4))
