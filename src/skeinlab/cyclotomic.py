"""Exact cyclotomic arithmetic.

Elements of Q(zeta_m) are residue polynomials modulo the m-th cyclotomic
polynomial Phi_m, with Fraction coefficients. Equality is equality of the
canonical coefficient vector, so exact zero tests are trivial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

# The largest field order. Phi_m costs a division per divisor of m, so the
# cost follows the divisors, not the size: 720, with 30 divisors, takes
# about 0.7 s on a 2-CPU Xeon host, 840 takes 1.3 s and 2520 takes 16 s.
MAX_ORDER = 720


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients of Phi_m, low degree first, monic over Z."""
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"cyclotomic order must be in 1..{MAX_ORDER}, not {m}")
    if m == 1:
        return (-1, 1)
    # Phi_m = (x^m - 1) / prod_{d | m, d < m} Phi_d
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod_q(num, cyclotomic_polynomial(d))
            assert not any(rem)
    return tuple(int(c) for c in num)


def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


class Cyclotomic:
    """An element of Q(zeta_m) in canonical reduced form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        phi = euler_phi(order)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > phi:
            coeffs = _poly_divmod_q(coeffs, cyclotomic_polynomial(order))[1]
        coeffs += [Fraction(0)] * (phi - len(coeffs))
        self.order = order
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(order, q) -> "Cyclotomic":
        return Cyclotomic(order, [Fraction(q)])

    @staticmethod
    def zeta(order, power=1) -> "Cyclotomic":
        power %= order
        c = [Fraction(0)] * (power + 1)
        c[power] = Fraction(1)
        return Cyclotomic(order, c)

    # -- ring structure ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise ValueError(
                    f"cyclotomic order mismatch: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.rational(self.order, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Cyclotomic(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Cyclotomic(self.order, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Cyclotomic(self.order, _poly_mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    # -- predicates and canonical form ----------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.rational(self.order, other)
        return (
            isinstance(other, Cyclotomic)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z" if c != 1 else "z")
            else:
                terms.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyc({self.order}; {body})"

    # -- field embeddings -----------------------------------------------

    def embed(self, target_order: int) -> "Cyclotomic":
        """Image under Q(zeta_m) -> Q(zeta_L), zeta_m |-> zeta_L^(L/m)."""
        if target_order == self.order:
            return self
        if target_order % self.order != 0:
            raise ValueError("target order must be a multiple of the current order")
        step = target_order // self.order
        out = [Fraction(0)] * (step * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            out[step * i] = c
        return Cyclotomic(target_order, out)

    def to_json(self):
        return {
            "order": self.order,
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs],
        }


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def _poly_divmod_q(a, b):
    a = _trim(a)
    b = _trim(b)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    r = list(a)
    while len(r) >= len(b) and any(r):
        if r[-1] == 0:
            r.pop()
            continue
        shift = len(r) - len(b)
        coef = r[-1] / b[-1]
        q[shift] = coef
        for i, c in enumerate(b):
            r[shift + i] -= coef * c
        r.pop()
    return q, _trim(r)


def root_of_unity_root(M: int, k: int, n: int):
    """(M', t) with (zeta_M'^t)^n == zeta_M^k.

    Stays in mu_M when possible, otherwise enlarges to mu_{M n}.
    """
    g = gcd(n, M)
    if k % g == 0:
        # solve t*n == k (mod M)
        Mg, ng, kg = M // g, n // g, k // g
        return M, (kg * pow(ng, -1, Mg)) % Mg
    return M * n, k


class DualNumber:
    """Element of Q[hbar]/(hbar^2): value + eps*hbar, exact rationals."""

    __slots__ = ("value", "eps")

    def __init__(self, value, eps=0):
        self.value = Fraction(value)
        self.eps = Fraction(eps)

    def __add__(self, other):
        other = DualNumber._wrap(other)
        return DualNumber(self.value + other.value, self.eps + other.eps)

    __radd__ = __add__

    def __mul__(self, other):
        other = DualNumber._wrap(other)
        return DualNumber(
            self.value * other.value,
            self.value * other.eps + self.eps * other.value,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        other = DualNumber._wrap(other)
        return self.value == other.value and self.eps == other.eps

    def __hash__(self):
        return hash((self.value, self.eps))

    def __repr__(self):
        return f"DualNumber({self.value}, {self.eps}*h)"

    @staticmethod
    def _wrap(x):
        return x if isinstance(x, DualNumber) else DualNumber(x)
