"""Poisson bracket tables on SL2 coordinate rings, and the classical
r-matrix expansion check in Q[hbar]/(hbar^2).

The bracket tables (Drinfeld and Semenov-Tian-Shansky) are taken as
displayed; the harness extends them by the Leibniz rule, checks the
Jacobi identity exactly, and verifies that the quantum R-matrix expands
to tau(1 + hbar r+) and friends at first order in hbar.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations

from .intlinalg import mat_mul

_NAMES = "abcd"
_ONE = (0, 0, 0, 0)


class Poly:
    """Exact polynomial over Q in a, b, c, d: a dict from exponent tuple to
    nonzero int or Fraction, so that equal polynomials have equal dicts."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = {e: k for e, k in dict(terms).items() if k}

    @staticmethod
    def _wrap(x):
        return x if isinstance(x, Poly) else Poly({_ONE: x})

    def __add__(self, other):
        out = dict(self.terms)
        for e, k in Poly._wrap(other).terms.items():
            out[e] = out.get(e, 0) + k
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -k for e, k in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly._wrap(other)

    def __mul__(self, other):
        out = {}
        for e1, k1 in self.terms.items():
            for e2, k2 in Poly._wrap(other).terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + k1 * k2
        return Poly(out)

    __rmul__ = __mul__

    def diff(self, i):
        """Partial derivative in the i-th generator."""
        return Poly({e[:i] + (e[i] - 1,) + e[i + 1:]: k * e[i]
                     for e, k in self.terms.items() if e[i]})

    def __eq__(self, other):
        if isinstance(other, (Poly, int, Fraction)):
            return self.terms == Poly._wrap(other).terms
        return NotImplemented

    def __hash__(self):
        # a constant equals the number it is, so hashes as it
        if self.terms.keys() <= {_ONE}:
            return hash(self.terms.get(_ONE, 0))
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        """sympy's syntax, terms in descending lex order."""
        parts = []
        for e in sorted(self.terms, reverse=True):
            k = self.terms[e]
            factors = [x if n == 1 else f"{x}**{n}" for x, n in zip(_NAMES, e) if n]
            if abs(k.numerator) != 1 or not factors:
                factors.insert(0, str(abs(k.numerator)))
            text = "*".join(factors)
            if k.denominator != 1:
                text += f"/{k.denominator}"
            parts.append(f"{'-' if k < 0 else '+'} {text}")
        if not parts:
            return "0"
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    __repr__ = __str__


GENERATORS = tuple(Poly({tuple(int(i == j) for j in range(4)): 1}) for i in range(4))
a, b, c, d = GENERATORS

# {x, y} for the ordered pairs listed; the rest by antisymmetry
D_TABLE = {
    (a, b): -a * b,
    (a, c): -a * c,
    (b, c): 0,
    (d, b): d * b,
    (d, c): d * c,
    (a, d): -2 * b * c,
}

STS_TABLE = {
    (c, d): 2 * a * c,
    (d, b): 2 * a * b,
    (d, a): 0,
    (b, a): 2 * a * b,
    (a, c): 2 * a * c,
    (c, b): 2 * a * (a - d),
}

_TABLES = {"D": D_TABLE, "STS": STS_TABLE}


class PoissonAlgebra:
    """Polynomial Poisson bracket from a generator table, Leibniz-extended."""

    def __init__(self, variant: str):
        if variant not in _TABLES:
            raise ValueError("variant must be 'D' or 'STS'")
        self.variant = variant
        n = len(GENERATORS)
        self.bivector = [[0] * n for _ in range(n)]
        for (x, y), val in _TABLES[variant].items():
            i, j = GENERATORS.index(x), GENERATORS.index(y)
            self.bivector[i][j] = val
            self.bivector[j][i] = -val

    def bracket(self, f, h):
        f, h = Poly._wrap(f), Poly._wrap(h)
        n = len(GENERATORS)
        return sum(f.diff(i) * h.diff(j) * self.bivector[i][j]
                   for i in range(n) for j in range(n))

    def jacobi_defect(self, f, g_, h):
        return (
            self.bracket(self.bracket(f, g_), h)
            + self.bracket(self.bracket(g_, h), f)
            + self.bracket(self.bracket(h, f), g_)
        )

    def jacobi_report(self):
        """Jacobi defect on every generator triple; all must vanish."""
        defects = {
            f"{f}{g_}{h}": self.jacobi_defect(f, g_, h)
            for f, g_, h in combinations(GENERATORS, 3)
        }
        return {"variant": self.variant, "defects": {k: str(v) for k, v in defects.items()},
                "allZero": all(v == 0 for v in defects.values())}

    def preserves_determinant(self):
        det = a * d - b * c
        return all(self.bracket(x, det) == 0 for x in GENERATORS)


class DualNumber:
    """Element of Q[hbar]/(hbar^2): value + eps*hbar, exact rationals."""

    __slots__ = ("value", "eps")

    def __init__(self, value, eps=0):
        self.value = value
        self.eps = eps

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
        # without an hbar term it equals the number it is, so hashes as it
        return hash(self.value) if self.eps == 0 else hash((self.value, self.eps))

    def __repr__(self):
        return f"DualNumber({self.value}, {self.eps}*h)"

    @staticmethod
    def _wrap(x):
        return x if isinstance(x, DualNumber) else DualNumber(x)


# ---------------------------------------------------------------------------
# Matrices over any ring (int, Fraction, DualNumber, Poly) and the r-matrices


def _add(*Ms):
    return [[sum(xs) for xs in zip(*rows)] for rows in zip(*Ms)]


def _scale(t, A):
    return [[x * t for x in row] for row in A]


def _kron(A, B):
    return [[x * y for x in ra for y in rb] for ra in A for rb in B]


E = [[0, 0], [1, 0]]
F = [[0, 1], [0, 0]]
H = [[1, 0], [0, -1]]
I2 = [[1, 0], [0, 1]]
I4 = _kron(I2, I2)
TAU = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
R_PLUS = _add(_scale(Fraction(1, 2), _kron(H, H)), _scale(2, _kron(E, F)))
R_MINUS = _add(_scale(Fraction(1, 2), _kron(H, H)), _scale(2, _kron(F, E)))


def bracket_tables_from_r_matrix():
    """Derive both generator tables from the matrix bracket equations and
    compare with the displayed tables.

    The Drinfeld equation {N (x) N} = r+ (N . N) - (N . N) r+ reproduces
    the D table on the nose. The displayed STS matrix equation evaluates
    to the *negative* of the displayed STS generator table (the same
    global sign that separates the bracket from its Alekseev-Malkin
    variant); the discrepancy is reported, not repaired.
    """
    N = [[a, b], [c, d]]
    NN, one_N, N_one = _kron(N, N), _kron(I2, N), _kron(N, I2)

    def compare(derived, table):
        def displayed(x, y):
            if x == y:
                return 0
            return table[(x, y)] if (x, y) in table else -table[(y, x)]

        # entry (e1 e2, d1 d2) of a 4x4 bracket matrix is {N[e1][d1], N[e2][d2]}
        shown = [[displayed(x, y) for x in ra for y in rb] for ra in N for rb in N]
        pairs = [(s, r) for rs, rr in zip(shown, derived) for s, r in zip(rs, rr)]
        exact = all(s == r for s, r in pairs)
        sign_flipped = all(s + r == 0 or s == 0 for s, r in pairs)
        return exact, sign_flipped

    d_derived = _add(mat_mul(R_PLUS, NN), _scale(-1, mat_mul(NN, R_PLUS)))
    d_exact, _ = compare(d_derived, D_TABLE)

    sts_derived = _add(
        _scale(-1, reduce(mat_mul, (one_N, R_PLUS, N_one))),
        reduce(mat_mul, (TAU, NN, TAU, R_PLUS)),
        _scale(-1, mat_mul(R_MINUS, NN)),
        reduce(mat_mul, (N_one, R_MINUS, one_N)),
    )
    sts_exact, sts_flip = compare(sts_derived, STS_TABLE)
    return {
        "D": {"matchesDisplayedTable": d_exact},
        "STS": {
            "matchesDisplayedTable": sts_exact,
            "matchesUpToGlobalSign": sts_flip,
        },
    }


def verify_r_matrix_expansion():
    """Exact first-order checks of the R-matrix congruences.

    Convention: A^(1/2) = exp(hbar/2), so the diagonal factor has entries
    (A^(1/2))^(e1 e2) = 1 + (e1 e2/2) hbar and the coupling q - q^(-1)
    truncates to 2 hbar. R is invertible (R = tau at hbar = 0), so
    R^-1 = X is checked as R X = 1.
    """
    half = Fraction(1, 2)
    s = DualNumber(1, half)          # A^(1/2) to first order
    s_inv = DualNumber(1, -half)
    Dq = [[s, 0, 0, 0], [0, s_inv, 0, 0], [0, 0, s_inv, 0], [0, 0, 0, s]]
    hbar = DualNumber(0, 1)
    coupling = _add(I4, _scale(2 * hbar, _kron(E, F)))
    R = reduce(mat_mul, (TAU, Dq, coupling))
    checks = {
        "eq31_first": R == mat_mul(TAU, _add(I4, _scale(hbar, R_PLUS))),
        "eq31_second": R == mat_mul(_add(I4, _scale(hbar, R_MINUS)), TAU),
        "eq32_first": reduce(mat_mul, (R, _add(I4, _scale(-1 * hbar, R_PLUS)), TAU)) == I4,
        "eq32_second": reduce(mat_mul, (R, TAU, _add(I4, _scale(-1 * hbar, R_MINUS)))) == I4,
        "tau_squared_identity": mat_mul(TAU, TAU) == I4,
        "r_plus_tau_conjugate": reduce(mat_mul, (TAU, R_PLUS, TAU)) == R_MINUS,
    }
    checks["all"] = all(checks.values())
    return checks
