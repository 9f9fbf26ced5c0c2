"""Quantum tori at odd roots of unity, exactly.

Session convention: fix odd N and a primitive N-th root zeta. Then
A := zeta, A^(1/2) := A^((N+1)/2), A^(1/4) := A^(((N+1)/2)^2), so every
quarter power is again a power of zeta and all coefficients live in
Z[zeta_N]. Monomials are Weyl-normalized: Z_a Z_b = A^(-(a,b)/4) Z_{a+b}.
"""

from __future__ import annotations

from math import gcd, lcm

from . import intlinalg
from .lattice import SkewLattice
from .surface import check_int, check_root_order, pi_degree_report

# The largest irrep dimension: 241^2, the largest below 9^5. The slowest
# irreps it admits (7^5 at genus 2, 241^2 at genus 1) build and verify in
# about 0.3 s on a 2-CPU Xeon host; 9^5 at genus 2 takes about 1.2 s.
IRREP_DIM_CAP = 241**2


def check_irrep_dimension(dim):
    """An irrep is built only when its dimension is within IRREP_DIM_CAP."""
    if dim > IRREP_DIM_CAP:
        raise ValueError(f"irrep dimension {dim} exceeds cap {IRREP_DIM_CAP}")


class QuantumTorus:
    """T_q(E) for a skew lattice E at an odd root of unity of order N. Tori
    with equal forms and equal N are equal."""

    def __init__(self, lattice: SkewLattice, N: int):
        check_root_order(N)
        self.lattice = lattice
        self.N = N
        self._half = (N + 1) // 2          # exponent with 2 * half == 1 mod N
        self._quarter = pow(self._half, 2, N)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, QuantumTorus) and other.N == self.N and other.lattice == self.lattice
        )

    def __hash__(self):
        return hash((self.lattice, self.N))

    def A_exponent(self, quarters) -> int:
        """The e in [0, N) with (A^(1/4))^quarters == zeta_N^e."""
        return self._quarter * quarters % self.N

    def A_power(self, quarters):
        """(A^(1/4))^quarters as an exact cyclotomic."""
        from .cyclotomic import Cyclotomic

        return Cyclotomic.zeta(self.N, self.A_exponent(quarters))

    def twist(self, a, b):
        """A^(-(a,b)/4), the product twist of the defining relation."""
        return self.A_power(-self.lattice.pairing(a, b))

    # -- elements -------------------------------------------------------

    def zero(self):
        return TorusElement(self, {})

    def one(self):
        return self.monomial([0] * self.lattice.rank)

    def monomial(self, vec, coeff=1):
        from .cyclotomic import Cyclotomic

        vec = tuple(vec)
        if len(vec) != self.lattice.rank:
            raise ValueError("exponent vector has wrong rank")
        c = coeff if isinstance(coeff, Cyclotomic) else Cyclotomic.rational(self.N, coeff)
        if c.is_zero():
            return self.zero()
        return TorusElement(self, {vec: c})

    def kernel_sublattice(self):
        return self.lattice.kernel_mod(self.N)


def _accumulate(terms, vec, c):
    """Add c to the coefficient of vec, dropping the term when it cancels."""
    s = terms.get(vec)
    s = c if s is None else s + c
    if s.is_zero():
        terms.pop(vec, None)
    else:
        terms[vec] = s


class TorusElement:
    """Finite sum of lattice monomials with exact cyclotomic coefficients."""

    __slots__ = ("torus", "terms")

    def __init__(self, torus, terms):
        self.torus = torus
        self.terms = terms

    def _check_same(self, other):
        if not isinstance(other, TorusElement) or other.torus != self.torus:
            raise ValueError("elements live in different quantum tori")

    def __add__(self, other):
        self._check_same(other)
        out = dict(self.terms)
        for vec, c in other.terms.items():
            _accumulate(out, vec, c)
        return TorusElement(self.torus, out)

    def __neg__(self):
        return TorusElement(self.torus, {v: -c for v, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        from fractions import Fraction

        from .cyclotomic import Cyclotomic

        if isinstance(other, (int, Fraction, Cyclotomic)):
            if not isinstance(other, Cyclotomic):
                other = Cyclotomic.rational(self.torus.N, other)
            if other.is_zero():
                return self.torus.zero()
            return TorusElement(
                self.torus, {v: c * other for v, c in self.terms.items()}
            )
        self._check_same(other)
        out = {}
        for va, ca in self.terms.items():
            for vb, cb in other.terms.items():
                vec = tuple(x + y for x, y in zip(va, vb))
                _accumulate(out, vec, ca * cb * self.torus.twist(va, vb))
        return TorusElement(self.torus, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, TorusElement)
            and other.torus == self.torus
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_central(self) -> bool:
        """True iff every exponent pairs to 0 mod N with the whole lattice."""
        form = self.torus.lattice.form
        N = self.torus.N
        return all(
            x % N == 0 for vec in self.terms for x in intlinalg.mat_vec(form, vec)
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c!r})*Z{list(v)}" for v, c in sorted(self.terms.items()))


def frobenius(x: TorusElement) -> TorusElement:
    """Fr_N: Z_a -> Z_{Na} for the torus's own N, extended linearly.

    Only defined on elements with integer coefficients (images of the
    A = +1 specialization); the result is always central.
    """
    torus = x.torus
    N = torus.N
    out = {}
    for vec, c in x.terms.items():
        if not c.is_rational() or c.rational_value().denominator != 1:
            raise ValueError("Frobenius needs integer coefficients")
        out[tuple(N * t for t in vec)] = c
    result = TorusElement(torus, out)
    assert result.is_central()
    return result


def chebyshev_apply(x: TorusElement, N: int) -> TorusElement:
    """Evaluate the N-th first-kind Chebyshev polynomial, trace form
    (T_0 = 2, T_1 = X, T_{n+1} = X T_n - T_{n-1})."""
    torus = x.torus
    if N == 0:
        return torus.one() * 2
    prev = torus.one() * 2
    cur = x
    for _ in range(N - 1):
        prev, cur = cur, x * cur - prev
    return cur


# ---------------------------------------------------------------------------
# Central characters


class CentralCharacter:
    """A multiplicative character on the mod-N kernel sublattice E^0.

    chi(b_i) = zeta_M^exponents[i] on the i-th HNF basis vector b_i of E^0.
    The exponents are kept over zeta_order, order = lcm(N, M), so that the
    Azumaya scaling below stays exact in integer arithmetic.
    """

    def __init__(self, torus: QuantumTorus, M, exponents):
        self.torus = torus
        self.kernel_basis = torus.kernel_sublattice()
        if check_int(M, "the root order M") < 1:
            raise ValueError(f"the root order M must be an integer >= 1, not {M!r}")
        if len(exponents) != len(self.kernel_basis):
            raise ValueError(
                f"need {len(self.kernel_basis)} exponents on the kernel HNF basis"
            )
        self.order = lcm(torus.N, M)
        self.exponents = [
            check_int(k, "a character exponent") * (self.order // M) % self.order
            for k in exponents
        ]
        # the twist A^(-(a,b)/4) is trivial on E^0 by definition of the kernel
        for row in intlinalg.gram(self.kernel_basis, torus.lattice.form):
            if any(x % torus.N for x in row):
                raise AssertionError("kernel pairing not divisible by N")

    @staticmethod
    def trivial(torus: QuantumTorus):
        # E^0 contains N*Z^r, so its HNF basis has one row per rank
        return CentralCharacter(torus, 1, [0] * torus.lattice.rank)

    def exponent_of(self, vec) -> int:
        """The e in [0, order) with chi(Z_vec) == zeta_order^e."""
        coords = intlinalg.lattice_coordinates(self.kernel_basis, list(vec))
        if coords is None:
            raise ValueError("vector is not in the kernel sublattice E^0")
        return sum(c * e for c, e in zip(coords, self.exponents)) % self.order


# ---------------------------------------------------------------------------
# Irreducible representations (Azumaya by dimension)


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


class TorusIrrep:
    """The irreducible representation over a central character.

    Generators go to tensor products of clock and shift matrices in the
    Weyl normalization, scaled by a homomorphism chosen to hit the
    character on E^0. Every root of unity is an exponent of
    zeta_field_order, and generator_images maps each generator's index to
    its image as image_of_monomial gives it. All invariants are verified
    after construction.
    """

    def __init__(self, torus: QuantumTorus, character: CentralCharacter | None = None):
        """character=None is the trivial character, built only once the
        dimension is known to be within the cap."""
        L = torus.lattice
        N = torus.N
        P, blocks = intlinalg.skew_normal_form(L.form)
        self.pair_invariants = blocks
        self.pair_orders = [N // gcd(d, N) for d in blocks]
        dim = 1
        for m in self.pair_orders:
            dim *= m
        check_irrep_dimension(dim)
        character = character or CentralCharacter.trivial(torus)
        if character.torus != torus:
            raise ValueError("character belongs to a different torus")
        self.torus = torus
        self.character = character
        # the index [Z^r : E^0] must be dim^2
        if pi_degree_report(character.kernel_basis, N)["piDegree"] != dim:
            raise AssertionError("kernel index is not the square of the dimension")
        self.dimension = dim
        self._P_inv = intlinalg.unimodular_inverse(P)
        assert self._P_inv is not None, "the skew normal form basis is not unimodular"
        n_pairs = len(blocks)
        radical = [
            [P[i][j] for i in range(L.rank)] for j in range(2 * n_pairs, L.rank)
        ]

        # scaling homomorphism on the adapted basis, fixed by the character:
        # u_i, v_i go to m-th roots of chi(m u_i), chi(m v_i), as (order, exp)
        chi = character
        u_roots, v_roots = [], []
        for i, m in enumerate(self.pair_orders):
            for roots, col in ((u_roots, 2 * i), (v_roots, 2 * i + 1)):
                mvec = [m * P[r][col] for r in range(L.rank)]
                roots.append(root_of_unity_root(chi.order, chi.exponent_of(mvec), m))
        F = lcm(chi.order, *(M for M, _ in u_roots + v_roots))
        self.field_order = F
        self._A_step = F // N
        self._chi_step = F // chi.order
        self._scale_u = [t * (F // M) for M, t in u_roots]
        self._scale_v = [t * (F // M) for M, t in v_roots]
        self._scale_w = [chi.exponent_of(w) * self._chi_step for w in radical]
        # eta_i = A^(-d_i/4) for the pair's invariant d_i; omega_i = eta_i^2
        self._eta = [torus.A_exponent(-d) * self._A_step for d in blocks]
        self.generator_images = {
            i: self.image_of_monomial([int(j == i) for j in range(L.rank)]) for i in range(L.rank)
        }
        self._verify()

    def image_of_monomial(self, vec):
        """The image of Z_vec, a generalized permutation matrix, as a pair
        (perm, exps) of tuples: column k holds zeta_F^exps[k] at row perm[k]."""
        coords = intlinalg.mat_vec(self._P_inv, list(vec))
        n_pairs = len(self.pair_invariants)
        scalar = 0
        perm, exps = [0], [0]
        for i in range(n_pairs):
            x, y = coords[2 * i], coords[2 * i + 1]
            m = self.pair_orders[i]
            eta = self._eta[i]
            # Weyl-normalized eta^(-xy) X^x Y^y with X = diag(omega^r), Y = shift,
            # whose column q holds omega^(x * rows[q]) at row rows[q]; the lists
            # become its Kronecker product with the pairs before it
            scalar += -x * y * eta + x * self._scale_u[i] + y * self._scale_v[i]
            rows = [(r + y) % m for r in range(m)]
            perm = [p * m + q for p in perm for q in rows]
            exps = [e + 2 * eta * x * q for e in exps for q in rows]
        for j, z in enumerate(coords[2 * n_pairs :]):
            scalar += z * self._scale_w[j]
        F = self.field_order
        return tuple(perm), tuple([(e + scalar) % F for e in exps])

    def _verify(self):
        L = self.torus.lattice
        F = self.field_order
        gens = self.generator_images
        # Z_i Z_j = A^(-(e_i,e_j)/2) Z_j Z_i for i < j: the form is skew, so (i, i) holds and
        # (j, i) is its inverse. Column k of Z_i Z_j is zeta^(Ei[Pj[k]] + Ej[k]) at row Pi[Pj[k]]
        for i in range(L.rank):
            Pi, Ei = gens[i]
            for j in range(i + 1, L.rank):
                Pj, Ej = gens[j]
                phase = self.torus.A_exponent(-2 * L.form[i][j]) * self._A_step
                if any(
                    Pi[b] != Pj[a] or (Ei[b] + ej - Ej[a] - ei - phase) % F
                    for a, b, ei, ej in zip(Pi, Pj, Ei, Ej)
                ):
                    raise AssertionError("generator commutation relation failed")
        # the kernel sublattice acts by the character, as scalar matrices
        identity = tuple(range(self.dimension))
        for kvec in self.character.kernel_basis:
            e = self.character.exponent_of(kvec) * self._chi_step
            if self.image_of_monomial(kvec) != (identity, (e,) * self.dimension):
                raise AssertionError("central character not realized on E^0")
        # invertibility sanity on generator 0: Z_a Z_{-a} = Z_0 = 1 (self-pairing
        # vanishes). Column k of the product is zeta^(E0[Q[k]] + D[k]) at row P0[Q[k]]
        if L.rank:
            P0, E0 = gens[0]
            Q, D = self.image_of_monomial([-1] + [0] * (L.rank - 1))
            if any(P0[q] != k or (E0[q] + d) % F for k, (q, d) in enumerate(zip(Q, D))):
                raise AssertionError("monomial inverse failed")


def build_irrep(lattice: SkewLattice, N: int) -> TorusIrrep:
    """The irrep of the trivial central character."""
    return TorusIrrep(QuantumTorus(lattice, N))
