import hashlib
import importlib.util
import random
import re
from math import gcd, prod
from pathlib import Path

import pytest

from skeinlab import intlinalg
from skeinlab.cyclotomic import Cyclotomic
from skeinlab.lattice import SkewLattice
from skeinlab.qtorus import (
    IRREP_DIM_CAP,
    CentralCharacter,
    QuantumTorus,
    TorusIrrep,
    build_irrep,
    chebyshev_apply,
    frobenius,
    root_of_unity_root,
)
from skeinlab.surface import BalancedLattice, build_sigma_g_star, k_boundary

from oracles import monomial_product, ordered_pair_commutation_holds

WEYL = SkewLattice([[0, 1], [-1, 0]], name="weyl")


def test_monomial_product_examples():
    T = QuantumTorus(SkewLattice([[0, 2], [-2, 0]]), 5)
    Za, Zb = T.monomial([1, 0]), T.monomial([0, 1])
    # (a,b) = 2: Z_a Z_b = A^(-1/2) Z_{a+b}
    assert Za * Zb == T.monomial([1, 1], T.A_power(-2))
    assert T.monomial([1, 0]) * T.monomial([-1, 0]) == T.one()


def test_weyl_power_absorbs_twists():
    # Z_a^N = Z_{Na}: a monomial's product with itself carries no twist
    for N in (3, 5, 7):
        T = QuantumTorus(WEYL, N)
        for a in ([1, 0], [2, 3]):
            power = T.one()
            for _ in range(N):
                power = power * T.monomial(a)
            assert power == T.monomial([N * x for x in a])


def test_defining_relation_random():
    rng = random.Random(7)
    T = QuantumTorus(WEYL, 7)
    for _ in range(100):
        a = [rng.randint(-4, 4), rng.randint(-4, 4)]
        b = [rng.randint(-4, 4), rng.randint(-4, 4)]
        assert T.monomial(a) * T.monomial(b) == T.monomial(
            [x + y for x, y in zip(a, b)], T.twist(a, b)
        )


def test_commutation_relation_on_generators():
    T = QuantumTorus(WEYL, 5)
    Z1, Z2 = T.monomial([1, 0]), T.monomial([0, 1])
    # Z1 Z2 = A^(-(e1,e2)/2) Z2 Z1
    phase = T.A_power(-2 * 1)
    assert Z1 * Z2 == phase * (Z2 * Z1)


def test_addition_prunes_zero_terms():
    T = QuantumTorus(WEYL, 3)
    x = T.monomial([1, 0]) - T.monomial([1, 0])
    assert x.terms == {} and x == T.zero()
    # terms print in the order of their exponents
    assert repr(T.monomial([1, 0]) + T.monomial([0, 1])) == "(Cyc(3; 1))*Z[0, 1] + (Cyc(3; 1))*Z[1, 0]"


def test_frobenius():
    T = QuantumTorus(WEYL, 5)
    x = T.monomial([1, 0])
    assert frobenius(x) == T.monomial([5, 0])
    assert frobenius(T.one()) == T.one()
    v = T.monomial([1, 2]) + T.monomial([-1, -2])
    assert frobenius(v) == T.monomial([5, 10]) + T.monomial([-5, -10])
    assert frobenius(v).is_central()
    with pytest.raises(ValueError):
        frobenius(T.monomial([1, 0], T.A_power(4)))


def test_chebyshev_polynomials():
    # trace form: T_0 = 2, T_1 = X, T_3 = X^3 - 3X
    T = QuantumTorus(WEYL, 5)
    x = T.monomial([1, 2]) + T.monomial([-1, -2])
    assert chebyshev_apply(x, 0) == T.one() * 2
    assert chebyshev_apply(x, 1) == x
    assert chebyshev_apply(x, 3) == x * x * x - x * 3


def test_chebyshev_frobenius_compatibility():
    rng = random.Random(13)
    for N in (3, 5, 7):
        T = QuantumTorus(WEYL, N)
        for _ in range(20):
            a = [rng.randint(-3, 3), rng.randint(-3, 3)]
            x = T.monomial(a) + T.monomial([-t for t in a])
            assert chebyshev_apply(x, N) == frobenius(x)
        assert chebyshev_apply(T.monomial([1, 1]), 1) == T.monomial([1, 1])


def test_centrality():
    tri = build_sigma_g_star(1)
    B = BalancedLattice(tri)
    L = B.skew_lattice()
    for N in (3, 5):
        T = QuantumTorus(L, N)
        assert T.monomial(B.coordinates(k_boundary(tri))).is_central()
        assert not T.monomial([1, 0, 0, 0, 0]).is_central()
        assert frobenius(T.monomial([1, 0, 0, 0, 0]) + T.one()).is_central()


def test_root_of_unity_root():
    # (zeta_M'^t)^n == zeta_M^k, with M' = M when t exists there, else M n
    for M, k, n, expect_M in [
        (5, 1, 3, 5), (5, 1, 5, 25), (7, 1, 3, 7), (4, 1, 5, 4), (3, 0, 7, 3),
        (6, 3, 3, 6), (9, 2, 3, 27), (9, 3, 3, 9),
    ]:
        M2, t = root_of_unity_root(M, k, n)
        assert M2 == expect_M
        assert Cyclotomic.zeta(M2, t * n) == Cyclotomic.zeta(M, k).embed(M2)


def test_irrep_weyl_pair():
    irr = build_irrep(WEYL, 3)
    assert irr.dimension == 3
    assert irr.pair_orders == [3]
    # generator images are 3x3 clock/shift up to scalars
    (p0, _), (p1, _) = irr.generator_images[0], irr.generator_images[1]
    assert p0 == (0, 1, 2)
    assert sorted(p1) == [0, 1, 2] and p1 != (0, 1, 2)


def test_irrep_trivial_form():
    irr = build_irrep(SkewLattice([[0]]), 5)
    assert irr.dimension == 1


def test_irrep_balanced_lattice():
    L = BalancedLattice(build_sigma_g_star(1)).skew_lattice()
    for N in (3, 5):
        irr = build_irrep(L, N)
        assert irr.dimension == N * N


def test_irrep_dimension_cap():
    # 241^2 at genus 1 is the cap itself; 9^5 at genus 2 is the next
    # dimension above it
    torus = BalancedLattice(build_sigma_g_star(1)).skew_lattice()
    assert build_irrep(torus, 241).dimension == IRREP_DIM_CAP == 58081
    L = BalancedLattice(build_sigma_g_star(2)).skew_lattice()
    with pytest.raises(ValueError, match="^irrep dimension 59049 exceeds cap 58081$"):
        build_irrep(L, 9)


def test_an_irrep_over_the_cap_is_refused_before_its_kernel(monkeypatch):
    L = BalancedLattice(build_sigma_g_star(2)).skew_lattice()
    kernel_mod = intlinalg.kernel_mod
    forms = []

    def counting(M, N):
        forms.append(M)
        return kernel_mod(M, N)

    monkeypatch.setattr(intlinalg, "kernel_mod", counting)
    with pytest.raises(ValueError, match="^irrep dimension 59049 exceeds cap 58081$"):
        build_irrep(L, 9)
    assert forms == []


def test_the_pi_degree_formula_is_the_irrep_dimension_within_the_cap():
    # the dimension N^(3g-1) that `qtorus selftest` refuses by is the one
    # the skew normal form gives, at every genus and N whose irrep the cap
    # admits, and that a built irrep has
    admitted = []
    for g in (1, 2, 3, 4):
        _, blocks = intlinalg.skew_normal_form(BalancedLattice(build_sigma_g_star(g)).form)
        for N in range(3, 245, 2):
            dim = prod(N // gcd(d, N) for d in blocks)
            assert (dim <= IRREP_DIM_CAP) == (N ** (3 * g - 1) <= IRREP_DIM_CAP)
            if dim <= IRREP_DIM_CAP:
                assert dim == N ** (3 * g - 1)
                admitted.append((g, N))
    assert (3, 3) in admitted and (4, 3) not in admitted and (1, 243) not in admitted
    for g, N in ((1, 3), (1, 5), (1, 241), (2, 3), (2, 5)):
        L = BalancedLattice(build_sigma_g_star(g)).skew_lattice()
        assert build_irrep(L, N).dimension == N ** (3 * g - 1)


def test_tori_with_equal_forms_and_order_are_equal():
    first, second = QuantumTorus(WEYL, 3), QuantumTorus(SkewLattice([[0, 1], [-1, 0]]), 3)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first.one() == second.one()
    assert first.monomial([1, 0]) + second.monomial([0, 1]) == second.monomial([0, 1]) + first.monomial([1, 0])
    # the character may live on an equal torus
    assert TorusIrrep(first, CentralCharacter.trivial(second)).dimension == 3
    for other in (QuantumTorus(WEYL, 5), QuantumTorus(SkewLattice([[0, 2], [-2, 0]]), 3)):
        assert other != first
        with pytest.raises(ValueError, match="^elements live in different quantum tori$"):
            first.one() + other.one()
        with pytest.raises(ValueError, match="^character belongs to a different torus$"):
            TorusIrrep(first, CentralCharacter.trivial(other))


def test_irrep_multiplicative_on_random_monomials():
    rng = random.Random(31)
    L = BalancedLattice(build_sigma_g_star(1)).skew_lattice()
    T = QuantumTorus(L, 3)
    irr = TorusIrrep(T, CentralCharacter.trivial(T))
    F = irr.field_order
    for _ in range(25):
        u = [rng.randint(-2, 2) for _ in range(L.rank)]
        v = [rng.randint(-2, 2) for _ in range(L.rank)]
        lhs = monomial_product(irr.image_of_monomial(u), irr.image_of_monomial(v), F)
        twist = T.A_exponent(-L.pairing(u, v)) * (F // T.N)
        perm, exps = irr.image_of_monomial([x + y for x, y in zip(u, v)])
        assert lhs == (perm, tuple((e + twist) % F for e in exps))


def test_irrep_nontrivial_character():
    L = BalancedLattice(build_sigma_g_star(1)).skew_lattice()
    T = QuantumTorus(L, 3)
    basis = T.kernel_sublattice()
    # chi(b_k) = zeta_3^(k mod 3) on the k-th kernel basis vector
    chi = CentralCharacter(T, 3, [k % 3 for k in range(len(basis))])
    irr = TorusIrrep(T, chi)
    assert irr.dimension == 9
    F = irr.field_order
    for k, kvec in enumerate(chi.kernel_basis):
        perm, exps = irr.image_of_monomial(kvec)
        assert perm == tuple(range(9))
        assert exps == (chi.exponent_of(kvec) * (F // chi.order),) * 9
        assert Cyclotomic.zeta(F, exps[0]) == Cyclotomic.zeta(3, k % 3).embed(F)


def _dense(image, order):
    """The (perm, exps) image as a dense list of Cyclotomic rows over zeta_order."""
    perm, exps = image
    zero = Cyclotomic.rational(order, 0)
    rows = [[zero] * len(perm) for _ in perm]
    for j, (p, e) in enumerate(zip(perm, exps)):
        rows[p][j] = Cyclotomic.zeta(order, e)
    return rows


def _dense_mul(A, B):
    n = len(A)
    out = [[A[0][0] * 0] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if A[i][k].is_zero():
                continue
            for j in range(n):
                if not B[k][j].is_zero():
                    out[i][j] = out[i][j] + A[i][k] * B[k][j]
    return out


def _dense_scaled(c, A):
    return [[x if x.is_zero() else c * x for x in row] for row in A]


def _minus_zeta_character(T):
    """chi(b_k) = -zeta_N^(k+1) = zeta_2N^(N + 2(k+1)) on the k-th kernel basis vector."""
    N = T.N
    return CentralCharacter(T, 2 * N, [N + 2 * (k + 1) for k in range(len(T.kernel_sublattice()))])


def test_irrep_cross_checked_with_dense_cyclotomic_matrices():
    # rebuild the generator images as dense Cyclotomic matrices and check
    # the relations with Cyclotomic products, independent of the exponents
    L = BalancedLattice(build_sigma_g_star(1)).skew_lattice()
    for N in (3, 5):
        T = QuantumTorus(L, N)
        basis = T.kernel_sublattice()
        irr = TorusIrrep(T, _minus_zeta_character(T))
        F = irr.field_order
        gens = [_dense(irr.generator_images[i], F) for i in range(L.rank)]
        for i in range(L.rank):
            for j in range(L.rank):
                phase = T.A_power(-2 * L.form[i][j]).embed(F)
                lhs = _dense_mul(gens[i], gens[j])
                assert lhs == _dense_scaled(phase, _dense_mul(gens[j], gens[i]))
        one = [[Cyclotomic.rational(F, int(r == c)) for c in range(irr.dimension)]
               for r in range(irr.dimension)]
        for k, kvec in enumerate(basis):
            # Z_{x + a e_i} = A^((x, a e_i)/4) Z_x Z_{e_i}^a
            assert all(a >= 0 for a in kvec)
            img, prefix = one, [0] * L.rank
            for i, a in enumerate(kvec):
                step = [a if r == i else 0 for r in range(L.rank)]
                for _ in range(a):
                    img = _dense_mul(img, gens[i])
                img = _dense_scaled(
                    T.A_power(L.pairing(prefix, step)).embed(F), img
                )
                prefix[i] = a
            assert img == _dense_scaled((-Cyclotomic.zeta(N, k + 1)).embed(F), one)


# sha256 of repr([(perm, exps) of generator 0, 1, ...]) for the trivial
# character at (genus, N), and for the -zeta_3^(k+1) character at genus 1
IMAGE_DIGESTS = {
    (1, 3): "d4b97971568aa1c6194e169d3a904703e8f203b5bcde61b54cd1988d251ac8d0",
    (1, 5): "a2b5858eecb65956103adcaf40ec34049d0e043362e97b5c3f87a4331cb27ed0",
    (2, 3): "ea21a4c08dd63da9977183d8a2720e3f1168e482754f8d8409a0239a9629c134",
    "minus-zeta": "49e8cb0ee88abc8dc7b9f0b2c7fb8d4b5a50ed9410fe7bb79905035b21a4cda6",
}


def test_generator_images_are_pinned():
    def digest(irr):
        images = [irr.generator_images[i] for i in range(len(irr.generator_images))]
        return hashlib.sha256(repr(images).encode()).hexdigest()

    T = QuantumTorus(_balanced(1), 3)
    found = {(g, N): digest(build_irrep(_balanced(g), N)) for g, N in ((1, 3), (1, 5), (2, 3))}
    found["minus-zeta"] = digest(TorusIrrep(T, _minus_zeta_character(T)))
    assert found == IMAGE_DIGESTS


def test_character_rejects_a_bad_order_or_exponent_count():
    T = QuantumTorus(WEYL, 3)
    for M in (0, -3, True, 3.0):
        with pytest.raises(ValueError, match="root order M"):
            CentralCharacter(T, M, [0, 0])
    for exponents in ([], [1], [1, 2, 0]):
        with pytest.raises(ValueError, match="need 2 exponents"):
            CentralCharacter(T, 3, exponents)
    # an exponent is an int: not a float, a bool, text or null
    for bad in (1.5, True, "1", None):
        message = f"a character exponent must be an integer, not {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CentralCharacter(T, 3, [0, bad])


def test_character_multiplicativity():
    T = QuantumTorus(WEYL, 5)
    basis = T.kernel_sublattice()
    chi = CentralCharacter(T, 5, [2, 3])
    a, b = basis
    ab = [x + y for x, y in zip(a, b)]
    assert chi.exponent_of(ab) == (chi.exponent_of(a) + chi.exponent_of(b)) % chi.order


def _balanced(g):
    return BalancedLattice(build_sigma_g_star(g)).skew_lattice()


def _algebra_workload_irreps():
    """The (genus, N) of every irrep the algebra benchmark builds."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Algebra.IRREPS


def _corrupted(image, kind):
    """The image with its first exponent raised by 1, or its first two perm entries swapped."""
    perm, exps = list(image[0]), list(image[1])
    if kind == "exponent":
        exps[0] += 1
    else:
        perm[0], perm[1] = perm[1], perm[0]
    return tuple(perm), tuple(exps)


CORRUPTIONS = [
    (g, N, index, kind)
    for g, N in ((1, 3), (1, 5), (2, 3))
    for index in range(_balanced(g).rank)
    for kind in ("exponent", "swap")
]


def test_the_pair_check_agrees_with_the_ordered_pair_oracle_on_sound_irreps():
    for g, N in sorted(set(_algebra_workload_irreps()) | {(2, 5), (3, 3)}):
        irr = build_irrep(_balanced(g), N)
        assert irr.dimension == N ** (3 * g - 1)
        assert ordered_pair_commutation_holds(irr), (g, N)


@pytest.mark.parametrize("g, N, index, kind", CORRUPTIONS)
def test_a_corrupted_generator_image_fails_both_checks(monkeypatch, g, N, index, kind):
    # the image is corrupted after it is built and before _verify runs
    verify, rejected = TorusIrrep._verify, []

    def corrupt_then_verify(self):
        self.generator_images[index] = _corrupted(self.generator_images[index], kind)
        rejected.append(not ordered_pair_commutation_holds(self))
        verify(self)

    monkeypatch.setattr(TorusIrrep, "_verify", corrupt_then_verify)
    with pytest.raises(AssertionError, match="^generator commutation relation failed$"):
        build_irrep(_balanced(g), N)
    assert rejected == [True]


@pytest.mark.parametrize("g, N", [(1, 3), (1, 5), (2, 3)])
def test_a_corrupted_kernel_basis_image_fails_the_character_check(monkeypatch, g, N):
    # only the images that _verify itself computes are corrupted: those of
    # E^0's basis and of the inverse of generator 0
    verify, image = TorusIrrep._verify, TorusIrrep.image_of_monomial

    def corrupt_then_verify(self):
        first = list(self.character.kernel_basis[0])

        def corrupted_image(vec):
            out = image(self, vec)
            return _corrupted(out, "exponent") if list(vec) == first else out

        self.image_of_monomial = corrupted_image
        verify(self)

    monkeypatch.setattr(TorusIrrep, "_verify", corrupt_then_verify)
    with pytest.raises(AssertionError, match="^central character not realized on E\\^0$"):
        build_irrep(_balanced(g), N)


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
def test_the_pair_check_covers_every_pair_of_generators(monkeypatch, pair):
    # the images of the form with (e_i, e_j) = 2 satisfy every relation of
    # the form with (e_i, e_j) = 1 but that of the pair (i, j)
    def form(d):
        rows = [[0] * 3 for _ in range(3)]
        i, j = pair
        rows[i][j], rows[j][i] = d, -d
        return SkewLattice(rows)

    other = build_irrep(form(2), 3)
    verify, rejected = TorusIrrep._verify, []

    def swap_then_verify(self):
        assert other.field_order == self.field_order
        self.generator_images = other.generator_images
        rejected.append(not ordered_pair_commutation_holds(self))
        verify(self)

    monkeypatch.setattr(TorusIrrep, "_verify", swap_then_verify)
    with pytest.raises(AssertionError, match="^generator commutation relation failed$"):
        build_irrep(form(1), 3)
    assert rejected == [True]
