import json
import random
from pathlib import Path

import pytest

from skeinlab import intlinalg
from skeinlab.curves import NormalCurve
from skeinlab.surface import (
    MAX_GENUS,
    BalancedLattice,
    RefinedLattice,
    Triangulation,
    build_sigma_g_star,
    is_balanced,
    k_boundary,
    wp_form,
)

from oracles import (
    boundary_map_rank,
    intersection_vector,
    lattice_contains,
    lone_triangle,
    row_span_equal,
    smith_kernel_mod,
)

FIXTURES = json.loads((Path(__file__).parent / "fixtures" / "derived.json").read_text())


def test_lone_triangle():
    tri = lone_triangle()
    assert tri.genus == 0
    assert len(tri.boundary_circles) == 1
    assert tri.euler_characteristic() == 1


def test_annulus():
    # a square with its left and right sides glued: one boundary arc on
    # each circle
    ann = Triangulation([(0, 2, 3), (3, 1, 2)], name="D1+")
    assert ann.genus == 0
    assert len(ann.boundary_circles) == 2
    assert len(ann.boundary_edges) == 2


def test_sigma_g_star_counts():
    t1 = build_sigma_g_star(1)
    assert len(t1.faces) == 3 and t1.n_edges == 5
    assert len(t1.inner_edges) == 4 and len(t1.boundary_edges) == 1
    t2 = build_sigma_g_star(2)
    assert len(t2.faces) == 7 and t2.n_edges == 11
    for g in (1, 2, 3):
        t = build_sigma_g_star(g)
        assert len(t.boundary_edges) == 1
        assert 3 * len(t.faces) == 2 * len(t.inner_edges) + 1
        assert t.euler_characteristic() == 1 - 2 * g
        assert t.homology_rank() == 2 * g
        assert t.validate_sigma_g_star()
    with pytest.raises(ValueError):
        build_sigma_g_star(0)


def test_homology_rank_matches_dense_boundary_maps():
    annulus = Triangulation([(0, 2, 3), (3, 1, 2)], name="D1+")
    for tri, rank in ((lone_triangle(), 0), (annulus, 1)):
        assert tri.homology_rank() == boundary_map_rank(tri) == rank
    for g in range(1, MAX_GENUS + 1):
        tri = build_sigma_g_star(g)
        assert tri.homology_rank() == boundary_map_rank(tri) == 2 * g


@pytest.mark.parametrize("g", [1, 2, 35])
def test_boundary_parallel_curve_is_one_closed_component(g):
    """The link of Delta_g's one vertex, pushed off the boundary arc: 2 on
    every inner edge, one closed null-homologous component of 12g - 4
    points."""
    tri = build_sigma_g_star(g)
    bp = tri.boundary_parallel
    assert bp == tuple(0 if e == tri.boundary_arc else 2 for e in range(tri.n_edges))
    curve = NormalCurve(tri, bp)
    [(points, steps)] = curve.walks
    assert len(steps) == len(points) == curve.n_points == 12 * g - 4
    assert not any(intersection_vector(curve))
    assert lone_triangle().boundary_parallel == (0, 0, 0)


def test_wp_form_lone_triangle():
    M = wp_form(lone_triangle())
    assert M == [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]


def test_wp_form_delta1_regression():
    assert wp_form(build_sigma_g_star(1)) == FIXTURES["delta1"]["wpForm"]


def test_wp_form_bruteforce_cross_check():
    # independent count over all face corners
    for g in (1, 2):
        tri = build_sigma_g_star(g)
        n = tri.n_edges
        a = [[0] * n for _ in range(n)]
        for f in tri.faces:
            for k in range(3):
                a[f[k]][f[(k + 1) % 3]] += 1
        M = wp_form(tri)
        for i in range(n):
            for j in range(n):
                assert M[i][j] == a[i][j] - a[j][i]
                assert M[i][j] == -M[j][i]


def test_balanced_lattice_triangle():
    B = BalancedLattice(lone_triangle())
    assert B.basis == [[1, 0, 1], [0, 1, 1], [0, 0, 2]]
    assert intlinalg.sublattice_index(intlinalg.identity(3), B.basis) == 2
    # an alternative hand basis spans the same lattice
    assert row_span_equal(B.basis, [[1, 1, 0], [0, 1, 1], [0, 0, 2]])


def test_balanced_lattice_delta1():
    B = BalancedLattice(build_sigma_g_star(1))
    assert B.rank == 5
    assert B.basis == FIXTURES["delta1"]["balancedBasis"]
    assert B.form == FIXTURES["delta1"]["formOnK"]


def test_k_boundary_balanced_and_central():
    for g in (1, 2, 3):
        tri = build_sigma_g_star(g)
        B = BalancedLattice(tri)
        kb = k_boundary(tri)
        assert is_balanced(tri, kb)
        for vec in B.basis:
            assert B.pairing(kb, vec) == 0


def test_pairing_is_the_wp_form_on_edge_vectors():
    # the pairing sums over the faces' slot pairs; the dense WP form is the
    # reference
    rng = random.Random(38)
    for g in (1, 2, 3):
        tri = build_sigma_g_star(g)
        B = BalancedLattice(tri)
        wp = wp_form(tri)
        for _ in range(20):
            v1, v2 = ([rng.randint(-4, 4) for _ in range(tri.n_edges)] for _ in range(2))
            assert B.pairing(v1, v2) == intlinalg.bilinear(v1, wp, v2)


def test_k_boundary_coordinates_are_solved_once_per_triangulation(monkeypatch):
    tri = Triangulation(build_sigma_g_star(2).faces)
    B = BalancedLattice(tri)
    solves = []
    solve = intlinalg.lattice_coordinates

    def counting(basis, vec):
        solves.append(vec)
        return solve(basis, vec)

    monkeypatch.setattr(intlinalg, "lattice_coordinates", counting)
    for N in (3, 5, 7):
        assert B.central_sublattice(N)[2]
        assert BalancedLattice(tri).central_sublattice(N)[2]
    assert solves == []
    assert B.coordinates(k_boundary(tri)) == tri.balanced_lattice_data[2]


def test_gram_matches_double_sum():
    for g in (1, 2, 3):
        tri = build_sigma_g_star(g)
        B = BalancedLattice(tri)
        wp = wp_form(tri)
        n = tri.n_edges
        expect = [
            [
                sum(u[e] * wp[e][f] * v[f] for e in range(n) for f in range(n))
                for v in B.basis
            ]
            for u in B.basis
        ]
        assert intlinalg.gram(B.basis, wp) == B.form == expect


def test_parity_membership_matches_kernel():
    rng = random.Random(4)
    for tri in (lone_triangle(), *(build_sigma_g_star(g) for g in (1, 2, 3))):
        parity = [[f.count(e) for e in range(tri.n_edges)] for f in tri.faces]
        K = intlinalg.kernel_mod(parity, 2)
        seen = set()
        for _ in range(60):
            v = intlinalg.mat_mul([[rng.randint(-3, 3) for _ in K]], K)[0]
            if rng.random() < 0.5:
                v[rng.randrange(tri.n_edges)] += rng.choice((-1, 1))
            member = intlinalg.solve_integer(intlinalg.transpose(K), v) is not None
            assert is_balanced(tri, v) == member
            seen.add(member)
        assert seen == {True, False}


def test_central_sublattice_eq_k0():
    for g in (1, 2):
        B = BalancedLattice(build_sigma_g_star(g))
        for N in (3, 5, 7):
            definitional, formula, equal = B.central_sublattice(N)
            assert equal
            # k_boundary lies in the definitional kernel
            kb = B.coordinates(k_boundary(B.tri))
            assert lattice_contains(definitional, kb)
    # N = 1: kernel is everything
    B = BalancedLattice(build_sigma_g_star(1))
    definitional, _, _ = B.central_sublattice(1)
    assert definitional == intlinalg.identity(B.rank)


@pytest.mark.parametrize("g", range(1, MAX_GENUS + 1))
def test_the_kernels_match_the_smith_oracle_at_every_genus(g):
    # K^0 and Kbar^0 at N 3 and 45, more N at small genus, and the parity
    # kernel behind K; one Smith form per matrix serves every N
    B = BalancedLattice(build_sigma_g_star(g))
    for form in (B.form, RefinedLattice(B).form):
        smith = intlinalg.smith_normal_form(form)
        for N in (3, 5, 9, 15, 45) if g <= 6 else (3, 45):
            assert intlinalg.kernel_mod(form, N) == smith_kernel_mod(form, N, smith), N
    parity = [[f.count(e) for e in range(B.tri.n_edges)] for f in B.tri.faces]
    assert B.basis == intlinalg.kernel_mod(parity, 2) == smith_kernel_mod(parity, 2)


def test_pi_degrees():
    for g in (1, 2):
        B = BalancedLattice(build_sigma_g_star(g))
        for N in (3, 5, 7):
            rep = B.pi_degree(N)
            assert rep["perfectSquare"]
            assert rep["piDegree"] == N ** (3 * g - 1)
            assert rep["index"] == N ** (2 * (3 * g - 1))


def test_refined_lattice():
    B = BalancedLattice(build_sigma_g_star(1))
    R = RefinedLattice(B)
    assert R.rank == B.rank + 1
    assert R.form == FIXTURES["delta1"]["refinedForm"]
    # restriction to K x K is the WP form
    for i in range(B.rank):
        for j in range(B.rank):
            assert R.form[i][j] == B.form[i][j]
    # the extended triangulation glues one triangle along the boundary arc
    n = B.tri.n_edges
    assert R.extended.faces == (*B.tri.faces, (B.tri.boundary_arc, n, n + 1))
    for N in (3, 5):
        rep = R.lemma_comparison(N)
        frozen = FIXTURES["delta1"]["refinedReports"][str(N)]
        assert rep["index"] == frozen["index"]
        assert rep["kernelFormulaMatches"] == frozen["kernelFormulaMatches"]
        assert rep["index"] == N**6
        assert rep["piDegree"] == N**3


def test_refined_requires_boundary_arc():
    # a closed-up complex with no boundary arc must be rejected
    with pytest.raises(ValueError):
        RefinedLattice(BalancedLattice(Triangulation([(0, 1, 2), (0, 1, 2)])))


def test_triangulation_json():
    obj = build_sigma_g_star(1).to_json()
    assert obj["genus"] == 1
    assert obj["check"] == {"euler": -1, "h1rank": 2}
    assert len(obj["gluing"]) == 4


def test_equal_triangulations_are_equal_and_hash_equal():
    first = build_sigma_g_star(2)
    second = Triangulation(first.faces, genus=2, name="Delta_2")
    assert first is not second
    assert first == second and hash(first) == hash(second)
    # the name is a label: the faces are the triangulation
    assert Triangulation(first.faces, name="other") == first
    assert first != build_sigma_g_star(1)


def test_one_delta_g_per_genus_and_the_refusals_come_before_it():
    for g in range(1, MAX_GENUS + 1):
        assert build_sigma_g_star(g) is build_sigma_g_star(g)
        assert build_sigma_g_star(g).name == f"Delta_{g}"
    # a genus is checked before any lookup: [2] is not hashable, and
    # True == 1 and 2.0 == 2 would name cached entries
    refusals = (
        ([2], "genus must be an integer, not [2]"),
        (True, "genus must be an integer, not True"),
        ("1", "genus must be an integer, not '1'"),
        (0, "genus must be >= 1"),
        (MAX_GENUS + 1, f"genus must be <= {MAX_GENUS}"),
        (2.0, "genus must be an integer, not 2.0"),
    )
    for genus, text in refusals:
        with pytest.raises(ValueError) as err:
            build_sigma_g_star(genus)
        assert str(err.value) == text


def test_lattices_on_one_triangulation_share_its_data_and_keep_their_kernels():
    tri = build_sigma_g_star(2)
    first, second = BalancedLattice(tri), BalancedLattice(tri)
    assert first.basis is second.basis and first.form is second.form
    assert RefinedLattice(first).form is RefinedLattice(second).form
    # per-N kernels belong to the lattice object
    assert first.kernel_mod(3) == second.kernel_mod(3)
    assert first.kernel_mod(3) is not second.kernel_mod(3)
    # an equal but separate triangulation derives its own
    other = BalancedLattice(Triangulation(tri.faces))
    assert other.basis == first.basis and other.basis is not first.basis


def test_bad_gluing_rejected():
    with pytest.raises(ValueError):
        Triangulation([(0, 0, 0), (0, 1, 2)])  # edge 0 in four slots
