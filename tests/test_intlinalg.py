import itertools
import random

import pytest

from skeinlab.intlinalg import (
    bilinear,
    gram,
    hnf,
    int_rank,
    kernel_mod,
    lattice_contains,
    lattice_coordinates,
    lattice_coordinates_many,
    lattice_cosets_many,
    mat_mul,
    perfect_square_root,
    reduce_mod_rows,
    reduce_mod_rows_many,
    skew_normal_form,
    smith_normal_form,
    solve_integer,
    sublattice_index,
    transpose,
)


def test_snf_examples():
    D, U, V = smith_normal_form([[0, 1], [-1, 0]])
    assert [D[0][0], D[1][1]] == [1, 1]
    D, U, V = smith_normal_form([[0, 2], [-2, 0]])
    assert [D[0][0], D[1][1]] == [2, 2]
    D, _, _ = smith_normal_form([[0, 0], [0, 0]])
    assert D == [[0, 0], [0, 0]]


def test_snf_reconstruction_random():
    rng = random.Random(42)
    for _ in range(200):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        M = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        D, U, V = smith_normal_form(M)
        assert mat_mul(mat_mul(U, M), V) == D
        diag = [D[i][i] for i in range(min(nr, nc))]
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0)
        for i in range(min(nr, nc)):
            assert D[i][i] >= 0


def test_kernel_mod_examples():
    assert kernel_mod([[0, 1], [-1, 0]], 5) == [[5, 0], [0, 5]]
    assert kernel_mod([[0, 1], [-1, 0]], 1) == [[1, 0], [0, 1]]
    assert kernel_mod([[0, 2], [-2, 0]], 2) == [[1, 0], [0, 1]]


def test_kernel_mod_vs_bruteforce():
    rng = random.Random(3)
    for N in (3, 5):
        for _ in range(15):
            n = rng.randint(1, 4)
            F = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    F[i][j] = rng.randint(-6, 6)
                    F[j][i] = -F[i][j]
            K = kernel_mod(F, N)
            expect = {
                a
                for a in itertools.product(range(N), repeat=n)
                if all(sum(F[i][j] * a[j] for j in range(n)) % N == 0 for i in range(n))
            }
            got = {
                tuple(sum(c * row[i] for c, row in zip(coeffs, K)) % N for i in range(n))
                for coeffs in itertools.product(range(N), repeat=len(K))
            }
            assert got == expect


def test_sublattice_index():
    assert sublattice_index([[1, 0], [0, 1]], [[5, 0], [0, 5]]) == 25
    assert sublattice_index([[1, 0], [0, 1]], [[1, 0], [0, 1]]) == 1
    assert sublattice_index([[1, 0], [0, 1]], [[1, 0]]) is None
    with pytest.raises(ValueError):
        sublattice_index([[2, 0], [0, 2]], [[1, 0], [0, 1]])


def test_hnf_properties():
    rng = random.Random(11)
    for _ in range(100):
        rows = [
            [rng.randint(-5, 5) for _ in range(4)] for _ in range(rng.randint(1, 5))
        ]
        H = hnf(rows)
        for h in H:
            assert solve_integer(transpose(rows), list(h)) is not None
        for r in rows:
            if any(r):
                assert lattice_contains(H, r)
        assert hnf(H) == H  # idempotent


def test_lattice_coordinates():
    basis = [[1, 0, 1], [0, 1, 1], [0, 0, 2]]
    assert lattice_coordinates(basis, [1, 1, 0]) == [1, 1, -1]
    assert lattice_coordinates(basis, [1, 0, 0]) is None


def test_lattice_coordinates_agree_with_solver():
    # back-substitution on an HNF basis against the general SNF solver
    rng = random.Random(5)
    inside = outside = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        H = hnf(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(1, 6))]
        )
        if not H:
            continue
        for _ in range(4):
            if rng.random() < 0.5:
                v = mat_mul([[rng.randint(-4, 4) for _ in H]], H)[0]
            else:
                v = [rng.randint(-9, 9) for _ in range(n)]
            got = lattice_coordinates(H, v)
            ref = solve_integer(transpose(H), v)
            assert (got is None) == (ref is None)
            if got is None:
                outside += 1
            else:
                inside += 1
                assert got == ref
                assert mat_mul([got], H)[0] == v
    assert inside > 50 and outside > 50


def test_lattice_coordinates_rejects_non_echelon():
    with pytest.raises(ValueError):
        lattice_coordinates([[0, 1], [1, 0]], [1, 1])
    with pytest.raises(ValueError):
        lattice_coordinates([[1, 0], [2, 1]], [1, 1])
    with pytest.raises(ValueError):
        lattice_coordinates([[1, 0], [0, 0]], [1, 0])


def _rowwise_coordinates(basis, vec):
    """Back-substitution one vector at a time, row by row."""
    v, coords = list(vec), []
    for row in basis:
        piv = next(i for i, x in enumerate(row) if x)
        q, r = divmod(v[piv], row[piv])
        if r:
            return None
        v = [a - q * b for a, b in zip(v, row)]
        coords.append(q)
    return None if any(v) else coords


def _rowwise_reduce(vec, rows):
    """Floor-reduction one vector at a time, row by row."""
    v = list(vec)
    for row in rows:
        piv = next(i for i, x in enumerate(row) if x)
        q = v[piv] // row[piv]
        v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


def test_batched_helpers_match_one_vector():
    rng = random.Random(17)
    inside = outside = 0
    for _ in range(120):
        n = rng.randint(1, 6)
        H = hnf([[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(1, 7))])
        if not H:
            continue
        vecs = []
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.5:
                vecs.append(mat_mul([[rng.randint(-4, 4) for _ in H]], H)[0])
            else:
                vecs.append([rng.randint(-9, 9) for _ in range(n)])
        coords = lattice_coordinates_many(H, vecs)
        assert coords == [lattice_coordinates(H, v) for v in vecs]
        assert coords == [_rowwise_coordinates(H, v) for v in vecs]
        inside += sum(c is not None for c in coords)
        outside += sum(c is None for c in coords)
        reduced = reduce_mod_rows_many(vecs, H)
        assert reduced == [reduce_mod_rows(v, H) for v in vecs]
        assert reduced == [_rowwise_reduce(v, H) for v in vecs]
        if len(H) == n:
            # a full-rank lattice: the representative names the coset
            shifted = [
                [a + b for a, b in zip(v, mat_mul([[rng.randint(-3, 3) for _ in H]], H)[0])]
                for v in vecs
            ]
            assert reduce_mod_rows_many(shifted, H) == reduced
    assert inside > 100 and outside > 100


def test_lattice_cosets_are_coordinates_then_reduction():
    rng = random.Random(12)
    checked = 0
    for _ in range(150):
        n, pad = rng.randint(1, 5), rng.randint(0, 1)
        B = hnf([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        if len(B) < n:
            continue
        m = rng.choice((3, 5, 7))
        S = hnf(
            [[rng.randint(-4, 4) for _ in range(n + pad)] for _ in range(2)]
            + [[m * (i == j) for j in range(n + pad)] for i in range(n + pad)]
        )
        vecs = [mat_mul([[rng.randint(-6, 6) for _ in B]], B)[0] for _ in range(rng.randint(1, 9))]
        expected = reduce_mod_rows_many(
            [c + [0] * pad for c in lattice_coordinates_many(B, vecs)], S
        )
        assert lattice_cosets_many(B, S, vecs, pad) == expected
        for _ in range(10):
            outside = [rng.randint(-9, 9) for _ in range(n)]
            if lattice_coordinates(B, outside) is None:
                assert lattice_cosets_many(B, S, [*vecs, outside], pad) is None
                checked += 1
                break
    assert checked > 50
    assert lattice_cosets_many([[1, 0], [0, 2]], [[3, 0], [0, 3]], []) == []


def test_batched_helpers_edge_cases():
    H = [[1, 0, 1], [0, 1, 1], [0, 0, 2]]
    assert lattice_coordinates_many(H, []) == []
    assert reduce_mod_rows_many([], H) == []
    assert lattice_coordinates_many([], [[0, 0], [1, 0]]) == [[], None]
    assert reduce_mod_rows_many([(7, -3)], [[5, 0], [0, 5]]) == [(2, 2)]
    for basis in ([[0, 1], [1, 0]], [[1, 0], [2, 1]], [[1, 0], [0, 0]]):
        with pytest.raises(ValueError):
            lattice_coordinates_many(basis, [[1, 1], [0, 0]])


def test_gram_and_bilinear():
    rng = random.Random(9)
    for _ in range(30):
        n, k = rng.randint(1, 6), rng.randint(0, 5)
        W = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        G = gram(rows, W)
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                expect = sum(a[p] * W[p][q] * b[q] for p in range(n) for q in range(n))
                assert G[i][j] == expect == bilinear(a, W, b)


def test_reduce_mod_rows():
    K = [[5, 0], [0, 5]]
    assert reduce_mod_rows([7, -3], K) == (2, 2)
    assert reduce_mod_rows([0, 0], K) == (0, 0)
    # reduction is a coset invariant
    assert reduce_mod_rows([12, 2], K) == reduce_mod_rows([2, -3], K)


def test_skew_normal_form_random():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 9)
        F = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                F[i][j] = rng.randint(-9, 9)
                F[j][i] = -F[i][j]
        P, blocks = skew_normal_form(F)  # verifies P^T F P internally
        assert all(d > 0 for d in blocks)
        assert 2 * len(blocks) == int_rank(F)


def test_skew_normal_form_rejects_non_skew():
    with pytest.raises(ValueError):
        skew_normal_form([[0, 1], [1, 0]])


def test_perfect_square_root():
    assert perfect_square_root(625) == 25
    assert perfect_square_root(24) is None
    assert perfect_square_root(1) == 1
