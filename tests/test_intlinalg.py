import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from skeinlab import intlinalg
from skeinlab.intlinalg import (
    bilinear,
    diagonal_kernel,
    diagonalize,
    gram,
    hnf,
    hnf_mod,
    identity,
    int_rank,
    is_unimodular,
    kernel_mod,
    lattice_coordinates,
    lattice_cosets_many,
    mat_mul,
    perfect_square_root,
    reduce_mod_rows,
    skew_normal_form,
    smith_normal_form,
    solve_integer,
    sublattice_index,
    transpose,
    unimodular_inverse,
)
from skeinlab.lattice import SkewLattice
from skeinlab.surface import BalancedLattice, build_sigma_g_star

from oracles import dense_gram, dense_rank, lattice_contains, smith_kernel_mod, sparse_rows


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


def _sparse_matrix(rng, nr, nc):
    """A random matrix, mostly zeros, with a zero row and a zero column
    now and then."""
    M = [[rng.choice((0, 0, rng.randint(-30, 30))) for _ in range(nc)] for _ in range(nr)]
    if nr and rng.random() < 0.3:
        M[rng.randrange(nr)] = [0] * nc
    if rng.random() < 0.3:
        j = rng.randrange(nc)
        for row in M:
            row[j] = 0
    return M


COMPOSITE_MODULI = (1, 2, 4, 6, 9, 12, 15, 27, 45, 60)


def test_kernel_mod_matches_the_smith_oracle_on_random_matrices():
    rng = random.Random(26)
    for _ in range(400):
        M = _sparse_matrix(rng, rng.randint(0, 8), rng.randint(1, 8))
        N = rng.choice(COMPOSITE_MODULI)
        assert kernel_mod(M, N) == smith_kernel_mod(M, N), (M, N)


def test_diagonalize_mod_diagonalizes_with_an_invertible_transform():
    rng = random.Random(27)
    for _ in range(300):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        M = _sparse_matrix(rng, nr, nc)
        m = rng.choice(COMPOSITE_MODULI[1:])
        d, columns = diagonalize(M, m)
        V = transpose(columns)
        assert all(0 <= x < m for row in V for x in row) and all(0 <= x < m for x in d)
        # V is invertible mod m, and M V spans what diag(d) spans mod m
        assert hnf_mod(V, m, nc) == identity(nc)
        diagonal = [[x if i == j else 0 for j in range(nc)] for i, x in enumerate(d)]
        assert hnf_mod(mat_mul(M, V), m, nc) == hnf_mod(diagonal, m, nc), (M, m)
        # each kernel mod N is read off a diagonalization mod a multiple of N
        smith = smith_normal_form(M)
        for modulus in COMPOSITE_MODULI[1:]:
            d, columns = diagonalize(M, modulus)
            for N in COMPOSITE_MODULI:
                if modulus % N == 0:
                    kernel = smith_kernel_mod(M, N, smith)
                    assert diagonal_kernel(d, columns, N) == kernel, (M, modulus, N)


def test_diagonalize_diagonalizes_over_z_with_a_unimodular_transform():
    rng = random.Random(27)
    for _ in range(300):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        M = _sparse_matrix(rng, nr, nc)
        d, columns = diagonalize(M)
        V = transpose(columns)
        assert is_unimodular(V) and all(x >= 0 for x in d)
        # M V spans what diag(d) spans over Z, and is zero where d_j is 0
        MV = mat_mul(M, V)
        assert all(row[j] == 0 for row in MV for j, x in enumerate(d) if x == 0)
        diagonal = [[x if i == j else 0 for j in range(nc)] for i, x in enumerate(d)]
        assert hnf(MV) == hnf(diagonal), M
        for m in COMPOSITE_MODULI:
            assert diagonal_kernel(d, columns, m) == smith_kernel_mod(M, m), (M, m)


def test_kernel_mod_diagonalizes_each_form_once_and_hands_out_copies(monkeypatch):
    form = BalancedLattice(build_sigma_g_star(2)).form
    calls = []

    def counting(A, m=None):
        if m is None:
            calls.append(A)
        return diagonalize(A, m)

    monkeypatch.setattr(intlinalg, "diagonalize", counting)
    intlinalg._diagonalized.cache_clear()
    smith = smith_normal_form(form)
    for N in (3, 5, 7, 9, 15, 45):
        assert kernel_mod(form, N) == smith_kernel_mod(form, N, smith), N
    assert len(calls) == 1
    # a caller that changes its kernel changes no later one
    first = kernel_mod(form, 3)
    first[0][0] += 1
    first.append(first.pop(0))
    assert kernel_mod(form, 3) == smith_kernel_mod(form, 3, smith)
    assert len(calls) == 1


def test_hnf_mod_is_the_hnf_of_the_rows_stacked_on_m_times_identity():
    rng = random.Random(28)
    for _ in range(400):
        n = rng.randint(0, 7)
        rows = _sparse_matrix(rng, rng.randint(0, 6), n) if n else []
        m = rng.choice(COMPOSITE_MODULI)
        H = hnf_mod(rows, m, n)
        assert H == hnf(rows + [[m * (i == j) for j in range(n)] for i in range(n)]), (rows, m)
        assert all(0 <= x < m for i, row in enumerate(H) for x in row[i + 1:])


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
        coords = [lattice_coordinates(H, v) for v in vecs]
        assert coords == [_rowwise_coordinates(H, v) for v in vecs]
        # one batch is None exactly when some vector is off the lattice
        batch = None if None in coords else [tuple(c) for c in coords]
        assert lattice_cosets_many(H, [], vecs) == batch
        inside += sum(c is not None for c in coords)
        outside += sum(c is None for c in coords)
        reduced = [reduce_mod_rows(v, H) for v in vecs]
        assert reduced == [_rowwise_reduce(v, H) for v in vecs]
        if len(H) == n:
            # a full-rank lattice: the representative names the coset
            shifted = [
                [a + b for a, b in zip(v, mat_mul([[rng.randint(-3, 3) for _ in H]], H)[0])]
                for v in vecs
            ]
            assert [reduce_mod_rows(v, H) for v in shifted] == reduced
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
        expected = [reduce_mod_rows(lattice_coordinates(B, v) + [0] * pad, S) for v in vecs]
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
    assert lattice_cosets_many(H, [], []) == []
    assert lattice_cosets_many(H, [[2, 0, 0], [0, 1, 0], [0, 0, 1]], []) == []
    assert lattice_coordinates([], [0, 0]) == []
    assert lattice_coordinates([], [1, 0]) is None
    assert lattice_cosets_many([], [], [[0, 0], [0, 0]]) == [(), ()]
    assert lattice_cosets_many([], [], [[0, 0], [1, 0]]) is None
    for basis in ([[0, 1], [1, 0]], [[1, 0], [2, 1]], [[1, 0], [0, 0]]):
        with pytest.raises(ValueError):
            lattice_cosets_many(basis, [], [[1, 1], [0, 0]])


def test_gram_and_bilinear():
    # density is the chance that an entry of W or of a row is nonzero; some
    # rows are all zero, and k = 0 occurs at every density
    rng = random.Random(9)
    for density in (1.0, 0.5, 0.15, 0.0):
        for _ in range(30):
            n, k = rng.randint(1, 6), rng.randint(0, 5)

            def entry():
                return rng.choice([x for x in range(-4, 5) if x]) if rng.random() < density else 0

            W = [[entry() for _ in range(n)] for _ in range(n)]
            rows = [[entry() for _ in range(n)] for _ in range(k)]
            if rows and rng.random() < 0.3:
                rows[rng.randrange(k)] = [0] * n
            G = gram(rows, W)
            assert G == dense_gram(rows, W)
            assert len(G) == k and all(len(row) == k for row in G)
            for i, a in enumerate(rows):
                for j, b in enumerate(rows):
                    expect = sum(a[p] * W[p][q] * b[q] for p in range(n) for q in range(n))
                    assert G[i][j] == expect == bilinear(a, W, b)
    assert gram([], [[1, 2], [3, 4]]) == []


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
        assert 2 * len(blocks) == int_rank(sparse_rows(F))


def test_skew_normal_form_rejects_non_skew():
    with pytest.raises(ValueError):
        skew_normal_form([[0, 1], [1, 0]])


@pytest.mark.parametrize(
    "F", [[[0, 1, 2], [-1, 0, 3]], [[0, 1], [-1, 0], [2, 3]]], ids=["2x3", "3x2"]
)
def test_non_square_forms_are_rejected(F):
    # the skew form and SkewLattice share one check: square and skew-symmetric
    with pytest.raises(ValueError, match="form matrix must be square"):
        skew_normal_form(F)
    with pytest.raises(ValueError, match="form matrix must be square"):
        SkewLattice(F)


def test_perfect_square_root():
    assert perfect_square_root(625) == 25
    assert perfect_square_root(24) is None
    assert perfect_square_root(1) == 1


def _rank_and_det(M):
    """Rank over Q and, for a square M, the determinant, by Fraction Gaussian
    elimination: a reference that shares no code with HNF or SNF."""
    A = [[Fraction(x) for x in row] for row in M]
    nc = len(A[0]) if A else 0
    rank, det = 0, Fraction(1)
    for c in range(nc):
        piv = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            A[rank], A[piv] = A[piv], A[rank]
            det = -det
        det *= A[rank][c]
        for i in range(rank + 1, len(A)):
            f = A[i][c] / A[rank][c]
            A[i] = [a - f * b for a, b in zip(A[i], A[rank])]
        rank += 1
    if len(A) != nc:
        return rank, None
    return rank, det if rank == nc else 0


def _random_matrix(rng, nr, nc, rank=None):
    """A random integer matrix; with rank given, a product of random nr x rank
    and rank x nc factors, whose rank is at most that."""
    if rank is None:
        return [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
    return mat_mul(_random_matrix(rng, nr, rank), _random_matrix(rng, rank, nc))


def _incidence_matrix(rng, nr, nc):
    """Rows with a +1 and a -1 in two columns (an edge of a graph) or a
    single +1, the shape of a boundary map."""
    M = [[0] * nc for _ in range(nr)]
    for row in M:
        i, j = rng.randrange(nc), rng.randrange(nc)
        row[i] += 1
        row[j] -= rng.choice((0, 1)) if i != j else 0
    return M


def _with_zero_lines(rng, M):
    """M with zero rows and zero columns put in at random places."""
    for _ in range(rng.randint(1, 3)):
        M.insert(rng.randint(0, len(M)), [0] * len(M[0]))
    for _ in range(rng.randint(1, 3)):
        j = rng.randint(0, len(M[0]))
        for row in M:
            row.insert(j, 0)
    return M


def test_int_rank_matches_rank_over_q():
    rng = random.Random(21)
    ranks = set()
    families = {
        "random": lambda nr, nc, low: _random_matrix(rng, nr, nc, low),
        "incidence": lambda nr, nc, low: _incidence_matrix(rng, nr, nc),
        "zero lines": lambda nr, nc, low: _with_zero_lines(rng, _random_matrix(rng, nr, nc, low)),
        # a factor with entries 10^6 +- 3 times a small one
        "near 10^6": lambda nr, nc, low: mat_mul(
            [[rng.choice((-1, 1)) * (10**6 + rng.randint(-3, 3)) for _ in range(low or nc)]
             for _ in range(nr)],
            _random_matrix(rng, low or nc, nc),
        ),
    }
    for name, make in families.items():
        for _ in range(300 if name == "random" else 100):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            low = rng.randint(1, min(nr, nc)) if rng.random() < 0.5 else None
            M = make(nr, nc, low)
            rank, _ = _rank_and_det(M)
            assert int_rank(sparse_rows(M)) == rank == dense_rank(M), (name, M)
            ranks.add((rank, min(len(M), len(M[0]))))
    assert any(r < m for r, m in ranks) and any(r == m for r, m in ranks)
    # the empty matrix, rows with no columns and rows of zeros have rank 0
    for M in ([], [[]], [[0, 0], [0, 0]]):
        assert int_rank(sparse_rows(M)) == 0 == dense_rank(M)


def test_sublattice_index_matches_determinant():
    rng = random.Random(22)
    finite = infinite = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        big = hnf(_random_matrix(rng, n, n))
        if len(big) < n:
            continue
        low = rng.randint(1, n) if rng.random() < 0.3 else None
        coords = _random_matrix(rng, n, n, low)
        sub = mat_mul(coords, big)
        rank, det = _rank_and_det(coords)
        if rank == n:
            assert sublattice_index(big, sub) == abs(det)
            finite += 1
        else:
            assert sublattice_index(big, sub) is None
            infinite += 1
    assert finite > 100 and infinite > 30


def test_unimodular_inverse_matches_determinant():
    rng = random.Random(23)
    found = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(0, 4)
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        _, det = _rank_and_det(A)
        inverse = unimodular_inverse(A)
        assert (inverse is not None) == (abs(det) == 1) == is_unimodular(A)
        if inverse is not None:
            assert mat_mul(A, inverse) == [[int(i == j) for j in range(n)] for i in range(n)]
        found[inverse is not None] += 1
    assert found[True] > 50 and found[False] > 50


def test_unimodular_inverse_rejects_non_square():
    for A in ([[1, 0]], [[1], [0]], [[1, 0], [0]]):
        with pytest.raises(ValueError):
            unimodular_inverse(A)
        with pytest.raises(ValueError):
            is_unimodular(A)


SMITH_DIGEST = "e99280d8723dddd26535d6dd249b58c41e94ec84e7d7240bed9941a96363f953"
SKEW_DIGEST = "418956f17ae27ccffd5ab74dbd8b95dce5785fd0f89aab682b47d34d4b1152cf"


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def test_smith_and_skew_transforms_pinned():
    """D, U, V of the Smith form and P and the blocks of the skew form over a
    seeded random set, pinned so that any change to the transforms shows:
    the residue recount reads V and `pairInvariants` reads P."""
    rng = random.Random(24)
    smith, skew = [], []
    for _ in range(150):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        smith.append(smith_normal_form(_random_matrix(rng, nr, nc)))
        n = rng.randint(1, 8)
        F = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                F[i][j] = rng.randint(-9, 9)
                F[j][i] = -F[i][j]
        skew.append(skew_normal_form(F))
    assert _digest(smith) == SMITH_DIGEST
    assert _digest(skew) == SKEW_DIGEST
