"""Exact integer lattice algorithms: HNF, SNF, the Gram matrix and pairing
of an integer form (`gram`, `bilinear`), kernels of forms mod N,
coordinates in an echelon (e.g. HNF) basis by back-substitution and their
cosets modulo an HNF sublattice, sublattice indices, and the skew normal
form used to split quantum tori into Weyl pairs.

Matrices are lists of lists of Python ints; all arithmetic is exact.
Eliminations use extended-gcd (Blankinship) two-row/two-column unimodular
transforms, which keep coefficient growth tame at the <=60x60 scale used
here.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd, isqrt


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def gram(rows, W):
    """Gram matrix rows * W * rows^T of the form W on the given vectors."""
    return mat_mul(mat_mul(rows, W), transpose(rows))


def bilinear(a, W, b):
    """The pairing a^T * W * b."""
    return sum(x * y for x, y in zip(a, mat_vec(W, b)))


def _egcd(a, b):
    """(g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def is_unimodular(A):
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("determinant of non-square matrix")
    D, _, _ = smith_normal_form(A)
    return all(D[i][i] == 1 for i in range(n))


# ---------------------------------------------------------------------------
# Hermite normal form (row style)


def hnf(rows):
    """HNF basis of the row span: echelon, positive pivots, reduced above."""
    A = [list(r) for r in rows if any(r)]
    if not A:
        return []
    ncols = len(A[0])
    r = 0
    for c in range(ncols):
        if r == len(A):
            break
        # gcd-combine rows r.. so that A[r][c] = gcd and the rest are 0
        for i in range(r + 1, len(A)):
            if A[i][c] == 0:
                continue
            if A[r][c] == 0:
                A[r], A[i] = A[i], A[r]
                continue
            if A[i][c] % A[r][c] == 0:
                q = A[i][c] // A[r][c]
                A[i] = [v - q * u for u, v in zip(A[r], A[i])]
                continue
            g, x, y = _egcd(A[r][c], A[i][c])
            pr, pi = A[r][c] // g, A[i][c] // g
            A[r], A[i] = (
                [x * u + y * v for u, v in zip(A[r], A[i])],
                [-pi * u + pr * v for u, v in zip(A[r], A[i])],
            )
        if A[r][c] == 0:
            continue
        if A[r][c] < 0:
            A[r] = [-u for u in A[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [u - q * v for u, v in zip(A[i], A[r])]
        r += 1
    return [row for row in A[:r] if any(row)]


def row_span_equal(rows_a, rows_b) -> bool:
    return hnf(rows_a) == hnf(rows_b)


# ---------------------------------------------------------------------------
# Smith normal form with transforms


def smith_normal_form(M):
    """Return (D, U, V) with D = U*M*V, U and V unimodular, D diagonal
    with a divisibility chain d_i | d_{i+1} and nonnegative entries."""
    A = [list(r) for r in M]
    nr = len(A)
    nc = len(A[0]) if nr else 0
    U = identity(nr)
    V = identity(nc)

    def rows_mix(i, j, a, b, c, d):
        # (row_i, row_j) <- (a*row_i + b*row_j, c*row_i + d*row_j)
        A[i], A[j] = (
            [a * u + b * v for u, v in zip(A[i], A[j])],
            [c * u + d * v for u, v in zip(A[i], A[j])],
        )
        U[i], U[j] = (
            [a * u + b * v for u, v in zip(U[i], U[j])],
            [c * u + d * v for u, v in zip(U[i], U[j])],
        )

    def cols_mix(i, j, a, b, c, d):
        for row in (*A, *V):
            u, v = row[i], row[j]
            row[i], row[j] = a * u + b * v, c * u + d * v

    def clear_position(t):
        """Make column t and row t zero outside (t, t)."""
        changed = True
        while changed:
            changed = False
            for i in range(t + 1, nr):
                if A[i][t]:
                    if A[t][t] == 0:
                        rows_mix(t, i, 0, 1, 1, 0)  # swap (det -1 is fine)
                    elif A[i][t] % A[t][t] == 0:
                        rows_mix(t, i, 1, 0, -(A[i][t] // A[t][t]), 1)
                    else:
                        g, x, y = _egcd(A[t][t], A[i][t])
                        pt, pi = A[t][t] // g, A[i][t] // g
                        rows_mix(t, i, x, y, -pi, pt)
                    changed = True
            for j in range(t + 1, nc):
                if A[t][j]:
                    if A[t][t] == 0:
                        cols_mix(t, j, 0, 1, 1, 0)
                    elif A[t][j] % A[t][t] == 0:
                        cols_mix(t, j, 1, 0, -(A[t][j] // A[t][t]), 1)
                    else:
                        g, x, y = _egcd(A[t][t], A[t][j])
                        pt, pj = A[t][t] // g, A[t][j] // g
                        cols_mix(t, j, x, y, -pj, pt)
                    changed = True

    t = 0
    while t < min(nr, nc):
        # bring some nonzero entry into (t, t)
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if A[i][j] != 0 and (
                    piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])
                ):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            rows_mix(t, piv[0], 0, 1, 1, 0)
        if piv[1] != t:
            cols_mix(t, piv[1], 0, 1, 1, 0)
        clear_position(t)
        # enforce divisibility of the trailing block
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if A[i][j] % A[t][t] != 0:
                    offender = (i, j)
                    break
            if offender is not None:
                break
        if offender is not None:
            rows_mix(t, offender[0], 1, 1, 0, 1)
            clear_position(t)
            continue
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return A, U, V


def int_rank(M):
    D, _, _ = smith_normal_form(M)
    return sum(1 for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i] != 0)


def solve_integer(M, b):
    """One integer solution x of M x = b, or None."""
    D, U, V = smith_normal_form(M)
    nr = len(M)
    nc = len(M[0]) if nr else 0
    c = mat_vec(U, b)
    y = [0] * nc
    for i in range(nr):
        d = D[i][i] if i < min(nr, nc) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return mat_vec(V, y)


# ---------------------------------------------------------------------------
# Kernels of integer maps modulo N


def kernel_mod(M, N):
    """HNF basis (rows) of {a in Z^c : M a == 0 mod N}. Contains N*Z^c."""
    if N < 1:
        raise ValueError("modulus must be >= 1")
    nr = len(M)
    nc = len(M[0]) if nr else 0
    if nc == 0:
        return []
    D, _, V = smith_normal_form(M)
    gens = []
    for j in range(nc):
        d = D[j][j] if j < min(nr, nc) else 0
        scale = N // gcd(d, N)
        gens.append([V[i][j] * scale for i in range(nc)])
    return hnf(gens)


# ---------------------------------------------------------------------------
# Sublattice membership and index


def lattice_contains(basis_rows, vec) -> bool:
    return lattice_coordinates(basis_rows, vec) is not None


def lattice_coordinates(basis_rows, vec):
    """Integer coordinates of vec in an echelon row basis (pivot columns
    strictly increasing, as from `hnf` or `kernel_mod`), or None when vec
    is outside the lattice. Raises ValueError for a non-echelon basis."""
    return lattice_coordinates_many(basis_rows, [vec])[0]


def lattice_coordinates_many(basis_rows, vecs):
    """`lattice_coordinates` of each vector of a batch, in one sweep over
    the batch's columns."""
    if not vecs:
        return []
    cols = [list(c) for c in zip(*vecs)]
    quotients = _floor_sweep(basis_rows, cols, echelon=True)
    # back-substitution leaves a nonzero residue exactly off the lattice
    outside = [any(r) for r in zip(*cols)] if cols else [False] * len(vecs)
    coords = zip(*quotients) if quotients else [()] * len(vecs)
    return [None if off else list(c) for off, c in zip(outside, coords)]


def lattice_cosets_many(basis_rows, sub_rows, vecs, pad=0):
    """For each vector, its coordinates in the echelon basis basis_rows
    with `pad` zero coordinates appended, reduced modulo the HNF rows
    sub_rows to the canonical coset representative (as `reduce_mod_rows`).
    None when some vector lies outside the lattice of basis_rows. The
    batch is transposed to columns once, swept by both bases and
    transposed back once."""
    if not vecs:
        return []
    cols = [list(c) for c in zip(*vecs)]
    coords = _floor_sweep(basis_rows, cols, echelon=True)
    # back-substitution leaves a nonzero residue exactly off the lattice
    if any(map(any, cols)):
        return None
    coords += [[0] * len(vecs) for _ in range(pad)]
    _floor_sweep(sub_rows, coords, echelon=False)
    return list(zip(*coords)) if coords else [()] * len(vecs)


def _floor_sweep(rows, cols, echelon):
    """Floor-reduce a batch of vectors by each row at its pivot (its first
    nonzero entry), in row order. The batch is held as columns: cols[i]
    lists entry i of every vector, and is updated in place. Returns the
    quotient column of each row with a pivot. With echelon=True a zero row,
    or a pivot not right of the one before, raises ValueError."""
    quotients = []
    last = -1
    for row in rows:
        nonzero = compress(count(), row)
        piv = next(nonzero, None)
        if echelon and (piv is None or piv <= last):
            raise ValueError("basis rows are not in echelon form")
        if piv is None:
            continue
        last = piv
        p = row[piv]
        col = cols[piv]
        q = col if p == 1 else [a // p for a in col]
        quotients.append(q)
        if any(q):
            cols[piv] = [0] * len(col) if p == 1 else [a % p for a in col]
            for j in nonzero:
                b = row[j]
                cols[j] = [a - k * b for a, k in zip(cols[j], q)]
    return quotients


def sublattice_index(big_rows, sub_rows):
    """Index [L:S] for S spanned by sub_rows inside L spanned by the
    echelon basis big_rows.

    Returns a positive int, or None (infinite index) when rank drops.
    Raises ValueError when S is not contained in L.
    """
    coords = lattice_coordinates_many(big_rows, sub_rows)
    if any(c is None for c in coords):
        raise ValueError("sublattice basis vector outside the ambient lattice")
    D, _, _ = smith_normal_form(coords)
    idx = 1
    for i in range(len(big_rows)):
        d = D[i][i] if i < len(D) else 0
        if d == 0:
            return None
        idx *= d
    return idx


def full_rank_index(rows, n):
    """Index [Z^n : span(rows)], or None when the rows span less than rank n."""
    return sublattice_index(identity(n), rows)


def perfect_square_root(n):
    r = isqrt(n)
    return r if r * r == n else None


def reduce_mod_rows(vec, hnf_rows):
    """Canonical coset representative of vec modulo a full-rank HNF row
    lattice: sweep each pivot and floor-reduce."""
    return reduce_mod_rows_many([vec], hnf_rows)[0]


def reduce_mod_rows_many(vecs, hnf_rows):
    """`reduce_mod_rows` of each vector of a batch, in one sweep over the
    batch's columns."""
    if not vecs:
        return []
    cols = [list(c) for c in zip(*vecs)]
    _floor_sweep(hnf_rows, cols, echelon=False)
    return list(zip(*cols)) if cols else [()] * len(vecs)


# ---------------------------------------------------------------------------
# Skew normal form


def skew_normal_form(F):
    """Unimodular P and invariants d_1..d_r with P^T F P hyperbolic.

    P^T F P = diag([[0, d_1], [-d_1, 0]], ..., [[0, d_r], [-d_r, 0]], 0).
    The columns of P are the new basis: pairs (u_i, v_i) then the radical.
    """
    n = len(F)
    for i in range(n):
        for j in range(n):
            if F[i][j] != -F[j][i]:
                raise ValueError("matrix is not skew-symmetric")
    A = [list(r) for r in F]
    P = identity(n)

    def basis_mix(i, j, a, b, c, d):
        # congruence: (e_i, e_j) <- (a e_i + b e_j, c e_i + d e_j)
        for row in (*A, *P):
            u, v = row[i], row[j]
            row[i], row[j] = a * u + b * v, c * u + d * v
        A[i], A[j] = (
            [a * u + b * v for u, v in zip(A[i], A[j])],
            [c * u + d * v for u, v in zip(A[i], A[j])],
        )

    t = 0
    blocks = []
    while True:
        piv = None
        for i in range(t, n):
            for j in range(t, n):
                if A[i][j] != 0 and (
                    piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])
                ):
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            basis_mix(i, t, 0, 1, 1, 0)
            if j == t:
                j = i
        if j != t + 1:
            basis_mix(j, t + 1, 0, 1, 1, 0)
        if A[t][t + 1] < 0:
            basis_mix(t, t + 1, 1, 0, 0, -1)
        # clear pairings of u_t, v_t with the other basis vectors
        changed = True
        while changed:
            changed = False
            for r in range(t + 2, n):
                if A[t][r]:
                    d = A[t][t + 1]
                    if A[t][r] % d == 0:
                        # shear e_r by v_t: kills (u, e_r), leaves u, v alone
                        basis_mix(t + 1, r, 1, 0, -(A[t][r] // d), 1)
                    else:
                        # mix v_t with e_r: (u, v) becomes gcd, (u, e_r) becomes 0
                        g, x, y = _egcd(d, A[t][r])
                        pv, pr = d // g, A[t][r] // g
                        basis_mix(t + 1, r, x, y, -pr, pv)
                    changed = True
                if A[t + 1][r]:
                    d = A[t][t + 1]
                    if A[t + 1][r] % d == 0:
                        # shear e_r by u_t: kills (v, e_r), leaves u, v alone
                        basis_mix(t, r, 1, 0, A[t + 1][r] // d, 1)
                    else:
                        g, x, y = _egcd(d, -A[t + 1][r])
                        pu, pr = d // g, (-A[t + 1][r]) // g
                        basis_mix(t, r, x, y, -pr, pu)
                    changed = True
            if A[t][t + 1] < 0:
                basis_mix(t, t + 1, 1, 0, 0, -1)
        blocks.append(A[t][t + 1])
        t += 2

    # verify the congruence exactly
    check = gram(transpose(P), F)
    for i in range(n):
        for j in range(n):
            expect = 0
            if i < 2 * len(blocks) and j < 2 * len(blocks) and i // 2 == j // 2:
                if j == i + 1:
                    expect = blocks[i // 2]
                elif j == i - 1:
                    expect = -blocks[j // 2]
            if check[i][j] != expect:
                raise AssertionError("skew normal form verification failed")
    return P, blocks
