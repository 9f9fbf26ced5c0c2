"""Exact integer lattice algorithms: HNF, the Gram matrix and pairing of
an integer form (`gram`, `bilinear`), coordinates in an echelon (e.g. HNF)
basis by back-substitution and their cosets modulo an HNF sublattice (one
routine, `lattice_cosets_many`, gives both), and the skew normal form
used to split quantum tori into Weyl pairs.
Sublattice indices and inverses of unimodular matrices are read off an
HNF; a rank over Q (`int_rank`) comes from an elimination of sparse rows.
One routine, `diagonalize`, diagonalizes over Z or mod m. A form's
kernels mod N (`kernel_mod`) are read off one diagonalization of the
form over Z (memoized, as it does not depend on N); where one modulus
serves, the elimination is mod m: the face-parity kernel mod 2 in
`surface` and the residue group of the witness recount mod 2N in
`recount`. Every lattice that contains m*Z^n gets its HNF with its
entries mod m (`hnf_mod`, which reads each kernel off). The Smith
normal form over Z serves only the reference solver `solve_integer`.

Matrices are lists of lists of Python ints; all arithmetic is exact. The
products (`mat_mul`, `gram`) and the row steps touch only nonzero entries
where they can. Every elimination over Z or mod m shares one step,
`_eliminator`: an extended-gcd (Blankinship) two-row/two-column unimodular
transform; `hnf_mod` and `diagonalize` clear a column with one row loop,
`_clear_column`, in either regime."""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count, product
from math import gcd, isqrt, prod


def identity(n):
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def mat_mul(A, B):
    """A * B, from the nonzero entries of A's rows and of B's rows."""
    m = len(B[0]) if B else 0
    out = []
    for Ai in A:
        row = [0] * m
        for t in compress(count(), Ai):
            a, Bt = Ai[t], B[t]
            for j in compress(count(), Bt):
                row[j] += a * Bt[j]
        out.append(row)
    return out


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def _nonzero(row):
    """(j, row[j]) for each nonzero entry of a dense row."""
    return [(j, row[j]) for j in compress(count(), row)]


def gram(rows, W):
    """Gram matrix rows * W * rows^T of the form W on the given vectors,
    from nonzero entries alone: row i of rows * W sums the rows of W at the
    nonzero entries of row i, and meets the rows through an index of their
    nonzero entries by column."""
    sparse = [_nonzero(row) for row in rows]
    by_column = {}
    for j, row in enumerate(sparse):
        for q, y in row:
            by_column.setdefault(q, []).append((j, y))
    W_rows = {}
    out = []
    for row in sparse:
        rW = {}
        for p, x in row:
            if p not in W_rows:
                W_rows[p] = _nonzero(W[p])
            for q, w in W_rows[p]:
                rW[q] = rW.get(q, 0) + x * w
        G = [0] * len(rows)
        for q, v in rW.items():
            for j, y in by_column.get(q, ()):
                G[j] += v * y
        out.append(G)
    return out


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


def _eliminator(p, x):
    """The unimodular (a, b, c, d) with (a*p + b*x, c*p + d*x) == (g, 0):
    a swap when p == 0, a shear when p divides x, else the extended-gcd
    step. It is the one elimination step of `hnf`, `smith_normal_form`,
    `skew_normal_form`, `_clear_column` (the row step of `hnf_mod` and
    `diagonalize`) and `diagonalize`'s column step."""
    if p == 0:
        return 0, 1, 1, 0
    if x % p == 0:
        return 1, 0, -(x // p), 1
    g, s, t = _egcd(p, x)
    return s, t, -(x // g), p // g


def _mix_rows(mats, i, j, a, b, c, d, m=None):
    """(row_i, row_j) <- (a*row_i + b*row_j, c*row_i + d*row_j) in each
    matrix, mod m unless m is None; a swap exchanges the row lists."""
    for M in mats:
        Mi, Mj = M[i], M[j]
        if (a, b, c, d) == (0, 1, 1, 0):
            M[i], M[j] = Mj, Mi
        elif m is None:
            M[i] = [a * u + b * v for u, v in zip(Mi, Mj)]
            M[j] = [c * u + d * v for u, v in zip(Mi, Mj)]
        else:
            M[i] = [(a * u + b * v) % m for u, v in zip(Mi, Mj)]
            M[j] = [(c * u + d * v) % m for u, v in zip(Mi, Mj)]


def _mix_cols(rows, i, j, a, b, c, d, m=None):
    """(col_i, col_j) <- (a*col_i + b*col_j, c*col_i + d*col_j) in each
    row, mod m unless m is None."""
    for row in rows:
        u, v = row[i], row[j]
        if m is None:
            row[i], row[j] = a * u + b * v, c * u + d * v
        else:
            row[i], row[j] = (a * u + b * v) % m, (c * u + d * v) % m


def _shear(R, P, e, m=None):
    """R <- R + e*P, mod m unless m is None, at P's nonzero entries alone."""
    if m is None:
        for j in compress(count(), P):
            R[j] += e * P[j]
    else:
        for j in compress(count(), P):
            R[j] = (R[j] + e * P[j]) % m


def _clear_column(P, rows, c, m=None):
    """Row steps over Z, or mod m with each entry reduced as it is
    computed, that clear column c of rows into the pivot row P, which it
    returns. Only the rows nonzero in column c change, in place, and some
    may become zero; a shear changes R only where P is nonzero."""
    for R in [R for R in rows if R[c]]:
        a, b, e, f = _eliminator(P[c], R[c])
        if not b:
            _shear(R, P, e, m)
        elif m is None:
            P, R[:] = [a * u + b * v for u, v in zip(P, R)], [
                e * u + f * v for u, v in zip(P, R)
            ]
        else:
            P, R[:] = [(a * u + b * v) % m for u, v in zip(P, R)], [
                (e * u + f * v) % m for u, v in zip(P, R)
            ]
    return P


def _smallest_entry(A, t):
    """The first (i, j) with i, j >= t, in row order, of a nonzero entry of
    least absolute value, or None when that block is zero."""
    piv, best = None, None
    for i in range(t, len(A)):
        row = A[i]
        for j in range(t, len(row)):
            if row[j] and (best is None or abs(row[j]) < best):
                piv, best = (i, j), abs(row[j])
    return piv


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
            if A[i][c]:
                _mix_rows((A,), r, i, *_eliminator(A[r][c], A[i][c]))
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


def unimodular_inverse(A):
    """A^-1 for a unimodular square A, read off hnf([A | I]) = [I | A^-1];
    None when A is not unimodular."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("inverse of non-square matrix")
    I = identity(n)
    H = hnf([row + e for row, e in zip(A, I)])
    if [row[:n] for row in H] != I:
        return None
    return [row[n:] for row in H]


def is_unimodular(A):
    return unimodular_inverse(A) is not None


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
    t = 0
    while t < min(nr, nc):
        # bring some nonzero entry into (t, t)
        piv = _smallest_entry(A, t)
        if piv is None:
            break
        if piv[0] != t:
            _mix_rows((A, U), t, piv[0], 0, 1, 1, 0)
        if piv[1] != t:
            _mix_cols((*A, *V), t, piv[1], 0, 1, 1, 0)
        offender = None
        while True:
            # make column t and row t zero outside (t, t)
            changed = True
            while changed:
                changed = False
                for i in range(t + 1, nr):
                    if A[i][t]:
                        _mix_rows((A, U), t, i, *_eliminator(A[t][t], A[i][t]))
                        changed = True
                for j in range(t + 1, nc):
                    if A[t][j]:
                        _mix_cols((*A, *V), t, j, *_eliminator(A[t][t], A[t][j]))
                        changed = True
            if offender is not None:
                break
            # add to row t the first row of the trailing block that (t, t)
            # does not divide, clear again and pick the pivot anew
            for i, j in product(range(t + 1, nr), range(t + 1, nc)):
                if A[i][j] % A[t][t]:
                    offender = i
                    break
            else:
                break
            _mix_rows((A, U), t, offender, 1, 1, 0, 1)
        if offender is not None:
            continue
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return A, U, V


def int_rank(rows):
    """Rank over Q of the rows, each a {column: entry} mapping (columns
    comparable, zero entries allowed). Each row is reduced at its least
    column by the pivot row kept for that column, with an exact integer
    step, until that column has none; then it becomes the pivot row there,
    divided by the gcd of its entries. Only nonzero entries are touched."""
    pivots = {}
    for row in rows:
        r = {j: x for j, x in row.items() if x}
        while r:
            c = min(r)
            P = pivots.get(c)
            if P is None:
                g = gcd(*r.values())
                pivots[c] = {j: x // g for j, x in r.items()}
                break
            # p * r - x * P with p = P[c] and x = r[c] over their gcd has no column c
            g = gcd(P[c], r[c])
            p, x = P[c] // g, r[c] // g
            r = {j: p * y for j, y in r.items()}
            for j, y in P.items():
                v = r.get(j, 0) - x * y
                if v:
                    r[j] = v
                else:
                    del r[j]
    return len(pivots)


def solve_integer(M, b):
    """One integer solution x of M x = b, or None."""
    D, U, V = smith_normal_form(M)
    y = [0] * len(V)
    for i, c in enumerate(mat_vec(U, b)):
        d = D[i][i] if i < len(V) else 0
        if c % d if d else c:
            return None
        if d:
            y[i] = c // d
    return mat_vec(V, y)


# ---------------------------------------------------------------------------
# Kernels mod N: HNF with every entry kept mod m, and diagonalization
# over Z or mod m


def _mod_rows(rows, m):
    """Copies of the rows with each nonzero entry reduced mod m."""
    out = [list(row) for row in rows]
    for row in out:
        for j in compress(count(), row):
            row[j] %= m
    return out


def hnf_mod(rows, m, n):
    """The HNF basis of span(rows) + m*Z^n, which equals `hnf` of the rows
    stacked on m*I: n rows with pivots dividing m, every entry in [0, m)."""
    work = _mod_rows(rows, m)
    H = []
    for c in range(n):
        # clearing column c into m*e_c leaves the pivot gcd(m, column c)
        P = [0] * n
        P[c] = m
        H.append(_clear_column(P, work, c, m))
    # reduce each row at the nonzero entries right of its pivot, left to
    # right, by the rows below it, which are not yet reduced; the iteration
    # reads each entry after the steps at the columns before it
    for r, R in enumerate(H):
        for c in compress(count(), R):
            P = H[c]
            # entries lie in [0, m), so q is nonzero when R[c] >= P[c]
            if c > r and R[c] >= P[c]:
                q = R[c] // P[c]
                R[c:] = [(u - q * v) % m for u, v in zip(R[c:], P[c:])]
    return H


def diagonal_kernel(d, columns, N):
    """HNF basis (rows) of {a in Z^c : M a == 0 mod N} from a
    diagonalization U*M*V == diag(d) of M over Z or mod m for some m that
    N divides, with V given by its columns: N*Z^c and the columns
    (N / gcd(d_j, N)) * V_j span it."""
    scales = [(N // gcd(x, N), V_j) for x, V_j in zip(d, columns) if gcd(x, N) > 1]
    return hnf_mod([[s * v % N for v in V_j] for s, V_j in scales], N, len(columns))


def diagonalize(A, m=None):
    """(d, columns) with U*A*V == diag(d) for some U, V invertible over Z
    (m None) or mod m: d[j] is the diagonal entry in column j (0 when no
    pivot lies there) and columns[j] is column j of V. V is kept as its
    columns, so that a column step is a step on two lists. Each pivot is
    the first nonzero entry of the first row left. Mod m every entry lies
    in [0, m) and a unit pivot is made 1; over Z, d[j] is the pivot's
    absolute value. The d[j] form no divisibility chain, so this is no
    Smith form. On the WP forms of K and Kbar (genus 1..35, 60 and 100)
    every d[j] over Z is 0, 2 or 4 and every entry of V is at most 2 in
    absolute value."""
    rows = [list(row) for row in A] if m is None else _mod_rows(A, m)
    columns = identity(len(A[0]) if A else 0)
    d = [0] * len(columns)
    for t, P in enumerate(rows):
        if not any(P):
            continue  # zero from the start, or cleared by the pivots before it
        rest = rows[t + 1 :]
        c = next(compress(count(), P))
        while True:
            if m is not None and P[c] != 1 and gcd(P[c], m) == 1:
                inv = pow(P[c], -1, m)
                P = [x * inv % m for x in P]
            P = _clear_column(P, rest, c, m)
            # column steps clear row P; one other than a shear refills column c
            bad = [j for j in compress(count(), P) if P[j] % P[c]]
            if not bad:
                break
            for j in bad:
                step = _eliminator(P[c], P[j])
                _mix_cols((P, *rest), c, j, *step, m)
                _mix_rows((columns,), c, j, *step, m)
        # the shears that clear row P change no other row
        for j in compress(count(), P):
            if j != c:
                _shear(columns[j], columns[c], -(P[j] // P[c]), m)
        d[c] = abs(P[c])
    return d, columns


# K's and Kbar's forms at every genus up to 35 are 70 entries
@lru_cache(maxsize=128)
def _diagonalized(rows):
    """`diagonalize` of the matrix with these rows (a tuple of tuples), for
    `kernel_mod`: it does not depend on N, so each form is diagonalized
    once. Kept as tuples, since every caller shares one result."""
    d, columns = diagonalize(rows)
    return tuple(d), tuple(map(tuple, columns))


def kernel_mod(M, N):
    """HNF basis (rows) of {a in Z^c : M a == 0 mod N}, read off the
    diagonalization of M over Z (`diagonal_kernel`). That is memoized by
    M's rows, so a further N costs one `hnf_mod`."""
    if N < 1:
        raise ValueError("modulus must be >= 1")
    return diagonal_kernel(*_diagonalized(tuple(map(tuple, M))), N)


# ---------------------------------------------------------------------------
# Sublattice membership and index


def lattice_coordinates(basis_rows, vec):
    """Integer coordinates of vec in an echelon row basis (pivot columns
    strictly increasing, as from `hnf` or `kernel_mod`), or None when vec
    is outside the lattice. Raises ValueError for a non-echelon basis."""
    coords = lattice_cosets_many(basis_rows, [], [vec])
    return None if coords is None else list(coords[0])


def lattice_cosets_many(basis_rows, sub_rows, vecs, pad=0):
    """For each vector, its coordinates in the echelon basis basis_rows
    with `pad` zero coordinates appended, reduced modulo the HNF rows
    sub_rows to the canonical coset representative (as `reduce_mod_rows`).
    None when some vector lies outside the lattice of basis_rows. The
    batch is transposed to columns once, swept by both bases and
    transposed back once. This is the one coordinate solve: with sub_rows
    empty the cosets are the coordinates (`lattice_coordinates`,
    `sublattice_index`), and detection passes the mod-N kernel to put its
    witness candidates in canonical form."""
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
    coords = lattice_cosets_many(big_rows, [], sub_rows)
    if coords is None:
        raise ValueError("sublattice basis vector outside the ambient lattice")
    # at full rank the HNF is square and upper triangular
    H = hnf(coords)
    if len(H) < len(big_rows):
        return None
    return prod(H[i][i] for i in range(len(H)))


def perfect_square_root(n):
    r = isqrt(n)
    return r if r * r == n else None


def reduce_mod_rows(vec, hnf_rows):
    """Canonical coset representative of vec modulo a full-rank HNF row
    lattice: sweep each pivot and floor-reduce."""
    cols = [[x] for x in vec]
    _floor_sweep(hnf_rows, cols, echelon=False)
    return tuple(c[0] for c in cols)


# ---------------------------------------------------------------------------
# Skew normal form


def check_skew(F):
    """A form matrix must be square and skew-symmetric."""
    n = len(F)
    if any(len(row) != n for row in F):
        raise ValueError("form matrix must be square")
    if any(F[i][j] != -F[j][i] for i in range(n) for j in range(n)):
        raise ValueError("form must be skew-symmetric")


def skew_normal_form(F):
    """Unimodular P and invariants d_1..d_r with P^T F P hyperbolic.

    P^T F P = diag([[0, d_1], [-d_1, 0]], ..., [[0, d_r], [-d_r, 0]], 0).
    The columns of P are the new basis: pairs (u_i, v_i) then the radical.
    """
    check_skew(F)
    n = len(F)
    A = [list(r) for r in F]
    P = identity(n)

    def basis_mix(i, j, *step):
        # congruence: (e_i, e_j) <- (a e_i + b e_j, c e_i + d e_j)
        _mix_cols((*A, *P), i, j, *step)
        _mix_rows((A,), i, j, *step)

    t = 0
    blocks = []
    while True:
        piv = _smallest_entry(A, t)
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
        # clear pairings of u_t, v_t with the other basis vectors: mixing
        # v_t with e_r turns (u_t, e_r) into 0 and (u_t, v_t) into the gcd,
        # mixing u_t with e_r does the same for (v_t, e_r) = -(e_r, v_t);
        # a shear (the divisible case) leaves (u_t, v_t) alone
        changed = True
        while changed:
            changed = False
            for r in range(t + 2, n):
                if A[t][r]:
                    basis_mix(t + 1, r, *_eliminator(A[t][t + 1], A[t][r]))
                    changed = True
                if A[t + 1][r]:
                    basis_mix(t, r, *_eliminator(A[t][t + 1], -A[t + 1][r]))
                    changed = True
            if A[t][t + 1] < 0:
                basis_mix(t, t + 1, 1, 0, 0, -1)
        blocks.append(A[t][t + 1])
        t += 2

    # verify the congruence exactly
    expect = [[0] * n for _ in range(n)]
    for k, d in enumerate(blocks):
        expect[2 * k][2 * k + 1], expect[2 * k + 1][2 * k] = d, -d
    if gram(transpose(P), F) != expect:
        raise AssertionError("skew normal form verification failed")
    return P, blocks
