"""Oracles and fixtures that the tests check skeinlab against. No command
or selftest check needs them, so they live here rather than in `src`."""

import itertools
from math import gcd

from skeinlab import intlinalg
from skeinlab.curves import CLASS_BASIS, NormalCurve, WalkSupport
from skeinlab.cyclotomic import Cyclotomic
from skeinlab.mcg import FreeGroupEndo
from skeinlab.repvar import SL2Mat, SL2Rep, _capped_closure
from skeinlab.surface import Triangulation


def row_span_equal(rows_a, rows_b) -> bool:
    return intlinalg.hnf(rows_a) == intlinalg.hnf(rows_b)


def dense_rank(M):
    """Rank of a dense integer matrix, read off its HNF: the reference for
    the sparse elimination of `intlinalg.int_rank`."""
    return len(intlinalg.hnf(M))


def sparse_rows(M):
    """The rows of a dense matrix as the {column: entry} mappings that
    `intlinalg.int_rank` takes."""
    return [dict(enumerate(row)) for row in M]


def dense_gram(rows, W):
    """rows * W * rows^T as two dense products: the reference for the
    sparse `intlinalg.gram`."""
    return intlinalg.mat_mul(intlinalg.mat_mul(rows, W), intlinalg.transpose(rows))


def boundary_map_rank(tri):
    """Rank of H_1 from the dense boundary maps d1 (vertices x edges) and
    d2 (edges x faces), each ranked by `dense_rank`: the reference for
    `Triangulation.homology_rank`."""
    verts = sorted(set(tri.corner(f, k) for f in range(len(tri.faces)) for k in range(3)))
    vidx = {v: i for i, v in enumerate(verts)}
    # orient each edge by its primary (first) slot traversal
    d1 = [[0] * tri.n_edges for _ in verts]
    for e in range(tri.n_edges):
        f, k = tri.edge_slots[e][0]
        d1[vidx[tri.corner(f, k)]][e] += 1
        d1[vidx[tri.corner(f, k - 1)]][e] -= 1
    d2 = [[0] * len(tri.faces) for _ in range(tri.n_edges)]
    for fi, f in enumerate(tri.faces):
        for k, e in enumerate(f):
            d2[e][fi] += 1 if tri.edge_slots[e][0] == (fi, k) else -1
    return tri.n_edges - dense_rank(d1) - dense_rank(d2)


def lattice_contains(basis_rows, vec) -> bool:
    return intlinalg.lattice_coordinates(basis_rows, vec) is not None


def smith_kernel_mod(M, N, smith=None):
    """HNF basis of {a in Z^c : M a == 0 mod N} from the Smith form
    D = U M V over Z, which `smith` passes in to reuse it across N: the
    columns (N / gcd(d_j, N)) * V_j span it."""
    D, _, V = smith or intlinalg.smith_normal_form(M)
    scales = [N // gcd(D[j][j] if j < len(D) else 0, N) for j in range(len(V))]
    return intlinalg.hnf([[row[j] * s for row in V] for j, s in enumerate(scales)])


def smith_residues(rows):
    """The residue map v -> (v V) mod diag(D) of Z^n onto Z^n/L, for the
    Smith form D = U L V of a full-rank lattice L given by its rows."""
    D, _, V = intlinalg.smith_normal_form(rows)
    moduli = [D[i][i] for i in range(len(V))]
    return lambda v: tuple(x % d for x, d in zip(intlinalg.mat_mul([v], V)[0], moduli))


def lone_triangle() -> Triangulation:
    return Triangulation([(0, 1, 2)], name="triangle")


def validate_automorphism(genus, images) -> bool:
    try:
        endo = FreeGroupEndo(genus, images)
    except ValueError:
        return False
    return endo.is_valid_automorphism()


def group_closure(generators, cap=10**4):
    """Multiplicative closure of a set of SL2 matrices."""
    identity = SL2Mat.identity(order=generators[0].order)
    steps = [lambda x, g=g: x * g for g in generators]
    return set(_capped_closure([identity], steps, cap, "group"))


def enumerate_hom_to_finite(generators, genus):
    """All homomorphisms of the free surface group into the closure of the
    given matrices: every 2g-tuple, since the group is free."""
    H = sorted(group_closure(generators), key=repr)
    return [SL2Rep(genus, tup) for tup in itertools.product(H, repeat=2 * genus)]


def quaternion_generators():
    """Generators of the quaternion group Q8 in SL2(Q(zeta_4))."""
    i = Cyclotomic.zeta(4)
    return [SL2Mat(0, 1, -1, 0), SL2Mat(i, 0, 0, -i)]


def normal_coord_vectors(tri, max_total, max_weight=None):
    """Every nonzero normal coordinate vector of total weight <= max_total
    and edge weights <= max_weight; a face's parity and corner constraints
    prune as soon as it is filled."""
    max_weight = max_total if max_weight is None else max_weight
    last_edge = {}
    for f in tri.faces:
        last_edge.setdefault(max(f), []).append(f)

    def face_ok(x):
        return sum(x) % 2 == 0 and all(
            x[k] + x[(k + 1) % 3] >= x[(k + 2) % 3] for k in range(3)
        )

    def rec(e, left, part):
        if e == tri.n_edges:
            if any(part):
                yield list(part)
            return
        for v in range(min(left, max_weight) + 1):
            part.append(v)
            if all(face_ok([part[i] for i in f]) for f in last_edge.get(e, ())):
                yield from rec(e + 1, left - v, part)
            part.pop()

    yield from rec(0, max_total, [])


def torus_coord_vectors(tri, max_total):
    """Every vector on the inner edges of Delta_1 of total weight <=
    max_total, lexicographically, with the boundary arc at 0."""
    inner = tri.inner_edges
    for weights in itertools.product(range(max_total + 1), repeat=len(inner)):
        if sum(weights) <= max_total:
            vec = [0] * tri.n_edges
            for e, w in zip(inner, weights):
                vec[e] = w
            yield vec


def torus_classes(table, max_total):
    """{intersection vector: connected curves} over every normal curve on
    the table's Delta_1 of total weight <= max_total."""
    classes = {}
    for vec in torus_coord_vectors(table.tri, max_total):
        if sum(vec) == 0:
            continue
        try:
            curve = NormalCurve(table.tri, vec)
        except ValueError:
            continue
        if curve.is_connected():
            classes.setdefault(tuple(intersection_vector(curve)), []).append(curve)
    return classes


def intersection_vector(curve):
    """Algebraic edge-crossing sums of the oriented components, read off
    the curve's walks: each point that a walk passes through adds +1 to
    its edge when the walk enters it through the edge's primary slot, else
    -1; the ends of an open walk add nothing."""
    vec = [0] * curve.tri.n_edges
    pieces, point_edge, edge_slots = curve.pieces, curve.point_edge, curve.tri.edge_slots
    for points, steps in curve.walks:
        # the step into points[t] is steps[t - 1], which for t = 0 is the
        # closing step of a closed walk
        for t in range(0 if len(steps) == len(points) else 1, len(steps)):
            pa, _, sa, sb = pieces[steps[t - 1]]
            slot_in = sb if pa == points[t - 1] else sa
            e = point_edge[points[t]]
            vec[e] += 1 if slot_in == edge_slots[e][0] else -1
    return vec


def homology_class(curve):
    """(p, q) of a connected curve on Delta_1, its intersection vector's
    coordinates in CLASS_BASIS up to overall sign (p > 0, or p = 0 and
    q >= 0); None when the vector lies outside the class lattice."""
    pq = intlinalg.lattice_coordinates(CLASS_BASIS, intersection_vector(curve))
    if pq is None:
        return None
    p, q = pq
    return (-p, -q) if p < 0 or (p == 0 and q < 0) else (p, q)


def monomial_product(a, b, order):
    """The product of two (perm, exps) generalized permutation matrices."""
    (pa, ea), (pb, eb) = a, b
    return tuple(pa[p] for p in pb), tuple((ea[p] + e) % order for p, e in zip(pb, eb))


def ordered_pair_commutation_holds(irrep) -> bool:
    """Z_i Z_j == A^(-(e_i,e_j)/2) Z_j Z_i by monomial products for every
    ordered generator pair (i, j), (i, i) and both orders included: rank^2
    products where TorusIrrep._verify compares rank(rank-1)/2 pairs on the
    perm/exps arrays."""
    torus, form, F = irrep.torus, irrep.torus.lattice.form, irrep.field_order
    step = F // torus.N
    gens = irrep.generator_images
    for i, gi in gens.items():
        for j, gj in gens.items():
            phase = torus.A_exponent(-2 * form[i][j]) * step
            perm, exps = monomial_product(gj, gi, F)
            if monomial_product(gi, gj, F) != (perm, tuple((e + phase) % F for e in exps)):
                return False
    return True


def coset_states(fibers, basis, kernel, cell):
    """The reference projection of a support's fibers ({k-vector: states}):
    the canonical coset of each k-vector, in fiber order (K-coordinates
    from the echelon basis of K, with khat = 0 appended on the big cell,
    reduced modulo the kernel), and {coset: number of states}."""
    pad = 1 if cell == "big" else 0
    cosets = intlinalg.lattice_cosets_many(basis, kernel, list(fibers), pad)
    if cosets is None:
        raise ValueError("vector is not balanced")
    states = {}
    for coset, n in zip(cosets, fibers.values()):
        states[coset] = states.get(coset, 0) + n
    return cosets, states


def table_support(fibers, layout):
    """The walk-DP support with these fibers in this layout: each k-vector
    packed through `layout.units`, its count put in slot (k_h + w_h) / 2."""
    h, w_h, bits = layout.heavy, layout.heavy_weight, layout.slot_bits
    table = {}
    for kvec, n in fibers.items():
        j, odd = divmod(kvec[h] + w_h, 2)
        assert not odd and 0 <= j <= w_h and 0 < n < 1 << bits, (kvec, n)
        assert all(abs(k) <= layout.width for e, k in enumerate(kvec) if e != h), kvec
        key = sum(k * u for k, u in zip(kvec, layout.units))
        table[key] = table.get(key, 0) + (n << (bits * j))
    return WalkSupport(table, layout)
