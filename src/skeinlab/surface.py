"""Triangulated marked surfaces and their balanced lattices.

A triangulation is a list of faces, each a triple of edge ids in
counter-clockwise order. An edge occurring in two slots is an inner edge
glued there (parameter-reversing, so orientations match); an edge in one
slot is a boundary arc. The surfaces of interest are the genus-g surfaces
with one boundary arc, built by fusing annuli with extra triangles.
"""

from __future__ import annotations

from . import intlinalg
from .lattice import SkewLattice


class Triangulation:
    def __init__(self, faces, genus=None, name=""):
        self.faces = [tuple(f) for f in faces]
        self.name = name
        for f in self.faces:
            if len(f) != 3:
                raise ValueError("faces must be triangles")
        n_edges = max((e for f in self.faces for e in f), default=-1) + 1
        self.n_edges = n_edges
        # slot table: edge -> [(face, slot_index)]
        slots = {e: [] for e in range(n_edges)}
        for fi, f in enumerate(self.faces):
            for k, e in enumerate(f):
                slots[e].append((fi, k))
        for e, occ in slots.items():
            if len(occ) not in (1, 2):
                raise ValueError(f"edge {e} occurs in {len(occ)} slots")
        self.edge_slots = slots
        self.boundary_edges = [e for e in range(n_edges) if len(slots[e]) == 1]
        self.inner_edges = [e for e in range(n_edges) if len(slots[e]) == 2]
        self._vertex_classes = self._glue_corners()
        self.n_vertices = len(set(self._vertex_classes.values()))
        self.boundary_circles = self._boundary_walk()
        self.genus = self._genus()
        if genus is not None and genus != self.genus:
            raise ValueError(f"expected genus {genus}, built genus {self.genus}")
        self._check_connected()

    # -- combinatorial structure ----------------------------------------

    def corner(self, face, k):
        """Corner of `face` between slot k and slot k+1 (vertex id)."""
        return self._vertex_classes[(face, k % 3)]

    def _glue_corners(self):
        # corner (f, k) sits between slots k and k+1; gluing slot (f, k) to
        # (f', k') identifies end-corner with start-corner on each side
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for e in self.inner_edges:
            (f1, k1), (f2, k2) = self.edge_slots[e]
            union((f1, k1 % 3), (f2, (k2 - 1) % 3))
            union((f1, (k1 - 1) % 3), (f2, k2 % 3))
        classes = {}
        for fi in range(len(self.faces)):
            for k in range(3):
                classes[(fi, k)] = find((fi, k))
        return classes

    def _boundary_walk(self):
        """Boundary circles as tuples of boundary edges, via the link walk."""
        todo = set(self.boundary_edges)
        circles = []
        while todo:
            start = min(todo)
            circle = []
            e = start
            while True:
                circle.append(e)
                todo.discard(e)
                f, k = self.edge_slots[e][0]
                # walk around the vertex at the end of slot (f, k)
                while True:
                    nxt_slot = (f, (k + 1) % 3)
                    nxt_edge = self.faces[f][(k + 1) % 3]
                    if len(self.edge_slots[nxt_edge]) == 1:
                        e = nxt_edge
                        break
                    s1, s2 = self.edge_slots[nxt_edge]
                    f, k = s2 if s1 == nxt_slot else s1
                if e == start:
                    break
            circles.append(tuple(circle))
        return circles

    def _genus(self):
        chi = self.n_vertices - self.n_edges + len(self.faces)
        b = len(self.boundary_circles)
        if (2 - b - chi) % 2 != 0:
            raise ValueError("inconsistent Euler characteristic")
        g = (2 - b - chi) // 2
        if g < 0:
            raise ValueError("negative genus: gluing data is not a surface")
        return g

    def _check_connected(self):
        if not self.faces:
            raise ValueError("empty triangulation")
        seen = {0}
        frontier = [0]
        while frontier:
            fi = frontier.pop()
            for e in self.faces[fi]:
                for fj, _ in self.edge_slots[e]:
                    if fj not in seen:
                        seen.add(fj)
                        frontier.append(fj)
        if len(seen) != len(self.faces):
            raise ValueError("triangulation is not connected")

    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + len(self.faces)

    def homology_rank(self):
        """Rank of H_1 of the glued CW complex, computed from boundary maps."""
        verts = sorted(set(self._vertex_classes.values()))
        vidx = {v: i for i, v in enumerate(verts)}
        # orient each edge by its primary (first) slot traversal
        d1 = [[0] * self.n_edges for _ in verts]
        for e in range(self.n_edges):
            f, k = self.edge_slots[e][0]
            start = vidx[self.corner(f, k - 1)]
            end = vidx[self.corner(f, k)]
            d1[end][e] += 1
            d1[start][e] -= 1
        d2 = [[0] * len(self.faces) for _ in range(self.n_edges)]
        for fi, f in enumerate(self.faces):
            for k, e in enumerate(f):
                primary = self.edge_slots[e][0] == (fi, k)
                d2[e][fi] += 1 if primary else -1
        rank_d1 = intlinalg.int_rank(d1)
        rank_d2 = intlinalg.int_rank(d2)
        return (self.n_edges - rank_d1) - rank_d2

    def validate_sigma_g_star(self):
        """Check the invariants of a genus-g one-boundary-arc triangulation."""
        assert len(self.boundary_edges) == 1, "expected exactly one boundary arc"
        assert len(self.boundary_circles) == 1
        assert 3 * len(self.faces) == 2 * len(self.inner_edges) + 1
        g = self.genus
        assert self.euler_characteristic() == 1 - 2 * g
        assert self.homology_rank() == 2 * g
        return True

    @property
    def boundary_arc(self):
        if len(self.boundary_edges) != 1:
            raise ValueError("triangulation does not have a unique boundary arc")
        return self.boundary_edges[0]

    def gluing_table(self):
        return [
            [*self.edge_slots[e][0], *self.edge_slots[e][1]] for e in self.inner_edges
        ]

    def to_json(self):
        return {
            "faces": [list(f) for f in self.faces],
            "edges": [
                {"id": e, "boundary": len(self.edge_slots[e]) == 1}
                for e in range(self.n_edges)
            ],
            "gluing": self.gluing_table(),
            "genus": self.genus,
            "check": {
                "euler": self.euler_characteristic(),
                "h1rank": self.homology_rank(),
            },
        }


def lone_triangle() -> Triangulation:
    return Triangulation([(0, 1, 2)], name="triangle")


def annulus_d1_plus() -> Triangulation:
    """The annulus with one boundary arc on each circle (edges: a=0, b=1)."""
    # square with left/right sides glued: a = bottom, b = top, m = vertical
    # side, d = diagonal; both faces keep ccw slot order
    return Triangulation([(0, 2, 3), (3, 1, 2)], name="D1+")


def build_sigma_g_star(g: int) -> Triangulation:
    """Triangulation Delta_g of the genus-g surface with one boundary arc.

    Genus one is the annulus with its two boundary arcs fused through an
    extra triangle; higher genus wedges on one more copy per handle, again
    through one fusion triangle each.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")

    def sigma_1(offset):
        # edges: a=0+offset, b=1+offset, m=2, d=3, boundary arc 4
        a, b, m, d, bd = (offset + i for i in range(5))
        return [(a, m, d), (d, b, m), (a, b, bd)], bd

    faces, bd = sigma_1(0)
    n = 5
    for _ in range(g - 1):
        more, bd2 = sigma_1(n)
        n += 5
        # fuse: new triangle glued along both boundary arcs, fresh arc n
        faces = faces + more + [(bd, bd2, n)]
        bd = n
        n += 1
    tri = Triangulation(faces, genus=g, name=f"Delta_{g}")
    tri.validate_sigma_g_star()
    return tri


# ---------------------------------------------------------------------------
# Weil-Petersson form and balanced lattices


def wp_form(tri: Triangulation):
    """Skew matrix on Z^E: entries a_{e,e'} - a_{e',e}, where a_{e,e'}
    counts ccw-consecutive slot pairs (e then e') over all faces."""
    n = tri.n_edges
    a = [[0] * n for _ in range(n)]
    for f in tri.faces:
        for k in range(3):
            a[f[k]][f[(k + 1) % 3]] += 1
    return [[a[i][j] - a[j][i] for j in range(n)] for i in range(n)]


def is_balanced(tri: Triangulation, vec) -> bool:
    """Membership in the balanced lattice by definition: every face sum is even."""
    return all(sum(vec[e] for e in f) % 2 == 0 for f in tri.faces)


def k_boundary(tri: Triangulation):
    """The balanced map sending every edge to 2 (central element H_d)."""
    return [2] * tri.n_edges


class BalancedLattice:
    """The lattice K of balanced edge-weightings, with the WP form."""

    def __init__(self, tri: Triangulation):
        self.tri = tri
        parity = [[0] * tri.n_edges for _ in tri.faces]
        for fi, f in enumerate(tri.faces):
            for e in f:
                parity[fi][e] += 1
        self.basis = intlinalg.kernel_mod(parity, 2)
        assert len(self.basis) == tri.n_edges, "balanced lattice must be full rank"
        wp = wp_form(tri)
        self.ambient_form = wp
        self.form = intlinalg.gram(self.basis, wp)

    @property
    def rank(self):
        return len(self.basis)

    def skew_lattice(self) -> SkewLattice:
        return SkewLattice(self.form, name=f"K({self.tri.name})")

    def contains(self, vec) -> bool:
        return is_balanced(self.tri, vec)

    def coordinates(self, vec):
        coords = intlinalg.lattice_coordinates(self.basis, vec)
        if coords is None:
            raise ValueError("vector is not balanced")
        return coords

    def pairing(self, vec1, vec2) -> int:
        return intlinalg.bilinear(vec1, self.ambient_form, vec2)

    def central_sublattice(self, N):
        """Mod-N kernel of the WP form on K, vs the closed formula
        N*K + Z*k_boundary. Returns (definitional, formula, equal), both
        as HNF bases in K-coordinates."""
        definitional = intlinalg.kernel_mod(self.form, N)
        kb = self.coordinates(k_boundary(self.tri))
        formula_gens = [[N if i == j else 0 for j in range(self.rank)] for i in range(self.rank)]
        formula_gens.append(kb)
        formula = intlinalg.hnf(formula_gens)
        return definitional, formula, definitional == formula

    def pi_degree(self, N):
        """PI-degree sqrt([K : K^0]) of the associated quantum torus."""
        return _pi_degree_report(intlinalg.kernel_mod(self.form, N), self.rank, N)


def _pi_degree_report(kernel, rank, N):
    index = intlinalg.full_rank_index(kernel, rank)
    root = intlinalg.perfect_square_root(index)
    return {
        "index": index,
        "perfectSquare": root is not None,
        "piDegree": root,
        "N": N,
    }


class RefinedLattice:
    """K ⊕ Z k̂ with the form pulled back through the embedding into the
    triangulation extended by one triangle along the boundary arc.

    The form is computed definitionally: i(k) lands in the balanced
    lattice of the extended triangulation and <x, y> := (i(x), i(y))^WP
    there, never from a closed formula.
    """

    def __init__(self, base: BalancedLattice):
        tri = base.tri
        bd = tri.boundary_arc
        self.base = base
        self.tri = tri
        # extended triangulation: new face (a_d, a'_d, a''_d)
        a1, a2 = tri.n_edges, tri.n_edges + 1
        self.extended = Triangulation(
            list(tri.faces) + [(bd, a1, a2)], name=tri.name + "*"
        )
        self.rank = base.rank + 1

        def embed(k_vec, khat):
            out = list(k_vec) + [0, 0]
            out[bd] = k_vec[bd] + khat
            out[a1] = -k_vec[bd]
            out[a2] = 0
            return out

        self.embed = lambda vec: embed(vec[:-1], vec[-1])
        # basis of Kbar: K-basis with khat-component 0, then khat = (0,..,0,2)
        ext_vectors = [embed(b, 0) for b in base.basis] + [embed([0] * tri.n_edges, 2)]
        for v in ext_vectors:
            assert is_balanced(self.extended, v), "embedding left the balanced lattice"
        self.form = intlinalg.gram(ext_vectors, wp_form(self.extended))

    def skew_lattice(self) -> SkewLattice:
        return SkewLattice(self.form, name=f"Kbar({self.tri.name})")

    def kernel_mod(self, N):
        return intlinalg.kernel_mod(self.form, N)

    def pi_degree(self, N):
        return _pi_degree_report(self.kernel_mod(N), self.rank, N)

    def lemma_comparison(self, N):
        """Side-by-side report: definitional Kbar^0 vs the closed formula
        K^0 ⊕ N Z k̂, and the displayed (non-bilinear) pairing formula."""
        definitional = self.kernel_mod(N)
        k0_def, _, _ = self.base.central_sublattice(N)
        formula_gens = [row + [0] for row in k0_def]
        formula_gens.append([0] * self.base.rank + [N])
        formula = intlinalg.hnf(formula_gens)
        # the closed pairing formula under scrutiny:
        #   (k1,k2)^WP + n1*k1(a_d) - n2*k2(a_d)
        # evaluated on basis pairs, against the definitional form. A basis
        # pair has n = 0 on K-basis vectors and k = 0 on k-hat, so the
        # boundary terms vanish: the formula is the WP form on K (base.form)
        # and 0 on every pair involving k-hat.
        r = self.base.rank
        displayed_matches = all(
            self.form[i][j] == (self.base.form[i][j] if i < r and j < r else 0)
            for i in range(self.rank)
            for j in range(self.rank)
        )
        report = _pi_degree_report(definitional, self.rank, N)
        report.update(
            {
                "definitionalKernel": definitional,
                "lemmaFormulaKernel": formula,
                "kernelFormulaMatches": definitional == formula,
                "displayedPairingMatches": displayed_matches,
            }
        )
        return report
