"""Triangulated marked surfaces and their balanced lattices.

A triangulation is a list of faces, each a triple of edge ids in
counter-clockwise order. An edge occurring in two slots is an inner edge
glued there (parameter-reversing, so orientations match); an edge in one
slot is a boundary arc. The surfaces of interest are the genus-g surfaces
with one boundary arc, built by fusing annuli with extra triangles:
`build_sigma_g_star(g)` returns one shared Delta_g per genus, to be read
and never changed.

A lattice's data that does not depend on the root order N is derived once
per triangulation and shared by every lattice object on it: the basis of
K, its Gram and the K-coordinates of k_boundary
(`Triangulation.balanced_lattice_data`) and Kbar's extended triangulation
and form (`Triangulation.refined_lattice_data`); the WP form on Z^E is
summed over the faces where it is read (`BalancedLattice.pairing`). What
depends on N, the mod-N kernels and the reports built from them, belongs
to each lattice object.

The session's input rules live here, one routine each: the genus
(`check_genus`, an integer in 1..35), the root order (`check_root_order`, odd
N >= 3), the Bruhat cell (`check_cell`, "reduced" or "big"), an integer
(`check_int`, a JSON int; `check_decimal`, ASCII decimal text, in "p,q" and
integer flags) and a JSON object (`check_fields`: known fields, none null).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress, count
from math import prod

from . import intlinalg
from .lattice import SkewLattice


class Triangulation:
    """A triangulation is its faces: every other attribute is derived from
    them, so triangulations with equal faces are equal. The name is a label."""

    def __init__(self, faces, genus=None, name=""):
        self.faces = tuple(tuple(f) for f in faces)
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
        self._corner_vertex = self._glue_corners()
        self.n_vertices = len(set(self._corner_vertex.values()))
        self.boundary_circles = self._boundary_walk()
        self.genus = self._genus()
        if genus is not None and genus != self.genus:
            raise ValueError(f"expected genus {genus}, built genus {self.genus}")
        self._check_connected()

    def __eq__(self, other):
        return isinstance(other, Triangulation) and other.faces == self.faces

    def __hash__(self):
        return hash(self.faces)

    # -- combinatorial structure ----------------------------------------

    def corner(self, face, k):
        """Corner of `face` between slot k and slot k+1 (vertex id)."""
        return self._corner_vertex[(face, k % 3)]

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

    @cached_property
    def boundary_parallel(self):
        """Normal coordinates of the curve parallel to the boundary: the
        link of the boundary's vertices, pushed off the boundary arcs. It
        meets each inner edge once per end of that edge on the boundary,
        and no boundary arc; on Delta_g, whose one vertex lies on the
        boundary, it is 2 on every inner edge. Derived on first use."""
        # the edge in slot (f, k) runs from corner (f, k - 1) to (f, k)
        ends = {
            e: (self.corner(f, k - 1), self.corner(f, k))
            for e, ((f, k), *_) in self.edge_slots.items()
        }
        on_boundary = {v for e in self.boundary_edges for v in ends[e]}
        return tuple(
            0 if e in self.boundary_edges else sum(v in on_boundary for v in ends[e])
            for e in range(self.n_edges)
        )

    # -- lattice data: derived once per triangulation, shared read-only --

    @cached_property
    def balanced_lattice_data(self):
        """(basis, Gram, coordinates of k_boundary) of the balanced lattice
        K, for every BalancedLattice on this triangulation: the basis is the
        mod-2 kernel of the face-parity matrix, the Gram is the WP form on
        it, and k_boundary's coordinates are in that basis."""
        parity = [[0] * self.n_edges for _ in self.faces]
        for fi, f in enumerate(self.faces):
            for e in f:
                parity[fi][e] += 1
        basis = intlinalg.kernel_mod(parity, 2)
        assert len(basis) == self.n_edges, "balanced lattice must be full rank"
        gram = intlinalg.gram(basis, wp_form(self))
        return basis, gram, intlinalg.lattice_coordinates(basis, k_boundary(self))

    @cached_property
    def refined_lattice_data(self):
        """(extended triangulation, Gram) of Kbar = K ⊕ Z k̂, for every
        RefinedLattice on this triangulation: the triangulation is extended
        by the face (a_d, a'_d, a''_d) along the boundary arc a_d, K ⊕ Z k̂
        embeds in its balanced lattice, and the form is the WP form there."""
        bd = self.boundary_arc
        basis = self.balanced_lattice_data[0]
        a1, a2 = self.n_edges, self.n_edges + 1
        extended = Triangulation(list(self.faces) + [(bd, a1, a2)], name=self.name + "*")

        def embed(k_vec, khat):
            out = list(k_vec) + [0, 0]
            out[bd] = k_vec[bd] + khat
            out[a1] = -k_vec[bd]
            out[a2] = 0
            return out

        # basis of Kbar: K-basis with khat-component 0, then khat = (0,..,0,2)
        ext_vectors = [embed(b, 0) for b in basis] + [embed([0] * self.n_edges, 2)]
        for v in ext_vectors:
            assert is_balanced(extended, v), "embedding left the balanced lattice"
        return extended, intlinalg.gram(ext_vectors, wp_form(extended))

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
        """Rank of H_1 of the glued CW complex, computed from boundary maps
        given to `intlinalg.int_rank` as sparse rows: d1 and d2 transposed,
        one row per edge and one per face."""
        d1 = []
        for e in range(self.n_edges):
            # orient each edge by its primary (first) slot traversal
            f, k = self.edge_slots[e][0]
            row = {self.corner(f, k): 1}
            start = self.corner(f, k - 1)
            row[start] = row.get(start, 0) - 1
            d1.append(row)
        d2 = []
        for fi, f in enumerate(self.faces):
            row = {}
            for k, e in enumerate(f):
                row[e] = row.get(e, 0) + (1 if self.edge_slots[e][0] == (fi, k) else -1)
            d2.append(row)
        return self.n_edges - intlinalg.int_rank(d1) - intlinalg.int_rank(d2)

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


def check_int(value, what):
    """value, an int: not a bool, a float or text, which int() would take."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def check_decimal(text):
    """The int that text writes in ASCII decimal: what int() reads, but not "1_0" or "٣"."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not an integer in decimal")
    return int(text)


def check_fields(obj, what, fields):
    """obj, a JSON object whose keys are among fields and whose values are not null."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {obj!r}")
    for key, value in obj.items():
        if key not in fields:
            raise ValueError(f"unknown {what} field {key!r}: the fields are {', '.join(fields)}")
        if value is None:
            raise ValueError(f"{what} field {key!r} must not be null")
    return obj


# The largest genus. At genus 35 the slowest command, `lattice info
# --refined`, takes about 0.3 s wall on a 2-CPU Xeon host (0.28-0.40 s,
# median 0.31 s, over 5 runs), about 0.1 s of it encoding 2.2 MB of JSON;
# a detect request takes about 0.15 s wall on either cell.
MAX_GENUS = 35


def check_genus(genus):
    """The surfaces here have genus an integer in 1..MAX_GENUS."""
    if check_int(genus, "genus") < 1:
        raise ValueError("genus must be >= 1")
    if genus > MAX_GENUS:
        raise ValueError(f"genus must be <= {MAX_GENUS}")


def check_root_order(N):
    """The session convention: a root of unity of odd order N >= 3."""
    if check_int(N, "N") < 3 or N % 2 == 0:
        raise ValueError("N must be odd and >= 3")


def check_cell(cell):
    """A cell name must be one that repvar.moment_cell gives."""
    if cell not in ("reduced", "big"):
        raise ValueError("cell must be 'reduced' or 'big'")


def build_sigma_g_star(g: int) -> Triangulation:
    """Triangulation Delta_g of the genus-g surface with one boundary arc.

    Genus one is the annulus with its two boundary arcs fused through an
    extra triangle; higher genus wedges on one more copy per handle, again
    through one fusion triangle each. The genus is checked first, and then
    every call at one genus gets the same Delta_g, with the lattice data
    that it derives once: it is shared, so it is read, never changed.
    """
    check_genus(g)
    return _sigma_g_star(g)


@lru_cache(maxsize=MAX_GENUS)
def _sigma_g_star(g):
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
    W = [[0] * n for _ in range(n)]
    for f in tri.faces:
        for k in range(3):
            e, e2 = f[k], f[(k + 1) % 3]
            W[e][e2] += 1
            W[e2][e] -= 1
    return W


def is_balanced(tri: Triangulation, vec) -> bool:
    """Membership in the balanced lattice by definition: every face sum is
    even. Only the faces that a nonzero edge of vec lies on are summed."""
    faces = {fi for e in compress(count(), vec) for fi, _ in tri.edge_slots[e]}
    return all(sum(vec[e] for e in tri.faces[fi]) % 2 == 0 for fi in faces)


def k_boundary(tri: Triangulation):
    """The balanced map sending every edge to 2 (central element H_d)."""
    return [2] * tri.n_edges


class BalancedLattice:
    """The lattice K of balanced edge-weightings, with the WP form."""

    def __init__(self, tri: Triangulation):
        self.tri = tri
        self.basis, self.form, self._k_boundary = tri.balanced_lattice_data
        self._kernels = {}

    @property
    def rank(self):
        return len(self.basis)

    def skew_lattice(self) -> SkewLattice:
        return SkewLattice(self.form, name=f"K({self.tri.name})")

    def coordinates(self, vec):
        coords = intlinalg.lattice_coordinates(self.basis, vec)
        if coords is None:
            raise ValueError("vector is not balanced")
        return coords

    def pairing(self, vec1, vec2) -> int:
        """The WP form of two edge vectors: over the faces' ccw-consecutive
        slot pairs (e, e'), the sum of vec1[e]*vec2[e'] - vec1[e']*vec2[e]
        (`wp_form`)."""
        pairs = ((e, e2) for f in self.tri.faces for e, e2 in zip(f, f[1:] + f[:1]))
        return sum(vec1[e] * vec2[e2] - vec1[e2] * vec2[e] for e, e2 in pairs)

    def kernel_mod(self, N):
        """K^0: the mod-N kernel of the WP form on K, as an HNF basis in
        K-coordinates, computed once per N."""
        if N not in self._kernels:
            self._kernels[N] = intlinalg.kernel_mod(self.form, N)
        return self._kernels[N]

    def central_sublattice(self, N):
        """Mod-N kernel of the WP form on K, vs the closed formula
        N*K + Z*k_boundary. Returns (definitional, formula, equal), both
        as HNF bases in K-coordinates."""
        definitional = self.kernel_mod(N)
        formula = intlinalg.hnf_mod([self._k_boundary], N, self.rank)
        return definitional, formula, definitional == formula

    def pi_degree(self, N):
        """PI-degree sqrt([K : K^0]) of the associated quantum torus."""
        return pi_degree_report(self.kernel_mod(N), N)


def pi_degree_report(kernel, N):
    """The PI-degree report of a lattice from the HNF of its mod-N kernel."""
    # the kernel contains N*Z^r, so its HNF is square and upper triangular
    index = prod(row[i] for i, row in enumerate(kernel))
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
        self.base = base
        self.tri = base.tri
        self.extended, self.form = base.tri.refined_lattice_data
        self.rank = base.rank + 1

    def kernel_mod(self, N):
        return intlinalg.kernel_mod(self.form, N)

    def pi_degree(self, N):
        return pi_degree_report(self.kernel_mod(N), N)

    def lemma_comparison(self, N):
        """Side-by-side report: definitional Kbar^0 vs the closed formula
        K^0 ⊕ N Z k̂, and the displayed (non-bilinear) pairing formula."""
        definitional = self.kernel_mod(N)
        formula = intlinalg.hnf_mod([row + [0] for row in self.base.kernel_mod(N)], N, self.rank)
        # the closed pairing formula under scrutiny:
        #   (k1,k2)^WP + n1*k1(a_d) - n2*k2(a_d)
        # evaluated on basis pairs, against the definitional form. A basis
        # pair has n = 0 on K-basis vectors and k = 0 on k-hat, so the
        # boundary terms vanish: the formula is the WP form on K (base.form)
        # and 0 on every pair involving k-hat.
        displayed = [row + [0] for row in self.base.form] + [[0] * self.rank]
        displayed_matches = self.form == displayed
        report = pi_degree_report(definitional, N)
        report.update(
            {
                "definitionalKernel": definitional,
                "lemmaFormulaKernel": formula,
                "kernelFormulaMatches": definitional == formula,
                "displayedPairingMatches": displayed_matches,
            }
        )
        return report
