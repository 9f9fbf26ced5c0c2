"""SL2 representation variety of the genus-g surface with one boundary arc.

Points are 2g-tuples of exact SL2 matrices (the surface group is free).
The moment map evaluates at the boundary loop, the product of commutators;
its upper-left entry splits the variety into the big and reduced cells.
The matrices of one input live in one cyclotomic field, whose order
`field_order` decides once: the lcm of the given order (4, for Q(zeta_4),
which hosts the finite subgroups used for finite orbits, by default) and
the orders of all the entries.
"""

from __future__ import annotations

from math import lcm

from .curves import check_state_cap
from .cyclotomic import MAX_ORDER, Cyclotomic
from .mcg import FreeGroupEndo, boundary_word
from .surface import check_cell, check_genus


def field_order(order, entries):
    """The order of the one cyclotomic field that holds every entry of an
    input: the lcm of the field order and the entries' orders."""
    orders = sorted({x.order for x in entries} - {order})
    target = lcm(order, *orders)
    if target > MAX_ORDER:
        raise ValueError(
            f"the field order {order} and the entry orders {orders} have lcm {target}, "
            f"above the largest cyclotomic order {MAX_ORDER}"
        )
    return target


class SL2Mat:
    """A determinant-1 matrix over Q(zeta_order); a cyclotomic entry's order
    must divide order (see field_order)."""

    __slots__ = ("order", "a", "b", "c", "d")

    def __init__(self, a, b, c, d, order=4):
        self.order = order
        self.a, self.b, self.c, self.d = (
            x.embed(order) if isinstance(x, Cyclotomic) else Cyclotomic.rational(order, x)
            for x in (a, b, c, d)
        )
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix determinant must be 1")

    @staticmethod
    def identity(order=4):
        return SL2Mat(1, 0, 0, 1, order=order)

    def __mul__(self, other):
        return SL2Mat(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            order=self.order,
        )

    def inverse(self):
        return SL2Mat(self.d, -self.b, -self.c, self.a, order=self.order)

    def trace(self):
        return self.a + self.d

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return isinstance(other, SL2Mat) and self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return f"SL2[{self.a!r} {self.b!r}; {self.c!r} {self.d!r}]"

    def to_json(self):
        return [x.to_json() for x in self.entries()]


class SL2Rep:
    """A representation of the free surface group, given by the images of
    a1, b1, ..., ag, bg in that order."""

    def __init__(self, genus, images):
        check_genus(genus)
        if len(images) != 2 * genus:
            raise ValueError("need 2g images (a1, b1, ..., ag, bg)")
        self.genus = genus
        # stored by generator id (as in mcg.parse_word): image gid - 1 is
        # that of a1..ag for gid 1..g and of b1..bg for gid g+1..2g
        self.images = tuple(images[0::2] + images[1::2])

    def evaluate_word(self, word):
        out = SL2Mat.identity(order=self.images[0].order)
        for t in word:
            m = self.images[abs(t) - 1]
            out = out * (m if t > 0 else m.inverse())
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SL2Rep)
            and self.genus == other.genus
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.genus, self.images))


def moment_map(rep: SL2Rep) -> SL2Mat:
    """rho evaluated at the boundary loop [a1,b1]...[ag,bg]."""
    return rep.evaluate_word(boundary_word(rep.genus))


def moment_cell(mu: SL2Mat) -> str:
    """'big' when the moment value has nonzero upper-left entry."""
    return "big" if not mu.a.is_zero() else "reduced"


def _cell_index(m: SL2Mat) -> int:
    """The Bruhat cell as an index: 0 for the big cell, 1 for the reduced."""
    return 0 if moment_cell(m) == "big" else 1


def classify_sts_leaf(m: SL2Mat):
    """Leaf descriptor on SL2 with the Semenov-Tian-Shansky structure:
    (cell index, conjugacy data). Cell 1 matrices are the singleton
    dressing orbits C_b."""
    tr = m.trace()
    cell = _cell_index(m)
    central = m.b.is_zero() and m.c.is_zero() and m.a == m.d and (m.a == 1 or m.a == -1)
    parabolic = (tr == 2 or tr == -2) and not central
    desc = {
        "cell": cell,
        "trace": tr.to_json(),
        "central": central,
        "parabolic": parabolic,
    }
    if cell == 1:
        desc["dressingOrbit"] = {"b": m.b.to_json()}
    return desc


def classify_double_leaf(g1: SL2Mat, g2: SL2Mat):
    """Symplectic leaf (i, j) of the double: cells of g2^-1 g1 and g2 g1^-1."""
    return (_cell_index(g2.inverse() * g1), _cell_index(g2 * g1.inverse()))


# ---------------------------------------------------------------------------
# Finite orbits


def _capped_closure(seeds, steps, cap, what):
    """Breadth-first closure of the seeds under the step functions, in the
    order the points are found; more than cap points, seeds included, is
    an error."""
    check_state_cap(cap)
    seen = {}
    found = seeds
    while found:
        frontier = []
        for y in found:
            if y not in seen:
                if len(seen) >= cap:
                    raise ValueError(f"{what} closure exceeded cap")
                seen[y] = None
                frontier.append(y)
        found = [step(x) for x in frontier for step in steps]
    return list(seen)


class OrbitData:
    def __init__(self, points, moment, cell):
        self.points = points
        self.moment = moment
        self.cell = cell

    @property
    def size(self):
        return len(self.points)


def act_on_rep(phi: FreeGroupEndo, rep: SL2Rep) -> SL2Rep:
    """(phi . rho)(gamma) = rho(phi(gamma)) on the generators."""
    g = rep.genus
    images = []
    for i in range(1, g + 1):
        images.append(rep.evaluate_word(phi.images[i]))
        images.append(rep.evaluate_word(phi.images[g + i]))
    return SL2Rep(g, images)


def _same_moment(rep, mu):
    """rep, refused when its moment is not mu."""
    if moment_map(rep) != mu:
        raise AssertionError("moment map changed along the orbit: invalid generator")
    return rep


def orbit_closure(seeds, generators, cap=4096) -> OrbitData:
    """BFS closure of seed representations under mapping classes given by
    words (validated when they were built) of the seeds' genus. Verifies
    that every image has the moment of the first seed."""
    genus = seeds[0].genus
    mu = moment_map(seeds[0])
    steps = []
    for mc in generators:
        if mc.endo is None:
            raise ValueError(
                'orbit generators act through their free-group words: give {"words": ...}, '
                'not {"matrix": ...}'
            )
        if mc.genus != genus:
            raise ValueError(
                f"an orbit generator of genus {mc.genus} cannot act on a "
                f"representation of genus {genus}"
            )
        steps.append(lambda rep, endo=mc.endo: _same_moment(act_on_rep(endo, rep), mu))
    points = _capped_closure(seeds, steps, cap, "orbit")
    return OrbitData(points, mu, moment_cell(mu))


def w_dimension(genus: int, cell: str, N: int, orbit_size: int) -> int:
    """dim W(O): N^(3g) |O| on the big cell, N^(3g-1) |O| on the reduced."""
    check_genus(genus)
    check_cell(cell)
    exp = 3 * genus if cell == "big" else 3 * genus - 1
    return N**exp * orbit_size


def rep_dimension(orbit: OrbitData, N: int) -> int:
    """dim W(O) of a finite orbit."""
    return w_dimension(orbit.points[0].genus, orbit.cell, N, orbit.size)
