"""SL2 representation variety of the genus-g surface with one boundary arc.

Points are 2g-tuples of exact SL2 matrices (the surface group is free).
The moment map evaluates at the boundary loop, the product of commutators;
its upper-left entry splits the variety into the big and reduced cells.
Matrix entries live in a cyclotomic field, Q(zeta_4) by default, which
hosts the finite subgroups used for finite orbits.
"""

from __future__ import annotations

from math import lcm

from .curves import check_state_cap
from .cyclotomic import MAX_ORDER, Cyclotomic
from .mcg import FreeGroupEndo, boundary_word
from .surface import check_cell, check_genus


class SL2Mat:
    __slots__ = ("order", "a", "b", "c", "d")

    def __init__(self, a, b, c, d, order=4):
        orders = sorted({x.order for x in (a, b, c, d) if isinstance(x, Cyclotomic)} - {order})
        target = lcm(order, *orders)
        if target > MAX_ORDER:
            raise ValueError(
                f"the field order {order} and the entry orders {orders} have lcm {target}, "
                f"above the largest cyclotomic order {MAX_ORDER}"
            )
        vals = []
        for x in (a, b, c, d):
            if not isinstance(x, Cyclotomic):
                x = Cyclotomic.rational(target, x)
            elif x.order != target:
                x = x.embed(target)
            vals.append(x)
        self.order = target
        self.a, self.b, self.c, self.d = vals
        det = self.a * self.d - self.b * self.c
        if det != 1:
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
    """A representation of the free surface group: images of a1..ag, b1..bg."""

    def __init__(self, genus, images):
        check_genus(genus)
        if len(images) != 2 * genus:
            raise ValueError("need 2g images (a1, b1, ..., ag, bg)")
        self.genus = genus
        # stored interleaved as given: (A1, B1, A2, B2, ...)
        self.images = tuple(images)

    def image_of_generator(self, gid):
        # generator ids: 1..g alphas, g+1..2g betas (as in mcg.parse_word)
        g = self.genus
        if 1 <= gid <= g:
            return self.images[2 * (gid - 1)]
        return self.images[2 * (gid - g - 1) + 1]

    def evaluate_word(self, word):
        out = SL2Mat.identity(order=self.images[0].order)
        for t in word:
            m = self.image_of_generator(abs(t))
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


def orbit_closure(seeds, mapping_classes, cap=4096) -> OrbitData:
    """BFS closure of seed representations under mapping classes given by
    words (validated when they were built) of the seeds' genus. Verifies
    that every image has the moment of the first seed."""
    genus = seeds[0].genus
    mu = moment_map(seeds[0])
    steps = []
    for mc in mapping_classes:
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
