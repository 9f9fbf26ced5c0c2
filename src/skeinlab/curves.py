"""Simple closed curves in normal position on a triangulation.

Normal coordinates are per-edge geometric intersection numbers. Each face
splits its points into corner arcs; a full state assigns +/- to every
intersection point, and a state is admissible when no corner piece carries
the forbidden ordered pair (+ on the ccw-earlier edge, - on the later one).

The points and pieces of a curve are walked once per component, in one
loop: a walk is its points in order and the piece from each point to the
next, and a step's orientation is whether it leaves through its piece's
a-point. Component counts and the walk DP read these walks. Only
`WalkSupport`, the one support type, reads a walk-DP table: once, into
state entries, from which it names classes mod N and decodes `fibers`.

Two enumeration routes are kept deliberately independent: the walk DP
(default) and the 2^m brute-force kernel in _kernels (the reference route
for tests and selftest). _kernels is imported only when the brute-force
route runs.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from math import gcd, prod
from operator import and_, rshift

from .surface import Triangulation, build_sigma_g_star, check_int

DEFAULT_STATE_CAP = 24
# largest curve the 2^m brute-force kernel will enumerate
BRUTE_FORCE_MAX_POINTS = 25


def check_state_cap(cap):
    """A cap, on points or on a closure's size, is an integer >= 0."""
    if check_int(cap, "cap") < 0:
        raise ValueError(f"cap must be >= 0, not {cap}")


class StateCapExceeded(RuntimeError):
    pass


def check_point_cap(curve, cap):
    """Refuse a curve with more intersection points than the cap, before
    any walk or enumeration is paid for."""
    n = curve.n_points
    if n > cap:
        raise StateCapExceeded(f"{n} intersection points exceed the cap {cap}")


class NormalCurve:
    """A multicurve given by edge intersection numbers on a triangulation:
    its points, corner pieces and component walks are built on first read."""

    def __init__(self, tri: Triangulation, coords):
        n = tri.n_edges
        if isinstance(coords, dict):
            # a label is an edge index, as an int or as its decimal text
            # ("2", never "02" or "+2"), so that no two labels name one edge
            labels = {str(e): e for e in range(n)}
            vec = [0] * n
            for e, v in coords.items():
                i = e if type(e) is int and 0 <= e < n else labels.get(e)
                if i is None:
                    raise ValueError(f"edge label {e!r} is not in 0..{n - 1}")
                vec[i] = v
            coords = vec
        coords = [check_int(v, "intersection number") for v in coords]
        if len(coords) != n:
            raise ValueError("coordinate vector length mismatch")
        if any(v < 0 for v in coords):
            raise ValueError("negative intersection number")
        self.tri = tri
        self.coords = tuple(coords)
        self.n_points = sum(coords)
        for fi, f in enumerate(tri.faces):
            x = [coords[e] for e in f]
            if sum(x) % 2 != 0:
                raise ValueError(f"odd edge sum on face {fi}")
            for k in range(3):
                if x[k] + x[(k + 1) % 3] - x[(k + 2) % 3] < 0:
                    raise ValueError(f"corner count negative on face {fi}")

    def max_edge_weight(self):
        return max(self.coords) if self.coords else 0

    def component_count(self):
        return len(self.walks)

    def is_connected(self):
        return self.component_count() == 1

    def __eq__(self, other):
        return (
            isinstance(other, NormalCurve)
            and other.tri == self.tri
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((self.tri, self.coords))

    def __repr__(self):
        return f"NormalCurve({list(self.coords)})"

    def to_json(self):
        return {
            "triangulation": self.tri.name,
            "coords": {str(e): v for e, v in enumerate(self.coords) if v},
        }

    @cached_property
    def point_edge(self):
        return [e for e, w in enumerate(self.coords) for _ in range(w)]

    @cached_property
    def pieces(self):
        """(point_a, point_b, slot_a, slot_b) per corner piece; the
        forbidden state pair is (a: +, b: -), and slot_b is the slot after
        slot_a in the face."""
        tri, coords = self.tri, self.coords
        offset = list(accumulate(coords, initial=0))
        pieces = []
        for fi, f in enumerate(tri.faces):
            x = [coords[e] for e in f]
            # the point at position 0 of each side and the step to the next
            # position: an edge numbers its points from its primary slot
            sides = [
                (offset[e], 1)
                if tri.edge_slots[e][0] == (fi, k)
                else (offset[e] + x[k] - 1, -1)
                for k, e in enumerate(f)
            ]
            for k in range(3):
                c = (x[k] + x[(k + 1) % 3] - x[(k + 2) % 3]) // 2
                if not c:
                    continue
                sa, sb = (fi, k), (fi, (k + 1) % 3)
                (a0, da), (b0, db) = sides[k], sides[(k + 1) % 3]
                # piece i joins position x[k]-1-i of side k to position i
                # of side k+1
                a_last = a0 + da * (x[k] - 1)
                pieces += [
                    (pa, pb, sa, sb)
                    for pa, pb in zip(
                        range(a_last, a_last - da * c, -da), range(b0, b0 + db * c, db)
                    )
                ]
        return pieces

    @cached_property
    def walks(self):
        """Components as (points, steps) walks, in one loop: steps[t] is the
        piece from points[t] to the next point. A closed component has one
        step per point, the last one back to points[0]; an open one (its
        ends lie on boundary arcs) has one step fewer.

        Open paths come first, each from its lower endpoint. A closed cycle
        starts at the b-point of its lowest piece, leaves through the other
        piece there, and closes through the lowest piece."""
        pieces = self.pieces
        # each point meets one piece per adjacent face side
        at = [[] for _ in range(self.n_points)]
        for q, (pa, pb, _, _) in enumerate(pieces):
            at[pa].append(q)
            at[pb].append(q)
        if not all(0 < len(qs) < 3 for qs in at):
            raise AssertionError("point incidence must be 1 or 2")

        def other(p, q):
            """The piece at p that is not q; q itself at a path end."""
            here = at[p]
            return here[-1] if here[0] == q else here[0]

        starts = [(p, qs[0]) for p, qs in enumerate(at) if len(qs) == 1]
        starts += [(pb, other(pb, q)) for q, (_, pb, _, _) in enumerate(pieces)]
        # a walk uses up every piece of its component, so a start whose
        # first piece is used belongs to a component already walked
        used = [False] * len(pieces)
        walks = []
        for start, q in starts:
            if used[q]:
                continue
            points, steps = [start], []
            p = start
            while not used[q]:
                used[q] = True
                steps.append(q)
                pa, pb = pieces[q][:2]
                p = pb if p == pa else pa
                if p == start:
                    break
                points.append(p)
                q = other(p, q)
            walks.append((points, steps))
        return walks


# ---------------------------------------------------------------------------
# Admissible state enumeration


class WalkSupport:
    """Support of the quantum trace: balanced maps with state fiber sizes.
    The walk DP's table of packed keys and slotted counts (`_Layout`) is
    read once into state entries, each key with each of its nonzero
    slots: `rows`, `k_heavy` and `counts` give an entry's key, k_h and
    states, and `fields` the keys' other edges, one column per edge
    (`_Layout.fields`). `fibers` is decoded from them on first read, and
    `classes` names their classes mod N.

    The keys are read in ascending order, the lexicographic order of their
    vectors without k_h (`_Layout`), and the values slot by slot, so slot
    j's entries, which share k_h = 2j - w_h, form one ascending run. A
    range of slots is halved, lower half first, until it has at most 8
    slots, and a value is dropped from a half where it is 0, so a wide
    value is split about log2((w_h + 1) / 8) times, not shifted once per
    slot; a range of at most 8 slots is read in one pass."""

    def __init__(self, table: dict, layout):
        self.layout = layout
        keys = sorted(table)
        bits, w_h, mask = layout.slot_bits, layout.heavy_weight, (1 << layout.slot_bits) - 1
        self.rows, self.k_heavy, self.counts = [], [], []
        # (rows, their nonzero values with slot lo at bit 0, lo, hi)
        todo = [(list(range(len(keys))), list(map(table.__getitem__, keys)), 0, w_h + 1)]
        while todo:
            rows, values, lo, hi = todo.pop()
            if hi - lo <= 8:  # few slots: one pass reads them all
                slots = [(v >> s) & mask for s in range(0, bits * (hi - lo), bits) for v in values]
                self.rows += compress(rows * (hi - lo), slots)
                ks = map(repeat, range(2 * lo - w_h, 2 * hi - w_h, 2), repeat(len(rows)))
                self.k_heavy += compress(chain.from_iterable(ks), slots)
                self.counts += filter(None, slots)
                continue
            mid = (lo + hi) // 2
            shift = bits * (mid - lo)
            high = list(map(rshift, values, repeat(shift)))
            low = list(map(and_, values, repeat((1 << shift) - 1)))
            for half, a, b in ((high, mid, hi), (low, lo, mid)):  # pops the lower first
                kept = list(compress(rows, half))
                if kept:
                    todo.append((kept, list(filter(None, half)), a, b))
        self.fields = layout.fields(keys)

    def kvectors(self, selector=None):
        """The k-vectors of the entries that `selector` picks, or of all,
        each key column spread to the picked entries' rows."""
        rows, k_heavy = self.rows, self.k_heavy
        if selector is not None:
            selector = list(selector)
            rows, k_heavy = list(compress(rows, selector)), compress(k_heavy, selector)
        cols = [map(col.__getitem__, rows) for col in self.fields.values()]
        cols.insert(self.layout.heavy, k_heavy)
        return list(zip(*cols))

    @cached_property
    def fibers(self):
        return dict(zip(self.kvectors(), self.counts))

    @property
    def state_count(self):
        """The number of admissible states, with no fiber decoded."""
        return sum(self.counts)

    def classes(self, N):
        """The class of each state entry, in the order of `counts`: the id
        of an entry is the residues k_e mod N of its k-vector, read as a
        mixed-radix number in edge order. A key's fields give every digit
        but the heavy edge h's, and the entry's k_h gives h's; no k-vector
        is decoded."""
        fields, n, h = self.fields, self.layout.n_edges, self.layout.heavy
        # every edge but h is a field of every key; h's digit is 0 so far
        ids = [0] * len(next(iter(fields.values())))
        for e in range(n):
            ids = [x * N + k % N for x, k in zip(ids, fields.get(e, repeat(0)))]
        place = N ** (n - 1 - h)
        return [ids[row] + k % N * place for row, k in zip(self.rows, self.k_heavy)]


def enumerate_admissible_states(
    curve: NormalCurve, cap: int = DEFAULT_STATE_CAP
) -> WalkSupport:
    """Default route: per-face corner pieces, then a walk DP per component.

    A table maps the packed partial k-vector of every edge but the heavy
    one to that edge's counts in slots of one int (`_Layout`). The
    components' tables are multiplied (a one-component curve has nothing
    to multiply): keys add, and values multiply as polynomials in their
    slots. The support reads the product into its state entries
    (`WalkSupport`)."""
    check_state_cap(cap)
    check_point_cap(curve, cap)
    layout = _Layout(curve.coords, [len(points) for points, _ in curve.walks])
    parts = [_component_states(curve, walk, layout) for walk in curve.walks]
    total = parts[0] if parts else {0: 1}
    for part in parts[1:]:
        merged = {}
        get = merged.get
        for k1, c1 in total.items():
            for k2, c2 in part.items():
                k = k1 + k2
                merged[k] = get(k, 0) + c1 * c2
        total = merged
    return WalkSupport(total, layout)


def _field_bits(width):
    """Bits per edge field of a packed k-vector: the fewest b with
    2**b >= 2W + 1, so that a field shifted by W holds any of -W..W."""
    return (2 * width).bit_length()


def _fibonacci(n):
    """F(n), with F(1) = F(2) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class _Layout:
    """Where the walk DP keeps each edge of a curve with these weights,
    whose components have these numbers of points.

    The heavy edge h is the edge of largest weight w_h, the first one on
    ties. Every other edge is a field of b bits of a table's keys, with
    2**b >= 2W + 1 for the largest weight W of those edges, and the first
    of them in the top field: with F fields, the i-th edge other than h is
    field F - 1 - i. A key is sum k_e * 2**(b*f), and as every partial or
    total |k_e| is at most W, the packing is one-to-one and adding vectors
    adds their ints. With W added to every field no field borrows from the
    next, so keys compare as their vectors without k_h do, lexicographically
    in edge order (`WalkSupport` relies on it). The edge h lives in a table's
    values: w_h + 1 slots of s bits, slot j counting the partial states
    with j plus-signs on h so far, so that k_h = 2j - w_h once the walk is
    done.

    No slot may carry into the next, so s bits must hold any count. Along
    a walk each piece forbids one ordered pair of states, so if p and n
    admissible states of the first t points end in + and in -, a step
    leaves (p + n, n) or (p, p + n). Either way both new counts are at
    most the old total, so the totals obey s_{t+1} <= s_t + s_{t-1}, with
    s_1 = 2 and s_2 = 3: a walk of n points, open or closed (closing only
    forbids more), has at most F(n + 2) admissible states. Components are
    independent, so a curve has at most the product of F(m_i + 2) over
    its components' point counts m_i, and s is that product's bit length.
    Any slot of any table, a component's or their product, counts some of
    these states (a walk's first points have fewer), so no sum or product
    of values carries from one slot into the next: one walk of 64 points
    needs 45 bits."""

    def __init__(self, coords, sizes):
        self.n_edges = len(coords)
        self.heavy_weight = max(coords)
        self.heavy = h = coords.index(self.heavy_weight)
        rest = coords[:h] + coords[h + 1 :]
        self.width = max(rest, default=0)
        self.bits = b = _field_bits(self.width)
        self.slot_bits = prod(_fibonacci(n + 2) for n in sizes).bit_length()
        # each edge but h, with the shift of its field
        others = [e for e in range(self.n_edges) if e != h]
        self.shifts = [(e, b * (len(others) - 1 - i)) for i, e in enumerate(others)]
        # what a + on a point of each edge adds to a key; 0 on h only
        self.units = [0] * self.n_edges
        for e, s in self.shifts:
            self.units[e] = 1 << s

    def fields(self, keys):
        """{e: [k_e of each key]} for every edge e other than h. With W
        added to every field of a key, field f is a shift and a mask."""
        width, mask = self.width, (1 << self.bits) - 1
        lift = width * sum(self.units)
        keys = [key + lift for key in keys]
        return {e: [((x >> s) & mask) - width for x in keys] for e, s in self.shifts}


def _component_states(curve, walk, layout):
    """DP over one component walk: {packed k-vector: slotted count}.

    One table per state of the current point (+ or -). Each holds its keys
    relative to a lazy offset, so moving to the next point shifts both
    tables' keys for free: + adds the point's unit, - subtracts it. On a
    point of the heavy edge the units are 0 and instead every value of the
    + table moves up one slot. The one allowed change of state is a single
    pass that folds one table into the other. The walk is (points, steps),
    steps[t] being the piece from points[t] to the next point; a closed
    walk's last step returns to points[0]. A step forbids (+, -) along it
    when it leaves through its piece's a-point, else (-, +).

    Both states of the first point share one pass. On a closed walk the
    runs that began with - sit `half` bits up in every value, above the
    w_h + 1 slots of those that began with +, until the close tells them
    apart; an open walk has no close, so its half is 0.

    The close is the last merge of the two tables into one, a pass over
    each that drops the zeros: + keeps its low half, and - adds its two
    halves. An open walk's values are all in the low half, so the same
    pass keeps them whole."""
    points, steps = walk
    n = len(points)
    closed = len(steps) == n
    units, point_edge = layout.units, curve.point_edge
    unit = [units[point_edge[p]] for p in points]
    slot_bits = layout.slot_bits
    upper = slot_bits * (layout.heavy_weight + 1)
    half = upper if closed else 0
    a_first = [curve.pieces[q][0] == p for p, q in zip(points, steps)]
    plus, minus = {0: 1 if unit[0] else 1 << slot_bits}, {0: 1 << half}
    off_plus, off_minus = unit[0], -unit[0]
    for t in range(1, n):
        # with + then - forbidden, either state may be followed by +,
        # so - folds into +; with - then + forbidden, + folds into -
        if a_first[t - 1]:
            dst, src, delta = plus, minus, off_minus - off_plus
        else:
            dst, src, delta = minus, plus, off_plus - off_minus
        get_dst = dst.get
        for k, c in src.items():
            k += delta
            dst[k] = get_dst(k, 0) + c
        if not unit[t]:  # a point on h
            plus = {k: c << slot_bits for k, c in plus.items()}
        off_plus += unit[t]
        off_minus -= unit[t]
    # a closed walk closes from its lowest piece's a-point
    # (`NormalCurve.walks`), which forbids + at the last point after - at
    # the first: + keeps the runs that began with +, - takes both
    low = (1 << upper) - 1
    results = {}
    get = results.get
    for k, c in plus.items():
        c &= low
        if c:
            k += off_plus
            results[k] = get(k, 0) + c
    for k, c in minus.items():
        c = (c & low) + (c >> upper)
        if c:
            k += off_minus
            results[k] = get(k, 0) + c
    return results


def enumerate_admissible_states_bruteforce(
    curve: NormalCurve, cap: int = DEFAULT_STATE_CAP
) -> dict:
    """Reference route: filter all 2^m full states with the bitset kernel,
    into {k-vector: number of admissible states}."""
    from . import _kernels

    check_state_cap(cap)
    check_point_cap(curve, min(cap, BRUTE_FORCE_MAX_POINTS))
    pa = [q[0] for q in curve.pieces]
    pb = [q[1] for q in curve.pieces]
    masks = _kernels.admissible_masks(curve.n_points, pa, pb)
    return _kernels.support_from_masks(masks, curve.point_edge, curve.tri.n_edges)


def support_bounds_check(support: WalkSupport, curve: NormalCurve) -> bool:
    """The three support constraints: |k(e)| <= |γ∩e|, matching parity,
    and k = 0 on the boundary arc. Each edge is checked over its distinct
    values, read off the support's entry columns: `k_heavy` on the heavy
    edge and the keys' `fields` on the others. These are the values of
    the k-vectors, which `kvectors` zips from the same columns, as every
    key has an entry (the walk DP keeps no zero value)."""
    bd = curve.tri.boundary_edges
    heavy = support.layout.heavy
    for e, w in enumerate(curve.coords):
        for k in set(support.k_heavy if e == heavy else support.fields[e]):
            if abs(k) > w or (k - w) % 2 or (k and e in bd):
                return False
    return True


# ---------------------------------------------------------------------------
# Torus curves on the built-in Delta_1


# The HNF basis of the intersection vectors of Delta_1's connected normal
# curves; the tests re-derive it from every such curve up to weight 11.
CLASS_BASIS = [[1, -1, 0, -1, 0], [0, 0, 1, -1, 0]]


class TorusCurveTable:
    """(p, q) <-> normal coordinates on Delta_1.

    A coprime class (p, q) has coordinates |p*h1 + q*h2| per edge, for the
    class basis (h1, h2).
    """

    def __init__(self):
        self.tri = build_sigma_g_star(1)
        self.basis = CLASS_BASIS

    def predicted_coords(self, p, q):
        h1, h2 = self.basis
        return [abs(p * a + q * b) for a, b in zip(h1, h2)]

    def curve(self, p, q) -> NormalCurve:
        if (p, q) == (0, 0):
            raise ValueError("(0, 0) is not a curve class")
        if gcd(p, q) != 1:
            raise ValueError("torus curve class must be primitive (coprime p, q)")
        return NormalCurve(self.tri, self.predicted_coords(p, q))

    def class_of(self, curve: NormalCurve):
        """(p, q) of the curve of a torus class, with p >= 0 and q >= 0
        when p = 0: the inverse of `predicted_coords`, whose edges 0, 2 and
        3 read |p|, |q| and |p + q|."""
        c = curve.coords
        p, q = c[0], c[2] if c[3] == c[0] + c[2] else -c[2]
        if gcd(p, q) != 1 or self.predicted_coords(p, q) != list(c):
            raise ValueError(f"{list(c)} is the curve of no torus class (p, q)")
        return (p, q)


# built at import, so Python's import lock makes it one table on every thread
TORUS_TABLE = TorusCurveTable()


def torus_table() -> TorusCurveTable:
    """The shared Delta_1 table."""
    return TORUS_TABLE


def class_curve(genus, p, q) -> NormalCurve:
    """The torus curve of class (p, q): class shorthand names curves on
    Delta_1 only."""
    if genus != 1:
        raise ValueError("(p, q) curve input is genus-1 only")
    return torus_table().curve(p, q)
