"""Simple closed curves in normal position on a triangulation.

Normal coordinates are per-edge geometric intersection numbers. Each face
splits its points into corner arcs; a full state assigns +/- to every
intersection point, and a state is admissible when no corner piece carries
the forbidden ordered pair (+ on the ccw-earlier edge, - on the later one).

Two enumeration routes are kept deliberately independent: a cycle-walk DP
(default) and the 2^m brute-force kernel in _kernels (the reference route
for tests and selftest). _kernels is imported only when the brute-force
route runs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import accumulate
from math import gcd

from . import intlinalg
from .surface import Triangulation, build_sigma_g_star

DEFAULT_STATE_CAP = 24
# largest curve the 2^m brute-force kernel will enumerate
BRUTE_FORCE_MAX_POINTS = 25


class StateCapExceeded(RuntimeError):
    pass


class NormalCurve:
    """A multicurve given by edge intersection numbers on a triangulation."""

    def __init__(self, tri: Triangulation, coords):
        if isinstance(coords, dict):
            vec = [0] * tri.n_edges
            for e, v in coords.items():
                vec[int(e)] = int(v)
            coords = vec
        else:
            coords = [int(v) for v in coords]
        if len(coords) != tri.n_edges:
            raise ValueError("coordinate vector length mismatch")
        if any(v < 0 for v in coords):
            raise ValueError("negative intersection number")
        self.tri = tri
        self.coords = tuple(coords)
        for fi, f in enumerate(tri.faces):
            x = [coords[e] for e in f]
            if sum(x) % 2 != 0:
                raise ValueError(f"odd edge sum on face {fi}")
            for k in range(3):
                if x[k] + x[(k + 1) % 3] - x[(k + 2) % 3] < 0:
                    raise ValueError(f"corner count negative on face {fi}")
        self._geometry = None

    @property
    def total_weight(self):
        return sum(self.coords)

    def max_edge_weight(self):
        return max(self.coords) if self.coords else 0

    def is_empty(self):
        return self.total_weight == 0

    def geometry(self):
        if self._geometry is None:
            self._geometry = _CurveGeometry(self.tri, self.coords)
        return self._geometry

    def component_count(self):
        return len(self.geometry().cycles)

    def is_connected(self):
        return self.component_count() == 1

    def intersection_vector(self):
        """Algebraic edge-crossing sums of the oriented components."""
        return self.geometry().intersection_vector()

    def __eq__(self, other):
        return (
            isinstance(other, NormalCurve)
            and other.tri is self.tri
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((id(self.tri), self.coords))

    def __repr__(self):
        return f"NormalCurve({list(self.coords)})"

    def to_json(self):
        return {
            "triangulation": self.tri.name,
            "coords": {str(e): v for e, v in enumerate(self.coords) if v},
        }


class _CurveGeometry:
    """Points, corner pieces, and curve components of a normal curve."""

    def __init__(self, tri, coords):
        self.tri = tri
        self.coords = coords
        self.point_offset = list(accumulate(coords, initial=0))[:-1]
        self.n_points = sum(coords)
        self.point_edge = [e for e, w in enumerate(coords) for _ in range(w)]
        # pieces: (point_a, point_b, slot_a, slot_b); the forbidden state
        # pair is (a: +, b: -). slot_b is the slot after slot_a in the
        # face, which the walk DP reads a step's orientation from.
        self.pieces = []
        for fi, f in enumerate(tri.faces):
            x = [coords[e] for e in f]
            # the point at position 0 of each side and the step to the next
            # position: an edge numbers its points from its primary slot
            sides = [
                (self.point_offset[e], 1)
                if tri.edge_slots[e][0] == (fi, k)
                else (self.point_offset[e] + x[k] - 1, -1)
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
                self.pieces += [
                    (pa, pb, sa, sb)
                    for pa, pb in zip(
                        range(a_last, a_last - da * c, -da), range(b0, b0 + db * c, db)
                    )
                ]
        # each point meets one piece per adjacent face side
        incidence = [[] for _ in range(self.n_points)]
        for qi, (pa, pb, sa, sb) in enumerate(self.pieces):
            incidence[pa].append((qi, sa))
            incidence[pb].append((qi, sb))
        if not all(0 < len(inc) < 3 for inc in incidence):
            raise AssertionError("point incidence must be 1 or 2")
        self.incidence = incidence
        self.cycles = self._walk_components()

    def _walk_components(self):
        """Components as alternating point/piece walks.

        Each entry is a list [(point, in_slot, out_slot), ...] in traversal
        order; open paths (points on boundary arcs) keep in/out of None at
        the free ends.
        """
        pieces, incidence = self.pieces, self.incidence
        seen_piece = [False] * len(pieces)
        components = []
        # open paths first (endpoints = points with a single piece)
        for start, inc in enumerate(incidence):
            if len(inc) != 1 or seen_piece[inc[0][0]]:
                continue
            qi, slot = inc[0]
            p = start
            walk = [(p, None, slot)]
            while True:
                seen_piece[qi] = True
                pa, pb, sa, sb = pieces[qi]
                p, s_in = (pb, sb) if p == pa else (pa, sa)
                inc = incidence[p]
                if len(inc) == 1:
                    walk.append((p, s_in, None))
                    break
                qi, s_out = inc[1] if inc[0][0] == qi else inc[0]
                walk.append((p, s_in, s_out))
            components.append(walk)
        # closed cycles
        for qi0 in range(len(pieces)):
            if seen_piece[qi0]:
                continue
            walk = []
            p, qi = pieces[qi0][0], qi0
            while True:
                seen_piece[qi] = True
                pa, pb, sa, sb = pieces[qi]
                p, s_in = (pb, sb) if p == pa else (pa, sa)
                inc = incidence[p]
                if len(inc) != 2:
                    raise AssertionError("closed walk hit a path endpoint")
                qi, s_out = inc[1] if inc[0][0] == qi else inc[0]
                walk.append((p, s_in, s_out))
                if qi == qi0:
                    break
            components.append(walk)
        return components

    def intersection_vector(self):
        vec = [0] * self.tri.n_edges
        for walk in self.cycles:
            for p, s_in, s_out in walk:
                if s_in is None or s_out is None:
                    continue
                e = self.point_edge[p]
                primary = self.tri.edge_slots[e][0]
                vec[e] += 1 if s_in == primary else -1
        return vec


# ---------------------------------------------------------------------------
# Admissible state enumeration


@dataclass
class TraceSupport:
    """Support of the quantum trace: balanced maps with state fiber sizes."""

    curve: NormalCurve
    fibers: dict  # k-vector tuple -> number of admissible states

    @property
    def support(self):
        return sorted(self.fibers)

    @property
    def state_count(self):
        return sum(self.fibers.values())

    def __eq__(self, other):
        return isinstance(other, TraceSupport) and self.fibers == other.fibers


def enumerate_admissible_states(
    curve: NormalCurve, cap: int = DEFAULT_STATE_CAP
) -> TraceSupport:
    """Default route: per-face corner pieces, then a walk DP per component.

    A k-vector is packed into one int, sum k_e * 2**(b*e), with fields of
    b bits where 2**b >= 2W + 1 for the largest edge weight W. Every
    partial or total |k_e| is at most W, so the packing is one-to-one and
    adding vectors adds their ints. The components' tables are multiplied
    (a one-component curve has nothing to multiply), and the product is
    decoded one edge column at a time (`_decode`), in the table's order."""
    geo = curve.geometry()
    if geo.n_points > cap:
        raise StateCapExceeded(
            f"{geo.n_points} intersection points exceed the cap {cap}"
        )
    width = curve.max_edge_weight()
    bits = _field_bits(width)
    parts = [_component_states(geo, walk, bits) for walk in geo.cycles]
    total = parts[0] if parts else {0: 1}
    for part in parts[1:]:
        merged = {}
        get = merged.get
        for k1, c1 in total.items():
            for k2, c2 in part.items():
                k = k1 + k2
                merged[k] = get(k, 0) + c1 * c2
        total = merged
    return TraceSupport(curve, _decode(total, curve.tri.n_edges, width))


def _field_bits(width):
    """Bits per edge field of a packed k-vector: the fewest b with
    2**b >= 2W + 1, so that a field shifted by W holds any of -W..W."""
    return (2 * width).bit_length()


def _decode(table, n_edges, width):
    """{k-vector tuple: count} of a {packed k-vector: count} table, in the
    table's order, one edge column at a time: with W added to every field,
    field e of a key is a shift and a mask."""
    bits = _field_bits(width)
    shift = width * sum(1 << (bits * e) for e in range(n_edges))
    keys = [key + shift for key in table]
    mask = (1 << bits) - 1
    cols = [[((x >> (bits * e)) & mask) - width for x in keys] for e in range(n_edges)]
    return dict(zip(zip(*cols), table.values()))


def _component_states(geo, walk, bits):
    """DP over one component walk: {packed k-vector: count}.

    One dict per state of the current point (+ or -). Each holds its keys
    relative to a lazy offset, so moving to the next point shifts both
    dicts for free: + adds the point's unit 2**(bits*edge), - subtracts it. The
    one allowed change of state is a single pass that folds one dict into
    the other."""
    n = len(walk)
    closed = walk[0][1] is not None
    unit = [1 << (bits * geo.point_edge[p]) for p, _, _ in walk]
    # a piece runs from slot k to slot k+1 of its face (its a-side to its
    # b-side), so the step from point t leaves through its a-side exactly
    # when the next point is entered through the following slot; the
    # forbidden pair is then (+, -) along the step, else (-, +)
    a_first = [
        walk[(t + 1) % n][1][1] == (walk[t][2][1] + 1) % 3
        for t in range(n if closed else n - 1)
    ]
    results = {}
    get = results.get
    for first in (1, 0):
        plus, minus = ({0: 1}, {}) if first else ({}, {0: 1})
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
            off_plus += unit[t]
            off_minus -= unit[t]
        ends = [(plus, off_plus), (minus, off_minus)]
        if closed:
            # the closing step back to the first point
            if a_first[-1] and not first:
                ends = [(minus, off_minus)]
            elif not a_first[-1] and first:
                ends = [(plus, off_plus)]
        for states, off in ends:
            for k, c in states.items():
                k += off
                results[k] = get(k, 0) + c
    return results


def enumerate_admissible_states_bruteforce(
    curve: NormalCurve, cap: int = DEFAULT_STATE_CAP
) -> TraceSupport:
    """Reference route: filter all 2^m full states with the bitset kernel."""
    from . import _kernels

    geo = curve.geometry()
    limit = min(cap, BRUTE_FORCE_MAX_POINTS)
    if geo.n_points > limit:
        raise StateCapExceeded(
            f"{geo.n_points} intersection points exceed the cap {limit}"
        )
    if geo.n_points == 0:
        return TraceSupport(curve, {tuple([0] * curve.tri.n_edges): 1})
    pa = [q[0] for q in geo.pieces]
    pb = [q[1] for q in geo.pieces]
    masks = _kernels.admissible_masks(geo.n_points, pa, pb)
    fibers = _kernels.support_from_masks(masks, geo.point_edge, curve.tri.n_edges)
    return TraceSupport(curve, fibers)


def support_bounds_check(support: TraceSupport, curve: NormalCurve) -> bool:
    """The three support constraints: |k(e)| <= |γ∩e|, matching parity,
    and k = 0 on the boundary arc."""
    bd = curve.tri.boundary_edges
    for kvec in support.fibers:
        for e in range(curve.tri.n_edges):
            w = curve.coords[e]
            if abs(kvec[e]) > w or (kvec[e] - w) % 2 != 0:
                return False
        for e in bd:
            if kvec[e] != 0:
                return False
    return True


# ---------------------------------------------------------------------------
# Torus curves on the built-in Delta_1


class TorusCurveTable:
    """(p, q) <-> normal coordinates on Delta_1.

    Slope functionals are fitted from an enumeration oracle over all
    connected normal curves of small weight; coordinates of a general
    coprime class are |p*h1 + q*h2| per edge, which the tests re-validate
    against the oracle.
    """

    def __init__(self, tri=None, fit_weight=8):
        self.tri = tri if tri is not None else build_sigma_g_star(1)
        self.basis = None
        self._fit(fit_weight)

    def _iter_coord_vectors(self, max_total):
        tri = self.tri
        inner = tri.inner_edges
        bd = tri.boundary_arc

        def rec(idx, left, partial):
            if idx == len(inner):
                vec = [0] * tri.n_edges
                for e, v in zip(inner, partial):
                    vec[e] = v
                vec[bd] = 0
                yield vec
                return
            for v in range(left + 1):
                yield from rec(idx + 1, left - v, partial + [v])

        yield from rec(0, max_total, [])

    def _fit(self, max_total):
        classes = {}
        for vec in self._iter_coord_vectors(max_total):
            if sum(vec) == 0:
                continue
            try:
                curve = NormalCurve(self.tri, vec)
            except ValueError:
                continue
            if not curve.is_connected():
                continue
            ivec = tuple(curve.intersection_vector())
            classes.setdefault(ivec, []).append(curve)
        span = [list(v) for v in classes if any(v)]
        basis = intlinalg.hnf(span)
        if len(basis) != 2:
            raise AssertionError("homology image of Delta_1 curves must be rank 2")
        self.basis = basis
        self._oracle_classes = classes

    def predicted_coords(self, p, q):
        h1, h2 = self.basis
        return [abs(p * a + q * b) for a, b in zip(h1, h2)]

    def curve(self, p, q) -> NormalCurve:
        if (p, q) == (0, 0):
            raise ValueError("(0, 0) is not a curve class")
        if gcd(p, q) != 1:
            raise ValueError("torus curve class must be primitive (coprime p, q)")
        c = NormalCurve(self.tri, self.predicted_coords(p, q))
        assert c.is_connected(), "predicted torus curve is not connected"
        return c

    def class_of(self, curve: NormalCurve):
        """(p, q) of a connected curve, canonical up to overall sign."""
        ivec = curve.intersection_vector()
        coords = intlinalg.lattice_coordinates(self.basis, ivec)
        if coords is None:
            raise ValueError("curve class is outside the fitted basis lattice")
        p, q = coords
        if (p, q) == (0, 0):
            return (0, 0)
        if p < 0 or (p == 0 and q < 0):
            p, q = -p, -q
        return (p, q)

    def oracle_minimal_curve(self, p, q):
        """Enumeration-backed lookup: minimal-weight connected curve whose
        intersection vector is +/- (p*h1 + q*h2)."""
        h1, h2 = self.basis
        target = tuple(p * a + q * b for a, b in zip(h1, h2))
        neg = tuple(-x for x in target)
        cands = self._oracle_classes.get(target, []) + self._oracle_classes.get(
            neg, []
        )
        if not cands:
            return None
        return min(cands, key=lambda c: c.total_weight)


_table = None
_table_lock = threading.Lock()


def torus_table() -> TorusCurveTable:
    """The shared Delta_1 table; callers on any thread must all get the same
    one, since curves from different tables live on different triangulations."""
    global _table
    if _table is None:
        with _table_lock:
            if _table is None:
                _table = TorusCurveTable()
    return _table
