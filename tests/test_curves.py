import hashlib
import importlib.util
import json
import random
import threading
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from skeinlab import cli, curves
from skeinlab.curves import (
    CLASS_BASIS,
    NormalCurve,
    StateCapExceeded,
    enumerate_admissible_states,
    enumerate_admissible_states_bruteforce,
    support_bounds_check,
    torus_table,
)
from skeinlab.intlinalg import hnf
from skeinlab.surface import Triangulation, build_sigma_g_star, is_balanced

from oracles import (
    homology_class,
    intersection_vector,
    lone_triangle,
    normal_coord_vectors,
    torus_classes,
    torus_coord_vectors,
)

FIXTURES = json.loads((Path(__file__).parent / "fixtures" / "derived.json").read_text())


def test_normal_curve_validation():
    tri = build_sigma_g_star(1)
    NormalCurve(tri, [0, 0, 1, 1, 0])
    with pytest.raises(ValueError):
        NormalCurve(tri, [1, 0, 0, 0, 0])  # odd face sum
    with pytest.raises(ValueError):
        NormalCurve(tri, [0, 0, -1, 1, 0])
    with pytest.raises(ValueError):
        NormalCurve(tri, [4, 4, 0, 0, 0])  # corner count negative on the top face


def test_bad_arc_convention():
    """Single corner arc in a lone triangle: 4 full states, 3 admissible,
    the all-plus state realizing the k_i map."""
    arc = NormalCurve(lone_triangle(), [0, 1, 1])
    sup = enumerate_admissible_states(arc)
    assert sup.state_count == 3
    assert sup.fibers == {(0, 1, 1): 1, (0, -1, 1): 1, (0, -1, -1): 1}
    # the forbidden pair is (+ on the ccw-earlier edge, - on the later one)
    assert (0, 1, -1) not in sup.fibers


def test_empty_curve_support():
    tri = build_sigma_g_star(1)
    sup = enumerate_admissible_states(NormalCurve(tri, [0] * 5))
    assert sup.fibers == {(0, 0, 0, 0, 0): 1}


def test_dp_equals_bruteforce_small():
    table = torus_table()
    tested = 0
    for vec in torus_coord_vectors(table.tri, 10):
        try:
            c = NormalCurve(table.tri, vec)
        except ValueError:
            continue
        if c.n_points > 12:
            continue
        assert enumerate_admissible_states(c).fibers == enumerate_admissible_states_bruteforce(c)
        tested += 1
    assert tested > 10


def test_dp_equals_bruteforce_genus_two():
    """Closed and open walks (points on the boundary arc), one or several
    components: every genus-2 curve with m <= 14 points."""
    tri = build_sigma_g_star(2)
    kinds = set()
    for vec in normal_coord_vectors(tri, 14):
        c = NormalCurve(tri, vec)
        walks = c.walks
        is_open = any(len(steps) < len(points) for points, steps in walks)
        kinds.add((len(walks) > 1, is_open))
        assert enumerate_admissible_states(c).fibers == enumerate_admissible_states_bruteforce(c), vec
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize(
    "pq, points, states, support_size, digest",
    [
        (
            (13, 8),
            55,
            9943530304,
            4361,
            "417b1d1f6b8bb26d6a05e51d01e6d9ffb5001f010de6a3b40d70f6f9d5dec712",
        ),
        (
            (21, 13),
            89,
            14971804538711028,
            24662,
            "7c66034b30206b8bedc5cc6d21c9ac1b50dacfb97c7cabb24ee8f12d8ab1c638",
        ),
        (
            (34, 21),
            144,
            148872592136237848015486829,
            149380,
            "b56ce6f97d5e8c6bcc000b6fb8e876afe643f88314807aa0aa73472876091266",
        ),
    ],
    ids=["13,8", "21,13", "34,21"],
)
def test_large_curve_supports_pinned(pq, points, states, support_size, digest):
    """Fibers of large torus curves, pinned to earlier walk DPs: (13,8) and
    (21,13) to the tuple-keyed one, (34,21) to the one that kept every edge
    in its keys. (34,21)'s slots are wider than 64 bits."""
    c = torus_table().curve(*pq)
    assert c.n_points == points
    sup = enumerate_admissible_states(c, cap=points)
    assert sup.state_count == states
    assert len(sup.fibers) == support_size
    blob = json.dumps(
        [{"k": list(k), "fiber": sup.fibers[k]} for k in sorted(sup.fibers)],
        sort_keys=True,
        separators=(",", ":"),
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_qtrace_support_large_curve_stdout_pinned(capsys):
    cli.main(["qtrace", "support", "--curve", "13,8", "--cap", "96"])
    out = capsys.readouterr().out.encode()
    assert len(out) == 492926
    assert (
        hashlib.sha256(out).hexdigest()
        == "af4df2842a756ff0be812e4233cd683e1cf85830b5a4686158c82201f9ba212e"
    )


def _ascending_runs(seq):
    """The number of maximal strictly ascending runs of seq."""
    return sum(a >= b for a, b in zip(seq, seq[1:])) + (len(seq) > 0)


def test_support_iterates_in_few_ascending_runs():
    """Every primitive Delta_1 class with m <= 64: the decoded support
    comes in at most w_h + 1 ascending runs, one per k_h, so sorting it is
    a merge of runs."""
    table = torus_table()
    classes = 0
    for p in range(33):
        for q in range(-64, 65):
            if gcd(p, q) != 1 or (p == 0 and q < 0) or sum(table.predicted_coords(p, q)) > 64:
                continue
            c = table.curve(p, q)
            kvecs = list(enumerate_admissible_states(c, cap=96).fibers)
            assert _ascending_runs(kvecs) <= max(c.coords) + 1, (p, q)
            classes += 1
    assert classes == 558


def _fibonacci_upto(n):
    """F(0), ..., F(n), with F(1) = F(2) = 1."""
    fib = [0, 1]
    while len(fib) <= n:
        fib.append(fib[-1] + fib[-2])
    return fib


@pytest.mark.parametrize("n_edges", [5, 11])
def test_decode_inverts_heavy_edge_layout(n_edges):
    """The heavy edge h first, in the middle and last; every other edge's
    width W = 2^k - 1 and 2^k up to 40, where its field width steps up; and
    counts up to F(m + 2), the most states of one walk of m points and so
    the most that a slot must hold."""
    rng = random.Random(n_edges)
    fib = _fibonacci_upto(11 * 45)
    for h in (0, n_edges // 2, n_edges - 1):
        for width in range(41):
            # h is the first edge of largest weight: a tie only when first
            coords = [width] * n_edges
            coords[h] = width + (h > 0) + rng.randrange(3)
            w_h, m = coords[h], sum(coords)
            layout = curves._Layout(coords, [m])
            assert layout.heavy == h
            assert layout.slot_bits == fib[m + 2].bit_length()
            bits = curves._field_bits(width)
            assert 1 << bits >= 2 * width + 1
            digits = (-width, 0, width)
            fibers = {}
            for _ in range(200):
                kvec = [rng.choice(digits) for _ in range(n_edges)]
                kvec[h] = rng.choice((-w_h, w_h, 2 * rng.randrange(w_h + 1) - w_h))
                fibers[tuple(kvec)] = rng.choice((1, 3, fib[m + 2]))
            table = {}
            for kvec, count in fibers.items():
                key = sum(k * u for k, u in zip(kvec, layout.units))
                slot = (kvec[h] + w_h) // 2
                table[key] = table.get(key, 0) + (count << (layout.slot_bits * slot))
            decoded = curves.WalkSupport(table, layout).fibers
            assert decoded == fibers
            assert _ascending_runs(list(decoded)) <= w_h + 1


def _entry_test_curves():
    """The 42 Delta_1 curves with m <= 12 that selftest compares with the
    brute force (every inner-edge vector: closed multicurves, the empty
    curve among them), the 25 Delta_1 curves with m <= 10 that hold an arc,
    and the two genus-2 curves of 8 components."""
    tri = torus_table().tri
    closed, arcs = [], []
    for vec in product(range(13), repeat=tri.n_edges):
        if sum(vec) > 12 or (vec[tri.boundary_arc] and sum(vec) > 10):
            continue
        try:
            c = NormalCurve(tri, vec)
        except ValueError:
            continue
        if not vec[tri.boundary_arc]:
            closed.append(c)
        elif any(len(steps) < len(points) for points, steps in c.walks):
            arcs.append(c)
    assert (len(closed), len(arcs)) == (42, 25)
    eight = [NormalCurve(build_sigma_g_star(2), c) for c in ({7: 8, 8: 8}, {2: 8, 3: 8})]
    return closed + arcs + eight


def test_walk_support_entries_are_the_fibers():
    """A walk-DP support's state entries are its fibers, slot by slot: each
    slot's entries share k_h and ascend, and a selector picks the same
    k-vectors out of them as a slice of all of them does."""
    rng = random.Random(40)
    kinds, widest = set(), 0
    for c in _entry_test_curves():
        sup = enumerate_admissible_states(c)
        kvecs = sup.kvectors()
        assert len(kvecs) == len(sup.counts) == len(sup.rows) == len(sup.k_heavy)
        assert dict(zip(kvecs, sup.counts)) == enumerate_admissible_states_bruteforce(c)
        assert sum(sup.counts) == sup.state_count
        h = sup.layout.heavy
        assert [k[h] for k in kvecs] == sup.k_heavy
        assert sup.k_heavy == sorted(sup.k_heavy)
        for a, b, ka, kb in zip(kvecs, kvecs[1:], sup.k_heavy, sup.k_heavy[1:]):
            assert ka < kb or a < b
        selector = [rng.random() < 0.4 for _ in kvecs]
        assert sup.kvectors(iter(selector)) == [k for k, s in zip(kvecs, selector) if s]
        assert sup.kvectors([False] * len(kvecs)) == []
        kinds.add((c.tri.genus, c.component_count(), c.coords[c.tri.boundary_arc] > 0))
        widest = max(widest, sup.layout.heavy_weight + 1)
    # the empty curve, closed curves and arcs, one component and several
    assert {(1, 0, False), (1, 1, False), (1, 3, False), (1, 1, True), (1, 3, True)} <= kinds
    assert (2, 8, False) in kinds
    # some values have more slots than one pass reads, so the read halves them
    assert widest > 8


def test_state_count_decodes_no_fibers():
    """`state_count` sums the state entries' counts and leaves the fibers
    undecoded; it is their total all the same. The brute force gives its
    fibers as a dict, the empty curve's at genus 1 and 2 too, where the
    kernel enumerates the one empty state."""
    for c in _entry_test_curves():
        sup = enumerate_admissible_states(c)
        count = sup.state_count
        assert "fibers" not in sup.__dict__, c.coords
        assert count == sum(sup.fibers.values()), c.coords
    for genus in (1, 2):
        tri = build_sigma_g_star(genus)
        empty = NormalCurve(tri, [0] * tri.n_edges)
        brute = enumerate_admissible_states_bruteforce(empty)
        assert type(brute) is dict
        assert brute == enumerate_admissible_states(empty).fibers == {(0,) * tri.n_edges: 1}


def test_slot_width_holds_on_eight_component_curves():
    """Two genus-2 curves of 8 components and 16 points, each with exactly
    the product bound F(4)^8 = 6561 states: more than F(m + 2) = F(18), so
    slots sized for one walk of all m points would carry."""
    tri = build_sigma_g_star(2)
    for coords in ({7: 8, 8: 8}, {2: 8, 3: 8}):
        c = NormalCurve(tri, coords)
        walks = c.walks
        assert c.component_count() == 8 and c.n_points == 16
        sup = enumerate_admissible_states(c)
        assert sup.fibers == enumerate_admissible_states_bruteforce(c)
        assert sup.state_count == 3**8 == 6561
        layout = curves._Layout(c.coords, [len(points) for points, _ in walks])
        assert 1 << layout.slot_bits > sup.state_count > _fibonacci_upto(18)[18]


def test_dp_slots_stay_below_their_width_on_torus_classes():
    """Every torus class with m <= 64 points. An independent transfer count
    of each prefix of its walk, from both first states, stays within
    F(t + 2) for t points and below 2**slot_bits; the slots of its DP table
    add up to the count of the closed walk, so no slot carried, and no value
    reaches past the top slot."""
    table = torus_table()
    fib = _fibonacci_upto(66)
    classes = 0
    for p in range(33):
        for q in range(-64, 65):
            if gcd(p, q) != 1 or (p == 0 and q < 0) or sum(table.predicted_coords(p, q)) > 64:
                continue
            curve = table.curve(p, q)
            [walk] = curve.walks
            points, steps = walk
            layout = curves._Layout(curve.coords, [len(points)])
            s, top = layout.slot_bits, layout.slot_bits * (layout.heavy_weight + 1)
            # (+, -) counts from a first + and from a first -
            runs = [[1, 0], [0, 1]]
            for t, (point, step) in enumerate(zip(points, steps)):
                assert sum(map(sum, runs)) <= fib[t + 3] < 1 << s
                for run in runs:
                    if curve.pieces[step][0] == point:  # forbids (+, -)
                        run[0] += run[1]
                    else:
                        run[1] += run[0]
            # the closing step returns to the first point, in its first state
            closed_count = runs[0][0] + runs[1][1]
            dp = curves._component_states(curve, walk, layout)
            assert all(v >> top == 0 for v in dp.values())
            mask = (1 << s) - 1
            slots = [(v >> j) & mask for v in dp.values() for j in range(0, top, s)]
            assert sum(slots) == closed_count
            classes += 1
    assert classes > 100


def test_state_cap():
    table = torus_table()
    c = table.curve(5, 4)
    assert c.n_points > 10
    with pytest.raises(StateCapExceeded):
        enumerate_admissible_states(c, cap=10)


def test_bruteforce_cap_above_kernel_limit():
    # a cap above the kernel's own limit must still stop at that limit;
    # the walk DP is not bound by it
    c = torus_table().curve(8, 3)
    assert c.n_points > curves.BRUTE_FORCE_MAX_POINTS
    with pytest.raises(StateCapExceeded):
        enumerate_admissible_states_bruteforce(c, cap=40)
    assert enumerate_admissible_states(c, cap=40).fibers
    # at exactly the limit the brute force still runs, and agrees
    c = torus_table().curve(1, -12)
    assert c.n_points == curves.BRUTE_FORCE_MAX_POINTS
    brute = enumerate_admissible_states_bruteforce(c, cap=curves.BRUTE_FORCE_MAX_POINTS)
    assert brute == enumerate_admissible_states(c, cap=curves.BRUTE_FORCE_MAX_POINTS).fibers
    assert sum(brute.values()) == 114628


def test_negative_cap_is_bad_input():
    # a negative cap is refused before any curve is measured against it
    c = torus_table().curve(0, 1)
    for enumerate_states in (enumerate_admissible_states, enumerate_admissible_states_bruteforce):
        with pytest.raises(ValueError, match=r"^cap must be >= 0, not -1$"):
            enumerate_states(c, cap=-1)
    assert enumerate_admissible_states(c, cap=2).state_count == 3
    assert sum(enumerate_admissible_states_bruteforce(c, cap=2).values()) == 3


def test_closed_walks_close_from_an_a_point():
    """A closed walk closes through its lowest piece, from that piece's
    a-point: the one closing rule the walk DP knows. Every genus-1 curve of
    weight <= 10 and every genus-2 curve with m <= 14 points."""
    table = torus_table()
    genus_one = []
    for vec in torus_coord_vectors(table.tri, 10):
        try:
            genus_one.append(NormalCurve(table.tri, vec))
        except ValueError:
            continue
    tri = build_sigma_g_star(2)
    genus_two = [NormalCurve(tri, vec) for vec in normal_coord_vectors(tri, 14)]
    closed = 0
    for c in genus_one + genus_two:
        for points, steps in c.walks:
            if len(steps) == len(points):
                pa, pb = c.pieces[steps[-1]][:2]
                assert (pa, pb) == (points[-1], points[0]), c
                assert steps[-1] == min(steps), c
                closed += 1
    assert closed > 1000


def test_torus_fixture_curves():
    table = torus_table()
    assert table.basis == FIXTURES["torusCurves"]["classBasis"]
    for key, frozen in FIXTURES["torusCurves"]["curves"].items():
        p, q = (int(t) for t in key.split(","))
        c = table.curve(p, q)
        assert list(c.coords) == frozen["coords"]
        sup = enumerate_admissible_states(c)
        assert sup.state_count == frozen["states"]
        got = [{"k": list(k), "fiber": sup.fibers[k]} for k in sorted(sup.fibers)]
        assert got == frozen["support"]


def test_torus_curve_validation():
    with pytest.raises(ValueError):
        torus_table().curve(2, 4)
    with pytest.raises(ValueError):
        torus_table().curve(0, 0)


def test_torus_curves_connected_and_classed():
    """Every primitive class (p, q) with |p|, |q| <= 25 gives one closed
    component, and class_of reads (p, q) back up to sign."""
    table = torus_table()
    classes = 0
    for p in range(-25, 26):
        for q in range(-25, 26):
            if gcd(p, q) != 1:
                continue
            c = table.curve(p, q)
            assert c.is_connected(), (p, q)
            assert table.class_of(c) in ((p, q), (-p, -q)), (p, q)
            classes += 1
    assert classes == 1600


def test_a_cap_refusal_walks_nothing(capsys):
    # the cap is decided from the coordinates alone: no point, piece or
    # walk of a 999998-point curve is built to refuse it
    c = torus_table().curve(200000, 199999)
    with pytest.raises(StateCapExceeded, match="^999998 intersection points exceed the cap 24$"):
        curves.check_point_cap(c, 24)
    # none of pieces, walks or point_edge is cached on the curve
    assert vars(c).keys() == {"tri", "coords", "n_points"}
    with pytest.raises(SystemExit) as exc:
        cli.main(["qtrace", "support", "--curve", "200000,199999"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: 999998 intersection points exceed the cap 24\n"


def test_class_of_is_the_homology_class_of_each_closed_curve():
    """class_of reads a class off the coordinates of its curve, and the
    oracle reads it off the intersection vector: they agree on every
    connected closed curve on Delta_1 of edge weights <= 12. Arcs and the
    boundary-parallel curve, whose class is (0, 0), are no class's curve."""
    table = torus_table()
    bd = table.tri.boundary_arc
    closed, arcs, refused = 0, 0, []
    for vec in normal_coord_vectors(table.tri, 60, max_weight=12):
        c = NormalCurve(table.tri, vec)
        if not c.is_connected():
            continue
        pq = None if vec[bd] else homology_class(c)
        if pq in (None, (0, 0)):
            with pytest.raises(ValueError, match=r"is the curve of no torus class \(p, q\)$"):
                table.class_of(c)
            refused += [] if vec[bd] else [vec]
        else:
            assert table.class_of(c) == pq, vec
        closed += not vec[bd]
        arcs += bool(vec[bd])
    assert (closed, arcs, refused) == (139, 662, [[2, 2, 2, 2, 0]])


def test_predicted_coords_match_wide_oracle():
    # every connected curve of weight <= 11, grouped by intersection vector:
    # those vectors span the constant class basis, and each class's
    # predicted coordinates are its lightest curve's
    table = torus_table()
    classes = torus_classes(table, 11)
    assert hnf([list(v) for v in classes]) == CLASS_BASIS == table.basis
    h1, h2 = CLASS_BASIS
    for pq in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (3, 1)]:
        vec = tuple(pq[0] * a + pq[1] * b for a, b in zip(h1, h2))
        curves = classes.get(vec, []) + classes.get(tuple(-x for x in vec), [])
        lightest = min(curves, key=lambda c: sum(c.coords))
        assert tuple(table.predicted_coords(*pq)) == lightest.coords


def test_triangle_inequality_sanity():
    table = torus_table()
    c10 = table.curve(1, 0)
    c01 = table.curve(0, 1)
    c11 = table.curve(1, 1)
    for e in range(table.tri.n_edges):
        assert c11.coords[e] <= c10.coords[e] + c01.coords[e]


def test_support_bounds():
    table = torus_table()
    arc = table.tri.boundary_arc
    for pq in [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2)]:
        c = table.curve(*pq)
        sup = enumerate_admissible_states(c)
        assert support_bounds_check(sup, c)
        # one hand-corrupted entry column of a real support fails each
        # constraint: |k_e| > w_e and the wrong parity on the heavy edge's
        # k_h, |k_e| > w_e on another edge's field, and k != 0 on the
        # boundary arc's field
        h = sup.layout.heavy
        e = next(e for e in range(table.tri.n_edges) if e not in (h, arc))
        w_h, w_e = c.coords[h], c.coords[e]
        for edge, k in ((h, w_h + 2), (h, w_h - 1), (e, w_e + 2), (arc, 2)):
            bad = enumerate_admissible_states(c)
            column = bad.k_heavy if edge == h else bad.fields[edge]
            column[0] = k
            assert not support_bounds_check(bad, c), (pq, edge, k)


def test_bounds_columns_are_the_kvector_values():
    """`support_bounds_check` reads each edge's values off the support's
    entry columns, not its k-vectors: on the entry-test curves (arcs,
    multicurves, the empty curve and genus 2) and the qtrace-large classes
    with m <= 48, each column holds exactly the edge's k-vector values,
    and the check's verdict is that of its rules on the k-vectors (False
    on an arc, whose boundary arc has k != 0)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    qtrace = module.QtraceLarge()
    qtrace.prepare()
    thick = [qtrace.table.curve(*pq) for m, pqs in qtrace.by_m.items() if m <= 48 for pq in pqs]
    assert len(thick) == 18
    for c in _entry_test_curves() + thick:
        sup = enumerate_admissible_states(c, cap=96)
        h = sup.layout.heavy
        for e in range(c.tri.n_edges):
            column = sup.k_heavy if e == h else sup.fields[e]
            assert set(column) == {k[e] for k in sup.fibers}, (c.coords, e)
        bd = c.tri.boundary_edges
        on_kvectors = all(
            abs(k[e]) <= w and (k[e] - w) % 2 == 0 and not (k[e] and e in bd)
            for k in sup.fibers
            for e, w in enumerate(c.coords)
        )
        assert support_bounds_check(sup, c) == on_kvectors, c.coords


def test_supports_are_balanced():
    table = torus_table()
    for pq in [(1, 0), (1, 1), (2, 1)]:
        sup = enumerate_admissible_states(table.curve(*pq))
        for k in sup.fibers:
            assert is_balanced(table.tri, k)


def test_all_plus_state_is_unique_top():
    table = torus_table()
    for pq in [(1, 0), (1, 1), (1, 2)]:
        c = table.curve(*pq)
        sup = enumerate_admissible_states(c)
        assert sup.fibers[tuple(c.coords)] == 1


def test_component_count():
    tri = build_sigma_g_star(1)
    c = torus_table().curve(0, 1)
    doubled = NormalCurve(tri, [2 * v for v in c.coords])
    assert doubled.component_count() == 2
    assert not doubled.is_connected()


@pytest.mark.parametrize(
    "genus, coords, ivec, components",
    [
        # genus-1 classes (1, 0), (1, -1), (5, 3), (8, -5)
        (1, [1, 1, 0, 1, 0], [1, -1, 0, -1, 0], 1),
        (1, [1, 1, 1, 0, 0], [-1, 1, 1, 0, 0], 1),
        (1, [5, 5, 3, 8, 0], [-5, 5, -3, 8, 0], 1),
        (1, [8, 8, 5, 3, 0], [-8, 8, 5, 3, 0], 1),
        # genus 2: one closed walk, closed walks that partly cancel, one
        # open walk, and several walks with open ones among them
        (2, [0, 2, 1, 1, 2, 2, 2, 1, 1, 2, 0], [0, 0, -1, 1, 0, -2, 2, 1, 1, 0, 0], 1),
        (2, [0, 0, 0, 0, 0, 2, 2, 5, 5, 0, 0], [0, 0, 0, 0, 0, 0, 0, -3, 3, 0, 0], 4),
        (2, [0, 0, 0, 0, 0, 2, 4, 1, 3, 2, 2], [0, 0, 0, 0, 0, -2, 2, 1, 1, 0, 0], 1),
        (2, [0, 0, 0, 0, 0, 2, 2, 0, 2, 4, 4], [0, 0, 0, 0, 0, 2, -2, 0, -2, 0, 0], 2),
    ],
)
def test_walks_give_intersection_vector_and_components(genus, coords, ivec, components):
    c = NormalCurve(build_sigma_g_star(genus), coords)
    assert intersection_vector(c) == ivec
    assert c.component_count() == components


def _walk_shape(points, pieces_out):
    """A walk's points up to rotation (closed) and reversal, with the
    (a-point, b-point) pairs of its pieces."""
    n = len(points)
    closed = len(pieces_out) == n
    orders = [points, points[::-1]]
    if closed:
        orders = [o[i:] + o[:i] for o in orders for i in range(n)]
    return min(tuple(o) for o in orders), frozenset(pieces_out)


def test_walks_equal_piece_walks_of_the_recount():
    """A curve's walks and the re-verifier's independent walks meet
    the same points in the same cyclic order, and read every piece with
    the same orientation: every closed genus-2 curve with m <= 16 points,
    the recount counting closed curves only."""
    from skeinlab.recount import _piece_walks

    tri = build_sigma_g_star(2)
    checked = 0
    for vec in normal_coord_vectors(tri, 16):
        if vec[tri.boundary_arc]:
            continue
        c = NormalCurve(tri, vec)
        ours = []
        for points, steps in c.walks:
            assert len(steps) == len(points)
            pairs = []
            for t, q in enumerate(steps):
                here, there = points[t], points[(t + 1) % len(points)]
                assert {here, there} == set(c.pieces[q][:2])
                forward = c.pieces[q][0] == here
                pairs.append((here, there) if forward else (there, here))
            ours.append(_walk_shape(points, pairs))
        theirs = []
        for points, forward in _piece_walks(c.n_points, c.pieces):
            pairs = [
                (here, there) if f else (there, here)
                for f, here, there in zip(forward, points, points[1:] + points[:1])
            ]
            theirs.append(_walk_shape(points, pairs))
        assert sorted(ours, key=repr) == sorted(theirs, key=repr), vec
        checked += 1
    assert checked > 900


def test_curve_json():
    c = torus_table().curve(0, 1)
    obj = c.to_json()
    assert obj["triangulation"] == "Delta_1"
    assert all(isinstance(k, str) for k in obj["coords"])


def test_torus_table_built_once_under_threads():
    # the table is built when curves is imported: there is no lazy path
    assert not hasattr(curves, "_table")
    start = threading.Barrier(4, timeout=30)
    tables = []

    def worker():
        start.wait()
        tables.append(torus_table())

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert len(tables) == 4
    assert all(t is curves.TORUS_TABLE for t in tables)


def test_curves_on_equal_triangulations_are_equal():
    first = build_sigma_g_star(2)
    second = Triangulation(first.faces, genus=2, name="Delta_2")
    assert first is not second
    a, b = NormalCurve(first, {2: 1, 3: 1}), NormalCurve(second, {2: 1, 3: 1})
    assert a == b and hash(a) == hash(b)
    assert a != NormalCurve(first, {7: 1, 8: 1})
