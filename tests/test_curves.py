import hashlib
import json
import random
import threading
import time
from pathlib import Path

import pytest

from skeinlab import cli, curves
from skeinlab.curves import (
    NormalCurve,
    StateCapExceeded,
    TorusCurveTable,
    enumerate_admissible_states,
    enumerate_admissible_states_bruteforce,
    support_bounds_check,
    torus_table,
)
from skeinlab.surface import BalancedLattice, build_sigma_g_star, lone_triangle

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
    for vec in table._iter_coord_vectors(10):
        try:
            c = NormalCurve(table.tri, vec)
        except ValueError:
            continue
        if c.geometry().n_points > 12:
            continue
        assert (
            enumerate_admissible_states(c).fibers
            == enumerate_admissible_states_bruteforce(c).fibers
        )
        tested += 1
    assert tested > 10


def _normal_coord_vectors(tri, max_total):
    """Every nonzero normal coordinate vector of total weight <= max_total;
    a face's parity and corner constraints prune as soon as it is filled."""
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
        for v in range(left + 1):
            part.append(v)
            if all(face_ok([part[i] for i in f]) for f in last_edge.get(e, ())):
                yield from rec(e + 1, left - v, part)
            part.pop()

    yield from rec(0, max_total, [])


def test_dp_equals_bruteforce_genus_two():
    """Closed and open walks (points on the boundary arc), one or several
    components: every genus-2 curve with m <= 14 points."""
    tri = build_sigma_g_star(2)
    kinds = set()
    for vec in _normal_coord_vectors(tri, 14):
        c = NormalCurve(tri, vec)
        walks = c.geometry().cycles
        is_open = any(s_in is None for walk in walks for _, s_in, _ in walk)
        kinds.add((len(walks) > 1, is_open))
        assert (
            enumerate_admissible_states(c).fibers
            == enumerate_admissible_states_bruteforce(c).fibers
        ), vec
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
    ],
    ids=["13,8", "21,13"],
)
def test_large_curve_supports_pinned(pq, points, states, support_size, digest):
    """Fibers of large torus curves, pinned to the tuple-keyed walk DP that
    the packed DP replaced."""
    c = torus_table().curve(*pq)
    assert c.geometry().n_points == points
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


@pytest.mark.parametrize("n_edges", [5, 11])
def test_decode_inverts_packing(n_edges):
    # every W = 2^k - 1 and 2^k up to 40, where the field width steps up
    rng = random.Random(n_edges)
    for width in range(41):
        bits = curves._field_bits(width)
        assert 1 << bits >= 2 * width + 1
        digits = (-width, 0, width)
        kvecs = [tuple(rng.choice(digits) for _ in range(n_edges)) for _ in range(200)]
        kvecs += [(d,) * n_edges for d in digits]
        kvecs += [tuple(digits[(e + i) % 3] for e in range(n_edges)) for i in range(3)]
        kvecs = list(dict.fromkeys(kvecs))
        table = {
            sum(k << (bits * e) for e, k in enumerate(kvec)): i
            for i, kvec in enumerate(kvecs)
        }
        assert len(table) == len(kvecs)
        decoded = curves._decode(table, n_edges, width)
        assert list(decoded.items()) == [(kvec, i) for i, kvec in enumerate(kvecs)]


def test_state_cap():
    table = torus_table()
    c = table.curve(5, 4)
    assert c.geometry().n_points > 10
    with pytest.raises(StateCapExceeded):
        enumerate_admissible_states(c, cap=10)


def test_bruteforce_cap_above_kernel_limit():
    # a cap above the kernel's own limit must still stop at that limit;
    # the walk DP is not bound by it
    c = torus_table().curve(8, 3)
    assert c.geometry().n_points > curves.BRUTE_FORCE_MAX_POINTS
    with pytest.raises(StateCapExceeded):
        enumerate_admissible_states_bruteforce(c, cap=40)
    assert enumerate_admissible_states(c, cap=40).fibers
    # at exactly the limit the brute force still runs, and agrees
    c = torus_table().curve(1, -12)
    assert c.geometry().n_points == curves.BRUTE_FORCE_MAX_POINTS
    brute = enumerate_admissible_states_bruteforce(c, cap=curves.BRUTE_FORCE_MAX_POINTS)
    assert brute == enumerate_admissible_states(c, cap=curves.BRUTE_FORCE_MAX_POINTS)
    assert brute.state_count == 114628


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
    table = torus_table()
    for pq in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 2), (5, 1)]:
        c = table.curve(*pq)
        assert c.is_connected()
        assert table.class_of(c) == pq


def test_predicted_coords_match_wide_oracle():
    wide = TorusCurveTable(fit_weight=11)
    for pq in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (3, 1)]:
        oracle = wide.oracle_minimal_curve(*pq)
        assert oracle is not None
        assert tuple(wide.predicted_coords(*pq)) == oracle.coords


def test_triangle_inequality_sanity():
    table = torus_table()
    c10 = table.curve(1, 0)
    c01 = table.curve(0, 1)
    c11 = table.curve(1, 1)
    for e in range(table.tri.n_edges):
        assert c11.coords[e] <= c10.coords[e] + c01.coords[e]


def test_support_bounds():
    table = torus_table()
    for pq in [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2)]:
        c = table.curve(*pq)
        sup = enumerate_admissible_states(c)
        assert support_bounds_check(sup, c)
        # a hand-corrupted support fails the boundary-arc constraint
        bad = dict(sup.fibers)
        corrupt = [0] * table.tri.n_edges
        corrupt[table.tri.boundary_arc] = 2
        bad[tuple(corrupt)] = 1
        sup.fibers = bad
        assert not support_bounds_check(sup, c)


def test_supports_are_balanced():
    table = torus_table()
    B = BalancedLattice(table.tri)
    for pq in [(1, 0), (1, 1), (2, 1)]:
        sup = enumerate_admissible_states(table.curve(*pq))
        for k in sup.fibers:
            assert B.contains(list(k))


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


def test_curve_json():
    c = torus_table().curve(0, 1)
    obj = c.to_json()
    assert obj["triangulation"] == "Delta_1"
    assert all(isinstance(k, str) for k in obj["coords"])


def test_torus_table_built_once_under_threads(monkeypatch):
    monkeypatch.setattr(curves, "_table", None)
    original_init = TorusCurveTable.__init__

    def slow_init(self, *args, **kwargs):
        time.sleep(0.05)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(TorusCurveTable, "__init__", slow_init)
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
    assert all(t is tables[0] for t in tables)
