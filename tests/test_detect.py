import json
import random
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest

from skeinlab import detect
from skeinlab.curves import (
    NormalCurve,
    TraceSupport,
    enumerate_admissible_states,
    enumerate_admissible_states_bruteforce,
    torus_table,
)
from skeinlab.cyclotomic import Cyclotomic
from skeinlab.detect import (
    DetectionRequest,
    _CosetProjector,
    _find_witness,
    _project_fibers,
    _ResidueRecount,
    detect_support,
    detect_theorem2,
    reduced_character_space,
)
from skeinlab.intlinalg import solve_integer, transpose
from skeinlab.mcg import MappingClass, act_on_curve
from skeinlab.repvar import SL2Mat, SL2Rep
from skeinlab.surface import build_sigma_g_star

FIXTURES = json.loads((Path(__file__).parent / "fixtures" / "derived.json").read_text())

TWIST = [[1, 1], [0, 1]]
IDENTITY = [[1, 0], [0, 1]]


def _req(**kw):
    defaults = dict(genus=1, N=5, curve=(0, 1), phi=MappingClass(1, matrix=TWIST))
    defaults.update(kw)
    return DetectionRequest(**defaults)


def test_twist_certified():
    cert = detect_theorem2(_req())
    assert cert.verdict == "certified-nontrivial"
    assert cert.witness["fiberAlpha"] == 0 and cert.witness["fiberBeta"] == 1 or (
        cert.witness["fiberAlpha"] == 1 and cert.witness["fiberBeta"] == 0
    )
    assert "delta-liftable" in cert.assumptions
    assert cert.to_json() == FIXTURES["detectCertificate"]


def test_identity_inconclusive():
    cert = detect_theorem2(_req(phi=MappingClass(1, matrix=IDENTITY)))
    assert cert.verdict == "inconclusive"
    assert cert.reasons == ["isotopic-curves"]


def test_bound_exceeded_falls_through_to_support():
    # N=3, beta = (4,1): some edge intersected more than N-1 times
    cert = detect_theorem2(_req(N=3, phi=MappingClass(1, matrix=[[1, 4], [0, 1]])))
    beta_max = max(cert.beta_coords)
    assert beta_max > 2
    assert cert.method == "theorem2->support"
    # the support route may still certify; if not, the reason must say why
    if cert.verdict == "inconclusive":
        assert "bound-exceeded" in cert.reasons


def test_support_direct():
    cert = detect_support(_req())
    assert cert.verdict == "certified-nontrivial"
    assert cert.method == "support"


def test_big_cell_route():
    cert = detect_support(_req(cell="big"))
    assert cert.verdict == "certified-nontrivial"
    assert cert.cell == "big"


def test_theorem2_implies_support_on_fixtures():
    for pq, mat in [((0, 1), TWIST), ((1, 0), [[1, 0], [1, 1]]), ((1, 1), [[2, 1], [1, 1]])]:
        t2 = detect_theorem2(_req(curve=pq, phi=MappingClass(1, matrix=mat)))
        sup = detect_support(_req(curve=pq, phi=MappingClass(1, matrix=mat)))
        if t2.verdict == "certified-nontrivial" and t2.method == "theorem2":
            assert sup.verdict == "certified-nontrivial"


def test_monotonicity_in_N():
    for N1, N2 in [(5, 7)]:
        c1 = detect_theorem2(_req(N=N1))
        c2 = detect_theorem2(_req(N=N2))
        if c1.verdict == "certified-nontrivial":
            assert c2.verdict == "certified-nontrivial"


def test_determinism():
    cert1 = json.dumps(detect_theorem2(_req()).to_json(), sort_keys=True)
    cert2 = json.dumps(detect_theorem2(_req()).to_json(), sort_keys=True)
    assert cert1 == cert2


def test_cap_exceeded_reason():
    cert = detect_support(_req(state_cap=3))
    assert cert.verdict == "inconclusive"
    assert "cap-exceeded" in cert.reasons


def test_explicit_beta_supplied():
    table = torus_table()
    alpha = table.curve(0, 1)
    beta = table.curve(1, 1)
    req = DetectionRequest(genus=1, N=5, curve=alpha, beta=beta)
    cert = detect_support(req)
    assert cert.verdict == "certified-nontrivial"


def test_word_phi_requires_beta():
    from skeinlab.mcg import TWIST_ALPHA

    req = DetectionRequest(
        genus=1, N=5, curve=(0, 1), phi=MappingClass(1, words=TWIST_ALPHA)
    )
    with pytest.raises(ValueError):
        detect_support(req)


def test_request_validation():
    with pytest.raises(ValueError):
        DetectionRequest(N=4)
    with pytest.raises(ValueError):
        DetectionRequest(cell="middle")


def test_ambiguous_fibers_path():
    # N far below the intersection numbers: supports collide mod K^0 and
    # no empty/singleton coset pair survives
    table = torus_table()
    req = DetectionRequest(
        genus=1, N=3, curve=table.curve(0, 1), beta=table.curve(5, 1)
    )
    cert = detect_support(req)
    assert cert.verdict == "inconclusive"
    assert cert.reasons == ["fibers-ambiguous"]


def _find_witness_by_sorted_scan(fib_a, fib_b):
    """The first qualifying coset of every coset in sorted order."""
    for coset in sorted(set(fib_a) | set(fib_b)):
        sa = fib_a.get(coset, {"states": 0})["states"]
        sb = fib_b.get(coset, {"states": 0})["states"]
        if sa == 0 and sb == 1:
            return coset, False
        if sb == 0 and sa == 1:
            return coset, True
    return None, None


def test_find_witness_matches_sorted_scan():
    rng = random.Random(12)
    cosets = list(product(range(3), range(-1, 2), range(2)))
    outcomes = {"alpha": 0, "beta": 0, "both": 0, "none": 0}
    for _ in range(3000):
        fib_a, fib_b = (
            {
                coset: {"states": rng.choice((0, 1, 1, 2, 3)), "kvecs": []}
                for coset in rng.sample(cosets, rng.randrange(len(cosets) // 2))
            }
            for _ in range(2)
        )
        expected = _find_witness_by_sorted_scan(fib_a, fib_b)
        assert _find_witness(fib_a, fib_b) == expected
        sides = {
            swapped
            for coset in cosets
            for swapped, (one, other) in ((True, (fib_a, fib_b)), (False, (fib_b, fib_a)))
            if one.get(coset, {"states": 0})["states"] == 1
            and other.get(coset, {"states": 0})["states"] == 0
        }
        outcomes[{0: "none", 2: "both"}.get(len(sides), "alpha" if True in sides else "beta")] += 1
    # witnesses on one side each, on both sides at once, and none at all
    assert min(outcomes.values()) > 50, outcomes


def test_disconnected_alpha_rejected():
    table = torus_table()
    doubled = NormalCurve(table.tri, [2 * v for v in table.curve(0, 1).coords])
    req = DetectionRequest(genus=1, N=3, curve=doubled, beta=table.curve(1, 0))
    with pytest.raises(ValueError):
        detect_support(req)


def test_genus_two_explicit_coordinates():
    # curves supported on the two handles of Delta_2, supplied explicitly
    from skeinlab.surface import build_sigma_g_star

    t2 = build_sigma_g_star(2)
    alpha = NormalCurve(t2, {2: 1, 3: 1})
    beta = NormalCurve(t2, {7: 1, 8: 1})
    assert alpha.is_connected() and beta.is_connected()
    cert = detect_theorem2(DetectionRequest(genus=2, N=5, curve=alpha, beta=beta))
    assert cert.verdict == "certified-nontrivial"
    assert cert.method == "theorem2"
    cert = detect_support(
        DetectionRequest(genus=2, N=3, cell="big", curve=alpha, beta=beta)
    )
    assert cert.verdict == "certified-nontrivial"


def _genus_one_curves(max_points):
    """Closed, open (points on the boundary arc) and multi-component curves
    of small weight, then the torus classes, up to max_points points."""
    table = torus_table()
    curves = []
    for vec in product(range(5), repeat=table.tri.n_edges):
        try:
            curves.append(NormalCurve(table.tri, vec))
        except ValueError:
            pass
    curves += [
        table.curve(p, q) for p in range(-6, 7) for q in range(7) if gcd(p, q) == 1
    ]
    return [c for c in curves if 0 < c.geometry().n_points <= max_points]


def _assert_recount_matches_bruteforce(curve, projector):
    """The targeted count at every coset's residue equals the brute-force
    state count of the coset, distinct cosets have distinct residues, and
    the count is 0 at the first few cosets next to them that no state
    reaches; the number of those cosets."""
    recount = _ResidueRecount(projector)
    by_coset = {}
    fibers = enumerate_admissible_states_bruteforce(curve).fibers
    for kvec, n in fibers.items():
        coset = projector.project(kvec)
        by_coset[coset] = by_coset.get(coset, 0) + n
    targets = {coset: recount.target(coset) for coset in by_coset}
    assert len(set(targets.values())) == len(by_coset)
    for coset, n in by_coset.items():
        assert recount.count(curve, targets[coset]) == n, (curve, coset)
    # k +- 2 e_i is balanced, so it names a coset of the same lattice
    n_edges = curve.tri.n_edges
    near = [
        tuple(x + step * (i == j) for j, x in enumerate(kvec))
        for kvec in fibers
        for i in range(n_edges)
        for step in (2, -2)
    ]
    unreached = sorted(set(projector.project_all(near)) - set(by_coset))[:4]
    for coset in unreached:
        target = recount.target(coset)
        assert target not in targets.values()
        assert recount.count(curve, target) == 0, (curve, coset)
    assert recount.count(curve, None) == 0
    if projector.cell == "big":
        # any representative of a coset names it; one with khat off the
        # lattice names no curve state
        khat = projector.kernel[-1]
        for coset, target in targets.items():
            assert recount.target([a + b for a, b in zip(coset, khat)]) == target
            assert recount.target([*coset[:-1], coset[-1] + 1]) is None
    return len(unreached)


@pytest.mark.parametrize("cell", ["reduced", "big"])
@pytest.mark.parametrize("N", [3, 11])
def test_residue_recount_matches_bruteforce(N, cell):
    projector = _CosetProjector(torus_table().tri, N, cell)
    curves = _genus_one_curves(16)
    unreached = [_assert_recount_matches_bruteforce(curve, projector) for curve in curves]
    assert len(curves) > 100
    assert sum(unreached) > 2 * len(curves)


@pytest.mark.parametrize("cell", ["reduced", "big"])
def test_residue_recount_matches_bruteforce_genus_two(cell):
    tri = build_sigma_g_star(2)
    curve = NormalCurve(tri, [0, 2, 1, 1, 2, 0, 2, 1, 1, 2, 0])
    assert curve.is_connected() and curve.geometry().n_points == 12
    assert _assert_recount_matches_bruteforce(curve, _CosetProjector(tri, 3, cell)) > 0


def _project_one_at_a_time(kvecs, projector, coords_of):
    """The canonical coset of each k-vector, one vector at a time: K-coordinates
    from the general SNF solver, then a row-by-row floor reduction."""
    out = []
    for kvec in kvecs:
        if kvec not in coords_of:
            coords_of[kvec] = solve_integer(transpose(projector.lattice.basis), list(kvec))
        v = coords_of[kvec] + ([0] if projector.cell == "big" else [])
        for row in projector.kernel:
            piv = next(i for i, x in enumerate(row) if x)
            q = v[piv] // row[piv]
            v = [a - q * b for a, b in zip(v, row)]
        out.append(tuple(v))
    return out


def _grouped_one_at_a_time(support, projector, coords_of):
    out = {}
    kvecs = list(support.fibers)
    for kvec, key in zip(kvecs, _project_one_at_a_time(kvecs, projector, coords_of)):
        entry = out.setdefault(key, {"states": 0, "kvecs": []})
        entry["states"] += support.fibers[kvec]
        entry["kvecs"].append(kvec)
    return out


@pytest.mark.parametrize("cell", ["reduced", "big"])
def test_batched_projection_matches_one_vector_at_a_time(cell):
    table = torus_table()
    supports = [enumerate_admissible_states(c) for c in _genus_one_curves(16)]
    assert len(supports) > 100
    coords_of = {}
    for N in (3, 5, 11):
        projector = _CosetProjector(table.tri, N, cell)
        for sup in supports:
            assert _project_fibers(sup, projector) == _grouped_one_at_a_time(
                sup, projector, coords_of
            )
    t2 = build_sigma_g_star(2)
    for coords in ({2: 1, 3: 1}, {7: 1, 8: 1}, [0, 2, 1, 1, 2, 0, 2, 1, 1, 2, 0]):
        sup = enumerate_admissible_states(NormalCurve(t2, coords))
        for N in (3, 5):
            projector = _CosetProjector(t2, N, cell)
            assert _project_fibers(sup, projector) == _grouped_one_at_a_time(sup, projector, {})


def test_projection_rejects_unbalanced_vectors():
    projector = _CosetProjector(torus_table().tri, 5, "reduced")
    with pytest.raises(ValueError, match="not balanced"):
        projector.project_all([(0, 0, 0, 0, 0), (1, 0, 0, 0, 0)])


def _fibers_with_pieces(curve, pieces):
    """{k-vector: count} over the full states that no (a, b) in `pieces`
    forbids with a: +, b: -."""
    geo = curve.geometry()
    out = {}
    for states in product((1, -1), repeat=geo.n_points):
        if any(states[a] == 1 and states[b] == -1 for a, b in pieces):
            continue
        kvec = [0] * curve.tri.n_edges
        for p, s in enumerate(states):
            kvec[geo.point_edge[p]] += s
        out[tuple(kvec)] = out.get(tuple(kvec), 0) + 1
    return out


def _false_witness_supports(alpha, beta, projector):
    """(kind, curve, fibers): one curve's support with one walk constraint
    flipped ("flip") or one fiber count moved by one ("bump"), on which the
    support criterion finds a witness whose true fibers differ from the
    claimed ones."""
    true = {c: enumerate_admissible_states(c).fibers for c in (alpha, beta)}

    def projected(fibers_of):
        return [_project_fibers(TraceSupport(c, fibers_of[c]), projector) for c in (alpha, beta)]

    def states(fib, coset):
        return [side.get(coset, {"states": 0})["states"] for side in fib]

    true_fib = projected(true)
    for curve in (alpha, beta):
        pieces = [q[:2] for q in curve.geometry().pieces]
        candidates = []
        for i in range(len(pieces)):
            flipped = list(pieces)
            flipped[i] = pieces[i][::-1]
            candidates.append(("flip", _fibers_with_pieces(curve, flipped)))
        for kvec in sorted(true[curve]):
            for step in (1, -1):
                bumped = dict(true[curve])
                bumped[kvec] += step
                candidates.append(("bump", {k: n for k, n in bumped.items() if n}))
        for kind, fibers in candidates:
            fib = projected({**true, curve: fibers})
            coset, _ = _find_witness(*fib)
            if coset is not None and states(fib, coset) != states(true_fib, coset):
                yield kind, curve, fibers


@pytest.mark.parametrize("cell", ["reduced", "big"])
def test_corrupted_support_fails_reverification(cell, monkeypatch):
    table = torus_table()
    alpha = table.curve(1, 1)
    beta = act_on_curve(MappingClass(1, matrix=TWIST), alpha)
    req = DetectionRequest(genus=1, N=5, cell=cell, curve=alpha, beta=beta)
    assert detect_support(req).verdict == "certified-nontrivial"
    corrupted = list(_false_witness_supports(alpha, beta, _CosetProjector(table.tri, 5, cell)))
    assert "flip" in {kind for kind, _, _ in corrupted}
    for _, bad_curve, fibers in corrupted:

        def enumerate_corrupted(curve, cap, bad_curve=bad_curve, fibers=fibers):
            if curve == bad_curve:
                return TraceSupport(curve, fibers)
            return enumerate_admissible_states(curve, cap=cap)

        monkeypatch.setattr(detect, "enumerate_admissible_states", enumerate_corrupted)
        with pytest.raises(AssertionError, match="re-verification failed"):
            detect_support(req)


def _false_witness_projections(alpha, beta, projector):
    """(kind, moved): projections that send every k-vector of one coset to
    another coset ("merge"), or one k-vector of a coset of several to
    another coset ("drop"), as {k-vector: wrong coset}, on which the
    support criterion finds a witness whose true fibers differ from the
    claimed ones."""
    supports = [enumerate_admissible_states(c) for c in (alpha, beta)]
    true_fib = [_project_fibers(sup, projector) for sup in supports]
    kvecs = sorted(set().union(*(sup.fibers for sup in supports)))
    coset_of = dict(zip(kvecs, projector.project_all(kvecs)))
    # the cosets hit, and their neighbours k + 2 e_i (2 e_i is balanced)
    n = len(kvecs[0])
    shifted = [tuple(x + 2 * (i == j) for j, x in enumerate(k)) for k in kvecs for i in range(n)]
    cosets = sorted(set(coset_of.values()) | set(projector.project_all(shifted)))

    def states(fib, coset):
        return [side.get(coset, {"states": 0})["states"] for side in fib]

    for source in sorted(set(coset_of.values())):
        members = [k for k in kvecs if coset_of[k] == source]
        for target in cosets:
            if target == source:
                continue
            candidates = [("merge", dict.fromkeys(members, target))]
            if len(members) > 1:
                candidates += [("drop", {k: target}) for k in members]
            for kind, moved in candidates:
                corrupted = SimpleNamespace(
                    project_all=lambda vs, moved=moved: [moved.get(v, coset_of[v]) for v in vs]
                )
                fib = [_project_fibers(sup, corrupted) for sup in supports]
                coset, _ = _find_witness(*fib)
                if coset is not None and states(fib, coset) != states(true_fib, coset):
                    yield kind, moved


@pytest.mark.parametrize("cell", ["reduced", "big"])
def test_corrupted_projection_fails_reverification(cell, monkeypatch):
    # the recount shares no code with the projection, so it also catches a
    # projection that puts k-vectors in the wrong coset; at N = 3 some
    # cosets hold several k-vectors
    table = torus_table()
    alpha = table.curve(2, 1)
    beta = act_on_curve(MappingClass(1, matrix=TWIST), alpha)
    req = DetectionRequest(genus=1, N=3, cell=cell, curve=alpha, beta=beta)
    assert detect_support(req).verdict == "certified-nontrivial"
    project_all = _CosetProjector.project_all
    corrupted = list(_false_witness_projections(alpha, beta, _CosetProjector(table.tri, 3, cell)))
    assert {kind for kind, _ in corrupted} == {"merge", "drop"}
    for _, moved in corrupted:

        def project_corrupted(self, kvecs, moved=moved):
            return [moved.get(v, c) for v, c in zip(kvecs, project_all(self, kvecs))]

        monkeypatch.setattr(_CosetProjector, "project_all", project_corrupted)
        with pytest.raises(AssertionError, match="re-verification failed"):
            detect_support(req)


def test_detection_context_is_built_once(monkeypatch):
    tri = torus_table().tri
    context = detect._detection_context(tri, 5, "reduced")
    assert detect._detection_context(tri, 5, "reduced") is context
    assert detect._detection_context(tri, 5, "big") is not context
    assert detect._detection_context(tri, 7, "reduced") is not context
    # two builds of one surface are two keys, however equal they look
    first, second = build_sigma_g_star(2), build_sigma_g_star(2)
    assert first is not second
    built = []

    class CountingProjector(_CosetProjector):
        def __init__(self, tri, N, cell):
            built.append(tri)
            super().__init__(tri, N, cell)

    monkeypatch.setattr(detect, "_CosetProjector", CountingProjector)
    contexts = []
    for t2 in (first, second, first):
        req = DetectionRequest(
            genus=2, N=3, cell="big",
            curve=NormalCurve(t2, {2: 1, 3: 1}), beta=NormalCurve(t2, {7: 1, 8: 1}),
        )
        assert detect_support(req).verdict == "certified-nontrivial"
        contexts.append(detect._detection_context(t2, 3, "big"))
    assert built == [first, second]
    assert contexts[0] is contexts[2] is not contexts[1]
    assert contexts[0][0].lattice.tri is first and contexts[1][0].lattice.tri is second


def test_corrupted_projection_fails_reverification_with_a_warm_context(monkeypatch):
    # a clean certification builds and caches the context first; the
    # projection bug must still be caught through the cached projector
    table = torus_table()
    alpha = table.curve(2, 1)
    beta = act_on_curve(MappingClass(1, matrix=TWIST), alpha)
    req = DetectionRequest(genus=1, N=3, cell="reduced", curve=alpha, beta=beta)
    assert detect_support(req).verdict == "certified-nontrivial"
    projector, _ = detect._detection_context(table.tri, 3, "reduced")
    _, moved = next(_false_witness_projections(alpha, beta, projector))
    project_all = _CosetProjector.project_all

    def project_corrupted(self, kvecs):
        return [moved.get(v, c) for v, c in zip(kvecs, project_all(self, kvecs))]

    monkeypatch.setattr(_CosetProjector, "project_all", project_corrupted)
    assert detect._detection_context(table.tri, 3, "reduced")[0] is projector
    with pytest.raises(AssertionError, match="re-verification failed"):
        detect_support(req)


def test_reduced_character_space():
    i4 = Cyclotomic.zeta(4)
    A = SL2Mat(i4, 0, 0, i4**3)
    B = SL2Mat(1, Fraction(1, 2), -1, Fraction(1, 2))
    rep = SL2Rep(1, (A, B))
    for N in (3, 5):
        out = reduced_character_space(rep, N)
        assert out["liftCount"] == N
        assert len(out["lifts"]) == N
        # z^N = c for every lift
        c = Cyclotomic.from_json(out["boundaryLowerLeft"])
        for lift in out["lifts"]:
            z = Cyclotomic.from_json(lift)
            assert z**N == c.embed(z.order)
    triv = SL2Rep(1, (SL2Mat.identity(), SL2Mat.identity()))
    with pytest.raises(ValueError):
        reduced_character_space(triv, 3)
