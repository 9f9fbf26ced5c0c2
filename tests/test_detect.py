import ast
import hashlib
import json
import random
import re
import signal
from collections import Counter
from functools import lru_cache
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from skeinlab import detect, intlinalg, recount
from skeinlab.curves import (
    NormalCurve,
    WalkSupport,
    class_curve,
    enumerate_admissible_states,
    enumerate_admissible_states_bruteforce,
    torus_table,
)
from skeinlab.detect import (
    DetectionRequest,
    detect_support,
    detect_theorem2,
)
from skeinlab.intlinalg import (
    hnf,
    identity,
    lattice_coordinates,
    lattice_cosets_many,
    mat_mul,
    solve_integer,
    transpose,
)
from skeinlab.mcg import MappingClass, act_on_curve
from skeinlab.surface import BalancedLattice, Triangulation, build_sigma_g_star

from oracles import (
    coset_states,
    homology_class,
    normal_coord_vectors,
    smith_residues,
    table_support,
)

FIXTURES = json.loads((Path(__file__).parent / "fixtures" / "derived.json").read_text())

TWIST = [[1, 1], [0, 1]]
IDENTITY = [[1, 0], [0, 1]]


def _projection(tri, N, cell):
    """What the reference `coset_states` takes after the fibers: the basis
    of K and the mod-N kernel of the detection context of (tri, N, cell),
    and the cell."""
    basis, kernel, _ = detect._detection_context(tri, N, cell)
    return basis, kernel, cell


def _project(kvecs, basis, kernel, cell):
    """The canonical coset of each k-vector, by the routine that detect
    calls on its witness candidates."""
    return lattice_cosets_many(basis, kernel, kvecs, 1 if cell == "big" else 0)


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


@pytest.mark.parametrize("small_alpha", [True, False])
def test_cap_is_checked_on_both_curves_before_any_dp(monkeypatch, small_alpha):
    # one curve under the cap and one over it: no support is enumerated,
    # and the verdict is still cap-exceeded
    calls = []

    def counting(curve, cap):
        calls.append(curve)
        return enumerate_admissible_states(curve, cap)

    monkeypatch.setattr(detect, "enumerate_admissible_states", counting)
    small, large = torus_table().curve(0, 1), torus_table().curve(5, 4)
    assert small.n_points <= 10 < large.n_points
    alpha, beta = (small, large) if small_alpha else (large, small)
    cert = detect_support(DetectionRequest(curve=alpha, beta=beta, state_cap=10))
    assert (cert.verdict, cert.reasons, calls) == ("inconclusive", ["cap-exceeded"], [])


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


def test_curve_action_and_class_shorthand_rules():
    # one refusal of a word class without beta, true at every genus, and one
    # genus-1 rule for (p, q) shorthand, shared with the CLI
    table = torus_table()
    words = {"a1": "a1", "b1": "b1a1"}
    genus_two_curve = NormalCurve(build_sigma_g_star(2), {2: 1, 3: 1})
    for genus, curve in ((1, (0, 1)), (2, genus_two_curve)):
        req = DetectionRequest(genus=genus, N=5, curve=curve, phi=MappingClass(genus, words=words))
        with pytest.raises(ValueError, match="no curve action: supply the image curve as beta"):
            detect_theorem2(req)
    assert class_curve(1, 2, 1) == table.curve(2, 1)
    with pytest.raises(ValueError, match="genus-1 only"):
        class_curve(2, 2, 1)
    with pytest.raises(ValueError, match="genus-1 only"):
        detect_theorem2(DetectionRequest(genus=2, N=5, curve=(2, 1), beta=genus_two_curve))


def test_explicit_beta_must_be_the_image_of_a_matrix_class():
    # beta names the image: under the identity, and under a twist that
    # fixes (1, 0), the beta (0, 1) is refused rather than certified
    t = torus_table()
    for matrix in (IDENTITY, TWIST):
        req = DetectionRequest(
            N=5, curve=t.curve(1, 0), phi=MappingClass(1, matrix=matrix), beta=t.curve(0, 1)
        )
        for run in (detect_theorem2, detect_support):
            with pytest.raises(ValueError, match=r"^beta \[0, 0, 1, 1, 0\] is not the image"):
                run(req)
    # the image itself gives the certificate that phi alone gives
    twist = MappingClass(1, matrix=TWIST)
    with_beta = DetectionRequest(N=5, curve=(0, 1), phi=twist, beta=t.curve(1, 1))
    alone = DetectionRequest(N=5, curve=(0, 1), phi=twist)
    assert detect_theorem2(with_beta).to_json() == detect_theorem2(alone).to_json()


def test_a_word_class_beta_is_an_assumption():
    t = torus_table()
    words = MappingClass(1, words={"a1": "a", "b1": "ba"})
    for phi, assumptions in (
        (words, ["delta-liftable", "beta-is-image"]),
        (MappingClass(1, matrix=TWIST), ["delta-liftable"]),
        (None, ["delta-liftable"]),
    ):
        req = DetectionRequest(N=5, curve=(0, 1), phi=phi, beta=t.curve(1, 1))
        for run in (detect_theorem2, detect_support):
            assert run(req).to_json()["assumptions"] == assumptions


def test_request_validation():
    with pytest.raises(ValueError):
        DetectionRequest(N=4)
    with pytest.raises(ValueError):
        DetectionRequest(cell="middle")


def test_request_genus_is_checked_against_its_curves_and_class():
    # the genus must be a genus, and the one that the curves and the
    # mapping class carry: none of these may certify
    t = torus_table()
    alpha, beta = t.curve(1, 0), t.curve(0, 1)
    for genus, message in (
        (0, "genus must be >= 1"),
        (True, "genus must be an integer, not True"),
        (7, "curve has genus 1, but the request has genus 7"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            detect_theorem2(DetectionRequest(genus=genus, N=3, curve=alpha, beta=beta))
    genus_two_curve = NormalCurve(build_sigma_g_star(2), {2: 1, 3: 1})
    with pytest.raises(ValueError, match="^beta has genus 2, but the request has genus 1$"):
        DetectionRequest(genus=1, N=3, curve=alpha, beta=genus_two_curve)
    words = MappingClass(2, words={"a1": "a1", "b1": "b1a1"})
    with pytest.raises(ValueError, match="^phi has genus 2, but the request has genus 1$"):
        DetectionRequest(genus=1, N=3, curve=alpha, beta=beta, phi=words)
    # (p, q) shorthand takes the request's genus
    assert detect_theorem2(DetectionRequest(genus=1, N=3, curve=(1, 0), beta=beta)).witness


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
    """The least coset, in a scan of every coset in sorted order, with zero
    states on one side and exactly one on the other, and whether alpha's is
    the one; (None, None) when no coset qualifies. Detection's witness is
    the least candidate coset, so this is the coset it picks."""
    for coset in sorted(set(fib_a) | set(fib_b)):
        sa = fib_a.get(coset, 0)
        sb = fib_b.get(coset, 0)
        if sa == 0 and sb == 1:
            return coset, False
        if sb == 0 and sa == 1:
            return coset, True
    return None, None


SWEEP_MATRICES = ([[1, 1], [0, 1]], [[1, 0], [-1, 1]], [[2, 1], [1, 1]], [[0, -1], [1, 0]])
SWEEP_DIGEST = "117564450e092b15569affbc71a6c1ede51a25a2cbc257c4a05a5dd9168ee0e2"


@lru_cache(maxsize=1)
def _sweep_certificates():
    """(class, matrix, N, cell, cap, certificate JSON) over the primitive
    classes with |p|, |q| <= 4 under a few SL2(Z) matrices, both cells, both
    methods, N in {3, 5, 7, 11} and caps 24 and 40."""
    classes = [
        (p, q) for q in range(5) for p in range(-4, 5) if gcd(p, q) == 1 and (q > 0 or p == 1)
    ]
    out = []
    for pq, mat, cell, N, cap in product(
        classes, SWEEP_MATRICES, ("reduced", "big"), (3, 5, 7, 11), (24, 40)
    ):
        for run in (detect_support, detect_theorem2):
            req = DetectionRequest(
                N=N, cell=cell, curve=pq, phi=MappingClass(1, matrix=mat), state_cap=cap
            )
            out.append((pq, mat, N, cell, cap, run(req).to_json()))
    return out


def test_sweep_certificates_pinned():
    # certificate bytes over a sweep wider than the golden batch, pinned so
    # that any change to them shows
    certs = [cert for *_, cert in _sweep_certificates()]
    assert len(certs) == 3072
    verdicts = Counter(cert["verdict"] for cert in certs)
    assert verdicts["certified-nontrivial"] > 2000 and verdicts["inconclusive"] > 200
    blob = json.dumps(certs, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == SWEEP_DIGEST


def test_sweep_witness_kvec_is_the_singleton_state():
    # a witness coset holds one state of one curve, hence one k-vector: a
    # k-vector of that curve's support that projects to the coset
    table = torus_table()
    checked = 0
    for pq, mat, N, cell, cap, cert in _sweep_certificates():
        witness = cert["witness"]
        if witness is None:
            continue
        alpha = table.curve(*pq)
        beta = act_on_curve(MappingClass(1, matrix=mat), alpha)
        assert len(witness["kvec"]) == 1
        assert sorted((witness["fiberAlpha"], witness["fiberBeta"])) == [0, 1]
        curve = alpha if witness["fiberAlpha"] == 1 else beta
        assert witness["swapped"] == (curve is alpha)
        kvec = tuple(witness["kvec"][0])
        assert kvec in enumerate_admissible_states(curve, cap=cap).fibers
        assert _project([kvec], *_projection(table.tri, N, cell)) == [tuple(witness["coset"])]
        checked += 1
    assert checked > 2000


# (class, N, cell) -> witness of the certificate of the class under T, whose
# curves have up to 128 points and edge weights up to 47
LARGE_WITNESSES = {
    ((13, 8), 31, "reduced"): {
        "coset": [0, 0, 1, 14, 14], "fiberAlpha": 0, "fiberBeta": 1,
        "kvec": [[3, 3, 4, 1, 0]], "swapped": False,
    },
    ((13, 8), 31, "big"): {
        "coset": [1, 5, 8, 0, 0, 0], "fiberAlpha": 0, "fiberBeta": 1,
        "kvec": [[1, 11, 8, 9, 0]], "swapped": False,
    },
    ((21, 13), 49, "reduced"): {
        "coset": [0, 0, 0, 24, 23], "fiberAlpha": 1, "fiberBeta": 0,
        "kvec": [[3, 3, 3, 2, 0]], "swapped": True,
    },
    ((21, 13), 49, "big"): {
        "coset": [2, 0, 3, 47, 0, 0], "fiberAlpha": 0, "fiberBeta": 1,
        "kvec": [[2, 2, 3, 1, 0]], "swapped": False,
    },
}


@pytest.mark.parametrize(
    "pq, N, cell",
    [
        pytest.param(pq, N, cell, id=f"{pq[0]},{pq[1]}-N{N}-{cell}")
        for pq, N, cell in LARGE_WITNESSES
    ],
)
def test_large_curve_certificates_are_pinned(pq, N, cell):
    # curves far above the default cap, with large edge weights
    phi = MappingClass(1, matrix=TWIST)
    req = DetectionRequest(N=N, cell=cell, curve=pq, phi=phi, state_cap=400)
    alpha = list(torus_table().predicted_coords(*pq))
    beta = list(torus_table().predicted_coords(pq[0] + pq[1], pq[1]))
    assert detect_support(req).to_json() == {
        "verdict": "certified-nontrivial",
        "method": "support",
        "N": N,
        "cell": cell,
        "reasons": [],
        "witness": LARGE_WITNESSES[pq, N, cell],
        "assumptions": ["delta-liftable"],
        "alpha": alpha,
        "beta": beta,
    }


def test_every_small_curve_certifies_only_what_the_oracles_allow():
    """detect on every normal coordinate vector of Delta_1 with edge weights
    <= 6, under I, -I, T and S, at N = 3, 5 and 11. A certificate's alpha
    and beta are closed connected curves of a nonzero homology class, so
    neither is boundary-parallel; beta is the oracle's image of alpha; and
    +-I, which fix every curve, certify nothing."""
    table = torus_table()
    bd = table.tri.boundary_arc
    outcomes = Counter()
    for vec, mat, N in product(
        normal_coord_vectors(table.tri, 6 * table.tri.n_edges, max_weight=6),
        (IDENTITY, [[-1, 0], [0, -1]], TWIST, [[0, -1], [1, 0]]),
        (3, 5, 11),
    ):
        alpha = NormalCurve(table.tri, vec)
        try:
            cert = detect_theorem2(DetectionRequest(N=N, curve=alpha, phi=MappingClass(1, mat)))
        except ValueError:
            outcomes["refused"] += 1
            continue
        outcomes[cert.verdict] += 1
        if cert.verdict != "certified-nontrivial":
            continue
        assert mat[0][1] or mat[1][0], (vec, mat, N)
        for coords in (cert.alpha_coords, cert.beta_coords):
            curve = NormalCurve(table.tri, coords)
            assert not coords[bd] and curve.is_connected(), (vec, mat, N)
            assert homology_class(curve) not in (None, (0, 0)), (vec, mat, N)
        (a, b), (c, d) = mat
        p, q = homology_class(alpha)
        assert tuple(table.predicted_coords(a * p + b * q, c * p + d * q)) == cert.beta_coords
    assert outcomes == {"certified-nontrivial": 190, "inconclusive": 242, "refused": 8568}


def _walk_rule(curve):
    """The walk's verdict on whether a curve is connected and essential."""
    tri = curve.tri
    return not (
        curve.coords == tri.boundary_parallel
        or any(curve.coords[e] for e in tri.boundary_edges)
        or not curve.is_connected()
    )


def test_genus_one_connectivity_agrees_with_the_walk():
    """Every normal vector of Delta_1 with coordinate sum <= 40, the empty
    one included: the check reads the torus class off the coordinates, walks
    nothing, and agrees with the walk, kept here as the oracle."""
    tri = torus_table().tri
    vectors = [[0] * tri.n_edges, *normal_coord_vectors(tri, 40)]
    verdicts = Counter()
    for vec in vectors:
        curve = NormalCurve(tri, vec)
        try:
            detect._check_connected("alpha", curve)
            accepted = True
        except ValueError as exc:
            assert str(exc) == "alpha must be a connected essential curve"
            accepted = False
        assert "walks" not in vars(curve) and "pieces" not in vars(curve), vec
        assert accepted == _walk_rule(curve), vec
        verdicts[accepted] += 1
    assert len(vectors) == 9860 and verdicts[True] > 100


def test_genus_one_cap_refusal_walks_no_curve():
    """A 999998-point class curve and its twist image are refused on the
    point cap with the certificate they always had, and neither curve, class
    or explicit coordinates, is walked on the way."""
    table = torus_table()
    expected = {
        "verdict": "inconclusive",
        "method": "theorem2->support",
        "N": 5,
        "cell": "reduced",
        "reasons": ["bound-exceeded", "cap-exceeded"],
        "witness": None,
        "assumptions": ["delta-liftable"],
        "alpha": [200000, 200000, 199999, 399999, 0],
        "beta": [399999, 399999, 199999, 599998, 0],
    }
    alpha = table.curve(200000, 199999)
    beta = NormalCurve(table.tri, expected["beta"])
    for req in (
        DetectionRequest(curve=alpha, phi=MappingClass(1, matrix=TWIST)),
        DetectionRequest(curve=(200000, 199999), phi=MappingClass(1, matrix=TWIST)),
        DetectionRequest(curve=alpha, phi=MappingClass(1, matrix=TWIST), beta=beta),
    ):
        assert detect_theorem2(req).to_json() == expected
    for curve in (alpha, beta):
        assert vars(curve).keys() == {"tri", "coords", "n_points"}


def test_disconnected_alpha_rejected():
    table = torus_table()
    doubled = NormalCurve(table.tri, [2 * v for v in table.curve(0, 1).coords])
    req = DetectionRequest(genus=1, N=3, curve=doubled, beta=table.curve(1, 0))
    with pytest.raises(ValueError):
        detect_support(req)


def test_empty_or_disconnected_beta_rejected():
    # no mapping class sends a connected curve to these, so neither may
    # certify, whether a word class comes with them or none
    table = torus_table()
    words = MappingClass(1, words={"a1": "a", "b1": "ba"})
    for coords in ([0] * 5, [2 * v for v in table.curve(0, 1).coords]):
        for phi in (None, words):
            req = DetectionRequest(N=5, curve=(1, 0), phi=phi, beta=NormalCurve(table.tri, coords))
            for run in (detect_theorem2, detect_support):
                with pytest.raises(ValueError, match="^beta must be a connected essential curve$"):
                    run(req)


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


def _genus_one_curves(max_points, max_weight=4):
    """Distinct closed, open (points on the boundary arc) and
    multi-component curves of edge weights up to max_weight, then the torus
    classes, up to max_points points."""
    table = torus_table()
    curves = [
        NormalCurve(table.tri, vec)
        for vec in normal_coord_vectors(table.tri, table.tri.n_edges * max_weight, max_weight)
    ]
    curves += [
        table.curve(p, q) for p in range(-6, 7) for q in range(7) if gcd(p, q) == 1
    ]
    return [c for c in dict.fromkeys(curves) if c.n_points <= max_points]


def _assert_recount_matches_bruteforce(curve, N, cell):
    """The targeted count of the detection context's recount at every
    coset's residue equals the brute-force state count of the coset,
    distinct cosets have distinct residues, and the count is 0 at the first
    few cosets next to them that no state reaches; the number of those
    cosets."""
    basis, kernel, recount = detect._detection_context(curve.tri, N, cell)
    fibers = enumerate_admissible_states_bruteforce(curve)
    _, by_coset = coset_states(fibers, basis, kernel, cell)
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
    unreached = sorted(set(_project(near, basis, kernel, cell)) - set(by_coset))[:4]
    for coset in unreached:
        target = recount.target(coset)
        assert target not in targets.values()
        assert recount.count(curve, target) == 0, (curve, coset)
    assert recount.count(curve, None) == 0
    if cell == "big":
        # any representative of a coset names it; one with khat off the
        # lattice names no curve state
        khat = kernel[-1]
        for coset, target in targets.items():
            assert recount.target([a + b for a, b in zip(coset, khat)]) == target
            assert recount.target([*coset[:-1], coset[-1] + 1]) is None
    return len(unreached)


def _closed_connected(curves):
    # the recount counts one closed component: alpha and beta are connected
    # and off the boundary arc
    return [c for c in curves if c.is_connected() and not c.coords[c.tri.boundary_arc]]


@pytest.mark.parametrize("cell", ["reduced", "big"])
@pytest.mark.parametrize("N", [3, 11])
def test_residue_recount_matches_bruteforce(N, cell):
    """Every distinct closed connected curve of Delta_1 with m <= 20 points
    and of Delta_2 with m <= 12."""
    tri_two = build_sigma_g_star(2)
    corpus = [
        _closed_connected(_genus_one_curves(20, max_weight=10)),
        _closed_connected(NormalCurve(tri_two, vec) for vec in normal_coord_vectors(tri_two, 12)),
    ]
    unreached = []
    for curves in corpus:
        unreached += [_assert_recount_matches_bruteforce(c, N, cell) for c in curves]
    distinct = {curve for curves in corpus for curve in curves}
    assert len(distinct) == len(unreached) > 100
    assert sum(unreached) > 2 * len(unreached)
    doubled = NormalCurve(curves[0].tri, [2 * v for v in curves[0].coords])
    with pytest.raises(ValueError, match="^the recount counts one curve component, not 2$"):
        detect._detection_context(doubled.tri, N, cell)[2].count(doubled, 0)


@pytest.mark.parametrize("cell", ["reduced", "big"])
def test_the_recount_walks_once_each_way(monkeypatch, cell):
    """Both runs of the closing piece are counted in one walk forward and
    one walk back, and the counts are still the brute force's."""
    calls = []
    walk = recount.ResidueRecount._walk

    def counted(self, *args, **kwargs):
        calls.append(kwargs["back"])
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(recount.ResidueRecount, "_walk", counted)
    tri_two = build_sigma_g_star(2)
    curves = _closed_connected(_genus_one_curves(14, max_weight=6))
    curves.append(NormalCurve(tri_two, [0, 2, 1, 1, 2, 0, 2, 1, 1, 2, 0]))
    checked = 0
    for curve in curves:
        basis, kernel, counter = detect._detection_context(curve.tri, 3, cell)
        fibers = enumerate_admissible_states_bruteforce(curve)
        for coset, n in coset_states(fibers, basis, kernel, cell)[1].items():
            calls.clear()
            assert counter.count(curve, counter.target(coset)) == n, (curve, coset)
            assert calls == [False, True]
            checked += 1
    assert checked > 200


@pytest.mark.parametrize(
    "genus, coords", [(1, [1, 1, 0, 1, 2]), (2, [0, 0, 0, 0, 0, 2, 4, 1, 3, 2, 2])]
)
def test_residue_recount_refuses_an_arc(genus, coords):
    # an arc has two ends on the boundary arc, where the recount's walk
    # would find no next piece: it is refused before any walk, not looped on
    tri = build_sigma_g_star(genus)
    arc = NormalCurve(tri, coords)
    assert arc.is_connected()
    recount = detect._detection_context(tri, 3, "reduced")[2]

    def timeout(signum, frame):
        raise TimeoutError("the recount of an arc did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with pytest.raises(ValueError, match="^the recount counts closed curves, "):
            recount.count(arc, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("cell", ["reduced", "big"])
def test_residue_recount_matches_bruteforce_genus_two(cell):
    tri = build_sigma_g_star(2)
    curve = NormalCurve(tri, [0, 2, 1, 1, 2, 0, 2, 1, 1, 2, 0])
    assert curve.is_connected() and curve.n_points == 12
    assert _assert_recount_matches_bruteforce(curve, 3, cell) > 0


@pytest.mark.parametrize("cell", ["reduced", "big"])
@pytest.mark.parametrize("genus", [1, 2, 35])
def test_recount_residues_match_the_smith_residues(genus, cell):
    # the residue group read mod 2N names the classes of Z^E/L that the
    # Smith form of L over Z names, pairwise, lattice shifts included
    N = 3
    basis, kernel, recount = detect._detection_context(build_sigma_g_star(genus), N, cell)
    rows = kernel if cell == "reduced" else [[N * x for x in r] for r in identity(len(basis))]
    lattice = mat_mul(rows, basis)
    smith = smith_residues(lattice)
    rng = random.Random(genus)
    vecs = [[rng.randint(-4, 4) for _ in basis] for _ in range(8)]
    vecs += [
        [x + y for x, y in zip(v, mat_mul([[rng.randint(-3, 3) for _ in lattice]], lattice)[0])]
        for v in vecs
    ]
    residues = [recount.residue(v) for v in vecs]
    classes = [smith(v) for v in vecs]
    for i in range(len(vecs)):
        for j in range(len(vecs)):
            assert (residues[i] == residues[j]) == (classes[i] == classes[j]), (i, j)
    assert len(set(classes)) == 8


def _wrong_kernel(monkeypatch, wrong):
    """Patch `intlinalg.kernel_mod` to return `wrong(K^0, N)` for odd N, with
    no detection context cached from before."""
    kernel_mod = intlinalg.kernel_mod
    monkeypatch.setattr(
        intlinalg, "kernel_mod", lambda M, N: wrong(kernel_mod(M, N), N) if N % 2 else kernel_mod(M, N)
    )
    detect._detection_context.cache_clear()


def _too_small(kernel, N):
    """N^2 times the whole lattice, inside N^2*K (or N^2*Kbar)."""
    return [[N * N * x for x in row] for row in identity(len(kernel))]


def _too_large(kernel, N):
    """The kernel and the first unit vector outside it."""
    unit = next(e for e in identity(len(kernel)) if lattice_coordinates(kernel, e) is None)
    return hnf(kernel + [unit])


@pytest.mark.parametrize("cell", ["reduced", "big"])
@pytest.mark.parametrize("wrong", [_too_small, _too_large])
def test_a_wrong_kernel_makes_detect_raise(monkeypatch, wrong, cell):
    # under N^2*K^0, (1,3) under [[2,1],[1,1]] at N 3 came out certified
    # when the recount counted modulo the projection's own kernel
    req = DetectionRequest(N=3, cell=cell, curve=(1, 3), phi=MappingClass(1, matrix=[[2, 1], [1, 1]]))
    _wrong_kernel(monkeypatch, wrong)
    try:
        with pytest.raises(AssertionError, match="the kernel does not span the witness lattice"):
            detect_support(req)
    finally:
        detect._detection_context.cache_clear()


def _imported_modules(source):
    """The modules that Python source imports anywhere in its tree, lazy
    imports too, each with the names it takes from them: a relative import
    is one of skeinlab, and `from skeinlab import x` imports skeinlab.x."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["skeinlab" if node.level else None, node.module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Name) and node.id == "__import__":
            names.add("__import__")
    return names


def _imports_beyond_intlinalg(source):
    """The imports of skeinlab modules other than intlinalg in source, and
    of anything that imports by name."""
    return sorted(
        name for name in _imported_modules(source)
        if name.split(".")[0] in ("skeinlab", "importlib", "__import__")
        and ".".join(name.split(".")[:2]) not in ("skeinlab", "skeinlab.intlinalg")
    )


def test_the_recount_imports_nothing_of_skeinlab_but_intlinalg():
    # the recount re-verifies what the walk DP and the coset projection
    # found, so it must not reach their code, not even through a lazy import
    source = (Path(__file__).parents[1] / "src" / "skeinlab" / "recount.py").read_text()
    assert "skeinlab.intlinalg" in _imported_modules(source)
    assert _imports_beyond_intlinalg(source) == []
    lazy = "def f():\n    from .curves import NormalCurve\n    import importlib\n"
    assert _imports_beyond_intlinalg(lazy) == [
        "importlib", "skeinlab.curves", "skeinlab.curves.NormalCurve"
    ]


# what only `curves.WalkSupport` reads of a walk-DP support: its table, the
# table's slot layout, and the entry columns read from them
SLOT_FORMAT = ("table", "slot_bits", "heavy_weight", "rows", "k_heavy", "fields", "layout")


def _slot_format_reads(source):
    """The names of SLOT_FORMAT that Python source reads as attributes,
    after a dot or through getattr with a constant name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            names.add(node.args[1].value)
    return sorted(names.intersection(SLOT_FORMAT))


def test_detection_reads_no_walk_dp_slot_layout():
    # `WalkSupport` is the one reader of a walk-DP table and of the entry
    # columns read from it, so detection and the selftest take class ids,
    # counts and k-vectors from its methods, and never the table, its
    # slots, k_h's offset, the columns or the layout
    for module in ("detect.py", "selftest.py"):
        source = (Path(__file__).parents[1] / "src" / "skeinlab" / module).read_text()
        assert _slot_format_reads(source) == [], module
    # a class step that reads the columns itself, as detection once did
    probe = (
        "def f(support, N):\n"
        "    fields, n, h = support.fields, support.layout.n_edges, support.layout.heavy\n"
        "    k = zip(support.rows, support.k_heavy)\n"
        "    return support.table, getattr(support.layout, 'slot_bits'), support.layout.heavy_weight\n"
    )
    assert _slot_format_reads(probe) == sorted(SLOT_FORMAT)


def _project_one_at_a_time(kvecs, basis, kernel, cell, coords_of):
    """The canonical coset of each k-vector, one vector at a time: K-coordinates
    from the general SNF solver, then a row-by-row floor reduction."""
    out = []
    for kvec in kvecs:
        if kvec not in coords_of:
            coords_of[kvec] = solve_integer(transpose(basis), list(kvec))
        v = coords_of[kvec] + ([0] if cell == "big" else [])
        for row in kernel:
            piv = next(i for i, x in enumerate(row) if x)
            q = v[piv] // row[piv]
            v = [a - q * b for a, b in zip(v, row)]
        out.append(tuple(v))
    return out


def _class_entries(support, N):
    """(class id, k-vector, states) of each state entry of a support, by
    the class step that detect runs."""
    return list(zip(support.classes(N), support.kvectors(), support.counts))


def _assert_classes_match_cosets(N, supports, projection, coords_of):
    """Over the supports together, class ids and the reference's canonical
    cosets name each other one to one, and each support has the reference's
    states in each class; each support's entries are its fibers."""
    coset_of_class, class_of_coset = {}, {}
    for sup in supports:
        entries = _class_entries(sup, N)
        assert {kvec: n for _, kvec, n in entries} == sup.fibers
        kvecs = [kvec for _, kvec, _ in entries]
        cosets = _project_one_at_a_time(kvecs, *projection, coords_of)
        states = {}
        for (i, _, n), coset in zip(entries, cosets):
            assert coset_of_class.setdefault(i, coset) == coset
            assert class_of_coset.setdefault(coset, i) == i
            states[coset] = states.get(coset, 0) + n
        assert states == coset_states(sup.fibers, *projection)[1]


@pytest.mark.parametrize("cell", ["reduced", "big"])
def test_batched_projection_matches_one_vector_at_a_time(cell):
    # class ids do not depend on the curve, so the supports of all curves
    # at one genus are checked together, whatever their heavy edges; the
    # curves are 0 on the boundary arc, the ones that detection takes
    table = torus_table()
    one = [c for c in _genus_one_curves(16) if not c.coords[table.tri.boundary_arc]]
    assert len(one) == 57
    supports = [enumerate_admissible_states(c) for c in one]
    assert len({sup.layout.heavy for sup in supports}) > 1
    coords_of = {}
    for N in (3, 5, 11):
        _assert_classes_match_cosets(N, supports, _projection(table.tri, N, cell), coords_of)
    t2 = build_sigma_g_star(2)
    coords = ({2: 1, 3: 1}, {7: 1, 8: 1}, [0, 2, 1, 1, 2, 0, 2, 1, 1, 2, 0])
    two = [enumerate_admissible_states(NormalCurve(t2, c)) for c in coords]
    for N in (3, 5):
        _assert_classes_match_cosets(N, two, _projection(t2, N, cell), {})
    t3 = build_sigma_g_star(3)
    coords = (
        {2: 1, 3: 1},
        {13: 1, 14: 1},
        {2: 1, 3: 1, 7: 1, 8: 1},
        [0, 2, 1, 1, 2, 0, 2, 1, 1, 2, 0, 0, 0, 0, 0, 0, 0],
        [0, 2, 1, 1, 2, 0, 0, 0, 0, 0, 2, 0, 2, 1, 1, 2, 0],
    )
    three = [enumerate_admissible_states(NormalCurve(t3, c)) for c in coords]
    for N in (3, 5):
        _assert_classes_match_cosets(N, three, _projection(t3, N, cell), {})


def _balanced_off_the_boundary_arc(rng, basis, arc, count):
    """count random vectors of K, by their basis rows, that are 0 on the
    boundary arc: a vector even there is moved there by 2*e_arc, in K."""
    out = []
    while len(out) < count:
        coeffs = [rng.randint(-2, 2) for _ in basis]
        vec = [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*basis)]
        if vec[arc] % 2 == 0:
            vec[arc] = 0
            out.append(vec)
    return out


@pytest.mark.parametrize("cell", ["reduced", "big"])
def test_cosets_of_vectors_off_the_boundary_arc_are_their_residues_mod_n(cell):
    # the lemma of `detect._candidates`: for vectors of K that are 0 on the
    # boundary arc, equal canonical cosets are equal residues mod N
    rng = random.Random(20221)
    for genus in (1, 2, 3):
        tri = build_sigma_g_star(genus)
        arc = tri.boundary_arc
        for N in (3, 5, 7, 11):
            basis, kernel, _ = detect._detection_context(tri, N, cell)
            xs = _balanced_off_the_boundary_arc(rng, basis, arc, 30)
            # x + N*w has x's residues, x + w mostly others
            ws = _balanced_off_the_boundary_arc(rng, basis, arc, 60)
            pool = xs + [[a + N * b for a, b in zip(x, w)] for x, w in zip(xs, ws)]
            pool += [[a + b for a, b in zip(x, w)] for x, w in zip(xs, ws[30:])]
            cosets = _project(pool, basis, kernel, cell)
            residues = [tuple(x % N for x in vec) for vec in pool]
            pairs = set(zip(cosets, residues))
            assert len(pairs) == len(set(cosets)) == len(set(residues)) < len(pool)


def test_a_nonzero_boundary_entry_can_share_a_coset_without_sharing_residues():
    # why the lemma needs 0 on the boundary arc: on the reduced cell,
    # k_boundary = 2*(1, ..., 1) lies in L, so two k-vectors of a curve with
    # points on the boundary arc that differ by it share a coset, while
    # their residues mod N differ on every edge
    table = torus_table()
    basis, kernel, _ = detect._detection_context(table.tri, 5, "reduced")
    curve = NormalCurve(table.tri, [1, 1, 2, 3, 2])
    assert curve.coords[table.tri.boundary_arc] and curve.is_connected()
    x, y = (1, 1, 0, 1, 0), (-1, -1, -2, -1, -2)
    assert {x, y} <= set(enumerate_admissible_states(curve).fibers)
    first, second = _project([x, y], basis, kernel, "reduced")
    assert first == second
    assert all(a % 5 != b % 5 for a, b in zip(x, y))


def test_projection_rejects_unbalanced_vectors(monkeypatch):
    # an unbalanced vector names a class that no balanced one does, so it
    # is a witness candidate, and its canonical form refuses it
    table = torus_table()
    alpha = table.curve(1, 1)
    layout = enumerate_admissible_states(alpha).layout
    support = table_support({(0, 0, 0, 0, 0): 1, (1, 0, 0, 0, 0): 1}, layout)

    def enumerate_unbalanced(curve, cap):
        return support if curve == alpha else enumerate_admissible_states(curve, cap=cap)

    monkeypatch.setattr(detect, "enumerate_admissible_states", enumerate_unbalanced)
    req = DetectionRequest(N=5, curve=alpha, beta=table.curve(1, 0))
    with pytest.raises(ValueError, match="^vector is not balanced$"):
        detect_support(req)


def _fibers_with_pieces(curve, pieces):
    """{k-vector: count} over the full states that no (a, b) in `pieces`
    forbids with a: +, b: -."""
    out = {}
    for states in product((1, -1), repeat=curve.n_points):
        if any(states[a] == 1 and states[b] == -1 for a, b in pieces):
            continue
        kvec = [0] * curve.tri.n_edges
        for p, s in enumerate(states):
            kvec[curve.point_edge[p]] += s
        out[tuple(kvec)] = out.get(tuple(kvec), 0) + 1
    return out


def _false_witness_supports(alpha, beta, projection):
    """(kind, curve, fibers): one curve's support with one walk constraint
    flipped ("flip") or one fiber count moved by one ("bump"), on which the
    support criterion finds a witness whose true fibers differ from the
    claimed ones."""
    true = {c: enumerate_admissible_states(c).fibers for c in (alpha, beta)}

    def projected(fibers_of):
        return [coset_states(fibers_of[c], *projection)[1] for c in (alpha, beta)]

    def states(fib, coset):
        return [side.get(coset, 0) for side in fib]

    true_fib = projected(true)
    for curve in (alpha, beta):
        pieces = [q[:2] for q in curve.pieces]
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
            coset, _ = _find_witness_by_sorted_scan(*fib)
            if coset is not None and states(fib, coset) != states(true_fib, coset):
                yield kind, curve, fibers


@pytest.mark.parametrize("cell", ["reduced", "big"])
def test_corrupted_support_fails_reverification(cell, monkeypatch):
    table = torus_table()
    alpha = table.curve(1, 1)
    beta = act_on_curve(MappingClass(1, matrix=TWIST), alpha)
    req = DetectionRequest(genus=1, N=5, cell=cell, curve=alpha, beta=beta)
    assert detect_support(req).verdict == "certified-nontrivial"
    corrupted = list(_false_witness_supports(alpha, beta, _projection(table.tri, 5, cell)))
    expected = {"reduced": {"flip": 2}, "big": {"flip": 8, "bump": 2}}[cell]
    assert Counter(kind for kind, _, _ in corrupted) == expected
    for _, bad_curve, fibers in corrupted:
        # detect reads the walk-DP table, so the fibers are packed into one
        bad = table_support(fibers, enumerate_admissible_states(bad_curve).layout)

        def enumerate_corrupted(curve, cap, bad_curve=bad_curve, bad=bad):
            if curve == bad_curve:
                return bad
            return enumerate_admissible_states(curve, cap=cap)

        monkeypatch.setattr(detect, "enumerate_admissible_states", enumerate_corrupted)
        with pytest.raises(AssertionError, match="re-verification failed"):
            detect_support(req)


def _states(fibers, coset_of):
    """{coset: number of states} of fibers, each k-vector in its coset_of."""
    states = {}
    for kvec, n in fibers.items():
        states[coset_of[kvec]] = states.get(coset_of[kvec], 0) + n
    return states


def _false_witness_projections(alpha, beta, projection):
    """(kind, moved): projections that send every k-vector of one coset to
    another coset ("merge"), or one k-vector of a coset of several to
    another coset ("drop"), as {k-vector: wrong coset}, on which the
    support criterion finds a witness whose true fibers differ from the
    claimed ones."""
    supports = [enumerate_admissible_states(c) for c in (alpha, beta)]
    true_fib = [coset_states(sup.fibers, *projection)[1] for sup in supports]
    kvecs = sorted(set().union(*(sup.fibers for sup in supports)))
    coset_of = dict(zip(kvecs, _project(kvecs, *projection)))
    # the cosets hit, and their neighbours k + 2 e_i (2 e_i is balanced)
    n = len(kvecs[0])
    shifted = [tuple(x + 2 * (i == j) for j, x in enumerate(k)) for k in kvecs for i in range(n)]
    cosets = sorted(set(coset_of.values()) | set(_project(shifted, *projection)))

    def states(fib, coset):
        return [side.get(coset, 0) for side in fib]

    for source in sorted(set(coset_of.values())):
        members = [k for k in kvecs if coset_of[k] == source]
        for target in cosets:
            if target == source:
                continue
            candidates = [("merge", dict.fromkeys(members, target))]
            if len(members) > 1:
                candidates += [("drop", {k: target}) for k in members]
            for kind, moved in candidates:
                fib = [_states(sup.fibers, {**coset_of, **moved}) for sup in supports]
                coset, _ = _find_witness_by_sorted_scan(*fib)
                if coset is not None and states(fib, coset) != states(true_fib, coset):
                    yield kind, moved


def _moving(monkeypatch, alpha, beta, N, cell, moved):
    """Patch the class step and the canonical form of the candidates that
    detect calls so that each k-vector of `moved` lands in its coset there:
    its class becomes that coset's (a fresh one for a coset that no state
    reaches), and its canonical form that coset."""
    supports = [enumerate_admissible_states(c) for c in (alpha, beta)]
    projection = _projection(alpha.tri, N, cell)
    label = {}
    for sup in supports:
        entries = _class_entries(sup, N)
        for (i, _, _), coset in zip(entries, _project([k for _, k, _ in entries], *projection)):
            label[coset] = i
    for coset in sorted(set(moved.values()) - set(label)):
        label[coset] = -1 - len(label)
    classes = WalkSupport.classes

    def moved_classes(support, N):
        ids = classes(support, N)
        return [label[moved[k]] if k in moved else i for i, k in zip(ids, support.kvectors())]

    def project(basis, kernel, kvecs, pad):
        cosets = lattice_cosets_many(basis, kernel, kvecs, pad)
        return [moved.get(k, c) for k, c in zip(kvecs, cosets)]

    monkeypatch.setattr(WalkSupport, "classes", moved_classes)
    monkeypatch.setattr(detect, "lattice_cosets_many", project)


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
    corrupted = list(_false_witness_projections(alpha, beta, _projection(table.tri, 3, cell)))
    expected = {"reduced": {"merge": 32, "drop": 32}, "big": {"merge": 31, "drop": 30}}[cell]
    assert Counter(kind for kind, _ in corrupted) == expected
    for _, moved in corrupted:
        monkeypatch.undo()
        _moving(monkeypatch, alpha, beta, 3, cell, moved)
        with pytest.raises(AssertionError, match="re-verification failed"):
            detect_support(req)


def test_detection_context_is_built_once(monkeypatch):
    tri = torus_table().tri
    context = detect._detection_context(tri, 5, "reduced")
    assert detect._detection_context(tri, 5, "reduced") is context
    assert detect._detection_context(tri, 5, "big") is not context
    assert detect._detection_context(tri, 7, "reduced") is not context
    # two builds of one surface are equal, so they share one context
    first = build_sigma_g_star(2)
    second = Triangulation(first.faces, genus=2, name="Delta_2")
    assert first is not second
    detect._detection_context.cache_clear()
    built = []

    class CountingLattice(BalancedLattice):
        def __init__(self, tri):
            built.append(tri)
            super().__init__(tri)

    monkeypatch.setattr(detect, "BalancedLattice", CountingLattice)
    contexts = []
    for t2 in (first, second, first):
        req = DetectionRequest(
            genus=2, N=3, cell="big",
            curve=NormalCurve(t2, {2: 1, 3: 1}), beta=NormalCurve(t2, {7: 1, 8: 1}),
        )
        assert detect_support(req).verdict == "certified-nontrivial"
        contexts.append(detect._detection_context(t2, 3, "big"))
    assert len(built) == 1
    assert contexts[0] is contexts[1] is contexts[2]


def test_a_curve_on_a_separate_build_of_delta_1_certifies_like_the_class_shorthand():
    tri = Triangulation(build_sigma_g_star(1).faces, genus=1, name="Delta_1")
    assert tri is not torus_table().tri
    curve = NormalCurve(tri, torus_table().predicted_coords(0, 1))
    phi = MappingClass(1, matrix=TWIST)
    explicit = detect_theorem2(DetectionRequest(N=5, curve=curve, phi=phi)).to_json()
    shorthand = detect_theorem2(DetectionRequest(N=5, curve=(0, 1), phi=phi)).to_json()
    assert explicit["verdict"] == "certified-nontrivial"
    assert json.dumps(explicit, sort_keys=True) == json.dumps(shorthand, sort_keys=True)


def test_alpha_and_beta_on_two_builds_of_delta_2_certify():
    first = build_sigma_g_star(2)
    second = Triangulation(first.faces, genus=2, name="Delta_2")
    assert first is not second
    alpha = NormalCurve(first, {2: 1, 3: 1})
    beta = NormalCurve(second, {7: 1, 8: 1})
    req = DetectionRequest(genus=2, N=3, cell="big", curve=alpha, beta=beta)
    assert detect_support(req).verdict == "certified-nontrivial"


def test_corrupted_projection_fails_reverification_with_a_warm_context(monkeypatch):
    # a clean certification builds and caches the context first; the
    # projection bug must still be caught through the cached context
    table = torus_table()
    alpha = table.curve(2, 1)
    beta = act_on_curve(MappingClass(1, matrix=TWIST), alpha)
    req = DetectionRequest(genus=1, N=3, cell="reduced", curve=alpha, beta=beta)
    assert detect_support(req).verdict == "certified-nontrivial"
    context = detect._detection_context(table.tri, 3, "reduced")
    _, moved = next(_false_witness_projections(alpha, beta, _projection(table.tri, 3, "reduced")))
    _moving(monkeypatch, alpha, beta, 3, "reduced", moved)
    assert detect._detection_context(table.tri, 3, "reduced") is context
    with pytest.raises(AssertionError, match="re-verification failed"):
        detect_support(req)
