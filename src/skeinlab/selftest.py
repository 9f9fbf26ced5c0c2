"""The acceptance suite: every criterion with its stated tolerance.

Each check returns {"criterion", "passed", "detail"}; the CLI prints one
pass/fail line per criterion and pytest asserts each. All comparisons are
exact (integer/cyclotomic equality); the only tolerances are wall-clock
budgets, enforced where stated.
"""

from __future__ import annotations

import json
import random
import time
from itertools import product

from .curves import (
    NormalCurve,
    enumerate_admissible_states,
    enumerate_admissible_states_bruteforce,
    support_bounds_check,
    torus_table,
)
from .detect import DetectionRequest, detect_support, detect_theorem2
from .mcg import MappingClass, TWIST_ALPHA, TWIST_BETA
from .poisson import PoissonAlgebra, bracket_tables_from_r_matrix, verify_r_matrix_expansion
from .qtorus import QuantumTorus, build_irrep, chebyshev_apply, frobenius
from .repvar import SL2Mat, SL2Rep, act_on_rep, moment_map, orbit_closure, rep_dimension
from .surface import BalancedLattice, RefinedLattice, build_sigma_g_star, k_boundary

FIXTURE_CLASSES = [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2)]


def _result(name, passed, detail=""):
    return {"criterion": name, "passed": bool(passed), "detail": detail}


def _timed_result(name, bad, dt, budget):
    """A result that also fails past a wall-clock budget. The measured time
    stays out of the detail, so that passing runs print the same bytes."""
    problems = [f"mismatches: {bad}"] if bad else []
    if dt >= budget:
        problems.append(f"over the {budget}s budget")
    return _result(name, not problems, "; ".join(problems))


def check_pi_degree_table():
    t0 = time.time()
    bad = []
    for g in (1, 2):
        B = BalancedLattice(build_sigma_g_star(g))
        for N in (3, 5, 7):
            got = B.pi_degree(N)["piDegree"]
            if got != N ** (3 * g - 1):
                bad.append((g, N, got))
    return _timed_result(
        "pi-degree-reduced N^(3g-1) on {1,2}x{3,5,7}", bad, time.time() - t0, 5.0
    )


def check_eq_k0():
    t0 = time.time()
    bad = []
    for g in (1, 2):
        B = BalancedLattice(build_sigma_g_star(g))
        for N in (3, 5, 7):
            _, _, equal = B.central_sublattice(N)
            if not equal:
                bad.append((g, N))
    return _timed_result(
        "definitional mod-N kernel equals N*K + Z*k_boundary", bad, time.time() - t0, 5.0
    )


def check_k_boundary_central():
    bad = []
    for g in (1, 2, 3):
        tri = build_sigma_g_star(g)
        B = BalancedLattice(tri)
        kb = k_boundary(tri)
        for basis_vec in B.basis:
            if B.pairing(kb, basis_vec) != 0:
                bad.append(g)
                break
    return _result(
        "k_boundary pairs to zero with K for g <= 3",
        not bad,
        f"mismatches: {bad}" if bad else "exact",
    )


def check_azumaya_dimension():
    t0 = time.time()
    B = BalancedLattice(build_sigma_g_star(1))
    L = B.skew_lattice()
    bad = []
    for N in (3, 5):
        irr = build_irrep(L, N)  # relation + character checks run inside
        if irr.dimension != N * N:
            bad.append((N, irr.dimension))
    return _timed_result(
        "torus irreps on K_Delta1 have dimension N^2 with exact relations",
        bad,
        time.time() - t0,
        60.0,
    )


def check_chebyshev_frobenius():
    B = BalancedLattice(build_sigma_g_star(1))
    L = B.skew_lattice()
    rng = random.Random(20260809)
    bad = []
    for N in (3, 5, 7):
        torus = QuantumTorus(L, N)
        for _ in range(20):
            a = [rng.randint(-3, 3) for _ in range(L.rank)]
            x = torus.monomial(a) + torus.monomial([-t for t in a])
            if chebyshev_apply(x, N) != frobenius(x):
                bad.append((N, a))
    return _result(
        "T_N(Z_a + Z_-a) = Fr_N(Z_a + Z_-a), 20 random a, N in {3,5,7}",
        not bad,
        f"mismatches: {bad}" if bad else "exact",
    )


def check_support_lemma():
    table = torus_table()
    bad = []
    for pq in FIXTURE_CLASSES:
        c = table.curve(*pq)
        sup = enumerate_admissible_states(c)
        if not support_bounds_check(sup, c):
            bad.append(pq)
    return _result(
        "support bounds (|k| <= weight, parity, boundary zero) on fixtures",
        not bad,
        f"violations: {bad}" if bad else "exact",
    )


def check_injectivity_lemma():
    table = torus_table()
    N = 7
    bad = []
    for pq in FIXTURE_CLASSES:
        c = table.curve(*pq)
        if c.max_edge_weight() > N - 1:
            continue
        support = enumerate_admissible_states(c)
        # the class step that detect runs, so that this check covers it:
        # each state entry is one k-vector, and equal ids are equal cosets
        seen = {}
        for red, kvec in zip(support.classes(N), support.kvectors()):
            if red in seen:
                bad.append((pq, kvec, seen[red]))
            seen[red] = kvec
    return _result(
        "mod-K0 projection injective on supports (weights <= N-1, N=7)",
        not bad,
        f"collisions: {bad}" if bad else "exact pairwise",
    )


def check_oracle_equivalence():
    tri = torus_table().tri
    bad = []
    tested = 0
    # every vector on the inner edges with m = sum <= 12 points, in order
    for weights in product(range(13), repeat=len(tri.inner_edges)):
        if sum(weights) > 12:
            continue
        vec = [0] * tri.n_edges
        for e, w in zip(tri.inner_edges, weights):
            vec[e] = w
        try:
            c = NormalCurve(tri, vec)
        except ValueError:
            continue
        tested += 1
        if enumerate_admissible_states(c).fibers != enumerate_admissible_states_bruteforce(c):
            bad.append(vec)
    return _result(
        "DP enumeration equals 2^m brute force for all curves with m <= 12",
        not bad and tested > 0,
        f"{tested} curves" + (f" mismatches: {bad}" if bad else ""),
    )


def check_detection():
    req = DetectionRequest(
        genus=1, N=5, curve=(0, 1), phi=MappingClass(1, matrix=[[1, 1], [0, 1]])
    )
    cert1 = detect_theorem2(req)
    req2 = DetectionRequest(
        genus=1, N=5, curve=(0, 1), phi=MappingClass(1, matrix=[[1, 1], [0, 1]])
    )
    cert2 = detect_theorem2(req2)
    bytes1 = json.dumps(cert1.to_json(), sort_keys=True)
    bytes2 = json.dumps(cert2.to_json(), sort_keys=True)
    ident = detect_theorem2(
        DetectionRequest(
            genus=1, N=5, curve=(0, 1), phi=MappingClass(1, matrix=[[1, 0], [0, 1]])
        )
    )
    sup = detect_support(
        DetectionRequest(
            genus=1, N=5, curve=(0, 1), phi=MappingClass(1, matrix=[[1, 1], [0, 1]])
        )
    )
    ok = (
        cert1.verdict == "certified-nontrivial"
        and cert1.witness is not None
        and bytes1 == bytes2
        and ident.verdict == "inconclusive"
        and "isotopic-curves" in ident.reasons
        and sup.verdict == "certified-nontrivial"
    )
    return _result(
        "end-to-end detection: twist certified (re-verified), identity isotopic",
        ok,
        f"witness coset {cert1.witness['coset'] if cert1.witness else None}",
    )


def check_classical_suite():
    problems = []
    for variant in ("D", "STS"):
        algebra = PoissonAlgebra(variant)
        if not algebra.jacobi_report()["allZero"]:
            problems.append(f"jacobi-{variant}")
        if not algebra.preserves_determinant():
            problems.append(f"det-{variant}")
    if not verify_r_matrix_expansion()["all"]:
        problems.append("r-matrix")
    # the r-matrix equations give the D table exactly and the STS table up
    # to its global sign
    tables = bracket_tables_from_r_matrix()
    if not (tables["D"]["matchesDisplayedTable"] and tables["STS"]["matchesUpToGlobalSign"]):
        problems.append("bracket-tables")
    # moment map constant along 50 random twist steps
    rng = random.Random(42)
    twists = [MappingClass(1, words=TWIST_ALPHA).endo, MappingClass(1, words=TWIST_BETA).endo]
    rep_pt = SL2Rep(1, (SL2Mat(0, 1, -1, 0), SL2Mat(0, 1, -1, 0)))
    mu0 = moment_map(rep_pt)
    cur = rep_pt
    for _ in range(50):
        cur = act_on_rep(rng.choice(twists), cur)
        if moment_map(cur) != mu0:
            problems.append("moment-drift")
            break
    triv = SL2Rep(1, (SL2Mat.identity(), SL2Mat.identity()))
    orb = orbit_closure([triv], [MappingClass(1, words=TWIST_ALPHA), MappingClass(1, words=TWIST_BETA)])
    if rep_dimension(orb, 3) != 27:
        problems.append("dimW")
    return _result(
        "classical suite: Jacobi, r-matrix congruences, moment constancy, dim W",
        not problems,
        f"problems: {problems}" if problems else "exact",
    )


def check_refined_report():
    B = BalancedLattice(build_sigma_g_star(1))
    R = RefinedLattice(B)
    problems = []
    details = []
    for N in (3, 5):
        rep = R.lemma_comparison(N)
        expected_index = N ** 6
        details.append(
            f"N={N}: index={rep['index']} lemmaKernelMatch={rep['kernelFormulaMatches']}"
        )
        if rep["index"] == expected_index:
            # the perfect-square branch must assert the PI-degree N^(3g)
            if not rep["perfectSquare"] or rep["piDegree"] != N ** 3:
                problems.append((N, "pi-degree-not-asserted"))
        else:
            # otherwise the discrepancy report itself is the artifact
            if rep["perfectSquare"] and rep["piDegree"] == N ** 3:
                problems.append((N, "inconsistent-report"))
    return _result(
        "refined lattice report: definitional Kbar^0 with lemma comparison",
        not problems,
        "; ".join(details),
    )


ALL_CHECKS = [
    check_pi_degree_table,
    check_eq_k0,
    check_k_boundary_central,
    check_azumaya_dimension,
    check_chebyshev_frobenius,
    check_support_lemma,
    check_injectivity_lemma,
    check_oracle_equivalence,
    check_detection,
    check_classical_suite,
    check_refined_report,
]


def run_all():
    return [chk() for chk in ALL_CHECKS]
