"""Kernel-detection pipelines.

Certifies that a mapping class acts nontrivially in the projective
representations attached to finite orbits, by comparing quantum-trace
supports of a curve and its image modulo the central sublattice. A
certificate is sound unconditionally for every orbit admitting a
triangulation lift; that liftability hypothesis is genuinely uncheckable
and is carried as an explicit assumption.

Because the state-sum coefficients of the quantum trace are not pinned
down, only fibers of size one are treated as provably nonzero and empty
fibers as zero; anything else is inconclusive, never "trivial".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import intlinalg
from .curves import (
    BRUTE_FORCE_MAX_POINTS,
    DEFAULT_STATE_CAP,
    NormalCurve,
    StateCapExceeded,
    enumerate_admissible_states,
    enumerate_admissible_states_bruteforce,
    torus_table,
)
from .cyclotomic import Cyclotomic, nth_root_of_unity_root
from .mcg import MappingClass, act_on_curve
from .repvar import SL2Rep, moment_map
from .surface import BalancedLattice, RefinedLattice

ASSUMPTIONS = ("delta-liftable",)


@dataclass
class DetectionRequest:
    genus: int = 1
    N: int = 5
    cell: str = "reduced"
    curve: object = None            # NormalCurve or (p, q) pair
    phi: MappingClass | None = None
    beta: NormalCurve | None = None  # required when phi has no matrix form
    state_cap: int = DEFAULT_STATE_CAP

    def __post_init__(self):
        if self.N < 3 or self.N % 2 == 0:
            raise ValueError("N must be odd and >= 3")
        if self.cell not in ("reduced", "big"):
            raise ValueError("cell must be 'reduced' or 'big'")


@dataclass
class Certificate:
    verdict: str                    # "certified-nontrivial" | "inconclusive"
    method: str
    N: int
    cell: str
    reasons: list = field(default_factory=list)
    witness: dict | None = None
    assumptions: tuple = ASSUMPTIONS
    alpha_coords: tuple = ()
    beta_coords: tuple = ()

    def to_json(self):
        return {
            "verdict": self.verdict,
            "method": self.method,
            "N": self.N,
            "cell": self.cell,
            "reasons": sorted(self.reasons),
            "witness": self.witness,
            "assumptions": list(self.assumptions),
            "alpha": list(self.alpha_coords),
            "beta": list(self.beta_coords),
        }


def _resolve_curves(req: DetectionRequest):
    table = torus_table()
    alpha = req.curve
    if not isinstance(alpha, NormalCurve):
        p, q = alpha
        if req.genus != 1:
            raise ValueError("(p, q) curve input is genus-1 only")
        alpha = table.curve(p, q)
    if req.beta is not None:
        beta = req.beta
    else:
        if req.phi is None:
            raise ValueError("request needs a mapping class or explicit beta")
        if req.phi.matrix is None:
            raise ValueError(
                "for word mapping classes supply beta explicitly (no curve "
                "image algorithm beyond genus one)"
            )
        beta = act_on_curve(req.phi, alpha)
    if alpha.tri is not beta.tri:
        raise ValueError("alpha and beta live on different triangulations")
    if not alpha.is_connected() or alpha.is_empty():
        raise ValueError("alpha must be a connected essential curve")
    return alpha, beta


class _CosetProjector:
    """Projection of balanced maps to K/K^0 (or Kbar/Kbar^0 on the big cell)."""

    def __init__(self, tri, N, cell):
        self.lattice = BalancedLattice(tri)
        self.cell = cell
        if cell == "reduced":
            self.kernel, _, _ = self.lattice.central_sublattice(N)
        else:
            self.kernel = RefinedLattice(self.lattice).kernel_mod(N)

    def project(self, kvec):
        coords = self.lattice.coordinates(list(kvec))
        if self.cell == "big":
            coords = list(coords) + [0]  # khat-component of curve supports is 0
        return intlinalg.reduce_mod_rows(coords, self.kernel)


def _project_fibers(support, projector):
    out = {}
    for kvec, count in support.fibers.items():
        key = projector.project(kvec)
        entry = out.setdefault(key, {"states": 0, "kvecs": []})
        entry["states"] += count
        entry["kvecs"].append(kvec)
    return out


def _find_witness(fib_a, fib_b):
    """A coset with zero states on one side and exactly one on the other."""
    for coset in sorted(set(fib_a) | set(fib_b)):
        sa = fib_a.get(coset, {"states": 0})["states"]
        sb = fib_b.get(coset, {"states": 0})["states"]
        if sa == 0 and sb == 1:
            return coset, False
        if sb == 0 and sa == 1:
            return coset, True
    return None, None


def detect_support(req: DetectionRequest) -> Certificate:
    """Support criterion: a coset with an empty fiber for one curve and a
    singleton fiber for the other certifies nontriviality."""
    alpha, beta = _resolve_curves(req)
    base = Certificate(
        verdict="inconclusive",
        method="support",
        N=req.N,
        cell=req.cell,
        alpha_coords=alpha.coords,
        beta_coords=beta.coords,
    )
    if alpha.coords == beta.coords:
        base.reasons.append("isotopic-curves")
        return base
    # a witness must be re-verified by brute force, so the cap stops there
    cap = min(req.state_cap, BRUTE_FORCE_MAX_POINTS)
    try:
        sup_a = enumerate_admissible_states(alpha, cap=cap)
        sup_b = enumerate_admissible_states(beta, cap=cap)
    except StateCapExceeded:
        base.reasons.append("cap-exceeded")
        return base
    projector = _CosetProjector(alpha.tri, req.N, req.cell)
    fib_a = _project_fibers(sup_a, projector)
    fib_b = _project_fibers(sup_b, projector)
    coset, swapped = _find_witness(fib_a, fib_b)
    if coset is None:
        base.reasons.append("fibers-ambiguous")
        return base
    witness = {
        "coset": list(coset),
        "fiberAlpha": fib_a.get(coset, {"states": 0})["states"],
        "fiberBeta": fib_b.get(coset, {"states": 0})["states"],
        "swapped": swapped,
        "kvec": [
            list(v)
            for side in (fib_a, fib_b)
            for v in side.get(coset, {"kvecs": []})["kvecs"]
        ],
    }
    _reverify_witness(alpha, beta, coset, witness, projector)
    base.verdict = "certified-nontrivial"
    base.witness = witness
    return base


def _reverify_witness(alpha, beta, coset, witness, projector):
    """Recompute both fibers of the witness coset with the independent
    brute-force enumerator before emitting a certificate."""
    for curve, claimed in ((alpha, witness["fiberAlpha"]), (beta, witness["fiberBeta"])):
        sup = enumerate_admissible_states_bruteforce(
            curve, cap=BRUTE_FORCE_MAX_POINTS
        )
        states = 0
        for kvec, count in sup.fibers.items():
            if projector.project(kvec) == coset:
                states += count
        if states != claimed:
            raise AssertionError(
                "certificate re-verification failed: fiber mismatch "
                f"({states} != {claimed})"
            )


def detect_theorem2(req: DetectionRequest) -> Certificate:
    """Bound-based sufficient condition: distinct curves meeting every edge
    at most N-1 times are certified (with the support witness recorded).
    Above the bound the request falls through to the support criterion."""
    alpha, beta = _resolve_curves(req)
    base = Certificate(
        verdict="inconclusive",
        method="theorem2",
        N=req.N,
        cell=req.cell,
        alpha_coords=alpha.coords,
        beta_coords=beta.coords,
    )
    if alpha.coords == beta.coords:
        base.reasons.append("isotopic-curves")
        return base
    bound_ok = (
        alpha.max_edge_weight() <= req.N - 1 and beta.max_edge_weight() <= req.N - 1
    )
    sub = DetectionRequest(
        genus=req.genus,
        N=req.N,
        cell=req.cell,
        curve=alpha,
        beta=beta,
        state_cap=req.state_cap,
    )
    cert = detect_support(sub)
    cert.method = "theorem2" if bound_ok else "theorem2->support"
    if cert.verdict != "certified-nontrivial":
        if bound_ok and "cap-exceeded" not in cert.reasons:
            # the bound guarantees a witness; reaching this is a soundness bug
            raise AssertionError(
                "intersection bound satisfied but no support witness found"
            )
        if not bound_ok:
            cert.reasons.append("bound-exceeded")
    return cert


# ---------------------------------------------------------------------------
# Reduced-cell character space


def reduced_character_space(rep: SL2Rep, N: int):
    """The N central-character lifts of a reduced-cell representation.

    The boundary value is [[0, -z^-N], [z^N, d]]; lifts are (rho, z zeta^j).
    """
    mu = moment_map(rep)
    if not mu.a.is_zero():
        raise ValueError("representation is in the big cell")
    c = mu.c
    out = {
        "cell": "reduced",
        "boundaryLowerLeft": c.to_json(),
        "liftCount": N,
    }
    ru = c.as_root_of_unity()
    if ru is not None:
        z0 = nth_root_of_unity_root(c, N)
        order = z0.order * N if z0.order % N else z0.order
        z0 = z0.embed(order) if order != z0.order else z0
        zeta = Cyclotomic.zeta(order, order // N)
        lifts = []
        z = z0
        for _ in range(N):
            lifts.append(z.to_json())
            z = z * zeta
        out["lifts"] = lifts
    else:
        out["lifts"] = None
        out["note"] = "boundary entry is not a root of unity; lifts kept symbolic"
    return out
