"""Kernel-detection pipelines.

Certifies that a mapping class acts nontrivially in the projective
representations attached to finite orbits, by comparing quantum-trace
supports of a curve and its image modulo the central sublattice. A
certificate is sound unconditionally for every orbit admitting a
triangulation lift; that liftability hypothesis is genuinely uncheckable
and is carried as an explicit assumption.

Because the state-sum coefficients of the quantum trace are not pinned
down, only fibers of size one are treated as provably nonzero and empty
fibers as zero; anything else is inconclusive, never "trivial". So each
support is projected to a count of states per coset, and the witness
coset's single k-vector is read back from the curve that owns it.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

from . import recount
from .curves import (
    DEFAULT_STATE_CAP,
    NormalCurve,
    StateCapExceeded,
    check_point_cap,
    check_state_cap,
    class_curve,
    enumerate_admissible_states,
)
from .intlinalg import lattice_cosets_many
from .mcg import act_on_curve
from .surface import BalancedLattice, RefinedLattice, check_cell, check_genus, check_root_order

ASSUMPTIONS = ("delta-liftable",)
# a word class maps no curve here, so its explicit beta cannot be checked
WORD_ASSUMPTIONS = ASSUMPTIONS + ("beta-is-image",)


class DetectionRequest:
    """curve: a NormalCurve or (p, q); phi: a MappingClass; beta: needed when phi has no matrix."""

    genus = 1
    N = 5
    cell = "reduced"
    state_cap = DEFAULT_STATE_CAP

    def __init__(
        self, genus=genus, N=N, cell=cell, curve=None, phi=None, beta=None, state_cap=state_cap
    ):
        self.genus, self.N, self.cell, self.state_cap = genus, N, cell, state_cap
        self.curve, self.phi, self.beta = curve, phi, beta
        check_genus(genus)
        check_root_order(N)
        check_state_cap(state_cap)
        check_cell(cell)
        # a (p, q) curve takes the request's genus; a curve or a mapping
        # class carries its own, which must be the request's
        carried = [
            (name, c.tri.genus)
            for name, c in (("curve", curve), ("beta", beta))
            if isinstance(c, NormalCurve)
        ]
        if phi is not None:
            carried.append(("phi", phi.genus))
        for name, carried_genus in carried:
            if carried_genus != genus:
                raise ValueError(
                    f"{name} has genus {carried_genus}, but the request has genus {genus}"
                )


class Certificate(SimpleNamespace):
    """A verdict, "certified-nontrivial" or "inconclusive", and the evidence to_json lists."""

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


def _check_connected(name, curve):
    # a homeomorphism maps a connected essential curve to one; an empty
    # curve has no component, an arc ends on the boundary, and every
    # mapping class fixes the boundary-parallel curve
    if (
        curve.coords == curve.tri.boundary_parallel
        or any(curve.coords[e] for e in curve.tri.boundary_edges)
        or not curve.is_connected()
    ):
        raise ValueError(f"{name} must be a connected essential curve")


def _resolve_curves(req: DetectionRequest):
    """alpha and beta. A matrix class maps alpha, and an explicit beta must
    be that image; a word class maps no curve, so its beta is taken on
    trust (the assumption "beta-is-image"). alpha, and an explicit beta,
    are checked to be connected essential curves before a class acts on
    alpha; the image of one under a matrix class is a class curve."""
    alpha = req.curve
    if not isinstance(alpha, NormalCurve):
        alpha = class_curve(req.genus, *alpha)
    _check_connected("alpha", alpha)
    beta = req.beta
    if beta is not None:
        _check_connected("beta", beta)
    if req.phi is not None and req.phi.matrix is not None:
        image = act_on_curve(req.phi, alpha)
        if beta is None:
            beta = image
        elif beta.coords != image.coords:
            raise ValueError(
                f"beta {list(beta.coords)} is not the image {list(image.coords)} "
                "of the curve under phi"
            )
    elif beta is None:
        if req.phi is None:
            raise ValueError("request needs a mapping class or explicit beta")
        beta = act_on_curve(req.phi, alpha)  # refuses a word class
    if alpha.tri != beta.tri:
        raise ValueError("alpha and beta live on different triangulations")
    return alpha, beta


@lru_cache(maxsize=32)
def _detection_context(tri, N, cell):
    """The basis rows of K, the mod-N kernel (of K, or of Kbar on the big
    cell) in K-coordinates and the residue recount of (tri, N, cell), built
    once: none depends on the curves. Triangulations compare by their
    faces, so equal ones share a context."""
    base = BalancedLattice(tri)
    kernel = (base if cell == "reduced" else RefinedLattice(base)).kernel_mod(N)
    return base.basis, kernel, recount.ResidueRecount(base.basis, kernel, cell, N)


def _coset_states(support, basis, kernel, cell):
    """The canonical coset of each k-vector of the support, in fiber order,
    and {coset: number of states}. K-coordinates and their reduction mod
    the kernel come in one column-wise pass over the batch; on the big cell
    the khat-coordinate of a curve's k-vectors is 0."""
    pad = 1 if cell == "big" else 0
    cosets = lattice_cosets_many(basis, kernel, list(support.fibers), pad)
    if cosets is None:
        raise ValueError("vector is not balanced")
    states = {}
    for coset, n in zip(cosets, support.fibers.values()):
        states[coset] = states.get(coset, 0) + n
    return cosets, states


def _find_witness(fib_a, fib_b):
    """The least coset with zero states on one side and exactly one on the
    other, and whether alpha's is the one (swapped); (None, None) when no
    coset qualifies. A missing coset has zero states."""
    found = [(coset, True) for coset, n in fib_a.items() if n == 1 and not fib_b.get(coset)]
    found += [(coset, False) for coset, n in fib_b.items() if n == 1 and not fib_a.get(coset)]
    return min(found) if found else (None, None)


def detect_support(req: DetectionRequest) -> Certificate:
    """Support criterion: a coset with an empty fiber for one curve and a
    singleton fiber for the other certifies nontriviality."""
    alpha, beta = _resolve_curves(req)
    return _certify(req, alpha, beta, "support")


def _certify(req, alpha, beta, method):
    """The support criterion on resolved curves: check both against the
    point cap, enumerate both supports, project them to cosets, look for a
    witness and re-verify it."""
    word_class = req.phi is not None and req.phi.endo is not None
    base = Certificate(
        verdict="inconclusive",
        method=method,
        N=req.N,
        cell=req.cell,
        assumptions=WORD_ASSUMPTIONS if word_class else ASSUMPTIONS,
        alpha_coords=alpha.coords,
        beta_coords=beta.coords,
        reasons=[],
        witness=None,
    )
    if alpha.coords == beta.coords:
        base.reasons.append("isotopic-curves")
        return base
    try:
        # both curves, before either DP: a refused beta wastes no alpha DP
        check_point_cap(alpha, req.state_cap)
        check_point_cap(beta, req.state_cap)
    except StateCapExceeded:
        base.reasons.append("cap-exceeded")
        return base
    sup_a = enumerate_admissible_states(alpha, cap=req.state_cap)
    sup_b = enumerate_admissible_states(beta, cap=req.state_cap)
    basis, kernel, counter = _detection_context(alpha.tri, req.N, req.cell)
    cosets_a, fib_a = _coset_states(sup_a, basis, kernel, req.cell)
    cosets_b, fib_b = _coset_states(sup_b, basis, kernel, req.cell)
    coset, swapped = _find_witness(fib_a, fib_b)
    if coset is None:
        base.reasons.append("fibers-ambiguous")
        return base
    # the witness coset holds one state of one curve, hence one k-vector
    sup, cosets = (sup_a, cosets_a) if swapped else (sup_b, cosets_b)
    kvec = next(k for k, c in zip(sup.fibers, cosets) if c == coset)
    witness = {
        "coset": list(coset),
        "fiberAlpha": fib_a.get(coset, 0),
        "fiberBeta": fib_b.get(coset, 0),
        "swapped": swapped,
        "kvec": [list(kvec)],
    }
    recount.reverify_witness(alpha, beta, coset, witness, counter)
    base.verdict = "certified-nontrivial"
    base.witness = witness
    return base


def detect_theorem2(req: DetectionRequest) -> Certificate:
    """Bound-based sufficient condition: distinct curves meeting every edge
    at most N-1 times are certified (with the support witness recorded).
    Above the bound the request falls through to the support criterion."""
    alpha, beta = _resolve_curves(req)
    cert = _certify(req, alpha, beta, "theorem2")
    if "isotopic-curves" in cert.reasons:
        return cert
    certified = cert.verdict == "certified-nontrivial"
    if max(alpha.max_edge_weight(), beta.max_edge_weight()) > req.N - 1:
        cert.method = "theorem2->support"
        if not certified:
            cert.reasons.append("bound-exceeded")
    elif not certified and "cap-exceeded" not in cert.reasons:
        # the bound guarantees a witness; reaching this is a soundness bug
        raise AssertionError(
            "intersection bound satisfied but no support witness found"
        )
    return cert
