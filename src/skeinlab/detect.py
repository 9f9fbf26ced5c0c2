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
from functools import lru_cache

from . import intlinalg
from .curves import (
    DEFAULT_STATE_CAP,
    NormalCurve,
    StateCapExceeded,
    enumerate_admissible_states,
    torus_table,
)
from .cyclotomic import Cyclotomic, nth_root_of_unity_root
from .mcg import MappingClass, act_on_curve
from .repvar import SL2Rep, moment_map
from .surface import BalancedLattice, RefinedLattice

ASSUMPTIONS = ("delta-liftable",)


def check_root_order(N):
    """Detection works at a root of unity of odd order N >= 3."""
    if N < 3 or N % 2 == 0:
        raise ValueError("N must be odd and >= 3")


def check_state_cap(cap):
    """A negative point cap admits no curve at all, so it is bad input."""
    if cap < 0:
        raise ValueError(f"cap must be >= 0, not {cap}")


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
        check_root_order(self.N)
        check_state_cap(self.state_cap)
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
        return self.project_all([kvec])[0]

    def project_all(self, kvecs):
        """The canonical coset of each k-vector: K-coordinates and their
        reduction in one column-wise pass over the batch. On the big cell
        the khat-coordinate of a curve's k-vectors is 0."""
        cosets = intlinalg.lattice_cosets_many(
            self.lattice.basis, self.kernel, kvecs, pad=1 if self.cell == "big" else 0
        )
        if cosets is None:
            raise ValueError("vector is not balanced")
        return cosets


@lru_cache(maxsize=32)
def _detection_context(tri, N, cell):
    """The coset projector and the residue recount of (tri, N, cell), built
    once: neither depends on the curves. The cache holds the Triangulation
    itself and hashes it by identity, so separately built triangulations
    never share a context."""
    projector = _CosetProjector(tri, N, cell)
    return projector, _ResidueRecount(projector)


def _project_fibers(support, projector):
    out = {}
    fibers = support.fibers
    kvecs = list(fibers)
    for kvec, key, states in zip(kvecs, projector.project_all(kvecs), fibers.values()):
        entry = out.get(key)
        if entry is None:
            out[key] = {"states": states, "kvecs": [kvec]}
        else:
            entry["states"] += states
            entry["kvecs"].append(kvec)
    return out


def _find_witness(fib_a, fib_b):
    """The least coset with zero states on one side and exactly one on the
    other, and whether alpha's is the one (swapped); (None, None) when no
    coset qualifies."""
    none = {"states": 0}
    found = [
        (coset, True)
        for coset, entry in fib_a.items()
        if entry["states"] == 1 and fib_b.get(coset, none)["states"] == 0
    ]
    found += [
        (coset, False)
        for coset, entry in fib_b.items()
        if entry["states"] == 1 and fib_a.get(coset, none)["states"] == 0
    ]
    return min(found) if found else (None, None)


def detect_support(req: DetectionRequest) -> Certificate:
    """Support criterion: a coset with an empty fiber for one curve and a
    singleton fiber for the other certifies nontriviality."""
    alpha, beta = _resolve_curves(req)
    return _certify(req, alpha, beta, "support")


def _certify(req, alpha, beta, method):
    """The support criterion on resolved curves: enumerate both supports,
    project them to cosets, look for a witness and re-verify it."""
    base = Certificate(
        verdict="inconclusive",
        method=method,
        N=req.N,
        cell=req.cell,
        alpha_coords=alpha.coords,
        beta_coords=beta.coords,
    )
    if alpha.coords == beta.coords:
        base.reasons.append("isotopic-curves")
        return base
    try:
        sup_a = enumerate_admissible_states(alpha, cap=req.state_cap)
        sup_b = enumerate_admissible_states(beta, cap=req.state_cap)
    except StateCapExceeded:
        base.reasons.append("cap-exceeded")
        return base
    projector, recount = _detection_context(alpha.tri, req.N, req.cell)
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
    _reverify_witness(alpha, beta, coset, witness, recount)
    base.verdict = "certified-nontrivial"
    base.witness = witness
    return base


def _reverify_witness(alpha, beta, coset, witness, recount):
    """Recount both fibers of the witness coset with the independent
    residue-class recount before emitting a certificate."""
    target = recount.target(coset)
    for curve, claimed in ((alpha, witness["fiberAlpha"]), (beta, witness["fiberBeta"])):
        states = recount.count(curve, target)
        if states != claimed:
            raise AssertionError(
                "certificate re-verification failed: fiber mismatch "
                f"({states} != {claimed})"
            )


class _ResidueRecount:
    """State counts of a curve at one residue class of Z^E/L, where L is
    the sublattice of edge vectors that the witness coset is taken modulo.

    Reduced cell: L = K^0. Big cell: L = {x in K : (coords(x), 0) in
    Kbar^0}, which is not K^0 in general. L has full rank, so from one
    Smith form D = U L V the residue of v is (v V) mod diag(D): a finite
    group whose size does not grow with the curve. Walks over the curve's
    corner pieces count states by (state of the current point, residue of
    the partial k-vector). They share no code with the walk DP or the
    coset projection, and use no K-coordinates or full k-vectors."""

    def __init__(self, projector):
        self.basis = projector.lattice.basis
        self.khat_row = None
        if projector.cell == "reduced":
            rows = projector.kernel
        else:
            # an echelon basis of Kbar^0 with the khat column first: its
            # first row is the only one with khat != 0
            echelon = intlinalg.hnf([[r[-1], *r[:-1]] for r in projector.kernel])
            self.khat_row = echelon[0]
            rows = [r[1:] for r in echelon[1:]]
        D, _, V = intlinalg.smith_normal_form(intlinalg.mat_mul(rows, self.basis))
        moduli = [D[i][i] for i in range(len(V))]
        assert all(moduli), "the witness sublattice must have full rank"
        # components with d_i = 1 are always 0
        keep = [i for i, d in enumerate(moduli) if d > 1]
        V = [[row[i] for i in keep] for row in V]
        moduli = [moduli[i] for i in keep]
        n = len(moduli)
        # Every d_i divides the largest, M, so component i is stored as
        # c_i * M / d_i mod M, in its own field of `width` bits of one int.
        # Adding two residues leaves every field below 2M <= 2**width with
        # no carry between fields; `_reduce` then takes M off the fields
        # that reached it by adding 2**(width-1) - M and reading their top
        # bits.
        self.modulus = m = max(moduli)
        self.width = w = m.bit_length() + 1
        self.scale = [m // d for d in moduli]
        self.lift = sum(((1 << (w - 1)) - m) << (w * i) for i in range(n))
        self.top = sum(1 << (w * i + w - 1) for i in range(n))
        self.full = sum(m << (w * i) for i in range(n))
        self.transform = V
        # residues of the unit edge vectors and of their negatives
        self.plus = [self.pack(row) for row in V]
        self.minus = [self.pack([-x for x in row]) for row in V]

    def pack(self, components):
        """The residue whose i-th component is components[i] mod d_i."""
        m, w = self.modulus, self.width
        return sum((c * k % m) << (w * i) for i, (c, k) in enumerate(zip(components, self.scale)))

    def target(self, coset):
        """The residue of the edge vectors in the witness coset, or None
        when the coset holds no vector with khat = 0."""
        coords = list(coset)
        if self.khat_row is not None:
            # subtract the multiple of the khat row that clears khat
            q, r = divmod(coords.pop(), self.khat_row[0])
            if r:
                return None
            coords = [c - q * x for c, x in zip(coords, self.khat_row[1:])]
        vec = intlinalg.mat_mul([coords], self.basis)[0]
        return self.pack(intlinalg.mat_mul([vec], self.transform)[0])

    def count(self, curve, target):
        """The number of admissible states of the curve whose k-vector has
        residue `target` (0 for None, a coset with no curve state).

        The longest component is met in the middle: a walk forward from its
        first point and a walk backward from its last point, each keeping
        {residue: states} per state of its current point, are joined across
        the middle piece with one lookup per forward residue. The other
        components are walked fully first, and their product seeds the
        forward walk."""
        if target is None:
            return 0
        geo = curve.geometry()
        walks = [
            ([geo.point_edge[p] for p in points], forward)
            for points, forward in _piece_walks(geo.n_points, geo.pieces)
        ]
        walks.sort(key=lambda walk: len(walk[0]))
        # a component of one point has no middle piece to meet across
        longest = walks.pop() if walks and len(walks[-1][0]) > 1 else None
        seed = {0: 1}
        for walk in walks:
            seed = self._walk_full(seed, walk)
        if longest is None:
            return seed.get(target, 0)
        edges, forward = longest
        n = len(edges)
        h = (n - 1) // 2
        plus, minus = self.plus, self.minus
        # the backward walk adds negated residues and reads each piece from
        # its far end
        behind = [
            (1 if forward[t] else 0, minus[edges[t]], plus[edges[t]])
            for t in range(n - 2, h, -1)
        ]
        ahead = self._ahead(edges, forward, h)
        total = 0
        for first, last in _walk_ends(forward, n):
            total += self._join(
                self._walk(seed, first, plus[edges[0]], minus[edges[0]], ahead),
                self._walk({0: 1}, last, minus[edges[-1]], plus[edges[-1]], behind),
                0 if forward[h] else 1,
                target,
            )
        return total

    def _walk_full(self, seed, walk):
        """{residue: states} of the seed table times one whole component."""
        edges, forward = walk
        n = len(edges)
        up, down = self.plus[edges[0]], self.minus[edges[0]]
        steps = self._ahead(edges, forward, n - 1)
        out = {}
        for first, last in _walk_ends(forward, n):
            tables, offsets = self._walk(seed, first, up, down, steps)
            for s in last:
                self._fold(tables[s], offsets[s], out)
        return out

    def _ahead(self, edges, forward, stop):
        """The steps of a walk from point 0 to point `stop`, each (the state
        at the next point that may follow either state, its residues for +
        and -). A piece forbids (+, -) from its a-point to its b-point:
        after its a-point - follows only -, after its b-point + only +."""
        plus, minus = self.plus, self.minus
        return [
            (0 if forward[t] else 1, plus[edges[t + 1]], minus[edges[t + 1]])
            for t in range(stop)
        ]

    def _walk(self, seed, states, up, down, steps):
        """A walk that starts with the seed table in each of `states` (0 for
        +, 1 for -) at a first point of residues `up` and `down`. Returns
        one {key: states} table per state at the last point and the offset
        that its keys are relative to, so that a step moves offsets and
        folds one table into the other, touching no other entry."""
        tables = [dict(seed) if s in states else {} for s in (0, 1)]
        offsets = [up, down]
        reduce = self._reduce
        for keep, up, down in steps:
            other = 1 - keep
            self._fold(tables[other], self._diff(offsets[other], offsets[keep]), tables[keep])
            offsets = [reduce(offsets[0] + up), reduce(offsets[1] + down)]
        return tables, offsets

    def _join(self, ahead, behind, middle, target):
        """States whose forward and backward halves sum to the target, when
        the middle piece forbids `middle` before it with the other state
        after it. Backward keys plus offsets are negated residues."""
        (tables, offsets), (back, back_offsets) = ahead, behind
        other = 1 - middle
        # after `other` either state may follow, after `middle` only itself
        self._fold(back[middle], self._diff(back_offsets[middle], back_offsets[other]), back[other])
        lift, top, m, high = self.lift, self.top, self.modulus, self.width - 1
        minus_target = self._diff(0, target)
        total = 0
        for s in (0, 1):
            # a forward key r needs the backward key r + delta
            delta = self._reduce(self._diff(offsets[s], back_offsets[s]) + minus_target)
            get = back[s].get
            for key, count in tables[s].items():
                key += delta
                key -= (((key + lift) & top) >> high) * m
                total += count * get(key, 0)
        return total

    def _fold(self, table, delta, into):
        """`into` plus every (key + delta, count) of `table`."""
        lift, top, m, high = self.lift, self.top, self.modulus, self.width - 1
        get = into.get
        for key, count in table.items():
            key += delta
            key -= (((key + lift) & top) >> high) * m
            into[key] = get(key, 0) + count

    def _reduce(self, key):
        """The residue of a sum of two residues."""
        return key - (((key + self.lift) & self.top) >> (self.width - 1)) * self.modulus

    def _diff(self, a, b):
        """The residue a - b: every field of full - b lies in 1..M."""
        return self._reduce(a + self.full - b)


def _walk_ends(forward, n):
    """(states at the first point, states allowed at the last point) of the
    walks that make up one component of n points: one walk for an open
    component, one per first state for a closed one, whose closing piece
    forbids `close` at the last point with the other state at the first."""
    if len(forward) < n:
        return [((0, 1), (0, 1))]
    close = 0 if forward[-1] else 1
    return [((close,), (0, 1)), ((1 - close,), (1 - close,))]


def _piece_walks(n_points, pieces):
    """Curve components from the corner pieces alone: (points, forward)
    per component, with points in walk order and forward[t] telling
    whether the piece from points[t] to the next point starts at its
    a-point. A closed component has one piece per point, an open one a
    piece fewer."""
    at = [[] for _ in range(n_points)]
    for q, (pa, pb, *_) in enumerate(pieces):
        at[pa].append(q)
        at[pb].append(q)
    used = [False] * len(pieces)
    walks = []
    # open paths from their endpoints first, then the closed cycles; a
    # walk uses up every piece of its points, so a point's pieces are all
    # used or all unused, and the next piece is the other one at a point
    for start in [p for p in range(n_points) if len(at[p]) == 1] + list(range(n_points)):
        q = at[start][0]
        if used[q]:
            continue
        points, forward = [start], []
        p = start
        while True:
            used[q] = True
            pa, pb = pieces[q][:2]
            forward.append(p == pa)
            p = pb if p == pa else pa
            if p == start:
                break
            points.append(p)
            here = at[p]
            q = here[-1] if here[0] == q else here[0]
            if used[q]:  # the end of an open path
                break
        walks.append((points, forward))
    return walks


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
