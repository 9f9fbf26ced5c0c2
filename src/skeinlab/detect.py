"""Kernel-detection pipelines.

Certifies that a mapping class acts nontrivially in the projective
representations attached to finite orbits, by comparing quantum-trace
supports of a curve and its image modulo the central sublattice. A
certificate is sound unconditionally for every orbit admitting a
triangulation lift; that liftability hypothesis is genuinely uncheckable
and is carried as an explicit assumption.

Because the state-sum coefficients of the quantum trace are not pinned
down, only fibers of size one are treated as provably nonzero and empty
fibers as zero; anything else is inconclusive, never "trivial". So the
states of each walk-DP table are counted per coset class, straight from
its keys and slots (`_ClassMap`), with no support decoded; only the
k-vectors of the witness candidates, classes with one state on one side
and none on the other, are decoded and put in canonical form, and the
least candidate coset is the witness.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import cached_property, lru_cache
from itertools import accumulate, compress, count
from operator import add
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
    torus_table,
)
from .intlinalg import _clear_column, lattice_cosets_many
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
    # mapping class fixes the boundary-parallel curve. On Delta_1 these are
    # exactly the curves of a torus class, read off the coordinates with
    # no walk; on any other triangulation the curve is walked.
    table = torus_table()
    if curve.tri == table.tri:
        try:
            table.class_of(curve)
        except ValueError:
            raise ValueError(f"{name} must be a connected essential curve") from None
    elif (
        curve.coords == curve.tri.boundary_parallel
        or any(curve.coords[e] for e in curve.tri.boundary_edges)
        or not curve.is_connected()
    ):
        raise ValueError(f"{name} must be a connected essential curve")


def _resolve_curves(req: DetectionRequest):
    """alpha and beta. A matrix class maps alpha, and an explicit beta must
    be that image; a word class maps no curve, so its beta is taken on
    trust (the assumption "beta-is-image"). alpha given by coordinates,
    and an explicit beta, are checked to be connected essential curves
    before a class acts on alpha; a class curve, and so the image of one
    under a matrix class, is one by construction."""
    alpha = req.curve
    if isinstance(alpha, NormalCurve):
        _check_connected("alpha", alpha)
    else:
        alpha = class_curve(req.genus, *alpha)
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
    counter = recount.ResidueRecount(base.basis, kernel, cell, N)
    return _Context(base.basis, kernel, counter, N, cell)


def _sparse(row):
    """{column: entry} of the nonzero entries of a dense row."""
    return {j: row[j] for j in compress(count(), row)}


class _Context(tuple):
    """A detection context: (basis of K, kernel, recount), which also keeps
    the class maps of the pairs of heavy edges that its requests had, the
    last MAX_CLASS_MAPS of them."""

    MAX_CLASS_MAPS = 64

    def __new__(cls, basis, kernel, counter, N, cell):
        self = super().__new__(cls, (basis, kernel, counter))
        self.modulus, self.cell, self.class_maps = 2 * N, cell, {}
        return self

    @cached_property
    def lattice_rows(self):
        """An echelon basis of L, the lattice of edge vectors that the
        witness coset is taken modulo, as sparse rows: row c has its pivot,
        a divisor of m = 2N, in column c, and entries in [0, m) right of
        it. In K-coordinates L is the kernel on the reduced cell and N*K on
        the big one, the closed forms that the recount checks the kernel
        against; each row of L is a combination of K's basis rows, and as
        both factors are triangular, so is their product."""
        basis, kernel, _ = self
        m = self.modulus
        sparse = [_sparse(row) for row in basis]
        rows = []
        for c, b in enumerate(sparse):
            coeffs = _sparse(kernel[c]) if self.cell == "reduced" else {c: m // 2}
            row = {}
            for t, k in coeffs.items():
                for j, x in sparse[t].items():
                    row[j] = row.get(j, 0) + k * x
            row = {j: x % m for j, x in row.items() if j != c and x % m}
            row[c] = coeffs[c] * b[c]
            rows.append(row)
        return rows

    def class_map(self, heavy):
        """The class map for curves whose heavy edges are `heavy`, one edge
        or two, built once."""
        maps = self.class_maps
        if heavy not in maps:
            if len(maps) == self.MAX_CLASS_MAPS:
                del maps[next(iter(maps))]
            maps[heavy] = _ClassMap(self.lattice_rows, heavy, self.modulus)
        return maps[heavy]


class _ClassMap:
    """The class in Z^E/L of each state of a walk-DP table, as an int,
    with no k-vector decoded.

    L has an echelon basis in the column order (other edges..., heavy
    edges), taken from the one in edge order: the heavy edges' rows are
    cleared mod m into the other rows, then into m*e_h. A floor sweep by a
    triangular basis of L is one vector per coset, so its remainders,
    packed as mixed-radix digits, are equal exactly when the cosets are.
    A key carries no k_h, so the digits of the other edges are swept once
    per key, column-wise over the keys; a slot j adds k_h = 2j - w_h to
    column h, which is one of the last two, and so changes only the last
    one or two digits."""

    def __init__(self, rows, heavy, m):
        self.heavy, self.modulus = heavy, m
        n = len(rows)

        def dense(row):
            out = [0] * n
            for j, x in row.items():
                out[j] = x
            return out

        # clear the heavy edges' rows into the other rows, column by column,
        # each pivot row turned dense while it changes
        work = [dense(rows[h]) for h in heavy]
        changed = {}
        for c in range(n):
            if c not in heavy and any(R[c] for R in work):
                changed[c] = _sparse(_clear_column(dense(rows[c]), work, c, m))
        # then into m*e_h, for the last one or two rows
        self.tail = []
        for h in heavy:
            P = [0] * n
            P[h] = m
            self.tail.append(_sparse(_clear_column(P, work, h, m)))
        # (column, pivot, the row's other entries) in sweep order
        self.sweep = []
        for c, row in enumerate(rows):
            if c not in heavy:
                P = changed.get(c, row)
                self.sweep.append((c, P[c], [(j, x) for j, x in P.items() if j != c]))

    def classes(self, support):
        """The class id and state count of each state entry of a walk-DP
        support (a key and one of its nonzero slots), as `_Entries`."""
        table, layout = support.table, support.layout
        keys, values = list(table), list(table.values())
        m, h, w_h = self.modulus, layout.heavy, layout.heavy_weight
        cols = layout.fields(keys)
        cols[h] = [0] * len(keys)
        lead = [0] * len(keys)
        for c, p, rest in self.sweep:
            col = cols[c]
            if p != 1:
                lead = [d * p + x % p for d, x in zip(lead, col)]
            if p != m and rest:
                q = [x % m // p for x in col]
                for j, b in rest:
                    cols[j] = [y - k * b for y, k in zip(cols[j], q)]
        # the last digits, with k_h = 2j - w_h at slot j. With h last
        # (alone, or after the other heavy edge, whose digit is then the
        # key's) a slot moves one digit; with h second to last, a digit
        # whose quotient moves the last one
        entries = _Entries(keys, values, layout)
        spans = entries.spans
        a, d_a = self.heavy[0], self.tail[0][self.heavy[0]]
        if len(self.heavy) == 1:
            base, last, d = [x * d_a for x in lead], cols[a], d_a
        else:
            b = self.heavy[1]
            d_b, e_ab = self.tail[1][b], self.tail[0].get(b, 0)
            if h == b:
                qr = [divmod(x, d_a) for x in cols[a]]
                base = [(x * d_a + r) * d_b for x, (_, r) in zip(lead, qr)]
                last, d = [y - q * e_ab for y, (q, _) in zip(cols[b], qr)], d_b
        if h == self.heavy[-1]:
            ids = [x + (t + 2 * j - w_h) % d for x, t, js in zip(base, last, spans) for j in js]
        else:
            ids = [
                (x * d_a + r) * d_b + (y - q * e_ab) % d_b
                for x, t, y, js in zip(lead, cols[a], cols[b], spans)
                for j in js
                for q, r in (divmod(t + 2 * j - w_h, d_a),)
            ]
        # a slot inside a span may be empty
        entries.ids = list(compress(ids, entries.slots))
        return entries


class _Entries:
    """The state entries of a walk-DP table: each key with each of its
    nonzero slots, key by key, with their state counts, and their class
    ids once the class map sets them. A value's nonzero slots lie between
    its lowest and its highest set bit, so only the slots there are read."""

    def __init__(self, keys, values, layout):
        self.keys, self.layout = keys, layout
        bits = layout.slot_bits
        mask = (1 << bits) - 1
        # the slots j of each value, from its lowest to its highest set bit
        self.spans = [
            range(((v & -v).bit_length() - 1) // bits, (v.bit_length() - 1) // bits + 1)
            for v in values
        ]
        self.slots = [(v >> (bits * j)) & mask for v, js in zip(values, self.spans) for j in js]
        self.counts = list(filter(None, self.slots))
        self.ids = None

    def kvectors(self, selector=None):
        """The k-vectors of the entries that `selector` picks, or of all:
        an entry's position among the slots read gives its key's row, by
        bisection on the spans' ends, and its slot."""
        flat = compress(count(), self.slots)
        flat = list(flat if selector is None else compress(flat, selector))
        ends = list(accumulate(map(len, self.spans)))
        rows = [bisect_right(ends, p) for p in flat]
        w_h = self.layout.heavy_weight
        ks = [2 * (self.spans[i].stop - ends[i] + p) - w_h for i, p in zip(rows, flat)]
        return self.layout.kvectors([self.keys[i] for i in rows], ks)


def _candidates(cmap, sup_a, sup_b):
    """The k-vectors of the classes that hold one state of one support and
    none of the other, as {k-vector: True} for alpha's and {k-vector:
    False} for beta's. Such a class is named by one state entry of the two
    supports, whose count is 1: an entry whose count and number of names
    sum to 2."""
    entries = [cmap.classes(sup) for sup in (sup_a, sup_b)]
    named = Counter()
    for side in entries:
        named.update(side.ids)
    found = {}
    for swapped, side in zip((True, False), entries):
        single = map((2).__eq__, map(add, map(named.__getitem__, side.ids), side.counts))
        found.update(dict.fromkeys(side.kvectors(single), swapped))
    return found


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
    point cap, enumerate both supports, count their states per coset
    class, look for a witness among the candidates and re-verify it."""
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
    context = _detection_context(alpha.tri, req.N, req.cell)
    basis, kernel, counter = context
    heavy = tuple(dict.fromkeys((sup_a.layout.heavy, sup_b.layout.heavy)))
    found = _candidates(context.class_map(heavy), sup_a, sup_b)
    # only the candidates' k-vectors are put in canonical form
    kvecs = list(found)
    cosets = lattice_cosets_many(basis, kernel, kvecs, 1 if req.cell == "big" else 0)
    if cosets is None:
        raise ValueError("vector is not balanced")
    sides = [{c: 1 for c, k in zip(cosets, kvecs) if found[k] is side} for side in (True, False)]
    coset, swapped = _find_witness(*sides)
    if coset is None:
        base.reasons.append("fibers-ambiguous")
        return base
    kvec = kvecs[cosets.index(coset)]
    witness = {
        "coset": list(coset),
        "fiberAlpha": sides[0].get(coset, 0),
        "fiberBeta": sides[1].get(coset, 0),
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
