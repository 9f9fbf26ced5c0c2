"""State counts of a curve at one residue class of Z^E/L, where L is
the sublattice of edge vectors that the witness coset is taken modulo.

Reduced cell: L = K^0 = N*K + Z*k_boundary. Big cell: L = {x in K :
(coords(x), 0) in Kbar^0} = N*K, which is not K^0. The kernel rows must
span that closed form, or nothing is counted. L contains N*K, hence
2N*Z^E, so from one diagonalization U L V == diag(d) mod 2N the residue
of v is (v V)_i mod gcd(d_i, 2N): a finite group whose size does not
grow with the curve. One walk forward and one back over the curve's
corner pieces count states by (state of the current point, residue of
the partial k-vector). They share no code with the walk DP or with
detection's coset classes and canonical forms, and use no
K-coordinates or full k-vectors: this module imports nothing of skeinlab
but `intlinalg`, and is built from the basis rows of K, the kernel rows,
the cell and N alone."""

from __future__ import annotations

from math import gcd

from . import intlinalg


def reverify_witness(alpha, beta, coset, witness, recount):
    """Recount both fibers of the witness coset with the independent
    residue-class recount before emitting a certificate: one walk pair per
    curve (`ResidueRecount.count`)."""
    target = recount.target(coset)
    for curve, claimed in ((alpha, witness["fiberAlpha"]), (beta, witness["fiberBeta"])):
        states = recount.count(curve, target)
        if states != claimed:
            raise AssertionError(
                "certificate re-verification failed: fiber mismatch "
                f"({states} != {claimed})"
            )


class ResidueRecount:
    """The residue group of L, from the rows of a basis of K and of the
    mod-N kernel (of K, or of Kbar on the big cell) in its coordinates,
    checked against L's closed form before anything is counted."""

    def __init__(self, basis, kernel, cell, N):
        self.basis = basis
        self.khat_row = None
        n = len(basis)
        if cell == "reduced":
            rows = kernel
            closed = [intlinalg.lattice_coordinates(basis, [2] * len(basis[0]))]
        else:
            # an echelon basis of Kbar^0 with the khat column first: its
            # first row is the only one with khat != 0. It is taken over Z,
            # not mod N: stacking the rows on N*Z^(n+1) would fill in a
            # kernel that is too small, and the check below would pass it
            echelon = intlinalg.hnf([[r[-1], *r[:-1]] for r in kernel])
            self.khat_row = echelon[0]
            rows = [r[1:] for r in echelon[1:]]
            closed = []
        # L is N*K + Z*k_boundary on the reduced cell and N*K on the big
        # one (an echelon mod N would add N*Kbar to a kernel that lacks it)
        if rows != intlinalg.hnf_mod(closed, N, n):
            raise AssertionError(
                "certificate re-verification failed: the kernel does not span "
                f"the witness lattice of the {cell} cell"
            )
        # L contains N*K, which contains 2N*Z^E, so the residue of v is
        # (v V)_i mod m_i = gcd(d_i, 2N) for the diagonalization mod 2N.
        # Component i is stored as (v V)_i * 2N / m_i mod M = 2N, in its own
        # field of `width` bits of one int; components with m_i = 1 are
        # always 0 and are dropped (K, hence L, has index > 1 in Z^E, so
        # some component is kept). Adding two residues leaves every field
        # below 2M <= 2**width with no carry between fields; `_reduce` then
        # takes M off the fields that reached it by adding 2**(width-1) - M
        # and reading their top bits.
        d, columns = intlinalg.diagonalize_mod(intlinalg.mat_mul(rows, basis), 2 * N)
        self.modulus = m = 2 * N
        self.width = w = m.bit_length() + 1
        scaled = [
            [x * s % m for x in col]
            for s, col in zip((m // gcd(x, m) for x in d), columns)
            if s < m
        ]
        k = len(scaled)
        V = intlinalg.transpose(scaled)
        self.lift = sum(((1 << (w - 1)) - m) << (w * i) for i in range(k))
        self.top = sum(1 << (w * i + w - 1) for i in range(k))
        self.full = sum(m << (w * i) for i in range(k))
        self.transform = V
        # residues of the unit edge vectors and of their negatives
        self.plus = [self.pack(row) for row in V]
        self.minus = [self._diff(0, r) for r in self.plus]

    def pack(self, components):
        """The residue whose i-th component is components[i] mod M."""
        m, w = self.modulus, self.width
        return sum((c % m) << (w * i) for i, c in enumerate(components))

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
        return self.residue(intlinalg.mat_mul([coords], self.basis)[0])

    def residue(self, vec):
        """The residue of an edge vector."""
        return self.pack(intlinalg.mat_mul([vec], self.transform)[0])

    def count(self, curve, target):
        """The number of admissible states of the connected closed curve
        whose k-vector has residue `target` (0 for None, a coset with no
        curve state).

        The states are met in the middle: a walk forward from the curve's
        first point and a walk backward from its last point, each keeping
        {residue: states} per state of its current point, are joined across
        the middle piece with one lookup per forward residue.

        The closing piece forbids `close` at the last point with the other
        state at the first, so there are two runs: the first point at
        `close` with any last state, and both at the other state. One walk
        pair counts both, in fields of s = m + 2 bits of each count (m
        points, so no field outgrows 2**(m + 1)): ahead, the first point at
        `close` counts 1 and at the other state 2**s; behind, the last
        point at `close` counts 2**s and at the other state 1 + 2**s. A
        product's middle field then counts the pairs of one run, and the
        join's sum holds the total there."""
        walks = _piece_walks(curve.n_points, curve.pieces)
        if len(walks) != 1:
            raise ValueError(f"the recount counts one curve component, not {len(walks)}")
        if target is None:
            return 0
        points, forward = walks[0]
        edges = [curve.point_edge[p] for p in points]
        h = (len(edges) - 1) // 2
        middle = 0 if forward[h] else 1
        close = 0 if forward[-1] else 1
        s = len(edges) + 2
        field = 1 << s

        def starts(at_close, at_other):
            return (at_close, at_other) if close == 0 else (at_other, at_close)

        ahead = self._walk(starts(1, field), edges, forward, h, back=False)
        behind = self._walk(starts(field, 1 + field), edges, forward, h, back=True)
        return (self._join(ahead, behind, middle, target) >> s) & (field - 1)

    def _walk(self, starts, edges, forward, h, back):
        """A walk that starts with count starts[s] in state s (0 for +, 1
        for -): forward from point 0 to point h, or back from the last
        point to point h + 1, adding negated residues. Returns one
        {key: states} table per state at the last point and the offset that
        its keys are relative to, so that a step moves offsets and folds one
        table into the other, touching no other entry. A piece forbids
        (+, -) from its a-point to its b-point: after its a-point - follows
        only -, after its b-point + only +."""
        up, down = (self.minus, self.plus) if back else (self.plus, self.minus)
        tables = [{0: n} for n in starts]
        offsets = [up[edges[-back]], down[edges[-back]]]
        reduce = self._reduce
        # piece t joins points t and t + 1; a step enters the point across it
        for t in range(len(edges) - 2, h, -1) if back else range(h):
            keep = int(forward[t] == back)  # the state that may follow either state
            other, e = 1 - keep, edges[t + 1 - back]
            self._fold(tables[other], self._diff(offsets[other], offsets[keep]), tables[keep])
            offsets = [reduce(offsets[0] + up[e]), reduce(offsets[1] + down[e])]
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


def _piece_walks(n_points, pieces):
    """The closed curve components from the corner pieces alone: (points,
    forward) per component, with points in walk order and forward[t]
    telling whether the piece from points[t] to the next point starts at
    its a-point; the last piece returns to points[0]. Every point must lie
    on two pieces: the ends of an open component lie on one."""
    at = [[] for _ in range(n_points)]
    for q, (pa, pb, *_) in enumerate(pieces):
        at[pa].append(q)
        at[pb].append(q)
    if any(len(qs) != 2 for qs in at):
        raise ValueError("the recount counts closed curves, and this one has open ends")
    used = [False] * len(pieces)
    walks = []
    # a walk uses up both pieces of each of its points, and the next piece
    # is the other one at a point
    for start in range(n_points):
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
        walks.append((points, forward))
    return walks
