"""Brute-force full-state enumeration kernels.

The 2^m reference route of curves: every full state of a curve is tested
against every corner piece. All 2^m states form one int used as a bitset,
in which bit x stands for the state whose bitmask is x, so a piece clears
its bad states from all of them in a few big-int operations. In skeinlab
only the brute-force reference route in curves imports this module;
perfbench/worker.py imports it too, to report `USE_NUMBA`.
"""

from __future__ import annotations

from collections import Counter

from .curves import BRUTE_FORCE_MAX_POINTS

# bits of the state bitset decoded at a time when reading off masks
_CHUNK = 512

# There is no compiled kernel; the constant stays because benchmark
# workers report it in their environment line.
USE_NUMBA = False


def _repeat(block, width, total):
    """A `width`-bit block repeated to fill `total` bits (width | total)."""
    while width < total:
        block |= block << width
        width <<= 1
    return block


def _bit_set(p, total):
    """The `total`-bit bitset of the states that have bit p set."""
    half = 1 << p
    return _repeat(((1 << half) - 1) << half, half << 1, total)


def admissible_masks(n_points: int, pieces_a, pieces_b):
    """All bitmasks (bit=1 means state +) passing every piece constraint,
    in increasing order."""
    if n_points > BRUTE_FORCE_MAX_POINTS:
        raise ValueError(
            f"brute-force enumeration capped at {BRUTE_FORCE_MAX_POINTS} points"
        )
    total = 1 << n_points
    alive = (1 << total) - 1
    for a, b in zip(pieces_a, pieces_b):
        # the bad states (+ at a, - at b) repeat with the period of the
        # higher of the two bits
        width = 2 << max(a, b)
        alive &= ~_repeat(_bit_set(a, width) & ~_bit_set(b, width), width, total)
    data = alive.to_bytes((total + 7) >> 3, "little")
    step = _CHUNK >> 3
    masks = []
    for i in range(0, len(data), step):
        chunk = int.from_bytes(data[i:i + step], "little")
        while chunk:
            low = chunk & -chunk
            masks.append((i << 3) + low.bit_length() - 1)
            chunk ^= low
    return masks


def support_from_masks(masks, point_edge, n_edges):
    """Aggregate admissible masks into {k-vector: state count}.

    k(e) = (#plus - #minus) over the points of edge e.
    """
    on_edge = [0] * n_edges
    for pid, e in enumerate(point_edge):
        on_edge[e] |= 1 << pid
    plus_counts = Counter(
        tuple(map(int.bit_count, map(mask.__and__, on_edge))) for mask in masks
    )
    weights = [bits.bit_count() for bits in on_edge]
    return {
        tuple(2 * c - w for c, w in zip(plus, weights)): count
        for plus, count in plus_counts.items()
    }
