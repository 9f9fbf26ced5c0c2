"""Brute-force full-state enumeration kernels.

This is the package's hot numeric loop: filtering all 2^m full states of
a curve against the per-piece bad-arc constraint, in chunked numpy. Only
the brute-force reference route in curves imports this module, so numpy
loads only when a curve is enumerated that way.
"""

from __future__ import annotations

import numpy as np

from .curves import BRUTE_FORCE_MAX_POINTS

_CHUNK = 1 << 18

# There is no compiled kernel; the constant stays because benchmark
# workers report it in their environment line.
USE_NUMBA = False


def admissible_masks(n_points: int, pieces_a, pieces_b):
    """All bitmasks (bit=1 means state +) passing every piece constraint."""
    pa = np.asarray(pieces_a, dtype=np.int64)
    pb = np.asarray(pieces_b, dtype=np.int64)
    if n_points > BRUTE_FORCE_MAX_POINTS:
        raise ValueError(
            f"brute-force enumeration capped at {BRUTE_FORCE_MAX_POINTS} points"
        )
    total = 1 << n_points
    parts = []
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        ok = np.ones(masks.shape, dtype=bool)
        for t in range(pa.shape[0]):
            bad = (((masks >> pa[t]) & 1) == 1) & (((masks >> pb[t]) & 1) == 0)
            ok &= ~bad
        parts.append(masks[ok])
    return np.concatenate(parts)


def support_from_masks(masks, point_edge, n_edges):
    """Aggregate admissible masks into {k-vector: state count}.

    k(e) = (#plus - #minus) over the points of edge e.
    """
    masks = np.asarray(masks, dtype=np.int64)
    if masks.size == 0:
        return {}
    kvecs = np.zeros((masks.size, n_edges), dtype=np.int64)
    for pid, e in enumerate(point_edge):
        kvecs[:, e] += ((masks >> pid) & 1) * 2 - 1
    uniq, counts = np.unique(kvecs, axis=0, return_counts=True)
    return {
        tuple(int(x) for x in row): int(c) for row, c in zip(uniq, counts)
    }
