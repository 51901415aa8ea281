"""Closed-form oracles of the model horseshoe map's vertical strips.

The strips' x1 footprints and the components of a horizontal leaf
follow from the two affine bands' horizontal actions alone; only the
tests use them.
"""

import numpy as np

from attractorlab.horseshoe import _BANDS, _X1


def leaf_strip_intervals(depth: int, contraction: float = 0.2) -> np.ndarray:
    """x1 footprints of the 2^depth vertical strips of the iterated model.

    Every binary word is admissible because each band's image spans the
    full height of the core, so the intervals are the images of the
    core's x1 span under all depth-fold compositions of the two bands'
    horizontal actions, lam * x1 (S0) and -lam * x1 - 3.2 (S1).
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    lam = float(contraction)
    intervals = np.array([_X1])
    for _ in range(depth):
        intervals = np.sort(np.vstack([lam * intervals,
                                       -lam * intervals - 3.2]), axis=1)
    return intervals[np.argsort(intervals[:, 0])]


def leaf_component_count(depth: int, x2_level: float = 1.0,
                         contraction: float = 0.2) -> int:
    """Components of the model's depth-n region cut by a horizontal leaf.

    The leaf meets each vertical strip in its x1 footprint, so the count
    is one plus the number of positive gaps between consecutive sorted
    footprints (touching ones merge).  Valid for leaf levels strictly
    inside the core's vertical extent.
    """
    if not _BANDS[0] < x2_level < _BANDS[3]:
        raise ValueError("leaf level must lie inside the core")
    steps = np.diff(leaf_strip_intervals(depth, contraction).ravel())
    if np.any(steps < 0):
        raise RuntimeError("strip intervals overlap; cannot count")
    return 1 + int(np.count_nonzero(steps[1::2] > 0))
