"""Floor helpers that recover integer-valued products from rounded doubles.

The task-output formula floors a product of the form ``min(1, q/d) * d``
whose exact value is the integer ``q`` whenever the min does not clamp.
IEEE doubles round the quotient, so the recomputed product lands up to a
couple of ulps *below* q roughly half the time and a plain floor would
drop a whole task. ``snap_floor_array`` rounds up when a value sits within
a relative 2**-48 of the next integer, which is far above the worst-case
drift of a divide/multiply round trip (a few ulps) and far below the
spacing of the 0.01-granular mood/threshold grids used in experiments
(>= 0.01 from any integer unless exactly integral).
"""

from __future__ import annotations

import numpy as np

# Relative snap width: generous vs. FP drift, negligible vs. real gaps.
SNAP_RTOL = 2.0 ** -48


def snap_floor_array(x: np.ndarray) -> np.ndarray:
    """Floor non-negative values, snapping up those a hair below an integer."""
    f = np.floor(x)
    snap = (f + 1.0) - x <= np.maximum(x, 1.0) * SNAP_RTOL
    return (f + snap).astype(np.int64)
