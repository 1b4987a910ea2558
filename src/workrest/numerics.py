"""A floor for products whose decimal value is an integer but whose double is not.

The policies floor two products of a fraction and a capacity: a working
worker's output cap ``floor(mood * mu_max)`` and the ``mw`` threshold
``floor(theta2 * mu_max)``. When the decimal product is an integer, the
double can land an ulp *below* it (``0.29 * 100`` is ``28.999999999999996``)
and a plain floor would drop a whole task. ``snap_floor_array`` rounds up
when a value sits within a relative 2**-48 of the next integer, which is far
above the rounding of one product (2**-53) and far below the spacing of the
0.01-granular mood/threshold grids used in experiments (>= 0.01 from any
integer unless exactly integral).
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
