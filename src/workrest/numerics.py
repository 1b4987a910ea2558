"""A floor for products whose decimal value is an integer but whose double is not.

The policies floor a working worker's output cap ``floor(mood * mu_max)`` and
the ``mw`` threshold ``floor(theta2 * mu_max)``. When the decimal product is an
integer, the double can land an ulp *below* it (``0.29 * 100`` is
``28.999999999999996``) and a plain floor would drop a whole task.
``snap_floor_array`` rounds x >= 0 up when it lies within
``min(max(x, 1), 2**47) * 2**-48`` of the next integer. That window is at most
1/2, so every integer maps to itself (``x * 2**-48`` would bump 2**48 by one);
below 2**47 it is a relative 2**-48, far above the rounding of one product
(2**-53); below 2**41 it is under 0.01, the spacing of the 0.01-granular mood and
threshold grids used in experiments. A run's products are at most its largest
capacity g, and g < 2**31.5 < 2**32: ``SimState.from_population`` refuses a run
whose int64 drift sums could reach 2**63, and g**2 <= n * (slots * g)**2 is one.
"""

from __future__ import annotations

import numpy as np

# Relative snap width: generous vs. FP drift, negligible vs. real gaps.
SNAP_RTOL = 2.0 ** -48
SNAP_SCALE_CAP = 2.0 ** 47  # caps the window at 1/2 of a unit


def snap_floor_array(x: np.ndarray) -> np.ndarray:
    """Floor non-negative values, snapping up those a hair below an integer."""
    f = np.floor(x)
    window = np.maximum(x, 1.0)  # in place: fewer temporaries pay for the cap's op
    np.minimum(window, SNAP_SCALE_CAP, out=window)
    window *= SNAP_RTOL
    gap = f + 1.0
    gap -= x
    f += gap <= window
    return f.astype(np.int64)
