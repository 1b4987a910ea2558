"""Work-rest decision policies: one gated rule, five parameter sets.

Every policy decides each worker's slot from its observed backlog q, its
conceptual queue Q, its mood m and its capacity mu_max with one rule:

    work = (q > 0)
         & (m >= theta1)
         & (q * floor(m * mu_max) >= mu_max * floor(theta2 * mu_max))
         & ((q + w * Q) * m * mu_max > k)

A kind sets the gates (theta1, theta2, k, w); every other gate is left at
a value where it always passes (theta1 = theta2 = 0, k = -inf, w = 0):

* ``me``  - max effort: work whenever tasks are pending.
* ``mt``  - mood threshold: theta1 is the knob.
* ``mw``  - mood-and-workload threshold: theta2 is the knob.
* ``ac``  - index rule on backlog pressure only: k = sigma, w = 0.
* ``cpl`` - index rule that adds deferred-work pressure: k = phi, w = 1.

A worker that works spends just enough effort to clear its backlog at the
current mood, capped at 1 (and 1 when mood * mu_max is zero), and
completes min(q, floor(mood * mu_max)) tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import snap_floor_array

# Policy kind -> the name of the one knob it reads, passed to PolicyParams.
KNOB_FIELDS = {"me": None, "mt": "theta1", "mw": "theta2", "ac": "sigma", "cpl": "phi"}
POLICY_KINDS = tuple(KNOB_FIELDS)


@dataclass(frozen=True, init=False)
class PolicyParams:
    """A policy kind and the value of the one knob it reads (0.0 for ``me``),
    passed by its name: ``PolicyParams("cpl", phi=50.0)``."""

    kind: str
    knob_value: float

    def __init__(self, kind: str, **knob: float) -> None:
        if kind not in KNOB_FIELDS:
            raise ValueError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")
        name = KNOB_FIELDS[kind]
        value = knob.pop(name, None)
        if knob:
            raise ValueError(f"{next(iter(knob))} is not a knob of policy {kind!r}")
        if name in ("theta1", "theta2"):
            if value is None or not 0.0 <= value <= 1.0:
                raise ValueError(f"{kind} requires {name} in [0, 1], got {value}")
        elif name is not None and (value is None or not value > 0):
            raise ValueError(f"{kind} requires {name} > 0, got {value}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "knob_value", 0.0 if name is None else value)

    @property
    def knob_name(self) -> str:
        return KNOB_FIELDS[self.kind] or "none"

    @property
    def gates(self) -> tuple[float, float, float, int]:
        """``(theta1, theta2, k, w)`` of the gated rule for this kind."""
        knob, value = KNOB_FIELDS[self.kind], self.knob_value
        return (
            value if knob == "theta1" else 0.0,
            value if knob == "theta2" else 0.0,
            value if knob in ("sigma", "phi") else -math.inf,
            1 if knob == "phi" else 0,
        )


def decide(
    params: PolicyParams,
    q: np.ndarray,
    Q: np.ndarray,
    m: np.ndarray,
    mu_max: np.ndarray,
    floor=snap_floor_array,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-worker effort and tasks completed, for moods in [0, 1]: a worker
    that works completes ``min(q, floor(m * mu_max))``, in integers.

    ``floor`` is the snapping floor; callers may pass their own binding of
    ``snap_floor_array`` so that its calls can be swapped out or timed.
    Raises ``ValueError`` where the ``mw`` gate's int64 products could wrap.
    """
    theta1, theta2, k, w = params.gates
    d = m * mu_max
    fd = floor(d)
    # A gate at its neutral value always passes for moods in [0, 1]; skip it.
    work = q > 0
    if theta1 > 0.0:
        work &= m >= theta1
    if k != -math.inf:
        work &= (q + Q if w else q) * m * mu_max > k
    if theta2 > 0.0:
        # Both int64 products are at most max(q, mu_max) * mu_max, below 2**63 in a run:
        # SimState.from_population keeps q <= backlog_cap and backlog_cap * g, g**2 < 2**63.
        top = int(mu_max.max())
        if (bound := max(int(q.max()), top) * top) >= 2**63:
            raise ValueError(f"mw gate products may reach {bound}, beyond int64 (2**63)")
        work &= q * fd >= mu_max * floor(theta2 * mu_max)
    # The divisor is 1 at d = 0, where working needs q >= 1: effort min(1, q) = 1.
    effort = work * np.minimum(1.0, q / (d + (d == 0.0)))
    return effort, work * np.minimum(q, fd)
