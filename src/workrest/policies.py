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
current mood, q / max(mood * mu_max, 1) capped at 1 (its q is at least 1, so
the effort is 1 wherever mood * mu_max <= 1), and completes
min(q, floor(mood * mu_max)) tasks.
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
    passed by its name: ``PolicyParams("cpl", phi=50.0)``; sigma and phi are
    finite. ``gates`` is the kind's ``(theta1, theta2, k, w)`` in the gated rule,
    worked out once since ``decide`` reads it every slot."""

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
        elif value == math.inf:
            raise ValueError(f"{kind} requires a finite {name}, got {value}")
        value = 0.0 if name is None else value
        # Frozen: set through the instance dict, in a fixed order, so pickles are stable.
        self.__dict__.update(kind=kind, knob_value=value, knob_name=name or "none", gates=(
            value if name == "theta1" else 0.0,
            value if name == "theta2" else 0.0,
            value if name in ("sigma", "phi") else -math.inf,
            1 if name == "phi" else 0,
        ))


def decide(
    params: PolicyParams,
    q: np.ndarray,
    Q: np.ndarray,
    m: np.ndarray,
    mu_max: np.ndarray,
    floor=snap_floor_array,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-worker effort and tasks completed, for moods in [0, 1]: a worker that
    works spends ``min(1, q / max(m * mu_max, 1))``, 1 wherever ``m * mu_max <= 1``
    as its q is at least 1, and completes ``min(q, floor(m * mu_max))``, in integers.
    A worker with q = 0 completes 0 and spends +0.0, whatever its gates say.

    ``floor`` is the snapping floor; callers may pass their own binding of
    ``snap_floor_array`` so that its calls can be swapped out or timed.
    Raises ``ValueError`` where the ``mw`` gate's int64 products could wrap.
    """
    theta1, theta2, k, w = params.gates
    d = m * mu_max
    fd = floor(d)
    # A gate at its neutral value always passes for moods in [0, 1]; skip it.
    work = True
    if theta1 > 0.0:
        work = work & (m >= theta1)
    if k != -math.inf:
        work = work & ((q + Q if w else q) * m * mu_max > k)
    if theta2 > 0.0:
        # Both int64 products are at most max(q, mu_max) * mu_max, below 2**63 in a run:
        # SimState.from_population keeps q <= backlog_cap and backlog_cap * g, g**2 < 2**63.
        top = int(np.maximum.reduce(mu_max))
        if (bound := max(int(np.maximum.reduce(q)), top) * top) >= 2**63:
            raise ValueError(f"mw gate products may reach {bound}, beyond int64 (2**63)")
        work = work & (q * fd >= mu_max * floor(theta2 * mu_max))
    # One mask, no q > 0 gate: q * work is 0 where a worker rests or q = 0, so effort is +0.0.
    q_work = q * work
    return np.minimum(1.0, q_work / np.maximum(d, 1.0)), np.minimum(q_work, fd)
