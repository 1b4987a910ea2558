"""In-memory span recording around the calls into workrest's layers.

A span is (name, start, end, parent). Spans live in flat arrays while the
benchmark runs and are written out once, at the end. Nothing inside
``src/`` is instrumented: the traced pass swaps the module attributes the
engine looks up on every slot for timing wrappers, and puts the originals
back when the pass ends.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Span name -> attribute of ``workrest.engine`` that ``_step_arrays`` calls
# once (``numerics.snap_floor``: once, or three times for ``mw``) per slot.
ENGINE_LAYERS = {
    "delegation.apportion": "apportion",
    "delegation.weights": "delegation_weights",
    "rng.moods": "uniform01_array",
    "numerics.snap_floor": "snap_floor_array",
    "engine.drift": "drift_bound_sides",
}


class Tracer:
    """Append-only span store; ``parent`` is the index of the enclosing span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("q")
        self._open: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a finished span under the currently open one."""
        self.name_id.append(self._intern(name))
        self.start_ns.append(start_ns)
        self.end_ns.append(end_ns)
        self.parent.append(self._open[-1] if self._open else -1)

    @contextmanager
    def span(self, name: str):
        index = len(self.start_ns)
        self.add(name, time.perf_counter_ns(), -1)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.end_ns[index] = time.perf_counter_ns()

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    def durations_ns(self, name: str, since: int = 0) -> np.ndarray:
        """Durations of the spans called ``name`` recorded at index >= ``since``."""
        if name not in self._name_ids:
            return np.zeros(0, dtype=np.int64)
        ids = np.frombuffer(self.name_id, dtype=np.int64)[since:]
        mask = ids == self._name_ids[name]
        start = np.frombuffer(self.start_ns, dtype=np.int64)[since:][mask]
        end = np.frombuffer(self.end_ns, dtype=np.int64)[since:][mask]
        return end - start

    def __len__(self) -> int:
        return len(self.start_ns)

    def write(self, path, record: dict) -> None:
        """Write every span, column-wise, plus the run record, as one JSON file."""
        doc = {
            "record": record,
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "name": self.name_id.tolist(),
            "start_ns": self.start_ns.tolist(),
            "end_ns": self.end_ns.tolist(),
            "parent": self.parent.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class TimedMoods:
    """Mood source that delegates to ``CounterMoods`` and records each slot.

    The engine asks for moods once per slot, so the interval between two
    calls within one run is one slot; it is recorded as an ``engine.slot``
    span.
    """

    def __init__(self, seed: int, tracer: Tracer, counter_moods):
        self._moods = counter_moods(seed)
        self._tracer = tracer
        self._last_ns: int | None = None

    def __call__(self, slot, ids):
        now = time.perf_counter_ns()
        if self._last_ns is not None:
            self._tracer.add("engine.slot", self._last_ns, now)
        self._last_ns = now
        return self._moods(slot, ids)


@contextmanager
def patched(replacements):
    """Set ``(module, attribute, make_replacement)`` triples, restoring on exit.

    ``make_replacement`` receives the original value. An attribute the
    module does not have raises ``AttributeError``: a layer that is no
    longer looked up under its name must fail the traced run, not report
    zero calls.
    """
    saved = []
    try:
        for module, attr, make in replacements:
            if not hasattr(module, attr):
                raise AttributeError(f"{module.__name__} has no attribute {attr!r} to trace")
            original = getattr(module, attr)
            setattr(module, attr, make(original))
            saved.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def instrument_engine(tracer: Tracer):
    """Wrap the per-slot callables of ``workrest.engine`` for one traced pass."""
    from workrest import engine

    replacements = [
        (engine, attr, lambda fn, name=name: tracer.wrap(name, fn))
        for name, attr in ENGINE_LAYERS.items()
    ]
    # ``run`` builds its default mood source as ``CounterMoods(config.seed)``;
    # runs started inside ``sweep`` get the timed source through this name.
    replacements.append(
        (engine, "CounterMoods", lambda cls: lambda seed: TimedMoods(seed, tracer, cls))
    )
    return patched(replacements)


def missing_spans(tracer: Tracer, since: int, runs: int, slots: int) -> list[str]:
    """What a traced pass of ``runs`` runs of ``slots`` slots failed to record.

    Every run calls each layer of ``ENGINE_LAYERS`` every slot and asks
    the mood source once per slot; a layer with no spans was bypassed, so
    its metrics would read as a gain that was never measured.
    """
    problems = [f"no {name} spans" for name in ENGINE_LAYERS
                if not len(tracer.durations_ns(name, since))]
    if slots > 1 and not len(tracer.durations_ns("engine.slot", since)):
        problems.append("no engine.slot spans")
    traced_runs = len(tracer.durations_ns("engine.run", since))
    if traced_runs != runs:
        problems.append(f"{traced_runs} engine.run spans for {runs} runs")
    return problems


def _us(durations_ns: np.ndarray, q: float) -> float:
    return float(np.percentile(durations_ns, q)) / 1e3 if len(durations_ns) else 0.0


def layer_metrics(tracer: Tracer, traced_passes: int) -> dict[str, float]:
    """Per-layer counts, latency percentiles and shares of ``engine.run`` time."""
    run_ns = float(tracer.durations_ns("engine.run").sum())
    out: dict[str, float] = {}
    covered = 0.0
    for name in ENGINE_LAYERS:
        d = tracer.durations_ns(name)
        covered += float(d.sum())
        out[f"{name}.calls"] = len(d) / traced_passes
        out[f"{name}.us_p50"] = _us(d, 50)
        out[f"{name}.us_p99"] = _us(d, 99)
        out[f"{name}.share"] = float(d.sum()) / run_ns if run_ns else 0.0
    slots = tracer.durations_ns("engine.slot")
    out["engine.slot_us_p50"] = _us(slots, 50)
    out["engine.slot_us_p99"] = _us(slots, 99)
    out["engine.self_share"] = 1.0 - covered / run_ns if run_ns else 0.0
    return out
