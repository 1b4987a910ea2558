"""Tests for the benchmark itself: tiny shapes, metric names and units, the gate.

Run from the repository root:  python -m pytest perfbench -q
"""

import copy
import importlib.util
import json
import pickle
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# Tiny shapes: seed 7 at 3 slots, recorded in reference/<workload>.json.
TINY_SEED, TINY_SLOTS = 7, 3


def tiny(workload, *args, slots=TINY_SLOTS):
    return subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(TINY_SEED), "--seconds", "0.1", "--slots", str(slots),
                           *args], cwd=ROOT, capture_output=True, text=True, timeout=170)


def tiny_inputs(workload):
    shape = workloads.make_shape(workload, TINY_SEED, TINY_SLOTS)
    setup = run.SetUp(shape)
    return shape, setup, setup(1)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_run_py_prints():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert WORKLOADS == ["desk-grid", "platform-run", "no-deadline"]
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in BENCHMARK[group]:
            assert name.match(entry["name"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_shape_passes_the_gate_and_prints_every_metric(workload):
    for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        t0 = time.perf_counter()
        proc = tiny(workload, "--trace", str(trace))
        assert time.perf_counter() - t0 < 60
        result = result_line(proc)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        for name, unit in units.items():
            assert re.search(rf"^metric {workload} {re.escape(name)} = \S+ {re.escape(unit)}$",
                             proc.stdout, re.M), name
        assert f"metric {workload} error_rate = 0.0 failed/attempted" in proc.stdout


def test_tampered_reference_fires_the_gate(capsys):
    shape, setup, population = tiny_inputs("platform-run")
    reference = workloads.load_reference(HERE / "reference" / "platform-run.json")
    entry = copy.deepcopy(reference[shape.key])
    column = entry["fields"].index("completions")
    entry["runs"]["mw theta2=0.5 lf=0.5"][column] += 1

    gate = run.Gate(shape, entry, setup)
    gate.check("pass 1", workloads.run_pass(shape, population))
    assert (gate.attempted, gate.failed) == (len(shape.runs), 1)
    assert gate.error_rate == 1 / len(shape.runs) > 0
    assert ("FAIL platform-run pass 1 run 'mw theta2=0.5 lf=0.5': completions ="
            in capsys.readouterr().out)


def test_unrecorded_shape_fails():
    result = result_line(tiny("no-deadline", slots=TINY_SLOTS + 1))
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_untraced_layers_fail_the_traced_pass():
    shape, _, population = tiny_inputs("desk-grid")
    tracer = spans.Tracer()
    result = workloads.traced_pass(shape, population, tracer)  # engine not instrumented
    assert not any(o.problems for o in result.outcomes)
    problems = spans.missing_spans(tracer, 0, len(shape.runs), shape.slots)
    assert problems == [f"no {name} spans" for name in spans.ENGINE_LAYERS] + [
        "no engine.slot spans"]
    assert spans.missing_spans(tracer, 0, len(shape.runs) + 1, shape.slots)[-1] == (
        f"{len(shape.runs)} engine.run spans for {len(shape.runs) + 1} runs")
    first = len(tracer)
    with spans.instrument_engine(tracer):
        workloads.traced_pass(shape, population, tracer)
    assert spans.missing_spans(tracer, first, len(shape.runs), shape.slots) == []


def test_tracing_a_missing_attribute_raises():
    engine = workloads.engine
    original = engine.apportion
    with pytest.raises(AttributeError, match="no attribute 'no_such_layer'"):
        with spans.patched([(engine, "apportion", lambda fn: None),
                            (engine, "no_such_layer", lambda fn: fn)]):
            pass
    assert engine.apportion is original


def test_payload_is_what_run_sweep_ships():
    shape, _, population = tiny_inputs("desk-grid")
    shipped = []
    real = workloads.sweep._run_point

    def spy(args):
        shipped.append(len(pickle.dumps(args)))
        return real(args)

    with spans.patched([(workloads.sweep, "_run_point", lambda fn: spy)]):
        workloads.sweep.run_sweep(shape.sweep_spec, population, jobs=1)
    assert shipped[0] == workloads.point_payload_bytes(shape, population)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_desk_grid_is_the_acceptance_grid():
    spec = importlib.util.spec_from_file_location("desk_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    shape = workloads.make_shape("desk-grid", conftest.DESK_SEED, conftest.DESK_SLOTS)
    assert shape.sweep_spec == conftest.desk_sweep_spec()
    assert shape.n == conftest.DESK_N and shape.is_desk_fixture


def test_csv_check_names_the_differing_run():
    names = ["me lf=0.1", "me lf=0.2"]
    committed = "header\na\nb\n"
    assert workloads.csv_mismatches(committed, committed, names) == [[], []]
    assert workloads.csv_mismatches("header\na\nc\n", committed, names) == [
        [], ["sweep CSV line 3 differs from results/desk_sweep.csv"]]
    assert all(workloads.csv_mismatches("header\na\n", committed, names))
