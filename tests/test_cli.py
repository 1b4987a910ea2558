import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import DESK_N, DESK_SEED, desk_sweep_spec, lossy_apportion
from workrest import cli, engine, sweep
from workrest.cli import main
from workrest.engine import SimConfig
from workrest.policies import KNOB_FIELDS, PolicyParams
from workrest.population import PopulationSpec, generate, load_csv, write_csv
from workrest.sweep import (
    PER_SLOT_HEADER,
    SWEEP_HEADER,
    SweepSpec,
    run_sweep,
    sweep_rows_to_csv,
)

RESULTS = Path(__file__).resolve().parent.parent / "results"
SIMULATE_ME = ["simulate", "--policy", "me", "--lf", "0.5", "--slots", "5"]
SWEEP_ME = ["sweep", "--policies", "me", "--lf-grid", "0.5", "--slots", "5", "--gen-n", "5"]
SWEEP_EDGE = ["sweep", "--gen-n", "20", "--slots", "5", "--policies"]


def run_cli(*argv):
    """The exit code of ``workrest argv``, including argparse's own exits."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def write_args(path, *lines):
    """An argument file: one argument per line, read by ``workrest @path``."""
    path.write_text("".join(f"{line}\n" for line in lines))
    return "@" + str(path)


def write_workers(path, rows):
    """A worker CSV with one ``(reputation, mu_max)`` row per worker."""
    lines = [f"{i},{rep},{mu_max}\n" for i, (rep, mu_max) in enumerate(rows)]
    path.write_text("worker_id,reputation,mu_max\n" + "".join(lines))
    return str(path)


@pytest.fixture()
def workers_csv(tmp_path):
    path = tmp_path / "workers.csv"
    code = run_cli("gen-workers", "--n", "20", "--seed", "3", "--out", str(path))
    assert code == 0
    return str(path)


class TestGenWorkers:
    def test_writes_n_rows(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run_cli("gen-workers", "--n", "5", "--seed", "1", "--out", str(out)) == 0
        assert len(load_csv(str(out))) == 5

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("gen-workers", "--n", "7", "--seed", "2", "--out", str(a))
        run_cli("gen-workers", "--n", "7", "--seed", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_constant_distributions(self, tmp_path):
        out = tmp_path / "w.csv"
        run_cli(
            "gen-workers", "--n", "3", "--rep-dist", "const:1.0",
            "--mu-max-dist", "const:5", "--out", str(out),
        )
        pop = load_csv(str(out))
        assert all(p.reputation == 1.0 and p.mu_max == 5 for p in pop)

    def test_default_ranges_and_seed_are_the_library_defaults(self, tmp_path):
        out, want = tmp_path / "cli.csv", tmp_path / "lib.csv"
        assert run_cli("gen-workers", "--n", "50", "--seed", "7", "--out", str(out)) == 0
        write_csv(str(want), generate(PopulationSpec(count=50, seed=7)))
        assert out.read_bytes() == want.read_bytes()

    def test_bad_distribution_is_usage_error(self, tmp_path):
        code = run_cli(
            "gen-workers", "--n", "3", "--rep-dist", "wat:1", "--out",
            str(tmp_path / "w.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("dist", [
        "const:inf", "uniform:1,inf", "const:nan", "uniform:1,1e30", "const:1.5", "uniform:0,5",
    ])
    def test_capacity_support_outside_whole_numbers_is_usage_error(self, tmp_path, capsys, dist):
        out = tmp_path / "w.csv"
        assert run_cli("gen-workers", "--n", "3", "--mu-max-dist", dist, "--out", str(out)) == 2
        assert "mu_max must be a whole number in [1, 2**53]" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_platform_scale_population(self, tmp_path):
        out = tmp_path / "big.csv"
        assert run_cli("gen-workers", "--n", "5547", "--seed", "7", "--out", str(out)) == 0
        with open(out) as fh:
            assert sum(1 for _ in fh) == 5548  # header + 5,547 workers


class TestSimulate:
    def test_smoke_run(self, tmp_path, workers_csv):
        out = tmp_path / "summary.csv"
        code = run_cli(
            "simulate", "--policy", "cpl", "--phi", "5", "--lf", "0.5",
            "--slots", "100", "--workers", workers_csv, "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("policy,knob,knob_value,lf,effort_avg")
        assert lines[1].startswith("cpl,phi,5.0,0.5,")
        assert lines[1].endswith("NA,NA")

    def test_me_summary_self_normalizes(self, tmp_path, workers_csv):
        out = tmp_path / "summary.csv"
        run_cli(
            "simulate", "--policy", "me", "--lf", "0.5", "--slots", "50",
            "--workers", workers_csv, "--out", str(out),
        )
        assert out.read_text().splitlines()[1].endswith(",100.0,100.0")

    def test_knob_mismatch_is_usage_error(self, workers_csv):
        code = run_cli(
            "simulate", "--policy", "mt", "--phi", "5", "--theta1", "0.5",
            "--lf", "0.5", "--workers", workers_csv,
        )
        assert code == 2

    def test_missing_knob_is_usage_error(self, workers_csv):
        code = run_cli(
            "simulate", "--policy", "cpl", "--lf", "0.5", "--workers", workers_csv
        )
        assert code == 2

    def test_nan_knob_is_usage_error(self, capsys, workers_csv):
        code = run_cli(
            "simulate", "--policy", "cpl", "--phi", "nan", "--lf", "0.5", "--slots", "5",
            "--workers", workers_csv,
        )
        assert code == 2
        assert capsys.readouterr() == ("", "error: cpl requires phi > 0, got nan\n")

    def test_phi_with_me_is_usage_error(self, workers_csv):
        code = run_cli(
            "simulate", "--policy", "me", "--phi", "5", "--lf", "0.5",
            "--workers", workers_csv,
        )
        assert code == 2

    def test_zero_workload_me_summary_is_the_sweep_me_row(self, tmp_path):
        # omega = 1 at lf 0.05 rounds to zero tasks per slot: no baseline
        workers = write_workers(tmp_path / "workers.csv", [(1.0, 1)])
        summary, sweep = tmp_path / "summary.csv", tmp_path / "sweep.csv"
        common = ["--lf", "0.05", "--slots", "20", "--workers", workers]
        assert run_cli("simulate", "--policy", "me", *common, "--out", str(summary)) == 0
        assert run_cli("sweep", "--policies", "me", "--lf-grid", "0.05", "--slots", "20",
                       "--workers", workers, "--out", str(sweep)) == 0
        assert summary.read_text() == sweep.read_text()
        assert summary.read_text().splitlines()[1].endswith("NA,NA")

    @pytest.mark.parametrize("deadline", ["3", "inf"])
    def test_summary_row_is_the_sweep_row(self, tmp_path, workers_csv, deadline):
        # one baseline rule: me is its own, and a lone cpl run has none
        common = ["--slots", "20", "--seed", "5", "--deadline", deadline,
                  "--workers", workers_csv]
        sweep, me, cpl = tmp_path / "sweep.csv", tmp_path / "me.csv", tmp_path / "cpl.csv"
        assert run_cli("sweep", "--policies", "me,cpl", "--phi-grid", "50",
                       "--lf-grid", "0.3,0.6", *common, "--out", str(sweep)) == 0
        assert run_cli("simulate", "--policy", "me", "--lf", "0.6", *common,
                       "--out", str(me)) == 0
        assert run_cli("simulate", "--policy", "cpl", "--phi", "50", "--lf", "0.6", *common,
                       "--out", str(cpl)) == 0
        header, _, me_row, _, cpl_row = sweep.read_text().splitlines()
        assert me.read_text().splitlines() == [header, me_row]
        assert me_row.endswith(",100.0,100.0")
        cpl_fields = cpl.read_text().splitlines()[1].split(",")
        assert cpl_fields == cpl_row.split(",")[:7] + ["NA", "NA"]
        assert cpl_row.split(",")[-2:] != ["NA", "NA"]

    def test_missing_population_is_usage_error(self):
        assert run_cli("simulate", "--policy", "me", "--lf", "0.5") == 2

    def test_missing_workers_file_is_io_error(self, tmp_path):
        code = run_cli(
            "simulate", "--policy", "me", "--lf", "0.5",
            "--workers", str(tmp_path / "absent.csv"),
        )
        assert code == 1

    def test_byte_identical_reruns(self, tmp_path, workers_csv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        pa, pb = tmp_path / "pa.csv", tmp_path / "pb.csv"
        for out, per_slot in ((a, pa), (b, pb)):
            run_cli(
                "simulate", "--policy", "ac", "--sigma", "20", "--lf", "0.4",
                "--slots", "80", "--workers", workers_csv, "--seed", "5",
                "--out", str(out), "--per-slot", str(per_slot),
            )
        assert a.read_bytes() == b.read_bytes()
        assert pa.read_bytes() == pb.read_bytes()

    def test_health_line_on_stderr_leaves_stdout_unchanged(self, tmp_path, capsys, workers_csv):
        argv = ["simulate", "--policy", "cpl", "--phi", "5", "--lf", "0.5",
                "--slots", "40", "--workers", workers_csv, "--seed", "7"]
        out = tmp_path / "summary.csv"
        assert run_cli(*argv, "--out", str(out)) == 0
        health = "drift-bound violations: 0/40 slots; stability: True; task conservation: True\n"
        assert capsys.readouterr() == ("", health)
        assert run_cli(*argv) == 0
        assert capsys.readouterr() == (out.read_text(), health)

    def test_per_slot_schema(self, tmp_path, workers_csv):
        per_slot = tmp_path / "slots.csv"
        assert run_cli(
            "simulate", "--policy", "cpl", "--phi", "5", "--lf", "0.9", "--slots", "10",
            "--workers", workers_csv, "--per-slot", str(per_slot),
        ) == 0
        config = SimConfig(slots=10, load_factor=0.9, policy=PolicyParams("cpl", phi=5.0))
        reports = engine.run(config, load_csv(workers_csv), keep_reports=True).reports
        header, *lines = per_slot.read_text().splitlines()
        assert header == ",".join(PER_SLOT_HEADER)
        # each row is one SlotReport, fields in order: ints as they are, floats at six decimals
        assert lines == [",".join(str(v) if isinstance(v, int) else f"{v:.6f}"
                                  for v in vars(r).values()) for r in reports]

    def test_deadline_inf(self, tmp_path, workers_csv):
        out = tmp_path / "s.csv"
        code = run_cli(
            "simulate", "--policy", "me", "--lf", "0.3", "--slots", "20",
            "--deadline", "inf", "--workers", workers_csv, "--out", str(out),
        )
        assert code == 0
        # no expiry possible
        assert out.read_text().splitlines()[1].split(",")[5] == "0.0"

    def test_gen_n_population(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli(
            "simulate", "--policy", "me", "--lf", "0.5", "--slots", "20",
            "--gen-n", "15", "--out", str(out),
        )
        assert code == 0

    def test_config_file_with_flag_override(self, tmp_path, workers_csv):
        config = write_args(
            tmp_path / "run.args", "--policy=cpl", "--phi=5.0", "--lf=0.5", "--slots=30",
            f"--workers={workers_csv}", "--seed=9",
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        # the file alone can supply the policy and the load factor
        assert run_cli(
            "simulate", "--policy", "cpl", "--lf", "0.5", "--phi", "5",
            "--slots", "30", "--seed", "9", "--workers", workers_csv,
            "--out", str(a),
        ) == 0
        assert run_cli("simulate", config, "--out", str(b)) == 0
        assert a.read_text() == b.read_text()

        # a flag after the file wins even when it equals the parser
        # default: 10,000 slots, not the file's 5; one before it loses
        config = write_args(
            tmp_path / "run.args", "--policy=me", "--lf=0.5", "--slots=5",
            f"--workers={workers_csv}",
        )
        per_slot = tmp_path / "slots.csv"
        for argv, slots in (([config, "--slots", "10000"], 10_000),
                            (["--slots", "10000", config], 5)):
            assert run_cli("simulate", *argv, "--out", str(b), "--per-slot", str(per_slot)) == 0
            assert len(per_slot.read_text().splitlines()) == 1 + slots

    @pytest.mark.parametrize("missing", ["policy", "lf"])
    def test_missing_policy_or_load_factor_is_usage_error(
        self, tmp_path, workers_csv, capsys, missing
    ):
        values = {"policy": "me", "lf": "0.5", "slots": "5", "workers": workers_csv}
        del values[missing]
        config = write_args(tmp_path / "run.args", *(f"--{k}={v}" for k, v in values.items()))
        assert run_cli("simulate", config) == 2
        assert f"the following arguments are required: --{missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,line,named", [
        ("simulate", "--nonsense=1", "unrecognized arguments: --nonsense=1"),
        ("simulate", "--deadline=3.5", "argument --deadline"),
        ("simulate", "--slots=5.5", "argument --slots: invalid int value: '5.5'"),
        ("simulate", "--seed=1.5", "argument --seed"),
        ("sweep", "--jobs=1.5", "argument --jobs"),
        ("simulate", "--slots=5,6", "argument --slots: invalid int value: '5,6'"),
        # a flag left without a value, the file's null
        ("simulate", "--slots=", "argument --slots: invalid int value: ''"),
        ("simulate", "--seed=", "argument --seed: invalid int value: ''"),
        ("simulate", "--deadline=", "argument --deadline: expected whole slots or 'inf', got ''"),
        ("sweep", "--jobs=", "argument --jobs: invalid int value: ''"),
    ], ids=["unknown-key", "deadline-float", "slots-float", "seed-float", "jobs-float",
            "slots-list", "slots-null", "seed-null", "deadline-null", "jobs-null"])
    def test_unknown_config_key_is_usage_error(
        self, tmp_path, workers_csv, capsys, command, line, named
    ):
        # every value in the file goes through its flag's own converter
        config = write_args(tmp_path / "run.args", "--slots=3", line)
        flags = ["--policy", "me", "--lf", "0.5"] if command == "simulate" else [
            "--policies", "me", "--lf-grid", "0.5"]
        code = run_cli(command, config, *flags, "--workers", workers_csv)
        assert code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("error,message", [
        (MemoryError("Unable to allocate 74.5 GiB for an array"),
         "Unable to allocate 74.5 GiB for an array"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_is_an_error_line(self, monkeypatch, capsys, error, message):
        def generate_too_much(spec):
            raise error

        monkeypatch.setattr(cli, "generate", generate_too_much)
        assert run_cli("simulate", "--policy", "me", "--lf", "0.5", "--gen-n", "5") == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("rows,flags,bound", [
        ([(1.0, 10**17), (1.0, 7 * 10**16)], ["me", "--lf", "0.9", "--slots", "5"], "2**53"),
        ([(1.0, 2**63 - 1)], ["me", "--lf", "0.5", "--slots", "5"], "2**53"),
        ([(1.0, 2 * 10**9)], ["ac", "--sigma", "1e30", "--lf", "1.0", "--deadline", "inf",
                              "--slots", "6"], "2**63"),
    ], ids=["capacities-1e17", "mu-max-2**63-1", "int64-wrap"])
    def test_inputs_beyond_the_exact_range_are_usage_errors(
        self, tmp_path, capsys, rows, flags, bound
    ):
        workers = write_workers(tmp_path / "workers.csv", rows)
        assert run_cli("simulate", "--policy", *flags, "--workers", workers) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and bound in err


class TestSweepAndReport:
    @pytest.mark.parametrize("error,message", [
        (MemoryError("Unable to allocate 74.5 GiB for an array"),
         "Unable to allocate 74.5 GiB for an array"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy-message", "bare"])
    def test_point_out_of_memory_names_the_point(self, monkeypatch, capsys, error, message):
        def run_too_much(config, population, keep_reports):
            raise error

        monkeypatch.setattr(sweep, "run", run_too_much)
        assert run_cli("sweep", "--gen-n", "5", "--slots", "3", "--policies", "me",
                       "--lf-grid", "0.5") == 1
        assert capsys.readouterr() == (
            "", f"error: sweep point (policy=me, none=0.0, lf=0.5) failed: {message}\n")

    def test_pipeline(self, tmp_path, workers_csv):
        sweep_out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--policies", "me,cpl", "--phi-grid", "5,50",
            "--lf-grid", "0.2,0.8", "--slots", "40", "--seed", "3",
            "--workers", workers_csv, "--out", str(sweep_out),
        )
        assert code == 0
        lines = sweep_out.read_text().splitlines()
        assert len(lines) == 1 + 6  # header + 2 ME + 4 CPL

        report_out = tmp_path / "report.csv"
        assert run_cli("report", str(sweep_out), "--out", str(report_out)) == 0
        report_lines = report_out.read_text().splitlines()
        assert report_lines[0].startswith("policy,mean_expiry_avg")
        assert {line.split(",")[0] for line in report_lines[1:]} == {"me", "cpl"}

    def test_parallel_and_serial_sweeps_byte_identical(self, tmp_path, workers_csv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        common = [
            "sweep", "--policies", "me,mt", "--theta1-grid", "0.3,0.7",
            "--lf-grid", "0.5", "--slots", "30", "--workers", workers_csv,
        ]
        assert run_cli(*common, "--jobs", "1", "--out", str(a)) == 0
        assert run_cli(*common, "--jobs", "2", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_range_syntax(self, tmp_path, workers_csv):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--policies", "me,cpl", "--phi-grid", "10:30:10",
            "--lf-grid", "0.5", "--slots", "20", "--workers", workers_csv,
            "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 1 + 3
        args = cli.build_parser().parse_args(["sweep", "--phi-grid", "5,,25", "--gen-n", "1"])
        assert args.phi_grid == (5.0, 25.0)

    @pytest.mark.parametrize("text,grid", [
        # accumulating the step drifted off the lattice and, at 9999, lost the stop
        ("0:1000:0.1", tuple(i / 10 for i in range(10_001))),
        ("0:9999:0.1", tuple(i / 10 for i in range(99_991))),
        ("5:100:5", SweepSpec().phi_grid),
        ("0.05:1:0.05", SweepSpec().lf_grid),
        # the stop's tolerance is a share of the step, not 1e-9 of the value
        ("0:5e-10:1e-10", tuple(i / 1e10 for i in range(6))),
    ])
    def test_range_values_are_computed_by_index(self, text, grid):
        args = cli.build_parser().parse_args(["sweep", "--phi-grid", text, "--gen-n", "1"])
        assert args.phi_grid == grid

    @pytest.mark.parametrize("grids,named", [
        (["--phi-grid", "1:1e12:1"],
         "argument --phi-grid: grid range '1:1e12:1' takes the grid past 100000 values"),
        (["--phi-grid", "1:1000:1", "--lf-grid", "0.0001:1:0.0001"],
         "error: the grid has 10610000 points, more than 100000"),
    ], ids=["one-range", "grid-product"])
    def test_oversized_grid_rejected_before_it_is_built(self, capsys, grids, named):
        start = time.perf_counter()
        assert run_cli("sweep", *grids, "--gen-n", "5") == 2
        assert time.perf_counter() - start < 1.0
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_point_validation_error_is_usage_error(self, tmp_path, capsys, jobs):
        workers = write_workers(tmp_path / "workers.csv", [(0.0, 5), (0.0, 3)])
        assert run_cli(
            "sweep", "--policies", "me", "--lf-grid", "0.5", "--slots", "5",
            "--workers", workers, "--jobs", jobs,
        ) == 2
        err = capsys.readouterr().err
        assert "sweep point (policy=me" in err and "zero collective capacity" in err

    def test_out_of_range_slots_rejected_before_any_point(self, workers_csv, capsys):
        assert run_cli("sweep", "--policies", "me", "--lf-grid", "0.5", "--slots", "0",
                       "--workers", workers_csv) == 2
        err = capsys.readouterr().err
        assert "slots must be >= 1" in err and "sweep point" not in err

    def test_nan_grid_value_rejected_before_any_point(self, workers_csv, capsys):
        assert run_cli("sweep", "--policies", "cpl", "--phi-grid", "5,nan", "--lf-grid", "0.5",
                       "--slots", "5", "--workers", workers_csv) == 2
        assert capsys.readouterr() == ("", "error: cpl requires phi > 0, got nan\n")

    @pytest.mark.parametrize("argv,points", [
        ([*SWEEP_EDGE, "me,mt", "--theta1-grid", "0.3,0.30000001", "--lf-grid", "0.5"],
         [("me", 0.0, 0.5), ("mt", 0.3, 0.5), ("mt", 0.30000001, 0.5)]),
        ([*SWEEP_EDGE, "me,cpl", "--phi-grid", "1e-7", "--lf-grid", "0.5,4e-7"],
         [("me", 0.0, 0.5), ("me", 0.0, 4e-7), ("cpl", 1e-7, 0.5), ("cpl", 1e-7, 4e-7)]),
        (["simulate", "--gen-n", "20", "--slots", "5", "--policy", "cpl", "--phi", "1e-7",
          "--lf", "0.5"], [("cpl", 1e-7, 0.5)]),
        ([*SIMULATE_ME, "--gen-n", "5", "--lf", "4e-7"], [("me", 0.0, 4e-7)]),
    ], ids=["near-theta1", "tiny-phi-and-lf", "simulate-tiny-phi", "simulate-tiny-lf"])
    def test_points_read_back_as_themselves(self, tmp_path, argv, points):
        # the file states every value exactly, so values that six decimals
        # would merge, or write as 0, read back as the points that ran
        out = tmp_path / "s.csv"
        assert run_cli(*argv, "--out", str(out)) == 0
        rows = sweep.load_sweep_csv(str(out))
        assert [(r.policy, r.knob_value, r.load_factor) for r in rows] == points
        assert run_cli("report", str(out)) == 0

    def test_unknown_policy_is_usage_error(self, workers_csv):
        assert run_cli(
            "sweep", "--policies", "me,bogus", "--workers", workers_csv,
            "--slots", "10",
        ) == 2

    def test_report_schema_mismatch_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run_cli("report", str(bad)) == 2

    def test_report_missing_file_is_io_error(self, tmp_path):
        assert run_cli("report", str(tmp_path / "absent.csv")) == 1


HEADER = "worker_id,reputation,mu_max\n"
RANGE_AT_2_53 = "9007199254740992:9007199254740994:1"  # from 2**53 on, v + 1 == v
# The two input files: the name and command of each, its header, and its
# record ``i`` with value ``v`` in a numeric field. Records differ in their
# key, a worker id or a sweep point (here the load factor), as in a file
# that ``gen-workers`` or ``sweep`` writes.
CSV_READERS = {
    "workers": ("w.csv", [*SIMULATE_ME, "--workers"], HEADER.rstrip(), lambda i, v: f"{i},{v},3"),
    "report": ("s.csv", ["report"], ",".join(SWEEP_HEADER),
               lambda i, v: f"me,none,0,0.{i + 1},{v},0,1,100,100"),
}


def report_case(*rows, fault):
    """``report`` of a sweep file holding ``rows``: the error is ``s.csv:`` then ``fault``."""
    text = "".join(f"{row}\n" for row in [",".join(SWEEP_HEADER), *rows])
    return {"s.csv": text}, ["report", "{tmp}/s.csv"], ["error: {tmp}/s.csv:" + fault]


def csv_fault_cases():
    """One list of faults, applied alike to a worker file and a sweep file: the
    error names the file, and for a record fault the file line it ends on."""
    cases = {}
    for reader, (name, argv, header, row) in CSV_READERS.items():
        def text(*last, first=(row(0, 0.5), row(1, 0.5))):
            """The header, two good records on lines 2 and 3, then ``last``."""
            return "".join(f"{line}\n" for line in [header, *first, *last])

        faults = {
            "empty": ("", ": empty file, expected header"),
            "bad-header": (text().replace(header, "a,b,c"), ": bad header ['a', 'b', 'c']"),
            "header-only": (header + "\n", ": no data rows"),
            "short-row": (text(row(2, 0.5).rsplit(",", 1)[0]), ":4: "),
            "long-row": (text(row(2, 0.5) + ",7"), ":4: "),
            "not-a-number": (text(row(2, "x")), ":4: "),
            "nan": (text(row(2, "nan")), ":4: "),
            "1e999": (text(row(2, "1e999")), ":4: "),  # overflows to inf
            "field-over-limit": (text(row(2, "1" * 200_000)),
                                 ":4: field larger than field limit (131072)"),
            "not-utf-8": (text(row(2, "\udcff")),  # the byte 0xff
                          ": not UTF-8: 'utf-8' codec can't decode byte 0xff"),
            # a quoted field spans lines 2-3, so the bad record ends on line 5
            "after-quoted-newline": (text(row(2, "x"), first=(row(0, '"0.5\n"'), row(1, 0.5))),
                                     ":5: "),
        }
        for fault, (file_text, where) in faults.items():
            cases[f"{reader}-{fault}"] = (
                {name: file_text}, [*argv, "{tmp}/" + name], ["error: {tmp}/" + name + where])
    return cases


class TestUsageErrors:
    """Malformed flags, argument files and input files exit 2 with a message
    that names what is wrong. ``{tmp}`` in an argument is the test's
    directory, where ``files`` are written first."""

    CASES = {
        "grid-range-of-two": ({}, ["sweep", "--phi-grid", "5:10"],
                              ["argument --phi-grid", "bad grid range '5:10'", "start:stop:step"]),
        "grid-step-zero": ({}, ["sweep", "--phi-grid", "5:1:0"],
                           ["argument --phi-grid", "grid step must be positive in '5:1:0'"]),
        "grid-empty": ({}, ["sweep", "--phi-grid", ","], ["argument --phi-grid", "empty grid ','"]),
        "grid-range-to-inf": ({}, ["sweep", "--phi-grid", "0:inf:1"],
                              ["argument --phi-grid", "grid range '0:inf:1' must be finite"]),
        "grid-step-below-spacing": ({}, ["sweep", "--gen-n", "1", "--phi-grid", RANGE_AT_2_53],
                                    ["phi_grid repeats 9007199254740992.0"]),
        "grid-repeated-value": ({}, ["sweep", "--gen-n", "1", "--lf-grid", "0.5,0.5"],
                                ["lf_grid repeats 0.5"]),
        "grid-not-a-number": ({}, ["sweep", "--lf-grid", "5:x:1"],
                              ["argument --lf-grid", "bad grid part '5:x:1'"]),
        "knob-of-another-policy": ({}, [*SIMULATE_ME, "--gen-n", "5", "--phi", "5"],
                                   ["phi is not a knob of policy 'me'"]),
        "jobs-zero": ({}, [*SWEEP_ME, "--jobs", "0"], ["jobs must be >= 1, got 0"]),
        "jobs-negative": ({}, [*SWEEP_ME, "--jobs", "-3"], ["jobs must be >= 1, got -3"]),
        "dist-kind": ({}, ["gen-workers", "--n", "3", "--rep-dist", "beta:1,2", "--out", "{tmp}/w"],
                      ["argument --rep-dist: ",
                       "bad distribution 'beta:1,2', expected const:V or uniform:LO,HI"]),
        "dist-one-bound": ({}, ["gen-workers", "--n", "3", "--rep-dist", "uniform:1", "--out",
                                "{tmp}/w"], ["argument --rep-dist: bad distribution 'uniform:1': "]),
        "args-file-missing": ({}, ["simulate", "@{tmp}/absent.args"],
                              ["No such file or directory", "absent.args"]),
        "args-file-blank-line": ({"run.args": "--policy=me\n\n--lf=0.5\n"},
                                 ["simulate", "@{tmp}/run.args", "--gen-n", "5"],
                                 ["unrecognized arguments: "]),
        "workers-and-gen-n": ({}, [*SIMULATE_ME, "--workers", "{tmp}/w.csv", "--gen-n", "5"],
                              ["argument --gen-n: not allowed with argument --workers"]),
        "no-population": ({}, SIMULATE_ME,
                          ["one of the arguments --workers --gen-n is required"]),
        "gen-n-zero": ({}, [*SIMULATE_ME, "--gen-n", "0"], ["count must be >= 1, got 0"]),
        "workers-id-beyond-int64": ({"w.csv": HEADER + "0,0.5,3\n9223372036854775808,0.5,3\n"},
                                    [*SIMULATE_ME, "--workers", "{tmp}/w.csv"],
                                    ["w.csv:3: worker id must be in [0, 2**63), "
                                     "got 9223372036854775808"]),
        "workers-capacity-2**63": ({"w.csv": HEADER + f"0,0.5,{2**63}\n"},
                                   [*SIMULATE_ME, "--workers", "{tmp}/w.csv"],
                                   ["w.csv:2: mu_max must be a whole number in [1, 2**53], "
                                    f"got {2**63}"]),
        "workers-capacity-2**64": ({"w.csv": HEADER + f"0,0.5,3\n1,0.5,{2**64}\n"},
                                   [*SIMULATE_ME, "--workers", "{tmp}/w.csv"],
                                   ["w.csv:3: mu_max must be a whole number in [1, 2**53], "
                                    f"got {2**64}"]),
        "report-unknown-policy": report_case(
            "me,none,0,0.5,1,0,1,100,100", "foo,phi,5,0.5,1,0,1,50,60",
            fault="3: bad sweep row ['foo', 'phi', "),
        "report-knob-of-another-policy": report_case(
            "me,sigma,0,0.5,1,0,1,100,100", fault="2: bad sweep row ['me', 'sigma', "),
        "report-knob-value-refused": report_case(
            "cpl,phi,-3,0.5,1,0,1,50,60",
            fault="2: bad sweep row ['cpl', 'phi', '-3', '0.5', '1', '0', '1', '50', '60']: "
                  "cpl requires phi > 0, got -3.0"),
        "report-load-factor-refused": report_case(
            "cpl,phi,5,7,1,0,1,50,60",
            fault="2: bad sweep row ['cpl', 'phi', '5', '7', '1', '0', '1', '50', '60']: "
                  "load_factor must be in (0, 1], got 7.0"),
        "report-me-knob-value": report_case(
            "me,none,5,0.5,1,0,1,100,100",
            fault="2: bad sweep row ['me', 'none', '5', '0.5', '1', '0', '1', '100', '100']\n"),
        "report-theta1-refused": report_case(
            "mt,theta1,1.5,0.5,1,0,1,50,60",
            fault="2: bad sweep row ['mt', 'theta1', '1.5', '0.5', '1', '0', '1', '50', '60']: "
                  "mt requires theta1 in [0, 1], got 1.5"),
        "report-knob-named-kind": report_case(
            "cpl,kind,5,0.5,1,0,1,50,60",
            fault="2: bad sweep row ['cpl', 'kind', '5', '0.5', '1', '0', '1', '50', '60']\n"),
        "report-repeated-point": report_case(
            "cpl,phi,5,0.5,1,0,1,NA,NA", "cpl,phi,5.0,0.50,1,0,1,NA,NA",
            fault="3: repeated point (policy=cpl, phi=5.0, lf=0.5)"),
        "report-rate-above-1": report_case(
            "me,none,0,0.5,7,0,1,100,100",
            fault="2: bad sweep row ['me', 'none', '0', '0.5', '7', '0', '1', '100', '100']: "
                  "effort_avg must be in [0, 1], got 7.0"),
        # a row's percentages are its rates over the me row's at its load factor
        "report-pct-not-the-me-rows": report_case(
            "me,none,0,0.5,0.8,0,1,100,100", "cpl,phi,5,0.5,0.4,0,0.9,20,30",
            fault=" row (policy=cpl, phi=5.0, lf=0.5): effort_pct_of_me is 20.0, "
                  "but the me row at lf 0.5 gives 50.0\n"),
        "report-pct-without-me-row": report_case(
            "me,none,0,0.4,0.8,0,1,100,100", "cpl,phi,5,0.5,0.4,0,0.9,NA,90",
            fault=" row (policy=cpl, phi=5.0, lf=0.5): completion_pct_of_me is 90.0, "
                  "but the file has no me row at lf 0.5\n"),
        "report-na-against-me-row": report_case(
            "me,none,0,0.5,0.8,0,1,100,100", "cpl,phi,5,0.5,0.4,0,0.9,NA,90",
            fault=" row (policy=cpl, phi=5.0, lf=0.5): effort_pct_of_me is NA, "
                  "but the me row at lf 0.5 gives 50.0\n"),
        "report-me-pct-not-100": report_case(
            "me,none,0,0.5,0.8,0,1,100,90",
            fault=" row (policy=me, none=0.0, lf=0.5): completion_pct_of_me is 90.0, "
                  "but the me row at lf 0.5 gives 100.0\n"),
        # a file in the six-decimal format of earlier versions: its percentages
        # are not the exact ones of its rounded rates, so it must be made again
        "report-six-decimal-file": report_case(
            "me,none,0.000000,0.500000,0.300000,0.000000,0.900000,100.000000,100.000000",
            "cpl,phi,5.000000,0.500000,0.100000,0.000000,0.600000,33.333333,66.666667",
            fault=" row (policy=cpl, phi=5.0, lf=0.5): effort_pct_of_me is 33.333333, "
                  "but the me row at lf 0.5 gives 33.333333333333336\n"),
        "args-file-not-utf-8": ({"bad.args": "--lf=0.5\n--gen-n=5\n\udcff\n"},
                                ["simulate", "@{tmp}/bad.args", "--policy", "me"],
                                ["error: {tmp}/bad.args: not UTF-8: 'utf-8' codec can't decode "
                                 "byte 0xff in position 19"]),
        "args-file-includes-itself": ({"loop.args": "@{tmp}/loop.args\n"},
                                      ["simulate", "@{tmp}/loop.args"],
                                      ["error: an argument file includes itself"]),
        # one spelling per value: 'inf' and the lower-case kinds, as --help names them
        "deadline-none": ({}, [*SIMULATE_ME, "--gen-n", "5", "--deadline", "none"],
                          ["argument --deadline: expected whole slots or 'inf', got 'none'"]),
        "policy-upper-case": ({}, ["simulate", "--policy", "CPL", "--phi", "5", "--lf", "0.5",
                                   "--slots", "5", "--gen-n", "5"],
                              ["unknown policy kind 'CPL'"]),
        "policies-upper-case": ({}, ["sweep", "--policies", "me,CPL", "--lf-grid", "0.5",
                                     "--slots", "5", "--gen-n", "5"],
                                ["unknown policy 'CPL'"]),
        "knob-inf": ({}, ["simulate", "--gen-n", "5", "--slots", "5", "--policy", "cpl",
                          "--phi", "inf", "--lf", "0.5"], ["cpl requires a finite phi, got inf"]),
        "grid-inf": ({}, ["sweep", "--gen-n", "3", "--slots", "3", "--policies", "cpl",
                          "--phi-grid", "1e308,inf", "--lf-grid", "0.5"],
                     ["cpl requires a finite phi, got inf"]),
        # a seed outside the generator's 64-bit word would alias one inside it
        "seed-2**64-simulate": ({"w.csv": HEADER + "0,0.5,3\n"},
                                [*SIMULATE_ME, "--workers", "{tmp}/w.csv",
                                 "--seed", str(2**64 + 7)],
                                [f"error: seed must be in [0, 2**64), got {2**64 + 7}\n"]),
        "seed-negative-sweep": ({}, [*SWEEP_ME, "--seed=-1"],
                                ["error: seed must be in [0, 2**64), got -1\n"]),
        "seed-2**64-gen-workers": ({}, ["gen-workers", "--n", "3", "--seed", str(2**64),
                                        "--out", "{tmp}/w.csv"],
                                   [f"error: seed must be in [0, 2**64), got {2**64}\n"]),
        # a capacity bound is read exactly: as a float, 2**53 + 1 ran as 2**53
        "dist-capacity-2**53+1": ({}, ["gen-workers", "--n", "2", "--mu-max-dist",
                                       f"const:{2**53 + 1}", "--out", "{tmp}/w.csv"],
                                  ["error: mu_max must be a whole number in [1, 2**53], "
                                   f"got {2**53 + 1}\n"]),
        "dist-capacity-2**53+3": ({}, ["gen-workers", "--n", "2", "--mu-max-dist",
                                       f"const:{2**53 + 3}", "--out", "{tmp}/w.csv"],
                                  ["error: mu_max must be a whole number in [1, 2**53], "
                                   f"got {2**53 + 3}\n"]),
        **csv_fault_cases(),
    }

    @pytest.mark.parametrize("files,argv,fragments", CASES.values(), ids=CASES.keys())
    def test_exits_2_naming_the_fault(self, tmp_path, capsys, files, argv, fragments):
        def at(text):
            return text.replace("{tmp}", str(tmp_path))

        for name, text in files.items():  # a lone surrogate "\udcff" writes the byte 0xff
            (tmp_path / name).write_bytes(at(text).encode(errors="surrogateescape"))
        assert run_cli(*map(at, argv)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("error:") == 1, err
        assert "drift-bound violations" not in err, err  # no point ran
        assert all(at(f) in err for f in fragments), err


# Values for every numeric flag: not a number, infinite, negative, zero, past
# 2**53 and 2**64, the largest and smallest doubles, and malformed text.
FLAG_VALUES = ("nan", "inf", "-inf", "-1", "0", str(2**53 + 1), str(2**64), "1e308", "5e-324",
               "", "x", "1,2", "1:2")
# A count accepted at 2**53 + 1 would run for hours or allocate past memory,
# so the counts get only the values they refuse: not these.
COUNT_FLAGS = {"--slots", "--gen-n", "--n"}
LARGE_COUNTS = {str(2**53 + 1), str(2**64)}
GRID_FLAGS = [f"--{name.replace('_', '-')}" for name in cli._GRIDS]


def tiny(command, kind="cpl"):
    """A valid ``command`` over 3 workers and 2 slots; a later flag overrides its own."""
    if command == "gen-workers":
        return ["gen-workers", "--n=3", "--out={tmp}/w.csv"]
    common = ["--gen-n=3", "--slots=2", "--out={tmp}/o.csv"]
    if command == "simulate":
        return ["simulate", f"--policy={kind}", f"--{KNOB_FIELDS[kind]}=0.5", "--lf=0.5", *common]
    return ["sweep", "--policies=me,mt,mw,ac,cpl", *(f"{g}=0.5" for g in GRID_FLAGS), *common]


def flag_value_cases():
    """``(argv, flag)``: each numeric flag of ``simulate``, ``sweep`` and
    ``gen-workers`` at each of ``FLAG_VALUES``, after a tiny valid command."""
    for value in FLAG_VALUES:
        cases = [(tiny(command), flag, f"{flag}={value}")
                 for command, flags in (("simulate", ["--lf"]), ("sweep", GRID_FLAGS))
                 for flag in ("--slots", "--gen-n", "--seed", "--deadline", *flags)]
        cases += [(tiny("simulate", kind), f"--{knob}", f"--{knob}={value}")
                  for kind, knob in KNOB_FIELDS.items() if knob]
        cases += [(tiny("gen-workers"), flag, f"{flag}={value}") for flag in ("--n", "--seed")]
        cases += [(tiny("gen-workers"), flag, f"{flag}={dist}")
                  for flag in ("--rep-dist", "--mu-max-dist")
                  for dist in (f"const:{value}", f"uniform:1,{value}")]
        yield from ((argv + [arg], flag) for argv, flag, arg in cases
                    if flag not in COUNT_FLAGS or value not in LARGE_COUNTS)
    for jobs in ("-1", "0", "1"):  # a larger --jobs starts that many processes
        yield tiny("sweep") + [f"--jobs={jobs}"], "--jobs"


class TestFlagValueCorpus:
    """Every numeric flag at every generated value, given on the command line or
    in an argument file within an argument file, exits 0, 1, 2 or 3 with no
    traceback and, when it fails, exactly one ``error:`` line."""

    def test_every_flag_value_exits_cleanly(self, tmp_path, capsys):
        (tmp_path / "empty.args").write_text("")
        inner, outer = tmp_path / "inner.args", tmp_path / "outer.args"
        outer.write_text(f"@{inner}\n@{tmp_path / 'empty.args'}\n")
        faults = []
        for argv, flag in flag_value_cases():
            argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
            inner.write_text(argv[-1] + "\n")
            for given in (argv, argv[:-1] + [f"@{outer}"]):
                code = run_cli(*given)
                err = capsys.readouterr().err
                errors = sum("error:" in line for line in err.splitlines())
                refused = code == 2 or flag not in COUNT_FLAGS
                if code not in (0, 1, 2, 3) or "Traceback" in err or not refused or (
                        code != 0 and errors != 1):
                    faults.append((given, code, err))
        assert not faults, faults[:5]


class TestExperimentConfigs:
    """The committed ``results/*.args`` argument files reproduce the experiments."""

    def test_no_grid_flags_resolve_to_the_default_grid(self):
        args = cli.build_parser().parse_args(
            ["sweep", "--slots", "40", "--seed", "3", "--deadline", "inf", "--gen-n", "1"])
        assert cli._sweep_spec(args) == SweepSpec(slots=40, seed=3, deadline=None)
        args = cli.build_parser().parse_args(["sweep", "--gen-n", "1"])
        assert cli._sweep_spec(args) == SweepSpec()

    def test_no_run_flags_resolve_to_the_library_defaults(self):
        args = cli.build_parser().parse_args(
            ["simulate", "--policy", "me", "--lf", "1", "--gen-n", "1"])
        assert (args.slots, args.seed, args.deadline) == (
            SweepSpec.slots, SimConfig.seed, SimConfig.deadline)

    def test_desk_config_resolves_to_the_acceptance_grid(self):
        # README's reproduce command runs the grid and population of the
        # ``desk`` fixture, whose rows are pinned to results/desk_sweep.csv
        args = cli.build_parser().parse_args(["sweep", f"@{RESULTS / 'desk.args'}"])
        assert cli._sweep_spec(args) == desk_sweep_spec()
        assert (args.gen_n, args.workers, args.seed) == (DESK_N, None, DESK_SEED)

    def test_population_flag_after_the_file_wins(self):
        argv = ["sweep", f"@{RESULTS / 'desk.args'}", "--gen-n", "20"]
        args = cli.build_parser().parse_args(argv)
        assert (args.gen_n, args.workers) == (20, None)

    def test_desk_fixture_reproduces_the_committed_results(self, desk):
        # the grid order and the CSV writer, byte for byte; the file reads
        # back as the rows in memory, so its report is theirs
        sweep_csv = (RESULTS / "desk_sweep.csv").read_bytes()
        assert sweep_rows_to_csv(desk.rows).encode() == sweep_csv
        assert sweep.load_sweep_csv(str(RESULTS / "desk_sweep.csv")) == desk.rows
        report_csv = (RESULTS / "desk_report.csv").read_text()
        assert sweep.report_rows_to_csv(desk.report) == report_csv

    @pytest.mark.parametrize("name", ["desk", "scaled"])
    def test_report_reproduces_the_committed_report(self, tmp_path, name):
        out = tmp_path / "report.csv"
        assert run_cli("report", str(RESULTS / f"{name}_sweep.csv"), "--out", str(out)) == 0
        assert out.read_bytes() == (RESULTS / f"{name}_report.csv").read_bytes()

    @pytest.mark.parametrize("name", ["desk", "scaled"])
    def test_config_sweep_equals_run_sweep(self, tmp_path, capsys, name):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", f"@{RESULTS / name}.args", "--slots", "3",
                "--out", str(out)]
        if name == "scaled":
            workers = tmp_path / "workers.csv"
            assert run_cli(
                "gen-workers", "--n", "500", "--seed", "7", "--mu-max-dist", "uniform:4,40",
                "--out", str(workers),
            ) == 0
            argv += ["--workers", str(workers)]
            spec = PopulationSpec(count=500, mu_max_dist=(4, 40), seed=7)
        else:
            spec = PopulationSpec(count=500, seed=7)
        assert run_cli(*argv) == 0
        rows = run_sweep(dataclasses.replace(desk_sweep_spec(), slots=3), generate(spec))
        assert out.read_bytes() == sweep_rows_to_csv(rows).encode()
        assert capsys.readouterr().err == (
            "drift-bound violations: 0/450 slots; stability: True; task conservation: True\n"
        )


def overcompleting_decide(params, q, Q, m, mu_max, floor):
    """A policy bug: every worker completes one task more than it holds."""
    return np.ones(len(q)), q + 1


def drift_broken(q, Q, lam, mu, idle, q_next, Q_next, lyap2, lambda_max, mu_max_global):
    """Drift sides that break the bound by one (doubled) unit every slot."""
    return 1, 0, lyap2


class TestFailedInvariants:
    """A failed invariant exits 3: an aborted run, or a health-line failure.
    The sweep's process pool forks, so the patches reach its workers."""

    COMMANDS = [
        ["simulate", "--policy", "me", "--lf", "0.5"],
        ["sweep", "--policies", "me", "--lf-grid", "0.5", "--jobs", "1"],
        ["sweep", "--policies", "me", "--lf-grid", "0.5", "--jobs", "2"],
    ]
    IDS = ["simulate", "sweep-jobs-1", "sweep-jobs-2"]

    @pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
    def test_simulation_error_exits_3(self, monkeypatch, capsys, workers_csv, argv):
        monkeypatch.setattr(engine, "decide", overcompleting_decide)
        assert run_cli(*argv, "--slots", "5", "--workers", workers_csv) == 3
        err = capsys.readouterr().err
        named = "error: slot 0:" if argv[0] == "simulate" else "error: sweep point (policy=me"
        assert err.startswith(named) and "completed" in err

    @pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
    def test_lost_delegation_unit_exits_3(self, monkeypatch, capsys, workers_csv, argv):
        monkeypatch.setattr(engine, "apportion", lossy_apportion)
        assert run_cli(*argv, "--slots", "5", "--workers", workers_csv) == 3
        assert capsys.readouterr().err == (
            "drift-bound violations: 0/5 slots; stability: True; task conservation: False\n"
        )

    @pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
    def test_health_line_failure_exits_3(self, monkeypatch, capsys, workers_csv, argv):
        monkeypatch.setattr(engine, "drift_bound_sides", drift_broken)
        assert run_cli(*argv, "--slots", "5", "--workers", workers_csv) == 3
        assert capsys.readouterr().err == (
            "drift-bound violations: 5/5 slots; stability: True; task conservation: True\n"
        )
