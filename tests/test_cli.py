import dataclasses
import json
from pathlib import Path

import pytest

from conftest import desk_sweep_spec
from workrest import cli
from workrest.cli import main
from workrest.population import Distribution, PopulationSpec, generate, load_csv
from workrest.sweep import run_sweep, sweep_rows_to_csv

RESULTS = Path(__file__).resolve().parent.parent / "results"


def run_cli(*argv):
    return main(list(argv))


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

    def test_bad_distribution_is_usage_error(self, tmp_path):
        code = run_cli(
            "gen-workers", "--n", "3", "--rep-dist", "wat:1", "--out",
            str(tmp_path / "w.csv"),
        )
        assert code == 2

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
        assert lines[1].startswith("cpl,phi,5.000000,0.500000,")
        assert lines[1].endswith("NA,NA")

    def test_me_summary_self_normalizes(self, tmp_path, workers_csv):
        out = tmp_path / "summary.csv"
        run_cli(
            "simulate", "--policy", "me", "--lf", "0.5", "--slots", "50",
            "--workers", workers_csv, "--out", str(out),
        )
        assert out.read_text().splitlines()[1].endswith("100.000000,100.000000")

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

    def test_phi_with_me_is_usage_error(self, workers_csv):
        code = run_cli(
            "simulate", "--policy", "me", "--phi", "5", "--lf", "0.5",
            "--workers", workers_csv,
        )
        assert code == 2

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
        run_cli(
            "simulate", "--policy", "me", "--lf", "0.3", "--slots", "10",
            "--workers", workers_csv, "--per-slot", str(per_slot),
        )
        lines = per_slot.read_text().splitlines()
        assert lines[0] == "slot,arrivals,completions,expired,pending,lyapunov,drift_lhs,drift_rhs"
        assert len(lines) == 11

    def test_deadline_inf(self, tmp_path, workers_csv):
        out = tmp_path / "s.csv"
        code = run_cli(
            "simulate", "--policy", "me", "--lf", "0.3", "--slots", "20",
            "--deadline", "inf", "--workers", workers_csv, "--out", str(out),
        )
        assert code == 0
        # no expiry possible
        assert out.read_text().splitlines()[1].split(",")[5] == "0.000000"

    def test_gen_n_population(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli(
            "simulate", "--policy", "me", "--lf", "0.5", "--slots", "20",
            "--gen-n", "15", "--out", str(out),
        )
        assert code == 0

    def test_config_file_with_flag_override(self, tmp_path, workers_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "policy": "cpl", "phi": 5.0, "lf": 0.5, "slots": 30,
            "workers": workers_csv, "seed": 9,
        }))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        # flags override the file: run once at phi=5 via file, once at phi=50
        assert run_cli(
            "simulate", "--policy", "cpl", "--lf", "0.5", "--phi", "5",
            "--slots", "30", "--seed", "9", "--workers", workers_csv,
            "--out", str(a),
        ) == 0
        assert run_cli(
            "simulate", "--config", str(config), "--policy", "cpl", "--lf", "0.5",
            "--out", str(b),
        ) == 0
        assert a.read_text().split(",")[:8] == b.read_text().split(",")[:8]

        # a flag given on the command line wins even when it equals the
        # parser default: 10,000 slots, not the file's 5
        config.write_text(json.dumps({
            "policy": "me", "lf": 0.5, "slots": 5, "workers": workers_csv,
        }))
        per_slot = tmp_path / "slots.csv"
        assert run_cli(
            "simulate", "--config", str(config), "--slots", "10000",
            "--out", str(b), "--per-slot", str(per_slot),
        ) == 0
        assert len(per_slot.read_text().splitlines()) == 1 + 10_000

        # the file alone can supply the policy and the load factor
        config.write_text(json.dumps({
            "policy": "cpl", "phi": 5.0, "lf": 0.5, "slots": 30,
            "workers": workers_csv, "seed": 9,
        }))
        assert run_cli("simulate", "--config", str(config), "--out", str(b)) == 0
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("missing", ["policy", "lf"])
    def test_missing_policy_or_load_factor_is_usage_error(
        self, tmp_path, workers_csv, capsys, missing
    ):
        config = tmp_path / "config.json"
        values = {"policy": "me", "lf": 0.5, "slots": 5, "workers": workers_csv}
        del values[missing]
        config.write_text(json.dumps(values))
        assert run_cli("simulate", "--config", str(config)) == 2
        assert f"simulate requires --{missing}" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path, workers_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"nonsense": 1}))
        code = run_cli(
            "simulate", "--config", str(config), "--policy", "me", "--lf", "0.5",
            "--workers", workers_csv,
        )
        assert code == 2


class TestSweepAndReport:
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


class TestExperimentConfigs:
    """The committed ``results/*.json`` sweep configs reproduce the experiments."""

    def test_desk_config_resolves_to_the_acceptance_grid(self):
        args = cli.parse_args(["sweep", "--config", str(RESULTS / "desk.json")])
        assert cli._sweep_spec(args) == desk_sweep_spec()
        assert (args.gen_n, args.workers) == (500, None)

    @pytest.mark.parametrize("name", ["desk", "scaled"])
    def test_config_sweep_equals_run_sweep(self, tmp_path, capsys, name):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", str(RESULTS / f"{name}.json"), "--slots", "3",
                "--out", str(out)]
        if name == "scaled":
            workers = tmp_path / "workers.csv"
            assert run_cli(
                "gen-workers", "--n", "500", "--seed", "7", "--mu-max-dist", "uniform:4,40",
                "--out", str(workers),
            ) == 0
            argv += ["--workers", str(workers)]
            spec = PopulationSpec(count=500, mu_max_dist=Distribution.uniform(4, 40), seed=7)
        else:
            spec = PopulationSpec(count=500, seed=7)
        assert run_cli(*argv) == 0
        rows = run_sweep(dataclasses.replace(desk_sweep_spec(), slots=3), generate(spec))
        assert out.read_bytes() == sweep_rows_to_csv(rows).encode()
        assert capsys.readouterr().err == (
            "drift-bound violations: 0/450 slots; stability: True; task conservation: True\n"
        )
