import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import workrest.sweep as sweep_mod
from workrest.policies import KNOB_FIELDS
from workrest.population import PopulationSpec, generate
from workrest.sweep import (
    SWEEP_HEADER,
    SweepRow,
    SweepSpec,
    aggregate_report,
    load_sweep_csv,
    report_rows_to_csv,
    run_sweep,
    sweep_rows_to_csv,
)

RESULTS = Path(__file__).resolve().parent.parent / "results"


def load_text(tmp_path, text):
    """``load_sweep_csv`` of a file in ``tmp_path`` holding ``text``."""
    path = tmp_path / "s.csv"
    path.write_text(text)
    return load_sweep_csv(str(path))


@pytest.fixture(scope="module")
def tiny_population():
    return generate(PopulationSpec(count=12, seed=3))


@pytest.fixture(scope="module")
def edge_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("edge") / "s.csv"


# Grid values that six decimals would not tell apart: positives below 5e-7,
# values with eight decimals, and values within 1e-6 of one another.
EDGE_GRID = st.lists(st.one_of(
    st.floats(0.0, 5e-7),
    st.integers(1, 10**8).map(lambda i: i / 10**8),
    st.tuples(st.sampled_from([0.3, 0.5, 1.0]), st.integers(-9, 9)).map(
        lambda bk: bk[0] + bk[1] * 1e-7),
), min_size=1, max_size=3).map(tuple)


def tiny_spec(**overrides):
    base = dict(
        policies=("me", "cpl"),
        phi_grid=(5.0, 100.0),
        sigma_grid=(5.0,),
        theta1_grid=(0.5,),
        theta2_grid=(0.5,),
        lf_grid=(0.1, 0.9),
        slots=40,
        seed=11,
        deadline=3,
    )
    base.update(overrides)
    return SweepSpec(**base)


# (jobs, CPUs, pool processes) of ``test_pool_size_is_bounded``
POOL_CASES = [
    (2, 8, 2),
    (64, 8, 3),  # no more processes than the grid's 3 points
    (64, 2, 2),  # nor than the CPUs
    (64, None, 1),  # an unknown CPU count counts as one
    (2, 1, 1),
]


class TestGrid:
    def test_row_count_includes_me_normalizer(self, tiny_population):
        rows = run_sweep(tiny_spec(), tiny_population)
        # CPL: 2 phis x 2 lfs, plus ME at each lf
        assert len(rows) == 6
        assert [r.policy for r in rows] == ["me", "me", "cpl", "cpl", "cpl", "cpl"]

    def test_me_rows_self_normalize_to_100(self, tiny_population):
        rows = run_sweep(tiny_spec(), tiny_population)
        for r in rows:
            if r.policy == "me":
                assert r.effort_pct_of_me == 100.0
                assert r.completion_pct_of_me == 100.0

    def test_grid_order_is_deterministic(self, tiny_population):
        a = run_sweep(tiny_spec(), tiny_population)
        b = run_sweep(tiny_spec(), tiny_population)
        assert a == b

    def test_parallel_equals_serial(self, tiny_population):
        serial = run_sweep(tiny_spec(), tiny_population, jobs=1)
        parallel = run_sweep(tiny_spec(), tiny_population, jobs=2)
        assert serial == parallel
        assert sweep_rows_to_csv(serial) == sweep_rows_to_csv(parallel)

    # The CPUs are those this process may run on, or, on a platform that cannot
    # say, the machine's; an affinity set is never unknown.
    @pytest.mark.parametrize("affinity,jobs,cpus,processes", [
        (affinity, *case) for affinity in (True, False) for case in POOL_CASES
        if not (affinity and case[1] is None)])
    def test_pool_size_is_bounded(
        self, tiny_population, monkeypatch, affinity, jobs, cpus, processes
    ):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        spec = tiny_spec(lf_grid=(0.1,))
        serial = run_sweep(spec, tiny_population)
        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", InProcessPool)
        if affinity:  # the machine has more CPUs than this process may use
            monkeypatch.setattr(sweep_mod.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 64)
        else:
            monkeypatch.delattr(sweep_mod.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: cpus)
        assert run_sweep(spec, tiny_population, jobs=jobs) == serial
        # one process runs the grid in this one, with no pool
        assert sizes == ([processes] if processes > 1 else [])

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, tiny_population, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            run_sweep(tiny_spec(), tiny_population, jobs=jobs)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(policies=("me", "xx"))
        with pytest.raises(ValueError):
            SweepSpec(policies=("cpl",), phi_grid=())
        with pytest.raises(ValueError):
            SweepSpec(lf_grid=())
        with pytest.raises(ValueError):
            SweepSpec(lf_grid=(0.0, 0.5))
        with pytest.raises(ValueError):
            SweepSpec(theta1_grid=(1.5,))
        with pytest.raises(ValueError):
            SweepSpec(phi_grid=(0.0,))
        with pytest.raises(ValueError, match="slots must be >= 1"):
            SweepSpec(slots=0)
        with pytest.raises(ValueError, match="deadline must be >= 1"):
            SweepSpec(deadline=0)

    @pytest.mark.parametrize("grids,message", [
        ({"lf_grid": (0.5, 0.5)}, "lf_grid repeats 0.5"),
        # a grid its policy does not select is checked too
        ({"policies": ("me",), "phi_grid": (5.0, 5.0)}, "phi_grid repeats 5.0"),
        ({"theta1_grid": (0.2, 0.5, 0.2, 0.5)}, "theta1_grid repeats 0.2"),
        # the message names the value, not the whole grid
        ({"sigma_grid": tuple(float(v) for v in range(1, 10_000)) + (7.0,)},
         "sigma_grid repeats 7.0"),
        # values that compare equal repeat, whatever their text
        ({"theta1_grid": (0.0, -0.0)}, "theta1_grid repeats 0.0"),
    ])
    def test_repeated_grid_value_rejected(self, grids, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec(**grids)

    @pytest.mark.parametrize("grids,points", [
        ({"policies": ("me", "mt"), "theta1_grid": (0.3, 0.30000001), "lf_grid": (0.5,)}, 3),
        ({"policies": ("me", "mt"), "theta1_grid": (0.30000001, 0.3), "lf_grid": (0.5,)}, 3),
        ({"policies": ("me",), "lf_grid": (0.5, 0.5000004)}, 2),
        ({"policies": ("me", "cpl"), "phi_grid": (1e-7,), "lf_grid": (0.5, 4e-7)}, 4),
    ])
    def test_values_six_decimals_cannot_tell_apart_read_back_apart(
        self, tiny_population, tmp_path, grids, points
    ):
        # the file states each value exactly, so near values stay distinct
        # points and tiny ones stay positive
        rows = run_sweep(tiny_spec(**grids), tiny_population)
        assert len(rows) == points
        assert load_text(tmp_path, sweep_rows_to_csv(rows)) == rows

    @pytest.mark.parametrize("grids,message", [
        # an invalid value raises before the points bound ...
        ({"policies": ("me", "cpl"), "lf_grid": tuple(round(0.1 * k, 1) for k in range(1, 11)),
          "phi_grid": (-1.0,) + tuple(float(v) for v in range(1, 10_000)) + (1e4,)},
         "cpl requires phi > 0, got -1.0"),
        # ... and before a repeat later in the walk
        ({"phi_grid": (0.0, 5.0, 5.0)}, "cpl requires phi > 0, got 0.0"),
    ])
    def test_first_fault_in_the_walk_raises(self, grids, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec(**grids)

    def test_grid_size_is_bounded(self):
        # (1 ME row + the selected knob values) per load factor
        lf_grid = tuple(round(0.1 * k, 1) for k in range(1, 11))
        assert sweep_mod.MAX_GRID_POINTS == 100_000
        at_limit = tuple(float(v) for v in range(1, 10_000))
        SweepSpec(policies=("me", "cpl"), phi_grid=at_limit, lf_grid=lf_grid)
        SweepSpec(policies=("me", "mt"), phi_grid=at_limit + (1e4, 1e5), lf_grid=lf_grid)
        with pytest.raises(ValueError, match="the grid has 100010 points, more than 100000"):
            SweepSpec(policies=("me", "cpl"), phi_grid=at_limit + (1e4,), lf_grid=lf_grid)

    def test_zero_workload_points_emit_na_percentages(self, tmp_path):
        # omega=1 at lf=0.05 rounds to zero tasks per slot: the ME baseline
        # averages are zero, so the relative columns carry the NA sentinel.
        from workrest.population import WorkerProfile

        pop = [WorkerProfile(id=0, reputation=1.0, mu_max=1)]
        rows = run_sweep(tiny_spec(lf_grid=(0.05,), slots=20), pop)
        assert all(r.effort_pct_of_me is None for r in rows)
        assert all(r.completion_pct_of_me is None for r in rows)
        text = sweep_rows_to_csv(rows)
        assert text.splitlines()[1].endswith("NA,NA")
        # and the NA sentinel survives a parse round trip
        reparsed = load_text(tmp_path, text)
        assert all(r.effort_pct_of_me is None for r in reparsed)

    def test_failing_point_is_named(self, tiny_population, monkeypatch):
        def boom(config, population, keep_reports=True, **kw):
            raise ArithmeticError("kaput")

        monkeypatch.setattr(sweep_mod, "run", boom)
        with pytest.raises(RuntimeError, match=r"policy=me.*lf=0.1.*kaput"):
            run_sweep(tiny_spec(), tiny_population)

    def test_diagnostics_collection(self, tiny_population):
        rows, diags = run_sweep(tiny_spec(), tiny_population, collect_diagnostics=True)
        assert len(diags) == len(rows)
        assert all(d.conserves_tasks for d in diags)
        assert all(d.stability_ok for d in diags)
        assert sum(d.drift_violations for d in diags) == 0


class TestCsvRoundTrip:
    def test_header_and_parse(self, tiny_population, tmp_path):
        rows = run_sweep(tiny_spec(), tiny_population)
        text = sweep_rows_to_csv(rows)
        assert text.splitlines()[0] == ",".join(SWEEP_HEADER)
        assert load_text(tmp_path, text) == rows

    @pytest.mark.parametrize("name", ["desk_sweep.csv", "scaled_sweep.csv"])
    def test_committed_sweep_files_round_trip(self, name):
        text = (RESULTS / name).read_text()
        assert sweep_rows_to_csv(load_sweep_csv(str(RESULTS / name))) == text

    def test_every_field_round_trips(self, tmp_path):
        # distinct values in every numeric field, so no two columns can swap;
        # the cpl row's percentages are its rates over the me row's
        rows = [
            SweepRow(policy="mt", knob_name="theta1", knob_value=0.25, load_factor=0.5,
                     effort_avg=0.375, expiry_avg=0.125, completion_avg=0.6875,
                     effort_pct_of_me=None, completion_pct_of_me=None),
            SweepRow(policy="me", knob_name="none", knob_value=0.0, load_factor=0.75,
                     effort_avg=0.8, expiry_avg=0.03125, completion_avg=0.9,
                     effort_pct_of_me=100.0, completion_pct_of_me=100.0),
            SweepRow(policy="cpl", knob_name="phi", knob_value=50.0, load_factor=0.75,
                     effort_avg=0.3, expiry_avg=0.0625, completion_avg=0.5625,
                     effort_pct_of_me=37.5, completion_pct_of_me=62.5),
        ]
        assert load_text(tmp_path, sweep_rows_to_csv(rows)) == rows

    @pytest.mark.parametrize("deadline", [3, None])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mu_max_dist", [(1, 10), (1, 1)], ids=["mixed", "unit"])
    def test_every_sweep_file_loads(self, tmp_path, mu_max_dist, seed, deadline):
        # whatever sweep writes, report reads back as the rows in memory
        population = generate(PopulationSpec(count=10 + 20 * seed, mu_max_dist=mu_max_dist,
                                             seed=seed))
        spec = SweepSpec(phi_grid=(5.0, 50.0), sigma_grid=(5.0, 50.0), theta1_grid=(0.2, 0.8),
                         theta2_grid=(0.2, 0.8), lf_grid=(0.1, 0.5, 1.0), slots=20, seed=seed,
                         deadline=deadline)
        rows = run_sweep(spec, population)
        assert load_text(tmp_path, sweep_rows_to_csv(rows)) == rows
        if mu_max_dist == (1, 1):
            # floor(mood * 1) is 0 below a mood of 1: me completes nothing
            assert all(r.completion_avg == 0.0 for r in rows if r.policy == "me")
            assert all(r.completion_pct_of_me is None for r in rows)

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["mt", "mw", "ac", "cpl"]), knobs=EDGE_GRID, lfs=EDGE_GRID)
    def test_what_sweep_accepts_report_reads(self, tiny_population, edge_csv, kind, knobs, lfs):
        # a grid SweepSpec accepts makes a file that loads back as the rows in memory
        try:
            spec = SweepSpec(policies=("me", kind), lf_grid=lfs, slots=3,
                             **{f"{KNOB_FIELDS[kind]}_grid": knobs})
        except ValueError:
            return
        rows = run_sweep(spec, tiny_population)
        edge_csv.write_text(sweep_rows_to_csv(rows))
        assert load_sweep_csv(str(edge_csv)) == rows

    @pytest.mark.parametrize("cpl,loads", [
        # 100 * 0.1 / 0.3 is 33.333333333333336 and 100 * 0.6 / 0.9 is 66.66666666666667
        ("cpl,phi,5,0.5,0.1,0,0.6,33.333333333333336,66.66666666666667", True),
        ("cpl,phi,5,0.5,0.1,0,0.6,33.33333333333333,66.66666666666667", False),  # an ulp off
        ("cpl,phi,5,0.5,0.1,0,0.6,33.333333,66.666667", False),  # six decimals
        ("cpl,phi,5,0.5,0.1,0,0.6,NA,66.66666666666667", False),
    ])
    def test_percentage_is_exact(self, tmp_path, cpl, loads):
        text = f"{','.join(SWEEP_HEADER)}\nme,none,0,0.5,0.3,0,0.9,100.0,100.0\n{cpl}\n"
        if loads:
            assert len(load_text(tmp_path, text)) == 2
        else:
            with pytest.raises(ValueError, match=r"s\.csv: row \(policy=cpl, phi=5\.0, lf=0\.5\)"):
                load_text(tmp_path, text)

    def test_baseline_rate_of_zero_gives_na(self, tmp_path):
        # no percentage of a me rate of 0, not even the me row's own
        header = ",".join(SWEEP_HEADER)
        text = f"{header}\nme,none,0,0.5,0.5,0,0,100.0,NA\ncpl,phi,5,0.5,0.25,0,0.9,50.0,NA\n"
        assert [r.completion_pct_of_me for r in load_text(tmp_path, text)] == [None, None]
        with pytest.raises(ValueError, match=r"completion_pct_of_me is 12345\.0, but the me row "
                                             r"at lf 0\.5 gives NA$"):
            load_text(tmp_path, text.replace("50.0,NA", "50.0,12345"))

    @pytest.mark.parametrize("bad", [
        "me,none,0,0.5,x,0,1,100,100",  # not a number
        "me,none,0,0.5,NA,0,1,100,100",  # NA outside the *_pct_of_me columns
        "me,none,0,0.5,1,0,1,nan,100",
        "me,none,0,0.5,1,0,1,100,-inf",
        "me,none,0,0.5,1e999,0,1,100,100",  # overflows to inf
        "me,none,0,0.5,1,0,1,100,100,7",  # a tenth field
        "foo,phi,5,0.5,1,0,1,50,60",  # a policy sweep never runs
        "me,sigma,0,0.5,1,0,1,100,100",  # a knob of another policy
        "cpl,phi,-3,0.5,1,0,1,50,60",  # a knob value PolicyParams refuses
        "cpl,phi,5,7,1,0,1,50,60",  # a load factor SimConfig refuses
        "me,none,5,0.5,1,0,1,100,100",  # me reads no knob, so its value is 0
        "mt,theta1,1.5,0.5,1,0,1,50,60",  # theta1 outside [0, 1]
        "cpl,kind,5,0.5,1,0,1,50,60",  # a PolicyParams argument, not cpl's knob
        "me,none,0,0.5,7,0,1,100,100",  # rates lie in [0, 1]
        "me,none,0,0.5,1,-0.5,1,100,100",
        "me,none,0,0.5,1,0,1.5,100,100",
    ])
    def test_bad_row_names_its_line(self, tmp_path, bad):
        # the header is line 1, a quoted newline makes the first row lines
        # 2-3, line 4 is blank, and the bad row is line 5
        good = "me,none,0,0.5,1,0,1,100,100"
        text = ",".join(SWEEP_HEADER) + f'\nme,none,"0\n",{good[10:]}\n\n{bad}\n{good}\n'
        policy, knob = bad.split(",")[:2]
        with pytest.raises(ValueError, match=rf"s\.csv:5: bad sweep row \['{policy}', '{knob}', "):
            load_text(tmp_path, text)

    def test_sweep_file_states_floats_exactly_and_report_six_decimals(self, tiny_population):
        rows = run_sweep(tiny_spec(), tiny_population)
        for row, line in zip(rows, sweep_rows_to_csv(rows).splitlines()[1:]):
            assert line.split(",")[2:] == [repr(v) for v in list(vars(row).values())[2:]]
        for line in report_rows_to_csv(aggregate_report(rows)).splitlines()[1:]:
            assert all(len(v.partition(".")[2]) == 6 for v in line.split(",")[1:-1])

    def test_bad_header_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="header"):
            load_text(tmp_path, "a,b,c\n1,2,3\n")

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no data"):
            load_text(tmp_path, ",".join(SWEEP_HEADER) + "\n")


def mkrow(policy, effort_pct, completion_pct, expiry=0.1):
    return SweepRow(
        policy=policy, knob_name="phi", knob_value=5.0, load_factor=0.5,
        effort_avg=0.5, expiry_avg=expiry, completion_avg=0.5,
        effort_pct_of_me=effort_pct, completion_pct_of_me=completion_pct,
    )


class TestReport:
    def test_hand_built_ratio(self):
        rows = [mkrow("cpl", 50.0, 75.0), mkrow("cpl", 50.0, 75.0)]
        (report,) = aggregate_report(rows)
        assert report.superlinearity_ratio == 1.5
        assert report.region == "superlinear"

    def test_linear_diagonal(self):
        rows = [mkrow("mt", 40.0, 40.0), mkrow("mt", 60.0, 60.0)]
        (report,) = aggregate_report(rows)
        assert report.superlinearity_ratio == 1.0
        assert report.region == "linear"

    def test_sublinear_flag(self):
        rows = [mkrow("mw", 80.0, 60.0)]
        (report,) = aggregate_report(rows)
        assert report.superlinearity_ratio == 0.75
        assert report.region == "sublinear"

    def test_na_rows_are_skipped_in_pct_means(self):
        rows = [mkrow("cpl", None, None, expiry=0.2), mkrow("cpl", 50.0, 60.0)]
        (report,) = aggregate_report(rows)
        assert report.mean_effort_pct_of_me == 50.0
        assert report.mean_expiry_avg == pytest.approx(0.15)

    def test_all_na_yields_na_report(self):
        rows = [mkrow("cpl", None, None)]
        (report,) = aggregate_report(rows)
        assert report.superlinearity_ratio is None
        assert report.region == "na"
        assert "NA" in report_rows_to_csv([report])

    def test_aggregates_equal_direct_means(self, tiny_population, tmp_path):
        rows = run_sweep(tiny_spec(), tiny_population)
        parsed = load_text(tmp_path, sweep_rows_to_csv(rows))
        reports = {r.policy: r for r in aggregate_report(parsed)}
        for policy in ("me", "cpl"):
            group = [r for r in parsed if r.policy == policy]
            assert reports[policy].mean_expiry_avg == float(
                np.mean([r.expiry_avg for r in group])
            )
            assert reports[policy].mean_effort_pct_of_me == float(
                np.mean([r.effort_pct_of_me for r in group])
            )
