import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import TaskCohort, WorkerState, mood_sample, to_worker_states
from shadow import ShadowSim
from workrest.engine import (
    ConstantMoods,
    CounterMoods,
    MatrixMoods,
    SimConfig,
    SimState,
    SimulationError,
    _consume_oldest_first,
    compute_lyapunov,
    drift_bound_sides,
    run,
)
from workrest.policies import PolicyParams
from workrest.workers import WorkerProfile


def single_worker():
    return [WorkerProfile(id=0, reputation=1.0, mu_max=4)]


def cpl_config(slots=2, lf=0.5, phi=5.0, **kw):
    return SimConfig(
        slots=slots, load_factor=lf, policy=PolicyParams(kind="cpl", phi=phi), **kw
    )


class TestHandTrace:
    """Two-slot trace: one worker, capacity 4, half workload, mood 0.5."""

    @pytest.fixture()
    def result(self):
        return run(
            cpl_config(), single_worker(),
            mood_source=ConstantMoods(0.5), record_worker_trace=True,
        )

    def test_slot0_rests_and_builds_pressure(self, result):
        r0 = result.reports[0]
        assert (r0.arrivals, r0.completions, r0.expired) == (2, 0, 0)
        assert r0.pending_total == 2
        assert r0.effort_sum == 0.0
        assert result.trace["Q_end"][0][0] == 4
        assert result.trace["q_end"][0][0] == 2

    def test_slot1_works_at_full_effort(self, result):
        r1 = result.reports[1]
        assert (r1.arrivals, r1.completions) == (2, 2)
        assert result.trace["effort"][1][0] == 1.0
        assert result.trace["mu"][1][0] == 2
        assert result.trace["q_end"][1][0] == 2
        assert result.trace["Q_end"][1][0] == 2

    def test_slot0_drift_sides(self, result):
        r0 = result.reports[0]
        assert r0.drift_lhs == 10.0
        assert r0.drift_rhs == 26.0

    def test_single_term_effort_average(self):
        # T=1, N=1, recorded effort 0.4 -> average 0.4
        pop = [WorkerProfile(id=0, reputation=1.0, mu_max=10)]
        config = SimConfig(
            slots=1, load_factor=0.2, policy=PolicyParams(kind="me"), seed=0
        )
        res = run(config, pop, mood_source=ConstantMoods(0.5))
        assert res.reports[0].arrivals == 2
        assert res.metrics.effort_avg == 0.4


class TestLyapunov:
    def test_direct(self):
        states = [WorkerState(q=3, conceptual_q=4)]
        assert oracle.compute_lyapunov(states) == 12.5

    def test_zero(self):
        assert oracle.compute_lyapunov([WorkerState(), WorkerState()]) == 0.0

    def test_two_workers(self):
        states = [WorkerState(q=1), WorkerState(q=1)]
        assert oracle.compute_lyapunov(states) == 1.0

    def test_simstate_matches_worker_states(self):
        pop = [WorkerProfile(id=i, reputation=1.0, mu_max=3) for i in range(4)]
        state = SimState.from_population(pop, cpl_config(slots=5, lf=1.0))
        state.q = np.array([1, 2, 3, 4])
        state.Q = np.array([0, 1, 0, 2])
        assert compute_lyapunov(state) == oracle.compute_lyapunov(to_worker_states(state))


class TestDriftBound:
    def test_all_zero_state(self):
        n = 3
        z = np.zeros(n, dtype=np.int64)
        lhs, rhs = drift_bound_sides(z, z, z, z, z, lambda_max=2, mu_max_global=4)
        assert lhs == 0.0
        assert rhs == n * 0.5 * (4 + 16) + n * 0.5 * 16

    def test_hand_trace_slot0(self):
        lhs, rhs = drift_bound_sides(
            q=np.array([0]), Q=np.array([0]), lam=np.array([2]), mu=np.array([0]),
            x=np.array([4]), lambda_max=2, mu_max_global=4,
        )
        assert (lhs, rhs) == (10.0, 26.0)

    def test_randomized_inequality_100k_slots(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(200):
            n = 500
            mu_max_i = rng.integers(1, 11, n)
            mu_max_g = int(mu_max_i.max())
            lam_max = int(rng.integers(1, 50))
            q = rng.integers(0, 40, n)
            Q = rng.integers(0, 200, n)
            lam = rng.integers(0, lam_max + 1, n)
            mu = np.minimum(rng.integers(0, mu_max_g + 1, n), q + lam)
            ind = (rng.random(n) < 0.5) & (q + lam > 0) & (mu == 0)
            x = mu_max_i * ind
            headroom = np.maximum(0, q + lam - mu)
            expired = rng.integers(0, 1000, n) % (headroom + 1)
            lhs, rhs = drift_bound_sides(q, Q, lam, mu, x, lam_max, mu_max_g, expired)
            assert lhs <= rhs
            checked += n
        assert checked >= 100_000


policy_params_strategy = st.one_of(
    st.just(PolicyParams(kind="me")),
    st.floats(min_value=0.0, max_value=1.0).map(lambda v: PolicyParams(kind="mt", theta1=v)),
    st.floats(min_value=0.0, max_value=1.0).map(lambda v: PolicyParams(kind="mw", theta2=v)),
    st.floats(min_value=0.5, max_value=120.0).map(lambda v: PolicyParams(kind="ac", sigma=v)),
    st.floats(min_value=0.5, max_value=120.0).map(lambda v: PolicyParams(kind="cpl", phi=v)),
)


class TestEngineMatchesScalarOracle:
    """The vectorized engine must replay the scalar per-worker operations."""

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.integers(min_value=1, max_value=12),
            ),
            min_size=1,
            max_size=6,
        ),
        policy_params_strategy,
        st.floats(min_value=0.05, max_value=1.0),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([1, 2, 3, 5, None]),
    )
    @settings(max_examples=60, deadline=None)
    def test_full_equivalence(self, worker_rows, params, lf, seed, deadline):
        population = [
            WorkerProfile(id=i, reputation=r, mu_max=m)
            for i, (r, m) in enumerate(worker_rows)
        ]
        if sum(p.reputation * p.mu_max for p in population) <= 0.0:
            population[0] = WorkerProfile(id=0, reputation=0.5, mu_max=3)
        slots = 30
        config = SimConfig(
            slots=slots, load_factor=lf,
            policy=params, seed=seed, deadline=deadline,
        )
        result = run(config, population, record_worker_trace=True)

        ref = ShadowSim(
            population=population, policy=params, load_factor=lf,
            seed=seed, deadline=deadline,
        )
        for t in range(slots):
            slot = ref.step(t)
            report = result.reports[t]
            assert result.trace["lam"][t].tolist() == slot.lam
            assert result.trace["mood"][t].tolist() == slot.mood
            assert result.trace["effort"][t].tolist() == slot.effort
            assert result.trace["mu"][t].tolist() == slot.mu
            assert result.trace["x"][t].tolist() == slot.x
            assert result.trace["expired"][t].tolist() == slot.expired
            assert result.trace["q_end"][t].tolist() == slot.q_end
            assert result.trace["Q_end"][t].tolist() == slot.Q_end
            assert report.arrivals == slot.arrivals
            assert report.completions == slot.completions
            assert report.expired == slot.expired_total
            assert report.pending_total == slot.pending_total
            assert report.effort_sum == slot.effort_sum
            assert report.expiry_ratio_sum == slot.expiry_ratio_sum
        # the exported per-worker FIFOs agree with the scalar states; without
        # a deadline ages are not engine state, so only the queues compare
        if deadline is None:
            final = result.final_state
            assert list(zip(final.q.tolist(), final.Q.tolist())) == [
                (s.q, s.conceptual_q) for s in ref.states
            ]
        else:
            assert to_worker_states(result.final_state) == ref.states


class TestRunInvariants:
    @pytest.mark.parametrize("kind,knob", [
        ("me", {}),
        ("mt", {"theta1": 0.6}),
        ("mw", {"theta2": 0.4}),
        ("ac", {"sigma": 20.0}),
        ("cpl", {"phi": 20.0}),
    ])
    def test_conservation_stability_drift(self, kind, knob):
        pop = [
            WorkerProfile(id=i, reputation=0.4 + 0.03 * i, mu_max=1 + i % 7)
            for i in range(20)
        ]
        config = SimConfig(
            slots=300, load_factor=0.7,
            policy=PolicyParams(kind=kind, **knob), seed=99,
        )
        res = run(config, pop)
        assert res.conserves_tasks()
        assert (res.stability_margins() >= 0).all()
        assert res.drift_violations == 0
        m = res.metrics
        assert 0.0 <= m.effort_avg <= 1.0
        assert 0.0 <= m.expiry_avg <= 1.0
        assert 0.0 <= m.completion_avg <= 1.0

    def test_lyapunov_deltas_equal_drift_lhs(self):
        pop = [WorkerProfile(id=i, reputation=0.9, mu_max=3) for i in range(5)]
        config = SimConfig(
            slots=100, load_factor=0.8, policy=PolicyParams(kind="cpl", phi=10.0), seed=4
        )
        res = run(config, pop)
        prev = 0.0
        for report in res.reports:
            assert report.lyapunov - prev == report.drift_lhs
            assert report.lyapunov >= 0.0
            prev = report.lyapunov

    def test_me_with_top_mood_and_light_load_never_expires(self):
        # 4 equal workers, capacity 5 each, 8 tasks/slot: every slot clears.
        pop = [WorkerProfile(id=i, reputation=1.0, mu_max=5) for i in range(4)]
        config = SimConfig(
            slots=200, load_factor=0.4, policy=PolicyParams(kind="me"), seed=0
        )
        res = run(config, pop, mood_source=ConstantMoods(1.0))
        assert res.expired_total == 0
        assert res.metrics.expiry_avg == 0.0
        assert all(r.completions == r.arrivals for r in res.reports)

    def test_completion_rate_skips_empty_slots(self):
        # Capacity clears everything in-slot, so pending is never zero at
        # observation time; instead check the counter on a normal run.
        pop = single_worker()
        res = run(cpl_config(slots=10), pop, mood_source=ConstantMoods(0.5))
        assert res.metrics.slots_counted_for_completion == 10

    def test_workload_can_round_to_zero_tasks(self):
        # omega=1 and lf=0.05 give a per-slot workload of round(0.05) = 0:
        # every slot is empty, every policy rests, all metrics are zero
        # and no slot counts toward the completion average.
        pop = [WorkerProfile(id=0, reputation=1.0, mu_max=1)]
        config = SimConfig(
            slots=50, load_factor=0.05, policy=PolicyParams(kind="me"), seed=1
        )
        res = run(config, pop)
        assert res.arrivals_total == 0
        assert res.metrics.slots_counted_for_completion == 0
        assert res.metrics == type(res.metrics)(0.0, 0.0, 0.0, 0)
        assert all(r.lyapunov == 0.0 and r.effort_sum == 0.0 for r in res.reports)

    def test_expiry_ratio_counts_only_pending_workers(self):
        # Worker 1 has zero reputation: it never receives tasks, so only
        # worker 0 can appear in the expiry-ratio denominator count.
        pop = [
            WorkerProfile(id=0, reputation=1.0, mu_max=2),
            WorkerProfile(id=1, reputation=0.0, mu_max=9),
        ]
        config = SimConfig(
            slots=20, load_factor=1.0,
            policy=PolicyParams(kind="mt", theta1=1.0), seed=0,
        )
        res = run(config, pop, record_worker_trace=True)
        for t, report in enumerate(res.reports):
            assert report.workers_with_pending == 1
            assert (res.trace["lam"][t][1], res.trace["mu"][t][1]) == (0, 0)
            if report.expired:
                # never works: from slot 2 on, the oldest cohort expires
                q_hat = int(res.trace["q_hat"][t][0])
                assert report.expiry_ratio_sum == report.expired / q_hat

    def test_determinism_bit_identical(self):
        pop = [
            WorkerProfile(id=i, reputation=0.5 + 0.01 * i, mu_max=1 + i % 9)
            for i in range(30)
        ]
        config = SimConfig(
            slots=150, load_factor=0.6, policy=PolicyParams(kind="cpl", phi=30.0), seed=5
        )
        a = run(config, pop)
        b = run(config, pop)
        assert a.metrics == b.metrics
        assert a.reports == b.reports

    def test_seed_changes_results(self):
        pop = [WorkerProfile(id=i, reputation=0.8, mu_max=4) for i in range(10)]
        base = dict(slots=100, load_factor=0.5, policy=PolicyParams(kind="me"))
        a = run(SimConfig(seed=1, **base), pop)
        b = run(SimConfig(seed=2, **base), pop)
        assert a.metrics != b.metrics


class TestConsumeOldestFirst:
    """Phase 6's in-place drain against the oracle's cohort FIFO, row by row."""

    @given(st.data(), st.integers(min_value=1, max_value=12), st.sampled_from([1, 3]))
    @settings(max_examples=200)
    def test_drains_in_place_like_the_cohort_fifo(self, data, n, width):
        cells = st.lists(st.integers(0, 9), min_size=width, max_size=width)
        buckets = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)), order="F")
        totals = buckets.sum(axis=1)
        mu = np.array([data.draw(st.integers(0, int(t))) for t in totals])
        full = data.draw(st.integers(0, n - 1))
        mu[full] = totals[full]  # at least one row drains entirely
        mu_before = mu.copy()
        expected = np.zeros_like(buckets)
        for i, row in enumerate(buckets):
            fifo = [TaskCohort(int(row[a]), a) for a in range(width - 1, -1, -1) if row[a]]
            state = WorkerState(backlog=fifo, q=int(row.sum()))
            oracle.complete_and_age(state, int(mu[i]), None)
            for cohort in state.backlog:  # aged by one slot; the drain itself does not age
                expected[i, cohort.age - 1] = cohort.count

        _consume_oldest_first(buckets, mu)
        assert buckets.flags.f_contiguous
        assert buckets.tolist() == expected.tolist()
        assert mu.tolist() == mu_before.tolist()


class TestNoDeadline:
    def test_fifo_matches_count_recurrence(self):
        pop = [
            WorkerProfile(id=i, reputation=0.3 + 0.1 * i, mu_max=2 + i) for i in range(5)
        ]
        config = SimConfig(
            slots=500, load_factor=0.9,
            policy=PolicyParams(kind="mt", theta1=0.7), seed=17, deadline=None,
        )
        res = run(config, pop, record_worker_trace=True)
        assert res.expired_total == 0
        q = np.zeros(5, dtype=np.int64)
        for t in range(config.slots):
            q = np.maximum(0, q + res.trace["lam"][t] - res.trace["mu"][t])
            assert (res.trace["q_end"][t] == q).all()

    @pytest.mark.parametrize("slots", [100, 2_000])
    def test_backlog_state_stays_one_column(self, slots):
        # Never works, never expires: everything stays pending, and the
        # state is the count alone however long the run, so a slot's cost
        # does not grow with T.
        pop = [WorkerProfile(id=i, reputation=1.0, mu_max=2) for i in range(3)]
        config = SimConfig(
            slots=slots, load_factor=1.0,
            policy=PolicyParams(kind="mt", theta1=1.0), seed=0, deadline=None,
        )
        res = run(config, pop, keep_reports=False)
        assert res.final_state.buckets.shape == (len(pop), 1)
        assert res.pending_final == res.arrivals_total


class TestValidation:
    def test_zero_capacity_population_rejected(self):
        pop = [WorkerProfile(id=0, reputation=0.0, mu_max=5)]
        with pytest.raises(ValueError, match="capacity"):
            run(cpl_config(), pop)

    def test_duplicate_ids_rejected(self):
        pop = [
            WorkerProfile(id=1, reputation=0.5, mu_max=5),
            WorkerProfile(id=1, reputation=0.6, mu_max=5),
        ]
        with pytest.raises(ValueError, match="unique"):
            run(cpl_config(), pop)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(slots=0, load_factor=0.5, policy=PolicyParams(kind="me"))
        with pytest.raises(ValueError):
            SimConfig(slots=10, load_factor=1.5, policy=PolicyParams(kind="me"))
        with pytest.raises(ValueError):
            SimConfig(slots=10, load_factor=0.5, policy=PolicyParams(kind="me"), deadline=0)

    def test_overcompletion_aborts(self, monkeypatch):
        # the policy layer cannot produce mu > backlog, so fake a buggy one
        import workrest.engine as engine_mod

        def buggy_decide(params, q, Q, m, mu_max, floor):
            return np.ones(len(q)), q + 1

        monkeypatch.setattr(engine_mod, "decide", buggy_decide)
        config = SimConfig(
            slots=1, load_factor=0.5, policy=PolicyParams(kind="me"), seed=0
        )
        with pytest.raises(SimulationError, match="completed"):
            run(config, single_worker())


def _moods_bad_at_slot_2(value):
    moods = np.full((4, 3), 0.5)
    moods[2, 1] = value
    return moods


class TestMoodSources:
    def test_counter_moods_match_scalar(self):
        ids = np.array([3, 9], dtype=np.int64)
        vals = CounterMoods(77)(5, ids)
        assert vals[0] == mood_sample(77, 3, 5)
        assert vals[1] == mood_sample(77, 9, 5)

    def test_matrix_moods(self):
        source = MatrixMoods(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert source(1, np.array([0, 1])).tolist() == [0.3, 0.4]

    def test_constant_moods_validation(self):
        with pytest.raises(ValueError):
            ConstantMoods(1.5)

    @pytest.mark.parametrize("moods,message", [
        (np.full((4, 1), 0.5), r"^slot 0: mood source gave shape \(1,\)"),
        (_moods_bad_at_slot_2(1.7), r"^slot 2: moods must lie in \[0, 1\]"),
        (_moods_bad_at_slot_2(-0.2), r"^slot 2: moods must lie in \[0, 1\]"),
        (_moods_bad_at_slot_2(np.nan), r"^slot 2: moods must lie in \[0, 1\]"),
    ], ids=["one-column", "above-one", "negative", "nan"])
    def test_bad_moods_are_rejected_naming_the_slot(self, moods, message):
        pop = [WorkerProfile(id=i, reputation=1.0, mu_max=4) for i in range(3)]
        config = SimConfig(slots=4, load_factor=0.5, policy=PolicyParams(kind="me"))
        with pytest.raises(ValueError, match=message):
            run(config, pop, mood_source=MatrixMoods(moods))
