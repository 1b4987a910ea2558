import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import lossy_apportion, traced_run
from oracle import WorkerState, mood_sample, to_worker_states
from shadow import ShadowSim
from workrest import engine
from workrest.engine import (
    CounterMoods,
    SimConfig,
    SimState,
    SimulationError,
    drift_bound_sides,
    run,
)
from workrest.policies import PolicyParams
from workrest.population import PopulationSpec, generate
from workrest.rng import uniform01_array
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
    def traced(self):
        return traced_run(
            cpl_config(), single_worker(), mood_source=lambda t, ids: np.full(len(ids), 0.5),
        )

    def test_slot0_rests_and_builds_pressure(self, traced):
        result, trace = traced
        r0 = result.reports[0]
        assert (r0.arrivals, r0.completions, r0.expired) == (2, 0, 0)
        assert r0.pending_total == 2
        assert r0.effort_sum == 0.0
        assert trace["Q_end"][0][0] == 4
        assert trace["q_end"][0][0] == 2

    def test_slot1_works_at_full_effort(self, traced):
        result, trace = traced
        r1 = result.reports[1]
        assert (r1.arrivals, r1.completions) == (2, 2)
        assert trace["effort"][1][0] == 1.0
        assert trace["mu"][1][0] == 2
        assert trace["q_end"][1][0] == 2
        assert trace["Q_end"][1][0] == 2

    def test_slot0_drift_sides(self, traced):
        r0 = traced[0].reports[0]
        assert r0.drift_lhs == 10.0
        assert r0.drift_rhs == 26.0

    def test_single_term_effort_average(self):
        # T=1, N=1, recorded effort 0.4 -> average 0.4
        pop = [WorkerProfile(id=0, reputation=1.0, mu_max=10)]
        config = SimConfig(
            slots=1, load_factor=0.2, policy=PolicyParams(kind="me"), seed=0
        )
        res = run(config, pop, mood_source=lambda t, ids: np.full(len(ids), 0.5))
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



def paper_drift_sides(q, Q, lam, mu, x, expired, lambda_max, mu_max_global):
    """``drift_bound_sides`` with the outgoing queues built from the paper's
    recurrences and the carried Lyapunov value from the carried queues."""
    q_next = np.maximum(0, np.maximum(0, q + lam - mu) - expired)
    Q_next = np.maximum(0, Q + x - mu)
    lyap2 = int(q @ q) + int(Q @ Q)
    return drift_bound_sides(
        q, Q, lam, mu, x, q_next, Q_next, lyap2, lambda_max, mu_max_global
    )


class TestDriftBound:
    def test_all_zero_state(self):
        n = 3
        z = np.zeros(n, dtype=np.int64)
        lhs2, rhs2, lyap2 = paper_drift_sides(z, z, z, z, z, z, lambda_max=2, mu_max_global=4)
        assert (lhs2, lyap2) == (0, 0)
        assert rhs2 == n * (4 + 16) + n * 16

    def test_hand_trace_slot0(self):
        zero = np.array([0])
        lhs2, rhs2, lyap2 = paper_drift_sides(
            q=zero, Q=zero, lam=np.array([2]), mu=zero, x=np.array([4]), expired=zero,
            lambda_max=2, mu_max_global=4,
        )
        assert (lhs2, rhs2, lyap2) == (20, 52, 20)

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
            lhs2, rhs2, _ = paper_drift_sides(q, Q, lam, mu, x, expired, lam_max, mu_max_g)
            assert lhs2 <= rhs2
            checked += n
        assert checked >= 100_000

    def test_violations_are_counted_on_the_exact_sides(self, monkeypatch):
        # Halved to floats, 2**59 + 1 and 2**59 round to the same value.
        def stub(q, Q, lam, mu, x, q_next, Q_next, lyap2, lambda_max, mu_max_global):
            return 2**60 + 2, 2**60, lyap2

        monkeypatch.setattr(engine, "drift_bound_sides", stub)
        res = run(SimConfig(slots=5, load_factor=0.5, policy=PolicyParams(kind="me")),
                  single_worker())
        assert all(r.drift_lhs == r.drift_rhs == 2.0**59 for r in res.reports)
        assert res.drift_violations == 5


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
        # 30 and 31 are the run's length and one past it; 10**9 never binds.
        st.sampled_from([1, 2, 3, 5, 30, 31, 10**9, None]),
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
        result, trace = traced_run(config, population)

        ref = ShadowSim(
            population=population, policy=params, load_factor=lf,
            seed=seed, deadline=deadline,
        )
        prev_lyapunov = 0.0
        for t in range(slots):
            slot = ref.step(t)
            report = result.reports[t]
            lyapunov = oracle.compute_lyapunov(ref.states)
            assert report.lyapunov == lyapunov
            assert report.drift_lhs == lyapunov - prev_lyapunov
            prev_lyapunov = lyapunov
            assert trace["lam"][t].tolist() == slot.lam
            assert trace["mood"][t].tolist() == slot.mood
            assert trace["effort"][t].tolist() == slot.effort
            assert trace["mu"][t].tolist() == slot.mu
            assert trace["x"][t].tolist() == slot.x
            assert trace["expired"][t].tolist() == slot.expired
            assert trace["q_end"][t].tolist() == slot.q_end
            assert trace["Q_end"][t].tolist() == slot.Q_end
            assert report.arrivals == slot.arrivals
            assert report.completions == slot.completions
            assert report.expired == slot.expired_total
            assert report.pending_total == slot.pending_total
            assert report.effort_sum == slot.effort_sum
            assert report.expiry_ratio_sum == slot.expiry_ratio_sum
        # the exported per-worker FIFOs agree with the scalar states; without
        # a binding deadline ages are not engine state, so only the queues compare
        final_workers = to_worker_states(result.final_state, slots)
        assert oracle.compute_lyapunov(final_workers) == result.reports[-1].lyapunov
        if result.final_state.deadline is None:
            final = result.final_state
            assert list(zip(final.q.tolist(), final.Q.tolist())) == [
                (s.q, s.conceptual_q) for s in ref.states
            ]
        else:
            assert final_workers == ref.states


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

    def test_me_with_top_mood_and_light_load_never_expires(self):
        # 4 equal workers, capacity 5 each, 8 tasks/slot: every slot clears.
        pop = [WorkerProfile(id=i, reputation=1.0, mu_max=5) for i in range(4)]
        config = SimConfig(
            slots=200, load_factor=0.4, policy=PolicyParams(kind="me"), seed=0
        )
        res = run(config, pop, mood_source=lambda t, ids: np.full(len(ids), 1.0))
        assert res.expired_total == 0
        assert res.metrics.expiry_avg == 0.0
        assert all(r.completions == r.arrivals for r in res.reports)

    def test_completion_rate_skips_empty_slots(self):
        # Capacity clears everything in-slot, so pending is never zero at
        # observation time; instead check the counter on a normal run.
        pop = single_worker()
        res = run(cpl_config(slots=10), pop,
                  mood_source=lambda t, ids: np.full(len(ids), 0.5))
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
        # worker 0 is ever pending and enters the expiry ratio.
        pop = [
            WorkerProfile(id=0, reputation=1.0, mu_max=2),
            WorkerProfile(id=1, reputation=0.0, mu_max=9),
        ]
        config = SimConfig(
            slots=20, load_factor=1.0,
            policy=PolicyParams(kind="mt", theta1=1.0), seed=0,
        )
        res, trace = traced_run(config, pop)
        for t, report in enumerate(res.reports):
            assert np.count_nonzero(trace["q_hat"][t]) == 1
            assert (trace["lam"][t][1], trace["mu"][t][1]) == (0, 0)
            if report.expired:
                # never works: from slot 2 on, the oldest cohort expires
                q_hat = int(trace["q_hat"][t][0])
                assert report.expiry_ratio_sum == report.expired / q_hat

    def test_expiry_ratio_sum_is_exact_with_and_without_expiries(self):
        # Slots that expire nothing and slots that expire some tasks must
        # both give the scalar oracle's sum bit for bit.
        pop = [WorkerProfile(id=i, reputation=1.0 - 0.1 * i, mu_max=2 + i) for i in range(5)]
        params = PolicyParams(kind="mt", theta1=0.5)
        config = SimConfig(slots=40, load_factor=0.4, policy=params, seed=5, deadline=2)
        res = run(config, pop)
        ref = ShadowSim(population=pop, policy=params, load_factor=0.4, seed=5, deadline=2)
        for t, report in enumerate(res.reports):
            slot = ref.step(t)
            assert (report.expired, report.expiry_ratio_sum) == (
                slot.expired_total, slot.expiry_ratio_sum)
        quiet = [r for r in res.reports if r.expired == 0 and r.pending_total > 0]
        assert len(quiet) >= 5 and sum(r.expired > 0 for r in res.reports) >= 5

    def test_conservation_catches_a_lost_delegation_unit(self, monkeypatch):
        # The ledger counts arrivals as the slot workload, not as the units
        # delegation handed out, so a unit lost in delegation shows.
        monkeypatch.setattr(engine, "apportion", lossy_apportion)
        config = SimConfig(slots=5, load_factor=0.5, policy=PolicyParams(kind="me"))
        res = run(config, [WorkerProfile(id=i, reputation=1.0, mu_max=4) for i in range(3)])
        assert res.arrivals_total == 5 * 6
        assert not res.conserves_tasks()

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

    @pytest.mark.parametrize("deadline", [2, None])
    def test_reports_are_optional_and_add_up_to_the_totals(self, deadline):
        # A run without reports gives the same results, and the reports of
        # a run that keeps them add up to its totals.
        pop = [WorkerProfile(id=i, reputation=0.5 + 0.02 * i, mu_max=1 + i % 6) for i in range(25)]
        config = SimConfig(slots=120, load_factor=0.8, policy=PolicyParams(kind="cpl", phi=10.0),
                           seed=3, deadline=deadline)
        kept, bare = run(config, pop), run(config, pop, keep_reports=False)
        assert bare.reports == [] and [r.slot for r in kept.reports] == list(range(config.slots))
        assert kept.metrics == bare.metrics
        totals = [(r.arrivals_total, r.completions_total, r.expired_total, r.drift_violations)
                  for r in (kept, bare)]
        assert totals[0] == totals[1]
        assert (kept.final_state.q == bare.final_state.q).all()
        assert sum(r.completions for r in kept.reports) == kept.completions_total
        assert sum(r.expired for r in kept.reports) == kept.expired_total
        assert (kept.expired_total > 0) == (deadline is not None)
        assert sum(r.drift_lhs > r.drift_rhs for r in kept.reports) == kept.drift_violations

    def test_seed_changes_results(self):
        pop = [WorkerProfile(id=i, reputation=0.8, mu_max=4) for i in range(10)]
        base = dict(slots=100, load_factor=0.5, policy=PolicyParams(kind="me"))
        a = run(SimConfig(seed=1, **base), pop)
        b = run(SimConfig(seed=2, **base), pop)
        assert a.metrics != b.metrics


class TestExpiryFromArrivals:
    """Phase 6's expiry, read from cumulative arrivals, against the oracle's
    cohort FIFO, worker by worker."""

    @given(st.data(), st.integers(min_value=1, max_value=6), st.sampled_from([1, 2, 3, 7]))
    @settings(max_examples=200, deadline=None)
    def test_expires_like_the_cohort_fifo(self, data, n, d):
        # Random arrivals and completions over slots 0..t build each worker's
        # FIFO; the engine gets the same arrival history and carried backlog
        # and runs slot t.
        t = data.draw(st.integers(0, 2 * d + 1), label="slot")
        row = st.lists(st.integers(0, 5), min_size=t + 1, max_size=t + 1)
        lam = np.array(data.draw(st.lists(row, min_size=n, max_size=n)), dtype=np.int64)
        workers, q, mu = [], [], []
        for i in range(n):
            worker = WorkerState()
            for s in range(t + 1):
                if s == t:
                    q.append(worker.q)
                oracle.enqueue_arrivals(worker, int(lam[i, s]))
                done = data.draw(st.integers(0, worker.q))
                oracle.complete_and_age(worker, done, d)
            workers.append(worker)
            mu.append(done)

        config = SimConfig(slots=max(t + 1, d), load_factor=1.0, policy=PolicyParams("me"),
                           deadline=d)
        pop = [WorkerProfile(id=i, reputation=1.0, mu_max=1) for i in range(n)]
        state = SimState.from_population(pop, config)
        arrived = lam.cumsum(axis=1)
        for s in range(max(0, t - d), t):
            state.arrived[:, s % d] = arrived[:, s]
        state.q = np.array(q, dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "apportion", lambda w_req, weights, ids: lam[:, t].copy())
            mp.setattr(engine, "decide", lambda *args, **kw: (np.zeros(n), np.array(mu)))
            engine._step_arrays(state, config, t, lambda slot, ids: np.zeros(len(ids)))
        assert state.q.tolist() == [w.q for w in workers]
        exported = to_worker_states(state, t + 1)
        assert [w.backlog for w in exported] == [w.backlog for w in workers]

    def test_backlog_older_than_the_deadline_is_a_bookkeeping_error(self):
        # Five tasks carried with no arrivals on record are older than the
        # deadline; the slot must stop, not expire or keep them.
        config = cpl_config(deadline=2)
        state = SimState.from_population(single_worker(), config)
        state.q = np.array([5], dtype=np.int64)
        with pytest.raises(SimulationError, match="bookkeeping"):
            engine._step_arrays(state, config, 0, lambda slot, ids: np.full(len(ids), 0.5))

    def test_numpy_lookups_per_run_do_not_grow_with_the_deadline(self, monkeypatch):
        # A slot's cost is a fixed number of vector operations whatever the
        # deadline, so a run at deadline = slots looks up as many numpy
        # functions as one at deadline 3.
        class CountingNumpy:
            lookups = 0

            def __getattr__(self, name):
                CountingNumpy.lookups += 1
                return getattr(np, name)

        pop = [WorkerProfile(id=i, reputation=0.5 + 0.02 * i, mu_max=1 + i % 5) for i in range(20)]
        counts = []
        for deadline in (3, 200):
            CountingNumpy.lookups = 0
            monkeypatch.setattr(engine, "np", CountingNumpy())
            run(cpl_config(slots=200, phi=20.0, deadline=deadline), pop, keep_reports=False)
            monkeypatch.undo()
            counts.append(CountingNumpy.lookups)
        assert counts[0] == counts[1]


class TestNoDeadline:
    def test_fifo_matches_count_recurrence(self):
        pop = [
            WorkerProfile(id=i, reputation=0.3 + 0.1 * i, mu_max=2 + i) for i in range(5)
        ]
        config = SimConfig(
            slots=500, load_factor=0.9,
            policy=PolicyParams(kind="mt", theta1=0.7), seed=17, deadline=None,
        )
        res, trace = traced_run(config, pop)
        assert res.expired_total == 0
        q = np.zeros(5, dtype=np.int64)
        for t in range(config.slots):
            q = np.maximum(0, q + trace["lam"][t] - trace["mu"][t])
            assert (trace["q_end"][t] == q).all()

    @pytest.mark.parametrize("slots", [100, 2_000])
    def test_backlog_state_stays_one_column(self, slots):
        # Never works, never expires: everything stays pending, and the
        # state is the count alone however long the run, with no arrival
        # history, so a slot's cost does not grow with T.
        pop = [WorkerProfile(id=i, reputation=1.0, mu_max=2) for i in range(3)]
        config = SimConfig(
            slots=slots, load_factor=1.0,
            policy=PolicyParams(kind="mt", theta1=1.0), seed=0, deadline=None,
        )
        res = run(config, pop, keep_reports=False)
        assert res.final_state.arrived is None
        assert res.pending_final == res.arrivals_total

    def test_deadline_beyond_the_run_is_no_deadline(self):
        # A deadline longer than the run expires nothing, so it costs what
        # no deadline costs: no arrival history, not one column per slot up
        # to 10**9.
        pop = [WorkerProfile(id=i, reputation=1.0, mu_max=2 + i) for i in range(10)]
        runs = [
            run(SimConfig(slots=5, load_factor=0.5, policy=PolicyParams(kind="me"),
                          deadline=deadline), pop)
            for deadline in (10**9, None)
        ]
        assert [r.final_state.deadline for r in runs] == [None, None]
        assert runs[0].final_state.arrived is None
        assert runs[0].reports == runs[1].reports
        assert runs[0].metrics == runs[1].metrics


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

    # One worker that always rests with its backlog piling up: after T slots
    # q = Q = T * g, and the backlog bound T * w_req * (T * w_req + g) with
    # w_req = g reads T * (T + 1) * g**2. At T = 6 it stays below 2**63 up
    # to this g.
    G_INSIDE = math.isqrt((2**63 - 1) // 42)

    def _piling_up(self, mu_max):
        config = SimConfig(
            slots=6, load_factor=1.0, policy=PolicyParams(kind="ac", sigma=1e30),
            deadline=None,
        )
        return config, [WorkerProfile(id=0, reputation=1.0, mu_max=mu_max)]

    def test_inputs_just_inside_the_int64_bound_stay_exact(self):
        config, pop = self._piling_up(self.G_INSIDE)
        res, trace = traced_run(config, pop)
        g = self.G_INSIDE
        q = Q = lyap2 = 0
        for t, report in enumerate(res.reports):
            lam, mu, x = (int(trace[k][t][0]) for k in ("lam", "mu", "x"))
            q_next, Q_next = int(trace["q_end"][t][0]), int(trace["Q_end"][t][0])
            assert (q_next, Q_next) == ((t + 1) * g, (t + 1) * g)
            next2 = q_next * q_next + Q_next * Q_next
            lambda_max = g  # the slot workload, round(1.0 * g)
            rhs2 = (2 * q * (lam - mu) - 2 * mu * lam + lambda_max * lambda_max + g * g
                    + 2 * Q * (g * (x > 0) - mu) + g * g * ((x > 0) + 1))
            assert (report.lyapunov, report.drift_lhs, report.drift_rhs) == (
                next2 / 2.0, (next2 - lyap2) / 2.0, rhs2 / 2.0
            )
            q, Q, lyap2 = q_next, Q_next, next2
        assert res.drift_violations == 0

    def test_inputs_just_beyond_the_int64_bound_are_rejected(self):
        config, pop = self._piling_up(self.G_INSIDE + 1)
        with pytest.raises(ValueError, match=r"int64 drift sums may reach \d+, beyond 2\*\*63"):
            run(config, pop)

    @settings(max_examples=60, deadline=None)
    @given(
        caps=st.lists(st.one_of(st.integers(1, 2**32), st.integers(2**52, 2**53)),
                      min_size=1, max_size=3),
        lf=st.floats(0.0, 1.0, exclude_min=True),
        slots=st.integers(1, 6),
        deadline=st.sampled_from([1, 3, None, "slots"]),
        policy=st.sampled_from([PolicyParams("me"), PolicyParams("ac", sigma=1e30)]),
    )
    def test_inputs_near_the_exactness_bounds_are_rejected_or_exact(
        self, caps, lf, slots, deadline, policy
    ):
        # ``ac`` at sigma = 1e30 always rests, so its queues pile up.
        pop = [WorkerProfile(id=i, reputation=1.0, mu_max=m) for i, m in enumerate(caps)]
        deadline = slots if deadline == "slots" else deadline
        config = SimConfig(slots=slots, load_factor=lf, policy=policy, deadline=deadline)
        try:
            SimState.from_population(pop, config)
        except ValueError as exc:
            assert "2**53" in str(exc) or "2**63" in str(exc), exc
            return
        res, trace = traced_run(config, pop)
        assert res.drift_violations == 0 and res.conserves_tasks()
        lyap2 = 0
        for t, report in enumerate(res.reports):
            next2 = sum(int(v) ** 2 for k in ("q_end", "Q_end") for v in trace[k][t])
            assert (report.lyapunov, report.drift_lhs) == (next2 / 2.0, (next2 - lyap2) / 2.0)
            lyap2 = next2

    def test_overcompletion_aborts(self, monkeypatch):
        # the policy layer cannot produce mu > backlog, so fake a buggy one
        def buggy_decide(params, q, Q, m, mu_max, floor):
            return np.ones(len(q)), q + 1

        monkeypatch.setattr(engine, "decide", buggy_decide)
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

    @pytest.mark.parametrize("n", [500, 16385])
    def test_block_draws_equal_one_draw_per_slot(self, n):
        # Blocks are 32 slots at n = 500 and one slot above 16,384 workers;
        # in order, out of order, revisited, for an equal copy of the ids or
        # for other ids, every row must be the single-slot draw bit for bit.
        ids = np.arange(n, dtype=np.int64) * 7 + 3
        twin, other = ids.copy(), ids[::-1] + 1
        moods = CounterMoods(99)
        asks = [(t, ids) for t in range(100)]
        asks += [(t, ids) for t in (70, 3, 3, 31, 32, 0, 95, 64, 63, 40)]
        asks += [(t, arr) for t in (5, 6, 200) for arr in (twin, ids, other, twin)]
        for t, arr in asks:
            assert moods(t, arr).tobytes() == uniform01_array(99, arr, t).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            moods(0, ids)[0] = 0.5

    def test_default_moods_draw_blocks_and_given_sources_are_asked_every_slot(
        self, monkeypatch
    ):
        draws = []

        def counting(*args):
            draws.append(args)
            return uniform01_array(*args)

        monkeypatch.setattr(engine, "uniform01_array", counting)
        pop = generate(PopulationSpec(count=500, seed=7))
        config = SimConfig(slots=200, load_factor=0.5, policy=PolicyParams(kind="me"), seed=7)
        run(config, pop)
        assert 0 < len(draws) < 200
        draws.clear()
        run(SimConfig(slots=1, load_factor=0.5, policy=PolicyParams(kind="me")), pop)
        assert len(draws) == 1
        draws.clear()
        asked = []

        def source(t, ids):
            asked.append(t)
            return np.full(len(ids), 0.5)

        run(config, pop, mood_source=source)
        assert asked == list(range(200)) and draws == []

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
            run(config, pop, mood_source=lambda t, ids: moods[t])
