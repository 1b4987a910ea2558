import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    TaskCohort,
    WorkerState,
    complete_and_age,
    compute_mu,
    enqueue_arrivals,
    snap_floor,
    update_backlog_count,
    update_conceptual_queue,
)
from workrest.numerics import snap_floor_array
from workrest.population import WorkerProfile, load_csv, write_csv

moods = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
efforts = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
capacities = st.integers(min_value=1, max_value=50)


class TestWorkerProfile:
    def test_valid(self):
        p = WorkerProfile(id=3, reputation=0.5, mu_max=7)
        assert (p.id, p.reputation, p.mu_max) == (3, 0.5, 7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(id=-1, reputation=0.5, mu_max=3),
            dict(id=2**63, reputation=0.5, mu_max=3),
            dict(id=0, reputation=-0.1, mu_max=3),
            dict(id=0, reputation=1.5, mu_max=3),
            dict(id=0, reputation=0.5, mu_max=0),
            dict(id=0, reputation=0.5, mu_max=2.5),
            dict(id=0, reputation=0.5, mu_max=float("inf")),
            dict(id=0, reputation=0.5, mu_max=float("nan")),
            dict(id=0, reputation=0.5, mu_max=2**53 + 1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            WorkerProfile(**kwargs)

    def test_whole_float_capacity_is_stored_as_an_int_and_round_trips(self, tmp_path):
        p = WorkerProfile(id=0, reputation=0.5, mu_max=3.0)
        assert type(p.mu_max) is int
        write_csv(str(tmp_path / "w.csv"), [p])
        assert load_csv(str(tmp_path / "w.csv")) == [p]


class TestComputeMu:
    def test_identity_case(self):
        assert compute_mu(1.0, 1.0, 7) == 7

    def test_zero_effort(self):
        assert compute_mu(0.0, 0.9, 10) == 0

    def test_direct_evaluation(self):
        assert compute_mu(0.4, 0.5, 10) == 2

    @pytest.mark.parametrize(
        "effort,mood,mu_max",
        [(-0.1, 0.5, 3), (1.1, 0.5, 3), (0.5, -0.1, 3), (0.5, 1.1, 3), (0.5, 0.5, 0)],
    )
    def test_domain_errors(self, effort, mood, mu_max):
        with pytest.raises(ValueError):
            compute_mu(effort, mood, mu_max)

    @given(efforts, moods, capacities)
    def test_never_exceeds_capacity(self, effort, mood, mu_max):
        assert 0 <= compute_mu(effort, mood, mu_max) <= mu_max

    @given(efforts, efforts, moods, capacities)
    def test_monotone_in_effort(self, e1, e2, mood, mu_max):
        lo, hi = sorted((e1, e2))
        assert compute_mu(lo, mood, mu_max) <= compute_mu(hi, mood, mu_max)

    @given(efforts, moods, moods, capacities)
    def test_monotone_in_mood(self, effort, m1, m2, mu_max):
        lo, hi = sorted((m1, m2))
        assert compute_mu(effort, lo, mu_max) <= compute_mu(effort, hi, mu_max)

    @given(efforts, moods, capacities, capacities)
    def test_monotone_in_capacity(self, effort, mood, c1, c2):
        lo, hi = sorted((c1, c2))
        assert compute_mu(effort, mood, lo) <= compute_mu(effort, mood, hi)


class TestBacklogCount:
    def test_direct(self):
        assert update_backlog_count(5, 3, 2) == 6

    def test_clamp_at_zero(self):
        assert update_backlog_count(1, 0, 4) == 0

    def test_empty_system(self):
        assert update_backlog_count(0, 0, 0) == 0

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_non_negative(self, q, arrivals, completed):
        out = update_backlog_count(q, arrivals, completed)
        assert out >= 0
        assert out == max(0, q + arrivals - completed)


class TestConceptualQueue:
    def test_indicator_fires_when_resting_with_pending(self):
        assert update_conceptual_queue(0, 3, 0, 4) == 4

    def test_indicator_zero_when_completing(self):
        assert update_conceptual_queue(4, 3, 2, 4) == 2

    def test_indicator_zero_when_empty(self):
        assert update_conceptual_queue(1, 0, 0, 4) == 1

    @given(
        st.integers(min_value=0, max_value=10**4),
        st.integers(min_value=0, max_value=10**4),
        st.integers(min_value=0, max_value=10**4),
        capacities,
    )
    def test_matches_recurrence(self, Q, q, completed, mu_max):
        x = mu_max if (q > 0 and completed == 0) else 0
        assert update_conceptual_queue(Q, q, completed, mu_max) == max(0, Q + x - completed)


class TestCompleteAndAge:
    def test_full_clearance(self):
        state = WorkerState(backlog=[TaskCohort(2, 0)], q=2)
        state, expired = complete_and_age(state, 2, 3)
        assert state.backlog == [] and state.q == 0 and expired == 0

    def test_deadline_reached(self):
        state = WorkerState(backlog=[TaskCohort(2, 2)], q=2)
        state, expired = complete_and_age(state, 0, 3)
        assert state.backlog == [] and state.q == 0 and expired == 2

    def test_fifo_consumption_order(self):
        state = WorkerState(backlog=[TaskCohort(1, 1), TaskCohort(3, 0)], q=4)
        state, expired = complete_and_age(state, 2, 3)
        assert state.backlog == [TaskCohort(2, 1)]
        assert state.q == 2 and expired == 0

    def test_contract_violation(self):
        state = WorkerState(backlog=[TaskCohort(1, 0)], q=1)
        with pytest.raises(ValueError):
            complete_and_age(state, 2, 3)

    def test_no_deadline_never_expires(self):
        state = WorkerState(backlog=[TaskCohort(2, 90)], q=2)
        state, expired = complete_and_age(state, 0, None)
        assert expired == 0 and state.q == 2 and state.backlog[0].age == 91

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=60
        ),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60)
    def test_random_trace_keeps_count_consistent(self, trace, deadline):
        state = WorkerState()
        for arrivals, wish in trace:
            enqueue_arrivals(state, arrivals)
            q_before = state.q
            completed = min(wish, state.q)
            state, expired = complete_and_age(state, completed, deadline)
            assert state.q == q_before - completed - expired
            assert state.q == state.backlog_total()
            assert all(0 <= c.age < deadline for c in state.backlog)
            assert all(c.count >= 1 for c in state.backlog)


def test_fifo_total_matches_count_recurrence_without_deadline():
    """1,000-slot random trace: FIFO total equals the count recurrence."""
    import random

    rng = random.Random(42)
    state = WorkerState()
    q_oracle = 0
    for _ in range(1000):
        arrivals = rng.randint(0, 5)
        enqueue_arrivals(state, arrivals)
        completed = rng.randint(0, state.q) if state.q else 0
        state, expired = complete_and_age(state, completed, None)
        assert expired == 0
        q_oracle = update_backlog_count(q_oracle, arrivals, completed)
        assert state.q == q_oracle


def test_fifo_total_matches_count_recurrence_with_deadline():
    """With expiry: q(t+1) = max[0, q + arrivals - completed] - expired."""
    import random

    rng = random.Random(43)
    state = WorkerState()
    q_oracle = 0
    for _ in range(1000):
        arrivals = rng.randint(0, 5)
        enqueue_arrivals(state, arrivals)
        completed = rng.randint(0, min(3, state.q)) if state.q else 0
        state, expired = complete_and_age(state, completed, 3)
        q_oracle = update_backlog_count(q_oracle, arrivals, completed) - expired
        assert state.q == q_oracle


def test_conceptual_queue_stability_inequality_on_random_traces():
    """Q(T) >= sum(x) - sum(mu), exactly, on arbitrary feasible traces."""
    import random

    rng = random.Random(44)
    for _ in range(20):
        Q = 0
        x_total = 0
        mu_total = 0
        q = 0
        mu_max = rng.randint(1, 10)
        for _ in range(1000):
            q = max(0, q + rng.randint(0, 4) - rng.randint(0, 4))
            completed = rng.randint(0, 3)
            x = mu_max if (q > 0 and completed == 0) else 0
            Q = update_conceptual_queue(Q, q, completed, mu_max)
            x_total += x
            mu_total += completed
        assert Q >= x_total - mu_total


def test_snap_floor_recovers_integer_products():
    # q/d * d lands a hair under q about half the time; the snap floor
    # must recover q while leaving genuine fractions alone.
    assert snap_floor((1 / 1.38) * 1.38) == 1
    assert snap_floor(2.999999999999999) == 3
    assert snap_floor(2.9) == 2
    assert snap_floor(3.0) == 3
    assert snap_floor(0.9999999999999999) == 1
    assert snap_floor(0.5) == 0
    with pytest.raises(ValueError):
        snap_floor(-0.5)
    values = [(1 / 1.38) * 1.38, 2.999999999999999, 2.9, 3.0, 0.9999999999999999, 0.5]
    assert snap_floor_array(np.array(values)).tolist() == [snap_floor(v) for v in values]


@pytest.mark.parametrize("e", [47, 48, 50, 52])
def test_snap_floor_keeps_large_integers(e):
    # The window stops growing at 1/2, so an exact integer is never bumped up,
    # while a value one ulp below 2**e still snaps to it.
    values = [2.0**e - 1, 2.0**e, 2.0**e + 1, float(np.nextafter(2.0**e, 0.0))]
    want = [2**e - 1, 2**e, 2**e + 1, 2**e]
    assert snap_floor_array(np.array(values)).tolist() == want
    assert [snap_floor(v) for v in values] == want
