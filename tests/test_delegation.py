import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from oracle import TaskCohort, WorkerState, collective_capacity, delegate
from workrest.delegation import apportion, slot_workload
from workrest.engine import SimConfig, SimState
from workrest.policies import PolicyParams
from workrest.population import PopulationSpec, WorkerProfile, generate


def profiles(*specs):
    return [WorkerProfile(id=i, reputation=r, mu_max=m) for i, (r, m) in enumerate(specs)]


def idle_states(n):
    return [WorkerState() for _ in range(n)]


def busy_state(q):
    return WorkerState(backlog=[TaskCohort(q, 0)] if q else [], q=q)


class TestCollectiveCapacity:
    def test_direct_sum(self):
        assert collective_capacity(profiles((1.0, 10), (0.5, 4))) == 12.0

    def test_zero_reputation(self):
        assert collective_capacity(profiles((0.0, 9))) == 0.0

    def test_symmetry(self):
        assert collective_capacity(profiles(*[(1.0, 1)] * 5)) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            collective_capacity([])

    @pytest.mark.parametrize("population", [
        generate(PopulationSpec(count=500, seed=7)),
        generate(PopulationSpec(count=5547, seed=7)),
        profiles((0.0, 9), (1 / 3, 7), (0.0, 1), (0.1, 3), (0.9, 10)),
        profiles((0.0, 2**20), (0.7, 2**20 - 1), (0.0, 5), (0.3, 123457)),
    ], ids=["generated-500", "generated-5547", "zero-reputations", "zero-reputations-large"])
    def test_state_weighted_capacity_sums_to_the_reference_omega(self, population):
        config = SimConfig(slots=1, load_factor=0.5, policy=PolicyParams("me"))
        state = SimState.from_population(population, config)
        omega = float(state.weighted_capacity.sum())
        assert omega.hex() == collective_capacity(population).hex()
        assert state.w_req == slot_workload(0.5, omega)

    def test_state_of_no_workers_rejected(self):
        config = SimConfig(slots=1, load_factor=0.5, policy=PolicyParams("me"))
        with pytest.raises(ValueError, match="population must be non-empty"):
            SimState.from_population([], config)


class TestSlotWorkload:
    def test_direct(self):
        assert slot_workload(0.5, 12.0) == 6

    def test_half_rounds_up(self):
        assert slot_workload(0.05, 10.0) == 1

    def test_full_load(self):
        assert slot_workload(1.0, 17.3) == 17

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            slot_workload(0.5, 0.0)

    @given(
        st.floats(min_value=0.001, max_value=1.0),
        st.floats(min_value=0.1, max_value=1e6),
    )
    def test_is_a_valid_rounding(self, lf, omega):
        w = slot_workload(lf, omega)
        assert abs(w - lf * omega) <= 0.5 + 1e-9
        assert w >= 0


class TestDelegate:
    def test_no_work(self):
        pop = profiles((1.0, 5), (1.0, 5))
        assert delegate(0, pop, idle_states(2)) == [0, 0]

    def test_sole_recipient(self):
        pop = profiles((1.0, 5))
        assert delegate(7, pop, idle_states(1)) == [7]

    def test_symmetry(self):
        pop = profiles((1.0, 5), (1.0, 5))
        assert delegate(4, pop, idle_states(2)) == [2, 2]

    def test_largest_remainder_hand_trace(self):
        # weights 10/(1+0)=10 and 10/(1+9)=1; shares 10 and 1
        pop = profiles((1.0, 10), (1.0, 10))
        states = [busy_state(0), busy_state(9)]
        assert delegate(11, pop, states) == [10, 1]

    def test_zero_weight_gets_nothing_when_positive_weights_exist(self):
        pop = profiles((0.0, 10), (1.0, 5))
        assert delegate(5, pop, idle_states(2)) == [0, 5]

    def test_all_zero_weights_are_a_value_error(self):
        pop = profiles((0.0, 10), (0.0, 5), (0.0, 5))
        with pytest.raises(ValueError, match="positive sum"):
            delegate(7, pop, idle_states(3))

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            delegate(1, profiles((1.0, 5)), idle_states(2))

    @given(
        st.integers(min_value=0, max_value=500),
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.integers(min_value=1, max_value=20),
                st.integers(min_value=0, max_value=50),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=200)
    def test_conservation(self, w_req, rows):
        assume(any(r * m / (1.0 + q) > 0.0 for r, m, q in rows))
        pop = profiles(*[(r, m) for r, m, _ in rows])
        states = [busy_state(q) for _, _, q in rows]
        out = delegate(w_req, pop, states)
        assert sum(out) == w_req
        assert all(v >= 0 for v in out)

    @given(
        st.integers(min_value=0, max_value=200),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=200)
    def test_monotone_in_weight_at_equal_backlog(self, w_req, r1, r2, m1, m2, q):
        pop = profiles((r1, m1), (r2, m2))
        states = [busy_state(q), busy_state(q)]
        out = delegate(w_req, pop, states)
        if r1 * m1 > r2 * m2:
            assert out[0] >= out[1]
        elif r2 * m2 > r1 * m1:
            assert out[1] >= out[0]

    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=200)
    def test_backlog_aversion(self, w_req, q1, q2):
        pop = profiles((0.8, 10), (0.8, 10))
        states = [busy_state(q1), busy_state(q2)]
        out = delegate(w_req, pop, states)
        if q1 < q2:
            assert out[0] >= out[1]
        elif q2 < q1:
            assert out[1] >= out[0]

    def test_deterministic(self):
        pop = profiles((0.9, 7), (0.3, 12), (0.7, 2))
        states = [busy_state(3), busy_state(0), busy_state(8)]
        a = delegate(13, pop, states)
        b = delegate(13, pop, states)
        assert a == b


class TestApportion:
    def test_ties_break_by_ascending_id(self):
        weights = np.array([1.0, 1.0, 1.0])
        ids = np.array([5, 1, 3])
        # shares 1/3 each for w_req=1: the worker with the smallest id wins
        out = apportion(1, weights, ids)
        assert out.tolist() == [0, 1, 0]

    def test_remainder_ties_break_by_weight_before_id(self):
        # shares 0.5 and 1.5 tie on remainder: the heavier worker wins
        out = apportion(2, np.array([1.0, 3.0]), np.array([0, 1]))
        assert out.tolist() == [0, 2]

    @pytest.mark.parametrize("w_req", [0, 7])
    @pytest.mark.parametrize("weights", [[0.0, 0.0, 0.0], [0.0]], ids=["three", "one"])
    def test_weights_without_a_positive_sum_are_a_value_error(self, w_req, weights):
        with pytest.raises(ValueError, match="positive sum, got 0.0"):
            apportion(w_req, np.array(weights), np.arange(len(weights)))
        with pytest.raises(ValueError, match="positive sum"):
            oracle.apportion(w_req, np.array(weights), np.arange(len(weights)))

    def test_exact_shares_no_leftover(self):
        out = apportion(6, np.array([2.0, 1.0]), np.array([0, 1]))
        assert out.tolist() == [4, 2]

    @given(
        st.integers(min_value=0, max_value=500),
        st.lists(
            st.one_of(
                # few distinct values, so weights and remainders tie often
                st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 7.0, 1.5, 1 / 3]),
                st.floats(min_value=0.0, max_value=100.0),
            ),
            min_size=1,
            max_size=40,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300)
    def test_single_pass_award_equals_unit_by_unit_reference(self, w_req, weights, rnd):
        assume(sum(weights) > 0.0)
        weights = np.array(weights)
        ids = np.array(rnd.sample(range(1000), len(weights)), dtype=np.int64)
        out = apportion(w_req, weights, ids)
        assert out.dtype == np.int64
        assert out.tolist() == oracle.apportion(w_req, weights, ids).tolist()
        assert int(out.sum()) == w_req

    def test_platform_scale_all_equal_weights_award_ascending_ids(self):
        # Every remainder ties at the cut, so the tie group is the whole
        # population of 5,547 and the smallest ids take the leftover.
        n = 5547
        ids = np.random.default_rng(0).permutation(3 * n)[:n].astype(np.int64)
        weights = np.full(n, 0.7)
        out = apportion(2 * n + 1234, weights, ids)
        assert out.tolist() == oracle.apportion(2 * n + 1234, weights, ids).tolist()
        assert set(ids[out == 3].tolist()) == set(np.sort(ids)[:1234].tolist())
        assert set(out.tolist()) == {2, 3}

    @pytest.mark.parametrize("weights, some_tied", [
        # remainders 0.6, 0.6, 0.4, 0.4 with 2 left over: both tied at 0.6 win
        ([3.0, 3.0, 2.0, 2.0], False),
        # remainders all 0.5 with 2 left over: two of four tied workers win
        ([1.0, 1.0, 1.0, 1.0], True),
    ], ids=["all-tied-awarded", "some-tied-awarded"])
    def test_tied_workers_are_ordered_only_when_they_outnumber_the_units(
        self, weights, some_tied, monkeypatch
    ):
        weights, ids = np.array(weights), np.array([4, 2, 9, 0])
        expected = oracle.apportion(2, weights, ids)
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(keys) or lexsort(keys))
        assert apportion(2, weights, ids).tolist() == expected.tolist()
        assert len(sorts) == some_tied

    # At w_req near 2**54 the float shares lose whole units: with three unit
    # weights every remainder is 0 while 2 or 3 units are left over.
    def test_zero_weights_tied_at_a_zero_cut_receive_nothing(self):
        weights = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        ids = np.array([0, 4, 1, 3, 2])
        w_req = 2**54 + 1
        out = apportion(w_req, weights, ids)
        base = w_req // 3  # each float share rounds down to this integer
        assert out.tolist() == [0, base, 0, base + 1, base + 1]
        assert out.tolist() == oracle.apportion(w_req, weights, ids).tolist()
        assert int(out.sum()) == w_req

    @pytest.mark.parametrize(
        "w_req, weights",
        [(2**54 + 2, [1.0, 0.0, 1.0, 1.0, 0.0]), (3, [0.0, 0.7, 0.0])],
    )
    def test_leftover_equal_to_positive_count_awards_every_positive_weight(
        self, w_req, weights
    ):
        weights = np.array(weights)
        ids = np.arange(len(weights))
        shares = np.floor(w_req * weights / weights.sum()).astype(np.int64)
        out = apportion(w_req, weights, ids)
        assert (out - shares).tolist() == (weights > 0).astype(int).tolist()
        assert out.tolist() == oracle.apportion(w_req, weights, ids).tolist()
        assert int(out.sum()) == w_req

    @pytest.mark.parametrize("w_req, positive", [(2**54 + 2, 1), (2**54, 5)])
    def test_leftover_outside_positive_count_is_an_arithmetic_error(self, w_req, positive):
        # leftover 2 with one positive weight; leftover -1 with five
        weights = np.array([1.0] * positive + [0.0])
        with pytest.raises(ArithmeticError, match="leftover"):
            apportion(w_req, weights, np.arange(len(weights)))
