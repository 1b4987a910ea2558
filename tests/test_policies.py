import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (
    PolicyDecision,
    compute_mu,
    compute_wri,
    decide,
    decide_ac,
    decide_cpl,
    decide_me,
    decide_mt,
    decide_mw,
    snap_floor,
    work_effort,
)
from workrest import policies
from workrest.policies import PolicyParams

moods = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
backlogs = st.integers(min_value=0, max_value=200)
queues = st.integers(min_value=0, max_value=500)
capacities = st.integers(min_value=1, max_value=30)


def cpl(phi):
    return PolicyParams(kind="cpl", phi=phi)


class TestParams:
    def test_knob_validation(self):
        with pytest.raises(ValueError):
            PolicyParams(kind="cpl")
        with pytest.raises(ValueError):
            PolicyParams(kind="cpl", phi=-1.0)
        with pytest.raises(ValueError):
            PolicyParams(kind="ac", sigma=0.0)
        with pytest.raises(ValueError):
            PolicyParams(kind="mt", theta1=1.5)
        with pytest.raises(ValueError):
            PolicyParams(kind="mw", theta2=-0.5)
        with pytest.raises(ValueError):
            PolicyParams(kind="nope")
        with pytest.raises(ValueError, match=r"^cpl requires phi > 0, got nan$"):
            PolicyParams(kind="cpl", phi=math.nan)
        with pytest.raises(ValueError, match=r"^ac requires sigma > 0, got nan$"):
            PolicyParams(kind="ac", sigma=math.nan)
        with pytest.raises(ValueError, match=r"^mt requires theta1 in \[0, 1\], got 1.5$"):
            PolicyParams(kind="mt", theta1=1.5)
        with pytest.raises(ValueError, match=r"^mw requires theta2 in \[0, 1\], got nan$"):
            PolicyParams(kind="mw", theta2=math.nan)

    def test_knob_names(self):
        assert PolicyParams(kind="me").knob_name == "none"
        assert cpl(5.0).knob_name == "phi"
        assert cpl(5.0).knob_value == 5.0
        assert PolicyParams(kind="me").knob_value == 0.0
        assert repr(cpl(50.0)) == "PolicyParams(kind='cpl', knob_value=50.0)"

    def test_gate_values(self):
        inf = math.inf
        assert PolicyParams(kind="me").gates == (0.0, 0.0, -inf, 0)
        assert PolicyParams(kind="mt", theta1=0.3).gates == (0.3, 0.0, -inf, 0)
        assert PolicyParams(kind="mw", theta2=0.4).gates == (0.0, 0.4, -inf, 0)
        assert PolicyParams(kind="ac", sigma=7.0).gates == (0.0, 0.0, 7.0, 0)
        assert cpl(9.0).gates == (0.0, 0.0, 9.0, 1)
        # a knob the kind does not read is rejected
        with pytest.raises(ValueError, match="is not a knob of policy"):
            PolicyParams(kind="mt", theta1=0.3, theta2=0.9, phi=4.0)


class TestWri:
    def test_empty_queues(self):
        assert compute_wri(5.0, 0, 0, 0.7, 10) == 5.0

    def test_direct(self):
        assert compute_wri(5.0, 2, 0, 0.5, 10) == -5.0

    def test_direct_with_conceptual(self):
        assert compute_wri(100.0, 3, 4, 0.2, 10) == pytest.approx(86.0)

    @given(
        st.floats(min_value=0.01, max_value=1000.0),
        st.floats(min_value=0.01, max_value=1000.0),
        backlogs, queues, moods, capacities,
    )
    def test_increasing_in_phi(self, p1, p2, q, Q, mood, mu_max):
        lo, hi = sorted((p1, p2))
        assert compute_wri(lo, q, Q, mood, mu_max) <= compute_wri(hi, q, Q, mood, mu_max)


class TestWorkEffort:
    def test_direct(self):
        assert work_effort(2, 0.5, 10) == 0.4

    def test_clamp(self):
        assert work_effort(20, 0.1, 10) == 1.0

    def test_zero_denominator_guard(self):
        assert work_effort(3, 0.0, 5) == 1.0
        assert compute_mu(1.0, 0.0, 5) == 0


class TestCpl:
    def test_work_branch(self):
        d = decide_cpl(cpl(5.0), 2, 0, 0.5, 10)
        assert d == PolicyDecision(effort=0.4, completed=2)

    def test_rest_branch(self):
        assert decide_cpl(cpl(5.0), 0, 0, 1.0, 10) == PolicyDecision(0.0, 0)

    def test_high_phi_laziness(self):
        assert decide_cpl(cpl(50.0), 1, 0, 1.0, 10) == PolicyDecision(0.0, 0)

    def test_rest_exactly_at_zero_index(self):
        # phi = q*mood*mu_max exactly -> index 0 -> rest
        assert decide_cpl(cpl(10.0), 2, 0, 0.5, 10) == PolicyDecision(0.0, 0)

    @given(
        st.floats(min_value=0.1, max_value=200.0),
        st.floats(min_value=0.1, max_value=200.0),
        st.integers(min_value=1, max_value=200),
        queues, moods, capacities,
    )
    @settings(max_examples=200)
    def test_rest_dominance_in_phi(self, p1, p2, q, Q, mood, mu_max):
        # With q >= 1, a positive effort marks the work branch exactly.
        lo, hi = sorted((p1, p2))
        if decide_cpl(cpl(hi), q, Q, mood, mu_max).effort > 0:
            assert decide_cpl(cpl(lo), q, Q, mood, mu_max).effort > 0


class TestMe:
    def test_work(self):
        assert decide_me(3, 0.6, 5) == PolicyDecision(1.0, 3)

    def test_empty_backlog(self):
        assert decide_me(0, 0.9, 5) == PolicyDecision(0.0, 0)

    def test_mood_caps_output(self):
        assert decide_me(10, 0.05, 4) == PolicyDecision(1.0, 0)


class TestMt:
    def test_threshold_passed(self):
        assert decide_mt(0.5, 3, 0.6, 5) == PolicyDecision(1.0, 3)

    def test_below_threshold(self):
        assert decide_mt(0.5, 3, 0.4, 5) == PolicyDecision(0.0, 0)

    def test_threshold_one_never_works(self):
        assert decide_mt(1.0, 3, 0.99, 5) == PolicyDecision(0.0, 0)


class TestMw:
    def test_fires(self):
        # 3*floor(3.0) = 9 >= 5*floor(1.0) = 5
        assert decide_mw(0.2, 3, 0.6, 5) == PolicyDecision(1.0, 3)

    def test_rests(self):
        # 1*1 = 1 < 5*4 = 20
        assert decide_mw(0.8, 1, 0.2, 5) == PolicyDecision(0.0, 0)

    def test_threshold_one_can_still_fire_with_large_backlog(self):
        # 50*3 = 150 >= 5*5 = 25: the literal condition fires
        d = decide_mw(1.0, 50, 0.6, 5)
        assert d.effort == 1.0 and d.completed == 3


class TestAc:
    def test_work_branch_matches_cpl(self):
        assert decide_ac(5.0, 2, 0.5, 10) == PolicyDecision(0.4, 2)

    def test_empty_backlog_rests(self):
        assert decide_ac(5.0, 0, 1.0, 10) == PolicyDecision(0.0, 0)

    @given(
        st.floats(min_value=0.1, max_value=200.0), backlogs, moods, capacities
    )
    @settings(max_examples=200)
    def test_equals_cpl_with_zero_conceptual_queue(self, sigma, q, mood, mu_max):
        assert decide_ac(sigma, q, mood, mu_max) == decide_cpl(
            cpl(sigma), q, 0, mood, mu_max
        )


ALL_POLICY_PARAMS = [
    PolicyParams(kind="me"),
    PolicyParams(kind="mt", theta1=0.5),
    PolicyParams(kind="mw", theta2=0.5),
    PolicyParams(kind="ac", sigma=10.0),
    PolicyParams(kind="cpl", phi=10.0),
]


class TestSharedProperties:
    @given(backlogs, queues, moods, capacities)
    @settings(max_examples=200)
    def test_bounds_and_output_consistency(self, q, Q, mood, mu_max):
        for params in ALL_POLICY_PARAMS:
            d = decide(params, q, Q, mood, mu_max)
            assert 0.0 <= d.effort <= 1.0
            assert 0 <= d.completed <= min(q, mu_max)
            assert d.completed == compute_mu(d.effort, mood, mu_max)

    @given(backlogs, queues, moods, capacities)
    @settings(max_examples=200)
    def test_me_dominance(self, q, Q, mood, mu_max):
        best = decide_me(q, mood, mu_max).completed
        for params in ALL_POLICY_PARAMS:
            assert decide(params, q, Q, mood, mu_max).completed <= best

    @given(backlogs, queues, capacities)
    def test_mood_zero_safety(self, q, Q, mu_max):
        for params in ALL_POLICY_PARAMS:
            d = decide(params, q, Q, 0.0, mu_max)
            assert d.completed == 0
        # the index policy rests outright at zero mood (index = phi > 0)
        assert decide_cpl(cpl(10.0), q, Q, 0.0, mu_max).effort == 0.0


def test_work_branch_completion_exhaustive_sweep():
    """Work branch completes min(q, floor(mood*mu_max)) across the grid.

    The expected value is computed in pure integer arithmetic
    (floor(0.01k * mu_max) == k*mu_max // 100), independent of the
    float path under test.
    """
    for mu_max in range(1, 21):
        for k in range(1, 101):
            mood = 0.01 * k
            expected_cap = (k * mu_max) // 100
            for q in range(0, 101):
                d = decide_me(q, mood, mu_max)
                if q == 0:
                    assert d.completed == 0
                else:
                    assert d.completed == min(q, expected_cap), (q, mood, mu_max)


policy_params = st.one_of(
    st.just(PolicyParams(kind="me")),
    st.floats(0.0, 1.0).map(lambda v: PolicyParams(kind="mt", theta1=v)),
    st.floats(0.0, 1.0).map(lambda v: PolicyParams(kind="mw", theta2=v)),
    st.floats(0.01, 300.0).map(lambda v: PolicyParams(kind="ac", sigma=v)),
    st.floats(0.01, 300.0).map(lambda v: PolicyParams(kind="cpl", phi=v)),
)
# Moods include the 0.01 grid, where floor(mood * mu_max) sits on integers,
# and stay clear of subnormals, where q / (mood * mu_max) overflows to inf.
grid_or_any_moods = st.one_of(
    st.just(0.0), st.floats(1e-12, 1.0), st.integers(0, 100).map(lambda k: 0.01 * k)
)


# Rows at the edges of the gates and wheres that decide skips: mood * mu_max
# == 0 with q > 0, q == 0, and mood 1.0, with theta1 and theta2 at 0 and not.
EDGE_ROWS = [(q, Q, m, mu_max) for q in (0, 1, 6) for Q in (0, 9)
             for m in (0.0, 1.0, 0.5) for mu_max in (1, 4)]


@given(
    policy_params,
    st.lists(st.tuples(backlogs, queues, grid_or_any_moods, capacities), min_size=1, max_size=40),
)
@example(PolicyParams(kind="me"), EDGE_ROWS)
@example(PolicyParams(kind="mt", theta1=0.0), EDGE_ROWS)
@example(PolicyParams(kind="mt", theta1=0.5), EDGE_ROWS)
@example(PolicyParams(kind="mt", theta1=1.0), EDGE_ROWS)
@example(PolicyParams(kind="mw", theta2=0.0), EDGE_ROWS)
@example(PolicyParams(kind="mw", theta2=0.5), EDGE_ROWS)
@example(PolicyParams(kind="ac", sigma=5.0), EDGE_ROWS)
@example(PolicyParams(kind="cpl", phi=5.0), EDGE_ROWS)
@settings(max_examples=300)
def test_gated_rule_matches_the_five_scalar_rules(params, rows):
    """The array rule reproduces each paper rule bit for bit, worker by worker."""
    q, Q, m, mu_max = (np.array(col) for col in zip(*rows))
    effort, completed = policies.decide(
        params, q.astype(np.int64), Q.astype(np.int64), m.astype(float), mu_max.astype(np.int64)
    )
    expected = [decide(params, *row) for row in rows]
    assert effort.tolist() == [d.effort for d in expected]
    assert completed.tolist() == [d.completed for d in expected]
    assert completed.dtype == np.int64


def _boundary_rows():
    """Rows where floor(m * mu_max) steps: moods at j / mu_max, one ulp either
    side of it and on the 0.01 grid, capacities up to 2**40, and backlogs on
    both sides of the (snapped and plain) floor of m * mu_max."""
    rows = []
    for mu_max in (1, 2, 3, 7, 10, 29, 100, 2**20 + 1, 2**40 - 1, 2**40):
        steps = {j / mu_max for j in (1, 2, 3, mu_max // 3, mu_max // 2, mu_max - 1, mu_max)
                 if 0 < j <= mu_max}
        moods = {0.01 * k for k in range(101)} | {
            float(mood) for s in steps
            for mood in (np.nextafter(s, 0.0), s, min(1.0, np.nextafter(s, 2.0)))
        }
        for m in sorted(moods):
            floors = {snap_floor(m * mu_max), math.floor(m * mu_max)}
            backlogs = {0, 1} | {f + i for f in floors for i in (-1, 0, 1, 2) if f + i >= 0}
            rows += [(q, Q, m, mu_max) for q in sorted(backlogs) for Q in (0, 7)]
    return rows


BOUNDARY_PARAMS = [
    PolicyParams(kind="me"),
    PolicyParams(kind="mt", theta1=0.5),
    PolicyParams(kind="mt", theta1=1 / 3),
    PolicyParams(kind="mw", theta2=0.29),
    PolicyParams(kind="mw", theta2=0.5),
    PolicyParams(kind="ac", sigma=1.0),
    PolicyParams(kind="ac", sigma=50.0),
    PolicyParams(kind="cpl", phi=2.0),
    PolicyParams(kind="cpl", phi=50.0),
]


@pytest.mark.parametrize("params", BOUNDARY_PARAMS, ids=lambda p: f"{p.kind}-{p.knob_value:g}")
def test_integer_completions_match_the_scalar_rule_at_floor_boundaries(params):
    """The integer form min(q, floor(m * mu_max)) equals the scalar rule's
    snapped floor(effort * m * mu_max), and every gate its scalar form, bit
    for bit where the floors step."""
    rows = _boundary_rows()
    if params.kind == "mw":
        # The gate's int64 products q * floor(m * mu_max) and mu_max *
        # floor(theta2 * mu_max) stay below 2**63 in a run (SimState's bounds).
        rows = [row for row in rows if max(row[0], row[3]) * row[3] < 2**63]
    q, Q, m, mu_max = (np.array(col) for col in zip(*rows))
    effort, completed = policies.decide(params, q, Q, m, mu_max)
    expected = [decide(params, *row) for row in rows]
    assert effort.tolist() == [d.effort for d in expected]
    assert completed.tolist() == [d.completed for d in expected]
