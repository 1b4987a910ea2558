import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_run
from oracle import mix64, mood_sample, uniform01
from workrest.engine import CounterMoods, SimConfig
from workrest.policies import PolicyParams
from workrest.rng import MU_MAX_STREAM, REPUTATION_STREAM, uniform01_array
from workrest.population import WorkerProfile

seeds = st.integers(min_value=0, max_value=2**64 - 1)
ids = st.integers(min_value=0, max_value=2**32)
slots = st.integers(min_value=0, max_value=10**7)


@given(seeds, ids, slots)
def test_deterministic(seed, worker_id, slot):
    assert mood_sample(seed, worker_id, slot) == mood_sample(seed, worker_id, slot)


@given(seeds, ids, slots)
def test_range(seed, worker_id, slot):
    v = mood_sample(seed, worker_id, slot)
    assert 0.0 <= v <= 1.0


# Worker 0's slot-0 word under this seed is the splitmix64 preimage of
# 2**64 - 1, which rounds to exactly 1.0: the range is closed at 1.
TOP_SEED = 14959274266131672512


def test_a_word_next_to_2_64_gives_a_mood_of_exactly_one():
    assert mix64(TOP_SEED, 0, 0) == 2**64 - 1
    assert uniform01(TOP_SEED, 0, 0) == mood_sample(TOP_SEED, 0, 0) == 1.0
    ids = np.array([0, 1, 2], dtype=np.int64)
    assert uniform01_array(TOP_SEED, ids, 0)[0] == 1.0
    assert CounterMoods(TOP_SEED)(0, ids)[0] == 1.0
    pop = [WorkerProfile(id=i, reputation=1.0, mu_max=4) for i in ids.tolist()]
    config = SimConfig(slots=1, load_factor=0.5, policy=PolicyParams(kind="me"), seed=TOP_SEED)
    result, trace = traced_run(config, pop)
    assert trace["mood"][0][0] == 1.0
    assert result.conserves_tasks() and result.drift_violations == 0


@given(seeds, slots, st.lists(ids, min_size=1, max_size=50))
@settings(max_examples=100)
def test_vector_matches_scalar_bit_for_bit(seed, slot, id_list):
    vec = uniform01_array(seed, np.array(id_list, dtype=np.uint64), slot)
    for worker_id, v in zip(id_list, vec):
        assert v == uniform01(seed, worker_id, slot)


@given(seeds, st.lists(ids, min_size=1, max_size=20))
@settings(max_examples=50)
def test_vector_matches_scalar_on_population_streams(seed, id_list):
    for stream in (REPUTATION_STREAM, MU_MAX_STREAM):
        vec = uniform01_array(seed, np.array(id_list, dtype=np.uint64), stream)
        assert vec.tolist() == [uniform01(seed, i, stream) for i in id_list]


def test_empirical_mean():
    ids_arr = np.arange(1000, dtype=np.uint64)
    total = 0.0
    for slot in range(1000):  # 10^6 samples
        total += float(uniform01_array(123, ids_arr, slot).sum())
    mean = total / 1e6
    assert 0.499 <= mean <= 0.501


def test_kolmogorov_smirnov_vs_uniform():
    """KS distance to the uniform CDF over 10^5 samples stays below 0.01."""
    ids_arr = np.arange(100, dtype=np.uint64)
    samples = np.concatenate(
        [uniform01_array(9, ids_arr, slot) for slot in range(1000)]
    )
    n = len(samples)
    assert n == 100_000
    xs = np.sort(samples)
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - xs))
    d_minus = float(np.max(xs - (np.arange(n) / n)))
    assert max(d_plus, d_minus) < 0.01


def test_streams_are_distinct():
    vals = {
        uniform01(5, 17, 0),
        uniform01(5, 17, REPUTATION_STREAM),
        uniform01(5, 17, MU_MAX_STREAM),
    }
    assert len(vals) == 3


def test_different_keys_give_different_values():
    base = mood_sample(1, 2, 3)
    assert base != mood_sample(2, 2, 3)
    assert base != mood_sample(1, 3, 3)
    assert base != mood_sample(1, 2, 4)
