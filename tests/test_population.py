import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import collective_capacity
from workrest.population import (
    PopulationSpec,
    WorkerProfile,
    generate,
    load_csv,
    write_csv,
)


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("worker_id,reputation,mu_max\n0,1.0,10\n1,0.5,4\n")
        pop = load_csv(str(path))
        assert [p.id for p in pop] == [0, 1]
        assert collective_capacity(pop) == 12.0

    def test_reputation_out_of_range(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("worker_id,reputation,mu_max\n2,1.5,3\n")
        with pytest.raises(ValueError, match=":2:"):
            load_csv(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("worker_id,reputation,mu_max\n")
        with pytest.raises(ValueError, match="w.csv: no data rows"):
            load_csv(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("id,rep,cap\n0,1.0,10\n")
        with pytest.raises(ValueError, match="bad header"):
            load_csv(str(path))

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("worker_id,reputation,mu_max\n0,1.0,10\n0,0.5,4\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(str(path))

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("worker_id,reputation,mu_max\n0,1.0,10\nx,y,z\n")
        with pytest.raises(ValueError, match=":3:"):
            load_csv(str(path))

    def test_zero_capacity_row_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("worker_id,reputation,mu_max\n0,1.0,0\n")
        with pytest.raises(ValueError, match="mu_max"):
            load_csv(str(path))

    def test_preserves_file_order(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("worker_id,reputation,mu_max\n9,0.5,1\n2,0.25,2\n5,1.0,3\n")
        assert [p.id for p in load_csv(str(path))] == [9, 2, 5]

    @pytest.mark.parametrize(
        "lines, message",
        [
            # a malformed line 3 before a duplicate on line 5
            (["0,0.5,1", "x,0.5,1", "1,0.5,2", "0,0.5,3"],
             r":3: malformed row \['x', '0.5', '1'\]: invalid literal for int"),
            # a duplicate on line 3 before a short row on line 4
            (["0,0.5,1", "0,0.5,2", "1,0.5"], r":3: duplicate worker id 0$"),
            # a blank line is skipped but counted: a long row on line 3 before a
            # duplicate on line 5
            (["", "0,0.5,1,9", "0,0.5,1", "0,0.5,1"], r":3: expected 3 fields, got 4$"),
            # a quoted field spans lines 2-3, so the malformed row is on line 5
            (['0,0.5,"1', '"', "1,0.5,2", "x,0.5,1"], r":5: malformed row \['x', '0.5', '1'\]"),
        ],
    )
    def test_first_bad_line_is_reported(self, tmp_path, lines, message):
        path = tmp_path / "w.csv"
        path.write_text("worker_id,reputation,mu_max\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            load_csv(str(path))


class TestRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        pop = generate(PopulationSpec(count=50, seed=11))
        path = tmp_path / "w.csv"
        write_csv(str(path), pop)
        assert load_csv(str(path)) == pop

    def test_write_pins_the_bytes(self, tmp_path):
        # The header, then f"{id},{reputation!r},{mu_max}\n" per profile.
        pop = [
            WorkerProfile(0, 0.0, 1),
            WorkerProfile(7, 1.0, 10),
            WorkerProfile(2, 1e-05, 2**31),
            WorkerProfile(2**63 - 1, 0.1 + 0.2, 2**53 - 1),
            WorkerProfile(3, 5e-324, 2**53),
        ]
        path = tmp_path / "w.csv"
        write_csv(str(path), pop)
        assert path.read_bytes() == (
            b"worker_id,reputation,mu_max\n"
            b"0,0.0,1\n"
            b"7,1.0,10\n"
            b"2,1e-05,2147483648\n"
            b"9223372036854775807,0.30000000000000004,9007199254740991\n"
            b"3,5e-324,9007199254740992\n"
        )
        assert load_csv(str(path)) == pop

    def test_empty_population_is_not_written(self, tmp_path):
        path = tmp_path / "w.csv"
        with pytest.raises(ValueError, match="empty population"):
            write_csv(str(path), [])
        assert not path.exists()

    def test_write_is_deterministic(self, tmp_path):
        pop = generate(PopulationSpec(count=10, seed=3))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(str(a), pop)
        write_csv(str(b), pop)
        assert a.read_bytes() == b.read_bytes()


class TestGenerate:
    def test_constant_distributions(self):
        spec = PopulationSpec(
            count=3,
            reputation_dist=(1.0, 1.0),
            mu_max_dist=(5, 5),
            seed=0,
        )
        pop = generate(spec)
        assert len(pop) == 3
        assert all(p.reputation == 1.0 and p.mu_max == 5 for p in pop)
        assert collective_capacity(pop) == 15.0

    def test_same_spec_twice_identical(self):
        spec = PopulationSpec(count=100, seed=42)
        assert generate(spec) == generate(spec)

    def test_ids_are_sequential(self):
        pop = generate(PopulationSpec(count=5, seed=1))
        assert [p.id for p in pop] == [0, 1, 2, 3, 4]

    def test_default_reputation_mean(self):
        pop = generate(PopulationSpec(count=10_000, seed=1234))
        mean = float(np.mean([p.reputation for p in pop]))
        assert 0.74 <= mean <= 0.76

    def test_default_bounds(self):
        pop = generate(PopulationSpec(count=2000, seed=5))
        assert all(0.5 <= p.reputation <= 1.0 for p in pop)
        assert all(1 <= p.mu_max <= 10 for p in pop)
        assert {p.mu_max for p in pop} == set(range(1, 11))

    def test_spec_validation(self):
        # A spec is valid when its two corner profiles, (lo, lo) and (hi, hi), are.
        capacity = r"mu_max must be a whole number in \[1, 2\*\*53\], got "
        with pytest.raises(ValueError, match="count must be >= 1"):
            PopulationSpec(count=0)
        with pytest.raises(ValueError, match=r"reputation must be in \[0, 1\], got 1.5"):
            PopulationSpec(count=3, reputation_dist=(0.5, 1.5))
        with pytest.raises(ValueError, match=r"reputation must be in \[0, 1\], got -0.1"):
            PopulationSpec(count=3, reputation_dist=(-0.1, 0.5))
        with pytest.raises(ValueError, match=capacity):
            PopulationSpec(count=3, mu_max_dist=(0, 0))
        with pytest.raises(ValueError, match=r"out of order: \[5, 1\]"):
            PopulationSpec(count=3, mu_max_dist=(5, 1))
        with pytest.raises(ValueError, match=r"out of order: \[1.0, 0.5\]"):
            PopulationSpec(count=3, reputation_dist=(1.0, 0.5))
        inf, nan = float("inf"), float("nan")
        for lo, hi in [(0, 5), (1.5, 1.5), (1.5, 10), (1, 10.5), (inf, inf), (1, inf),
                       (nan, nan), (1, 1e30), (1, 2**53 + 2)]:
            with pytest.raises(ValueError, match=capacity):
                PopulationSpec(count=3, mu_max_dist=(lo, hi))

    def test_capacity_bounds_at_the_limits(self):
        spec = PopulationSpec(count=50, mu_max_dist=(1.0, 2.0**53), seed=9)
        assert all(1 <= p.mu_max <= 2**53 for p in generate(spec))
        spec = PopulationSpec(count=3, mu_max_dist=(2**53, 2**53))
        assert [p.mu_max for p in generate(spec)] == [2**53] * 3


def _ranges(elements):
    """``(lo, hi)`` pairs drawn from ``elements``: ordered ranges and constants."""
    return st.tuples(elements, elements).map(lambda b: tuple(sorted(b))) | elements.map(
        lambda v: (v, v))


class TestGenerateMatchesTheScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(
        count=st.integers(1, 200),
        seed=st.integers(0, 2**64 - 1),
        rep=_ranges(st.floats(0.0, 1.0)),
        cap=_ranges(st.integers(1, 10) | st.integers(1, 2**53)),
        float_caps=st.booleans(),
    )
    def test_profiles_and_reputation_reprs_equal(self, count, seed, rep, cap, float_caps):
        if float_caps:  # the command line passes capacity bounds as floats
            cap = tuple(float(b) for b in cap)
        spec = PopulationSpec(count, rep, cap, seed)
        got, want = generate(spec), oracle.generate(spec)
        assert got == want
        assert [repr(p.reputation) for p in got] == [repr(p.reputation) for p in want]
        assert all(type(p.mu_max) is int for p in got)
