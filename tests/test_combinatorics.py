import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occupancy_entropy import log_factorial
from occupancy_entropy.combinatorics import (
    CapExceededError,
    OccupancyVector,
    enumerate_occupancies,
    occupancy_count,
    support_matrix,
)
from occupancy_entropy.distributions import (
    MultinomialDist,
    OneParticleDistribution,
    tv_distance,
)
from occupancy_entropy.entropy import entropy_by_enumeration
from occupancy_entropy.marginals import _log_factorial
from occupancy_entropy.oracle import brute_force_mvhg, brute_force_partial_trace
from occupancy_entropy.quantum import bayesian_marginal_check


def _occupancy_tuples(total, num_colors):
    """The support in descending order, by recursion on the leading count:
    the reference the stars-and-bars support_matrix is checked against."""
    if num_colors == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _occupancy_tuples(total - head, num_colors - 1):
            yield (head,) + tail


QUARTER_FOUR = OneParticleDistribution([0.25] * 4)
FIVE_COLOURS_20 = MultinomialDist(20, OneParticleDistribution([0.2] * 5))


class TestLogFactorial:
    def test_zero(self):
        assert log_factorial(0) == 0.0

    def test_five(self):
        assert log_factorial(5) == pytest.approx(math.log(120), abs=1e-12)

    def test_170_matches_direct_summation(self):
        direct = sum(math.log(k) for k in range(1, 171))
        assert log_factorial(170) == pytest.approx(direct, rel=1e-12)

    def test_monotone(self):
        vals = [log_factorial(n) for n in range(200)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_factorial(-1)

    def test_table_boundary_is_continuous_with_lgamma(self):
        # n=4095 from the table vs n=4096 evaluated: their difference is
        # ln 4096 within the rounding of two values of about 30,000
        step = log_factorial(4096) - log_factorial(4095)
        assert abs(step - math.log(4096)) <= 2 * math.ulp(log_factorial(4096))

    def test_has_the_bits_of_the_array_kernel(self):
        # in the table, at its edge and past it, for Python and numpy ints
        counts = np.array([*range(4200), 10**6, 2**52, 2**62], dtype=np.int64)
        kernel = _log_factorial(counts)
        assert [log_factorial(n) for n in counts.tolist()] == kernel.tolist()
        assert [log_factorial(n) for n in counts[::97]] == kernel[::97].tolist()


class TestOccupancyVector:
    def test_total_cached(self):
        v = OccupancyVector((2, 0, 3))
        assert v.total == 5
        assert len(v) == 3
        assert v[2] == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OccupancyVector((1, -1))

    def test_hashable_and_equal(self):
        assert OccupancyVector((1, 2)) == OccupancyVector((1, 2))
        assert len({OccupancyVector((1, 2)), OccupancyVector((1, 2))}) == 1

    def test_scaled(self):
        assert OccupancyVector((1, 2)).scaled(3).counts == (3, 6)
        with pytest.raises(ValueError):
            OccupancyVector((1,)).scaled(0)


class TestEnumerateOccupancies:
    def test_two_particles_two_colors_order(self):
        vs = [v.counts for v in enumerate_occupancies(2, 2)]
        assert vs == [(2, 0), (1, 1), (0, 2)]

    def test_counts(self):
        assert len(list(enumerate_occupancies(3, 3))) == 10
        assert [v.counts for v in enumerate_occupancies(0, 4)] == [(0, 0, 0, 0)]

    def test_unique_and_on_shell(self):
        vs = list(enumerate_occupancies(4, 3))
        assert len({v.counts for v in vs}) == len(vs)
        assert all(v.total == 4 for v in vs)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            list(enumerate_occupancies(100, 30, cap=10**6))

    def test_default_cap_is_the_support_matrix_cap(self):
        # 4,598,126 vectors of 100 particles over 5 colours
        with pytest.raises(CapExceededError) as info:
            next(enumerate_occupancies(100, 5))
        assert (info.value.required, info.value.cap) == (occupancy_count(100, 5), 10**6)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            list(enumerate_occupancies(-1, 2))
        with pytest.raises(ValueError):
            list(enumerate_occupancies(2, 0))

    @given(
        st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=6)
    )
    @settings(max_examples=120, deadline=None)
    def test_count_matches_stars_and_bars(self, n, c):
        expected = math.comb(n + c - 1, c - 1)
        assert occupancy_count(n, c) == expected
        assert len(list(enumerate_occupancies(n, c))) == expected

    def test_support_matrix_matches_stream(self):
        mat = support_matrix(3, 3)
        stream = np.array([v.counts for v in enumerate_occupancies(3, 3)])
        assert np.array_equal(mat, stream)
        assert not mat.flags.writeable

    @pytest.mark.parametrize(
        "n, c",
        [(0, 1), (0, 4), (5, 1), (6, 4), (3, 3), (10, 3), (30, 6), (1000, 3), (60, 4),
         (200, 3), (100, 4)],
    )
    def test_support_matrix_matches_the_tuples(self, n, c):
        # no particles, one colour, and supports of up to 324,632 rows, row
        # for row against the recursion
        mat = support_matrix(n, c)
        tuples = np.array(list(_occupancy_tuples(n, c)), dtype=np.int64)
        assert mat.shape == (occupancy_count(n, c), c)
        assert mat.dtype == np.int64
        assert np.array_equal(mat, tuples)


class TestNegativeCap:
    # a negative cap is bad input, refused as a ValueError naming the cap;
    # a cap of 0 is a cap, which every walk exceeds
    URN = OccupancyVector((3, 2))
    CALLS = {
        "check_support": lambda cap: support_matrix(3, 2, cap),
        "tv_distance": lambda cap: tv_distance(FIVE_COLOURS_20, FIVE_COLOURS_20, cap=cap),
        "brute_force_mvhg": lambda cap: brute_force_mvhg(TestNegativeCap.URN, 2, cap),
        "brute_force_partial_trace":
            lambda cap: brute_force_partial_trace(TestNegativeCap.URN, 2, cap),
        "bayesian_mixture": lambda cap: bayesian_marginal_check(3, 2, QUARTER_FOUR, cap=cap),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_negative_is_bad_input_and_zero_a_cap(self, name):
        with pytest.raises(ValueError, match="cap must be non-negative, got -1"):
            self.CALLS[name](-1)
        with pytest.raises(CapExceededError):
            self.CALLS[name](0)


class TestCapExceededError:
    # every exact path refuses up front and states what it needed and its cap
    @pytest.mark.parametrize(
        "call, required, cap",
        [
            pytest.param(
                lambda: tv_distance(FIVE_COLOURS_20, FIVE_COLOURS_20, cap=1000),
                occupancy_count(20, 5),
                1000,
                id="tv_distance",
            ),
            pytest.param(
                lambda: entropy_by_enumeration(FIVE_COLOURS_20, cap=1000),
                occupancy_count(20, 5),
                1000,
                id="entropy_by_enumeration",
            ),
            pytest.param(
                lambda: bayesian_marginal_check(40, 20, QUARTER_FOUR, cap=10),
                occupancy_count(40, 4) * occupancy_count(20, 4),
                10,
                id="bayesian_marginal_check",
            ),
        ],
    )
    def test_states_required_and_cap(self, call, required, cap):
        with pytest.raises(CapExceededError) as info:
            call()
        assert (info.value.required, info.value.cap) == (required, cap)
        assert re.search(rf"\b{required}\b", str(info.value))
        assert re.search(rf"\b{cap}\b", str(info.value))
