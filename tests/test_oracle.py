import math
from fractions import Fraction

import pytest

from occupancy_entropy.combinatorics import (
    CapExceededError,
    OccupancyVector,
    enumerate_occupancies,
)
from occupancy_entropy.distributions import (
    MultinomialDist,
    MvhgDist,
    OneParticleDistribution,
)
from occupancy_entropy.entropy import multinomial_entropy, mvhg_entropy
from occupancy_entropy.oracle import (
    brute_force_mvhg,
    brute_force_partial_trace,
    exact_multinomial_coeff,
    mc_entropy_estimate,
)


class TestExactMultinomialCoeff:
    def test_values(self):
        assert exact_multinomial_coeff((2, 1)) == 3
        assert exact_multinomial_coeff((1, 1, 1)) == 6
        assert exact_multinomial_coeff((3, -1)) == 0
        assert exact_multinomial_coeff(()) == 1


class TestBruteForceMvhg:
    def test_worked_example(self):
        table = brute_force_mvhg(OccupancyVector((2, 2)), 2)
        assert table[OccupancyVector((1, 1))] == Fraction(2, 3)
        assert table[OccupancyVector((2, 0))] == Fraction(1, 6)
        assert table[OccupancyVector((0, 2))] == Fraction(1, 6)

    def test_single_color(self):
        table = brute_force_mvhg(OccupancyVector((3, 0)), 2)
        assert table == {OccupancyVector((2, 0)): Fraction(1)}

    def test_exhaustive_draw(self):
        table = brute_force_mvhg(OccupancyVector((1, 1, 1)), 3)
        assert table == {OccupancyVector((1, 1, 1)): Fraction(1)}

    def test_probabilities_sum_to_exactly_one(self):
        for counts in [(2, 2), (4, 1), (3, 2, 1), (2, 0, 2, 1)]:
            urn = OccupancyVector(counts)
            for n in range(urn.total + 1):
                assert sum(brute_force_mvhg(urn, n).values()) == Fraction(1)

    def test_matches_analytic_pmf(self):
        urn = OccupancyVector((3, 2, 1))
        for n in range(urn.total + 1):
            d = MvhgDist(urn, n)
            table = brute_force_mvhg(urn, n)
            for v in enumerate_occupancies(n, 3):
                expected = table.get(v, Fraction(0))
                assert d.pmf(v.counts) == pytest.approx(
                    float(expected), abs=1e-12
                )

    def test_cap(self):
        with pytest.raises(CapExceededError):
            brute_force_mvhg(OccupancyVector((8, 8)), 4)


class TestBruteForcePartialTrace:
    def test_matches_sequential_oracle_exactly(self):
        for counts in [(2, 2), (3, 1), (2, 2, 1), (1, 1, 1, 1)]:
            urn = OccupancyVector(counts)
            for n in range(urn.total + 1):
                assert brute_force_partial_trace(urn, n) == brute_force_mvhg(urn, n)

    def test_full_system_is_point_mass(self):
        urn = OccupancyVector((2, 1, 1))
        assert brute_force_partial_trace(urn, urn.total) == {urn: Fraction(1)}

    def test_empty_system(self):
        urn = OccupancyVector((2, 2))
        assert brute_force_partial_trace(urn, 0) == {
            OccupancyVector((0, 0)): Fraction(1)
        }

    def test_cap(self):
        with pytest.raises(CapExceededError):
            brute_force_partial_trace(OccupancyVector((5, 5, 5)), 3, microstate_cap=100)


class TestMcEntropyEstimate:
    def test_point_mass(self):
        d = MvhgDist(OccupancyVector((3, 1)), 4)
        estimate, se = mc_entropy_estimate(d, 100, seed=1)
        assert estimate == 0.0
        assert se == 0.0

    def test_multinomial_calibration(self):
        d = MultinomialDist(2, OneParticleDistribution([0.5, 0.5]))
        estimate, se = mc_entropy_estimate(d, 10**5, seed=21)
        analytic = multinomial_entropy(d).total
        assert abs(estimate - analytic) <= 4 * se
        assert estimate == pytest.approx(1.0397, abs=0.02)

    def test_large_urn_calibration(self):
        d = MvhgDist(OccupancyVector((200, 200)), 10)
        estimate, se = mc_entropy_estimate(d, 10**5, seed=33)
        analytic = mvhg_entropy(d).total
        assert abs(estimate - analytic) <= 4 * se

    def test_bit_for_bit_reproducible(self):
        d = MultinomialDist(3, OneParticleDistribution([0.2, 0.3, 0.5]))
        assert mc_entropy_estimate(d, 5000, seed=9) == mc_entropy_estimate(
            d, 5000, seed=9
        )

    def test_needs_two_samples(self):
        d = MultinomialDist(1, OneParticleDistribution([1.0]))
        with pytest.raises(ValueError):
            mc_entropy_estimate(d, 1)

    def test_jackknife_se_matches_classic_for_the_mean(self):
        import numpy as np

        d = MultinomialDist(4, OneParticleDistribution([0.3, 0.7]))
        from occupancy_entropy.distributions import sample

        n = 4000
        draws = sample(d, n, seed=17)
        vals = np.array([-d.log_pmf(v.counts) for v in draws])
        classic = vals.std(ddof=1) / math.sqrt(n)
        _, se = mc_entropy_estimate(d, n, seed=17)
        assert se == pytest.approx(classic, rel=1e-10)
