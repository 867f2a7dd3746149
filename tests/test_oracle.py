import math
from fractions import Fraction

import numpy as np
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
    SzilardSplitDist,
    sample,
)
from occupancy_entropy.entropy import multinomial_entropy, mvhg_entropy
from occupancy_entropy.oracle import (
    brute_force_mvhg,
    brute_force_partial_trace,
    exact_multinomial_coeff,
    mc_entropy_estimate,
)


def reference_mc_entropy_estimate(d, samples, seed):
    """The estimator with its draws grouped by np.unique(axis=0) and scattered
    back; the draws in drawing order must give its estimate and SE bit for bit."""
    distinct, which = np.unique(sample(d, samples, seed), axis=0, return_inverse=True)
    vals = -d.log_pmf_batch(distinct)[which.reshape(-1)]
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


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

    def test_estimate_is_the_exact_mean_over_its_draws(self):
        # the oracle_mc_entropy_mvhg golden case: against the 40-digit mean
        # of -ln P over the same seeded draws
        mp = pytest.importorskip("mpmath")
        d, samples = MvhgDist(OccupancyVector((20, 15, 25)), 10), 20000
        distinct, which = np.unique(sample(d, samples, 7), axis=0, return_inverse=True)
        with mp.workdps(40):
            def log_choose(n, k):
                return mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)

            neg_log_p = [
                log_choose(60, 10) - mp.fsum(log_choose(u, int(n)) for u, n in zip(d.urn, row))
                for row in distinct
            ]
            counts = np.bincount(which.reshape(-1), minlength=len(distinct))
            want = mp.fsum(int(c) * v for c, v in zip(counts, neg_log_p)) / samples
        estimate, _ = mc_entropy_estimate(d, samples, seed=7)
        assert abs(estimate - float(want)) <= 1e-15

    def test_jackknife_se_matches_classic_for_the_mean(self):
        d = MultinomialDist(4, OneParticleDistribution([0.3, 0.7]))
        n = 4000
        vals = np.array([-d.log_pmf(row) for row in sample(d, n, seed=17)])
        classic = vals.std(ddof=1) / math.sqrt(n)
        _, se = mc_entropy_estimate(d, n, seed=17)
        assert se == pytest.approx(classic, rel=1e-10)


class TestMcEntropyMatchesUniqueGrouping:
    @pytest.mark.parametrize(
        "d, samples, seed",
        [
            (MvhgDist(OccupancyVector((20, 15, 25)), 10), 20000, 3),
            (MvhgDist(OccupancyVector((0, 2, 0, 2, 4, 0)), 5), 500, 8),
            (MvhgDist(OccupancyVector(()), 0), 4, 7),
            (MvhgDist(OccupancyVector((6,)), 4), 10, 1),
            (MultinomialDist(6, OneParticleDistribution([0.2, 0.0, 0.3, 0.5])), 3000, 11),
            (
                SzilardSplitDist(
                    7,
                    0.4,
                    OneParticleDistribution([0.5, 0.5]),
                    OneParticleDistribution([0.2, 0.3, 0.5]),
                ),
                2000,
                12,
            ),
        ],
    )
    def test_estimate_and_se_bit_identical(self, d, samples, seed):
        assert mc_entropy_estimate(d, samples, seed) == reference_mc_entropy_estimate(
            d, samples, seed
        )

    @pytest.mark.parametrize("samples", [2, 3, 1000])
    @pytest.mark.parametrize("colours", [12, 40])
    def test_many_colours_bit_identical(self, colours, samples):
        # at few rows and 8 or more colours, where a BLAS product gives a
        # row bits that depend on the other rows of the batch
        urn = OccupancyVector(tuple(range(1, colours + 1)))
        probs = OneParticleDistribution.from_weights(range(1, colours + 1))
        for d in (MvhgDist(urn, 3 * colours), MultinomialDist(3 * colours, probs)):
            assert mc_entropy_estimate(d, samples, 5) == reference_mc_entropy_estimate(
                d, samples, 5
            )
