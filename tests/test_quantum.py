import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from occupancy_entropy import distributions, quantum
from occupancy_entropy.combinatorics import (
    CapExceededError,
    OccupancyVector,
    enumerate_occupancies,
    support_matrix,
)
from occupancy_entropy.distributions import (
    MultinomialDist,
    MvhgDist,
    OneParticleDistribution,
    _mvhg_log_pmf_grid,
)
from occupancy_entropy.entropy import (
    entropy_by_enumeration,
    multinomial_entropy,
    mvhg_entropy,
)
from occupancy_entropy.marginals import _count_log_choose, _hypergeometric_log_expectations
from occupancy_entropy.oracle import brute_force_partial_trace
from occupancy_entropy.quantum import (
    BosonicDensityOperator,
    MeasurementLedger,
    LedgerStep,
    bayesian_marginal_check,
    empirical_information,
    holevo_chi,
    measurement_ledger,
    trace_out_environment,
)

FAIR_TWO = OneParticleDistribution([0.5, 0.5])


def reference_bayesian_mixture(U, N, p):
    """The per-urn loop the blocked mixture replaced: one MVHG distribution
    and one batch log-pmf over the system support for each urn."""
    system = support_matrix(N, p.num_colors)
    urns = support_matrix(U, p.num_colors)
    prior = np.exp(MultinomialDist(U, p).log_pmf_batch(urns))
    mixed = np.zeros(system.shape[0])
    for urn_row, pu in zip(urns, prior):
        if pu > 0.0:
            urn = OccupancyVector(tuple(int(x) for x in urn_row))
            mixed += pu * np.exp(MvhgDist(urn, N).log_pmf_batch(system))
    return system, mixed


@st.composite
def mixture_cases(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    weight = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))
    w = draw(st.lists(weight, min_size=k, max_size=k).filter(lambda ws: sum(ws) > 0))
    # four colours at U = 30 hold 5,456 urns; keep the grid small enough
    U = draw(st.integers(min_value=0, max_value=30 if k < 4 else 16))
    N = draw(st.integers(min_value=0, max_value=U))
    return U, N, OneParticleDistribution.from_weights(w)


class TestTraceOutEnvironment:
    def test_worked_example(self):
        op = trace_out_environment(OccupancyVector((2, 2)), 2)
        assert op.source == "traced_from_universe"
        assert op.weights[OccupancyVector((1, 1))] == pytest.approx(2 / 3, abs=1e-14)
        assert op.weights[OccupancyVector((2, 0))] == pytest.approx(1 / 6, abs=1e-14)
        assert op.weights[OccupancyVector((0, 2))] == pytest.approx(1 / 6, abs=1e-14)

    def test_full_draw_is_point_mass(self):
        urn = OccupancyVector((3, 0, 1))
        op = trace_out_environment(urn, urn.total)
        assert op.weights == {urn: pytest.approx(1.0, abs=1e-14)}

    def test_matches_pmf_pointwise(self):
        urn = OccupancyVector((3, 2, 1))
        op = trace_out_environment(urn, 3)
        d = MvhgDist(urn, 3)
        for key, w in op.weights.items():
            assert w == pytest.approx(d.pmf(key.counts), abs=1e-15)

    def test_matches_microstate_enumeration_oracle(self):
        urn = OccupancyVector((4, 2, 2))
        op = trace_out_environment(urn, 3)
        oracle = brute_force_partial_trace(urn, 3)
        assert set(op.weights) == set(oracle)
        for key, frac in oracle.items():
            assert op.weights[key] == pytest.approx(float(frac), abs=1e-12)

    def test_oversized_system_rejected(self):
        with pytest.raises(ValueError):
            trace_out_environment(OccupancyVector((1, 1)), 3)


class TestBosonicDensityOperator:
    def test_validates_weights(self):
        with pytest.raises(ValueError):
            BosonicDensityOperator({OccupancyVector((1, 0)): 0.5}, 1, "canonical")
        with pytest.raises(ValueError):
            BosonicDensityOperator({OccupancyVector((2, 0)): 1.0}, 1, "canonical")

    def test_entropy_is_shannon(self):
        op = trace_out_environment(OccupancyVector((2, 2)), 2)
        expected = -(2 / 3 * math.log(2 / 3) + 2 * (1 / 6) * math.log(1 / 6))
        assert op.entropy() == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "U, probs", [(5, [0.5, 0.5]), (6, [0.7, 0.3, 0.0])], ids=["fair", "zero_colour"]
    )
    def test_bayesian_marginal_equals_canonical(self, U, probs):
        p = OneParticleDistribution(probs)
        canonical = BosonicDensityOperator.canonical(2, p)
        mixed = BosonicDensityOperator.bayesian_marginal(U, 2, p)
        assert set(canonical.weights) == set(mixed.weights)
        for key, w in canonical.weights.items():
            assert mixed.weights[key] == pytest.approx(w, abs=1e-12)

    def test_empirical_source(self):
        op = BosonicDensityOperator.empirical(OccupancyVector((2, 2)), 2)
        assert op.source == "empirical"
        assert op.entropy() == pytest.approx(1.039720771, abs=1e-9)


class TestBayesianMarginalCheck:
    def test_small_case(self):
        assert bayesian_marginal_check(3, 2, FAIR_TWO) <= 1e-12

    def test_universe_equals_system(self):
        assert bayesian_marginal_check(4, 4, FAIR_TWO) == 0.0

    def test_three_colors(self):
        p = OneParticleDistribution([0.2, 0.3, 0.5])
        assert bayesian_marginal_check(8, 3, p) <= 1e-12

    def test_degenerate_probabilities(self):
        p = OneParticleDistribution([0.7, 0.3, 0.0])
        assert bayesian_marginal_check(6, 2, p) <= 1e-12

    def test_cap(self):
        with pytest.raises(CapExceededError):
            bayesian_marginal_check(40, 20, OneParticleDistribution([0.25] * 4), cap=10)

    def test_operator_and_check_refuse_the_same_support_product(self):
        # each support is under the cap, their product is not
        p = OneParticleDistribution([0.2, 0.3, 0.5])
        for run in (BosonicDensityOperator.bayesian_marginal, bayesian_marginal_check):
            with pytest.raises(
                CapExceededError,
                match="urn/system support product 13957471 exceeds cap 1000000",
            ) as err:
                run(120, 60, p)
            assert (err.value.required, err.value.cap) == (13_957_471, 1_000_000)


class TestBayesianMixture:
    @given(mixture_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_per_urn_loop(self, case):
        U, N, p = case
        system, mixed = quantum._bayesian_mixture(U, N, p, cap=10**6)
        want_system, want = reference_bayesian_mixture(U, N, p)
        assert np.array_equal(system, want_system)
        assert np.abs(mixed - want).max() <= 1e-15
        if U == N:
            prior = np.exp(MultinomialDist(N, p).log_pmf_batch(system))
            assert np.array_equal(mixed, prior)

    @pytest.mark.parametrize(
        "U, N, probs",
        [(30, 6, [0.2, 0.3, 0.5]), (9, 4, [0.5, 0.0, 0.5]), (12, 12, [0.1, 0.9]),
         (7, 0, [0.3, 0.7]), (5, 3, [1.0]), (8, 3, [0.1, 0.2, 0.3, 0.4])],
    )
    def test_block_size_does_not_change_the_weights(self, monkeypatch, U, N, probs):
        p = OneParticleDistribution(probs)
        _, whole = quantum._bayesian_mixture(U, N, p, cap=10**6)
        monkeypatch.setattr(quantum, "_BLOCK_CELLS", 7)
        _, blocked = quantum._bayesian_mixture(U, N, p, cap=10**6)
        assert np.array_equal(blocked, whole)

    @staticmethod
    def _assert_evaluated_grid(U, N, k):
        # every cell of the grid, the -inf of the urns that cannot give a
        # system included, has the bits of
        # sum_c [ln u_c! - (ln n_c! + ln (u_c - n_c)!)] - ln C(U, N) with each
        # ln k! evaluated by gammaln and ln C(U, N) by _count_log_choose
        urns, system = support_matrix(U, k), support_matrix(N, k)
        u, n = urns[:, None, :], system[None, :, :]
        terms = gammaln(u + 1.0) - (gammaln(n + 1.0) + gammaln(u - n + 1.0))
        want = terms.sum(axis=-1) - _count_log_choose(U, N)
        got = _mvhg_log_pmf_grid(urns, system, U, N)
        assert np.array_equal(got, want)
        return got

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=12),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_log_factorial_table_gives_the_evaluated_grid(self, k, U, data):
        N = data.draw(st.integers(min_value=0, max_value=U))
        self._assert_evaluated_grid(U, N, k)

    @pytest.mark.parametrize("U, N", [(4095, 3), (4096, 2), (4097, 5), (5000, 3)])
    def test_grid_past_the_log_factorial_table(self, U, N):
        # two-colour urns at and past the table's last count of 4095
        got = self._assert_evaluated_grid(U, N, 2)
        assert np.isneginf(got).any() and np.isfinite(got).any()


def multinomial_entropy_mp(n, probs, sds=None):
    """n H(p) - ln n! + sum_c E{ln X_c!} with X_c ~ Bin(n, p_c), in 30-digit
    arithmetic, for p normalised to sum to 1: the float probabilities sum
    to 1 only within rounding, which moves the entropy by about that much
    times n ln n. Every term of the binomial sums is kept, or with ``sds``
    only those within that many standard deviations of the mean: past 40
    the omitted tails are below exp(-3200 p (1 - p)) (Hoeffding)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        p = [mp.mpf(x) for x in probs if x > 0]
        total = mp.fsum(p)
        p = [x / total for x in p]
        acc = -n * mp.fsum(x * mp.log(x) for x in p) - mp.loggamma(n + 1)
        for pc in p:
            lo, hi = 0, n
            if sds is not None:
                mean, half = n * float(pc), sds * math.sqrt(n * float(pc * (1 - pc)))
                lo, hi = max(0, math.floor(mean - half)), min(n, math.ceil(mean + half))
            # P(X_c = lo), then P(X_c = k) by recurrence
            log_fact = mp.loggamma(lo + 1)
            term = mp.exp(mp.loggamma(n + 1) - log_fact - mp.loggamma(n - lo + 1))
            term *= pc**lo * (1 - pc) ** (n - lo)
            acc += term * log_fact
            for k in range(lo + 1, hi + 1):
                term *= (n - k + 1) * pc / (k * (1 - pc))
                log_fact += mp.log(k)
                acc += term * log_fact
        return acc


class TestHolevoChi:
    @pytest.mark.parametrize(
        "U, N, probs",
        [
            (60, 10, (0.5, 0.3, 0.2)),
            (200, 20, (0.5, 0.3, 0.2)),
            (2000, 5, (1e-4, 1 - 1e-4)),
            (3000, 10, (0.5, 0.5)),
        ],
    )
    def test_exact_matches_mpmath_full_sum(self, U, N, probs):
        # chi = H(Mult(U, p)) - H(Mult(U - N, p)); the environment's draws
        # are independent of the system's
        want = float(
            multinomial_entropy_mp(U, probs) - multinomial_entropy_mp(U - N, probs)
        )
        got = holevo_chi(U, N, OneParticleDistribution(probs)).chi
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("U", [20_100, 100_100])
    def test_exact_matches_mpmath_at_large_universe(self, U):
        # chi (5e-4 at U = 100,100) is the difference of two entropies of
        # about 6.4 nats, each within a few eps of itself, so a few eps of
        # each is about 1e-12 of chi: 4.1e-13 at U = 20,100, 1.1e-12 here
        N, probs = 100, (0.3, 0.7)
        want = float(
            multinomial_entropy_mp(U, probs, sds=40)
            - multinomial_entropy_mp(U - N, probs, sds=40)
        )
        got = holevo_chi(U, N, OneParticleDistribution(probs)).chi
        assert got == pytest.approx(want, rel=1e-11)

    def test_exact_needs_no_universe_enumeration(self):
        # 2,003,001 three-colour universes of 2,000 particles, which exact
        # mode does not enumerate; chi is close to ln(2000 / 1900)
        probs = (0.5, 0.3, 0.2)
        want = float(
            multinomial_entropy_mp(2000, probs) - multinomial_entropy_mp(1900, probs)
        )
        got = holevo_chi(2000, 100, OneParticleDistribution(probs)).chi
        assert got == pytest.approx(want, rel=1e-11)
        assert got == pytest.approx(math.log(2000 / 1900), rel=1e-3)

    @pytest.mark.parametrize(
        "U, N, probs", [(5, 0, [0.5, 0.5]), (7, 3, [1.0]), (7, 3, [0.0, 1.0])]
    )
    def test_exact_zero_is_positive_zero(self, U, N, probs):
        chi = holevo_chi(U, N, OneParticleDistribution(probs)).chi
        assert chi == 0.0 and math.copysign(1.0, chi) == 1.0

    def test_monte_carlo_averages_the_sampled_urns(self):
        # the estimate is the canonical entropy minus the mean traced entropy
        # of the seeded prior draws, and its error is their standard error
        p = OneParticleDistribution([0.3, 0.7])
        est = holevo_chi(64, 2, p, mode="monte_carlo", mc_samples=400, seed=13)
        # the documented draw: numpy's multinomial over the positive colours
        urns = np.random.default_rng(13).multinomial(64, p.probs, size=400)
        vals = [entropy_by_enumeration(MvhgDist(OccupancyVector(tuple(u)), 2)) for u in urns]
        s_system = multinomial_entropy(MultinomialDist(2, p)).total
        mean = math.fsum(vals) / len(vals)
        se = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
        assert est.chi == pytest.approx(s_system - mean, abs=1e-12)
        assert est.standard_error == pytest.approx(se / math.sqrt(400), abs=1e-12)

    @pytest.mark.parametrize(
        "probs", [(0.3, 0.7), (0.5, 0.3, 0.2), (0.1, 0.15, 0.2, 0.25, 0.3)]
    )
    @pytest.mark.parametrize("U, N", [(64, 8), (1000, 100), (10**6, 100)])
    def test_monte_carlo_within_five_errors_of_exact(self, probs, U, N):
        p = OneParticleDistribution(probs)
        est = holevo_chi(U, N, p, mode="monte_carlo", mc_samples=400, seed=11)
        exact = holevo_chi(U, N, p).chi
        assert abs(est.chi - exact) <= 5 * est.standard_error

    @pytest.mark.parametrize("U", [10**6, 10**7, 10**8, 10**9])
    def test_universe_terms_within_the_rounding_bound(self, U):
        # each universe's term against a 50-digit sum over every count; the
        # docstring's per-universe bound, which B is over, holds it
        mp = pytest.importorskip("mpmath")
        N, probs = 100, (0.5, 0.3, 0.2)
        urns = quantum._prior_universes(U, OneParticleDistribution(probs), 2, seed=U % 97)
        _, e_binom = _hypergeometric_log_expectations(U, urns, N)
        got = _count_log_choose(U, N) - e_binom.sum(axis=1)

        def log_choose(n, k):
            return mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)

        eps, log_draws = 2.0**-52, math.lgamma(U + 1) - math.lgamma(N + 1) - math.lgamma(U - N + 1)
        with mp.workdps(50):
            for row, term in zip(urns.tolist(), got):
                want = log_choose(U, N)
                for u in row:
                    want -= mp.fsum(
                        mp.exp(log_choose(u, n) + log_choose(U - u, N - n) - log_choose(U, N))
                        * log_choose(u, n)
                        for n in range(max(0, N - (U - u)), min(N, u) + 1)
                    )
                cells = sum(math.lgamma(u + 1) for u in row)
                bound = eps * ((25 + math.log2(N + 1) + 7 + (25 + math.log2(3)) / 2) * cells
                               + 4 * log_draws)
                assert abs(term - float(want)) <= bound
                assert bound <= (61 + math.log2((N + 1) * math.sqrt(3))) * eps * math.lgamma(U + 1)

    def test_monte_carlo_refuses_what_its_rounding_cannot_resolve(self):
        # at N = 100 the bound passes 1 % of chi between U = 10^6 and 10^7
        p = OneParticleDistribution([0.5, 0.3, 0.2])
        assert holevo_chi(10**6, 100, p, mode="monte_carlo", mc_samples=20).standard_error > 0
        for U in (10**7, 10**12, 2**63 - 1):
            with pytest.raises(CapExceededError, match="rounding bound") as info:
                holevo_chi(U, 100, p, mode="monte_carlo")
            bound = (61 + math.log2(101) + math.log2(3 * 10_000) / 2) * 2.0**-52 * math.lgamma(U + 1)
            assert info.value.required == pytest.approx(bound, rel=1e-12)
            assert info.value.cap == pytest.approx(0.01 * -math.log1p(-100 / U), rel=1e-12)
            assert f"{bound:.3g}" in str(info.value) and f"{info.value.cap:.3g}" in str(info.value)

    @pytest.mark.parametrize(
        "N, probs", [(0, [0.5, 0.3, 0.2]), (100, [1.0]), (100, [0.0, 1.0, 0.0])]
    )
    def test_monte_carlo_zero_chi_is_not_refused(self, N, probs):
        est = holevo_chi(2**62, N, OneParticleDistribution(probs), mode="monte_carlo")
        assert (est.chi, est.standard_error) == (0.0, 0.0)
        assert math.copysign(1.0, est.chi) == 1.0

    def test_monte_carlo_universe_equals_system(self):
        # every universe traced to itself is pure, whatever its size
        p = OneParticleDistribution([0.5, 0.3, 0.2])
        for U in (3, 10**6):
            est = holevo_chi(U, U, p, mode="monte_carlo", mc_samples=50)
            assert est.chi == multinomial_entropy(MultinomialDist(U, p)).total
            assert est.standard_error == 0.0

    def test_universe_equals_system_gives_full_entropy(self):
        est = holevo_chi(3, 3, FAIR_TWO)
        expected = multinomial_entropy(MultinomialDist(3, FAIR_TWO)).total
        assert est.chi == pytest.approx(expected, abs=1e-12)
        assert est.standard_error is None

    def test_exact_small_case(self):
        est = holevo_chi(4, 2, FAIR_TWO)
        # independent recomputation: enumerate the five universes directly
        prior = MultinomialDist(4, FAIR_TWO)
        expected = multinomial_entropy(MultinomialDist(2, FAIR_TWO)).total
        acc = 0.0
        for u in enumerate_occupancies(4, 2):
            acc += prior.pmf(u.counts) * mvhg_entropy(MvhgDist(u, 2)).total
        assert est.chi == pytest.approx(expected - acc, abs=1e-12)
        assert est.chi == pytest.approx(0.367810970, abs=1e-9)
        assert est.chi >= 0

    def test_nonnegative_on_sweep(self):
        for c, probs in [(2, [0.5, 0.5]), (2, [0.9, 0.1]), (3, [0.2, 0.3, 0.5])]:
            p = OneParticleDistribution(probs)
            for U in range(1, 8):
                for N in range(0, min(U, 3) + 1):
                    est = holevo_chi(U, N, p)
                    assert est.chi >= -1e-12, (probs, U, N)

    def test_decreasing_in_universe_size(self):
        chis = [holevo_chi(U, 2, FAIR_TWO).chi for U in (4, 8, 16, 32)]
        assert all(b < a - 1e-9 for a, b in zip(chis, chis[1:]))

    def test_monte_carlo_reproducible_and_consistent(self):
        p = OneParticleDistribution([0.3, 0.7])
        a = holevo_chi(64, 2, p, mode="monte_carlo", mc_samples=400, seed=13)
        b = holevo_chi(64, 2, p, mode="monte_carlo", mc_samples=400, seed=13)
        assert a.chi == b.chi and a.standard_error == b.standard_error
        exact = holevo_chi(64, 2, p).chi
        assert abs(a.chi - exact) <= 5 * a.standard_error + 1e-9

    def test_large_universe_chi_vanishes(self):
        est = holevo_chi(
            10**4 * 2, 2, FAIR_TWO, mode="monte_carlo", mc_samples=10**4, seed=7
        )
        assert est.chi < 0.01
        assert est.standard_error is not None

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            holevo_chi(4, 2, FAIR_TWO, mode="guess")

    def test_system_larger_than_universe_rejected(self):
        with pytest.raises(ValueError):
            holevo_chi(2, 3, FAIR_TWO)


class TestPriorUniverses:
    @pytest.mark.parametrize(
        "U, probs",
        [
            (0, [0.5, 0.5]),
            (1, [0.2, 0.8]),
            (1000, [0.5, 0.3, 0.2]),
            (10**12, [0.1, 0.0, 0.2, 0.7]),
            (2**62, [0.25] * 4),
            (10**6, [1.0]),
            (10**6, [0.0, 1.0, 0.0]),
        ],
    )
    def test_rows_sum_to_the_universe(self, U, probs):
        p = OneParticleDistribution(probs)
        urns = quantum._prior_universes(U, p, 500, seed=2)
        assert urns.shape == (500, len(probs)) and urns.dtype == np.int64
        assert (urns >= 0).all() and (urns.sum(axis=1) == U).all()
        assert (urns[:, p.probs == 0.0] == 0).all()

    @pytest.mark.parametrize("total", [1 - 0.9e-12, 1 + 0.9e-12])
    def test_probabilities_off_one_by_the_tolerance(self, total):
        # numpy refuses probabilities whose all-but-last sum passes
        # 1 + 1e-12, and gives its last colour the rest; a zero colour left
        # last would get the shortfall (about 10^3 balls a universe here)
        probs = [0.1, 0.2, 0.7 * total - 0.3 * (1 - total), 0.0]
        p = OneParticleDistribution(probs)
        urns = quantum._prior_universes(10**15, p, 200, seed=3)
        assert (urns.sum(axis=1) == 10**15).all()
        assert (urns[:, 3] == 0).all()

    def test_colour_means_within_five_errors(self):
        U, samples, probs = 1000, 4000, np.array([0.5, 0.3, 0.15, 0.05])
        urns = quantum._prior_universes(U, OneParticleDistribution(probs), samples, seed=4)
        se = np.sqrt(U * probs * (1 - probs) / samples)
        assert (np.abs(urns.mean(axis=0) - U * probs) <= 5 * se).all()

    def test_refuses_more_cells_than_the_cap_before_drawing(self, monkeypatch):
        # samples * colours cells, zero colours included: 4 x 3 fit a cap of
        # 12, 5 x 3 do not
        monkeypatch.setattr(distributions, "_DRAW_CELLS", 12)
        p = OneParticleDistribution([0.5, 0.0, 0.5])
        assert quantum._prior_universes(10, p, 4, seed=1).shape == (4, 3)
        with pytest.raises(CapExceededError, match="5 x 3 = 15 cells, over the cap of 12"):
            quantum._prior_universes(10, p, 5, seed=1)

    def test_the_documented_draw(self):
        p = OneParticleDistribution([0.2, 0.0, 0.8])
        got = quantum._prior_universes(500, p, 30, seed=9)
        want = np.random.default_rng(9).multinomial(500, [0.2, 0.8], size=30)
        assert (got[:, [0, 2]] == want).all()


class TestEmpiricalInformation:
    def test_worked_example(self):
        assert empirical_information(OccupancyVector((2, 2)), 2) == pytest.approx(
            0.172157542, abs=1e-9
        )

    def test_zero_draws(self):
        assert empirical_information(OccupancyVector((5, 3)), 0) == 0.0

    def test_decreasing_along_scaled_urns(self):
        vals = [
            empirical_information(OccupancyVector((1, 1)).scaled(k), 2)
            for k in (2, 20, 200)
        ]
        assert vals[0] > vals[1] > vals[2] > 0

    @given(
        st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=4).filter(
            lambda cs: sum(cs) > 0
        ),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_nonnegative(self, counts, data):
        urn = OccupancyVector(tuple(counts))
        n = data.draw(st.integers(min_value=0, max_value=urn.total))
        assert empirical_information(urn, n) >= -1e-12


class TestMeasurementLedger:
    BAYES_START = {"kind": "bayesian", "N": 2, "probs": [0.5, 0.5]}
    CHAIN = [{"op": "pvm_on_universe", "urn": [2, 2]}, {"op": "pvm_on_system"}]

    def test_bayesian_chain(self):
        ledger = measurement_ledger(self.BAYES_START, self.CHAIN)
        gains = [s.information_gained for s in ledger.steps]
        assert gains[0] == pytest.approx(0.172157542, abs=1e-9)
        assert gains[1] == pytest.approx(0.867563228, abs=1e-9)
        assert ledger.total_information == pytest.approx(1.039720771, abs=1e-9)
        assert ledger.steps[-1].post_entropy == 0.0

    def test_empirical_chain_matches_bayesian_here(self):
        # the empirical one-particle distribution of (2,2) is exactly (1/2,1/2)
        ledger = measurement_ledger(
            {"kind": "empirical", "N": 2, "urn": [2, 2]}, self.CHAIN
        )
        bayes = measurement_ledger(self.BAYES_START, self.CHAIN)
        for a, b in zip(ledger.steps, bayes.steps):
            assert a.information_gained == pytest.approx(
                b.information_gained, abs=1e-12
            )

    def test_agnostic_system_only(self):
        ledger = measurement_ledger(
            {"kind": "agnostic", "N": 2}, [{"op": "pvm_on_system"}]
        )
        assert ledger.steps[0].pre_entropy is None
        assert ledger.steps[0].information_gained is None
        assert ledger.total_information is None

    def test_agnostic_universe_first(self):
        ledger = measurement_ledger(
            {"kind": "agnostic", "N": 2}, self.CHAIN
        )
        assert ledger.steps[0].information_gained is None
        assert ledger.steps[0].post_entropy == pytest.approx(0.867563228, abs=1e-9)
        assert ledger.steps[1].information_gained == pytest.approx(
            0.867563228, abs=1e-9
        )
        assert ledger.total_information is None

    def test_povm_empirical_model_resolves_agnostic(self):
        ledger = measurement_ledger(
            {"kind": "agnostic", "N": 2},
            [{"op": "povm_empirical_model", "urn": [2, 2]}, {"op": "pvm_on_system"}],
        )
        gains = [s.information_gained for s in ledger.steps]
        assert gains[0] == pytest.approx(0.172157542, abs=1e-9)
        assert ledger.total_information == pytest.approx(1.039720771, abs=1e-9)

    def test_separation_is_zero_gain(self):
        ledger = measurement_ledger(
            self.BAYES_START,
            [{"op": "pvm_on_universe", "urn": [2, 2]},
             {"op": "separate_system"},
             {"op": "pvm_on_system"}],
        )
        row = ledger.steps[1]
        assert row.label == "separate_system"
        assert row.information_gained == 0.0
        assert ledger.total_information == pytest.approx(1.039720771, abs=1e-9)

    def test_conservation(self):
        ledger = measurement_ledger(self.BAYES_START, self.CHAIN)
        pre = ledger.steps[0].pre_entropy
        assert ledger.total_information == pytest.approx(pre, abs=1e-12)

    def test_ill_ordered_scenarios_rejected(self):
        with pytest.raises(ValueError):
            measurement_ledger(
                self.BAYES_START,
                [{"op": "pvm_on_system"}, {"op": "pvm_on_universe", "urn": [2, 2]}],
            )
        with pytest.raises(ValueError):
            measurement_ledger(
                self.BAYES_START,
                [{"op": "pvm_on_universe", "urn": [2, 2]},
                 {"op": "pvm_on_universe", "urn": [2, 2]}],
            )
        with pytest.raises(ValueError):
            measurement_ledger(
                self.BAYES_START,
                [{"op": "povm_empirical_model", "urn": [2, 2]}],
            )

    def test_empirical_urn_mismatch_rejected(self):
        with pytest.raises(ValueError):
            measurement_ledger(
                {"kind": "empirical", "N": 2, "urn": [2, 2]},
                [{"op": "pvm_on_universe", "urn": [3, 1]}],
            )

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            measurement_ledger(
                {"kind": "bayesian", "N": 2, "probs": [0.5, 0.5], "extra": 1},
                self.CHAIN,
            )
        with pytest.raises(ValueError):
            measurement_ledger(self.BAYES_START, [{"op": "dance"}])

    def test_mismatched_prior_with_negative_information_rejected(self):
        # an urn outcome far more disordered than the prior admits would
        # book negative information; the ledger refuses to record it
        with pytest.raises(ValueError):
            measurement_ledger(
                {"kind": "bayesian", "N": 2, "probs": [0.9, 0.1]},
                [{"op": "pvm_on_universe", "urn": [2, 2]}],
            )

    def test_row_consistency_enforced(self):
        with pytest.raises(ValueError):
            MeasurementLedger((LedgerStep("x", 1.0, 0.0, 0.5),))
