import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, rel_entr, xlogy

import occupancy_entropy.marginals as marginals
from occupancy_entropy.combinatorics import CapExceededError, OccupancyVector, support_matrix
from occupancy_entropy.distributions import (
    MultinomialDist,
    MvhgDist,
    OneParticleDistribution,
    SzilardSplitDist,
    _mvhg_log_pmf_grid,
)
from occupancy_entropy.entropy import (
    EntropyReport,
    _hypergeometric_log_expectations,
    _mvhg_entropies,
    boltzmann_entropy,
    entropy_by_enumeration,
    multinomial_entropy,
    mvhg_entropy,
    sackur_tetrode,
    sandwich_check,
    szilard_split_entropy,
)
from occupancy_entropy.marginals import _binomial_log_factorial_gap
from test_quantum import multinomial_entropy_mp

FAIR_TWO = OneParticleDistribution([0.5, 0.5])


def _gap(N, p):
    """g = E{ln n!} - ln Gamma(N p + 1) of the binomial kernel, without its tau."""
    return _binomial_log_factorial_gap(N, p)[1]


@st.composite
def random_multinomials(draw, max_n=12, max_colors=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    c = draw(st.integers(min_value=1, max_value=max_colors))
    w = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=c,
            max_size=c,
        ).filter(lambda ws: sum(ws) > 1e-6)
    )
    return MultinomialDist(n, OneParticleDistribution.from_weights(w))


class TestEntropyByEnumeration:
    def test_point_mass(self):
        d = MvhgDist(OccupancyVector((3, 2)), 5)
        assert entropy_by_enumeration(d) == pytest.approx(0.0, abs=1e-15)

    def test_fair_multinomial(self):
        d = MultinomialDist(2, FAIR_TWO)
        assert entropy_by_enumeration(d) == pytest.approx(1.039720771, abs=1e-9)

    def test_small_urn(self):
        d = MvhgDist(OccupancyVector((2, 2)), 2)
        assert entropy_by_enumeration(d) == pytest.approx(0.867563228, abs=1e-9)


class TestMultinomialEntropy:
    def test_worked_example(self):
        r = multinomial_entropy(MultinomialDist(2, FAIR_TWO))
        assert r.microstate_term == pytest.approx(1.386294361, abs=1e-9)
        assert r.expected_logW == pytest.approx(0.346573590, abs=1e-9)
        assert r.total == pytest.approx(1.039720771, abs=1e-9)

    def test_single_particle(self):
        p = OneParticleDistribution([0.2, 0.3, 0.5])
        r = multinomial_entropy(MultinomialDist(1, p))
        assert r.expected_logW == pytest.approx(0.0, abs=1e-14)
        assert r.total == pytest.approx(p.entropy(), abs=1e-14)

    def test_deterministic_macrostate(self):
        r = multinomial_entropy(
            MultinomialDist(5, OneParticleDistribution([1.0, 0.0, 0.0]))
        )
        assert r.total == pytest.approx(0.0, abs=1e-12)
        assert r.microstate_term == pytest.approx(0.0, abs=1e-12)
        assert r.expected_logW == pytest.approx(0.0, abs=1e-12)

    @given(random_multinomials())
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration(self, d):
        r = multinomial_entropy(d)
        assert r.total == pytest.approx(entropy_by_enumeration(d), abs=1e-10)
        assert r.total == pytest.approx(r.microstate_term - r.expected_logW, abs=1e-10)
        assert r.total >= -1e-12

    def test_mutual_information_identity(self):
        # total equals H(microstates) - E{log W} from direct microstate
        # enumeration over ordered color assignments
        p = np.array([0.2, 0.3, 0.5])
        N = 3
        d = MultinomialDist(N, OneParticleDistribution(p))
        h_micro = 0.0
        e_logw = 0.0
        from itertools import product

        for micro in product(range(3), repeat=N):
            prob = float(np.prod(p[list(micro)]))
            h_micro -= prob * math.log(prob)
            counts = [micro.count(c) for c in range(3)]
            w = math.factorial(N)
            for c in counts:
                w //= math.factorial(c)
            e_logw += prob * math.log(w)
        r = multinomial_entropy(d)
        assert r.total == pytest.approx(h_micro - e_logw, abs=1e-10)
        assert r.microstate_term == pytest.approx(h_micro, abs=1e-10)


class TestMvhgEntropy:
    def test_worked_example(self):
        r = mvhg_entropy(MvhgDist(OccupancyVector((2, 2)), 2))
        assert r.total == pytest.approx(0.867563228, abs=1e-9)

    def test_zero_draws(self):
        r = mvhg_entropy(MvhgDist(OccupancyVector((4, 1, 2)), 0))
        assert r.total == pytest.approx(0.0, abs=1e-12)

    def test_system_environment_symmetry(self):
        urn = OccupancyVector((3, 4, 1))
        for n in range(urn.total + 1):
            a = mvhg_entropy(MvhgDist(urn, n)).total
            b = mvhg_entropy(MvhgDist(urn, urn.total - n)).total
            assert a == pytest.approx(b, abs=1e-10)

    def test_matches_enumeration_sweep(self):
        for counts in [(2, 2), (5, 0), (3, 1, 2), (1, 1, 1, 1), (4, 2, 2)]:
            urn = OccupancyVector(counts)
            for n in range(urn.total + 1):
                d = MvhgDist(urn, n)
                assert mvhg_entropy(d).total == pytest.approx(
                    entropy_by_enumeration(d), abs=1e-10
                ), (counts, n)

    def test_report_identity(self):
        r = mvhg_entropy(MvhgDist(OccupancyVector((4, 2, 2)), 3))
        assert r.total == pytest.approx(r.microstate_term - r.expected_logW, abs=1e-12)

    def test_bracket_holds_on_small_sweep(self):
        # the mean-occupancy log-multiplicity sits between the two report
        # terms for the finite-universe family as well
        for counts in [(2, 2), (4, 4, 2), (3, 0, 1), (5, 2, 2, 1)]:
            urn = OccupancyVector(counts)
            for n in range(urn.total + 1):
                r = mvhg_entropy(MvhgDist(urn, n))
                assert r.microstate_term >= r.boltzmann - 1e-9
                assert r.boltzmann >= r.expected_logW - 1e-9
                assert r.total >= -1e-12


def mvhg_entropy_mp(urn, N):
    """-sum p ln p over the joint support, in 30-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        total = mp.binomial(sum(urn), N)
        acc = mp.mpf(0)
        for head in itertools.product(*(range(min(u, N) + 1) for u in urn[:-1])):
            last = N - sum(head)
            if not 0 <= last <= urn[-1]:
                continue
            p = mp.fprod(mp.binomial(u, n) for u, n in zip(urn, head + (last,))) / total
            acc -= p * mp.log(p)
        return float(acc)


class TestMvhgPrecision:
    # written as ln W(urn) - ln W(env) - E{ln W}, these urns cancel ln U!-sized
    # terms (1e-7 relative is lost on the first); ln C(U, N) - sum_c
    # E{ln C(u_c, n_c)} has no such terms
    @pytest.mark.parametrize(
        "urn, N",
        [((2500, 3500, 4000), 10), ((200, 200), 2), ((512, 289, 199), 100)],
    )
    def test_matches_mpmath_joint_entropy(self, urn, N):
        want = mvhg_entropy_mp(urn, N)
        got = mvhg_entropy(MvhgDist(OccupancyVector(urn), N)).total
        assert got == pytest.approx(want, rel=1e-9)


class TestStirlingRemainder:
    @pytest.mark.parametrize(
        "xs, rtol, atol",
        [
            # the table below 10 and the series from 10 on
            (np.concatenate((np.arange(40.0), [10.5, 13.7, 2997.0, 7e4, 1e5, 1e9])), 3e-16, 0),
            # the direct form between the integers below 10, where ln Gamma(x + 1)
            # and x ln x - x cancel to about eps x ln x, and ln Gamma(1 + x)
            # loses about 0.58 x the rounding of 1 + x
            ([1e-300, 1e-5, 0.3, 0.999, 1.5, 6.000000000000001, 9.999], 0, 2e-15),
        ],
    )
    def test_matches_mpmath(self, xs, rtol, atol):
        mp = pytest.importorskip("mpmath")
        xs = np.asarray(xs, dtype=np.float64)
        with mp.workdps(40):
            want = [float(mp.loggamma(x + 1) - x * mp.log(x) + x) if x else 0.0
                    for x in map(mp.mpf, xs.tolist())]
        got = marginals._stirling_remainder(xs)
        np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)
        assert marginals._stirling_remainder(1) == 1.0

    @pytest.mark.parametrize(
        "n, k", [(0, 0), (7, 0), (7, 7), (60, 12), (200, 20), (1000, 100), (10**6, 3)]
    )
    def test_log_choose_within_an_ulp_of_mpmath(self, n, k):
        # as three ln k! of the size of ln n!, ln C(200, 20) is 6.6 ulp off
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            want = float(mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1))
        got = marginals._count_log_choose(n, k)
        assert abs(got - want) <= math.ulp(want)


class TestLogFactorial:
    # the one ln k! at whole counts: read from its table below 4096, else
    # evaluated, with gammaln's bits either way
    @staticmethod
    def _same_bits(k):
        got, want = marginals._log_factorial(k), gammaln(np.asarray(k) + 1.0)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).dtype == np.float64
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_same_bits_as_gammaln(self, dtype):
        ks = np.arange(5001).astype(dtype)
        for k in (ks, ks[:4096], ks[4095:4097], ks[:10].reshape(2, 5), ks[4000:5001:7][::-1]):
            self._same_bits(k)
        for k in ks[[0, 1, 4095, 4096, 5000]]:
            self._same_bits(k)

    @pytest.mark.parametrize("k", [0, 1, 20, 4095, 4096, 10**6])
    def test_python_int(self, k):
        self._same_bits(k)

    def test_negative_count_is_inf(self):
        got = marginals._log_factorial(np.array([-1, 0, 3, -4096]))
        assert got[0] == got[3] == np.inf
        assert got[1] == 0.0
        self._same_bits(np.array([-1, 0, 3, -4096]))
        assert marginals._log_factorial(-2) == np.inf

    def test_empty(self):
        for k in (np.array([], dtype=np.int64), np.zeros((0, 3))):
            self._same_bits(k)

    def test_evaluates_only_the_counts_past_the_table(self, monkeypatch):
        evaluated = []

        def counting_gammaln(x):
            evaluated.append(np.size(x))
            return gammaln(x)

        monkeypatch.setattr(marginals, "gammaln", counting_gammaln)
        marginals._log_factorial(np.array([[0, 4095, 5000], [3, -1, 7]]))
        assert evaluated == [2]

    def test_scalar_has_the_same_bits(self):
        ks = list(range(5001)) + [10**6]
        got = np.array([marginals.log_factorial(k) for k in ks])
        want = marginals._log_factorial(np.array(ks))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert all(type(marginals.log_factorial(k)) is float for k in (0, 4096, 10**6))
        with pytest.raises(ValueError):
            marginals.log_factorial(-1)


class TestMultinomialPrecision:
    # ln N! less a sum of about ln N! lost about eps N ln N; the Stirling
    # remainders keep every term near the size of the result
    @pytest.mark.parametrize(
        "N, probs, sds",
        [
            (10**4, (0.1, 0.2, 0.3, 0.4), 40),
            (10**5, (0.3, 0.7), 40),
            (3000, (0.999, 0.001), None),
        ],
    )
    def test_matches_mpmath(self, N, probs, sds):
        want = float(multinomial_entropy_mp(N, probs, sds=sds))
        got = multinomial_entropy(MultinomialDist(N, OneParticleDistribution(probs)))
        assert got.total == pytest.approx(want, rel=1e-14)

    def test_cold_gas_box_matches_mpmath(self):
        # the 20 nm box at 3 K, where one level holds nearly every particle,
        # against 40-digit sums over the same level probabilities, normalised
        # as the kernel normalises them (they sum to 1 + 2.2e-16 as given).
        # expected_logW and boltzmann hold tau(N) - tau(m) of the full level,
        # a difference of two numbers of about 3.2, so they are good to a few
        # eps of 3.2 (1.5e-14 relative); the total is not
        from occupancy_entropy.entropy import _multinomial_report
        from occupancy_entropy.physics import BoxModel, _boltzmann_weights, box_spectrum

        mp = pytest.importorskip("mpmath")
        N = 100
        model = BoxModel(9.1093837015e-31, 3.0, 20e-9)
        spec = box_spectrum(model)
        multiplicity = spec.degeneracy
        probs, _ = _boltzmann_weights(spec.energies, model, multiplicity)
        got = _multinomial_report(N, probs, multiplicity)
        with mp.workdps(40):
            g = [int(x) for x in multiplicity]
            p = [mp.mpf(x) for x in probs.tolist()]
            total = mp.fsum(gc * pc for gc, pc in zip(g, p))
            p = [pc / total for pc in p]
            micro = -N * mp.fsum(gc * pc * mp.log(pc) for gc, pc in zip(g, p))
            log_gamma = mp.fsum(gc * mp.loggamma(N * pc + 1) for gc, pc in zip(g, p))
            e_fact = mp.mpf(0)
            for gc, pc in zip(g, p):
                term, log_fact = (1 - pc) ** N, mp.mpf(0)
                for k in range(1, N + 1):
                    term = term * (N - k + 1) / k * pc / (1 - pc)
                    log_fact += mp.log(k)
                    e_fact += gc * term * log_fact
            expected_logW = mp.loggamma(N + 1) - e_fact
            boltzmann = mp.loggamma(N + 1) - log_gamma
        assert got.total == pytest.approx(float(micro - expected_logW), rel=1e-14)
        assert got.expected_logW == pytest.approx(float(expected_logW), rel=1e-13)
        assert got.boltzmann == pytest.approx(float(boltzmann), rel=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300) | st.sampled_from([5e-324, -1e-310]),
                    min_size=1, max_size=40))
    def test_exact_sums_lose_almost_nothing(self, terms):
        from fractions import Fraction

        from occupancy_entropy.entropy import _exact_sums

        high, low = _exact_sums(np.array(terms))
        exact = sum(map(Fraction, terms))
        error = abs(Fraction(high) + Fraction(low) - exact)
        assert error <= Fraction(2) ** -80 * max(map(abs, terms))


class TestBoltzmannEntropy:
    def test_single_color(self):
        assert boltzmann_entropy((2, 0)) == pytest.approx(0.0, abs=1e-14)

    def test_even_split(self):
        assert boltzmann_entropy((1, 1)) == pytest.approx(math.log(2), abs=1e-14)

    def test_real_valued_means(self):
        # Gamma-extended: ln 2! - 2 ln Gamma(2) = ln 2
        assert boltzmann_entropy((1.0, 1.0)) == pytest.approx(0.693147181, abs=1e-9)
        val = boltzmann_entropy((1.5, 0.5))
        expected = math.lgamma(3.0) - math.lgamma(2.5) - math.lgamma(1.5)
        assert val == pytest.approx(expected, abs=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            boltzmann_entropy((1.0, -0.5))


class TestSandwich:
    def test_worked_example(self):
        res = sandwich_check(MultinomialDist(2, FAIR_TWO))
        assert res.microstate_term == pytest.approx(1.386294361, abs=1e-9)
        assert res.boltzmann == pytest.approx(0.693147181, abs=1e-9)
        assert res.expected_logW == pytest.approx(0.346573590, abs=1e-9)
        assert res.holds

    def test_degenerate(self):
        res = sandwich_check(MultinomialDist(1, OneParticleDistribution([1.0])))
        assert res == (0.0, 0.0, 0.0, True)

    @given(random_multinomials(max_n=30, max_colors=8))
    @settings(max_examples=300, deadline=None)
    def test_always_holds(self, d):
        assert sandwich_check(d).holds


class TestSackurTetrode:
    M_E = 9.11e-31

    def test_zero_crossing(self):
        # choose L so the log argument is exactly exp(-5/2)
        from occupancy_entropy.constants import BOLTZMANN_KB, PLANCK_H

        N, T = 4, 120.0
        thermal = 2 * math.pi * self.M_E * BOLTZMANN_KB * T / PLANCK_H**2
        L = (N * math.exp(-2.5)) ** (1 / 3) / math.sqrt(thermal)
        assert sackur_tetrode(N, self.M_E, T, L) == pytest.approx(0.0, abs=1e-9)

    def test_goes_negative_at_low_temperature(self):
        high = sackur_tetrode(10, self.M_E, 300.0, 20e-9)
        low = sackur_tetrode(10, self.M_E, 300.0 / 10**6, 20e-9)
        assert low < 0 < high

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sackur_tetrode(0, self.M_E, 300.0, 1e-8)
        with pytest.raises(ValueError):
            sackur_tetrode(1, self.M_E, -300.0, 1e-8)


class TestUnits:
    def test_bits_and_kb(self):
        r = multinomial_entropy(MultinomialDist(2, FAIR_TWO))
        bits = r.in_unit("bits")
        assert bits.total == pytest.approx(r.total / math.log(2), abs=1e-12)
        kb = r.in_unit("kB")
        assert kb.total == r.total  # relabelling only
        back = bits.in_unit("nats")
        assert back.total == pytest.approx(r.total, abs=1e-12)

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError):
            EntropyReport(1.0, 0.5, 0.5, 0.6, unit="joules")


def _mp_expected_log_factorial(N, p):
    """E{ln n!} for n ~ Binomial(N, p), summed over every k = 0..N in
    30-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        p = mp.mpf(p)
        term, log_fact, acc = (1 - p) ** N, mp.mpf(0), mp.mpf(0)
        for k in range(1, N + 1):
            term = term * (N - k + 1) / k * p / (1 - p)
            log_fact += mp.log(k)
            acc += term * log_fact
        return acc


def _mp_log_factorial_gap(N, p):
    """E{ln n!} - ln Gamma(N p + 1) for n ~ Binomial(N, p), in 30-digit
    arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        return float(_mp_expected_log_factorial(N, p) - mp.loggamma(N * mp.mpf(p) + 1))


def _mp_hypergeometric_log_expectations(U, u, N):
    """(E{ln n!}, E{ln C(u, n)}) for n ~ Hypergeometric(U, u, N), summed
    over the whole support in 30-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ks = range(max(0, N - (U - u)), min(N, u) + 1)
        pmf = [
            mp.binomial(u, k) * mp.binomial(U - u, N - k) / mp.binomial(U, N)
            for k in ks
        ]
        e_fact = mp.fsum(w * mp.loggamma(k + 1) for w, k in zip(pmf, ks))
        e_binom = mp.fsum(w * mp.log(mp.binomial(u, k)) for w, k in zip(pmf, ks))
        return float(e_fact), float(e_binom)


class TestWindowedExpectation:
    def test_window_matches_full_sum_above_threshold(self):
        # N above the old full-sum cutoff of 1000: the windowed result must
        # agree with a sum over every count
        N, p = 1500, 0.37
        assert _gap(N, p) == pytest.approx(
            _mp_log_factorial_gap(N, p), rel=1e-13
        )

    @pytest.mark.parametrize("N, p", [(1001, 1e-6), (5000, 1e-5), (100_000, 1e-7)])
    def test_poisson_like_binomial_matches_full_sum(self, N, p):
        # a mean +- 12 sigma window dropped most of these expectations
        if N == 1001:
            assert float(_mp_expected_log_factorial(N, p)) == pytest.approx(
                3.4687e-7, rel=1e-4
            )
        got = _gap(N, p)
        assert got == pytest.approx(_mp_log_factorial_gap(N, p), rel=1e-12)

    @pytest.mark.parametrize("N, U", [(300, 1200), (1001, 100_000)])
    def test_window_matches_whole_grid(self, monkeypatch, N, U):
        # small grids skip the window search; both ways give the same sums
        import occupancy_entropy.marginals as marginals

        p = np.array([0.0, 1e-9, 1e-6, 0.003, 0.37, 1.0])
        counts = [0, 3, 10, 300, U]
        runs = []
        for cells in (math.inf, 0):
            monkeypatch.setattr(marginals, "_WHOLE_GRID_CELLS", cells)
            runs.append(
                (_gap(N, p),)
                + _hypergeometric_log_expectations(U, counts, N)
            )
        for whole, windowed in zip(*runs):
            np.testing.assert_allclose(windowed, whole, rtol=1e-14)

    def test_levels_are_evaluated_elementwise(self):
        p = np.array([[0.0, 1e-9], [0.37, 1.0]])
        got = _gap(1500, p)
        assert got.shape == p.shape
        for value, q in zip(got.ravel(), p.ravel()):
            assert value == pytest.approx(
                _gap(1500, q), rel=1e-14
            )

    def test_extreme_probabilities(self):
        # one count: E{ln n!} is ln Gamma(m + 1) itself
        assert _gap(2000, 0.0) == 0.0
        assert _gap(2000, 1.0) == 0.0

    def test_hypergeometric_window_matches_full_sum(self):
        U, u_c, N = 5000, 2100, 1400  # N above the full-sum cutoff
        # 30-digit sums over the whole support: a gammaln reference is
        # itself about 1e-13 off here
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ks = range(max(0, N - (U - u_c)), min(N, u_c) + 1)
            pmf = [
                mp.binomial(u_c, k) * mp.binomial(U - u_c, N - k) / mp.binomial(U, N)
                for k in ks
            ]
            full_sys = float(mp.fsum(w * mp.loggamma(k + 1) for w, k in zip(pmf, ks)))
            full_env = float(
                mp.fsum(w * mp.loggamma(u_c - k + 1) for w, k in zip(pmf, ks))
            )
        e_fact, e_binom = _hypergeometric_log_expectations(U, [u_c], N)
        # the kernel returns E{ln C(u_c, n)}; ln (u_c - n)! = ln u_c! - ln n! - ln C
        win_sys = float(e_fact[0])
        win_env = float(gammaln(u_c + 1.0)) - win_sys - float(e_binom[0])
        assert win_sys == pytest.approx(full_sys, rel=1e-13)
        assert win_env == pytest.approx(full_env, rel=1e-13)

    @pytest.mark.parametrize(
        "U, u, N", [(100_000, 10, 2000), (100_000, 300, 2000), (100_000, 10, 98_000)]
    )
    def test_hypergeometric_small_fraction_matches_full_sum(self, U, u, N):
        # draw counts and U - N both above 1000, with few balls of the colour
        want_fact, want_binom = _mp_hypergeometric_log_expectations(U, u, N)
        e_fact, e_binom = _hypergeometric_log_expectations(U, [u], N)
        assert e_fact[0] == pytest.approx(want_fact, rel=1e-12)
        assert e_binom[0] == pytest.approx(want_binom, rel=1e-12)


def _count_window_reference(n, p, first, last, log_term, max_f):
    """The window search with n KL(k/n || p) from two rel_entr calls per
    row and step, as before the table-driven form."""
    n = float(n)
    p = np.asarray(p, dtype=np.float64)
    if p.size * (n + 1.0) <= marginals._WHOLE_GRID_CELLS:
        return first, last
    mean = n * p
    k0 = np.clip(np.maximum(2.0, np.rint(mean)), first, last)
    with np.errstate(divide="ignore"):
        need = (
            np.log(np.maximum(max_f, math.log(2.0)))
            + 1.0
            - marginals._LOG_REL_TOL
            - log_term(k0)
        )

    def negligible(k):
        a = k / n
        return n * (rel_entr(a, p) + rel_entr(1.0 - a, 1.0 - p)) >= need

    a, b = np.floor(mean), np.full_like(mean, n)
    while np.any(a < b):
        mid = np.floor((a + b) / 2.0)
        ok = negligible(mid + 1.0)
        a, b = np.where(ok, a, mid + 1.0), np.where(ok, mid, b)
    hi = b
    a, b = np.zeros_like(mean), np.ceil(mean)
    while np.any(a < b):
        mid = np.ceil((a + b) / 2.0)
        ok = negligible(mid - 1.0)
        a, b = np.where(ok, mid, a), np.where(ok, b, mid - 1.0)
    return np.maximum(a, first), np.minimum(hi, last)


def _window_means_padded(lo, hi, log_step, *fs):
    """Window means with every row padded to the widest window, in blocks
    of at most _BLOCK_CELLS cells, as before the ragged grid."""
    steps = np.arange(int((hi - lo).max(initial=0.0)) + 1, dtype=np.float64)
    means = [np.empty(lo.size) for _ in fs]
    block = max(1, marginals._BLOCK_CELLS // steps.size)
    for start in range(0, lo.size, block):
        rows = slice(start, start + block)
        k, pmf = marginals._mode_weights(
            lo[rows], hi[rows], steps, lambda k: log_step(rows, k)
        )
        mass = pmf.sum(axis=1)
        for mean, f in zip(means, fs):
            mean[rows] = (pmf * f(rows, k)).sum(axis=1) / mass
    return means


def _binomial_windows(N, p, count_window):
    """(lo, hi, log_step) of the binomial E{ln n!} kernel for the search
    ``count_window``."""
    first, last, log_step = marginals._binomial(N, p)

    def log_term(k):
        return marginals._binomial_log_pmf(N, p, k) + np.log(gammaln(k + 1.0))

    lo, hi = count_window(N, p, first, last, log_term, gammaln(N + 1.0))
    return lo, hi, log_step


def _expected_log_factorial_reference(N, p):
    """E{ln n!} over the rel_entr windows on the padded grid."""
    lo, hi, log_step = _binomial_windows(N, p, _count_window_reference)
    (e_fact,) = _window_means_padded(
        lo, hi, log_step, lambda rows, k: gammaln(k + 1.0)
    )
    return e_fact


def _expected_log_factorial_ragged(N, p):
    """E{ln n!} over the kernel's windows, grouped by width class."""
    lo, hi, log_step = _binomial_windows(N, p, marginals._count_window)
    (e_fact,) = marginals._window_means(
        marginals._width_classes(lo, hi), lo, hi, log_step,
        lambda rows, k: gammaln(k + 1.0),
    )
    return e_fact


def _assert_gap_near(gap, N, p, e_fact):
    """The gap kernel against E{ln n!} - ln Gamma(N p + 1) formed from a
    reference E{ln n!}, within a few eps of the two terms, which cancel."""
    log_gamma = gammaln(N * p + 1.0)
    err = np.abs(gap - (e_fact - log_gamma))
    tol = 1e-15 * (1.0 + e_fact + np.abs(log_gamma))
    assert np.all(err <= tol), (err.max(), gap, e_fact, log_gamma)


def _dilute_counts(N, p):
    """The odds p / (1 - p) and the last counts K of the kernel's dilute
    series for n ~ Binomial(N, p) at means N p < 1."""
    p = np.asarray(p, dtype=np.float64)
    odds = p / (1.0 - p) if N else np.zeros_like(p)
    last = np.searchsorted(marginals._DILUTE_THRESHOLDS, N * odds)
    return odds, np.minimum(N, last)


def _dilute_means(N, p):
    """E{ln n!} of the kernel's dilute series over counts 0..K."""
    return marginals._dilute_log_factorial_means(N, *_dilute_counts(N, p))


def _mp_dilute_expected_log_factorial(N, p, last=None):
    """E{ln n!} for n ~ Binomial(N, p) with N p < 1, in 30-digit arithmetic,
    over the counts 0..last. With no last, from k = 3 on each term is under
    0.9 of the one before, so the sum stops once a term is below 1e-40 of it."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        p = mp.mpf(p)
        term, log_fact, mass, acc = mp.mpf(1), mp.mpf(0), mp.mpf(1), mp.mpf(0)
        for k in range(1, N + 1 if last is None else last + 1):
            term = term * (N - k + 1) / k * p / (1 - p)
            log_fact += mp.log(k)
            mass += term
            acc += term * log_fact
            if last is None and k >= 3 and term * log_fact <= acc * mp.mpf(1e-40):
                break
        return acc / mass


def _dilute_probabilities(N):
    """Probabilities p with N p in [0, 1): 0, subnormal, tiny, about the
    first thresholds, moderate and the largest below 1 / N; any p at N = 0."""
    if N == 0:
        return np.array([0.0, 5e-324, 0.5, 1.0])
    means = np.array([0.0, 1e-18, 2e-18, 3e-18, 1e-12, 2.5e-9, 1e-6, 1e-4, 0.01,
                      0.1, 0.37, 0.5, 0.9, 0.99])
    top = np.nextafter(1.0 / N, 0.0)
    while N * top >= 1.0:
        top = np.nextafter(top, 0.0)
    return np.concatenate(([5e-324, 1e-310], means / N, [top]))


_DILUTE_SIZES = [0, 1, 2, 3, 10, 100, 1000, 10**6]


class TestDiluteSeries:
    @pytest.mark.parametrize("N", _DILUTE_SIZES)
    def test_matches_mpmath(self, N):
        p = _dilute_probabilities(N)
        want = [float(_mp_dilute_expected_log_factorial(N, q)) for q in p.tolist()]
        np.testing.assert_allclose(_dilute_means(N, p), want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("N", _DILUTE_SIZES)
    def test_more_counts_change_nothing(self, N):
        # in 30 digits, eight counts past K move E{ln n!} by under 1e-17 of it
        p = _dilute_probabilities(N)
        _, last = _dilute_counts(N, p)
        for q, k in zip(p.tolist(), last.tolist()):
            kept = _mp_dilute_expected_log_factorial(N, q, k)
            more = _mp_dilute_expected_log_factorial(N, q, min(N, k + 8))
            assert 0 <= more - kept <= 1e-17 * more, (q, k)

    def test_thresholds_rise_past_every_dilute_level(self):
        # N p < 1 makes m' = N p / (1 - p) < N / (N - 1) <= 2 from N = 2 on,
        # which the last threshold exceeds
        t = marginals._DILUTE_THRESHOLDS
        assert t[0] == t[1] == 0.0
        assert np.all(np.diff(t[1:]) > 0.0)
        assert t[-1] > 2.0 > t[-2]

    def test_kernel_gap_is_the_series_less_log_gamma(self):
        N = 1000
        p = _dilute_probabilities(N)
        tau, gap = _binomial_log_factorial_gap(N, p)
        log_gamma = gammaln(N * p + 1.0)
        np.testing.assert_array_equal(gap, _dilute_means(N, p) - log_gamma)
        np.testing.assert_array_equal(tau, marginals._stirling_remainder(N * p))

    @pytest.mark.parametrize("N", _DILUTE_SIZES)
    def test_edge_rows_raise_no_warning(self, N):
        import warnings

        # every dilute probability, beside p = 1 and a full row
        p = np.concatenate((_dilute_probabilities(N), [1.0, 0.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau, gap = _binomial_log_factorial_gap(N, p)
        assert np.all(np.isfinite(tau)) and np.all(np.isfinite(gap))


# tiny, near-1, exactly 0 and exactly 1 probabilities beside uniform ones
_KERNEL_PROBS = st.one_of(
    st.sampled_from([0.0, 1.0, 1e-300, 1e-12, 1.0 - 1e-12, 1.0 - 2.0**-53, 0.5]),
    st.floats(1e-300, 1e-6),
    st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
    st.floats(0.0, 1.0),
)


class TestWindowSearchLimit:
    # the search bisects counts in float64, exact while a + b <= 2**53
    def test_searches_up_to_2_52_trials(self):
        N = marginals._SEARCHED_COUNTS
        lo, hi, _ = _binomial_windows(N, np.array([0.3, 0.7]), marginals._count_window)
        assert np.all(lo < N * np.array([0.3, 0.7])) and np.all(N * np.array([0.3, 0.7]) < hi)

    def test_refuses_past_2_52_trials(self):
        N = marginals._SEARCHED_COUNTS + 1
        with pytest.raises(CapExceededError, match=f"over {N} trials .* {N - 1} ") as err:
            _binomial_windows(N, np.array([0.3, 0.7]), marginals._count_window)
        assert (err.value.required, err.value.cap) == (N, N - 1)

    def test_one_count_supports_are_not_refused(self):
        N = 2**62
        lo, hi, _ = _binomial_windows(N, np.array([0.0, 1.0]), marginals._count_window)
        assert lo.tolist() == hi.tolist() == [0.0, float(N)]


class TestTableDrivenRaggedKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        N=st.integers(0, 3000),
        p=st.lists(_KERNEL_PROBS, min_size=1, max_size=8),
        table=st.booleans(),
    )
    def test_matches_rel_entr_windows_and_padded_grid(self, N, p, table):
        from unittest import mock

        p = np.array(p)
        if table:
            # at least N + 1 rows: the count part is read from its table
            p = np.resize(p, N + 1)
        with mock.patch.object(marginals, "_WHOLE_GRID_CELLS", 0):
            want_lo, want_hi, _ = _binomial_windows(N, p, _count_window_reference)
            lo, hi, _ = _binomial_windows(N, p, marginals._count_window)
            want = _expected_log_factorial_reference(N, p)
            got = _expected_log_factorial_ragged(N, p)
            gap = _gap(N, p)
        assert np.array_equal(lo, want_lo)
        assert np.array_equal(hi, want_hi)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        _assert_gap_near(gap, N, p, want)

    @pytest.mark.parametrize("N, rows", [(2000, 3), (2000, 2001)])
    def test_subnormal_probability_window_holds_the_reference(self, N, rows):
        # k / (n p) overflows at subnormal p, so the rel_entr search calls
        # every count past 0 negligible; the table form keeps a few more
        p = np.resize(np.array([5e-324, 1e-310, 0.4]), rows)
        want_lo, want_hi, _ = _binomial_windows(N, p, _count_window_reference)
        lo, hi, _ = _binomial_windows(N, p, marginals._count_window)
        assert np.all(lo <= want_lo) and np.all(hi >= want_hi)
        want = _expected_log_factorial_reference(N, p)
        np.testing.assert_array_equal(_expected_log_factorial_ragged(N, p), want)
        # (n - m) / m would overflow at these p: the gap stays finite
        _assert_gap_near(_gap(N, p), N, p, want)

    @pytest.mark.parametrize("N, rows", [(10**6, 4), (5000, 5001)])
    def test_converged_rows_query_only_the_support(self, N, rows):
        # p = 0 and p = 1 rows converge at once and still query mid -+ 1
        # while the other rows search; per query (4 rows) and from the
        # table (N + 1 rows) the counts queried stay in 0..N
        import warnings
        from unittest import mock

        from scipy.special import xlogy

        queried = []

        def spy(x, y):
            queried.append(np.ravel(x))
            return xlogy(x, y)

        p = np.resize(np.array([1.0, 0.3, 1.0 - 1e-9, 0.0]), rows)
        with mock.patch.object(marginals, "xlogy", spy), warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi, _ = _binomial_windows(N, p, marginals._count_window)
        seen = np.concatenate(queried)
        assert seen.min() >= 0.0 and seen.max() <= N
        want_lo, want_hi, _ = _binomial_windows(N, p, _count_window_reference)
        np.testing.assert_array_equal(lo, want_lo)
        np.testing.assert_array_equal(hi, want_hi)

    def test_one_count_rows_add_no_search_step(self):
        # a p = 0 row (support {0}) beside (0.3, 0.7) at N = 10^6: its window
        # is [0, 0], the others' windows are unchanged, and the search makes
        # the same number of queries as without it
        from unittest import mock

        from scipy.special import xlogy

        def windows(p):
            calls = []

            def spy(x, y):
                calls.append(1)
                return xlogy(x, y)

            with mock.patch.object(marginals, "xlogy", spy):
                lo, hi, _ = _binomial_windows(10**6, np.array(p), marginals._count_window)
            return lo, hi, len(calls)

        lo, hi, queries = windows([0.3, 0.7])
        lo0, hi0, queries0 = windows([0.3, 0.7, 0.0])
        np.testing.assert_array_equal(lo0, np.append(lo, 0.0))
        np.testing.assert_array_equal(hi0, np.append(hi, 0.0))
        assert queries0 == queries
        want_lo, want_hi, _ = _binomial_windows(
            10**6, np.array([0.3, 0.7, 0.0]), _count_window_reference
        )
        np.testing.assert_array_equal(lo0, want_lo)
        np.testing.assert_array_equal(hi0, want_hi)

    def test_width_classes_partition_the_rows(self):
        rng = np.random.default_rng(3)
        lo = rng.integers(0, 50, 5000).astype(np.float64)
        hi = lo + rng.integers(0, 300, 5000)
        classes = marginals._width_classes(lo, hi)
        rows = np.sort(np.concatenate([r for r, _ in classes]))
        np.testing.assert_array_equal(rows, np.arange(lo.size))
        width = hi - lo + 1.0
        for r, widest in classes:
            assert widest == width[r].max()
            # every row of a group is wider than half the group's widest
            assert np.all(2.0 * width[r] > widest) or widest == 1

    @pytest.mark.parametrize("N", [0, 40, 2000, 98_000])
    def test_hypergeometric_kernel_matches_the_references(self, N):
        # thousands of distinct colour counts, so the windows are searched
        # and grouped by width class
        U = 100_000
        u = np.unique(np.random.default_rng(N).integers(0, U + 1, 6000)).astype(float)
        first, last, log_step = marginals._hypergeometric(U, u, N)

        def log_term(k):
            smaller_f = np.minimum(gammaln(k + 1.0), marginals._log_choose(u, k))
            return marginals._hypergeometric_log_pmf(U, u, N, k) + np.log(
                smaller_f.clip(0.0)
            )

        with np.errstate(divide="ignore"):
            args = (N, u / U, first, last, log_term, gammaln(u + 1.0))
            want_lo, want_hi = _count_window_reference(*args)
            lo, hi = marginals._count_window(*args)
        np.testing.assert_array_equal(lo, want_lo)
        np.testing.assert_array_equal(hi, want_hi)
        fs = (
            lambda rows, k: gammaln(k + 1.0),
            lambda rows, k: marginals._log_choose(u[rows, None], k),
        )
        want = _window_means_padded(lo, hi, log_step, *fs)
        got = marginals._hypergeometric_log_expectations(U, u.astype(np.int64), N)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize(
        "temperature, side, N",
        [(300.0, 20e-9, 1000), (3.0, 20e-9, 100), (300.0, 60e-9, 100)],
    )
    def test_gas_workload_boxes_match_mpmath(self, temperature, side, N):
        # the benchmark's three gas boxes, per distinct level, against
        # 30-digit sums over the same level probabilities: E{ln n!} below one
        # mean count, the gap E{ln n!} - ln Gamma(N q + 1) from one on, and
        # the sum of the gaps over the states
        from occupancy_entropy.physics import BoxModel, _boltzmann_weights, box_spectrum

        mp = pytest.importorskip("mpmath")
        model = BoxModel(9.1093837015e-31, temperature, side)
        spec = box_spectrum(model)
        multiplicity = spec.degeneracy
        probs, _ = _boltzmann_weights(spec.energies, model, multiplicity)
        tau, got = _binomial_log_factorial_gap(N, probs)
        np.testing.assert_array_equal(tau, marginals._stirling_remainder(N * probs))
        e_fact, gaps = [], []
        with mp.workdps(30):
            for q in probs.tolist():
                q = mp.mpf(q)
                term, log_fact, acc = (1 - q) ** N, mp.mpf(0), mp.mpf(0)
                for k in range(1, N + 1):
                    term = term * (N - k + 1) / k * q / (1 - q)
                    log_fact += mp.log(k)
                    acc += term * log_fact
                    # past twice the mean the terms fall geometrically
                    if k > 2 * N * q + 2 and term * log_fact < acc * mp.mpf(1e-30):
                        break
                e_fact.append(float(acc))
                gaps.append(acc - mp.loggamma(N * q + 1))
            total = float(mp.fsum(g * w for g, w in zip(multiplicity.tolist(), gaps)))
        # below one mean count the kernel sums the dilute series for E{ln n!},
        # then subtracts ln Gamma(m + 1)
        small = N * probs < 1.0
        means = _dilute_means(N, probs[small])
        np.testing.assert_allclose(means, np.array(e_fact)[small], rtol=1e-15, atol=0)
        np.testing.assert_array_equal(got[small], means - gammaln(N * probs[small] + 1.0))
        # from one count on, each cell's tau(n) - tau(m) is a difference of
        # two numbers of about 1/2 ln 2 pi m, so a gap near 0 (a level that
        # holds nearly every particle: 2.7e-5 in the cold box) is only good
        # to a few eps of tau(m), 1.3e-16 there
        gaps = np.array([float(g) for g in gaps])
        err = np.abs(got - gaps)[~small]
        assert np.all(err <= 1e-13 * np.abs(gaps[~small]) + 2e-16 * tau[~small]), err
        assert float((multiplicity * got).sum()) == pytest.approx(total, rel=1e-13)


def _chain_rule_entropy(d):
    """The split-box entropy by the chain rule over the left-side count b,
    which the occupancy vector fixes:
    H = H(Bin(N, f)) + sum_b P(b) [H(Mult(b, left)) + H(Mult(N - b, right))],
    summed by math.fsum."""
    pb = d.split_probabilities()
    terms = [-float(x) for x in xlogy(pb, pb)]
    for b, q in enumerate(pb):
        if q > 0.0:
            left = multinomial_entropy(MultinomialDist(b, d.left_dist)).total
            right = multinomial_entropy(MultinomialDist(d.N - b, d.right_dist)).total
            terms.append(float(q) * (left + right))
    return math.fsum(terms) + 0.0


def _paper_half_box():
    """One-particle law of the paper's 10 nm half box (electron, 300 K)."""
    from occupancy_entropy.physics import BoxModel, boltzmann_distribution

    return boltzmann_distribution(BoxModel(9.11e-31, 300.0, 10e-9, 1))[0]


class TestSzilardSplitEntropy:
    def test_single_particle_value(self):
        left = OneParticleDistribution([0.7, 0.3])
        d = SzilardSplitDist(1, 0.5, left, left)
        expected = math.log(2) + left.entropy()
        assert entropy_by_enumeration(d) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("fraction", [0.5, 0.3])
    @pytest.mark.parametrize(
        "left, right",
        [
            ([0.7, 0.3], [0.7, 0.3]),
            ([0.5, 0.3, 0.2, 0.0], [0.6, 0.4]),
            ([0.0, 1.0], [0.25, 0.0, 0.25, 0.5]),
        ],
    )
    def test_chain_rule_matches_enumeration(self, N, fraction, left, right):
        # the chain rule and the one multinomial both give the enumerated
        # entropy
        d = SzilardSplitDist(
            N, fraction, OneParticleDistribution(left), OneParticleDistribution(right)
        )
        want = entropy_by_enumeration(d)
        assert _chain_rule_entropy(d) == pytest.approx(want, abs=1e-12)
        assert szilard_split_entropy(d) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("N", [2, 3, 10, 40, 100, 200])
    def test_one_multinomial_matches_the_chain_rule_on_the_paper_box(self, N):
        half = _paper_half_box()
        d = SzilardSplitDist(N, 0.5, half, half)
        assert szilard_split_entropy(d) == pytest.approx(
            _chain_rule_entropy(d), rel=1e-13
        )

    def test_split_law_is_one_multinomial(self):
        # pmf, log-pmf and the batch agree with the chain-rule law
        # P(b) P(left | b) P(right | N - b) on every occupancy vector
        left = OneParticleDistribution([0.5, 0.3, 0.2, 0.0])
        right = OneParticleDistribution([0.6, 0.4])
        d = SzilardSplitDist(4, 0.3, left, right)
        counts = support_matrix(4, 6)
        pb = d.split_probabilities()
        want = []
        for row in counts:
            b = int(row[:4].sum())
            want.append(
                math.log(pb[b])
                + MultinomialDist(b, left).log_pmf(row[:4])
                + MultinomialDist(4 - b, right).log_pmf(row[4:])
            )
        want = np.array(want)
        np.testing.assert_allclose(d.log_pmf_batch(counts), want, rtol=1e-13, atol=1e-13)
        for row, w in zip(counts, want):
            assert d.log_pmf(row) == pytest.approx(w, rel=1e-13, abs=1e-13)
            assert d.pmf(row) == pytest.approx(math.exp(w), rel=1e-12, abs=0.0)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


# urn rows of one or more universe sizes U, and the draw count N: sizes on
# both sides of the 4096-count tables and past 2**53; urns whose levels x
# (N + 1) fall on either side of the whole-grid rule (1 and 2 levels kept
# whole, 3 searched, at N = 2000) and whose windows are padded alone (40
# levels); N = 0; U = N; one U twice, as a ladder with a repeated scale has
_ROW_U_CASES = {
    "table_edges": ([[k, 2 * k, 3 * k, 4 * k] for k in (1, 100, 409, 410, 1000, 10**5)], 10),
    "whole_grid_per_u": ([[701, 701, 701], [300, 600, 1200], [7, 7, 2087]], 2000),
    "padding_per_u": ([list(range(50, 90)), [1000, 2000, 3000] + [0] * 37], 500),
    "past_2_53": ([[2**60, 12345, 1], [3, 4, 5], [2**53 + 1, 2**40, 7]], 12),
    "no_draws": ([[3, 4], [0, 5], [10, 10]], 0),
    "u_equals_n": ([[2, 3], [1, 4], [10, 20]], 5),
    "repeated_u": ([[4, 6, 10], [4, 6, 10], [8, 12, 20]], 10),
}


class TestPerRowUniverseSizes:
    # the MVHG kernels given one U per urn row give each row the bits of a
    # call on that row alone, as the converge ladder needs: the whole-grid
    # and padding rules look at the levels of one U at a time
    @pytest.mark.parametrize("urns, N", _ROW_U_CASES.values(), ids=_ROW_U_CASES)
    def test_expectations_and_entropies_per_row(self, urns, N):
        urns = np.array(urns, dtype=np.int64)
        U = urns.sum(axis=1)
        batch = _hypergeometric_log_expectations(U, urns, N)
        entropies = _mvhg_entropies(U, urns, N)
        log_choose = marginals._count_log_choose(U, N)
        for r, row in enumerate(urns):
            size = int(U[r])
            alone = _hypergeometric_log_expectations(size, row[None], N)
            assert [_bits(b[r]) for b in batch] == [_bits(a[0]) for a in alone]
            alone = _mvhg_entropies(size, row[None], N)
            assert [_bits(e[r]) for e in entropies] == [_bits(a[0]) for a in alone]
            assert _bits(log_choose[r]) == _bits(marginals._count_log_choose(size, N))

    @pytest.mark.parametrize(
        "case", ["table_edges", "past_2_53", "no_draws", "u_equals_n", "repeated_u"])
    def test_log_pmf_grid_per_row(self, case):
        urns, N = _ROW_U_CASES[case]
        urns = np.array(urns, dtype=np.int64)
        U, counts = urns.sum(axis=1), support_matrix(N, urns.shape[1])
        grid = _mvhg_log_pmf_grid(urns, counts, U, N)
        for r, row in enumerate(urns):
            assert _bits(grid[r]) == _bits(_mvhg_log_pmf_grid(row[None], counts, int(U[r]), N))
