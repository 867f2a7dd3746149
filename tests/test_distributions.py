import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occupancy_entropy import distributions
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
    SzilardSplitDist,
    convergence_scan,
    marginal,
    sample,
    tv_distance,
)


def uniform(n):
    return OneParticleDistribution(np.full(n, 1.0 / n))


# --- scalar reference samplers -------------------------------------------------
#
# The per-draw and per-row loops the array samplers replaced. They define the
# seeded streams: the array kernels must return the same rows bit for bit.


def reference_multinomial(rng, probs, draws, count):
    """Categorical inversion by searchsorted, N consecutive uniforms per row."""
    out = np.zeros((count, probs.size), dtype=np.int64)
    if draws == 0 or count == 0:
        return out
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random((count, draws)), side="right")
    for s in range(count):
        out[s] = np.bincount(idx[s], minlength=probs.size)
    return out


def reference_mvhg(rng, urn, draws, count):
    """Sequential urn depletion, one Python step per colour of every draw."""
    out = np.zeros((count, urn.num_colors), dtype=np.int64)
    if draws == 0 or count == 0:
        return out
    for s, row in enumerate(rng.random((count, draws))):
        rem = list(urn.counts)
        left = urn.total
        for t in range(draws):
            r = row[t] * left
            acc = 0
            for c in range(urn.num_colors):
                acc += rem[c]
                if r < acc:
                    break
            out[s, c] += 1
            rem[c] -= 1
            left -= 1
    return out


def reference_szilard(rng, d, count):
    """All split counts b first, then per row the left side from the next b
    uniforms and the right side from the N - b after them."""
    b_cdf = np.cumsum(d.split_probabilities())
    b_cdf[-1] = 1.0
    bs = np.searchsorted(b_cdf, rng.random(count), side="right")
    k = d.left_dist.num_colors
    out = np.zeros((count, d.num_colors), dtype=np.int64)
    for s in range(count):
        b = int(bs[s])
        out[s, :k] = reference_multinomial(rng, d.left_dist.probs, b, 1)
        out[s, k:] = reference_multinomial(rng, d.right_dist.probs, d.N - b, 1)
    return out


def multinomial(probs, draws):
    return MultinomialDist(draws, OneParticleDistribution(probs))


def drawn(rng, d, count):
    """The rows of sample(d, count), drawn by d's sampler from ``rng`` in
    place of the seeded generator; needs d.N > 0."""
    out = np.zeros((count, d.num_colors), dtype=np.int64)
    distributions._SAMPLERS[type(d)](rng, d, out)
    return out


class FixedUniforms:
    """A stand-in generator whose random() hands out given values in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.used = 0

    def random(self, shape=None, out=None):
        # as Generator.random: a shape, or an ``out`` array filled in place
        if (shape is None) == (out is None):
            raise TypeError("give exactly one of shape and out")
        if out is not None:
            assert out.dtype == np.float64 and out.flags.c_contiguous
            shape = out.shape
        n = int(np.prod(shape))
        values = self.values[self.used : self.used + n].reshape(shape)
        self.used += n
        if out is None:
            return values
        out[...] = values
        return out


@st.composite
def probs_with_zeros(draw, max_colors=12):
    n = draw(st.integers(min_value=1, max_value=max_colors))
    weight = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1.0))
    w = draw(st.lists(weight, min_size=n, max_size=n).filter(lambda ws: sum(ws) > 0))
    return OneParticleDistribution.from_weights(w)


@st.composite
def small_probs(draw, max_colors=5):
    n = draw(st.integers(min_value=1, max_value=max_colors))
    w = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        ).filter(lambda ws: sum(ws) > 1e-6)
    )
    return OneParticleDistribution.from_weights(w)


@st.composite
def small_urns(draw, max_colors=5, max_total=16):
    n = draw(st.integers(min_value=1, max_value=max_colors))
    counts = draw(
        st.lists(st.integers(min_value=0, max_value=8), min_size=n, max_size=n).filter(
            lambda cs: 0 < sum(cs) <= max_total
        )
    )
    return OccupancyVector(tuple(counts))


def assert_scalar_has_the_batch_bits(d, rows):
    scalar = np.array([d.log_pmf(r) for r in rows.tolist()], dtype=np.float64)
    assert np.array_equal(scalar.view(np.int64), d.log_pmf_batch(rows).view(np.int64))


class TestOneParticleDistribution:
    def test_validates_simplex(self):
        with pytest.raises(ValueError):
            OneParticleDistribution([0.5, 0.6])
        with pytest.raises(ValueError):
            OneParticleDistribution([1.1, -0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            OneParticleDistribution([bad, 1.0])
        with pytest.raises(ValueError):
            OneParticleDistribution.from_weights([bad, 1.0])

    def test_from_weights_normalizes(self):
        p = OneParticleDistribution.from_weights([2, 2, 4])
        assert p.probs == pytest.approx([0.25, 0.25, 0.5])

    def test_empirical_is_the_urn_fractions(self):
        p = OneParticleDistribution.empirical_from_urn(OccupancyVector((3, 1)))
        assert p.probs == pytest.approx([0.75, 0.25])

    def test_entropy(self):
        assert uniform(2).entropy() == pytest.approx(math.log(2), abs=1e-14)
        assert OneParticleDistribution([1.0, 0.0]).entropy() == 0.0


class TestMultinomialPmf:
    def test_fair_coin(self):
        d = MultinomialDist(2, uniform(2))
        assert d.pmf((1, 1)) == pytest.approx(0.5, abs=1e-14)
        assert d.pmf((2, 0)) == pytest.approx(0.25, abs=1e-14)

    def test_three_colors(self):
        d = MultinomialDist(3, OneParticleDistribution([0.2, 0.3, 0.5]))
        assert d.pmf((1, 1, 1)) == pytest.approx(0.18, abs=1e-14)

    def test_off_shell_is_zero(self):
        d = MultinomialDist(2, uniform(2))
        assert d.pmf((1, 0)) == 0.0
        assert d.pmf((3, -1)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MultinomialDist(2, uniform(2)).pmf((1, 1, 0))

    def test_zero_prob_color_forces_zero_count(self):
        d = MultinomialDist(2, OneParticleDistribution([1.0, 0.0]))
        assert d.pmf((2, 0)) == pytest.approx(1.0, abs=1e-14)
        assert d.pmf((1, 1)) == 0.0

    @given(small_probs(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=150, deadline=None)
    def test_normalization(self, p, n):
        d = MultinomialDist(n, p)
        total = sum(d.pmf(v.counts) for v in enumerate_occupancies(n, p.num_colors))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_scalar_has_the_batch_bits(self):
        d = MultinomialDist(4, OneParticleDistribution([0.1, 0.0, 0.9]))
        assert_scalar_has_the_batch_bits(d, support_matrix(4, 3))


class TestLogPmfBatchIsRowIndependent:
    @pytest.mark.parametrize(
        "d",
        [
            *(
                MultinomialDist(3 * k, OneParticleDistribution.from_weights(range(1, k + 1)))
                for k in (3, 8, 12, 40)
            ),
            SzilardSplitDist(
                30,
                0.3,
                OneParticleDistribution.from_weights(range(1, 6)),
                OneParticleDistribution.from_weights(range(1, 8)),
            ),
            MvhgDist(OccupancyVector(tuple(range(40))), 150),
            MvhgDist(OccupancyVector((3000, 2000, 5000)), 4500),
        ],
        ids=["3_colours", "8_colours", "12_colours", "40_colours", "szilard", "mvhg_40_colours",
             "mvhg_past_the_table"],
    )
    def test_a_row_has_its_bits_in_any_batch(self, d):
        # each of the first 7 rows alone, among 7 rows and among 1,007
        rows = sample(d, 1007, seed=3)
        alone = np.concatenate([d.log_pmf_batch(rows[i : i + 1]) for i in range(7)])
        for batch in (rows[:7], rows):
            assert np.array_equal(d.log_pmf_batch(batch)[:7].view(np.int64), alone.view(np.int64))


class TestMvhgPmf:
    def test_small_urn(self):
        d = MvhgDist(OccupancyVector((2, 2)), 2)
        assert d.pmf((1, 1)) == pytest.approx(2 / 3, abs=1e-14)
        assert d.pmf((2, 0)) == pytest.approx(1 / 6, abs=1e-14)

    def test_negative_entry_gives_zero(self):
        d = MvhgDist(OccupancyVector((2, 2)), 2)
        assert d.pmf((3, -1)) == 0.0

    def test_count_above_urn_gives_zero(self):
        d = MvhgDist(OccupancyVector((2, 2)), 3)
        assert d.pmf((3, 0)) == 0.0

    def test_draw_count_bounds(self):
        with pytest.raises(ValueError):
            MvhgDist(OccupancyVector((2, 2)), 5)
        with pytest.raises(ValueError):
            MvhgDist(OccupancyVector((2, 2)), -1)

    def test_urn_total_past_64_bits_is_refused(self):
        assert MvhgDist(OccupancyVector((2**63 - 2, 1)), 3).urn.total == 2**63 - 1
        with pytest.raises(ValueError, match="urn total must be an integer of at most 64 bits"):
            MvhgDist(OccupancyVector((2**62, 2**62)), 3)

    @given(small_urns(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_normalization_and_symmetry(self, urn, data):
        n = data.draw(st.integers(min_value=0, max_value=urn.total))
        d, rows = MvhgDist(urn, n), support_matrix(n, urn.num_colors)
        pmf = np.exp(d.log_pmf_batch(rows))
        # system/environment exchange leaves the weight unchanged; a row
        # with a count above its colour mirrors to a negative one
        mirror = MvhgDist(urn, urn.total - n).log_pmf_batch(np.array(urn.counts) - rows)
        assert np.exp(mirror) == pytest.approx(pmf, abs=1e-15)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-10)

    def test_batch_matches_scalar(self):
        d = MvhgDist(OccupancyVector((3, 0, 2)), 3)
        mat = support_matrix(3, 3)
        np.testing.assert_allclose(
            np.exp(d.log_pmf_batch(mat)),
            [d.pmf(tuple(r)) for r in mat],
            atol=1e-15,
        )

    def test_scalar_and_mirror_have_the_batch_bits_on_the_small_sweep(self):
        # every urn of 1-4 colours and at most 10 balls, every draw count and
        # every system row: the rows of acceptance criterion 2. Exchanging
        # system and environment (n -> u - n, N -> U - N) keeps every bit of
        # the batch. The scalar is the batch's one-row view, checked on the
        # first, middle and last rows, as is the multinomial limit of each
        # urn's colour fractions, at N = U
        def few(rows):
            return rows[[0, len(rows) // 2, -1]]

        for c in range(1, 5):
            for total in range(11):
                for counts in support_matrix(total, c).tolist():
                    urn = OccupancyVector(tuple(counts))
                    if total:
                        p = OneParticleDistribution.empirical_from_urn(urn)
                        assert_scalar_has_the_batch_bits(
                            MultinomialDist(total, p), few(support_matrix(total, c))
                        )
                    for n in range(total + 1):
                        d, rows = MvhgDist(urn, n), support_matrix(n, c)
                        assert_scalar_has_the_batch_bits(d, few(rows))
                        mirror = MvhgDist(urn, total - n).log_pmf_batch(np.array(counts) - rows)
                        assert np.array_equal(
                            mirror.view(np.int64), d.log_pmf_batch(rows).view(np.int64)
                        )

    @pytest.mark.parametrize(
        "counts, draws",
        [
            ((7, 0, 12, 3, 9, 30, 1, 5, 16, 2, 8, 11), 40),
            (tuple(range(40)), 150),
            ((3000, 2000, 5000), 4500),
        ],
        ids=["12_colours", "40_colours", "past_the_table"],
    )
    def test_scalar_has_the_batch_bits_on_sampled_rows(self, counts, draws):
        # the urn, and the multinomial limit of its colour fractions
        urn = OccupancyVector(counts)
        limit = MultinomialDist(draws, OneParticleDistribution.empirical_from_urn(urn))
        # two impossible rows of N draws: one count above its colour (and in
        # a colour of probability 0 when the second holds no balls), and
        # one negative count
        impossible = np.zeros((2, len(counts)), dtype=np.int64)
        impossible[:, :2] = [[counts[0] + 1, draws - counts[0] - 1], [-1, draws + 1]]
        for d in (MvhgDist(urn, draws), limit):
            rows = sample(d, 20, seed=5)
            assert_scalar_has_the_batch_bits(d, np.concatenate((rows, impossible)))
        assert np.all(MvhgDist(urn, draws).log_pmf_batch(impossible) == -np.inf)
        assert limit.log_pmf_batch(impossible)[1] == -np.inf


class TestMarginal:
    def test_multinomial_binomial(self):
        d = MultinomialDist(2, uniform(2))
        np.testing.assert_allclose(marginal(d, 0), [0.25, 0.5, 0.25], atol=1e-14)

    def test_mvhg_hypergeometric(self):
        d = MvhgDist(OccupancyVector((2, 2)), 2)
        np.testing.assert_allclose(marginal(d, 0), [1 / 6, 2 / 3, 1 / 6], atol=1e-14)

    def test_empty_color(self):
        d = MvhgDist(OccupancyVector((5, 0)), 3)
        m = marginal(d, 1)
        np.testing.assert_allclose(m, [1.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_index_error(self):
        with pytest.raises(IndexError):
            marginal(MultinomialDist(2, uniform(2)), 2)

    @given(small_urns(max_colors=4, max_total=12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_joint_marginalization(self, urn, data):
        n = data.draw(st.integers(min_value=0, max_value=urn.total))
        color = data.draw(st.integers(min_value=0, max_value=urn.num_colors - 1))
        d = MvhgDist(urn, n)
        m = marginal(d, color)
        assert float(m.sum()) == pytest.approx(1.0, abs=1e-12)
        exact = np.zeros(n + 1)
        for v in enumerate_occupancies(n, urn.num_colors):
            exact[v[color]] += d.pmf(v.counts)
        np.testing.assert_allclose(m, exact, atol=1e-12)

    @pytest.mark.parametrize(
        "d, color",
        [
            (MultinomialDist(10**4, OneParticleDistribution([0.3, 0.7])), 0),
            (MultinomialDist(10**4, OneParticleDistribution([0.3, 0.7])), 1),
            (MultinomialDist(10**5, OneParticleDistribution([0.3, 0.7])), 0),
            (MultinomialDist(10**5, OneParticleDistribution([0.3, 0.7])), 1),
            (MvhgDist(OccupancyVector((50_000, 50_000)), 50_000), 0),
        ],
        ids=["bin_1e4_0.3", "bin_1e4_0.7", "bin_1e5_0.3", "bin_1e5_0.7", "hyp_5e4"],
    )
    def test_sums_to_one_at_large_n(self, d, color):
        # gammaln-built pmfs were 3.5e-12 to 2.9e-10 off 1 here
        assert abs(math.fsum(marginal(d, color)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("p", [0.3, 1e-7])
    def test_binomial_matches_mpmath_at_large_n(self, p):
        # gammaln-built pmfs were up to 1.3e-10 relative off here
        mp = pytest.importorskip("mpmath")
        N = 10**5
        m = marginal(MultinomialDist(N, OneParticleDistribution([p, 1.0 - p])), 0)
        mode = math.floor((N + 1) * p)
        with mp.workdps(40):
            q = mp.mpf(p)
            for k in {0, 1, 2, mode, mode - 1000, mode + 1000}:
                if not 0 <= k <= N:
                    continue
                exact = mp.binomial(N, k) * q**k * (1 - q) ** (N - k)
                if float(exact) == 0.0:
                    assert m[k] == 0.0
                else:
                    assert abs(m[k] / exact - 1) <= 1e-12, k

    @given(
        st.integers(min_value=0, max_value=12),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_binomial_matches_fractions(self, N, p):
        q = Fraction(p)
        exact = [
            float(math.comb(N, k) * q**k * (1 - q) ** (N - k)) for k in range(N + 1)
        ]
        got = marginal(MultinomialDist(N, OneParticleDistribution([p, 1.0 - p])), 0)
        # an entry exp(-L) built in the log domain is off by about L ulps,
        # within 1e-12 relative for every entry above the smallest normal
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=np.finfo(float).tiny)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_hypergeometric_matches_fractions(self, data):
        U = data.draw(st.integers(min_value=0, max_value=12))
        u = data.draw(st.integers(min_value=0, max_value=U))
        N = data.draw(st.integers(min_value=0, max_value=U))
        exact = [
            float(Fraction(math.comb(u, k) * math.comb(U - u, N - k), math.comb(U, N)))
            for k in range(N + 1)
        ]
        got = marginal(MvhgDist(OccupancyVector((u, U - u)), N), 0)
        np.testing.assert_allclose(got, exact, rtol=1e-13, atol=0.0)


class TestSampling:
    @pytest.mark.parametrize(
        "d",
        [
            MultinomialDist(4, OneParticleDistribution([0.2, 0.0, 0.8])),
            MultinomialDist(0, uniform(3)),
            MvhgDist(OccupancyVector((5, 3, 2)), 4),
            MvhgDist(OccupancyVector((5, 3, 2)), 0),
            MvhgDist(OccupancyVector(()), 0),
            SzilardSplitDist(5, 0.3, uniform(2), uniform(3)),
            SzilardSplitDist(0, 0.3, uniform(2), uniform(3)),
        ],
        ids=["multinomial", "multinomial_N0", "mvhg", "mvhg_N0", "mvhg_no_colours",
             "szilard", "szilard_N0"],
    )
    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_an_int64_count_matrix(self, d, count):
        rows = sample(d, count, seed=4)
        assert rows.dtype == np.int64
        assert rows.shape == (count, d.num_colors)
        assert (rows.sum(axis=1) == d.N).all()
        if d.N == 0:
            assert not rows.any()

    def test_refuses_a_negative_count_and_an_unknown_law(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample(MultinomialDist(2, uniform(2)), -1)
        with pytest.raises(TypeError, match="cannot sample from OneParticleDistribution"):
            sample(uniform(2), 3)

    @pytest.mark.parametrize(
        "d",
        [MultinomialDist(4, uniform(3)), MvhgDist(OccupancyVector((3, 3, 3)), 4),
         MultinomialDist(1, uniform(4))],
        ids=["multinomial", "mvhg", "more_colours_than_draws"],
    )
    def test_refuses_more_cells_than_the_cap_before_drawing(self, monkeypatch, d):
        # count * max(N, colours) cells: 3 rows of 4 fit a cap of 12, 4 rows do not
        monkeypatch.setattr(distributions, "_DRAW_CELLS", 12)
        assert sample(d, 3, seed=1).shape == (3, d.num_colors)
        with pytest.raises(CapExceededError, match="4 x 4 = 16 cells, over the cap of 12") as err:
            sample(d, 4, seed=1)
        assert (err.value.required, err.value.cap) == (16, 12)

    def test_exhaustive_draw(self):
        d = MvhgDist(OccupancyVector((3, 1)), 4)
        assert sample(d, 25, seed=5).tolist() == [[3, 1]] * 25

    def test_deterministic_given_seed(self):
        d = MvhgDist(OccupancyVector((5, 3, 2)), 4)
        a = sample(d, 50, seed=99)
        assert np.array_equal(a, sample(d, 50, seed=99))
        assert not np.array_equal(a, sample(d, 50, seed=100))

    def test_chunk_size_does_not_change_samples(self, monkeypatch):
        # PCG64 fills arrays in order, so rows drawn chunk by chunk are the
        # rows drawn in one block
        dists = [
            MultinomialDist(5, OneParticleDistribution([0.2, 0.3, 0.5])),
            MultinomialDist(9, OneParticleDistribution([0.6, 0.4])),
            MvhgDist(OccupancyVector((5, 3, 2)), 4),
            MvhgDist(OccupancyVector((6, 7)), 11),
            MvhgDist(OccupancyVector(tuple((7 * c) % 13 for c in range(40))), 9),
            SzilardSplitDist(5, 0.3, uniform(2), uniform(3)),
            SzilardSplitDist(
                12, 0.6, OneParticleDistribution([0.5, 0.0, 0.5]), uniform(4)
            ),
        ]
        default = distributions._CHUNK_DRAWS
        for d in dists:
            rows = {}
            for chunk in (7, default):
                monkeypatch.setattr(distributions, "_CHUNK_DRAWS", chunk)
                rows[chunk] = sample(d, 40, seed=21)
            assert np.array_equal(rows[7], rows[default])

    @pytest.mark.parametrize("seed", [0, 21, 2**40 + 3])
    def test_pcg64_stream_splits_at_any_point(self, seed):
        # random(a) then random(b) is random(a + b) split at a; chunked rows
        # and the Szilard block (split uniforms, then b left and N - b right
        # per row) rely on this
        for a, b in [(0, 0), (0, 5), (1, 0), (1, 1), (3, 17), (1000, 1)]:
            rng = np.random.default_rng(seed)
            first, second = rng.random(a), rng.random(b)
            whole = np.random.default_rng(seed).random(a + b)
            assert np.array_equal(first, whole[:a])
            assert np.array_equal(second, whole[a:])
        rng = np.random.default_rng(seed)
        block = rng.random((6, 4))
        assert np.array_equal(
            block.ravel(), np.random.default_rng(seed).random(24)
        )

    def test_multinomial_mean_within_3_sigma(self):
        d = MultinomialDist(10**4, uniform(2))
        mean0 = sample(d, 10**4, seed=11)[:, 0].mean()
        # binomial moments: mean 5000, sd 50; sample-mean sd 0.5
        assert abs(mean0 - 5000.0) <= 3 * 50.0 / math.sqrt(10**4)

    @staticmethod
    def assert_pmf_within_4_sigma(d, n_samples, seed):
        distinct, freq = np.unique(sample(d, n_samples, seed=seed), axis=0, return_counts=True)
        observed = dict(zip(map(tuple, distinct.tolist()), freq.tolist()))
        for v in enumerate_occupancies(d.N, d.num_colors):
            p = d.pmf(v.counts)
            sigma = math.sqrt(p * (1 - p) / n_samples)
            assert abs(observed.get(v.counts, 0) / n_samples - p) <= 4 * sigma + 1e-12

    def test_empirical_pmf_within_4_sigma(self):
        self.assert_pmf_within_4_sigma(MvhgDist(OccupancyVector((4, 3)), 3), 10**5, 3)

    def test_million_sample_pmf_within_4_sigma(self):
        d = MultinomialDist(3, OneParticleDistribution([0.2, 0.3, 0.5]))
        self.assert_pmf_within_4_sigma(d, 10**6, 19)

    def test_multinomial_sampler_never_picks_zero_prob_color(self):
        d = MultinomialDist(5, OneParticleDistribution([0.5, 0.0, 0.5]))
        assert not sample(d, 500, seed=1)[:, 1].any()

    def test_szilard_sampling_on_shell(self):
        d = SzilardSplitDist(3, 0.5, uniform(2), uniform(2))
        assert (sample(d, 200, seed=8).sum(axis=1) == 3).all()


class TestSamplersMatchScalarReferences:
    @given(
        st.lists(
            st.one_of(st.just(0), st.integers(min_value=0, max_value=12)),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=2**32),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_mvhg(self, counts, rows, seed, data):
        urn = OccupancyVector(tuple(counts))
        draws = data.draw(st.integers(min_value=0, max_value=urn.total))
        got = sample(MvhgDist(urn, draws), rows, seed)
        want = reference_mvhg(np.random.default_rng(seed), urn, draws, rows)
        assert np.array_equal(got, want)

    @given(
        probs_with_zeros(),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=120, deadline=None)
    def test_multinomial(self, p, draws, rows, seed):
        got = sample(MultinomialDist(draws, p), rows, seed)
        want = reference_multinomial(np.random.default_rng(seed), p.probs, draws, rows)
        assert np.array_equal(got, want)

    @given(
        st.integers(min_value=0, max_value=300),
        st.floats(min_value=0.001, max_value=0.999),
        probs_with_zeros(max_colors=6),
        probs_with_zeros(max_colors=6),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=120, deadline=None)
    def test_szilard(self, N, fraction, left, right, rows, seed):
        d = SzilardSplitDist(N, fraction, left, right)
        got = sample(d, rows, seed)
        want = reference_szilard(np.random.default_rng(seed), d, rows)
        assert np.array_equal(got, want)

    def test_exact_ties_follow_the_references(self):
        # uniforms on a grid of eighths land exactly on cumulative counts and
        # cdf edges; a tie goes to the next colour, past zero-count colours
        grid = np.random.default_rng(3).integers(0, 8, size=4000) / 8.0
        urn = OccupancyVector((0, 2, 0, 2, 4, 0))
        got = drawn(FixedUniforms(grid), MvhgDist(urn, 8), 50)
        want = reference_mvhg(FixedUniforms(grid), urn, 8, 50)
        assert np.array_equal(got, want)
        probs = np.array([0.25, 0.0, 0.25, 0.5])
        got = drawn(FixedUniforms(grid), multinomial(probs, 8), 50)
        want = reference_multinomial(FixedUniforms(grid), probs, 8, 50)
        assert np.array_equal(got, want)
        d = SzilardSplitDist(8, 0.5, OneParticleDistribution(probs), uniform(4))
        got = drawn(FixedUniforms(grid), d, 50)
        want = reference_szilard(FixedUniforms(grid), d, 50)
        assert np.array_equal(got, want)


class TestMvhgUrnKernel:
    # the targets and the per-colour state are held in the narrowest signed
    # type that holds U; these totals sit on either side of each type's edge,
    # with the last colour empty or nearly so, so that the state reaches U
    @pytest.mark.parametrize("total", [127, 128, 32_767, 32_768, 2**31 - 1, 2**31])
    @pytest.mark.parametrize("tail", [(0,), (1,), (2, 0)])
    def test_matches_reference_at_integer_type_edges(self, total, tail):
        urn = OccupancyVector((total - sum(tail) - 3, 3, *tail))
        draws = 6 if total < 2**15 else 3
        got = drawn(np.random.default_rng(17), MvhgDist(urn, draws), 40)
        want = reference_mvhg(np.random.default_rng(17), urn, draws, 40)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "counts, draws, rows",
        [
            ((5, 3, 2), 4, 130),  # int8: 128-row blocks of 4-row slices
            ((5, 3, 2), 4, 127),
            ((6, 7), 1, 257),  # one draw: 256-row blocks of 16-row slices
            ((200, 5, 60), 5, 53),  # int16: 51-row blocks of 3-row slices
            ((200, 5, 60), 3, 87),  # 85-row blocks of 5-row slices
            ((200, 5, 60), 260, 3),  # one-row blocks, past the block budget
            ((40_000, 30_000, 30_000), 4, 35),  # int32: 32-row blocks of 4-row slices
        ],
    )
    def test_matches_reference_across_slices_and_blocks(self, monkeypatch, counts, draws, rows):
        # with 64-cell chunks a block is 512 bytes and a slice 16 uniforms
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", 64)
        urn = OccupancyVector(counts)
        got = drawn(np.random.default_rng(8), MvhgDist(urn, draws), rows)
        want = reference_mvhg(np.random.default_rng(8), urn, draws, rows)
        assert np.array_equal(got, want)

    def test_never_writes_into_the_generators_arrays(self, monkeypatch):
        # FixedUniforms hands out views of one array; read-only views make
        # any write raise, and the values must come back as they went in
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", 64)
        values = np.random.default_rng(4).random(4000)
        values.setflags(write=False)
        urn = OccupancyVector((9, 4, 0, 7))
        got = drawn(FixedUniforms(values), MvhgDist(urn, 6), 150)
        want = reference_mvhg(FixedUniforms(values.copy()), urn, 6, 150)
        assert np.array_equal(got, want)
        assert np.array_equal(values, np.random.default_rng(4).random(4000))


class TestMvhgChunkMemory:
    # a block's integer targets take at most _CHUNK_DRAWS * 8 bytes, and a
    # slice's uniforms and their product _CHUNK_DRAWS // 4 cells each; the
    # targets are freed before the next block's slices are drawn. The per-
    # colour state of a block (two (k - 1, rows) arrays) is within the slice
    # budget, also when draws < 4 (k - 1), as in the last two shapes. 128 KiB
    # covers numpy's 64 KiB ufunc buffer (the scales broadcast over a slice)
    # and the per-draw rows
    @pytest.mark.parametrize(
        "counts, draws, rows",
        [
            ((300, 200, 500), 500, 2000),  # the sample benchmark's: one int16 block
            ((300, 200, 500), 500, 5000),  # three int16 blocks
            ((20, 15, 25), 10, 20000),  # the mc-entropy op's: one int8 block
            ((20, 15, 25), 10, 600_000),  # three int8 blocks
            ((40,) * 40, 30, 20000),  # 40 colours, more than draws / 4
            ((10,) * 200, 20, 5000),  # 200 colours, ten times the draws
        ],
    )
    def test_peak_within_a_block_and_a_slice_plus_output(self, counts, draws, rows):
        urn = OccupancyVector(counts)
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            out = drawn(rng, MvhgDist(urn, draws), rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = distributions._CHUNK_DRAWS * 8
        uniform_slice = distributions._CHUNK_DRAWS // 4 * 8
        assert peak <= block + 2 * uniform_slice + out.nbytes + 2**17


class TestColumnPieces:
    # a row longer than a piece is drawn in column pieces of the same stream;
    # with 64-cell chunks a with-replacement piece holds 64 uniforms and an
    # urn piece 16, so these rows span one to five pieces, and a last piece
    # may be short
    @pytest.mark.parametrize("draws", [1, 63, 64, 65, 200, 257])
    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_multinomial(self, monkeypatch, draws, rows):
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", 64)
        probs = np.array([0.3, 0.0, 0.2, 0.5])
        got = drawn(np.random.default_rng(6), multinomial(probs, draws), rows)
        want = reference_multinomial(np.random.default_rng(6), probs, draws, rows)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("N", [1, 63, 64, 65, 200, 257])
    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_szilard(self, monkeypatch, N, rows):
        # the split b falls before, inside and after each piece of a row
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", 64)
        d = SzilardSplitDist(
            N, 0.4, OneParticleDistribution([0.5, 0.0, 0.5]), OneParticleDistribution([0.2, 0.8])
        )
        got = drawn(np.random.default_rng(7), d, rows)
        want = reference_szilard(np.random.default_rng(7), d, rows)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("draws", [15, 16, 17, 40, 100])
    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_mvhg(self, monkeypatch, draws, rows):
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", 64)
        urn = OccupancyVector((60, 0, 25, 40))
        got = drawn(np.random.default_rng(8), MvhgDist(urn, draws), rows)
        want = reference_mvhg(np.random.default_rng(8), urn, draws, rows)
        assert np.array_equal(got, want)

    def test_exact_ties_across_pieces(self, monkeypatch):
        # the tie grid of TestSamplersMatchScalarReferences, with every row of
        # 8 uniforms split into pieces of 4 (with replacement) and 1 (urn)
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", 4)
        grid = np.random.default_rng(3).integers(0, 8, size=4000) / 8.0
        urn = OccupancyVector((0, 2, 0, 2, 4, 0))
        got = drawn(FixedUniforms(grid), MvhgDist(urn, 8), 50)
        assert np.array_equal(got, reference_mvhg(FixedUniforms(grid), urn, 8, 50))
        probs = np.array([0.25, 0.0, 0.25, 0.5])
        got = drawn(FixedUniforms(grid), multinomial(probs, 8), 50)
        assert np.array_equal(got, reference_multinomial(FixedUniforms(grid), probs, 8, 50))
        d = SzilardSplitDist(8, 0.5, OneParticleDistribution(probs), uniform(4))
        got = drawn(FixedUniforms(grid), d, 50)
        assert np.array_equal(got, reference_szilard(FixedUniforms(grid), d, 50))


DEFAULT_CHUNK = distributions._CHUNK_DRAWS


class TestByteSumCounts:
    # each colour is counted as the byte sums of its comparison mask, in a
    # uint32 per row; rows around 2**16 cells hold counts past 16 bits, and
    # under 2**15-cell chunks a 65,537-cell row is three column pieces
    WIDTHS = [1, 7, 65_535, 65_536, 65_537]
    TIES = np.random.default_rng(3).integers(0, 8, size=3 * 65_537) / 8.0

    @pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 2**15])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_multinomial_matches_reference(self, monkeypatch, chunk, width):
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", chunk)
        probs = np.array([0.3, 0.0, 0.2, 0.5, 0.0])
        got = drawn(np.random.default_rng(9), multinomial(probs, width), 3)
        want = reference_multinomial(np.random.default_rng(9), probs, width, 3)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 2**15])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_eighths_grid_ties(self, monkeypatch, chunk, width):
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", chunk)
        probs = np.array([0.25, 0.0, 0.25, 0.5])
        got = drawn(FixedUniforms(self.TIES), multinomial(probs, width), 3)
        want = reference_multinomial(FixedUniforms(self.TIES), probs, width, 3)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 2**15])
    def test_one_colour_takes_whole_rows(self, monkeypatch, chunk):
        # every uniform is 0.0, so the first colour of positive probability
        # takes all 65,537 draws of each row: one byte sum of a full mask
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", chunk)
        probs = np.array([0.0, 0.0, 0.5, 0.5])
        got = drawn(FixedUniforms(np.zeros(2 * 65_537)), multinomial(probs, 65_537), 2)
        assert got.tolist() == [[0, 0, 65_537, 0]] * 2


class TestSzilardSideMask:
    # each side is counted through the comparison mask AND-ed with the row's
    # side mask; split uniforms of 0.0 and of the largest double below 1 give
    # b = 0 and b = N (P(b = N) = 2**-20 at N = 20, f = 1/2), and 8-cell
    # chunks put each row of 20 uniforms in three column pieces
    @pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 8])
    def test_empty_and_full_left_sides(self, monkeypatch, chunk):
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", chunk)
        N = 20
        d = SzilardSplitDist(N, 0.5, OneParticleDistribution([0.5, 0.0, 0.5]), uniform(3))
        top = np.nextafter(1.0, 0.0)
        splits = [0.0, top, 0.0, top, 0.5]
        values = np.concatenate((splits, np.random.default_rng(4).random(len(splits) * N)))
        got = drawn(FixedUniforms(values), d, len(splits))
        assert np.array_equal(got, reference_szilard(FixedUniforms(values), d, len(splits)))
        assert got[:4, :3].sum(axis=1).tolist() == [0, N, 0, N]
        assert (got.sum(axis=1) == N).all()

    @pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 8])
    def test_eighths_grid_ties(self, monkeypatch, chunk):
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", chunk)
        grid = np.random.default_rng(5).integers(0, 8, size=40 * 21) / 8.0
        d = SzilardSplitDist(20, 0.5, OneParticleDistribution([0.25, 0.0, 0.75]), uniform(4))
        got = drawn(FixedUniforms(grid), d, 40)
        assert np.array_equal(got, reference_szilard(FixedUniforms(grid), d, 40))


class TestAdvanceRule:
    # each uniform is one 64-bit PCG64 output, so a copy of the seeded
    # generator advanced past the uniforms of rows 0..r-1 draws rows r.. (for
    # the Szilard split, the split of row s is uniform s and its colours
    # start at uniform count + s N); under 16-cell chunks the rows of 50
    # draws are column pieces
    SEED, COUNT, N = 2**40 + 7, 9, 50

    def _advanced(self, steps):
        return np.random.Generator(np.random.PCG64(self.SEED).advance(steps))

    @pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 16])
    @pytest.mark.parametrize("r", [0, 1, 4, 9])
    def test_with_replacement_rows(self, monkeypatch, chunk, r):
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", chunk)
        probs = np.array([0.3, 0.0, 0.2, 0.5])
        d = multinomial(probs, self.N)
        rows = drawn(np.random.default_rng(self.SEED), d, self.COUNT)
        tail = drawn(self._advanced(r * self.N), d, self.COUNT - r)
        assert np.array_equal(rows[r:], tail)

    @pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 16])
    @pytest.mark.parametrize("r", [0, 1, 4, 9])
    def test_urn_rows(self, monkeypatch, chunk, r):
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", chunk)
        urn = OccupancyVector((60, 0, 25, 40))
        d = MvhgDist(urn, self.N)
        rows = drawn(np.random.default_rng(self.SEED), d, self.COUNT)
        tail = drawn(self._advanced(r * self.N), d, self.COUNT - r)
        assert np.array_equal(rows[r:], tail)

    @pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 16])
    @pytest.mark.parametrize("r", [0, 1, 4, 9])
    def test_szilard_rows(self, monkeypatch, chunk, r):
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", chunk)
        d = SzilardSplitDist(
            self.N, 0.4, OneParticleDistribution([0.5, 0.0, 0.5]), uniform(3))
        rows = sample(d, self.COUNT, self.SEED)
        split_cdf = np.cumsum(d.split_probabilities())
        split_cdf[-1] = 1.0
        splits = self._advanced(r).random(self.COUNT - r)
        colours = self._advanced(self.COUNT + r * self.N)
        for row, b in zip(rows[r:], np.searchsorted(split_cdf, splits, side="right")):
            left = reference_multinomial(colours, d.left_dist.probs, int(b), 1)[0]
            right = reference_multinomial(colours, d.right_dist.probs, self.N - int(b), 1)[0]
            assert row.tolist() == [*left, *right]


def _traced_peak(call):
    """The result of call() and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


class TestWithReplacementChunkMemory:
    # a piece of c cells takes 8c bytes of uniforms and a c-cell bool mask,
    # both reused; the Szilard sampler adds its c-cell side mask, which it
    # negates in place for the right side, and the cumulative split law, N + 1
    # doubles (the law itself is built before tracing starts). The Szilard
    # bound also holds the 8c bytes of a float copy of a piece, which the
    # sampler no longer makes (test_szilard_peak_holds_no_float_copy). Rows longer than a chunk are
    # drawn in column pieces: at 2**12-cell chunks a 10**5-draw row is 25
    # pieces, and a whole row of uniforms (800 kB) would exceed the bound.
    # 128 KiB covers numpy's ufunc buffers and the per-row sums
    @pytest.mark.parametrize(
        "chunk, draws, rows",
        [
            (2**18, 500, 2000),  # the sample benchmark's: four chunks of whole rows
            (2**12, 10**5, 3),  # rows of 25 pieces
        ],
    )
    def test_multinomial_peak(self, monkeypatch, chunk, draws, rows):
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", chunk)
        probs = np.array([0.3, 0.2, 0.5])
        rng = np.random.default_rng(5)
        out, peak = _traced_peak(
            lambda: drawn(rng, multinomial(probs, draws), rows))
        assert peak <= chunk * (8 + 1) + out.nbytes + 2**17

    @pytest.mark.parametrize(
        "chunk, N, rows",
        [
            (2**18, 50, 5000),  # the sample benchmark's: one chunk of whole rows
            (2**18, 500, 2000),  # four chunks
            (2**12, 10**5, 3),  # rows of 25 pieces
        ],
    )
    def test_szilard_peak(self, monkeypatch, chunk, N, rows):
        monkeypatch.setattr(distributions, "_CHUNK_DRAWS", chunk)
        probs = OneParticleDistribution([0.4, 0.25, 0.15, 0.12, 0.08])
        d = SzilardSplitDist(N, 0.48, probs, probs)
        law = d.split_probabilities()
        monkeypatch.setattr(SzilardSplitDist, "split_probabilities", lambda self: law)
        rng = np.random.default_rng(5)
        out, peak = _traced_peak(lambda: drawn(rng, d, rows))
        assert peak <= law.nbytes + chunk * (8 + 1 + 1 + 8) + out.nbytes + 2**17

    @pytest.mark.parametrize("N, rows", [(50, 5000), (500, 2000)])
    def test_szilard_peak_holds_no_float_copy(self, monkeypatch, N, rows):
        # at 2**18-cell chunks a float copy of a piece is 2 MiB, eight times
        # the 256 KiB this bound leaves over the uniforms and the two masks
        # for the split uniforms and numpy's buffers
        probs = OneParticleDistribution([0.4, 0.25, 0.15, 0.12, 0.08])
        d = SzilardSplitDist(N, 0.48, probs, probs)
        law = d.split_probabilities()
        monkeypatch.setattr(SzilardSplitDist, "split_probabilities", lambda self: law)
        rng = np.random.default_rng(5)
        out, peak = _traced_peak(lambda: drawn(rng, d, rows))
        chunk = distributions._CHUNK_DRAWS
        assert peak <= law.nbytes + chunk * (8 + 1 + 1) + out.nbytes + 2**18


class TestSzilardSplit:
    def test_single_particle_half_mass_per_side(self):
        d = SzilardSplitDist(1, 0.5, uniform(2), uniform(3))
        left = sum(
            d.pmf(v.counts)
            for v in enumerate_occupancies(1, 5)
            if sum(v.counts[:2]) == 1
        )
        assert left == pytest.approx(0.5, abs=1e-12)

    def test_binomial_split_n2(self):
        d = SzilardSplitDist(2, 0.5, uniform(2), uniform(2))
        by_b = {0: 0.0, 1: 0.0, 2: 0.0}
        for v in enumerate_occupancies(2, 4):
            by_b[sum(v.counts[:2])] += d.pmf(v.counts)
        assert by_b[0] == pytest.approx(0.25, abs=1e-12)
        assert by_b[1] == pytest.approx(0.5, abs=1e-12)
        assert by_b[2] == pytest.approx(0.25, abs=1e-12)

    def test_normalizes(self):
        d = SzilardSplitDist(3, 0.3, uniform(2), uniform(2))
        total = sum(d.pmf(v.counts) for v in enumerate_occupancies(3, 4))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            SzilardSplitDist(1, 0.0, uniform(2), uniform(2))
        with pytest.raises(ValueError):
            SzilardSplitDist(1, 1.0, uniform(2), uniform(2))


class TestTvDistance:
    def test_identical(self):
        d = MvhgDist(OccupancyVector((2, 2)), 2)
        assert tv_distance(d, d) == 0.0

    def test_small_urn_vs_limit(self):
        d1 = MvhgDist(OccupancyVector((2, 2)), 2)
        d2 = MultinomialDist(2, uniform(2))
        assert tv_distance(d1, d2) == pytest.approx(1 / 6, abs=1e-12)

    def test_larger_urn(self):
        d1 = MvhgDist(OccupancyVector((20, 20)), 2)
        d2 = MultinomialDist(2, uniform(2))
        assert tv_distance(d1, d2) == pytest.approx(1 / 78, abs=1e-9)

    def test_mismatched_inputs(self):
        with pytest.raises(ValueError):
            tv_distance(MultinomialDist(2, uniform(2)), MultinomialDist(2, uniform(3)))
        with pytest.raises(ValueError):
            tv_distance(MultinomialDist(2, uniform(2)), MultinomialDist(3, uniform(2)))

    def test_cap(self):
        d1 = MultinomialDist(60, uniform(8))
        with pytest.raises(CapExceededError, match="Monte Carlo"):
            tv_distance(d1, d1, cap=1000)


class TestConvergenceScan:
    def test_reference_values(self):
        rows = convergence_scan(OccupancyVector((1, 1)), 2, [2, 20])
        assert rows[0][0] == 4
        assert rows[0][1] == pytest.approx(1 / 6, abs=1e-12)
        assert rows[1][0] == 40
        assert rows[1][1] == pytest.approx(1 / 78, abs=1e-9)

    def test_single_draw_always_matches(self):
        rows = convergence_scan(OccupancyVector((1, 1)), 1, [1, 3, 10])
        assert all(tv == pytest.approx(0.0, abs=1e-14) for _, tv in rows)

    def test_strictly_decreasing_for_two_draws(self):
        rows = convergence_scan(OccupancyVector((1, 2, 1)), 2, [2, 4, 8, 16])
        tvs = [tv for _, tv in rows]
        assert all(b < a for a, b in zip(tvs, tvs[1:]))

    def test_halving_ratio_at_large_scale(self):
        rows = convergence_scan(OccupancyVector((1, 2, 1)), 3, [64, 128, 256])
        r1 = rows[1][1] / rows[0][1]
        r2 = rows[2][1] / rows[1][1]
        assert r1 == pytest.approx(0.5, abs=0.01)
        assert r2 == pytest.approx(0.5, abs=0.005)

    def test_undersized_urn_rejected(self):
        with pytest.raises(ValueError):
            convergence_scan(OccupancyVector((1, 1)), 3, [1])

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            convergence_scan(OccupancyVector((1, 1)), 1, [0])
