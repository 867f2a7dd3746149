import math
import re

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from occupancy_entropy.combinatorics import CapExceededError
from occupancy_entropy.constants import BOLTZMANN_KB, LN2
from occupancy_entropy.distributions import (
    MultinomialDist,
    OneParticleDistribution,
    SzilardSplitDist,
)
from occupancy_entropy.entropy import entropy_by_enumeration, multinomial_entropy
from occupancy_entropy.physics import (
    BoxModel,
    DEFAULT_TRUNCATION,
    SpectrumTruncation,
    _axis_cutoff,
    boltzmann_distribution,
    box_spectrum,
    ideal_gas_entropy,
    szilard_insertion,
)

ELECTRON_MASS = 9.11e-31
ELECTRON_20NM_1D = BoxModel(ELECTRON_MASS, 300.0, 20e-9, dimensions=1)


def box_cutoff(model):
    alpha = model.energy_unit / (BOLTZMANN_KB * model.temperature)
    return _axis_cutoff(alpha, DEFAULT_TRUNCATION, model.dimensions)[0]


def box_state_square_sums(model):
    """q1^2 + q2^2 + q3^2 of every state of the kept cube [1, cutoff]^3,
    ascending: the state list the level spectrum is checked against."""
    axis = np.arange(1, box_cutoff(model) + 1, dtype=np.int64)
    qx, qy, qz = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.sort((qx**2 + qy**2 + qz**2).ravel())


def per_state_reference(model, N):
    """Exact gas entropy terms from the ungrouped per-state spectrum, with
    E{ln n!} = sum_k ln k P(n >= k) from scipy's binomial survival function."""
    energies = model.energy_unit * box_state_square_sums(model).astype(np.float64)
    kT = BOLTZMANN_KB * model.temperature
    weights = np.exp(-(energies - energies[0]) / kT)
    p = weights / weights.sum()
    k = np.arange(2, N + 1)
    e_log_fact = sum(
        float((stats.binom.sf(k[None, :] - 1, N, p[i : i + 1024, None]) @ np.log(k)).sum())
        for i in range(0, p.size, 1024)
    )
    micro = N * float(-(p * np.log(p)).sum())
    expected_logW = float(gammaln(N + 1.0)) - e_log_fact
    mean = N * p
    return {
        "microstate_term": micro,
        "expected_logW": expected_logW,
        "total": micro - expected_logW,
        "boltzmann": float(gammaln(mean.sum() + 1.0) - gammaln(mean + 1.0).sum()),
        "Z": float(weights.sum()) * math.exp(-energies[0] / kT),
    }


class TestBoxModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoxModel(0.0, 300.0, 1e-8)
        with pytest.raises(ValueError):
            BoxModel(ELECTRON_MASS, 300.0, 1e-8, dimensions=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        for args in (
            (bad, 300.0, 1e-8),
            (ELECTRON_MASS, bad, 1e-8),
            (ELECTRON_MASS, 300.0, bad),
        ):
            with pytest.raises(ValueError, match="finite"):
                BoxModel(*args)

    def test_energy_unit(self):
        e0 = ELECTRON_20NM_1D.energy_unit
        assert e0 == pytest.approx(1.50604e-22, rel=1e-4)
        # thermally shallow level spacing: many states occupied at 300 K
        assert e0 / BOLTZMANN_KB == pytest.approx(10.913, rel=1e-3)
        assert e0 / BOLTZMANN_KB < 300.0


class TestBoxSpectrum:
    def test_one_d_square_law(self):
        spec = box_spectrum(ELECTRON_20NM_1D)
        assert spec.energies[0] == ELECTRON_20NM_1D.energy_unit
        assert spec.degeneracy.dtype == np.int64
        np.testing.assert_array_equal(spec.degeneracy, 1)
        assert len(spec) == spec.energies.size
        ratios = spec.energies[:4] / spec.energies[0]
        np.testing.assert_allclose(ratios, [1.0, 4.0, 9.0, 16.0], rtol=1e-12)

    def test_three_d_ground_state(self):
        model = BoxModel(ELECTRON_MASS, 300.0, 20e-9, dimensions=3)
        spec = box_spectrum(model)
        assert spec.degeneracy[0] == 1
        assert spec.energies[0] == pytest.approx(3 * model.energy_unit, rel=1e-12)

    def test_ascending_levels_with_degeneracies(self):
        model = BoxModel(ELECTRON_MASS, 300.0, 20e-9, dimensions=3)
        spec = box_spectrum(model)
        assert np.all(np.diff(spec.energies) > 0)
        # the permutations of (1,1,2) make one level of three states, and
        # (1,2,3) one of six
        assert spec.energies[1] == 6 * model.energy_unit
        assert spec.degeneracy[1] == 3
        level_14 = np.flatnonzero(spec.energies == 14 * model.energy_unit)
        assert spec.degeneracy[level_14].tolist() == [6]
        assert len(spec) == int(spec.degeneracy.sum()) == box_cutoff(model) ** 3

    def test_200nm_box_as_levels(self):
        # 293^3 states, whose quantum numbers alone would take 604 MB
        model = BoxModel(ELECTRON_MASS, 300.0, 200e-9, dimensions=3)
        spec = box_spectrum(model, SpectrumTruncation(1e-14, max_states=10**8))
        assert spec.energies.size == spec.degeneracy.size == 185_803
        assert len(spec) == 293**3 == 25_153_757

    def test_tail_bound_achieved(self):
        trunc = SpectrumTruncation(relative_tail_bound=1e-10)
        spec = box_spectrum(ELECTRON_20NM_1D, trunc)
        assert 0 < spec.tail_bound_achieved <= 1e-10

    def test_max_states_diagnostic(self):
        with pytest.raises(CapExceededError, match="max_states"):
            box_spectrum(ELECTRON_20NM_1D, SpectrumTruncation(1e-14, max_states=3))

    @pytest.mark.parametrize(
        "side, temperature, dimensions, cap",
        [
            (20e-9, 300.0, 1, 3),
            (1e-6, 300.0, 3, 1000),
            (1e-6, 300.0, 3, 4_000_000),
            (100e-9, 3.0, 3, 1),
            (1e-4, 300.0, 1, 10),
        ],
    )
    def test_refusal_states_what_the_bound_needs(self, side, temperature, dimensions, cap):
        # the required size is the cube of the cutoff an uncapped search
        # stops at, not the first cube over the cap
        model = BoxModel(ELECTRON_MASS, temperature, side, dimensions=dimensions)
        alpha = model.energy_unit / (BOLTZMANN_KB * temperature)
        cutoff, _ = _axis_cutoff(alpha, SpectrumTruncation(1e-14, 10**30), dimensions)
        with pytest.raises(CapExceededError) as err:
            box_spectrum(model, SpectrumTruncation(1e-14, max_states=cap))
        assert err.value.required == cutoff**dimensions
        assert err.value.cap == cap
        if cutoff**dimensions <= 4_000_000:
            wide = SpectrumTruncation(1e-14, max_states=err.value.required)
            assert len(box_spectrum(model, wide)) == err.value.required

    @pytest.mark.parametrize(
        "side, temperature, dimensions",
        [(20e-9, 300.0, 1), (1e-6, 300.0, 1), (20e-9, 300.0, 3), (100e-9, 3.0, 3), (60e-9, 300.0, 3)],
    )
    def test_refuses_exactly_the_boxes_over_the_cap(self, side, temperature, dimensions):
        # the refusal that stops short of the cap never refuses a box the
        # cap holds, at an exact cube of a cutoff or past it
        model = BoxModel(ELECTRON_MASS, temperature, side, dimensions=dimensions)
        states = box_cutoff(model) ** dimensions
        for cap in (states, states + 1, 2 * states, 10**400):
            assert len(box_spectrum(model, SpectrumTruncation(1e-14, max_states=cap))) == states
        with pytest.raises(CapExceededError) as err:
            box_spectrum(model, SpectrumTruncation(1e-14, max_states=states - 1))
        assert (err.value.required, err.value.cap) == (states, states - 1)

    @pytest.mark.parametrize("bound", [1e-14, 0.5])
    @pytest.mark.parametrize("dimensions", [1, 3])
    def test_refusal_far_past_the_cap_does_not_walk_to_it(self, dimensions, bound):
        # a walk to a cap of 2^63 - 1 states would take 2^63 - 1 steps in 1-D
        hot = BoxModel(5e-324, 1e300, 1e30, dimensions=dimensions)
        cap = 2**63 - 1
        with pytest.raises(CapExceededError, match=f"over max_states={cap} ") as err:
            box_spectrum(hot, SpectrumTruncation(bound, max_states=cap))
        assert err.value.cap == cap < err.value.required

    def test_refusal_far_past_the_cap_bounds_the_sum_by_its_integral(self, monkeypatch):
        # with no exact chunks the retained sum is bounded below by its
        # integral; on a 0.1 mm box that lands on the same cutoff
        import occupancy_entropy.physics as physics

        model = BoxModel(ELECTRON_MASS, 300.0, 1e-4, dimensions=3)
        alpha = model.energy_unit / (BOLTZMANN_KB * 300.0)
        cutoff, _ = _axis_cutoff(alpha, SpectrumTruncation(1e-14, 10**30), 3)
        monkeypatch.setattr(physics, "_EXACT_CHUNKS", 0)
        with pytest.raises(CapExceededError) as err:
            _axis_cutoff(alpha, SpectrumTruncation(1e-14, max_states=1000), 3)
        assert err.value.required == cutoff**3



class TestBoltzmannDistribution:
    def test_full_box_reference_entropy(self):
        p, z = boltzmann_distribution(ELECTRON_20NM_1D)
        assert p.entropy() == pytest.approx(1.988, abs=0.01)
        assert z == pytest.approx(4.1465, abs=1e-3)

    def test_half_box_reference_entropy(self):
        p, _ = boltzmann_distribution(ELECTRON_20NM_1D.with_side(10e-9))
        assert p.entropy() == pytest.approx(1.243, abs=0.01)

    def test_cold_limit_concentrates_on_ground_state(self):
        cold = BoxModel(ELECTRON_MASS, 300.0 * 1e-6, 20e-9, dimensions=1)
        p, z = boltzmann_distribution(cold)
        assert p.probs[0] == pytest.approx(1.0, abs=1e-12)
        assert p.entropy() == pytest.approx(0.0, abs=1e-9)

    def test_three_d_entropy_is_triple_one_d(self):
        m1 = BoxModel(ELECTRON_MASS, 300.0, 20e-9, dimensions=1)
        m3 = BoxModel(ELECTRON_MASS, 300.0, 20e-9, dimensions=3)
        p1, z1 = boltzmann_distribution(m1)
        p3, z3 = boltzmann_distribution(m3)
        assert p3.entropy() == pytest.approx(3 * p1.entropy(), abs=1e-9)
        assert z3 == pytest.approx(z1**3, rel=1e-12)

    def test_partition_sum_stable_under_tighter_truncation(self):
        loose = boltzmann_distribution(ELECTRON_20NM_1D, SpectrumTruncation(1e-8))[1]
        tight = boltzmann_distribution(ELECTRON_20NM_1D, SpectrumTruncation(1e-14))[1]
        assert abs(tight - loose) / tight < 1e-8


class TestIdealGasEntropy:
    def test_single_particle(self):
        model = BoxModel(ELECTRON_MASS, 300.0, 20e-9, dimensions=3)
        res = ideal_gas_entropy(model, 1)
        p, _ = boltzmann_distribution(model)
        assert res.exact.expected_logW == pytest.approx(0.0, abs=1e-12)
        assert res.exact.total == pytest.approx(p.entropy(), abs=1e-10)
        assert res.exact.unit == "kB"

    def test_low_temperature_exact_stays_positive(self):
        model = BoxModel(ELECTRON_MASS, 3.0, 20e-9, dimensions=3)
        res = ideal_gas_entropy(model, 50)
        assert res.sackur_tetrode < 0
        assert res.exact.total >= 0

    def test_one_d_rejected(self):
        with pytest.raises(ValueError):
            ideal_gas_entropy(ELECTRON_20NM_1D, 5)

    def test_budget(self):
        model = BoxModel(ELECTRON_MASS, 300.0, 20e-9, dimensions=3)
        with pytest.raises(CapExceededError, match="budget"):
            ideal_gas_entropy(model, 100, budget=1000)

    def test_budget_counts_levels_times_window(self):
        # 3.2 M states x 1001 counts used to exceed the default budget; the
        # 44,806 levels need a window of a few counts each
        model = BoxModel(ELECTRON_MASS, 300.0, 100e-9, dimensions=3)
        res = ideal_gas_entropy(model, 1000)
        assert res.states_retained == 147**3
        assert res.exact.total > 0
        with pytest.raises(CapExceededError, match=r"needs \d+ cells, over the budget of 1000\b"):
            ideal_gas_entropy(model, 1000, budget=1000)

    def test_budget_counts_the_ragged_cells(self):
        # the windows are padded per width class, not all to the widest
        model = BoxModel(ELECTRON_MASS, 300.0, 60e-9, dimensions=3)
        with pytest.raises(CapExceededError) as err:
            ideal_gas_entropy(model, 100, budget=0)
        cells = err.value.required
        levels, widest = map(
            int,
            re.search(r"over (\d+) levels x up to (\d+) counts", str(err.value)).groups(),
        )
        assert levels == box_spectrum(model).energies.size
        assert cells < levels * widest
        assert ideal_gas_entropy(model, 100, budget=cells).exact.total > 0
        with pytest.raises(CapExceededError, match=f"needs {cells} cells, over the budget of {cells - 1}$"):
            ideal_gas_entropy(model, 100, budget=cells - 1)

    @pytest.mark.parametrize("temperature", [300.0, 3.0])
    def test_level_multiplicities_count_box_states(self, temperature):
        model = BoxModel(ELECTRON_MASS, temperature, 20e-9, dimensions=3)
        spec = box_spectrum(model)
        sums, counts = np.unique(box_state_square_sums(model), return_counts=True)
        np.testing.assert_array_equal(spec.energies, model.energy_unit * sums.astype(np.float64))
        np.testing.assert_array_equal(spec.degeneracy, counts)

    @pytest.mark.parametrize(
        "side, temperature, N", [(20e-9, 300.0, 2), (20e-9, 300.0, 200), (8e-9, 300.0, 1500)]
    )
    def test_matches_per_state_reference(self, side, temperature, N):
        model = BoxModel(ELECTRON_MASS, temperature, side, dimensions=3)
        res = ideal_gas_entropy(model, N)
        want = per_state_reference(model, N)
        for key in ("microstate_term", "expected_logW", "boltzmann"):
            assert getattr(res.exact, key) == pytest.approx(want[key], rel=1e-12)
        assert res.partition_function == pytest.approx(want["Z"], rel=1e-12)
        assert res.exact.total == pytest.approx(
            want["total"], abs=1e-12 * want["microstate_term"]
        )
        spec = box_spectrum(model)
        assert res.states_retained == len(spec) == box_cutoff(model) ** 3
        assert res.tail_bound_achieved == spec.tail_bound_achieved

    def test_cold_box_matches_per_state_reference(self):
        # nearly every particle sits in the ground level, so expected_logW and
        # the Boltzmann term are ln N! less a sum of about ln N!: double
        # precision leaves them about 1e-16 ln N! absolute
        model = BoxModel(ELECTRON_MASS, 3.0, 20e-9, dimensions=3)
        N = 100
        res = ideal_gas_entropy(model, N)
        want = per_state_reference(model, N)
        assert res.exact.microstate_term == pytest.approx(
            want["microstate_term"], rel=1e-12
        )
        assert res.partition_function == pytest.approx(want["Z"], rel=1e-12)
        cancel = 1e-14 * math.lgamma(N + 1.0)
        for key in ("expected_logW", "boltzmann", "total"):
            assert getattr(res.exact, key) == pytest.approx(want[key], abs=cancel)
        assert res.states_retained == 4**3

    def test_max_states_refuses_the_same_boxes(self):
        model = BoxModel(ELECTRON_MASS, 300.0, 20e-9, dimensions=3)
        states = len(box_spectrum(model))
        for cap in (states - 1, 1000):
            # one refusal, with the states the bound needs, also where the
            # cutoff that meets the bound is the first over the cap
            trunc = SpectrumTruncation(1e-14, max_states=cap)
            with pytest.raises(CapExceededError, match="relative tail bound") as err:
                box_spectrum(model, trunc)
            assert (err.value.required, err.value.cap) == (states, cap)
            with pytest.raises(CapExceededError, match="max_states"):
                ideal_gas_entropy(model, 2, trunc)
        trunc = SpectrumTruncation(1e-14, max_states=states)
        assert ideal_gas_entropy(model, 2, trunc).states_retained == states


class TestSzilardInsertion:
    def test_reference_entropy_fall(self):
        res = szilard_insertion(ELECTRON_20NM_1D)
        assert res.s_before == pytest.approx(1.988, abs=0.01)
        assert res.s_half_box == pytest.approx(1.243, abs=0.01)
        assert res.delta == pytest.approx(0.052, abs=0.01)
        assert res.s_after == pytest.approx(res.s_before - res.delta, abs=1e-12)

    def test_cold_limit(self):
        cold = BoxModel(ELECTRON_MASS, 300.0 * 1e-7, 20e-9, dimensions=1)
        res = szilard_insertion(cold)
        assert res.s_before == pytest.approx(0.0, abs=1e-6)
        assert res.s_after == pytest.approx(LN2, abs=1e-6)
        assert res.delta == pytest.approx(-LN2, abs=1e-6)

    def test_swap_identity(self):
        # inserting from the half box back out books the negated fall,
        # shifted by the two ln 2 side choices
        res = szilard_insertion(ELECTRON_20NM_1D)
        swapped = res.s_half_box - LN2 - res.s_before
        assert swapped == pytest.approx(-res.delta - 2 * LN2, abs=1e-12)

    def test_three_d_rejected(self):
        with pytest.raises(ValueError):
            szilard_insertion(BoxModel(ELECTRON_MASS, 300.0, 20e-9, dimensions=3))

    def test_two_particles_matches_conditional_decomposition(self):
        res = szilard_insertion(ELECTRON_20NM_1D, N=2)
        p_half, _ = boltzmann_distribution(ELECTRON_20NM_1D.with_side(10e-9))
        # chain rule: H(joint) = H(b) + sum_b P(b) [S(b) + S(N-b)]
        side_totals = [
            multinomial_entropy(MultinomialDist(b, p_half)).total for b in range(3)
        ]
        pb = [0.25, 0.5, 0.25]
        expected = -sum(q * math.log(q) for q in pb) + sum(
            q * (side_totals[b] + side_totals[2 - b]) for b, q in zip(range(3), pb)
        )
        assert res.s_after == pytest.approx(expected, abs=1e-9)
        assert res.s_before == pytest.approx(
            multinomial_entropy(
                MultinomialDist(2, boltzmann_distribution(ELECTRON_20NM_1D)[0])
            ).total,
            abs=1e-12,
        )


class TestSzilardSplitPmf:
    def test_constructor_and_normalization(self):
        p = OneParticleDistribution([0.6, 0.4])
        d = SzilardSplitDist(2, 0.5, p, p)
        assert isinstance(d, SzilardSplitDist)
        assert entropy_by_enumeration(d) > 0

    def test_equiprobable_single_particle_split(self):
        p = OneParticleDistribution([1.0])
        d = SzilardSplitDist(1, 0.5, p, p)
        assert d.split_probabilities() == pytest.approx([0.5, 0.5])
