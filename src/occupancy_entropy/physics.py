"""Particle-in-a-box spectra, truncated Boltzmann one-particle
distributions, exact ideal-gas entropy against its closed-form
approximation, and the piston-insertion entropy ledger.

Internal energies are SI joules; entropies from this module are reported
in kB units (numerically identical to nats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import CapExceededError
from .constants import BOLTZMANN_KB, LN2, PLANCK_H
from .distributions import OneParticleDistribution
from .entropy import EntropyReport, _multinomial_report, sackur_tetrode

__all__ = [
    "BoxModel",
    "SpectrumTruncation",
    "BoxSpectrum",
    "GasEntropyResult",
    "SzilardResult",
    "box_spectrum",
    "boltzmann_distribution",
    "ideal_gas_entropy",
    "szilard_insertion",
]


_MIN_ENERGY_RATIO = 1e-100


@dataclass(frozen=True)
class BoxModel:
    """Ideal-gas particle in a hard-walled cubic (or 1-D) box."""

    mass: float               # kg
    temperature: float        # K
    side_length: float        # m
    dimensions: int = 3

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.mass, self.temperature, self.side_length))):
            raise ValueError("mass, temperature and side length must be finite")
        if self.mass <= 0 or self.temperature <= 0 or self.side_length <= 0:
            raise ValueError("mass, temperature and side length must be positive")
        if self.dimensions not in (1, 3):
            raise ValueError("dimensions must be 1 or 3")
        # far out of range the axis energy or its ratio to kT overflows or
        # underflows; below 1e-100 (past 10^50 states an axis) the cubed
        # sums of the cutoff search overflow
        try:
            ratio = self.energy_unit / (BOLTZMANN_KB * self.temperature)
        except (OverflowError, ZeroDivisionError):
            ratio = math.nan
        if not _MIN_ENERGY_RATIO <= ratio < math.inf:
            raise ValueError(
                f"h^2 / (8 m L^2 kT) is {ratio:g}, outside [{_MIN_ENERGY_RATIO:g}, inf)"
            )

    @property
    def energy_unit(self) -> float:
        """h^2 / (8 m L^2): the energy of quantum number 1 on one axis."""
        return PLANCK_H**2 / (8.0 * self.mass * self.side_length**2)

    def with_side(self, side_length: float) -> "BoxModel":
        return BoxModel(self.mass, self.temperature, side_length, self.dimensions)


@dataclass(frozen=True)
class SpectrumTruncation:
    """Stopping rule for the infinite box spectrum.

    Enumeration stops once the complementary Gaussian integral bounds the
    omitted Boltzmann weight below ``relative_tail_bound`` of the retained
    partition sum.
    """

    relative_tail_bound: float = 1e-14
    max_states: int = 4_000_000

    def __post_init__(self) -> None:
        if not 0.0 < self.relative_tail_bound < 1.0:
            raise ValueError("relative tail bound must lie in (0, 1)")
        if self.max_states < 1:
            raise ValueError("max_states must be positive")


DEFAULT_TRUNCATION = SpectrumTruncation()


@dataclass(frozen=True, eq=False)
class BoxSpectrum:
    """Distinct box energy levels, ascending, with the number of states of
    each (the quantum-number triples of the kept cube [1, cutoff]^3 in 3-D,
    one in 1-D). ``len`` counts states, not levels."""

    energies: np.ndarray          # joules, one per distinct level
    degeneracy: np.ndarray        # int64 states per level
    tail_bound_achieved: float    # omitted Boltzmann weight / retained Z

    def __len__(self) -> int:
        return int(self.degeneracy.sum())


# Past max_states the cutoff the tail bound needs is still found, from
# partial sums in chunks of this many cutoffs, for at most this many chunks.
_CUTOFF_CHUNK = 2**16
_EXACT_CHUNKS = 64


def _achieved(z, tail, axes: int):
    """Omitted weight over retained weight of a kept cube [1, c]^axes whose
    per-axis retained sum is z and per-axis tail bound is tail."""
    if axes == 1:
        return tail / z
    return ((z + tail) ** 3 - z**3) / z**3


def _axis_cutoff(alpha: float, trunc: SpectrumTruncation, axes: int) -> tuple[int, float]:
    """Smallest per-axis cutoff whose omitted weight bound meets the target.

    Per axis, sum_{k>c} exp(-alpha k^2) < integral_c^inf exp(-alpha x^2) dx
    <= exp(-alpha c^2) / (2 alpha c). For 3 axes the kept cube [1,c]^3 omits
    (z+t)^3 - z^3 of the full weight, with z the retained per-axis sum and
    t the per-axis tail bound. Everything is scaled by the ground-state
    weight so deep-cold spectra do not underflow. A spectrum over
    max_states is refused with the states the bound needs (_needed_cutoff);
    past about 4 million cutoffs per axis that count is an upper bound.

    The refusal does not walk to the cap. The retained sum at top, the
    largest cutoff within it, is below the sum of every weight: at most
    1 + 1/(2 alpha) (z + t at cutoff 1), and for alpha < 1 the half-Gaussian
    e^alpha sqrt(pi / alpha) / 2. _achieved falls as the sum grows, so with
    that and t_top, top's tail bound, it bounds top's achieved bound from
    below. Over the target, top fails and so does every smaller cutoff (the
    achieved bound falls as c grows): the walk would refuse too, so it is
    refused at once. Otherwise top all but meets the bound (within a factor
    of about 1.5), and walking to it costs what an accepted walk would.
    """
    bound = trunc.relative_tail_bound
    top = trunc.max_states
    if axes == 3:  # integer cube root, by Newton steps from above
        top = 1 << -(-top.bit_length() // 3)
        while (smaller := (2 * top + trunc.max_states // top**2) // 3) < top:
            top = smaller
    x = float(min(top, 2**1000))  # past float range t_top is 0 for any alpha
    t_top = math.exp(-alpha * (x * x - 1.0)) / (2.0 * alpha * x)
    gauss = math.exp(alpha) * math.sqrt(math.pi / alpha) / 2.0 if alpha < 1.0 else math.inf
    at_top = _achieved(min(1.0 + 0.5 / alpha, gauss), t_top, axes)
    z = 0.0
    c = 0
    while True:
        c += 1
        w = math.exp(-alpha * (c * c - 1.0))
        z += w
        achieved = _achieved(z, w / (2.0 * alpha * c), axes)
        met = achieved <= bound
        if met and c <= top:
            return c, achieved
        if c > top or at_top > bound:
            needed = c if met else _needed_cutoff(alpha, bound, axes, c, z)
            raise CapExceededError(
                f"spectrum needs {needed**axes} states (cutoff {needed}) to reach "
                f"relative tail bound {bound:g}, over max_states={trunc.max_states} "
                f"(at least {at_top:.3g} at cutoff {top}, the largest within it); "
                f"raise max_states or loosen the bound",
                needed**axes,
                trunc.max_states,
            )


def _needed_cutoff(alpha: float, bound: float, axes: int, c: int, z: float) -> int:
    """The cutoff _axis_cutoff would reach past cutoff c, whose retained
    per-axis sum is z, with no cap on the states.

    The weights are added in chunks by np.add.accumulate, in the loop's
    order. Past _EXACT_CHUNKS chunks (over 4 million cutoffs past c) the
    retained sum is bounded below by its integral instead, which can only
    overstate the cutoff; it is then bisected for.
    """
    for _ in range(_EXACT_CHUNKS):
        k = np.arange(c + 1, c + 1 + _CUTOFF_CHUNK, dtype=np.float64)
        w = np.exp(-alpha * (k * k - 1.0))
        sums = np.add.accumulate(np.concatenate(([z], w)))[1:]
        met = np.flatnonzero(_achieved(sums, w / (2.0 * alpha * k), axes) <= bound)
        if met.size:
            return c + 1 + int(met[0])
        c, z = c + _CUTOFF_CHUNK, float(sums[-1])
    root = math.sqrt(alpha)

    def meets(k: int) -> bool:
        # sum_{c < j <= k} w_j >= integral_{c+1}^{k+1} w(x) dx
        gained = math.erfc((c + 1) * root) - math.erfc((k + 1) * root)
        z_k = z + math.exp(alpha) * math.sqrt(math.pi) / (2.0 * root) * gained
        tail = math.exp(-alpha * (k * k - 1.0)) / (2.0 * alpha * k)
        return _achieved(z_k, tail, axes) <= bound

    lo, hi = c, 2 * c
    while not meets(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if meets(mid) else (mid, hi)
    return hi


def box_spectrum(
    model: BoxModel, truncation: SpectrumTruncation = DEFAULT_TRUNCATION
) -> BoxSpectrum:
    """Box energy levels and degeneracies until the Boltzmann tail is
    negligible; no list of 3-D states is built."""
    alpha = model.energy_unit / (BOLTZMANN_KB * model.temperature)
    cutoff, achieved = _axis_cutoff(alpha, truncation, model.dimensions)
    if model.dimensions == 1:
        levels = np.arange(1, cutoff + 1, dtype=np.int64) ** 2
        degeneracy = np.ones(cutoff, dtype=np.int64)
    else:
        levels, degeneracy = _square_sum_levels(cutoff)
    return BoxSpectrum(model.energy_unit * levels.astype(np.float64), degeneracy, achieved)


def _square_sum_levels(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of q1^2 + q2^2 + q3^2 over [1, cutoff]^3, ascending,
    and how many quantum-number triples give each: the 3-D box levels in
    units of the axis energy, with their degeneracies."""
    squares = np.arange(1, cutoff + 1, dtype=np.int64) ** 2
    pairs = np.bincount(np.add.outer(squares, squares).ravel())
    triples = np.zeros(pairs.size + squares[-1], dtype=np.int64)
    for sq in squares:
        triples[sq : sq + pairs.size] += pairs
    levels = np.flatnonzero(triples)
    return levels, triples[levels]


def _boltzmann_weights(energies: np.ndarray, model: BoxModel, multiplicity) -> tuple[np.ndarray, float]:
    # weights are taken relative to the ground state so that deep-cold
    # spectra keep well-defined probabilities; only the reported absolute
    # partition sum may underflow to zero there
    kT = BOLTZMANN_KB * model.temperature
    scaled = np.exp(-(energies - energies[0]) / kT)
    norm = float((multiplicity * scaled).sum())
    return scaled / norm, norm * math.exp(-energies[0] / kT)


def boltzmann_distribution(
    model: BoxModel, truncation: SpectrumTruncation = DEFAULT_TRUNCATION
) -> tuple[OneParticleDistribution, float]:
    """Truncated one-particle Boltzmann distribution, one probability per
    state in non-decreasing energy order, and its partition sum."""
    spec = box_spectrum(model, truncation)
    probs, partition = _boltzmann_weights(spec.energies, model, spec.degeneracy)
    return OneParticleDistribution(np.repeat(probs, spec.degeneracy)), partition


@dataclass(frozen=True, eq=False)
class GasEntropyResult:
    exact: EntropyReport           # kB units
    sackur_tetrode: float          # kB units
    relative_gap: float
    partition_function: float
    states_retained: int
    tail_bound_achieved: float


def ideal_gas_entropy(
    model: BoxModel,
    N: int,
    truncation: SpectrumTruncation = DEFAULT_TRUNCATION,
    budget: int = 10**9,
) -> GasEntropyResult:
    """Exact occupancy entropy of N ideal-gas bosons next to the
    closed-form approximation.

    The exact path stays non-negative everywhere, including in the regime
    where the approximation has already gone negative. It is evaluated per
    distinct energy level, weighted by degeneracy, and ``budget`` caps the
    (level, count) cells the binomial expectations are summed over: the
    K + 1 counts of the series of a level below one mean count, and every
    other level padded to the widest count window of its width class.
    """
    if model.dimensions != 3:
        raise ValueError("ideal gas entropy requires a 3-D box model")
    if N < 1:
        raise ValueError("N must be at least 1")
    spec = box_spectrum(model, truncation)
    probs, partition = _boltzmann_weights(spec.energies, model, spec.degeneracy)
    exact = _multinomial_report(N, probs, spec.degeneracy, budget).in_unit("kB")
    approx = sackur_tetrode(N, model.mass, model.temperature, model.side_length)
    gap = abs(exact.total - approx) / exact.total if exact.total > 0 else math.inf
    return GasEntropyResult(
        exact=exact,
        sackur_tetrode=approx,
        relative_gap=gap,
        partition_function=partition,
        states_retained=len(spec),
        tail_bound_achieved=spec.tail_bound_achieved,
    )


@dataclass(frozen=True, eq=False)
class SzilardResult:
    s_before: float            # kB units
    s_half_box: float          # one-particle entropy of the half-size box
    s_after: float
    delta: float
    partition_full: float
    partition_half: float
    states_full: int
    states_half: int
    tail_bound_achieved: float  # worse of the two spectra


def szilard_insertion(
    model: BoxModel,
    N: int = 1,
    truncation: SpectrumTruncation = DEFAULT_TRUNCATION,
) -> SzilardResult:
    """Entropy before and after inserting a piston at the box midpoint.

    For a single particle the post-insertion entropy is exactly ln 2 (the
    equiprobable side choice) plus the half-box one-particle entropy. For
    N > 1 both entropies are the level kernel's: before, Mult(N, p_full);
    after, each particle takes either side with probability 1/2 and then a
    level there, so one multinomial over the half-box levels at p_half / 2,
    each twice as degenerate.
    """
    if model.dimensions != 1:
        raise ValueError("piston insertion is modelled for 1-D boxes only")
    if N < 1:
        raise ValueError("N must be at least 1")
    half = model.with_side(model.side_length / 2.0)
    spec_full = box_spectrum(model, truncation)
    spec_half = box_spectrum(half, truncation)
    p_full, z_full = _boltzmann_weights(spec_full.energies, model, spec_full.degeneracy)
    p_half, z_half = _boltzmann_weights(spec_half.energies, half, spec_half.degeneracy)
    # a 1-D level is one state, so the Shannon entropies are over the levels
    s_half = OneParticleDistribution(p_half).entropy()
    if N == 1:
        s_before = OneParticleDistribution(p_full).entropy()
        s_after = LN2 + s_half
    else:
        s_before = _multinomial_report(N, p_full, spec_full.degeneracy).total
        s_after = _multinomial_report(N, 0.5 * p_half, 2 * spec_half.degeneracy).total
    return SzilardResult(
        s_before=s_before,
        s_half_box=s_half,
        s_after=s_after,
        delta=s_before - s_after,
        partition_full=z_full,
        partition_half=z_half,
        states_full=len(spec_full),
        states_half=len(spec_half),
        tail_bound_achieved=max(
            spec_full.tail_bound_achieved, spec_half.tail_bound_achieved
        ),
    )
