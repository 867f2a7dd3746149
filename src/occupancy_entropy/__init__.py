"""Exact occupancy-number distributions and entropies for systems of
non-interacting bosons, with finite-universe (without-replacement) and
canonical (multinomial) variants, information-theoretic bounds, and
ideal-gas / piston-insertion applications."""

from .combinatorics import (
    CapExceededError,
    OccupancyVector,
    enumerate_occupancies,
    occupancy_count,
)
from .distributions import (
    DEFAULT_SEED,
    MultinomialDist,
    MvhgDist,
    OneParticleDistribution,
    SzilardSplitDist,
    convergence_scan,
    marginal,
    sample,
    tv_distance,
)
from .entropy import (
    EntropyReport,
    SandwichResult,
    boltzmann_entropy,
    entropy_by_enumeration,
    multinomial_entropy,
    mvhg_entropy,
    sackur_tetrode,
    sandwich_check,
    szilard_split_entropy,
)
from .marginals import log_factorial
from .oracle import (
    brute_force_mvhg,
    brute_force_partial_trace,
    exact_multinomial_coeff,
    mc_entropy_estimate,
)
from .physics import (
    BoxModel,
    BoxSpectrum,
    GasEntropyResult,
    SpectrumTruncation,
    SzilardResult,
    boltzmann_distribution,
    box_spectrum,
    ideal_gas_entropy,
    szilard_insertion,
)
from .quantum import (
    BosonicDensityOperator,
    HolevoEstimate,
    LedgerStep,
    MeasurementLedger,
    bayesian_marginal_check,
    empirical_information,
    holevo_chi,
    measurement_ledger,
    trace_out_environment,
)

__version__ = "0.1.0"
