"""Exact entropies of occupancy distributions, decomposed per the
microstate / indistinguishability split, plus the closed-form ideal-gas
approximation they are checked against.

Units: natural log (nats) by default. "kB" is the same number relabelled;
"bits" divides by ln 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import gammaln, xlogy

from .combinatorics import DEFAULT_CAP, log_factorial_real, support_matrix
from .constants import BOLTZMANN_KB, LN2, PLANCK_H
from .distributions import (
    MultinomialDist,
    MvhgDist,
    OccupancyDistribution,
    SzilardSplitDist,
)
from .marginals import (
    _binomial_log_factorial_gap,
    _count_log_choose,
    _count_stirling_remainder,
    _hypergeometric_log_expectations,
    log_factorial,
)

__all__ = [
    "EntropyReport",
    "SandwichResult",
    "entropy_by_enumeration",
    "multinomial_entropy",
    "mvhg_entropy",
    "szilard_split_entropy",
    "boltzmann_entropy",
    "sandwich_check",
    "sackur_tetrode",
]

_UNITS = ("nats", "bits", "kB")

@dataclass(frozen=True)
class EntropyReport:
    """Entropy of an occupancy distribution, decomposed.

    ``total = microstate_term - expected_logW``: what measurement of the
    macrostate can reveal is the microstate uncertainty minus the part
    hidden by particle indistinguishability. ``boltzmann`` is the
    log-multiplicity of the mean occupancy (Gamma-extended), which the two
    terms bracket.
    """

    microstate_term: float
    expected_logW: float
    total: float
    boltzmann: float
    unit: str = "nats"

    def __post_init__(self) -> None:
        if self.unit not in _UNITS:
            raise ValueError(f"unknown unit {self.unit!r}")

    def in_unit(self, unit: str) -> "EntropyReport":
        if unit not in _UNITS:
            raise ValueError(f"unknown unit {unit!r}")
        factor = _unit_factor(self.unit, unit)
        return EntropyReport(
            microstate_term=self.microstate_term * factor,
            expected_logW=self.expected_logW * factor,
            total=self.total * factor,
            boltzmann=self.boltzmann * factor,
            unit=unit,
        )

    def as_dict(self) -> dict:
        return {
            "microstate_term": self.microstate_term,
            "expected_logW": self.expected_logW,
            "total": self.total,
            "boltzmann": self.boltzmann,
            "unit": self.unit,
        }


def _unit_factor(src: str, dst: str) -> float:
    # kB units and nats are numerically identical; only bits rescale.
    to_nats = LN2 if src == "bits" else 1.0
    from_nats = 1.0 / LN2 if dst == "bits" else 1.0
    return to_nats * from_nats


class SandwichResult(NamedTuple):
    microstate_term: float
    boltzmann: float
    expected_logW: float
    holds: bool


def entropy_by_enumeration(d: OccupancyDistribution, cap: int = DEFAULT_CAP) -> float:
    """-sum p log p over the full enumerated support (reference path)."""
    counts = support_matrix(d.N, d.num_colors, cap=cap)
    logp = d.log_pmf_batch(counts)
    mask = logp > -np.inf
    p = np.exp(logp[mask])
    return float(-(p * logp[mask]).sum()) + 0.0


def _multinomial_report(
    N: int, probs: np.ndarray, multiplicity: np.ndarray, budget: float = math.inf
) -> EntropyReport:
    """Decomposed entropy of N draws over levels of equally likely colours:
    multiplicity[i] colours have probability probs[i] each, normalised by
    their sum S, whose difference from 1 is formed exactly.

    With m_c = N p_c / S, tau(x) = ln Gamma(x + 1) - x ln x + x and
    g_c = E{ln n_c!} - ln Gamma(m_c + 1), each level's computed once:
    total = sum_c [tau(m_c) + g_c] - tau(N), boltzmann = N H(p) -
    sum_c tau(m_c) + tau(N) and expected_logW = N H(p) - total, with
    N H(p) = sum_c m_c ln(S / p_c): no term is of size ln N!.
    """
    probs = np.asarray(probs, dtype=np.float64)
    excess = math.fsum((*_exact_sums(multiplicity * probs), -1.0))
    probs_s = probs - probs * (excess / (1.0 + excess))
    mean = N * probs_s
    tau, gap = _binomial_log_factorial_gap(N, probs_s, budget)
    terms = multiplicity * np.array((-xlogy(mean, probs), tau, gap))
    micro, tau, gap = np.transpose(_exact_sums(terms)).tolist()
    scale = N * math.log1p(excess)
    tau_n = float(_count_stirling_remainder(N))
    boltzmann = [*micro, scale, *(-t for t in tau), tau_n]
    return EntropyReport(
        microstate_term=math.fsum((*micro, scale)) + 0.0,
        expected_logW=math.fsum((*boltzmann, *(-g for g in gap))) + 0.0,
        total=math.fsum((*tau, *gap, -tau_n)) + 0.0,
        boltzmann=math.fsum(boltzmann) + 0.0,
    )


def _exact_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sums along the last axis as unrounded pairs (high, low): the high
    parts, on a power-of-two grid of at least n 2^-53 times the largest term,
    sum exactly; the low parts, within half a grid step, all but exactly."""
    top = np.abs(terms).max(axis=-1, keepdims=True)
    exponent = np.frexp(top)[1] + terms.shape[-1].bit_length() - 53
    grid = np.ldexp(1.0, np.maximum(exponent, -1074))
    high = np.rint(terms / grid) * grid
    return high.sum(axis=-1), (terms - high).sum(axis=-1)


def multinomial_entropy(d: MultinomialDist) -> EntropyReport:
    """Decomposed entropy of the with-replacement occupancy distribution.

    Colours of equal probability are grouped, so the cost grows with the
    number of distinct probabilities rather than of colours.
    """
    levels, multiplicity = np.unique(d.p.probs, return_counts=True)
    return _multinomial_report(d.N, levels, multiplicity)


def szilard_split_entropy(d: SzilardSplitDist) -> float:
    """Entropy of the split-box occupancy distribution, one multinomial."""
    return multinomial_entropy(d._multinomial).total


def mvhg_entropy(d: MvhgDist) -> EntropyReport:
    """Decomposed entropy of the without-replacement occupancy distribution.

    Evaluated through per-color hypergeometric marginals as
    total = ln C(U, N) - sum_c E{ln C(u_c, n_c)}, whose terms are of the
    size of the result rather than of ln U!, and
    expected_logW = ln N! - sum_c E{ln n_c!}.
    ln C(U, N), in the Stirling-remainder form of _count_log_choose, has no
    term of size ln U! either. The microstate term is reported as
    total + expected_logW.
    """
    urn, N = d.urn, d.draw_count
    U = urn.total
    e_fact, total = (float(x[0]) for x in _mvhg_entropies(U, np.asarray([urn.counts]), N))
    expected_logW = log_factorial(N) - e_fact
    mean = N * np.asarray(urn.counts, dtype=np.float64) / U if U else np.zeros(len(urn))
    return EntropyReport(
        microstate_term=total + expected_logW,
        expected_logW=expected_logW,
        total=total,
        boltzmann=boltzmann_entropy(mean),
        unit="nats",
    )


def _mvhg_entropies(U, urns: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """For each row of a (urns, colours) array of urns of U balls each (of
    U[r] balls in row r for an array U), with n ~ MVHG(urn, N):
    sum_c E{ln n_c!}, and the entropy ln C(U, N) - sum_c E{ln C(u_c, n_c)}."""
    e_fact, e_binom = _hypergeometric_log_expectations(U, urns, N)
    return e_fact.sum(axis=1), _count_log_choose(U, N) - e_binom.sum(axis=1)


def boltzmann_entropy(mean_occupancy: Sequence[float]) -> float:
    """ln of the Gamma-extended multiplicity of a (real-valued) mean
    occupancy vector."""
    mean = np.asarray(mean_occupancy, dtype=np.float64)
    if np.any(mean < 0):
        raise ValueError("mean occupancies must be non-negative")
    return log_factorial_real(float(mean.sum())) - float(gammaln(mean + 1.0).sum())


def sandwich_check(d: MultinomialDist, tol: float = 1e-9) -> SandwichResult:
    """Verify microstate_term >= boltzmann >= expected_logW for one
    distribution (the first bound is the type-class count bound, the
    second is Jensen on the convex ln n!)."""
    report = multinomial_entropy(d)
    holds = (
        report.microstate_term >= report.boltzmann - tol
        and report.boltzmann >= report.expected_logW - tol
    )
    return SandwichResult(
        report.microstate_term, report.boltzmann, report.expected_logW, holds
    )


def sackur_tetrode(N: int, mass: float, temperature: float, side_length: float) -> float:
    """Closed-form high-temperature ideal-gas entropy, in kB units.

    Unlike the exact occupancy entropy this approximation goes negative
    once the temperature-to-density ratio is low enough.
    """
    if N <= 0 or mass <= 0 or temperature <= 0 or side_length <= 0:
        raise ValueError("all Sackur-Tetrode parameters must be positive")
    thermal = 2.0 * math.pi * mass * BOLTZMANN_KB * temperature / PLANCK_H**2
    return N * (math.log(side_length**3 / N * thermal**1.5) + 2.5)
