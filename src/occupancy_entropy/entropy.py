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
from scipy.special import gammaln

from .combinatorics import (
    CapExceededError,
    log_factorial,
    log_factorial_real,
    log_multinomial_coeff,
    occupancy_count,
    support_matrix,
)
from .constants import BOLTZMANN_KB, LN2, PLANCK_H
from .distributions import (
    MultinomialDist,
    MvhgDist,
    OccupancyDistribution,
)

__all__ = [
    "EntropyReport",
    "SandwichResult",
    "entropy_by_enumeration",
    "multinomial_entropy",
    "mvhg_entropy",
    "boltzmann_entropy",
    "sandwich_check",
    "sackur_tetrode",
]

_UNITS = ("nats", "bits", "kB")

# Expectations over count marginals are summed exactly for N up to this
# size; above it the sum is windowed to mean +- 12 sigma (sub-Gaussian
# tails put the omitted mass below 2*exp(-72), i.e. under 1e-15 of the
# expectation even after weighting by ln N!).
_FULL_SUM_MAX_N = 1000
_WINDOW_SIGMAS = 12.0
_COLOR_CHUNK = 4096
_BLOCK_CELLS = 2**18


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


def entropy_by_enumeration(d: OccupancyDistribution, cap: int = 10**6) -> float:
    """-sum p log p over the full enumerated support (reference path)."""
    if occupancy_count(d.N, d.num_colors) > cap:
        raise CapExceededError(
            "support too large for enumeration entropy; use the decomposed "
            "path or a Monte Carlo estimate"
        )
    counts = support_matrix(d.N, d.num_colors, cap=cap)
    logp = d.log_pmf_batch(counts)
    mask = logp > -np.inf
    p = np.exp(logp[mask])
    return float(-(p * logp[mask]).sum()) + 0.0


def _expected_log_factorial_binomial(N: int, p: float) -> float:
    """E{ln n!} for n ~ Binomial(N, p)."""
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return log_factorial(N)
    lo, hi = 0, N
    if N > _FULL_SUM_MAX_N:
        mean = N * p
        sigma = math.sqrt(N * p * (1.0 - p))
        lo = max(0, int(math.floor(mean - _WINDOW_SIGMAS * sigma)))
        hi = min(N, int(math.ceil(mean + _WINDOW_SIGMAS * sigma)))
    k = np.arange(lo, hi + 1, dtype=np.float64)
    logpmf = (
        gammaln(N + 1.0)
        - gammaln(k + 1.0)
        - gammaln(N - k + 1.0)
        + k * math.log(p)
        + (N - k) * math.log1p(-p)
    )
    return float(np.exp(logpmf) @ gammaln(k + 1.0))


def _sum_expected_log_factorials_multinomial(N: int, probs: np.ndarray) -> float:
    """sum_c E{ln n_c!} with each n_c ~ Binomial(N, p_c), chunk-vectorized."""
    if N > _FULL_SUM_MAX_N:
        return sum(_expected_log_factorial_binomial(N, float(p)) for p in probs)
    k = np.arange(N + 1, dtype=np.float64)
    log_binom = gammaln(N + 1.0) - gammaln(k + 1.0) - gammaln(N - k + 1.0)
    gl_k = gammaln(k + 1.0)
    acc = 0.0
    for start in range(0, probs.size, _COLOR_CHUNK):
        pc = probs[start : start + _COLOR_CHUNK]
        interior = (pc > 0.0) & (pc < 1.0)
        if np.any(pc == 1.0):
            acc += float(np.count_nonzero(pc == 1.0)) * log_factorial(N)
        if not np.any(interior):
            continue
        pi = pc[interior]
        logpmf = (
            log_binom[None, :]
            + k[None, :] * np.log(pi)[:, None]
            + (N - k)[None, :] * np.log1p(-pi)[:, None]
        )
        acc += float((np.exp(logpmf) @ gl_k).sum())
    return acc


def multinomial_entropy(d: MultinomialDist) -> EntropyReport:
    """Decomposed entropy of the with-replacement occupancy distribution.

    The microstate term is N times the one-particle Shannon entropy; the
    indistinguishability term is ln N! minus the per-color expectations of
    ln n_c! over the binomial marginals.
    """
    micro = d.N * d.p.entropy()
    expected_logW = log_factorial(d.N) - _sum_expected_log_factorials_multinomial(
        d.N, d.p.probs
    )
    return EntropyReport(
        microstate_term=micro,
        expected_logW=expected_logW,
        total=micro - expected_logW,
        boltzmann=boltzmann_entropy(d.N * d.p.probs),
        unit="nats",
    )


def _hypergeometric_log_expectations(
    U: int, counts: np.ndarray, N: int
) -> tuple[np.ndarray, np.ndarray]:
    """(E{ln n!}, E{ln C(u, n)}) for each colour count u of an array of
    urns of U balls each, with n ~ Hypergeometric(U, u, N).

    Equal counts are evaluated once. Each pmf is scaled to its largest
    entry and normalised by its own sum, so the ln C(U, N) normaliser is
    never formed. Above _FULL_SUM_MAX_N draws the k-range is cut to
    mean +- _WINDOW_SIGMAS sigma. The (counts x k) grid is built in blocks
    of at most _BLOCK_CELLS entries.
    """
    counts = np.asarray(counts, dtype=np.int64)
    levels, where = np.unique(counts, return_inverse=True)
    u = levels.astype(np.float64)[:, None]
    lo = np.maximum(0.0, N - (U - u))
    hi = np.minimum(float(N), u)
    if N > _FULL_SUM_MAX_N:
        frac = u / U
        mean = N * frac
        sigma = np.sqrt(N * frac * (1.0 - frac) * (U - N) / max(U - 1, 1))
        lo = np.maximum(lo, np.floor(mean - _WINDOW_SIGMAS * sigma))
        hi = np.minimum(hi, np.ceil(mean + _WINDOW_SIGMAS * sigma))
    steps = np.arange(int((hi - lo).max(initial=0.0)) + 1, dtype=np.float64)
    e_fact = np.empty(levels.size)
    e_binom = np.empty(levels.size)
    rows = max(1, _BLOCK_CELLS // steps.size)
    for start in range(0, levels.size, rows):
        b = slice(start, start + rows)
        k = np.minimum(lo[b] + steps, hi[b])
        log_fact = gammaln(k + 1.0)
        log_binom = gammaln(u[b] + 1.0) - log_fact - gammaln(u[b] - k + 1.0)
        log_rest = (
            gammaln(U - u[b] + 1.0)
            - gammaln(N - k + 1.0)
            - gammaln(U - u[b] - N + k + 1.0)
        )
        log_pmf = log_binom + log_rest
        pmf = np.exp(log_pmf - log_pmf.max(axis=1, keepdims=True))
        pmf[lo[b] + steps > hi[b]] = 0.0
        mass = pmf.sum(axis=1)
        e_fact[b] = (pmf * log_fact).sum(axis=1) / mass
        e_binom[b] = (pmf * log_binom).sum(axis=1) / mass
    return e_fact[where].reshape(counts.shape), e_binom[where].reshape(counts.shape)


def mvhg_entropy(d: MvhgDist) -> EntropyReport:
    """Decomposed entropy of the without-replacement occupancy distribution.

    Evaluated through per-color hypergeometric marginals as
    total = ln C(U, N) - sum_c E{ln C(u_c, n_c)}, whose terms are of the
    size of the result rather than of ln U!, and
    expected_logW = ln N! - sum_c E{ln n_c!}.
    The microstate term is reported as total + expected_logW.
    """
    urn, N = d.urn, d.draw_count
    U = urn.total
    e_fact, e_binom = _hypergeometric_log_expectations(U, urn.counts, N)
    expected_logW = log_factorial(N) - float(e_fact.sum())
    total = log_multinomial_coeff((N, U - N)).value - float(e_binom.sum())
    mean = N * np.asarray(urn.counts, dtype=np.float64) / U if U else np.zeros(len(urn))
    return EntropyReport(
        microstate_term=total + expected_logW,
        expected_logW=expected_logW,
        total=total,
        boltzmann=boltzmann_entropy(mean),
        unit="nats",
    )


def boltzmann_entropy(mean_occupancy: Sequence[float]) -> float:
    """ln of the Gamma-extended multiplicity of a (real-valued) mean
    occupancy vector."""
    mean = np.asarray(mean_occupancy, dtype=np.float64)
    if np.any(mean < 0):
        raise ValueError("mean occupancies must be non-negative")
    total = float(mean.sum())
    return log_factorial_real(total) - float(gammaln(mean + 1.0).sum())


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
