"""Exact entropies of occupancy distributions, decomposed per the
microstate / indistinguishability split, plus the closed-form ideal-gas
approximation they are checked against.

Units: natural log (nats) by default. "kB" is the same number relabelled;
"bits" divides by ln 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import gammaln, rel_entr, xlog1py, xlogy

from .combinatorics import (
    DEFAULT_CAP,
    CapExceededError,
    log_factorial,
    log_factorial_real,
    log_multinomial_coeff,
    support_matrix,
)
from .constants import BOLTZMANN_KB, LN2, PLANCK_H
from .distributions import (
    MultinomialDist,
    MvhgDist,
    OccupancyDistribution,
    SzilardSplitDist,
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

# Windowed expectations leave out counts whose tails could move a result
# by more than this share of it (see _count_window).
_LOG_REL_TOL = math.log(1e-17)
# A grid of at most this many cells costs less to sum whole than to search
# for its windows.
_WHOLE_GRID_CELLS = 2**12
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


def entropy_by_enumeration(d: OccupancyDistribution, cap: int = DEFAULT_CAP) -> float:
    """-sum p log p over the full enumerated support (reference path)."""
    counts = support_matrix(d.N, d.num_colors, cap=cap)
    logp = d.log_pmf_batch(counts)
    mask = logp > -np.inf
    p = np.exp(logp[mask])
    return float(-(p * logp[mask]).sum()) + 0.0


def _count_window(
    n: int, p: np.ndarray, log_floor: Callable[[], np.ndarray], max_f
) -> tuple[np.ndarray, np.ndarray]:
    """Counts [lo, hi] around n p over which to sum E{f(X)}, for X a count
    of n trials with success fraction p, f >= 0 at most ``max_f`` on the
    support and exp(log_floor()) <= E{f(X)}; elementwise over arrays.

    Each omitted tail has mass at most exp(_LOG_REL_TOL - 1) of
    E{f} / max_f, so it moves E{f} by less than 1e-17 of itself. The tails
    are bounded by Chernoff's P(X >= k) <= exp(-n KL(k/n || p)) for
    k >= n p (and P(X <= k) likewise for k <= n p), which holds for
    Poisson-like binomials as well as Gaussian-like ones. Hoeffding (1963)
    proves the same bounds for a hypergeometric count of n draws from an
    urn whose colour fraction is p, so the window serves both kernels.
    A grid of at most _WHOLE_GRID_CELLS cells over all p is kept whole,
    without calling log_floor.
    """
    n = float(n)
    p = np.asarray(p, dtype=np.float64)
    if p.size * (n + 1.0) <= _WHOLE_GRID_CELLS:
        return np.where(p == 1.0, n, 0.0), np.where(p == 0.0, 0.0, n)
    mean = n * p
    # one nat is kept for the rounding in log_floor
    with np.errstate(divide="ignore"):
        need = np.log(np.maximum(max_f, LN2)) + 1.0 - _LOG_REL_TOL - log_floor()

    def negligible(k):
        a = k / n
        return n * (rel_entr(a, p) + rel_entr(1.0 - a, 1.0 - p)) >= need

    # smallest hi >= floor(mean) whose upper tail P(X >= hi + 1) is negligible
    a, b = np.floor(mean), np.full_like(mean, n)
    while np.any(a < b):
        mid = np.floor((a + b) / 2.0)
        ok = negligible(mid + 1.0)
        a, b = np.where(ok, a, mid + 1.0), np.where(ok, mid, b)
    hi = b
    # largest lo <= ceil(mean) whose lower tail P(X <= lo - 1) is negligible
    a, b = np.zeros_like(mean), np.ceil(mean)
    while np.any(a < b):
        mid = np.ceil((a + b) / 2.0)
        ok = negligible(mid - 1.0)
        a, b = np.where(ok, mid, a), np.where(ok, b, mid - 1.0)
    return a, hi


def _window_means(lo, hi, log_step, *fs) -> list[np.ndarray]:
    """Means of each f(rows, k) under pmfs known on [lo, hi] per row
    through their ratios log_step(rows, k) = ln P(k) - ln P(k - 1).

    Each pmf is built by summing its log ratios outwards from its mode,
    the last count with a rising ratio (the pmfs are log-concave), and is
    normalised by its own window mass. So no large normaliser such as
    ln N! is ever formed, the running sums stay small where the mass is,
    and small counts keep full relative precision. The (rows x k) grid is
    built in blocks of at most _BLOCK_CELLS entries.
    """
    steps = np.arange(int((hi - lo).max(initial=0.0)) + 1, dtype=np.float64)
    means = [np.empty(lo.size) for _ in fs]
    block = max(1, _BLOCK_CELLS // steps.size)
    for start in range(0, lo.size, block):
        rows = slice(start, start + block)
        k = lo[rows, None] + steps
        inside = k <= hi[rows, None]
        np.minimum(k, hi[rows, None], out=k)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(inside, log_step(rows, k), 0.0)
        step[:, 0] = 0.0
        to_mode = steps <= (step > 0.0).sum(axis=1, keepdims=True)
        rising = np.where(to_mode, step, 0.0)
        # ln P(k) - ln P(mode) is -(sum of the steps k+1..mode) up to the
        # mode and the sum of the steps mode+1..k past it
        below = rising - np.cumsum(rising[:, ::-1], axis=1)[:, ::-1]
        above = np.cumsum(step - rising, axis=1)
        pmf = np.exp(np.where(to_mode, below, above))
        pmf[~inside] = 0.0
        mass = pmf.sum(axis=1)
        for mean, f in zip(means, fs):
            mean[rows] = (pmf * f(rows, k)).sum(axis=1) / mass
    return means


def _expected_log_factorial_binomial(
    N: int, p: np.ndarray, budget: float = math.inf
) -> np.ndarray:
    """E{ln n!} for n ~ Binomial(N, p), elementwise over an array of p.

    Each expectation is summed over the _count_window of its p, which
    leaves out under 1e-17 of it. CapExceededError if the (p x window)
    grid would exceed ``budget`` cells.
    """
    p = np.asarray(p, dtype=np.float64)
    flat = p.ravel()

    def log_floor():
        # one term P(k0) ln k0! of the sum is a floor under it; k0 = 2
        # keeps that floor close where N p is small, the mean where not
        k0 = np.minimum(np.maximum(2.0, np.rint(N * flat)), N)
        log_pmf_k0 = (
            gammaln(N + 1.0)
            - gammaln(k0 + 1.0)
            - gammaln(N - k0 + 1.0)
            + xlogy(k0, flat)
            + xlog1py(N - k0, -flat)
        )
        with np.errstate(divide="ignore"):
            return log_pmf_k0 + np.log(gammaln(k0 + 1.0))

    lo, hi = _count_window(N, flat, log_floor, gammaln(N + 1.0))
    width = int((hi - lo).max(initial=0.0)) + 1
    if flat.size * width > budget:
        raise CapExceededError(
            f"summation over {flat.size} levels x {width} counts needs "
            f"{flat.size * width} cells, over the budget of {budget}",
            flat.size * width,
            budget,
        )
    with np.errstate(divide="ignore"):
        log_odds = np.log(flat) - np.log1p(-flat)
    (e_fact,) = _window_means(
        lo,
        hi,
        lambda rows, k: np.log(N - k + 1.0) - np.log(k) + log_odds[rows, None],
        lambda rows, k: gammaln(k + 1.0),
    )
    return e_fact.reshape(p.shape)


def _multinomial_report(
    N: int, probs: np.ndarray, multiplicity: np.ndarray, budget: float = math.inf
) -> EntropyReport:
    """Decomposed entropy of N draws over levels of equally likely colours:
    multiplicity[i] colours have probability probs[i] each.

    The microstate term is N times the one-particle Shannon entropy; the
    indistinguishability term is ln N! minus the per-colour expectations of
    ln n_c! over the binomial marginals, each level's computed once.
    """
    probs = np.asarray(probs, dtype=np.float64)
    micro = N * float(-(multiplicity * xlogy(probs, probs)).sum())
    e_fact = _expected_log_factorial_binomial(N, probs, budget)
    expected_logW = log_factorial(N) - float((multiplicity * e_fact).sum())
    return EntropyReport(
        microstate_term=micro,
        expected_logW=expected_logW,
        total=micro - expected_logW,
        boltzmann=_log_multiplicity(N * probs, multiplicity),
        unit="nats",
    )


def multinomial_entropy(d: MultinomialDist) -> EntropyReport:
    """Decomposed entropy of the with-replacement occupancy distribution.

    Colours of equal probability are grouped, so the cost grows with the
    number of distinct probabilities rather than of colours.
    """
    levels, multiplicity = np.unique(d.p.probs, return_counts=True)
    return _multinomial_report(d.N, levels, multiplicity)


def szilard_split_entropy(d: SzilardSplitDist) -> float:
    """Entropy of the split-box occupancy distribution by the chain rule.

    The left-side count b is fixed by the occupancy vector, so
    H = H(Bin(N, f)) + sum_b P(b) [H(Mult(b, left)) + H(Mult(N - b, right))],
    summed by math.fsum: a plain dot product lands further from mpmath.
    """
    pb = d.split_probabilities()
    terms = [-float(x) for x in xlogy(pb, pb)]
    for b, q in enumerate(pb):
        if q > 0.0:
            left = multinomial_entropy(MultinomialDist(b, d.left_dist)).total
            right = multinomial_entropy(MultinomialDist(d.N - b, d.right_dist)).total
            terms.append(float(q) * (left + right))
    return math.fsum(terms) + 0.0


def _hypergeometric_log_expectations(
    U: int, counts: np.ndarray, N: int
) -> tuple[np.ndarray, np.ndarray]:
    """(E{ln n!}, E{ln C(u, n)}) for each colour count u of an array of
    urns of U balls each, with n ~ Hypergeometric(U, u, N).

    Equal counts are evaluated once. Each expectation is summed over the
    _count_window of the fraction u/U, cut to the support, which leaves
    out under 1e-17 of it.
    """
    counts = np.asarray(counts, dtype=np.int64)
    levels, where = np.unique(counts, return_inverse=True)
    u = levels.astype(np.float64)
    support_lo = np.maximum(0.0, N - (U - u))
    support_hi = np.minimum(float(N), u)
    frac = u / U if U else np.zeros_like(u)

    def log_floor():
        # as in the binomial kernel, one term at k0 is a floor under both
        # sums; ln u! bounds both ln n! and ln C(u, n) on the support
        k0 = np.clip(np.maximum(2.0, np.rint(N * frac)), support_lo, support_hi)
        log_choose_k0 = gammaln(u + 1.0) - gammaln(k0 + 1.0) - gammaln(u - k0 + 1.0)
        log_pmf_k0 = (
            log_choose_k0
            + gammaln(U - u + 1.0)
            - gammaln(N - k0 + 1.0)
            - gammaln(U - u - N + k0 + 1.0)
            - log_multinomial_coeff((N, U - N)).value
        )
        smaller_f = np.maximum(np.minimum(gammaln(k0 + 1.0), log_choose_k0), 0.0)
        with np.errstate(divide="ignore"):
            return log_pmf_k0 + np.log(smaller_f)

    lo, hi = _count_window(N, frac, log_floor, gammaln(u + 1.0))
    lo, hi = np.maximum(lo, support_lo), np.minimum(hi, support_hi)
    e_fact, e_binom = _window_means(
        lo,
        hi,
        lambda rows, k: (
            np.log(u[rows, None] - k + 1.0)
            + np.log(N - k + 1.0)
            - np.log(k)
            - np.log(U - u[rows, None] - N + k)
        ),
        lambda rows, k: gammaln(k + 1.0),
        lambda rows, k: (
            gammaln(u[rows, None] + 1.0)
            - gammaln(k + 1.0)
            - gammaln(u[rows, None] - k + 1.0)
        ),
    )
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


def _log_multiplicity(mean: np.ndarray, multiplicity) -> float:
    total = float((multiplicity * mean).sum())
    return log_factorial_real(total) - float((multiplicity * gammaln(mean + 1.0)).sum())


def boltzmann_entropy(mean_occupancy: Sequence[float]) -> float:
    """ln of the Gamma-extended multiplicity of a (real-valued) mean
    occupancy vector."""
    mean = np.asarray(mean_occupancy, dtype=np.float64)
    if np.any(mean < 0):
        raise ValueError("mean occupancies must be non-negative")
    return _log_multiplicity(mean, 1)


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
