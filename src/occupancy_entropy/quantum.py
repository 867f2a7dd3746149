"""Diagonal bosonic density operators and the information-theoretic
bookkeeping built on them: environment tracing, the Bayesian marginal
identity, the Holevo bound, empirical information, and measurement
ledgers.

Every operator handled here is diagonal in the occupancy-number basis, so
it is stored as a weight map and its von Neumann entropy is the Shannon
entropy of the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .combinatorics import (
    DEFAULT_CAP,
    CapExceededError,
    OccupancyVector,
    _require_cap,
    _require_fields,
    _require_list,
    _require_number,
    _require_seed,
    occupancy_count,
    require_int,
    support_matrix,
)
from .distributions import (
    DEFAULT_SEED,
    MultinomialDist,
    MvhgDist,
    OneParticleDistribution,
    _check_draw_cells,
    _mvhg_log_pmf_grid,
)
from .entropy import _mvhg_entropies, multinomial_entropy, mvhg_entropy
from .marginals import _BLOCK_CELLS

__all__ = [
    "BosonicDensityOperator",
    "HolevoEstimate",
    "LedgerStep",
    "MeasurementLedger",
    "trace_out_environment",
    "bayesian_marginal_check",
    "holevo_chi",
    "empirical_information",
    "measurement_ledger",
]

_WEIGHT_SUM_TOL = 1e-10
_EPS = 2.0**-52
# holevo_chi's default number of Monte Carlo universes, and the CLI's
_MC_SAMPLES = 10_000


@dataclass(frozen=True, eq=False)
class BosonicDensityOperator:
    """Mixed state of N bosons, diagonal in the occupancy basis."""

    weights: Mapping[OccupancyVector, float]
    N: int
    source: str

    def __post_init__(self) -> None:
        total = 0.0
        for key, w in self.weights.items():
            if key.total != self.N:
                raise ValueError(
                    f"weight key {key.counts} has {key.total} particles, expected {self.N}"
                )
            if w < 0:
                raise ValueError("weights must be non-negative")
            total += w
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "weights", dict(self.weights))

    def entropy(self) -> float:
        """Von Neumann entropy = Shannon entropy of the diagonal weights."""
        return -sum(w * math.log(w) for w in self.weights.values() if w > 0) + 0.0

    @classmethod
    def canonical(
        cls, N: int, p: OneParticleDistribution, cap: int = DEFAULT_CAP
    ) -> "BosonicDensityOperator":
        d = MultinomialDist(N, p)
        return cls(_weights_from(d, cap), N, "canonical")

    @classmethod
    def empirical(cls, urn: OccupancyVector, N: int, cap: int = DEFAULT_CAP):
        d = MultinomialDist(N, OneParticleDistribution.empirical_from_urn(urn))
        return cls(_weights_from(d, cap), N, "empirical")

    @classmethod
    def bayesian_marginal(
        cls,
        U: int,
        N: int,
        p: OneParticleDistribution,
        cap: int = DEFAULT_CAP,
    ) -> "BosonicDensityOperator":
        """Mixture over multinomially distributed universes of the traced
        operators; analytically this is again the canonical operator."""
        system, mixed = _bayesian_mixture(U, N, p, cap)
        weights = {
            OccupancyVector(tuple(int(x) for x in row)): float(w)
            for row, w in zip(system, mixed)
            if w > 0.0
        }
        return cls(weights, N, "bayesian_marginal")


def _weights_from(d, cap: int) -> dict[OccupancyVector, float]:
    counts = support_matrix(d.N, d.num_colors, cap=cap)
    logp = d.log_pmf_batch(counts)
    out: dict[OccupancyVector, float] = {}
    for row, lp in zip(counts, logp):
        if lp > -np.inf:
            out[OccupancyVector(tuple(int(x) for x in row))] = math.exp(lp)
    return out


def _bayesian_mixture(
    U: int, N: int, p: OneParticleDistribution, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """The N-particle support and the prior-weighted sum over it of the
    operators traced from each U-particle universe, from the MVHG log-pmf
    grid in (urns x system) blocks of at most _BLOCK_CELLS (urn, system,
    colour) cells. Each block is added urn after urn (np.add.accumulate), so
    the sum does not depend on the block size, and at U == N the mixture is
    the prior bit for bit. CapExceededError if the urn and system supports
    have more than ``cap`` pairs, ValueError for a negative cap."""
    _require_cap(cap)
    required = occupancy_count(U, p.num_colors) * occupancy_count(N, p.num_colors)
    if required > cap:
        raise CapExceededError(
            f"urn/system support product {required} exceeds cap {cap}", required, cap
        )
    system = support_matrix(N, p.num_colors, cap=cap)
    urns = support_matrix(U, p.num_colors, cap=cap)
    prior = np.exp(MultinomialDist(U, p).log_pmf_batch(urns))
    mixed = np.zeros(system.shape[0])
    cols = max(1, min(system.shape[0], _BLOCK_CELLS // p.num_colors))
    rows = max(1, _BLOCK_CELLS // (cols * p.num_colors))
    for c in range(0, system.shape[0], cols):
        for r in range(0, urns.shape[0], rows):
            grid = _mvhg_log_pmf_grid(urns[r : r + rows], system[c : c + cols], U, N)
            terms = prior[r : r + rows, None] * np.exp(grid)
            terms[0] += mixed[c : c + cols]
            mixed[c : c + cols] = np.add.accumulate(terms)[-1]
    return system, mixed


def trace_out_environment(
    universe: OccupancyVector, N: int, cap: int = DEFAULT_CAP
) -> BosonicDensityOperator:
    """Reduce a pure occupancy eigenstate of U bosons to the mixed state of
    an N-boson subsystem; the weights are the without-replacement draw
    probabilities."""
    d = MvhgDist(universe, N)  # validates 0 <= N <= U
    op = BosonicDensityOperator(_weights_from(d, cap), N, "traced_from_universe")
    return op


def bayesian_marginal_check(
    U: int,
    N: int,
    p: OneParticleDistribution,
    cap: int = DEFAULT_CAP,
) -> float:
    """Max absolute gap between the prior-averaged traced weights and the
    direct N-particle multinomial weights (analytically zero; exactly zero
    at U == N)."""
    system, mixed = _bayesian_mixture(U, N, p, cap)
    direct = np.exp(MultinomialDist(N, p).log_pmf_batch(system))
    return float(np.abs(mixed - direct).max())


@dataclass(frozen=True)
class HolevoEstimate:
    chi: float
    standard_error: float | None
    mode: str


def holevo_chi(
    U: int,
    N: int,
    p: OneParticleDistribution,
    mode: str = "exact",
    mc_samples: int = _MC_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> HolevoEstimate:
    """Upper bound on the information any measurement on the system can
    extract about the universe outcome:
    chi = S(canonical) - E_prior{ S(traced) } >= 0. ValueError for N
    outside [0, U], and in either mode for fewer than 2 ``mc_samples`` or
    a seed that is not a non-negative integer.

    Exact mode evaluates the closed form
    chi = H(Mult(U, p)) - H(Mult(U - N, p)), which holds because the
    environment's draws are independent of the system's, so no universe
    occupancy is enumerated, at any U. Each entropy is within a few eps of
    itself, so chi is within about eps H / chi: at U = 100,100, N = 100,
    p = (0.3, 0.7), where chi is 5e-4 and each H 6.4 nats, 2.9e-12 of a
    40-digit reference, within the 1e-11 the tests hold.

    Monte Carlo mode draws ``mc_samples`` universes from the prior
    (_prior_universes: k - 1 conditional binomials a universe), and
    only estimates the conditional term (the unconditional entropy is
    analytic either way), reporting the standard error of the estimate.
    With no draws or one colour of positive probability chi is 0.0 with
    standard error 0.0, and nothing is drawn.

    Rounding bound. A universe's term ln C(U, N) - sum_c E{ln C(u_c, n_c)}
    is a few nats, but each E{ln C(u, n)} is the window mean (over at most
    N + 1 counts) of cells ln u! - ln n! - ln(u - n)!, so its rounding is of
    the size of ln u!, not of the term. To first order in eps = 2^-52, with
    s(m) = 25 + log2 m the most additions a numpy pairwise sum of m terms
    (blocks of at most 128 in 8 accumulators, then halving) passes one
    term through, the estimate is within
        B = (61 + log2(N + 1) + log2(k S) / 2) eps ln U!
    of its value in exact arithmetic, for k colours and S samples:
      (a) each ln m! (scipy's gammaln, or the table of its bits) is within
          2 eps of itself (cephes states a 3.5e-16 peak past e); a cell has
          three of them, ln n! + ln(u - n)! <= ln u!, and two subtractions
          whose results lie in [0, ln u!], so it is within 5 eps ln u!;
      (b) the mean is a sum of the products of the cells and weights over a
          sum of the weights, all non-negative: the products, both sums and
          the quotient add (s(N + 1) + 1) eps ln u!, and the window leaves
          out under 1e-17 of the mean, so each E{ln C(u, n)} is within
          (s(N + 1) + 7) eps ln u!;
      (c) the sum over colours adds s(k)/2 eps sum_c ln u_c!;
      (d) ln C(U, N) (_count_log_choose) and the subtraction add under
          4 eps ln C(U, N); a term lies in [0, ln C(U, N)], the entropy of
          the draw of N of U balls, so the mean over the samples adds
          s(S)/2 eps ln C(U, N);
      (e) sum_c ln u_c! <= ln U! (a multinomial coefficient is >= 1) and
          ln C(U, N) <= ln U!, so the total is at most (s(N + 1) + s(k)/2
          + s(S)/2 + 11) eps ln U! = B. The system entropy adds a few eps
          of itself, which is of the size of a term, not of ln U!.
    Measured against 50-digit mpmath terms, single universes at
    U = 10^6..10^10 come within 0.6 eps sum_c ln u_c!. The leading-order
    chi is (k+ - 1)/2 ln(U / (U - N)) for k+ colours of positive
    probability, which falls like N / U while B grows like U ln U; a run
    whose B exceeds 1 % of it raises CapExceededError (B is ``required``,
    the 1 % the ``cap``) before drawing anything: at N = 100 and
    p = (0.5, 0.3, 0.2), U = 10^6 runs and U = 10^7 is refused.
    """
    if not 0 <= N <= U:
        raise ValueError(f"draw count {N} outside [0, {U}]")
    if mc_samples < 2:  # refused in exact mode too, which draws none
        raise ValueError(f"mc_samples must be at least 2, got {mc_samples}")
    _require_seed(seed)
    if mode == "exact":
        whole, rest = (multinomial_entropy(MultinomialDist(n, p)).total for n in (U, U - N))
        return HolevoEstimate(whole - rest, None, "exact")
    if mode == "monte_carlo":
        colours = int(np.count_nonzero(p.probs))
        if N == 0 or colours == 1:
            return HolevoEstimate(0.0, 0.0, "monte_carlo")
        bound = (61 + math.log2(N + 1) + math.log2(p.num_colors * mc_samples) / 2
                 ) * _EPS * math.lgamma(U + 1.0)
        limit = 0.01 * (colours - 1) / 2 * (-math.log1p(-N / U) if N < U else math.inf)
        if bound > limit:
            raise CapExceededError(
                f"monte_carlo rounding bound {bound:.3g} nats exceeds 1% of the "
                f"leading-order chi, {limit:.3g} nats", bound, limit)
        s_system = multinomial_entropy(MultinomialDist(N, p)).total
        urns = _prior_universes(U, p, mc_samples, seed)
        vals = _mvhg_entropies(U, urns, N)[1]
        se = float(vals.std(ddof=1) / math.sqrt(mc_samples))
        return HolevoEstimate(s_system - float(vals.mean()), se, "monte_carlo")
    raise ValueError(f"unknown mode {mode!r}")


def _prior_universes(
    U: int, p: OneParticleDistribution, samples: int, seed: int
) -> np.ndarray:
    """``samples`` universes of U particles from Mult(U, p), as a
    (samples, colours) int64 array: ``np.random.default_rng(seed)
    .multinomial(U, q, size=samples)`` over the colours of positive
    probability, q their probabilities over their sum (so numpy never finds
    them summing past 1 + 1e-12), and 0 at the others. numpy draws a
    universe as k - 1 conditional binomials (BTPE, Kachitvichyanukul and
    Schmeiser 1988), O(k) at any U, and gives the last colour the rest;
    a colour of zero probability left last could otherwise get the
    rounding of the others' sum."""
    _check_draw_cells(samples, p.num_colors, "a Monte Carlo prior draw")
    positive = p.probs > 0.0
    q = p.probs[positive]
    out = np.zeros((samples, p.num_colors), dtype=np.int64)
    out[:, positive] = np.random.default_rng(seed).multinomial(U, q / q.sum(), size=samples)
    return out


def empirical_information(universe: OccupancyVector, N: int) -> float:
    """Entropy surplus of the empirical multinomial model over the actual
    without-replacement distribution; non-negative because the multinomial
    maximizes entropy at fixed one-particle distribution."""
    if N == 0:
        return 0.0
    if N > universe.total:
        raise ValueError("system cannot hold more particles than the universe")
    model = MultinomialDist(N, OneParticleDistribution.empirical_from_urn(universe))
    return multinomial_entropy(model).total - mvhg_entropy(MvhgDist(universe, N)).total


# --- measurement ledgers -----------------------------------------------------

# each start kind -> the fields it needs besides kind and N
_START_KINDS = {"bayesian": ("probs",), "empirical": ("urn",), "agnostic": ()}
# each step op -> the fields besides op that it needs, and the only ones it takes
_STEP_OPS = {"pvm_on_universe": {"urn"}, "povm_empirical_model": {"urn"},
             "pvm_on_system": set(), "separate_system": set()}
_NEGATIVE_INFO_TOL = -1e-12


@dataclass(frozen=True)
class LedgerStep:
    """One measurement row; None marks a genuinely undefined entropy or
    information value (agnostic experimenter), on which arithmetic is
    impossible by construction."""

    label: str
    pre_entropy: float | None
    post_entropy: float | None
    information_gained: float | None


@dataclass(frozen=True)
class MeasurementLedger:
    steps: tuple[LedgerStep, ...]

    def __post_init__(self) -> None:
        for s in self.steps:
            if (
                s.information_gained is not None
                and s.pre_entropy is not None
                and s.post_entropy is not None
            ):
                if abs(s.information_gained - (s.pre_entropy - s.post_entropy)) > 1e-12:
                    raise ValueError(f"inconsistent ledger row {s!r}")
            if s.information_gained is not None and s.information_gained < _NEGATIVE_INFO_TOL:
                raise ValueError(f"negative information in ledger row {s!r}")

    @property
    def total_information(self) -> float | None:
        """Sum of gains, or None as soon as any row is undefined."""
        total = 0.0
        for s in self.steps:
            if s.information_gained is None:
                return None
            total += s.information_gained
        return total


def measurement_ledger(start: dict, steps: Sequence[dict]) -> MeasurementLedger:
    """Run a measurement scenario and account for every entropy collapse.

    ``start`` is one of
      {"kind": "bayesian",  "N": int, "probs": [...]}
      {"kind": "empirical", "N": int, "urn": [...]}
      {"kind": "agnostic",  "N": int}
    and each step one of
      {"op": "pvm_on_universe", "urn": [...]}
      {"op": "povm_empirical_model", "urn": [...]}   (agnostic start only)
      {"op": "pvm_on_system"}
      {"op": "separate_system"}                      (zero-gain annotation)

    A projective measurement of the system always posts entropy zero and
    ends the scenario. Under an agnostic start the first gain is undefined
    (None), never a sentinel number. A scenario with a field missing or
    mistyped, N < 0 or steps not a list is refused with ValueError naming
    the field.
    """
    _require_fields(start, {"kind"}, {"N", "probs", "urn"}, "scenario start")
    kind = start["kind"]
    if not isinstance(kind, str) or kind not in _START_KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    _require_fields(start, {"kind", "N", *_START_KINDS[kind]}, set(), f"{kind} start")
    N = require_int(start["N"], "N")
    if N < 0:
        raise ValueError(f"N must be non-negative, got {N}")
    steps = _require_list(steps, "steps", lambda step, _: step)
    declared_urn: OccupancyVector | None = None
    if kind == "bayesian":
        p = OneParticleDistribution(_require_list(start["probs"], "probs", _require_number))
        current: float | None = multinomial_entropy(MultinomialDist(N, p)).total
    elif kind == "empirical":
        declared_urn = OccupancyVector(tuple(_require_list(start["urn"], "urn", require_int)))
        model = MultinomialDist(
            N, OneParticleDistribution.empirical_from_urn(declared_urn)
        )
        current = multinomial_entropy(model).total
    else:
        current = None

    rows: list[LedgerStep] = []
    universe_measured = False
    collapsed = False
    for raw in steps:
        _require_fields(raw, {"op"}, {"urn"}, "scenario step")
        op = raw["op"]
        if not isinstance(op, str) or op not in _STEP_OPS:
            raise ValueError(f"unknown step op {op!r}")
        _require_fields(raw, {"op", *_STEP_OPS[op]}, set(), f"{op} step")
        if collapsed:
            raise ValueError("scenario continues after the system was collapsed")
        if "urn" in raw:
            urn = OccupancyVector(tuple(_require_list(raw["urn"], "urn", require_int)))
        if op == "separate_system":
            rows.append(LedgerStep("separate_system", current, current,
                                   0.0 if current is not None else None))
            continue
        if op == "pvm_on_universe":
            if universe_measured:
                raise ValueError("universe already measured in this scenario")
            if declared_urn is not None and urn != declared_urn:
                raise ValueError(
                    "empirical model was built from a different universe outcome"
                )
            post = mvhg_entropy(MvhgDist(urn, N)).total
            gain = current - post if current is not None else None
            rows.append(LedgerStep("pvm_on_universe", current, post, gain))
            current = post
            universe_measured = True
            continue
        if op == "povm_empirical_model":
            if kind != "agnostic" or universe_measured or rows:
                raise ValueError(
                    "povm_empirical_model is only valid as the first step of "
                    "an agnostic scenario"
                )
            pre = multinomial_entropy(
                MultinomialDist(N, OneParticleDistribution.empirical_from_urn(urn))
            ).total
            post = mvhg_entropy(MvhgDist(urn, N)).total
            rows.append(LedgerStep("povm_empirical_model", pre, post, pre - post))
            current = post
            universe_measured = True
            continue
        # pvm_on_system
        gain = current if current is not None else None
        rows.append(LedgerStep("pvm_on_system", current, 0.0, gain))
        current = 0.0
        collapsed = True
    return MeasurementLedger(tuple(rows))

