"""Independent reference implementations for validating the analytic
paths at small scale.

Everything here is exact rational arithmetic end to end (so the oracle
cannot share failure modes with the log-domain float code it checks) and
deliberately slow: caps keep it honest about its small-instance scope.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .combinatorics import DEFAULT_CAP, CapExceededError, OccupancyVector
from .distributions import DEFAULT_SEED, OccupancyDistribution, sample

__all__ = [
    "exact_multinomial_coeff",
    "brute_force_mvhg",
    "brute_force_partial_trace",
    "mc_entropy_estimate",
]

DEFAULT_URN_CAP = 10


def exact_multinomial_coeff(counts) -> int:
    """Big-integer multinomial coefficient; 0 if any entry is negative."""
    cs = [int(c) for c in counts]
    if any(c < 0 for c in cs):
        return 0
    out = math.factorial(sum(cs))
    for c in cs:
        out //= math.factorial(c)
    return out


def brute_force_mvhg(
    urn: OccupancyVector, N: int, urn_cap: int = DEFAULT_URN_CAP
) -> dict[OccupancyVector, Fraction]:
    """Exact occupancy probabilities of N draws without replacement.

    Walks the sequential draw tree (probability of a color at each step is
    its remaining count over the remaining total), merging branches that
    share a tally. No binomial coefficients anywhere.
    """
    if urn.total > urn_cap:
        raise CapExceededError(
            f"urn of {urn.total} exceeds oracle cap {urn_cap}", urn.total, urn_cap
        )
    if not 0 <= N <= urn.total:
        raise ValueError(f"draw count {N} outside [0, {urn.total}]")
    num_colors = urn.num_colors
    states: dict[tuple[int, ...], Fraction] = {(0,) * num_colors: Fraction(1)}
    for step in range(N):
        remaining_total = urn.total - step
        nxt: dict[tuple[int, ...], Fraction] = {}
        for tally, prob in states.items():
            for c in range(num_colors):
                avail = urn[c] - tally[c]
                if avail <= 0:
                    continue
                new_tally = tally[:c] + (tally[c] + 1,) + tally[c + 1 :]
                contrib = prob * Fraction(avail, remaining_total)
                nxt[new_tally] = nxt.get(new_tally, Fraction(0)) + contrib
        states = nxt
    return {OccupancyVector(t): p for t, p in states.items()}


@lru_cache(maxsize=64)
def _prefix_tally_tables(
    urn_counts: tuple[int, ...], cap: int
) -> tuple[int, tuple[dict, ...]]:
    """Enumerate every microstate (ordered color string) with the given
    occupancy and tabulate, for each prefix length, how many microstates
    share each prefix tally. Returns (microstate count, per-length tables).

    The walk costs microstates x total steps, so CapExceededError is raised
    when that exceeds ``cap``, before any table is made; the multinomial
    coefficient is built factor by factor and the check stops once it passes
    cap // total.
    """
    total = sum(urn_counts)
    num_colors = len(urn_counts)
    limit = cap // total if total else math.inf
    microstates, seen = 1, 0
    # ascending counts keep each factor C(seen + u, m), m = min(u, seen), at
    # most halfway along its row, so every step at least doubles the product
    for u in sorted(urn_counts):
        m, i = min(u, seen), 0
        while i < m and microstates <= limit:
            i += 1
            microstates = microstates * (seen + u - m + i) // i
        seen += u
        if microstates > limit:
            bound = "" if seen == total and i == m else "at least "
            raise CapExceededError(
                f"{bound}{microstates * total} steps ({total} particles in each of "
                f"{bound}{microstates} microstates of occupancy {urn_counts}) "
                f"exceed the cap of {cap}",
                microstates * total,
                cap,
            )
    tables: list[dict[tuple[int, ...], int]] = [dict() for _ in range(total + 1)]
    tables[0] = {(0,) * num_colors: microstates}
    # the microstates in lexicographic order, each from the last by the
    # next-permutation step
    path = [c for c, u in enumerate(urn_counts) for _ in range(u)]
    while True:
        tally = [0] * num_colors
        for d, color in enumerate(path, 1):
            tally[color] += 1
            key = tuple(tally)
            tables[d][key] = tables[d].get(key, 0) + 1
        i = total - 2
        while i >= 0 and path[i] >= path[i + 1]:
            i -= 1
        if i < 0:
            return microstates, tuple(tables)
        j = total - 1
        while path[j] <= path[i]:
            j -= 1
        path[i], path[j] = path[j], path[i]
        path[i + 1 :] = path[: i : -1]


def brute_force_partial_trace(
    urn: OccupancyVector, N: int, microstate_cap: int = DEFAULT_CAP
) -> dict[OccupancyVector, Fraction]:
    """Trace the environment out of the uniform microstate ensemble.

    All microstates compatible with the universe occupancy are enumerated
    with equal weight, and the induced distribution of the occupancy of
    the first N particles is returned exactly.
    """
    if not 0 <= N <= urn.total:
        raise ValueError(f"system size {N} outside [0, {urn.total}]")
    total_microstates, tables = _prefix_tally_tables(urn.counts, microstate_cap)
    return {
        OccupancyVector(t): Fraction(count, total_microstates)
        for t, count in tables[N].items()
    }


def mc_entropy_estimate(
    d: OccupancyDistribution, samples: int, seed: int = DEFAULT_SEED
) -> tuple[float, float]:
    """Plug-in entropy estimate -mean(log pmf) over ``samples`` seeded
    draws, and its standard error std(ddof=1) / sqrt(samples), which is the
    leave-one-out jackknife of a mean in closed form; seed-reproducible bit
    for bit."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    vals = -d.log_pmf_batch(sample(d, samples, seed))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))
