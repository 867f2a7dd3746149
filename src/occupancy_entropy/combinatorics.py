"""Occupancy vectors, their supports and the cap on enumerating them.

Multiplicities of occupancy macrostates overflow 64-bit integers already
around 21 particles, so probability arithmetic never touches raw
factorials: ln k! at whole counts lives in the marginals module, exact
big-integer combinatorics in the oracle module only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterator

import numpy as np

__all__ = [
    "CapExceededError",
    "OccupancyVector",
    "enumerate_occupancies",
    "occupancy_count",
    "DEFAULT_CAP",
]

# Default cap on the occupancy vectors (or microstates) an exact path walks
DEFAULT_CAP = 10**6


class CapExceededError(RuntimeError):
    """An enumeration or summation would exceed its configured size cap:
    it needed ``required``, over ``cap``."""

    def __init__(self, message: str, required: int | float, cap: int | float):
        super().__init__(message)
        self.required = required
        self.cap = cap


@dataclass(frozen=True)
class OccupancyVector:
    """Vector of per-color occupancy counts; the macrostate of N bosons.

    Immutable and hashable, so it can key probability tables. Entries must
    be non-negative.
    """

    counts: tuple[int, ...]
    total: int = field(init=False)

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError(f"occupancy counts must be non-negative, got {counts}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", sum(counts))

    @property
    def num_colors(self) -> int:
        return len(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i: int) -> int:
        return self.counts[i]

    def __iter__(self):
        return iter(self.counts)

    def scaled(self, k: int) -> "OccupancyVector":
        """Urn with every count multiplied by integer k >= 1."""
        if k < 1:
            raise ValueError("scale factor must be a positive integer")
        return OccupancyVector(tuple(k * c for c in self.counts))


def require_int(value, what: str) -> int:
    """``value`` as an int. Bools, strings and non-integral numbers are
    refused with ValueError instead of being truncated, and so are integers
    past 64 bits, which the int64 arrays downstream cannot hold."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{what} must be an integer of at most 64 bits, got {value!r}")
    return int(value)


def _require_cap(cap: int) -> None:
    """ValueError for a negative cap, which is bad input, not a cap that a
    walk could exceed; a cap of 0 refuses every walk as a cap error."""
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")


def _require_seed(seed) -> None:
    """ValueError naming the seed unless it is a non-negative integer, the
    seeds numpy's generators take."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _require_number(value, what: str) -> float:
    """``value`` as a float. Only ints and floats pass: bools, strings,
    nulls and containers are refused with ValueError instead of being
    converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} must be a number of float range, got {value!r}") from None


def _require_list(value, what: str, entry) -> list:
    """``value``, which must be a list (a JSON array; a tuple from Python
    callers), with ``entry`` (say require_int) checking and converting each
    of its entries; ValueError for any other type."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return [entry(x, f"each entry of {what}") for x in value]


def _require_fields(obj: dict, required: set, optional: set, what: str) -> None:
    """ValueError unless ``obj`` is a dict (a JSON object) with every field
    of ``required`` and no field outside ``required`` and ``optional``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {obj!r}")
    missing = required - set(obj)
    if missing:
        raise ValueError(f"{what}: missing fields {sorted(missing)}")
    unknown = set(obj) - required - optional
    if unknown:
        raise ValueError(f"{what}: unknown fields {sorted(unknown)}")


def occupancy_count(total: int, num_colors: int) -> int:
    """Number of occupancy vectors of `total` particles over `num_colors`."""
    if total < 0 or num_colors < 1:
        raise ValueError("need total >= 0 and num_colors >= 1")
    return math.comb(total + num_colors - 1, num_colors - 1)


def _check_support(total: int, num_colors: int, cap: int, advice: str = "") -> int:
    """:func:`occupancy_count`, or CapExceededError stating both numbers
    and ``advice`` if it is over ``cap``; ValueError for a negative cap."""
    _require_cap(cap)
    count = occupancy_count(total, num_colors)
    if count > cap:
        hint = f"; {advice}" if advice else ""
        raise CapExceededError(
            f"support of {count} occupancy vectors exceeds cap {cap}{hint}", count, cap
        )
    return count


def enumerate_occupancies(
    total: int, num_colors: int, cap: int = DEFAULT_CAP
) -> Iterator[OccupancyVector]:
    """Yield every occupancy vector of `total` particles over `num_colors`:
    the rows of :func:`support_matrix`, which refuses up front if the
    stars-and-bars count exceeds `cap`."""
    for t in support_matrix(total, num_colors, cap).tolist():
        yield OccupancyVector(tuple(t))


@lru_cache(maxsize=256)
def support_matrix(total: int, num_colors: int, cap: int = DEFAULT_CAP) -> np.ndarray:
    """All occupancy vectors as a read-only (count, num_colors) int array.

    Order is by descending leading counts, i.e. (N,0,...,0) first and
    (0,...,0,N) last; cached because entropy and distance computations
    revisit the same small supports many times. Each row is one placement
    of num_colors - 1 bars among total + num_colors - 1 slots, the counts
    the gaps between them: itertools.combinations gives the placements in
    ascending order, which is the rows' order reversed.
    """
    count = _check_support(total, num_colors, cap)
    slots, bars = total + num_colors - 1, num_colors - 1
    flat = chain.from_iterable(combinations(range(slots), bars))
    placed = np.fromiter(flat, dtype=np.int64, count=count * bars).reshape(count, bars)
    edges = np.empty((count, num_colors + 1), dtype=np.int64)
    edges[:, 0], edges[:, 1:-1], edges[:, -1] = -1, placed[::-1], slots
    out = np.diff(edges, axis=1) - 1
    out.setflags(write=False)
    return out
