"""Log-domain combinatorial primitives for occupancy statistics.

Everything here works in the natural-log domain: multiplicities of
occupancy macrostates overflow 64-bit integers already around 21
particles, so probability arithmetic never touches raw factorials.
Exact big-integer combinatorics lives in the oracle module only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar, Iterator, Sequence

import numpy as np

__all__ = [
    "CapExceededError",
    "OccupancyVector",
    "LogWeight",
    "log_factorial",
    "log_factorial_real",
    "log_multinomial_coeff",
    "enumerate_occupancies",
    "occupancy_count",
    "DEFAULT_CAP",
    "DEFAULT_ENUMERATION_CAP",
]

# Default cap on the occupancy vectors (or microstates) an exact path walks;
# the lazy enumerate_occupancies keeps its own higher default.
DEFAULT_CAP = 10**6
DEFAULT_ENUMERATION_CAP = 10**8


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
    be non-negative; raw (possibly negative) difference vectors are handled
    by :func:`log_multinomial_coeff` directly on plain sequences.
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


@dataclass(frozen=True)
class LogWeight:
    """A multiplicity in log-domain, or the tagged zero-multiplicity value.

    ``impossible`` marks log(0): macrostates ruled out combinatorially
    (some occupancy entry negative). Exactly one of "finite value" /
    "impossible" holds.
    """

    value: float
    impossible: bool = False

    IMPOSSIBLE: ClassVar["LogWeight"]

    def __post_init__(self) -> None:
        if self.impossible:
            object.__setattr__(self, "value", float("-inf"))
        elif not math.isfinite(self.value):
            raise ValueError("finite log-weight required unless impossible flag is set")

    def exp(self) -> float:
        return 0.0 if self.impossible else math.exp(self.value)


LogWeight.IMPOSSIBLE = LogWeight(float("-inf"), impossible=True)

# n! is exactly representable well past n=20; a lookup beats lgamma there.
_EXACT_TABLE_MAX = 20
_LOG_FACTORIAL_TABLE = tuple(
    math.log(math.factorial(n)) if n > 1 else 0.0 for n in range(_EXACT_TABLE_MAX + 1)
)


def require_int(value, what: str) -> int:
    """``value`` as an int. Bools, strings and non-integral numbers are
    refused with ValueError instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _require_fields(obj: dict, required: set, optional: set, what: str) -> None:
    """ValueError unless ``obj`` has every field of ``required`` and no
    field outside ``required`` and ``optional``."""
    missing = required - set(obj)
    if missing:
        raise ValueError(f"{what}: missing fields {sorted(missing)}")
    unknown = set(obj) - required - optional
    if unknown:
        raise ValueError(f"{what}: unknown fields {sorted(unknown)}")


def log_factorial(n: int) -> float:
    """ln(n!) for integer n >= 0."""
    if n < 0:
        raise ValueError(f"factorial undefined for negative n={n}")
    if n <= _EXACT_TABLE_MAX:
        return _LOG_FACTORIAL_TABLE[n]
    return math.lgamma(n + 1.0)


def log_factorial_real(x: float) -> float:
    """ln Gamma(x+1), the factorial extended to real x >= 0.

    Agrees with :func:`log_factorial` on integers to better than 1e-12.
    """
    if x < 0:
        raise ValueError(f"real factorial undefined for negative x={x}")
    return math.lgamma(x + 1.0)


def log_multinomial_coeff(counts: Sequence[int]) -> LogWeight:
    """ln of the number of microstates compatible with an occupancy vector.

    Accepts raw integer sequences because difference vectors that arise in
    urn calculations legitimately go negative; any negative entry means
    zero multiplicity and yields the impossible log-weight rather than an
    error.
    """
    total = 0
    acc = 0.0
    for c in counts:
        if c < 0:
            return LogWeight.IMPOSSIBLE
        total += c
        acc += log_factorial(c)
    return LogWeight(log_factorial(total) - acc)


def occupancy_count(total: int, num_colors: int) -> int:
    """Number of occupancy vectors of `total` particles over `num_colors`."""
    if total < 0 or num_colors < 1:
        raise ValueError("need total >= 0 and num_colors >= 1")
    return math.comb(total + num_colors - 1, num_colors - 1)


def _check_support(total: int, num_colors: int, cap: int, advice: str = "") -> int:
    """:func:`occupancy_count`, or CapExceededError stating both numbers
    and ``advice`` if it is over ``cap``."""
    count = occupancy_count(total, num_colors)
    if count > cap:
        hint = f"; {advice}" if advice else ""
        raise CapExceededError(
            f"support of {count} occupancy vectors exceeds cap {cap}{hint}", count, cap
        )
    return count


def enumerate_occupancies(
    total: int, num_colors: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[OccupancyVector]:
    """Yield every occupancy vector of `total` particles over `num_colors`.

    Order is by descending leading counts, i.e. (N,0,...,0) first and
    (0,...,0,N) last. Refuses up front if the stars-and-bars count exceeds
    `cap`.
    """
    _check_support(total, num_colors, cap)
    for t in _occupancy_tuples(total, num_colors):
        yield OccupancyVector(t)


def _occupancy_tuples(total: int, num_colors: int) -> Iterator[tuple[int, ...]]:
    if num_colors == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _occupancy_tuples(total - head, num_colors - 1):
            yield (head,) + tail


@lru_cache(maxsize=256)
def support_matrix(total: int, num_colors: int, cap: int = DEFAULT_CAP) -> np.ndarray:
    """All occupancy vectors as a read-only (count, num_colors) int array.

    Same order as :func:`enumerate_occupancies`; cached because entropy and
    distance computations revisit the same small supports many times.
    """
    count = _check_support(total, num_colors, cap)
    out = np.empty((count, num_colors), dtype=np.int64)
    for i, t in enumerate(_occupancy_tuples(total, num_colors)):
        out[i] = t
    out.setflags(write=False)
    return out
