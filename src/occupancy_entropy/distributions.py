"""Occupancy-number distributions: urn draws, their multinomial limit,
and the split-box mixture.

Probability evaluation is done in the log domain and exponentiated at the
boundary; the individual multiplicities in the urn ratio overflow floats
long before the ratio itself becomes extreme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .combinatorics import (
    DEFAULT_CAP,
    CapExceededError,
    OccupancyVector,
    _check_support,
    _require_seed,
    require_int,
    support_matrix,
)
from .marginals import (
    _BLOCK_CELLS,
    _binomial_marginal,
    _count_log_choose,
    _hypergeometric_marginal,
    _log_factorial,
    log_factorial,
)

__all__ = [
    "OneParticleDistribution",
    "MultinomialDist",
    "MvhgDist",
    "SzilardSplitDist",
    "marginal",
    "sample",
    "tv_distance",
    "convergence_scan",
    "DEFAULT_SEED",
]

# Fixed default seed for every sampling entry point (never time-based).
DEFAULT_SEED = 42

_PROB_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class OneParticleDistribution:
    """Probability simplex over the single-particle states ("colors").

    Zero-probability colors stay in the support so color indexing survives
    spectrum truncation.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64).copy()
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(float(p.sum()) - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_weights(cls, weights: Sequence[float]) -> "OneParticleDistribution":
        w = np.asarray(weights, dtype=np.float64)
        if not np.all(np.isfinite(w)) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be finite, non-negative, with positive sum")
        return cls(w / w.sum())

    @classmethod
    def empirical_from_urn(cls, urn: OccupancyVector) -> "OneParticleDistribution":
        if urn.total == 0:
            raise ValueError("empirical distribution needs a non-empty urn")
        p = np.asarray(urn.counts, dtype=np.float64) / urn.total
        return cls(p)

    @property
    def num_colors(self) -> int:
        return int(self.probs.size)

    def __len__(self) -> int:
        return self.num_colors

    def entropy(self) -> float:
        """Shannon entropy in nats, with 0*log(0) := 0."""
        p = self.probs[self.probs > 0]
        return float(-(p * np.log(p)).sum())


# Each law takes these two as its own log_pmf and pmf: perfbench/tracing.py
# patches both names in each class's own __dict__.
def _one_row_log_pmf(d, n: Sequence[int]) -> float:
    """ln P(n), the one-row view of the law's log_pmf_batch, so it has the
    batch's bits."""
    if len(n) != d.num_colors:
        raise ValueError(f"occupancy vector has {len(n)} colors, expected {d.num_colors}")
    return float(d.log_pmf_batch(np.asarray([n], dtype=np.int64))[0])


def _pmf(d, n: Sequence[int]) -> float:
    return math.exp(d.log_pmf(n))


@dataclass(frozen=True, eq=False)
class MultinomialDist:
    """Occupancy distribution of N draws with replacement (canonical limit)."""

    N: int
    p: OneParticleDistribution

    def __post_init__(self) -> None:
        if self.N < 0:
            raise ValueError("N must be non-negative")

    @property
    def num_colors(self) -> int:
        return self.p.num_colors

    log_pmf, pmf = _one_row_log_pmf, _pmf

    def log_pmf_batch(self, counts: np.ndarray) -> np.ndarray:
        """Log-pmf over rows of an occupancy matrix (rows must sum to N):
        ln N! - sum_c ln n_c!, then + sum_c n_c ln p_c, each sum a row-wise
        reduction, so a row's bits do not depend on the other rows."""
        counts = np.asarray(counts)
        p = self.p.probs
        logp = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), 0.0)
        out = log_factorial(self.N) - _log_factorial(counts).sum(axis=1)
        out += (counts * logp).sum(axis=1)
        bad = (counts[:, p == 0.0] > 0).any(axis=1) | (counts.sum(axis=1) != self.N)
        out[bad] = -np.inf
        return out


@dataclass(frozen=True, eq=False)
class MvhgDist:
    """Occupancy distribution of N draws without replacement from an urn.

    This is exactly the diagonal weight pattern obtained by tracing the
    environment out of a pure occupancy eigenstate of the whole universe.
    """

    urn: OccupancyVector
    draw_count: int

    def __post_init__(self) -> None:
        require_int(self.urn.total, "urn total")
        if not 0 <= self.draw_count <= self.urn.total:
            raise ValueError(
                f"draw count {self.draw_count} outside [0, {self.urn.total}]"
            )

    @property
    def N(self) -> int:
        return self.draw_count

    @property
    def num_colors(self) -> int:
        return self.urn.num_colors

    log_pmf, pmf = _one_row_log_pmf, _pmf

    def log_pmf_batch(self, counts: np.ndarray) -> np.ndarray:
        counts = np.asarray(counts)
        u = np.asarray(self.urn.counts)[None, :]
        out = _mvhg_log_pmf_grid(u, counts, self.urn.total, self.draw_count)[0]
        out[(counts < 0).any(axis=1) | (counts.sum(axis=1) != self.draw_count)] = -np.inf
        return out


def _mvhg_log_pmf_grid(urns: np.ndarray, counts: np.ndarray, U, N: int) -> np.ndarray:
    """ln P(n | u) of N draws without replacement from urn u, over every
    urn row u of U balls (of U[r] balls in row r for an array U) and every
    count row n of N draws: the (urns x counts) grid of
    sum_c [ln u_c! - (ln n_c! + ln (u_c - n_c)!)] - ln C(U, N), with
    ln C(U, N) from _count_log_choose, -inf where some n_c > u_c. Rows that
    are not of U balls or N draws are not checked."""
    u, n = urns[:, None, :], counts[None, :, :]
    impossible = n > u
    # the rows with some n_c > u_c are set to -inf below, whatever they read
    rest = np.where(impossible, 0, u - n)
    # n and u - n enter alike, so the drawn and the left-behind counts of
    # the same split have the same bits
    terms = _log_factorial(u) - (_log_factorial(n) + _log_factorial(rest))
    out = terms.sum(axis=-1) - _count_log_choose(U, N)[..., None]
    out[impossible.any(axis=-1)] = -np.inf
    return out


@dataclass(frozen=True, eq=False)
class SzilardSplitDist:
    """Joint occupancy of the two halves of a box after a piston insertion.

    The number of particles landing in the left part is binomial in the
    volume fraction; conditional on that split each side is multinomial in
    its own one-particle distribution. Support vectors concatenate the left
    colors followed by the right colors.
    """

    N: int
    volume_fraction: float
    left_dist: OneParticleDistribution
    right_dist: OneParticleDistribution

    def __post_init__(self) -> None:
        if self.N < 0:
            raise ValueError("N must be non-negative")
        if not 0.0 < self.volume_fraction < 1.0:
            raise ValueError("volume fraction must lie strictly between 0 and 1")

    @property
    def num_colors(self) -> int:
        return self.left_dist.num_colors + self.right_dist.num_colors

    def split_probabilities(self) -> np.ndarray:
        """Binomial law of the left-side particle count b over 0..N."""
        return _binomial_marginal(self.N, self.volume_fraction)

    @cached_property
    def _multinomial(self) -> MultinomialDist:
        """Mult(N, (f left, (1 - f) right)), as each particle picks its side and then
        its colour independently; renormalised: sides sum to 1 within _PROB_SUM_TOL."""
        f = self.volume_fraction
        weights = np.concatenate((f * self.left_dist.probs, (1 - f) * self.right_dist.probs))
        return MultinomialDist(self.N, OneParticleDistribution.from_weights(weights))

    log_pmf, pmf = _one_row_log_pmf, _pmf

    def log_pmf_batch(self, counts: np.ndarray) -> np.ndarray:
        return self._multinomial.log_pmf_batch(counts)


OccupancyDistribution = Union[MultinomialDist, MvhgDist, SzilardSplitDist]


def marginal(d: MultinomialDist | MvhgDist, color: int) -> np.ndarray:
    """Per-color count distribution over {0..N}, as an array indexed by k.

    Binomial for draws with replacement, univariate hypergeometric for
    draws without; built from mode-anchored ratios, it sums to 1 within 1e-12.
    """
    if not 0 <= color < d.num_colors:
        raise IndexError(f"color {color} out of range for {d.num_colors} colors")
    if isinstance(d, MultinomialDist):
        return _binomial_marginal(d.N, float(d.p.probs[color]))
    if isinstance(d, MvhgDist):
        return _hypergeometric_marginal(d.urn.total, d.urn[color], d.draw_count)
    raise TypeError(f"no closed-form marginal for {type(d).__name__}")


# --- sampling ---------------------------------------------------------------
#
# sample() draws from numpy's PCG64 generator seeded explicitly, through
# the sampler of the distribution's type, which writes its counts into the
# (count, colours) zero matrix that sample() made, at N, count > 0. The
# samplers use fixed documented algorithms (categorical inversion with
# replacement, sequential urn depletion without), so a (distribution,
# count, seed) triple reproduces bit-identically on any platform. Each row
# reads its N uniforms in row-major order; the Szilard split first reads
# `count` uniforms for the left-side counts b, then per row b uniforms for
# the left side followed by N - b for the right. PCG64 `random(a)` then `random(b)` is `random(a + b)`
# split at a, so drawing rows in pieces reads the same stream, and the rows
# do not depend on the piece sizes. _uniform_pieces draws the (rows, N)
# uniforms in pieces of at most a given number of cells into one buffer
# that every piece reuses: whole rows while a row fits, and a longer row in
# column pieces, so the budget holds at any N. The with-replacement
# samplers take pieces of at most _CHUNK_DRAWS cells and compare them into
# one reused mask, counted per row by its byte sums; the Szilard sampler
# marks each row's left side in a second mask, which it negates in place
# for the right side. The urn sampler holds its integer targets in the
# narrowest signed type that holds U, in blocks of at most
# _CHUNK_DRAWS * 8 bytes (as many rows as an int64 chunk at 8 bytes a cell,
# 4x as many at 2; one row at least), and fills each block from pieces of
# at most _CHUNK_DRAWS // 4 uniforms, drawn into one buffer per block that
# is freed before the block's depletion pass. A block has few enough rows
# that its per-colour state, two (k - 1, rows) arrays, takes at most half
# its bytes, the budget of two pieces, at any number k of colours. Each
# uniform is one 64-bit PCG64 output, so parallel workers share one sample
# by the advance rule: rows r.. are drawn from a copy of the seeded PCG64
# advanced by r * N (`PCG64(seed).advance(r * N)`); a Szilard row s takes
# its split from uniform s and its colours from uniform count + s * N on.
# A worker seed of seed + i would draw other rows.

_CHUNK_DRAWS = 2**18
# A seeded draw reads or holds at most this many cells: sample() checks its
# count * max(N, colours), quantum._prior_universes its samples * colours,
# before anything is allocated or drawn.
_DRAW_CELLS = 2**30


def _check_draw_cells(rows: int, width: int, what: str) -> None:
    cells = rows * width
    if cells > _DRAW_CELLS:
        raise CapExceededError(
            f"{what} needs {rows} x {width} = {cells} cells, over the cap of {_DRAW_CELLS}",
            cells, _DRAW_CELLS)


def _uniform_pieces(rng: np.random.Generator, count: int, draws: int, cells: int):
    """Yield ``(start, first, u)`` over the (count, draws) uniforms of a
    sampler, read in row-major order: u holds rows start.. and columns
    first.. of them, at most ``cells`` uniforms, in a view of one buffer
    that the next piece overwrites. Needs count, draws > 0."""
    width = min(draws, cells)
    rows = max(1, cells // draws)
    buf = np.empty(min(rows, count) * width)
    for start in range(0, count, rows):
        m = min(rows, count - start)
        for first in range(0, draws, width):
            u = buf[: m * min(width, draws - first)].reshape(m, -1)
            rng.random(out=u)
            yield start, first, u


def _categorical_counts(
    u: np.ndarray, probs: np.ndarray, total, out: np.ndarray, mask: np.ndarray,
    side: np.ndarray | None = None,
) -> None:
    """Add into ``out`` the per-row colour counts of categorical inversion
    over a (rows, draws) piece: each uniform picks the first colour c with
    u < cdf[c], where the cdf is summed left to right and its last entry set
    to 1. ``total`` counts the uniforms of each row that pick a colour, so
    the last colour takes ``total`` less the count below cdf[-2] without a
    pass of its own. With a bool ``side`` of u's shape, only the uniforms
    where it is set pick a colour. ``mask`` is a flat bool buffer of at
    least u.size cells that each comparison overwrites; its bytes are 0 or
    1, so a row's count is its byte sum, which a uint32 holds for any row
    of up to _CHUNK_DRAWS cells."""
    cdf = np.cumsum(probs)
    mask = mask[: u.size].reshape(u.shape)
    ones = mask.view(np.uint8)
    below = 0
    for c, edge in enumerate(cdf[:-1]):
        np.less(u, edge, out=mask)
        if side is not None:
            np.logical_and(mask, side, out=mask)
        now = np.add.reduce(ones, axis=1, dtype=np.uint32)
        out[:, c] += now - below
        below = now
    out[:, -1] += total - below


def _sample_multinomial_counts(rng: np.random.Generator, d: MultinomialDist, out) -> None:
    count, draws = out.shape[0], d.N
    mask = np.empty(min(count * draws, _CHUNK_DRAWS), dtype=bool)
    for start, _, u in _uniform_pieces(rng, count, draws, _CHUNK_DRAWS):
        m, width = u.shape
        _categorical_counts(u, d.p.probs, width, out[start : start + m], mask)


def _sample_mvhg_counts(rng: np.random.Generator, d: MvhgDist, out) -> None:
    """Sequential urn depletion: draw t of a row takes the first colour whose
    cumulative remaining count exceeds u_t * (U - t), or the last colour if
    none does.

    The colours whose cumulative remaining count is at most u_t * (U - t)
    form a prefix, so the cumulative count of colour c < k - 1 drops by one
    exactly when it exceeds floor(u_t * (U - t)), and the last colour's
    (always U - t) is never compared. With held_c = (cumulative remaining
    count of c) + t, which grows by one when it does not drop, draw t is the
    one integer step held += held <= floor(u_t * (U - t)) + t over the
    (k - 1, rows) array of a block. held <= U and the targets are below U,
    so both fit the narrowest signed integer type that holds U."""
    urn, draws = d.urn, d.draw_count
    count, num_colors = out.shape
    dtype = np.min_scalar_type(-urn.total - 1)
    edges = np.cumsum(np.asarray(urn.counts, dtype=np.int64))[:-1, None].astype(dtype)
    remaining = (urn.total - np.arange(draws)).astype(np.float64)
    step = np.arange(draws, dtype=dtype)[:, None]
    width = max(draws, 4 * (num_colors - 1))
    rows_per_block = max(1, _CHUNK_DRAWS * 8 // (dtype.itemsize * width))
    for start in range(0, count, rows_per_block):
        m = min(rows_per_block, count - start)
        # row t holds floor(u_t * (U - t)) + t for every row of the block;
        # the unsafe cast of the product truncates it as an assignment
        # would, exactly below 2**53
        targets = np.empty((draws, m), dtype=dtype)
        for s, first, u in _uniform_pieces(rng, m, draws, _CHUNK_DRAWS // 4):
            rows, cols = u.shape
            np.multiply(u, remaining[first : first + cols], casting="unsafe",
                        out=targets[first : first + cols, s : s + rows].T)
        del u  # the last piece's view holds the buffer, freed before the state
        targets += step
        held = np.repeat(edges, m, axis=1)
        kept = np.empty_like(held)
        for t in range(draws):
            np.less_equal(held, targets[t], out=kept)
            held += kept
        # held - draws is each colour's cumulative remaining count, so
        # edges - (held - draws) is its cumulative count drawn, in [0, draws]
        held -= draws
        np.subtract(edges, held, out=held)
        block = out[start : start + m]
        block[:, :-1] = held.T
        block[:, -1] = draws
        block[:, 1:] -= held.T
        del targets, held, kept  # freed before the next block's uniforms are drawn


def _sample_szilard_counts(rng: np.random.Generator, d: SzilardSplitDist, out) -> None:
    """Left-side counts b of every row by inversion of the binomial split,
    then each row's left side from its first b uniforms and its right side
    from the other N - b, as one run of N uniforms per row."""
    count = out.shape[0]
    split_cdf = np.cumsum(d.split_probabilities())
    split_cdf[-1] = 1.0
    b = np.searchsorted(split_cdf, rng.random(count), side="right")
    k = d.left_dist.num_colors
    cells = min(count * d.N, _CHUNK_DRAWS)
    mask, on_left = np.empty(cells, dtype=bool), np.empty(cells, dtype=bool)
    position = np.arange(min(d.N, _CHUNK_DRAWS))
    for start, first, u in _uniform_pieces(rng, count, d.N, _CHUNK_DRAWS):
        m, width = u.shape
        # the uniforms of the piece on the left side of each row
        left = np.clip(b[start : start + m] - first, 0, width)
        side = np.less(position[:width], left[:, None], out=on_left[: u.size].reshape(m, width))
        rows = out[start : start + m]
        _categorical_counts(u, d.left_dist.probs, left, rows[:, :k], mask, side)
        _categorical_counts(
            u, d.right_dist.probs, width - left, rows[:, k:], mask, np.logical_not(side, out=side))


_SAMPLERS = {
    MultinomialDist: _sample_multinomial_counts,
    MvhgDist: _sample_mvhg_counts,
    SzilardSplitDist: _sample_szilard_counts,
}


def sample(d: OccupancyDistribution, count: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Draw ``count`` occupancy rows as a (count, colours) int64 array;
    deterministic for a given seed. At N = 0 or count = 0 every row is
    zero, and no uniform is read."""
    if count < 0:
        raise ValueError("count must be non-negative")
    _require_seed(seed)
    if type(d) not in _SAMPLERS:
        raise TypeError(f"cannot sample from {type(d).__name__}")
    _check_draw_cells(count, max(d.N, d.num_colors), "a sample")
    out = np.zeros((count, d.num_colors), dtype=np.int64)
    if d.N and count:
        _SAMPLERS[type(d)](np.random.default_rng(seed), d, out)
    return out


# --- distances and convergence ----------------------------------------------

def tv_distance(
    d1: OccupancyDistribution, d2: OccupancyDistribution, cap: int = DEFAULT_CAP
) -> float:
    """Total variation distance between two occupancy distributions
    sharing a color space and particle number."""
    if d1.num_colors != d2.num_colors:
        raise ValueError("distributions live on different color spaces")
    if d1.N != d2.N:
        raise ValueError("distributions have different particle numbers")
    _check_support(d1.N, d1.num_colors, cap, "use Monte Carlo estimation instead")
    counts = support_matrix(d1.N, d1.num_colors, cap=cap)
    p1 = np.exp(d1.log_pmf_batch(counts))
    p2 = np.exp(d2.log_pmf_batch(counts))
    return float(0.5 * np.abs(p1 - p2).sum())


def convergence_scan(
    base_urn: OccupancyVector,
    N: int,
    scales: Iterable[int],
    cap: int = DEFAULT_CAP,
) -> list[tuple[int, float]]:
    """TV distance between the scaled-urn draw and its multinomial limit.

    Scaling the urn by integers keeps the empirical color fractions fixed,
    so the rows trace the approach to the with-replacement limit at
    constant one-particle distribution. Every scale is checked before any
    distance is computed: ValueError for no scales or one below 1, and
    CapExceededError for a scaled urn of fewer than N balls or of more
    than 2^63 - 1, or for a support past ``cap``. The limit's pmf is formed
    once, and the urns' log-pmfs in (urns x support x colours) blocks of at
    most _BLOCK_CELLS cells (one urn at least); each row has tv_distance's bits.
    """
    limit = MultinomialDist(N, OneParticleDistribution.empirical_from_urn(base_urn))
    scales = [int(k) for k in scales]
    if not scales or min(scales) < 1:
        raise ValueError(f"scales must be positive integers, got {scales}")
    for total in (k * base_urn.total for k in scales):
        if total > 2**63 - 1:
            raise CapExceededError(
                f"urn total must be an integer of at most 64 bits: a scaled urn of "
                f"{total} balls is past {2**63 - 1}", total, 2**63 - 1)
        if total < N:
            raise CapExceededError(
                f"scaled urn holds {total} particles, fewer than N={N}", N, total)
    _check_support(N, limit.num_colors, cap, "use Monte Carlo estimation instead")
    counts = support_matrix(N, limit.num_colors, cap=cap)
    p = np.exp(limit.log_pmf_batch(counts))
    urns, totals = np.outer(scales, base_urn.counts), np.multiply(scales, base_urn.total)
    step = max(1, _BLOCK_CELLS // counts.size)
    tv = [0.5 * np.abs(np.exp(_mvhg_log_pmf_grid(urns[i : i + step], counts,
                                                 totals[i : i + step], N)) - p).sum(axis=1)
          for i in range(0, len(scales), step)]
    return list(zip(totals.tolist(), np.concatenate(tv).tolist()))
