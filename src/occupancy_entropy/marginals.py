"""One-colour count marginals: the binomial law of draws with replacement
and the hypergeometric law of draws without, each written once as a
log-pmf at one count and as a ratio step between counts. Full-support
pmfs and windowed expectations are both built from the ratio steps.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, rel_entr, xlog1py, xlogy

from .combinatorics import CapExceededError
from .constants import LN2

# Windowed expectations leave out counts whose tails could move a result
# by more than this share of it (see _count_window).
_LOG_REL_TOL = math.log(1e-17)
# A grid of at most this many cells costs less to sum whole than to search
# for its windows.
_WHOLE_GRID_CELLS = 2**12
_BLOCK_CELLS = 2**18


def _log_choose(n, k):
    """ln C(n, k), elementwise; -inf for k outside [0, n]."""
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def _binomial_log_pmf(N, p, k):
    """ln P(k) for k ~ Binomial(N, p), elementwise."""
    return _log_choose(N, k) + xlogy(k, p) + xlog1py(N - k, -p)


def _hypergeometric_log_pmf(U, u, N, k):
    """ln P(k) for k ~ Hypergeometric(U, u, N), elementwise."""
    return _log_choose(u, k) + _log_choose(U - u, N - k) - _log_choose(U, N)


def _binomial(N: int, p: np.ndarray):
    """Support [first, last] and ratio steps log_step(rows, k) = ln P(k) -
    ln P(k - 1) of Binomial(N, p[rows]), elementwise over an array of p; the
    support is 0..N, but only 0 at p = 0 and only N at p = 1."""
    with np.errstate(divide="ignore"):
        log_odds = np.log(p) - np.log1p(-p)
    return (
        np.where(p == 1.0, N, 0.0),
        np.where(p == 0.0, 0.0, N),
        lambda rows, k: np.log(N - k + 1.0) - np.log(k) + log_odds[rows, None],
    )


def _hypergeometric(U: int, u: np.ndarray, N: int):
    """As _binomial, for Hypergeometric(U, u, N): the count of one colour of
    u balls among N drawn without replacement from U."""
    return (
        np.maximum(0.0, N - (U - u)),
        np.minimum(float(N), u),
        lambda rows, k: (
            np.log(u[rows, None] - k + 1.0)
            + np.log(N - k + 1.0)
            - np.log(k)
            - np.log(U - u[rows, None] - N + k)
        ),
    )


def _count_window(
    n: int, p: np.ndarray, first, last, log_term, max_f
) -> tuple[np.ndarray, np.ndarray]:
    """Counts [lo, hi] around n p over which to sum E{f(X)}, for X a count
    of n trials with success fraction p on the support [first, last], f >= 0
    at most ``max_f`` there and log_term(k) = ln P(k) + ln f(k); elementwise
    over arrays.

    The term P(k0) f(k0) at k0 = 2, or at the mean where that is larger, is
    a floor under E{f}. Each omitted tail has mass at most
    exp(_LOG_REL_TOL - 1) of that floor / max_f, so it moves E{f} by less
    than 1e-17 of itself. The tails are bounded by Chernoff's
    P(X >= k) <= exp(-n KL(k/n || p)) for k >= n p (and P(X <= k) likewise
    for k <= n p), which holds for Poisson-like binomials as well as
    Gaussian-like ones. Hoeffding (1963) proves the same bounds for a
    hypergeometric count of n draws from an urn whose colour fraction is p,
    so the window serves both laws. A grid of at most _WHOLE_GRID_CELLS
    cells over all p is kept whole, without calling log_term.
    """
    n = float(n)
    p = np.asarray(p, dtype=np.float64)
    if p.size * (n + 1.0) <= _WHOLE_GRID_CELLS:
        return first, last
    mean = n * p
    k0 = np.clip(np.maximum(2.0, np.rint(mean)), first, last)
    # one nat is kept for the rounding in log_term
    with np.errstate(divide="ignore"):
        need = np.log(np.maximum(max_f, LN2)) + 1.0 - _LOG_REL_TOL - log_term(k0)

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
    return np.maximum(a, first), np.minimum(hi, last)


def _mode_weights(lo, hi, steps, log_step) -> tuple[np.ndarray, np.ndarray]:
    """Counts k = lo + steps per row, held at hi past it, and the weights
    P(k) / P(mode), 0 past hi, of log-concave pmfs known on [lo, hi] through
    their ratios log_step(k) = ln P(k) - ln P(k - 1). The ratios are summed
    outwards from the mode, the last count with a rising ratio, so no
    normaliser such as ln N! is formed and small counts keep full precision."""
    k = lo[:, None] + steps
    inside = k <= hi[:, None]
    np.minimum(k, hi[:, None], out=k)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(inside, log_step(k), 0.0)
    step[:, 0] = 0.0
    to_mode = steps <= (step > 0.0).sum(axis=1, keepdims=True)
    rising = np.where(to_mode, step, 0.0)
    # ln P(k) - ln P(mode) is -(sum of the steps k+1..mode) up to the
    # mode and the sum of the steps mode+1..k past it
    below = rising - np.cumsum(rising[:, ::-1], axis=1)[:, ::-1]
    above = np.cumsum(step - rising, axis=1)
    weights = np.exp(np.where(to_mode, below, above))
    weights[~inside] = 0.0
    return k, weights


def _window_means(lo, hi, log_step, *fs) -> list[np.ndarray]:
    """Means of each f(rows, k) under pmfs known on [lo, hi] per row
    through their ratios log_step(rows, k), each built by _mode_weights and
    normalised by its own window mass, in (rows x k) blocks of at most
    _BLOCK_CELLS cells."""
    steps = np.arange(int((hi - lo).max(initial=0.0)) + 1, dtype=np.float64)
    means = [np.empty(lo.size) for _ in fs]
    block = max(1, _BLOCK_CELLS // steps.size)
    for start in range(0, lo.size, block):
        rows = slice(start, start + block)
        k, pmf = _mode_weights(lo[rows], hi[rows], steps, lambda k: log_step(rows, k))
        mass = pmf.sum(axis=1)
        for mean, f in zip(means, fs):
            mean[rows] = (pmf * f(rows, k)).sum(axis=1) / mass
    return means


def _full_pmf(n: int, lo: np.ndarray, hi: np.ndarray, log_step) -> np.ndarray:
    """P(k) over k = 0..n of one count law with mass on [lo[0], hi[0]] and
    ratios log_step(rows, k), normalised by the math.fsum of its weights."""
    steps = np.arange(hi[0] - lo[0] + 1.0)
    _, weights = _mode_weights(lo, hi, steps, lambda k: log_step(slice(None), k))
    out = np.zeros(n + 1)
    out[int(lo[0]) : int(hi[0]) + 1] = weights[0] / math.fsum(weights[0].tolist())
    return out


def _binomial_marginal(N: int, p: float) -> np.ndarray:
    """P(k) over k = 0..N for k ~ Binomial(N, p)."""
    return _full_pmf(N, *_binomial(N, np.array([p], dtype=np.float64)))


def _hypergeometric_marginal(U: int, u: int, N: int) -> np.ndarray:
    """P(k) over k = 0..N for k ~ Hypergeometric(U, u, N)."""
    return _full_pmf(N, *_hypergeometric(U, np.array([u], dtype=np.float64), N))


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
    first, last, log_step = _binomial(N, flat)

    def log_term(k):
        return _binomial_log_pmf(N, flat, k) + np.log(gammaln(k + 1.0))

    lo, hi = _count_window(N, flat, first, last, log_term, gammaln(N + 1.0))
    width = int((hi - lo).max(initial=0.0)) + 1
    if flat.size * width > budget:
        raise CapExceededError(
            f"summation over {flat.size} levels x {width} counts needs "
            f"{flat.size * width} cells, over the budget of {budget}",
            flat.size * width,
            budget,
        )
    (e_fact,) = _window_means(lo, hi, log_step, lambda rows, k: gammaln(k + 1.0))
    return e_fact.reshape(p.shape)


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
    frac = u / U if U else np.zeros_like(u)
    first, last, log_step = _hypergeometric(U, u, N)

    def log_term(k):
        # ln u! bounds both ln n! and ln C(u, n) on the support, and the
        # smaller of the two is a floor under both sums
        smaller_f = np.minimum(gammaln(k + 1.0), _log_choose(u, k))
        return _hypergeometric_log_pmf(U, u, N, k) + np.log(smaller_f.clip(0.0))

    lo, hi = _count_window(N, frac, first, last, log_term, gammaln(u + 1.0))
    e_fact, e_binom = _window_means(
        lo,
        hi,
        log_step,
        lambda rows, k: gammaln(k + 1.0),
        lambda rows, k: _log_choose(u[rows, None], k),
    )
    return e_fact[where].reshape(counts.shape), e_binom[where].reshape(counts.shape)
