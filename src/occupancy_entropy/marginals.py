"""One-colour count marginals: the binomial law of draws with replacement
and the hypergeometric law of draws without, each written once as a
log-pmf at one count and as a ratio step between counts. Full-support
pmfs and windowed expectations are both built from the ratio steps; a
binomial E{ln n!} below one mean count is a short series in the odds
instead.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .combinatorics import CapExceededError
from .constants import LN2

# Windowed expectations and the dilute series leave out counts whose tails
# could move a result by more than this share of it (see _count_window and
# _dilute_log_factorial_means).
_LOG_REL_TOL = math.log(1e-17)
# A grid of at most this many cells costs less to sum whole than to search
# for its windows.
_WHOLE_GRID_CELLS = 2**12
# ln k! and tau(k) are tabled at the counts 0.._TABLED_COUNTS - 1
_TABLED_COUNTS = 2**12
_BLOCK_CELLS = 2**18
# _count_window bisects counts in float64: up to this many trials, the sum
# a + b of two counts and each mid -+ 1 are exact, past it the search can stall
_SEARCHED_COUNTS = 2**52
# Binomial E{ln n!} below one mean count sums the counts 0..K for
# K < _DILUTE_COUNTS: the threshold at K = 26 (2.17) exceeds every
# N p / (1 - p) there, which is below 2 from N = 2 on (K is at most N)
_DILUTE_COUNTS = 27
# Stirling coefficients B_2j / (2j (2j - 1)) of ln Gamma(x + 1) for j = 1..8;
# from _STIRLING_FROM on, the first term left out is below 2e-18
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
_STIRLING_FROM = 10
# tau(k) for k = 0..9, rounded from 50-digit values: formed directly,
# ln k! - k ln k + k loses up to 2e-15 to cancellation
_TAU_INTEGERS = np.array([
    0.0, 1.0, 1.3068528194400546, 1.4959226032237258, 1.6328763858683832,
    1.7403021806115442, 1.828694396641771, 1.9037903176782212, 1.9690705693065629,
    2.0268062840554952,
])


def _stirling_remainder(x) -> np.ndarray:
    """tau(x) = ln Gamma(x + 1) - x ln x + x, about 1/2 ln 2 pi x, for x >= 0: the
    Stirling series from _STIRLING_FROM on, _TAU_INTEGERS at smaller integers, else direct."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    above = x >= _STIRLING_FROM
    if above.any():
        y = x[above]
        w, series = 1.0 / (y * y), _STIRLING[-1]
        for c in _STIRLING[-2::-1]:
            series = c + w * series
        out[above] = 0.5 * np.log(2.0 * math.pi * y) + series / y
    if not above.all():
        xs = x[~above]
        whole = xs == np.floor(xs)
        direct = gammaln(xs + 1.0) + xs * (1.0 - np.log(np.where(whole, 1.0, xs)))
        out[~above] = np.where(whole, _TAU_INTEGERS[np.where(whole, xs, 0).astype(np.intp)], direct)
    return out


_TAU_COUNTS = _stirling_remainder(np.arange(float(_TABLED_COUNTS)))
_LOG_FACTORIALS = gammaln(np.arange(_TABLED_COUNTS) + 1.0)


def _dilute_thresholds() -> np.ndarray:
    """T[K], the largest m' = N p / (1 - p) at which counts 0..K give
    E{ln n!} of a binomial below one mean count to 1e-17 of itself (see
    _dilute_log_factorial_means), for K = 0.._DILUTE_COUNTS - 1; T[0] = T[1]
    = 0, so that only p = 0 takes K = 0. With S_K = sum_{k > K} 2^(k-K-1)
    ln k! / k!, T[K] = (1e-17 ln 2 / (4 S_K))^(1 / (K - 1)); S_K is summed
    to k = K + 40, past which its terms add under 1e-30 of it."""
    K = np.arange(2, _DILUTE_COUNTS)
    j = np.arange(40)
    log_fact = _LOG_FACTORIALS[K[:, None] + 1 + j]
    tail = np.exp(j * LN2 + np.log(log_fact) - log_fact).sum(axis=1)
    bound = np.exp((_LOG_REL_TOL + math.log(LN2 / 4.0) - np.log(tail)) / (K - 1.0))
    return np.concatenate(([0.0, 0.0], bound))


_DILUTE_THRESHOLDS = _dilute_thresholds()


def _log_factorial(k) -> np.ndarray:
    """ln k! = gammaln(k + 1) at whole counts k, elementwise, with the same
    bits: read from _LOG_FACTORIALS where k is in [0, _TABLED_COUNTS), and
    evaluated only at the other counts (+inf at negative k)."""
    k = np.asarray(k)
    if k.min(initial=0) >= 0 and k.max(initial=0) < _TABLED_COUNTS:
        return _LOG_FACTORIALS[k.astype(np.intp, copy=False)]
    # the few counts past the table are gathered by index, not by mask; out
    # is an array even for a 0-d k, so that its flat view can be written
    tabled = (k >= 0) & (k < _TABLED_COUNTS)
    out = np.asarray(_LOG_FACTORIALS[np.where(tabled, k, 0).astype(np.intp)])
    rest = np.flatnonzero(~tabled)
    out.reshape(-1)[rest] = gammaln(k.reshape(-1)[rest] + 1.0)
    return out


def log_factorial(n: int) -> float:
    """ln n! for a whole count n >= 0, with the bits of _log_factorial; as a
    float, so that counts past 64 bits are taken too."""
    if n < 0:
        raise ValueError(f"factorial undefined for negative n={n}")
    return float(_log_factorial(float(n)))


def _count_stirling_remainder(k) -> np.ndarray:
    """_stirling_remainder at whole counts k, read from _TAU_COUNTS where they fit."""
    k = np.asarray(k, dtype=np.float64)
    if k.max(initial=0.0) < _TABLED_COUNTS:
        return _TAU_COUNTS[k.astype(np.intp)]
    return _stirling_remainder(k)


def _count_log_choose(n, k: int) -> np.ndarray:
    """ln C(n, k) at whole counts 0 <= k <= n, elementwise over n (an int or
    an int array), as tau(n) - tau(k) - tau(n - k) + k ln(n / k) + (n - k)
    ln(n / (n - k)), tau the Stirling remainder: no term is of the size of
    ln n!, as the three of _log_choose are. k and n - k give the same bits.
    k / n is Python's int division, which is correctly rounded past 2**53."""
    n = np.asarray(n, dtype=np.int64)
    k = np.minimum(k, n - k)
    tau = _count_stirling_remainder([n, k, n - k])
    drawn = np.array([a / b if b else 0.0 for a, b in zip(k.ravel().tolist(), n.ravel().tolist())])
    drawn = drawn.reshape(n.shape)
    return tau[0] - tau[1] - tau[2] - xlogy(k, drawn) - xlog1py(n - k, -drawn)


def _log_choose(n, k):
    """ln C(n, k), elementwise; -inf for k outside [0, n]."""
    return _log_factorial(n) - _log_factorial(k) - _log_factorial(n - k)


def _binomial_log_pmf(N: int, p, k):
    """ln P(k) for k ~ Binomial(N, p), elementwise over p and k."""
    return _log_choose(N, k) + xlogy(k, p) + xlog1py(N - k, -p)


def _hypergeometric_log_pmf(U: int, u, N: int, k):
    """ln P(k) for k ~ Hypergeometric(U, u, N), elementwise over u and k,
    at N <= U."""
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


def _hypergeometric(U, u: np.ndarray, N: int):
    """As _binomial, for Hypergeometric(U, u, N): the count of one colour of
    u balls among N drawn without replacement from U, elementwise over u and
    U (one int, or an array of u's shape)."""
    rest = U - u
    return (
        np.maximum(0.0, N - rest),
        np.minimum(float(N), u),
        lambda rows, k: (
            np.log(u[rows, None] - k + 1.0)
            + np.log(N - k + 1.0)
            - np.log(k)
            - np.log(rest[rows, None] - N + k)
        ),
    )


def _count_window(
    n: int, p: np.ndarray, first, last, log_term, max_f, size=None
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
    cells over all p is kept whole, without calling log_term; with an array
    ``size`` of level counts, so is each row whose size x (n + 1) cells fit.
    CapExceededError if n is over _SEARCHED_COUNTS and some support holds
    more than one count.
    """
    if n > _SEARCHED_COUNTS and np.any(np.less(first, last)):
        raise CapExceededError(
            f"a count window over {n} trials is past the {_SEARCHED_COUNTS} (2**52) "
            f"counts its float64 search can resolve", n, _SEARCHED_COUNTS
        )
    n = float(n)
    p = np.asarray(p, dtype=np.float64)
    whole = (p.size if size is None else size) * (n + 1.0) <= _WHOLE_GRID_CELLS
    if np.all(whole):
        return first, last
    mean = n * p
    k0 = np.clip(np.maximum(2.0, np.rint(mean)), first, last)
    # one nat is kept for the rounding in log_term
    with np.errstate(divide="ignore"):
        need = np.log(np.maximum(max_f, LN2)) + 1.0 - _LOG_REL_TOL - log_term(k0)
        log_p, log_q = np.log(p), np.log1p(-p)
    # a row at p = 0 or 1 has a one-count support, which clips its window
    # whatever the search finds, so its infinite log is zeroed
    log_p[p == 0.0] = 0.0
    log_q[p == 1.0] = 0.0

    # n KL(k/n || p) = [k ln k + (n - k) ln(n - k) - n ln n]
    #                  - k ln p - (n - k) ln(1 - p);
    # the bracket is tabled over 0..n once, unless the table would be
    # longer than the rows that query it
    n_log_n = float(xlogy(n, n))

    def count_part(k, m):
        return xlogy(k, k) + xlogy(m, m) - n_log_n

    table = None
    if n + 1.0 <= p.size:
        ks = np.arange(n + 1.0)
        table = count_part(ks, n - ks)

    def negligible(k):
        m = n - k
        part = count_part(k, m) if table is None else table[k.astype(np.intp)]
        return part - k * log_p - m * log_q >= need

    # Pinsker's n KL(k/n || p) >= 2 (k - n p)^2 / n makes every count more
    # than `reach` from the mean negligible, so the searches start there; as
    # the tests are monotone on each side of the mean, they find the same
    # counts as from the ends of the support (0 x inf at n = 0 is nan, which
    # np.fmin and np.fmax pass over); rows that have converged at 0 or n
    # still query mid -+ 1, so the queries are held to 0..n; a one-count
    # support (p = 0 or 1) is searched no further than its mean
    with np.errstate(invalid="ignore"):
        reach = np.where(first == last, 0.0, np.sqrt(n * need / 2.0) + 1.0)
    # smallest hi >= floor(mean) whose upper tail P(X >= hi + 1) is negligible
    a, b = np.floor(mean), np.fmin(n, np.ceil(mean + reach))
    while (a < b).any():
        mid = np.floor((a + b) / 2.0)
        ok = negligible(np.minimum(mid + 1.0, n))
        a, b = np.where(ok, a, mid + 1.0), np.where(ok, mid, b)
    hi = b
    # largest lo <= ceil(mean) whose lower tail P(X <= lo - 1) is negligible
    a, b = np.fmax(0.0, np.floor(mean - reach)), np.ceil(mean)
    while (a < b).any():
        mid = np.ceil((a + b) / 2.0)
        ok = negligible(np.maximum(mid - 1.0, 0.0))
        a, b = np.where(ok, mid, a), np.where(ok, b, mid - 1.0)
    lo, hi = np.maximum(a, first), np.minimum(hi, last)
    return np.where(whole, first, lo), np.where(whole, last, hi)


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


def _width_classes(lo, hi, batch=None) -> list[tuple[np.ndarray, int]]:
    """Rows grouped by the class ceil(log2 width) of their windows [lo, hi],
    each group with the width of its widest window; one group when padding
    every row to the widest window takes at most _WHOLE_GRID_CELLS cells.
    With an int array ``batch``, the rows of each batch are grouped so, as
    if alone, and then the groups of equal width merged."""
    width = (hi - lo + 1.0).astype(np.int64)
    if batch is None and width.size * width.max(initial=1) <= _WHOLE_GRID_CELLS:
        return [(np.arange(width.size), int(width.max(initial=1)))]
    batch = np.zeros(width.size, np.intp) if batch is None else batch
    # the widest window of each batch in column 0, of each class c in c + 1
    widest = np.zeros((batch.max(initial=0) + 1, 65), np.int64)
    np.maximum.at(widest, (batch, 0), width)
    alone = np.bincount(batch)[batch] * widest[batch, 0] > _WHOLE_GRID_CELLS
    cls = np.where(alone, np.frexp(width - 1)[1] + 1, 0)
    np.maximum.at(widest, (batch, cls), width)
    padded = widest[batch, cls]
    return [(np.flatnonzero(padded == w), int(w)) for w in np.unique(padded)]


def _window_means(classes, lo, hi, log_step, *fs) -> list[np.ndarray]:
    """Means of each f(rows, k) under pmfs known on [lo, hi] per row
    through their ratios log_step(rows, k), each built by _mode_weights and
    normalised by its own window mass. The rows of each of the
    _width_classes(lo, hi) groups are padded only to its widest window, in
    (rows x k) blocks of at most _BLOCK_CELLS cells."""
    means = [np.empty(lo.size) for _ in fs]
    for group, width in classes:
        steps = np.arange(width, dtype=np.float64)
        block = max(1, _BLOCK_CELLS // width)
        # a group of every row is sliced rather than gathered
        whole = group.size == lo.size
        for start in range(0, group.size, block):
            stop = start + block
            rows = slice(start, stop) if whole else group[start:stop]
            k, pmf = _mode_weights(
                lo[rows], hi[rows], steps, lambda k: log_step(rows, k)
            )
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


def _dilute_log_factorial_means(N: int, odds: np.ndarray, last: np.ndarray) -> np.ndarray:
    """E{ln n!} for n ~ Binomial(N, p) below one mean count, elementwise over
    arrays of the odds r = p / (1 - p) and of the last counts K summed:
    sum_{k=2..K} w_k ln k! / sum_{k=0..K} w_k with w_0 = 1 and
    w_k = w_{k-1} (N - k + 1) / k r, so that P(k) = (1 - p)^N w_k.

    The counts past K carry ln k! above every mean over 0..K, so leaving
    them out lowers E{ln n!}, by at most their share sum_{k>K} w_k ln k! of
    sum_k w_k; and E{ln n!} >= P(2) ln 2. With m' = N r, w_k = C(N, k) r^k
    <= m'^k / k!, and for N >= 2, w_2 = m'^2 (N - 1) / (2 N) >= m'^2 / 4,
    while N p < 1 makes m' < N / (N - 1) <= 2. The share of E{ln n!} left
    out is thus at most 4 / ln 2 sum_{k>K} m'^(k-2) ln k! / k! <=
    4 / ln 2 m'^(K-1) S_K, S_K as in _dilute_thresholds: under 1e-17 while
    m' <= _DILUTE_THRESHOLDS[K]. K = N, and K = 0 at p = 0, leave out
    nothing. Rows of each K are built by np.cumprod in (K x rows) blocks of
    at most _BLOCK_CELLS cells."""
    out = np.zeros(odds.size)
    ks = np.arange(1.0, last.max(initial=0) + 1.0)
    # counts run down the columns, so each step is one row-wide product
    steps = ((N + 1.0 - ks) / ks)[:, None]
    for size in np.flatnonzero(np.bincount(last)).tolist():
        if size < 2:
            continue
        log_fact = _LOG_FACTORIALS[2 : size + 1, None]
        group = np.flatnonzero(last == size)
        block = _BLOCK_CELLS // size
        for start in range(0, group.size, block):
            rows = group[start : start + block]
            w = np.cumprod(steps[:size] * odds[rows], axis=0)
            out[rows] = (w[1:] * log_fact).sum(axis=0) / (1.0 + w.sum(axis=0))
    return out


def _binomial_log_factorial_gap(
    N: int, p: np.ndarray, budget: float = math.inf
) -> tuple[np.ndarray, np.ndarray]:
    """tau(m) and g = E{ln n!} - ln Gamma(m + 1) for n ~ Binomial(N, p) with
    mean m = N p, elementwise over an array of p. Below one mean count,
    E{ln n!} is the _dilute_log_factorial_means series over counts 0..K,
    with K read from _DILUTE_THRESHOLDS (at most N), which leaves out under
    1e-17 of it, less ln Gamma(m + 1). From m = 1 on, g is the mean of
    tau(n) - tau(m) + n log1p((n - m) / m) - (n - m), which is small near
    the mean, summed over the _count_window of E{ln n!}, which leaves out
    under 1e-17 of it. CapExceededError if the cells, K + 1 a level below one
    mean count and those _window_means builds over the windows from one on,
    would exceed ``budget``.
    """
    shape = np.shape(p)
    p = np.ravel(p).astype(np.float64)
    mean = N * p
    small = mean < 1.0
    # below one mean count 1 - p > 0 unless N = 0, where K = 0
    odds = p[small] / (1.0 - p[small]) if N else np.zeros(np.count_nonzero(small))
    last = np.minimum(N, np.searchsorted(_DILUTE_THRESHOLDS, N * odds))
    cells = int(last.sum()) + last.size
    widest = int(last.max(initial=-1)) + 1
    q, m = p[~small], mean[~small]
    if q.size:
        first, end, log_step = _binomial(N, q)

        def log_term(k):
            return _binomial_log_pmf(N, q, k) + np.log(_log_factorial(k))

        lo, hi = _count_window(N, q, first, end, log_term, log_factorial(N))
        classes = _width_classes(lo, hi)
        cells += sum(rows.size * width for rows, width in classes)
        widest = max(widest, *(width for _, width in classes))
    if cells > budget:
        raise CapExceededError(
            f"summation over {p.size} levels x up to {widest} counts needs "
            f"{cells} cells, over the budget of {budget}", cells, budget
        )
    tau = np.empty_like(mean)
    gap = np.empty_like(mean)
    if last.size:
        # below one count tau(m) is formed directly, and its ln Gamma(m + 1)
        # turns the mean of ln n! into the gap
        m_small = mean[small]
        log_gamma = gammaln(m_small + 1.0)
        tau[small] = log_gamma + m_small * (1.0 - np.log(np.where(m_small > 0.0, m_small, 1.0)))
        gap[small] = _dilute_log_factorial_means(N, odds, last) - log_gamma
    if q.size:
        tau_full = _stirling_remainder(m)
        tau[~small] = tau_full

        def term(rows, k):
            m_rows = m[rows, None]
            return (_count_stirling_remainder(k) - tau_full[rows, None]
                    + xlog1py(k, (k - m_rows) / m_rows) - (k - m_rows))

        gap[~small] = _window_means(classes, lo, hi, log_step, term)[0]
    return tau.reshape(shape), gap.reshape(shape)


def _hypergeometric_log_expectations(
    U, counts: np.ndarray, N: int
) -> tuple[np.ndarray, np.ndarray]:
    """(E{ln n!}, E{ln C(u, n)}) for each colour count u of an array of
    urns of U balls each, or of U[r] balls in row r for an array U, with
    n ~ Hypergeometric(U, u, N).

    Equal (U, u) levels are evaluated once. Each expectation is summed over
    the _count_window of the fraction u/U, cut to the support, which leaves
    out under 1e-17 of it. The whole-grid and padding rules, which look at
    all levels at once, look at the levels of one U at a time, so urns of
    another U in the same call do not move a row's bits.
    """
    counts = np.asarray(counts, dtype=np.int64)
    totals, rows = np.unique(U, return_inverse=True) if np.ndim(U) else (np.array([U]), 0)
    values, value = np.unique(counts, return_inverse=True)
    key = np.reshape(rows, (-1, 1)) * values.size + np.reshape(value, counts.shape)
    # a level is a distinct (U, u) pair; with one U, the keys number the levels
    levels, where = (np.arange(values.size), key) if totals.size == 1 else np.unique(
        key, return_inverse=True)
    batch = levels // values.size
    U, u = totals[batch], values[levels % values.size].astype(np.float64)
    frac = u / np.maximum(U, 1)
    first, last, log_step = _hypergeometric(U, u, N)

    def log_term(k):
        # ln u! bounds both ln n! and ln C(u, n) on the support, and the
        # smaller of the two is a floor under both sums
        smaller_f = np.minimum(_log_factorial(k), _log_choose(u, k))
        return _hypergeometric_log_pmf(U, u, N, k) + np.log(smaller_f.clip(0.0))

    size = np.bincount(batch)[batch]
    lo, hi = _count_window(N, frac, first, last, log_term, _log_factorial(u), size)
    e_fact, e_binom = _window_means(
        _width_classes(lo, hi, batch if totals.size > 1 else None), lo, hi, log_step,
        lambda rows, k: _log_factorial(k), lambda rows, k: _log_choose(u[rows, None], k))
    return e_fact[where].reshape(counts.shape), e_binom[where].reshape(counts.shape)
