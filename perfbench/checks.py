"""Checks of every op's output against computations made apart from the
program: scipy distributions, closed forms, properties the method must
have, and a separate implementation of the documented samplers.

``check(op, stdout)`` returns a list of problems; an empty list means the
output is correct. No check compares against a stored copy of an output,
and every check holds for every seed (the Monte Carlo ones at 5 standard
errors).
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import product

import numpy as np
from scipy import stats
from scipy.special import gammaln

from workloads import BOLTZMANN_KB, PLANCK_H

# Relative tolerance of exact values computed two ways in floating point.
REL = 1e-10
# The program's urn entropies subtract log-factorials of size ln U!; their
# tolerance is this share of ln U! (today's error is under 1e-12 of it).
CANCEL = 1e-11
# Absolute tolerance of individual probabilities.
PMF_TOL = 1e-12
# Monte Carlo checks accept this many standard errors.
SE = 5.0


class Problems(list):
    def close(self, what, got, want, tol):
        if not (isinstance(got, (int, float)) and abs(got - want) <= tol):
            self.append(f"{what}: got {got!r}, want {want!r} within {tol:.3g}")

    def rel(self, what, got, want, rel=REL):
        self.close(what, got, want, rel * max(abs(want), 1e-300))

    def true(self, what, cond):
        if not cond:
            self.append(what)


# --- oracle computations -------------------------------------------------------


def sum_expected_log_factorials(n: int, probs, weights=None) -> float:
    """sum_c w_c E[ln n_c!] for n_c ~ Binomial(n, p_c), as
    sum_k ln k * P(n_c >= k) with scipy's binomial survival function."""
    probs = np.asarray(probs, dtype=np.float64)
    weights = np.ones_like(probs) if weights is None else np.asarray(weights, np.float64)
    if n < 2:
        return 0.0
    k = np.arange(2, n + 1)
    acc = 0.0
    for lo in range(0, probs.size, 2048):
        sf = stats.binom.sf(k[None, :] - 1, n, probs[lo:lo + 2048, None])
        acc += float(weights[lo:lo + 2048] @ (sf @ np.log(k)))
    return acc


def shannon(p) -> float:
    p = np.asarray(p, dtype=np.float64)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def multinomial_entropy(n: int, p) -> float:
    """H(Multinomial(n, p)) = n H(p) - ln n! + sum_c E[ln n_c!]."""
    if n == 0:
        return 0.0
    return n * shannon(p) - float(gammaln(n + 1.0)) + sum_expected_log_factorials(n, p)


def mvhg_parts(urn, N: int) -> dict:
    """Decomposed entropy of N draws without replacement, from
    scipy.stats.hypergeom marginals."""
    urn = [int(u) for u in urn]
    U = sum(urn)
    e_sys = e_binom = 0.0
    for u in urn:
        k = np.arange(max(0, N - (U - u)), min(N, u) + 1)
        pmf = stats.hypergeom.pmf(k, U, u, N)
        e_sys += float(pmf @ gammaln(k + 1.0))
        e_binom += float(pmf @ (gammaln(u + 1.0) - gammaln(k + 1.0) - gammaln(u - k + 1.0)))
    expected_logW = float(gammaln(N + 1.0)) - e_sys
    # total = ln C(U, N) - sum_c E[ln C(u_c, n_c)], with no large terms to cancel
    total = float(gammaln(U + 1.0) - gammaln(N + 1.0) - gammaln(U - N + 1.0)) - e_binom
    mean = N * np.asarray(urn, dtype=np.float64) / U
    return {
        "total": total,
        "expected_logW": expected_logW,
        "microstate_term": total + expected_logW,
        "boltzmann": float(gammaln(N + 1.0) - gammaln(mean + 1.0).sum()),
        "tol": CANCEL * float(gammaln(U + 1.0)),
    }


def occupancy_support(n: int, colours: int) -> np.ndarray:
    """Every occupancy vector of n particles over the colours."""
    rows = [c for c in product(range(n + 1), repeat=colours - 1) if sum(c) <= n]
    return np.array([list(c) + [n - sum(c)] for c in rows], dtype=np.int64)


def alpha(mass: float, temperature: float, side: float) -> float:
    return PLANCK_H**2 / (8.0 * mass * side**2) / (BOLTZMANN_KB * temperature)


def axis_sums(a: float, cutoff: int) -> tuple[float, float]:
    """(sum_{k<=cutoff}, sum_{k>cutoff}) of exp(-a k^2), the second summed
    to the last term that adds anything."""
    kept = float(np.exp(-a * np.arange(1, cutoff + 1, dtype=np.float64) ** 2).sum())
    tail, k = 0.0, cutoff + 1
    while True:
        term = math.exp(-a * k * k)
        if term <= tail * 1e-18 or term == 0.0:
            return kept, tail
        tail += term
        k += 1


def omitted_share(a: float, cutoff: int, axes: int) -> float:
    """Boltzmann weight outside the kept cube [1, cutoff]^axes over the kept weight."""
    kept, tail = axis_sums(a, cutoff)
    return math.expm1(axes * math.log1p(tail / kept))


# The claimed tail bound is computed in double precision around 1, so it
# reads 0 below this.
BOUND_RESOLUTION = 2.3e-16


def axis_probs(a: float, cutoff: int) -> np.ndarray:
    k = np.arange(1, cutoff + 1, dtype=np.float64)
    w = np.exp(-a * (k * k - 1.0))
    return w / w.sum()


def sackur_tetrode(N, mass, temperature, side) -> float:
    thermal = 2.0 * math.pi * mass * BOLTZMANN_KB * temperature / PLANCK_H**2
    return N * (math.log(side**3 / N * thermal**1.5) + 2.5)


# --- per-kind checks -----------------------------------------------------------


def check_gas(params: dict, out: dict) -> Problems:
    bad = Problems()
    N, mass, t, side = params["N"], params["mass"], params["temperature"], params["side"]
    a = alpha(mass, t, side)
    states = out["states_retained"]
    c = round(states ** (1.0 / 3.0))
    bad.true(f"states_retained {states} is not a cube", c**3 == states)
    tail = out["tail_bound_achieved"]
    bad.true(f"tail bound {tail!r} above the requested 1e-14", 0.0 <= tail <= 1e-14)
    kept, rest = axis_sums(a, c)
    bad.rel("Z against the full triple sum", out["Z"], (kept + rest) ** 3, tail + 1e-12)
    omitted = omitted_share(a, c, 3)
    bad.true(f"omitted Boltzmann weight {omitted:.3g} exceeds tail_bound_achieved",
             omitted <= tail + BOUND_RESOLUTION)
    p1 = axis_probs(a, c)

    exact = out["exact"]
    h1 = shannon(p1)
    bad.rel("microstate term = 3 N H(axis)", exact["microstate_term"], 3 * N * h1)
    # 3-D levels: sums of three squares with their multiplicities
    sq = np.zeros(c * c + 1)
    sq[np.arange(1, c + 1) ** 2] = 1.0
    g = np.rint(np.convolve(np.convolve(sq, sq), sq))
    s = np.nonzero(g)[0]
    level_p = p1[0] ** 3 * np.exp(-a * (s - 3.0))
    e_logfact = sum_expected_log_factorials(N, level_p, g[s])
    log_n_fact = float(gammaln(N + 1.0))
    bad.rel("expected_logW against binomial tails", exact["expected_logW"],
            log_n_fact - e_logfact)
    bad.rel("total against binomial tails", exact["total"], 3 * N * h1 - log_n_fact + e_logfact)
    boltzmann = log_n_fact - float(g[s] @ gammaln(N * level_p + 1.0))
    bad.rel("boltzmann term", exact["boltzmann"], boltzmann)
    bad.true("sandwich microstate >= boltzmann >= expected_logW fails",
             exact["microstate_term"] >= exact["boltzmann"] >= exact["expected_logW"])
    bad.true("total entropy is negative", exact["total"] >= 0.0)
    bad.true("unit is not kB", exact["unit"] == "kB")
    st = sackur_tetrode(N, mass, t, side)
    bad.rel("Sackur-Tetrode", out["sackur_tetrode_kB"], st, 1e-12)
    if params["cold"]:
        bad.true("Sackur-Tetrode is not negative in the cold box", out["sackur_tetrode_kB"] < 0)
    bad.rel("relative gap", out["relative_gap"], abs(exact["total"] - st) / exact["total"])
    return bad


def check_entropy_mvhg(params: dict, out: dict) -> Problems:
    bad = Problems()
    want = mvhg_parts(params["urn"], params["N"])
    tol = want["tol"]
    for key in ("total", "expected_logW", "microstate_term", "boltzmann"):
        bad.close(f"{key} against scipy hypergeom", out[key], want[key], tol)
    bad.true("entropy is negative", out["total"] >= -tol)
    # S(urn, N) = S(urn, U - N): the system and the environment swap roles
    twin = mvhg_parts(params["urn"], sum(params["urn"]) - params["N"])
    bad.close("system/environment symmetry", out["total"], twin["total"], tol)
    bad.true("kind/unit", out["kind"] == "MvhgDist" and out["unit"] == "nats")
    return bad


def check_empirical_info(params: dict, out: dict) -> Problems:
    bad = Problems()
    urn, N = params["urn"], params["N"]
    p = np.asarray(urn, dtype=np.float64) / sum(urn)
    exact = mvhg_parts(urn, N)
    want = multinomial_entropy(N, p) - exact["total"]
    got = out["empirical_information_nats"]
    bad.close("empirical information against scipy", got, want, exact["tol"])
    bad.true("empirical information is negative", got >= 0.0)
    return bad


def holevo_closed_form(U: int, N: int, p) -> tuple[float, float]:
    """chi = H(Mult(U, p)) - H(Mult(U - N, p)): the environment's draws are
    independent of the system's. Returns (chi, size of the cancelling terms)."""
    h_u = multinomial_entropy(U, p)
    return h_u - multinomial_entropy(U - N, p), h_u


def check_holevo(params: dict, out: dict) -> Problems:
    bad = Problems()
    chi, scale = holevo_closed_form(params["U"], params["N"], params["probs"])
    bad.true("mode", out["mode"] == params["mode"])
    if params["mode"] == "exact":
        bad.close("exact chi against the closed form", out["chi"], chi, REL * scale)
    else:
        se = out["standard_error"]
        bad.true(f"standard error {se!r} not positive", se > 0)
        bad.close("Monte Carlo chi against the closed form", out["chi"], chi, SE * se)
    return bad


def parse_converge(params: dict, stdout: str) -> tuple[list, list]:
    if params["format"] == "json":
        obj = json.loads(stdout)
        return obj["columns"], obj["rows"]
    lines = list(csv.reader(io.StringIO(stdout)))
    return lines[0], [[float(x) for x in row] for row in lines[1:]]


def check_converge(params: dict, stdout: str) -> Problems:
    bad = Problems()
    base, N, scales = params["base"], params["N"], params["scales"]
    columns, rows = parse_converge(params, stdout)
    bad.true("converge columns", columns == ["U", "tv", "hyper_entropy",
                                              "multinomial_entropy", "empirical_information"])
    bad.true("one row per scale", len(rows) == len(scales))
    # CSV cells carry 12 significant digits, JSON cells every digit
    rel = REL if params["format"] == "json" else 1e-11
    p = np.asarray(base, dtype=np.float64) / sum(base)
    support = occupancy_support(N, len(base))
    limit = stats.multinomial.pmf(support, N, p)
    h_limit = multinomial_entropy(N, p)
    for k, row in zip(scales, rows):
        urn = [k * b for b in base]
        U = sum(urn)
        bad.true(f"U at scale {k}", row[0] == U)
        tv = 0.5 * float(np.abs(stats.multivariate_hypergeom.pmf(support, urn, N) - limit).sum())
        bad.close(f"tv at U={U} against scipy", row[1], tv, PMF_TOL + rel * tv)
        hyper = mvhg_parts(urn, N)
        tol = hyper["tol"] + rel * abs(hyper["total"])
        bad.close(f"hyper entropy at U={U}", row[2], hyper["total"], tol)
        bad.rel(f"multinomial entropy at U={U}", row[3], h_limit, rel)
        bad.close(f"empirical information at U={U}", row[4], row[3] - row[2], tol)
        if base == [1, 1] and N == 2:
            exact = 1.0 / (2 * (2 * k - 1))
            bad.close(f"tv at U={U} against 1/(2(2k-1))", row[1], exact, PMF_TOL + rel * exact)
    tvs = [row[1] for row in rows]
    bad.true("tv does not fall strictly with U", all(a > b for a, b in zip(tvs, tvs[1:])))
    return bad


def check_szilard(params: dict, out: dict) -> Problems:
    bad = Problems()
    N, mass, t, side = params["N"], params["mass"], params["temperature"], params["side"]
    p_full = axis_probs(alpha(mass, t, side), out["states_full"])
    p_half = axis_probs(alpha(mass, t, side / 2.0), out["states_half"])
    tail = out["tail_bound_achieved"]
    for key, a, c in (("Z_full", alpha(mass, t, side), out["states_full"]),
                      ("Z_half", alpha(mass, t, side / 2.0), out["states_half"])):
        kept, rest = axis_sums(a, c)
        bad.rel(f"{key} against the full sum", out[key], kept + rest, tail + 1e-12)
        bad.true(f"{key}: omitted weight exceeds tail_bound_achieved",
                 omitted_share(a, c, 1) <= tail + BOUND_RESOLUTION)
    bad.rel("S_half = H(half-box axis distribution)", out["S_half_kB"], shannon(p_half))
    bad.rel("S_before = H(Mult(N, full box))", out["S_before_kB"],
            multinomial_entropy(N, p_full))
    if N == 1:
        bad.rel("S_after = ln 2 + S_half", out["S_after_kB"], math.log(2) + out["S_half_kB"])
        # the paper's 20 nm / 300 K electron: 1.988 -> ln 2 + 1.243, a fall of 0.052
        bad.close("paper S_before", out["S_before_kB"], 1.988, 0.01)
        bad.close("paper S_half", out["S_half_kB"], 1.243, 0.01)
        bad.close("paper delta", out["delta_kB"], 0.052, 0.01)
    else:
        # chain rule over the left-side count b, a function of the occupancy
        pb = stats.binom.pmf(np.arange(N + 1), N, 0.5)
        want = shannon(pb) + sum(
            pb[b] * (multinomial_entropy(b, p_half) + multinomial_entropy(N - b, p_half))
            for b in range(N + 1)
        )
        bad.rel("S_after against the chain rule", out["S_after_kB"], want)
    bad.rel("delta = before - after", out["delta_kB"], out["S_before_kB"] - out["S_after_kB"])
    return bad


def check_ledger(params: dict, out: dict) -> Problems:
    bad = Problems()
    start, steps = params["scenario"]["start"], params["scenario"]["steps"]
    N = start["N"]
    rows = out["steps"]
    bad.true("one ledger row per step", [r["label"] for r in rows] == [s["op"] for s in steps])
    for r in rows:
        bad.close(f"{r['label']}: gain = pre - post", r["information_gained"],
                  r["pre_entropy"] - r["post_entropy"], 1e-12)
    bad.rel("canonical prior entropy", rows[0]["pre_entropy"],
            multinomial_entropy(N, start["probs"]))
    post = mvhg_parts(steps[0]["urn"], N)
    bad.close("entropy after the universe measurement", rows[0]["post_entropy"],
              post["total"], post["tol"])
    bad.true("system measurement does not post 0", rows[-1]["post_entropy"] == 0.0)
    bad.rel("total information", out["total_information"],
            sum(r["information_gained"] for r in rows))
    return bad


def check_weights(what: str, out: dict, N: int, support: np.ndarray, want: np.ndarray) -> Problems:
    bad = Problems()
    got = {tuple(k): w for k, w in out["weights"]}
    keep = want > 0
    bad.true(f"{what}: support differs", set(got) == {tuple(r) for r in support[keep]})
    for row, w in zip(support[keep], want[keep]):
        bad.close(f"{what} weight of {tuple(row)}", got.get(tuple(row)), float(w), PMF_TOL)
    bad.true(f"{what}: N", out["N"] == N)
    return bad


def check_bayesian_marginal(params: dict, out: dict) -> Problems:
    support = occupancy_support(params["N"], len(params["probs"]))
    want = stats.multinomial.pmf(support, params["N"], params["probs"])
    return check_weights("bayesian marginal", out, params["N"], support, want)


def check_trace_out(params: dict, out: dict) -> Problems:
    support = occupancy_support(params["N"], len(params["urn"]))
    want = stats.multivariate_hypergeom.pmf(support, params["urn"], params["N"])
    return check_weights("traced", out, params["N"], support, want)


# --- samples -------------------------------------------------------------------


def reference_mvhg_rows(urn, N: int, seed: int, rows: int) -> np.ndarray:
    """Sequential urn depletion driven by PCG64 random(): each draw picks the
    first colour whose running remaining count exceeds u * remaining."""
    u = np.random.default_rng(seed).random(rows * N).reshape(rows, N)
    out = np.zeros((rows, len(urn)), dtype=np.int64)
    for r in range(rows):
        rem = list(urn)
        left = sum(urn)
        for t in range(N):
            x = u[r, t] * left
            acc = 0
            for c, count in enumerate(rem):
                acc += count
                if x < acc:
                    break
            out[r, c] += 1
            rem[c] -= 1
            left -= 1
    return out


def categorical_counts(probs, uniforms) -> list[int]:
    """Categorical inversion: each uniform picks the first colour whose
    cumulative probability (summed left to right, the last set to 1)
    exceeds it."""
    cdf = []
    acc = 0.0
    for q in probs:
        acc += q
        cdf.append(acc)
    cdf[-1] = 1.0
    counts = [0] * len(cdf)
    for x in uniforms:
        counts[next(c for c, f in enumerate(cdf) if x < f)] += 1
    return counts


def reference_multinomial_rows(probs, N: int, seed: int, rows: int) -> np.ndarray:
    """Categorical inversion over N consecutive PCG64 random() values per row."""
    u = np.random.default_rng(seed).random(rows * N).reshape(rows, N)
    return np.array([categorical_counts(probs, u[r]) for r in range(rows)], dtype=np.int64)


def reference_szilard_rows(spec: dict, seed: int, count: int, rows: int) -> np.ndarray:
    """The split count b of all ``count`` rows by inversion of the
    Binomial(N, f) cdf, then each row's left and right sides by categorical
    inversion over the following b and N - b uniforms."""
    N, f = spec["N"], spec["volume_fraction"]
    rng = np.random.default_rng(seed)
    split = [float(x) for x in stats.binom.pmf(np.arange(N + 1), N, f)]
    bs = [categorical_counts(split, [u]).index(1) for u in rng.random(count)[:rows]]
    out = []
    for b in bs:
        left = categorical_counts(spec["left_probs"], rng.random(b))
        out.append(left + categorical_counts(spec["right_probs"], rng.random(N - b)))
    return np.array(out, dtype=np.int64)


def parse_samples(params: dict, stdout: str) -> np.ndarray:
    if params["format"] == "csv":
        lines = list(csv.reader(io.StringIO(stdout)))
        colours = len(lines[1]) if len(lines) > 1 else 0
        if lines[0] != [f"n{i}" for i in range(colours)]:
            raise ValueError(f"bad CSV header {lines[0]!r}")
        return np.array(lines[1:], dtype=np.int64)
    obj = json.loads(stdout)
    if obj["seed"] != params["seed"]:
        raise ValueError(f"seed {obj['seed']!r} echoed, want {params['seed']!r}")
    return np.array(obj["samples"], dtype=np.int64)


FIRST_ROWS = 20


def check_sample(params: dict, rows: np.ndarray) -> Problems:
    bad = Problems()
    spec, count, seed = params["spec"], params["count"], params["seed"]
    N = spec["N"]
    bad.true(f"{rows.shape[0]} rows, want {count}", rows.shape[0] == count)
    bad.true("a row does not sum to N", bool((rows.sum(axis=1) == N).all()))
    bad.true("a count is negative", bool((rows >= 0).all()))
    if spec["kind"] == "mvhg":
        urn = np.asarray(spec["urn"])
        U = int(urn.sum())
        bad.true("a count exceeds its urn entry", bool((rows <= urn).all()))
        first = reference_mvhg_rows(spec["urn"], N, seed, FIRST_ROWS)
        bad.true("first rows differ from sequential urn depletion",
                 np.array_equal(rows[:FIRST_ROWS], first))
        frac = urn / U
        mean = N * frac
        sd = np.sqrt(N * frac * (1 - frac) * (U - N) / (U - 1))
    elif spec["kind"] == "multinomial":
        p = np.asarray(spec["probs"])
        first = reference_multinomial_rows(spec["probs"], N, seed, FIRST_ROWS)
        bad.true("first rows differ from categorical inversion",
                 np.array_equal(rows[:FIRST_ROWS], first))
        mean = N * p
        sd = np.sqrt(N * p * (1 - p))
    else:
        first = reference_szilard_rows(spec, seed, count, FIRST_ROWS)
        bad.true("first rows differ from split inversion then categorical inversion",
                 np.array_equal(rows[:FIRST_ROWS], first))
        f = spec["volume_fraction"]
        k = len(spec["left_probs"])
        left = rows[:, :k].sum(axis=1)
        bad.close("mean left count", float(left.mean()), N * f,
                  SE * math.sqrt(N * f * (1 - f) / count))
        p = np.concatenate([f * np.asarray(spec["left_probs"]),
                            (1 - f) * np.asarray(spec["right_probs"])])
        mean = N * p
        sd = np.sqrt(N * p * (1 - p))
    for c, (m, s) in enumerate(zip(mean, sd)):
        bad.close(f"mean of colour {c}", float(rows[:, c].mean()), float(m),
                  SE * float(s) / math.sqrt(count))
    return bad


def check_mc_entropy(params: dict, out: list) -> Problems:
    bad = Problems()
    est, se = out
    spec = params["spec"]
    support = occupancy_support(spec["N"], len(spec["urn"]))
    exact = shannon(stats.multivariate_hypergeom.pmf(support, spec["urn"], spec["N"]))
    bad.true(f"standard error {se!r} not positive", se > 0)
    bad.close("Monte Carlo entropy against exact enumeration", est, exact, SE * se)
    return bad


# --- dispatch ------------------------------------------------------------------


CHECKS = {
    "gas": check_gas,
    "entropy_mvhg": check_entropy_mvhg,
    "empirical_info": check_empirical_info,
    "holevo": check_holevo,
    "szilard": check_szilard,
    "ledger": check_ledger,
    "bayesian_marginal": check_bayesian_marginal,
    "trace_out_environment": check_trace_out,
    "mc_entropy_estimate": check_mc_entropy,
}


def check(op: dict, stdout: str) -> list[str]:
    """Problems with one op's output; empty when it is correct."""
    kind, params = op["kind"], op["params"]
    try:
        if kind == "converge":
            return check_converge(params, stdout)
        if kind == "sample":
            return check_sample(params, parse_samples(params, stdout))
        out = json.loads(stdout)
        if "argv" in op and out.get("schema_version") != 1:
            return ["schema_version is not 1"]
        return CHECKS[kind](params, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_same_rows(ops: list[dict], outputs: dict[str, str]) -> list[str]:
    """The JSON and CSV forms of the same seeded sample carry the same rows."""
    by_spec: dict[str, list[np.ndarray]] = {}
    for op in ops:
        if op["kind"] == "sample" and op["id"] in outputs:
            key = json.dumps([op["params"]["spec"], op["params"]["count"], op["params"]["seed"]])
            try:
                by_spec.setdefault(key, []).append(parse_samples(op["params"], outputs[op["id"]]))
            except (ValueError, KeyError) as exc:
                return [f"unreadable sample output: {exc}"]
    return [f"JSON and CSV samples differ for {key}"
            for key, arrays in by_spec.items()
            if any(not np.array_equal(arrays[0], a) for a in arrays[1:])]
