"""Acceptance suite: every release criterion, one printed verdict line each.

The verdict lines bypass pytest's capture, so a plain
`pytest tests/test_acceptance.py` shows them as the criteria run;
tolerances are fixed here and nowhere else.
"""

import json
import math
import time
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from occupancy_entropy import (
    BoxModel,
    MultinomialDist,
    MvhgDist,
    OccupancyVector,
    OneParticleDistribution,
    brute_force_mvhg,
    brute_force_partial_trace,
    convergence_scan,
    empirical_information,
    entropy_by_enumeration,
    enumerate_occupancies,
    holevo_chi,
    ideal_gas_entropy,
    multinomial_entropy,
    mvhg_entropy,
    sandwich_check,
)
from occupancy_entropy.cli import main
from occupancy_entropy.combinatorics import support_matrix

ELECTRON_MASS = 9.11e-31


@pytest.fixture
def verdict(capsys):
    @contextmanager
    def _verdict(number: int, description: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[criterion {number}] FAIL - {description}")
            raise
        with capsys.disabled():
            print(f"[criterion {number}] PASS - {description}")

    return _verdict


def all_urns(num_colors: int, max_total: int):
    for total in range(max_total + 1):
        yield from enumerate_occupancies(total, num_colors)


PROB_SETS = {
    1: [(1.0,)],
    2: [(0.5, 0.5), (0.2, 0.8), (1.0, 0.0)],
    3: [(1 / 3, 1 / 3, 1 / 3), (0.2, 0.3, 0.5), (0.7, 0.3, 0.0)],
    4: [(0.25, 0.25, 0.25, 0.25), (0.1, 0.2, 0.3, 0.4), (0.5, 0.5, 0.0, 0.0)],
}


def test_criterion_01_szilard_reproduction(verdict, capsys):
    with verdict(1, "piston insertion reproduces 1.988 / 1.243 / 0.052 kB (+-0.01)"):
        start = time.monotonic()
        code = main(
            ["szilard", "--model",
             '{"mass_kg":9.11e-31,"temperature_K":300,"side_m":20e-9,"dims":1}']
        )
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["S_before_kB"] == pytest.approx(1.988, abs=0.01)
        assert payload["S_half_kB"] == pytest.approx(1.243, abs=0.01)
        assert payload["delta_kB"] == pytest.approx(0.052, abs=0.01)
        assert elapsed < 1.0


def test_criterion_02_oracle_equivalence(verdict):
    with verdict(2, "decompositions, pmfs and oracles agree on the full small sweep"):
        start = time.monotonic()
        # multinomial side: every N <= 5, |C| <= 4, three vectors per |C|
        for c, probs_list in PROB_SETS.items():
            for probs in probs_list:
                p = OneParticleDistribution(np.asarray(probs))
                for n in range(6):
                    d = MultinomialDist(n, p)
                    assert multinomial_entropy(d).total == pytest.approx(
                        entropy_by_enumeration(d), abs=1e-10
                    )
        # hypergeometric side: every urn over |C| <= 4 colors with U <= 10
        for c in range(1, 5):
            for urn in all_urns(c, 10):
                for n in range(urn.total + 1):
                    d = MvhgDist(urn, n)
                    assert mvhg_entropy(d).total == pytest.approx(
                        entropy_by_enumeration(d), abs=1e-10
                    ), (urn.counts, n)
                    # every system row of the support, by one batch call
                    rows = support_matrix(n, c)
                    table = {k.counts: float(v) for k, v in brute_force_mvhg(urn, n).items()}
                    exact = np.array([table.get(r, 0.0) for r in map(tuple, rows.tolist())])
                    gap = np.abs(np.exp(d.log_pmf_batch(rows)) - exact)
                    assert np.all(gap <= 1e-12), (urn.counts, n, gap.max())
        # microstate-enumeration trace, inside its own documented domain
        for c, u_max in [(1, 10), (2, 10), (3, 10), (4, 8)]:
            for urn in all_urns(c, u_max):
                for n in range(urn.total + 1):
                    assert brute_force_partial_trace(urn, n) == brute_force_mvhg(
                        urn, n
                    ), (urn.counts, n)
        assert time.monotonic() - start < 60.0


def test_criterion_03_bayesian_marginal_identity(verdict):
    from occupancy_entropy import bayesian_marginal_check

    with verdict(3, "prior-averaged trace equals the direct multinomial (<=1e-12)"):
        for c in (1, 2, 3):
            for probs in PROB_SETS[c]:
                p = OneParticleDistribution(np.asarray(probs))
                for U in range(1, 9):
                    for N in range(U + 1):
                        assert bayesian_marginal_check(U, N, p) <= 1e-12, (
                            probs, U, N,
                        )


def test_criterion_04_convergence_to_multinomial(verdict):
    with verdict(4, "TV to the multinomial limit: exact refs, monotone, <1e-3 by U>=2e3"):
        base = OccupancyVector((1, 1))
        rows = convergence_scan(base, 2, [2, 20])
        assert rows[0] == (4, pytest.approx(1 / 6, abs=1e-6))
        assert rows[1] == (40, pytest.approx(1 / 78, abs=1e-6))
        scales = [2**k for k in range(1, 12)]  # U = 4 .. 4096
        tvs = convergence_scan(base, 2, scales)
        values = [tv for _, tv in tvs]
        assert all(b < a for a, b in zip(values, values[1:]))
        below = [tv for U, tv in tvs if U >= 2000]
        assert below and all(tv < 1e-3 for tv in below)


def test_criterion_05_sandwich_and_nonnegativity(verdict):
    with verdict(5, "1000 random multinomials satisfy the bracket and total >= 0"):
        rng = np.random.default_rng(20250811)
        for i in range(1000):
            n = int(rng.integers(0, 31))
            c = int(rng.integers(1, 9))
            w = rng.random(c) ** 2
            if i % 5 == 0 and c > 1:  # sprinkle in degenerate colors
                w[rng.integers(0, c)] = 0.0
            if w.sum() == 0.0:
                w[0] = 1.0
            d = MultinomialDist(n, OneParticleDistribution.from_weights(w))
            res = sandwich_check(d, tol=1e-9)
            assert res.holds, (i, n, c)
            assert multinomial_entropy(d).total >= -1e-9


def test_criterion_06_sackur_tetrode_regimes(verdict):
    with verdict(6, "closed form within 1% at high T/density; negative at low T while exact >= 0"):
        # high-temperature-to-density point: electron gas at 300 K in a
        # 100 nm box, where V/(N lambda^3) ~ 1e2 actually holds
        high = ideal_gas_entropy(BoxModel(ELECTRON_MASS, 300.0, 100e-9, 3), 100)
        assert high.relative_gap < 0.01
        assert high.exact.total >= 0
        # low-temperature point: same gas, 20 nm box at 3 K
        low = ideal_gas_entropy(BoxModel(ELECTRON_MASS, 3.0, 20e-9, 3), 100)
        assert low.sackur_tetrode < 0
        assert low.exact.total >= 0


def test_criterion_07_information_nonnegativity(verdict):
    with verdict(7, "chi and empirical information >= 0 and vanish with the universe"):
        # exact Holevo sweep
        for c in (1, 2, 3):
            for probs in PROB_SETS[c]:
                p = OneParticleDistribution(np.asarray(probs))
                for U in range(1, 11):
                    for N in range(0, min(U, 3) + 1):
                        assert holevo_chi(U, N, p).chi >= -1e-12, (probs, U, N)
        # empirical information on 1000 random urns
        rng = np.random.default_rng(817)
        for _ in range(1000):
            c = int(rng.integers(1, 5))
            counts = rng.integers(0, 9, size=c)
            if counts.sum() == 0:
                counts[0] = 1
            urn = OccupancyVector(tuple(int(x) for x in counts))
            n = int(rng.integers(0, urn.total + 1))
            assert empirical_information(urn, n) >= -1e-12
        # both shrink toward zero along scaled universes at fixed N
        fair = OneParticleDistribution([0.5, 0.5])
        chis = [holevo_chi(u, 2, fair).chi for u in (4, 8, 16, 32, 64)]
        assert all(b < a + 1e-9 and b < a for a, b in zip(chis, chis[1:]))
        infos = [
            empirical_information(OccupancyVector((1, 1)).scaled(k), 2)
            for k in (2, 20, 200, 2000)
        ]
        assert all(b < a + 1e-9 and b < a for a, b in zip(infos, infos[1:]))


def test_criterion_08_system_environment_symmetry(verdict):
    with verdict(8, "S(urn, N) equals S(urn, U-N) across the small sweep (<=1e-10)"):
        for c, u_max in [(1, 10), (2, 10), (3, 10), (4, 8)]:
            for urn in all_urns(c, u_max):
                for n in range(urn.total // 2 + 1):
                    a = mvhg_entropy(MvhgDist(urn, n)).total
                    b = mvhg_entropy(MvhgDist(urn, urn.total - n)).total
                    assert a == pytest.approx(b, abs=1e-10), (urn.counts, n)


def test_criterion_09_mutual_information_identity(verdict):
    with verdict(9, "occupancy entropy equals microstate mutual information (<=1e-10)"):
        for c in (2, 3):
            for probs in PROB_SETS[c]:
                p = np.asarray(probs)
                for n in range(1, 5):
                    h_micro = 0.0
                    e_logw = 0.0
                    for micro in product(range(c), repeat=n):
                        prob = float(np.prod(p[list(micro)]))
                        if prob == 0.0:
                            continue
                        h_micro -= prob * math.log(prob)
                        w = math.factorial(n)
                        for color in range(c):
                            w //= math.factorial(micro.count(color))
                        e_logw += prob * math.log(w)
                    d = MultinomialDist(n, OneParticleDistribution(p))
                    total = multinomial_entropy(d).total
                    assert total == pytest.approx(h_micro - e_logw, abs=1e-10), (
                        probs, n,
                    )
