"""Seeded inputs of the three benchmark workloads.

Every op is a plain dict that survives a JSON round trip, because the
worker process runs it and the checker process checks it:

    {"id": str, "kind": str, "argv": [...]}          one CLI command
    {"id": str, "kind": str, "call": str, "args": {...}}  one library call

plus the parameters the checker needs (``params``). The seed perturbs
temperatures, probabilities and urn counts by a few percent; it never
changes a size (U, N, colours, rows), so an op's cost does not depend on
the seed. All sizes keep N <= 1000 and U - N <= 1000, where the program's
count-marginal sums are exact (above that they are windowed).
"""

from __future__ import annotations

import json
import math

import numpy as np

# The program's documented rounded constants (not CODATA).
PLANCK_H = 6.626e-34
BOLTZMANN_KB = 1.38e-23
ELECTRON_MASS = 9.11e-31
TAIL_BOUND = 1e-14

WORKLOADS = ("gas", "urn", "sample")


def axis_cutoff(mass: float, temperature: float, side: float, axes: int) -> int:
    """Per-axis spectrum cutoff under the documented stopping rule.

    Used only to pick perturbed temperatures that keep the number of
    retained states (the op's size) equal to the unperturbed one.
    """
    alpha = PLANCK_H**2 / (8.0 * mass * side**2) / (BOLTZMANN_KB * temperature)
    z = 0.0
    c = 0
    while True:
        c += 1
        w = math.exp(-alpha * (c * c - 1.0))
        z += w
        tail = w / (2.0 * alpha * c)
        achieved = tail / z if axes == 1 else ((z + tail) ** 3 - z**3) / z**3
        if achieved <= TAIL_BOUND:
            return c


def _temperature(rng, t0: float, sides: tuple[float, ...], axes: int) -> float:
    """t0 perturbed by up to 3%, keeping every listed box's cutoff."""
    want = [axis_cutoff(ELECTRON_MASS, t0, s, axes) for s in sides]
    while True:
        t = t0 * (1.0 + rng.uniform(-0.03, 0.03))
        # the margin keeps clear of a cutoff edge that rounding could cross
        if all(
            axis_cutoff(ELECTRON_MASS, t * f, s, axes) == c
            for s, c in zip(sides, want)
            for f in (1.0 - 1e-6, 1.0, 1.0 + 1e-6)
        ):
            return t


def _probs(rng, base) -> list[float]:
    w = np.asarray(base, dtype=np.float64) * (1.0 + rng.uniform(-0.05, 0.05, len(base)))
    return [float(x) for x in w / w.sum()]


def _urn(rng, base) -> list[int]:
    """Counts moved between colours by a few percent; the total is kept."""
    counts = list(base)
    for _ in range(len(counts)):
        i, j = rng.choice(len(counts), size=2, replace=False)
        move = int(rng.integers(0, max(1, counts[i] // 20) + 1))
        counts[i] -= move
        counts[j] += move
    return counts


def _box(temperature: float, side: float, dims: int) -> str:
    return json.dumps(
        {"mass_kg": ELECTRON_MASS, "temperature_K": temperature, "side_m": side, "dims": dims}
    )


def _cli(op_id: str, kind: str, argv: list[str], **params) -> dict:
    return {"id": op_id, "kind": kind, "argv": argv, "params": params}


def _call(op_id: str, call: str, **args) -> dict:
    return {"id": op_id, "kind": call, "call": call, "args": args, "params": args}


def gas_ops(rng) -> list[dict]:
    ops = []
    for op_id, t0, side, n in (
        ("gas_20nm_300K_N1000", 300.0, 20e-9, 1000),
        ("gas_20nm_3K_N100", 3.0, 20e-9, 100),
        ("gas_60nm_300K_N100", 300.0, 60e-9, 100),
    ):
        t = _temperature(rng, t0, (side,), 3)
        ops.append(
            _cli(
                op_id,
                "gas",
                ["gas", "--model", _box(t, side, 3), "--particles", str(n)],
                mass=ELECTRON_MASS,
                temperature=t,
                side=side,
                N=n,
                cold=t0 < 10.0,
            )
        )
    return ops


def urn_ops(rng, seed: int) -> list[dict]:
    ops = []
    for op_id, U, N, mode in (
        ("holevo_U60_N10", 60, 10, "exact"),
        ("holevo_U200_N20", 200, 20, "exact"),
        ("holevo_U1000_N100_mc", 1000, 100, "monte_carlo"),
    ):
        p = _probs(rng, [0.5, 0.3, 0.2])
        argv = ["holevo", "--universe-size", str(U), "--draws", str(N),
                "--probs", ",".join(repr(x) for x in p), "--mode", mode]
        if mode == "monte_carlo":
            argv += ["--mc-samples", "4000", "--seed", str(seed)]
        ops.append(_cli(op_id, "holevo", argv, U=U, N=N, probs=p, mode=mode))

    urn3 = _urn(rng, [300, 200, 500])
    urn5 = _urn(rng, [100, 200, 150, 250, 300])
    for op_id, urn, n in (
        ("entropy_mvhg3_N300", urn3, 300),
        ("entropy_mvhg3_N700", urn3, 700),
        ("entropy_mvhg5_N400", urn5, 400),
    ):
        spec = json.dumps({"kind": "mvhg", "urn": urn, "N": n})
        ops.append(_cli(op_id, "entropy_mvhg", ["entropy", spec], urn=urn, N=n))
    for op_id, urn, n in (
        ("empinfo_mvhg3_N500", urn3, 500),
        ("empinfo_mvhg5_N600", urn5, 600),
    ):
        argv = ["empirical-info", "--urn", ",".join(map(str, urn)), "--draws", str(n)]
        ops.append(_cli(op_id, "empirical_info", argv, urn=urn, N=n))

    scales = [1, 2, 3, 4, 5, 10, 15, 20, 30, 50]
    base = _urn(rng, [4, 6, 10])
    argv = ["converge", "--base-urn", ",".join(map(str, base)), "--draws", "10",
            "--scales", ",".join(map(str, scales)), "--format", "json"]
    ops.append(_cli("converge_ladder", "converge", argv,
                    base=base, N=10, scales=scales, format="json"))
    # urn (1,1), N=2: TV(k) = 1/(2(2k-1)) exactly, so 1/6 at k=2 and 1/78 at k=20
    ladder = [1, 2, 3, 4, 5, 10, 20, 50, 100, 200]
    argv = ["converge", "--base-urn", "1,1", "--draws", "2",
            "--scales", ",".join(map(str, ladder))]
    ops.append(_cli("converge_pair", "converge", argv,
                    base=[1, 1], N=2, scales=ladder, format="csv"))

    # N=1 is the paper's 20 nm / 300 K electron and is not perturbed
    t = _temperature(rng, 300.0, (20e-9, 10e-9), 1)
    for n, temp in ((1, 300.0), (2, t), (3, t)):
        argv = ["szilard", "--model", _box(temp, 20e-9, 1), "--particles", str(n)]
        ops.append(_cli(f"szilard_N{n}", "szilard", argv,
                        mass=ELECTRON_MASS, temperature=temp, side=20e-9, N=n))

    p = _probs(rng, [0.5, 0.3, 0.2])
    scenario = {
        "start": {"kind": "bayesian", "N": 10, "probs": p},
        "steps": [
            {"op": "pvm_on_universe", "urn": _urn(rng, [30, 20, 10])},
            {"op": "separate_system"},
            {"op": "pvm_on_system"},
        ],
    }
    ops.append(_cli("ledger_bayesian", "ledger", ["ledger", json.dumps(scenario)],
                    scenario=scenario))

    ops.append(_call("bayesian_marginal_U30_N6", "bayesian_marginal",
                     U=30, N=6, probs=_probs(rng, [0.5, 0.3, 0.2])))
    ops.append(_call("trace_out_U60_N20", "trace_out_environment",
                     urn=_urn(rng, [30, 20, 10]), N=20))
    return ops


def sample_ops(rng, seed: int) -> list[dict]:
    urn = _urn(rng, [300, 200, 500])
    mvhg = {"kind": "mvhg", "urn": urn, "N": 500}
    mult = {"kind": "multinomial", "N": 500, "probs": _probs(rng, [0.3, 0.2, 0.5])}
    left = _probs(rng, [0.4, 0.25, 0.15, 0.12, 0.08])
    right = _probs(rng, [0.4, 0.25, 0.15, 0.12, 0.08])
    fraction = 0.5 * (1.0 + rng.uniform(-0.05, 0.05))
    szilard = {"kind": "szilard", "N": 50, "volume_fraction": fraction,
               "left_probs": left, "right_probs": right}
    small = {"kind": "mvhg", "urn": _urn(rng, [20, 15, 25]), "N": 10}
    ops = []
    for op_id, spec, count, fmt in (
        ("sample_mvhg_json", mvhg, 2000, "json"),
        ("sample_mvhg_csv", mvhg, 2000, "csv"),
        ("sample_multinomial", mult, 2000, "json"),
        ("sample_szilard", szilard, 5000, "json"),
    ):
        argv = ["sample", json.dumps(spec), "--count", str(count),
                "--seed", str(seed), "--format", fmt]
        ops.append(_cli(op_id, "sample", argv, spec=spec, count=count, seed=seed, format=fmt))
    ops.append(_call("mc_entropy_small_mvhg", "mc_entropy_estimate",
                     spec=small, samples=20000, seed=seed))
    return ops


def make_ops(workload: str, seed: int) -> list[dict]:
    """The ops of one round of ``workload``; the same seed gives the same ops."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    # program seeds stay in the range the CLI accepts as an int
    prog_seed = int(rng.integers(0, 2**31 - 1))
    if workload == "gas":
        return gas_ops(rng)
    if workload == "urn":
        return urn_ops(rng, prog_seed)
    if workload == "sample":
        return sample_ops(rng, prog_seed)
    raise ValueError(f"unknown workload {workload!r}")
