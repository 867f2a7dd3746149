"""40-digit mpmath references for the ``boltzmann`` field of the MVHG golden
cases: ln Gamma(M + 1) - sum_c ln Gamma(m_c + 1) at the mean occupancy
m_c = N u_c / U (as float64, the values the CLI forms), M = sum_c m_c, in
the case's unit. Prints one row per case: the stored value, the reference
and the stored value's distance from it.

    PYTHONPATH=src python tests/golden/boltzmann_references.py
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp
import numpy as np

HERE = Path(__file__).resolve().parent
CASES = ("entropy_mvhg_bits", "entropy_mvhg_kB", "entropy_mvhg_past_table")


def reference(urn: list[int], N: int, unit: str) -> mp.mpf:
    mean = N * np.asarray(urn, dtype=np.float64) / sum(urn)
    m = [mp.mpf(float(x)) for x in mean]
    value = mp.loggamma(mp.fsum(m) + 1) - mp.fsum(mp.loggamma(x + 1) for x in m)
    return value / mp.log(2) if unit == "bits" else value


def main() -> None:
    cases = {c["name"]: c for c in json.loads((HERE / "cases.json").read_text())}
    mp.mp.dps = 40
    for name in CASES:
        argv = cases[name]["argv"]
        spec = json.loads(argv[1])
        unit = argv[argv.index("--unit") + 1] if "--unit" in argv else "nats"
        stored = json.loads((HERE / f"{name}.out").read_text())["boltzmann"]
        want = reference(spec["urn"], spec["N"], unit)
        off = float(abs(mp.mpf(stored) - want))
        print(f"{name}: stored {stored!r}, mpmath {mp.nstr(want, 20)}, off by {off:.2g}")


if __name__ == "__main__":
    main()
